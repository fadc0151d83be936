//! Persistent-store integration tests: warm-store campaigns rebuild
//! nothing, concurrent campaigns sharing a store build each artifact
//! once, and store corruption degrades to a rebuild.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

use ntg_explore::{
    partial_path, run_campaign, CampaignSpec, CoreSelection, MasterChoice, RunOptions,
};
use ntg_platform::InterconnectChoice;
use ntg_workloads::Workload;

/// 2 workloads × 2 cores × 1 fabric × (cpu + tg + stochastic) = 6
/// jobs, 2 distinct traces.
fn spec() -> CampaignSpec {
    spec_of(
        "store-test",
        vec![
            Workload::MpMatrix { n: 8 },
            Workload::Cacheloop { iterations: 500 },
        ],
    )
}

/// `workloads` × 2 cores × AMBA × (cpu + tg + stochastic).
fn spec_of(name: &str, workloads: Vec<Workload>) -> CampaignSpec {
    let mut spec = CampaignSpec::new(name);
    spec.workloads = workloads;
    spec.cores = CoreSelection::List(vec![2]);
    spec.interconnects = vec![InterconnectChoice::Amba];
    spec.masters = vec![
        MasterChoice::Cpu,
        MasterChoice::Tg,
        MasterChoice::Stochastic,
    ];
    spec
}

/// A fresh scratch directory under the target-adjacent temp root.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ntg-store-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(out: &Path, store: &Path) -> RunOptions {
    RunOptions {
        threads: 2,
        out: Some(out.to_path_buf()),
        store: Some(store.to_path_buf()),
        ..RunOptions::default()
    }
}

#[test]
fn warm_store_reruns_with_zero_builds_and_identical_bytes() {
    let dir = scratch("warm");
    let store = dir.join("store");

    let cold = run_campaign(&spec(), &opts(&dir.join("cold.jsonl"), &store)).unwrap();
    assert_eq!(cold.cache.trace_misses, 2, "cold run builds every trace");
    assert_eq!(cold.cache.trace_disk_hits, 0);
    assert_eq!(cold.cache.image_misses, 2);
    assert!(cold.cache.store_bytes > 0, "artifacts persisted to disk");

    let warm = run_campaign(&spec(), &opts(&dir.join("warm.jsonl"), &store)).unwrap();
    assert_eq!(warm.cache.trace_misses, 0, "warm run must not re-trace");
    assert_eq!(warm.cache.image_misses, 0, "warm run must not re-translate");
    assert_eq!(warm.cache.trace_disk_hits, 2);
    assert_eq!(warm.cache.image_disk_hits, 2);

    // Replays from decoded artifacts are bit-true to fresh ones.
    assert_eq!(
        fs::read(dir.join("cold.jsonl")).unwrap(),
        fs::read(dir.join("warm.jsonl")).unwrap()
    );
}

/// Two campaigns in flight at once, each with its own store handle over
/// one directory (as two processes would be), overlapping on one design
/// point: the shared trace and image are built by one of them and read
/// from disk by the other, whose trace producer then runs untraced.
/// Whether the loser waits on the winner's build lock or finds the entry
/// already written depends on timing, so the pair runs three times, each
/// on a fresh store.
#[test]
fn two_campaigns_sharing_a_store_build_each_trace_once() {
    let dir = scratch("shared");
    let specs = [
        spec_of(
            "shared-a",
            vec![
                Workload::Cacheloop { iterations: 500 },
                Workload::MpMatrix { n: 8 },
            ],
        ),
        spec_of(
            "shared-b",
            vec![
                Workload::MpMatrix { n: 8 },
                Workload::Des { blocks_per_core: 4 },
            ],
        ),
    ];
    let distinct_points = 3;
    let solo: Vec<Vec<u8>> = specs
        .iter()
        .map(|spec| {
            let out = dir.join(format!("{}-solo.jsonl", spec.name));
            run_campaign(
                spec,
                &RunOptions {
                    threads: 2,
                    out: Some(out.clone()),
                    ..RunOptions::default()
                },
            )
            .unwrap();
            fs::read(out).unwrap()
        })
        .collect();

    for round in 0..3 {
        let store = dir.join(format!("store-{round}"));
        let out = |spec: &CampaignSpec| dir.join(format!("{}-{round}.jsonl", spec.name));
        let start = Barrier::new(specs.len());
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| {
                    let (out, store, start) = (out(spec), &store, &start);
                    s.spawn(move || {
                        start.wait();
                        run_campaign(spec, &opts(&out, store)).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let built = |f: fn(&ntg_explore::CacheSnapshot) -> u64| -> u64 {
            outcomes.iter().map(|o| f(&o.cache)).sum()
        };
        assert_eq!(
            built(|c| c.trace_misses),
            distinct_points,
            "round {round}: the shared point's trace is built once between the campaigns"
        );
        assert_eq!(built(|c| c.image_misses), distinct_points, "round {round}");
        assert_eq!(
            built(|c| c.trace_disk_hits),
            1,
            "round {round}: the campaign that lost the race reads the shared trace from disk"
        );
        for (spec, solo) in specs.iter().zip(&solo) {
            assert!(
                fs::read(out(spec)).unwrap() == *solo,
                "round {round}, {}: a shared store must not change canonical bytes",
                spec.name
            );
            assert!(
                !partial_path(&out(spec)).exists(),
                "{}: stray journal",
                spec.name
            );
        }
        let leftovers: Vec<_> = walk(&store)
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "lock"))
            .collect();
        assert!(leftovers.is_empty(), "stray build locks: {leftovers:?}");
    }
}

#[test]
fn corrupt_store_entries_degrade_to_a_rebuild() {
    let dir = scratch("corrupt");
    let store = dir.join("store");
    let cold = run_campaign(&spec(), &opts(&dir.join("cold.jsonl"), &store)).unwrap();
    assert_eq!(cold.cache.trace_misses, 2);

    // Flip a byte in every persisted trace entry — a torn write, bad
    // disk, or codec drift should cost a rebuild, never a wrong answer.
    let mut corrupted = 0;
    for entry in walk(&store) {
        if entry.extension().is_some_and(|e| e == "trace") {
            let mut bytes = fs::read(&entry).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            fs::write(&entry, bytes).unwrap();
            corrupted += 1;
        }
    }
    assert_eq!(corrupted, 2, "expected one entry per trace artifact");

    let rerun = run_campaign(&spec(), &opts(&dir.join("rerun.jsonl"), &store)).unwrap();
    assert_eq!(
        rerun.cache.trace_disk_hits, 0,
        "corrupt entries must not hit"
    );
    assert_eq!(rerun.cache.trace_misses, 2, "both traces rebuilt");
    assert_eq!(
        rerun.cache.image_disk_hits, 2,
        "image entries were untouched"
    );
    assert_eq!(
        fs::read(dir.join("cold.jsonl")).unwrap(),
        fs::read(dir.join("rerun.jsonl")).unwrap()
    );

    // And the rebuild healed the store: a third run hits everything.
    let healed = run_campaign(&spec(), &opts(&dir.join("healed.jsonl"), &store)).unwrap();
    assert_eq!(healed.cache.trace_misses, 0);
    assert_eq!(healed.cache.trace_disk_hits, 2);
}

fn walk(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out
}
