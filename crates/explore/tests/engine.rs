//! End-to-end campaign engine tests: determinism across worker-thread
//! counts, exactly-once artifact building (each trace inside its
//! point's CPU reference run), and resume-from-partial.

use std::fs;
use std::time::Duration;

use ntg_explore::{
    metrics_path, parse_results, partial_path, run_campaign, timings_path, CampaignSpec,
    CoreSelection, DiskStore, Json, MasterChoice, RunOptions,
};
use ntg_platform::InterconnectChoice;
use ntg_workloads::synthetic::{ALL_PATTERNS, ALL_SHAPES};
use ntg_workloads::Workload;

/// A small but representative campaign: 2 workloads × 2 core counts ×
/// 2 fabrics × (cpu + tg) = 16 jobs, 4 distinct traces.
fn small_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("engine-test");
    spec.workloads = vec![
        Workload::MpMatrix { n: 8 },
        Workload::Cacheloop { iterations: 500 },
    ];
    spec.cores = CoreSelection::List(vec![2, 4]);
    spec.interconnects = vec![InterconnectChoice::Amba, InterconnectChoice::Xpipes];
    spec
}

fn tmp_out(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("ntg-explore-tests");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(partial_path(&path));
    path
}

#[test]
fn jsonl_is_byte_identical_across_thread_counts() {
    let spec = small_spec();
    let out1 = tmp_out("threads1.jsonl");
    let out4 = tmp_out("threads4.jsonl");
    run_campaign(
        &spec,
        &RunOptions {
            threads: 1,
            out: Some(out1.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    run_campaign(
        &spec,
        &RunOptions {
            threads: 4,
            out: Some(out4.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let a = fs::read(&out1).unwrap();
    let b = fs::read(&out4).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "canonical files must not depend on worker count");
}

#[test]
fn zero_threads_auto_detects_and_matches_single_thread() {
    let spec = small_spec();
    let out0 = tmp_out("threads0.jsonl");
    let out1 = tmp_out("threads0-ref.jsonl");
    for (threads, out) in [(0, &out0), (1, &out1)] {
        run_campaign(
            &spec,
            &RunOptions {
                threads,
                out: Some(out.clone()),
                ..RunOptions::default()
            },
        )
        .unwrap();
    }
    assert_eq!(
        fs::read(&out0).unwrap(),
        fs::read(&out1).unwrap(),
        "auto-detected worker count must not change canonical output"
    );
    // The timings sidecar header records the worker count that ran, not
    // the `0` that asked for auto-detection.
    let threads_of = |out: &std::path::Path| -> u64 {
        let timings = fs::read_to_string(timings_path(out)).unwrap();
        let header = Json::parse(timings.lines().next().unwrap()).unwrap();
        header.get("threads").and_then(Json::as_u64).unwrap()
    };
    assert!(threads_of(&out0) >= 1, "auto-detect must resolve to >= 1");
    assert_eq!(threads_of(&out1), 1);
}

#[test]
fn each_trace_and_translation_happens_exactly_once() {
    let spec = small_spec();
    let outcome = run_campaign(
        &spec,
        &RunOptions {
            threads: 4,
            ..RunOptions::default()
        },
    )
    .unwrap();
    // 2 workloads × 2 core counts share one trace interconnect → 4
    // distinct traces, each collected by the point's CPU job on AMBA;
    // every TG job uses the same translator config → 4 distinct image
    // sets. All 8 TG jobs find their trace built.
    assert_eq!(outcome.cache.trace_misses, 4);
    assert_eq!(outcome.cache.trace_hits, 8);
    assert_eq!(outcome.cache.image_misses, 4);
    assert_eq!(outcome.cache.image_hits, 4);
    // The per-result flags agree with the counters.
    let tg_results: Vec<_> = outcome
        .results
        .iter()
        .filter(|r| r.master == "tg")
        .collect();
    assert_eq!(tg_results.len(), 8);
    assert_eq!(
        tg_results
            .iter()
            .filter(|r| r.image_cache_hit == Some(false))
            .count(),
        4
    );
    // And every job completed and verified (TG replays reproduce the
    // golden memory image).
    for r in &outcome.results {
        assert!(r.error.is_none(), "{}: {:?}", r.key, r.error);
        assert!(r.completed, "{}", r.key);
        assert_eq!(r.verified, Some(true), "{}", r.key);
    }
}

#[test]
fn resume_completes_only_missing_jobs_and_matches_full_run() {
    let spec = small_spec();
    // Full run → the ground-truth canonical file.
    let full = tmp_out("resume-full.jsonl");
    run_campaign(
        &spec,
        &RunOptions {
            threads: 2,
            out: Some(full.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let full_bytes = fs::read(&full).unwrap();

    // Simulate an interrupted run: a journal holding the header and the
    // first half of the results.
    let out = tmp_out("resume-half.jsonl");
    let text = String::from_utf8(full_bytes.clone()).unwrap();
    let half: Vec<&str> = text.lines().take(1 + 8).collect();
    fs::write(partial_path(&out), half.join("\n") + "\n").unwrap();

    let outcome = run_campaign(
        &spec,
        &RunOptions {
            threads: 2,
            out: Some(out.clone()),
            resume: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.resumed, 8);
    assert_eq!(outcome.executed, 8);
    assert_eq!(fs::read(&out).unwrap(), full_bytes);
    assert!(
        !partial_path(&out).exists(),
        "journal is removed on finalise"
    );
}

#[test]
fn resume_drops_a_torn_trailing_journal_line_and_reruns_that_job() {
    let spec = small_spec();
    let full = tmp_out("resume-torn-full.jsonl");
    run_campaign(
        &spec,
        &RunOptions {
            threads: 2,
            out: Some(full.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let full_bytes = fs::read(&full).unwrap();
    let text = String::from_utf8(full_bytes.clone()).unwrap();

    // A crash mid-append leaves the journal with intact lines followed
    // by a torn tail. Model both failure shapes the filesystem can
    // produce: a line cut mid-JSON (no newline), and garbage bytes.
    for (label, tail) in [
        ("truncated", {
            let line = text.lines().nth(9).unwrap();
            line[..line.len() / 2].to_string()
        }),
        ("garbage", "{\"id\":not json at all".to_string()),
    ] {
        let out = tmp_out(&format!("resume-torn-{label}.jsonl"));
        let mut journal: Vec<&str> = text.lines().take(1 + 8).collect();
        journal.push(&tail);
        fs::write(partial_path(&out), journal.join("\n")).unwrap();

        let outcome = run_campaign(
            &spec,
            &RunOptions {
                threads: 2,
                out: Some(out.clone()),
                resume: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        // The 8 intact results are adopted; the torn 9th is re-run
        // along with the 7 never-started jobs.
        assert_eq!(outcome.resumed, 8, "{label}");
        assert_eq!(outcome.executed, 8, "{label}");
        assert_eq!(
            fs::read(&out).unwrap(),
            full_bytes,
            "{label}: resumed canonical file must match the full run"
        );
    }
}

#[test]
fn resume_rejects_a_mismatched_fingerprint() {
    let spec = small_spec();
    let out = tmp_out("resume-stale.jsonl");
    // A journal from a *different* campaign (other seed → other
    // fingerprint and seeds).
    let mut other = small_spec();
    other.base_seed += 1;
    run_campaign(
        &other,
        &RunOptions {
            threads: 2,
            out: Some(out.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    fs::rename(&out, partial_path(&out)).unwrap();

    let outcome = run_campaign(
        &spec,
        &RunOptions {
            threads: 2,
            out: Some(out.clone()),
            resume: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.resumed, 0, "stale results must not be adopted");
    assert_eq!(outcome.executed, 16);
}

#[test]
fn stochastic_jobs_share_the_reference_trace() {
    let mut spec = small_spec();
    spec.workloads = vec![Workload::MpMatrix { n: 8 }];
    spec.cores = CoreSelection::List(vec![2]);
    spec.interconnects = vec![InterconnectChoice::Amba];
    spec.masters = vec![
        MasterChoice::Cpu,
        MasterChoice::Tg,
        MasterChoice::Stochastic,
    ];
    let outcome = run_campaign(&spec, &RunOptions::default()).unwrap();
    assert_eq!(outcome.results.len(), 3);
    // The CPU job's run is the one trace build; it serves both the TG
    // and the stochastic job.
    assert_eq!(outcome.cache.trace_misses, 1);
    assert_eq!(outcome.cache.trace_hits, 2);
    let stoch = outcome
        .results
        .iter()
        .find(|r| r.master == "stochastic")
        .unwrap();
    assert!(stoch.error.is_none(), "{:?}", stoch.error);
    assert!(stoch.completed);
    // Stochastic traffic has no golden model to check.
    assert_eq!(stoch.verified, None);
}

/// A synthetic campaign exercising every destination pattern and every
/// temporal shape: 7 patterns × 3 shapes × 2 rates = 42 jobs of
/// 48-packet traffic on 4 cores.
fn synthetic_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("engine-synthetic");
    spec.workloads = vec![Workload::Synthetic { packets: 48 }];
    spec.cores = CoreSelection::List(vec![4]);
    spec.interconnects = vec![InterconnectChoice::Xpipes];
    spec.masters = vec![MasterChoice::Synthetic];
    spec.patterns = ALL_PATTERNS.to_vec();
    spec.shapes = ALL_SHAPES.to_vec();
    spec.rates = vec![0.02, 0.2];
    spec
}

#[test]
fn synthetic_jsonl_is_byte_identical_across_thread_counts() {
    let spec = synthetic_spec();
    let out1 = tmp_out("syn-threads1.jsonl");
    let out0 = tmp_out("syn-threads0.jsonl");
    for (threads, out) in [(1, &out1), (0, &out0)] {
        run_campaign(
            &spec,
            &RunOptions {
                threads,
                out: Some(out.clone()),
                ..RunOptions::default()
            },
        )
        .unwrap();
    }
    let a = fs::read(&out1).unwrap();
    assert_eq!(
        a,
        fs::read(&out0).unwrap(),
        "synthetic canonical files must not depend on worker count"
    );
    // And the results are live: every pattern × shape × rate combination
    // completed with canonical injection rates.
    let loaded = parse_results(&String::from_utf8(a).unwrap(), false).unwrap();
    assert_eq!(loaded.results.len(), 42);
    for r in &loaded.results {
        assert!(r.error.is_none(), "{}: {:?}", r.key, r.error);
        assert!(r.completed, "{}", r.key);
        assert_eq!(r.master, "synthetic", "{}", r.key);
        let offered = r.offered_rate.expect("offered rate is canonical");
        let accepted = r.accepted_rate.expect("accepted rate is canonical");
        assert!(offered > 0.0 && accepted > 0.0, "{}", r.key);
        assert!(accepted <= offered + 1e-12, "{}", r.key);
    }
}

#[test]
fn canonical_file_parses_back_and_is_sorted_by_id() {
    let spec = small_spec();
    let out = tmp_out("parse-back.jsonl");
    run_campaign(
        &spec,
        &RunOptions {
            threads: 4,
            out: Some(out.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let loaded = parse_results(&fs::read_to_string(&out).unwrap(), false).unwrap();
    assert_eq!(loaded.header.name, "engine-test");
    assert_eq!(loaded.header.fingerprint, spec.fingerprint());
    assert_eq!(loaded.results.len(), 16);
    let ids: Vec<usize> = loaded.results.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..16).collect::<Vec<_>>());
    // error_pct is present exactly for non-CPU jobs with a CPU
    // reference.
    for r in &loaded.results {
        assert_eq!(r.error_pct.is_some(), r.master != "cpu", "{}", r.key);
    }
}

/// One worker and several in-process workers (Send platforms sharing
/// one in-memory cache and one open store handle) must produce the same
/// canonical bytes, and the metrics sidecars must agree line for line.
fn assert_threads_agree(spec: &CampaignSpec, tag: &str) {
    let store = std::env::temp_dir().join(format!("ntg-explore-tests/{tag}-store"));
    let _ = fs::remove_dir_all(&store);

    let run = |out: &std::path::Path, threads: usize| {
        run_campaign(
            spec,
            &RunOptions {
                threads,
                out: Some(out.to_path_buf()),
                store: Some(store.clone()),
                ..RunOptions::default()
            },
        )
        .unwrap()
    };

    let out1 = tmp_out(&format!("{tag}-t1.jsonl"));
    run(&out1, 1);
    let canonical = fs::read(&out1).unwrap();
    assert!(!canonical.is_empty());
    for threads in [2, 4] {
        let out = tmp_out(&format!("{tag}-t{threads}.jsonl"));
        run(&out, threads);
        assert_eq!(
            canonical,
            fs::read(&out).unwrap(),
            "canonical bytes must not depend on in-process worker count ({threads})"
        );
        assert_eq!(
            fs::read(metrics_path(&out1)).unwrap(),
            fs::read(metrics_path(&out)).unwrap(),
            "metrics sidecars must not depend on in-process worker count ({threads})"
        );
    }
}

#[test]
fn threads_agree_on_canonical_and_metrics_bytes() {
    assert_threads_agree(&small_spec(), "identity");
}

/// {CPU, TG, stochastic} × {AMBA, ×pipes} × 2 cores over two test-scale
/// workloads: 12 jobs on 2 design points, whose CPU jobs on AMBA (the
/// trace fabric) are their traced reference runs.
fn reference_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("engine-reference");
    spec.workloads = vec![
        Workload::MpMatrix { n: 8 },
        Workload::Des { blocks_per_core: 2 },
    ];
    spec.cores = CoreSelection::List(vec![2]);
    spec.interconnects = vec![InterconnectChoice::Amba, InterconnectChoice::Xpipes];
    spec.masters = vec![
        MasterChoice::Cpu,
        MasterChoice::Tg,
        MasterChoice::Stochastic,
    ];
    spec
}

#[test]
fn reference_campaign_bytes_agree_across_threads() {
    assert_threads_agree(&reference_spec(), "reference");
}

#[test]
fn the_cpu_jobs_on_the_trace_fabric_build_every_trace() {
    let spec = reference_spec();
    let jobs = spec.expand();
    let producers: Vec<_> = jobs.iter().filter(|j| spec.produces_trace(j)).collect();
    assert_eq!(producers.len(), 2, "one producer per design point");
    for j in &producers {
        assert_eq!(j.master, MasterChoice::Cpu, "{}", j.key());
        assert_eq!(j.interconnect, spec.trace_interconnect, "{}", j.key());
    }
    let consumers = jobs
        .iter()
        .filter(|j| matches!(j.master, MasterChoice::Tg | MasterChoice::Stochastic))
        .count() as u64;
    assert_eq!(consumers, 8);
    for threads in [1, 2, 4] {
        let outcome = run_campaign(
            &spec,
            &RunOptions {
                threads,
                ..RunOptions::default()
            },
        )
        .unwrap();
        // One build per point, and every TG and stochastic lookup a hit:
        // the producers are dispatched first and trace inside their own
        // run. (Without producers the consumers would record 2 misses and
        // 6 hits.)
        assert_eq!(outcome.cache.trace_misses, 2, "{threads} thread(s)");
        assert_eq!(outcome.cache.trace_hits, consumers, "{threads} thread(s)");
        for r in &outcome.results {
            assert!(r.error.is_none(), "{}: {:?}", r.key, r.error);
            assert!(r.completed, "{}", r.key);
            assert_ne!(r.verified, Some(false), "{}", r.key);
        }
    }
}

#[test]
fn a_cpu_only_campaign_writes_no_trace_entry() {
    let mut spec = reference_spec();
    spec.masters = vec![MasterChoice::Cpu];
    assert!(spec.expand().iter().all(|j| !spec.produces_trace(j)));
    let store = std::env::temp_dir().join("ntg-explore-tests/cpu-only-store");
    let _ = fs::remove_dir_all(&store);
    let outcome = run_campaign(
        &spec,
        &RunOptions {
            threads: 2,
            store: Some(store.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.results.len(), 4);
    assert_eq!(
        (outcome.cache.trace_misses, outcome.cache.trace_hits),
        (0, 0)
    );
    let stats = DiskStore::open(&store).unwrap().stats();
    assert_eq!(stats.total_entries(), 0, "{stats:?}");
}

/// Tracing only observes: a traced and an untraced run of the same CPU
/// platform, metrics on, report the same everything but wall time. This
/// is what lets a point's CPU job double as its trace run.
#[test]
fn tracing_changes_no_report_field() {
    for (workload, cores) in [
        (Workload::SpMatrix { n: 6 }, 1),
        (Workload::Cacheloop { iterations: 500 }, 2),
        (Workload::MpMatrix { n: 8 }, 4),
        (Workload::Des { blocks_per_core: 2 }, 3),
    ] {
        let run = |tracing| {
            let mut p = workload
                .build_platform(cores, InterconnectChoice::Amba, tracing)
                .unwrap();
            p.enable_metrics();
            let mut report = p.run(2_000_000_000);
            assert!(report.completed, "{workload} {cores}P");
            assert!(report.metrics.is_some());
            report.wall_time = Duration::ZERO;
            (format!("{report:?}"), p.traces().len())
        };
        let (traced, traces) = run(true);
        let (untraced, none) = run(false);
        assert_eq!((traces, none), (cores, 0), "{workload} {cores}P");
        assert_eq!(traced, untraced, "{workload} {cores}P");
    }
}
