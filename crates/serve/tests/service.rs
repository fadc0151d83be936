//! Campaign-service integration tests: a served campaign is
//! byte-identical to a local run, a warm remote store means zero
//! rebuilds, resubmission is idempotent across daemon restarts, a
//! daemon killed mid-campaign resumes from its campaign journal, remote
//! corruption degrades to a local rebuild, and the long-poll events
//! endpoint carries a watcher (this suite's own `wait_done`, and the
//! `ntg-sweep watch` binary) to the terminal event without polling.
//! Campaign specs drawn from a fixed-seed xorshift generator give the
//! same bytes locally at any worker count and on the daemon, so a
//! failure names the seed and case that reproduce it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ntg_core::TranslationMode;
use ntg_explore::{
    metrics_path, partial_path, run_campaign, CampaignSpec, CoreSelection, Json, MasterChoice,
    RunOptions,
};
use ntg_platform::InterconnectChoice;
use ntg_serve::http::{self, Handler, Server};
use ntg_serve::{HttpRemote, JobServer, ServerConfig};
use ntg_workloads::synthetic::{ALL_PATTERNS, ALL_SHAPES};
use ntg_workloads::Workload;

/// 6 jobs, 2 distinct traces, 2 distinct TG image sets — small enough
/// to run in seconds, rich enough to exercise the artifact tiers.
fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new("service-test");
    spec.workloads = vec![
        Workload::MpMatrix { n: 8 },
        Workload::Cacheloop { iterations: 500 },
    ];
    spec.cores = CoreSelection::List(vec![2]);
    spec.interconnects = vec![InterconnectChoice::Amba];
    spec.masters = vec![
        MasterChoice::Cpu,
        MasterChoice::Tg,
        MasterChoice::Stochastic,
    ];
    spec
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ntg-serve-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A daemon bound to an ephemeral loopback port, serving until the
/// returned guard is dropped. Its handler counts the requests it sees.
struct Daemon {
    addr: String,
    requests: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(data: &Path, workers: usize) -> Self {
        let server = JobServer::open(ServerConfig {
            data: data.to_path_buf(),
            workers,
            store: None,
            remote: None,
            quiet: true,
        })
        .unwrap();
        let listener = Server::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let counter = requests.clone();
        let handler: Arc<Handler> = Arc::new(move |req| {
            counter.fetch_add(1, Ordering::Relaxed);
            server.handle(&req)
        });
        let flag = shutdown.clone();
        let thread = std::thread::spawn(move || listener.serve(handler, flag));
        Daemon {
            addr,
            requests,
            shutdown,
            thread: Some(thread),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn get_ok(addr: &str, path: &str) -> Vec<u8> {
    let (status, body) = http::get(addr, path).unwrap();
    assert_eq!(
        status,
        200,
        "GET {path}: {}",
        String::from_utf8_lossy(&body)
    );
    body
}

/// Submits the spec and returns `(status, job id, state label)`.
fn submit(addr: &str, spec: &CampaignSpec) -> (u16, String, String) {
    let (status, body) = http::post_json(addr, "/jobs", &spec.to_json().render()).unwrap();
    let v = Json::parse(&String::from_utf8_lossy(&body)).unwrap();
    (
        status,
        v.get("id").and_then(Json::as_str).unwrap().to_string(),
        v.get("state").and_then(Json::as_str).unwrap().to_string(),
    )
}

fn is_event(line: &str, name: &str) -> bool {
    Json::parse(line)
        .unwrap()
        .get("event")
        .and_then(Json::as_str)
        == Some(name)
}

/// Long-polls the job's events up to the `done` one: the daemon holds
/// each request until there is something to read, so nothing here
/// sleeps.
fn wait_done(addr: &str, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut seen = 0;
    loop {
        let path = format!("/jobs/{id}/events?from={seen}");
        for line in String::from_utf8(get_ok(addr, &path)).unwrap().lines() {
            seen += 1;
            assert!(!is_event(line, "error"), "job {id} failed: {line}");
            if is_event(line, "done") {
                return;
            }
        }
        assert!(Instant::now() < deadline, "job {id} did not finish");
    }
}

/// Local single-process ground truth for [`spec`], no store involved.
fn local_ground_truth(dir: &Path) -> Vec<u8> {
    let out = dir.join("local.jsonl");
    run_campaign(
        &spec(),
        &RunOptions {
            threads: 2,
            out: Some(out.clone()),
            quiet: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    fs::read(out).unwrap()
}

#[test]
fn served_campaign_is_byte_identical_to_a_local_run() {
    let dir = scratch("identity");
    let daemon = Daemon::start(&dir.join("data"), 2);

    let (status, id, _) = submit(&daemon.addr, &spec());
    assert_eq!(status, 202, "fresh submit is accepted");
    assert_eq!(id, format!("{:016x}", spec().fingerprint()));
    wait_done(&daemon.addr, &id);

    let served = get_ok(&daemon.addr, &format!("/jobs/{id}/results"));
    assert_eq!(
        served,
        local_ground_truth(&dir),
        "served canonical bytes must match a local run"
    );

    // Progress events cover the whole lifecycle, in order, and end with
    // `done`: one campaign on the daemon's two workers, no shards.
    let events = String::from_utf8(get_ok(&daemon.addr, &format!("/jobs/{id}/events"))).unwrap();
    let names: Vec<String> = events
        .lines()
        .map(|l| {
            let v = Json::parse(l).unwrap();
            v.get("event").and_then(Json::as_str).unwrap().to_string()
        })
        .collect();
    assert_eq!(names, ["queued", "started", "cache", "done"], "{events}");
    assert!(events.contains(r#""workers":2"#), "{events}");
    let cache = Json::parse(events.lines().nth(2).unwrap()).unwrap();
    let field = |name: &str| cache.get(name).and_then(Json::as_u64);
    assert_eq!(field("executed"), Some(6), "{events}");
    assert_eq!(field("traces_built"), Some(2), "{events}");
    assert_eq!(field("images_built"), Some(2), "{events}");

    // The report endpoints render from the results + sidecars.
    let table2 =
        String::from_utf8(get_ok(&daemon.addr, &format!("/jobs/{id}/report/table2"))).unwrap();
    assert!(table2.contains("mp_matrix"), "{table2}");
    let md = get_ok(&daemon.addr, &format!("/jobs/{id}/report/markdown"));
    assert!(!md.is_empty());
    let (status, _) = http::get(&daemon.addr, &format!("/jobs/{id}/report/nonsense")).unwrap();
    assert_eq!(status, 400, "unknown view is a client error");

    // The timing sidecar: one header, one line per job.
    let timings = String::from_utf8(get_ok(&daemon.addr, &format!("/jobs/{id}/timings"))).unwrap();
    assert_eq!(timings.lines().count(), 1 + 6, "header + 6 job timings");
}

#[test]
fn resubmit_is_idempotent_and_a_restarted_daemon_adopts_finished_jobs() {
    let dir = scratch("adopt");
    let data = dir.join("data");
    let first = {
        let daemon = Daemon::start(&data, 2);
        let (_, id, _) = submit(&daemon.addr, &spec());
        wait_done(&daemon.addr, &id);
        // Same daemon, same spec: joined, not re-run.
        let (status, id2, state) = submit(&daemon.addr, &spec());
        assert_eq!(
            (status, id2.as_str(), state.as_str()),
            (200, id.as_str(), "done")
        );
        get_ok(&daemon.addr, &format!("/jobs/{id}/results"))
    };

    // A fresh daemon process over the same data dir knows nothing until
    // the spec is resubmitted — then it adopts the finished canonical
    // file instead of re-running.
    let daemon = Daemon::start(&data, 2);
    let id = format!("{:016x}", spec().fingerprint());
    let (status, _) = http::get(&daemon.addr, &format!("/jobs/{id}")).unwrap();
    assert_eq!(status, 404, "restart forgets in-memory state");
    let (status, id2, state) = submit(&daemon.addr, &spec());
    assert_eq!(
        (status, state.as_str()),
        (200, "done"),
        "adopted, not re-run"
    );
    let events = String::from_utf8(get_ok(&daemon.addr, &format!("/jobs/{id2}/events"))).unwrap();
    assert!(events.contains("\"adopted\""), "{events}");
    assert_eq!(get_ok(&daemon.addr, &format!("/jobs/{id2}/results")), first);
}

/// A daemon killed mid-campaign leaves its campaign journal behind.
/// The crash is simulated by pre-seeding the job directory's journal
/// (`out.jsonl.partial.jsonl`) with the header and the first half of
/// the results: on resubmission the runner resumes (`resume: true`),
/// adopts those three jobs without executing them, runs the other
/// three, and the result is still byte-identical to the ground truth.
#[test]
fn resubmission_resumes_from_the_campaign_journal_after_a_crash() {
    let dir = scratch("resume");
    let data = dir.join("data");
    let id = format!("{:016x}", spec().fingerprint());
    let job_dir = data.join("jobs").join(&id);
    fs::create_dir_all(&job_dir).unwrap();

    let truth = local_ground_truth(&dir);
    let half: Vec<&str> = std::str::from_utf8(&truth)
        .unwrap()
        .lines()
        .take(1 + 3)
        .collect();
    fs::write(
        partial_path(&job_dir.join("out.jsonl")),
        half.join("\n") + "\n",
    )
    .unwrap();

    let daemon = Daemon::start(&data, 2);
    let (status, id2, _) = submit(&daemon.addr, &spec());
    assert_eq!((status, id2), (202, id.clone()), "unfinished job re-runs");
    wait_done(&daemon.addr, &id);

    let events = String::from_utf8(get_ok(&daemon.addr, &format!("/jobs/{id}/events"))).unwrap();
    let cache = events
        .lines()
        .find(|l| is_event(l, "cache"))
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or_else(|| panic!("no cache event in:\n{events}"));
    let field = |name: &str| cache.get(name).and_then(Json::as_u64);
    assert_eq!(
        (field("resumed"), field("executed")),
        (Some(3), Some(3)),
        "half the jobs came from the journal: {events}"
    );

    let served = get_ok(&daemon.addr, &format!("/jobs/{id}/results"));
    assert_eq!(served, truth, "resumed campaign is byte-true");
    assert!(
        !partial_path(&job_dir.join("out.jsonl")).exists(),
        "the journal is removed once the canonical file is written"
    );
}

#[test]
fn warm_remote_store_means_zero_rebuilds() {
    let dir = scratch("remote");
    let daemon = Daemon::start(&dir.join("data"), 1);
    let remote: Arc<HttpRemote> = Arc::new(HttpRemote::new(&daemon.addr));

    let run = |store: &Path, out: &Path| {
        run_campaign(
            &spec(),
            &RunOptions {
                threads: 2,
                out: Some(out.to_path_buf()),
                quiet: true,
                store: Some(store.to_path_buf()),
                remote: Some(remote.clone()),
                ..RunOptions::default()
            },
        )
        .unwrap()
    };

    // Cold everywhere: every artifact is built once and published.
    let cold = run(&dir.join("store-a"), &dir.join("cold.jsonl"));
    assert_eq!(cold.cache.trace_misses, 2);
    assert_eq!(cold.cache.image_misses, 2);
    let snap = cold.cache.remote.expect("remote tier attached");
    assert_eq!(snap.publishes, 4, "2 traces + 2 image sets published");
    assert_eq!(snap.hits, 0);
    assert_eq!(snap.errors, 0);

    // The daemon now holds all four objects.
    let stats =
        Json::parse(&String::from_utf8(get_ok(&daemon.addr, "/store/stats")).unwrap()).unwrap();
    assert_eq!(stats.get("trace_objects").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("image_objects").and_then(Json::as_u64), Some(2));

    // Fresh machine (empty local store), warm remote: zero rebuilds,
    // four remote hits, nothing re-published, identical bytes.
    let warm = run(&dir.join("store-b"), &dir.join("warm.jsonl"));
    assert_eq!(warm.cache.trace_misses, 0, "warm remote must not re-trace");
    assert_eq!(
        warm.cache.image_misses, 0,
        "warm remote must not re-translate"
    );
    let snap = warm.cache.remote.expect("remote tier attached");
    assert_eq!(snap.hits, 4);
    assert_eq!(snap.publishes, 0);
    assert_eq!(
        fs::read(dir.join("cold.jsonl")).unwrap(),
        fs::read(dir.join("warm.jsonl")).unwrap()
    );
}

#[test]
fn corrupt_remote_objects_degrade_to_a_local_rebuild() {
    let dir = scratch("remote-corrupt");
    let data = dir.join("data");
    let daemon = Daemon::start(&data, 1);
    let remote: Arc<HttpRemote> = Arc::new(HttpRemote::new(&daemon.addr));

    let run = |store: &Path, out: &Path| {
        run_campaign(
            &spec(),
            &RunOptions {
                threads: 2,
                out: Some(out.to_path_buf()),
                quiet: true,
                store: Some(store.to_path_buf()),
                remote: Some(remote.clone()),
                ..RunOptions::default()
            },
        )
        .unwrap()
    };
    run(&dir.join("store-a"), &dir.join("cold.jsonl"));

    // Flip a byte in every published trace object on the daemon's disk.
    let mut corrupted = 0;
    for entry in fs::read_dir(data.join("blobs").join("traces")).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        corrupted += 1;
    }
    assert_eq!(corrupted, 2);

    // A fresh machine sees the corruption, counts it, rebuilds locally,
    // and still produces identical campaign bytes.
    let rerun = run(&dir.join("store-b"), &dir.join("rerun.jsonl"));
    assert_eq!(rerun.cache.trace_misses, 2, "corrupt objects rebuilt");
    let snap = rerun.cache.remote.expect("remote tier attached");
    assert_eq!(snap.errors, 2, "each corrupt fetch counted");
    assert_eq!(snap.hits, 2, "image objects were untouched");
    assert_eq!(
        fs::read(dir.join("cold.jsonl")).unwrap(),
        fs::read(dir.join("rerun.jsonl")).unwrap()
    );
}

#[test]
fn store_endpoint_is_write_once_and_rejects_garbage() {
    let dir = scratch("write-once");
    let daemon = Daemon::start(&dir.join("data"), 1);

    let key = "trace|wk|2P|amba|trc1";
    let name = ntg_explore::entry_file_name(ntg_explore::StoreKind::Trace, key);

    // An unframed body never lands in the store.
    let (status, body) =
        http::put(&daemon.addr, &format!("/store/traces/{name}"), b"junk").unwrap();
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));

    // A valid frame under the wrong object name is rejected too.
    let store = ntg_explore::DiskStore::open(dir.join("local")).unwrap();
    store
        .save(ntg_explore::StoreKind::Trace, key, b"payload")
        .unwrap();
    let object = fs::read(store.root().join("traces").join(&name)).unwrap();
    let (status, _) = http::put(&daemon.addr, "/store/traces/other-name.trace", &object).unwrap();
    assert_eq!(status, 400, "name/key binding is enforced");

    // Correctly named: created once, then immutable.
    let (status, _) = http::put(&daemon.addr, &format!("/store/traces/{name}"), &object).unwrap();
    assert_eq!(status, 201);
    let (status, _) = http::put(&daemon.addr, &format!("/store/traces/{name}"), &object).unwrap();
    assert_eq!(status, 200, "second PUT is a no-op, not an error");
    let fetched = get_ok(&daemon.addr, &format!("/store/traces/{name}"));
    assert_eq!(fetched, object);

    let (status, _) = http::get(&daemon.addr, "/store/traces/absent.trace").unwrap();
    assert_eq!(status, 404);
    let (status, _) = http::get(&daemon.addr, "/store/traces/../escape").unwrap();
    assert!(
        matches!(status, 400 | 404),
        "traversal is rejected ({status})"
    );
}

/// One CPU job on one core: a campaign that is over in milliseconds.
fn tiny_spec(iterations: u32) -> CampaignSpec {
    let mut spec = CampaignSpec::new("tiny");
    spec.workloads = vec![Workload::Cacheloop { iterations }];
    spec.cores = CoreSelection::List(vec![1]);
    spec.interconnects = vec![InterconnectChoice::Amba];
    spec.masters = vec![MasterChoice::Cpu];
    spec
}

/// The terminal event must not be visible before the terminal state:
/// a client released by `done` asks for the outputs in the same
/// instant, and "409 job is not done" would be a lie.
#[test]
fn outputs_are_served_the_moment_done_is_visible() {
    let dir = scratch("done-then-fetch");
    let daemon = Daemon::start(&dir.join("data"), 1);
    for i in 0..8 {
        let (status, id, _) = submit(&daemon.addr, &tiny_spec(40 + i));
        assert_eq!(status, 202);
        wait_done(&daemon.addr, &id);
        for output in ["results", "timings", "report/markdown"] {
            let (status, body) = http::get(&daemon.addr, &format!("/jobs/{id}/{output}")).unwrap();
            assert_eq!(
                status,
                200,
                "campaign {i}: GET {output} right after `done`: {}",
                String::from_utf8_lossy(&body)
            );
        }
    }
}

/// `ntg-sweep watch` against a live job: every event exactly once, in
/// order, ending on `done`, for about one request per event.
#[test]
fn watch_prints_each_event_once_for_about_one_request_each() {
    let dir = scratch("watch");
    let daemon = Daemon::start(&dir.join("data"), 2);
    let (status, id, _) = submit(&daemon.addr, &spec());
    assert_eq!(status, 202);
    let before = daemon.requests.load(Ordering::Relaxed);
    let watch = std::process::Command::new(env!("CARGO_BIN_EXE_ntg-sweep"))
        .args(["watch", "--server", &daemon.addr, &id])
        .output()
        .unwrap();
    let issued = daemon.requests.load(Ordering::Relaxed) - before;
    assert!(
        watch.status.success(),
        "watch failed: {}",
        String::from_utf8_lossy(&watch.stderr)
    );

    let printed = String::from_utf8(watch.stdout).unwrap();
    let events = String::from_utf8(get_ok(&daemon.addr, &format!("/jobs/{id}/events"))).unwrap();
    assert_eq!(printed, events, "watch output is the event list, verbatim");
    assert!(
        is_event(printed.lines().last().unwrap(), "done"),
        "{printed}"
    );
    let n = events.lines().count() as u64;
    assert!(
        issued <= n + 2,
        "watch issued {issued} requests for {n} events"
    );
    // What `watch` returned on is fetchable without a retry.
    get_ok(&daemon.addr, &format!("/jobs/{id}/results"));
}

struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Self((seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A non-empty subset of `items`, in their order.
    fn subset<T: Copy>(&mut self, items: &[T]) -> Vec<T> {
        loop {
            let picked: Vec<T> = items
                .iter()
                .copied()
                .filter(|_| self.below(2) == 1)
                .collect();
            if !picked.is_empty() {
                return picked;
            }
        }
    }
}

/// A small campaign over test-scale workloads: 1–4 cores, a random
/// fabric subset (sometimes with an explicit mesh), a random trace
/// fabric, masters, translation modes, synthetic patterns, shapes and
/// rates, and 1–2 repeats. Redrawn until it expands to 1..=16 jobs.
fn random_spec(rng: &mut Xorshift, case: usize) -> CampaignSpec {
    use InterconnectChoice::{Amba, Crossbar, Ideal, Xpipes};
    // `amba-fixed` is left out: static priority may livelock, and a
    // livelocked job runs to the cycle bound.
    let fabrics = [Amba, Crossbar, Xpipes, Ideal];
    loop {
        let mut spec = CampaignSpec::new(format!("generated-{case}"));
        let cores = rng.subset(&[1, 2, 3, 4]);
        let mut workloads = vec![
            Workload::Cacheloop { iterations: 500 },
            Workload::MpMatrix { n: 8 },
            Workload::Synthetic { packets: 64 },
        ];
        if cores.iter().all(|&c| c >= 2) {
            workloads.push(Workload::Des { blocks_per_core: 2 });
        }
        if cores == [1] {
            workloads.push(Workload::SpMatrix { n: 6 });
        }
        spec.workloads = rng.subset(&workloads);
        spec.cores = CoreSelection::List(cores);
        spec.interconnects = rng.subset(&fabrics);
        if rng.below(4) == 0 {
            spec.mesh_sizes = vec![(3, 4)];
        }
        spec.trace_interconnect = fabrics[rng.below(fabrics.len())];
        spec.masters = rng.subset(&[
            MasterChoice::Cpu,
            MasterChoice::Tg,
            MasterChoice::Stochastic,
            MasterChoice::Synthetic,
        ]);
        spec.modes = rng.subset(&[
            TranslationMode::Clone,
            TranslationMode::Timeshift,
            TranslationMode::Reactive,
        ]);
        spec.patterns = vec![ALL_PATTERNS[rng.below(ALL_PATTERNS.len())]];
        spec.shapes = vec![ALL_SHAPES[rng.below(ALL_SHAPES.len())]];
        spec.rates = rng.subset(&[0.02, 0.1, 0.3]);
        spec.base_seed = rng.next();
        spec.repeats = 1 + rng.below(2);
        if (1..=16).contains(&spec.expand().len()) {
            return spec;
        }
    }
}

/// Generated specs, each run four ways: locally on one worker with no
/// store, on two and on four workers each over its own cold store, and
/// on the two-worker daemon. All four canonical files and all four
/// metrics sidecars must be byte-equal.
#[test]
fn generated_campaigns_agree_across_threads_stores_and_the_daemon() {
    const SEED: u64 = 0x00c0_ffee;
    const CASES: usize = 8;
    let dir = scratch("generated");
    let daemon = Daemon::start(&dir.join("data"), 2);
    let mut rng = Xorshift::new(SEED);
    let mut covered = [false; 4];
    for case in 0..CASES {
        let spec = random_spec(&mut rng, case);
        let ctx = format!("seed {SEED:#x} case {case}: {}", spec.to_json().render());
        let jobs = spec.expand();
        for (seen, now) in covered.iter_mut().zip([
            spec.trace_interconnect != InterconnectChoice::Amba,
            jobs.iter().any(|j| spec.produces_trace(j)),
            jobs.iter().any(|j| j.master == MasterChoice::Tg),
            jobs.iter().any(|j| j.master == MasterChoice::Synthetic),
        ]) {
            *seen |= now;
        }

        let local = |threads: usize, store: Option<PathBuf>| {
            let out = dir.join(format!("case{case}-t{threads}.jsonl"));
            let outcome = run_campaign(
                &spec,
                &RunOptions {
                    threads,
                    out: Some(out.clone()),
                    store,
                    ..RunOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            for r in &outcome.results {
                assert!(r.error.is_none(), "{ctx}: {} failed: {:?}", r.key, r.error);
            }
            (
                fs::read(&out).unwrap(),
                fs::read(metrics_path(&out)).unwrap(),
            )
        };
        let (canonical, metrics) = local(1, None);
        let mut runs = Vec::new();
        for threads in [2, 4] {
            let store = dir.join(format!("case{case}-t{threads}-store"));
            runs.push((
                format!("{threads} threads, cold store"),
                local(threads, Some(store)),
            ));
        }
        let (status, id, _) = submit(&daemon.addr, &spec);
        assert_eq!(status, 202, "{ctx}");
        wait_done(&daemon.addr, &id);
        runs.push((
            "served".to_string(),
            (
                get_ok(&daemon.addr, &format!("/jobs/{id}/results")),
                get_ok(&daemon.addr, &format!("/jobs/{id}/metrics")),
            ),
        ));
        for (how, (c, m)) in runs {
            assert!(c == canonical, "{ctx}: {how} canonical bytes differ");
            assert!(m == metrics, "{ctx}: {how} metrics sidecar differs");
        }
    }
    assert_eq!(
        covered, [true; 4],
        "seed {SEED:#x} must cover a non-default trace fabric, a traced \
         reference job, TG replay and synthetic masters"
    );
}
