//! `serve_campaign`: the only workload through `ntg-serve` — its HTTP
//! layer, job server and remote artifact tier.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ntg_explore::{entry_file_name, CampaignSpec, DiskStore, Json, RemoteTier, StoreKind};
use ntg_serve::http::{self, Handler, Server};
use ntg_serve::{HttpRemote, JobServer, ServerConfig};

use crate::campaign::{self, bench_dse};
use crate::harness::{iterate, setup, Checks, Ctx, Iter, Layers, Report, WORKERS};
use crate::legs;
use crate::stats::{median, tail_percentile};

/// A served campaign is given this long before the run is abandoned.
const JOB_DEADLINE: Duration = Duration::from_secs(120);
const POLL_EVERY: Duration = Duration::from_millis(10);
/// The HTTP client opens one connection per request. The run is sized
/// to stay below this many (about 800 untraced, 900 traced on the
/// reference host) and says so when it does not.
const MAX_CONNECTIONS: u64 = 1000;

/// An in-process daemon on an ephemeral loopback port. Its workers use
/// the daemon's own blob store as their remote tier, so a served
/// campaign leaves the artifacts where a later remote-tiered run finds
/// them.
struct Daemon {
    addr: String,
    own_remote: Arc<HttpRemote>,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start(data: &Path) -> Self {
        let listener = Server::bind("127.0.0.1:0").expect("bind an ephemeral loopback port");
        let addr = listener.local_addr().to_string();
        let own_remote = Arc::new(HttpRemote::new(&addr));
        let server = JobServer::open(ServerConfig {
            data: data.to_path_buf(),
            workers: WORKERS,
            store: None,
            remote: Some(own_remote.clone() as Arc<dyn RemoteTier>),
            quiet: true,
        })
        .expect("open the job server's data dir");
        let shutdown = Arc::new(AtomicBool::new(false));
        let handler: Arc<Handler> = Arc::new(move |req| server.handle(&req));
        let flag = shutdown.clone();
        let thread = std::thread::spawn(move || listener.serve(handler, flag));
        let daemon = Daemon {
            addr,
            own_remote,
            shutdown,
            thread: Some(thread),
        };
        let up = http::get(&daemon.addr, "/health");
        assert!(matches!(up, Ok((200, _))), "daemon did not come up: {up:?}");
        daemon
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

/// Requests the harness itself issued, each an op.
struct Client<'a> {
    addr: &'a str,
    requests: u64,
}

impl Client<'_> {
    /// `GET path`, expecting 200; anything else is a failed op.
    fn get(&mut self, checks: &mut Checks, path: &str) -> Vec<u8> {
        self.requests += 1;
        let got = http::get(self.addr, path);
        let ok = matches!(got, Ok((200, _)));
        checks.op(ok, || match &got {
            Ok((status, body)) => {
                format!(
                    "GET {path}: HTTP {status}: {}",
                    String::from_utf8_lossy(body)
                )
            }
            Err(e) => format!("GET {path}: {e}"),
        });
        got.map(|(_, body)| body).unwrap_or_default()
    }
}

/// What one served campaign measured.
struct Served {
    canonical: Vec<u8>,
    submit_to_fetch_s: f64,
    queue_wait_ms: f64,
    polls: u64,
}

/// POST the spec, poll its status every 10 ms, fetch the canonical
/// results.
fn submit_and_fetch(
    ctx: &mut Ctx,
    checks: &mut Checks,
    client: &mut Client<'_>,
    spec: &CampaignSpec,
) -> Served {
    let started = Instant::now();
    client.requests += 1;
    let posted = ctx.spans.scope("serve.post", |_| {
        http::post_json(client.addr, "/jobs", &spec.to_json().render())
    });
    let id = match &posted {
        Ok((202, body)) => Json::parse(&String::from_utf8_lossy(body))
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_str).map(str::to_string)),
        _ => None,
    };
    checks.op(id.is_some(), || format!("POST /jobs: {posted:?}"));
    let id = id.unwrap_or_default();
    let (mut polls, mut queue_wait_ms) = (0, None);
    ctx.spans.scope("serve.poll", |_| loop {
        let body = client.get(checks, &format!("/jobs/{id}"));
        polls += 1;
        let state = Json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|v| v.get("state").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_default();
        if state != "queued" && queue_wait_ms.is_none() {
            queue_wait_ms = Some(started.elapsed().as_secs_f64() * 1e3);
        }
        match state.as_str() {
            "done" => break,
            "queued" | "running" if started.elapsed() < JOB_DEADLINE => {
                std::thread::sleep(POLL_EVERY);
            }
            other => {
                checks.fail(format!("served job {id} ended in state `{other}`"));
                break;
            }
        }
    });
    let canonical = ctx.spans.scope("serve.fetch", |_| {
        client.get(checks, &format!("/jobs/{id}/results"))
    });
    Served {
        canonical,
        submit_to_fetch_s: started.elapsed().as_secs_f64(),
        queue_wait_ms: queue_wait_ms.unwrap_or(0.0),
        polls,
    }
}

/// Sequential `GET /health` round trips, in ms.
fn health_round_trips(checks: &mut Checks, client: &mut Client<'_>, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            client.get(checks, "/health");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Blob endpoint throughput: four framed 1 MiB objects PUT then GET
/// over HTTP. The frames come from a scratch `DiskStore`, the only
/// public framer.
fn blob_legs(ctx: &mut Ctx, checks: &mut Checks, client: &mut Client<'_>) -> Layers {
    let dir = ctx.fresh_dir("blob-frames");
    let store = DiskStore::open(&dir).expect("open scratch store");
    let size = if ctx.smoke { 64 << 10 } else { 1 << 20 };
    let payload: Vec<u8> = (0..size).map(|i| (i * 17 % 253) as u8).collect();
    let objects: Vec<(String, Vec<u8>)> = (0..4)
        .map(|i| {
            let key = format!("trace|bench-blob-{i}|{}", ctx.seed);
            store
                .save(StoreKind::Trace, &key, &payload)
                .expect("frame a scratch entry");
            let name = entry_file_name(StoreKind::Trace, &key);
            let framed = std::fs::read(store.root().join("traces").join(&name))
                .expect("read the framed entry");
            (name, framed)
        })
        .collect();
    let bytes: usize = objects.iter().map(|o| o.1.len()).sum();
    let t = Instant::now();
    for (name, framed) in &objects {
        client.requests += 1;
        let put = http::put(client.addr, &format!("/store/traces/{name}"), framed);
        checks.op(matches!(put, Ok((201, _))), || {
            format!("PUT blob {name}: {put:?}")
        });
    }
    let put_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for (name, framed) in &objects {
        let got = client.get(checks, &format!("/store/traces/{name}"));
        checks.require(&got == framed, || {
            format!("blob {name} came back different")
        });
    }
    let get_s = t.elapsed().as_secs_f64();
    vec![
        ("serve.blob_put_mb_per_s", bytes as f64 / 1e6 / put_s),
        ("serve.blob_get_mb_per_s", bytes as f64 / 1e6 / get_s),
    ]
}

/// `serve_campaign`. Every iteration starts a daemon on a fresh data
/// dir (a resubmitted spec would only join the finished job), serves
/// `bench-dse` through it, then runs the same spec locally with an
/// empty disk store and the daemon as remote tier. Set-up is the
/// daemon start.
pub fn serve_campaign(ctx: &mut Ctx) -> Report {
    let mut checks = Checks::default();
    let spec = bench_dse(ctx.seed, ctx.smoke);
    let ((), setup_wall) = setup(ctx, |ctx| {
        let data = ctx.fresh_dir("daemon-setup");
        drop(Daemon::start(&data));
        let _ = std::fs::remove_dir_all(data);
    });
    let mut connections = 0u64;
    let (mut queue_waits, mut polls) = (Vec::new(), Vec::new());
    let (mut remote_hits, mut remote_errors) = (0u64, 0u64);
    let mut last_canonical = Vec::new();
    let timed = iterate(ctx, &mut checks, |ctx, checks, _verify| {
        let data = ctx.fresh_dir("daemon");
        let daemon = Daemon::start(&data);
        let mut client = Client {
            addr: &daemon.addr,
            requests: 1, // the start-up health check
        };
        let served = submit_and_fetch(ctx, checks, &mut client, &spec);

        let remote = Arc::new(HttpRemote::new(&daemon.addr));
        let local = ctx.fresh_dir("remote-warm");
        let warm = campaign::run(
            ctx,
            checks,
            &spec,
            &local.join("store"),
            Some(remote.clone() as Arc<dyn RemoteTier>),
            local.join("out.jsonl"),
        );
        checks.require(warm.built() == 0, || {
            format!("the remote-tiered run rebuilt {} artifacts", warm.built())
        });
        checks.require(warm.canonical == served.canonical, || {
            "served and remote-tiered canonical JSONL differ".into()
        });
        let tier = warm.outcome.cache.remote.unwrap_or_default();
        remote_hits = tier.hits;
        remote_errors = tier.errors;
        checks.require(tier.errors == 0, || {
            format!("{} remote errors", tier.errors)
        });
        let error = warm.cycle_error_pct_max();
        legs::check_cycle_error(checks, error);
        queue_waits.push(served.queue_wait_ms);
        polls.push(served.polls as f64);
        connections += client.requests + remote.requests() + daemon.own_remote.requests();
        let fingerprint = ntg_trace::fnv64(&served.canonical);
        last_canonical = served.canonical;
        drop(daemon);
        let _ = std::fs::remove_dir_all(data);
        let _ = std::fs::remove_dir_all(local);
        // The campaign ran twice, served and remote-tiered, with
        // byte-identical results: twice the jobs and cycles over both walls.
        let jobs = 2.0 * warm.outcome.results.len() as f64;
        let cycles = 2.0 * warm.sim_cycles() as f64;
        let wall = served.submit_to_fetch_s + warm.wall_s;
        Iter {
            samples: vec![
                ("submit_to_fetch_s", served.submit_to_fetch_s),
                ("remote_warm_s", warm.wall_s),
                ("jobs_per_s", jobs / wall),
                ("sim_cycles_per_s", cycles / wall),
                ("cycle_error_pct_max", error),
            ],
            fingerprint,
        }
    });
    // Once per run: sequential health round trips against an idle daemon.
    let data = ctx.fresh_dir("daemon-health");
    let daemon = Daemon::start(&data);
    let mut client = Client {
        addr: &daemon.addr,
        requests: 1,
    };
    // The median settles on a hundred round trips; the traced run needs
    // 340 to leave ten samples beyond its 97th percentile.
    let n = match (ctx.smoke, ctx.trace) {
        (true, _) => 20,
        (false, false) => 100,
        (false, true) => 340,
    };
    let health = ctx.spans.scope("serve.health", |_| {
        health_round_trips(&mut checks, &mut client, n)
    });
    let mut layers = Vec::new();
    if ctx.trace {
        // 340 samples make the 97th the highest percentile with ten
        // samples beyond it (a smoke run's twenty only reach the median).
        let tail = tail_percentile(&health).map_or(0.0, |(_, v)| v);
        layers = vec![
            ("serve.http_req_ms_p97", tail),
            ("serve.remote_hits", remote_hits as f64),
            ("serve.remote_errors", remote_errors as f64),
            ("serve.queue_wait_ms", median(&queue_waits)),
            ("serve.polls", median(&polls)),
        ];
        layers.extend(blob_legs(ctx, &mut checks, &mut client));
        let canonical = String::from_utf8_lossy(&last_canonical).into_owned();
        layers.push((
            "report.render_ms",
            ctx.spans.scope("report.render_view", |_| {
                legs::render_ms(&canonical, None, &mut checks)
            }),
        ));
    }
    connections += client.requests;
    drop(daemon);
    if connections > MAX_CONNECTIONS {
        eprintln!("serve_campaign: {connections} connections, more than {MAX_CONNECTIONS}");
    }
    let mut report = Report::new(checks, setup_wall, timed, layers);
    report
        .metrics
        .push(("http_req_ms_p50", vec![median(&health)]));
    report
        .metrics
        .push(("connections", vec![connections as f64]));
    report
}
