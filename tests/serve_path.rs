//! Tier-1 guard for the campaign service path: an in-process daemon
//! serves a 2-job campaign byte-identically to a local run, a client
//! long-polls it to `done` and fetches at once, a request costs
//! nothing like a sleep, storing the stop flag ends `serve`, and a
//! daemon's start + stop costs nothing like a stop-watcher sleep.
//! `crates/serve/tests/` checks the same path in depth (faults, hostile
//! bytes, restarts), but the root `cargo test -q` runs only this
//! package — an accept loop that sleeps or cannot be stopped must fail
//! here.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ntg::explore::{run_campaign, CampaignSpec, CoreSelection, Json, MasterChoice, RunOptions};
use ntg::platform::InterconnectChoice;
use ntg::serve::http::{self, Handler, Server};
use ntg::serve::{JobServer, ServerConfig};
use ntg::workloads::Workload;

/// An in-process daemon serving `data` on an ephemeral loopback port.
struct Daemon {
    addr: String,
    shutdown: Arc<AtomicBool>,
    returned: mpsc::Receiver<()>,
}

impl Daemon {
    /// Binds, opens the job server and serves; returns once `/health`
    /// answers.
    fn start(data: &Path) -> Self {
        let server = JobServer::open(ServerConfig {
            data: data.to_path_buf(),
            workers: 2,
            store: None,
            remote: None,
            quiet: true,
        })
        .unwrap();
        let listener = Server::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handler: Arc<Handler> = Arc::new(move |req| server.handle(&req));
        let flag = shutdown.clone();
        let (returned_tx, returned) = mpsc::channel();
        std::thread::spawn(move || {
            listener.serve(handler, flag);
            let _ = returned_tx.send(());
        });
        assert_eq!(http::get(&addr, "/health").unwrap().0, 200);
        Self {
            addr,
            shutdown,
            returned,
        }
    }

    /// "Store true" is the whole stop protocol. Waiting on the channel
    /// with a timeout turns a hang into a failure instead of a wedge.
    fn stop(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.returned
            .recv_timeout(Duration::from_secs(10))
            .expect("serve did not return after the flag was stored");
    }
}

#[test]
fn a_served_campaign_matches_a_local_run_and_no_request_waits_out_a_sleep() {
    let dir = std::env::temp_dir().join(format!("ntg-serve-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut spec = CampaignSpec::new("serve-path");
    spec.workloads = vec![Workload::Cacheloop { iterations: 200 }];
    spec.cores = CoreSelection::List(vec![2]);
    spec.interconnects = vec![InterconnectChoice::Amba];
    spec.masters = vec![MasterChoice::Cpu, MasterChoice::Tg];

    let daemon = Daemon::start(&dir.join("data"));
    let addr = daemon.addr.clone();

    // Submit, long-poll to the terminal event, fetch on the first try.
    let (status, body) = http::post_json(&addr, "/jobs", &spec.to_json().render()).unwrap();
    assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
    let id = format!("{:016x}", spec.fingerprint());
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut seen = 0;
    'watch: loop {
        let (status, body) = http::get(&addr, &format!("/jobs/{id}/events?from={seen}")).unwrap();
        assert_eq!(status, 200);
        for line in String::from_utf8(body).unwrap().lines() {
            seen += 1;
            let event = Json::parse(line).unwrap();
            match event.get("event").and_then(Json::as_str) {
                Some("done") => break 'watch,
                Some("error") => panic!("served campaign failed: {line}"),
                _ => {}
            }
        }
        assert!(Instant::now() < deadline, "served campaign did not finish");
    }
    let (status, served) = http::get(&addr, &format!("/jobs/{id}/results")).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&served));

    let local = dir.join("local.jsonl");
    let outcome = run_campaign(
        &spec,
        &RunOptions {
            threads: 1,
            out: Some(local.clone()),
            quiet: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.results.len(), 2);
    assert_eq!(served, std::fs::read(&local).unwrap(), "served != local");

    // A hundred sequential round trips: ~15 ms when `accept` blocks in
    // the kernel, 2 s when each one waits out a 20 ms poll interval.
    let t = Instant::now();
    for _ in 0..100 {
        assert_eq!(http::get(&addr, "/health").unwrap().0, 200);
    }
    let took = t.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "100 GET /health took {took:?}"
    );
    daemon.stop();

    // Twenty sequential start/stop cycles: ~13 ms when a young daemon's
    // stop waits out at most one 250 µs first watcher period, ~90 ms at
    // a fixed 4 ms. The
    // best of three rounds keeps a noisy host from failing it.
    let best = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..20 {
                Daemon::start(&dir.join("cycles")).stop();
            }
            t.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        best < Duration::from_millis(40),
        "20 daemon start/stop cycles took {best:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
