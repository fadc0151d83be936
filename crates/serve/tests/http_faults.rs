//! The daemon's connection handling under faults and hostile bytes,
//! over real loopback sockets: truncated and mutated requests, uploads
//! dropped mid-body, clients that connect and say nothing, many
//! connections at once, and stopping the accept loop in every state it
//! can be in.
//!
//! Inputs come from a fixed-seed xorshift generator, so a failure names
//! the seed and case that reproduce it.

use std::fs;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ntg_explore::{
    entry_file_name, CampaignSpec, CoreSelection, DiskStore, MasterChoice, StoreKind,
};
use ntg_platform::InterconnectChoice;
use ntg_serve::http::{
    self, Handler, Request, Response, Server, IO_TIMEOUT, MAX_BODY_BYTES, MAX_HEADER_BYTES,
};
use ntg_serve::{JobServer, ServerConfig};
use ntg_workloads::Workload;

const SEED: u64 = 0x5eed_fa17;
const MUTATIONS: u64 = 3000;
/// `serve` must be back this soon after the flag is stored.
const STOP_WITHIN: Duration = Duration::from_millis(100);

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
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ntg-serve-faults").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// An accept loop on an ephemeral loopback port and the means to stop
/// it: store the flag, join the thread — what every embedder does.
struct Serving {
    addr: String,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Serving {
    fn start(handler: Arc<Handler>) -> Self {
        let listener = Server::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let thread = std::thread::spawn(move || listener.serve(handler, flag));
        Serving {
            addr,
            shutdown,
            thread: Some(thread),
        }
    }

    /// A real job server over `data`.
    fn daemon(data: &Path) -> Self {
        let server = JobServer::open(ServerConfig {
            data: data.to_path_buf(),
            workers: 1,
            store: None,
            remote: None,
            quiet: true,
        })
        .unwrap();
        Self::start(Arc::new(move |req| server.handle(&req)))
    }

    /// Stores the flag and returns how long `serve` took to come back.
    /// The join goes through a channel so a hang fails the test instead
    /// of wedging the suite.
    fn stop(&mut self) -> Duration {
        let thread = self.thread.take().expect("stopped once");
        let (tx, rx) = mpsc::channel();
        let stored = Instant::now();
        self.shutdown.store(true, Ordering::Relaxed);
        std::thread::spawn(move || {
            thread.join().unwrap();
            let _ = tx.send(Instant::now());
        });
        let returned = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("serve did not return after the flag was stored");
        returned.duration_since(stored)
    }
}

impl Drop for Serving {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Sends `bytes`, half-closes, and reads whatever comes back until the
/// server closes. A reset counts as a close with nothing (more) said.
fn exchange(addr: &str, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    // The server may answer and close before it has read everything.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    match stream.read_to_end(&mut out) {
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            panic!("the server neither answered nor closed within 20 s")
        }
        _ => out,
    }
}

/// Checks `raw` is one well-formed response — status line, a
/// `Content-Length` that matches the body, `Connection: close` — and
/// returns its status.
fn well_formed(raw: &[u8]) -> Result<u16, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no end of headers")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "non-UTF-8 head")?;
    let body = &raw[split + 4..];
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("no status line")?;
    let status: u16 = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let headers: Vec<(&str, &str)> = lines.filter_map(|l| l.split_once(": ")).collect();
    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| *v)
    };
    if header("content-length") != Some(body.len().to_string().as_str()) {
        return Err(format!(
            "Content-Length {:?} for a body of {} bytes",
            header("content-length"),
            body.len()
        ));
    }
    if header("connection") != Some("close") {
        return Err("no `Connection: close`".into());
    }
    Ok(status)
}

fn assert_healthy(addr: &str, context: &str) {
    let raw = exchange(addr, b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(well_formed(&raw), Ok(200), "{context}: /health is broken");
    assert!(raw.ends_with(b"\r\n\r\nok\n"), "{context}: /health body");
}

/// A framed store object (built by the only public framer) and its name.
fn framed_object(dir: &Path, key: &str, payload: &[u8]) -> (String, Vec<u8>) {
    let store = DiskStore::open(dir).unwrap();
    store.save(StoreKind::Trace, key, payload).unwrap();
    let name = entry_file_name(StoreKind::Trace, key);
    let bytes = fs::read(store.root().join("traces").join(&name)).unwrap();
    (name, bytes)
}

fn raw_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Valid requests of every method the daemon routes. The campaign is
/// one single-core job of a few hundred cycles, so a mutation that
/// still parses as a spec costs nothing to run.
fn valid_requests(dir: &Path) -> Vec<(&'static str, Vec<u8>)> {
    let (name, object) = framed_object(&dir.join("frames"), "trace|faults|corpus", b"payload");
    let mut spec = CampaignSpec::new("faults");
    spec.workloads = vec![Workload::Cacheloop { iterations: 10 }];
    spec.cores = CoreSelection::List(vec![1]);
    spec.interconnects = vec![InterconnectChoice::Amba];
    spec.masters = vec![MasterChoice::Cpu];
    vec![
        ("GET", raw_request("GET", "/health", b"")),
        (
            "GET?",
            raw_request("GET", "/jobs/0123456789abcdef/events?from=2&x=%41+b", b""),
        ),
        (
            "PUT",
            raw_request("PUT", &format!("/store/traces/{name}"), &object),
        ),
        (
            "POST",
            raw_request("POST", "/jobs", spec.to_json().render().as_bytes()),
        ),
    ]
}

fn printable(bytes: &[u8]) -> String {
    bytes.escape_ascii().to_string()
}

#[test]
fn every_truncation_of_a_valid_request_is_refused() {
    let dir = scratch("truncation");
    let daemon = Serving::daemon(&dir.join("data"));
    for (what, request) in valid_requests(&dir) {
        for cut in 0..request.len() {
            let raw = exchange(&daemon.addr, &request[..cut]);
            // Nothing arrived at all: there may be nothing to answer.
            if raw.is_empty() {
                continue;
            }
            assert_eq!(
                well_formed(&raw),
                Ok(400),
                "{what} cut at {cut} of {}: `{}` answered `{}`",
                request.len(),
                printable(&request[..cut]),
                printable(&raw)
            );
        }
        assert_healthy(&daemon.addr, what);
    }
    // Nothing half-received reached the store or the job table.
    let blobs = dir.join("data").join("blobs").join("traces");
    assert_eq!(fs::read_dir(blobs).unwrap().count(), 0);
    assert_eq!(
        http::get(&daemon.addr, "/jobs").unwrap().1,
        br#"{"jobs":[]}"#
    );
}

#[test]
fn mutated_requests_are_answered_or_closed_never_fatal() {
    let dir = scratch("mutation");
    let daemon = Serving::daemon(&dir.join("data"));
    let corpus = valid_requests(&dir);
    // Bytes that mean something to the parser, next to plain noise.
    let spice = b"\r\n :%?&=/+0a\x00\xff";
    for case in 0..MUTATIONS {
        let mut rng = Xorshift::new(SEED ^ case);
        let (what, mut bytes) = corpus[rng.below(corpus.len())].clone();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len());
            bytes[at] = if rng.below(2) == 0 {
                spice[rng.below(spice.len())]
            } else {
                rng.next() as u8
            };
        }
        let raw = exchange(&daemon.addr, &bytes);
        if raw.is_empty() {
            continue; // closed without a word
        }
        match well_formed(&raw) {
            // A harmless mutation (a header value, say) is still served.
            Ok(status) if status < 500 => {}
            verdict => panic!(
                "seed {SEED:#x} case {case} ({what}): `{}` answered {verdict:?}: `{}`",
                printable(&bytes),
                printable(&raw)
            ),
        }
        if case % 500 == 499 {
            assert_healthy(&daemon.addr, &format!("seed {SEED:#x} after case {case}"));
        }
    }
    assert_healthy(&daemon.addr, "after the last mutation");
}

#[test]
fn promises_above_the_caps_are_refused_before_they_are_read() {
    let dir = scratch("caps");
    let daemon = Serving::daemon(&dir.join("data"));
    // A body the peer only promises: 413 from the header alone, at once.
    let t = Instant::now();
    let head = format!(
        "PUT /store/traces/x.trace HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    let raw = exchange(&daemon.addr, head.as_bytes());
    assert_eq!(well_formed(&raw), Ok(413), "`{}`", printable(&raw));
    // The largest body allowed, promised and never sent, costs a 400.
    let head = format!(
        "PUT /store/traces/x.trace HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\nabc"
    );
    let raw = exchange(&daemon.addr, head.as_bytes());
    assert_eq!(well_formed(&raw), Ok(400), "`{}`", printable(&raw));
    assert!(raw.ends_with(b"connection closed mid-body\n"));
    // A header line that never ends stops at the header cap.
    let mut endless = b"GET /".to_vec();
    endless.resize(4 * MAX_HEADER_BYTES, b'a');
    let raw = exchange(&daemon.addr, &endless);
    if !raw.is_empty() {
        assert_eq!(well_formed(&raw), Ok(400), "`{}`", printable(&raw));
    }
    // None of the three waited for bytes that were never coming.
    assert!(t.elapsed() < IO_TIMEOUT / 2, "{:?}", t.elapsed());
    assert_healthy(&daemon.addr, "after over-cap requests");
}

#[test]
fn an_upload_dropped_mid_body_leaves_nothing_behind() {
    let dir = scratch("dropped-put");
    let daemon = Serving::daemon(&dir.join("data"));
    let (name, object) = framed_object(&dir.join("frames"), "trace|faults|dropped", &[7u8; 4096]);
    let request = raw_request("PUT", &format!("/store/traces/{name}"), &object);
    let mid_body = request.len() - object.len() / 2;
    let blobs = dir.join("data").join("blobs").join("traces");
    let stored = || -> Vec<String> {
        fs::read_dir(&blobs)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    };

    // The peer stops sending: the 400 says the server is done with it.
    let raw = exchange(&daemon.addr, &request[..mid_body]);
    assert_eq!(well_formed(&raw), Ok(400), "`{}`", printable(&raw));
    assert_eq!(stored(), Vec::<String>::new(), "no object, no tmp file");

    // The peer vanishes with half the body unsent.
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream.write_all(&request[..mid_body]).unwrap();
    drop(stream);

    // The name is still free: the full upload creates it, intact.
    let (status, _) = http::put(&daemon.addr, &format!("/store/traces/{name}"), &object).unwrap();
    assert_eq!(status, 201);
    assert_eq!(stored(), vec![name.clone()], "one object, no tmp file");
    assert_eq!(fs::read(blobs.join(&name)).unwrap(), object);
}

#[test]
fn a_silent_client_does_not_delay_the_others() {
    let dir = scratch("silent");
    let daemon = Serving::daemon(&dir.join("data"));
    // Connected, accepted, and never a byte: each parks one connection
    // thread until the I/O timeout, and nobody else.
    let silent: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(&daemon.addr).unwrap())
        .collect();
    let t = Instant::now();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                for _ in 0..25 {
                    assert_eq!(http::get(&addr, "/health").unwrap().0, 200);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    // 100 round trips; one waiting out a silent peer would take 30 s.
    assert!(t.elapsed() < IO_TIMEOUT / 2, "{:?}", t.elapsed());
    drop(silent);
}

#[test]
fn sixty_four_concurrent_connections_are_all_answered() {
    let dir = scratch("concurrent");
    let daemon = Serving::daemon(&dir.join("data"));
    // All open before the first request is written, so all 64 are in
    // the server's hands at the same time.
    let mut streams: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(&daemon.addr).unwrap())
        .collect();
    for s in &mut streams {
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        s.write_all(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
    }
    for (i, mut s) in streams.into_iter().enumerate() {
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        assert_eq!(well_formed(&raw), Ok(200), "connection {i}");
    }
}

/// The port is free again once `serve` has returned.
fn assert_rebinds(addr: &str) {
    let again = Server::bind(addr).unwrap_or_else(|e| panic!("re-bind {addr}: {e}"));
    assert_eq!(again.local_addr().to_string(), addr);
}

#[test]
fn serve_returns_promptly_with_no_connection_ever_made() {
    let mut serving = Serving::start(Arc::new(|_| Response::ok_text("ok\n")));
    let took = serving.stop();
    assert!(took < STOP_WITHIN, "serve took {took:?} to return");
    assert_rebinds(&serving.addr);
}

#[test]
fn serve_returns_promptly_with_an_idle_connection_open() {
    let mut serving = Serving::start(Arc::new(|_| Response::ok_text("ok\n")));
    let idle = TcpStream::connect(&serving.addr).unwrap();
    // Accepts are in arrival order: once this is answered, `idle` has
    // been accepted and its thread is parked in a read.
    assert_eq!(http::get(&serving.addr, "/health").unwrap().0, 200);
    let took = serving.stop();
    assert!(took < STOP_WITHIN, "serve took {took:?} to return");
    assert_rebinds(&serving.addr);
    drop(idle);
}

#[test]
fn serve_returns_promptly_with_a_long_poll_in_flight() {
    // A handler parked the way an events long-poll parks, released by
    // the test: `entered` says the request is in the handler's hands.
    let (entered_tx, entered) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let released = Mutex::new(released); // a `Receiver` is not `Sync`
    let mut serving = Serving::start(Arc::new(move |req: Request| {
        entered_tx.send(req.path.clone()).unwrap();
        released.lock().unwrap().recv().unwrap();
        Response::ok_text("released\n")
    }));
    let client = {
        let addr = serving.addr.clone();
        std::thread::spawn(move || http::get(&addr, "/jobs/x/events?from=9"))
    };
    assert_eq!(entered.recv().unwrap(), "/jobs/x/events");
    let took = serving.stop();
    assert!(took < STOP_WITHIN, "serve took {took:?} to return");
    assert_rebinds(&serving.addr);
    // The request in flight outlives the accept loop and is answered.
    release.send(()).unwrap();
    let (status, body) = client.join().unwrap().unwrap();
    assert_eq!((status, body.as_slice()), (200, b"released\n".as_slice()));
}
