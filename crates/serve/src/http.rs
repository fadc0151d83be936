//! Minimal deterministic HTTP/1.1 on `std::net` — server and client.
//!
//! The workspace is offline and std-only (DESIGN §6), so the campaign
//! service speaks a deliberately small, fixed subset of HTTP/1.1:
//!
//! * requests and responses are framed by `Content-Length` only — no
//!   chunked transfer encoding, no trailers, no keep-alive (every
//!   response carries `Connection: close` and the connection ends);
//! * the request line is `METHOD SP path[?query] SP HTTP/1.1`; header
//!   names are matched case-insensitively; bodies are raw bytes;
//! * hard caps bound every read: 64 KiB of header, 256 MiB of body
//!   (an over-cap `Content-Length` is answered `413` before a body byte
//!   is read, and the body buffer grows with the bytes that arrive, not
//!   with the bytes promised), and a per-socket read/write timeout, so
//!   a stalled or malicious peer cannot wedge a worker thread.
//!
//! Both sides of the service use this module: the daemon's listener
//! ([`Server`]) and the client helpers ([`request`], [`get`], [`put`])
//! used by `ntg-sweep submit/watch/fetch` and the [`HttpRemote`]
//! artifact tier.
//!
//! ## The accept loop
//!
//! [`Server::serve`] blocks in the kernel: a blocking listener, one
//! detached thread per accepted connection, so a connection is picked
//! up when it arrives and a round trip on loopback costs ~0.1 ms.
//! Nothing on the request path sleeps or polls.
//!
//! The stop signal is a bare `AtomicBool` that callers store `true`
//! into and then join the serving thread, and a flag cannot wake a
//! thread blocked in `accept`. So for the duration of `serve` one
//! scoped helper thread looks at the flag and, once it is set, wakes
//! the accept loop with a single loopback self-connect; the loop sees
//! the flag and returns. The helper first looks after 250 µs
//! (`FIRST_WATCH`) and doubles its wait up to 4 ms (`STOP_WATCH`), so
//! a stop waits no longer than about the daemon's uptime: a start +
//! stop takes ~0.7 ms, and a daemon up for more than ~8 ms costs
//! ~250 wake-ups a second (DESIGN §4.17). That watch is the only timed
//! wait on the healthy path of this module, and it is off the request
//! path.
//! It exists only because the signal is a flag: a stop handle whose
//! `stop()` does the self-connect itself would make the watcher
//! unnecessary. The other timed wait is the back-off after a failed
//! `accept` (`EMFILE`, `ECONNABORTED`), which must neither end the loop
//! nor spin it.
//!
//! Connection reuse (keep-alive) is deliberately not implemented: with
//! a blocking accept a request costs ~0.15 ms, a served 54-job campaign
//! makes ~135 of them (~20 ms of 1.7 s), and a 1 MiB blob GET already
//! outruns `DiskStore` get, so a connection pool with stale-connection
//! retry has nothing left to buy (DESIGN §4.17).
//!
//! [`HttpRemote`]: crate::remote::HttpRemote

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Header section cap (request line + headers + blank line).
pub const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Body cap — far above any campaign artifact, far below a memory DoS.
pub const MAX_BODY_BYTES: u64 = 256 * 1024 * 1024;
/// Per-socket read/write timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// [`Server::serve`]'s helper thread first looks at the stop flag after
/// this long, then after twice the previous wait, up to [`STOP_WATCH`]
/// (see the module docs).
const FIRST_WATCH: Duration = Duration::from_micros(250);
/// The helper's steady period, and how long the accept loop backs off
/// after a failed `accept`.
const STOP_WATCH: Duration = Duration::from_millis(4);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `PUT`, `POST`, ...).
    pub method: String,
    /// Decoded path, query string stripped (always starts with `/`).
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The `/`-separated path segments (no empty segments).
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// An HTTP response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Body bytes (`Content-Length` is derived from it).
    pub body: Vec<u8>,
}

impl Response {
    /// `200` with arbitrary bytes.
    pub fn ok_bytes(content_type: &str, body: Vec<u8>) -> Self {
        Self {
            status: 200,
            content_type: content_type.to_string(),
            body,
        }
    }

    /// `200 text/plain`.
    pub fn ok_text(body: impl Into<String>) -> Self {
        Self::ok_bytes("text/plain; charset=utf-8", body.into().into_bytes())
    }

    /// JSON with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json".to_string(),
            body: body.into_bytes(),
        }
    }

    /// An error response with a plain-text reason.
    pub fn error(status: u16, reason: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: {
                let mut b = reason.into().into_bytes();
                b.push(b'\n');
                b
            },
        }
    }

    /// `404` with a reason.
    pub fn not_found(reason: impl Into<String>) -> Self {
        Self::error(404, reason)
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Reads and parses one request from the stream.
///
/// # Errors
///
/// Returns the response to answer with: `413` for a `Content-Length`
/// above [`MAX_BODY_BYTES`], `400` for malformed framing, an over-cap
/// header, a connection that ends early or a socket error/timeout.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    let mut reader = BufReader::new(stream);
    let (mut request, content_length) =
        read_head(&mut reader).map_err(|e| Response::error(400, e))?;
    if content_length > MAX_BODY_BYTES {
        return Err(Response::error(
            413,
            format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"),
        ));
    }
    // `Content-Length` is the peer's promise, not a fact: the buffer
    // grows with the bytes that actually arrive.
    match reader.take(content_length).read_to_end(&mut request.body) {
        Ok(n) if n as u64 == content_length => Ok(request),
        Ok(_) => Err(Response::error(400, "connection closed mid-body")),
        Err(e) => Err(Response::error(400, format!("read body: {e}"))),
    }
}

/// Reads the request line and headers; returns the request with an
/// empty body and the declared `Content-Length`.
fn read_head(reader: &mut BufReader<&mut TcpStream>) -> Result<(Request, u64), String> {
    let mut head = String::new();
    let mut line = String::new();
    // Request line + header lines, each CRLF-terminated. The `take`
    // stops a line that never ends, which `read_line` would otherwise
    // buffer whole before the cap below is looked at.
    let mut capped = reader.by_ref().take(MAX_HEADER_BYTES as u64 + 1);
    loop {
        line.clear();
        let n = capped
            .read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-header".into());
        }
        head.push_str(&line);
        if head.len() > MAX_HEADER_BYTES {
            return Err("header section exceeds cap".into());
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut lines = head.lines();
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or("missing method")?.to_ascii_uppercase();
    let target = parts.next().ok_or("missing request target")?;
    let version = parts.next().ok_or("missing HTTP version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version `{version}`"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)?;
    if !path.starts_with('/') {
        return Err(format!("request target `{target}` is not an origin path"));
    }
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k)?, percent_decode(v)?));
        }
    }
    let mut headers = Vec::new();
    for l in lines {
        if l.is_empty() {
            break;
        }
        let (k, v) = l
            .split_once(':')
            .ok_or_else(|| format!("malformed header line `{l}`"))?;
        headers.push((k.trim().to_string(), v.trim().to_string()));
    }
    let content_length: u64 = match headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
    {
        Some((_, v)) => v.parse().map_err(|_| format!("bad Content-Length `{v}`"))?,
        None => 0,
    };
    if headers.iter().any(|(k, v)| {
        k.eq_ignore_ascii_case("transfer-encoding") && !v.eq_ignore_ascii_case("identity")
    }) {
        return Err("chunked transfer encoding is not supported".into());
    }
    Ok((
        Request {
            method,
            path,
            query,
            headers,
            body: Vec::new(),
        },
        content_length,
    ))
}

/// Writes a response (always `Connection: close`).
///
/// # Errors
///
/// Returns a message on a socket error/timeout.
pub fn write_response(stream: &mut TcpStream, resp: &Response) -> Result<(), String> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(&resp.body))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("write response: {e}"))
}

fn percent_decode(s: &str) -> Result<String, String> {
    if !s.contains('%') && !s.contains('+') {
        return Ok(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad percent escape in `{s}`"))?;
                out.push(hex);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("non-UTF-8 escape in `{s}`"))
}

/// A handler turns a request into a response. Handler panics are
/// confined to the connection thread (the peer sees a dropped
/// connection, the server lives on).
pub type Handler = dyn Fn(Request) -> Response + Send + Sync;

/// A threaded accept loop over a bound listener.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
}

impl Server {
    /// Binds to `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns a message if the bind fails.
    pub fn bind(addr: &str) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        Ok(Self { listener, addr })
    }

    /// The bound address (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until `shutdown` becomes true, one thread per
    /// connection. Blocks the calling thread — in `accept`, not in a
    /// poll: see the module docs for how the flag gets it out.
    pub fn serve(self, handler: Arc<Handler>, shutdown: Arc<AtomicBool>) {
        let wake = wake_addr(self.addr);
        // Neither flag publishes other data: `Relaxed` is enough.
        let returned = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut period = FIRST_WATCH;
                while !returned.load(Ordering::Relaxed) {
                    // One self-connect wakes the blocked `accept`; it is
                    // tried again only if the connect itself failed.
                    if shutdown.load(Ordering::Relaxed)
                        && TcpStream::connect_timeout(&wake, IO_TIMEOUT).is_ok()
                    {
                        return;
                    }
                    std::thread::sleep(period);
                    period = (period * 2).min(STOP_WATCH);
                }
            });
            for stream in self.listener.incoming() {
                if shutdown.load(Ordering::Relaxed) {
                    break;
                }
                let spawned = stream.and_then(|stream| {
                    let handler = handler.clone();
                    std::thread::Builder::new()
                        .spawn(move || handle_connection(stream, handler.as_ref()))
                });
                // Out of descriptors or threads, or a peer that gave up
                // in the backlog: drop this connection and keep serving,
                // without spinning on an error that persists.
                if spawned.is_err() {
                    std::thread::sleep(STOP_WATCH);
                }
            }
            returned.store(true, Ordering::Relaxed);
        });
    }
}

/// Where a self-connect reaches a listener bound to `bound`: that
/// address, or the loopback of its family when the IP is unspecified.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    bound
}

fn handle_connection(mut stream: TcpStream, handler: &Handler) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let resp = match read_request(&mut stream) {
        Ok(req) => handler(req),
        Err(resp) => resp,
    };
    let _ = write_response(&mut stream, &resp);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// One client request/response exchange: connects, sends, reads the
/// full response, closes. Returns `(status, body)`.
///
/// # Errors
///
/// Returns a message on connect/socket failures or malformed response
/// framing (an HTTP error *status* is returned, not an `Err`).
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no address"))?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, IO_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send {method} {path}: {e}"))?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status: {e}"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line `{}`", status_line.trim_end()))?;
    let mut content_length: Option<u64> = None;
    let mut header_bytes = status_line.len();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read headers: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-header".into());
        }
        header_bytes += n;
        if header_bytes > MAX_HEADER_BYTES {
            return Err("response header section exceeds cap".into());
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    v.trim()
                        .parse()
                        .map_err(|_| format!("bad response Content-Length `{}`", v.trim()))?,
                );
            }
        }
    }
    let body = match content_length {
        Some(len) if len > MAX_BODY_BYTES => {
            return Err("response body exceeds cap".into());
        }
        Some(len) => {
            let mut buf = vec![0u8; len as usize];
            reader
                .read_exact(&mut buf)
                .map_err(|e| format!("read body: {e}"))?;
            buf
        }
        // Connection: close framing — read to EOF, capped.
        None => {
            let mut buf = Vec::new();
            reader
                .take(MAX_BODY_BYTES + 1)
                .read_to_end(&mut buf)
                .map_err(|e| format!("read body: {e}"))?;
            if buf.len() as u64 > MAX_BODY_BYTES {
                return Err("response body exceeds cap".into());
            }
            buf
        }
    };
    Ok((status, body))
}

/// `GET path` — returns `(status, body)`.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: &str, path: &str) -> Result<(u16, Vec<u8>), String> {
    request(addr, "GET", path, "application/octet-stream", &[])
}

/// `PUT path` with a binary body — returns `(status, body)`.
///
/// # Errors
///
/// See [`request`].
pub fn put(addr: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    request(addr, "PUT", path, "application/octet-stream", body)
}

/// `POST path` with a JSON body — returns `(status, body)`.
///
/// # Errors
///
/// See [`request`].
pub fn post_json(addr: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    request(addr, "POST", path, "application/json", body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_echo() -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handler: Arc<Handler> = Arc::new(|req: Request| {
            let mut out = format!("{} {}", req.method, req.path);
            if let Some(v) = req.query_param("from") {
                out.push_str(&format!(" from={v}"));
            }
            out.push('|');
            Response::ok_bytes("application/octet-stream", {
                let mut b = out.into_bytes();
                b.extend_from_slice(&req.body);
                b
            })
        });
        let join = std::thread::spawn(move || server.serve(handler, flag));
        (addr, shutdown, join)
    }

    #[test]
    fn round_trips_methods_queries_and_bodies() {
        let (addr, shutdown, join) = spawn_echo();
        let addr = addr.to_string();
        let (status, body) = get(&addr, "/health").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"GET /health|");

        let (status, body) = put(&addr, "/store/traces/x", b"\x00\x01binary\xff").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"PUT /store/traces/x|\x00\x01binary\xff".as_slice());

        let (status, body) = get(&addr, "/jobs/abc/events?from=7").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"GET /jobs/abc/events from=7|");

        shutdown.store(true, Ordering::Relaxed);
        join.join().unwrap();
    }

    #[test]
    fn rejects_malformed_requests() {
        let (addr, shutdown, join) = spawn_echo();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NOT-HTTP-AT-ALL\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        shutdown.store(true, Ordering::Relaxed);
        join.join().unwrap();
    }

    #[test]
    fn the_stop_self_connect_targets_the_loopback_of_a_wildcard_bind() {
        for (bound, wake) in [
            ("127.0.0.1:7070", "127.0.0.1:7070"),
            ("0.0.0.0:7070", "127.0.0.1:7070"),
            ("[::]:7070", "[::1]:7070"),
            ("[::1]:7070", "[::1]:7070"),
        ] {
            assert_eq!(wake_addr(bound.parse().unwrap()), wake.parse().unwrap());
        }
        // End to end on the wildcard address: the flag still stops it.
        let server = Server::bind("0.0.0.0:0").unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handler: Arc<Handler> = Arc::new(|_| Response::ok_text("ok\n"));
        let (returned_tx, returned) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.serve(handler, flag);
            let _ = returned_tx.send(());
        });
        shutdown.store(true, Ordering::Relaxed);
        returned
            .recv_timeout(Duration::from_secs(10))
            .expect("serve returns once the flag is stored");
    }

    #[test]
    fn percent_decoding_is_applied_to_paths_and_queries() {
        assert_eq!(percent_decode("/a%20b+c").unwrap(), "/a b c");
        assert!(percent_decode("/bad%zz").is_err());
    }
}
