//! The campaign service daemon.
//!
//! ```text
//! ntg-serve --listen 127.0.0.1:7070                # store + job server
//! ntg-serve --listen 127.0.0.1:0 --addr-file port  # ephemeral port, scraped by scripts
//! ntg-serve --listen 127.0.0.1:7071 --remote 127.0.0.1:7070
//!                                                  # workers fetch/publish upstream
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use ntg_serve::http::{Handler, Server};
use ntg_serve::{HttpRemote, JobServer, ServerConfig};

const USAGE: &str = "\
ntg-serve — campaign job server + remote artifact store

USAGE:
    ntg-serve [OPTIONS]

OPTIONS:
    --listen ADDR     bind address (default 127.0.0.1:7070; use :0 for ephemeral)
    --data DIR        data root: blobs/, jobs/, cache/ (default ./ntg-serve-data)
    --workers N       worker threads per campaign (default 2)
    --store DIR       workers' local artifact store (default <data>/cache)
    --remote ADDR     upstream artifact daemon the workers fetch from/publish to
    --addr-file PATH  write the resolved listen address to PATH (for scripts)
    --quiet           suppress per-job stderr lines
    -h, --help        this text

ENDPOINTS:
    GET  /health                      liveness
    GET  /store/stats                 blob-store object counts and bytes
    GET  /store/{traces|images}/<n>   fetch a framed artifact object
    PUT  /store/{traces|images}/<n>   publish (write-once, verified)
    POST /jobs                        submit a CampaignSpec JSON
    GET  /jobs                        list jobs
    GET  /jobs/<id>                   status
    GET  /jobs/<id>/events?from=N     NDJSON progress events from index N on; long-poll:
                                      held until event N exists, the job has ended,
                                      or 20 s pass (then an empty 200)
    GET  /jobs/<id>/results           canonical JSONL
    GET  /jobs/<id>/{timings|metrics} timing / metrics sidecars
    GET  /jobs/<id>/report/<view>     markdown|table2|rankings|pareto|saturation
";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ntg-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut listen = "127.0.0.1:7070".to_string();
    let mut data = PathBuf::from("ntg-serve-data");
    let mut workers = 2usize;
    let mut store: Option<PathBuf> = None;
    let mut remote: Option<String> = None;
    let mut addr_file: Option<PathBuf> = None;
    let mut quiet = false;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            "--listen" => listen = it.next().ok_or("--listen needs a value")?,
            "--data" => data = PathBuf::from(it.next().ok_or("--data needs a value")?),
            "--workers" => {
                workers = it
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|_| "--workers: not a number")?;
                if workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--store" => store = Some(PathBuf::from(it.next().ok_or("--store needs a value")?)),
            "--remote" => remote = Some(it.next().ok_or("--remote needs a value")?),
            "--addr-file" => {
                addr_file = Some(PathBuf::from(it.next().ok_or("--addr-file needs a value")?));
            }
            "--quiet" => quiet = true,
            other => return Err(format!("unknown option `{other}` (see --help)")),
        }
    }

    let remote_tier = remote
        .as_deref()
        .map(|addr| Arc::new(HttpRemote::new(addr)) as Arc<dyn ntg_explore::RemoteTier>);
    let server = JobServer::open(ServerConfig {
        data,
        workers,
        store,
        remote: remote_tier,
        quiet,
    })?;

    let listener = Server::bind(&listen)?;
    let addr = listener.local_addr();
    if let Some(path) = &addr_file {
        std::fs::write(path, addr.to_string())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("ntg-serve listening on {addr}");

    let handler: Arc<Handler> = Arc::new(move |req| server.handle(&req));
    // The daemon runs until killed; scripts stop it with a signal.
    let never = Arc::new(AtomicBool::new(false));
    listener.serve(handler, never);
    Ok(ExitCode::SUCCESS)
}
