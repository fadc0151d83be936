//! `ntg-sweep` — declarative design-space-exploration campaigns.
//!
//! Expands a cartesian sweep spec (workloads × core counts ×
//! interconnects × master kinds × translation modes) into jobs, runs
//! them on a worker pool with trace/TG-image caching, and writes a
//! byte-reproducible JSONL result file (see `ntg_explore` docs).
//! With a campaign service running (`ntg-serve`), the same spec can be
//! submitted over HTTP instead — `submit`/`watch`/`fetch` — and local
//! runs can share the service's artifact store via `--remote`.
//!
//! ```text
//! ntg-sweep --preset quick --threads 4 --out quick.jsonl
//! ntg-sweep --workloads mp_matrix:16 --cores 4 --fabrics all \
//!           --masters cpu,tg --out fabrics.jsonl
//! ntg-sweep --preset table2 --resume --out table2.jsonl
//! ntg-sweep submit --server 127.0.0.1:7070 --preset quick
//! ntg-sweep watch --server 127.0.0.1:7070 <job-id>
//! ntg-sweep fetch --server 127.0.0.1:7070 <job-id> --out quick.jsonl
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use ntg_explore::{
    run_campaign, CampaignSpec, CoreSelection, DiskStore, JobResult, Json, MasterChoice, RunOptions,
};
use ntg_platform::{InterconnectChoice, ALL_INTERCONNECTS};
use ntg_serve::{http, normalize_addr, HttpRemote};
use ntg_workloads::synthetic::{Pattern, ShapeKind};
use ntg_workloads::Workload;

/// Warn after a run when the persistent store outgrows this budget
/// (override with `NTG_STORE_BUDGET`, in bytes).
const DEFAULT_STORE_BUDGET: u64 = 1 << 30;

const USAGE: &str = "\
ntg-sweep — run a design-space-exploration campaign

USAGE:
    ntg-sweep [--preset NAME] [OPTIONS]
    ntg-sweep submit --server ADDR [--preset NAME] [AXIS OPTIONS]
    ntg-sweep watch --server ADDR JOB_ID
    ntg-sweep fetch --server ADDR JOB_ID [--out PATH] [--view NAME] [--sidecars]
    ntg-sweep store stats [--store PATH]
    ntg-sweep store gc --budget BYTES [--dry-run] [--store PATH]

PRESETS (a starting point; later options override):
    table2     paper Table 2: 4 workloads, paper core sweeps, CPU vs TG on AMBA
    quick      small smoke campaign: 2 workloads x {2,4}P x {amba,xpipes}, CPU vs TG
    fabrics    paper §1 exploration: mp_matrix:16 4P across all interconnects
    ablation   mp_matrix:16 4P: cpu/tg/stochastic x all modes x 3 fabrics
    saturation synthetic 8P lambda-sweep: {xpipes,crossbar} x 3 patterns x 6 rates
               (latency-vs-offered-load curves; render with ntg-report)

OPTIONS:
    --name NAME          campaign name (default: preset name or `sweep`)
    --workloads LIST     comma-separated workload specs, e.g. mp_matrix:16,cacheloop:5000
    --cores LIST|paper   comma-separated core counts, or `paper` for each
                         workload's Table-2 sweep
    --fabrics LIST|all   interconnects to evaluate (amba, amba-fixed,
                         crossbar, xpipes, xpipes:WxH, ideal)
    --mesh-sizes LIST    explicit xpipes mesh dimensions appended to the
                         fabric axis, e.g. 4x4,8x8,16x16 (meshes too small
                         for a job's core count are skipped)
    --masters LIST       master kinds: cpu, tg, stochastic, synthetic
    --modes LIST         translation modes for TG jobs: clone, timeshift, reactive
    --patterns LIST      synthetic destination patterns: uniform, complement,
                         shuffle, transpose, tornado, neighbor, hotspot:<pct>
    --shapes LIST        synthetic temporal shapes: bernoulli, burst:<len>,
                         onoff:<on>:<off>
    --rates LIST         synthetic offered injection rates in (0,1],
                         e.g. 0.02,0.05,0.1
    --packet-words N     words per synthetic packet (default 4; <=4 stays
                         inline/alloc-free)
    --trace-fabric F     interconnect reference traces are collected on (default amba)
    --seed N             campaign base seed (default 1)
    --max-cycles N       simulated-cycle bound per run (default 2000000000)
    --repeats N          timing repeats per job (default 1)
    --threads N          worker threads; 0 = one per hardware thread (default 1)
    --out PATH           result file (default <name>.jsonl)
    --resume             keep matching results from an earlier partial run
    --store PATH         persistent artifact store for traces/TG binaries
                         (default: $NTG_STORE, else ~/.cache/ntg)
    --no-store           skip the persistent store for this run
    --remote ADDR        tier the store over an ntg-serve artifact daemon:
                         local misses fetch from it, local builds publish to it
    --dry-run            print the expanded job list, an estimate of
                         trace/image store reuse and the simulations a
                         cold run executes, then exit
                         (for `store gc`: preview evictions without deleting)
    --quiet              suppress per-job progress on stderr
    -h, --help           this text

SERVICE COMMANDS:
    submit   POST the spec to an ntg-serve daemon; prints the job id
             (the campaign fingerprint — resubmitting the same spec is
             idempotent and resumes crashed campaigns)
    watch    print the job's NDJSON progress events as they happen
             (long-polls GET /jobs/<id>/events?from=N: no sleep, about
             one request per event); exits 0 on `done`, non-zero with
             the job's error on `error`
    fetch    download the canonical JSONL (byte-identical to a
             local run of the same spec), a report view (--view
             markdown|table2|rankings|pareto|saturation), and
             optionally the timing/metrics sidecars (--sidecars)
    store    stats: local artifact store entry counts, bytes, root
             gc:    prune to BYTES, least recently used artifacts first;
                    --dry-run previews
";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ntg-sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

fn take(it: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or(format!("{flag} needs a value"))
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("submit") => return run_submit(args[1..].to_vec()),
        Some("watch") => return run_watch(args[1..].to_vec()),
        Some("fetch") => return run_fetch(args[1..].to_vec()),
        Some("store") => return run_store(args[1..].to_vec()),
        _ => {}
    }

    let mut spec: Option<CampaignSpec> = None;
    let mut name: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut opts = RunOptions {
        threads: 1,
        out: None,
        resume: false,
        quiet: false,
        store: None,
        remote: None,
    };
    let mut store_flag: Option<PathBuf> = None;
    let mut no_store = false;
    let mut remote_flag: Option<String> = None;
    let mut dry_run = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if parse_axis_flag(&mut spec, &arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--name" => name = Some(take(&mut it, "--name")?),
            "--threads" => {
                opts.threads = take(&mut it, "--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--out" => out = Some(PathBuf::from(take(&mut it, "--out")?)),
            "--resume" => opts.resume = true,
            "--store" => store_flag = Some(PathBuf::from(take(&mut it, "--store")?)),
            "--no-store" => no_store = true,
            "--remote" => remote_flag = Some(take(&mut it, "--remote")?),
            "--dry-run" => dry_run = true,
            "--quiet" => opts.quiet = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown option `{other}` (see --help)")),
        }
    }

    let store_base = match (no_store, store_flag) {
        (true, _) => None,
        (false, Some(p)) => Some(p),
        (false, None) => DiskStore::default_base(),
    };

    let mut spec = spec.ok_or("nothing to do: give --preset or axis options (see --help)")?;
    if let Some(n) = name {
        spec.name = n;
    }
    if spec.workloads.is_empty() {
        return Err("no workloads selected".into());
    }

    let jobs = spec.expand();
    if dry_run {
        print_dry_run(&spec, &jobs);
        return Ok(ExitCode::SUCCESS);
    }

    opts.store = store_base;
    if let Some(addr) = remote_flag {
        if opts.store.is_none() {
            return Err(
                "--remote needs a local store tier (drop --no-store or give --store)".into(),
            );
        }
        opts.remote = Some(Arc::new(HttpRemote::new(&addr)));
    }
    opts.out = Some(out.unwrap_or_else(|| PathBuf::from(format!("{}.jsonl", spec.name))));
    let outcome = run_campaign(&spec, &opts)?;

    // Result table: deterministic columns only; timings live in the
    // sidecar.
    println!(
        "campaign `{}`: {} jobs ({} run, {} resumed) in {:.2}s",
        outcome.header.name,
        outcome.results.len(),
        outcome.executed,
        outcome.resumed,
        outcome.wall_secs
    );
    println!("{}", outcome.cache.summary_line());
    println!(
        "\n{:<44} {:>14} {:>9} {:>9} {:>6}",
        "configuration", "cycles", "err%", "verified", "cache"
    );
    let failures = outcome.results.iter().filter(|r| job_failed(r)).count();
    for r in &outcome.results {
        let cycles = match (r.error.as_ref(), r.cycles) {
            (Some(_), _) => "FAILED".to_string(),
            (None, Some(c)) => c.to_string(),
            (None, None) => "bound".to_string(),
        };
        let err_pct = r
            .error_pct
            .map(|e| format!("{e:.2}"))
            .unwrap_or_else(|| "-".into());
        let verified = match r.verified {
            Some(true) => "ok",
            Some(false) => "MISMATCH",
            None => "-",
        };
        let cache = match (r.trace_cache_hit, r.image_cache_hit) {
            (Some(t), Some(i)) => format!("{}{}", hit_char(t), hit_char(i)),
            (Some(t), None) => hit_char(t).to_string(),
            _ => "-".into(),
        };
        println!(
            "{:<44} {cycles:>14} {err_pct:>9} {verified:>9} {cache:>6}",
            r.key
        );
    }
    if let Some(out) = &opts.out {
        println!("\nresults: {}", out.display());
    }
    let budget = std::env::var("NTG_STORE_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_STORE_BUDGET);
    if let (Some(base), true) = (&opts.store, outcome.cache.store_bytes > budget) {
        eprintln!(
            "ntg-sweep: warning: artifact store holds {} bytes (budget {budget}); \
             prune with `ntg-sweep store gc --budget {budget} --store {}`",
            outcome.cache.store_bytes,
            base.display()
        );
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("ntg-sweep: {failures} job(s) failed");
        ExitCode::FAILURE
    })
}

/// Consumes one campaign-axis flag (shared by the local runner and
/// `submit`). Returns `false` when `arg` is not an axis flag.
fn parse_axis_flag(
    spec: &mut Option<CampaignSpec>,
    arg: &str,
    it: &mut dyn Iterator<Item = String>,
) -> Result<bool, String> {
    match arg {
        "--preset" => {
            let p = take(it, "--preset")?;
            if spec.is_some() {
                return Err("--preset must come before axis options".into());
            }
            *spec = Some(preset(&p)?);
        }
        "--workloads" => {
            spec.get_or_insert_with(default_spec).workloads =
                parse_list(&take(it, "--workloads")?, |s| s.parse::<Workload>())?;
        }
        "--cores" => {
            let v = take(it, "--cores")?;
            spec.get_or_insert_with(default_spec).cores = if v == "paper" {
                CoreSelection::Paper
            } else {
                CoreSelection::List(parse_list(&v, |s| {
                    s.parse::<usize>().map_err(|e| format!("core count: {e}"))
                })?)
            };
        }
        "--fabrics" => {
            let v = take(it, "--fabrics")?;
            spec.get_or_insert_with(default_spec).interconnects = if v == "all" {
                ALL_INTERCONNECTS.to_vec()
            } else {
                parse_list(&v, |s| s.parse::<InterconnectChoice>())?
            };
        }
        "--mesh-sizes" => {
            spec.get_or_insert_with(default_spec).mesh_sizes =
                parse_list(&take(it, "--mesh-sizes")?, parse_mesh_size)?;
        }
        "--masters" => {
            spec.get_or_insert_with(default_spec).masters =
                parse_list(&take(it, "--masters")?, |s| s.parse::<MasterChoice>())?;
        }
        "--modes" => {
            spec.get_or_insert_with(default_spec).modes =
                parse_list(&take(it, "--modes")?, |s| s.parse())?;
        }
        "--patterns" => {
            spec.get_or_insert_with(default_spec).patterns =
                parse_list(&take(it, "--patterns")?, |s| s.parse())?;
        }
        "--shapes" => {
            spec.get_or_insert_with(default_spec).shapes =
                parse_list(&take(it, "--shapes")?, |s| s.parse())?;
        }
        "--rates" => {
            spec.get_or_insert_with(default_spec).rates = parse_list(&take(it, "--rates")?, |s| {
                s.parse::<f64>()
                    .map_err(|e| format!("--rates: {e}"))
                    .and_then(|r| {
                        if r > 0.0 && r <= 1.0 {
                            Ok(r)
                        } else {
                            Err(format!("--rates: {r} outside (0, 1]"))
                        }
                    })
            })?;
        }
        "--packet-words" => {
            spec.get_or_insert_with(default_spec).packet_words = take(it, "--packet-words")?
                .parse()
                .map_err(|e| format!("--packet-words: {e}"))?;
        }
        "--trace-fabric" => {
            spec.get_or_insert_with(default_spec).trace_interconnect =
                take(it, "--trace-fabric")?.parse()?;
        }
        "--seed" => {
            spec.get_or_insert_with(default_spec).base_seed = take(it, "--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?;
        }
        "--max-cycles" => {
            spec.get_or_insert_with(default_spec).max_cycles = take(it, "--max-cycles")?
                .parse()
                .map_err(|e| format!("--max-cycles: {e}"))?;
        }
        "--repeats" => {
            spec.get_or_insert_with(default_spec).repeats = take(it, "--repeats")?
                .parse()
                .map_err(|e| format!("--repeats: {e}"))?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// `ntg-sweep submit --server ADDR [axis options]`
fn run_submit(args: Vec<String>) -> Result<ExitCode, String> {
    let mut server: Option<String> = None;
    let mut spec: Option<CampaignSpec> = None;
    let mut name: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if parse_axis_flag(&mut spec, &arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--server" => server = Some(take(&mut it, "--server")?),
            "--name" => name = Some(take(&mut it, "--name")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("submit: unknown option `{other}` (see --help)")),
        }
    }
    let server = normalize_addr(&server.ok_or("submit: --server is required")?);
    let mut spec = spec.ok_or("submit: give --preset or axis options")?;
    if let Some(n) = name {
        spec.name = n;
    }
    if spec.workloads.is_empty() {
        return Err("submit: no workloads selected".into());
    }
    let (status, body) = http::post_json(&server, "/jobs", &spec.to_json().render())?;
    let text = String::from_utf8_lossy(&body);
    if !matches!(status, 200 | 202) {
        return Err(format!("submit: HTTP {status}: {}", text.trim_end()));
    }
    let v = Json::parse(&text).map_err(|e| format!("submit: bad response: {e}"))?;
    let id = v.get("id").and_then(Json::as_str).unwrap_or("?");
    let state = v.get("state").and_then(Json::as_str).unwrap_or("?");
    let jobs = v.get("jobs").and_then(Json::as_u64).unwrap_or(0);
    println!("job {id}: {state} ({jobs} jobs)");
    println!("watch with: ntg-sweep watch --server {server} {id}");
    Ok(ExitCode::SUCCESS)
}

/// Reads a job's status; returns `(state, printable error)`.
fn job_state(server: &str, id: &str) -> Result<(String, Option<String>), String> {
    let (status, body) = http::get(server, &format!("/jobs/{id}"))?;
    let text = String::from_utf8_lossy(&body);
    if status != 200 {
        return Err(format!("job {id}: HTTP {status}: {}", text.trim_end()));
    }
    let v = Json::parse(&text).map_err(|e| format!("job {id}: bad response: {e}"))?;
    let state = v
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let error = v.get("error").and_then(Json::as_str).map(str::to_string);
    Ok((state, error))
}

/// `ntg-sweep watch --server ADDR JOB_ID` — a loop over the long-poll
/// events endpoint: the daemon holds each request until event `from`
/// exists, so this prints an event as it happens and returns one round
/// trip after the terminal one, with no sleep here.
fn run_watch(args: Vec<String>) -> Result<ExitCode, String> {
    let Some((server, id)) = parse_server_and_id(args, "watch")? else {
        return Ok(ExitCode::SUCCESS);
    };
    let failed = |msg: &str| Err(format!("watch: job {id} failed: {msg}"));
    let mut from = 0usize;
    loop {
        let (status, body) = http::get(&server, &format!("/jobs/{id}/events?from={from}"))?;
        if status != 200 {
            return Err(format!(
                "watch: HTTP {status}: {}",
                String::from_utf8_lossy(&body).trim_end()
            ));
        }
        let text = String::from_utf8_lossy(&body);
        for line in text.lines().filter(|l| !l.is_empty()) {
            println!("{line}");
            from += 1;
            let event = Json::parse(line).ok();
            let field = |name| event.as_ref()?.get(name)?.as_str();
            match field("event") {
                Some("done") => return Ok(ExitCode::SUCCESS),
                Some("error") => return failed(field("message").unwrap_or_default()),
                _ => {}
            }
        }
        // An empty answer is the daemon's long-poll deadline on a quiet
        // job — or a job that ended without this loop seeing its last
        // event (a restarted daemon re-adopts it with a shorter list),
        // which would answer empty at once, forever. Tell them apart.
        if body.is_empty() {
            let (state, error) = job_state(&server, &id)?;
            match state.as_str() {
                "done" => return Ok(ExitCode::SUCCESS),
                "failed" => return failed(&error.unwrap_or_default()),
                _ => {}
            }
        }
    }
}

/// `ntg-sweep fetch --server ADDR JOB_ID [--out PATH] [--view NAME] [--sidecars]`
fn run_fetch(args: Vec<String>) -> Result<ExitCode, String> {
    let mut server: Option<String> = None;
    let mut id: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut view: Option<String> = None;
    let mut sidecars = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--server" => server = Some(take(&mut it, "--server")?),
            "--out" => out = Some(PathBuf::from(take(&mut it, "--out")?)),
            "--view" => view = Some(take(&mut it, "--view")?),
            "--sidecars" => sidecars = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => {
                return Err(format!("fetch: unknown option `{other}` (see --help)"));
            }
            positional => {
                if id.replace(positional.to_string()).is_some() {
                    return Err("fetch: more than one job id".into());
                }
            }
        }
    }
    let server = normalize_addr(&server.ok_or("fetch: --server is required")?);
    let id = id.ok_or("fetch: job id is required")?;

    if let Some(view) = view {
        let (status, body) = http::get(&server, &format!("/jobs/{id}/report/{view}"))?;
        if status != 200 {
            return Err(format!(
                "fetch: HTTP {status}: {}",
                String::from_utf8_lossy(&body).trim_end()
            ));
        }
        print!("{}", String::from_utf8_lossy(&body));
        return Ok(ExitCode::SUCCESS);
    }

    let (status, body) = http::get(&server, &format!("/jobs/{id}/results"))?;
    if status != 200 {
        return Err(format!(
            "fetch: HTTP {status}: {}",
            String::from_utf8_lossy(&body).trim_end()
        ));
    }
    match &out {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("results: {} ({} bytes)", path.display(), body.len());
        }
        None => print!("{}", String::from_utf8_lossy(&body)),
    }
    if sidecars {
        let base = out.ok_or("fetch: --sidecars needs --out")?;
        for (endpoint, suffix) in [("timings", ".timings.jsonl"), ("metrics", ".metrics.jsonl")] {
            let (status, body) = http::get(&server, &format!("/jobs/{id}/{endpoint}"))?;
            if status == 200 {
                let mut s = base.as_os_str().to_os_string();
                s.push(suffix);
                let path = PathBuf::from(s);
                std::fs::write(&path, &body)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                println!("sidecar: {} ({} bytes)", path.display(), body.len());
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `--server ADDR JOB_ID`; `None` once `--help` has printed the usage.
fn parse_server_and_id(args: Vec<String>, cmd: &str) -> Result<Option<(String, String)>, String> {
    let mut server: Option<String> = None;
    let mut id: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--server" => server = Some(take(&mut it, "--server")?),
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other if other.starts_with('-') => {
                return Err(format!("{cmd}: unknown option `{other}` (see --help)"));
            }
            positional => {
                if id.replace(positional.to_string()).is_some() {
                    return Err(format!("{cmd}: more than one job id"));
                }
            }
        }
    }
    Ok(Some((
        normalize_addr(&server.ok_or(format!("{cmd}: --server is required"))?),
        id.ok_or(format!("{cmd}: job id is required"))?,
    )))
}

/// `ntg-sweep store stats|gc ...`
fn run_store(args: Vec<String>) -> Result<ExitCode, String> {
    let sub = args
        .first()
        .cloned()
        .ok_or("store: expected `stats` or `gc`")?;
    if matches!(sub.as_str(), "-h" | "--help") {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let mut store_flag: Option<PathBuf> = None;
    let mut budget: Option<u64> = None;
    let mut dry_run = false;
    let mut it = args.into_iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => store_flag = Some(PathBuf::from(take(&mut it, "--store")?)),
            "--budget" => {
                budget = Some(
                    take(&mut it, "--budget")?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?,
                );
            }
            "--dry-run" => dry_run = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("store: unknown option `{other}` (see --help)")),
        }
    }
    let base = store_flag
        .or_else(DiskStore::default_base)
        .ok_or("store: no store configured (give --store or set NTG_STORE/HOME)")?;
    match sub.as_str() {
        "stats" => {
            let store = DiskStore::open(&base)?;
            let stats = store.stats();
            println!("store {}", store.root().display());
            println!(
                "  traces: {:>8} entries, {:>12} bytes",
                stats.trace_entries, stats.trace_bytes
            );
            println!(
                "  images: {:>8} entries, {:>12} bytes",
                stats.image_entries, stats.image_bytes
            );
            println!(
                "  total:  {:>8} entries, {:>12} bytes",
                stats.total_entries(),
                stats.total_bytes()
            );
            Ok(ExitCode::SUCCESS)
        }
        "gc" => {
            let budget = budget.ok_or("store gc: --budget is required")?;
            let store = DiskStore::open(&base)?;
            let stats = store.gc(budget, dry_run);
            let verb = if dry_run { "would prune" } else { "pruned" };
            println!(
                "store {}: {verb} {} artifact(s), {} {} bytes, {} bytes {}",
                store.root().display(),
                stats.removed,
                if dry_run { "freeing" } else { "freed" },
                stats.freed_bytes,
                stats.remaining_bytes,
                if dry_run { "would remain" } else { "remain" },
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("store: unknown subcommand `{other}` (see --help)")),
    }
}

/// `--dry-run`: the expanded job list, how much artifact reuse the
/// cache/store will see — how many distinct reference traces and TG
/// program images the campaign actually builds — and how many
/// simulations a cold run executes, how many of them CPU-model runs and
/// traced.
fn print_dry_run(spec: &CampaignSpec, jobs: &[ntg_explore::JobSpec]) {
    println!(
        "campaign `{}` ({} jobs, fingerprint {:016x}):",
        spec.name,
        jobs.len(),
        spec.fingerprint()
    );
    for j in jobs {
        println!("  [{:>3}] {}", j.id, j.key());
    }

    // Store-reuse estimate, mirroring the runner's cache keys: reference
    // traces are shared per (workload, cores) — they are always recorded
    // on the campaign's trace fabric — and TG images per
    // (workload, cores, mode).
    let mut trace_keys = std::collections::BTreeSet::new();
    let mut image_keys = std::collections::BTreeSet::new();
    let mut trace_consumers = 0usize;
    let mut image_consumers = 0usize;
    for j in jobs {
        match j.master {
            MasterChoice::Cpu => {}
            MasterChoice::Tg => {
                trace_consumers += 1;
                trace_keys.insert(format!("{}|{}", j.workload, j.cores));
                image_consumers += 1;
                image_keys.insert(format!(
                    "{}|{}|{}",
                    j.workload,
                    j.cores,
                    j.mode.map(|m| m.to_string()).unwrap_or_default()
                ));
            }
            MasterChoice::Stochastic => {
                trace_consumers += 1;
                trace_keys.insert(format!("{}|{}", j.workload, j.cores));
            }
            // Synthetic jobs generate traffic directly: no trace, no
            // image, nothing fetched from the store.
            MasterChoice::Synthetic => {}
        }
    }
    println!(
        "store reuse: {trace_consumers} job(s) consume {} distinct reference trace(s) \
         (on {}); {image_consumers} TG job(s) share {} distinct program image(s)",
        trace_keys.len(),
        spec.trace_interconnect,
        image_keys.len()
    );

    // What a cold run simulates: every job's repeats, where a
    // trace producer's first repeat is its point's traced reference run
    // (the runner's own predicate), plus one extra traced reference run
    // per consumed trace that no job of the campaign produces.
    let producers: std::collections::BTreeSet<String> = jobs
        .iter()
        .filter(|j| spec.produces_trace(j))
        .map(|j| format!("{}|{}", j.workload, j.cores))
        .collect();
    let extra = trace_keys.difference(&producers).count();
    let repeats = spec.repeats.max(1);
    let cpu_jobs = jobs
        .iter()
        .filter(|j| j.master == MasterChoice::Cpu)
        .count();
    let mut line = format!(
        "cold run: {} simulation(s), {} CPU-model run(s), {} of them traced",
        jobs.len() * repeats + extra,
        cpu_jobs * repeats + extra,
        producers.len() + extra
    );
    if extra > 0 {
        line.push_str(&format!(
            " ({extra} as separate reference run(s): no CPU job on {})",
            spec.trace_interconnect
        ));
    }
    println!("{line}");
}

/// A job fails when it errored or when its golden-model check found a
/// wrong result: either makes the campaign exit non-zero.
fn job_failed(r: &JobResult) -> bool {
    r.error.is_some() || r.verified == Some(false)
}

fn hit_char(hit: bool) -> char {
    if hit {
        'H'
    } else {
        'M'
    }
}

fn default_spec() -> CampaignSpec {
    CampaignSpec::new("sweep")
}

/// Parses `WxH` for `--mesh-sizes` (both dimensions in 1..=255).
fn parse_mesh_size(s: &str) -> Result<(u16, u16), String> {
    let (w, h) = s
        .split_once('x')
        .ok_or(format!("--mesh-sizes: expected WxH, got `{s}`"))?;
    let w: u16 = w.parse().map_err(|e| format!("--mesh-sizes: {e}"))?;
    let h: u16 = h.parse().map_err(|e| format!("--mesh-sizes: {e}"))?;
    if w == 0 || h == 0 || w > 255 || h > 255 {
        return Err(format!(
            "--mesh-sizes: dimensions must be in 1..=255, got {w}x{h}"
        ));
    }
    Ok((w, h))
}

fn parse_list<T>(s: &str, parse: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(parse)
        .collect()
}

fn preset(name: &str) -> Result<CampaignSpec, String> {
    let mut spec = CampaignSpec::new(name);
    match name {
        // The paper's Table 2: every workload over its own core sweep,
        // reference CPUs vs reactive TGs on the AMBA-like bus.
        "table2" => {
            spec.workloads = vec![
                Workload::SpMatrix { n: 16 },
                Workload::Cacheloop { iterations: 60_000 },
                Workload::MpMatrix { n: 24 },
                Workload::Des {
                    blocks_per_core: 24,
                },
            ];
            spec.cores = CoreSelection::Paper;
            spec.repeats = 3;
        }
        // A fast smoke campaign that still exercises trace/image reuse:
        // 16 jobs, 4 distinct traces, each translated once.
        "quick" => {
            spec.workloads = vec![
                Workload::MpMatrix { n: 8 },
                Workload::Cacheloop { iterations: 500 },
            ];
            spec.cores = CoreSelection::List(vec![2, 4]);
            spec.interconnects = vec![InterconnectChoice::Amba, InterconnectChoice::Xpipes];
        }
        // The §1 motivation: one TG program set evaluated across every
        // interconnect. Bounded low — static-priority arbitration can
        // legitimately livelock, which is a finding, not an error.
        "fabrics" => {
            spec.workloads = vec![Workload::MpMatrix { n: 16 }];
            spec.cores = CoreSelection::List(vec![4]);
            spec.interconnects = ALL_INTERCONNECTS.to_vec();
            spec.max_cycles = 5_000_000;
        }
        // Fidelity ablation: all translation modes plus the stochastic
        // related-work baseline, across three fabrics.
        "ablation" => {
            spec.workloads = vec![Workload::MpMatrix { n: 16 }];
            spec.cores = CoreSelection::List(vec![4]);
            spec.interconnects = vec![
                InterconnectChoice::Amba,
                InterconnectChoice::Crossbar,
                InterconnectChoice::Xpipes,
            ];
            spec.masters = vec![
                MasterChoice::Cpu,
                MasterChoice::Tg,
                MasterChoice::Stochastic,
            ];
            spec.modes = vec![
                ntg_core::TranslationMode::Clone,
                ntg_core::TranslationMode::Timeshift,
                ntg_core::TranslationMode::Reactive,
            ];
        }
        // Injection-rate saturation sweep: synthetic masters across two
        // NoC-capable fabrics, three representative patterns, six
        // offered loads. ntg-report turns the result into
        // latency-vs-offered-load curves with saturated points flagged.
        "saturation" => {
            spec.workloads = vec![Workload::Synthetic { packets: 256 }];
            spec.cores = CoreSelection::List(vec![8]);
            spec.interconnects = vec![InterconnectChoice::Xpipes, InterconnectChoice::Crossbar];
            spec.masters = vec![MasterChoice::Synthetic];
            spec.patterns = vec![
                Pattern::Uniform,
                Pattern::Transpose,
                Pattern::Hotspot { percent: 75 },
            ];
            spec.shapes = vec![ShapeKind::Bernoulli];
            spec.rates = vec![0.02, 0.05, 0.08, 0.12, 0.16, 0.2];
            spec.max_cycles = 2_000_000;
        }
        other => return Err(format!("unknown preset `{other}` (see --help)")),
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_error_or_a_golden_mismatch_fails_the_job() {
        let line = r#"{"id":0,"key":"sp_matrix:8|1P|amba|cpu|-","workload":"sp_matrix:8","cores":1,"interconnect":"amba","master":"cpu","mode":null,"seed":"72ac79c23e7fe498","completed":true,"cycles":10011,"sim_cycles":10015,"transactions":259,"latency_mean":4.764478764478764,"latency_max":7,"offered_rate":null,"accepted_rate":null,"verified":true,"error_pct":null,"trace_cache_hit":null,"image_cache_hit":null,"error":null}"#;
        let ok = JobResult::parse_line(line).expect("canonical line parses");
        assert!(!job_failed(&ok));
        let unchecked = JobResult {
            verified: None,
            ..ok.clone()
        };
        assert!(!job_failed(&unchecked));
        let mismatch = JobResult {
            verified: Some(false),
            ..ok.clone()
        };
        assert!(job_failed(&mismatch));
        let errored = JobResult {
            error: Some("build failed".into()),
            verified: None,
            ..ok
        };
        assert!(job_failed(&errored));
    }

    #[test]
    fn subcommand_help_succeeds() {
        for cmd in ["submit", "watch", "fetch", "store"] {
            let args = vec![cmd.to_string(), "--help".to_string()];
            assert!(run(args).is_ok(), "`ntg-sweep {cmd} --help` must succeed");
        }
    }
}
