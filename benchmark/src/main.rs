//! The ntg repo benchmark. `run.sh` builds this and passes its
//! arguments through; see `README.md` next to it.
//!
//! With `--workload NAME` it runs that one workload in this process
//! and ends its standard output with the result object the benchmark
//! contract asks for. Without, it runs every workload of
//! `BENCHMARK.json`, each in a process of its own so that peak memory
//! is attributable, and prints the whole table.

mod campaign;
mod contract;
mod driver;
mod harness;
mod legs;
mod rig;
mod serve;
mod sim;
mod span;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use ntg_explore::Json;

use contract::{bench_dir, Contract, MetricDef};
use harness::{peak_rss_mb, Ctx, Report};
use stats::{summarize, Summary};

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                        [--smoke] [--check-repeat] [--spread N]

  --workload NAME  run one workload in this process; the last line of
                   standard output is the result object
  --seed N         workload seed (default 1): synthetic traffic and campaign seeds
  --seconds S      timed seconds per workload (default: run_seconds of BENCHMARK.json)
  --trace [0|1]    the traced run: spans on, per-layer metrics reported
  --smoke          shrunken sizes, every check still on, a few seconds in all
  --check-repeat   run the set twice on this build and hold the two against the bounds
  --spread N       run the set N times, on seeds SEED..SEED+N-1, and print each
                   metric's quartile spread against its bound
";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub check_repeat: bool,
    pub spread: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        check_repeat: false,
        spread: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed: not a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone means on; the driver passes 0 or 1.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--spread" => {
                let n: usize = value("--spread")?
                    .parse()
                    .map_err(|_| "--spread: not a whole number")?;
                if n < 2 {
                    return Err("--spread needs at least 2 runs".into());
                }
                args.spread = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The per-run scratch directory, inside the checkout and gone at exit.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch dir inside the checkout");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

fn dispatch(name: &str, ctx: &mut Ctx) -> Option<Report> {
    Some(match name {
        "table2_ref" => sim::table2_ref(ctx),
        "table2_tg" => sim::table2_tg(ctx),
        "mesh_light" => sim::mesh_light(ctx),
        "mesh_saturated" => sim::mesh_saturated(ctx),
        "campaign_cold" => campaign::campaign_cold(ctx),
        "campaign_warm" => campaign::campaign_warm(ctx),
        "serve_campaign" => serve::serve_campaign(ctx),
        _ => return None,
    })
}

/// The samples of one end-to-end metric on this workload. The contract
/// wants every end-to-end metric from every workload and none of them
/// zero, so a metric the workload does not exercise carries the
/// iteration wall time in its unit (a real measurement that moves with
/// the workload's speed), and the cycle error its ceiling; the second
/// value says so. README.md lists which pairs are measured and which
/// are carried.
fn end_to_end_samples(def: &MetricDef, report: &Report) -> (Vec<f64>, bool) {
    if let Some(samples) = report.metric(&def.name) {
        return (samples.to_vec(), false);
    }
    let wall = &report.iter_wall;
    match def.name.as_str() {
        "setup_s" => (report.setup.clone(), false),
        "peak_rss_mb" => (vec![peak_rss_mb()], false),
        "submit_to_fetch_s" => (wall.clone(), false),
        "remote_warm_s" => (wall.clone(), true),
        "http_req_ms_p50" => (wall.iter().map(|w| w * 1e3).collect(), true),
        "cycle_error_pct_max" => (vec![legs::CYCLE_ERROR_CEILING_PCT], true),
        other => panic!("BENCHMARK.json names `{other}`, which no workload measures"),
    }
}

/// The value a run reports for a metric: its best iteration — the
/// lowest time, the highest rate. Interference from the host only ever
/// slows an iteration down, so the best one is the steadiest estimate
/// of what the code costs (on the reference host its run-to-run spread
/// is a third of the median's); the median and quartiles are on the
/// `#detail` line.
fn headline(s: &Summary, higher_is_better: bool) -> f64 {
    if higher_is_better {
        s.max
    } else {
        s.min
    }
}

fn samples_json(samples: &[f64]) -> Json {
    let s = summarize(samples);
    Json::Obj(vec![
        ("min".into(), Json::Float(s.min)),
        ("q1".into(), Json::Float(s.q1)),
        ("median".into(), Json::Float(s.median)),
        ("q3".into(), Json::Float(s.q3)),
        ("max".into(), Json::Float(s.max)),
        ("n".into(), Json::Int(s.n as i64)),
        (
            "samples".into(),
            Json::Arr(samples.iter().copied().map(Json::Float).collect()),
        ),
    ])
}

/// Runs one workload in this process and prints its lines.
fn run_one(args: &Args, contract: &Contract, name: &str) -> Result<ExitCode, String> {
    if !contract.workloads.iter().any(|w| w.0 == name) {
        let known: Vec<&str> = contract.workloads.iter().map(|w| w.0.as_str()).collect();
        return Err(format!(
            "unknown workload `{name}` (expected one of {known:?})"
        ));
    }
    let scratch = Scratch::new();
    let seconds = args.seconds.unwrap_or(contract.run_seconds as f64);
    let mut ctx = Ctx::new(
        args.seed,
        seconds,
        args.smoke,
        args.trace,
        scratch.0.clone(),
    );
    let report = dispatch(name, &mut ctx).ok_or_else(|| {
        format!("BENCHMARK.json names workload `{name}`, which the harness lacks")
    })?;

    let defs = if args.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let mut metrics = Vec::new();
    let mut detail_metrics = Vec::new();
    for def in defs {
        let (samples, carried) = if args.trace {
            let v = report.layer(&def.name).filter(|v| v.is_finite());
            (v.into_iter().collect(), false)
        } else {
            end_to_end_samples(def, &report)
        };
        let (value, note) = if samples.is_empty() {
            (0.0, "  (not measured on this workload)".to_string())
        } else {
            let s = summarize(&samples);
            let note = match (carried, s.n) {
                (true, _) => "  (carried, see README)".to_string(),
                (false, 1) => String::new(),
                (false, n) => format!(
                    "  median {:.6} q1 {:.6} q3 {:.6} n={n}",
                    s.median, s.q1, s.q3
                ),
            };
            detail_metrics.push((def.name.clone(), samples_json(&samples)));
            (headline(&s, def.higher_is_better), note)
        };
        println!(
            "{name:<15} {:<36} {value:>16.6} {:<8}{note}",
            def.name, def.unit
        );
        metrics.push((
            def.name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::Float(value)),
                ("unit".into(), Json::Str(def.unit.clone())),
            ]),
        ));
    }
    // Samples outside the contract (e.g. the wall of one Table-2 pass).
    for (n, samples) in &report.metrics {
        if !detail_metrics.iter().any(|m| m.0 == *n) {
            detail_metrics.push((n.to_string(), samples_json(samples)));
        }
    }
    let c = &report.checks;
    println!(
        "{name:<15} {:<36} {:>16} {:<8}  ops_failed {}",
        "ops", c.ops, "count", c.failed
    );
    for m in &c.messages {
        eprintln!("{name}: FAILED: {m}");
    }
    if args.trace {
        let path = out_dir().join(format!("trace-{name}.json"));
        std::fs::write(&path, ctx.spans.to_json().render())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        for (span, calls, total, own) in ctx.spans.by_name() {
            println!(
                "{name:<15} span {span:<31} {:>16.6} {:<8}  self {:.6} s over {calls} calls",
                total as f64 / 1e9,
                "s",
                own as f64 / 1e9
            );
        }
    }
    let detail = Json::Obj(vec![
        ("workload".into(), Json::Str(name.into())),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("trace".into(), Json::Bool(args.trace)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("seconds".into(), Json::Float(seconds)),
        (
            "iterations".into(),
            Json::Int(report.iter_wall.len() as i64),
        ),
        ("iter_wall_s".into(), samples_json(&report.iter_wall)),
        (
            "sim_fingerprint".into(),
            Json::Str(format!("{:016x}", report.fingerprint)),
        ),
        ("metrics".into(), Json::Obj(detail_metrics)),
        (
            "failures".into(),
            Json::Arr(c.messages.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    println!("#detail {}", detail.render());
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(c.failed == 0)),
        ("attempted".into(), Json::Int(c.ops.max(1) as i64)),
        (
            "failed".into(),
            Json::Int(c.failed.min(c.ops.max(1)) as i64),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    drop(scratch);
    println!("{}", result.render());
    Ok(if c.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, String> {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            print!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        Err(e) => return Err(format!("{e}\n{USAGE}")),
    };
    let contract = Contract::load()?;
    contract::check_release_profile()?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create benchmark/out: {e}"))?;
    match &args.workload {
        Some(name) => run_one(&args, &contract, name),
        None => driver::run_all(&args, &contract),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ntg-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
