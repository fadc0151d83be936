//! The all-workloads run: every workload of `BENCHMARK.json` in a
//! process of its own, the derived figures, the A/A comparison
//! (`--check-repeat`) and the seed-to-seed spread (`--spread`).

use std::process::{Command, ExitCode, Stdio};

use ntg_explore::Json;

use crate::contract::{repo_root, Contract, MetricDef};
use crate::{out_dir, Args};

/// What one workload's process reported.
struct Child {
    workload: String,
    ok: bool,
    /// The contract's result object.
    result: Json,
    /// The `#detail` line: quartiles, iteration counts, fingerprint.
    detail: Json,
}

impl Child {
    fn value(&self, metric: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(metric)?
            .get("value")
            .and_then(Json::as_f64)
    }

    /// The lowest sample of a metric on the `#detail` line.
    fn detail_min(&self, metric: &str) -> Option<f64> {
        self.detail
            .get("metrics")?
            .get(metric)?
            .get("min")
            .and_then(Json::as_f64)
    }
}

/// Runs one workload in a child process, relays its lines, and parses
/// the two machine-readable ones.
fn spawn(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the harness binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run workload {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut detail = Json::Null;
    let mut last = "";
    for line in text.lines() {
        if let Some(d) = line.strip_prefix("#detail ") {
            detail = Json::parse(d)?;
        } else if line.starts_with('{') {
            last = line;
        } else {
            println!("{line}");
        }
    }
    if last.is_empty() {
        return Err(format!(
            "workload {workload} printed no result (exit {:?})",
            out.status.code()
        ));
    }
    let result = Json::parse(last)?;
    let ok = out.status.success() && result.get("correct").and_then(Json::as_bool) == Some(true);
    Ok(Child {
        workload: workload.to_string(),
        ok,
        result,
        detail,
    })
}

/// One pass over every workload.
fn run_set(args: &Args, contract: &Contract, seed: u64, trace: bool) -> Result<Vec<Child>, String> {
    contract
        .workloads
        .iter()
        .map(|(w, _)| spawn(args, w, seed, trace))
        .collect()
}

fn command_line(program: &str, argv: &[&str]) -> String {
    Command::new(program)
        .args(argv)
        .current_dir(repo_root())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and with what the numbers were taken.
fn provenance(args: &Args, contract: &Contract) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::Obj(vec![
        ("nproc".into(), Json::Int(nproc as i64)),
        ("cpu_model".into(), Json::Str(cpu_model)),
        ("rustc".into(), Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit".into(),
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".into(), Json::Int(args.seed as i64)),
        (
            "seconds".into(),
            Json::Float(args.seconds.unwrap_or(contract.run_seconds as f64)),
        ),
        ("smoke".into(), Json::Bool(args.smoke)),
    ])
}

fn write_out(name: &str, value: &Json) -> Result<(), String> {
    let path = out_dir().join(name);
    std::fs::write(&path, value.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn set_json(set: &[Child]) -> Json {
    Json::Arr(
        set.iter()
            .map(|c| {
                Json::Obj(vec![
                    ("workload".into(), Json::Str(c.workload.clone())),
                    ("result".into(), c.result.clone()),
                    ("detail".into(), c.detail.clone()),
                ])
            })
            .collect(),
    )
}

/// The paper's gain: wall of the best CPU-reference pass over Table 2
/// over the wall of the best TG-replay pass. Printed, never gated — gating it
/// would reject a change that only makes the reference faster.
fn tg_gain(set: &[Child]) -> Option<f64> {
    let pass = |w: &str| {
        set.iter()
            .find(|c| c.workload == w)
            .and_then(|c| c.detail_min("pass_run_wall_s"))
    };
    Some(pass("table2_ref")? / pass("table2_tg")?)
}

/// `campaign_cold` and `serve_campaign` run the same spec on the same
/// seed in different processes; their canonical JSONL, and so their
/// fingerprints, must be the same bytes.
fn served_matches_local(set: &[Child]) -> bool {
    let fingerprint = |w: &str| {
        set.iter()
            .find(|c| c.workload == w)
            .and_then(|c| c.detail.get("sim_fingerprint"))
    };
    let (local, served) = (fingerprint("campaign_cold"), fingerprint("serve_campaign"));
    let same = local == served;
    if !same {
        eprintln!("FAILED: campaign_cold produced {local:?}, the served campaign {served:?}");
    }
    same
}

fn print_derived(set: &[Child]) {
    if let Some(gain) = tg_gain(set) {
        let error = set
            .iter()
            .find(|c| c.workload == "table2_tg")
            .and_then(|c| c.value("cycle_error_pct_max"));
        println!(
            "derived         {:<36} {gain:>16.6} {:<8}  at cycle_error_pct_max {:.6} (not gated)",
            "tg_gain",
            "x",
            error.unwrap_or(f64::NAN)
        );
    }
}

/// How much worse `b` is than `a`, as a share of `a`; negative when
/// better.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if def.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Quartiles the way Python's `statistics.quantiles(v, n=4)` computes
/// them (the exclusive method), which is what the acceptance check
/// uses.
fn quartiles_exclusive(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// `--check-repeat`: the set twice on the same build and seed. Fails
/// when an end-to-end metric of the second set is worse than the first
/// by more than its bound.
fn check_repeat(args: &Args, contract: &Contract) -> Result<ExitCode, String> {
    let a = run_set(args, contract, args.seed, false)?;
    let b = run_set(args, contract, args.seed, false)?;
    let mut rows = Vec::new();
    let mut bad = 0;
    println!("\nA/A: two sets on one build, seed {}", args.seed);
    println!(
        "{:<15} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (x, y) in a.iter().zip(&b) {
        for def in &contract.end_to_end {
            let (Some(va), Some(vb)) = (x.value(&def.name), y.value(&def.name)) else {
                return Err(format!("{} did not report {}", x.workload, def.name));
            };
            let w = worsening(def, va, vb);
            let bound = def.bound.unwrap_or(0.0);
            let over = w > bound;
            bad += usize::from(over);
            println!(
                "{:<15} {:<22} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.1}%{}",
                x.workload,
                def.name,
                w * 100.0,
                bound * 100.0,
                if over { "  OVER" } else { "" }
            );
            rows.push(Json::Obj(vec![
                ("workload".into(), Json::Str(x.workload.clone())),
                ("metric".into(), Json::Str(def.name.clone())),
                ("first".into(), Json::Float(va)),
                ("second".into(), Json::Float(vb)),
                ("worse_by".into(), Json::Float(w)),
                ("bound".into(), Json::Float(bound)),
            ]));
        }
    }
    let failed = a.iter().chain(&b).filter(|c| !c.ok).count();
    write_out(
        "check-repeat.json",
        &Json::Obj(vec![
            ("provenance".into(), provenance(args, contract)),
            ("rows".into(), Json::Arr(rows)),
        ]),
    )?;
    println!("{bad} metric(s) over their bound, {failed} workload run(s) with failed ops");
    Ok(if bad == 0 && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--spread N`: the set on N seeds; per workload and end-to-end
/// metric, the quartile distance as a share of the median, next to the
/// bound it has to stay within (a third of the bound is the target).
fn spread(args: &Args, contract: &Contract, runs: usize) -> Result<ExitCode, String> {
    let mut sets = Vec::new();
    for i in 0..runs {
        sets.push(run_set(args, contract, args.seed + i as u64, false)?);
    }
    println!("\nspread over {runs} seeds from {}", args.seed);
    println!(
        "{:<15} {:<22} {:>14} {:>9} {:>7}",
        "workload", "metric", "median", "spread", "bound"
    );
    let mut rows = Vec::new();
    let mut wide = 0;
    for (w, (workload, _)) in contract.workloads.iter().enumerate() {
        for def in &contract.end_to_end {
            let values: Vec<f64> = sets.iter().filter_map(|s| s[w].value(&def.name)).collect();
            let (q1, med, q3) = quartiles_exclusive(&values);
            let spread = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            };
            let bound = def.bound.unwrap_or(0.0);
            let over = def.name != "setup_s" && spread > bound;
            wide += usize::from(over);
            println!(
                "{workload:<15} {:<22} {med:>14.6} {:>8.2}% {:>6.1}%{}",
                def.name,
                spread * 100.0,
                bound * 100.0,
                if over {
                    "  OVER"
                } else if spread > bound / 3.0 {
                    "  above a third"
                } else {
                    ""
                }
            );
            rows.push(Json::Obj(vec![
                ("workload".into(), Json::Str(workload.clone())),
                ("metric".into(), Json::Str(def.name.clone())),
                ("median".into(), Json::Float(med)),
                ("q1".into(), Json::Float(q1)),
                ("q3".into(), Json::Float(q3)),
                ("spread".into(), Json::Float(spread)),
                ("bound".into(), Json::Float(bound)),
                (
                    "values".into(),
                    Json::Arr(values.into_iter().map(Json::Float).collect()),
                ),
            ]));
        }
    }
    let failed = sets.iter().flatten().filter(|c| !c.ok).count();
    write_out(
        "spread.json",
        &Json::Obj(vec![
            ("provenance".into(), provenance(args, contract)),
            ("runs".into(), Json::Int(runs as i64)),
            ("rows".into(), Json::Arr(rows)),
        ]),
    )?;
    println!("{wide} metric(s) wider than their bound, {failed} workload run(s) with failed ops");
    Ok(if wide == 0 && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

pub fn run_all(args: &Args, contract: &Contract) -> Result<ExitCode, String> {
    if args.check_repeat {
        return check_repeat(args, contract);
    }
    if let Some(runs) = args.spread {
        return spread(args, contract, runs);
    }
    let untraced = run_set(args, contract, args.seed, false)?;
    print_derived(&untraced);
    let mut failed = untraced.iter().filter(|c| !c.ok).count();
    failed += usize::from(!served_matches_local(&untraced));
    let mut fields = vec![
        ("provenance".into(), provenance(args, contract)),
        ("end_to_end".into(), set_json(&untraced)),
    ];
    if args.trace {
        println!("\ntraced run (spans on; per-layer metrics)");
        let traced = run_set(args, contract, args.seed, true)?;
        failed += traced.iter().filter(|c| !c.ok).count();
        fields.push(("per_layer".into(), set_json(&traced)));
    }
    if let Some(gain) = tg_gain(&untraced) {
        fields.push(("tg_gain".into(), Json::Float(gain)));
    }
    write_out("results.json", &Json::Obj(fields))?;
    println!("\n{failed} workload run(s) with failed ops; results in benchmark/out/results.json");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let def = |higher| MetricDef {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better: higher,
            bound: Some(0.1),
        };
        assert!((worsening(&def(false), 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&def(true), 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&def(true), 10.0, 12.0) < 0.0);
    }
}
