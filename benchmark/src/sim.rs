//! The four simulation workloads: the paper's Table 2 with CPU masters
//! (`table2_ref`) and replayed from TG images (`table2_tg`), and a
//! 16×16 ×pipes mesh used two opposite ways (`mesh_light`,
//! `mesh_saturated`).

use std::sync::Arc;
use std::time::Instant;

use ntg_core::{TgImage, TranslationMode};
use ntg_platform::{InterconnectChoice, Platform, RunReport};
use ntg_trace::{fnv64, MasterTrace};
use ntg_workloads::synthetic::{build_synthetic_platform, SyntheticSpec};
use ntg_workloads::Workload;

use crate::harness::{iterate, setup, Checks, Ctx, Iter, Layers, Report, Samples, MAX_CYCLES};
use crate::legs::{self, FlowTimes};
use crate::rig;

/// Who drives the platform's master sockets.
#[derive(Clone)]
pub enum Masters {
    Cpu,
    Tg(Arc<Vec<TgImage>>),
    Synthetic {
        spec: SyntheticSpec,
        packets: u64,
        seed: u64,
    },
}

/// One platform to simulate.
#[derive(Clone)]
pub struct Case {
    pub workload: Workload,
    pub cores: usize,
    pub fabric: InterconnectChoice,
    pub masters: Masters,
}

impl Case {
    pub fn label(&self) -> String {
        format!("{}@{}P/{}", self.workload, self.cores, self.fabric)
    }

    /// Builds the platform through the same top-level entry points the
    /// campaign engine uses.
    pub fn build(&self, tracing: bool) -> Platform {
        let built = match &self.masters {
            Masters::Cpu => self
                .workload
                .build_platform(self.cores, self.fabric, tracing),
            Masters::Tg(images) => {
                self.workload
                    .build_tg_platform(images.as_ref().clone(), self.fabric, tracing)
            }
            Masters::Synthetic {
                spec,
                packets,
                seed,
            } => build_synthetic_platform(self.cores, self.fabric, *spec, *packets, *seed),
        };
        built.unwrap_or_else(|e| panic!("build {}: {e}", self.label()))
    }
}

/// The 19 points of the paper's Table 2, all on the AMBA bus.
pub fn table2_cases(smoke: bool) -> Vec<Case> {
    let full = [
        Workload::SpMatrix { n: 16 },
        Workload::Cacheloop { iterations: 60_000 },
        Workload::MpMatrix { n: 24 },
        Workload::Des {
            blocks_per_core: 24,
        },
    ];
    let mut cases = Vec::new();
    for w in full {
        let (w, counts) = if smoke {
            let mut c = w.paper_core_counts();
            c.truncate(2);
            (w.test_scale(), c)
        } else {
            (w, w.paper_core_counts())
        };
        for cores in counts {
            cases.push(Case {
                workload: w,
                cores,
                fabric: InterconnectChoice::Amba,
                masters: Masters::Cpu,
            });
        }
    }
    cases
}

/// The mesh both synthetic workloads share; only rate and packet count
/// differ.
fn mesh_case(smoke: bool, descriptor: &str, packets: u64, seed: u64) -> Case {
    let spec: SyntheticSpec = descriptor.parse().expect("valid synthetic descriptor");
    let (cores, fabric, packets) = if smoke {
        (6, InterconnectChoice::Mesh(4, 4), 64)
    } else {
        (96, InterconnectChoice::Mesh(16, 16), packets)
    };
    Case {
        workload: Workload::Synthetic {
            packets: packets as u32,
        },
        cores,
        fabric,
        masters: Masters::Synthetic {
            spec,
            packets,
            seed,
        },
    }
}

/// Totals over the platform runs of one iteration.
#[derive(Default)]
pub struct Totals {
    pub runs: u64,
    pub cycles: u64,
    pub run_wall_s: f64,
    pub build_wall_s: f64,
    pub transactions: u64,
    pub ticked: u64,
    pub skipped: u64,
    pub visited: u64,
    pub component_cycles: u64,
    /// Σ mean latency × transactions, to average over runs.
    pub latency_weighted: f64,
    /// Completion cycle of each run, in case order.
    pub exec_cycles: Vec<u64>,
    /// `(cycles, transactions)` of each run, for the rig to match.
    pub counts: Vec<(u64, u64)>,
    pub fingerprint: u64,
}

fn fold(acc: u64, words: &[u64]) -> u64 {
    let mut bytes = acc.to_le_bytes().to_vec();
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fnv64(&bytes)
}

/// Builds, runs and checks every case once. A run that does not
/// complete, faults, or (with `verify`) misses the golden memory image
/// is a failed op.
pub fn run_cases(ctx: &mut Ctx, checks: &mut Checks, cases: &[Case], verify: bool) -> Totals {
    let mut t = Totals::default();
    for case in cases {
        let started = Instant::now();
        let mut platform = ctx
            .spans
            .scope("workloads.build_platform", |_| case.build(false));
        t.build_wall_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let report: RunReport = ctx
            .spans
            .scope("platform.run", |_| platform.run(MAX_CYCLES));
        t.run_wall_s += started.elapsed().as_secs_f64();
        let mut ok = report.completed && report.faults.is_empty();
        let mut why = format!(
            "{}: completed={} faults={:?}",
            case.label(),
            report.completed,
            report.faults
        );
        if ok && verify {
            let golden = ctx.spans.scope("workloads.verify", |_| {
                case.workload.verify(&platform, case.cores)
            });
            if let Err(e) = golden {
                ok = false;
                why = format!("{}: golden model: {e}", case.label());
            }
        }
        checks.op(ok, || why);
        let exec = report.execution_time().unwrap_or(0);
        let (lat_mean, lat_max) = report.latency.unwrap_or((0.0, 0));
        t.runs += 1;
        t.cycles += report.cycles;
        t.transactions += report.transactions;
        t.ticked += report.ticked_cycles;
        t.skipped += report.skipped_cycles;
        t.visited += report.visited_component_cycles;
        t.component_cycles += report.total_component_cycles;
        t.latency_weighted += lat_mean * report.transactions as f64;
        t.exec_cycles.push(exec);
        t.counts.push((report.cycles, report.transactions));
        t.fingerprint = fold(
            t.fingerprint,
            &[
                report.cycles,
                exec,
                report.transactions,
                lat_mean.to_bits(),
                lat_max,
            ],
        );
    }
    t
}

/// Largest TG-vs-CPU completion-cycle error, in percent.
fn cycle_error_pct_max(reference: &[u64], replay: &[u64]) -> f64 {
    reference
        .iter()
        .zip(replay)
        .map(|(&r, &t)| (t as f64 - r as f64).abs() / r as f64 * 100.0)
        .fold(0.0, f64::max)
}

/// Per-layer values every simulation workload reports from its last
/// iteration's run reports and from the rig.
fn sim_layers(ctx: &mut Ctx, checks: &mut Checks, cases: &[Case], last: &Totals) -> Layers {
    let mut layers: Layers = vec![
        ("platform.ticked_cycles", last.ticked as f64),
        ("platform.skipped_cycles", last.skipped as f64),
        (
            "sim.visit_ratio",
            last.visited as f64 / last.component_cycles as f64,
        ),
        ("noc.transactions", last.transactions as f64),
        (
            "noc.latency_mean_cycles",
            last.latency_weighted / last.transactions.max(1) as f64,
        ),
        (
            "platform.host_ns_per_txn",
            last.run_wall_s * 1e9 / last.transactions.max(1) as f64,
        ),
        ("platform.build_ms", last.build_wall_s * 1e3),
    ];
    let rigged = ctx
        .spans
        .scope("rig", |_| rig::measure(cases, &last.counts, checks));
    layers.extend(rigged.layers());
    layers.push((
        "platform.engine_vs_rig",
        last.run_wall_s / rigged.untimed_wall_s,
    ));
    let txns = if ctx.smoke { 10_000 } else { 1_000_000 };
    layers.push((
        "sim.bare_link_ns_per_txn",
        ctx.spans.scope("sim.bare_link", |_| {
            legs::bare_link_ns_per_txn(txns, checks)
        }),
    ));
    layers
}

/// The measurement loop of the four simulation workloads: an iteration
/// is `passes` passes over `cases`. With `reference` (the CPU runs'
/// completion cycles, in case order) it also reports the cycle error
/// of the replay and holds it under the ceiling. Returns the samples
/// and the totals of the last pass.
///
/// `pass_run_wall_s`, the `Platform::run` wall of one pass, is outside
/// the contract: `tg_gain` is derived from it.
fn simulate(
    ctx: &mut Ctx,
    checks: &mut Checks,
    cases: &[Case],
    passes: u32,
    reference: Option<&[u64]>,
) -> (Samples, Totals) {
    let mut last = Totals::default();
    let timed = iterate(ctx, checks, |ctx, checks, verify| {
        let started = Instant::now();
        let (mut cycles, mut run_wall, mut runs, mut fingerprint) = (0, 0.0, 0, 0);
        for pass in 0..passes {
            last = run_cases(ctx, checks, cases, verify && pass == 0);
            cycles += last.cycles;
            run_wall += last.run_wall_s;
            runs += last.runs;
            fingerprint = fold(fingerprint, &[last.fingerprint]);
        }
        let mut samples = vec![
            ("sim_cycles_per_s", cycles as f64 / run_wall),
            ("jobs_per_s", runs as f64 / started.elapsed().as_secs_f64()),
            ("pass_run_wall_s", run_wall / f64::from(passes)),
        ];
        if let Some(reference) = reference {
            let error = cycle_error_pct_max(reference, &last.exec_cycles);
            legs::check_cycle_error(checks, error);
            samples.push(("cycle_error_pct_max", error));
        }
        Iter {
            samples,
            fingerprint,
        }
    });
    (timed, last)
}

/// A workload whose set-up is building its platforms once (program
/// assembly, memory images, the mesh); every iteration builds its own
/// again.
fn prebuilt(ctx: &mut Ctx, cases: &[Case]) -> Report {
    let mut checks = Checks::default();
    let (_, setup_wall) = setup(ctx, |_| {
        cases.iter().map(|c| c.build(false)).collect::<Vec<_>>()
    });
    let (timed, last) = simulate(ctx, &mut checks, cases, 1, None);
    let layers = if ctx.trace {
        sim_layers(ctx, &mut checks, cases, &last)
    } else {
        Vec::new()
    };
    Report::new(checks, setup_wall, timed, layers)
}

/// `table2_ref`: the 19 Table-2 points with CPU masters, tracing off.
pub fn table2_ref(ctx: &mut Ctx) -> Report {
    prebuilt(ctx, &table2_cases(ctx.smoke))
}

/// What `table2_tg`'s set-up produces: the TG cases, the CPU
/// reference's completion cycles, and the flow's per-call times.
struct TgSetup {
    cases: Vec<Case>,
    reference_exec: Vec<u64>,
    traces: Vec<MasterTrace>,
    flow: FlowTimes,
    traced_wall_s: f64,
}

/// The paper's flow for every point: traced reference run, translate
/// (reactive), assemble.
fn build_tg_cases(ctx: &mut Ctx, cpu_cases: &[Case]) -> TgSetup {
    let mut out = TgSetup {
        cases: Vec::new(),
        reference_exec: Vec::new(),
        traces: Vec::new(),
        flow: FlowTimes::default(),
        traced_wall_s: 0.0,
    };
    for case in cpu_cases {
        let mut platform = ctx
            .spans
            .scope("workloads.build_platform", |_| case.build(true));
        let started = Instant::now();
        let report = ctx
            .spans
            .scope("platform.run", |_| platform.run(MAX_CYCLES));
        out.traced_wall_s += started.elapsed().as_secs_f64();
        assert!(
            report.completed && report.faults.is_empty(),
            "traced reference run of {} failed",
            case.label()
        );
        out.reference_exec
            .push(report.execution_time().expect("reference run halted"));
        let traces = platform.traces();
        let cfg = platform.translator_config(TranslationMode::Reactive);
        let images = legs::translate_and_assemble(&mut ctx.spans, &traces, &cfg, &mut out.flow);
        if ctx.trace {
            out.traces.extend(traces);
        }
        out.cases.push(Case {
            masters: Masters::Tg(Arc::new(images)),
            ..case.clone()
        });
    }
    out
}

/// `table2_tg`: the same 19 points replayed from TG images built in
/// set-up; one iteration is five passes over them.
pub fn table2_tg(ctx: &mut Ctx) -> Report {
    let mut checks = Checks::default();
    let cpu_cases = table2_cases(ctx.smoke);
    let (built, setup_wall) = setup(ctx, |ctx| build_tg_cases(ctx, &cpu_cases));
    let passes = if ctx.smoke { 1 } else { 5 };
    let reference = Some(built.reference_exec.as_slice());
    let (timed, last) = simulate(ctx, &mut checks, &built.cases, passes, reference);
    let mut layers = Vec::new();
    if ctx.trace {
        layers = sim_layers(ctx, &mut checks, &built.cases, &last);
        // The untraced reference once more, for the monitor's share.
        let untraced = run_cases(ctx, &mut checks, &cpu_cases, false);
        layers.push((
            "trace.monitor_overhead_pct",
            (built.traced_wall_s / untraced.run_wall_s - 1.0) * 100.0,
        ));
        layers.extend(built.flow.layers());
        layers.extend(
            ctx.spans
                .scope("trace.codec", |_| legs::codec(&built.traces, &mut checks)),
        );
    }
    Report::new(checks, setup_wall, timed, layers)
}

/// `mesh_light`: a mostly idle fabric, where scheduling does the work.
pub fn mesh_light(ctx: &mut Ctx) -> Report {
    let case = mesh_case(ctx.smoke, "uniform+bernoulli@0.002/4", 2048, ctx.seed);
    prebuilt(ctx, &[case])
}

/// `mesh_saturated`: every router busy under back-pressure.
pub fn mesh_saturated(ctx: &mut Ctx) -> Report {
    let case = mesh_case(ctx.smoke, "uniform+bernoulli@0.3/4", 1536, ctx.seed);
    prebuilt(ctx, &[case])
}
