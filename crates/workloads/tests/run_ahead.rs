//! Core run-ahead (DESIGN §4.19) at platform level: a `CpuCore` that
//! executes a whole compute burst per visit must leave everything a run
//! reports — and everything an *incomplete* run reports — exactly where
//! the one-instruction-per-tick core left it. The numbers pinned below
//! were produced by the per-cycle core of the commit before run-ahead
//! landed; `ntg-cpu`'s own differential suite diffs the two cores
//! instruction by instruction.

mod common;

use common::run_oracle;
use ntg_cpu::Asm;
use ntg_platform::{
    mem_map, InterconnectChoice, MasterReport, Platform, PlatformBuilder, RunReport,
};
use ntg_trace::fnv64;
use ntg_workloads::Workload;

const MAX: u64 = 200_000_000;

/// A report with the engine diagnostics that legitimately differ between
/// `run` and the `step` oracle (wall time, the skipped/ticked split,
/// visit counts) blanked, rendered for byte comparison.
fn canonical(mut report: RunReport) -> String {
    report.wall_time = std::time::Duration::ZERO;
    report.skipped_cycles = 0;
    report.ticked_cycles = 0;
    report.visited_component_cycles = 0;
    format!("{report:?}")
}

fn spin_platform() -> Platform {
    let mut a = Asm::new();
    a.label("spin");
    a.j("spin");
    let program = a.assemble(mem_map::private_base(0)).expect("assemble");
    PlatformBuilder::new()
        .add_cpu(program)
        .build()
        .expect("build")
}

/// `instructions` of `spin: j spin` after `run(5_000)` on the per-cycle
/// core (parent commit).
const SPIN_INSTRUCTIONS_AT_5000: u64 = 4_991;

#[test]
fn a_spinning_core_stops_at_the_run_limit() {
    // Without the stop-cycle cap the burst loop never returns from the
    // first visit after the refill. `run` and the oracle must both stop
    // at 5 000 with the per-cycle core's instruction count: the refill
    // completes at cycle 9 on the default AMBA platform, then one `j`
    // per cycle.
    for oracle in [false, true] {
        let mut p = spin_platform();
        let report = if oracle {
            run_oracle(&mut p, 5_000)
        } else {
            p.run(5_000)
        };
        assert!(!report.completed);
        assert_eq!(report.cycles, 5_000);
        assert_eq!(report.finish_cycles, vec![None]);
        let MasterReport::Cpu(stats) = report.masters[0] else {
            panic!("master 0 is a CPU");
        };
        assert_eq!(stats.instructions, SPIN_INSTRUCTIONS_AT_5000);
        assert_eq!(stats.icache.read_hits, SPIN_INSTRUCTIONS_AT_5000);
        assert_eq!(stats.refills, 1);
    }
}

#[test]
fn resuming_a_capped_run_matches_one_long_run() {
    // The cap must not change what a core does, only when it does it:
    // a run stopped mid-burst and resumed ends exactly like one run.
    let workload = Workload::Cacheloop { iterations: 500 };
    let build = || {
        workload
            .build_platform(2, InterconnectChoice::Amba, true)
            .expect("build")
    };
    let mut whole = build();
    let expected = whole.run(MAX);
    assert!(expected.completed);
    let trcs = |p: &Platform| -> Vec<String> { p.traces().iter().map(|t| t.to_trc()).collect() };
    for first in [1, 777, 1_234, expected.cycles - 1] {
        let mut stepped = build();
        stepped.step(first);
        let report = stepped.run(MAX);
        assert_eq!(
            canonical(report),
            canonical(expected.clone()),
            "step({first}) + run"
        );
        assert_eq!(trcs(&stepped), trcs(&whole), "step({first}) + run: traces");

        let mut capped = build();
        let partial = capped.run(first);
        assert!(!partial.completed);
        assert_eq!(partial.cycles, first);
        let report = capped.run(MAX);
        assert_eq!(
            canonical(report),
            canonical(expected.clone()),
            "run({first}) + run"
        );
        assert_eq!(trcs(&capped), trcs(&whole), "run({first}) + run: traces");
    }
}

#[test]
fn capped_runs_match_the_oracle() {
    // An incomplete run's report — every `CpuStats` field included —
    // is the oracle's: a core mid-burst at the cap has executed exactly
    // the instructions of the cycles before it.
    let workload = Workload::MpMatrix { n: 8 };
    let build = || {
        workload
            .build_platform(2, InterconnectChoice::Amba, false)
            .expect("build")
    };
    for cap in [500, 2_345, 6_000] {
        let report = build().run(cap);
        assert!(!report.completed, "cap {cap} is mid-run");
        let reference = run_oracle(&mut build(), cap);
        assert_eq!(canonical(report), canonical(reference), "cap {cap}");
    }
}

#[test]
fn cpu_on_xpipes_reports_match_the_oracle() {
    // Run-ahead cores on the mesh, tracing and metrics on: a
    // byte-identical report apart from the engine diagnostics, identical
    // traces, and the golden result either way.
    let workload = Workload::MpMatrix { n: 8 };
    let cores = 2;
    let fabric = InterconnectChoice::Mesh(2, 4);
    let drive = |oracle: bool| {
        let mut p = workload.build_platform(cores, fabric, true).expect("build");
        p.enable_metrics();
        let report = if oracle {
            run_oracle(&mut p, MAX)
        } else {
            p.run(MAX)
        };
        assert!(report.completed && report.faults.is_empty());
        workload.verify(&p, cores).expect("golden result");
        let trcs: Vec<String> = p.traces().iter().map(|t| t.to_trc()).collect();
        (canonical(report), trcs)
    };
    let (ran, reference) = (drive(false), drive(true));
    assert_eq!(ran.0, reference.0, "run vs oracle");
    assert_eq!(ran.1, reference.1, "run vs oracle: traces");
}

#[test]
fn traces_and_metrics_match_the_per_cycle_core() {
    // mp_matrix:8 @ 4P on AMBA with tracing and metrics on: the `.trc`
    // streams and the `MetricsReport` hash to what the per-cycle core of
    // the parent commit produced.
    let workload = Workload::MpMatrix { n: 8 };
    let mut p = workload
        .build_platform(4, InterconnectChoice::Amba, true)
        .expect("build");
    p.enable_metrics();
    let report = p.run(MAX);
    assert!(report.completed && report.faults.is_empty());
    workload.verify(&p, 4).expect("golden result");
    let mut bytes = Vec::new();
    for t in p.traces() {
        bytes.extend_from_slice(t.to_trc().as_bytes());
    }
    bytes.extend_from_slice(format!("{:?}", report.metrics.expect("metrics on")).as_bytes());
    assert_eq!(report.cycles, 15_203);
    assert_eq!(format!("{:016x}", fnv64(&bytes)), "ec244f1e52799a5a");
}
