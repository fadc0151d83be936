//! Core run-ahead (DESIGN §4.19) at platform level: a `CpuCore` that
//! executes a whole compute burst per visit must leave everything a run
//! reports — and everything an *incomplete* run reports — exactly where
//! the one-instruction-per-tick core left it. The numbers pinned below
//! were produced by the per-cycle core of the commit before run-ahead
//! landed; `ntg-cpu`'s own differential suite diffs the two cores
//! instruction by instruction.

use ntg_cpu::Asm;
use ntg_platform::{
    mem_map, InterconnectChoice, MasterReport, Platform, PlatformBuilder, RunReport,
};
use ntg_trace::fnv64;
use ntg_workloads::Workload;

const MAX: u64 = 200_000_000;

/// A report with the engine diagnostics that legitimately differ between
/// engines (wall time, the skipped/ticked split, visit counts, partition
/// statistics) blanked, rendered for byte comparison.
fn canonical(mut report: RunReport) -> String {
    report.wall_time = std::time::Duration::ZERO;
    report.skipped_cycles = 0;
    report.ticked_cycles = 0;
    report.visited_component_cycles = 0;
    report.partition = None;
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
    // first visit after the refill. Every engine must stop at 5 000 with
    // the per-cycle core's instruction count: the refill completes at
    // cycle 9 on the default AMBA platform, then one `j` per cycle.
    for (skip, sparse) in [(true, true), (true, false), (false, false)] {
        let mut p = spin_platform();
        p.set_cycle_skipping(skip);
        p.set_active_scheduling(sparse);
        let report = p.run(5_000);
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
fn capped_runs_agree_across_engines() {
    // An incomplete run's report — every `CpuStats` field included —
    // does not depend on which loop drove it.
    let workload = Workload::MpMatrix { n: 8 };
    for cap in [500, 2_345, 6_000] {
        let mut reports = Vec::new();
        for (skip, sparse) in [(true, true), (true, false), (false, false)] {
            let mut p = workload
                .build_platform(2, InterconnectChoice::Amba, false)
                .expect("build");
            p.set_cycle_skipping(skip);
            p.set_active_scheduling(sparse);
            let report = p.run(cap);
            assert!(!report.completed, "cap {cap} is mid-run");
            reports.push(canonical(report));
        }
        assert_eq!(reports[0], reports[1], "cap {cap}: sparse vs dense");
        assert_eq!(reports[0], reports[2], "cap {cap}: sparse vs no-skip");
    }
}

#[test]
fn cpu_on_xpipes_reports_are_engine_independent() {
    // Serial sparse, two partition threads, skipping off, active
    // scheduling off: byte-identical reports apart from the engine
    // diagnostics, and identical traces.
    let workload = Workload::MpMatrix { n: 8 };
    let cores = 2;
    let fabric = InterconnectChoice::Mesh(2, 4);
    let run = |skip: bool, sparse: bool, threads: usize| {
        let mut p = workload.build_platform(cores, fabric, true).expect("build");
        p.set_cycle_skipping(skip);
        p.set_active_scheduling(sparse);
        p.enable_metrics();
        let report = if threads == 0 {
            p.run(MAX)
        } else {
            p.run_with_threads(MAX, threads)
        };
        assert!(report.completed && report.faults.is_empty());
        workload.verify(&p, cores).expect("golden result");
        let partitioned = report.partition.is_some();
        let trcs: Vec<String> = p.traces().iter().map(|t| t.to_trc()).collect();
        (canonical(report), trcs, partitioned)
    };
    let serial = run(true, true, 0);
    assert!(!serial.2);
    let banded = run(true, true, 2);
    assert!(banded.2, "two threads must partition the 2x4 mesh");
    assert_eq!(serial.0, banded.0, "serial vs 2 threads");
    assert_eq!(serial.1, banded.1, "serial vs 2 threads: traces");
    for (skip, sparse) in [(false, false), (true, false)] {
        let other = run(skip, sparse, 0);
        assert_eq!(serial.0, other.0, "skip={skip} sparse={sparse}");
        assert_eq!(serial.1, other.1, "skip={skip} sparse={sparse}: traces");
    }
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
