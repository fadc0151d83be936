//! `Platform::run` — the O(active) loop with wake-token routing, lazy
//! `skip` catch-up and whole-platform jumps — must report exactly what
//! the dense reference reports: `Platform::step`, every component on
//! every cycle, one cycle per call so cores never run ahead
//! ([`ntg_bench::run_oracle`]). Every number a run leaves behind is
//! compared — cycles, per-master halt cycles and statistics, faults,
//! transactions, latency, the metrics summary (window structure
//! included) and the recorded `.trc` streams — with metrics and tracing
//! on everywhere. Only the engine diagnostics may differ, and only in
//! one direction: `run` never visits more than the oracle.
//!
//! The matrix is the union of the suites this one replaced (skip on/off,
//! sparse vs dense scheduling, serial vs row-band partitions): the
//! quick Table-2 workloads as CPU runs and as TG replays on every
//! fabric model plus the canonical mesh layout, synthetic pattern ×
//! shape traffic on the buses and on a 3×4 mesh, a saturated 4×4, and
//! the 8×8 and 16×16 big meshes. Two shapes the old suites never had
//! close it: a run cut in two at a cycle the engine was jumping over,
//! and an incomplete run that stops with sleepers still outstanding.

use ntg_bench::{quick_workloads, run_oracle, trace_and_translate, MAX_CYCLES};
use ntg_platform::{InterconnectChoice, Platform, PlatformBuilder, RunReport};
use ntg_workloads::synthetic::{SyntheticPlatformExt, SyntheticSpec};
use ntg_workloads::Workload;

/// Everything a run leaves behind that must be engine-independent.
struct Outcome {
    report: RunReport,
    trcs: Vec<String>,
}

fn outcome(platform: &Platform, report: RunReport) -> Outcome {
    let trcs = platform.traces().iter().map(|t| t.to_trc()).collect();
    Outcome { report, trcs }
}

/// `Platform::run` to `max_cycles`.
fn run(mut platform: Platform, max_cycles: u64) -> Outcome {
    platform.enable_metrics();
    let report = platform.run(max_cycles);
    outcome(&platform, report)
}

/// The `step`-driven reference to `max_cycles`.
fn oracle(mut platform: Platform, max_cycles: u64) -> Outcome {
    platform.enable_metrics();
    let report = run_oracle(&mut platform, max_cycles);
    outcome(&platform, report)
}

/// Every result field of two reports, and the traces, must match.
fn assert_same_results(what: &str, a: &Outcome, b: &Outcome) {
    let (ra, rb) = (&a.report, &b.report);
    assert_eq!(ra.completed, rb.completed, "{what}: completed");
    assert_eq!(ra.cycles, rb.cycles, "{what}: cycles");
    assert_eq!(ra.finish_cycles, rb.finish_cycles, "{what}: halt cycles");
    assert_eq!(ra.masters, rb.masters, "{what}: master stats");
    assert_eq!(ra.faults, rb.faults, "{what}: faults");
    assert_eq!(ra.transactions, rb.transactions, "{what}: transactions");
    assert_eq!(ra.latency, rb.latency, "{what}: latency");
    assert_eq!(ra.metrics, rb.metrics, "{what}: metrics");
    assert_eq!(
        ra.total_component_cycles, rb.total_component_cycles,
        "{what}: dense work bound"
    );
    assert_eq!(a.trcs, b.trcs, "{what}: .trc streams");
}

/// `run` against the oracle: identical results, sane diagnostics.
fn assert_equivalent(what: &str, run: &Outcome, oracle: &Outcome) {
    assert_same_results(what, run, oracle);
    let (r, o) = (&run.report, &oracle.report);
    assert_eq!(
        r.skipped_cycles + r.ticked_cycles,
        r.cycles,
        "{what}: run's counters must partition the run"
    );
    assert_eq!(o.skipped_cycles, 0, "{what}: the oracle jumped");
    assert_eq!(o.ticked_cycles, o.cycles, "{what}: oracle ticks");
    assert_eq!(
        o.visited_component_cycles, o.total_component_cycles,
        "{what}: the oracle visits everything"
    );
    assert!(
        r.visited_component_cycles <= r.total_component_cycles,
        "{what}: run visited {} of {}",
        r.visited_component_cycles,
        r.total_component_cycles
    );
}

/// Runs one recipe to completion through both engines and compares.
/// Returns `run`'s report for engagement canaries.
fn check(what: &str, build: impl Fn() -> Platform) -> RunReport {
    let ran = run(build(), MAX_CYCLES);
    assert!(ran.report.completed, "{what}: run did not complete");
    assert!(
        ran.report.faults.is_empty(),
        "{what}: {:?}",
        ran.report.faults
    );
    assert_equivalent(what, &ran, &oracle(build(), MAX_CYCLES));
    ran.report
}

fn cores_for(w: Workload) -> usize {
    match w {
        Workload::SpMatrix { .. } => 1,
        _ => 2,
    }
}

/// The four fabric models plus the smallest canonical-layout mesh
/// (masters on nodes `0..n`, slaves after) holding `cores` masters and
/// their `cores + 3` slaves.
fn fabrics_for(cores: usize) -> [InterconnectChoice; 5] {
    let nodes = 2 * cores + 3;
    [
        InterconnectChoice::Amba,
        InterconnectChoice::Xpipes,
        InterconnectChoice::Crossbar,
        InterconnectChoice::Ideal,
        InterconnectChoice::Mesh(2, nodes.div_ceil(2) as u16),
    ]
}

/// A synthetic platform like `build_synthetic_platform`, with tracing on.
fn synthetic(
    cores: usize,
    fabric: InterconnectChoice,
    desc: &str,
    packets: u64,
    seed: u64,
) -> Platform {
    let spec: SyntheticSpec = desc.parse().expect("descriptor parses");
    let mut b = PlatformBuilder::new();
    b.interconnect(fabric).tracing(true);
    for _ in 0..cores {
        b.add_synthetic_tg(spec, packets, seed);
    }
    b.build().expect("build synthetic platform")
}

#[test]
fn cpu_runs_match_the_oracle_on_every_fabric() {
    let mut sparse_won = false;
    for workload in quick_workloads() {
        let workload = workload.test_scale();
        let cores = cores_for(workload);
        for fabric in fabrics_for(cores) {
            let report = check(&format!("{workload} {cores}P cpu {fabric}"), || {
                workload
                    .build_platform(cores, fabric, true)
                    .expect("build platform")
            });
            sparse_won |= report.visited_component_cycles < report.total_component_cycles;
        }
    }
    assert!(sparse_won, "the wake wheel never saved a component visit");
}

#[test]
fn tg_replays_match_the_oracle_on_every_fabric() {
    let mut total_skipped = 0;
    for workload in quick_workloads() {
        let workload = workload.test_scale();
        let cores = cores_for(workload);
        // Trace once on AMBA (translation is fabric-independent), then
        // compare the replay on every fabric.
        let images = trace_and_translate(workload, cores, InterconnectChoice::Amba);
        for fabric in fabrics_for(cores) {
            let report = check(&format!("{workload} {cores}P tg {fabric}"), || {
                workload
                    .build_tg_platform(images.clone(), fabric, true)
                    .expect("build TG platform")
            });
            total_skipped += report.skipped_cycles;
        }
    }
    assert!(total_skipped > 0, "the engine never jumped anywhere");
}

#[test]
fn synthetic_traffic_matches_the_oracle() {
    // Three descriptors chosen for distinct idle structure: steady
    // Bernoulli, a bursty on/off square wave at low average rate (long
    // off-phases are exactly where `skip` bookkeeping can drift), and a
    // deterministic pattern under periodic bursts.
    let specs = [
        "uniform+bernoulli@0.1/4",
        "hotspot:80+onoff:64:192@0.02/2",
        "transpose+burst:8@0.05/4",
    ];
    let mut total_skipped = 0;
    for desc in specs {
        for fabric in [
            InterconnectChoice::Amba,
            InterconnectChoice::Xpipes,
            InterconnectChoice::Crossbar,
            InterconnectChoice::Mesh(3, 4),
        ] {
            let report = check(&format!("{desc} 4P synthetic {fabric}"), || {
                synthetic(4, fabric, desc, 96, 0xD15EA5E)
            });
            total_skipped += report.skipped_cycles;
        }
    }
    assert!(
        total_skipped > 0,
        "the engine never jumped on synthetic traffic"
    );
}

#[test]
fn saturated_mesh_matches_the_oracle() {
    // A 4×4 mesh near saturation: sustained wormhole backpressure, every
    // NI armed most cycles — the fabric's event-driven worklists have to
    // agree with its dense scan under load, not just when idle.
    check("transpose@0.4 6P 4x4", || {
        synthetic(
            6,
            InterconnectChoice::Mesh(4, 4),
            "transpose+bernoulli@0.4/4",
            64,
            0xBADCAFE,
        )
    });
}

#[test]
fn big_meshes_match_the_oracle() {
    // Low-rate uniform Bernoulli traffic on the big-mesh shapes: most
    // routers and most masters sleep most cycles, so this is where a
    // stale worklist or a lost wake would surface as divergence — and
    // where the scheduler's win must be real, not incidental.
    for (w, h, masters, packets) in [(8u16, 8u16, 24usize, 64u64), (16, 16, 96, 24)] {
        let what = format!("{w}x{h} {masters} masters");
        let report = check(&what, || {
            synthetic(
                masters,
                InterconnectChoice::Mesh(w, h),
                "uniform+bernoulli@0.1/4",
                packets,
                0xB16_4E54,
            )
        });
        assert!(
            report.visited_component_cycles < report.total_component_cycles / 2,
            "{what}: visited {} of {} — the wheel barely engaged",
            report.visited_component_cycles,
            report.total_component_cycles,
        );
    }
}

#[test]
fn a_run_split_mid_sleep_matches_one_run() {
    // `max_cycles` is absolute: `run(k)` then `run(max)` must end like
    // one `run(max)` — the first run's closing catch-up, and the second
    // run's re-seeding of the wheel from every component's hint, may not
    // move anything. The interesting `k` fall inside a jump (cycle `k`
    // is never ticked by the whole run), so a TG replay with long idle
    // waits is scanned for them.
    let workload = Workload::Cacheloop { iterations: 500 };
    let cores = 2;
    let images = trace_and_translate(workload, cores, InterconnectChoice::Amba);
    let build = || {
        workload
            .build_tg_platform(images.clone(), InterconnectChoice::Amba, true)
            .expect("build TG platform")
    };
    let whole = run(build(), MAX_CYCLES);
    assert!(whole.report.completed);
    assert_equivalent("whole", &whole, &oracle(build(), MAX_CYCLES));

    let end = whole.report.cycles;
    let mut mid_sleep = 0;
    for k in (1..end).step_by((end / 61).max(1) as usize) {
        let mut p = build();
        p.enable_metrics();
        let first = p.run(k);
        assert!(!first.completed && first.cycles == k, "run({k})");
        // `k` is strictly inside a jump iff neither cycle `k - 1` nor
        // cycle `k` is ever ticked: stopping one cycle earlier or later
        // ticks exactly as many cycles.
        let ticked = |stop: u64| build().run(stop).ticked_cycles;
        if ticked(k - 1) == first.ticked_cycles && ticked(k + 1) == first.ticked_cycles {
            mid_sleep += 1;
        }
        let report = p.run(MAX_CYCLES);
        let split = outcome(&p, report);
        assert_same_results(&format!("run({k}) + run"), &split, &whole);
        assert_eq!(
            split.report.skipped_cycles + split.report.ticked_cycles,
            split.report.cycles,
            "run({k}) + run: counters partition the run"
        );
    }
    assert!(mid_sleep > 0, "no split point landed inside a jump");
}

#[test]
fn incomplete_runs_match_the_oracle_with_sleepers_outstanding() {
    // A run that stops at `max_cycles` must settle every sleeper up to
    // that cycle: idle/wait counters, cache statistics and traces are
    // reported as of the stop, not as of each component's last visit.
    let workload = Workload::MpMatrix { n: 8 };
    let cores = 2;
    let images = trace_and_translate(workload, cores, InterconnectChoice::Amba);
    for fabric in [InterconnectChoice::Amba, InterconnectChoice::Xpipes] {
        for cap in [500, 2_345, 6_000] {
            for master in ["cpu", "tg"] {
                let what = format!("{workload} {cores}P {master} {fabric} cap {cap}");
                let build = || {
                    match master {
                        "cpu" => workload.build_platform(cores, fabric, true),
                        _ => workload.build_tg_platform(images.clone(), fabric, true),
                    }
                    .expect("build")
                };
                let ran = run(build(), cap);
                assert!(!ran.report.completed, "{what}: cap is mid-run");
                assert_eq!(ran.report.cycles, cap, "{what}: stops at the cap");
                assert!(
                    ran.report.visited_component_cycles < ran.report.total_component_cycles,
                    "{what}: nothing slept"
                );
                assert_equivalent(&what, &ran, &oracle(build(), cap));
            }
        }
    }
    // Synthetic masters sleep between injections; stop them mid-flight.
    let build = || {
        synthetic(
            6,
            InterconnectChoice::Mesh(4, 4),
            "hotspot:80+onoff:64:192@0.02/2",
            1_000_000,
            42,
        )
    };
    let ran = run(build(), 20_000);
    assert!(!ran.report.completed && ran.report.skipped_cycles > 0);
    assert_equivalent("synthetic cap 20000", &ran, &oracle(build(), 20_000));
}
