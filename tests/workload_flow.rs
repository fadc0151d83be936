//! Per-workload end-to-end tests: every Table 2 benchmark runs the full
//! reference → translate → TG-replay flow at test scale, with
//! golden-model verification of the replayed memory image, cycle-error
//! bounds, and the interconnect-invariance property.

use ntg::platform::InterconnectChoice;
use ntg::tg::{assemble, tgp, TraceTranslator, TranslationMode};
use ntg::workloads::Workload;

const MAX: u64 = 200_000_000;

fn workloads() -> Vec<(Workload, usize)> {
    vec![
        (Workload::SpMatrix { n: 6 }, 1),
        (Workload::Cacheloop { iterations: 500 }, 3),
        (Workload::MpMatrix { n: 8 }, 3),
        (Workload::Des { blocks_per_core: 2 }, 3),
    ]
}

/// Reference run → images + reference cycles (verifying golden results).
fn reference(
    w: Workload,
    cores: usize,
    fabric: InterconnectChoice,
) -> (Vec<ntg::tg::TgImage>, u64) {
    let mut p = w.build_platform(cores, fabric, true).expect("build");
    let report = p.run(MAX);
    assert!(report.completed, "{} reference incomplete", w.name());
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    w.verify(&p, cores).expect("reference golden result");
    let translator = TraceTranslator::new(p.translator_config(TranslationMode::Reactive));
    let images = (0..cores)
        .map(|c| {
            assemble(
                &translator
                    .translate(&p.trace(c).expect("traced"))
                    .expect("translate"),
            )
            .expect("assemble")
        })
        .collect();
    (images, report.execution_time().expect("halted"))
}

#[test]
fn every_workload_replays_accurately_on_amba() {
    for (w, cores) in workloads() {
        let (images, ref_cycles) = reference(w, cores, InterconnectChoice::Amba);
        let mut p = w
            .build_tg_platform(images, InterconnectChoice::Amba, false)
            .expect("build TG platform");
        let report = p.run(MAX);
        assert!(report.completed, "{} TG replay incomplete", w.name());
        assert!(report.faults.is_empty(), "{:?}", report.faults);
        // The TGs must reproduce the exact memory results, not just the
        // timing: replayed writes carry the recorded data.
        w.verify(&p, cores)
            .unwrap_or_else(|e| panic!("{} TG golden mismatch: {e}", w.name()));
        let tg_cycles = report.execution_time().expect("halted");
        let err = (tg_cycles as f64 - ref_cycles as f64).abs() / ref_cycles as f64 * 100.0;
        assert!(
            err < 2.0,
            "{} {cores}P error {err:.2}% (ref {ref_cycles}, tg {tg_cycles})",
            w.name()
        );
    }
}

#[test]
fn every_workload_translates_identically_across_fabrics() {
    // The paper's validation experiment at test scale, for all four
    // benchmarks, on every fabric model. `amba-fixed` is left out: under
    // static priority the pollers starve the semaphore holder, so MP
    // matrix and DES livelock and leave no complete trace to translate.
    for (w, cores) in workloads() {
        let programs_on = |fabric: InterconnectChoice| -> Vec<String> {
            let mut p = w.build_platform(cores, fabric, true).expect("build");
            assert!(p.run(MAX).completed);
            let translator = TraceTranslator::new(p.translator_config(TranslationMode::Reactive));
            (0..cores)
                .map(|c| {
                    tgp::to_tgp(
                        &translator
                            .translate(&p.trace(c).expect("traced"))
                            .expect("translate"),
                    )
                })
                .collect()
        };
        let amba = programs_on(InterconnectChoice::Amba);
        for fabric in [
            InterconnectChoice::Crossbar,
            InterconnectChoice::Xpipes,
            InterconnectChoice::Ideal,
        ] {
            assert_eq!(
                programs_on(fabric),
                amba,
                "{}: .tgp differs between amba and {fabric}",
                w.name()
            );
        }
    }
}

#[test]
fn every_workload_replays_on_foreign_fabrics() {
    // TGs traced on AMBA must run to completion — with correct memory
    // results — on the other interconnects (the actual DSE scenario).
    for (w, cores) in workloads() {
        let (images, _) = reference(w, cores, InterconnectChoice::Amba);
        for fabric in [InterconnectChoice::Crossbar, InterconnectChoice::Xpipes] {
            let mut p = w
                .build_tg_platform(images.clone(), fabric, false)
                .expect("build TG platform");
            let report = p.run(MAX);
            assert!(
                report.completed,
                "{} on {fabric}: replay incomplete",
                w.name()
            );
            w.verify(&p, cores)
                .unwrap_or_else(|e| panic!("{} on {fabric}: {e}", w.name()));
        }
    }
}

#[test]
fn tg_is_never_slower_to_simulate_for_nontrivial_runs() {
    // Wall-clock sanity at test scale: the TG platform should not lose
    // to the CPU platform (the paper's entire premise). Take the best of
    // three runs each to suppress scheduler noise on loaded hosts.
    let w = Workload::MpMatrix { n: 16 };
    let cores = 4;
    let (images, _) = reference(w, cores, InterconnectChoice::Amba);
    let best = |f: &dyn Fn() -> std::time::Duration| (0..3).map(|_| f()).min().expect("three runs");
    let arm = best(&|| {
        let mut p = w
            .build_platform(cores, InterconnectChoice::Amba, false)
            .expect("build");
        let r = p.run(MAX);
        assert!(r.completed);
        r.wall_time
    });
    let tg = best(&|| {
        let mut p = w
            .build_tg_platform(images.clone(), InterconnectChoice::Amba, false)
            .expect("build");
        let r = p.run(MAX);
        assert!(r.completed);
        r.wall_time
    });
    assert!(
        tg.as_secs_f64() < arm.as_secs_f64() * 1.2,
        "TG simulation not competitive: ARM {arm:?} vs TG {tg:?}"
    );
}

#[test]
fn test_scale_helper_matches_flow() {
    // The library's suggested test sizes run the full flow too.
    for base in [
        Workload::SpMatrix { n: 32 },
        Workload::Cacheloop { iterations: 1 },
        Workload::MpMatrix { n: 32 },
        Workload::Des {
            blocks_per_core: 99,
        },
    ] {
        let w = base.test_scale();
        let cores = 2.min(w.paper_core_counts()[0]).max(1);
        let (images, _) = reference(w, cores, InterconnectChoice::Amba);
        assert_eq!(images.len(), cores);
    }
}

#[test]
fn clock_period_scales_trace_timestamps() {
    use ntg::sim::ClockConfig;
    let w = Workload::Cacheloop { iterations: 100 };
    let trace_with_period = |period: u64| {
        let mut b = ntg::platform::PlatformBuilder::new();
        b.interconnect(InterconnectChoice::Amba)
            .clock(ClockConfig::new(period))
            .tracing(true);
        b.add_cpu(w.program(0, 1));
        let mut p = b.build().unwrap();
        assert!(p.run(MAX).completed);
        p.trace(0).unwrap()
    };
    let t5 = trace_with_period(5);
    let t10 = trace_with_period(10);
    assert_eq!(t5.period_ns, 5);
    assert_eq!(t10.period_ns, 10);
    // Same cycle schedule, scaled nanosecond stamps.
    assert_eq!(t5.events.len(), t10.events.len());
    for (a, b) in t5.events.iter().zip(&t10.events) {
        assert_eq!(a.at() * 2, b.at(), "timestamps must scale with the period");
    }
    assert_eq!(t5.halt_at.unwrap() * 2, t10.halt_at.unwrap());
    // And translation is period-independent in cycles: identical programs.
    let tr = ntg::tg::TraceTranslator::default();
    assert_eq!(
        tr.translate(&t5).unwrap().instrs().count(),
        tr.translate(&t10).unwrap().instrs().count()
    );
}
