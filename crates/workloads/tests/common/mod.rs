//! Helpers shared by this crate's platform-level suites: the `step`
//! oracle, the quick Table-2 workload sizes and the reference →
//! translate → assemble flow. Each test binary uses a subset.

#![allow(dead_code)]

use ntg_core::{assemble, TgImage, TraceTranslator, TranslationMode};
use ntg_platform::{InterconnectChoice, Platform, RunReport};
use ntg_workloads::Workload;

/// Upper bound on simulated cycles for any complete run.
pub const MAX_CYCLES: u64 = 2_000_000_000;

/// Drives `platform` to `max_cycles` (absolute, like `Platform::run`)
/// with the dense reference loop — `Platform::step`, one cycle per call
/// so a core never executes ahead of `now` — and returns its report:
/// the oracle the engine-equivalence suites diff `Platform::run` against.
pub fn run_oracle(platform: &mut Platform, max_cycles: u64) -> RunReport {
    let mut now = platform.report().cycles;
    while now < max_cycles && !platform.is_quiesced() {
        platform.step(1);
        now += 1;
    }
    platform.report()
}

/// The Table-2 workloads at the quick scale
/// (`ntg-sweep --preset table2 --workloads sp_matrix:8,cacheloop:5000,mp_matrix:12,des:4`).
pub fn quick_workloads() -> Vec<Workload> {
    vec![
        Workload::SpMatrix { n: 8 },
        Workload::Cacheloop { iterations: 5_000 },
        Workload::MpMatrix { n: 12 },
        Workload::Des { blocks_per_core: 4 },
    ]
}

/// Runs a traced reference simulation to completion and translates every
/// core's trace into an assembled reactive TG image.
///
/// # Panics
///
/// Panics if the reference run does not complete, a master faults, or a
/// trace fails to translate or assemble.
pub fn trace_and_translate(
    workload: Workload,
    cores: usize,
    interconnect: InterconnectChoice,
) -> Vec<TgImage> {
    let mut p = workload
        .build_platform(cores, interconnect, true)
        .expect("build traced platform");
    let report = p.run(MAX_CYCLES);
    assert!(
        report.completed,
        "{workload} {cores}P trace: did not complete"
    );
    assert!(report.faults.is_empty(), "faults {:?}", report.faults);
    let translator = TraceTranslator::new(p.translator_config(TranslationMode::Reactive));
    (0..cores)
        .map(|c| {
            let program = translator
                .translate(&p.trace(c).expect("tracing was on"))
                .expect("translate");
            assemble(&program).expect("translated programs assemble")
        })
        .collect()
}
