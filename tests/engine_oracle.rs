//! Tier-1 engine-equivalence guard: three small points through
//! `Platform::run` (the O(active) loop: wake wheel, wake-token routing,
//! lazy `skip` catch-up, whole-platform jumps) and through the dense
//! reference — `Platform::step`, every component on every cycle — with
//! identical cycles, per-master reports, transactions and traces
//! required. `crates/workloads/tests/engine_equivalence.rs` checks the same
//! contract over the full matrix, but the root `cargo test -q` runs only
//! this package — a lost wake or a wrong catch-up must fail here, and
//! so must a blocked reader that is ticked instead of sleeping.

use ntg::platform::{InterconnectChoice, Platform, PlatformBuilder, RunReport};
use ntg::tg::{assemble, TgImage, TraceTranslator, TranslationMode};
use ntg::workloads::synthetic::{SyntheticPlatformExt, SyntheticSpec};
use ntg::workloads::Workload;

const MAX: u64 = 2_000_000;

/// Drives `platform` with the reference loop, one cycle per call so a
/// core never executes ahead of `now`.
fn run_oracle(platform: &mut Platform) -> RunReport {
    for _ in 0..MAX {
        if platform.is_quiesced() {
            break;
        }
        platform.step(1);
    }
    platform.report()
}

fn trcs(platform: &Platform) -> Vec<String> {
    platform.traces().iter().map(|t| t.to_trc()).collect()
}

fn assert_run_matches_oracle(what: &str, build: impl Fn() -> Platform) {
    let mut ran = build();
    ran.enable_metrics();
    let report = ran.run(MAX);
    assert!(report.completed, "{what}: run incomplete");
    assert!(report.faults.is_empty(), "{what}: {:?}", report.faults);

    let mut reference = build();
    reference.enable_metrics();
    let expected = run_oracle(&mut reference);
    assert!(expected.completed, "{what}: oracle incomplete");

    assert_eq!(report.cycles, expected.cycles, "{what}: cycles");
    assert_eq!(
        report.finish_cycles, expected.finish_cycles,
        "{what}: halt cycles"
    );
    assert_eq!(report.masters, expected.masters, "{what}: master reports");
    assert_eq!(report.faults, expected.faults, "{what}: faults");
    assert_eq!(
        report.transactions, expected.transactions,
        "{what}: transactions"
    );
    assert_eq!(report.latency, expected.latency, "{what}: latency");
    assert_eq!(report.metrics, expected.metrics, "{what}: metrics");
    assert_eq!(trcs(&ran), trcs(&reference), "{what}: .trc streams");
    // The engine really engaged, and its counters partition the run.
    assert_eq!(
        report.skipped_cycles + report.ticked_cycles,
        report.cycles,
        "{what}: skipped + ticked"
    );
    assert!(
        report.visited_component_cycles < expected.visited_component_cycles,
        "{what}: run visited {} component-cycles, the oracle {}",
        report.visited_component_cycles,
        expected.visited_component_cycles
    );
}

/// Traces `workload` on AMBA and translates every core's trace into an
/// assembled TG image.
fn tg_images(workload: Workload, cores: usize) -> Vec<TgImage> {
    let mut traced = workload
        .build_platform(cores, InterconnectChoice::Amba, true)
        .expect("build traced platform");
    assert!(traced.run(MAX).completed);
    let translator = TraceTranslator::new(traced.translator_config(TranslationMode::Reactive));
    (0..cores)
        .map(|c| {
            let program = translator
                .translate(&traced.trace(c).expect("tracing was on"))
                .expect("translate");
            assemble(&program).expect("assemble")
        })
        .collect()
}

#[test]
fn cacheloop_tg_replay_on_amba_matches_the_oracle() {
    let workload = Workload::Cacheloop { iterations: 500 };
    let cores = 2;
    let images = tg_images(workload, cores);
    assert_run_matches_oracle("cacheloop 2P tg amba", || {
        workload
            .build_tg_platform(images.clone(), InterconnectChoice::Amba, true)
            .expect("build TG platform")
    });
}

#[test]
fn mp_matrix_cpu_on_xpipes_matches_the_oracle() {
    let workload = Workload::MpMatrix { n: 8 };
    assert_run_matches_oracle("mp_matrix 4P cpu xpipes", || {
        workload
            .build_platform(4, InterconnectChoice::Xpipes, true)
            .expect("build platform")
    });
}

#[test]
fn synthetic_mesh_traffic_matches_the_oracle() {
    let spec: SyntheticSpec = "uniform+bernoulli@0.1/4".parse().expect("descriptor");
    assert_run_matches_oracle("uniform@0.1 6P 4x4", || {
        let mut b = PlatformBuilder::new();
        b.interconnect(InterconnectChoice::Mesh(4, 4)).tracing(true);
        for _ in 0..6 {
            b.add_synthetic_tg(spec, 64, 0x5EED);
        }
        b.build().expect("build synthetic platform")
    });
}

/// `(ticked_cycles, visited_component_cycles)` of a run to completion.
fn visits(mut platform: Platform) -> (u64, u64) {
    let report = platform.run(MAX);
    assert!(report.completed && report.faults.is_empty());
    (report.ticked_cycles, report.visited_component_cycles)
}

#[test]
fn blocked_readers_sleep_until_their_response() {
    // MP matrix 4P on AMBA at test scale: a contended bus, so every
    // master spends most cycles blocked on a read. A reader that hints
    // from its read's acceptance instead of the response is ticked on
    // every cycle in between, and the counts below rise back to those
    // of `a25be87`, which did so: TG replay (9 893, 23 049), CPU run
    // (8 972, 20 164).
    let workload = Workload::MpMatrix { n: 8 };
    let cores = 4;
    let images = tg_images(workload, cores);
    let tg = visits(
        workload
            .build_tg_platform(images, InterconnectChoice::Amba, false)
            .expect("build TG platform"),
    );
    let cpu = visits(
        workload
            .build_platform(cores, InterconnectChoice::Amba, false)
            .expect("build platform"),
    );
    assert_eq!(
        tg,
        (8_829, 17_693),
        "mp_matrix 4P tg amba: (ticked, visited)"
    );
    assert_eq!(
        cpu,
        (7_492, 14_388),
        "mp_matrix 4P cpu amba: (ticked, visited)"
    );
}
