//! Tier-1 guard on arbitration outcomes: MP matrix 4P at test scale,
//! CPU run and TG replay, on the two fabrics whose arbiters see real
//! contention per target — the crossbar's per-slave lanes and the ×pipes
//! routers. `engine_oracle.rs` diffs `Platform::run` against `step`, but
//! both drive the same fabric kernels, so a kernel that grants the wrong
//! requester, miscounts a lost round or drops a stall cycle passes it.
//! This one pins what the arbiters decided.
//!
//! The pinned tuples were produced at commit `70362c6`, whose crossbar
//! scanned every master once per idle lane and whose ×pipes switch
//! walked all five outputs of every busy router.

use ntg::platform::{InterconnectChoice, RunReport};
use ntg::tg::{assemble, TgImage, TraceTranslator, TranslationMode};
use ntg::workloads::Workload;

const MAX: u64 = 2_000_000;
const CORES: usize = 4;

/// `(cycles, transactions, conflicts, grant_wait sum, fabric
/// utilization cycles)` of a run.
type Outcome = (u64, u64, u64, u64, u64);

fn outcome(what: &str, report: RunReport) -> Outcome {
    assert!(report.completed, "{what}: incomplete");
    assert!(report.faults.is_empty(), "{what}: {:?}", report.faults);
    let m = report.metrics.expect("metrics were enabled");
    (
        report.cycles,
        report.transactions,
        m.conflicts,
        m.grant_wait_sum,
        m.fabric_utilization_cycles,
    )
}

/// Traces `workload` on AMBA and translates every core's trace into an
/// assembled TG image.
fn tg_images(workload: Workload) -> Vec<TgImage> {
    let mut traced = workload
        .build_platform(CORES, InterconnectChoice::Amba, true)
        .expect("build traced platform");
    assert!(traced.run(MAX).completed);
    let translator = TraceTranslator::new(traced.translator_config(TranslationMode::Reactive));
    (0..CORES)
        .map(|c| {
            let program = translator
                .translate(&traced.trace(c).expect("tracing was on"))
                .expect("translate");
            assemble(&program).expect("assemble")
        })
        .collect()
}

fn cpu(workload: Workload, fabric: InterconnectChoice) -> Outcome {
    let mut p = workload
        .build_platform(CORES, fabric, false)
        .expect("build platform");
    p.enable_metrics();
    outcome(&format!("cpu {fabric}"), p.run(MAX))
}

fn tg(workload: Workload, images: &[TgImage], fabric: InterconnectChoice) -> Outcome {
    let mut p = workload
        .build_tg_platform(images.to_vec(), fabric, false)
        .expect("build TG platform");
    p.enable_metrics();
    outcome(&format!("tg {fabric}"), p.run(MAX))
}

#[test]
fn crossbar_and_xpipes_arbitrate_as_pinned() {
    let workload = Workload::MpMatrix { n: 24 }.test_scale();
    let images = tg_images(workload);
    let got = [
        cpu(workload, InterconnectChoice::Crossbar),
        tg(workload, &images, InterconnectChoice::Crossbar),
        cpu(workload, InterconnectChoice::Xpipes),
        tg(workload, &images, InterconnectChoice::Xpipes),
    ];
    let want: [Outcome; 4] = [
        (11_560, 1_711, 522, 3_774, 7_564),
        (11_592, 1_714, 525, 3_301, 7_576),
        (13_751, 1_715, 83, 8, 13_334),
        (14_098, 1_722, 378, 0, 13_410),
    ];
    let names = ["cpu crossbar", "tg crossbar", "cpu xpipes", "tg xpipes"];
    for ((name, got), want) in names.iter().zip(got).zip(want) {
        assert_eq!(
            got, want,
            "mp_matrix 4P {name}: (cycles, transactions, conflicts, grant_wait sum, utilization)"
        );
    }
}
