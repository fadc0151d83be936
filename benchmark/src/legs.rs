//! Per-layer legs the traced run measures from outside: the trace →
//! program flow per call, the binary codec, the disk store, the report
//! renderer and the bare kernel + OCP link.

use std::path::Path;
use std::time::Instant;

use ntg_core::{
    assemble, GapDistribution, StochasticConfig, StochasticTg, TgImage, TgSlave, TgSlaveBehavior,
    TraceTranslator, TranslatorConfig,
};
use ntg_explore::{DiskStore, StoreKind};
use ntg_ocp::{LinkArena, MasterId};
use ntg_sim::{RunOutcome, Simulator};
use ntg_trace::MasterTrace;

use crate::harness::{Checks, Layers};
use crate::span::SpanLog;

/// The paper's accuracy claim (≤ 1.5 % cycle error), with the margin
/// Table 2 itself shows. Also what `cycle_error_pct_max` carries on a
/// workload that replays no TG point.
pub const CYCLE_ERROR_CEILING_PCT: f64 = 1.52;

/// Fails a check when a replay's cycle error is above the ceiling.
pub fn check_cycle_error(checks: &mut Checks, error_pct: f64) {
    checks.require(error_pct <= CYCLE_ERROR_CEILING_PCT, || {
        format!("cycle error {error_pct:.3} % is above the {CYCLE_ERROR_CEILING_PCT} % ceiling")
    });
}

const MB: f64 = 1e6;

/// Host time of the translate and assemble calls, with the work they
/// did.
#[derive(Default, Clone, Copy)]
pub struct FlowTimes {
    pub translate_s: f64,
    pub events: u64,
    pub assemble_s: f64,
    pub instrs: u64,
    pub image_bytes: u64,
}

impl FlowTimes {
    pub fn layers(&self) -> Layers {
        vec![
            (
                "tg.translate_events_per_s",
                self.events as f64 / self.translate_s,
            ),
            (
                "tg.assemble_instr_per_s",
                self.instrs as f64 / self.assemble_s,
            ),
            ("tg.image_bytes", self.image_bytes as f64),
        ]
    }
}

/// The translate and assemble steps of the paper's flow over `traces`,
/// each call under a span and a clock.
pub fn translate_and_assemble(
    spans: &mut SpanLog,
    traces: &[MasterTrace],
    cfg: &TranslatorConfig,
    times: &mut FlowTimes,
) -> Vec<TgImage> {
    let translator = TraceTranslator::new(cfg.clone());
    let mut images = Vec::with_capacity(traces.len());
    for trace in traces {
        let t = Instant::now();
        let program = spans.scope("tg.translate", |_| {
            translator.translate(trace).expect("trace translates")
        });
        times.translate_s += t.elapsed().as_secs_f64();
        times.events += trace.events.len() as u64;
        let t = Instant::now();
        let image = spans.scope("tg.assemble", |_| {
            assemble(&program).expect("program assembles")
        });
        times.assemble_s += t.elapsed().as_secs_f64();
        times.instrs += program.len_instrs() as u64;
        times.image_bytes += image.to_bytes().len() as u64;
        images.push(image);
    }
    images
}

/// Binary trace codec throughput over `traces`; a trace that does not
/// survive the round trip is a failed op.
pub fn codec(traces: &[MasterTrace], checks: &mut Checks) -> Layers {
    let (mut bytes, mut encode_s, mut decode_s) = (0u64, 0.0, 0.0);
    for trace in traces {
        let t = Instant::now();
        let bin = std::hint::black_box(trace.to_bin());
        encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back = std::hint::black_box(MasterTrace::from_bin(&bin));
        decode_s += t.elapsed().as_secs_f64();
        bytes += bin.len() as u64;
        checks.op(back.as_ref() == Ok(trace), || {
            format!("trace of master {} does not round-trip", trace.master)
        });
    }
    vec![
        ("trace.encode_mb_per_s", bytes as f64 / MB / encode_s),
        ("trace.decode_mb_per_s", bytes as f64 / MB / decode_s),
        ("trace.bin_bytes", bytes as f64),
    ]
}

/// `DiskStore::save` / `load` called directly: eight 1 MiB entries
/// written, read back and compared, then eight misses.
pub fn store(dir: &Path, smoke: bool, checks: &mut Checks) -> Layers {
    let store = DiskStore::open(dir).expect("open scratch store");
    let size = if smoke { 64 << 10 } else { 1 << 20 };
    let payload: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
    let keys: Vec<String> = (0..8).map(|i| format!("bench|blob|{i}")).collect();
    let t = Instant::now();
    for key in &keys {
        let saved = store.save(StoreKind::Trace, key, &payload);
        checks.op(saved.is_ok(), || format!("store save {key}: {saved:?}"));
    }
    let put_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for key in &keys {
        let loaded = store.load(StoreKind::Trace, key);
        checks.op(loaded.as_deref() == Some(payload.as_slice()), || {
            format!("store load {key} returned other bytes")
        });
    }
    let get_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for i in 0..8 {
        let absent = store.load(StoreKind::Trace, &format!("bench|absent|{i}"));
        checks.op(absent.is_none(), || "store invented an entry".into());
    }
    let miss_s = t.elapsed().as_secs_f64();
    let moved = (payload.len() * keys.len()) as f64 / MB;
    vec![
        ("explore.store_put_mb_per_s", moved / put_s),
        ("explore.store_get_mb_per_s", moved / get_s),
        ("explore.store_miss_us", miss_s / 8.0 * 1e6),
    ]
}

/// `render_view` (Table-2 CSV, then the full markdown report) over a
/// campaign's canonical JSONL.
pub fn render_ms(canonical: &str, timings: Option<&str>, checks: &mut Checks) -> f64 {
    let t = Instant::now();
    for view in ["table2", "markdown"] {
        let rendered = ntg_report::render_view(view, canonical, timings, None);
        checks.op(rendered.as_ref().is_ok_and(|r| !r.is_empty()), || {
            format!("render_view {view}: {:?}", rendered.as_ref().err())
        });
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// The floor under every simulation speed: a stochastic source talking
/// to a slave TG over one bare OCP link, under the generic kernel.
pub fn bare_link_ns_per_txn(transactions: u64, checks: &mut Checks) -> f64 {
    let mut net = LinkArena::new();
    let (mport, sport) = net.channel("link", MasterId(0));
    let source = StochasticTg::new(
        "source",
        mport,
        StochasticConfig {
            seed: 2026,
            ranges: vec![(0x0, 0x1000)],
            write_fraction: 0.5,
            burst_fraction: 0.25,
            gap: GapDistribution::Geometric { mean: 8 },
            transactions,
        },
    );
    let sink = TgSlave::new("sink", 0x0, 0x1000, TgSlaveBehavior::Memory, sport);
    let mut sim = Simulator::with_ctx(net);
    sim.add(Box::new(source));
    sim.add(Box::new(sink));
    let t = Instant::now();
    let outcome = sim.run_until_idle(transactions * 1000);
    let wall = t.elapsed().as_secs_f64();
    checks.op(outcome == RunOutcome::Idle, || {
        format!("bare link did not drain: {outcome:?}")
    });
    wall * 1e9 / transactions as f64
}
