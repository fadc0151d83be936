//! What every workload shares: the run context, the op ledger, the
//! set-up and iteration loops, and the report they fill.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::span::SpanLog;

/// Simulated-cycle bound of every run; a run that reaches it is a
/// failed op.
pub const MAX_CYCLES: u64 = 2_000_000_000;

/// Campaign workers and daemon workers: the host's two CPUs.
pub const WORKERS: usize = 2;

/// Fewest timed iterations (and set-up repetitions) of a full run.
const MIN_ITERATIONS: usize = 3;

/// Per-run inputs and scratch state.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// The traced run: spans on, per-layer legs measured.
    pub trace: bool,
    /// Per-run scratch directory inside the checkout, removed at exit.
    pub tmp: PathBuf,
    pub spans: SpanLog,
    fresh: u32,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, smoke: bool, trace: bool, tmp: PathBuf) -> Self {
        Self {
            seed,
            seconds,
            smoke,
            trace,
            tmp,
            spans: SpanLog::new(false),
            fresh: 0,
        }
    }

    /// A new empty directory under the scratch root.
    pub fn fresh_dir(&mut self, tag: &str) -> PathBuf {
        self.fresh += 1;
        let dir = self.tmp.join(format!("{tag}-{}", self.fresh));
        std::fs::create_dir_all(&dir).expect("create scratch dir inside the checkout");
        dir
    }
}

/// Ops attempted and failed, with the reason for each failure.
#[derive(Default)]
pub struct Checks {
    pub ops: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one op (a run, a job or a request); `ok == false` fails it.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed check that is not an op of its own (a
    /// fingerprint mismatch, a byte difference).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(what);
        }
    }

    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// Per-layer values by metric name (traced run only).
pub type Layers = Vec<(&'static str, f64)>;

/// One iteration's samples by metric name, and the fingerprint of the
/// simulated results it produced.
pub struct Iter {
    pub samples: Vec<(&'static str, f64)>,
    pub fingerprint: u64,
}

/// What a workload hands back.
pub struct Report {
    pub checks: Checks,
    /// Wall seconds of each set-up repetition.
    pub setup: Vec<f64>,
    /// Wall seconds of each timed iteration: input handed over to
    /// checked output in hand.
    pub iter_wall: Vec<f64>,
    /// Timed iterations' samples, by metric.
    pub metrics: Vec<(&'static str, Vec<f64>)>,
    pub layers: Layers,
    pub fingerprint: u64,
}

impl Report {
    /// Closes a workload's books: the timed iterations' samples plus
    /// whatever per-layer values the traced run collected.
    pub fn new(mut checks: Checks, setup: Vec<f64>, timed: Samples, mut layers: Layers) -> Self {
        if let Some(pct) = timed.trace_overhead_pct {
            layers.push(("trace_overhead_pct", pct));
        }
        checks.require(!timed.walls.is_empty(), || "no iteration ran".into());
        Report {
            setup,
            iter_wall: timed.walls,
            metrics: timed.by_name,
            layers,
            fingerprint: timed.fingerprint.unwrap_or(0),
            checks,
        }
    }

    pub fn metric(&self, name: &str) -> Option<&[f64]> {
        let found = self.metrics.iter().find(|m| m.0 == name);
        found.map(|m| m.1.as_slice())
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Runs `build` several times and returns the last build with every
/// repetition's wall time: at least three times and for at least 0.3 s
/// (a millisecond set-up needs many samples), but a set-up that takes
/// seconds is not repeated past 1.5 s. Smoke and traced runs set up
/// once.
pub fn setup<T>(ctx: &mut Ctx, mut build: impl FnMut(&mut Ctx) -> T) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        let built = build(ctx);
        walls.push(t.elapsed().as_secs_f64());
        let spent = started.elapsed().as_secs_f64();
        let enough = (walls.len() >= MIN_ITERATIONS && spent >= 0.3) || spent >= 1.5;
        if enough || ctx.smoke || ctx.trace || walls.len() >= 200 {
            return (built, walls);
        }
        drop(built);
    }
}

/// Samples of every iteration, by metric.
#[derive(Default)]
pub struct Samples {
    by_name: Vec<(&'static str, Vec<f64>)>,
    pub walls: Vec<f64>,
    pub fingerprint: Option<u64>,
    /// Traced-over-untraced iteration wall, in percent (traced run only).
    pub trace_overhead_pct: Option<f64>,
}

impl Samples {
    /// Times one iteration and files its samples; every iteration of a
    /// run must produce the same fingerprint.
    pub fn record(&mut self, checks: &mut Checks, body: impl FnOnce(&mut Checks) -> Iter) {
        let t = Instant::now();
        let it = body(checks);
        self.walls.push(t.elapsed().as_secs_f64());
        for (name, v) in it.samples {
            match self.by_name.iter_mut().find(|m| m.0 == name) {
                Some(m) => m.1.push(v),
                None => self.by_name.push((name, vec![v])),
            }
        }
        match self.fingerprint {
            None => self.fingerprint = Some(it.fingerprint),
            Some(f) => checks.require(f == it.fingerprint, || {
                format!(
                    "sim_fingerprint changed between iterations: {f:016x} then {:016x}",
                    it.fingerprint
                )
            }),
        }
    }
}

/// The closed measurement loop: one discarded warm-up iteration (with
/// `verify` set, so the golden checks run there), then timed
/// iterations until `ctx.seconds` have passed, at least three. A smoke
/// run times one iteration.
pub fn iterate(
    ctx: &mut Ctx,
    checks: &mut Checks,
    mut body: impl FnMut(&mut Ctx, &mut Checks, bool) -> Iter,
) -> Samples {
    let mut warm = Samples::default();
    warm.record(checks, |c| body(ctx, c, true));
    let mut timed = Samples {
        fingerprint: warm.fingerprint,
        ..Samples::default()
    };
    if ctx.trace {
        // The traced run: one iteration with spans off, one with spans
        // on; the difference between the two is the tracing overhead.
        for on in [false, true] {
            ctx.spans.set_enabled(on);
            ctx.spans.next_id();
            ctx.spans.enter("iteration");
            timed.record(checks, |c| body(ctx, c, false));
            ctx.spans.exit();
        }
        let (off, on) = (timed.walls[0], timed.walls[1]);
        timed.trace_overhead_pct = Some((on - off) / off * 100.0);
        return timed;
    }
    let min = if ctx.smoke { 1 } else { MIN_ITERATIONS };
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while timed.walls.len() < min || (!ctx.smoke && Instant::now() < deadline) {
        timed.record(checks, |c| body(ctx, c, false));
    }
    timed
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
