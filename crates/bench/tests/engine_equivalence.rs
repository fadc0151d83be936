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
//!
//! The last suite feeds the wake-hint contract generated inputs: TG
//! programs drawn from a fixed-seed xorshift generator (every opcode,
//! bursts, `If`/`Jump` loops, semaphore critical sections, `Idle` and
//! `IdleUntil`) next to `StochasticTg` sources, on every fabric model,
//! run to completion and cut at a random cycle. A failure names the
//! seed and case that reproduce it.

use ntg_bench::{quick_workloads, run_oracle, trace_and_translate, MAX_CYCLES};
use ntg_core::{
    assemble, GapDistribution, StochasticConfig, TgCond, TgImage, TgProgram, TgReg, TgSymInstr,
    RDREG,
};
use ntg_platform::mem_map::{private_base, semaphore, SHARED_BASE};
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

/// Runs one recipe to completion (within `max_cycles`) through both
/// engines and compares. Returns `run`'s report for engagement canaries.
fn check(what: &str, max_cycles: u64, build: impl Fn() -> Platform) -> RunReport {
    let ran = run(build(), max_cycles);
    assert!(ran.report.completed, "{what}: run did not complete");
    assert!(
        ran.report.faults.is_empty(),
        "{what}: {:?}",
        ran.report.faults
    );
    assert_equivalent(what, &ran, &oracle(build(), max_cycles));
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
            let report = check(
                &format!("{workload} {cores}P cpu {fabric}"),
                MAX_CYCLES,
                || {
                    workload
                        .build_platform(cores, fabric, true)
                        .expect("build platform")
                },
            );
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
            let report = check(
                &format!("{workload} {cores}P tg {fabric}"),
                MAX_CYCLES,
                || {
                    workload
                        .build_tg_platform(images.clone(), fabric, true)
                        .expect("build TG platform")
                },
            );
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
            let report = check(&format!("{desc} 4P synthetic {fabric}"), MAX_CYCLES, || {
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
    check("transpose@0.4 6P 4x4", MAX_CYCLES, || {
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
        let report = check(&what, MAX_CYCLES, || {
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

/// Seed of the generated-input suite; every case derives from it.
const SEED: u64 = 0x4E54_4748_494E_5453;
const CASES: u64 = 48;
/// Generated programs finish in a few thousand cycles; a case that has
/// not by this cycle livelocked, which `check` reports.
const GENERATED_LIMIT: u64 = 500_000;

struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Self((seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Register roles in generated programs (`rdreg` receives read data).
const ZERO: TgReg = TgReg::new(1);
const ONE: TgReg = TgReg::new(2);
const ADDR: TgReg = TgReg::new(3);
const DATA: TgReg = TgReg::new(4);
const COUNT: TgReg = TgReg::new(5);
const PASS: TgReg = TgReg::new(6);
const SEM: TgReg = TgReg::new(7);
/// `r8..r15` hold small random values for data-dependent branches.
const FIRST_FREE: u8 = 8;

/// Emits one generated program fragment for master `m`.
struct Gen<'a> {
    rng: &'a mut Xorshift,
    p: TgProgram,
    m: usize,
    labels: u32,
}

impl Gen<'_> {
    fn label(&mut self) -> String {
        self.labels += 1;
        format!("g{}", self.labels)
    }

    fn set(&mut self, reg: TgReg, value: u32) {
        self.p.push(TgSymInstr::SetRegister(reg, value));
    }

    /// A word in this master's private memory or in shared memory.
    fn memory_word(&mut self) -> u32 {
        let base = if self.rng.below(2) == 0 {
            private_base(self.m)
        } else {
            SHARED_BASE
        };
        base + 4 * self.rng.below(64) as u32
    }

    fn branch_operand(&mut self) -> TgReg {
        match self.rng.below(4) {
            0 => RDREG,
            1 => ZERO,
            2 => ONE,
            _ => TgReg::new(FIRST_FREE + self.rng.below(8) as u8),
        }
    }

    /// One bus access, wait or forward branch; never a loop.
    fn plain(&mut self) {
        match self.rng.below(7) {
            0 => {
                let addr = self.memory_word();
                self.set(ADDR, addr);
                self.p.push(TgSymInstr::Read(ADDR));
            }
            1 => {
                let (addr, data) = (self.memory_word(), self.rng.next() as u32);
                self.set(ADDR, addr);
                self.set(DATA, data);
                self.p.push(TgSymInstr::Write(ADDR, DATA));
            }
            2 => {
                let (addr, beats) = (self.memory_word(), 1 + self.rng.below(8) as u32);
                self.set(ADDR, addr);
                self.set(COUNT, beats);
                self.p.push(TgSymInstr::BurstRead(ADDR, COUNT));
            }
            3 => {
                let (addr, data) = (self.memory_word(), self.rng.next() as u32);
                let beats = 1 + self.rng.below(8) as u32;
                self.set(ADDR, addr);
                self.set(DATA, data);
                self.set(COUNT, beats);
                self.p.push(TgSymInstr::BurstWrite(ADDR, DATA, COUNT));
            }
            4 => {
                let cycles = 1 + self.rng.below(40) as u32;
                self.p.push(TgSymInstr::Idle(cycles));
            }
            // Often already in the past by the time it executes.
            5 => {
                let cycle = self.rng.below(3_000);
                self.p.push(TgSymInstr::IdleUntil(cycle));
            }
            _ => {
                let (a, b) = (self.branch_operand(), self.branch_operand());
                let cond =
                    [TgCond::Eq, TgCond::Ne, TgCond::Ltu, TgCond::Geu][self.rng.below(4) as usize];
                let skip = self.label();
                self.p.push(TgSymInstr::If(a, b, cond, skip.clone()));
                let body = self.rng.below(3);
                for _ in 0..=body {
                    self.plain();
                }
                self.p.label(skip);
            }
        }
    }

    /// A top-level block: a plain fragment, a loop that runs its body
    /// twice (`If`/`Jump` on a pass flag — the ISA has no arithmetic),
    /// or a critical section on one of four contended semaphores,
    /// acquired by polling the way the translator's `Semchk` loops do.
    fn block(&mut self) {
        match self.rng.below(6) {
            0 => {
                let (top, out) = (self.label(), self.label());
                self.set(PASS, 0);
                self.p.label(top.clone());
                let body = self.rng.below(3);
                for _ in 0..=body {
                    self.plain();
                }
                self.p
                    .push(TgSymInstr::If(PASS, ONE, TgCond::Eq, out.clone()));
                self.set(PASS, 1);
                self.p.push(TgSymInstr::Jump(top));
                self.p.label(out);
            }
            1 => {
                let poll = self.label();
                let cell = self.rng.below(4) as u32;
                self.set(SEM, semaphore(cell));
                self.p.label(poll.clone());
                self.p.push(TgSymInstr::Read(SEM));
                self.p.push(TgSymInstr::If(RDREG, ZERO, TgCond::Eq, poll));
                let body = self.rng.below(3);
                for _ in 0..=body {
                    self.plain();
                }
                self.p.push(TgSymInstr::Write(SEM, ONE));
            }
            _ => self.plain(),
        }
    }
}

/// A generated TG image for master `m` of `blocks` top-level blocks.
fn generated_image(rng: &mut Xorshift, m: usize, blocks: u64) -> TgImage {
    let mut p = TgProgram::new(m as u16);
    p.inits = vec![(ZERO, 0), (ONE, 1)];
    for r in FIRST_FREE..16 {
        p.inits.push((TgReg::new(r), rng.below(4) as u32));
    }
    let mut gen = Gen {
        rng,
        p,
        m,
        labels: 0,
    };
    for _ in 0..blocks {
        gen.block();
    }
    gen.p.push(TgSymInstr::Halt);
    assemble(&gen.p).expect("generated programs assemble")
}

/// A stochastic source over master `m`'s private and the shared memory.
fn generated_stochastic(rng: &mut Xorshift, m: usize) -> StochasticConfig {
    StochasticConfig {
        seed: rng.next(),
        ranges: vec![(private_base(m), 0x100), (SHARED_BASE, 0x100)],
        write_fraction: 0.4,
        burst_fraction: 0.3,
        gap: match rng.below(3) {
            0 => GapDistribution::Uniform { min: 0, max: 20 },
            1 => GapDistribution::Geometric { mean: 8 },
            _ => GapDistribution::Fixed { gap: 3 },
        },
        transactions: 10 + rng.below(40),
    }
}

#[test]
fn generated_tg_programs_match_the_oracle_complete_and_capped() {
    let mut sparse_won = false;
    for case in 0..CASES {
        let mut rng = Xorshift::new(SEED ^ case);
        let tgs = 1 + rng.below(4) as usize;
        let stochastic = rng.below(3) as usize;
        let images: Vec<TgImage> = (0..tgs)
            .map(|m| {
                let blocks = 4 + rng.below(16);
                generated_image(&mut rng, m, blocks)
            })
            .collect();
        let sources: Vec<StochasticConfig> = (tgs..tgs + stochastic)
            .map(|m| generated_stochastic(&mut rng, m))
            .collect();
        let build = |fabric| {
            let mut b = PlatformBuilder::new();
            b.interconnect(fabric).tracing(true);
            for image in &images {
                b.add_tg(image.clone());
            }
            for cfg in &sources {
                b.add_stochastic(cfg.clone());
            }
            b.build().expect("build generated platform")
        };
        for fabric in [
            InterconnectChoice::Amba,
            InterconnectChoice::Crossbar,
            InterconnectChoice::Ideal,
            InterconnectChoice::Xpipes,
        ] {
            let what = format!(
                "seed {SEED:#x} case {case}: {tgs} generated TG + {stochastic} stochastic on {fabric}"
            );
            let whole = check(&what, GENERATED_LIMIT, || build(fabric));
            sparse_won |= whole.visited_component_cycles < whole.total_component_cycles;
            let cap = 1 + rng.below(whole.cycles - 1);
            let capped = run(build(fabric), cap);
            assert_eq!(capped.report.cycles, cap, "{what}: stops at cap {cap}");
            assert_equivalent(
                &format!("{what}, capped at {cap}"),
                &capped,
                &oracle(build(fabric), cap),
            );
        }
    }
    assert!(sparse_won, "the wake wheel never saved a component visit");
}
