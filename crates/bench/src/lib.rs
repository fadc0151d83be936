//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each binary under `src/bin/` reproduces one artifact:
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `table2` | Table 2 — ARM vs TG cycles, error %, wall times, gain |
//! | `validation` | §6 experiment 1 — `.tgp` identity across interconnects |
//! | `overhead` | §6 — trace-collection and translation overhead |
//! | `figure2` | Figure 2 — OCP transaction timelines |
//! | `figure3` | Figure 3 — `.trc` listing → `.tgp` listing |
//! | `ablation_reactivity` | §3 — clone vs timeshift vs reactive accuracy |
//! | `explore` | §1 motivation — one TG program set, four interconnects |
//!
//! The benches under `benches/` (on the in-tree [`minibench`] harness)
//! measure the same ARM-vs-TG simulation-speed contrast repeatedly.
//! Speed claims are measured by the repo benchmark (`benchmark/run.sh`),
//! not here.
//!
//! This library holds the shared machinery: running a reference
//! simulation, translating its traces, replaying with TGs, and
//! formatting result tables.

// The counting allocator behind `alloc-count` is the one place the
// workspace needs `unsafe` (GlobalAlloc is an unsafe trait); every other
// configuration keeps the blanket ban.
#![cfg_attr(not(feature = "alloc-count"), forbid(unsafe_code))]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use ntg_core::{assemble, TgImage, TgProgram, TraceTranslator, TranslationMode};
use ntg_platform::{InterconnectChoice, Platform, RunReport};
use ntg_workloads::Workload;

/// Upper bound on simulated cycles for any harness run.
pub const MAX_CYCLES: u64 = 2_000_000_000;

/// One row of the reproduced Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Number of processors.
    pub cores: usize,
    /// Cumulative execution time (cycles) with ARM-style CPU cores.
    pub arm_cycles: u64,
    /// Cumulative execution time (cycles) with traffic generators.
    pub tg_cycles: u64,
    /// Host wall time of the CPU simulation.
    pub arm_wall: Duration,
    /// Host wall time of the TG simulation.
    pub tg_wall: Duration,
}

impl Table2Row {
    /// Cycle-count error of the TG replay, percent.
    pub fn error_pct(&self) -> f64 {
        (self.tg_cycles as f64 - self.arm_cycles as f64).abs() / self.arm_cycles as f64 * 100.0
    }

    /// Simulation-time gain of the TG platform.
    pub fn gain(&self) -> f64 {
        self.arm_wall.as_secs_f64() / self.tg_wall.as_secs_f64().max(1e-9)
    }
}

/// Runs the complete TG flow for one workload/core-count and returns the
/// Table 2 row.
///
/// The wall-time comparison runs both platforms with tracing *off* (the
/// paper times plain runs; trace collection is a separate one-time cost
/// measured by the `overhead` binary). Wall times take the minimum over
/// `repeats` runs, like the paper's "averaging over multiple runs" with
/// care to suppress noise.
///
/// # Panics
///
/// Panics if any run fails to complete, a master faults, or a workload's
/// golden-model verification fails — an experiment with broken
/// functional results must not silently produce numbers.
pub fn table2_row(workload: Workload, cores: usize, repeats: usize) -> Table2Row {
    let repeats = repeats.max(1);
    // 1. Reference timing runs (tracing off).
    let mut arm_cycles = 0;
    let mut arm_wall = Duration::MAX;
    for i in 0..repeats {
        let mut p = workload
            .build_platform(cores, InterconnectChoice::Amba, false)
            .expect("build reference platform");
        let report = run_checked(&mut p, &format!("{} {cores}P ARM", workload.name()));
        if i == 0 {
            workload
                .verify(&p, cores)
                .expect("reference run must produce the golden result");
        }
        arm_cycles = report.execution_time().expect("all cores halted");
        arm_wall = arm_wall.min(report.wall_time);
    }
    // 2. One traced run + translation.
    let images = trace_and_translate(workload, cores, InterconnectChoice::Amba);
    // 3. TG timing runs.
    let mut tg_cycles = 0;
    let mut tg_wall = Duration::MAX;
    for i in 0..repeats {
        let mut p = workload
            .build_tg_platform(images.clone(), InterconnectChoice::Amba, false)
            .expect("build TG platform");
        let report = run_checked(&mut p, &format!("{} {cores}P TG", workload.name()));
        if i == 0 {
            workload
                .verify(&p, cores)
                .expect("TG replay must reproduce the golden memory image");
        }
        tg_cycles = report.execution_time().expect("all TGs halted");
        tg_wall = tg_wall.min(report.wall_time);
    }
    Table2Row {
        bench: workload.name(),
        cores,
        arm_cycles,
        tg_cycles,
        arm_wall,
        tg_wall,
    }
}

/// Runs a reference simulation with tracing and translates every core's
/// trace into an assembled TG image.
pub fn trace_and_translate(
    workload: Workload,
    cores: usize,
    interconnect: InterconnectChoice,
) -> Vec<TgImage> {
    translate_programs(workload, cores, interconnect, TranslationMode::Reactive)
        .into_iter()
        .map(|p| assemble(&p).expect("translated programs assemble"))
        .collect()
}

/// As [`trace_and_translate`], but returns the symbolic programs and
/// allows selecting the fidelity mode.
pub fn translate_programs(
    workload: Workload,
    cores: usize,
    interconnect: InterconnectChoice,
    mode: TranslationMode,
) -> Vec<TgProgram> {
    let mut p = workload
        .build_platform(cores, interconnect, true)
        .expect("build traced platform");
    run_checked(&mut p, &format!("{} {cores}P trace", workload.name()));
    let translator = TraceTranslator::new(p.translator_config(mode));
    (0..cores)
        .map(|c| {
            translator
                .translate(&p.trace(c).expect("tracing was on"))
                .expect("translate")
        })
        .collect()
}

/// Runs a platform to completion, asserting success.
///
/// # Panics
///
/// Panics if the run hits the cycle limit or any master faults.
pub fn run_checked(platform: &mut Platform, what: &str) -> RunReport {
    let report = platform.run(MAX_CYCLES);
    assert!(report.completed, "{what}: did not complete");
    assert!(
        report.faults.is_empty(),
        "{what}: faults {:?}",
        report.faults
    );
    report
}

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

/// Replays TG images on a given interconnect and returns the run report.
pub fn replay(
    workload: Workload,
    images: Vec<TgImage>,
    interconnect: InterconnectChoice,
) -> RunReport {
    let mut p = workload
        .build_tg_platform(images, interconnect, false)
        .expect("build TG platform");
    run_checked(
        &mut p,
        &format!("{} replay on {interconnect}", workload.name()),
    )
}

/// Formats a slice of rows as the paper's Table 2.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("#IPs | Cumulative Execution Time          | Simulation Time\n");
    out.push_str("     | ARM          TG           Error    | ARM        TG         Gain\n");
    let mut last_bench = "";
    for r in rows {
        if r.bench != last_bench {
            out.push_str(&format!("{}:\n", r.bench));
            last_bench = r.bench;
        }
        out.push_str(&format!(
            "{:>3}P | {:>12} {:>12} {:>7.2}% | {:>8.3}s {:>8.3}s {:>6.2}x\n",
            r.cores,
            r.arm_cycles,
            r.tg_cycles,
            r.error_pct(),
            r.arm_wall.as_secs_f64(),
            r.tg_wall.as_secs_f64(),
            r.gain(),
        ));
    }
    out
}

/// The workload sizes used for the full Table 2 reproduction.
///
/// Scaled so the whole sweep runs in minutes on a laptop while keeping
/// every phenomenon of the paper's table (near-zero error, gain rising
/// with cores for Cacheloop, gain sagging under bus saturation for
/// MP matrix / DES).
pub fn paper_workloads() -> Vec<Workload> {
    vec![
        Workload::SpMatrix { n: 16 },
        Workload::Cacheloop { iterations: 60_000 },
        Workload::MpMatrix { n: 24 },
        Workload::Des {
            blocks_per_core: 24,
        },
    ]
}

/// Smaller sizes for quick smoke runs and Criterion benches.
pub fn quick_workloads() -> Vec<Workload> {
    vec![
        Workload::SpMatrix { n: 8 },
        Workload::Cacheloop { iterations: 5_000 },
        Workload::MpMatrix { n: 12 },
        Workload::Des { blocks_per_core: 4 },
    ]
}

/// Measures host wall time of a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Median of a sample of durations. Empty samples yield zero.
pub fn median(samples: &mut [Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Minimal stand-in for the slice of the Criterion API the `benches/`
/// targets use, so they build (and run) without registry access.
///
/// The workspace is offline-first: Criterion cannot be fetched, but the
/// bench targets should still compile under `--features external-deps`
/// (CI checks exactly that) and produce usable numbers when run. This
/// module implements `Criterion::benchmark_group`, group `sample_size` /
/// `measurement_time` / `bench_function`, and `Bencher::iter` with
/// median-of-samples reporting — the full surface those files touch. If
/// the real Criterion is ever restored as a dev-dependency, switching
/// back is a one-line import change per bench.
pub mod minibench {
    use std::time::{Duration, Instant};

    pub use crate::{criterion_group, criterion_main};

    /// Bench context; collects nothing globally, groups do the work.
    #[derive(Default)]
    pub struct Criterion;

    impl Criterion {
        /// Starts a named group of related measurements.
        pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
            println!("group {name}");
            BenchmarkGroup {
                sample_size: 10,
                measurement_time: Duration::from_secs(3),
            }
        }
    }

    /// A named set of measurements sharing sampling parameters.
    pub struct BenchmarkGroup {
        sample_size: usize,
        measurement_time: Duration,
    }

    impl BenchmarkGroup {
        /// Number of timed samples per benchmark.
        pub fn sample_size(&mut self, n: usize) -> &mut Self {
            self.sample_size = n.max(1);
            self
        }

        /// Soft cap on total measurement time per benchmark.
        pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
            self.measurement_time = t;
            self
        }

        /// As [`bench_function`](Self::bench_function), with a borrowed
        /// input threaded through to the closure.
        pub fn bench_with_input<I: ?Sized>(
            &mut self,
            id: impl std::fmt::Display,
            input: &I,
            mut f: impl FnMut(&mut Bencher, &I),
        ) -> &mut Self {
            self.bench_function(id, |b| f(b, input))
        }

        /// Runs one benchmark and prints its median/mean sample time.
        pub fn bench_function(
            &mut self,
            name: impl std::fmt::Display,
            mut f: impl FnMut(&mut Bencher),
        ) -> &mut Self {
            let mut b = Bencher {
                samples: Vec::with_capacity(self.sample_size),
            };
            // One untimed warmup pass, then sample until either the
            // sample budget or the time budget runs out.
            f(&mut b);
            b.samples.clear();
            let start = Instant::now();
            while b.samples.len() < self.sample_size && start.elapsed() < self.measurement_time {
                f(&mut b);
            }
            let mean = b.samples.iter().sum::<Duration>() / b.samples.len().max(1) as u32;
            let med = crate::median(&mut b.samples);
            println!(
                "  {name}: median {:>12.6}s  mean {:>12.6}s  ({} samples)",
                med.as_secs_f64(),
                mean.as_secs_f64(),
                b.samples.len(),
            );
            self
        }

        /// Ends the group (parity with Criterion; nothing to flush).
        pub fn finish(&mut self) {}
    }

    /// A benchmark identifier combining a function name and a parameter,
    /// mirroring Criterion's type of the same name.
    pub struct BenchmarkId(String);

    impl BenchmarkId {
        /// `name/parameter`.
        pub fn new(name: &str, parameter: impl std::fmt::Display) -> Self {
            Self(format!("{name}/{parameter}"))
        }

        /// Just the parameter (for single-function sweeps).
        pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
            Self(parameter.to_string())
        }
    }

    impl std::fmt::Display for BenchmarkId {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Passed to the closure under measurement; times `iter` bodies.
    pub struct Bencher {
        samples: Vec<Duration>,
    }

    impl Bencher {
        /// Times one execution of `f` per call and records the sample.
        pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
            let start = Instant::now();
            let v = f();
            self.samples.push(start.elapsed());
            drop(v);
        }
    }

    /// Builds a runner function from benchmark functions, mirroring
    /// Criterion's macro of the same name.
    #[macro_export]
    macro_rules! criterion_group {
        ($name:ident, $($target:path),+ $(,)?) => {
            fn $name() {
                let mut c = $crate::minibench::Criterion::default();
                $( $target(&mut c); )+
            }
        };
    }

    /// Emits `main` for a bench binary, mirroring Criterion's macro.
    #[macro_export]
    macro_rules! criterion_main {
        ($($group:path),+ $(,)?) => {
            fn main() {
                $( $group(); )+
            }
        };
    }
}

/// Heap-allocation accounting via a counting global allocator.
///
/// Enabled with `--features alloc-count`; the module still exists (with
/// counters pinned at zero and [`enabled`](alloc_count::enabled) false)
/// when the feature is off, so callers need no `cfg` of their own.
pub mod alloc_count {
    #[cfg(feature = "alloc-count")]
    mod imp {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::sync::atomic::{AtomicU64, Ordering};

        static ALLOCS: AtomicU64 = AtomicU64::new(0);
        static BYTES: AtomicU64 = AtomicU64::new(0);

        /// Forwards to [`System`], counting every allocation.
        ///
        /// `dealloc` is deliberately not counted: the regression tests
        /// assert on *allocations performed*, and frees of warmup-era
        /// buffers would otherwise mask fresh churn.
        pub struct CountingAlloc;

        // SAFETY: every method forwards verbatim to `System`; the only
        // additions are relaxed atomic increments, which cannot violate
        // the GlobalAlloc contract.
        unsafe impl GlobalAlloc for CountingAlloc {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
                BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
                unsafe { System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                unsafe { System.dealloc(ptr, layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
                BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
                unsafe { System.realloc(ptr, layout, new_size) }
            }
        }

        #[global_allocator]
        static COUNTER: CountingAlloc = CountingAlloc;

        pub fn allocations() -> u64 {
            ALLOCS.load(Ordering::Relaxed)
        }

        pub fn bytes() -> u64 {
            BYTES.load(Ordering::Relaxed)
        }
    }

    /// Total heap allocations performed by this process so far.
    pub fn allocations() -> u64 {
        #[cfg(feature = "alloc-count")]
        {
            imp::allocations()
        }
        #[cfg(not(feature = "alloc-count"))]
        {
            0
        }
    }

    /// Total bytes requested from the allocator so far.
    pub fn bytes() -> u64 {
        #[cfg(feature = "alloc-count")]
        {
            imp::bytes()
        }
        #[cfg(not(feature = "alloc-count"))]
        {
            0
        }
    }

    /// Whether the counting allocator is actually installed.
    pub fn enabled() -> bool {
        cfg!(feature = "alloc-count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row_for_tiny_sp_matrix() {
        let row = table2_row(Workload::SpMatrix { n: 4 }, 1, 1);
        assert_eq!(row.bench, "SP matrix");
        assert!(row.arm_cycles > 0);
        assert!(row.error_pct() < 2.0, "error {}%", row.error_pct());
    }

    #[test]
    fn formatting_contains_all_rows() {
        let rows = vec![
            Table2Row {
                bench: "SP matrix",
                cores: 1,
                arm_cycles: 1000,
                tg_cycles: 1001,
                arm_wall: Duration::from_millis(10),
                tg_wall: Duration::from_millis(5),
            },
            Table2Row {
                bench: "DES",
                cores: 4,
                arm_cycles: 2000,
                tg_cycles: 2000,
                arm_wall: Duration::from_millis(20),
                tg_wall: Duration::from_millis(10),
            },
        ];
        let s = format_table2(&rows);
        assert!(s.contains("SP matrix:"));
        assert!(s.contains("DES:"));
        assert!(s.contains("2.00x"));
    }
}
