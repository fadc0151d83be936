//! Zero-allocation steady-state regression tests, one leg per way of
//! advancing a platform.
//!
//! **Dense leg (`Platform::step`).** With the inline `DataWords`
//! payloads and interned identifiers, the ticked hot path — master tick,
//! interconnect tick, slave tick — must not touch the heap at all once
//! the platform has warmed up: every request/response payload fits the
//! inline representation and every queue has reached its high-water
//! capacity. `step` ticks every component every cycle and builds no
//! report, so the counting global allocator sees the data plane alone;
//! a single new `Vec` per cycle anywhere in it fails the test.
//!
//! **Sparse leg (`Platform::run`).** The wake wheel, due queues,
//! catch-up table and visit buffer are all sized by component count when
//! `run` seeds the scheduler; from then on insert/expire/visit work on
//! intrusive lists and pre-grown buffers. `run` allocates at entry and
//! for its report, so this leg runs the same endless-traffic recipe to
//! a 100k-cycle bound and to a 400k bound and asserts the two
//! allocation counts are *equal* — seeding, queue growth and report
//! assembly cancel out, and any difference can only come from per-cycle
//! allocations in the extra 300k scheduled cycles.
//!
//! The counting allocator is global, so a test allocating concurrently
//! would poison a neighbour's diff: run this binary with
//! `--test-threads=1` (CI does). Runs only under
//! `--features alloc-count`; without the feature the file compiles to
//! nothing.

#![cfg(feature = "alloc-count")]

use ntg_bench::{alloc_count, trace_and_translate};
use ntg_platform::InterconnectChoice;
use ntg_workloads::synthetic::{build_synthetic_platform, SyntheticSpec};
use ntg_workloads::Workload;

#[test]
fn steady_state_ticks_do_not_allocate() {
    let workload = Workload::Cacheloop { iterations: 5_000 };
    let cores = 2;
    let images = trace_and_translate(workload, cores, InterconnectChoice::Amba);
    let mut p = workload
        .build_tg_platform(images, InterconnectChoice::Amba, false)
        .expect("build TG platform");
    // Tick-by-tick: `step` never skips, so every cycle exercises the
    // full data plane, and it builds no report that would allocate.

    // Warm up: first transactions grow channel queues and stats buffers
    // to their steady-state capacity.
    p.step(2_000);
    assert!(
        !p.is_quiesced(),
        "warmup must leave live traffic to measure"
    );

    let allocs_before = alloc_count::allocations();
    let bytes_before = alloc_count::bytes();
    p.step(10_000);
    let allocs = alloc_count::allocations() - allocs_before;
    let bytes = alloc_count::bytes() - bytes_before;

    assert_eq!(
        allocs, 0,
        "steady-state hot path allocated {allocs} times ({bytes} bytes) \
         over 10k cycles — the zero-copy data plane regressed"
    );
}

#[test]
fn steady_state_ticks_do_not_allocate_with_metrics_enabled() {
    // The opt-in metrics layer must stay counters-only on the hot
    // path: the windowed utilization series pre-allocates its buffer
    // when enabled and merges windows in place at capacity, so sampling
    // every ticked cycle adds zero steady-state allocations.
    let workload = Workload::Cacheloop { iterations: 5_000 };
    let cores = 2;
    let images = trace_and_translate(workload, cores, InterconnectChoice::Amba);
    let mut p = workload
        .build_tg_platform(images, InterconnectChoice::Amba, false)
        .expect("build TG platform");
    p.enable_metrics();

    p.step(2_000);
    assert!(
        !p.is_quiesced(),
        "warmup must leave live traffic to measure"
    );

    let allocs_before = alloc_count::allocations();
    let bytes_before = alloc_count::bytes();
    p.step(10_000);
    let allocs = alloc_count::allocations() - allocs_before;
    let bytes = alloc_count::bytes() - bytes_before;

    assert_eq!(
        allocs, 0,
        "metrics-enabled hot path allocated {allocs} times ({bytes} bytes) \
         over 10k cycles — the observer must be counters-only when on"
    );
}

#[test]
fn synthetic_steady_state_ticks_do_not_allocate() {
    // SyntheticTg generates traffic straight from its PRNG: no trace,
    // no program, no translation. With ≤4-word packets every payload
    // stays in the inline `DataWords` representation, so the generator
    // must be exactly as allocation-free as the TG replay — including
    // with the metrics observer sampling every cycle.
    let spec: SyntheticSpec = "uniform+bernoulli@0.1/4".parse().unwrap();
    let mut p = build_synthetic_platform(4, InterconnectChoice::Xpipes, spec, 1_000_000, 42)
        .expect("build synthetic platform");
    p.enable_metrics();

    p.step(2_000);
    assert!(
        !p.is_quiesced(),
        "warmup must leave live traffic to measure"
    );

    let allocs_before = alloc_count::allocations();
    let bytes_before = alloc_count::bytes();
    p.step(10_000);
    let allocs = alloc_count::allocations() - allocs_before;
    let bytes = alloc_count::bytes() - bytes_before;

    assert_eq!(
        allocs, 0,
        "synthetic steady state allocated {allocs} times ({bytes} bytes) \
         over 10k cycles — SyntheticTg must stay on the zero-copy plane"
    );
}

#[test]
fn two_platforms_on_two_threads_stay_allocation_free() {
    // The arena data plane makes a platform a plain `Send` value, so
    // campaign workers run whole platforms on worker threads. The
    // zero-steady-state-allocation property must hold there too — and
    // concurrently, since the counting allocator is global: any
    // per-cycle allocation on either thread shows up in the shared
    // counters. Both platforms warm up first (queue growth, lazy sync
    // primitives, thread bookkeeping) before the measured window opens.
    let workload = Workload::Cacheloop { iterations: 5_000 };
    let cores = 2;
    let images = trace_and_translate(workload, cores, InterconnectChoice::Amba);
    let build = || {
        let mut p = workload
            .build_tg_platform(images.clone(), InterconnectChoice::Amba, false)
            .expect("build TG platform");
        p.enable_metrics();
        p
    };
    let mut a = build();
    let mut b = build();

    // Warm up on the worker threads themselves so thread-spawn and
    // first-tick growth allocations land outside the measured window.
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let handles = [&mut a, &mut b].map(|p| {
            let barrier = &barrier;
            s.spawn(move || {
                p.step(2_000);
                assert!(!p.is_quiesced(), "warmup must leave live traffic");
                barrier.wait();
                let allocs_before = alloc_count::allocations();
                p.step(10_000);
                alloc_count::allocations() - allocs_before
            })
        });
        for h in handles {
            let allocs = h.join().unwrap();
            assert_eq!(
                allocs, 0,
                "concurrent steady-state hot path allocated {allocs} times \
                 over 10k cycles — the Send data plane regressed"
            );
        }
    });
}

/// Allocations for one bounded `run`, start to finish.
fn run_allocations(bound: u64) -> u64 {
    // Effectively endless traffic: the packet budget outlives both
    // bounds by orders of magnitude, so each run is cut off mid-flight
    // with the wheel still cycling sleep/wake for every master.
    let spec: SyntheticSpec = "uniform+bernoulli@0.1/4".parse().unwrap();
    let mut p = build_synthetic_platform(6, InterconnectChoice::Mesh(4, 4), spec, 1_000_000, 42)
        .expect("build synthetic platform");
    p.enable_metrics();
    let before = alloc_count::allocations();
    let report = p.run(bound);
    let allocs = alloc_count::allocations() - before;
    assert!(!report.completed, "traffic must outlive the {bound} bound");
    assert_eq!(report.cycles, bound, "run must stop at the bound");
    assert!(
        report.visited_component_cycles < report.total_component_cycles,
        "the wake wheel never engaged ({} of {})",
        report.visited_component_cycles,
        report.total_component_cycles,
    );
    allocs
}

#[test]
fn run_steady_state_does_not_allocate() {
    // Two measurement hazards, both handled. The first run in a process
    // carries one-time lazy initialisations (thread-locals, stdio), so a
    // warm-up run is measured and discarded. And queue high-water marks
    // keep growing for a while: this recipe's last capacity doubling
    // lands between cycle 50k and 100k, after which the counts sit on a
    // plateau — both compared bounds are on it.
    let _warmup = run_allocations(100_000);
    let short = run_allocations(100_000);
    let long = run_allocations(400_000);
    assert_eq!(
        long,
        short,
        "the extra 300k scheduled cycles allocated {} times — the wake \
         wheel must stay allocation-free after seeding",
        long.abs_diff(short)
    );
}
