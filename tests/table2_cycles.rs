//! Tier-1 timing guard: four small Table-2 points with their exact
//! completion cycles, retired-instruction counts and cache statistics
//! pinned, plus the paper's ≤ 1.52 % TG-vs-CPU cycle-error bound on each.
//! The workspace suites and the repo benchmark check the same contract
//! at scale, but the root `cargo test -q` runs only this package — a
//! timing change in the Srisc core (or its caches, or the AMBA model)
//! must fail here, and so must a cache-bookkeeping change that moves a
//! hit or an eviction without moving a cycle.

use ntg::cpu::{CacheStats, CpuStats};
use ntg::platform::{InterconnectChoice, MasterReport};
use ntg::tg::{assemble, TraceTranslator, TranslationMode};
use ntg::workloads::Workload;

const MAX: u64 = 200_000_000;

/// The paper's worst Table-2 error.
const MAX_ERROR_PCT: f64 = 1.52;

struct Point {
    workload: Workload,
    cores: usize,
    /// Cycles the reference run takes to quiesce (`RunReport::cycles`).
    cycles: u64,
    /// Every `CpuStats` field, summed over the cores.
    stats: CpuStats,
}

/// `CacheStats` from `[read_hits, read_misses, write_hits, write_misses,
/// fills, evictions]`.
const fn cache(c: [u64; 6]) -> CacheStats {
    CacheStats {
        read_hits: c[0],
        read_misses: c[1],
        write_hits: c[2],
        write_misses: c[3],
        fills: c[4],
        evictions: c[5],
    }
}

/// `CpuStats` from `[instructions, bus_reads, bus_writes, refills]` and
/// the two caches.
const fn cpu(c: [u64; 4], icache: [u64; 6], dcache: [u64; 6]) -> CpuStats {
    CpuStats {
        instructions: c[0],
        bus_reads: c[1],
        bus_writes: c[2],
        refills: c[3],
        icache: cache(icache),
        dcache: cache(dcache),
    }
}

const POINTS: [Point; 4] = [
    Point {
        workload: Workload::SpMatrix { n: 16 },
        cores: 1,
        cycles: 74_199,
        stats: cpu(
            [65_622, 0, 769, 973],
            [65_622, 18, 0, 0, 18, 0],
            [7_493, 955, 0, 768, 955, 891],
        ),
    },
    Point {
        workload: Workload::Cacheloop { iterations: 60_000 },
        cores: 2,
        cycles: 300_062,
        stats: cpu([600_018, 0, 0, 8], [600_018, 8, 0, 0, 8, 0], [0; 6]),
    },
    Point {
        workload: Workload::Des {
            blocks_per_core: 24,
        },
        cores: 3,
        cycles: 18_204,
        stats: cpu(
            [42_970, 356, 291, 686],
            [42_970, 72, 0, 0, 72, 0],
            [5_146, 614, 0, 0, 614, 422],
        ),
    },
    // Uncached shared loads, write-through stores and dcache evictions.
    Point {
        workload: Workload::MpMatrix { n: 12 },
        cores: 4,
        cycles: 40_635,
        stats: cpu(
            [113_076, 1_322, 1_832, 476],
            [113_076, 112, 0, 0, 112, 0],
            [13_460, 364, 0, 1_728, 364, 108],
        ),
    },
];

fn add_cache(sum: &mut CacheStats, c: &CacheStats) {
    sum.read_hits += c.read_hits;
    sum.read_misses += c.read_misses;
    sum.write_hits += c.write_hits;
    sum.write_misses += c.write_misses;
    sum.fills += c.fills;
    sum.evictions += c.evictions;
}

#[test]
fn table2_points_keep_their_cycles_and_instruction_counts() {
    for point in &POINTS {
        let (w, cores) = (point.workload, point.cores);
        let what = format!("{w}@{cores}P/amba");
        let mut reference = w
            .build_platform(cores, InterconnectChoice::Amba, true)
            .expect("build reference");
        let report = reference.run(MAX);
        assert!(report.completed, "{what}: reference incomplete");
        assert!(report.faults.is_empty(), "{what}: {:?}", report.faults);
        w.verify(&reference, cores)
            .expect("reference golden result");
        let ref_cycles = report.execution_time().expect("every core halted");
        let mut stats = CpuStats::default();
        for master in &report.masters {
            let MasterReport::Cpu(core) = master else {
                panic!("{what}: unexpected master {master:?}");
            };
            stats.instructions += core.instructions;
            stats.bus_reads += core.bus_reads;
            stats.bus_writes += core.bus_writes;
            stats.refills += core.refills;
            add_cache(&mut stats.icache, &core.icache);
            add_cache(&mut stats.dcache, &core.dcache);
        }
        assert_eq!(report.cycles, point.cycles, "{what}: run cycles");
        assert_eq!(stats, point.stats, "{what}: CPU statistics");

        let translator =
            TraceTranslator::new(reference.translator_config(TranslationMode::Reactive));
        let images = (0..cores)
            .map(|c| {
                let trace = reference.trace(c).expect("tracing was on");
                assemble(&translator.translate(&trace).expect("translate")).expect("assemble")
            })
            .collect();
        let mut replay = w
            .build_tg_platform(images, InterconnectChoice::Amba, false)
            .expect("build TG platform");
        let tg_report = replay.run(MAX);
        assert!(tg_report.completed, "{what}: TG replay incomplete");
        w.verify(&replay, cores).expect("TG golden result");
        let tg_cycles = tg_report.execution_time().expect("every TG halted");
        let err = (tg_cycles as f64 - ref_cycles as f64).abs() / ref_cycles as f64 * 100.0;
        assert!(
            err <= MAX_ERROR_PCT,
            "{what}: TG error {err:.3}% (ref {ref_cycles}, tg {tg_cycles})"
        );
    }
}
