//! Tier-1 timing guard: three small Table-2 points with their exact
//! completion cycles and retired-instruction counts pinned, plus the
//! paper's ≤ 1.52 % TG-vs-CPU cycle-error bound on each. The workspace
//! suites and the repo benchmark check the same contract at scale, but
//! the root `cargo test -q` runs only this package — a timing change in
//! the Srisc core (or its caches, or the AMBA model) must fail here.

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
    /// Instructions retired, summed over the cores.
    instructions: u64,
}

const POINTS: [Point; 3] = [
    Point {
        workload: Workload::SpMatrix { n: 16 },
        cores: 1,
        cycles: 74_199,
        instructions: 65_622,
    },
    Point {
        workload: Workload::Cacheloop { iterations: 60_000 },
        cores: 2,
        cycles: 300_062,
        instructions: 600_018,
    },
    Point {
        workload: Workload::Des {
            blocks_per_core: 24,
        },
        cores: 3,
        cycles: 18_204,
        instructions: 42_970,
    },
];

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
        let instructions: u64 = report
            .masters
            .iter()
            .map(|m| match m {
                MasterReport::Cpu(stats) => stats.instructions,
                other => panic!("{what}: unexpected master {other:?}"),
            })
            .sum();
        assert_eq!(report.cycles, point.cycles, "{what}: run cycles");
        assert_eq!(instructions, point.instructions, "{what}: instructions");

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
