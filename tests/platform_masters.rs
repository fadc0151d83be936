//! Platform-level tests for the non-CPU master kinds: plain TGs,
//! stochastic sources and synthetic pattern × shape generators, alone
//! and coexisting in one system.
//!
//! The pinned tuples were produced by running the same platforms at
//! commit `18a9e4d`, before the synthetic generator moved into
//! `ntg-platform`; a change of any of them is a change of simulated
//! behaviour.

use ntg::platform::synthetic::{build_synthetic_platform, SyntheticSpec};
use ntg::platform::{
    mem_map, InterconnectChoice, MasterKind, MasterReport, PlatformBuilder, RunReport,
};
use ntg::tg::{assemble, GapDistribution, StochasticConfig, TgProgram, TgReg, TgSymInstr};

/// A tiny hand-built TG image: write `value`, read it back, halt.
fn writer_image(addr: u32, value: u32) -> ntg::tg::TgImage {
    let mut p = TgProgram::new(0);
    p.inits.push((TgReg::new(2), addr));
    p.inits.push((TgReg::new(3), value));
    p.push(TgSymInstr::Write(TgReg::new(2), TgReg::new(3)));
    p.push(TgSymInstr::Idle(5));
    p.push(TgSymInstr::Read(TgReg::new(2)));
    p.push(TgSymInstr::Halt);
    assemble(&p).expect("assemble")
}

/// `(packets, last_scheduled, idle_cycles, wait_cycles)` of every
/// master in `masters`, which must all be synthetic.
fn synthetic_counters(masters: &[MasterReport]) -> Vec<(u64, u64, u64, u64)> {
    masters
        .iter()
        .map(|m| match *m {
            MasterReport::Synthetic {
                packets,
                last_scheduled,
                idle_cycles,
                wait_cycles,
            } => (packets, last_scheduled, idle_cycles, wait_cycles),
            ref other => panic!("expected a synthetic master, got {other:?}"),
        })
        .collect()
}

/// `synthetic_rates` as raw `f64` bits, so the pin is exact.
fn rate_bits(report: &RunReport) -> (u64, u64) {
    let (offered, accepted) = report.synthetic_rates().expect("synthetic traffic");
    (offered.to_bits(), accepted.to_bits())
}

#[test]
fn mixed_master_kinds_coexist() {
    // Socket 0: plain TG. Socket 1: stochastic source. Socket 2:
    // synthetic generator. All on one AMBA bus, each through its kind.
    let mut b = PlatformBuilder::new();
    b.interconnect(InterconnectChoice::Amba);
    b.add_master(MasterKind::Tg(writer_image(mem_map::SHARED_BASE, 0x111)));
    b.add_master(MasterKind::Stochastic(StochasticConfig {
        seed: 7,
        ranges: vec![(mem_map::SHARED_BASE + 0x1000, 0x100)],
        write_fraction: 0.5,
        burst_fraction: 0.1,
        gap: GapDistribution::Fixed { gap: 4 },
        transactions: 50,
    }));
    b.add_master(MasterKind::Synthetic {
        spec: "uniform+bernoulli@0.1/2".parse().expect("descriptor"),
        packets: 40,
        seed: 7,
    });
    let mut p = b.build().expect("build");
    p.enable_metrics();
    let report = p.run(1_000_000);
    assert!(report.completed, "all master kinds must drain");
    assert!(report.faults.is_empty(), "{:?}", report.faults);

    assert_eq!(p.peek_shared(mem_map::SHARED_BASE), 0x111);

    // Reports carry the right per-kind statistics.
    match report.masters[0] {
        MasterReport::Tg(s) => {
            assert_eq!(s.writes, 1);
            assert_eq!(s.reads, 1);
            assert_eq!((s.idle_cycles, s.wait_cycles), (5, 9));
        }
        ref other => panic!("socket 0: {other:?}"),
    }
    match report.masters[1] {
        MasterReport::Stochastic { issued, errors } => {
            assert_eq!(issued, 50);
            assert_eq!(errors, 0);
        }
        ref other => panic!("socket 1: {other:?}"),
    }
    assert_eq!(
        synthetic_counters(&report.masters[2..]),
        [(40, 370, 55, 383)],
        "socket 2"
    );
    assert_eq!(
        (
            report.cycles,
            report.transactions,
            &report.finish_cycles[..]
        ),
        (555, 92, &[Some(16), Some(554), Some(481)][..])
    );
    assert_eq!(rate_bits(&report), (0x3fbb99e0423e1a39, 0x3fb27350b8812735));
}

/// `(cycles, transactions, finish cycles, per-master counters,
/// synthetic_rates bits)` of a 4-master synthetic platform, seed 7.
type SyntheticPin = (
    u64,
    u64,
    Vec<Option<u64>>,
    Vec<(u64, u64, u64, u64)>,
    (u64, u64),
);

fn synthetic_pin(desc: &str, fabric: InterconnectChoice, packets: u64) -> SyntheticPin {
    let spec: SyntheticSpec = desc.parse().expect("descriptor");
    let mut p = build_synthetic_platform(4, fabric, spec, packets, 7).expect("build");
    p.enable_metrics();
    let r = p.run(2_000_000);
    assert!(r.completed, "{desc} on {fabric}");
    let counters = synthetic_counters(&r.masters);
    let rates = rate_bits(&r);
    (r.cycles, r.transactions, r.finish_cycles, counters, rates)
}

#[test]
fn synthetic_masters_inject_as_pinned() {
    assert_eq!(
        synthetic_pin("uniform+bernoulli@0.2/4", InterconnectChoice::Crossbar, 64),
        (
            717,
            256,
            vec![Some(608), Some(694), Some(710), Some(598)],
            vec![
                (64, 288, 3, 540),
                (64, 347, 30, 598),
                (64, 343, 15, 631),
                (64, 358, 0, 533),
            ],
            (0x3fc6d1a62681c861, 0x3fb70b29680e66fa),
        )
    );
    assert_eq!(
        synthetic_pin("transpose+burst:4@0.1/2", InterconnectChoice::Xpipes, 48),
        (
            469,
            192,
            vec![Some(454); 4],
            vec![(48, 443, 275, 120); 4],
            (0x3fbbacf914c1bad0, 0x3fbb01b01b01b01b),
        )
    );
}

#[test]
fn stochastic_sources_are_deterministic_in_a_platform() {
    let run = || {
        let mut b = PlatformBuilder::new();
        b.interconnect(InterconnectChoice::Xpipes);
        for i in 0..3u64 {
            b.add_stochastic(StochasticConfig {
                seed: 100 + i,
                ranges: vec![(mem_map::SHARED_BASE, 0x400)],
                write_fraction: 0.3,
                burst_fraction: 0.2,
                gap: GapDistribution::Geometric { mean: 6 },
                transactions: 80,
            });
        }
        let mut p = b.build().expect("build");
        p.enable_metrics();
        let r = p.run(1_000_000);
        assert!(r.completed);
        let issued: Vec<u64> = r
            .masters
            .iter()
            .map(|m| match *m {
                MasterReport::Stochastic { issued, .. } => issued,
                ref other => panic!("expected a stochastic master, got {other:?}"),
            })
            .collect();
        (r.finish_cycles, issued)
    };
    let first = run();
    assert_eq!(
        first,
        run(),
        "seeded stochastic platform must be deterministic"
    );
    assert_eq!(
        first,
        (vec![Some(1821), Some(1889), Some(1978)], vec![80, 80, 80])
    );
}

#[test]
fn stochastic_load_scales_contention() {
    // Denser stochastic traffic (smaller gaps) must lengthen everyone's
    // completion on a shared bus.
    let time = |gap: u32| {
        let mut b = PlatformBuilder::new();
        b.interconnect(InterconnectChoice::Amba);
        for i in 0..4u64 {
            b.add_stochastic(StochasticConfig {
                seed: i,
                ranges: vec![(mem_map::SHARED_BASE, 0x400)],
                write_fraction: 0.5,
                burst_fraction: 0.0,
                gap: GapDistribution::Fixed { gap },
                transactions: 100,
            });
        }
        let mut p = b.build().expect("build");
        let r = p.run(1_000_000);
        assert!(r.completed);
        r.execution_time().unwrap()
    };
    let dense = time(1);
    let sparse = time(40);
    assert!(
        sparse > dense,
        "sparser traffic takes longer overall: dense={dense} sparse={sparse}"
    );
    // But dense traffic saturates the bus: throughput (transactions per
    // cycle) must be higher than sparse, completion per transaction
    // slower than the unloaded latency.
    assert!(dense > 400 * 4 / 2, "bus must serialise dense traffic");
}

#[test]
fn add_master_accepts_explicit_kinds() {
    let mut b = PlatformBuilder::new();
    b.interconnect(InterconnectChoice::Amba);
    b.add_master(MasterKind::Tg(writer_image(mem_map::SHARED_BASE + 0x40, 5)));
    let mut p = b.build().expect("build");
    assert!(p.run(100_000).completed);
    assert_eq!(p.peek_shared(mem_map::SHARED_BASE + 0x40), 5);
}

#[test]
fn workload_verify_rejects_an_unrun_platform() {
    use ntg::workloads::Workload;
    // Build but do not run: memory is still zeroed, so golden-model
    // verification must fail loudly rather than pass vacuously.
    let w = Workload::SpMatrix { n: 4 };
    let p = w
        .build_platform(1, InterconnectChoice::Amba, false)
        .expect("build");
    assert!(
        w.verify(&p, 1).is_err(),
        "verify must catch missing results"
    );
    let w = Workload::Des { blocks_per_core: 1 };
    let p = w
        .build_platform(1, InterconnectChoice::Amba, false)
        .expect("build");
    assert!(w.verify(&p, 1).is_err());
}
