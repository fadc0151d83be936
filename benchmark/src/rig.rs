//! The outside-in layer rig.
//!
//! The harness assembles the same platform `PlatformBuilder` would,
//! from the public component constructors, and drives the plain dense
//! loop itself — masters, then the fabric, then the slaves, every
//! cycle. That puts a clock around each layer's `tick` without a line
//! of instrumentation inside the program, and gives the production
//! engine something to be compared with: `platform.engine_vs_rig`
//! below 1 means `Platform::run`'s scheduling earns its keep.
//!
//! The rig is only trusted because its final cycle and transaction
//! counts are checked against `Platform::run`'s on every case.

use std::sync::Arc;
use std::time::Instant;

use ntg_core::rng::derive_seed;
use ntg_core::TgCore;
use ntg_cpu::{CpuConfig, CpuCore};
use ntg_mem::{MemoryDevice, SemaphoreBank};
use ntg_noc::{AmbaBus, Interconnect, XpipesConfig, XpipesNoc};
use ntg_ocp::{LinkArena, MasterId};
use ntg_platform::{mem_map, InterconnectChoice};
use ntg_sim::Component;
use ntg_workloads::synthetic::{Schedule, SyntheticConfig, SyntheticTg};

use crate::harness::{Checks, Layers, MAX_CYCLES};
use crate::sim::{Case, Masters};

// `PlatformBuilder`'s defaults; a drift shows as a count mismatch.
const PRIVATE_BYTES: u32 = 0x1_0000;
const SHARED_BYTES: u32 = 0x1_0000;
const SYNC_BYTES: u32 = 0x1000;
const SEMAPHORES: u32 = 64;

/// Each layer group is timed on every eighth cycle.
const SAMPLE_EVERY: u64 = 8;

enum Master {
    Cpu(Box<CpuCore>),
    Tg(TgCore),
    Synthetic(SyntheticTg),
}

impl Master {
    #[inline]
    fn tick(&mut self, now: u64, net: &mut LinkArena) {
        match self {
            Master::Cpu(c) => c.tick(now, net),
            Master::Tg(t) => t.tick(now, net),
            Master::Synthetic(s) => s.tick(now, net),
        }
    }

    fn halted(&self) -> bool {
        match self {
            Master::Cpu(c) => c.halted(),
            Master::Tg(t) => t.halted(),
            Master::Synthetic(s) => s.is_halted(),
        }
    }
}

// One fabric per rig, never in a collection: the size gap costs nothing.
#[allow(clippy::large_enum_variant)]
enum Fabric {
    Amba(AmbaBus),
    Mesh(XpipesNoc),
}

impl Fabric {
    fn model(&self) -> &dyn Interconnect {
        match self {
            Fabric::Amba(b) => b,
            Fabric::Mesh(m) => m,
        }
    }
}

enum Slave {
    Mem(MemoryDevice),
    Sem(SemaphoreBank),
}

impl Slave {
    #[inline]
    fn tick(&mut self, now: u64, net: &mut LinkArena) {
        match self {
            Slave::Mem(m) => m.tick(now, net),
            Slave::Sem(s) => s.tick(now, net),
        }
    }

    fn is_idle(&self, net: &LinkArena) -> bool {
        match self {
            Slave::Mem(m) => m.is_idle(net),
            Slave::Sem(s) => s.is_idle(net),
        }
    }
}

struct Rig {
    net: LinkArena,
    masters: Vec<Master>,
    fabric: Fabric,
    slaves: Vec<Slave>,
}

/// Host nanoseconds per layer group, summed over the sampled cycles.
#[derive(Default, Clone, Copy)]
struct GroupNs {
    masters: u64,
    /// The AMBA tick, or the ×pipes link stage.
    fabric_a: u64,
    /// The ×pipes switch + NI stages (zero on AMBA).
    fabric_b: u64,
    slaves: u64,
    sampled_cycles: u64,
}

struct RigRun {
    cycles: u64,
    transactions: u64,
    wall_s: f64,
    groups: GroupNs,
}

impl Rig {
    /// Mirrors `PlatformBuilder::build`: master links first, then one
    /// link per slave (privates, shared, sync, semaphores).
    fn build(case: &Case) -> Self {
        let n = case.cores;
        let mut net = LinkArena::new();
        let map = Arc::new(
            mem_map::build_map(n, PRIVATE_BYTES, SHARED_BYTES, SYNC_BYTES, SEMAPHORES)
                .expect("the default map is valid"),
        );
        let mut master_ports = Vec::with_capacity(n);
        let mut net_master_ports = Vec::with_capacity(n);
        for core in 0..n {
            let (m, s) = net.channel(format!("link-m{core}"), MasterId(core as u16));
            master_ports.push(m);
            net_master_ports.push(s);
        }
        let mut slaves = Vec::with_capacity(n + 3);
        let mut net_slave_ports = Vec::with_capacity(n + 3);
        for core in 0..n {
            let (m, s) = net.channel(format!("link-priv{core}"), MasterId(0));
            net_slave_ports.push(m);
            slaves.push(Slave::Mem(MemoryDevice::new(
                format!("private{core}"),
                mem_map::private_base(core),
                PRIVATE_BYTES,
                s,
            )));
        }
        let (m, s) = net.channel("link-shared", MasterId(0));
        net_slave_ports.push(m);
        let mut shared = MemoryDevice::new("shared", mem_map::SHARED_BASE, SHARED_BYTES, s);
        // The workload's input data is only reachable through a built
        // platform: copy its shared memory before anything has run.
        if !matches!(case.masters, Masters::Synthetic { .. }) {
            let pristine = case.build(false);
            let words: Vec<u32> = (0..SHARED_BYTES / 4)
                .map(|w| pristine.peek_shared(mem_map::SHARED_BASE + w * 4))
                .collect();
            shared.load_words(mem_map::SHARED_BASE, &words);
        }
        slaves.push(Slave::Mem(shared));
        let (m, s) = net.channel("link-sync", MasterId(0));
        net_slave_ports.push(m);
        slaves.push(Slave::Mem(MemoryDevice::new(
            "sync",
            mem_map::SYNC_BASE,
            SYNC_BYTES,
            s,
        )));
        let (m, s) = net.channel("link-sem", MasterId(0));
        net_slave_ports.push(m);
        slaves.push(Slave::Sem(SemaphoreBank::new(
            "sem",
            mem_map::SEM_BASE,
            SEMAPHORES,
            s,
        )));

        let mut masters = Vec::with_capacity(n);
        for (core, port) in master_ports.into_iter().enumerate() {
            masters.push(match &case.masters {
                Masters::Cpu => {
                    let program = case.workload.program(core, n);
                    let Slave::Mem(private) = &mut slaves[core] else {
                        unreachable!("slave {core} is a private memory")
                    };
                    private.load_words(program.entry(), program.words());
                    Master::Cpu(Box::new(CpuCore::new(
                        format!("cpu{core}"),
                        port,
                        map.clone(),
                        CpuConfig::default(),
                        program.entry(),
                        mem_map::private_base(core) + PRIVATE_BYTES - 4,
                    )))
                }
                Masters::Tg(images) => {
                    Master::Tg(TgCore::new(format!("tg{core}"), port, images[core].clone()))
                }
                Masters::Synthetic {
                    spec,
                    packets,
                    seed,
                } => Master::Synthetic(SyntheticTg::new(
                    format!("syn{core}"),
                    port,
                    SyntheticConfig {
                        pattern: spec.pattern,
                        schedule: Schedule::new(spec.shape, spec.rate),
                        words: spec.words,
                        packets: *packets,
                        seed: derive_seed(*seed, core as u64),
                    },
                    core,
                    n,
                )),
            });
        }

        let fabric = match case.fabric {
            InterconnectChoice::Amba => {
                Fabric::Amba(AmbaBus::new("amba", net_master_ports, net_slave_ports, map))
            }
            InterconnectChoice::Mesh(w, h) => {
                let cfg = XpipesConfig::with_dims(w, h, n, net_slave_ports.len());
                Fabric::Mesh(XpipesNoc::new(
                    "xpipes",
                    net_master_ports,
                    net_slave_ports,
                    map,
                    cfg,
                ))
            }
            other => panic!("the rig has no {other} fabric; add it when a workload needs it"),
        };
        Rig {
            net,
            masters,
            fabric,
            slaves,
        }
    }

    /// `Platform::run`'s termination predicate.
    fn quiesced(&self) -> bool {
        self.masters.iter().all(Master::halted)
            && self.fabric.model().is_idle(&self.net)
            && self.slaves.iter().all(|s| s.is_idle(&self.net))
    }

    /// One dense cycle: masters, fabric, slaves.
    #[inline]
    fn cycle(&mut self, now: u64) {
        for m in &mut self.masters {
            m.tick(now, &mut self.net);
        }
        match &mut self.fabric {
            Fabric::Amba(bus) => bus.tick(now, &mut self.net),
            Fabric::Mesh(mesh) => {
                mesh.phase_link(&mut self.net, now);
                mesh.phase_switch_ni(&mut self.net, now);
            }
        }
        for s in &mut self.slaves {
            s.tick(now, &mut self.net);
        }
    }

    /// The same cycle with a clock read between the layer groups;
    /// `clock_ns`, the cost of one read, is taken out of every span.
    fn cycle_timed(&mut self, now: u64, g: &mut GroupNs, clock_ns: u64) {
        let span = |a: Instant, b: Instant| {
            (b.duration_since(a).as_nanos() as u64).saturating_sub(clock_ns)
        };
        let t0 = Instant::now();
        for m in &mut self.masters {
            m.tick(now, &mut self.net);
        }
        let t1 = Instant::now();
        let t3 = match &mut self.fabric {
            Fabric::Amba(bus) => {
                bus.tick(now, &mut self.net);
                let t3 = Instant::now();
                g.fabric_a += span(t1, t3);
                t3
            }
            Fabric::Mesh(mesh) => {
                mesh.phase_link(&mut self.net, now);
                let t2 = Instant::now();
                mesh.phase_switch_ni(&mut self.net, now);
                let t3 = Instant::now();
                g.fabric_a += span(t1, t2);
                g.fabric_b += span(t2, t3);
                t3
            }
        };
        for s in &mut self.slaves {
            s.tick(now, &mut self.net);
        }
        g.masters += span(t0, t1);
        g.slaves += span(t3, Instant::now());
        g.sampled_cycles += 1;
    }

    fn run(&mut self, timed: bool, clock_ns: u64) -> RigRun {
        let started = Instant::now();
        let mut groups = GroupNs::default();
        let mut now = 0;
        while now < MAX_CYCLES && !self.quiesced() {
            if timed && now % SAMPLE_EVERY == 0 {
                self.cycle_timed(now, &mut groups, clock_ns);
            } else {
                self.cycle(now);
            }
            now += 1;
        }
        RigRun {
            cycles: now,
            transactions: self.fabric.model().transactions(),
            wall_s: started.elapsed().as_secs_f64(),
            groups,
        }
    }
}

/// What reading the clock costs, so it can be taken out of each
/// group's span: the median of many back-to-back pairs.
fn clock_overhead_ns() -> u64 {
    let mut pairs: Vec<u64> = (0..2001)
        .map(|_| {
            let a = Instant::now();
            Instant::now().duration_since(a).as_nanos() as u64
        })
        .collect();
    pairs.sort_unstable();
    pairs[pairs.len() / 2]
}

/// The rig's findings over a set of cases.
pub struct Rigged {
    /// Wall seconds of the untimed dense loop over every case.
    pub untimed_wall_s: f64,
    groups: GroupNs,
    masters: &'static str,
    mesh: bool,
}

impl Rigged {
    pub fn layers(&self) -> Layers {
        let g = self.groups;
        let per_cycle = |ns: u64| ns as f64 / g.sampled_cycles.max(1) as f64;
        let mut layers = vec![
            (self.masters, per_cycle(g.masters)),
            ("mem.tick_ns_per_cycle", per_cycle(g.slaves)),
        ];
        if self.mesh {
            layers.push(("noc.xpipes_link_ns_per_cycle", per_cycle(g.fabric_a)));
            layers.push(("noc.xpipes_switch_ni_ns_per_cycle", per_cycle(g.fabric_b)));
        } else {
            layers.push(("noc.amba_tick_ns_per_cycle", per_cycle(g.fabric_a)));
        }
        layers
    }
}

/// Drives every case twice through the rig — once bare, for the wall
/// time the engine is compared with, once with the layer clocks on —
/// and fails an op wherever the rig's cycles or transactions differ
/// from `expected` (what `Platform::run` reported for the same case).
pub fn measure(cases: &[Case], expected: &[(u64, u64)], checks: &mut Checks) -> Rigged {
    let clock_ns = clock_overhead_ns();
    let mut out = Rigged {
        untimed_wall_s: 0.0,
        groups: GroupNs::default(),
        masters: match cases[0].masters {
            Masters::Cpu => "cpu.tick_ns_per_cycle",
            Masters::Tg(_) => "tg.tick_ns_per_cycle",
            Masters::Synthetic { .. } => "workloads.synthetic_tick_ns_per_cycle",
        },
        mesh: matches!(cases[0].fabric, InterconnectChoice::Mesh(..)),
    };
    for (case, &(cycles, transactions)) in cases.iter().zip(expected) {
        let bare = Rig::build(case).run(false, clock_ns);
        out.untimed_wall_s += bare.wall_s;
        let timed = Rig::build(case).run(true, clock_ns);
        for run in [&bare, &timed] {
            checks.op(
                (run.cycles, run.transactions) == (cycles, transactions),
                || {
                    format!(
                        "rig disagrees with Platform::run on {}: {} cycles / {} txns, engine {} / {}",
                        case.label(),
                        run.cycles,
                        run.transactions,
                        cycles,
                        transactions
                    )
                },
            );
        }
        let g = timed.groups;
        out.groups.masters += g.masters;
        out.groups.fabric_a += g.fabric_a;
        out.groups.fabric_b += g.fabric_b;
        out.groups.slaves += g.slaves;
        out.groups.sampled_cycles += g.sampled_cycles;
    }
    out
}
