//! Platform assembly and the run loop.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use ntg_core::rng::derive_seed;
use ntg_core::{
    StochasticConfig, StochasticTg, TgCore, TgImage, TgProgram, TraceTranslator, TranslationError,
    TranslationMode, TranslatorConfig,
};
use ntg_cpu::{CpuConfig, CpuCore, Program};
use ntg_mem::{AddressMap, MapError, MemoryDevice, SemaphoreBank};
use ntg_noc::{AmbaBus, Arbitration, IdealInterconnect, Interconnect, XpipesConfig, XpipesNoc};
use ntg_ocp::{wake_token, LinkArena, MasterId};
use ntg_sim::{ActiveSet, Activity, ClockConfig, Component, Cycle, WindowSeries};
use ntg_trace::{shared_trace, MasterTrace, SharedTrace, TraceMonitor};

use crate::mem_map;
use crate::report::{MasterReport, MetricsReport, RunReport};
use crate::synthetic::{Schedule, SyntheticConfig, SyntheticSpec, SyntheticTg};

/// Which interconnect model the platform instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InterconnectChoice {
    /// Shared AMBA-like bus.
    #[default]
    Amba,
    /// AMBA-like bus with static priority arbitration.
    AmbaFixedPriority,
    /// ×pipes-like mesh NoC with an auto-generated topology.
    Xpipes,
    /// ×pipes-like mesh NoC on an explicit `width × height` grid with
    /// the canonical row-major NI layout (masters on nodes `0..n`,
    /// slaves directly after) — the variant the big-mesh sweeps
    /// (`8x8`, `16x16`, …) instantiate.
    Mesh(u16, u16),
    /// STBus-like crossbar.
    Crossbar,
    /// Fixed-latency ideal fabric.
    Ideal,
}

impl fmt::Display for InterconnectChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterconnectChoice::Amba => f.write_str("amba"),
            InterconnectChoice::AmbaFixedPriority => f.write_str("amba-fixed"),
            InterconnectChoice::Xpipes => f.write_str("xpipes"),
            InterconnectChoice::Mesh(w, h) => write!(f, "xpipes:{w}x{h}"),
            InterconnectChoice::Crossbar => f.write_str("crossbar"),
            InterconnectChoice::Ideal => f.write_str("ideal"),
        }
    }
}

impl std::str::FromStr for InterconnectChoice {
    type Err = String;

    /// Parses the names printed by [`Display`] (`amba`, `amba-fixed`,
    /// `xpipes`, `xpipes:WxH`, `crossbar`, `ideal`).
    fn from_str(s: &str) -> Result<Self, String> {
        if let Some(dims) = s.strip_prefix("xpipes:") {
            let (w, h) = dims
                .split_once('x')
                .ok_or_else(|| format!("mesh dims `{dims}` are not WxH"))?;
            let w: u16 = w.parse().map_err(|_| format!("bad mesh width `{w}`"))?;
            let h: u16 = h.parse().map_err(|_| format!("bad mesh height `{h}`"))?;
            if w == 0 || h == 0 {
                return Err(format!("mesh `{dims}` must be non-empty"));
            }
            return Ok(InterconnectChoice::Mesh(w, h));
        }
        match s {
            "amba" => Ok(InterconnectChoice::Amba),
            "amba-fixed" => Ok(InterconnectChoice::AmbaFixedPriority),
            "xpipes" => Ok(InterconnectChoice::Xpipes),
            "crossbar" => Ok(InterconnectChoice::Crossbar),
            "ideal" => Ok(InterconnectChoice::Ideal),
            _ => Err(format!(
                "unknown interconnect `{s}` (expected amba, amba-fixed, xpipes, \
                 xpipes:WxH, crossbar or ideal)"
            )),
        }
    }
}

/// All interconnect models, in the order the exploration experiments
/// sweep them.
pub const ALL_INTERCONNECTS: [InterconnectChoice; 5] = [
    InterconnectChoice::Amba,
    InterconnectChoice::AmbaFixedPriority,
    InterconnectChoice::Crossbar,
    InterconnectChoice::Xpipes,
    InterconnectChoice::Ideal,
];

/// What kind of master occupies a socket.
pub enum MasterKind {
    /// A Srisc core running an assembled program.
    Cpu(Program),
    /// A traffic generator replaying a TG image.
    Tg(TgImage),
    /// A stochastic traffic source (the related-work baseline the paper
    /// argues is unreliable for NoC optimisation).
    Stochastic(StochasticConfig),
    /// A synthetic pattern × shape traffic generator injecting `packets`
    /// packets per `spec`; its PRNG stream is derived from `seed` and the
    /// socket's core index.
    Synthetic {
        /// Destination pattern, temporal shape, rate and packet size.
        spec: SyntheticSpec,
        /// Packets injected before halting.
        packets: u64,
        /// Campaign seed, decorrelated per core.
        seed: u64,
    },
}

// TgCore is itself a fair-sized struct, so the size gap to the boxed
// variants is inherent and acceptable for a handful of masters.
#[allow(clippy::large_enum_variant)]
enum Master {
    // Boxed: a CpuCore (two caches) is several times larger than a
    // TgCore, and masters live in a Vec.
    Cpu(Box<CpuCore>),
    Tg(TgCore),
    Stochastic(Box<StochasticTg>),
    Synthetic(Box<SyntheticTg>),
}

impl Master {
    /// Direct-dispatch tick: the run loop calls this once per visited
    /// master; matching on the enum (instead of going through a
    /// `&mut dyn Component`) lets the common [`TgCore::tick`] inline
    /// into the loop. `next_activity` and `skip` dispatch the same way.
    #[inline]
    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        match self {
            Master::Cpu(c) => c.tick(now, net),
            Master::Tg(t) => t.tick(now, net),
            Master::Stochastic(s) => s.tick(now, net),
            Master::Synthetic(s) => s.tick(now, net),
        }
    }

    #[inline]
    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        match self {
            Master::Cpu(c) => c.next_activity(now, net),
            Master::Tg(t) => t.next_activity(now, net),
            Master::Stochastic(s) => s.next_activity(now, net),
            Master::Synthetic(s) => s.next_activity(now, net),
        }
    }

    #[inline]
    fn skip(&mut self, now: Cycle, next: Cycle, net: &mut LinkArena) {
        match self {
            Master::Cpu(c) => c.skip(now, next, net),
            Master::Tg(t) => t.skip(now, next, net),
            Master::Stochastic(s) => s.skip(now, next, net),
            Master::Synthetic(s) => s.skip(now, next, net),
        }
    }

    fn halted(&self) -> bool {
        match self {
            Master::Cpu(c) => c.halted(),
            Master::Tg(t) => t.halted(),
            Master::Stochastic(s) => s.halted(),
            Master::Synthetic(s) => s.is_halted(),
        }
    }

    fn halt_cycle(&self) -> Option<Cycle> {
        match self {
            Master::Cpu(c) => c.halt_cycle(),
            Master::Tg(t) => t.halt_cycle(),
            Master::Stochastic(s) => s.halt_cycle(),
            Master::Synthetic(s) => s.halt_cycle(),
        }
    }

    fn fault(&self) -> Option<String> {
        match self {
            Master::Cpu(c) => c.fault().map(|f| format!("{f:?}")),
            Master::Tg(t) => t.fault().map(|f| format!("{f:?}")),
            Master::Stochastic(_) | Master::Synthetic(_) => None,
        }
    }

    fn report(&self) -> MasterReport {
        match self {
            Master::Cpu(c) => MasterReport::Cpu(c.stats()),
            Master::Tg(t) => MasterReport::Tg(t.stats()),
            Master::Stochastic(s) => MasterReport::Stochastic {
                issued: s.issued(),
                errors: s.errors(),
            },
            Master::Synthetic(s) => s.report(),
        }
    }
}

enum Slave {
    Mem(MemoryDevice),
    Sem(SemaphoreBank),
}

impl Slave {
    /// Direct-dispatch tick; see [`Master::tick`].
    #[inline]
    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        match self {
            Slave::Mem(m) => m.tick(now, net),
            Slave::Sem(s) => s.tick(now, net),
        }
    }

    #[inline]
    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        match self {
            Slave::Mem(m) => m.next_activity(now, net),
            Slave::Sem(s) => s.next_activity(now, net),
        }
    }

    #[inline]
    fn skip(&mut self, now: Cycle, next: Cycle, net: &mut LinkArena) {
        match self {
            Slave::Mem(m) => m.skip(now, next, net),
            Slave::Sem(s) => s.skip(now, next, net),
        }
    }

    fn is_idle(&self, net: &LinkArena) -> bool {
        match self {
            Slave::Mem(m) => m.is_idle(net),
            Slave::Sem(s) => s.is_idle(net),
        }
    }
}

/// Errors produced by [`Platform::translate_traces`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceTranslationError {
    /// Tracing was not enabled on this master, so there is nothing to
    /// translate.
    TracingDisabled {
        /// The core index.
        core: usize,
    },
    /// The recorded trace could not be translated.
    Translation(TranslationError),
}

impl fmt::Display for TraceTranslationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceTranslationError::TracingDisabled { core } => {
                write!(f, "tracing was not enabled on master {core}")
            }
            TraceTranslationError::Translation(e) => write!(f, "translation: {e}"),
        }
    }
}

impl std::error::Error for TraceTranslationError {}

/// Errors produced while building a platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// No masters were added.
    NoMasters,
    /// A CPU program's entry/extent does not fit its core's private
    /// memory.
    ProgramOutsidePrivate {
        /// The core index.
        core: usize,
    },
    /// The memory map could not be built.
    Map(MapError),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::NoMasters => write!(f, "platform has no masters"),
            PlatformError::ProgramOutsidePrivate { core } => {
                write!(f, "program for core {core} does not fit its private memory")
            }
            PlatformError::Map(e) => write!(f, "memory map: {e}"),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<MapError> for PlatformError {
    fn from(e: MapError) -> Self {
        PlatformError::Map(e)
    }
}

/// Builder for a [`Platform`].
///
/// # Example
///
/// ```
/// use ntg_cpu::Asm;
/// use ntg_platform::{mem_map, PlatformBuilder};
///
/// let mut asm = Asm::new();
/// asm.halt();
/// let program = asm.assemble(mem_map::private_base(0))?;
///
/// let mut platform = PlatformBuilder::new().add_cpu(program).build()?;
/// let report = platform.run(10_000);
/// assert!(report.completed);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PlatformBuilder {
    clock: ClockConfig,
    interconnect: InterconnectChoice,
    cpu_config: CpuConfig,
    private_bytes: u32,
    shared_bytes: u32,
    sync_bytes: u32,
    semaphores: u32,
    tracing: bool,
    masters: Vec<MasterKind>,
    shared_preload: Vec<(u32, Vec<u32>)>,
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        Self {
            clock: ClockConfig::default(),
            interconnect: InterconnectChoice::default(),
            cpu_config: CpuConfig::default(),
            private_bytes: 0x1_0000,
            shared_bytes: 0x1_0000,
            sync_bytes: 0x1000,
            semaphores: 64,
            tracing: false,
            masters: Vec::new(),
            shared_preload: Vec::new(),
        }
    }
}

impl PlatformBuilder {
    /// Creates a builder with MPARM-like defaults: AMBA bus, 5 ns clock,
    /// 64 KiB private memories, 64 KiB shared memory, 64 semaphores,
    /// tracing off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the interconnect model.
    pub fn interconnect(&mut self, choice: InterconnectChoice) -> &mut Self {
        self.interconnect = choice;
        self
    }

    /// Overrides the clock (default 5 ns, as in the paper).
    pub fn clock(&mut self, clock: ClockConfig) -> &mut Self {
        self.clock = clock;
        self
    }

    /// Overrides the CPU core configuration (cache geometries).
    pub fn cpu_config(&mut self, cfg: CpuConfig) -> &mut Self {
        self.cpu_config = cfg;
        self
    }

    /// Overrides the per-core private memory size in bytes.
    pub fn private_bytes(&mut self, bytes: u32) -> &mut Self {
        self.private_bytes = bytes;
        self
    }

    /// Overrides the shared memory size in bytes.
    pub fn shared_bytes(&mut self, bytes: u32) -> &mut Self {
        self.shared_bytes = bytes;
        self
    }

    /// Enables or disables OCP trace collection at every master
    /// interface.
    pub fn tracing(&mut self, on: bool) -> &mut Self {
        self.tracing = on;
        self
    }

    /// Adds a CPU master running `program` (must be assembled at its
    /// core's [`private_base`](mem_map::private_base)).
    pub fn add_cpu(&mut self, program: Program) -> &mut Self {
        self.masters.push(MasterKind::Cpu(program));
        self
    }

    /// Adds a traffic-generator master replaying `image`.
    pub fn add_tg(&mut self, image: TgImage) -> &mut Self {
        self.masters.push(MasterKind::Tg(image));
        self
    }

    /// Adds a stochastic traffic source (the related-work baseline).
    pub fn add_stochastic(&mut self, cfg: StochasticConfig) -> &mut Self {
        self.masters.push(MasterKind::Stochastic(cfg));
        self
    }

    /// Adds one [`SyntheticTg`] master driven by `spec`, halting after
    /// `packets` packets. Each master's PRNG stream is derived from
    /// `seed` and its core index, so the same call on every core still
    /// yields decorrelated (but reproducible) traffic.
    pub fn add_synthetic_tg(&mut self, spec: SyntheticSpec, packets: u64, seed: u64) -> &mut Self {
        self.masters.push(MasterKind::Synthetic {
            spec,
            packets,
            seed,
        });
        self
    }

    /// Adds an arbitrary master socket.
    pub fn add_master(&mut self, master: MasterKind) -> &mut Self {
        self.masters.push(master);
        self
    }

    /// Preloads words into shared memory before the run.
    pub fn preload_shared(&mut self, addr: u32, words: Vec<u32>) -> &mut Self {
        self.shared_preload.push((addr, words));
        self
    }

    /// Builds the platform.
    ///
    /// # Errors
    ///
    /// Returns a [`PlatformError`] if no masters were added, a program
    /// does not fit its private memory, or the map is invalid.
    pub fn build(&self) -> Result<Platform, PlatformError> {
        if self.masters.is_empty() {
            return Err(PlatformError::NoMasters);
        }
        let n = self.masters.len();
        let mut net = LinkArena::new();
        let map = Arc::new(mem_map::build_map(
            n,
            self.private_bytes,
            self.shared_bytes,
            self.sync_bytes,
            self.semaphores,
        )?);

        // Master links are minted first (ids `0..n`), slave links after
        // (ids `n..n+s`), so a component's scheduler id equals its link
        // id — the identity `run`'s wake-token routing relies on.
        let mut master_ports = Vec::with_capacity(n);
        let mut net_master_ports = Vec::new();
        let mut traces = Vec::new();
        for core in 0..n {
            let (mport, sport) = net.channel(format!("link-m{core}"), MasterId(core as u16));
            net_master_ports.push(sport);
            if self.tracing {
                let trace = shared_trace(core as u16, self.clock);
                mport.set_observer(
                    &mut net,
                    Box::new(TraceMonitor::new(trace.clone(), self.clock)),
                );
                traces.push(Some(trace));
            } else {
                traces.push(None);
            }
            master_ports.push(mport);
        }

        // Slave devices (ids: privates, shared, sync, semaphores).
        let mut slaves = Vec::new();
        let mut net_slave_ports = Vec::new();
        for core in 0..n {
            let (m, s) = net.channel(format!("link-priv{core}"), MasterId(0));
            net_slave_ports.push(m);
            slaves.push(Slave::Mem(MemoryDevice::new(
                format!("private{core}"),
                mem_map::private_base(core),
                self.private_bytes,
                s,
            )));
        }
        let (m, s) = net.channel("link-shared", MasterId(0));
        net_slave_ports.push(m);
        let mut shared = MemoryDevice::new("shared", mem_map::SHARED_BASE, self.shared_bytes, s);
        for (addr, words) in &self.shared_preload {
            shared.load_words(*addr, words);
        }
        slaves.push(Slave::Mem(shared));
        let (m, s) = net.channel("link-sync", MasterId(0));
        net_slave_ports.push(m);
        slaves.push(Slave::Mem(MemoryDevice::new(
            "sync",
            mem_map::SYNC_BASE,
            self.sync_bytes,
            s,
        )));
        let (m, s) = net.channel("link-sem", MasterId(0));
        net_slave_ports.push(m);
        slaves.push(Slave::Sem(SemaphoreBank::new(
            "sem",
            mem_map::SEM_BASE,
            self.semaphores,
            s,
        )));

        // Masters, on the links minted above.
        let mut masters = Vec::new();
        for ((core, kind), mport) in self.masters.iter().enumerate().zip(master_ports) {
            let master = match kind {
                MasterKind::Cpu(program) => {
                    let base = mem_map::private_base(core);
                    let end = u64::from(base) + u64::from(self.private_bytes);
                    let fits = program.entry() >= base
                        && u64::from(program.entry()) + u64::from(program.size_bytes()) <= end;
                    if !fits {
                        return Err(PlatformError::ProgramOutsidePrivate { core });
                    }
                    let Slave::Mem(priv_mem) = &mut slaves[core] else {
                        unreachable!("slave {core} is this core's private memory")
                    };
                    priv_mem.load_words(program.entry(), program.words());
                    let sp = base + self.private_bytes - 4;
                    Master::Cpu(Box::new(CpuCore::new(
                        format!("cpu{core}"),
                        mport,
                        map.clone(),
                        self.cpu_config,
                        program.entry(),
                        sp,
                    )))
                }
                MasterKind::Tg(image) => {
                    Master::Tg(TgCore::new(format!("tg{core}"), mport, image.clone()))
                }
                MasterKind::Stochastic(cfg) => Master::Stochastic(Box::new(StochasticTg::new(
                    format!("stg{core}"),
                    mport,
                    cfg.clone(),
                ))),
                MasterKind::Synthetic {
                    spec,
                    packets,
                    seed,
                } => Master::Synthetic(Box::new(SyntheticTg::new(
                    format!("syn{core}"),
                    mport,
                    SyntheticConfig {
                        pattern: spec.pattern,
                        schedule: Schedule::new(spec.shape, spec.rate),
                        words: spec.words,
                        packets: *packets,
                        seed: derive_seed(*seed, core as u64),
                    },
                    core,
                    n,
                ))),
            };
            masters.push(master);
        }

        let interconnect: Box<dyn Interconnect> = match self.interconnect {
            InterconnectChoice::Amba => Box::new(AmbaBus::new(
                "amba",
                net_master_ports,
                net_slave_ports,
                map.clone(),
            )),
            InterconnectChoice::AmbaFixedPriority => {
                let mut bus = AmbaBus::new("amba", net_master_ports, net_slave_ports, map.clone());
                bus.set_arbitration(Arbitration::FixedPriority);
                Box::new(bus)
            }
            InterconnectChoice::Crossbar => Box::new(AmbaBus::crossbar(
                "crossbar",
                net_master_ports,
                net_slave_ports,
                map.clone(),
            )),
            InterconnectChoice::Xpipes => {
                let cfg = XpipesConfig::auto(n, net_slave_ports.len());
                Box::new(XpipesNoc::new(
                    "xpipes",
                    net_master_ports,
                    net_slave_ports,
                    map.clone(),
                    cfg,
                ))
            }
            InterconnectChoice::Mesh(w, h) => {
                let cfg = XpipesConfig::with_dims(w, h, n, net_slave_ports.len());
                Box::new(XpipesNoc::new(
                    "xpipes",
                    net_master_ports,
                    net_slave_ports,
                    map.clone(),
                    cfg,
                ))
            }
            InterconnectChoice::Ideal => Box::new(IdealInterconnect::new(
                "ideal",
                net_master_ports,
                net_slave_ports,
                map.clone(),
            )),
        };

        Ok(Platform {
            clock: self.clock,
            net,
            map,
            masters,
            interconnect,
            slaves,
            traces,
            now: 0,
            skipped_cycles: 0,
            ticked_cycles: 0,
            visited_component_cycles: 0,
            metrics: None,
        })
    }
}

/// In-flight metric state while metrics collection is enabled.
///
/// Allocates once at [`Platform::enable_metrics`] time and never again:
/// per-cycle sampling only touches counters (the `WindowSeries` merges
/// in place on overflow), preserving the zero-allocation steady-state
/// contract with metrics on.
struct MetricsRecorder {
    /// Fabric-busy cycles per time window.
    busy: WindowSeries,
    /// Last sampled [`Interconnect::utilization_cycles`] value.
    last_util: u64,
}

/// A fully assembled platform, ready to simulate.
///
/// Owns the [`LinkArena`] every component communicates through, so the
/// whole value is `Send` (compile-asserted in this crate's tests): a
/// campaign worker thread can build, own and run platforms with no
/// shared-ownership bookkeeping on the tick path.
pub struct Platform {
    clock: ClockConfig,
    net: LinkArena,
    map: Arc<AddressMap>,
    masters: Vec<Master>,
    interconnect: Box<dyn Interconnect>,
    slaves: Vec<Slave>,
    traces: Vec<Option<SharedTrace>>,
    now: Cycle,
    skipped_cycles: Cycle,
    ticked_cycles: Cycle,
    visited_component_cycles: u64,
    metrics: Option<MetricsRecorder>,
}

impl Platform {
    /// The platform's clock.
    pub fn clock(&self) -> ClockConfig {
        self.clock
    }

    /// The system address map.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// The number of masters.
    pub fn num_masters(&self) -> usize {
        self.masters.len()
    }

    /// Enables metrics collection for this platform's subsequent runs.
    ///
    /// Opt-in and allocation-bounded: the recorder is allocated here,
    /// once; per-cycle sampling only updates counters, and the run
    /// report gains a [`MetricsReport`] (fabric utilization windows,
    /// arbitration contention, semaphore counters). With metrics off
    /// `run` and `step` pay a single `Option` branch per visited cycle.
    pub fn enable_metrics(&mut self) {
        // 1024-cycle windows, 64-slot buffer: ~65k cycles before the
        // first in-place merge, bounded memory forever after.
        self.metrics = Some(MetricsRecorder {
            busy: WindowSeries::new("fabric_busy", 1024, 64),
            last_util: self.interconnect.utilization_cycles(),
        });
    }

    /// Samples per-cycle-window metrics for cycles `now..until`: once
    /// per visited cycle, and once per jump — whose stretch a fabric that
    /// holds a transfer across it counted evenly, so it is spread over
    /// the windows it crosses exactly as ticking would have. One branch
    /// when metrics are off; alloc-free when on.
    #[inline]
    fn sample_metrics(&mut self, now: Cycle, until: Cycle) {
        if let Some(rec) = &mut self.metrics {
            let util = self.interconnect.utilization_cycles();
            rec.busy.record_span(now, until, util - rec.last_util);
            rec.last_util = util;
        }
    }

    /// Builds the report-time metrics summary, if collection is on.
    fn metrics_report(&self) -> Option<MetricsReport> {
        let rec = self.metrics.as_ref()?;
        let contention = self.interconnect.contention();
        let sem_idx = self.masters.len() + 2;
        let (sem_acquisitions, sem_failed_polls, sem_releases) = match &self.slaves[sem_idx] {
            Slave::Sem(s) => (s.acquisitions(), s.failed_polls(), s.releases()),
            Slave::Mem(_) => (0, 0, 0),
        };
        // Close the windows up to the current cycle on a copy, so the
        // window structure depends only on where the platform stands,
        // not on which cycle was last visited.
        let mut busy = rec.busy.clone();
        busy.record(self.now, 0);
        Some(MetricsReport {
            fabric_utilization_cycles: self.interconnect.utilization_cycles(),
            conflicts: contention.conflicts,
            grant_wait_count: contention.grant_wait.count(),
            grant_wait_sum: contention.grant_wait.sum(),
            grant_wait_max: contention.grant_wait.max().unwrap_or(0),
            links: contention.links,
            sem_acquisitions,
            sem_failed_polls,
            sem_releases,
            busy_window_cycles: busy.window_cycles(),
            busy_windows: busy.collect(),
        })
    }

    /// True when every master has halted and all traffic has drained.
    fn quiesced(&self) -> bool {
        self.masters.iter().all(Master::halted)
            && self.interconnect.is_idle(&self.net)
            && self.slaves.iter().all(|s| s.is_idle(&self.net))
    }

    /// Total components in the platform (masters + fabric + slaves) —
    /// the per-cycle denominator of the sparse-visit ratio.
    fn components(&self) -> usize {
        self.masters.len() + 1 + self.slaves.len()
    }

    /// Runs until every master has halted and all traffic has drained,
    /// or the platform reaches cycle `max_cycles`.
    ///
    /// `max_cycles` is an *absolute* cycle, not a budget: `run(k)`
    /// followed by `run(max)` ends exactly like one `run(max)`, and
    /// `run(k)` on a platform already at or past cycle `k` does nothing.
    /// (`ntg_sim::Simulator::run_until` takes a *relative* count.)
    ///
    /// This is the platform's one engine. Masters and slaves live in an
    /// [`ActiveSet`] keyed by their `next_activity` hints; a ticked cycle
    /// visits only the components whose wake arrived (plus `Busy` ones),
    /// and a sleeper is caught up through its `skip` contract when next
    /// visited. The interconnect is *not* scheduled — it ticks on every
    /// visited cycle (event-driven inside, see
    /// [`Interconnect::set_event_driven`]) and its hint is consulted only
    /// when everything else sleeps, when the whole platform jumps to the
    /// next wake in one step. The termination predicate is evaluated
    /// exactly, so the reported cycle count is the first quiescent
    /// cycle. Every reported number is bit-identical to ticking every
    /// component on every cycle — [`step`](Self::step) is that
    /// reference, and the equivalence suites diff the two.
    pub fn run(&mut self, max_cycles: Cycle) -> RunReport {
        let start = Instant::now();
        // Cores executing ahead of `now` must stop where this run does.
        self.net.set_run_end(max_cycles);
        let n_m = self.masters.len();
        let start_now = self.now;
        let mut sched = ActiveSet::new(n_m + self.slaves.len());
        if start_now > 0 {
            // Align the (empty) wheel's cursor with a resumed platform.
            sched.advance(start_now);
        }
        for (m, master) in self.masters.iter().enumerate() {
            let hint = master.next_activity(start_now, &self.net);
            sched.seed(m as u32, hint, start_now);
        }
        for (s, slave) in self.slaves.iter().enumerate() {
            let hint = slave.next_activity(start_now, &self.net);
            sched.seed((n_m + s) as u32, hint, start_now);
        }
        // O(1) gate in front of the full quiesce predicate: quiescence
        // requires every master halted, and halting only happens inside
        // a master's tick, after which the count is redone.
        let live = |masters: &[Master]| masters.iter().filter(|m| !m.halted()).count();
        let mut live_masters = live(&self.masters);
        self.net.set_wake_logging(true);
        self.interconnect.set_event_driven(true);
        let ticked_before = self.ticked_cycles;
        let mut visit_buf: Vec<u32> = Vec::with_capacity(sched.components());
        while self.now < max_cycles {
            if live_masters == 0 && self.quiesced() {
                break;
            }
            let now = self.now;
            if sched.idle() {
                // Everything with timed work sleeps in the wheel, so
                // the fabric is the only possible actor: its hint
                // decides whether the platform can jump, and only then
                // is the wheel's minimum worth computing. Sleepers catch
                // up lazily when next visited; only the fabric is
                // fast-forwarded eagerly.
                let fabric_until = match self.interconnect.next_activity(now, &self.net) {
                    Activity::Busy => now,
                    Activity::IdleUntil(w) => w.max(now),
                    Activity::Drained => Cycle::MAX,
                };
                let target = if fabric_until > now {
                    let wake = sched.next_wake().unwrap_or(max_cycles);
                    wake.min(max_cycles).min(fabric_until)
                } else {
                    now
                };
                if target > now {
                    self.interconnect.skip(now, target, &mut self.net);
                    self.skipped_cycles += target - now;
                    self.sample_metrics(now, target);
                    self.now = target;
                    sched.advance(target);
                    continue;
                }
            }
            let split = sched.visit(n_m as u32, &mut visit_buf);
            for &id in &visit_buf[..split] {
                let master = &mut self.masters[id as usize];
                if let Some(since) = sched.take_catch_up(id, now) {
                    master.skip(since, now, &mut self.net);
                }
                master.tick(now, &mut self.net);
                if master.halted() {
                    live_masters = live(&self.masters);
                }
            }
            self.interconnect.tick(now, &mut self.net);
            for &id in &visit_buf[split..] {
                let slave = &mut self.slaves[id as usize - n_m];
                if let Some(since) = sched.take_catch_up(id, now) {
                    slave.skip(since, now, &mut self.net);
                }
                slave.tick(now, &mut self.net);
            }
            let next = now + 1;
            for &id in &visit_buf[..split] {
                let hint = self.masters[id as usize].next_activity(next, &self.net);
                sched.reinsert(id, hint, next);
            }
            for &id in &visit_buf[split..] {
                let hint = self.slaves[id as usize - n_m].next_activity(next, &self.net);
                sched.reinsert(id, hint, next);
            }
            // Producer touches this cycle become visible at `next`;
            // route each to its reader. Component ids coincide with
            // link ids by construction (master `m` owns link `m`, slave
            // `s` owns link `n_m + s`), so a component-side wake is
            // just the link index.
            for t in self.net.drain_wakes() {
                let (link, master_side) = wake_token(t);
                let l = link.index();
                let to_fabric = if l < n_m { !master_side } else { master_side };
                if to_fabric {
                    self.interconnect.wake_link(link);
                } else {
                    sched.wake(l as u32);
                }
            }
            sched.end_cycle(now);
            self.sample_metrics(now, next);
            self.ticked_cycles += 1;
            self.now = next;
        }
        // Settle every sleeper's bookkeeping up to the finish cycle so
        // reports and traces observe exactly the state `step` leaves.
        let final_now = self.now;
        sched.drain_catch_ups(final_now, |id, since| {
            let i = id as usize;
            if i < n_m {
                self.masters[i].skip(since, final_now, &mut self.net);
            } else {
                self.slaves[i - n_m].skip(since, final_now, &mut self.net);
            }
        });
        self.net.set_wake_logging(false);
        self.interconnect.set_event_driven(false);
        // The fabric is visited once per ticked cycle on top of the
        // scheduler's master/slave visits.
        self.visited_component_cycles +=
            sched.visited_component_cycles() + (self.ticked_cycles - ticked_before);
        RunReport {
            wall_time: start.elapsed(),
            ..self.report()
        }
    }

    /// The [`RunReport`] of the platform as it stands: what [`run`]
    /// returns (with a zero `wall_time`), and the way to read results
    /// after driving the platform with [`step`]. Read-only.
    ///
    /// [`run`]: Self::run
    /// [`step`]: Self::step
    pub fn report(&self) -> RunReport {
        RunReport {
            completed: self.quiesced(),
            cycles: self.now,
            finish_cycles: self.masters.iter().map(Master::halt_cycle).collect(),
            wall_time: std::time::Duration::ZERO,
            masters: self.masters.iter().map(Master::report).collect(),
            faults: self.masters.iter().filter_map(Master::fault).collect(),
            transactions: self.interconnect.transactions(),
            latency: self.interconnect.latency_summary(),
            tg_reused: None,
            skipped_cycles: self.skipped_cycles,
            ticked_cycles: self.ticked_cycles,
            visited_component_cycles: self.visited_component_cycles,
            total_component_cycles: self.components() as u64 * self.now,
            metrics: self.metrics_report(),
        }
    }

    /// Ticks every component on every cycle for `cycles` cycles (or
    /// until quiescent): no skipping, no scheduling, no report.
    ///
    /// This is the dense reference [`run`](Self::run) must match bit
    /// for bit — test code drives it (one cycle per call, so cores never
    /// run ahead) and diffs [`report`](Self::report) against `run`'s —
    /// and the measurement primitive for allocation accounting: warm a
    /// platform up, snapshot an allocation counter, `step` further, and
    /// every allocation in between belongs to the ticked hot path.
    /// Interleaving `step` and `run` is safe.
    pub fn step(&mut self, cycles: Cycle) {
        self.net.set_run_end(self.now + cycles);
        for _ in 0..cycles {
            if self.quiesced() {
                break;
            }
            let now = self.now;
            for m in &mut self.masters {
                m.tick(now, &mut self.net);
            }
            self.interconnect.tick(now, &mut self.net);
            for s in &mut self.slaves {
                s.tick(now, &mut self.net);
            }
            self.sample_metrics(now, now + 1);
            self.visited_component_cycles += self.components() as u64;
            self.ticked_cycles += 1;
            self.now += 1;
        }
    }

    /// True when every master has halted and all traffic has drained —
    /// the same predicate [`run`](Self::run) terminates on.
    pub fn is_quiesced(&self) -> bool {
        self.quiesced()
    }

    /// The trace recorded at master `core`'s interface, if tracing was
    /// enabled.
    ///
    /// The returned trace carries the core's completion timestamp
    /// (`HALT`) when the master has halted, which the translator needs to
    /// reproduce trailing compute time (think Cacheloop, which computes
    /// for millions of cycles after its last bus transaction).
    pub fn trace(&self, core: usize) -> Option<MasterTrace> {
        let shared = self.traces.get(core).and_then(|t| t.as_ref())?;
        let mut trace = shared.lock().unwrap().clone();
        trace.halt_at = self.masters[core]
            .halt_cycle()
            .map(|c| self.clock.cycles_to_ns(c));
        Some(trace)
    }

    /// All recorded traces (empty if tracing was off).
    pub fn traces(&self) -> Vec<MasterTrace> {
        (0..self.masters.len())
            .filter_map(|c| self.trace(c))
            .collect()
    }

    /// The translator configuration matching this platform's memory map
    /// — the "platform knowledge" of the paper (§3): pollable ranges.
    pub fn translator_config(&self, mode: TranslationMode) -> TranslatorConfig {
        TranslatorConfig {
            pollable: self.map.pollable_ranges(),
            mode,
            loop_forever: false,
            poll_idle: 0,
        }
    }

    /// Translates every master's recorded trace into a symbolic TG
    /// program — step 2 of the paper flow, after a traced reference run.
    ///
    /// # Errors
    ///
    /// Returns [`TraceTranslationError::TracingDisabled`] if tracing was
    /// not enabled on some master, or the underlying
    /// [`TranslationError`] for a malformed trace.
    pub fn translate_traces(
        &self,
        mode: TranslationMode,
    ) -> Result<Vec<TgProgram>, TraceTranslationError> {
        let translator = TraceTranslator::new(self.translator_config(mode));
        (0..self.masters.len())
            .map(|core| {
                let trace = self
                    .trace(core)
                    .ok_or(TraceTranslationError::TracingDisabled { core })?;
                translator
                    .translate(&trace)
                    .map_err(TraceTranslationError::Translation)
            })
            .collect()
    }

    /// Replays one set of **already-assembled** TG images across several
    /// interconnect candidates — the paper's design-space-exploration
    /// loop (§1) without re-tracing or re-translating per run.
    ///
    /// `configure` is applied to each fresh builder before the images are
    /// added (use it for preloads, clock or memory-size overrides).
    /// Every returned [`RunReport`] has
    /// [`tg_reused`](RunReport::tg_reused) set: `Some(false)` for the
    /// first fabric (the images' first use), `Some(true)` for every
    /// subsequent one — the per-run cache-hit accounting the campaign
    /// engine (`ntg-explore`) aggregates.
    ///
    /// Runs are *bounded*, not checked: a design point may legitimately
    /// never complete (e.g. static-priority arbitration starving a lock
    /// holder), which shows up as `completed == false`.
    ///
    /// # Errors
    ///
    /// Propagates [`PlatformError`] from the per-fabric builds.
    pub fn explore(
        images: &[TgImage],
        fabrics: &[InterconnectChoice],
        max_cycles: Cycle,
        mut configure: impl FnMut(&mut PlatformBuilder),
    ) -> Result<Vec<(InterconnectChoice, RunReport)>, PlatformError> {
        let mut out = Vec::with_capacity(fabrics.len());
        for (i, &fabric) in fabrics.iter().enumerate() {
            let mut b = PlatformBuilder::new();
            configure(&mut b);
            b.interconnect(fabric);
            for image in images {
                b.add_tg(image.clone());
            }
            let mut platform = b.build()?;
            let mut report = platform.run(max_cycles);
            report.tg_reused = Some(i > 0);
            out.push((fabric, report));
        }
        Ok(out)
    }

    /// Host-side view of a shared-memory word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside shared memory.
    pub fn peek_shared(&self, addr: u32) -> u32 {
        let idx = self.masters.len(); // shared memory slave index
        let Slave::Mem(m) = &self.slaves[idx] else {
            unreachable!("slave {idx} is the shared memory")
        };
        m.peek(addr)
    }

    /// Host-side view of a private-memory word of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside that core's private memory.
    pub fn peek_private(&self, core: usize, addr: u32) -> u32 {
        let Slave::Mem(m) = &self.slaves[core] else {
            unreachable!("slave {core} is a private memory")
        };
        m.peek(addr)
    }

    /// Host-side view of semaphore cell `n`.
    pub fn peek_semaphore(&self, n: usize) -> u32 {
        let idx = self.masters.len() + 2;
        let Slave::Sem(s) = &self.slaves[idx] else {
            unreachable!("last slave is the semaphore bank")
        };
        s.peek_cell(n)
    }

    /// `(mean, max)` of the interconnect's characteristic latency metric
    /// in cycles, if the model records one (bus occupancy / packet
    /// latency).
    pub fn interconnect_latency(&self) -> Option<(f64, u64)> {
        self.interconnect.latency_summary()
    }

    /// Total transactions the interconnect carried.
    pub fn interconnect_transactions(&self) -> u64 {
        self.interconnect.transactions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntg_cpu::isa::{R1, R2};
    use ntg_cpu::Asm;

    fn store_program(core: usize, value: u32) -> Program {
        let mut a = Asm::new();
        a.li(R1, value);
        a.li(R2, mem_map::SHARED_BASE + (core as u32) * 4);
        a.stw(R1, R2, 0);
        a.halt();
        a.assemble(mem_map::private_base(core)).unwrap()
    }

    /// Compile-time proof that a fully wired platform can migrate to a
    /// campaign worker thread: every master, slave, interconnect, trace
    /// sink and the link arena itself must be `Send`.
    #[test]
    fn platform_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Platform>();
        assert_send::<PlatformBuilder>();
    }

    /// The runtime counterpart of [`platform_is_send`]: a platform built
    /// on one thread migrates to another and runs there, and two
    /// platforms run concurrently without interfering — the campaign
    /// runner's whole worker model in miniature.
    #[test]
    fn platforms_built_here_run_on_other_threads() {
        let build = |value: u32| {
            PlatformBuilder::new()
                .add_cpu(store_program(0, value))
                .build()
                .unwrap()
        };
        let mut a = build(7);
        let mut b = build(11);
        let (ra, rb) = std::thread::scope(|s| {
            let ta = s.spawn(move || {
                let r = a.run(100_000);
                (r, a.peek_shared(mem_map::SHARED_BASE))
            });
            let tb = s.spawn(move || {
                let r = b.run(100_000);
                (r, b.peek_shared(mem_map::SHARED_BASE))
            });
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert!(ra.0.completed && rb.0.completed);
        assert_eq!(ra.1, 7);
        assert_eq!(rb.1, 11);
        assert_eq!(
            ra.0.execution_time(),
            rb.0.execution_time(),
            "identical workloads must time identically regardless of thread"
        );
    }

    #[test]
    fn single_core_runs_to_completion() {
        let mut p = PlatformBuilder::new()
            .add_cpu(store_program(0, 42))
            .build()
            .unwrap();
        let report = p.run(100_000);
        assert!(report.completed);
        assert!(report.faults.is_empty());
        assert_eq!(p.peek_shared(mem_map::SHARED_BASE), 42);
        assert!(report.execution_time().unwrap() > 0);
    }

    #[test]
    fn four_cores_all_write_their_slots() {
        for choice in [
            InterconnectChoice::Amba,
            InterconnectChoice::Crossbar,
            InterconnectChoice::Xpipes,
            InterconnectChoice::Ideal,
        ] {
            let mut b = PlatformBuilder::new();
            b.interconnect(choice);
            for core in 0..4 {
                b.add_cpu(store_program(core, 100 + core as u32));
            }
            let mut p = b.build().unwrap();
            let report = p.run(1_000_000);
            assert!(report.completed, "{choice} did not complete");
            for core in 0..4 {
                assert_eq!(
                    p.peek_shared(mem_map::SHARED_BASE + core as u32 * 4),
                    100 + core as u32,
                    "{choice} core {core}"
                );
            }
        }
    }

    #[test]
    fn tracing_captures_each_master() {
        let mut b = PlatformBuilder::new();
        b.tracing(true);
        b.add_cpu(store_program(0, 1));
        b.add_cpu(store_program(1, 2));
        let mut p = b.build().unwrap();
        p.run(100_000);
        let traces = p.traces();
        assert_eq!(traces.len(), 2);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.master, i as u16);
            let txs = t.transactions().unwrap();
            // At least: icache refills + the store.
            assert!(!txs.is_empty());
            assert!(txs.iter().any(|tx| tx.cmd.is_write()));
        }
    }

    #[test]
    fn no_masters_is_an_error() {
        assert_eq!(
            PlatformBuilder::new().build().err(),
            Some(PlatformError::NoMasters)
        );
    }

    #[test]
    fn misplaced_program_is_an_error() {
        // Program assembled for core 1's base, loaded into core 0's
        // socket.
        let program = store_program(1, 7);
        let err = PlatformBuilder::new().add_cpu(program).build().err();
        assert_eq!(err, Some(PlatformError::ProgramOutsidePrivate { core: 0 }));
    }

    #[test]
    fn incomplete_run_reports_unfinished_masters() {
        // An infinite loop never halts.
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        let program = a.assemble(mem_map::private_base(0)).unwrap();
        let mut p = PlatformBuilder::new().add_cpu(program).build().unwrap();
        let report = p.run(5_000);
        assert!(!report.completed);
        assert_eq!(report.finish_cycles, vec![None]);
        assert_eq!(report.execution_time(), None);
    }

    #[test]
    fn metrics_are_opt_in_and_do_not_perturb_timing() {
        let build = || {
            let mut b = PlatformBuilder::new();
            for core in 0..2 {
                b.add_cpu(store_program(core, core as u32));
            }
            b.build().unwrap()
        };
        let mut plain = build();
        let base = plain.run(1_000_000);
        assert!(base.metrics.is_none(), "metrics must be opt-in");

        let mut observed = build();
        observed.enable_metrics();
        let report = observed.run(1_000_000);
        let m = report.metrics.as_ref().expect("metrics were enabled");
        assert_eq!(report.cycles, base.cycles, "observation must be passive");
        assert_eq!(report.finish_cycles, base.finish_cycles);
        assert!(m.fabric_utilization_cycles > 0);
        assert_eq!(m.links.len(), 2);
        assert!(m.links.iter().all(|l| l.grants > 0));
        // The windowed series partitions exactly the same busy cycles.
        assert_eq!(
            m.busy_windows.iter().sum::<u64>(),
            m.fabric_utilization_cycles
        );
        assert!(m.grant_wait_count > 0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let build = || {
            let mut b = PlatformBuilder::new();
            for core in 0..3 {
                b.add_cpu(store_program(core, core as u32));
            }
            b.build().unwrap()
        };
        let r1 = build().run(1_000_000);
        let r2 = build().run(1_000_000);
        assert_eq!(r1.finish_cycles, r2.finish_cycles);
        assert_eq!(r1.cycles, r2.cycles);
    }
}
