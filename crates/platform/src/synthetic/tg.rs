//! The synthetic traffic-generator master.
//!
//! [`SyntheticTg`] drives the fabric directly from a destination
//! [`Pattern`] and an injection [`Schedule`] — no trace, no translation,
//! no program image. It speaks the same blocking OCP master protocol as
//! every other platform master: each packet is a posted write (single
//! word or inline burst) to the destination node's private memory, and
//! the next packet is not issued until the fabric accepted the current
//! one. The *schedule* however never waits: when the fabric back-
//! pressures, the master falls behind its scheduled slots, which is
//! exactly the offered-vs-accepted saturation signal.

use super::pattern::Pattern;
use super::shape::Schedule;
use crate::{mem_map, MasterReport};
use ntg_core::rng::Xoshiro256;
use ntg_ocp::{DataWords, LinkArena, MasterPort, OcpRequest};
use ntg_sim::{Activity, Component, Cycle};

/// Width in words of the per-destination address window packets land in
/// (a 1 KiB scratch region at the base of each private memory).
const WINDOW_WORDS: u64 = 256;

/// Configuration of a [`SyntheticTg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Destination-selection pattern.
    pub pattern: Pattern,
    /// Injection schedule (temporal shape × rate), pre-built so the
    /// constructor stays infallible.
    pub schedule: Schedule,
    /// Words per packet (≥ 1; ≤ 4 keeps the payload inline/alloc-free).
    pub words: u32,
    /// Packets to inject before halting (≥ 1).
    pub packets: u64,
    /// Per-master PRNG seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// A small default: uniform Bernoulli at λ=0.05, 4-word packets.
    pub fn example(seed: u64) -> Self {
        Self {
            pattern: Pattern::Uniform,
            schedule: Schedule::new(super::shape::ShapeKind::Bernoulli, 0.05),
            words: 4,
            packets: 256,
            seed,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Waiting for the next scheduled injection cycle.
    Waiting,
    /// A packet is asserted; waiting for the fabric to accept it.
    WaitAccept,
    /// All packets injected.
    Halted,
}

/// A synthetic pattern × shape traffic generator.
pub struct SyntheticTg {
    name: String,
    port: MasterPort,
    rng: Xoshiro256,
    schedule: Schedule,
    pattern: Pattern,
    words: u32,
    core: usize,
    cores: usize,
    packets_target: u64,
    packets_done: u64,
    /// Scheduled slot of the packet currently being injected (or, once
    /// halted, of the last packet).
    next_fire: Cycle,
    /// Scheduled slot of the last *issued* packet.
    last_scheduled: Cycle,
    idle_cycles: u64,
    wait_cycles: u64,
    state: State,
    halt_cycle: Option<Cycle>,
}

impl SyntheticTg {
    /// Creates a synthetic master for node `core` of `cores`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.words == 0` or `cfg.packets == 0`.
    pub fn new(
        name: impl Into<String>,
        port: MasterPort,
        cfg: SyntheticConfig,
        core: usize,
        cores: usize,
    ) -> Self {
        assert!(cfg.words >= 1, "packets must carry at least one word");
        assert!(cfg.packets >= 1, "must inject at least one packet");
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let mut schedule = cfg.schedule;
        let next_fire = schedule.next(&mut rng);
        Self {
            name: name.into(),
            port,
            rng,
            schedule,
            pattern: cfg.pattern,
            words: cfg.words,
            core,
            cores: cores.max(1),
            packets_target: cfg.packets,
            packets_done: 0,
            next_fire,
            last_scheduled: 0,
            idle_cycles: 0,
            wait_cycles: 0,
            state: State::Waiting,
            halt_cycle: None,
        }
    }

    /// Packets fully injected (accepted by the fabric) so far.
    pub fn packets(&self) -> u64 {
        self.packets_done
    }

    /// Whether every packet has been injected.
    pub fn is_halted(&self) -> bool {
        self.state == State::Halted
    }

    /// The cycle the last packet was accepted in, once halted.
    pub(crate) fn halt_cycle(&self) -> Option<Cycle> {
        self.halt_cycle
    }

    /// The packet and state-residency counters of this master.
    pub(crate) fn report(&self) -> MasterReport {
        MasterReport::Synthetic {
            packets: self.packets_done,
            last_scheduled: self.last_scheduled,
            idle_cycles: self.idle_cycles,
            wait_cycles: self.wait_cycles,
        }
    }

    /// Builds and asserts the next packet; records its scheduled slot.
    fn issue(&mut self, now: Cycle, net: &mut LinkArena) {
        let dest = self.pattern.dest(self.core, self.cores, &mut self.rng);
        let span = WINDOW_WORDS - u64::from(self.words - 1).min(WINDOW_WORDS - 1);
        let addr = mem_map::private_base(dest) + self.rng.below(span) as u32 * 4;
        let req = if self.words == 1 {
            OcpRequest::write(addr, self.rng.next_u32())
        } else {
            let data: DataWords = (0..self.words).map(|_| self.rng.next_u32()).collect();
            OcpRequest::burst_write(addr, data)
        };
        self.port.assert_request(net, req, now);
        self.last_scheduled = self.next_fire;
        self.state = State::WaitAccept;
    }
}

impl Component<LinkArena> for SyntheticTg {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        match self.state {
            State::Halted => {}
            State::Waiting => {
                if now >= self.next_fire {
                    self.issue(now, net);
                } else {
                    self.idle_cycles += 1;
                }
            }
            State::WaitAccept => {
                if self.port.take_accept(net, now).is_some() {
                    self.packets_done += 1;
                    if self.packets_done >= self.packets_target {
                        self.halt_cycle = Some(now);
                        self.state = State::Halted;
                    } else {
                        self.next_fire = self.schedule.next(&mut self.rng);
                        self.state = State::Waiting;
                        if now >= self.next_fire {
                            // Behind schedule (back-pressure): inject the
                            // next packet in the same cycle, like every
                            // other master's zero-gap path.
                            self.issue(now, net);
                        }
                    }
                } else {
                    self.wait_cycles += 1;
                }
            }
        }
    }

    fn is_idle(&self, net: &LinkArena) -> bool {
        self.state == State::Halted && self.port.is_quiet(net)
    }

    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        match self.state {
            State::Waiting => {
                if self.next_fire > now {
                    Activity::IdleUntil(self.next_fire)
                } else {
                    Activity::Busy
                }
            }
            State::WaitAccept => Activity::awaiting(self.port.accept_visible_at(net), now),
            State::Halted => {
                if self.port.is_quiet(net) {
                    Activity::Drained
                } else {
                    Activity::Busy
                }
            }
        }
    }

    fn skip(&mut self, now: Cycle, next: Cycle, _net: &mut LinkArena) {
        match self.state {
            State::Waiting => {
                debug_assert!(next <= self.next_fire);
                self.idle_cycles += next - now;
            }
            State::WaitAccept => {
                self.wait_cycles += next - now;
            }
            State::Halted => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::shape::ShapeKind;
    use super::*;
    use ntg_mem::MemoryDevice;
    use ntg_ocp::MasterId;

    fn run_to_halt(cfg: SyntheticConfig) -> (SyntheticTg, MemoryDevice, Cycle) {
        let mut net = LinkArena::new();
        let (mport, sport) = net.channel("syn", MasterId(0));
        // One memory standing in for node 1's private window.
        let mut mem = MemoryDevice::new("ram", mem_map::private_base(1), 0x1_0000, sport);
        let mut tg = SyntheticTg::new("syn", mport, cfg, 0, 2);
        for now in 0..4_000_000u64 {
            tg.tick(now, &mut net);
            mem.tick(now, &mut net);
            if tg.is_halted() {
                return (tg, mem, now);
            }
        }
        panic!("synthetic TG did not finish");
    }

    fn cfg(shape: ShapeKind, rate: f64) -> SyntheticConfig {
        SyntheticConfig {
            pattern: Pattern::Uniform,
            schedule: Schedule::new(shape, rate),
            words: 4,
            packets: 300,
            seed: 11,
        }
    }

    #[test]
    fn injects_the_configured_number_of_packets() {
        let (tg, mem, _) = run_to_halt(cfg(ShapeKind::Bernoulli, 0.1));
        assert_eq!(tg.packets(), 300);
        assert_eq!(mem.writes(), 300);
        assert_eq!(mem.reads(), 0, "synthetic traffic is write-only");
    }

    #[test]
    fn same_seed_is_reproducible_different_seeds_differ() {
        let (_, _, t1) = run_to_halt(cfg(ShapeKind::Bernoulli, 0.1));
        let (_, _, t2) = run_to_halt(cfg(ShapeKind::Bernoulli, 0.1));
        assert_eq!(t1, t2);
        let (_, _, t3) = run_to_halt(SyntheticConfig {
            seed: 12,
            ..cfg(ShapeKind::Bernoulli, 0.1)
        });
        assert_ne!(t1, t3);
    }

    #[test]
    fn rate_stretches_the_run() {
        let (_, _, fast) = run_to_halt(cfg(ShapeKind::Bernoulli, 0.5));
        let (_, _, slow) = run_to_halt(cfg(ShapeKind::Bernoulli, 0.01));
        assert!(
            slow > fast * 10,
            "λ=0.01 must run much longer than λ=0.5: {fast} vs {slow}"
        );
    }

    #[test]
    fn all_shapes_complete_and_report_residency() {
        for shape in super::super::shape::ALL_SHAPES {
            let (tg, _, _) = run_to_halt(cfg(shape, 0.05));
            let MasterReport::Synthetic {
                packets,
                last_scheduled,
                idle_cycles,
                ..
            } = tg.report()
            else {
                panic!("wrong report kind");
            };
            assert_eq!(packets, 300);
            assert!(last_scheduled > 0);
            assert!(idle_cycles > 0, "{shape}: low λ must accrue idle cycles");
        }
    }

    #[test]
    fn single_word_packets_use_plain_writes() {
        let (tg, mem, _) = run_to_halt(SyntheticConfig {
            words: 1,
            ..cfg(ShapeKind::Burst { len: 8 }, 0.2)
        });
        assert_eq!(tg.packets(), 300);
        assert_eq!(mem.writes(), 300);
    }

    #[test]
    fn skip_bookkeeping_matches_ticked_idle() {
        // Drive the TG tick-by-tick and via skip() over the same idle
        // stretch; the idle counter must agree.
        let mk = |net: &mut LinkArena| {
            let (mport, _s) = net.channel("syn", MasterId(0));
            SyntheticTg::new(
                "syn",
                mport,
                SyntheticConfig {
                    pattern: Pattern::NearestNeighbor,
                    schedule: Schedule::new(ShapeKind::Bernoulli, 0.01),
                    words: 1,
                    packets: 2,
                    seed: 5,
                },
                0,
                4,
            )
        };
        let mut net = LinkArena::new();
        let mut ticked = mk(&mut net);
        let Activity::IdleUntil(w) = ticked.next_activity(0, &net) else {
            panic!("λ=0.01 with this seed should start with an idle gap");
        };
        assert!(w > 0 && w < 100_000);
        for now in 0..w {
            ticked.tick(now, &mut net);
        }
        let mut skipped = mk(&mut net);
        skipped.skip(0, w, &mut net);
        assert_eq!(ticked.idle_cycles, w);
        assert_eq!(skipped.idle_cycles, w);
    }
}
