//! Stochastic traffic generation — the baseline the paper argues
//! *against*.
//!
//! The paper's related work (§2, citing Lahiri et al.): "a stochastic
//! model is used for NoC exploration. Traffic behavior is statistically
//! represented by means of uniform, Gaussian, or Poisson distributions.
//! Such distributions assume a degree of correlation within the
//! communication transactions which is unlikely in a SoC environment.
//! … since the characteristics (functionality and timing) of the IP core
//! are not captured, such models are unreliable for optimizing NoC
//! features."
//!
//! [`StochasticTg`] implements that baseline so the claim can be
//! *measured* (see the `ablation_stochastic` experiment binary): a
//! blocking OCP master issuing random reads/writes with configurable
//! inter-arrival and address distributions, seeded for reproducibility.
//! It has no application structure — no compute/communication phases, no
//! cache-refill bursts tied to program locality, and crucially no
//! *reactivity*: it never polls, so synchronisation dynamics are absent
//! from its traffic.

use crate::rng::Xoshiro256;
use ntg_ocp::{DataWords, LinkArena, MasterPort, OcpRequest, OcpStatus};
use ntg_sim::{Activity, Component, Cycle};

/// Inter-arrival (idle-gap) distribution between transactions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GapDistribution {
    /// Uniform in `[min, max]` cycles.
    Uniform {
        /// Smallest gap.
        min: u32,
        /// Largest gap (inclusive).
        max: u32,
    },
    /// Geometric with mean `mean` cycles — the discrete analogue of the
    /// exponential inter-arrival of a Poisson process.
    Geometric {
        /// Mean gap in cycles (≥ 1).
        mean: u32,
    },
    /// Every gap exactly `gap` cycles (periodic traffic).
    Fixed {
        /// The constant gap.
        gap: u32,
    },
}

impl GapDistribution {
    fn sample(&self, rng: &mut Xoshiro256) -> u32 {
        match *self {
            GapDistribution::Uniform { min, max } => rng.range_u32(min, max),
            GapDistribution::Geometric { mean } => {
                let p = 1.0 / f64::from(mean.max(1));
                // Clamp away from 0 so ln(u) stays finite.
                let u = rng.f64().max(f64::EPSILON);
                (u.ln() / (1.0 - p).ln()).floor() as u32
            }
            GapDistribution::Fixed { gap } => gap,
        }
    }
}

/// Configuration of a [`StochasticTg`].
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticConfig {
    /// RNG seed (runs are reproducible per seed).
    pub seed: u64,
    /// Word-aligned address ranges `(base, size)` to draw targets from,
    /// uniformly.
    pub ranges: Vec<(u32, u32)>,
    /// Probability in `[0, 1]` that a transaction is a write.
    pub write_fraction: f64,
    /// Probability in `[0, 1]` that a read is a 4-beat burst (modelling
    /// cache-refill-like traffic without any actual locality).
    pub burst_fraction: f64,
    /// Idle-gap distribution between transactions.
    pub gap: GapDistribution,
    /// Total transactions to issue before halting.
    pub transactions: u64,
}

impl Default for StochasticConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            ranges: vec![(0x1000, 0x1000)],
            write_fraction: 0.4,
            burst_fraction: 0.2,
            gap: GapDistribution::Geometric { mean: 10 },
            transactions: 1_000,
        }
    }
}

impl StochasticConfig {
    /// Serialises the configuration for the persistent artifact store
    /// (little-endian, deterministic; framing/versioning is the
    /// caller's concern — store entries carry their own header and
    /// checksum).
    pub fn encode(&self, w: &mut ntg_trace::ByteWriter) {
        w.u64(self.seed);
        w.u32(self.ranges.len() as u32);
        for &(base, size) in &self.ranges {
            w.u32(base);
            w.u32(size);
        }
        w.f64(self.write_fraction);
        w.f64(self.burst_fraction);
        match self.gap {
            GapDistribution::Uniform { min, max } => {
                w.u8(0);
                w.u32(min);
                w.u32(max);
            }
            GapDistribution::Geometric { mean } => {
                w.u8(1);
                w.u32(mean);
            }
            GapDistribution::Fixed { gap } => {
                w.u8(2);
                w.u32(gap);
            }
        }
        w.u64(self.transactions);
    }

    /// Deserialises a configuration written by [`Self::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`BinCodecError`](ntg_trace::BinCodecError) on a
    /// truncated stream or an undefined distribution tag.
    pub fn decode(r: &mut ntg_trace::ByteReader<'_>) -> Result<Self, ntg_trace::BinCodecError> {
        let seed = r.u64()?;
        let n_ranges = r.u32()? as usize;
        let mut ranges = Vec::with_capacity(n_ranges.min(1 << 16));
        for _ in 0..n_ranges {
            let base = r.u32()?;
            let size = r.u32()?;
            ranges.push((base, size));
        }
        let write_fraction = r.f64()?;
        let burst_fraction = r.f64()?;
        let tag_at = r.offset();
        let gap = match r.u8()? {
            0 => GapDistribution::Uniform {
                min: r.u32()?,
                max: r.u32()?,
            },
            1 => GapDistribution::Geometric { mean: r.u32()? },
            2 => GapDistribution::Fixed { gap: r.u32()? },
            _ => return Err(ntg_trace::BinCodecError::BadTag { offset: tag_at }),
        };
        let transactions = r.u64()?;
        Ok(Self {
            seed,
            ranges,
            write_fraction,
            burst_fraction,
            gap,
            transactions,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idling { remaining: u32 },
    WaitResp,
    WaitAccept,
    Ready,
    Halted,
}

/// A stochastic (statistically distributed) OCP traffic source.
///
/// Blocking like every platform master: reads wait for their response,
/// writes for acceptance — so the *offered load* adapts to network
/// back-pressure even though the traffic itself carries no application
/// structure.
pub struct StochasticTg {
    name: String,
    port: MasterPort,
    cfg: StochasticConfig,
    rng: Xoshiro256,
    state: State,
    issued: u64,
    errors: u64,
    halt_cycle: Option<Cycle>,
}

impl StochasticTg {
    /// Creates a stochastic source.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ranges` is empty, a range is empty/misaligned, or
    /// the fractions are outside `[0, 1]`.
    pub fn new(name: impl Into<String>, port: MasterPort, cfg: StochasticConfig) -> Self {
        assert!(!cfg.ranges.is_empty(), "need at least one address range");
        for &(base, size) in &cfg.ranges {
            assert!(
                base % 4 == 0 && size >= 4 && size % 4 == 0,
                "ranges must be word-aligned and non-empty"
            );
        }
        assert!(
            (0.0..=1.0).contains(&cfg.write_fraction) && (0.0..=1.0).contains(&cfg.burst_fraction),
            "fractions must be within [0, 1]"
        );
        let rng = Xoshiro256::seed_from_u64(cfg.seed);
        // A source asked for no transactions is done before it starts.
        let (state, halt_cycle) = if cfg.transactions == 0 {
            (State::Halted, Some(0))
        } else {
            (State::Ready, None)
        };
        Self {
            name: name.into(),
            port,
            cfg,
            rng,
            state,
            issued: 0,
            errors: 0,
            halt_cycle,
        }
    }

    /// Whether the configured number of transactions has been issued and
    /// completed.
    pub fn halted(&self) -> bool {
        self.state == State::Halted
    }

    /// The cycle the last transaction completed in, if done.
    pub fn halt_cycle(&self) -> Option<Cycle> {
        self.halt_cycle
    }

    /// Transactions issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Error responses received so far.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    fn pick_addr(&mut self, burst_words: u32) -> u32 {
        let idx = self.rng.below(self.cfg.ranges.len() as u64) as usize;
        let (base, size) = self.cfg.ranges[idx];
        let words = size / 4;
        let span = words.saturating_sub(burst_words - 1).max(1);
        base + self.rng.below(u64::from(span)) as u32 * 4
    }

    fn issue(&mut self, now: Cycle, net: &mut LinkArena) {
        let is_write = self.rng.bool(self.cfg.write_fraction);
        let is_burst = self.rng.bool(self.cfg.burst_fraction);
        let req = match (is_write, is_burst) {
            (false, false) => OcpRequest::read(self.pick_addr(1)),
            (false, true) => OcpRequest::burst_read(self.pick_addr(4), 4),
            (true, false) => {
                let addr = self.pick_addr(1);
                let data = self.rng.next_u32();
                OcpRequest::write(addr, data)
            }
            (true, true) => {
                let addr = self.pick_addr(4);
                let data: DataWords = (0..4).map(|_| self.rng.next_u32()).collect();
                OcpRequest::burst_write(addr, data)
            }
        };
        let expects = req.cmd.expects_response();
        self.port.assert_request(net, req, now);
        self.issued += 1;
        self.state = if expects {
            State::WaitResp
        } else {
            State::WaitAccept
        };
    }

    fn after_completion(&mut self, now: Cycle) -> bool {
        if self.issued >= self.cfg.transactions {
            self.halt_cycle = Some(now);
            self.state = State::Halted;
            return false;
        }
        let gap = self.cfg.gap.sample(&mut self.rng);
        if gap > 0 {
            self.state = State::Idling { remaining: gap };
            false
        } else {
            self.state = State::Ready;
            true
        }
    }
}

impl Component<LinkArena> for StochasticTg {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        let ready = match self.state {
            State::Halted => false,
            State::Ready => true,
            State::Idling { remaining } => {
                if remaining <= 1 {
                    self.state = State::Ready;
                } else {
                    self.state = State::Idling {
                        remaining: remaining - 1,
                    };
                }
                false
            }
            State::WaitResp => match self.port.take_response(net, now) {
                Some(resp) => {
                    if resp.status != OcpStatus::Ok {
                        self.errors += 1;
                    }
                    self.after_completion(now)
                }
                None => false,
            },
            State::WaitAccept => {
                if self.port.take_accept(net, now).is_some() {
                    self.after_completion(now)
                } else {
                    false
                }
            }
        };
        if ready {
            self.issue(now, net);
        }
    }

    fn is_idle(&self, net: &LinkArena) -> bool {
        self.halted() && self.port.is_quiet(net)
    }

    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        match self.state {
            State::Ready => Activity::Busy,
            State::Halted => {
                if self.port.is_quiet(net) {
                    Activity::Drained
                } else {
                    Activity::Busy
                }
            }
            State::Idling { remaining } => Activity::IdleUntil(now + Cycle::from(remaining)),
            State::WaitResp => Activity::awaiting(self.port.response_visible_at(net), now),
            State::WaitAccept => Activity::awaiting(self.port.accept_visible_at(net), now),
        }
    }

    fn skip(&mut self, now: Cycle, next: Cycle, _net: &mut LinkArena) {
        if let State::Idling { remaining } = self.state {
            let n = (next - now) as u32;
            debug_assert!(n <= remaining);
            if n == remaining {
                self.state = State::Ready;
            } else {
                self.state = State::Idling {
                    remaining: remaining - n,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntg_mem::MemoryDevice;
    use ntg_ocp::MasterId;

    fn run_to_halt(cfg: StochasticConfig) -> (StochasticTg, MemoryDevice, Cycle) {
        let mut net = LinkArena::new();
        let (mport, sport) = net.channel("stg", MasterId(0));
        let mut mem = MemoryDevice::new("ram", 0x1000, 0x1000, sport);
        let mut tg = StochasticTg::new("stg", mport, cfg);
        for now in 0..2_000_000u64 {
            tg.tick(now, &mut net);
            mem.tick(now, &mut net);
            if tg.halted() {
                return (tg, mem, now);
            }
        }
        panic!("stochastic TG did not finish");
    }

    #[test]
    fn issues_the_configured_number_of_transactions() {
        let (tg, mem, _) = run_to_halt(StochasticConfig {
            transactions: 200,
            ..StochasticConfig::default()
        });
        assert_eq!(tg.issued(), 200);
        assert_eq!(tg.errors(), 0);
        assert_eq!(mem.reads() + mem.writes(), 200);
    }

    #[test]
    fn zero_transactions_halt_at_cycle_zero_having_issued_nothing() {
        let mut net = LinkArena::new();
        let (mport, sport) = net.channel("stg", MasterId(0));
        let mut mem = MemoryDevice::new("ram", 0x1000, 0x1000, sport);
        let mut tg = StochasticTg::new(
            "stg",
            mport,
            StochasticConfig {
                transactions: 0,
                ..StochasticConfig::default()
            },
        );
        assert!(tg.halted());
        assert_eq!(tg.halt_cycle(), Some(0));
        assert_eq!(tg.next_activity(0, &net), Activity::Drained);
        for now in 0..100 {
            tg.tick(now, &mut net);
            mem.tick(now, &mut net);
        }
        assert_eq!(tg.issued(), 0);
        assert_eq!(mem.reads() + mem.writes(), 0);
        assert_eq!(tg.halt_cycle(), Some(0));
    }

    #[test]
    fn same_seed_is_reproducible() {
        let cfg = StochasticConfig {
            transactions: 150,
            seed: 42,
            ..StochasticConfig::default()
        };
        let (_, _, t1) = run_to_halt(cfg.clone());
        let (_, _, t2) = run_to_halt(cfg);
        assert_eq!(t1, t2, "same seed must give identical runs");
    }

    #[test]
    fn different_seeds_differ() {
        let base = StochasticConfig {
            transactions: 150,
            ..StochasticConfig::default()
        };
        let (_, _, t1) = run_to_halt(StochasticConfig {
            seed: 1,
            ..base.clone()
        });
        let (_, _, t2) = run_to_halt(StochasticConfig { seed: 2, ..base });
        assert_ne!(t1, t2, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn write_fraction_zero_means_all_reads() {
        let (_, mem, _) = run_to_halt(StochasticConfig {
            transactions: 100,
            write_fraction: 0.0,
            ..StochasticConfig::default()
        });
        assert_eq!(mem.writes(), 0);
        assert_eq!(mem.reads(), 100);
    }

    #[test]
    fn mean_gap_scales_run_length() {
        let quick = run_to_halt(StochasticConfig {
            transactions: 100,
            gap: GapDistribution::Fixed { gap: 2 },
            ..StochasticConfig::default()
        })
        .2;
        let slow = run_to_halt(StochasticConfig {
            transactions: 100,
            gap: GapDistribution::Fixed { gap: 40 },
            ..StochasticConfig::default()
        })
        .2;
        assert!(
            slow > quick + 100 * 30,
            "larger gaps must stretch the run: {quick} vs {slow}"
        );
    }

    #[test]
    fn bursts_stay_inside_the_range() {
        let (tg, _, _) = run_to_halt(StochasticConfig {
            transactions: 300,
            burst_fraction: 1.0,
            ranges: vec![(0x1000, 0x20)], // 8 words: bursts must fit
            ..StochasticConfig::default()
        });
        assert_eq!(tg.errors(), 0, "no out-of-range bursts");
    }

    #[test]
    #[should_panic(expected = "at least one address range")]
    fn empty_ranges_rejected() {
        let mut net = LinkArena::new();
        let (mport, _s) = net.channel("stg", MasterId(0));
        let _ = StochasticTg::new(
            "stg",
            mport,
            StochasticConfig {
                ranges: vec![],
                ..StochasticConfig::default()
            },
        );
    }

    #[test]
    fn config_codec_round_trips() {
        for cfg in [
            StochasticConfig::default(),
            StochasticConfig {
                seed: u64::MAX,
                ranges: vec![(0x1000, 0x200), (0x1b00_0000, 0x100)],
                write_fraction: 0.375,
                burst_fraction: 1.0,
                gap: GapDistribution::Uniform { min: 0, max: 99 },
                transactions: 0,
            },
            StochasticConfig {
                gap: GapDistribution::Fixed { gap: 7 },
                ..StochasticConfig::default()
            },
        ] {
            let mut w = ntg_trace::ByteWriter::new();
            cfg.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ntg_trace::ByteReader::new(&bytes);
            let back = StochasticConfig::decode(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn config_decode_rejects_bad_gap_tag() {
        let mut w = ntg_trace::ByteWriter::new();
        StochasticConfig::default().encode(&mut w);
        let mut bytes = w.into_bytes();
        // The gap tag sits right after seed(8) + len(4) + one range(8) +
        // two f64 fractions(16).
        bytes[36] = 9;
        let mut r = ntg_trace::ByteReader::new(&bytes);
        assert!(matches!(
            StochasticConfig::decode(&mut r),
            Err(ntg_trace::BinCodecError::BadTag { offset: 36 })
        ));
    }
}
