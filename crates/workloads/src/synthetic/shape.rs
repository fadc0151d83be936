//! Temporal injection shapes and the pre-sampled injection schedule.
//!
//! A [`Schedule`] turns a shape × rate pair into a strictly increasing
//! sequence of absolute injection cycles. The sequence is a pure
//! function of the PRNG stream — it never looks at back-pressure — so
//! the *offered* load is well defined even when the fabric saturates:
//! a blocked master falls behind its schedule and the gap between the
//! last scheduled slot and the actual completion time is exactly the
//! offered-vs-accepted signal surfaced in `RunReport`.

use ntg_core::rng::Xoshiro256;
use ntg_sim::Cycle;

/// A temporal injection shape (how packets are spaced in time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeKind {
    /// Independent Bernoulli trial each cycle: inject with probability λ.
    Bernoulli,
    /// Periodic bursts of `len` back-to-back packets; the period is
    /// stretched so the long-run average rate is still λ.
    Burst {
        /// Packets per burst (≥ 1).
        len: u32,
    },
    /// On/off square wave ("DDoS-style"): Bernoulli injection during the
    /// `on` window, silence during the `off` window, with the on-rate
    /// boosted so the long-run average rate is still λ.
    OnOff {
        /// On-window width in cycles (≥ 1).
        on: u32,
        /// Off-window width in cycles.
        off: u32,
    },
}

/// All three shapes (at representative burst/window sizes), in the order
/// the saturation experiments sweep them.
pub const ALL_SHAPES: [ShapeKind; 3] = [
    ShapeKind::Bernoulli,
    ShapeKind::Burst { len: 8 },
    ShapeKind::OnOff { on: 256, off: 768 },
];

impl std::fmt::Display for ShapeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ShapeKind::Bernoulli => f.write_str("bernoulli"),
            ShapeKind::Burst { len } => write!(f, "burst:{len}"),
            ShapeKind::OnOff { on, off } => write!(f, "onoff:{on}:{off}"),
        }
    }
}

impl std::str::FromStr for ShapeKind {
    type Err = String;

    /// Parses the names printed by [`Display`] (`bernoulli`,
    /// `burst:<len>`, `onoff:<on>:<off>`).
    fn from_str(s: &str) -> Result<Self, String> {
        if s == "bernoulli" {
            return Ok(ShapeKind::Bernoulli);
        }
        if let Some(len) = s.strip_prefix("burst:") {
            let len: u32 = len
                .parse()
                .ok()
                .filter(|l| *l >= 1)
                .ok_or_else(|| format!("burst length `{len}` is not a positive integer"))?;
            return Ok(ShapeKind::Burst { len });
        }
        if let Some(rest) = s.strip_prefix("onoff:") {
            let (on, off) = rest
                .split_once(':')
                .ok_or_else(|| format!("onoff spec `{rest}` is not <on>:<off>"))?;
            let on: u32 = on
                .parse()
                .ok()
                .filter(|w| *w >= 1)
                .ok_or_else(|| format!("on-window `{on}` is not a positive integer"))?;
            let off: u32 = off
                .parse()
                .map_err(|_| format!("off-window `{off}` is not an integer"))?;
            return Ok(ShapeKind::OnOff { on, off });
        }
        Err(format!(
            "unknown shape `{s}` (expected bernoulli, burst:<len> or onoff:<on>:<off>)"
        ))
    }
}

/// A strictly increasing stream of absolute injection cycles for one
/// master. Draws from the caller's PRNG (random shapes only); yields
/// identical sequences for identical seeds regardless of host threads
/// or cycle skipping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    kind: ShapeKind,
    /// Effective per-eligible-cycle injection probability: λ for
    /// Bernoulli, the boosted on-window rate for on/off.
    p: f64,
    /// Packets scheduled so far.
    count: u64,
    /// Position on the *eligible-cycle* axis of the last scheduled
    /// packet (Bernoulli: the cycle itself; on/off: the on-time index).
    tau: Cycle,
}

impl Schedule {
    /// Creates a schedule with long-run average rate `rate` packets per
    /// cycle per master.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `(0, 1]`.
    pub fn new(kind: ShapeKind, rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "injection rate must be in (0, 1], got {rate}"
        );
        let p = match kind {
            ShapeKind::Bernoulli | ShapeKind::Burst { .. } => rate,
            ShapeKind::OnOff { on, off } => {
                let duty = f64::from(on) / (f64::from(on) + f64::from(off));
                (rate / duty).min(1.0)
            }
        };
        Self {
            kind,
            p,
            count: 0,
            tau: 0,
        }
    }

    /// Absolute cycle of the next scheduled injection. Strictly greater
    /// than the previously returned cycle.
    pub fn next(&mut self, rng: &mut Xoshiro256) -> Cycle {
        let at = match self.kind {
            ShapeKind::Bernoulli => {
                self.advance_tau(rng);
                self.tau
            }
            ShapeKind::Burst { len } => {
                let len = u64::from(len);
                let period = (len + 1).max((len as f64 / self.p).round() as u64);
                (self.count / len) * period + self.count % len
            }
            ShapeKind::OnOff { on, off } => {
                self.advance_tau(rng);
                let (on, off) = (u64::from(on), u64::from(off));
                (self.tau / on) * (on + off) + self.tau % on
            }
        };
        self.count += 1;
        at
    }

    /// Advances `tau` by a geometric gap with success probability `p`:
    /// the first draw lands on the gap itself, subsequent draws add
    /// `1 + gap` so the stream is strictly increasing.
    fn advance_tau(&mut self, rng: &mut Xoshiro256) {
        let gap = if self.p >= 1.0 {
            0
        } else {
            // P(gap = g) = (1-p)^g · p. `1 - u` is in (0, 1], so the
            // logarithm stays finite.
            let u = rng.f64();
            ((1.0 - u).ln() / (1.0 - self.p).ln()).floor() as u64
        };
        self.tau = if self.count == 0 {
            gap
        } else {
            self.tau.saturating_add(1 + gap)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(kind: ShapeKind, rate: f64, seed: u64, n: usize) -> Vec<Cycle> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut s = Schedule::new(kind, rate);
        (0..n).map(|_| s.next(&mut rng)).collect()
    }

    #[test]
    fn shape_specs_round_trip() {
        for k in ALL_SHAPES {
            assert_eq!(k.to_string().parse::<ShapeKind>().unwrap(), k);
        }
        assert!("burst:0".parse::<ShapeKind>().is_err());
        assert!("onoff:0:4".parse::<ShapeKind>().is_err());
        assert!("onoff:4".parse::<ShapeKind>().is_err());
        assert!("poisson".parse::<ShapeKind>().is_err());
    }

    #[test]
    fn schedules_are_strictly_increasing_and_deterministic() {
        for kind in ALL_SHAPES {
            let a = take(kind, 0.1, 42, 500);
            let b = take(kind, 0.1, 42, 500);
            assert_eq!(a, b, "{kind}: same seed, same schedule");
            assert!(
                a.windows(2).all(|w| w[1] > w[0]),
                "{kind}: injections must be strictly increasing"
            );
        }
    }

    #[test]
    fn bernoulli_mean_rate_is_close_to_lambda() {
        let fires = take(ShapeKind::Bernoulli, 0.05, 7, 4_000);
        let span = *fires.last().unwrap() + 1;
        let rate = fires.len() as f64 / span as f64;
        assert!(
            (rate - 0.05).abs() < 0.005,
            "empirical rate {rate} far from 0.05"
        );
    }

    #[test]
    fn burst_positions_are_exact() {
        // len 4 at λ=0.1: period = max(5, 40) = 40.
        let fires = take(ShapeKind::Burst { len: 4 }, 0.1, 1, 10);
        assert_eq!(fires, vec![0, 1, 2, 3, 40, 41, 42, 43, 80, 81]);
    }

    #[test]
    fn burst_at_full_rate_is_back_to_back_with_a_gap() {
        // len 4 at λ=1.0 clamps the period to len+1.
        let fires = take(ShapeKind::Burst { len: 4 }, 1.0, 1, 6);
        assert_eq!(fires, vec![0, 1, 2, 3, 5, 6]);
    }

    #[test]
    fn onoff_fires_only_inside_on_windows() {
        let (on, off) = (64u64, 192u64);
        let fires = take(
            ShapeKind::OnOff {
                on: on as u32,
                off: off as u32,
            },
            0.05,
            3,
            800,
        );
        for t in &fires {
            assert!(t % (on + off) < on, "cycle {t} lies in an off window");
        }
        // The on-rate is boosted 4× to preserve the average rate.
        let span = *fires.last().unwrap() + 1;
        let rate = fires.len() as f64 / span as f64;
        assert!(
            (rate - 0.05).abs() < 0.01,
            "empirical mean rate {rate} far from 0.05"
        );
    }

    #[test]
    fn onoff_on_rate_clamps_at_one() {
        // λ=0.9 with a 25% duty cycle wants on-rate 3.6 → clamps to 1.0:
        // back-to-back injections inside every on window.
        let fires = take(ShapeKind::OnOff { on: 4, off: 12 }, 0.9, 1, 8);
        assert_eq!(fires, vec![0, 1, 2, 3, 16, 17, 18, 19]);
    }

    #[test]
    #[should_panic(expected = "injection rate")]
    fn zero_rate_rejected() {
        let _ = Schedule::new(ShapeKind::Bernoulli, 0.0);
    }
}
