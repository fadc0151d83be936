//! Results of a platform run.

use std::time::Duration;

use ntg_core::TgStats;
use ntg_cpu::CpuStats;
use ntg_sim::{Cycle, LinkMetrics};

/// Per-master statistics, depending on what kind of master it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterReport {
    /// A CPU core's statistics.
    Cpu(CpuStats),
    /// A traffic generator's statistics.
    Tg(TgStats),
    /// A stochastic source: transactions issued.
    Stochastic {
        /// Transactions issued.
        issued: u64,
        /// Error responses received.
        errors: u64,
    },
    /// A synthetic traffic generator (pattern × temporal-shape masters,
    /// [`SyntheticTg`](crate::synthetic::SyntheticTg)): packet and
    /// state-residency counters.
    Synthetic {
        /// Packets fully injected (request accepted by the fabric).
        packets: u64,
        /// Scheduled injection cycle of the last issued packet — the end
        /// of the *offered* span. The schedule is a pure function of the
        /// seed, independent of back-pressure, so
        /// `packets / last_scheduled` measures offered load while
        /// `packets / halt_cycle` measures accepted throughput.
        last_scheduled: Cycle,
        /// Cycles spent waiting for the next scheduled injection slot.
        idle_cycles: u64,
        /// Cycles blocked on the interconnect (request outstanding).
        wait_cycles: u64,
    },
}

/// Opt-in observability summary collected when
/// [`Platform::enable_metrics`](crate::Platform::enable_metrics) was
/// called before the run.
///
/// Everything here is *diagnostic*, not canonical: like wall time and
/// the skip split, it is excluded from byte-reproducible campaign
/// output.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Cycles the fabric spent occupied carrying traffic (the
    /// numerator of a utilization figure; divide by `cycles`).
    pub fabric_utilization_cycles: u64,
    /// Lost arbitration rounds across the fabric.
    pub conflicts: u64,
    /// Number of grant-latency samples.
    pub grant_wait_count: u64,
    /// Sum of grant latencies in cycles.
    pub grant_wait_sum: u64,
    /// Worst observed grant latency in cycles (0 when no samples).
    pub grant_wait_max: u64,
    /// Per-master link counters, indexed by master.
    pub links: Vec<LinkMetrics>,
    /// Successful semaphore test-and-set acquisitions.
    pub sem_acquisitions: u64,
    /// Failed semaphore polls (the slave-contention signal of the
    /// paper's Figure 2(b)).
    pub sem_failed_polls: u64,
    /// Semaphore releases.
    pub sem_releases: u64,
    /// Width in cycles of each fabric-busy window below.
    pub busy_window_cycles: u64,
    /// Fabric-busy cycles per window — the time-resolved utilization
    /// curve (`ntg-report` renders saturation plots from this).
    pub busy_windows: Vec<u64>,
}

/// The outcome of [`Platform::run`](crate::Platform::run), also
/// readable at any time through
/// [`Platform::report`](crate::Platform::report).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Whether every master halted (and all traffic drained) before the
    /// cycle limit.
    pub completed: bool,
    /// Cycles actually simulated.
    pub cycles: Cycle,
    /// Each master's halt cycle (`None` if it never halted).
    pub finish_cycles: Vec<Option<Cycle>>,
    /// Host wall-clock time spent simulating.
    pub wall_time: Duration,
    /// Per-master execution statistics.
    pub masters: Vec<MasterReport>,
    /// Human-readable fault descriptions, one per faulted master.
    pub faults: Vec<String>,
    /// Total transactions the interconnect carried.
    pub transactions: u64,
    /// `(mean, max)` of the interconnect's characteristic latency metric
    /// in cycles, if the model records one.
    pub latency: Option<(f64, u64)>,
    /// Whether the TG images this run replayed were **reused** from a
    /// previously translated/assembled artifact instead of being
    /// re-translated for this run.
    ///
    /// `None` for runs without TG provenance information (plain CPU
    /// runs, directly built platforms); set by
    /// [`Platform::explore`](crate::Platform::explore) and by the
    /// `ntg-explore` campaign engine's TG artifact cache.
    pub tg_reused: Option<bool>,
    /// Cycles `run` jumped over instead of ticking (`step` never
    /// jumps). `skipped_cycles + ticked_cycles == cycles`.
    pub skipped_cycles: Cycle,
    /// Cycles simulated tick by tick.
    pub ticked_cycles: Cycle,
    /// Component-cycles actually visited: per ticked cycle, `step`
    /// counts every component while `run`'s O(active) scheduler counts
    /// only the components it woke (plus the fabric). Diagnostic like
    /// the skip split — the sparse-visit numerator.
    pub visited_component_cycles: u64,
    /// `components × cycles` — the work a scan-everything engine would
    /// have done; denominator of the sparse-visit ratio.
    pub total_component_cycles: u64,
    /// Observability summary, present only when
    /// [`Platform::enable_metrics`](crate::Platform::enable_metrics)
    /// was called before the run.
    pub metrics: Option<MetricsReport>,
}

impl RunReport {
    /// The system completion time in cycles: the latest halt cycle.
    ///
    /// This is the "Cumulative Execution Time" column of the paper's
    /// Table 2.
    ///
    /// Returns `None` if any master never halted.
    pub fn execution_time(&self) -> Option<Cycle> {
        self.finish_cycles
            .iter()
            .copied()
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }

    /// `(offered, accepted)` injection rate in packets/cycle/master,
    /// aggregated over every synthetic master; `None` when the platform
    /// has no synthetic masters or they injected nothing.
    ///
    /// Offered load divides packets by the span of the *schedule* (which
    /// ignores back-pressure by construction); accepted throughput
    /// divides the same packets by the span actually needed to inject
    /// them — the completion time when the run finished, the simulated
    /// cycle bound otherwise. `accepted < offered` is the saturation
    /// signal: the fabric could not absorb the load as scheduled.
    pub fn synthetic_rates(&self) -> Option<(f64, f64)> {
        let mut masters = 0u64;
        let mut packets = 0u64;
        let mut offered_span: Cycle = 0;
        for m in &self.masters {
            if let MasterReport::Synthetic {
                packets: p,
                last_scheduled,
                ..
            } = m
            {
                masters += 1;
                packets += p;
                offered_span = offered_span.max(*last_scheduled);
            }
        }
        if masters == 0 || packets == 0 {
            return None;
        }
        let accepted_span = self.execution_time().unwrap_or(self.cycles);
        let per = |span: Cycle| packets as f64 / (masters as f64 * span.max(1) as f64);
        Some((
            per(offered_span + 1),
            per(accepted_span.max(offered_span) + 1),
        ))
    }

    /// Simulated cycles per wall-clock second — the throughput measure
    /// behind the paper's "Simulation Time" columns.
    pub fn cycles_per_second(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.cycles as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_time_is_max_halt() {
        let r = RunReport {
            completed: true,
            cycles: 120,
            finish_cycles: vec![Some(100), Some(110), Some(90)],
            wall_time: Duration::from_millis(10),
            masters: vec![],
            faults: vec![],
            transactions: 0,
            latency: None,
            tg_reused: None,
            skipped_cycles: 0,
            ticked_cycles: 120,
            visited_component_cycles: 0,
            total_component_cycles: 0,
            metrics: None,
        };
        assert_eq!(r.execution_time(), Some(110));
    }

    #[test]
    fn execution_time_none_when_incomplete() {
        let r = RunReport {
            completed: false,
            cycles: 120,
            finish_cycles: vec![Some(100), None],
            wall_time: Duration::from_millis(10),
            masters: vec![],
            faults: vec![],
            transactions: 0,
            latency: None,
            tg_reused: None,
            skipped_cycles: 0,
            ticked_cycles: 120,
            visited_component_cycles: 0,
            total_component_cycles: 0,
            metrics: None,
        };
        assert_eq!(r.execution_time(), None);
    }

    #[test]
    fn throughput_is_finite_for_nonzero_time() {
        let r = RunReport {
            completed: true,
            cycles: 1_000,
            finish_cycles: vec![],
            wall_time: Duration::from_millis(100),
            masters: vec![],
            faults: vec![],
            transactions: 0,
            latency: None,
            tg_reused: None,
            skipped_cycles: 0,
            ticked_cycles: 1_000,
            visited_component_cycles: 0,
            total_component_cycles: 0,
            metrics: None,
        };
        assert!((r.cycles_per_second() - 10_000.0).abs() < 1.0);
    }
}
