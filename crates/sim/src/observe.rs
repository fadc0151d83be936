//! Alloc-free metric primitives shared by instrumented components.
//!
//! The contract is *counters only on the steady path*: every type in
//! this module allocates at construction time and never again, so the
//! zero-allocation hot-path guarantee (see the `alloc_count` regression
//! test in `ntg-bench`) holds with metrics collection on as well as off.

use crate::stats::Histogram;
use crate::Cycle;

/// Per-master link counters collected by an instrumented interconnect.
///
/// One entry per master link; all fields count cycles or events since
/// construction. Updated only at transaction events (grant, completion),
/// never by per-cycle scans, so collecting them is nearly free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkMetrics {
    /// Transactions granted to this master.
    pub grants: u64,
    /// Cycles the master's request was visible but not yet granted,
    /// summed over all grants (arbitration + fabric-busy stall).
    pub stall_cycles: u64,
    /// Cycles the fabric spent occupied on this master's transactions.
    pub busy_cycles: u64,
}

/// Arbitration-contention summary of one interconnect.
///
/// Built on demand by [`Interconnect::contention`] implementations
/// (report time, allocation is fine there); the underlying counters are
/// maintained alloc-free during simulation.
///
/// [`Interconnect::contention`]: ../../ntg_noc/trait.Interconnect.html#method.contention
#[derive(Debug, Clone)]
pub struct Contention {
    /// Times a grant was made while at least one other master was also
    /// requesting (they lost that round of arbitration).
    pub conflicts: u64,
    /// Distribution of request-visible → grant latencies, in cycles.
    pub grant_wait: Histogram,
    /// Per-master link counters, indexed by master id.
    pub links: Vec<LinkMetrics>,
}

impl Contention {
    /// An empty summary over `masters` links.
    pub fn new(masters: usize) -> Self {
        Self {
            conflicts: 0,
            grant_wait: Histogram::new("grant_wait"),
            links: vec![LinkMetrics::default(); masters],
        }
    }
}

/// A bounded-memory time series of per-window event counts.
///
/// Samples are accumulated into fixed-width cycle windows; when the
/// window buffer fills, adjacent windows are merged **in place** and the
/// window width doubles, so an arbitrarily long run fits a fixed
/// allocation made at construction. Recording never allocates, so a
/// run loop can sample every cycle under the zero-alloc steady-state
/// contract.
///
/// Under event-horizon skipping the series stays exact: a skipped
/// stretch whose ticks would count nothing contributes zero events to
/// the windows it crosses, and one whose ticks count the same every
/// cycle (a fabric holding a transfer across a jump) is spread over
/// them by [`WindowSeries::record_span`].
///
/// # Example
///
/// ```
/// use ntg_sim::observe::WindowSeries;
///
/// let mut s = WindowSeries::new("busy", 4, 4);
/// for now in 0..16 { s.record(now, 1); }
/// s.record(16, 0); // close the last full window
/// assert_eq!(s.windows(), &[4, 4, 4, 4]);
/// for now in 16..32 { s.record(now, 2); }
/// s.record(32, 0); // capacity hit: windows merged, width doubled
/// assert_eq!(s.window_cycles(), 8);
/// assert_eq!(s.windows(), &[8, 8, 16, 16]);
/// assert_eq!(s.total(), 48);
/// ```
#[derive(Debug, Clone)]
pub struct WindowSeries {
    name: String,
    window: Cycle,
    capacity: usize,
    windows: Vec<u64>,
    acc: u64,
    next_boundary: Cycle,
}

impl WindowSeries {
    /// Creates a series starting at cycle 0 with the given initial
    /// window width (cycles) and window-buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `capacity` is less than 2 (pair
    /// merging needs an even split).
    pub fn new(name: impl Into<String>, window: Cycle, capacity: usize) -> Self {
        assert!(window > 0, "window width must be positive");
        assert!(capacity >= 2, "capacity must be at least 2");
        Self {
            name: name.into(),
            window,
            capacity,
            windows: Vec::with_capacity(capacity),
            acc: 0,
            next_boundary: window,
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds `delta` events at cycle `now`, closing any windows `now` has
    /// moved past. `now` must be monotonically non-decreasing across
    /// calls.
    #[inline]
    pub fn record(&mut self, now: Cycle, delta: u64) {
        while now >= self.next_boundary {
            self.close_window();
        }
        self.acc += delta;
    }

    /// Adds `delta` events spread evenly over cycles `start..end`: what
    /// one [`record`](Self::record) of `delta / (end - start)` per cycle
    /// would have left, so a jump over a window boundary splits its
    /// events where ticking would have. A remainder (a span whose ticks
    /// did not count evenly) lands on `start`, keeping the total exact.
    #[inline]
    pub fn record_span(&mut self, start: Cycle, end: Cycle, delta: u64) {
        let len = end - start;
        if len == 1 {
            // A ticked cycle: the common case, one record.
            self.record(start, delta);
            return;
        }
        let per_cycle = delta / len;
        self.record(start, delta % len);
        let mut at = start;
        while at < end {
            self.record(at, 0);
            let stop = self.next_boundary.min(end);
            self.acc += per_cycle * (stop - at);
            at = stop;
        }
    }

    fn close_window(&mut self) {
        if self.windows.len() == self.capacity {
            // Merge adjacent pairs in place and double the width. The
            // open window started on a boundary of the *new* width (the
            // buffer holds an even count of old windows), so widening it
            // keeps every window uniform.
            for i in 0..self.capacity / 2 {
                self.windows[i] = self.windows[2 * i] + self.windows[2 * i + 1];
            }
            self.windows.truncate(self.capacity / 2);
            self.next_boundary += self.window;
            self.window *= 2;
            return;
        }
        self.windows.push(self.acc);
        self.acc = 0;
        self.next_boundary += self.window;
    }

    /// The current window width in cycles (doubles as the run grows).
    pub fn window_cycles(&self) -> Cycle {
        self.window
    }

    /// The closed windows so far, oldest first.
    pub fn windows(&self) -> &[u64] {
        &self.windows
    }

    /// Total events recorded, including the still-open window.
    pub fn total(&self) -> u64 {
        self.windows.iter().sum::<u64>() + self.acc
    }

    /// The full series — every closed window plus the still-open one —
    /// as an owned vector. Report-time helper; allocates, so never call
    /// it from a hot loop.
    pub fn collect(&self) -> Vec<u64> {
        let mut v = self.windows.clone();
        v.push(self.acc);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_close_on_boundaries() {
        let mut s = WindowSeries::new("w", 10, 8);
        for now in 0..25 {
            s.record(now, 1);
        }
        assert_eq!(s.windows(), &[10, 10]);
        assert_eq!(s.total(), 25);
        assert_eq!(s.window_cycles(), 10);
    }

    #[test]
    fn capacity_merge_doubles_width_and_preserves_totals() {
        let mut s = WindowSeries::new("w", 1, 4);
        for now in 0..64 {
            s.record(now, now + 1);
        }
        s.record(64, 0);
        let expected: u64 = (1..=64).sum();
        assert_eq!(s.total(), expected);
        // 64 unit windows fold into 4 × 16-cycle windows.
        assert_eq!(s.window_cycles(), 16);
        assert_eq!(s.windows().len(), 4);
        let per_window: Vec<u64> = (0..4).map(|w| (16 * w + 1..=16 * (w + 1)).sum()).collect();
        assert_eq!(s.windows(), per_window.as_slice());
    }

    #[test]
    fn sparse_recording_closes_empty_windows() {
        let mut s = WindowSeries::new("w", 5, 8);
        s.record(0, 3);
        s.record(22, 4); // crosses four whole boundaries
        assert_eq!(s.windows(), &[3, 0, 0, 0]);
        assert_eq!(s.total(), 7);
    }

    #[test]
    fn a_span_splits_like_per_cycle_records() {
        // Spans across boundaries and capacity merges, with even and
        // uneven counts, against the per-cycle recording they stand for.
        for (start, end, delta) in [(3, 4, 2), (3, 27, 48), (0, 40, 40), (9, 70, 61 * 3 + 5)] {
            let (mut span, mut ticks) =
                (WindowSeries::new("w", 4, 4), WindowSeries::new("w", 4, 4));
            span.record(1, 7);
            ticks.record(1, 7);
            span.record_span(start, end, delta);
            let len = end - start;
            ticks.record(start, delta % len);
            for now in start..end {
                ticks.record(now, delta / len);
            }
            span.record(80, 0);
            ticks.record(80, 0);
            assert_eq!(span.collect(), ticks.collect(), "{start}..{end} +{delta}");
            assert_eq!(span.window_cycles(), ticks.window_cycles());
        }
    }

    #[test]
    fn merge_is_stable_under_long_runs() {
        let mut s = WindowSeries::new("w", 1, 2);
        for now in 0..1_000u64 {
            s.record(now, 1);
        }
        assert_eq!(s.total(), 1_000);
        assert!(s.windows().len() <= 2);
        assert!(s.window_cycles().is_power_of_two());
    }

    #[test]
    fn contention_starts_empty() {
        let c = Contention::new(3);
        assert_eq!(c.conflicts, 0);
        assert_eq!(c.links.len(), 3);
        assert_eq!(c.grant_wait.count(), 0);
        assert_eq!(c.links[0], LinkMetrics::default());
    }
}
