//! The generic cycle-driven simulation engine.

use crate::{Activity, Component, Cycle};

/// Why a [`Simulator`] run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// Every component reported [`Component::is_idle`] before the cycle
    /// limit was reached.
    Idle,
    /// The caller-supplied predicate became true.
    Predicate,
    /// The cycle limit was exhausted first.
    CycleLimit,
}

/// A deterministic cycle-driven simulation engine.
///
/// Owns a set of boxed [`Component`]s plus the shared context `C` they
/// communicate through (the OCP link arena for `ntg` systems; `()` for
/// pure components), and ticks each component once per cycle in
/// registration order, lending the context to every callback.
/// `ntg-platform` knows its components' concrete types and runs its own
/// O(active) loop (`Platform::run`); this engine is the small
/// general-purpose entry point for user-assembled systems.
///
/// # Example
///
/// ```
/// use ntg_sim::{Component, Cycle, RunOutcome, Simulator};
///
/// struct Pulse { remaining: u64 }
/// impl Component for Pulse {
///     fn name(&self) -> &str { "pulse" }
///     fn tick(&mut self, _now: Cycle, _net: &mut ()) {
///         self.remaining = self.remaining.saturating_sub(1);
///     }
///     fn is_idle(&self, _net: &()) -> bool { self.remaining == 0 }
/// }
///
/// let mut sim = Simulator::new();
/// sim.add(Box::new(Pulse { remaining: 3 }));
/// assert_eq!(sim.run_until_idle(100), RunOutcome::Idle);
/// assert_eq!(sim.now(), 3);
/// ```
pub struct Simulator<C = ()> {
    components: Vec<Box<dyn Component<C>>>,
    ctx: C,
    now: Cycle,
    skipped_cycles: Cycle,
    ticked_cycles: Cycle,
}

impl<C: Default> Default for Simulator<C> {
    fn default() -> Self {
        Self::with_ctx(C::default())
    }
}

impl<C: Default> Simulator<C> {
    /// Creates an empty simulator at cycle zero with a default context.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<C> Simulator<C> {
    /// Creates an empty simulator at cycle zero owning the given shared
    /// context (for OCP systems, a pre-wired link arena).
    pub fn with_ctx(ctx: C) -> Self {
        Self {
            components: Vec::new(),
            ctx,
            now: 0,
            skipped_cycles: 0,
            ticked_cycles: 0,
        }
    }

    /// Borrows the shared context.
    pub fn ctx(&self) -> &C {
        &self.ctx
    }

    /// Mutably borrows the shared context (e.g. to wire new links before
    /// the run starts).
    pub fn ctx_mut(&mut self) -> &mut C {
        &mut self.ctx
    }

    /// Consumes the engine and returns the shared context.
    pub fn into_ctx(self) -> C {
        self.ctx
    }

    /// Cycles fast-forwarded by horizon jumps instead of being ticked.
    pub fn skipped_cycles(&self) -> Cycle {
        self.skipped_cycles
    }

    /// Cycles executed tick by tick.
    pub fn ticked_cycles(&self) -> Cycle {
        self.ticked_cycles
    }

    /// Registers a component. Components are ticked in registration order.
    ///
    /// Returns the component's index, which can be used with
    /// [`Simulator::component`].
    pub fn add(&mut self, component: Box<dyn Component<C>>) -> usize {
        self.components.push(component);
        self.components.len() - 1
    }

    /// The index of the next cycle to execute (equivalently: how many
    /// cycles have fully executed so far).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The number of registered components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether no components are registered.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Borrows the component registered with index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn component(&self, idx: usize) -> &dyn Component<C> {
        self.components[idx].as_ref()
    }

    /// Executes exactly one cycle.
    pub fn step(&mut self) {
        let now = self.now;
        for c in &mut self.components {
            c.tick(now, &mut self.ctx);
        }
        self.now += 1;
        self.ticked_cycles += 1;
    }

    /// Executes exactly `cycles` cycles.
    pub fn run_for(&mut self, cycles: Cycle) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs until every component reports idle, or until `max_cycles`
    /// *further* cycles have executed (a relative budget, see
    /// [`Simulator::run_until`]).
    ///
    /// Idleness is checked *between* cycles, so at least the in-flight
    /// cycle always completes.
    pub fn run_until_idle(&mut self, max_cycles: Cycle) -> RunOutcome {
        self.run_until(max_cycles, |_| false)
    }

    /// Runs until `stop` returns true (checked between cycles), every
    /// component is idle, or `max_cycles` further cycles have executed —
    /// whichever comes first.
    ///
    /// `max_cycles` is *relative*: the run ends at `now() + max_cycles`,
    /// so calling it twice advances up to twice as far. (`ntg-platform`'s
    /// `Platform::run` takes an *absolute* cycle instead — its argument
    /// is the cycle the platform stops at.)
    ///
    /// # Cycle skipping
    ///
    /// When every component reports a non-[`Busy`](Activity::Busy) wake
    /// hint (see [`Component::next_activity`]), the engine jumps `now`
    /// straight to the earliest wake cycle — the *event horizon* — after
    /// giving every component a [`Component::skip`] callback. Because
    /// hints promise the jumped ticks were pure bookkeeping, outcomes and
    /// cycle counts are bit-identical to a [`Simulator::run_for`] over
    /// the same span. The one caveat: `stop` is evaluated only at cycles
    /// the engine actually visits (jump targets included). Predicates over component state are
    /// unaffected — jumps never cross a cycle where observable state
    /// changes — but a predicate over raw `now()` arithmetic may first
    /// hold mid-jump and only be seen at the following visited cycle.
    pub fn run_until(
        &mut self,
        max_cycles: Cycle,
        mut stop: impl FnMut(&Simulator<C>) -> bool,
    ) -> RunOutcome {
        let end = self.now.saturating_add(max_cycles);
        while self.now < end {
            if stop(self) {
                return RunOutcome::Predicate;
            }
            if self.all_idle() {
                return RunOutcome::Idle;
            }
            match self.horizon(end) {
                Some(next) => {
                    let now = self.now;
                    for c in &mut self.components {
                        c.skip(now, next, &mut self.ctx);
                    }
                    self.skipped_cycles += next - now;
                    self.now = next;
                }
                None => self.step(),
            }
        }
        if stop(self) {
            RunOutcome::Predicate
        } else if self.all_idle() {
            RunOutcome::Idle
        } else {
            RunOutcome::CycleLimit
        }
    }

    /// The earliest cycle any component needs a real tick, clamped to
    /// `end`, or `None` if some component is busy and the engine must
    /// execute the coming cycle normally.
    fn horizon(&self, end: Cycle) -> Option<Cycle> {
        let mut h = end;
        for c in &self.components {
            match c.next_activity(self.now, &self.ctx) {
                Activity::Busy => return None,
                Activity::IdleUntil(w) => h = h.min(w),
                Activity::Drained => {}
            }
        }
        (h > self.now).then_some(h)
    }

    fn all_idle(&self) -> bool {
        !self.components.is_empty() && self.components.iter().all(|c| c.is_idle(&self.ctx))
    }
}

impl<C> std::fmt::Debug for Simulator<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field(
                "components",
                &self.components.iter().map(|c| c.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// Ticks through a `Simulator<u64>` whose context is a global
    /// sequence counter — verifying the ctx is lent to every callback.
    struct Recorder {
        seen: Vec<(Cycle, u64)>,
        idle_after: Cycle,
    }

    impl Component<u64> for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn tick(&mut self, now: Cycle, order: &mut u64) {
            self.seen.push((now, *order));
            *order += 1;
        }
        fn is_idle(&self, _order: &u64) -> bool {
            self.seen.len() as Cycle >= self.idle_after
        }
    }

    #[test]
    fn ticks_in_registration_order() {
        let mut sim: Simulator<u64> = Simulator::new();
        for _ in 0..3 {
            sim.add(Box::new(Recorder {
                seen: Vec::new(),
                idle_after: u64::MAX,
            }));
        }
        sim.run_for(2);
        // Within each cycle the global sequence numbers follow the
        // registration order: component 0 first, then 1, then 2.
        assert_eq!(*sim.ctx(), 6);
        assert_eq!(sim.now(), 2);
    }

    #[test]
    fn run_until_idle_stops_early() {
        let mut sim: Simulator<u64> = Simulator::new();
        sim.add(Box::new(Recorder {
            seen: Vec::new(),
            idle_after: 5,
        }));
        assert_eq!(sim.run_until_idle(1_000), RunOutcome::Idle);
        assert_eq!(sim.now(), 5);
    }

    #[test]
    fn run_until_respects_cycle_limit() {
        let mut sim: Simulator<u64> = Simulator::new();
        sim.add(Box::new(Recorder {
            seen: Vec::new(),
            idle_after: u64::MAX,
        }));
        assert_eq!(sim.run_until_idle(10), RunOutcome::CycleLimit);
        assert_eq!(sim.now(), 10);
    }

    #[test]
    fn predicate_stops_between_cycles() {
        let mut sim: Simulator<u64> = Simulator::new();
        sim.add(Box::new(Recorder {
            seen: Vec::new(),
            idle_after: u64::MAX,
        }));
        let outcome = sim.run_until(100, |s| s.now() == 7);
        assert_eq!(outcome, RunOutcome::Predicate);
        assert_eq!(sim.now(), 7);
    }

    #[test]
    fn empty_simulator_never_reports_idle() {
        let mut sim = Simulator::<()>::new();
        assert!(sim.is_empty());
        assert_eq!(sim.run_until_idle(5), RunOutcome::CycleLimit);
        assert_eq!(sim.now(), 5);
    }

    /// Works for `burst` cycles, sleeps for `gap` cycles, repeats
    /// `rounds` times, then drains. Counts every cycle it observes so
    /// skip equivalence can be asserted on the bookkeeping too. Generic
    /// over the context — a pure component fits any engine.
    struct Sleeper {
        burst: u64,
        gap: u64,
        rounds: u64,
        phase_left: u64,
        working: bool,
        observed: Cycle,
    }

    impl Sleeper {
        fn new(burst: u64, gap: u64, rounds: u64) -> Self {
            Self {
                burst,
                gap,
                rounds,
                phase_left: burst,
                working: true,
                observed: 0,
            }
        }
    }

    impl<C> Component<C> for Sleeper {
        fn name(&self) -> &str {
            "sleeper"
        }
        fn tick(&mut self, _now: Cycle, _net: &mut C) {
            if self.rounds == 0 {
                return;
            }
            self.observed += 1;
            self.phase_left -= 1;
            if self.phase_left == 0 {
                if self.working {
                    self.working = false;
                    self.phase_left = self.gap;
                } else {
                    self.working = true;
                    self.phase_left = self.burst;
                    self.rounds -= 1;
                }
            }
        }
        fn is_idle(&self, _net: &C) -> bool {
            self.rounds == 0
        }
        fn next_activity(&self, now: Cycle, _net: &C) -> Activity {
            if self.rounds == 0 {
                Activity::Drained
            } else if self.working {
                Activity::Busy
            } else {
                Activity::IdleUntil(now + self.phase_left)
            }
        }
        fn skip(&mut self, now: Cycle, next: Cycle, _net: &mut C) {
            if self.rounds == 0 {
                return;
            }
            let n = next - now;
            assert!(!self.working && n <= self.phase_left);
            self.observed += n;
            self.phase_left -= n;
            if self.phase_left == 0 {
                self.working = true;
                self.phase_left = self.burst;
                self.rounds -= 1;
            }
        }
    }

    fn sleepers() -> Simulator<()> {
        let mut sim = Simulator::<()>::new();
        sim.add(Box::new(Sleeper::new(3, 40, 4)));
        sim.add(Box::new(Sleeper::new(5, 17, 6)));
        sim
    }

    #[test]
    fn skipping_is_bit_identical_to_plain_ticking() {
        let mut skipped = sleepers();
        let outcome = skipped.run_until_idle(10_000);
        assert_eq!(outcome, RunOutcome::Idle);
        assert!(
            skipped.skipped_cycles() > 0,
            "overlapping idle windows must be skipped"
        );
        // The reference: one `step` per cycle, never a jump.
        let mut ticked = sleepers();
        while !ticked.all_idle() {
            ticked.step();
        }
        assert_eq!(ticked.skipped_cycles(), 0);
        assert_eq!(skipped.now(), ticked.now());
    }

    #[test]
    fn skip_counters_partition_the_run() {
        let mut sim = Simulator::<()>::new();
        sim.add(Box::new(Sleeper::new(2, 30, 3)));
        sim.run_until_idle(1_000);
        assert!(sim.skipped_cycles() > 0);
        assert_eq!(sim.skipped_cycles() + sim.ticked_cycles(), sim.now());
    }

    /// A shared mailbox with next-cycle visibility — a miniature of the
    /// OCP link arena's contract.
    #[derive(Default)]
    struct Channel {
        pending_at: Option<Cycle>,
    }

    /// Sends `count` messages, one every `period` cycles.
    struct Pinger {
        period: u64,
        count: u64,
        next_send: Cycle,
        sent: u64,
    }

    impl Component<Channel> for Pinger {
        fn name(&self) -> &str {
            "pinger"
        }
        fn tick(&mut self, now: Cycle, ch: &mut Channel) {
            if self.sent < self.count && now == self.next_send {
                ch.pending_at = Some(now + 1);
                self.sent += 1;
                self.next_send += self.period;
            }
        }
        fn is_idle(&self, _ch: &Channel) -> bool {
            self.sent == self.count
        }
        fn next_activity(&self, _now: Cycle, _ch: &Channel) -> Activity {
            if self.sent == self.count {
                Activity::Drained
            } else {
                Activity::IdleUntil(self.next_send)
            }
        }
    }

    /// Passively waits for messages; records the cycle each one becomes
    /// visible through a shared handle.
    struct Echo(Arc<Mutex<Vec<Cycle>>>);

    impl Component<Channel> for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn tick(&mut self, now: Cycle, ch: &mut Channel) {
            if ch.pending_at.is_some_and(|at| at <= now) {
                ch.pending_at = None;
                self.0.lock().unwrap().push(now);
            }
        }
        fn is_idle(&self, ch: &Channel) -> bool {
            ch.pending_at.is_none()
        }
        fn next_activity(&self, now: Cycle, ch: &Channel) -> Activity {
            match ch.pending_at {
                Some(at) if at <= now => Activity::Busy,
                Some(at) => Activity::IdleUntil(at),
                None => Activity::Drained,
            }
        }
    }

    fn ping_echo() -> (Simulator<Channel>, Arc<Mutex<Vec<Cycle>>>) {
        let heard = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulator::<Channel>::new();
        sim.add(Box::new(Pinger {
            period: 50,
            count: 4,
            next_send: 10,
            sent: 0,
        }));
        sim.add(Box::new(Echo(heard.clone())));
        (sim, heard)
    }

    #[test]
    fn skipped_delivery_matches_ticked_delivery() {
        let (mut skipped, heard_skipped) = ping_echo();
        assert_eq!(skipped.run_until_idle(10_000), RunOutcome::Idle);
        assert!(skipped.skipped_cycles() > 0);
        let (mut ticked, heard_ticked) = ping_echo();
        ticked.run_for(skipped.now());
        assert!(ticked.all_idle());
        assert_eq!(*heard_ticked.lock().unwrap(), vec![11, 61, 111, 161]);
        assert_eq!(*heard_skipped.lock().unwrap(), vec![11, 61, 111, 161]);
    }

    #[test]
    fn busy_component_disables_jumping() {
        let mut sim: Simulator<u64> = Simulator::new();
        // Recorder's default next_activity is Busy, so every cycle ticks.
        sim.add(Box::new(Recorder {
            seen: Vec::new(),
            idle_after: u64::MAX,
        }));
        sim.add(Box::new(Sleeper::new(1, 50, 2)));
        assert_eq!(sim.run_until_idle(10), RunOutcome::CycleLimit);
        assert_eq!(sim.skipped_cycles(), 0);
        assert_eq!(sim.ticked_cycles(), 10);
    }
}
