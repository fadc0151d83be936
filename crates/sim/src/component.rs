//! The [`Component`] trait implemented by every simulated hardware block.

use crate::Cycle;

/// A component's *wake hint*: what it would do if ticked over the coming
/// cycles.
///
/// Hints let the engine fast-forward over quiescent stretches (see
/// [`Simulator::run_until`](crate::Simulator::run_until)): when every
/// component is either [`Drained`](Activity::Drained) or
/// [`IdleUntil`](Activity::IdleUntil), no observable state can change
/// before the earliest wake cycle, so the engine may jump `now` straight
/// to that horizon after giving each component a [`Component::skip`]
/// callback to replicate any per-tick bookkeeping.
///
/// Hints must be **conservative**: it is always correct to report
/// [`Busy`](Activity::Busy) (the default), merely slower. Reporting
/// `IdleUntil(w)` is a promise that the component will not act *of its
/// own accord* before cycle `w`: absent any inbound event, ticking it at
/// any cycle `t < w` is pure bookkeeping that [`Component::skip`]
/// reproduces exactly. The engine guarantees no inbound event can arrive
/// inside a jump, because the jump target is bounded by *every*
/// component's hint — whoever would produce the event is itself `Busy`
/// or bounds the horizon with a finite wake.
///
/// That guarantee makes the *passive wait* pattern sound: a component
/// blocked on another's action (a master awaiting a response, a bus
/// awaiting a slave) with nothing queued on its channels may report
/// [`Activity::waiting()`] — an unbounded `IdleUntil` — instead of
/// `Busy`, so it never blocks a jump whose horizon the eventual actor
/// already bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// The component may act this cycle (or its wake cycle is unknown);
    /// it must be ticked normally.
    Busy,
    /// The component is idle and will not act before the given absolute
    /// cycle. Ticks strictly before that cycle are skippable.
    IdleUntil(Cycle),
    /// The component is finished: no pending work now or ever (it is
    /// idle in the [`Component::is_idle`] sense). Skippable forever.
    Drained,
}

impl Activity {
    /// A passive wait on some other component's action, with no known
    /// bound of its own: the component never acts spontaneously, so it
    /// does not limit the horizon. Sound only when every tick while
    /// waiting is pure bookkeeping that [`Component::skip`] replicates.
    pub const fn waiting() -> Self {
        Activity::IdleUntil(Cycle::MAX)
    }

    /// A passive wait on one awaited event that becomes visible at `at`
    /// (`None` while nobody has produced it yet): `Busy` once it is
    /// visible in cycle `now`, `IdleUntil(at)` before that, and
    /// [`waiting()`](Self::waiting) while it does not exist. The hint of
    /// a component blocked on exactly one event — it must name *that*
    /// event, not merely the next thing visible on its channel.
    #[inline]
    pub const fn awaiting(at: Option<Cycle>, now: Cycle) -> Self {
        match at {
            Some(at) if at > now => Activity::IdleUntil(at),
            Some(_) => Activity::Busy,
            None => Activity::waiting(),
        }
    }
}

/// A clocked hardware block.
///
/// A component is ticked exactly once per simulated cycle, in the order it
/// was registered with the engine. All externally visible state changes a
/// component makes during `tick` must go through handshaked channels so
/// they only become observable to other components in the following cycle;
/// this is what keeps the simulation independent of tick order.
///
/// # The shared context `C`
///
/// Components do not own the channels they communicate over: shared link
/// state lives in a context value owned by the engine (for the OCP data
/// plane, the `LinkArena` of `ntg-ocp`) and is threaded by `&`/`&mut`
/// reference into every trait method. Components hold only `Copy` port
/// handles (indices into the context), so a whole component graph —
/// context plus components — is a plain `Send` value that a thread can
/// own outright. Pure components that need no shared state use the
/// default `C = ()`.
///
/// # Example
///
/// ```
/// use ntg_sim::{Component, Cycle};
///
/// /// Counts cycles and goes idle after ten of them.
/// struct TenCycles { n: u64 }
///
/// impl Component for TenCycles {
///     fn name(&self) -> &str { "ten-cycles" }
///     fn tick(&mut self, _now: Cycle, _net: &mut ()) {
///         if self.n < 10 { self.n += 1; }
///     }
///     fn is_idle(&self, _net: &()) -> bool { self.n == 10 }
/// }
/// ```
pub trait Component<C = ()> {
    /// A short, human-readable instance name used in diagnostics.
    fn name(&self) -> &str;

    /// Advances the component by one clock cycle.
    ///
    /// `now` is the index of the cycle being executed; the first call in a
    /// simulation receives `now == 0`. `net` is the shared context the
    /// engine owns (the link arena for OCP systems).
    fn tick(&mut self, now: Cycle, net: &mut C);

    /// Reports whether the component has no pending work.
    ///
    /// The engine may stop early once *every* component reports idle (see
    /// [`Simulator::run_until_idle`]). A component with outstanding
    /// requests, buffered responses or in-flight packets must return
    /// `false`. The default conservatively reports "never idle", which is
    /// always safe.
    ///
    /// [`Simulator::run_until_idle`]: crate::Simulator::run_until_idle
    fn is_idle(&self, _net: &C) -> bool {
        false
    }

    /// Reports when the component next needs a real [`Component::tick`].
    ///
    /// `now` is the cycle the engine is about to execute. The default
    /// conservatively reports [`Activity::Busy`], which disables
    /// skipping for this component and is always safe. See [`Activity`]
    /// for the contract a non-`Busy` hint signs up to.
    fn next_activity(&self, _now: Cycle, _net: &C) -> Activity {
        Activity::Busy
    }

    /// Fast-forwards the component from cycle `now` to cycle `next`
    /// without executing the intervening ticks.
    ///
    /// Called by the engine instead of `tick` for every cycle in
    /// `[now, next)` when a horizon jump is taken. An implementation
    /// must update its state and statistics exactly as `next - now`
    /// consecutive idle ticks would have, so cycle counts stay
    /// bit-identical to ticking every cycle. The default is a no-op,
    /// which is correct for components whose idle ticks have no side
    /// effects.
    fn skip(&mut self, _now: Cycle, _next: Cycle, _net: &mut C) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Component for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn tick(&mut self, _now: Cycle, _net: &mut ()) {}
    }

    #[test]
    fn default_is_idle_is_false() {
        let n = Nop;
        assert!(!n.is_idle(&()));
        assert_eq!(n.name(), "nop");
    }

    #[test]
    fn default_activity_is_busy() {
        let mut n = Nop;
        assert_eq!(n.next_activity(0, &()), Activity::Busy);
        assert_eq!(n.next_activity(1_000, &()), Activity::Busy);
        // Default skip is a no-op and must not panic.
        n.skip(0, 10, &mut ());
    }

    #[test]
    fn awaiting_names_the_event_or_waits() {
        assert_eq!(Activity::awaiting(None, 5), Activity::waiting());
        assert_eq!(Activity::awaiting(Some(9), 5), Activity::IdleUntil(9));
        assert_eq!(Activity::awaiting(Some(5), 5), Activity::Busy);
        assert_eq!(Activity::awaiting(Some(2), 5), Activity::Busy);
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn Component> = Box::new(Nop);
        boxed.tick(0, &mut ());
        boxed.skip(1, 2, &mut ());
        assert_eq!(boxed.name(), "nop");
        assert_eq!(boxed.next_activity(1, &()), Activity::Busy);
    }

    /// Ticks against a shared context counter — the ctx-threading shape
    /// every OCP component uses with the link arena.
    struct CtxAdder;
    impl Component<u64> for CtxAdder {
        fn name(&self) -> &str {
            "ctx-adder"
        }
        fn tick(&mut self, _now: Cycle, net: &mut u64) {
            *net += 1;
        }
    }

    #[test]
    fn context_is_threaded_by_reference() {
        let mut ctx = 0u64;
        let mut boxed: Box<dyn Component<u64>> = Box::new(CtxAdder);
        boxed.tick(0, &mut ctx);
        boxed.tick(1, &mut ctx);
        assert_eq!(ctx, 2);
        assert!(!boxed.is_idle(&ctx));
    }

    /// A boxed component graph over a plain context must be something a
    /// thread can own: `Send` when its parts are.
    #[test]
    fn send_component_graphs_cross_threads() {
        fn assert_send<T: Send>(_: &T) {}
        let graph: (u64, Vec<Box<dyn Component<u64> + Send>>) = (0, vec![Box::new(CtxAdder)]);
        assert_send(&graph);
        let (mut ctx, mut comps) = graph;
        std::thread::spawn(move || {
            for c in &mut comps {
                c.tick(0, &mut ctx);
            }
            ctx
        })
        .join()
        .map(|n| assert_eq!(n, 1))
        .unwrap();
    }
}
