//! O(active)-component scheduling: the wake wheel and active set behind
//! `ntg-platform`'s run loop.
//!
//! The event-horizon protocol (see [`Activity`]) lets an engine skip
//! *globally* quiescent stretches, but a platform where one component is
//! always busy still pays a full component scan every ticked cycle. The
//! types here track wake hints *per component* so a ticked cycle visits
//! only the components that can act:
//!
//! * [`WakeWheel`] — an alloc-free hierarchical timer wheel holding at
//!   most one pending wake cycle per component;
//! * [`ActiveSet`] — the scheduler state an engine drives: which
//!   components run every cycle, which sleep in the wheel, which are
//!   parked awaiting an inbound event, plus the due queues that wheel
//!   expiries and cross-component touches feed.
//!
//! A component the loop did not visit is *individually* fast-forwarded
//! through the existing [`crate::Component::skip`] contract when it is
//! next visited, so results stay bit-identical to ticking every
//! component every cycle.
//!
//! [`Activity`]: crate::Activity

use crate::{Activity, Cycle};

const NONE: u32 = u32::MAX;

/// log2 of the slot count per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels.
const LEVELS: usize = 4;
/// Cycles the wheel can represent ahead of its cursor: 64^4. Farther
/// wakes are clamped to the horizon edge — sound, because waking a
/// component early just makes it re-report its (still future) hint.
pub const WHEEL_HORIZON: Cycle = 1 << (SLOT_BITS * LEVELS as u32);

/// An alloc-free hierarchical timer wheel keyed on absolute wake cycles.
///
/// Four levels of 64 slots each cover a 64^4 ≈ 16.7M-cycle horizon with
/// O(1) insert and cancel. Entries are intrusively linked through
/// per-component index arrays sized once at construction, so steady-state
/// operation performs no heap allocation. Each level keeps a 64-bit slot
/// occupancy mask, making [`next_wake`](Self::next_wake) a handful of
/// bit-scans (it is *exact*, not a lower bound — the run loop jumps
/// straight to it).
#[derive(Debug)]
pub struct WakeWheel {
    head: [[u32; SLOTS]; LEVELS],
    occ: [u64; LEVELS],
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Packed `level * SLOTS + slot` the entry is linked in, or `NONE`.
    pos: Vec<u32>,
    wake: Vec<Cycle>,
    now: Cycle,
    len: usize,
}

impl WakeWheel {
    /// A wheel for component ids `0..n`, with its cursor at cycle 0.
    pub fn new(n: usize) -> Self {
        assert!((n as u64) < NONE as u64, "component id space overflow");
        WakeWheel {
            head: [[NONE; SLOTS]; LEVELS],
            occ: [0; LEVELS],
            next: vec![NONE; n],
            prev: vec![NONE; n],
            pos: vec![NONE; n],
            wake: vec![0; n],
            now: 0,
            len: 0,
        }
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no wake is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's cursor cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// True when `id` has a pending wake.
    pub fn contains(&self, id: u32) -> bool {
        self.pos[id as usize] != NONE
    }

    fn level_slot(&self, wake: Cycle) -> (usize, usize) {
        let delta = wake - self.now;
        let level = match delta {
            0..=0x3F => 0,
            0x40..=0xFFF => 1,
            0x1000..=0x3FFFF => 2,
            _ => 3,
        };
        let slot = ((wake >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// Schedules `id` to wake at absolute cycle `wake` (strictly in the
    /// future; wakes beyond the horizon are clamped to its edge). `id`
    /// must not already be scheduled — [`cancel`](Self::cancel) first.
    pub fn insert(&mut self, id: u32, wake: Cycle) {
        debug_assert!(self.pos[id as usize] == NONE, "double insert");
        debug_assert!(wake > self.now, "wake must be in the future");
        let wake = wake.min(self.now + (WHEEL_HORIZON - 1));
        let (level, slot) = self.level_slot(wake);
        let i = id as usize;
        self.wake[i] = wake;
        let head = self.head[level][slot];
        self.next[i] = head;
        self.prev[i] = NONE;
        if head != NONE {
            self.prev[head as usize] = id;
        }
        self.head[level][slot] = id;
        self.occ[level] |= 1 << slot;
        self.pos[i] = (level * SLOTS + slot) as u32;
        self.len += 1;
    }

    /// Removes `id`'s pending wake, if any; returns whether one existed.
    pub fn cancel(&mut self, id: u32) -> bool {
        let i = id as usize;
        let pos = self.pos[i];
        if pos == NONE {
            return false;
        }
        let (level, slot) = (pos as usize / SLOTS, pos as usize % SLOTS);
        let (p, n) = (self.prev[i], self.next[i]);
        if p != NONE {
            self.next[p as usize] = n;
        } else {
            self.head[level][slot] = n;
        }
        if n != NONE {
            self.prev[n as usize] = p;
        }
        if self.head[level][slot] == NONE {
            self.occ[level] &= !(1 << slot);
        }
        self.pos[i] = NONE;
        self.len -= 1;
        true
    }

    fn slot_min(&self, level: usize, slot: usize) -> Cycle {
        let mut best = Cycle::MAX;
        let mut id = self.head[level][slot];
        while id != NONE {
            best = best.min(self.wake[id as usize]);
            id = self.next[id as usize];
        }
        best
    }

    /// The exact earliest pending wake cycle, or `None` when empty.
    ///
    /// Per level, slots ahead of the cursor hold strictly later windows,
    /// so the level minimum is the minimum wake inside the first
    /// occupied slot — except the cursor slot itself, which can also
    /// hold entries a full lap away, so it is scanned unconditionally.
    pub fn next_wake(&self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        let mut best = Cycle::MAX;
        for level in 0..LEVELS {
            let occ = self.occ[level];
            if occ == 0 {
                continue;
            }
            let cursor = ((self.now >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as u32;
            if occ & (1u64 << cursor) != 0 {
                best = best.min(self.slot_min(level, cursor as usize));
            }
            let ahead = occ.rotate_right(cursor) & !1;
            if ahead != 0 {
                let slot = (cursor + ahead.trailing_zeros()) as usize % SLOTS;
                best = best.min(self.slot_min(level, slot));
            }
        }
        Some(best)
    }

    /// Detaches the whole chain at `(level, slot)` and returns its head.
    fn detach(&mut self, level: usize, slot: usize) -> u32 {
        let head = self.head[level][slot];
        self.head[level][slot] = NONE;
        self.occ[level] &= !(1 << slot);
        head
    }

    /// Advances the cursor to `to` and appends every entry due at (or
    /// before) `to` onto `due`, unlinked from the wheel.
    ///
    /// The caller must not advance past a pending wake
    /// (`to <= next_wake()`), which the run loop guarantees by
    /// construction: jumps target the wheel minimum and ticks advance
    /// one cycle at a time.
    pub fn expire(&mut self, to: Cycle, due: &mut Vec<u32>) {
        debug_assert!(to >= self.now);
        debug_assert!(self.next_wake().is_none_or(|w| w >= to), "skipped a wake");
        self.now = to;
        // Cascade each upper level's cursor slot, highest first: its
        // window has arrived, so entries redistribute to lower levels
        // (or fall due); entries a full lap ahead re-land in place.
        for level in (1..LEVELS).rev() {
            let cursor = ((to >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            if self.occ[level] & (1 << cursor) == 0 {
                continue;
            }
            let mut id = self.detach(level, cursor);
            while id != NONE {
                let i = id as usize;
                let after = self.next[i];
                self.pos[i] = NONE;
                self.len -= 1;
                let w = self.wake[i];
                if w <= to {
                    due.push(id);
                } else {
                    self.insert(id, w);
                }
                id = after;
            }
        }
        // Level 0's cursor slot holds exactly the entries due at `to`.
        let cursor = (to & (SLOTS as u64 - 1)) as usize;
        if self.occ[0] & (1 << cursor) != 0 {
            let mut id = self.detach(0, cursor);
            while id != NONE {
                let i = id as usize;
                let after = self.next[i];
                debug_assert_eq!(self.wake[i], to);
                self.pos[i] = NONE;
                self.len -= 1;
                due.push(id);
                id = after;
            }
        }
    }
}

/// The per-component scheduling state the run loop drives.
///
/// Every component is either *running* (visited every cycle) or *idle*
/// (skipped until a wheel expiry or an inbound cross-component touch
/// re-queues it). Idle components carry a `since` cycle — the first
/// cycle they have not yet processed — and are caught up with one
/// [`Component::skip`] call when next visited, so per-cycle bookkeeping
/// stays bit-identical to ticking it every cycle.
///
/// The driving loop per ticked cycle `now`:
///
/// 1. [`visit`](Self::visit) — the sorted set of running + due ids;
///    for each, [`take_catch_up`](Self::take_catch_up) then `tick`;
/// 2. [`reinsert`](Self::reinsert) each visited id with its fresh
///    `next_activity(now + 1)` hint;
/// 3. route the cycle's cross-component touches (for OCP systems,
///    the link arena's wake tokens) into
///    [`wake`](Self::wake)`(id, now + 1)`;
/// 4. [`end_cycle`](Self::end_cycle) to queue the next cycle's due set.
///
/// When [`idle`](Self::idle) reports true the engine may jump straight
/// to [`next_wake`](Self::next_wake) via [`advance`](Self::advance) —
/// no per-component work at all; the catch-up machinery settles the
/// difference later.
///
/// [`Component::skip`]: crate::Component::skip
#[derive(Debug)]
pub struct ActiveSet {
    wheel: WakeWheel,
    /// Index into `running`, or `NONE` when the component is idle.
    running_pos: Vec<u32>,
    /// First unprocessed cycle of an idle component.
    since: Vec<Cycle>,
    /// Cycle the component is queued (due/next_due) for; `Cycle::MAX`
    /// when unqueued. Dedups wheel expiries against event wakes.
    queued_at: Vec<Cycle>,
    running: Vec<u32>,
    due: Vec<u32>,
    next_due: Vec<u32>,
    visit: Vec<u32>,
    visited: u64,
}

impl ActiveSet {
    /// A scheduler for component ids `0..n`, all initially idle at
    /// cycle 0 with no wake — call [`seed`](Self::seed) for each id
    /// before the first cycle.
    pub fn new(n: usize) -> Self {
        ActiveSet {
            wheel: WakeWheel::new(n),
            running_pos: vec![NONE; n],
            since: vec![0; n],
            queued_at: vec![Cycle::MAX; n],
            running: Vec::with_capacity(n),
            due: Vec::with_capacity(n),
            next_due: Vec::with_capacity(n),
            visit: Vec::with_capacity(n),
            visited: 0,
        }
    }

    /// Number of component ids managed.
    pub fn components(&self) -> usize {
        self.running_pos.len()
    }

    fn make_running(&mut self, id: u32) {
        if self.running_pos[id as usize] == NONE {
            self.running_pos[id as usize] = self.running.len() as u32;
            self.running.push(id);
        }
    }

    fn unrun(&mut self, id: u32) {
        let pos = self.running_pos[id as usize];
        if pos == NONE {
            return;
        }
        let last = *self.running.last().expect("running list is non-empty");
        self.running.swap_remove(pos as usize);
        if last != id {
            self.running_pos[last as usize] = pos;
        }
        self.running_pos[id as usize] = NONE;
    }

    /// Classifies `id`'s initial hint, evaluated at cycle `at` (the
    /// first cycle the engine will execute).
    pub fn seed(&mut self, id: u32, hint: Activity, at: Cycle) {
        self.since[id as usize] = at;
        match hint {
            Activity::Busy => self.make_running(id),
            Activity::IdleUntil(w) if w <= at => {
                self.queued_at[id as usize] = at;
                self.due.push(id);
            }
            Activity::IdleUntil(w) if w != Cycle::MAX => self.wheel.insert(id, w),
            Activity::IdleUntil(_) | Activity::Drained => {}
        }
    }

    /// True when no component runs this cycle and none is due — the
    /// engine may [`advance`](Self::advance) to the next wake.
    pub fn idle(&self) -> bool {
        self.running.is_empty() && self.due.is_empty()
    }

    /// The earliest pending wheel wake, or `None` when nothing sleeps
    /// on a timer.
    pub fn next_wake(&self) -> Option<Cycle> {
        self.wheel.next_wake()
    }

    /// Builds (and returns) the sorted visit set for cycle `now`:
    /// every running component plus everything due. Clears the due
    /// queue; visited ids keep their state until
    /// [`reinsert`](Self::reinsert).
    pub fn visit(&mut self, now: Cycle) -> &[u32] {
        self.visit.clear();
        self.visit.extend_from_slice(&self.running);
        for &id in &self.due {
            debug_assert_eq!(self.queued_at[id as usize], now);
            self.queued_at[id as usize] = Cycle::MAX;
            self.visit.push(id);
        }
        self.due.clear();
        self.visit.sort_unstable();
        debug_assert!(self.visit.windows(2).all(|w| w[0] != w[1]));
        self.visited += self.visit.len() as u64;
        &self.visit
    }

    /// If `id` slept through cycles it has not yet processed, returns
    /// the first such cycle and marks the span handled — the caller
    /// must issue `skip(since, now)` before ticking at `now`.
    pub fn take_catch_up(&mut self, id: u32, now: Cycle) -> Option<Cycle> {
        let i = id as usize;
        if self.running_pos[i] != NONE || self.since[i] >= now {
            return None;
        }
        let s = self.since[i];
        self.since[i] = now;
        Some(s)
    }

    /// Files `id`'s fresh hint after its tick at `next - 1`: `Busy`
    /// keeps it running, a finite future wake sleeps it in the wheel,
    /// an immediate wake queues it for `next`, and `Drained` or a
    /// passive wait parks it until an inbound touch.
    pub fn reinsert(&mut self, id: u32, hint: Activity, next: Cycle) {
        let i = id as usize;
        debug_assert!(!self.wheel.contains(id));
        debug_assert_eq!(self.queued_at[i], Cycle::MAX);
        match hint {
            Activity::Busy => {
                self.make_running(id);
                return;
            }
            Activity::IdleUntil(w) if w <= next => {
                self.queued_at[i] = next;
                self.next_due.push(id);
            }
            Activity::IdleUntil(w) if w != Cycle::MAX => self.wheel.insert(id, w),
            Activity::IdleUntil(_) | Activity::Drained => {}
        }
        self.unrun(id);
        self.since[i] = next;
    }

    /// An inbound touch for `id`, visible at cycle `at` (always the
    /// cycle after the current one): ensures `id` is visited at `at`.
    /// Running or already-queued components are left alone; a pending
    /// wheel wake is cancelled in favour of the earlier visit.
    pub fn wake(&mut self, id: u32, at: Cycle) {
        let i = id as usize;
        if self.running_pos[i] != NONE || self.queued_at[i] == at {
            return;
        }
        debug_assert!(self.queued_at[i] == Cycle::MAX, "queued for a past cycle");
        self.wheel.cancel(id);
        self.queued_at[i] = at;
        self.next_due.push(id);
    }

    /// Finishes cycle `now`: promotes the touch/immediate queue and the
    /// wheel expiries for `now + 1` into the due set.
    pub fn end_cycle(&mut self, now: Cycle) {
        debug_assert!(self.due.is_empty());
        std::mem::swap(&mut self.due, &mut self.next_due);
        self.expire_into_due(now + 1);
    }

    /// Jumps the scheduler from an [`idle`](Self::idle) state straight
    /// to cycle `to` (at most [`next_wake`](Self::next_wake)), queueing
    /// the wakes that fall due there. No per-component work happens —
    /// skipped spans are settled by later catch-ups.
    pub fn advance(&mut self, to: Cycle) {
        debug_assert!(self.idle());
        self.expire_into_due(to);
    }

    fn expire_into_due(&mut self, to: Cycle) {
        let start = self.due.len();
        self.wheel.expire(to, &mut self.due);
        for &id in &self.due[start..] {
            self.queued_at[id as usize] = to;
        }
    }

    /// Streams every idle component whose state lags `now` through `f`
    /// as `(id, since)` — the end-of-run pass that issues the final
    /// `skip(since, now)` catch-ups.
    pub fn drain_catch_ups(&mut self, now: Cycle, mut f: impl FnMut(u32, Cycle)) {
        for id in 0..self.running_pos.len() as u32 {
            if self.running_pos[id as usize] == NONE && self.since[id as usize] < now {
                let s = self.since[id as usize];
                self.since[id as usize] = now;
                f(id, s);
            }
        }
    }

    /// Component-cycles actually visited (Σ visit-set size over ticked
    /// cycles) — the numerator of the sparse-visit ratio.
    pub fn visited_component_cycles(&self) -> u64 {
        self.visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_insert_expire_single_level() {
        let mut w = WakeWheel::new(8);
        w.insert(3, 5);
        w.insert(1, 7);
        assert_eq!(w.next_wake(), Some(5));
        let mut due = Vec::new();
        w.expire(5, &mut due);
        assert_eq!(due, vec![3]);
        assert_eq!(w.next_wake(), Some(7));
        due.clear();
        w.expire(7, &mut due);
        assert_eq!(due, vec![1]);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_cancel_clears_slot() {
        let mut w = WakeWheel::new(4);
        w.insert(0, 10);
        w.insert(1, 10);
        assert!(w.cancel(0));
        assert!(!w.cancel(0));
        assert_eq!(w.next_wake(), Some(10));
        assert!(w.cancel(1));
        assert_eq!(w.next_wake(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_cascades_across_levels() {
        let mut w = WakeWheel::new(4);
        // One wake per level window.
        w.insert(0, 40);
        w.insert(1, 5_000);
        w.insert(2, 300_000);
        w.insert(3, 2_000_000);
        let mut due = Vec::new();
        for expect in [40, 5_000, 300_000, 2_000_000] {
            let nw = w.next_wake().unwrap();
            assert_eq!(nw, expect);
            due.clear();
            w.expire(nw, &mut due);
            assert_eq!(due.len(), 1, "at wake {expect}");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_wrap_lap_in_cursor_slot_stays_exact() {
        // Advance so the cursor sits mid-slot, then insert a wake one
        // level-1 lap away (same slot as the cursor) plus a nearer wake
        // in a different slot: next_wake must report the nearer one.
        let mut w = WakeWheel::new(4);
        let mut due = Vec::new();
        w.insert(0, 63);
        w.expire(63, &mut due);
        assert_eq!(due, vec![0]);
        let far = 63 + 4095; // level 1, wraps into the cursor slot
        let near = 63 + 320; // level 1, five slots ahead
        w.insert(1, far);
        w.insert(2, near);
        assert_eq!(w.next_wake(), Some(near));
        due.clear();
        w.expire(near, &mut due);
        assert_eq!(due, vec![2]);
        assert_eq!(w.next_wake(), Some(far));
        due.clear();
        w.expire(far, &mut due);
        assert_eq!(due, vec![1]);
    }

    #[test]
    fn wheel_clamps_far_wakes_to_horizon() {
        let mut w = WakeWheel::new(2);
        w.insert(0, WHEEL_HORIZON * 3);
        let early = w.next_wake().unwrap();
        assert_eq!(early, WHEEL_HORIZON - 1);
        let mut due = Vec::new();
        w.expire(early, &mut due);
        assert_eq!(due, vec![0]);
        // The engine re-seeds from the component's (still future) hint.
        w.insert(0, WHEEL_HORIZON * 3);
        assert!(w.next_wake().unwrap() < WHEEL_HORIZON * 3);
    }

    #[test]
    fn wheel_stress_delivers_every_wake_in_order() {
        // Deterministic pseudo-random wakes across all level windows,
        // drained by always jumping to next_wake.
        const N: usize = 256;
        let mut w = WakeWheel::new(N);
        let mut seed: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut expect: Vec<(Cycle, u32)> = (0..N as u32)
            .map(|id| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let wake = 1 + (seed >> 33) % (WHEEL_HORIZON / 2);
                w.insert(id, wake);
                (wake, id)
            })
            .collect();
        expect.sort_unstable();
        let mut got: Vec<(Cycle, u32)> = Vec::new();
        let mut due = Vec::new();
        while let Some(nw) = w.next_wake() {
            due.clear();
            w.expire(nw, &mut due);
            assert!(!due.is_empty(), "next_wake pointed at an empty cycle");
            due.sort_unstable();
            got.extend(due.iter().map(|&id| (nw, id)));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn wheel_sequential_ticks_cascade_lazily() {
        // Advance one cycle at a time past a level-1 wake: the entry
        // must surface exactly at its wake cycle.
        let mut w = WakeWheel::new(2);
        w.insert(0, 200);
        let mut due = Vec::new();
        for t in 1..=199 {
            w.expire(t, &mut due);
            assert!(due.is_empty(), "early wake at {t}");
        }
        w.expire(200, &mut due);
        assert_eq!(due, vec![0]);
    }

    #[test]
    fn active_set_visits_running_and_due_sorted() {
        let mut s = ActiveSet::new(4);
        s.seed(2, Activity::Busy, 0);
        s.seed(0, Activity::IdleUntil(0), 0);
        s.seed(1, Activity::IdleUntil(3), 0);
        s.seed(3, Activity::Drained, 0);
        assert!(!s.idle());
        assert_eq!(s.visit(0), &[0, 2]);
        assert_eq!(s.visited_component_cycles(), 2);
        // 0 goes busy, 2 sleeps until 5.
        s.reinsert(0, Activity::Busy, 1);
        s.reinsert(2, Activity::IdleUntil(5), 1);
        s.end_cycle(0);
        assert_eq!(s.visit(1), &[0]);
        s.reinsert(0, Activity::IdleUntil(3), 2);
        s.end_cycle(1);
        assert!(s.idle());
        assert_eq!(s.next_wake(), Some(3));
        s.advance(3);
        assert_eq!(s.visit(3), &[0, 1]);
    }

    #[test]
    fn active_set_catch_up_spans_cover_sleep() {
        let mut s = ActiveSet::new(2);
        s.seed(0, Activity::Busy, 0);
        s.seed(1, Activity::IdleUntil(10), 0);
        for t in 0..10 {
            assert_eq!(s.visit(t), &[0]);
            assert_eq!(s.take_catch_up(0, t), None);
            s.reinsert(0, Activity::Busy, t + 1);
            s.end_cycle(t);
        }
        assert_eq!(s.visit(10), &[0, 1]);
        assert_eq!(s.take_catch_up(1, 10), Some(0));
        assert_eq!(s.take_catch_up(1, 10), None);
    }

    #[test]
    fn active_set_wake_overrides_wheel() {
        let mut s = ActiveSet::new(2);
        s.seed(0, Activity::IdleUntil(100), 0);
        s.seed(1, Activity::waiting(), 0);
        assert!(s.idle());
        // A touch at cycle 4 makes both visible-at-5.
        s.advance(4);
        s.wake(0, 5);
        s.wake(1, 5);
        s.wake(1, 5); // duplicate tokens dedup
        s.end_cycle(4);
        assert_eq!(s.visit(5), &[0, 1]);
        assert_eq!(s.take_catch_up(0, 5), Some(0));
        s.reinsert(0, Activity::Drained, 6);
        s.reinsert(1, Activity::Drained, 6);
        s.end_cycle(5);
        assert!(s.idle());
        assert_eq!(s.next_wake(), None);
    }

    #[test]
    fn active_set_drain_catch_ups_flushes_sleepers() {
        let mut s = ActiveSet::new(3);
        s.seed(0, Activity::IdleUntil(50), 0);
        s.seed(1, Activity::Drained, 0);
        s.seed(2, Activity::Busy, 0);
        s.visit(0);
        s.reinsert(2, Activity::Drained, 1);
        s.end_cycle(0);
        let mut spans = Vec::new();
        s.drain_catch_ups(7, |id, since| spans.push((id, since)));
        assert_eq!(spans, vec![(0, 0), (1, 0), (2, 1)]);
        spans.clear();
        s.drain_catch_ups(7, |id, since| spans.push((id, since)));
        assert!(spans.is_empty());
    }
}
