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
//!   parked awaiting an inbound event, plus the queued set that wheel
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

    #[inline]
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
    #[inline]
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
    #[inline]
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
        let mut id = self.head[level][slot];
        if level == 0 {
            // Level-0 entries lie less than 64 cycles ahead of the
            // cursor, so the entries of one slot share their wake.
            return self.wake[id as usize];
        }
        let mut best = Cycle::MAX;
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

    /// Advances the cursor to `to` and hands every entry due at (or
    /// before) `to` to `due`, unlinked from the wheel.
    ///
    /// The caller must not advance past a pending wake
    /// (`to <= next_wake()`), which the run loop guarantees by
    /// construction: jumps target the wheel minimum and ticks advance
    /// one cycle at a time.
    ///
    /// The common tick touches nothing: an upper level's cursor slot
    /// needs a cascade only when `to` enters a new window of that level
    /// (between window changes it can hold only entries a full lap
    /// ahead, see [`cascade`](Self::cascade)), and level 0's cursor slot
    /// is empty unless something is due at `to`. Both rare cases run
    /// out of line.
    #[inline]
    pub fn expire(&mut self, to: Cycle, mut due: impl FnMut(u32)) {
        debug_assert!(to >= self.now);
        debug_assert!(self.next_wake().is_none_or(|w| w >= to), "skipped a wake");
        let from = std::mem::replace(&mut self.now, to);
        if (from ^ to) >> SLOT_BITS != 0 {
            self.cascade(from, to, &mut due);
        }
        let cursor = (to & (SLOTS as u64 - 1)) as usize;
        if self.occ[0] & (1 << cursor) != 0 {
            self.drain_due(cursor, to, &mut due);
        }
    }

    /// Redistributes the cursor slot of every upper level whose window
    /// `to` entered (coming from `from`), highest level first: the
    /// window has arrived, so its entries move to lower levels or fall
    /// due.
    ///
    /// Once a level's cursor slot has cascaded, nothing in the same
    /// window can land there again: an insert at level `l` lies at
    /// least `64^l` cycles ahead, so it reaches the cursor slot only a
    /// full lap (64 windows) ahead, where it waits untouched until the
    /// cursor comes round to it — the next window change that cascades
    /// this slot. A higher window change implies every lower one, so a
    /// level-3 entry redistributed into level 2's cursor slot is
    /// cascaded in the same pass.
    #[inline(never)]
    fn cascade(&mut self, from: Cycle, to: Cycle, due: &mut impl FnMut(u32)) {
        for level in (1..LEVELS).rev() {
            let shift = SLOT_BITS * level as u32;
            if from >> shift == to >> shift {
                continue;
            }
            let cursor = ((to >> shift) & (SLOTS as u64 - 1)) as usize;
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
                    due(id);
                } else {
                    self.insert(id, w);
                }
                id = after;
            }
        }
    }

    /// Unlinks level 0's cursor slot — exactly the entries due at `to`
    /// — into `due`.
    #[inline(never)]
    fn drain_due(&mut self, cursor: usize, to: Cycle, due: &mut impl FnMut(u32)) {
        let mut id = self.detach(0, cursor);
        while id != NONE {
            let i = id as usize;
            let after = self.next[i];
            debug_assert_eq!(self.wake[i], to);
            self.pos[i] = NONE;
            self.len -= 1;
            due(id);
            id = after;
        }
    }
}

/// The per-component scheduling state the run loop drives.
///
/// Every component is either *running* (visited every cycle) or *idle*
/// (skipped until a wheel expiry or an inbound cross-component touch
/// queues it). Idle components carry a `since` cycle — the first
/// cycle they have not yet processed — and are caught up with one
/// [`Component::skip`] call when next visited, so per-cycle bookkeeping
/// stays bit-identical to ticking it every cycle.
///
/// The running and queued sets are bitsets over component ids, so a
/// visit set comes out in id order with no sort, and membership tests
/// are one load. `queued` holds the ids due at the cycle about to be
/// visited; [`visit`](Self::visit) empties it, and from then until
/// [`end_cycle`](Self::end_cycle) it collects the ids due at the next
/// cycle.
///
/// The driving loop per ticked cycle `now`:
///
/// 1. [`visit`](Self::visit) — fills the engine's buffer with the
///    sorted set of running + due ids; for each,
///    [`take_catch_up`](Self::take_catch_up) then `tick`;
/// 2. [`reinsert`](Self::reinsert) each visited id with its fresh
///    `next_activity(now + 1)` hint;
/// 3. route the cycle's cross-component touches (for OCP systems,
///    the link arena's wake tokens) into [`wake`](Self::wake);
/// 4. [`end_cycle`](Self::end_cycle) to queue the next cycle's wheel
///    expiries.
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
    /// Components visited every cycle, one bit per id.
    running: Vec<u64>,
    running_len: usize,
    /// Components queued for the next visit, one bit per id. A wheel
    /// entry and a queued bit exclude each other.
    queued: Vec<u64>,
    queued_len: usize,
    /// First unprocessed cycle of an idle component.
    since: Vec<Cycle>,
    visited: u64,
}

/// Sets `id`'s bit; returns whether it was clear.
#[inline]
fn set_bit(bits: &mut [u64], id: u32) -> bool {
    let (word, mask) = (&mut bits[(id >> 6) as usize], 1 << (id & 63));
    let was_clear = *word & mask == 0;
    *word |= mask;
    was_clear
}

/// Clears `id`'s bit; returns whether it was set.
#[inline]
fn clear_bit(bits: &mut [u64], id: u32) -> bool {
    let (word, mask) = (&mut bits[(id >> 6) as usize], 1 << (id & 63));
    let was_set = *word & mask != 0;
    *word &= !mask;
    was_set
}

#[inline]
fn test_bit(bits: &[u64], id: u32) -> bool {
    bits[(id >> 6) as usize] & (1 << (id & 63)) != 0
}

impl ActiveSet {
    /// A scheduler for component ids `0..n`, all initially idle at
    /// cycle 0 with no wake — call [`seed`](Self::seed) for each id
    /// before the first cycle.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        ActiveSet {
            wheel: WakeWheel::new(n),
            running: vec![0; words],
            running_len: 0,
            queued: vec![0; words],
            queued_len: 0,
            since: vec![0; n],
            visited: 0,
        }
    }

    /// Number of component ids managed.
    pub fn components(&self) -> usize {
        self.since.len()
    }

    #[inline]
    fn make_running(&mut self, id: u32) {
        if set_bit(&mut self.running, id) {
            self.running_len += 1;
        }
    }

    #[inline]
    fn queue(&mut self, id: u32) {
        let fresh = set_bit(&mut self.queued, id);
        debug_assert!(fresh, "queued twice");
        self.queued_len += 1;
    }

    /// Classifies `id`'s initial hint, evaluated at cycle `at` (the
    /// first cycle the engine will execute).
    pub fn seed(&mut self, id: u32, hint: Activity, at: Cycle) {
        self.since[id as usize] = at;
        match hint {
            Activity::Busy => self.make_running(id),
            Activity::IdleUntil(w) if w <= at => self.queue(id),
            Activity::IdleUntil(w) if w != Cycle::MAX => self.wheel.insert(id, w),
            Activity::IdleUntil(_) | Activity::Drained => {}
        }
    }

    /// True when no component runs this cycle and none is due — the
    /// engine may [`advance`](Self::advance) to the next wake.
    #[inline]
    pub fn idle(&self) -> bool {
        self.running_len == 0 && self.queued_len == 0
    }

    /// The earliest pending wheel wake, or `None` when nothing sleeps
    /// on a timer.
    pub fn next_wake(&self) -> Option<Cycle> {
        self.wheel.next_wake()
    }

    /// Fills `buf` with the visit set of the cycle about to be ticked
    /// — every running component plus everything due, in id order —
    /// and returns how many of its ids lie below `split` (the engine's
    /// masters come first in id order, so that prefix is the master
    /// phase). Empties the queue; visited ids keep their state until
    /// [`reinsert`](Self::reinsert).
    #[inline]
    pub fn visit(&mut self, split: u32, buf: &mut Vec<u32>) -> usize {
        buf.clear();
        let mut below = 0;
        for (word, (&running, queued)) in self.running.iter().zip(&mut self.queued).enumerate() {
            let mut bits = running | std::mem::take(queued);
            while bits != 0 {
                let id = (word as u32) << 6 | bits.trailing_zeros();
                buf.push(id);
                below += (id < split) as usize;
                bits &= bits - 1;
            }
        }
        self.queued_len = 0;
        self.visited += buf.len() as u64;
        below
    }

    /// If `id` slept through cycles it has not yet processed, returns
    /// the first such cycle and marks the span handled — the caller
    /// must issue `skip(since, now)` before ticking at `now`.
    #[inline]
    pub fn take_catch_up(&mut self, id: u32, now: Cycle) -> Option<Cycle> {
        let i = id as usize;
        if test_bit(&self.running, id) || self.since[i] >= now {
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
    #[inline]
    pub fn reinsert(&mut self, id: u32, hint: Activity, next: Cycle) {
        debug_assert!(!self.wheel.contains(id));
        match hint {
            Activity::Busy => {
                self.make_running(id);
                return;
            }
            Activity::IdleUntil(w) if w <= next => self.queue(id),
            Activity::IdleUntil(w) if w != Cycle::MAX => self.wheel.insert(id, w),
            Activity::IdleUntil(_) | Activity::Drained => {}
        }
        if clear_bit(&mut self.running, id) {
            self.running_len -= 1;
        }
        self.since[id as usize] = next;
    }

    /// An inbound touch for `id`, visible at the next cycle: ensures
    /// `id` is visited then. Running or already-queued components are
    /// left alone; a pending wheel wake is cancelled in favour of the
    /// earlier visit.
    #[inline]
    pub fn wake(&mut self, id: u32) {
        if test_bit(&self.running, id) || test_bit(&self.queued, id) {
            return;
        }
        self.wheel.cancel(id);
        self.queue(id);
    }

    /// Finishes cycle `now`: adds the wheel expiries for `now + 1` to
    /// the queue the cycle's touches and immediate wakes filled.
    #[inline]
    pub fn end_cycle(&mut self, now: Cycle) {
        self.expire_into_queue(now + 1);
    }

    /// Jumps the scheduler from an [`idle`](Self::idle) state straight
    /// to cycle `to` (at most [`next_wake`](Self::next_wake)), queueing
    /// the wakes that fall due there. No per-component work happens —
    /// skipped spans are settled by later catch-ups.
    pub fn advance(&mut self, to: Cycle) {
        debug_assert!(self.idle());
        self.expire_into_queue(to);
    }

    #[inline]
    fn expire_into_queue(&mut self, to: Cycle) {
        let (queued, len) = (&mut self.queued, &mut self.queued_len);
        self.wheel.expire(to, |id| {
            let fresh = set_bit(queued, id);
            debug_assert!(fresh, "a wheel entry was also queued");
            *len += 1;
        });
    }

    /// Streams every idle component whose state lags `now` through `f`
    /// as `(id, since)` — the end-of-run pass that issues the final
    /// `skip(since, now)` catch-ups.
    pub fn drain_catch_ups(&mut self, now: Cycle, mut f: impl FnMut(u32, Cycle)) {
        for id in 0..self.since.len() as u32 {
            let since = &mut self.since[id as usize];
            if !test_bit(&self.running, id) && *since < now {
                f(id, std::mem::replace(since, now));
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

    /// The visit set of the cycle about to be ticked, checked against
    /// the split it reports for a boundary of 2.
    fn visit(s: &mut ActiveSet) -> Vec<u32> {
        let mut buf = Vec::new();
        let split = s.visit(2, &mut buf);
        assert_eq!(split, buf.iter().filter(|&&id| id < 2).count());
        buf
    }

    #[test]
    fn wheel_insert_expire_single_level() {
        let mut w = WakeWheel::new(8);
        w.insert(3, 5);
        w.insert(1, 7);
        assert_eq!(w.next_wake(), Some(5));
        let mut due = Vec::new();
        w.expire(5, |id| due.push(id));
        assert_eq!(due, vec![3]);
        assert_eq!(w.next_wake(), Some(7));
        due.clear();
        w.expire(7, |id| due.push(id));
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
            w.expire(nw, |id| due.push(id));
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
        w.expire(63, |id| due.push(id));
        assert_eq!(due, vec![0]);
        let far = 63 + 4095; // level 1, wraps into the cursor slot
        let near = 63 + 320; // level 1, five slots ahead
        w.insert(1, far);
        w.insert(2, near);
        assert_eq!(w.next_wake(), Some(near));
        due.clear();
        w.expire(near, |id| due.push(id));
        assert_eq!(due, vec![2]);
        assert_eq!(w.next_wake(), Some(far));
        due.clear();
        w.expire(far, |id| due.push(id));
        assert_eq!(due, vec![1]);
    }

    #[test]
    fn wheel_clamps_far_wakes_to_horizon() {
        let mut w = WakeWheel::new(2);
        w.insert(0, WHEEL_HORIZON * 3);
        let early = w.next_wake().unwrap();
        assert_eq!(early, WHEEL_HORIZON - 1);
        let mut due = Vec::new();
        w.expire(early, |id| due.push(id));
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
            w.expire(nw, |id| due.push(id));
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
            w.expire(t, |id| due.push(id));
            assert!(due.is_empty(), "early wake at {t}");
        }
        w.expire(200, |id| due.push(id));
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
        assert_eq!(visit(&mut s), &[0, 2]);
        assert_eq!(s.visited_component_cycles(), 2);
        // 0 goes busy, 2 sleeps until 5.
        s.reinsert(0, Activity::Busy, 1);
        s.reinsert(2, Activity::IdleUntil(5), 1);
        s.end_cycle(0);
        assert_eq!(visit(&mut s), &[0]);
        s.reinsert(0, Activity::IdleUntil(3), 2);
        s.end_cycle(1);
        assert!(s.idle());
        assert_eq!(s.next_wake(), Some(3));
        s.advance(3);
        assert_eq!(visit(&mut s), &[0, 1]);
    }

    #[test]
    fn active_set_catch_up_spans_cover_sleep() {
        let mut s = ActiveSet::new(2);
        s.seed(0, Activity::Busy, 0);
        s.seed(1, Activity::IdleUntil(10), 0);
        for t in 0..10 {
            assert_eq!(visit(&mut s), &[0]);
            assert_eq!(s.take_catch_up(0, t), None);
            s.reinsert(0, Activity::Busy, t + 1);
            s.end_cycle(t);
        }
        assert_eq!(visit(&mut s), &[0, 1]);
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
        s.wake(0);
        s.wake(1);
        s.wake(1); // duplicate tokens dedup
        s.end_cycle(4);
        assert_eq!(visit(&mut s), &[0, 1]);
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
        visit(&mut s);
        s.reinsert(2, Activity::Drained, 1);
        s.end_cycle(0);
        let mut spans = Vec::new();
        s.drain_catch_ups(7, |id, since| spans.push((id, since)));
        assert_eq!(spans, vec![(0, 0), (1, 0), (2, 1)]);
        spans.clear();
        s.drain_catch_ups(7, |id, since| spans.push((id, since)));
        assert!(spans.is_empty());
    }

    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The naive scheduler the oracle holds `ActiveSet` against: every
    /// pending wake in an ordered map, the running and due sets as
    /// ordered sets, and the first unprocessed cycle per component.
    struct Reference {
        /// The cycle the scheduler stands at (the wheel's cursor).
        now: Cycle,
        wakes: std::collections::BTreeMap<u32, Cycle>,
        running: std::collections::BTreeSet<u32>,
        due: std::collections::BTreeSet<u32>,
        next_due: std::collections::BTreeSet<u32>,
        since: Vec<Cycle>,
        visited: u64,
    }

    impl Reference {
        /// Files a hint the way `seed` (into `due`, `immediate` false)
        /// or `reinsert` (into `next_due`) does.
        fn file(&mut self, id: u32, hint: Activity, at: Cycle, into_next: bool) {
            match hint {
                Activity::Busy => {
                    self.running.insert(id);
                    return;
                }
                Activity::IdleUntil(w) if w <= at => {
                    if into_next {
                        self.next_due.insert(id);
                    } else {
                        self.due.insert(id);
                    }
                }
                Activity::IdleUntil(w) if w != Cycle::MAX => {
                    self.wakes.insert(id, w.min(self.now + WHEEL_HORIZON - 1));
                }
                Activity::IdleUntil(_) | Activity::Drained => {}
            }
            self.running.remove(&id);
            self.since[id as usize] = at;
        }

        fn next_wake(&self) -> Option<Cycle> {
            self.wakes.values().copied().min()
        }

        /// Moves the wakes due at `to` into `due`.
        fn expire(&mut self, to: Cycle) {
            assert!(self.next_wake().is_none_or(|w| w >= to));
            let fired: Vec<u32> = (self.wakes.iter())
                .filter(|&(_, &w)| w == to)
                .map(|(&id, _)| id)
                .collect();
            for id in fired {
                self.wakes.remove(&id);
                self.due.insert(id);
            }
            self.now = to;
        }
    }

    /// What one generated run exercised, summed over seeds.
    #[derive(Default)]
    struct Coverage {
        /// Wheel inserts by level, plus lap-ahead and clamped inserts.
        levels: [u64; LEVELS],
        lap_ahead: u64,
        clamped: u64,
        jumps: u64,
        ticks: u64,
        catch_ups: u64,
        wakes: u64,
    }

    impl Coverage {
        /// Tallies the wheel level a hint filed at `next` lands in.
        fn count(&mut self, hint: Activity, now: Cycle, next: Cycle) {
            let Activity::IdleUntil(w) = hint else { return };
            if w <= next || w == Cycle::MAX {
                return;
            }
            let d = w - now;
            if d >= WHEEL_HORIZON {
                self.clamped += 1;
                return;
            }
            let level = (d.ilog2() / SLOT_BITS) as usize;
            self.levels[level] += 1;
            if level == 1 && w >> SLOT_BITS == (now >> SLOT_BITS) + 64 {
                self.lap_ahead += 1;
            }
        }
    }

    /// A hint for a component filed at `next` while the scheduler
    /// stands at `now`, covering every wheel level, entries a full
    /// level-1 lap ahead of the cursor, and wakes past the horizon.
    fn gen_hint(rng: &mut Xorshift, now: Cycle, next: Cycle) -> Activity {
        let ahead = |d: u64| Activity::IdleUntil(now + d);
        match rng.below(16) {
            0..=2 => Activity::Busy,
            3 => Activity::IdleUntil(next.saturating_sub(rng.below(3))),
            4..=6 => ahead(2 + rng.below(62)),
            7 | 8 => ahead(64 + rng.below(4096 - 64)),
            // Lands in level 1's cursor slot: 64 windows ahead.
            9 => {
                let w = ((now >> SLOT_BITS) + 64) << SLOT_BITS;
                Activity::IdleUntil(w + rng.below((now & 63).max(1)))
            }
            10 => ahead(4096 + rng.below(0x40000 - 4096)),
            11 => ahead(0x40000 + rng.below(WHEEL_HORIZON - 0x40000)),
            12 => ahead(WHEEL_HORIZON + rng.below(3 * WHEEL_HORIZON)),
            13 => Activity::waiting(),
            _ => Activity::Drained,
        }
    }

    /// One generated run of `steps` scheduler operations on up to 40
    /// components: every visit set, catch-up span, `idle` and
    /// `next_wake` answer is checked against [`Reference`].
    fn oracle_run(seed: u64, steps: usize, cov: &mut Coverage) {
        let mut rng = Xorshift((seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let n = 1 + rng.below(40) as u32;
        let split = rng.below(n as u64 + 1) as u32;
        let start = match rng.below(3) {
            0 => 0,
            1 => rng.below(1 << 12),
            _ => rng.below(1 << 40),
        };
        let mut s = ActiveSet::new(n as usize);
        let mut r = Reference {
            now: start,
            wakes: Default::default(),
            running: Default::default(),
            due: Default::default(),
            next_due: Default::default(),
            since: vec![0; n as usize],
            visited: 0,
        };
        if start > 0 {
            s.advance(start);
        }
        for id in 0..n {
            let hint = gen_hint(&mut rng, start, start);
            cov.count(hint, start, start);
            s.seed(id, hint, start);
            r.file(id, hint, start, false);
        }
        let mut buf = Vec::new();
        for step in 0..steps {
            let now = r.now;
            let at = format!("seed {seed}, step {step}, cycle {now}");
            let idle = r.running.is_empty() && r.due.is_empty();
            assert_eq!(s.idle(), idle, "{at}: idle");
            assert_eq!(s.next_wake(), r.next_wake(), "{at}: next_wake");
            // The engine jumps when its fabric agrees; otherwise it
            // ticks an empty or non-empty visit set.
            if idle && rng.below(4) != 0 {
                let to = match r.next_wake() {
                    Some(w) if rng.below(3) == 0 => now + 1 + rng.below(w - now),
                    Some(w) => w,
                    None => {
                        let bits = 1 + rng.below(30);
                        now + 1 + rng.below(1 << bits)
                    }
                };
                s.advance(to);
                r.expire(to);
                cov.jumps += 1;
                continue;
            }
            let got_split = s.visit(split, &mut buf);
            let want: Vec<u32> = r.running.union(&r.due).copied().collect();
            assert_eq!(buf, want, "{at}: visit set");
            let want_split = want.iter().filter(|&&id| id < split).count();
            assert_eq!(got_split, want_split, "{at}: split");
            r.visited += want.len() as u64;
            assert_eq!(s.visited_component_cycles(), r.visited, "{at}: visited");
            r.due.clear();
            for &id in &buf {
                let since = &mut r.since[id as usize];
                let span = (!r.running.contains(&id) && *since < now).then_some(*since);
                if span.is_some() {
                    *since = now;
                }
                assert_eq!(s.take_catch_up(id, now), span, "{at}: catch-up of {id}");
                assert_eq!(s.take_catch_up(id, now), None, "{at}: second catch-up");
                cov.catch_ups += span.is_some() as u64;
            }
            let next = now + 1;
            for &id in &buf {
                let hint = gen_hint(&mut rng, now, next);
                cov.count(hint, now, next);
                s.reinsert(id, hint, next);
                r.file(id, hint, next, true);
            }
            // Inbound touches, duplicates included.
            for _ in 0..rng.below(4) {
                let id = rng.below(n as u64) as u32;
                s.wake(id);
                if !r.running.contains(&id) && r.next_due.insert(id) {
                    r.wakes.remove(&id);
                    cov.wakes += 1;
                }
            }
            s.end_cycle(now);
            r.due = std::mem::take(&mut r.next_due);
            r.expire(next);
            cov.ticks += 1;
        }
        let end = r.now + rng.below(100);
        let mut spans = Vec::new();
        s.drain_catch_ups(end, |id, since| spans.push((id, since)));
        let want: Vec<(u32, Cycle)> = (0..n)
            .filter(|id| !r.running.contains(id) && r.since[*id as usize] < end)
            .map(|id| (id, r.since[id as usize]))
            .collect();
        assert_eq!(spans, want, "seed {seed}: final catch-ups");
    }

    fn oracle(seeds: std::ops::Range<u64>) {
        let mut cov = Coverage::default();
        for seed in seeds {
            oracle_run(seed, 300, &mut cov);
        }
        let Coverage {
            levels,
            lap_ahead,
            clamped,
            jumps,
            ticks,
            catch_ups,
            wakes,
        } = cov;
        assert!(
            levels.iter().all(|&l| l > 1_000)
                && lap_ahead > 1_000
                && clamped > 1_000
                && jumps > 1_000
                && ticks > 10_000
                && catch_ups > 1_000
                && wakes > 1_000,
            "coverage: levels {levels:?}, lap-ahead {lap_ahead}, clamped {clamped}, \
             {jumps} jumps, {ticks} ticks, {catch_ups} catch-ups, {wakes} wakes"
        );
    }

    /// `ActiveSet` against the naive reference on generated operation
    /// sequences; a failure names its seed.
    #[test]
    fn active_set_matches_the_naive_reference() {
        oracle(0..200);
    }

    /// Ten times the seeds; `ci.sh` runs it in release under a timeout.
    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn active_set_matches_the_naive_reference_long() {
        oracle(200..2_200);
    }
}
