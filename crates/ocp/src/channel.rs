//! The single-slot handshaked link arena connecting masters to the network.

use std::collections::VecDeque;

use ntg_sim::Cycle;

use crate::observer::ChannelObserver;
use crate::types::{MasterId, OcpRequest, OcpResponse};

/// Identifies one OCP link inside a [`LinkArena`].
///
/// A plain index — `Copy`, `Send`, and meaningless without the arena it
/// was minted by. Ports wrap one of these; components store ports (or
/// ids) and borrow the arena on every access, so the whole component
/// graph is an ordinary `Send` value with no shared-ownership
/// bookkeeping on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(u32);

impl LinkId {
    /// The raw index into the arena's link slab.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// State of one OCP link: the handshake slots plus their visibility
/// cycles.
///
/// All visibility rules (a value written in cycle *t* is only observable
/// from cycle *t + 1*) are enforced here, centrally. Each `*_visible_at`
/// field holds the cycle from which the corresponding event is visible
/// (`None` when absent) — the every-cycle polls that dominate the tick
/// path answer from these plain fields with one load and no interior-
/// mutability bookkeeping.
struct Link {
    /// Link name, owned by the arena (the per-platform string table);
    /// ports hand out `&str` borrows, never copies.
    name: String,
    master: MasterId,
    /// The request driving the wires.
    req: Option<OcpRequest>,
    /// `asserted_at + 1` of the pending request.
    req_visible_at: Option<Cycle>,
    /// Set when a request is accepted; consumed by the master.
    accept: Option<(u64, Cycle)>,
    /// `accepted_at + 1` of the unconsumed acceptance.
    accept_visible_at: Option<Cycle>,
    resp: VecDeque<(OcpResponse, Cycle)>,
    /// `pushed_at + 1` of the oldest queued response.
    resp_visible_at: Option<Cycle>,
    next_tag: u64,
    observer: Option<Box<dyn ChannelObserver + Send>>,
}

/// The slab of every OCP link in one platform, owned by the simulation
/// harness and lent (`&`/`&mut`) to components on each tick.
///
/// Created empty; [`LinkArena::channel`] mints connected
/// [`MasterPort`]/[`SlavePort`] endpoint pairs. Because ports are plain
/// indices and the arena is an ordinary owned value, a platform built on
/// it is `Send`: a worker thread can own and run it outright.
#[derive(Default)]
pub struct LinkArena {
    links: Vec<Link>,
    /// When set, every write that becomes visible to the *other* side of
    /// a link next cycle appends a wake token to `wakes` (see
    /// [`LinkArena::set_wake_logging`]).
    log_wakes: bool,
    wakes: Vec<u32>,
    /// The first cycle the run in progress will *not* execute (see
    /// [`LinkArena::set_run_end`]); `None` when no driver has said.
    run_end: Option<Cycle>,
}

/// Decodes a wake token logged by a [`LinkArena`] (see
/// [`LinkArena::set_wake_logging`]): the touched link, and whether the
/// component that must wake is the one holding the link's *master-side*
/// port (`true`) or its slave-side port (`false`).
pub fn wake_token(token: u32) -> (LinkId, bool) {
    (LinkId(token >> 1), token & 1 != 0)
}

impl LinkArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a connected master/slave endpoint pair for a new OCP link.
    ///
    /// `name` identifies the link in diagnostics and traces; `master` is
    /// stamped into every request asserted through the returned
    /// [`MasterPort`].
    pub fn channel(
        &mut self,
        name: impl Into<String>,
        master: MasterId,
    ) -> (MasterPort, SlavePort) {
        let id = LinkId(u32::try_from(self.links.len()).expect("link arena overflow"));
        self.links.push(Link {
            name: name.into(),
            master,
            req: None,
            req_visible_at: None,
            accept: None,
            accept_visible_at: None,
            resp: VecDeque::new(),
            next_tag: 0,
            resp_visible_at: None,
            observer: None,
        });
        (MasterPort { link: id }, SlavePort { link: id })
    }

    /// The number of links minted so far.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether no links have been minted.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The name of link `id` (a borrow from the arena's string table).
    pub fn name(&self, id: LinkId) -> &str {
        &self.link(id).name
    }

    /// Enables (or disables) wake-touch logging.
    ///
    /// While enabled, every port operation that makes an awaited event
    /// visible to the component on the *other* end of a link next cycle —
    /// [`MasterPort::assert_request`]/[`MasterPort::forward_request`]
    /// towards the slave side, [`SlavePort::accept_request`] of a posted
    /// write and [`SlavePort::push_response`] towards the master side —
    /// logs a token identifying the reader, drained via
    /// [`LinkArena::drain_wakes`]. `Platform::run` uses this to pull a
    /// sleeping component out of its wheel exactly when an inbound event
    /// becomes visible. A read's acceptance wakes nobody (its master
    /// waits for the response), and consuming operations (`take_*`) wake
    /// nobody either. Off by default and free when off (one branch per
    /// write).
    pub fn set_wake_logging(&mut self, on: bool) {
        self.log_wakes = on;
        if !on {
            self.wakes.clear();
        }
    }

    /// Tells the components how far the run in progress goes: cycles
    /// `< end` will be executed, cycle `end` may never be. A run loop
    /// with a cycle limit sets this before its first tick, so a
    /// component that executes ahead of `now` (a `CpuCore` inside a
    /// compute burst) stops at the same cycle the loop does and an
    /// incomplete run reports exactly the state of that cycle.
    pub fn set_run_end(&mut self, end: Cycle) {
        self.run_end = Some(end);
    }

    /// The cycle set by [`LinkArena::set_run_end`]; [`Cycle::MAX`]
    /// (unbounded) when no driver has set one.
    #[inline]
    pub fn run_end(&self) -> Cycle {
        self.run_end.unwrap_or(Cycle::MAX)
    }

    #[inline]
    fn log_wake(&mut self, id: LinkId, master_side: bool) {
        if self.log_wakes {
            self.wakes.push(id.0 << 1 | master_side as u32);
        }
    }

    /// Drains every wake token logged since the last drain, in the
    /// order the touches happened (decode with [`wake_token`]).
    /// Duplicates are possible; the scheduler dedups.
    pub fn drain_wakes(&mut self) -> impl Iterator<Item = u32> + '_ {
        self.wakes.drain(..)
    }

    #[inline]
    fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    #[inline]
    fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }
}

impl std::fmt::Debug for LinkArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_list();
        for l in &self.links {
            d.entry(&format_args!(
                "{}: master={} req={:?} accept={:?} resp_queued={}",
                l.name,
                l.master,
                l.req.as_ref().map(|r| r.cmd),
                l.accept,
                l.resp.len()
            ));
        }
        d.finish()
    }
}

/// The core-side endpoint of an OCP link.
///
/// Owned by a CPU core or traffic generator; a plain `Copy` index into
/// the [`LinkArena`], which every method borrows explicitly.
#[derive(Debug, Clone, Copy)]
pub struct MasterPort {
    link: LinkId,
}

/// The network-side endpoint of an OCP link.
///
/// Owned by an interconnect (for master links) or by a slave device (for
/// slave links); a plain `Copy` index into the [`LinkArena`].
#[derive(Debug, Clone, Copy)]
pub struct SlavePort {
    link: LinkId,
}

impl MasterPort {
    /// The id of the link this port is an endpoint of.
    pub fn id(&self) -> LinkId {
        self.link
    }

    /// The link name supplied to [`LinkArena::channel`] (borrowed from
    /// the arena's string table).
    pub fn name<'a>(&self, net: &'a LinkArena) -> &'a str {
        &net.link(self.link).name
    }

    /// The master identity stamped into requests asserted here.
    pub fn master(&self, net: &LinkArena) -> MasterId {
        net.link(self.link).master
    }

    /// Installs a trace observer on this link, replacing any previous one.
    pub fn set_observer(&self, net: &mut LinkArena, observer: Box<dyn ChannelObserver + Send>) {
        net.link_mut(self.link).observer = Some(observer);
    }

    /// Removes and returns the installed observer, if any.
    pub fn take_observer(&self, net: &mut LinkArena) -> Option<Box<dyn ChannelObserver + Send>> {
        net.link_mut(self.link).observer.take()
    }

    /// Asserts `req` on the request wires in cycle `now`.
    ///
    /// The request keeps driving the wires until the network accepts it.
    /// The port stamps the master id and a fresh sequence tag; the stamped
    /// tag is returned.
    ///
    /// # Panics
    ///
    /// Panics if a previous request has not been accepted yet — a
    /// single-threaded blocking master can never legally do this, so it is
    /// a programming error in the master model.
    pub fn assert_request(&self, net: &mut LinkArena, mut req: OcpRequest, now: Cycle) -> u64 {
        let ch = net.link_mut(self.link);
        assert!(
            ch.req.is_none(),
            "master {} asserted a request while one is already pending on {}",
            ch.master,
            ch.name
        );
        req.master = ch.master;
        req.tag = ch.next_tag;
        ch.next_tag += 1;
        let tag = req.tag;
        if let Some(obs) = ch.observer.as_mut() {
            obs.on_request(now, &req);
        }
        ch.req = Some(req);
        ch.req_visible_at = Some(now + 1);
        net.log_wake(self.link, false);
        tag
    }

    /// Asserts `req` without re-stamping its master id or tag.
    ///
    /// Used by interconnects to forward a request received on a master
    /// link onto a slave link while preserving its identity for response
    /// matching and tracing.
    ///
    /// # Panics
    ///
    /// Panics if a previous request has not been accepted yet.
    pub fn forward_request(&self, net: &mut LinkArena, req: OcpRequest, now: Cycle) {
        let ch = net.link_mut(self.link);
        assert!(
            ch.req.is_none(),
            "forwarded a request while one is already pending on {}",
            ch.name
        );
        if let Some(obs) = ch.observer.as_mut() {
            obs.on_request(now, &req);
        }
        ch.req = Some(req);
        ch.req_visible_at = Some(now + 1);
        net.log_wake(self.link, false);
    }

    /// Whether a request is still driving the wires (not yet accepted).
    #[inline]
    pub fn request_pending(&self, net: &LinkArena) -> bool {
        net.link(self.link).req_visible_at.is_some()
    }

    /// Consumes the acceptance event, if one is visible in cycle `now`.
    ///
    /// Returns the accepted request's tag. An acceptance performed by the
    /// network in cycle *t* becomes visible in cycle *t + 1*.
    #[inline]
    pub fn take_accept(&self, net: &mut LinkArena, now: Cycle) -> Option<u64> {
        let ch = net.link_mut(self.link);
        match ch.accept_visible_at {
            Some(at) if at <= now => {}
            _ => return None,
        }
        let (tag, _) = ch.accept.take().expect("visibility said present");
        ch.accept_visible_at = None;
        Some(tag)
    }

    /// Consumes the oldest response, if one is visible in cycle `now`.
    ///
    /// A response pushed by the network in cycle *t* becomes visible in
    /// cycle *t + 1*.
    #[inline]
    pub fn take_response(&self, net: &mut LinkArena, now: Cycle) -> Option<OcpResponse> {
        let ch = net.link_mut(self.link);
        match ch.resp_visible_at {
            Some(at) if at <= now => {}
            _ => return None,
        }
        let (resp, _) = ch.resp.pop_front().expect("visibility said present");
        ch.resp_visible_at = ch.resp.front().map(|&(_, at)| at + 1);
        // A response subsumes the acceptance of the same request: a master
        // blocking on the response would otherwise leave the acceptance
        // event behind to confuse its next posted write.
        if matches!(ch.accept, Some((tag, _)) if tag == resp.tag) {
            ch.accept = None;
            ch.accept_visible_at = None;
        }
        if let Some(obs) = ch.observer.as_mut() {
            obs.on_response_consumed(now, &resp);
        }
        Some(resp)
    }

    /// Whether the link is completely quiet (no request, acceptance or
    /// response in flight).
    #[inline]
    pub fn is_quiet(&self, net: &LinkArena) -> bool {
        let ch = net.link(self.link);
        ch.req_visible_at.is_none()
            && ch.accept_visible_at.is_none()
            && ch.resp_visible_at.is_none()
    }

    /// The cycle from which the oldest queued response is visible to this
    /// master; `None` while no response is queued.
    ///
    /// With [`MasterPort::accept_visible_at`] this is what a blocked
    /// master's [`Component::next_activity`](ntg_sim::Component::next_activity)
    /// hints from — each state asks for the one event it waits on, never
    /// the earlier of the two: a read's acceptance is left behind
    /// unconsumed until its response, so a reader hinting from it would
    /// be ticked on every cycle in between.
    #[inline]
    pub fn response_visible_at(&self, net: &LinkArena) -> Option<Cycle> {
        net.link(self.link).resp_visible_at
    }

    /// The cycle from which the unconsumed acceptance is visible to this
    /// master; `None` while there is none. What a master blocked on a
    /// posted write hints from (see [`MasterPort::response_visible_at`]).
    #[inline]
    pub fn accept_visible_at(&self, net: &LinkArena) -> Option<Cycle> {
        net.link(self.link).accept_visible_at
    }

    /// The visibility cycle of the event that completes the outstanding
    /// transaction: its response if it `expects_response` (a read), its
    /// acceptance otherwise (a posted write). What an interconnect
    /// forwarding a transaction to a slave hints from while it waits.
    #[inline]
    pub fn completion_visible_at(&self, net: &LinkArena, expects_response: bool) -> Option<Cycle> {
        if expects_response {
            self.response_visible_at(net)
        } else {
            self.accept_visible_at(net)
        }
    }
}

impl SlavePort {
    /// The id of the link this port is an endpoint of.
    pub fn id(&self) -> LinkId {
        self.link
    }

    /// The link name supplied to [`LinkArena::channel`] (borrowed from
    /// the arena's string table).
    pub fn name<'a>(&self, net: &'a LinkArena) -> &'a str {
        &net.link(self.link).name
    }

    /// Looks at the pending request without accepting it.
    ///
    /// Returns `None` if there is no request or if it was asserted in this
    /// very cycle (assert-to-visible is one cycle). The request is
    /// *borrowed*, not cloned — ownership transfers only at
    /// [`SlavePort::accept_request`].
    #[inline]
    pub fn peek_request<'a>(&self, net: &'a LinkArena, now: Cycle) -> Option<&'a OcpRequest> {
        let ch = net.link(self.link);
        match ch.req_visible_at {
            Some(at) if at <= now => ch.req.as_ref(),
            _ => None,
        }
    }

    /// Whether a request is visible in cycle `now` (clone-free; what
    /// arbiters scan every cycle).
    #[inline]
    pub fn has_request(&self, net: &LinkArena, now: Cycle) -> bool {
        matches!(net.link(self.link).req_visible_at, Some(at) if at <= now)
    }

    /// The visible request's `(addr, beats, expects_response)` without
    /// cloning its payload. Used by address decoders and slave timing.
    #[inline]
    pub fn peek_meta(&self, net: &LinkArena, now: Cycle) -> Option<(u32, u32, bool)> {
        let req = self.peek_request(net, now)?;
        Some((req.addr, req.beats(), req.cmd.expects_response()))
    }

    /// Accepts the pending request, freeing the request wires.
    ///
    /// Returns `None` under the same conditions as
    /// [`SlavePort::peek_request`]. Acceptance is recorded so the master
    /// can unblock (posted-write semantics) and reported to the observer.
    /// Only a posted write's acceptance logs a wake token: a master that
    /// issued a read waits for the response, which wakes it when pushed.
    #[inline]
    pub fn accept_request(&self, net: &mut LinkArena, now: Cycle) -> Option<OcpRequest> {
        let ch = net.link_mut(self.link);
        match ch.req_visible_at {
            Some(at) if at <= now => {}
            _ => return None,
        }
        let req = ch.req.take().expect("visibility said present");
        ch.req_visible_at = None;
        // Acceptance is an edge notification: a master that does not care
        // about acceptances (it only ever waits on responses) may leave a
        // stale one behind, which the next acceptance simply replaces.
        ch.accept = Some((req.tag, now));
        ch.accept_visible_at = Some(now + 1);
        if let Some(obs) = ch.observer.as_mut() {
            obs.on_accept(now, &req);
        }
        if !req.cmd.expects_response() {
            net.log_wake(self.link, true);
        }
        Some(req)
    }

    /// Pushes a response towards the master in cycle `now`.
    #[inline]
    pub fn push_response(&self, net: &mut LinkArena, resp: OcpResponse, now: Cycle) {
        let ch = net.link_mut(self.link);
        if let Some(obs) = ch.observer.as_mut() {
            obs.on_response(now, &resp);
        }
        ch.resp.push_back((resp, now));
        if ch.resp_visible_at.is_none() {
            ch.resp_visible_at = Some(now + 1);
        }
        net.log_wake(self.link, true);
    }

    /// Whether the link is completely quiet; see [`MasterPort::is_quiet`].
    #[inline]
    pub fn is_quiet(&self, net: &LinkArena) -> bool {
        let ch = net.link(self.link);
        ch.req_visible_at.is_none()
            && ch.accept_visible_at.is_none()
            && ch.resp_visible_at.is_none()
    }

    /// The cycle from which the pending request (if any) is visible on
    /// this side of the link: one cycle after assertion.
    ///
    /// Unlike [`SlavePort::has_request`] this does not depend on `now`,
    /// so arbiters can hint the engine's cycle skipper about requests
    /// asserted this very cycle that only become actionable next cycle.
    #[inline]
    pub fn request_visible_at(&self, net: &LinkArena) -> Option<Cycle> {
        net.link(self.link).req_visible_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{OcpCmd, OcpStatus};

    fn channel(name: &str, master: MasterId) -> (LinkArena, MasterPort, SlavePort) {
        let mut net = LinkArena::new();
        let (m, s) = net.channel(name, master);
        (net, m, s)
    }

    #[test]
    fn request_invisible_in_assert_cycle() {
        let (mut net, m, s) = channel("l", MasterId(0));
        m.assert_request(&mut net, OcpRequest::read(0x10), 5);
        assert!(s.peek_request(&net, 5).is_none());
        assert!(s.accept_request(&mut net, 5).is_none());
        assert!(s.peek_request(&net, 6).is_some());
    }

    #[test]
    fn accept_frees_wires_and_notifies_master_next_cycle() {
        let (mut net, m, s) = channel("l", MasterId(2));
        let tag = m.assert_request(&mut net, OcpRequest::write(0x20, 1), 0);
        assert!(m.request_pending(&net));
        let req = s.accept_request(&mut net, 1).expect("visible at cycle 1");
        assert_eq!(req.master, MasterId(2));
        assert!(!m.request_pending(&net));
        // Acceptance performed in cycle 1 is not visible in cycle 1…
        assert_eq!(m.take_accept(&mut net, 1), None);
        // …but is in cycle 2, exactly once.
        assert_eq!(m.take_accept(&mut net, 2), Some(tag));
        assert_eq!(m.take_accept(&mut net, 3), None);
    }

    #[test]
    fn response_visible_one_cycle_after_push() {
        let (mut net, m, s) = channel("l", MasterId(0));
        m.assert_request(&mut net, OcpRequest::read(0x10), 0);
        s.accept_request(&mut net, 1);
        s.push_response(&mut net, OcpResponse::ok(vec![42], 0), 4);
        assert!(m.take_response(&mut net, 4).is_none());
        let r = m.take_response(&mut net, 5).expect("visible at 5");
        assert_eq!(r.data, vec![42]);
        assert_eq!(r.status, OcpStatus::Ok);
        assert!(m.take_response(&mut net, 6).is_none());
    }

    #[test]
    fn tags_increase_monotonically() {
        let (mut net, m, s) = channel("l", MasterId(0));
        let t0 = m.assert_request(&mut net, OcpRequest::read(0), 0);
        s.accept_request(&mut net, 1);
        m.take_accept(&mut net, 2);
        let t1 = m.assert_request(&mut net, OcpRequest::read(4), 2);
        assert_eq!(t1, t0 + 1);
    }

    #[test]
    #[should_panic(expected = "already pending")]
    fn double_assert_panics() {
        let (mut net, m, _s) = channel("l", MasterId(0));
        m.assert_request(&mut net, OcpRequest::read(0), 0);
        m.assert_request(&mut net, OcpRequest::read(4), 1);
    }

    #[test]
    fn quiet_reflects_all_in_flight_state() {
        let (mut net, m, s) = channel("l", MasterId(0));
        assert!(m.is_quiet(&net) && s.is_quiet(&net));
        m.assert_request(&mut net, OcpRequest::read(0), 0);
        assert!(!m.is_quiet(&net));
        s.accept_request(&mut net, 1);
        assert!(!m.is_quiet(&net), "unconsumed acceptance keeps link busy");
        m.take_accept(&mut net, 2);
        assert!(m.is_quiet(&net));
        s.push_response(&mut net, OcpResponse::ok(vec![1], 0), 3);
        assert!(!s.is_quiet(&net));
        m.take_response(&mut net, 4);
        assert!(m.is_quiet(&net) && s.is_quiet(&net));
    }

    #[test]
    fn responses_preserve_fifo_order() {
        let (mut net, m, s) = channel("l", MasterId(0));
        s.push_response(&mut net, OcpResponse::ok(vec![1], 0), 0);
        s.push_response(&mut net, OcpResponse::ok(vec![2], 1), 1);
        assert_eq!(m.take_response(&mut net, 5).unwrap().word(), 1);
        assert_eq!(m.take_response(&mut net, 5).unwrap().word(), 2);
    }

    #[test]
    fn visibility_helpers_report_event_cycles() {
        let (mut net, m, s) = channel("l", MasterId(0));
        assert_eq!(s.request_visible_at(&net), None);
        assert_eq!(m.accept_visible_at(&net), None);
        assert_eq!(m.response_visible_at(&net), None);
        let tag = m.assert_request(&mut net, OcpRequest::read(0x10), 5);
        // Asserted at 5 → visible to the slave from 6.
        assert_eq!(s.request_visible_at(&net), Some(6));
        s.accept_request(&mut net, 6);
        assert_eq!(s.request_visible_at(&net), None);
        // Accepted at 6 → acceptance visible to the master from 7; the
        // response accessor does not see it.
        assert_eq!(m.accept_visible_at(&net), Some(7));
        assert_eq!(m.response_visible_at(&net), None);
        s.push_response(&mut net, OcpResponse::ok(vec![1], tag), 9);
        assert_eq!(m.response_visible_at(&net), Some(10));
        assert_eq!(m.accept_visible_at(&net), Some(7));
        // The response subsumes the read's acceptance.
        m.take_response(&mut net, 10);
        assert_eq!(m.accept_visible_at(&net), None);
        assert_eq!(m.response_visible_at(&net), None);
        assert!(m.is_quiet(&net));
    }

    #[test]
    fn burst_request_round_trips_through_channel() {
        let (mut net, m, s) = channel("l", MasterId(1));
        m.assert_request(&mut net, OcpRequest::burst_read(0x100, 4), 0);
        let req = s.accept_request(&mut net, 1).unwrap();
        assert_eq!(req.cmd, OcpCmd::BurstRead);
        assert_eq!(req.beats(), 4);
    }

    #[test]
    fn run_end_is_unbounded_until_a_driver_sets_it() {
        let mut net = LinkArena::new();
        assert_eq!(net.run_end(), Cycle::MAX, "unset means unbounded");
        net.set_run_end(900);
        assert_eq!(net.run_end(), 900);
    }

    #[test]
    fn wake_log_records_producer_touches_only() {
        let (mut net, m, s) = channel("l", MasterId(0));
        let mut tokens = Vec::new();
        let drain = |net: &mut LinkArena| net.drain_wakes().map(wake_token).collect::<Vec<_>>();
        // Logging off: nothing recorded.
        m.assert_request(&mut net, OcpRequest::read(0x10), 0);
        assert!(drain(&mut net).is_empty());
        s.accept_request(&mut net, 1);
        net.set_wake_logging(true);
        // Producer ops log the reader's side; consumers log nothing.
        s.push_response(&mut net, OcpResponse::ok(vec![1], 0), 2);
        tokens.extend(drain(&mut net));
        assert_eq!(tokens, vec![(m.id(), true)]);
        m.take_response(&mut net, 3);
        assert!(drain(&mut net).is_empty());
        m.assert_request(&mut net, OcpRequest::read(0x14), 3);
        assert_eq!(drain(&mut net), vec![(m.id(), false)]);
        // A read's acceptance wakes nobody: its master awaits the
        // response. A posted write's acceptance wakes the master side.
        s.accept_request(&mut net, 4);
        assert!(drain(&mut net).is_empty());
        m.assert_request(&mut net, OcpRequest::write(0x18, 7), 4);
        assert_eq!(drain(&mut net), vec![(m.id(), false)]);
        s.accept_request(&mut net, 5);
        assert_eq!(drain(&mut net), vec![(m.id(), true)]);
        m.take_accept(&mut net, 6);
        assert!(drain(&mut net).is_empty());
        // Disabling clears any undrained backlog.
        s.push_response(&mut net, OcpResponse::ok(vec![2], 0), 5);
        net.set_wake_logging(false);
        assert!(drain(&mut net).is_empty());
    }

    #[test]
    fn ports_are_copy_and_arena_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let (net, m, s) = channel("l", MasterId(0));
        let (m2, s2) = (m, s); // Copy, not move
        assert_eq!(m2.id(), m.id());
        assert_eq!(s2.id(), s.id());
        assert_send(&net);
        assert_eq!(net.name(m.id()), "l");
        assert_eq!(net.len(), 1);
    }
}
