//! The bus fabrics: the AMBA-AHB-like shared bus and the STBus-like
//! crossbar, one lane machine at two lane mappings.

use std::sync::Arc;

use ntg_mem::AddressMap;
use ntg_ocp::{LinkArena, MasterPort, OcpRequest, OcpResponse, SlavePort};
use ntg_sim::observe::{Contention, LinkMetrics};
use ntg_sim::stats::Histogram;
use ntg_sim::{Activity, Component, Cycle};

use crate::{check_slave_ports, Interconnect, InterconnectKind};

/// Bus arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Rotate priority after every grant (fair).
    #[default]
    RoundRobin,
    /// Lower master index always wins (AHB-style static priority).
    FixedPriority,
}

/// Which lane a request arbitrates for. Everything the two bus fabrics
/// do differently follows from it (DESIGN §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneMap {
    /// One lane every slave shares (AMBA). A request needs no decode to
    /// find its lane, so it is decoded at its grant; while the lane is
    /// owned, visible requests wait without a tick; the lane's
    /// occupancy is the fabric's latency metric.
    Shared,
    /// One lane per slave (crossbar). A request is decoded to find its
    /// lane, in a pass before the lanes arbitrate, so an unmapped one is
    /// answered whatever the lanes are doing; an owned lane counts
    /// toward its master's link while it holds it.
    PerSlave,
}

/// A transfer holding a lane, from grant until the slave completes it.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    master: usize,
    slave: usize,
    expects_response: bool,
    /// Cycles the lane has been held so far.
    held: Cycle,
}

#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    owner: Option<Transfer>,
    /// Where round-robin arbitration starts; stays 0 under fixed
    /// priority.
    rr: usize,
    /// Per-slave mapping only, filled by a tick's decode pass: how many
    /// masters request the lane this cycle...
    requests: u32,
    /// ...and which of them comes first in arbitration order from `rr`.
    first: usize,
}

/// A bus whose arbitration lanes each carry one transaction at a time:
/// the AMBA AHB-like shared bus ([`AmbaBus::new`], one lane every slave
/// shares) or the STBus-like full crossbar ([`AmbaBus::crossbar`], one
/// lane per slave).
///
/// A transaction owns its lane from grant until the slave completes it
/// (acceptance for posted writes, response delivery for reads);
/// competing requests wait at their master interfaces, which is where
/// the paper's contention-dependent "network latency" (its `t_nwk`)
/// comes from on a shared bus. On the crossbar, transactions to
/// different slaves proceed in parallel and only masters targeting the
/// same slave contend, which places it between the fully serialised
/// shared bus and the contention-free
/// [`IdealInterconnect`](crate::IdealInterconnect).
///
/// # Timing
///
/// A single read takes six cycles end to end on an idle lane with a
/// 1-wait-state slave: assert → grant (+1 visibility) → slave sees it
/// (+1) → service (1 + beats) → response hop back (+1) → consume (+1).
/// Burst reads add one cycle per extra beat. This fixed, deterministic
/// pipeline is what the trace-replay accuracy of the TG flow relies on.
pub struct AmbaBus {
    name: String,
    masters: Vec<SlavePort>,
    slaves: Vec<MasterPort>,
    map: Arc<AddressMap>,
    lane_map: LaneMap,
    arbitration: Arbitration,
    lanes: Vec<Lane>,
    transactions: u64,
    decode_errors: u64,
    /// Lane-held cycles summed over lanes.
    busy_cycles: u64,
    /// Completed transfers, and the longest a completed one held its
    /// lane; their summed hold is the links' `busy_cycles`.
    completed: u64,
    longest_hold: Cycle,
    conflicts: u64,
    grant_wait: Histogram,
    links: Vec<LinkMetrics>,
}

impl AmbaBus {
    /// Creates a shared bus connecting `masters` to `slaves` under
    /// `map`, with round-robin arbitration.
    ///
    /// `masters` holds the network-side endpoint of each master link
    /// (index = master id); `slaves` the network-side endpoint of each
    /// slave link (index = [`SlaveId`](ntg_ocp::SlaveId) in the map).
    ///
    /// # Panics
    ///
    /// Panics if a region of `map` names a slave with no port here.
    pub fn new(
        name: impl Into<String>,
        masters: Vec<SlavePort>,
        slaves: Vec<MasterPort>,
        map: Arc<AddressMap>,
    ) -> Self {
        Self::with_lanes(name.into(), masters, slaves, map, LaneMap::Shared)
    }

    /// Creates a full crossbar, one round-robin lane per slave, with the
    /// indexing conventions of [`AmbaBus::new`].
    ///
    /// # Panics
    ///
    /// Panics if a region of `map` names a slave with no port here.
    pub fn crossbar(
        name: impl Into<String>,
        masters: Vec<SlavePort>,
        slaves: Vec<MasterPort>,
        map: Arc<AddressMap>,
    ) -> Self {
        Self::with_lanes(name.into(), masters, slaves, map, LaneMap::PerSlave)
    }

    fn with_lanes(
        name: String,
        masters: Vec<SlavePort>,
        slaves: Vec<MasterPort>,
        map: Arc<AddressMap>,
        lane_map: LaneMap,
    ) -> Self {
        check_slave_ports(&map, slaves.len());
        let lanes = match lane_map {
            LaneMap::Shared => 1,
            LaneMap::PerSlave => slaves.len(),
        };
        let links = vec![LinkMetrics::default(); masters.len()];
        Self {
            name,
            masters,
            slaves,
            map,
            lane_map,
            arbitration: Arbitration::default(),
            lanes: vec![Lane::default(); lanes],
            transactions: 0,
            decode_errors: 0,
            busy_cycles: 0,
            completed: 0,
            longest_hold: 0,
            conflicts: 0,
            grant_wait: Histogram::new("grant_wait"),
            links,
        }
    }

    /// Selects the arbitration policy (default round-robin).
    pub fn set_arbitration(&mut self, arbitration: Arbitration) {
        self.arbitration = arbitration;
    }

    /// The first requester at or after `start` in wrap-around order,
    /// and whether a second one lost to it. One pass, stopping at the
    /// second requester.
    fn first_requester(&self, net: &LinkArena, now: Cycle, start: usize) -> Option<(usize, bool)> {
        let mut winner = None;
        for m in (start..self.masters.len()).chain(0..start) {
            if self.masters[m].has_request(net, now) {
                if winner.is_some() {
                    return winner.map(|w| (w, true));
                }
                winner = Some(m);
            }
        }
        winner.map(|w| (w, false))
    }

    /// The decode pass of a per-slave tick: decodes each visible
    /// request once, answers one that maps to no slave, and tallies a
    /// mapped one on its lane, keeping the lane's first requester in
    /// arbitration order from its `rr`.
    fn decode_requests(&mut self, net: &mut LinkArena, now: Cycle) {
        for lane in &mut self.lanes {
            lane.requests = 0;
        }
        for m in 0..self.masters.len() {
            let Some((addr, _, _)) = self.masters[m].peek_meta(net, now) else {
                continue;
            };
            let Some(slave) = self.map.slave_for(addr) else {
                let req = self.masters[m]
                    .accept_request(net, now)
                    .expect("peeked request is still there");
                self.answer_unmapped(net, m, req, now);
                continue;
            };
            let lane = &mut self.lanes[usize::from(slave.0)];
            // Masters arrive in ascending order, so the first one at or
            // after `rr` wins, else the first one before it.
            if lane.requests == 0 || (lane.first < lane.rr && m >= lane.rr) {
                lane.first = m;
            }
            lane.requests += 1;
        }
    }

    /// Answers a request to no slave: an error response for a read, a
    /// silent drop for a posted write (its acceptance already unblocked
    /// the master).
    fn answer_unmapped(&mut self, net: &mut LinkArena, master: usize, req: OcpRequest, now: Cycle) {
        self.decode_errors += 1;
        if req.cmd.expects_response() {
            self.masters[master].push_response(net, OcpResponse::error(req.tag), now);
        }
    }

    /// Grants `lane` to `master`'s request; `contended` says whether
    /// another master requested the lane this cycle.
    fn grant(
        &mut self,
        net: &mut LinkArena,
        lane: usize,
        master: usize,
        contended: bool,
        now: Cycle,
    ) {
        // Contention bookkeeping, read before acceptance consumes the
        // request: how long the winner waited.
        let stall = now
            - self.masters[master]
                .request_visible_at(net)
                .expect("arbitrated request must still be visible");
        let req = self.masters[master]
            .accept_request(net, now)
            .expect("arbitrated request must still be visible");
        if self.arbitration == Arbitration::RoundRobin {
            let next = master + 1;
            self.lanes[lane].rr = if next == self.masters.len() { 0 } else { next };
        }
        let slave = match self.lane_map {
            LaneMap::PerSlave => lane,
            LaneMap::Shared => match self.map.slave_for(req.addr) {
                Some(slave) => usize::from(slave.0),
                None => {
                    self.answer_unmapped(net, master, req, now);
                    return;
                }
            },
        };
        self.transactions += 1;
        if contended {
            self.conflicts += 1;
        }
        self.grant_wait.record(stall);
        self.links[master].grants += 1;
        self.links[master].stall_cycles += stall;
        let expects_response = req.cmd.expects_response();
        self.slaves[slave].forward_request(net, req, now);
        self.lanes[lane].owner = Some(Transfer {
            master,
            slave,
            expects_response,
            held: 0,
        });
    }
}

impl Component<LinkArena> for AmbaBus {
    fn name(&self) -> &str {
        &self.name
    }

    /// Each lane polls its transfer or grants its winner. The shared
    /// lane arbitrates over every visible request; per-slave lanes
    /// first decode every visible request onto its lane. Exact against
    /// a scan of every master per idle lane: a master holds one
    /// request, which decodes to one lane, and completing a lane touches
    /// only response channels, so each lane sees the requesters it
    /// would have scanned.
    #[inline]
    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        if self.lane_map == LaneMap::PerSlave {
            self.decode_requests(net, now);
        }
        for lane in 0..self.lanes.len() {
            let Some(t) = self.lanes[lane].owner.as_mut() else {
                let Lane {
                    rr,
                    requests,
                    first,
                    ..
                } = self.lanes[lane];
                let winner = match self.lane_map {
                    LaneMap::Shared => self.first_requester(net, now, rr),
                    LaneMap::PerSlave => (requests > 0).then_some((first, requests > 1)),
                };
                if let Some((master, contended)) = winner {
                    self.grant(net, lane, master, contended, now);
                }
                continue;
            };
            // An owned lane is held a cycle longer, and released when
            // its slave completes the transfer.
            t.held += 1;
            let t = *t;
            self.busy_cycles += 1;
            let done = if t.expects_response {
                match self.slaves[t.slave].take_response(net, now) {
                    Some(resp) => {
                        self.masters[t.master].push_response(net, resp, now);
                        true
                    }
                    None => false,
                }
            } else {
                self.slaves[t.slave].take_accept(net, now).is_some()
            };
            if done {
                self.links[t.master].busy_cycles += t.held;
                self.completed += 1;
                self.longest_hold = self.longest_hold.max(t.held);
                self.lanes[lane].owner = None;
            }
        }
    }

    #[inline]
    fn is_idle(&self, net: &LinkArena) -> bool {
        self.lanes.iter().all(|l| l.owner.is_none())
            && self.masters.iter().all(|p| p.is_quiet(net))
            && self.slaves.iter().all(|p| p.is_quiet(net))
    }

    #[inline]
    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        let mut wake: Option<Cycle> = None;
        let merge = |wake: &mut Option<Cycle>, at: Cycle| {
            *wake = Some(wake.map_or(at, |w| w.min(at)));
        };
        // An owned lane completes on the read's response or the posted
        // write's acceptance: only that event wakes it. Until the slave
        // produces it, the slave device bounds the horizon; wait ticks
        // only poll (and count occupancy, which `skip` replicates).
        for t in self.lanes.iter().filter_map(|l| l.owner) {
            match self.slaves[t.slave].completion_visible_at(net, t.expects_response) {
                Some(at) if at > now => merge(&mut wake, at),
                Some(_) => return Activity::Busy,
                None => merge(&mut wake, Cycle::MAX),
            }
        }
        // A visible request feeds arbitration, or the decode pass — but
        // one for the owned shared lane (the only wake so far) can only
        // wait.
        if self.lane_map == LaneMap::PerSlave || wake.is_none() {
            for m in &self.masters {
                match m.request_visible_at(net) {
                    Some(at) if at <= now => return Activity::Busy,
                    Some(at) => merge(&mut wake, at),
                    None => {}
                }
            }
        }
        match wake {
            Some(at) => Activity::IdleUntil(at),
            None if self.is_idle(net) => Activity::Drained,
            None => Activity::Busy,
        }
    }

    fn skip(&mut self, now: Cycle, next: Cycle, _net: &mut LinkArena) {
        for t in self.lanes.iter_mut().filter_map(|l| l.owner.as_mut()) {
            t.held += next - now;
            self.busy_cycles += next - now;
        }
    }
}

impl Interconnect for AmbaBus {
    fn kind(&self) -> InterconnectKind {
        match self.lane_map {
            LaneMap::Shared => InterconnectKind::Amba,
            LaneMap::PerSlave => InterconnectKind::Crossbar,
        }
    }

    fn transactions(&self) -> u64 {
        self.transactions
    }

    fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    /// The shared lane's occupancy per completed transfer (grant to
    /// completion): the distribution behind the paper's
    /// contention-dependent network latency. Per-slave lanes report
    /// none.
    fn latency_summary(&self) -> Option<(f64, u64)> {
        if self.lane_map == LaneMap::PerSlave || self.completed == 0 {
            return None;
        }
        let held: u64 = self.links.iter().map(|l| l.busy_cycles).sum();
        Some((held as f64 / self.completed as f64, self.longest_hold))
    }

    fn utilization_cycles(&self) -> u64 {
        self.busy_cycles
    }

    fn contention(&self) -> Contention {
        let mut links = self.links.clone();
        if self.lane_map == LaneMap::PerSlave {
            for t in self.lanes.iter().filter_map(|l| l.owner) {
                links[t.master].busy_cycles += t.held;
            }
        }
        Contention {
            conflicts: self.conflicts,
            grant_wait: self.grant_wait.clone(),
            links,
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::reference::{Diffable, RefAmbaBus, RefCrossbarBus};
    use super::*;
    use crate::tests::Xorshift;
    use ntg_mem::{MemoryDevice, RegionKind};
    use ntg_ocp::{MasterId, OcpStatus, SlaveId};

    struct Rig {
        links: LinkArena,
        bus: AmbaBus,
        mems: Vec<MemoryDevice>,
        cpus: Vec<MasterPort>,
    }

    /// `n` masters, two memory slaves at 0x1000 and 0x2000 (0x1000
    /// each), on the bus `build` makes.
    fn rig_with(
        n: usize,
        build: fn(&'static str, Vec<SlavePort>, Vec<MasterPort>, Arc<AddressMap>) -> AmbaBus,
    ) -> Rig {
        let mut map = AddressMap::new();
        map.add("m0", 0x1000, 0x1000, SlaveId(0), RegionKind::SharedMemory)
            .unwrap();
        map.add("m1", 0x2000, 0x1000, SlaveId(1), RegionKind::SharedMemory)
            .unwrap();
        let mut links = LinkArena::new();
        let mut cpus = Vec::new();
        let mut bus_masters = Vec::new();
        for i in 0..n {
            let (m, s) = links.channel(format!("cpu{i}"), MasterId(i as u16));
            cpus.push(m);
            bus_masters.push(s);
        }
        let mut mems = Vec::new();
        let mut bus_slaves = Vec::new();
        for (i, base) in [(0u16, 0x1000u32), (1, 0x2000)] {
            let (m, s) = links.channel(format!("slave{i}"), MasterId(0));
            bus_slaves.push(m);
            mems.push(MemoryDevice::new(format!("mem{i}"), base, 0x1000, s));
        }
        let bus = build("bus", bus_masters, bus_slaves, Arc::new(map));
        Rig {
            links,
            bus,
            mems,
            cpus,
        }
    }

    fn rig(n: usize) -> Rig {
        rig_with(n, AmbaBus::new)
    }

    fn xbar(n: usize) -> Rig {
        rig_with(n, AmbaBus::crossbar)
    }

    fn step(r: &mut Rig, now: Cycle) {
        r.bus.tick(now, &mut r.links);
        for m in &mut r.mems {
            m.tick(now, &mut r.links);
        }
    }

    /// Runs two masters' reads, asserted together at cycle 0, to
    /// `addrs`; returns the cycle each response arrived.
    fn two_reads(r: &mut Rig, addrs: [u32; 2]) -> [Option<Cycle>; 2] {
        for c in 0..2 {
            r.cpus[c].assert_request(&mut r.links, OcpRequest::read(addrs[c]), 0);
        }
        let mut done = [None, None];
        for now in 0..40 {
            step(r, now);
            for c in 0..2 {
                if done[c].is_none() && r.cpus[c].take_response(&mut r.links, now).is_some() {
                    done[c] = Some(now);
                }
            }
        }
        done
    }

    #[test]
    fn single_read_takes_six_cycles_on_both_mappings() {
        for mut r in [rig(1), xbar(1)] {
            r.mems[0].poke(0x1010, 77);
            r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1010), 0);
            let mut got = None;
            for now in 0..20 {
                step(&mut r, now);
                if let Some(resp) = r.cpus[0].take_response(&mut r.links, now) {
                    got = Some((resp, now));
                    break;
                }
            }
            let (resp, at) = got.expect("response");
            assert_eq!(resp.data, vec![77]);
            assert_eq!(at, 6, "{}: single-read end-to-end latency", r.bus.kind());
        }
    }

    #[test]
    fn posted_write_unblocks_at_grant_but_occupies_bus() {
        let mut r = rig(1);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::write(0x1000, 5), 0);
        let mut accepted_at = None;
        for now in 0..20 {
            step(&mut r, now);
            if accepted_at.is_none() {
                if let Some(_tag) = r.cpus[0].take_accept(&mut r.links, now) {
                    accepted_at = Some(now);
                }
            }
        }
        // Granted at cycle 1, visible to the master at cycle 2.
        assert_eq!(accepted_at, Some(2));
        assert_eq!(r.mems[0].peek(0x1000), 5);
        assert_eq!(r.bus.transactions(), 1);
        assert!(r.bus.utilization_cycles() > 0);
    }

    #[test]
    fn shared_lane_serialises_two_masters_to_same_slave() {
        let [a, b] = two_reads(&mut rig(2), [0x1000, 0x1004]);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a, 6, "first transaction unaffected");
        assert!(b >= a + 4, "second serialised after first ({a} vs {b})");
    }

    #[test]
    fn shared_lane_serialises_even_different_slaves() {
        let [a, b] = two_reads(&mut rig(2), [0x1000, 0x2000]);
        assert_eq!(a, Some(6));
        assert!(b.unwrap() > 6, "one lane for every slave");
    }

    #[test]
    fn per_slave_lanes_run_different_slaves_in_parallel() {
        assert_eq!(
            two_reads(&mut xbar(2), [0x1000, 0x2000]),
            [Some(6), Some(6)]
        );
        let [a, b] = two_reads(&mut xbar(2), [0x1000, 0x1004]);
        assert_eq!(a, Some(6));
        assert!(b.unwrap() > 6, "same-slave contention serialises");
    }

    #[test]
    fn round_robin_alternates_between_masters() {
        let mut r = rig(2);
        // Both masters hammer the same slave with writes; with RR each
        // should get an equal share of grants.
        let mut issued = [0u32, 0];
        for now in 0..400 {
            for c in 0..2 {
                r.cpus[c].take_accept(&mut r.links, now);
                if !r.cpus[c].request_pending(&r.links) && issued[c] < 20 {
                    r.cpus[c].assert_request(
                        &mut r.links,
                        OcpRequest::write(0x1000, c as u32),
                        now,
                    );
                    issued[c] += 1;
                }
            }
            step(&mut r, now);
        }
        assert_eq!(issued, [20, 20], "round robin starves nobody");
    }

    #[test]
    fn per_slave_round_robin_is_fair() {
        let mut r = xbar(3);
        let mut completions = [0u32; 3];
        for now in 0..600 {
            for c in 0..3 {
                if r.cpus[c].take_response(&mut r.links, now).is_some() {
                    completions[c] += 1;
                }
                if !r.cpus[c].request_pending(&r.links) {
                    r.cpus[c].assert_request(&mut r.links, OcpRequest::read(0x1000), now);
                }
            }
            step(&mut r, now);
        }
        let min = *completions.iter().min().unwrap();
        let max = *completions.iter().max().unwrap();
        assert!(min > 0);
        assert!(max - min <= 1, "fair share expected, got {completions:?}");
    }

    #[test]
    fn fixed_priority_favours_master_zero() {
        let mut r = rig(2);
        r.bus.set_arbitration(Arbitration::FixedPriority);
        let mut issued = [0u32, 0];
        for now in 0..100 {
            for c in 0..2 {
                r.cpus[c].take_accept(&mut r.links, now);
                if !r.cpus[c].request_pending(&r.links) {
                    r.cpus[c].assert_request(&mut r.links, OcpRequest::write(0x1000, 7), now);
                    issued[c] += 1;
                }
            }
            step(&mut r, now);
        }
        // A saturating master 0 fully starves master 1 under static
        // priority — the classic AHB pathology round-robin avoids.
        assert!(issued[0] > 5, "master 0 makes progress: {issued:?}");
        assert_eq!(issued[1], 1, "master 1 is starved: {issued:?}");
    }

    #[test]
    fn unmapped_read_errors_and_write_drops_on_both_mappings() {
        for mut r in [rig(1), xbar(1)] {
            r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x9000_0000), 0);
            let mut status = None;
            for now in 0..20 {
                step(&mut r, now);
                if let Some(resp) = r.cpus[0].take_response(&mut r.links, now) {
                    status = Some(resp.status);
                    break;
                }
            }
            assert_eq!(status, Some(OcpStatus::Error));
            r.cpus[0].assert_request(&mut r.links, OcpRequest::write(0x9000_0000, 1), 20);
            let mut accepted = false;
            for now in 20..40 {
                step(&mut r, now);
                accepted |= r.cpus[0].take_accept(&mut r.links, now).is_some();
            }
            assert!(accepted);
            assert_eq!(r.bus.decode_errors(), 2);
            assert_eq!(r.bus.transactions(), 0);
        }
    }

    #[test]
    fn burst_read_returns_line_and_charges_beats() {
        let mut r = rig(1);
        r.mems[0].load_words(0x1000, &[1, 2, 3, 4]);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::burst_read(0x1000, 4), 0);
        let mut got = None;
        for now in 0..30 {
            step(&mut r, now);
            if let Some(resp) = r.cpus[0].take_response(&mut r.links, now) {
                got = Some((resp, now));
                break;
            }
        }
        let (resp, at) = got.unwrap();
        assert_eq!(resp.data, vec![1, 2, 3, 4]);
        assert_eq!(at, 9, "three extra beats over the single read");
    }

    #[test]
    fn shared_lane_occupancy_is_the_latency_metric() {
        for (mut r, latency) in [(rig(1), Some((4.0, 4))), (xbar(1), None)] {
            r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
            for now in 0..20 {
                step(&mut r, now);
                r.cpus[0].take_response(&mut r.links, now);
            }
            // Granted at 1, response relayed at 5 → 4 cycles held.
            assert_eq!(r.bus.latency_summary(), latency, "{}", r.bus.kind());
            assert_eq!(r.bus.utilization_cycles(), 4);
        }
    }

    #[test]
    fn contention_metrics_track_arbitration() {
        for mut r in [rig(2), xbar(2)] {
            two_reads(&mut r, [0x1000, 0x1004]);
            let c = r.bus.contention();
            assert_eq!(c.links.len(), 2);
            assert_eq!(c.links[0].grants, 1);
            assert_eq!(c.links[1].grants, 1);
            assert_eq!(c.conflicts, 1, "only the first grant was contended");
            assert_eq!(c.links[0].stall_cycles, 0, "winner granted immediately");
            assert!(c.links[1].stall_cycles > 0, "loser waited for the bus");
            assert_eq!(c.grant_wait.count(), 2);
            // Per-master busy attribution sums to the held cycles.
            let busy: u64 = c.links.iter().map(|l| l.busy_cycles).sum();
            assert_eq!(busy, r.bus.utilization_cycles());
        }
        // Different slaves on per-slave lanes: no conflicts, no stalls.
        let mut r = xbar(2);
        two_reads(&mut r, [0x1000, 0x2000]);
        let c = r.bus.contention();
        assert_eq!(c.conflicts, 0);
        assert_eq!(c.links[0].stall_cycles + c.links[1].stall_cycles, 0);
    }

    #[test]
    fn is_idle_goes_quiet_after_traffic() {
        for mut r in [rig(1), xbar(1)] {
            r.cpus[0].assert_request(&mut r.links, OcpRequest::write(0x1000, 1), 0);
            for now in 0..20 {
                step(&mut r, now);
                r.cpus[0].take_accept(&mut r.links, now);
            }
            assert!(r.bus.is_idle(&r.links));
        }
    }

    impl Diffable for AmbaBus {
        fn rr(&self) -> Vec<usize> {
            self.lanes.iter().map(|l| l.rr).collect()
        }

        fn owned_lanes(&self) -> usize {
            self.lanes.iter().filter(|l| l.owner.is_some()).count()
        }
    }

    /// A master-side event: `(cycle, master, response)`, with `None`
    /// for an acceptance.
    type Event = (Cycle, usize, Option<OcpResponse>);

    /// Builds the fabric under test from the network-side endpoints.
    type Build = dyn Fn(Vec<SlavePort>, Vec<MasterPort>, Arc<AddressMap>) -> Box<dyn Diffable>;

    /// Runs generated blocking traffic on the fabric `build` makes, with
    /// `n_masters` masters and `n_mems` memories with random wait states,
    /// until it drains or, given `cut`, until that cycle. Every master
    /// issues `ops` requests — single and burst reads and writes, one in
    /// eight to an unmapped address, half of the mapped ones to memory 0
    /// so its lane stays contended — each after a random gap once the
    /// previous one completed. With `skip`, the fabric is skipped over
    /// every cycle its own hint allows instead of ticked. Returns the
    /// events, the fabric and its hint before each of its cycles.
    fn run_traffic(
        seed: u64,
        (n_masters, n_mems, ops): (usize, usize, u32),
        cut: Option<Cycle>,
        skip: bool,
        build: &Build,
    ) -> (Vec<Event>, Box<dyn Diffable>, Vec<Activity>) {
        let mut rng = Xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut map = AddressMap::new();
        let mut links = LinkArena::new();
        let mut cpus = Vec::new();
        let mut net_masters = Vec::new();
        for i in 0..n_masters {
            let (m, s) = links.channel(format!("cpu{i}"), MasterId(i as u16));
            cpus.push(m);
            net_masters.push(s);
        }
        let mut mems = Vec::new();
        let mut net_slaves = Vec::new();
        for i in 0..n_mems {
            let base = 0x1000 * (i as u32 + 1);
            map.add(
                format!("m{i}"),
                base,
                0x1000,
                SlaveId(i as u16),
                RegionKind::SharedMemory,
            )
            .unwrap();
            let (m, s) = links.channel(format!("slave{i}"), MasterId(0));
            net_slaves.push(m);
            let mut mem = MemoryDevice::new(format!("mem{i}"), base, 0x1000, s);
            mem.set_wait_states(rng.below(4) as Cycle);
            mems.push(mem);
        }
        let mut fabric = build(net_masters, net_slaves, Arc::new(map));
        let mut left = vec![ops; n_masters];
        // What each master waits for: `Some(true)` a response,
        // `Some(false)` an acceptance, `None` nothing.
        let mut wait: Vec<Option<bool>> = vec![None; n_masters];
        let mut next_issue: Vec<Cycle> = vec![0; n_masters];
        let mut events = Vec::new();
        let mut hints = Vec::new();
        for now in 0..cut.unwrap_or(100_000) {
            for m in 0..n_masters {
                if wait[m].is_some() && cpus[m].take_accept(&mut links, now).is_some() {
                    events.push((now, m, None));
                    if wait[m] == Some(false) {
                        wait[m] = None;
                        next_issue[m] = now + rng.below(4) as Cycle;
                    }
                }
                if wait[m] == Some(true) {
                    if let Some(resp) = cpus[m].take_response(&mut links, now) {
                        events.push((now, m, Some(resp)));
                        wait[m] = None;
                        next_issue[m] = now + rng.below(4) as Cycle;
                    }
                }
                if wait[m].is_some() || left[m] == 0 || now < next_issue[m] {
                    continue;
                }
                left[m] -= 1;
                let line = match rng.below(8) {
                    0 => 0x8000_0000,
                    1..=4 => 0x1000,
                    _ => 0x1000 * (1 + rng.below(n_mems) as u32),
                } + 16 * rng.below(64) as u32;
                let req = match rng.below(4) {
                    0 => OcpRequest::read(line + 4 * rng.below(4) as u32),
                    1 => OcpRequest::write(line + 4 * rng.below(4) as u32, rng.next() as u32),
                    2 => OcpRequest::burst_read(line, 4),
                    _ => OcpRequest::burst_write(
                        line,
                        (0..4).map(|_| rng.next() as u32).collect::<Vec<_>>(),
                    ),
                };
                wait[m] = Some(req.cmd.expects_response());
                cpus[m].assert_request(&mut links, req, now);
            }
            let hint = fabric.next_activity(now, &links);
            hints.push(hint);
            match hint {
                Activity::IdleUntil(at) if skip && at > now => {
                    fabric.skip(now, now + 1, &mut links)
                }
                Activity::Drained if skip => fabric.skip(now, now + 1, &mut links),
                _ => fabric.tick(now, &mut links),
            }
            for mem in &mut mems {
                mem.tick(now, &mut links);
            }
            // A posted write completes for its master at the grant, so
            // the lanes drain after the masters.
            if left.iter().all(|&l| l == 0)
                && wait.iter().all(Option::is_none)
                && fabric.is_idle(&links)
            {
                return (events, fabric, hints);
            }
        }
        assert!(cut.is_some(), "seed {seed}: traffic did not drain");
        (events, fabric, hints)
    }

    /// The merged model against the two models it replaced, on both
    /// lane mappings under both arbitrations, on drained runs and runs
    /// cut off at a random cycle (mostly mid-transfer); the model skips
    /// every cycle its own hint allows, the references tick them all.
    #[test]
    fn lane_fabric_matches_the_amba_and_crossbar_references() {
        type Case = (String, Box<Build>, Box<Build>);
        let mut cases: Vec<Case> = Vec::new();
        for arbitration in [Arbitration::RoundRobin, Arbitration::FixedPriority] {
            cases.push((
                format!("shared lane, {arbitration:?}"),
                Box::new(move |m, s, map| {
                    let mut bus = AmbaBus::new("bus", m, s, map);
                    bus.set_arbitration(arbitration);
                    Box::new(bus)
                }),
                Box::new(move |m, s, map| Box::new(RefAmbaBus::new(m, s, map, arbitration))),
            ));
            cases.push((
                format!("per-slave lanes, {arbitration:?}"),
                Box::new(move |m, s, map| {
                    let mut bus = AmbaBus::crossbar("xbar", m, s, map);
                    bus.set_arbitration(arbitration);
                    Box::new(bus)
                }),
                Box::new(move |m, s, map| Box::new(RefCrossbarBus::new(m, s, map, arbitration))),
            ));
        }
        for (case, model, reference) in &cases {
            let (mut grants, mut conflicts, mut errors, mut cut_owned) = (0, 0, 0, 0);
            for seed in 0..200u64 {
                let mut rng = Xorshift((seed + 1).wrapping_mul(0x2545_F491_4F6C_DD1D));
                let shape = (1 + rng.below(12), 1 + rng.below(12), 40);
                // One run in three stops at a random cycle.
                let cut = (seed % 3 == 2).then(|| 20 + rng.below(2_000) as Cycle);
                let (got, bus, got_hints) = run_traffic(seed, shape, cut, true, model);
                let (want, oracle, want_hints) = run_traffic(seed, shape, cut, false, reference);
                let what = format!(
                    "{case}, seed {seed}: {} masters, {} memories, cut {cut:?}",
                    shape.0, shape.1
                );
                assert_eq!(got, want, "{what}: master-side events");
                assert_eq!(got_hints, want_hints, "{what}: hints");
                assert_eq!(bus.kind(), oracle.kind(), "{what}");
                assert_eq!(bus.transactions(), oracle.transactions(), "{what}");
                assert_eq!(bus.decode_errors(), oracle.decode_errors(), "{what}");
                let (c, o) = (bus.contention(), oracle.contention());
                assert_eq!(c.conflicts, o.conflicts, "{what}");
                assert_eq!(c.grant_wait, o.grant_wait, "{what}");
                assert_eq!(c.links, o.links, "{what}");
                assert_eq!(
                    bus.utilization_cycles(),
                    oracle.utilization_cycles(),
                    "{what}"
                );
                assert_eq!(bus.latency_summary(), oracle.latency_summary(), "{what}");
                assert_eq!(bus.rr(), oracle.rr(), "{what}");
                assert_eq!(bus.owned_lanes(), oracle.owned_lanes(), "{what}");
                grants += bus.transactions();
                conflicts += c.conflicts;
                errors += bus.decode_errors();
                if cut.is_some() && bus.owned_lanes() > 0 {
                    cut_owned += 1;
                }
            }
            assert!(
                grants > 3_000 && conflicts > 500 && errors > 300 && cut_owned > 20,
                "{case}: {grants} grants, {conflicts} conflicts, {errors} decode errors, \
                 {cut_owned} runs cut mid-transfer"
            );
        }
    }
}
