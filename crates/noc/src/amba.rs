//! The AMBA-AHB-like shared bus.

use std::sync::Arc;

use ntg_mem::AddressMap;
use ntg_ocp::{LinkArena, MasterPort, OcpResponse, SlavePort};
use ntg_sim::observe::{Contention, LinkMetrics};
use ntg_sim::stats::Histogram;
use ntg_sim::{Activity, Component, Cycle};

use crate::{Interconnect, InterconnectKind};

/// Bus arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Rotate priority after every grant (fair).
    #[default]
    RoundRobin,
    /// Lower master index always wins (AHB-style static priority).
    FixedPriority,
}

/// Aggregate bus statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Transactions granted bus ownership.
    pub grants: u64,
    /// Read (single + burst) transactions.
    pub reads: u64,
    /// Write (single + burst) transactions.
    pub writes: u64,
    /// Cycles the bus was occupied by a transaction.
    pub busy_cycles: u64,
    /// Unmapped-address events.
    pub decode_errors: u64,
}

#[derive(Debug, Clone, Copy)]
enum BusState {
    Idle,
    /// Extra arbitration cycles before the transfer starts.
    Granting {
        master: usize,
        until: Cycle,
    },
    /// Transfer in progress; the bus is owned until the slave finishes.
    WaitSlave {
        master: usize,
        slave: usize,
        expects_response: bool,
        granted_at: Cycle,
    },
}

/// A single-owner pipelined shared bus in the spirit of AMBA AHB.
///
/// One transaction owns the bus from grant until the slave completes it
/// (acceptance for posted writes, response delivery for reads); competing
/// requests wait at their master interfaces, which is where the paper's
/// contention-dependent "network latency" (its `t_nwk`) comes from on a
/// shared bus.
///
/// # Timing
///
/// With the default zero extra arbitration cycles, a single read takes
/// six cycles end to end on an unloaded bus with a 1-wait-state slave:
/// assert → grant (+1 visibility) → slave sees it (+1) → service
/// (1 + beats) → response hop back (+1) → consume (+1). Burst reads add
/// one cycle per extra beat. This fixed, deterministic pipeline is what
/// the trace-replay accuracy of the TG flow relies on.
pub struct AmbaBus {
    name: String,
    masters: Vec<SlavePort>,
    slaves: Vec<MasterPort>,
    map: Arc<AddressMap>,
    arbitration: Arbitration,
    extra_grant_cycles: Cycle,
    rr_next: usize,
    state: BusState,
    stats: BusStats,
    occupancy: Histogram,
    conflicts: u64,
    grant_wait: Histogram,
    links: Vec<LinkMetrics>,
}

impl AmbaBus {
    /// Creates a bus connecting `masters` to `slaves` under `map`.
    ///
    /// `masters` holds the network-side endpoint of each master link
    /// (index = master id); `slaves` the network-side endpoint of each
    /// slave link (index = [`SlaveId`](ntg_ocp::SlaveId) in the map).
    pub fn new(
        name: impl Into<String>,
        masters: Vec<SlavePort>,
        slaves: Vec<MasterPort>,
        map: Arc<AddressMap>,
    ) -> Self {
        let links = vec![LinkMetrics::default(); masters.len()];
        Self {
            name: name.into(),
            masters,
            slaves,
            map,
            arbitration: Arbitration::default(),
            extra_grant_cycles: 0,
            rr_next: 0,
            state: BusState::Idle,
            stats: BusStats::default(),
            occupancy: Histogram::new("bus_occupancy_cycles"),
            conflicts: 0,
            grant_wait: Histogram::new("grant_wait"),
            links,
        }
    }

    /// Selects the arbitration policy (default round-robin).
    pub fn set_arbitration(&mut self, arbitration: Arbitration) {
        self.arbitration = arbitration;
    }

    /// Adds extra arbitration latency to every grant (default 0).
    pub fn set_extra_grant_cycles(&mut self, cycles: Cycle) {
        self.extra_grant_cycles = cycles;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Per-transaction bus-occupancy histogram (grant to completion, in
    /// cycles): the distribution behind the paper's contention-dependent
    /// network latency.
    pub fn occupancy(&self) -> &Histogram {
        &self.occupancy
    }

    fn arbitrate(&self, net: &LinkArena, now: Cycle) -> Option<usize> {
        let n = self.masters.len();
        let start = match self.arbitration {
            Arbitration::RoundRobin => self.rr_next,
            Arbitration::FixedPriority => 0,
        };
        (0..n)
            .map(|i| (start + i) % n)
            .find(|&m| self.masters[m].has_request(net, now))
    }

    fn start_transfer(&mut self, net: &mut LinkArena, master: usize, now: Cycle) {
        // Contention bookkeeping, read before acceptance consumes the
        // request: how long the winner waited, and whether anyone lost
        // this round of arbitration.
        let stall = now
            - self.masters[master]
                .request_visible_at(net)
                .expect("arbitrated request must still be visible");
        let contended = self
            .masters
            .iter()
            .enumerate()
            .any(|(m, port)| m != master && port.has_request(net, now));
        let req = self.masters[master]
            .accept_request(net, now)
            .expect("arbitrated request must still be visible");
        match self.map.slave_for(req.addr) {
            None => {
                self.stats.decode_errors += 1;
                if req.cmd.expects_response() {
                    self.masters[master].push_response(net, OcpResponse::error(req.tag), now);
                }
                self.state = BusState::Idle;
            }
            Some(slave_id) => {
                let slave = slave_id.0 as usize;
                let expects_response = req.cmd.expects_response();
                if expects_response {
                    self.stats.reads += 1;
                } else {
                    self.stats.writes += 1;
                }
                self.stats.grants += 1;
                if contended {
                    self.conflicts += 1;
                }
                self.grant_wait.record(stall);
                self.links[master].grants += 1;
                self.links[master].stall_cycles += stall;
                self.slaves[slave].forward_request(net, req, now);
                self.state = BusState::WaitSlave {
                    master,
                    slave,
                    expects_response,
                    granted_at: now,
                };
            }
        }
        if self.arbitration == Arbitration::RoundRobin {
            self.rr_next = (master + 1) % self.masters.len();
        }
    }
}

impl Component<LinkArena> for AmbaBus {
    fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        match self.state {
            BusState::Idle => {
                if let Some(master) = self.arbitrate(net, now) {
                    if self.extra_grant_cycles == 0 {
                        self.start_transfer(net, master, now);
                    } else {
                        self.state = BusState::Granting {
                            master,
                            until: now + self.extra_grant_cycles,
                        };
                    }
                }
            }
            BusState::Granting { master, until } => {
                if now >= until {
                    self.start_transfer(net, master, now);
                }
                self.stats.busy_cycles += 1;
            }
            BusState::WaitSlave {
                master,
                slave,
                expects_response,
                granted_at,
            } => {
                self.stats.busy_cycles += 1;
                if expects_response {
                    if let Some(resp) = self.slaves[slave].take_response(net, now) {
                        self.masters[master].push_response(net, resp, now);
                        self.occupancy.record(now - granted_at);
                        self.links[master].busy_cycles += now - granted_at;
                        self.state = BusState::Idle;
                    }
                } else if self.slaves[slave].take_accept(net, now).is_some() {
                    self.occupancy.record(now - granted_at);
                    self.links[master].busy_cycles += now - granted_at;
                    self.state = BusState::Idle;
                }
            }
        }
    }

    #[inline]
    fn is_idle(&self, net: &LinkArena) -> bool {
        matches!(self.state, BusState::Idle)
            && self.masters.iter().all(|p| p.is_quiet(net))
            && self.slaves.iter().all(|p| p.is_quiet(net))
    }

    #[inline]
    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        match self.state {
            BusState::Idle => {
                let mut wake: Option<Cycle> = None;
                for m in &self.masters {
                    match m.request_visible_at(net) {
                        Some(at) if at <= now => return Activity::Busy,
                        Some(at) => wake = Some(wake.map_or(at, |w| w.min(at))),
                        None => {}
                    }
                }
                match wake {
                    Some(at) => Activity::IdleUntil(at),
                    None if self.is_idle(net) => Activity::Drained,
                    None => Activity::Busy,
                }
            }
            BusState::Granting { until, .. } if until > now => Activity::IdleUntil(until),
            BusState::Granting { .. } => Activity::Busy,
            // Owned until the slave completes — a read with its
            // response, a posted write with its acceptance: wake when
            // that event is visible. Until the slave produces it, the
            // slave device bounds the horizon; wait ticks only poll (and
            // count occupancy, which `skip` replicates).
            BusState::WaitSlave {
                slave,
                expects_response,
                ..
            } => Activity::awaiting(
                self.slaves[slave].completion_visible_at(net, expects_response),
                now,
            ),
        }
    }

    fn skip(&mut self, now: Cycle, next: Cycle, _net: &mut LinkArena) {
        // Granting and WaitSlave ticks count bus occupancy; everything
        // else they do is pure polling.
        if !matches!(self.state, BusState::Idle) {
            self.stats.busy_cycles += next - now;
        }
    }
}

impl Interconnect for AmbaBus {
    fn kind(&self) -> InterconnectKind {
        InterconnectKind::Amba
    }

    fn transactions(&self) -> u64 {
        self.stats.reads + self.stats.writes
    }

    fn decode_errors(&self) -> u64 {
        self.stats.decode_errors
    }

    fn latency_summary(&self) -> Option<(f64, u64)> {
        Some((self.occupancy.mean()?, self.occupancy.max()?))
    }

    fn utilization_cycles(&self) -> u64 {
        self.stats.busy_cycles
    }

    fn contention(&self) -> Contention {
        Contention {
            conflicts: self.conflicts,
            grant_wait: self.grant_wait.clone(),
            links: self.links.clone(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use ntg_mem::{MemoryDevice, RegionKind};
    use ntg_ocp::{MasterId, OcpRequest, OcpStatus, SlaveId};

    struct Rig {
        links: LinkArena,
        bus: AmbaBus,
        mems: Vec<MemoryDevice>,
        cpus: Vec<MasterPort>,
    }

    /// `n` masters, two memory slaves at 0x1000 and 0x2000 (0x1000 each).
    fn rig(n: usize) -> Rig {
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
        let bus = AmbaBus::new("bus", bus_masters, bus_slaves, Arc::new(map));
        Rig {
            links,
            bus,
            mems,
            cpus,
        }
    }

    fn step(r: &mut Rig, now: Cycle) {
        r.bus.tick(now, &mut r.links);
        for m in &mut r.mems {
            m.tick(now, &mut r.links);
        }
    }

    #[test]
    fn single_read_takes_six_cycles() {
        let mut r = rig(1);
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
        assert_eq!(at, 6, "single-read end-to-end latency");
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
        assert_eq!(r.bus.stats().writes, 1);
    }

    #[test]
    fn bus_serialises_two_masters_to_same_slave() {
        let mut r = rig(2);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        r.cpus[1].assert_request(&mut r.links, OcpRequest::read(0x1004), 0);
        let mut done = [None, None];
        for now in 0..40 {
            step(&mut r, now);
            for c in 0..2 {
                if done[c].is_none() {
                    if let Some(_resp) = r.cpus[c].take_response(&mut r.links, now) {
                        done[c] = Some(now);
                    }
                }
            }
        }
        let (a, b) = (done[0].unwrap(), done[1].unwrap());
        assert_eq!(a, 6, "first transaction unaffected");
        assert!(b >= a + 4, "second serialised after first ({a} vs {b})");
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
    fn unmapped_read_gets_error_response() {
        let mut r = rig(1);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0xDEAD_0000), 0);
        let mut got = None;
        for now in 0..20 {
            step(&mut r, now);
            if let Some(resp) = r.cpus[0].take_response(&mut r.links, now) {
                got = Some(resp);
                break;
            }
        }
        assert_eq!(got.unwrap().status, OcpStatus::Error);
        assert_eq!(r.bus.decode_errors(), 1);
    }

    #[test]
    fn unmapped_write_is_dropped_but_unblocks_master() {
        let mut r = rig(1);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::write(0xDEAD_0000, 1), 0);
        let mut accepted = false;
        for now in 0..20 {
            step(&mut r, now);
            accepted |= r.cpus[0].take_accept(&mut r.links, now).is_some();
        }
        assert!(accepted);
        assert_eq!(r.bus.decode_errors(), 1);
        assert_eq!(r.bus.transactions(), 0);
    }

    #[test]
    fn extra_grant_cycles_delay_transfers() {
        let mut r = rig(1);
        r.bus.set_extra_grant_cycles(3);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        let mut at = None;
        for now in 0..30 {
            step(&mut r, now);
            if r.cpus[0].take_response(&mut r.links, now).is_some() {
                at = Some(now);
                break;
            }
        }
        assert_eq!(at, Some(9), "6-cycle base + 3 arbitration cycles");
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
    fn occupancy_histogram_tracks_transfers() {
        let mut r = rig(1);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        for now in 0..20 {
            step(&mut r, now);
            r.cpus[0].take_response(&mut r.links, now);
        }
        assert_eq!(r.bus.occupancy().count(), 1);
        // Granted at 1, response relayed at 5 → 4 cycles of occupancy.
        assert_eq!(r.bus.occupancy().max(), Some(4));
    }

    #[test]
    fn contention_metrics_track_arbitration() {
        let mut r = rig(2);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        r.cpus[1].assert_request(&mut r.links, OcpRequest::read(0x1004), 0);
        for now in 0..40 {
            step(&mut r, now);
            for c in 0..2 {
                r.cpus[c].take_response(&mut r.links, now);
            }
        }
        let c = r.bus.contention();
        assert_eq!(c.links.len(), 2);
        assert_eq!(c.links[0].grants, 1);
        assert_eq!(c.links[1].grants, 1);
        assert_eq!(c.conflicts, 1, "only the first grant was contended");
        assert_eq!(c.links[0].stall_cycles, 0, "winner granted immediately");
        assert!(c.links[1].stall_cycles > 0, "loser waited for the bus");
        assert_eq!(c.grant_wait.count(), 2);
        assert!(r.bus.utilization_cycles() > 0);
        // Per-master busy attribution sums to the recorded occupancy.
        let busy: u64 = c.links.iter().map(|l| l.busy_cycles).sum();
        assert_eq!(busy, r.bus.occupancy().sum());
    }

    #[test]
    fn is_idle_goes_quiet_after_traffic() {
        let mut r = rig(1);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::write(0x1000, 1), 0);
        for now in 0..20 {
            step(&mut r, now);
            r.cpus[0].take_accept(&mut r.links, now);
        }
        assert!(r.bus.is_idle(&r.links));
    }
}
