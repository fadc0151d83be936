//! The two bus models [`AmbaBus`](super::AmbaBus) replaced, kept as
//! test-only references it is diffed against: the shared bus as it
//! arbitrated before (one wrap-around pass, decode at grant, occupancy
//! charged at completion) and the crossbar as it arbitrated before its
//! decode pass (every idle lane scans every master, decoding each
//! visible request at every probe, and occupancy counts per tick).
//! Neither has a wait-free shortcut or a skip: the oracle ticks them
//! every cycle.

use std::sync::Arc;

use ntg_mem::AddressMap;
use ntg_ocp::{LinkArena, MasterPort, OcpResponse, SlaveId, SlavePort};
use ntg_sim::observe::{Contention, LinkMetrics};
use ntg_sim::stats::Histogram;
use ntg_sim::{Activity, Component, Cycle};

use crate::{Arbitration, Interconnect, InterconnectKind};

/// A fabric the oracle can diff: its round-robin pointers on top of
/// the [`Interconnect`] surface.
pub(super) trait Diffable: Interconnect {
    fn rr(&self) -> Vec<usize>;

    /// Lanes a transfer holds.
    fn owned_lanes(&self) -> usize;
}

#[derive(Debug, Clone, Copy)]
enum BusState {
    Idle,
    WaitSlave {
        master: usize,
        slave: usize,
        expects_response: bool,
        granted_at: Cycle,
    },
}

/// The single-owner shared bus.
pub(super) struct RefAmbaBus {
    masters: Vec<SlavePort>,
    slaves: Vec<MasterPort>,
    map: Arc<AddressMap>,
    arbitration: Arbitration,
    rr_next: usize,
    state: BusState,
    transactions: u64,
    busy_cycles: u64,
    decode_errors: u64,
    occupancy: Histogram,
    conflicts: u64,
    grant_wait: Histogram,
    links: Vec<LinkMetrics>,
}

impl RefAmbaBus {
    pub(super) fn new(
        masters: Vec<SlavePort>,
        slaves: Vec<MasterPort>,
        map: Arc<AddressMap>,
        arbitration: Arbitration,
    ) -> Self {
        let links = vec![LinkMetrics::default(); masters.len()];
        Self {
            masters,
            slaves,
            map,
            arbitration,
            rr_next: 0,
            state: BusState::Idle,
            transactions: 0,
            busy_cycles: 0,
            decode_errors: 0,
            occupancy: Histogram::new("bus_occupancy_cycles"),
            conflicts: 0,
            grant_wait: Histogram::new("grant_wait"),
            links,
        }
    }

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

    fn start_transfer(&mut self, net: &mut LinkArena, master: usize, contended: bool, now: Cycle) {
        let stall = now - self.masters[master].request_visible_at(net).unwrap();
        let req = self.masters[master].accept_request(net, now).unwrap();
        match self.map.slave_for(req.addr) {
            None => {
                self.decode_errors += 1;
                if req.cmd.expects_response() {
                    self.masters[master].push_response(net, OcpResponse::error(req.tag), now);
                }
                self.state = BusState::Idle;
            }
            Some(slave_id) => {
                let slave = slave_id.0 as usize;
                let expects_response = req.cmd.expects_response();
                self.transactions += 1;
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

impl Component<LinkArena> for RefAmbaBus {
    fn name(&self) -> &str {
        "ref-amba"
    }

    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        match self.state {
            BusState::Idle => {
                let start = match self.arbitration {
                    Arbitration::RoundRobin => self.rr_next,
                    Arbitration::FixedPriority => 0,
                };
                if let Some((master, contended)) = self.first_requester(net, now, start) {
                    self.start_transfer(net, master, contended, now);
                }
            }
            BusState::WaitSlave {
                master,
                slave,
                expects_response,
                granted_at,
            } => {
                self.busy_cycles += 1;
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

    fn is_idle(&self, net: &LinkArena) -> bool {
        matches!(self.state, BusState::Idle)
            && self.masters.iter().all(|p| p.is_quiet(net))
            && self.slaves.iter().all(|p| p.is_quiet(net))
    }

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
}

impl Interconnect for RefAmbaBus {
    fn kind(&self) -> InterconnectKind {
        InterconnectKind::Amba
    }

    fn transactions(&self) -> u64 {
        self.transactions
    }

    fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    fn latency_summary(&self) -> Option<(f64, u64)> {
        Some((self.occupancy.mean()?, self.occupancy.max()?))
    }

    fn utilization_cycles(&self) -> u64 {
        self.busy_cycles
    }

    fn contention(&self) -> Contention {
        Contention {
            conflicts: self.conflicts,
            grant_wait: self.grant_wait.clone(),
            links: self.links.clone(),
        }
    }
}

impl Diffable for RefAmbaBus {
    fn rr(&self) -> Vec<usize> {
        vec![self.rr_next]
    }

    fn owned_lanes(&self) -> usize {
        usize::from(matches!(self.state, BusState::WaitSlave { .. }))
    }
}

#[derive(Debug, Clone, Copy)]
enum LaneState {
    Idle,
    WaitSlave {
        master: usize,
        expects_response: bool,
    },
}

/// The full crossbar, one lane per slave, with the per-lane scan as its
/// tick. Under fixed priority its round-robin pointers stay at zero.
pub(super) struct RefCrossbarBus {
    masters: Vec<SlavePort>,
    slaves: Vec<MasterPort>,
    map: Arc<AddressMap>,
    arbitration: Arbitration,
    lanes: Vec<LaneState>,
    rr: Vec<usize>,
    transactions: u64,
    decode_errors: u64,
    busy_lane_cycles: u64,
    conflicts: u64,
    grant_wait: Histogram,
    links: Vec<LinkMetrics>,
}

impl RefCrossbarBus {
    pub(super) fn new(
        masters: Vec<SlavePort>,
        slaves: Vec<MasterPort>,
        map: Arc<AddressMap>,
        arbitration: Arbitration,
    ) -> Self {
        let links = vec![LinkMetrics::default(); masters.len()];
        Self {
            masters,
            map,
            arbitration,
            lanes: vec![LaneState::Idle; slaves.len()],
            rr: vec![0; slaves.len()],
            slaves,
            transactions: 0,
            decode_errors: 0,
            busy_lane_cycles: 0,
            conflicts: 0,
            grant_wait: Histogram::new("grant_wait"),
            links,
        }
    }
}

impl Component<LinkArena> for RefCrossbarBus {
    fn name(&self) -> &str {
        "ref-crossbar"
    }

    /// One scan answering unmapped requests, then every idle lane
    /// scanning every master in round-robin order for a winner and again
    /// for a contender, decoding each visible request at every probe.
    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        for m in 0..self.masters.len() {
            let unmapped = matches!(
                self.masters[m].peek_meta(net, now),
                Some((addr, _, _)) if self.map.slave_for(addr).is_none()
            );
            if unmapped {
                let req = self.masters[m].accept_request(net, now).unwrap();
                self.decode_errors += 1;
                if req.cmd.expects_response() {
                    self.masters[m].push_response(net, OcpResponse::error(req.tag), now);
                }
            }
        }
        for lane in 0..self.lanes.len() {
            match self.lanes[lane] {
                LaneState::WaitSlave {
                    master,
                    expects_response,
                } => {
                    self.busy_lane_cycles += 1;
                    self.links[master].busy_cycles += 1;
                    if expects_response {
                        if let Some(resp) = self.slaves[lane].take_response(net, now) {
                            self.masters[master].push_response(net, resp, now);
                            self.lanes[lane] = LaneState::Idle;
                        }
                    } else if self.slaves[lane].take_accept(net, now).is_some() {
                        self.lanes[lane] = LaneState::Idle;
                    }
                }
                LaneState::Idle => {
                    let n = self.masters.len();
                    let start = self.rr[lane];
                    let asks = |m: usize, masters: &[SlavePort], net: &LinkArena| {
                        matches!(
                            masters[m].peek_meta(net, now),
                            Some((addr, _, _))
                                if self.map.slave_for(addr) == Some(SlaveId(lane as u16))
                        )
                    };
                    let winner = (0..n)
                        .map(|i| (start + i) % n)
                        .find(|&m| asks(m, &self.masters, net));
                    if let Some(m) = winner {
                        let stall = now - self.masters[m].request_visible_at(net).unwrap();
                        let contended = (0..n).any(|o| o != m && asks(o, &self.masters, net));
                        let req = self.masters[m].accept_request(net, now).unwrap();
                        let expects_response = req.cmd.expects_response();
                        self.transactions += 1;
                        if contended {
                            self.conflicts += 1;
                        }
                        self.grant_wait.record(stall);
                        self.links[m].grants += 1;
                        self.links[m].stall_cycles += stall;
                        self.slaves[lane].forward_request(net, req, now);
                        self.lanes[lane] = LaneState::WaitSlave {
                            master: m,
                            expects_response,
                        };
                        if self.arbitration == Arbitration::RoundRobin {
                            self.rr[lane] = (m + 1) % n;
                        }
                    }
                }
            }
        }
    }

    fn is_idle(&self, net: &LinkArena) -> bool {
        self.lanes.iter().all(|l| matches!(l, LaneState::Idle))
            && self.masters.iter().all(|p| p.is_quiet(net))
            && self.slaves.iter().all(|p| p.is_quiet(net))
    }

    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        let mut wake: Option<Cycle> = None;
        let merge = |wake: &mut Option<Cycle>, at: Cycle| {
            *wake = Some(wake.map_or(at, |w| w.min(at)));
        };
        for m in &self.masters {
            match m.request_visible_at(net) {
                Some(at) if at <= now => return Activity::Busy,
                Some(at) => merge(&mut wake, at),
                None => {}
            }
        }
        for (lane, state) in self.lanes.iter().enumerate() {
            if let LaneState::WaitSlave {
                expects_response, ..
            } = *state
            {
                match self.slaves[lane].completion_visible_at(net, expects_response) {
                    Some(at) if at > now => merge(&mut wake, at),
                    Some(_) => return Activity::Busy,
                    None => merge(&mut wake, Cycle::MAX),
                }
            }
        }
        match wake {
            Some(at) => Activity::IdleUntil(at),
            None if self.is_idle(net) => Activity::Drained,
            None => Activity::Busy,
        }
    }
}

impl Interconnect for RefCrossbarBus {
    fn kind(&self) -> InterconnectKind {
        InterconnectKind::Crossbar
    }

    fn transactions(&self) -> u64 {
        self.transactions
    }

    fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    fn utilization_cycles(&self) -> u64 {
        self.busy_lane_cycles
    }

    fn contention(&self) -> Contention {
        Contention {
            conflicts: self.conflicts,
            grant_wait: self.grant_wait.clone(),
            links: self.links.clone(),
        }
    }
}

impl Diffable for RefCrossbarBus {
    fn rr(&self) -> Vec<usize> {
        self.rr.clone()
    }

    fn owned_lanes(&self) -> usize {
        let owned = |l: &&LaneState| matches!(l, LaneState::WaitSlave { .. });
        self.lanes.iter().filter(owned).count()
    }
}
