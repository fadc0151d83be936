//! The STBus-like full crossbar interconnect.

use std::sync::Arc;

use ntg_mem::AddressMap;
use ntg_ocp::{LinkArena, MasterPort, OcpResponse, SlavePort};
use ntg_sim::observe::{Contention, LinkMetrics};
use ntg_sim::stats::Histogram;
use ntg_sim::{Activity, Component, Cycle};

use crate::{Interconnect, InterconnectKind};

#[derive(Debug, Clone, Copy)]
enum LaneState {
    Idle,
    WaitSlave {
        master: usize,
        expects_response: bool,
    },
}

/// A full crossbar: every slave has its own arbitration lane, so
/// transactions addressed to different slaves proceed in parallel.
///
/// Contention only arises when several masters target the *same* slave,
/// in which case a per-slave round-robin arbiter serialises them. This
/// approximates the parallelism of an STBus-type interconnect node and
/// sits between the fully serialised [`AmbaBus`](crate::AmbaBus) and the
/// contention-free [`IdealInterconnect`](crate::IdealInterconnect) in the
/// design space the paper explores.
///
/// Per-lane timing equals the [`AmbaBus`](crate::AmbaBus) timing: a
/// single read takes six cycles end to end on an idle lane.
pub struct CrossbarBus {
    name: String,
    masters: Vec<SlavePort>,
    slaves: Vec<MasterPort>,
    map: Arc<AddressMap>,
    lanes: Vec<LaneState>,
    rr: Vec<usize>,
    transactions: u64,
    decode_errors: u64,
    busy_lane_cycles: u64,
    conflicts: u64,
    grant_wait: Histogram,
    links: Vec<LinkMetrics>,
}

impl CrossbarBus {
    /// Creates a crossbar connecting `masters` to `slaves` under `map`.
    ///
    /// Indexing conventions match [`AmbaBus::new`](crate::AmbaBus::new).
    pub fn new(
        name: impl Into<String>,
        masters: Vec<SlavePort>,
        slaves: Vec<MasterPort>,
        map: Arc<AddressMap>,
    ) -> Self {
        let lanes = vec![LaneState::Idle; slaves.len()];
        let rr = vec![0; slaves.len()];
        let links = vec![LinkMetrics::default(); masters.len()];
        Self {
            name: name.into(),
            masters,
            slaves,
            map,
            lanes,
            rr,
            transactions: 0,
            decode_errors: 0,
            busy_lane_cycles: 0,
            conflicts: 0,
            grant_wait: Histogram::new("grant_wait"),
            links,
        }
    }

    /// Total cycles summed over all occupied lanes (a parallelism
    /// indicator when compared against total cycles).
    pub fn busy_lane_cycles(&self) -> u64 {
        self.busy_lane_cycles
    }

    /// Handles requests that decode to no slave.
    fn reject_unmapped(&mut self, net: &mut LinkArena, now: Cycle) {
        for m in 0..self.masters.len() {
            let unmapped = matches!(
                self.masters[m].peek_meta(net, now),
                Some((addr, _, _)) if self.map.slave_for(addr).is_none()
            );
            if unmapped {
                let req = self.masters[m]
                    .accept_request(net, now)
                    .expect("peeked request is still there");
                self.decode_errors += 1;
                if req.cmd.expects_response() {
                    self.masters[m].push_response(net, OcpResponse::error(req.tag), now);
                }
            }
        }
    }
}

impl Component<LinkArena> for CrossbarBus {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        self.reject_unmapped(net, now);
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
                    let wants_lane =
                        |m: usize, masters: &[SlavePort], map: &AddressMap, net: &LinkArena| {
                            matches!(
                                masters[m].peek_meta(net, now),
                                Some((addr, _, _)) if map.slave_for(addr)
                                    == Some(ntg_ocp::SlaveId(lane as u16))
                            )
                        };
                    let winner = (0..n)
                        .map(|i| (start + i) % n)
                        .find(|&m| wants_lane(m, &self.masters, &self.map, net));
                    if let Some(m) = winner {
                        // Contention bookkeeping before acceptance
                        // consumes the request's visibility timestamp.
                        let stall = now
                            - self.masters[m]
                                .request_visible_at(net)
                                .expect("winner request is still there");
                        let contended =
                            (0..n).any(|o| o != m && wants_lane(o, &self.masters, &self.map, net));
                        let req = self.masters[m]
                            .accept_request(net, now)
                            .expect("winner request is still there");
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
                        self.rr[lane] = (m + 1) % n;
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
        // A request visible now feeds reject_unmapped or a lane arbiter.
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
                // The lane completes on the read's response or the
                // posted write's acceptance; only that event wakes it.
                match self.slaves[lane].completion_visible_at(net, expects_response) {
                    Some(at) if at > now => merge(&mut wake, at),
                    Some(_) => return Activity::Busy,
                    // Passive wait: the slave device bounds the horizon.
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

    fn skip(&mut self, now: Cycle, next: Cycle, _net: &mut LinkArena) {
        // Each occupied lane counts one busy cycle per tick (total and
        // per owning master); the rest of a wait tick is pure polling.
        for lane in &self.lanes {
            if let LaneState::WaitSlave { master, .. } = lane {
                self.busy_lane_cycles += next - now;
                self.links[*master].busy_cycles += next - now;
            }
        }
    }
}

impl Interconnect for CrossbarBus {
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

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use ntg_mem::{MemoryDevice, RegionKind};
    use ntg_ocp::{MasterId, OcpRequest, OcpStatus, SlaveId};

    struct Rig {
        links: LinkArena,
        xbar: CrossbarBus,
        mems: Vec<MemoryDevice>,
        cpus: Vec<MasterPort>,
    }

    fn rig(n: usize) -> Rig {
        let mut map = AddressMap::new();
        map.add("m0", 0x1000, 0x1000, SlaveId(0), RegionKind::SharedMemory)
            .unwrap();
        map.add("m1", 0x2000, 0x1000, SlaveId(1), RegionKind::SharedMemory)
            .unwrap();
        let mut links = LinkArena::new();
        let mut cpus = Vec::new();
        let mut net_masters = Vec::new();
        for i in 0..n {
            let (m, s) = links.channel(format!("cpu{i}"), MasterId(i as u16));
            cpus.push(m);
            net_masters.push(s);
        }
        let mut mems = Vec::new();
        let mut net_slaves = Vec::new();
        for (i, base) in [(0u16, 0x1000u32), (1, 0x2000)] {
            let (m, s) = links.channel(format!("slave{i}"), MasterId(0));
            net_slaves.push(m);
            mems.push(MemoryDevice::new(format!("mem{i}"), base, 0x1000, s));
        }
        let xbar = CrossbarBus::new("xbar", net_masters, net_slaves, Arc::new(map));
        Rig {
            links,
            xbar,
            mems,
            cpus,
        }
    }

    fn step(r: &mut Rig, now: Cycle) {
        r.xbar.tick(now, &mut r.links);
        for m in &mut r.mems {
            m.tick(now, &mut r.links);
        }
    }

    #[test]
    fn single_read_latency_matches_bus() {
        let mut r = rig(1);
        r.mems[0].poke(0x1004, 9);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1004), 0);
        for now in 0..20 {
            step(&mut r, now);
            if let Some(resp) = r.cpus[0].take_response(&mut r.links, now) {
                assert_eq!(resp.data, vec![9]);
                assert_eq!(now, 6);
                return;
            }
        }
        panic!("no response");
    }

    #[test]
    fn different_slaves_proceed_in_parallel() {
        let mut r = rig(2);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        r.cpus[1].assert_request(&mut r.links, OcpRequest::read(0x2000), 0);
        let mut done = [None, None];
        for now in 0..30 {
            step(&mut r, now);
            for c in 0..2 {
                if done[c].is_none() && r.cpus[c].take_response(&mut r.links, now).is_some() {
                    done[c] = Some(now);
                }
            }
        }
        assert_eq!(done[0], Some(6));
        assert_eq!(done[1], Some(6), "no serialisation across slaves");
    }

    #[test]
    fn same_slave_still_serialises() {
        let mut r = rig(2);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        r.cpus[1].assert_request(&mut r.links, OcpRequest::read(0x1004), 0);
        let mut done = [None, None];
        for now in 0..30 {
            step(&mut r, now);
            for c in 0..2 {
                if done[c].is_none() && r.cpus[c].take_response(&mut r.links, now).is_some() {
                    done[c] = Some(now);
                }
            }
        }
        assert_eq!(done[0], Some(6));
        assert!(done[1].unwrap() > 6, "same-slave contention serialises");
    }

    #[test]
    fn unmapped_read_errors_and_write_drops() {
        let mut r = rig(1);
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
        assert_eq!(r.xbar.decode_errors(), 2);
    }

    #[test]
    fn conflicts_only_arise_on_shared_lanes() {
        // Same slave: the loser marks the grant contended.
        let mut r = rig(2);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        r.cpus[1].assert_request(&mut r.links, OcpRequest::read(0x1004), 0);
        for now in 0..30 {
            step(&mut r, now);
            for c in 0..2 {
                r.cpus[c].take_response(&mut r.links, now);
            }
        }
        let c = r.xbar.contention();
        assert_eq!(c.conflicts, 1);
        assert!(c.links[1].stall_cycles > 0, "loser stalled");
        assert_eq!(c.grant_wait.count(), 2);
        let busy: u64 = c.links.iter().map(|l| l.busy_cycles).sum();
        assert_eq!(busy, r.xbar.utilization_cycles());

        // Different slaves: fully parallel, no conflicts, no stalls.
        let mut r = rig(2);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        r.cpus[1].assert_request(&mut r.links, OcpRequest::read(0x2000), 0);
        for now in 0..30 {
            step(&mut r, now);
            for c in 0..2 {
                r.cpus[c].take_response(&mut r.links, now);
            }
        }
        let c = r.xbar.contention();
        assert_eq!(c.conflicts, 0);
        assert_eq!(c.links[0].stall_cycles + c.links[1].stall_cycles, 0);
    }

    #[test]
    fn per_slave_round_robin_is_fair() {
        let mut r = rig(3);
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
}
