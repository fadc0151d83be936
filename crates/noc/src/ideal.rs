//! The idealised fixed-latency interconnect.

use std::collections::VecDeque;
use std::sync::Arc;

use ntg_mem::AddressMap;
use ntg_ocp::{LinkArena, MasterPort, OcpRequest, OcpResponse, SlavePort};
use ntg_sim::observe::{Contention, LinkMetrics};
use ntg_sim::stats::Histogram;
use ntg_sim::{Activity, Component, Cycle};

use crate::{Interconnect, InterconnectKind};

/// A contention-free interconnect with a fixed one-way latency.
///
/// Every master request is accepted immediately (so posted writes never
/// stall on the network) and arrives at its slave `latency` cycles later;
/// responses travel back with the same delay. Requests to the *same*
/// slave still queue there, because real devices service one transaction
/// at a time — the network itself is infinitely parallel.
///
/// This is the "transactional fabric model" role from the paper's §6: a
/// cheap stand-in interconnect for the reference simulation, since trace
/// translation produces identical TG programs regardless of the fabric
/// traces were collected on.
pub struct IdealInterconnect {
    name: String,
    masters: Vec<SlavePort>,
    slaves: Vec<MasterPort>,
    map: Arc<AddressMap>,
    latency: Cycle,
    /// Per-slave queue of requests in flight or waiting for the link.
    to_slave: Vec<VecDeque<(Cycle, usize, OcpRequest)>>,
    /// Per-slave FIFO of masters owed a response / acceptance relay.
    owners: Vec<VecDeque<(usize, bool)>>,
    /// Per-master responses flying back.
    to_master: Vec<VecDeque<(Cycle, OcpResponse)>>,
    transactions: u64,
    decode_errors: u64,
    conflicts: u64,
    grant_wait: Histogram,
    links: Vec<LinkMetrics>,
}

impl IdealInterconnect {
    /// Default one-way latency in cycles.
    pub const DEFAULT_LATENCY: Cycle = 2;

    /// Creates an ideal fabric with the default latency.
    ///
    /// Indexing conventions match [`AmbaBus::new`](crate::AmbaBus::new).
    pub fn new(
        name: impl Into<String>,
        masters: Vec<SlavePort>,
        slaves: Vec<MasterPort>,
        map: Arc<AddressMap>,
    ) -> Self {
        let n_slaves = slaves.len();
        let n_masters = masters.len();
        Self {
            name: name.into(),
            masters,
            slaves,
            map,
            latency: Self::DEFAULT_LATENCY,
            to_slave: (0..n_slaves).map(|_| VecDeque::new()).collect(),
            owners: (0..n_slaves).map(|_| VecDeque::new()).collect(),
            to_master: (0..n_masters).map(|_| VecDeque::new()).collect(),
            transactions: 0,
            decode_errors: 0,
            conflicts: 0,
            grant_wait: Histogram::new("grant_wait"),
            links: vec![LinkMetrics::default(); n_masters],
        }
    }

    /// Overrides the one-way latency.
    pub fn set_latency(&mut self, latency: Cycle) {
        self.latency = latency;
    }
}

impl Component<LinkArena> for IdealInterconnect {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        // 1. Accept every visible master request.
        for m in 0..self.masters.len() {
            if !self.masters[m].has_request(net, now) {
                continue;
            }
            let req = self.masters[m]
                .accept_request(net, now)
                .expect("peeked request is still there");
            match self.map.slave_for(req.addr) {
                None => {
                    self.decode_errors += 1;
                    if req.cmd.expects_response() {
                        self.masters[m].push_response(net, OcpResponse::error(req.tag), now);
                    }
                }
                Some(slave) => {
                    self.transactions += 1;
                    self.links[m].grants += 1;
                    self.to_slave[slave.0 as usize].push_back((now + self.latency, m, req));
                }
            }
        }
        // 2. Deliver due requests to free slave links (one in flight per
        //    link; arrivals queue in FIFO order).
        for s in 0..self.slaves.len() {
            // Relay completions: writes complete on acceptance, reads on
            // response.
            if let Some(&(owner, expects)) = self.owners[s].front() {
                if expects {
                    if let Some(resp) = self.slaves[s].take_response(net, now) {
                        self.owners[s].pop_front();
                        self.to_master[owner].push_back((now + self.latency, resp));
                    }
                } else if self.slaves[s].take_accept(net, now).is_some() {
                    self.owners[s].pop_front();
                }
            }
            let due = matches!(self.to_slave[s].front(), Some(&(at, _, _)) if at <= now);
            if due && !self.slaves[s].request_pending(net) && self.owners[s].is_empty() {
                let (at, m, req) = self.to_slave[s].pop_front().expect("front checked");
                // The network itself is contention-free; any wait beyond
                // the flight time is same-slave queueing delay.
                let queue_wait = now - at;
                if queue_wait > 0 {
                    self.conflicts += 1;
                }
                self.grant_wait.record(queue_wait);
                self.links[m].stall_cycles += queue_wait;
                self.links[m].busy_cycles += self.latency;
                self.owners[s].push_back((m, req.cmd.expects_response()));
                self.slaves[s].forward_request(net, req, now);
            }
        }
        // 3. Deliver due responses to masters.
        for m in 0..self.masters.len() {
            while matches!(self.to_master[m].front(), Some(&(at, _)) if at <= now) {
                let (_, resp) = self.to_master[m].pop_front().expect("front checked");
                self.links[m].busy_cycles += self.latency;
                self.masters[m].push_response(net, resp, now);
            }
        }
    }

    fn is_idle(&self, net: &LinkArena) -> bool {
        self.to_slave.iter().all(VecDeque::is_empty)
            && self.owners.iter().all(VecDeque::is_empty)
            && self.to_master.iter().all(VecDeque::is_empty)
            && self.masters.iter().all(|p| p.is_quiet(net))
            && self.slaves.iter().all(|p| p.is_quiet(net))
    }

    // Ticks have no side effects while nothing is visible or due, so the
    // default no-op `skip` is exact.
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
        for s in 0..self.slaves.len() {
            if let Some(&(_, expects)) = self.owners[s].front() {
                // Waiting on the slave for the read's response or the
                // posted write's acceptance; once queued it gives the
                // exact wake, an unfinished service does not.
                match self.slaves[s].completion_visible_at(net, expects) {
                    Some(at) if at > now => merge(&mut wake, at),
                    Some(_) => return Activity::Busy,
                    // Passive wait: the slave device bounds the horizon.
                    None => merge(&mut wake, Cycle::MAX),
                }
            } else if let Some(&(at, _, _)) = self.to_slave[s].front() {
                if at <= now {
                    return Activity::Busy;
                }
                merge(&mut wake, at);
            }
        }
        for q in &self.to_master {
            if let Some(&(at, _)) = q.front() {
                if at <= now {
                    return Activity::Busy;
                }
                merge(&mut wake, at);
            }
        }
        match wake {
            Some(at) => Activity::IdleUntil(at),
            None if self.is_idle(net) => Activity::Drained,
            None => Activity::Busy,
        }
    }
}

impl Interconnect for IdealInterconnect {
    fn kind(&self) -> InterconnectKind {
        InterconnectKind::Ideal
    }

    fn transactions(&self) -> u64 {
        self.transactions
    }

    fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    fn utilization_cycles(&self) -> u64 {
        // Request + response flight cycles; an infinitely parallel
        // fabric has no shared resource to saturate, so this only
        // indicates carried traffic volume.
        self.links.iter().map(|l| l.busy_cycles).sum()
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
    use ntg_ocp::{MasterId, OcpRequest, SlaveId};

    struct Rig {
        links: LinkArena,
        net: IdealInterconnect,
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
        let net = IdealInterconnect::new("ideal", net_masters, net_slaves, Arc::new(map));
        Rig {
            links,
            net,
            mems,
            cpus,
        }
    }

    fn step(r: &mut Rig, now: Cycle) {
        r.net.tick(now, &mut r.links);
        for m in &mut r.mems {
            m.tick(now, &mut r.links);
        }
    }

    #[test]
    fn read_latency_includes_both_directions() {
        let mut r = rig(1);
        r.mems[0].poke(0x1000, 3);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        for now in 0..30 {
            step(&mut r, now);
            if let Some(resp) = r.cpus[0].take_response(&mut r.links, now) {
                assert_eq!(resp.data, vec![3]);
                // accept @1, at slave @3 (+2), service visible @4, done
                // @4+2=6... slave pushes @6? then +2 back, +1 visibility.
                assert!(now >= 2 * IdealInterconnect::DEFAULT_LATENCY + 4);
                return;
            }
        }
        panic!("no response");
    }

    #[test]
    fn writes_never_stall_the_master() {
        let mut r = rig(1);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::write(0x1000, 1), 0);
        let mut accepted_at = None;
        for now in 0..30 {
            step(&mut r, now);
            if accepted_at.is_none() && r.cpus[0].take_accept(&mut r.links, now).is_some() {
                accepted_at = Some(now);
            }
        }
        assert_eq!(accepted_at, Some(2), "accept at first visible cycle");
        assert_eq!(r.mems[0].peek(0x1000), 1, "write still lands");
    }

    #[test]
    fn many_masters_suffer_no_network_contention() {
        // Masters targeting different slaves all complete at the same
        // cycle despite sharing the fabric.
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
        assert_eq!(done[0], done[1]);
    }

    #[test]
    fn same_slave_requests_queue_in_order() {
        let mut r = rig(2);
        r.mems[0].poke(0x1000, 10);
        r.mems[0].poke(0x1004, 20);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        r.cpus[1].assert_request(&mut r.links, OcpRequest::read(0x1004), 0);
        let mut order = Vec::new();
        for now in 0..60 {
            step(&mut r, now);
            for c in 0..2 {
                if let Some(resp) = r.cpus[c].take_response(&mut r.links, now) {
                    order.push((c, resp.word()));
                }
            }
        }
        assert_eq!(order.len(), 2);
        assert_eq!(order[0], (0, 10), "FIFO at the slave");
        assert_eq!(order[1], (1, 20));
    }

    #[test]
    fn queueing_delay_is_the_only_contention() {
        // Same slave: the second request waits at the device, which the
        // metrics report as a conflict with stall cycles.
        let mut r = rig(2);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        r.cpus[1].assert_request(&mut r.links, OcpRequest::read(0x1004), 0);
        for now in 0..60 {
            step(&mut r, now);
            for c in 0..2 {
                r.cpus[c].take_response(&mut r.links, now);
            }
        }
        let c = r.net.contention();
        assert_eq!(c.conflicts, 1, "second request queued behind the first");
        assert_eq!(c.links[0].grants, 1);
        assert_eq!(c.links[1].grants, 1);
        assert!(c.links[0].stall_cycles == 0 || c.links[1].stall_cycles == 0);
        assert!(c.links[0].stall_cycles + c.links[1].stall_cycles > 0);
        // Four flight legs of DEFAULT_LATENCY cycles each.
        assert_eq!(
            r.net.utilization_cycles(),
            4 * IdealInterconnect::DEFAULT_LATENCY
        );

        // Different slaves: an infinitely parallel network, no conflicts.
        let mut r = rig(2);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        r.cpus[1].assert_request(&mut r.links, OcpRequest::read(0x2000), 0);
        for now in 0..60 {
            step(&mut r, now);
            for c in 0..2 {
                r.cpus[c].take_response(&mut r.links, now);
            }
        }
        let c = r.net.contention();
        assert_eq!(c.conflicts, 0);
        assert_eq!(c.links[0].stall_cycles + c.links[1].stall_cycles, 0);
    }

    #[test]
    fn zero_latency_is_allowed() {
        let mut r = rig(1);
        r.net.set_latency(0);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        for now in 0..20 {
            step(&mut r, now);
            if r.cpus[0].take_response(&mut r.links, now).is_some() {
                assert!(now <= 6);
                return;
            }
        }
        panic!("no response");
    }

    #[test]
    fn goes_idle_after_posted_write_completes() {
        let mut r = rig(1);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::write(0x1000, 1), 0);
        for now in 0..30 {
            step(&mut r, now);
            r.cpus[0].take_accept(&mut r.links, now);
        }
        assert!(r.net.is_idle(&r.links));
    }
}
