//! Cycle-true interconnect models for the `ntg` platform.
//!
//! The reproduced paper measures its traffic generators on the AMBA AHB
//! interconnect of MPARM, validates trace translation against the ×pipes
//! packet-switched NoC, and mentions STBus as a third supported fabric.
//! This crate implements behavioural equivalents of all three, plus an
//! idealised fixed-latency fabric:
//!
//! * [`AmbaBus`] — a bus of arbitration lanes (round-robin or fixed
//!   priority), each carrying one transaction from grant to completion.
//!   [`AmbaBus::new`] builds the single-owner shared bus, one lane for
//!   every slave, like an AHB without split transfers;
//!   [`AmbaBus::crossbar`] the full crossbar, one lane per slave
//!   (STBus-like), where transactions to different slaves proceed in
//!   parallel.
//! * [`XpipesNoc`] — a 2D-mesh wormhole packet-switched NoC with XY
//!   routing, per-link backpressure and network-interface
//!   (de)packetisation, in the spirit of ×pipes.
//! * [`IdealInterconnect`] — fixed latency, unlimited bandwidth; the
//!   "transactional fabric model" the paper suggests for cheap reference
//!   runs.
//!
//! Every model connects *n* master links to *m* slave links through the
//! system [`AddressMap`](ntg_mem::AddressMap) and is plug-compatible with
//! both CPU cores and traffic generators, because everything speaks the
//! OCP channel protocol of `ntg-ocp`.
//!
//! # Shared conventions
//!
//! * An unmapped read receives an error response; an unmapped write is
//!   accepted and dropped (the master must be unblocked) — both are
//!   counted in the model's statistics.
//! * Masters have at most one outstanding transaction (the platform's
//!   cores and TGs are blocking), but every model tolerates any mix of
//!   masters issuing back-to-back requests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod ideal;
mod xpipes;

pub use bus::{AmbaBus, Arbitration};
pub use ideal::IdealInterconnect;
pub use xpipes::{XpipesConfig, XpipesNoc};

use ntg_mem::AddressMap;
use ntg_ocp::{LinkArena, LinkId};
use ntg_sim::observe::Contention;
use ntg_sim::Component;

/// Checks, at construction, that every region of `map` names one of a
/// fabric's `n_slaves` slave ports, so a bad map fails with the
/// region's name instead of mid-run at an index or in a silent hang.
///
/// # Panics
///
/// Panics naming the first region whose slave has no port.
fn check_slave_ports(map: &AddressMap, n_slaves: usize) {
    for r in map.iter() {
        assert!(
            usize::from(r.slave.0) < n_slaves,
            "region `{}` maps to slave {} but the fabric has {n_slaves} slave ports",
            r.name,
            r.slave.0,
        );
    }
}

/// Which interconnect family a model belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterconnectKind {
    /// Shared bus ([`AmbaBus::new`]).
    Amba,
    /// Packet-switched mesh ([`XpipesNoc`]).
    Xpipes,
    /// Full crossbar ([`AmbaBus::crossbar`]).
    Crossbar,
    /// Fixed-latency ideal fabric ([`IdealInterconnect`]).
    Ideal,
}

impl std::fmt::Display for InterconnectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InterconnectKind::Amba => "amba",
            InterconnectKind::Xpipes => "xpipes",
            InterconnectKind::Crossbar => "crossbar",
            InterconnectKind::Ideal => "ideal",
        };
        f.write_str(s)
    }
}

/// Common interface of every interconnect model.
///
/// Implementors are [`Component`]s over the [`LinkArena`] context,
/// constructed from the network-side endpoints of all master and slave
/// links plus the address map. The `Send` supertrait is what lets a
/// fully wired platform migrate to a campaign worker thread.
pub trait Interconnect: Component<LinkArena> + Send {
    /// The model family.
    fn kind(&self) -> InterconnectKind;

    /// Total transactions accepted from masters so far.
    fn transactions(&self) -> u64;

    /// Unmapped-address events observed so far.
    fn decode_errors(&self) -> u64;

    /// `(mean, max)` of the model's characteristic latency metric in
    /// cycles — bus occupancy for buses, packet latency for NoCs — if
    /// the model records one and has seen traffic.
    fn latency_summary(&self) -> Option<(f64, u64)> {
        None
    }

    /// Cycles the fabric spent occupied carrying traffic — the
    /// numerator of a utilization figure (divide by simulated cycles).
    /// Bus models count owner-occupied cycles, the mesh counts flit
    /// hops; models without a meaningful notion report 0.
    fn utilization_cycles(&self) -> u64 {
        0
    }

    /// Arbitration-contention summary: lost arbitration rounds, the
    /// grant-latency distribution, and per-master link counters.
    ///
    /// Built on demand (report time); the counters behind it are
    /// maintained alloc-free at transaction events during simulation.
    fn contention(&self) -> Contention {
        Contention::new(0)
    }

    /// Switches the model between dense per-tick scanning (the default)
    /// and event-driven endpoint worklists.
    ///
    /// In event mode the sparse scheduling engine promises to call
    /// [`wake_link`](Self::wake_link) for every link touch whose reader
    /// is this model, so the model may skip scanning endpoints nothing
    /// has touched. Models whose scans are already proportional to the
    /// traffic (buses with a handful of links) ignore this; behaviour
    /// must be bit-identical either way.
    fn set_event_driven(&mut self, _on: bool) {}

    /// Notifies an event-driven model (see
    /// [`set_event_driven`](Self::set_event_driven)) that `link` was
    /// written this cycle with this model as the reader: a master
    /// asserted a request, or a slave accepted/responded. No-op in
    /// dense mode and for models that never go event-driven.
    fn wake_link(&mut self, _link: LinkId) {}
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ntg_mem::RegionKind;
    use ntg_ocp::{MasterId, MasterPort, SlaveId, SlavePort};

    use super::*;

    /// Deterministic generator for the crate's generated-input tests.
    pub(crate) struct Xorshift(pub(crate) u64);

    impl Xorshift {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// One master link, one slave link, and a map whose second region,
    /// `m1`, names slave 1, which has no port.
    fn map_past_the_slave_ports() -> (Vec<SlavePort>, Vec<MasterPort>, Arc<AddressMap>) {
        let mut map = AddressMap::new();
        map.add("m0", 0x1000, 0x1000, SlaveId(0), RegionKind::SharedMemory)
            .unwrap();
        map.add("m1", 0x2000, 0x1000, SlaveId(1), RegionKind::SharedMemory)
            .unwrap();
        let mut links = LinkArena::new();
        let (_, master) = links.channel("cpu", MasterId(0));
        let (slave, _) = links.channel("mem", MasterId(0));
        (vec![master], vec![slave], Arc::new(map))
    }

    #[test]
    #[should_panic(expected = "region `m1` maps to slave 1 but the fabric has 1 slave ports")]
    fn amba_rejects_a_region_without_a_slave_port() {
        let (masters, slaves, map) = map_past_the_slave_ports();
        AmbaBus::new("amba", masters, slaves, map);
    }

    #[test]
    #[should_panic(expected = "region `m1` maps to slave 1 but the fabric has 1 slave ports")]
    fn crossbar_rejects_a_region_without_a_slave_port() {
        let (masters, slaves, map) = map_past_the_slave_ports();
        AmbaBus::crossbar("xbar", masters, slaves, map);
    }

    #[test]
    #[should_panic(expected = "region `m1` maps to slave 1 but the fabric has 1 slave ports")]
    fn ideal_rejects_a_region_without_a_slave_port() {
        let (masters, slaves, map) = map_past_the_slave_ports();
        IdealInterconnect::new("ideal", masters, slaves, map);
    }

    #[test]
    #[should_panic(expected = "region `m1` maps to slave 1 but the fabric has 1 slave ports")]
    fn xpipes_rejects_a_region_without_a_slave_port() {
        let (masters, slaves, map) = map_past_the_slave_ports();
        XpipesNoc::new("mesh", masters, slaves, map, XpipesConfig::auto(1, 1));
    }
}
