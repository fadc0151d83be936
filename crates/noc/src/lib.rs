//! Cycle-true interconnect models for the `ntg` platform.
//!
//! The reproduced paper measures its traffic generators on the AMBA AHB
//! interconnect of MPARM, validates trace translation against the ×pipes
//! packet-switched NoC, and mentions STBus as a third supported fabric.
//! This crate implements behavioural equivalents of all three, plus an
//! idealised fixed-latency fabric:
//!
//! * [`AmbaBus`] — a single-owner shared bus with centralised arbitration
//!   (round-robin or fixed priority): one transaction occupies the bus
//!   from grant to completion, like an AHB without split transfers.
//! * [`XpipesNoc`] — a 2D-mesh wormhole packet-switched NoC with XY
//!   routing, per-link backpressure and network-interface
//!   (de)packetisation, in the spirit of ×pipes.
//! * [`CrossbarBus`] — a full crossbar with per-slave arbitration
//!   (STBus-like): transactions to different slaves proceed in parallel.
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

mod amba;
mod crossbar;
mod ideal;
mod xpipes;

pub use amba::{AmbaBus, Arbitration, BusStats};
pub use crossbar::CrossbarBus;
pub use ideal::IdealInterconnect;
pub use xpipes::{XpipesConfig, XpipesNoc};

use ntg_ocp::{LinkArena, LinkId};
use ntg_sim::observe::Contention;
use ntg_sim::Component;

/// Which interconnect family a model belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterconnectKind {
    /// Shared bus ([`AmbaBus`]).
    Amba,
    /// Packet-switched mesh ([`XpipesNoc`]).
    Xpipes,
    /// Full crossbar ([`CrossbarBus`]).
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
