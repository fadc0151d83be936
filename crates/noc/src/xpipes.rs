//! The ×pipes-like wormhole packet-switched 2D-mesh NoC.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use ntg_mem::AddressMap;
use ntg_ocp::{LinkArena, LinkId, MasterPort, OcpRequest, OcpResponse, SlavePort};
use ntg_sim::observe::{Contention, LinkMetrics};
use ntg_sim::stats::Histogram;
use ntg_sim::{Activity, Component, Cycle};

use crate::{Interconnect, InterconnectKind};

/// Router port indices.
const NORTH: usize = 0;
const EAST: usize = 1;
const SOUTH: usize = 2;
const WEST: usize = 3;
const LOCAL: usize = 4;

/// The input port a flit leaving through mesh output `port` arrives on.
#[inline]
fn opposite(port: usize) -> usize {
    debug_assert!(port < LOCAL, "local port has no opposite");
    port ^ 2
}

/// Static configuration of a [`XpipesNoc`].
///
/// Each master and each slave is attached through a network interface
/// (NI) to the local port of one mesh node; at most one NI per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XpipesConfig {
    /// Mesh width (columns).
    pub width: u16,
    /// Mesh height (rows).
    pub height: u16,
    /// Node index (row-major) of each master NI.
    pub master_nodes: Vec<u16>,
    /// Node index (row-major) of each slave NI.
    pub slave_nodes: Vec<u16>,
    /// Router input FIFO depth in flits.
    pub input_fifo_flits: usize,
}

impl XpipesConfig {
    /// Default router input FIFO depth.
    pub const DEFAULT_FIFO_FLITS: usize = 4;

    /// Largest mesh: node ids and node-range bounds are `u16`.
    const MAX_NODES: usize = u16::MAX as usize;

    /// Builds the smallest near-square mesh that fits `n_masters` +
    /// `n_slaves` NIs, attaching masters first in row-major order, then
    /// slaves.
    ///
    /// # Panics
    ///
    /// Panics if that mesh would have more than 65 535 nodes.
    pub fn auto(n_masters: usize, n_slaves: usize) -> Self {
        let total = (n_masters + n_slaves).max(1);
        let mut width = 1usize;
        while width * width < total {
            width += 1;
        }
        let height = total.div_ceil(width);
        Self::check_dims(width, height);
        Self {
            width: width as u16,
            height: height as u16,
            master_nodes: (0..n_masters as u16).collect(),
            slave_nodes: (n_masters as u16..total as u16).collect(),
            input_fifo_flits: Self::DEFAULT_FIFO_FLITS,
        }
    }

    /// Builds an explicit `width`×`height` mesh with the canonical NI
    /// layout ([`XpipesConfig::auto`]'s): masters on nodes
    /// `0..n_masters` in row-major order, slaves directly after.
    ///
    /// # Panics
    ///
    /// Panics if the mesh has fewer nodes than NIs to attach, or more
    /// than 65 535.
    pub fn with_dims(width: u16, height: u16, n_masters: usize, n_slaves: usize) -> Self {
        Self::check_dims(width.into(), height.into());
        let total = n_masters + n_slaves;
        assert!(
            usize::from(width) * usize::from(height) >= total,
            "{width}x{height} mesh has {} nodes but needs {total} for its NIs",
            usize::from(width) * usize::from(height),
        );
        Self {
            width,
            height,
            master_nodes: (0..n_masters as u16).collect(),
            slave_nodes: (n_masters as u16..total as u16).collect(),
            input_fifo_flits: Self::DEFAULT_FIFO_FLITS,
        }
    }

    fn nodes(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    fn check_dims(width: usize, height: usize) {
        assert!(width >= 1 && height >= 1, "mesh must be non-empty");
        assert!(
            width * height <= Self::MAX_NODES,
            "{width}x{height} mesh has {} nodes but node ids are 16-bit (at most {})",
            width * height,
            Self::MAX_NODES,
        );
    }

    fn validate(&self, n_masters: usize, n_slaves: usize) {
        Self::check_dims(self.width.into(), self.height.into());
        assert!(
            (1..=usize::from(u16::MAX)).contains(&self.input_fifo_flits),
            "FIFOs must hold between 1 and {} flits",
            u16::MAX
        );
        assert_eq!(self.master_nodes.len(), n_masters, "one node per master");
        assert_eq!(self.slave_nodes.len(), n_slaves, "one node per slave");
        let mut seen = vec![false; self.nodes()];
        for &n in self.master_nodes.iter().chain(self.slave_nodes.iter()) {
            assert!(usize::from(n) < self.nodes(), "node {n} outside the mesh");
            assert!(!seen[n as usize], "node {n} hosts two NIs");
            seen[n as usize] = true;
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Flit {
    pid: u32,
    is_head: bool,
    is_tail: bool,
    dst: u16,
}

#[derive(Debug)]
enum Payload {
    Req {
        req: OcpRequest,
        src_master: usize,
    },
    Resp {
        resp: OcpResponse,
        dst_master: usize,
    },
}

#[derive(Debug)]
struct Packet {
    payload: Payload,
    injected_at: Cycle,
}

/// Packet ids are integers this program mints, so the packet table
/// hashes them with one multiply instead of SipHash. Nothing iterates
/// the table, so its internal order reaches no output.
#[derive(Default)]
struct PidHasher(u64);

impl Hasher for PidHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("packet ids hash through write_u32");
    }

    fn write_u32(&mut self, pid: u32) {
        self.0 = u64::from(pid).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type PacketTable = HashMap<u32, Packet, BuildHasherDefault<PidHasher>>;

/// `Router::out_owner` of an output no packet holds.
const NO_OWNER: u8 = u8::MAX;

/// One router's control state. Its five input FIFOs are rings of
/// `input_fifo_flits` slots in the mesh-wide flit slab
/// ([`XpipesNoc::fifo`]); the router's window of that slab is passed to
/// the methods that touch FIFO contents.
struct Router {
    /// Mesh coordinates, resolved once so a route is compares only.
    x: u16,
    y: u16,
    /// Ring cursor and fill of each input FIFO.
    head: [u16; 5],
    len: [u16; 5],
    /// Flits held: FIFO contents plus full output registers.
    load: u32,
    /// Bit `p` set: `out[p]` holds a flit.
    out_full: u8,
    /// Input whose packet holds output `p`, or [`NO_OWNER`].
    out_owner: [u8; 5],
    rr: [u8; 5],
    out: [Flit; 5],
}

impl Router {
    fn new(x: u16, y: u16) -> Self {
        Self {
            x,
            y,
            head: [0; 5],
            len: [0; 5],
            load: 0,
            out_full: 0,
            out_owner: [NO_OWNER; 5],
            rr: [0; 5],
            out: [Flit::default(); 5],
        }
    }

    fn is_empty(&self) -> bool {
        self.load == 0
    }

    /// XY route: which output port a flit here heading for mesh
    /// coordinates `(dx, dy)` takes.
    #[inline]
    fn route(&self, (dx, dy): (u16, u16)) -> usize {
        if dx > self.x {
            EAST
        } else if dx < self.x {
            WEST
        } else if dy > self.y {
            SOUTH
        } else if dy < self.y {
            NORTH
        } else {
            LOCAL
        }
    }

    #[inline]
    fn front(&self, fifo: &[Flit], depth: usize, inp: usize) -> Option<Flit> {
        (self.len[inp] > 0).then(|| fifo[inp * depth + usize::from(self.head[inp])])
    }

    #[inline]
    fn push(&mut self, fifo: &mut [Flit], depth: usize, inp: usize, flit: Flit) {
        debug_assert!(usize::from(self.len[inp]) < depth);
        let mut at = usize::from(self.head[inp]) + usize::from(self.len[inp]);
        if at >= depth {
            at -= depth;
        }
        fifo[inp * depth + at] = flit;
        self.len[inp] += 1;
        self.load += 1;
    }

    /// Moves the front flit of (non-empty) input `inp` into output
    /// register `p`.
    #[inline]
    fn advance(&mut self, fifo: &[Flit], depth: usize, inp: usize, p: usize) -> Flit {
        let head = usize::from(self.head[inp]);
        let flit = fifo[inp * depth + head];
        self.head[inp] = if head + 1 == depth {
            0
        } else {
            head as u16 + 1
        };
        self.len[inp] -= 1;
        self.out[p] = flit;
        self.out_full |= 1 << p;
        flit
    }

    /// Empties output register `p` once its flit has moved on.
    #[inline]
    fn clear_out(&mut self, p: usize) {
        self.out_full &= !(1 << p);
        self.load -= 1;
    }

    /// Switch stage of one router: moves at most one flit per input
    /// from the input FIFOs into free output registers, wormhole style,
    /// and returns the contention events observed — every head flit
    /// that wanted an output and did not advance (blocked by the output
    /// register, an owning packet, or a lost arbitration round).
    ///
    /// Each input's head flit is routed once into a request mask per
    /// output. The snapshot stays exact while outputs are served: an
    /// input's front only changes when that input is marked `used`, and
    /// used inputs are masked out of every later count and grant.
    fn switch(&mut self, fifo: &[Flit], depth: usize, xy: &[(u16, u16)]) -> u64 {
        let mut want = [0u8; 5];
        for inp in 0..5 {
            if let Some(f) = self.front(fifo, depth, inp) {
                if f.is_head {
                    want[self.route(xy[usize::from(f.dst)])] |= 1 << inp;
                }
            }
        }
        let mut used = 0u8;
        let mut conflicts = 0;
        for (p, &requests) in want.iter().enumerate() {
            let heads = u32::from(requests & !used);
            let wanters = heads.count_ones();
            if self.out_full & (1 << p) != 0 {
                conflicts += wanters;
                continue;
            }
            let owner = self.out_owner[p];
            let inp = if owner != NO_OWNER {
                // Continue the owning packet first.
                conflicts += wanters;
                if used & (1 << owner) != 0 || self.len[usize::from(owner)] == 0 {
                    continue;
                }
                usize::from(owner)
            } else {
                // Otherwise arbitrate round-robin among requesting
                // heads: rotate the mask so bit 0 is `rr[p]`'s turn.
                conflicts += wanters.saturating_sub(1);
                if heads == 0 {
                    continue;
                }
                let start = u32::from(self.rr[p]);
                let turn = ((heads >> start) | (heads << (5 - start))) & 0x1f;
                let inp = ((start + turn.trailing_zeros()) % 5) as usize;
                self.rr[p] = ((inp + 1) % 5) as u8;
                inp
            };
            let flit = self.advance(fifo, depth, inp, p);
            used |= 1 << inp;
            self.out_owner[p] = if flit.is_tail { NO_OWNER } else { inp as u8 };
        }
        u64::from(conflicts)
    }
}

/// The packet an NI is injecting. Flits are minted on demand from the
/// packet's id, length and destination, so there is no queue to fill.
#[derive(Default)]
struct TxPacket {
    pid: u32,
    dst: u16,
    sent: u32,
    len: u32,
}

impl TxPacket {
    fn new(pid: u32, len: u32, dst: u16) -> Self {
        Self {
            pid,
            dst,
            sent: 0,
            len,
        }
    }

    /// Every flit has left the NI.
    fn is_empty(&self) -> bool {
        self.sent == self.len
    }

    fn next_flit(&mut self) -> Flit {
        debug_assert!(!self.is_empty());
        self.sent += 1;
        Flit {
            pid: self.pid,
            is_head: self.sent == 1,
            is_tail: self.sent == self.len,
            dst: self.dst,
        }
    }
}

struct MasterNi {
    link: SlavePort,
    node: u16,
    tx: TxPacket,
}

struct SlaveNi {
    link: MasterPort,
    node: u16,
    /// Fully reassembled request packets awaiting device service.
    pending: VecDeque<u32>,
    /// Request forwarded to the device: `(src_master, expects_response)`.
    busy: Option<(usize, bool)>,
    tx: TxPacket,
}

#[derive(Debug, Clone, Copy)]
enum Attach {
    None,
    Master(usize),
    Slave(usize),
}

/// Aggregate NoC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Packets injected (requests + responses).
    pub packets: u64,
    /// Individual flit link traversals.
    pub flit_hops: u64,
}

/// A wormhole-switched 2D-mesh NoC with XY routing, in the spirit of
/// ×pipes.
///
/// Requests are packetised at the issuing master's network interface
/// (head flit + one address/command flit + one flit per write-data word),
/// routed dimension-ordered (X first) through input-buffered routers, and
/// reassembled at the target slave's NI, which then performs the OCP
/// transaction against the device and — for reads — sends a response
/// packet back. Links carry one flit per cycle; a hop costs two cycles
/// (switch + link); backpressure is by input-FIFO occupancy, so congested
/// packets stall in place like real wormhole flow control.
///
/// Posted writes unblock the master as soon as its NI accepts the
/// request, which is earlier than on the [`AmbaBus`](crate::AmbaBus) —
/// exactly the kind of architecture-dependent timing difference the
/// paper's reactive traffic generators must absorb.
pub struct XpipesNoc {
    name: String,
    cfg: XpipesConfig,
    map: Arc<AddressMap>,
    routers: Vec<Router>,
    /// Every router input FIFO in one slab: router `r`'s input `p` is
    /// the ring `fifo[(r * 5 + p) * input_fifo_flits..][..input_fifo_flits]`.
    fifo: Vec<Flit>,
    /// Mesh coordinates of every node, so routing a
    /// flit never divides.
    xy: Vec<(u16, u16)>,
    master_nis: Vec<MasterNi>,
    slave_nis: Vec<SlaveNi>,
    attach: Vec<Attach>,
    packets: PacketTable,
    next_pid: u32,
    stats: NocStats,
    packet_latency: Histogram,
    transactions: u64,
    decode_errors: u64,
    conflicts: u64,
    grant_wait: Histogram,
    links: Vec<LinkMetrics>,
    /// Indices of routers currently holding flits — the
    /// O(active-router) worklist the per-cycle stages iterate instead of
    /// scanning every router, so idle routers in a big mesh cost nothing.
    active: Vec<u32>,
    /// Membership flags for `active`, indexed by router.
    in_active: Vec<bool>,
    /// Armed-NI worklists (see [`Interconnect::set_event_driven`]).
    event: EventState,
}

/// Which NI reads a given arena link — the routing table behind
/// [`Interconnect::wake_link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NiTarget {
    None,
    Master(u32),
    Slave(u32),
}

/// Armed-NI worklists: the NI stage steps exactly the armed NIs, in
/// ascending index order — a bitset's natural iteration order, and the
/// order of a scan over every NI, so per-cycle side effects (packet-id
/// minting, statistics) land identically however few NIs are armed.
///
/// In event-driven operation an NI stays armed only while it has (or
/// may have) per-cycle work, and every cross-component touch that could
/// give an idle NI work re-arms it via [`Interconnect::wake_link`]. A
/// disarmed NI's step is provably a no-op, so skipping it is
/// bit-identical to stepping it. Otherwise every NI stays armed.
#[derive(Debug)]
struct EventState {
    /// Bit `i` set: master NI `i` is armed.
    mni_armed: Vec<u64>,
    /// Bit `i` set: slave NI `i` is armed.
    sni_armed: Vec<u64>,
    /// Arena link id → this instance's NI; empty unless event-driven.
    targets: Vec<NiTarget>,
    /// Event-driven: NIs that prove themselves idle are disarmed.
    disarm: bool,
}

impl EventState {
    /// Every NI armed and never disarmed: the dense scan.
    fn dense(n_masters: usize, n_slaves: usize) -> Self {
        let all = |n: usize| {
            let mut bits = vec![0u64; n.div_ceil(64)];
            for i in 0..n {
                bits[i / 64] |= 1 << (i % 64);
            }
            bits
        };
        Self {
            mni_armed: all(n_masters),
            sni_armed: all(n_slaves),
            targets: Vec::new(),
            disarm: false,
        }
    }

    #[inline]
    fn arm_mni(&mut self, i: usize) {
        self.mni_armed[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn arm_sni(&mut self, i: usize) {
        self.sni_armed[i / 64] |= 1 << (i % 64);
    }
}

impl XpipesNoc {
    /// Creates the NoC.
    ///
    /// Indexing conventions match [`AmbaBus::new`](crate::AmbaBus::new);
    /// `cfg` supplies the topology.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent with the number of masters/slaves
    /// (see [`XpipesConfig`]).
    pub fn new(
        name: impl Into<String>,
        masters: Vec<SlavePort>,
        slaves: Vec<MasterPort>,
        map: Arc<AddressMap>,
        cfg: XpipesConfig,
    ) -> Self {
        cfg.validate(masters.len(), slaves.len());
        let mut attach = vec![Attach::None; cfg.nodes()];
        let master_nis: Vec<MasterNi> = masters
            .into_iter()
            .zip(cfg.master_nodes.iter())
            .map(|(link, &node)| MasterNi {
                link,
                node,
                tx: TxPacket::default(),
            })
            .collect();
        let slave_nis: Vec<SlaveNi> = slaves
            .into_iter()
            .zip(cfg.slave_nodes.iter())
            .map(|(link, &node)| SlaveNi {
                link,
                node,
                pending: VecDeque::new(),
                busy: None,
                tx: TxPacket::default(),
            })
            .collect();
        let links = vec![LinkMetrics::default(); master_nis.len()];
        for (i, ni) in master_nis.iter().enumerate() {
            attach[ni.node as usize] = Attach::Master(i);
        }
        for (i, ni) in slave_nis.iter().enumerate() {
            attach[ni.node as usize] = Attach::Slave(i);
        }
        let xy: Vec<(u16, u16)> = (0..cfg.height)
            .flat_map(|y| (0..cfg.width).map(move |x| (x, y)))
            .collect();
        let routers: Vec<Router> = xy.iter().map(|&(x, y)| Router::new(x, y)).collect();
        let nodes = routers.len();
        let event = EventState::dense(master_nis.len(), slave_nis.len());
        Self {
            name: name.into(),
            fifo: vec![Flit::default(); nodes * 5 * cfg.input_fifo_flits],
            cfg,
            map,
            routers,
            xy,
            master_nis,
            slave_nis,
            attach,
            packets: PacketTable::default(),
            next_pid: 0,
            stats: NocStats::default(),
            packet_latency: Histogram::new("packet_latency_cycles"),
            transactions: 0,
            decode_errors: 0,
            conflicts: 0,
            grant_wait: Histogram::new("grant_wait_cycles"),
            links,
            active: Vec::with_capacity(nodes),
            in_active: vec![false; nodes],
            event,
        }
    }

    /// Accumulated NoC statistics.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// Packet latency histogram (injection of the head flit to delivery
    /// of the tail flit, in cycles).
    pub fn packet_latency(&self) -> &Histogram {
        &self.packet_latency
    }

    /// Appends `flit` to input `inp` of router `r` (the caller
    /// has checked there is room) and puts the router on the worklist.
    #[inline]
    fn push_flit(&mut self, r: usize, inp: usize, flit: Flit) {
        let depth = self.cfg.input_fifo_flits;
        let window = &mut self.fifo[r * 5 * depth..][..5 * depth];
        self.routers[r].push(window, depth, inp, flit);
        self.mark_active(r);
    }

    /// Whether input `inp` of router `r` can take another flit.
    #[inline]
    fn has_room(&self, r: usize, inp: usize) -> bool {
        usize::from(self.routers[r].len[inp]) < self.cfg.input_fifo_flits
    }

    /// Marks router `r` as holding flits, enqueuing it on the
    /// active worklist if it was idle.
    #[inline]
    fn mark_active(&mut self, r: usize) {
        if !self.in_active[r] {
            self.in_active[r] = true;
            self.active.push(r as u32);
        }
    }

    /// Drops routers that drained this cycle from the active worklist.
    fn sweep_idle(&mut self) {
        let routers = &self.routers;
        let in_active = &mut self.in_active;
        self.active.retain(|&r| {
            let keep = !routers[r as usize].is_empty();
            if !keep {
                in_active[r as usize] = false;
            }
            keep
        });
    }

    /// Link stage: move output-register flits into downstream input
    /// FIFOs (or deliver locally), honouring backpressure.
    ///
    /// Iterates the active worklist, which may grow while iterating (a
    /// push activates the downstream router); a freshly activated router
    /// visited in the same pass has empty output registers, so the
    /// late visit is a no-op and results match a full scan exactly.
    fn link_stage(&mut self, net: &mut LinkArena, now: Cycle) {
        // Index distance to the neighbour behind each mesh port. XY
        // routing never steers a flit off the mesh edge.
        let w = usize::from(self.cfg.width);
        let step = [w.wrapping_neg(), 1, w, usize::MAX];
        let mut idx = 0;
        while idx < self.active.len() {
            let r = self.active[idx] as usize;
            idx += 1;
            let mut full = self.routers[r].out_full;
            while full != 0 {
                let p = full.trailing_zeros() as usize;
                full &= full - 1;
                let flit = self.routers[r].out[p];
                if p == LOCAL {
                    if self.deliver_local(net, r as u16, flit, now) {
                        self.routers[r].clear_out(p);
                    }
                    continue;
                }
                let nbr = r.wrapping_add(step[p]);
                if self.has_room(nbr, opposite(p)) {
                    self.push_flit(nbr, opposite(p), flit);
                    self.routers[r].clear_out(p);
                    self.stats.flit_hops += 1;
                }
            }
        }
    }

    /// Records a delivered packet's injection-to-delivery latency.
    fn record_latency(&mut self, packet: &Packet, now: Cycle) {
        debug_assert!(packet.injected_at <= now, "packet injected in the future");
        self.packet_latency.record(now - packet.injected_at);
    }

    /// Delivers a flit to the NI on `node`. Returns false on
    /// backpressure.
    fn deliver_local(&mut self, net: &mut LinkArena, node: u16, flit: Flit, now: Cycle) -> bool {
        match self.attach[node as usize] {
            Attach::None => panic!("flit routed to node {node} which has no NI"),
            Attach::Master(i) => {
                // Master NIs always sink response flits.
                if flit.is_tail {
                    let packet = self
                        .packets
                        .remove(&flit.pid)
                        .expect("tail of unknown packet");
                    self.record_latency(&packet, now);
                    let Payload::Resp { resp, dst_master } = packet.payload else {
                        panic!("request packet delivered to a master NI")
                    };
                    debug_assert_eq!(dst_master, i);
                    self.master_nis[i].link.push_response(net, resp, now);
                }
                true
            }
            Attach::Slave(i) => {
                // Bounded reassembly: refuse new flits while two complete
                // packets already wait, creating wormhole backpressure.
                if self.slave_nis[i].pending.len() >= 2 {
                    return false;
                }
                if flit.is_tail {
                    self.slave_nis[i].pending.push_back(flit.pid);
                    // The link stage runs before the NI stage, so the NI
                    // can serve this packet in the same cycle it would
                    // under a dense scan.
                    self.event.arm_sni(i);
                }
                true
            }
        }
    }

    /// Switch stage: every active router moves at most one flit per
    /// input into its output registers (see [`Router::switch`]).
    fn switch_stage(&mut self) {
        let depth = self.cfg.input_fifo_flits;
        // Switching moves flits within one router, so the worklist
        // cannot grow mid-pass.
        for &r in &self.active {
            let r = r as usize;
            let window = &self.fifo[r * 5 * depth..][..5 * depth];
            self.conflicts += self.routers[r].switch(window, depth, &self.xy);
        }
    }

    /// NI stage: accept fresh requests, feed injection FIFOs, talk to
    /// devices. Steps the armed NIs in ascending order, masters first
    /// (see [`EventState`]); the disarm conditions guarantee a skipped
    /// NI's step would have been a no-op.
    fn ni_stage(&mut self, net: &mut LinkArena, now: Cycle) {
        for w in 0..self.event.mni_armed.len() {
            let mut bits = self.event.mni_armed[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.mni_step(i, net, now);
                // Keep while there are flits to inject or a request
                // (even a future-visible one) to accept; anything that
                // gives an idle master NI new work asserts a request,
                // which re-arms it via `wake_link`.
                let ni = &self.master_nis[i];
                if self.event.disarm
                    && ni.tx.is_empty()
                    && ni.link.request_visible_at(net).is_none()
                {
                    self.event.mni_armed[w] &= !(1 << (i % 64));
                }
            }
        }
        for w in 0..self.event.sni_armed.len() {
            let mut bits = self.event.sni_armed[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.sni_step(i, net, now);
                // Keep while injecting or holding reassembled packets.
                // A busy-waiting NI (`busy` set, queues empty) polls
                // `take_response` (read) or `take_accept` (write), which
                // returns `None` until the slave produces that event —
                // which re-arms it via `wake_link` — so disarming it
                // skips only no-op polls.
                let ni = &self.slave_nis[i];
                if self.event.disarm && ni.tx.is_empty() && ni.pending.is_empty() {
                    self.event.sni_armed[w] &= !(1 << (i % 64));
                }
            }
        }
    }

    /// One master NI's per-cycle work: accept a fresh request once the
    /// previous packet fully left the NI, inject at most one flit.
    fn mni_step(&mut self, i: usize, net: &mut LinkArena, now: Cycle) {
        // Accept a fresh request once the previous packet left.
        if self.master_nis[i].tx.is_empty() {
            if let Some((addr, _, _)) = self.master_nis[i].link.peek_meta(net, now) {
                match self.map.slave_for(addr) {
                    None => {
                        let req = self.master_nis[i]
                            .link
                            .accept_request(net, now)
                            .expect("peeked request is still there");
                        self.decode_errors += 1;
                        if req.cmd.expects_response() {
                            self.master_nis[i].link.push_response(
                                net,
                                OcpResponse::error(req.tag),
                                now,
                            );
                        }
                    }
                    Some(slave) => {
                        let stall = now
                            - self.master_nis[i]
                                .link
                                .request_visible_at(net)
                                .expect("peeked request is visible");
                        let req = self.master_nis[i]
                            .link
                            .accept_request(net, now)
                            .expect("peeked request is still there");
                        self.transactions += 1;
                        self.grant_wait.record(stall);
                        self.links[i].grants += 1;
                        self.links[i].stall_cycles += stall;
                        let dst = self.cfg.slave_nodes[slave.0 as usize];
                        let len = 2 + req.data.len() as u32;
                        self.links[i].busy_cycles += u64::from(len);
                        let pid = self.next_pid;
                        self.next_pid += 1;
                        self.packets.insert(
                            pid,
                            Packet {
                                payload: Payload::Req { req, src_master: i },
                                injected_at: now,
                            },
                        );
                        self.master_nis[i].tx = TxPacket::new(pid, len, dst);
                        self.stats.packets += 1;
                    }
                }
            }
        }
        // Inject at most one flit per cycle.
        let node = self.master_nis[i].node as usize;
        if !self.master_nis[i].tx.is_empty() && self.has_room(node, LOCAL) {
            let flit = self.master_nis[i].tx.next_flit();
            self.push_flit(node, LOCAL, flit);
        }
    }

    /// One slave NI's per-cycle work: complete the in-flight device
    /// transaction, start the next reassembled request, inject at most
    /// one response flit.
    fn sni_step(&mut self, i: usize, net: &mut LinkArena, now: Cycle) {
        // Completion?
        if let Some((src_master, expects)) = self.slave_nis[i].busy {
            if expects {
                if let Some(resp) = self.slave_nis[i].link.take_response(net, now) {
                    let dst = self.cfg.master_nodes[src_master];
                    let len = 1 + resp.data.len() as u32;
                    self.links[src_master].busy_cycles += u64::from(len);
                    let pid = self.next_pid;
                    self.next_pid += 1;
                    self.packets.insert(
                        pid,
                        Packet {
                            payload: Payload::Resp {
                                resp,
                                dst_master: src_master,
                            },
                            injected_at: now,
                        },
                    );
                    self.slave_nis[i].tx = TxPacket::new(pid, len, dst);
                    self.stats.packets += 1;
                    self.slave_nis[i].busy = None;
                }
            } else if self.slave_nis[i].link.take_accept(net, now).is_some() {
                self.slave_nis[i].busy = None;
            }
        }
        // Start the next pending request once the link and the
        // response path are free.
        if self.slave_nis[i].busy.is_none()
            && self.slave_nis[i].tx.is_empty()
            && !self.slave_nis[i].link.request_pending(net)
        {
            if let Some(pid) = self.slave_nis[i].pending.pop_front() {
                let packet = self.packets.remove(&pid).expect("pending packet exists");
                self.record_latency(&packet, now);
                let Payload::Req { req, src_master } = packet.payload else {
                    panic!("response packet delivered to a slave NI")
                };
                let expects = req.cmd.expects_response();
                self.slave_nis[i].link.forward_request(net, req, now);
                self.slave_nis[i].busy = Some((src_master, expects));
            }
        }
        // Inject at most one response flit per cycle.
        let node = self.slave_nis[i].node as usize;
        if !self.slave_nis[i].tx.is_empty() && self.has_room(node, LOCAL) {
            let flit = self.slave_nis[i].tx.next_flit();
            self.push_flit(node, LOCAL, flit);
        }
    }

    /// First half of a tick: the link stage. Public so a harness can
    /// time the two halves apart.
    pub fn phase_link(&mut self, net: &mut LinkArena, now: Cycle) {
        self.link_stage(net, now);
    }

    /// Second half of a tick: the switch and NI stages.
    /// [`XpipesNoc::phase_link`] then this method is exactly one tick.
    pub fn phase_switch_ni(&mut self, net: &mut LinkArena, now: Cycle) {
        self.switch_stage();
        self.ni_stage(net, now);
        self.sweep_idle();
    }
}

impl Component<LinkArena> for XpipesNoc {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        self.phase_link(net, now);
        self.phase_switch_ni(net, now);
    }

    fn is_idle(&self, net: &LinkArena) -> bool {
        self.packets.is_empty()
            && self.active.is_empty()
            && self
                .master_nis
                .iter()
                .all(|ni| ni.tx.is_empty() && ni.link.is_quiet(net))
            && self.slave_nis.iter().all(|ni| {
                ni.tx.is_empty()
                    && ni.pending.is_empty()
                    && ni.busy.is_none()
                    && ni.link.is_quiet(net)
            })
    }

    // Ticks are complete no-ops while the network is drained, so the
    // default no-op `skip` is exact.
    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        // Any flit, pending delivery, or outstanding slave transaction
        // means the pipeline advances every cycle.
        let in_flight = !self.packets.is_empty()
            || !self.active.is_empty()
            || self.master_nis.iter().any(|ni| !ni.tx.is_empty())
            || self
                .slave_nis
                .iter()
                .any(|ni| !ni.tx.is_empty() || !ni.pending.is_empty() || ni.busy.is_some());
        if in_flight {
            return Activity::Busy;
        }
        let mut wake: Option<Cycle> = None;
        for ni in &self.master_nis {
            match ni.link.request_visible_at(net) {
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
}

impl Interconnect for XpipesNoc {
    fn kind(&self) -> InterconnectKind {
        InterconnectKind::Xpipes
    }

    fn transactions(&self) -> u64 {
        self.transactions
    }

    fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    fn latency_summary(&self) -> Option<(f64, u64)> {
        Some((self.packet_latency.mean()?, self.packet_latency.max()?))
    }

    // Flit hops are the mesh's unit of link occupancy: each hop keeps
    // one link busy for one cycle.
    fn utilization_cycles(&self) -> u64 {
        self.stats.flit_hops
    }

    fn contention(&self) -> Contention {
        Contention {
            conflicts: self.conflicts,
            grant_wait: self.grant_wait.clone(),
            links: self.links.clone(),
        }
    }

    fn set_event_driven(&mut self, on: bool) {
        // Either way every NI starts armed; event-driven NIs then prove
        // themselves idle through the disarm conditions.
        self.event = EventState::dense(self.master_nis.len(), self.slave_nis.len());
        if !on {
            return;
        }
        let ev = &mut self.event;
        ev.disarm = true;
        let n_links = self
            .master_nis
            .iter()
            .map(|ni| ni.link.id().index())
            .chain(self.slave_nis.iter().map(|ni| ni.link.id().index()))
            .max()
            .map_or(0, |m| m + 1);
        ev.targets = vec![NiTarget::None; n_links];
        for (i, ni) in self.master_nis.iter().enumerate() {
            ev.targets[ni.link.id().index()] = NiTarget::Master(i as u32);
        }
        for (i, ni) in self.slave_nis.iter().enumerate() {
            ev.targets[ni.link.id().index()] = NiTarget::Slave(i as u32);
        }
    }

    fn wake_link(&mut self, link: LinkId) {
        match self.event.targets.get(link.index()) {
            Some(&NiTarget::Master(i)) => self.event.arm_mni(i as usize),
            Some(&NiTarget::Slave(i)) => self.event.arm_sni(i as usize),
            Some(NiTarget::None) | None => {}
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use ntg_mem::{MemoryDevice, RegionKind};
    use ntg_ocp::{MasterId, OcpRequest, OcpStatus, SlaveId};

    /// A `w`×`h` mesh with the canonical NI layout, one memory behind
    /// every slave NI and the master ends of the master links.
    struct Rig {
        links: LinkArena,
        noc: XpipesNoc,
        mems: Vec<MemoryDevice>,
        cpus: Vec<MasterPort>,
    }

    fn mesh_rig(w: u16, h: u16, n_masters: usize, n_slaves: usize, depth: usize) -> Rig {
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
        for i in 0..n_slaves {
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
            mems.push(MemoryDevice::new(format!("mem{i}"), base, 0x1000, s));
        }
        let mut cfg = XpipesConfig::with_dims(w, h, n_masters, n_slaves);
        cfg.input_fifo_flits = depth;
        let noc = XpipesNoc::new("mesh", net_masters, net_slaves, Arc::new(map), cfg);
        Rig {
            links,
            noc,
            mems,
            cpus,
        }
    }

    /// The smallest mesh for `n_masters` masters and two memories.
    fn rig(n_masters: usize) -> Rig {
        let cfg = XpipesConfig::auto(n_masters, 2);
        let depth = XpipesConfig::DEFAULT_FIFO_FLITS;
        mesh_rig(cfg.width, cfg.height, n_masters, 2, depth)
    }

    fn step(r: &mut Rig, now: Cycle) {
        r.noc.tick(now, &mut r.links);
        for m in &mut r.mems {
            m.tick(now, &mut r.links);
        }
    }

    #[test]
    fn auto_config_builds_a_valid_mesh() {
        let cfg = XpipesConfig::auto(12, 14);
        assert!(cfg.nodes() >= 26);
        assert_eq!(cfg.master_nodes.len(), 12);
        assert_eq!(cfg.slave_nodes.len(), 14);
    }

    #[test]
    fn read_round_trips_through_the_mesh() {
        let mut r = rig(1);
        r.mems[0].poke(0x1010, 4242);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1010), 0);
        for now in 0..100 {
            step(&mut r, now);
            if let Some(resp) = r.cpus[0].take_response(&mut r.links, now) {
                assert_eq!(resp.data, vec![4242]);
                assert!(
                    now > 6,
                    "NoC must be slower than the bus for one hop ({now})"
                );
                assert!(r.noc.stats().packets == 2, "request + response");
                return;
            }
        }
        panic!("no response");
    }

    #[test]
    fn posted_write_unblocks_at_the_ni() {
        let mut r = rig(1);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::write(0x2000, 31), 0);
        let mut accepted_at = None;
        for now in 0..100 {
            step(&mut r, now);
            if accepted_at.is_none() && r.cpus[0].take_accept(&mut r.links, now).is_some() {
                accepted_at = Some(now);
            }
        }
        assert_eq!(accepted_at, Some(2), "NI accepts before network transit");
        assert_eq!(r.mems[1].peek(0x2000), 31, "write still lands remotely");
    }

    #[test]
    fn burst_read_reassembles_whole_line() {
        let mut r = rig(1);
        r.mems[0].load_words(0x1000, &[5, 6, 7, 8]);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::burst_read(0x1000, 4), 0);
        for now in 0..200 {
            step(&mut r, now);
            if let Some(resp) = r.cpus[0].take_response(&mut r.links, now) {
                assert_eq!(resp.data, vec![5, 6, 7, 8]);
                return;
            }
        }
        panic!("no response");
    }

    #[test]
    fn two_masters_different_slaves_overlap() {
        let mut r = rig(2);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        r.cpus[1].assert_request(&mut r.links, OcpRequest::read(0x2000), 0);
        let mut done = [None, None];
        for now in 0..200 {
            step(&mut r, now);
            for c in 0..2 {
                if done[c].is_none() && r.cpus[c].take_response(&mut r.links, now).is_some() {
                    done[c] = Some(now);
                }
            }
        }
        let (a, b) = (done[0].unwrap(), done[1].unwrap());
        // With per-slave paths the two reads overlap almost fully; they
        // must not be serialised end-to-end.
        assert!(b < a + 6, "reads should overlap: {a} vs {b}");
    }

    #[test]
    fn unmapped_read_errors_without_touching_the_mesh() {
        let mut r = rig(1);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0xDEAD_0000), 0);
        for now in 0..20 {
            step(&mut r, now);
            if let Some(resp) = r.cpus[0].take_response(&mut r.links, now) {
                assert_eq!(resp.status, OcpStatus::Error);
                assert_eq!(r.noc.stats().packets, 0);
                return;
            }
        }
        panic!("no response");
    }

    #[test]
    fn heavy_same_slave_traffic_all_completes() {
        let mut r = rig(2);
        let mut remaining = [10u32, 10];
        let mut completions = 0u32;
        for now in 0..5_000 {
            for c in 0..2 {
                if r.cpus[c].take_response(&mut r.links, now).is_some() {
                    completions += 1;
                }
                if !r.cpus[c].request_pending(&r.links) && remaining[c] > 0 {
                    r.cpus[c].assert_request(
                        &mut r.links,
                        OcpRequest::read(0x1000 + c as u32 * 8),
                        now,
                    );
                    remaining[c] -= 1;
                }
            }
            step(&mut r, now);
        }
        assert_eq!(completions, 20, "wormhole contention must not deadlock");
        assert!(r.noc.is_idle(&r.links));
    }

    #[test]
    fn write_data_flits_lengthen_packets() {
        let mut r = rig(1);
        r.cpus[0].assert_request(
            &mut r.links,
            OcpRequest::burst_write(0x1000, vec![1, 2, 3, 4]),
            0,
        );
        for now in 0..200 {
            step(&mut r, now);
            r.cpus[0].take_accept(&mut r.links, now);
        }
        assert_eq!(r.mems[0].peek(0x100C), 4);
        // 6 flits request (head + cmd + 4 data), no response packet.
        assert_eq!(r.noc.stats().packets, 1);
        assert!(r.noc.is_idle(&r.links));
    }

    #[test]
    fn xy_routing_goes_x_first() {
        // 3×3 mesh; master at node 0 (0,0), slaves at nodes 4 (1,1) and
        // 8 (2,2). The route function is internal, but its effect is
        // observable: traffic to both slaves must arrive (tested above);
        // here we check the topology helpers via auto-config shapes.
        let cfg = XpipesConfig::auto(1, 2);
        assert_eq!(cfg.width, 2);
        assert_eq!(cfg.height, 2);
        let cfg = XpipesConfig::auto(5, 4);
        assert_eq!(cfg.width, 3, "9 NIs need a 3-wide mesh");
        assert_eq!(cfg.height, 3);
    }

    #[test]
    fn single_node_mesh_is_rejected_with_two_nis() {
        let cfg = XpipesConfig::auto(0, 1);
        assert_eq!(cfg.nodes(), 1);
        // 1 master + 1 slave cannot share node 0.
        let bad = XpipesConfig {
            width: 1,
            height: 1,
            master_nodes: vec![0],
            slave_nodes: vec![0],
            input_fifo_flits: 2,
        };
        let map = Arc::new(AddressMap::new());
        let mut links = LinkArena::new();
        let (_, s) = links.channel("cpu", MasterId(0));
        let (m, _) = links.channel("slave", MasterId(0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            XpipesNoc::new("bad", vec![s], vec![m], map, bad)
        }));
        assert!(r.is_err(), "two NIs on one node must be rejected");
    }

    #[test]
    fn min_fifo_depth_still_delivers() {
        // FIFO depth 1: maximal backpressure, still no deadlock.
        let mut mapm = AddressMap::new();
        mapm.add("m0", 0x1000, 0x1000, SlaveId(0), RegionKind::SharedMemory)
            .unwrap();
        mapm.add("m1", 0x2000, 0x1000, SlaveId(1), RegionKind::SharedMemory)
            .unwrap();
        let mut links = LinkArena::new();
        let (cpu, s0) = links.channel("cpu0", MasterId(0));
        let (m0, sl0) = links.channel("sl0", MasterId(0));
        let (m1, sl1) = links.channel("sl1", MasterId(0));
        let mut mem0 = MemoryDevice::new("mem0", 0x1000, 0x1000, sl0);
        let mut mem1 = MemoryDevice::new("mem1", 0x2000, 0x1000, sl1);
        let mut cfg = XpipesConfig::auto(1, 2);
        cfg.input_fifo_flits = 1;
        let mut noc = XpipesNoc::new("tight", vec![s0], vec![m0, m1], Arc::new(mapm), cfg);
        mem0.poke(0x1004, 99);
        cpu.assert_request(&mut links, OcpRequest::burst_read(0x1000, 4), 0);
        for now in 0..500 {
            noc.tick(now, &mut links);
            mem0.tick(now, &mut links);
            mem1.tick(now, &mut links);
            if let Some(resp) = cpu.take_response(&mut links, now) {
                assert_eq!(resp.data[1], 99);
                return;
            }
        }
        panic!("depth-1 FIFOs must still deliver");
    }

    #[test]
    fn mesh_contention_is_observed_per_master() {
        // Two long write packets race for the same slave: the second
        // head must lose arbitration somewhere along the shared path.
        let mut r = rig(2);
        r.cpus[0].assert_request(
            &mut r.links,
            OcpRequest::burst_write(0x1000, vec![1, 2, 3, 4]),
            0,
        );
        r.cpus[1].assert_request(
            &mut r.links,
            OcpRequest::burst_write(0x1010, vec![5, 6, 7, 8]),
            0,
        );
        for now in 0..300 {
            step(&mut r, now);
            r.cpus[0].take_accept(&mut r.links, now);
            r.cpus[1].take_accept(&mut r.links, now);
        }
        assert!(r.noc.is_idle(&r.links));
        let c = r.noc.contention();
        assert_eq!(c.links[0].grants, 1);
        assert_eq!(c.links[1].grants, 1);
        // 6 flits per write packet (head + cmd + 4 data), no response.
        assert_eq!(c.links[0].busy_cycles, 6);
        assert_eq!(c.links[1].busy_cycles, 6);
        assert_eq!(c.grant_wait.count(), 2);
        assert!(c.conflicts >= 1, "wormhole blocking must be visible");
        assert_eq!(r.noc.utilization_cycles(), r.noc.stats().flit_hops);
    }

    #[test]
    #[should_panic(expected = "hosts two NIs")]
    fn overlapping_attachment_rejected() {
        let cfg = XpipesConfig {
            width: 2,
            height: 2,
            master_nodes: vec![0],
            slave_nodes: vec![0],
            input_fifo_flits: 4,
        };
        let map = Arc::new(AddressMap::new());
        let mut links = LinkArena::new();
        let (_, s) = links.channel("cpu", MasterId(0));
        let (m, _) = links.channel("slave", MasterId(0));
        let _ = XpipesNoc::new("bad", vec![s], vec![m], map, cfg);
    }

    #[test]
    fn meshes_beyond_16_bit_node_ids_are_rejected() {
        let rejects = |f: fn() -> XpipesConfig, what: &str| {
            let err = std::panic::catch_unwind(f).expect_err(what);
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("node ids are 16-bit"), "{what}: {msg}");
        };
        // 65 536 nodes used to wrap `nodes()` to 0 in release builds.
        rejects(|| XpipesConfig::with_dims(256, 256, 1, 1), "with_dims");
        rejects(|| XpipesConfig::auto(65_000, 600), "auto");
        rejects(
            || {
                let mut cfg = XpipesConfig::auto(1, 1);
                (cfg.width, cfg.height) = (4096, 16);
                cfg.validate(1, 1);
                cfg
            },
            "validate",
        );
        // The largest mesh that fits is still accepted.
        assert_eq!(XpipesConfig::with_dims(255, 257, 1, 1).nodes(), 65_535);
        assert_eq!(XpipesConfig::auto(65_000, 25).nodes(), 65_025);
    }

    /// Deterministic generator for the generated-input tests.
    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The switch stage as it was before request-mask arbitration: per
    /// output a scan for requesting heads, then a second round-robin
    /// scan, every probe re-routing the head with div/mod, over
    /// `VecDeque` FIFOs. Kept as the oracle [`Router::switch`] is
    /// diffed against.
    #[derive(Default)]
    struct RefRouter {
        inputs: [VecDeque<Flit>; 5],
        out_reg: [Option<Flit>; 5],
        out_owner: [Option<usize>; 5],
        rr: [usize; 5],
    }

    impl RefRouter {
        fn route(node: u16, dst: u16, w: u16) -> usize {
            let (x, y) = (node % w, node / w);
            let (dx, dy) = (dst % w, dst / w);
            if dx > x {
                EAST
            } else if dx < x {
                WEST
            } else if dy > y {
                SOUTH
            } else if dy < y {
                NORTH
            } else {
                LOCAL
            }
        }

        fn switch(&mut self, node: u16, w: u16) -> u64 {
            let mut conflicts = 0;
            let mut input_used = [false; 5];
            for p in 0..5 {
                let want = |flit: &Flit| Self::route(node, flit.dst, w) == p;
                let wanters = (0..5)
                    .filter(|&inp| {
                        !input_used[inp]
                            && matches!(
                                self.inputs[inp].front(),
                                Some(f) if f.is_head && want(f)
                            )
                    })
                    .count() as u64;
                if self.out_reg[p].is_some() {
                    conflicts += wanters;
                    continue;
                }
                // Continue an owned packet first.
                if let Some(owner) = self.out_owner[p] {
                    conflicts += wanters;
                    if input_used[owner] {
                        continue;
                    }
                    if let Some(&flit) = self.inputs[owner].front() {
                        self.inputs[owner].pop_front();
                        self.out_reg[p] = Some(flit);
                        input_used[owner] = true;
                        if flit.is_tail {
                            self.out_owner[p] = None;
                        }
                    }
                    continue;
                }
                // Otherwise arbitrate among heads requesting this output.
                conflicts += wanters.saturating_sub(1);
                let start = self.rr[p];
                let claimed = (0..5).map(|k| (start + k) % 5).find(|&inp| {
                    !input_used[inp]
                        && matches!(
                            self.inputs[inp].front(),
                            Some(f) if f.is_head && want(f)
                        )
                });
                if let Some(inp) = claimed {
                    let flit = self.inputs[inp].pop_front().expect("front checked");
                    self.out_reg[p] = Some(flit);
                    input_used[inp] = true;
                    if !flit.is_tail {
                        self.out_owner[p] = Some(inp);
                    }
                    self.rr[p] = (inp + 1) % 5;
                }
            }
            conflicts
        }
    }

    #[test]
    fn switch_kernel_matches_the_nested_scan_reference() {
        let mut rng = Xorshift(0x9E37_79B9_7F4A_7C15);
        let (mut moved, mut contended) = (0u32, 0u64);
        for case in 0..20_000 {
            let (w, h) = (1 + rng.below(5) as u16, 1 + rng.below(5) as u16);
            let nodes = usize::from(w * h);
            let node = rng.below(nodes) as u16;
            let depth = 1 + rng.below(4);
            let xy: Vec<(u16, u16)> = (0..w * h).map(|n| (n % w, n / w)).collect();
            let flit = |rng: &mut Xorshift| Flit {
                pid: rng.next() as u32,
                is_head: rng.below(3) != 0,
                is_tail: rng.below(3) == 0,
                dst: rng.below(nodes) as u16,
            };
            // Arbitrary states, not only reachable ones: the kernels
            // must agree whatever a FIFO or an owner field holds.
            let mut reference = RefRouter::default();
            let mut router = Router::new(node % w, node / w);
            let mut fifo = vec![Flit::default(); 5 * depth];
            for inp in 0..5 {
                router.head[inp] = rng.below(depth) as u16;
                for _ in 0..rng.below(depth + 1) {
                    let f = flit(&mut rng);
                    reference.inputs[inp].push_back(f);
                    router.push(&mut fifo, depth, inp, f);
                }
            }
            for p in 0..5 {
                if rng.below(4) == 0 {
                    let f = flit(&mut rng);
                    reference.out_reg[p] = Some(f);
                    router.out[p] = f;
                    router.out_full |= 1 << p;
                    router.load += 1;
                }
                if rng.below(3) == 0 {
                    let owner = rng.below(5);
                    reference.out_owner[p] = Some(owner);
                    router.out_owner[p] = owner as u8;
                }
                let rr = rng.below(5);
                reference.rr[p] = rr;
                router.rr[p] = rr as u8;
            }
            let (load, full) = (router.load, router.out_full);

            let want = reference.switch(node, w);
            let got = router.switch(&fifo, depth, &xy);

            assert_eq!(got, want, "case {case}: conflicts");
            assert_eq!(router.load, load, "case {case}: switching keeps every flit");
            for p in 0..5 {
                let out = (router.out_full & (1 << p) != 0).then_some(router.out[p]);
                assert_eq!(out, reference.out_reg[p], "case {case}: out_reg[{p}]");
                let owner = router.out_owner[p];
                assert_eq!(
                    (owner != NO_OWNER).then_some(usize::from(owner)),
                    reference.out_owner[p],
                    "case {case}: out_owner[{p}]"
                );
                assert_eq!(
                    usize::from(router.rr[p]),
                    reference.rr[p],
                    "case {case}: rr[{p}]"
                );
                let mut rest = VecDeque::new();
                while let Some(f) = router.front(&fifo, depth, p) {
                    rest.push_back(f);
                    router.advance(&fifo, depth, p, p);
                }
                assert_eq!(rest, reference.inputs[p], "case {case}: input {p}");
            }
            moved += (router.out_full & !full).count_ones();
            contended += got;
        }
        assert!(
            moved > 20_000 && contended > 10_000,
            "{moved} grants, {contended} conflicts"
        );
    }

    /// Generated blocking traffic: every master issues `ops` random
    /// single and burst reads and writes to random slaves, waiting for
    /// each response or acceptance before the next.
    struct Traffic {
        rng: Vec<Xorshift>,
        left: Vec<u32>,
        /// `Some(true)` awaits a response, `Some(false)` an acceptance.
        wait: Vec<Option<bool>>,
        /// Hash of every read value in per-master arrival order.
        read_hash: u64,
    }

    impl Traffic {
        fn new(n_masters: usize, ops: u32, seed: u64) -> Self {
            Self {
                rng: (0..n_masters as u64)
                    .map(|m| Xorshift((seed + m + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                    .collect(),
                left: vec![ops; n_masters],
                wait: vec![None; n_masters],
                read_hash: 0,
            }
        }

        fn step(&mut self, r: &mut Rig, now: Cycle) {
            for (m, cpu) in r.cpus.iter().enumerate() {
                match self.wait[m] {
                    Some(true) => match cpu.take_response(&mut r.links, now) {
                        Some(resp) => {
                            for &word in resp.data.iter() {
                                self.read_hash = (self.read_hash ^ u64::from(word))
                                    .wrapping_mul(0x100_0000_01B3)
                                    .rotate_left(m as u32);
                            }
                        }
                        None => continue,
                    },
                    Some(false) if cpu.take_accept(&mut r.links, now).is_none() => continue,
                    _ => {}
                }
                self.wait[m] = None;
                if self.left[m] == 0 {
                    continue;
                }
                self.left[m] -= 1;
                let rng = &mut self.rng[m];
                let base = 0x1000 * (1 + rng.below(r.mems.len()) as u32);
                let line = base + 16 * rng.below(64) as u32;
                let req = match rng.below(4) {
                    0 => OcpRequest::read(line + 4 * rng.below(4) as u32),
                    1 => OcpRequest::write(line + 4 * rng.below(4) as u32, rng.next() as u32),
                    2 => OcpRequest::burst_read(line, 4),
                    _ => OcpRequest::burst_write(
                        line,
                        (0..4).map(|_| rng.next() as u32).collect::<Vec<_>>(),
                    ),
                };
                self.wait[m] = Some(req.cmd.expects_response());
                cpu.assert_request(&mut r.links, req, now);
            }
        }

        fn finished(&self) -> bool {
            self.left.iter().all(|&n| n == 0) && self.wait.iter().all(Option::is_none)
        }
    }

    /// Everything a run of the mesh can be told apart by: completion
    /// cycle, packets, flit hops, conflicts, transactions, latency sum,
    /// latency max, hash of the values read, hash of the final memories.
    type Fingerprint = [u64; 9];

    fn fingerprint(r: &Rig, traffic: &Traffic, cycles: Cycle) -> Fingerprint {
        assert!(
            r.noc.is_idle(&r.links),
            "traffic drained but the mesh is not idle"
        );
        let mut mem_hash = 0u64;
        for mem in &r.mems {
            for word in 0..0x400 {
                mem_hash = (mem_hash ^ u64::from(mem.peek(mem.base() + 4 * word)))
                    .wrapping_mul(0x100_0000_01B3);
            }
        }
        [
            cycles,
            r.noc.stats.packets,
            r.noc.stats.flit_hops,
            r.noc.conflicts,
            r.noc.transactions,
            r.noc.packet_latency.sum(),
            r.noc.packet_latency.max().unwrap_or(0),
            traffic.read_hash,
            mem_hash,
        ]
    }

    /// Runs generated traffic to completion.
    fn run_mesh(r: &mut Rig, ops: u32, seed: u64) -> Fingerprint {
        let mut traffic = Traffic::new(r.cpus.len(), ops, seed);
        for now in 0..200_000 {
            traffic.step(r, now);
            step(r, now);
            if traffic.finished() && r.noc.is_idle(&r.links) {
                return fingerprint(r, &traffic, now);
            }
        }
        panic!("traffic did not drain");
    }

    /// Whole-mesh runs on the shapes flat indexing can get wrong —
    /// single row, single column, non-square, one-slot FIFOs — pinned
    /// to what the `VecDeque`-per-port, divide-per-route mesh produced
    /// on the same generated traffic.
    #[test]
    fn edge_shaped_meshes_behave_as_before_the_flat_layout() {
        #[rustfmt::skip]
        let pinned = [
            (
                (1, 6, 3, 3, 4),
                [1161, 274, 2752, 301, 180, 2955, 47, 1_307_827_588_735_052_205, 18_205_696_566_159_608_650],
            ),
            (
                (6, 1, 3, 3, 4),
                [1009, 274, 2649, 322, 180, 2880, 41, 7_664_970_627_128_772_015, 14_246_978_567_852_591_498],
            ),
            (
                (3, 5, 8, 7, 4),
                [1160, 719, 8056, 592, 480, 8127, 40, 16_547_577_979_932_761_068, 18_030_605_189_055_778_984],
            ),
            (
                (3, 5, 8, 7, 1),
                [1178, 719, 8056, 908, 480, 8087, 38, 17_944_549_895_279_102_859, 18_030_605_189_055_778_984],
            ),
            (
                (4, 4, 6, 4, 1),
                [1011, 528, 4204, 521, 360, 5974, 44, 2_322_956_227_085_362_010, 14_164_039_655_789_964_051],
            ),
            (
                (5, 2, 4, 4, 2),
                [944, 364, 2701, 139, 240, 3222, 27, 17_475_903_369_153_817_648, 17_631_359_016_276_636_503],
            ),
        ];
        for ((w, h, n_masters, n_slaves, depth), want) in pinned {
            let mut r = mesh_rig(w, h, n_masters, n_slaves, depth);
            let got = run_mesh(&mut r, 60, u64::from(w * 31 + h));
            assert_eq!(got, want, "{w}x{h} mesh, {depth}-flit FIFOs");
        }
    }
}
