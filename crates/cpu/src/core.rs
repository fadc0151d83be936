//! The cycle-true Srisc core model.

use std::sync::Arc;

use ntg_mem::AddressMap;
use ntg_ocp::{LinkArena, MasterPort, OcpRequest, OcpResponse, OcpStatus};
use ntg_sim::{Activity, Component, Cycle};

use crate::cache::{Cache, CacheConfig, CacheStats, Probe, Run};
use crate::isa::{decode, Instr, Reg};

/// Static configuration of a [`CpuCore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuConfig {
    /// Instruction-cache geometry.
    pub icache: CacheConfig,
    /// Data-cache geometry.
    pub dcache: CacheConfig,
}

/// Execution statistics of one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Single (uncached) bus reads issued.
    pub bus_reads: u64,
    /// Bus writes issued (all stores; the caches are write-through).
    pub bus_writes: u64,
    /// Burst line refills issued (instruction + data).
    pub refills: u64,
    /// Instruction-cache hit/miss counters.
    pub icache: CacheStats,
    /// Data-cache hit/miss counters.
    pub dcache: CacheStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum State {
    /// Execute one instruction this cycle.
    Ready,
    /// Blocking on an instruction-cache line refill.
    WaitIFetch { line_addr: u32 },
    /// Blocking on an uncached instruction fetch.
    WaitIFetchRaw,
    /// Blocking on a data-cache line refill that completes the load at
    /// `pc`.
    WaitDFill {
        line_addr: u32,
        rd: Reg,
        addr: u32,
        pc: u32,
    },
    /// Blocking on the uncached load at `pc`.
    WaitLoad { rd: Reg, pc: u32 },
    /// Blocking on store acceptance (posted write).
    WaitStore,
    /// `halt` executed.
    Halted,
}

/// A fault that stopped a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuFault {
    /// The fetched word did not decode to a valid instruction.
    IllegalInstruction {
        /// Program counter of the faulting fetch.
        pc: u32,
        /// The undecodable word.
        word: u32,
    },
    /// A load/store address was not word-aligned.
    MisalignedAccess {
        /// Program counter of the faulting instruction.
        pc: u32,
        /// The offending address.
        addr: u32,
    },
    /// The interconnect returned an error response.
    BusError {
        /// Program counter of the faulting access.
        pc: u32,
    },
}

/// Most instructions one visit executes ahead of `now`. Bounds the work
/// of a single `tick` when nothing else ends the burst — a core spinning
/// in its caches on an arena whose driver set no run end.
pub(crate) const BURST_CEILING: Cycle = 4096;

/// The last address-map region an access fell in, so that the fetch and
/// load paths answer "cacheable?" with one compare instead of
/// [`AddressMap::decode`]'s scan. Starts empty (`size == 0` matches
/// nothing); unmapped addresses are never memoised.
#[derive(Debug, Clone, Copy, Default)]
struct RegionMemo {
    base: u32,
    size: u32,
    cacheable: bool,
}

impl RegionMemo {
    #[inline]
    fn is_cacheable(&mut self, map: &AddressMap, addr: u32) -> bool {
        if addr.wrapping_sub(self.base) < self.size {
            return self.cacheable;
        }
        match map.decode(addr) {
            Some(region) => {
                *self = RegionMemo {
                    base: region.base,
                    size: region.size,
                    cacheable: region.kind.cacheable(),
                };
                self.cacheable
            }
            None => false,
        }
    }

    /// Whether the memoised region holds all of `[start, start + len)`.
    #[inline]
    fn holds(&self, start: u32, len: u32) -> bool {
        self.size
            .checked_sub(len)
            .is_some_and(|room| start.wrapping_sub(self.base) <= room)
    }
}

/// The register file; writes to `r0` are discarded.
#[derive(Debug, Clone, Copy)]
struct Regs([u32; 16]);

impl Regs {
    /// `r`'s index. A `Reg` is below 16 already; the mask lets the
    /// compiler see it and drop the bounds check.
    #[inline(always)]
    fn index(r: Reg) -> usize {
        usize::from(r.num() & 15)
    }

    #[inline(always)]
    fn get(&self, r: Reg) -> u32 {
        self.0[Self::index(r)]
    }

    #[inline(always)]
    fn set(&mut self, rd: Reg, value: u32) {
        if rd.num() != 0 {
            self.0[Self::index(rd)] = value;
        }
    }

    /// Executes a register, branch or jump instruction at `pc`; returns
    /// the next pc.
    #[inline(always)]
    fn execute(&mut self, pc: u32, instr: Instr) -> u32 {
        use Instr::*;
        let next_pc = pc.wrapping_add(4);
        let target = |off: i32| next_pc.wrapping_add((off as u32).wrapping_mul(4));
        match instr {
            Nop => {}
            Add(d, s, t) => self.set(d, self.get(s).wrapping_add(self.get(t))),
            Sub(d, s, t) => self.set(d, self.get(s).wrapping_sub(self.get(t))),
            And(d, s, t) => self.set(d, self.get(s) & self.get(t)),
            Or(d, s, t) => self.set(d, self.get(s) | self.get(t)),
            Xor(d, s, t) => self.set(d, self.get(s) ^ self.get(t)),
            Sll(d, s, t) => self.set(d, self.get(s) << (self.get(t) & 31)),
            Srl(d, s, t) => self.set(d, self.get(s) >> (self.get(t) & 31)),
            Sra(d, s, t) => self.set(d, ((self.get(s) as i32) >> (self.get(t) & 31)) as u32),
            Mul(d, s, t) => self.set(d, self.get(s).wrapping_mul(self.get(t))),
            Slt(d, s, t) => self.set(d, ((self.get(s) as i32) < (self.get(t) as i32)) as u32),
            Sltu(d, s, t) => self.set(d, (self.get(s) < self.get(t)) as u32),
            Addi(d, s, imm) => self.set(d, self.get(s).wrapping_add(imm as u32)),
            Andi(d, s, imm) => self.set(d, self.get(s) & (imm as u32)),
            Ori(d, s, imm) => self.set(d, self.get(s) | (imm as u32)),
            Xori(d, s, imm) => self.set(d, self.get(s) ^ (imm as u32)),
            Slli(d, s, sh) => self.set(d, self.get(s) << sh),
            Srli(d, s, sh) => self.set(d, self.get(s) >> sh),
            Srai(d, s, sh) => self.set(d, ((self.get(s) as i32) >> sh) as u32),
            Slti(d, s, imm) => self.set(d, ((self.get(s) as i32) < imm) as u32),
            Movi(d, imm) => self.set(d, u32::from(imm)),
            Movhi(d, imm) => {
                let low = self.get(d) & 0xFFFF;
                self.set(d, low | (u32::from(imm) << 16));
            }
            Branch(cond, rs, rt, off) => {
                return if cond.eval(self.get(rs), self.get(rt)) {
                    target(off)
                } else {
                    next_pc
                };
            }
            J(off) => return target(off),
            Jal(off) => {
                self.set(crate::isa::R15, next_pc);
                return target(off);
            }
            Jr(rs) => return self.get(rs),
            Halt | Ldw(..) | Stw(..) => unreachable!("the caller executes {instr:?}"),
        }
        next_pc
    }
}

/// Finds `addr` in `cache` for a read, committing nothing: through the
/// cache's memos first, else — if `addr` is cacheable — by a tag search.
/// A memo hit needs no region check because the search memoises a line
/// only when its whole extent lies in one cacheable region; a line that
/// straddles a region boundary stays unmemoised.
#[inline(always)]
fn find(cache: &mut Cache, region: &mut RegionMemo, map: &AddressMap, addr: u32) -> Option<Probe> {
    if let Some(found) = cache.probe(addr) {
        return Some(found);
    }
    if !region.is_cacheable(map, addr) {
        return None;
    }
    let memoise = region.holds(cache.line_addr(addr), cache.config().line_bytes());
    cache.search(addr, memoise)
}

/// The in-order, single-issue Srisc core.
///
/// Implements [`Component`]; the core fetches encoded instructions from
/// memory through its instruction cache, executes one instruction per
/// cycle while caches hit, and drives its OCP [`MasterPort`] for cache
/// refills (burst reads), uncached accesses and write-through stores.
///
/// See the crate documentation for the precise timing model. The core
/// halts on the `halt` instruction (recording its completion cycle, which
/// is the per-core "execution time" reported in the paper's Table 2) or
/// on a [`CpuFault`].
///
/// # Run-ahead
///
/// The core touches the platform only through its port, so the
/// instructions between two bus events are private to it: one `tick`
/// executes the instruction of its own cycle and then keeps going —
/// one simulated cycle per instruction — for as long as the next
/// instruction needs nothing but the registers and a cache hit. Every
/// instruction that asserts a request, `halt` and every fault execute in
/// the `tick` of their own cycle; ticks inside an executed burst are
/// no-ops and [`next_activity`](Component::next_activity) reports the
/// burst's end as the wake cycle. The burst never reaches the cycle the
/// arena's [`run_end`](LinkArena::run_end) names, so a run that stops
/// early leaves the core exactly where per-cycle execution would.
pub struct CpuCore {
    name: String,
    port: MasterPort,
    map: Arc<AddressMap>,
    regs: Regs,
    pc: u32,
    state: State,
    /// While `Ready`: the cycle of the next instruction. Everything
    /// before it has executed.
    resume_at: Cycle,
    icache: Cache,
    /// The decoded form of every icache word (`None`: the word is not
    /// an instruction), indexed like the icache's word slab and written
    /// when a line is installed.
    decoded: Vec<Option<Instr>>,
    dcache: Cache,
    fetch_region: RegionMemo,
    data_region: RegionMemo,
    stats: CpuStats,
    halt_cycle: Option<Cycle>,
    fault: Option<CpuFault>,
}

impl CpuCore {
    /// Creates a core.
    ///
    /// * `port` — the master endpoint of the core's OCP link;
    /// * `map` — the system address map (for cacheability decisions);
    /// * `entry` — initial program counter;
    /// * `sp` — initial stack pointer (`r13`).
    pub fn new(
        name: impl Into<String>,
        port: MasterPort,
        map: Arc<AddressMap>,
        cfg: CpuConfig,
        entry: u32,
        sp: u32,
    ) -> Self {
        let mut regs = Regs([0; 16]);
        regs.0[13] = sp;
        let icache = Cache::new(cfg.icache);
        Self {
            name: name.into(),
            port,
            map,
            regs,
            pc: entry,
            state: State::Ready,
            resume_at: 0,
            decoded: vec![None; icache.total_words()],
            icache,
            dcache: Cache::new(cfg.dcache),
            fetch_region: RegionMemo::default(),
            data_region: RegionMemo::default(),
            stats: CpuStats::default(),
            halt_cycle: None,
            fault: None,
        }
    }

    /// Whether the core has halted (normally or by fault).
    pub fn halted(&self) -> bool {
        matches!(self.state, State::Halted)
    }

    /// The cycle in which `halt` executed, if it has.
    pub fn halt_cycle(&self) -> Option<Cycle> {
        self.halt_cycle
    }

    /// The fault that stopped the core, if any.
    pub fn fault(&self) -> Option<CpuFault> {
        self.fault
    }

    /// Current register values (`r0` always reads zero).
    ///
    /// Between the ticks of a run this is the state at the run-ahead
    /// frontier — after every instruction already executed, which may be
    /// cycles ahead of the last `tick`. Once a run loop returns, the
    /// frontier is the cycle it stopped at.
    pub fn regs(&self) -> [u32; 16] {
        self.regs.0
    }

    /// The current program counter (of the run-ahead frontier; see
    /// [`regs`](Self::regs)).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Execution statistics (cache stats included).
    pub fn stats(&self) -> CpuStats {
        let mut s = self.stats;
        s.icache = self.icache.stats();
        s.dcache = self.dcache.stats();
        s
    }

    fn stop_with_fault(&mut self, now: Cycle, fault: CpuFault) {
        self.fault = Some(fault);
        self.halt_cycle = Some(now);
        self.state = State::Halted;
    }

    /// Takes the response the core is blocked on, if it is visible; an
    /// error response stops the core with a bus error at `pc`, the
    /// instruction whose access it answers.
    fn take_ok_response(
        &mut self,
        now: Cycle,
        net: &mut LinkArena,
        pc: u32,
    ) -> Option<OcpResponse> {
        let resp = self.port.take_response(net, now)?;
        if resp.status != OcpStatus::Ok {
            self.stop_with_fault(now, CpuFault::BusError { pc });
            return None;
        }
        Some(resp)
    }

    /// Resolves an outstanding memory event. Returns `None` while the
    /// core stays blocked (or is halted); otherwise the core executes an
    /// instruction this cycle — the word of a completed uncached fetch,
    /// or whatever the pc names.
    fn resolve(&mut self, now: Cycle, net: &mut LinkArena) -> Option<Option<u32>> {
        let raw = match self.state {
            State::Ready => None,
            State::Halted => return None,
            State::WaitIFetch { line_addr } => {
                let resp = self.take_ok_response(now, net, self.pc)?;
                let first = self.icache.install(line_addr, &resp.data);
                for (slot, &word) in self.decoded[first..].iter_mut().zip(resp.data.iter()) {
                    *slot = decode(word).ok();
                }
                None
            }
            State::WaitIFetchRaw => Some(self.take_ok_response(now, net, self.pc)?.word()),
            State::WaitDFill {
                line_addr,
                rd,
                addr,
                pc,
            } => {
                let resp = self.take_ok_response(now, net, pc)?;
                self.dcache.fill(line_addr, &resp.data);
                self.regs
                    .set(rd, resp.data[((addr - line_addr) / 4) as usize]);
                None
            }
            State::WaitLoad { rd, pc } => {
                let word = self.take_ok_response(now, net, pc)?.word();
                self.regs.set(rd, word);
                None
            }
            State::WaitStore => {
                self.port.take_accept(net, now)?;
                None
            }
        };
        self.state = State::Ready;
        Some(raw)
    }

    /// Finds the instruction at `pc` in the icache (see [`find`]).
    #[inline(always)]
    fn fetch(&mut self, pc: u32) -> Option<Probe> {
        find(&mut self.icache, &mut self.fetch_region, &self.map, pc)
    }

    /// Finds the word at the aligned `addr` in the dcache (see [`find`]).
    #[inline(always)]
    fn find_data(&mut self, addr: u32) -> Option<Probe> {
        find(&mut self.dcache, &mut self.data_region, &self.map, addr)
    }

    /// Executes the instruction at `pc` in cycle `at`, the cycle being
    /// ticked: it may do anything — assert a request and block, halt,
    /// fault. Returns whether an instruction retired and left the core
    /// `Ready`, so that a [`burst`](Self::burst) may follow.
    fn step(&mut self, at: Cycle, net: &mut LinkArena, raw: Option<u32>) -> bool {
        use Instr::*;
        let pc = self.pc;

        // Fetch: the word an uncached fetch just delivered, or the
        // predecoded icache slot.
        let decoded = match raw {
            Some(word) => decode(word).map_err(|e| e.word),
            None => {
                let Some(found) = self.fetch(pc) else {
                    if self.fetch_region.is_cacheable(&self.map, pc) {
                        self.icache.miss();
                        let line = self.icache.line_addr(pc);
                        self.refill(net, line, self.icache.config().words_per_line, at);
                        self.state = State::WaitIFetch { line_addr: line };
                    } else {
                        self.port.assert_request(net, OcpRequest::read(pc), at);
                        self.stats.bus_reads += 1;
                        self.state = State::WaitIFetchRaw;
                    }
                    return false;
                };
                let word = self.icache.touch(found);
                self.decoded[found.index].ok_or(word)
            }
        };
        let instr = match decoded {
            Ok(instr) => instr,
            Err(word) => {
                self.stop_with_fault(at, CpuFault::IllegalInstruction { pc, word });
                return false;
            }
        };
        self.stats.instructions += 1;
        let next_pc = pc.wrapping_add(4);

        match instr {
            Halt => {
                self.halt_cycle = Some(at);
                self.state = State::Halted;
                false
            }
            Ldw(rd, rs, imm) => {
                let addr = self.regs.get(rs).wrapping_add(imm as u32);
                if !addr.is_multiple_of(4) {
                    self.stop_with_fault(at, CpuFault::MisalignedAccess { pc, addr });
                    return false;
                }
                self.pc = next_pc;
                if let Some(found) = self.find_data(addr) {
                    let word = self.dcache.touch(found);
                    self.regs.set(rd, word);
                    return true;
                }
                if self.data_region.is_cacheable(&self.map, addr) {
                    self.dcache.miss();
                    let line = self.dcache.line_addr(addr);
                    self.refill(net, line, self.dcache.config().words_per_line, at);
                    self.state = State::WaitDFill {
                        line_addr: line,
                        rd,
                        addr,
                        pc,
                    };
                } else {
                    self.port.assert_request(net, OcpRequest::read(addr), at);
                    self.stats.bus_reads += 1;
                    self.state = State::WaitLoad { rd, pc };
                }
                false
            }
            Stw(rd, rs, imm) => {
                let addr = self.regs.get(rs).wrapping_add(imm as u32);
                if !addr.is_multiple_of(4) {
                    self.stop_with_fault(at, CpuFault::MisalignedAccess { pc, addr });
                    return false;
                }
                let value = self.regs.get(rd);
                if self.data_region.is_cacheable(&self.map, addr) {
                    // Write-through: keep a present line coherent.
                    self.dcache.write_update(addr, value);
                }
                self.port
                    .assert_request(net, OcpRequest::write(addr, value), at);
                self.stats.bus_writes += 1;
                self.state = State::WaitStore;
                self.pc = next_pc;
                false
            }
            _ => {
                self.pc = self.regs.execute(pc, instr);
                true
            }
        }
    }

    /// Runs ahead from cycle `at`: executes one core-private instruction
    /// per cycle — one that needs the registers, an icache hit and at
    /// most a dcache read hit — never reaching `end`. Returns the cycle of
    /// the first instruction it left, with no state touched, for the tick
    /// of its own cycle.
    fn burst(&mut self, mut at: Cycle, end: Cycle) -> Cycle {
        use Instr::*;
        let start = at;
        let mut pc = self.pc;
        // The icache line being fetched from; nothing but fetches touches
        // the icache here, so its hits are committed when the burst
        // leaves the line. The line before it stays at hand, committed:
        // a loop body across a line boundary alternates between the two.
        let (mut run, mut prev) = (Run::EMPTY, Run::EMPTY);
        while at < end {
            let index = match run.word(pc) {
                Some(index) => index,
                None => {
                    self.icache.commit(&mut run);
                    if let Some(index) = prev.word(pc) {
                        std::mem::swap(&mut run, &mut prev);
                        index
                    } else {
                        let found = match self.icache.probe(pc) {
                            Some(found) => {
                                prev = run;
                                found
                            }
                            None => {
                                // The search may re-memoise either line's
                                // slot.
                                prev = Run::EMPTY;
                                let Some(found) = self.fetch(pc) else { break };
                                found
                            }
                        };
                        run = self.icache.start_run(found);
                        found.index
                    }
                }
            };
            let Some(instr) = self.decoded[index] else {
                break;
            };
            pc = match instr {
                Ldw(rd, rs, imm) => {
                    let addr = self.regs.get(rs).wrapping_add(imm as u32);
                    if !addr.is_multiple_of(4) {
                        break;
                    }
                    let Some(data) = self.find_data(addr) else {
                        break;
                    };
                    let word = self.dcache.touch(data);
                    self.regs.set(rd, word);
                    pc.wrapping_add(4)
                }
                Halt | Stw(..) => break,
                _ => self.regs.execute(pc, instr),
            };
            run.hit();
            at += 1;
        }
        self.icache.commit(&mut run);
        self.pc = pc;
        self.stats.instructions += at - start;
        at
    }

    /// The work of one `tick`: the instruction of cycle `now`, then the
    /// rest of the compute burst it starts.
    fn visit(&mut self, now: Cycle, net: &mut LinkArena) {
        let Some(raw) = self.resolve(now, net) else {
            return;
        };
        let mut at = now + 1;
        if self.step(now, net, raw) {
            // Run ahead: one cycle per core-private instruction, never
            // into the cycle the run stops at.
            let end = net.run_end().min(at.saturating_add(BURST_CEILING));
            at = self.burst(at, end);
        }
        self.resume_at = at;
    }

    /// Issues the burst read that refills the line at `line`.
    fn refill(&mut self, net: &mut LinkArena, line: u32, words_per_line: u32, at: Cycle) {
        let beats = u8::try_from(words_per_line).expect("CacheConfig caps lines at 255 words");
        self.port
            .assert_request(net, OcpRequest::burst_read(line, beats), at);
        self.stats.refills += 1;
    }
}

impl Component<LinkArena> for CpuCore {
    fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        // Cycles before `resume_at` lie inside a burst an earlier visit
        // already executed.
        if now >= self.resume_at {
            self.visit(now, net);
        }
    }

    #[inline]
    fn is_idle(&self, net: &LinkArena) -> bool {
        self.halted() && self.port.is_quiet(net)
    }

    // Ticks inside an executed burst do nothing and stall ticks only
    // poll the port (no statistics change), so the default no-op `skip`
    // is exact.
    #[inline]
    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        match self.state {
            State::Ready if self.resume_at > now => Activity::IdleUntil(self.resume_at),
            State::Ready => Activity::Busy,
            State::Halted => {
                if self.port.is_quiet(net) {
                    Activity::Drained
                } else {
                    Activity::Busy
                }
            }
            // Every remaining state blocks on the bus; stall ticks only
            // poll, so until the awaited event is queued this is a
            // passive wait whose horizon the responder bounds. A store
            // waits for its acceptance, every fetch/load/fill for its
            // response.
            State::WaitStore => Activity::awaiting(self.port.accept_visible_at(net), now),
            _ => Activity::awaiting(self.port.response_visible_at(net), now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::isa::{R1, R2, R3, R4};
    use ntg_mem::{MemoryDevice, RegionKind};
    use ntg_ocp::MasterId;

    const PRIV: u32 = 0x0000_0000;
    const SHARED: u32 = 0x0010_0000;

    /// CPU wired straight into one memory device covering both a
    /// cacheable private region and an uncached shared region.
    fn system(asm: &Asm) -> (LinkArena, CpuCore, MemoryDevice) {
        system_with_memory(asm, 0x20_0000)
    }

    /// [`system`] with a memory device of `mem_bytes`: accesses past it
    /// receive error responses.
    fn system_with_memory(asm: &Asm, mem_bytes: u32) -> (LinkArena, CpuCore, MemoryDevice) {
        let mut map = AddressMap::new();
        map.add(
            "priv",
            PRIV,
            0x10_0000,
            ntg_ocp::SlaveId(0),
            RegionKind::PrivateMemory,
        )
        .unwrap();
        map.add(
            "shared",
            SHARED,
            0x10_0000,
            ntg_ocp::SlaveId(0),
            RegionKind::SharedMemory,
        )
        .unwrap();
        let mut net = LinkArena::new();
        let (mport, sport) = net.channel("cpu0", MasterId(0));
        let mut mem = MemoryDevice::new("ram", 0, mem_bytes, sport);
        let program = asm.assemble(PRIV).unwrap();
        mem.load_words(program.entry(), program.words());
        let cpu = CpuCore::new(
            "cpu0",
            mport,
            Arc::new(map),
            CpuConfig {
                icache: CacheConfig::tiny(),
                dcache: CacheConfig::tiny(),
            },
            program.entry(),
            PRIV + 0x0F_0000,
        );
        (net, cpu, mem)
    }

    fn run(net: &mut LinkArena, cpu: &mut CpuCore, mem: &mut MemoryDevice, max: Cycle) -> Cycle {
        for now in 0..max {
            cpu.tick(now, net);
            mem.tick(now, net);
            if cpu.halted() && cpu.port.is_quiet(net) {
                return now;
            }
        }
        panic!("core did not halt within {max} cycles (pc={:#x})", cpu.pc());
    }

    #[test]
    fn alu_program_computes() {
        let mut a = Asm::new();
        a.li(R1, 6);
        a.li(R2, 7);
        a.mul(R3, R1, R2);
        a.sub(R4, R3, R1);
        a.halt();
        let (mut net, mut cpu, mut mem) = system(&a);
        run(&mut net, &mut cpu, &mut mem, 1000);
        assert_eq!(cpu.regs()[3], 42);
        assert_eq!(cpu.regs()[4], 36);
        assert!(cpu.fault().is_none());
        assert_eq!(cpu.stats().instructions, 7);
    }

    #[test]
    fn store_goes_through_to_memory() {
        let mut a = Asm::new();
        a.li(R1, 0xABCD);
        a.li(R2, PRIV + 0x8000);
        a.stw(R1, R2, 0);
        a.halt();
        let (mut net, mut cpu, mut mem) = system(&a);
        run(&mut net, &mut cpu, &mut mem, 1000);
        assert_eq!(mem.peek(PRIV + 0x8000), 0xABCD);
    }

    #[test]
    fn load_after_store_round_trips_via_cache() {
        let mut a = Asm::new();
        a.li(R1, 1234);
        a.li(R2, PRIV + 0x8000);
        a.stw(R1, R2, 0);
        a.ldw(R3, R2, 0);
        a.halt();
        let (mut net, mut cpu, mut mem) = system(&a);
        run(&mut net, &mut cpu, &mut mem, 1000);
        assert_eq!(cpu.regs()[3], 1234);
    }

    #[test]
    fn icache_makes_loops_bus_free() {
        // A loop that fits in one line: after the first refill the loop
        // runs without further memory traffic.
        let mut a = Asm::new();
        a.li(R1, 0);
        a.li(R2, 50);
        a.label("loop"); // must land inside a fresh line with the branch
        a.addi(R1, R1, 1);
        a.bne(R1, R2, "loop");
        a.halt();
        let (mut net, mut cpu, mut mem) = system(&a);
        run(&mut net, &mut cpu, &mut mem, 2000);
        assert_eq!(cpu.regs()[1], 50);
        let s = cpu.stats();
        // Program is 7 words = at most 3 lines; only those refills, no
        // per-iteration traffic.
        assert!(s.refills <= 3, "refills = {}", s.refills);
        assert_eq!(mem.reads(), s.refills);
        assert!(s.icache.read_hits > 100);
    }

    #[test]
    fn uncached_loads_hit_the_bus_every_time() {
        let mut a = Asm::new();
        a.li(R2, SHARED);
        a.ldw(R1, R2, 0);
        a.ldw(R1, R2, 0);
        a.ldw(R1, R2, 0);
        a.halt();
        let (mut net, mut cpu, mut mem) = system(&a);
        run(&mut net, &mut cpu, &mut mem, 1000);
        assert_eq!(cpu.stats().bus_reads, 3);
        assert_eq!(cpu.stats().dcache.read_misses, 0, "bypasses the dcache");
    }

    #[test]
    fn cached_load_timing_is_deterministic() {
        // One-line program: halt only. Cold icache miss at cycle 0:
        // assert burst @0, mem accepts @1, response pushed @1+1+4=6,
        // visible @7 → halt executes at cycle 7.
        let mut a = Asm::new();
        a.halt();
        let (mut net, mut cpu, mut mem) = system(&a);
        run(&mut net, &mut cpu, &mut mem, 100);
        assert_eq!(cpu.halt_cycle(), Some(7));
    }

    #[test]
    fn straight_line_ipc_is_one_after_warmup() {
        // 4 instructions in the same line as halt? Keep program inside
        // two lines and measure: refill(7 cycles) + instructions.
        let mut a = Asm::new();
        a.nop().nop().nop(); // line 0: 3 nops + li start
        a.instr(Instr::Nop);
        a.halt(); // line 1
        let (mut net, mut cpu, mut mem) = system(&a);
        run(&mut net, &mut cpu, &mut mem, 100);
        // Line 0 refill completes at 7 (see above); nops at 7,8,9,10;
        // line 1 miss at 11: burst @11, accept @12, resp @17, visible
        // @18 → halt at 18.
        assert_eq!(cpu.halt_cycle(), Some(18));
        assert_eq!(cpu.stats().instructions, 5);
    }

    #[test]
    fn illegal_instruction_faults() {
        let mut a = Asm::new();
        a.word(0xFFFF_FFFF);
        let (mut net, mut cpu, mut mem) = system(&a);
        for now in 0..100 {
            cpu.tick(now, &mut net);
            mem.tick(now, &mut net);
            if cpu.halted() {
                break;
            }
        }
        assert!(matches!(
            cpu.fault(),
            Some(CpuFault::IllegalInstruction { pc: 0, .. })
        ));
    }

    #[test]
    fn misaligned_load_faults() {
        let mut a = Asm::new();
        a.li(R2, PRIV + 0x8002);
        a.ldw(R1, R2, 0);
        a.halt();
        let (mut net, mut cpu, mut mem) = system(&a);
        for now in 0..100 {
            cpu.tick(now, &mut net);
            mem.tick(now, &mut net);
            if cpu.halted() {
                break;
            }
        }
        assert!(matches!(
            cpu.fault(),
            Some(CpuFault::MisalignedAccess { addr: 0x8002, .. })
        ));
    }

    /// Runs until the core halts; returns its fault.
    fn run_to_fault(asm: &Asm, mem_bytes: u32) -> Option<CpuFault> {
        let (mut net, mut cpu, mut mem) = system_with_memory(asm, mem_bytes);
        for now in 0..1000 {
            cpu.tick(now, &mut net);
            mem.tick(now, &mut net);
            if cpu.halted() {
                return cpu.fault();
            }
        }
        panic!("core did not halt (pc={:#x})", cpu.pc());
    }

    #[test]
    fn a_bus_error_on_a_load_names_the_load() {
        // Memory ends at 512 KiB: a cached load above it errors on the
        // line refill, an uncached one on the single read. Either way the
        // fault names the `ldw` (at 0x8, after the two-word `li`), not
        // the instruction after it.
        for addr in [PRIV + 0xC_0000, SHARED] {
            let mut a = Asm::new();
            a.li(R2, addr);
            a.ldw(R1, R2, 0);
            a.halt();
            assert_eq!(
                run_to_fault(&a, 0x8_0000),
                Some(CpuFault::BusError { pc: 0x8 }),
                "load from {addr:#x}"
            );
        }
    }

    #[test]
    fn a_line_across_a_region_boundary_is_not_read_past_it() {
        // The cacheable region ends one word into a line: after a cached
        // load fills that line, the next word (uncacheable) still goes to
        // the bus, every time.
        let mut map = AddressMap::new();
        map.add(
            "priv",
            PRIV,
            0x8004,
            ntg_ocp::SlaveId(0),
            RegionKind::PrivateMemory,
        )
        .unwrap();
        map.add(
            "shared",
            PRIV + 0x8004,
            0x1000,
            ntg_ocp::SlaveId(0),
            RegionKind::SharedMemory,
        )
        .unwrap();
        let mut a = Asm::new();
        a.li(R2, PRIV + 0x8000);
        a.ldw(R1, R2, 0);
        a.ldw(R3, R2, 4);
        a.ldw(R1, R2, 0);
        a.ldw(R3, R2, 4);
        a.halt();
        let mut net = LinkArena::new();
        let (mport, sport) = net.channel("cpu0", MasterId(0));
        let mut mem = MemoryDevice::new("ram", 0, 0x10_0000, sport);
        let program = a.assemble(PRIV).unwrap();
        mem.load_words(program.entry(), program.words());
        mem.poke(PRIV + 0x8004, 77);
        let cfg = CpuConfig::default();
        let mut cpu = CpuCore::new("cpu0", mport, Arc::new(map), cfg, PRIV, PRIV + 0x7000);
        run(&mut net, &mut cpu, &mut mem, 1000);
        let s = cpu.stats();
        assert_eq!(cpu.regs()[3], 77);
        assert_eq!(s.bus_reads, 2, "both uncacheable loads go to the bus");
        assert_eq!((s.dcache.read_misses, s.dcache.read_hits), (1, 1));
    }

    #[test]
    fn jal_and_jr_implement_calls() {
        let mut a = Asm::new();
        a.jal("fn");
        a.li(R2, 99);
        a.halt();
        a.label("fn");
        a.li(R1, 55);
        a.jr(crate::isa::R15);
        let (mut net, mut cpu, mut mem) = system(&a);
        run(&mut net, &mut cpu, &mut mem, 1000);
        assert_eq!(cpu.regs()[1], 55);
        assert_eq!(cpu.regs()[2], 99);
    }

    #[test]
    fn r0_writes_are_discarded() {
        let mut a = Asm::new();
        a.li(crate::isa::R0, 7);
        a.addi(crate::isa::R0, R1, 3);
        a.halt();
        let (mut net, mut cpu, mut mem) = system(&a);
        run(&mut net, &mut cpu, &mut mem, 1000);
        assert_eq!(cpu.regs()[0], 0);
    }

    #[test]
    fn branch_conditions_taken_and_not_taken() {
        let mut a = Asm::new();
        a.li(R1, 5);
        a.li(R2, 5);
        a.beq(R1, R2, "eq_taken");
        a.li(R3, 1); // skipped
        a.label("eq_taken");
        a.blt(R1, R2, "bad");
        a.li(R4, 2); // executed (5 < 5 false)
        a.halt();
        a.label("bad");
        a.li(R4, 3);
        a.halt();
        let (mut net, mut cpu, mut mem) = system(&a);
        run(&mut net, &mut cpu, &mut mem, 1000);
        assert_eq!(cpu.regs()[3], 0);
        assert_eq!(cpu.regs()[4], 2);
    }
}
