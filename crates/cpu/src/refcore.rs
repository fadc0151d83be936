//! The one-instruction-per-tick Srisc core, kept as the test-only
//! reference [`CpuCore`] is diffed against.
//!
//! [`RefCore`] is the core as it was before run-ahead: every cycle it is
//! ticked it resolves its wait state, fetches through
//! [`Cache::read`](crate::Cache::read), decodes the word and executes
//! it. It shares nothing with `CpuCore`'s burst loop, predecode array or
//! region memo — only the public cache, ISA and address-map API — so the
//! differential suite below checks all of those at once: identical
//! architectural state, statistics and cycle-stamped OCP event stream
//! on generated programs, whether `CpuCore` is visited every cycle or
//! only when its `next_activity` hint asks.

use std::sync::Arc;

use ntg_mem::AddressMap;
use ntg_ocp::{LinkArena, MasterPort, OcpRequest, OcpStatus};
use ntg_sim::{Component, Cycle};

use crate::cache::Cache;
use crate::core::State;
use crate::isa::{decode, Instr, Reg};
use crate::{CpuConfig, CpuFault, CpuStats};

/// The per-cycle reference core.
pub(crate) struct RefCore {
    port: MasterPort,
    map: Arc<AddressMap>,
    regs: [u32; 16],
    pc: u32,
    state: State,
    icache: Cache,
    dcache: Cache,
    stats: CpuStats,
    halt_cycle: Option<Cycle>,
    fault: Option<CpuFault>,
}

impl RefCore {
    pub(crate) fn new(
        port: MasterPort,
        map: Arc<AddressMap>,
        cfg: CpuConfig,
        entry: u32,
        sp: u32,
    ) -> Self {
        let mut regs = [0u32; 16];
        regs[13] = sp;
        Self {
            port,
            map,
            regs,
            pc: entry,
            state: State::Ready,
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            stats: CpuStats::default(),
            halt_cycle: None,
            fault: None,
        }
    }

    fn stats(&self) -> CpuStats {
        let mut s = self.stats;
        s.icache = self.icache.stats();
        s.dcache = self.dcache.stats();
        s
    }

    fn write_reg(&mut self, rd: Reg, value: u32) {
        if rd.num() != 0 {
            self.regs[rd.num() as usize] = value;
        }
    }

    fn reg(&self, r: Reg) -> u32 {
        self.regs[r.num() as usize]
    }

    fn stop_with_fault(&mut self, now: Cycle, fault: CpuFault) {
        self.fault = Some(fault);
        self.halt_cycle = Some(now);
        self.state = State::Halted;
    }

    fn resolve(&mut self, now: Cycle, net: &mut LinkArena) -> Option<Option<u32>> {
        match self.state {
            State::Ready => Some(None),
            State::Halted => None,
            State::WaitIFetch { line_addr } => {
                let resp = self.port.take_response(net, now)?;
                if resp.status != OcpStatus::Ok {
                    self.stop_with_fault(now, CpuFault::BusError { pc: self.pc });
                    return None;
                }
                self.icache.fill(line_addr, &resp.data);
                self.state = State::Ready;
                Some(None)
            }
            State::WaitIFetchRaw => {
                let resp = self.port.take_response(net, now)?;
                if resp.status != OcpStatus::Ok {
                    self.stop_with_fault(now, CpuFault::BusError { pc: self.pc });
                    return None;
                }
                self.state = State::Ready;
                Some(Some(resp.word()))
            }
            State::WaitDFill {
                line_addr,
                rd,
                addr,
                pc,
            } => {
                let resp = self.port.take_response(net, now)?;
                if resp.status != OcpStatus::Ok {
                    self.stop_with_fault(now, CpuFault::BusError { pc });
                    return None;
                }
                self.dcache.fill(line_addr, &resp.data);
                let word = resp.data[((addr - line_addr) / 4) as usize];
                self.write_reg(rd, word);
                self.state = State::Ready;
                Some(None)
            }
            State::WaitLoad { rd, pc } => {
                let resp = self.port.take_response(net, now)?;
                if resp.status != OcpStatus::Ok {
                    self.stop_with_fault(now, CpuFault::BusError { pc });
                    return None;
                }
                self.write_reg(rd, resp.word());
                self.state = State::Ready;
                Some(None)
            }
            State::WaitStore => {
                self.port.take_accept(net, now)?;
                self.state = State::Ready;
                Some(None)
            }
        }
    }

    fn fetch(&mut self, now: Cycle, net: &mut LinkArena, raw: Option<u32>) -> Option<u32> {
        if let Some(word) = raw {
            return Some(word);
        }
        if self.map.is_cacheable(self.pc) {
            match self.icache.read(self.pc) {
                Some(word) => Some(word),
                None => {
                    let line = self.icache.line_addr(self.pc);
                    let beats = self.icache.config().words_per_line as u8;
                    self.port
                        .assert_request(net, OcpRequest::burst_read(line, beats), now);
                    self.stats.refills += 1;
                    self.state = State::WaitIFetch { line_addr: line };
                    None
                }
            }
        } else {
            self.port
                .assert_request(net, OcpRequest::read(self.pc), now);
            self.stats.bus_reads += 1;
            self.state = State::WaitIFetchRaw;
            None
        }
    }

    fn execute(&mut self, now: Cycle, net: &mut LinkArena, instr: Instr) {
        use Instr::*;
        self.stats.instructions += 1;
        let next_pc = self.pc.wrapping_add(4);
        match instr {
            Nop => self.pc = next_pc,
            Halt => {
                self.halt_cycle = Some(now);
                self.state = State::Halted;
            }
            Add(d, s, t) => {
                self.write_reg(d, self.reg(s).wrapping_add(self.reg(t)));
                self.pc = next_pc;
            }
            Sub(d, s, t) => {
                self.write_reg(d, self.reg(s).wrapping_sub(self.reg(t)));
                self.pc = next_pc;
            }
            And(d, s, t) => {
                self.write_reg(d, self.reg(s) & self.reg(t));
                self.pc = next_pc;
            }
            Or(d, s, t) => {
                self.write_reg(d, self.reg(s) | self.reg(t));
                self.pc = next_pc;
            }
            Xor(d, s, t) => {
                self.write_reg(d, self.reg(s) ^ self.reg(t));
                self.pc = next_pc;
            }
            Sll(d, s, t) => {
                self.write_reg(d, self.reg(s) << (self.reg(t) & 31));
                self.pc = next_pc;
            }
            Srl(d, s, t) => {
                self.write_reg(d, self.reg(s) >> (self.reg(t) & 31));
                self.pc = next_pc;
            }
            Sra(d, s, t) => {
                self.write_reg(d, ((self.reg(s) as i32) >> (self.reg(t) & 31)) as u32);
                self.pc = next_pc;
            }
            Mul(d, s, t) => {
                self.write_reg(d, self.reg(s).wrapping_mul(self.reg(t)));
                self.pc = next_pc;
            }
            Slt(d, s, t) => {
                self.write_reg(d, ((self.reg(s) as i32) < (self.reg(t) as i32)) as u32);
                self.pc = next_pc;
            }
            Sltu(d, s, t) => {
                self.write_reg(d, (self.reg(s) < self.reg(t)) as u32);
                self.pc = next_pc;
            }
            Addi(d, s, imm) => {
                self.write_reg(d, self.reg(s).wrapping_add(imm as u32));
                self.pc = next_pc;
            }
            Andi(d, s, imm) => {
                self.write_reg(d, self.reg(s) & (imm as u32));
                self.pc = next_pc;
            }
            Ori(d, s, imm) => {
                self.write_reg(d, self.reg(s) | (imm as u32));
                self.pc = next_pc;
            }
            Xori(d, s, imm) => {
                self.write_reg(d, self.reg(s) ^ (imm as u32));
                self.pc = next_pc;
            }
            Slli(d, s, sh) => {
                self.write_reg(d, self.reg(s) << sh);
                self.pc = next_pc;
            }
            Srli(d, s, sh) => {
                self.write_reg(d, self.reg(s) >> sh);
                self.pc = next_pc;
            }
            Srai(d, s, sh) => {
                self.write_reg(d, ((self.reg(s) as i32) >> sh) as u32);
                self.pc = next_pc;
            }
            Slti(d, s, imm) => {
                self.write_reg(d, ((self.reg(s) as i32) < imm) as u32);
                self.pc = next_pc;
            }
            Movi(d, imm) => {
                self.write_reg(d, u32::from(imm));
                self.pc = next_pc;
            }
            Movhi(d, imm) => {
                let low = self.reg(d) & 0xFFFF;
                self.write_reg(d, low | (u32::from(imm) << 16));
                self.pc = next_pc;
            }
            Ldw(rd, rs, imm) => {
                let pc = self.pc;
                let addr = self.reg(rs).wrapping_add(imm as u32);
                if !addr.is_multiple_of(4) {
                    self.stop_with_fault(now, CpuFault::MisalignedAccess { pc, addr });
                    return;
                }
                self.pc = next_pc;
                if self.map.is_cacheable(addr) {
                    if let Some(word) = self.dcache.read(addr) {
                        self.write_reg(rd, word);
                    } else {
                        let line = self.dcache.line_addr(addr);
                        let beats = self.dcache.config().words_per_line as u8;
                        self.port
                            .assert_request(net, OcpRequest::burst_read(line, beats), now);
                        self.stats.refills += 1;
                        self.state = State::WaitDFill {
                            line_addr: line,
                            rd,
                            addr,
                            pc,
                        };
                    }
                } else {
                    self.port.assert_request(net, OcpRequest::read(addr), now);
                    self.stats.bus_reads += 1;
                    self.state = State::WaitLoad { rd, pc };
                }
            }
            Stw(rd, rs, imm) => {
                let addr = self.reg(rs).wrapping_add(imm as u32);
                if !addr.is_multiple_of(4) {
                    self.stop_with_fault(now, CpuFault::MisalignedAccess { pc: self.pc, addr });
                    return;
                }
                let value = self.reg(rd);
                if self.map.is_cacheable(addr) {
                    self.dcache.write_update(addr, value);
                }
                self.port
                    .assert_request(net, OcpRequest::write(addr, value), now);
                self.stats.bus_writes += 1;
                self.state = State::WaitStore;
                self.pc = next_pc;
            }
            Branch(cond, rs, rt, off) => {
                self.pc = if cond.eval(self.reg(rs), self.reg(rt)) {
                    next_pc.wrapping_add((off as u32).wrapping_mul(4))
                } else {
                    next_pc
                };
            }
            J(off) => {
                self.pc = next_pc.wrapping_add((off as u32).wrapping_mul(4));
            }
            Jal(off) => {
                self.write_reg(crate::isa::R15, next_pc);
                self.pc = next_pc.wrapping_add((off as u32).wrapping_mul(4));
            }
            Jr(rs) => {
                self.pc = self.reg(rs);
            }
        }
    }
}

impl Component<LinkArena> for RefCore {
    fn name(&self) -> &str {
        "ref"
    }

    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        let Some(raw) = self.resolve(now, net) else {
            return;
        };
        let Some(word) = self.fetch(now, net, raw) else {
            return;
        };
        match decode(word) {
            Ok(instr) => self.execute(now, net, instr),
            Err(e) => self.stop_with_fault(
                now,
                CpuFault::IllegalInstruction {
                    pc: self.pc,
                    word: e.word,
                },
            ),
        }
    }
}

mod tests {
    use std::sync::Mutex;

    use ntg_mem::{MemoryDevice, RegionKind};
    use ntg_ocp::{ChannelObserver, MasterId, OcpCmd, OcpResponse, SlaveId};
    use ntg_sim::Activity;

    use super::*;
    use crate::asm::{Asm, Program};
    use crate::cache::CacheConfig;
    use crate::isa::{R0, R10, R11, R12, R15, R9};
    use crate::CpuCore;

    const PRIV: u32 = 0;
    const DATA: u32 = PRIV + 0x8000;
    const SHARED: u32 = 0x0010_0000;
    /// Code preloaded into uncached memory: fetched word by word.
    const STUB: u32 = SHARED + 0x400;
    /// Beyond the memory device: every access errors.
    const UNMAPPED: u32 = 0x4000_0000;
    const SP: u32 = PRIV + 0x000F_0000;

    struct Xorshift(u64);

    impl Xorshift {
        fn new(seed: u64) -> Self {
            Self((seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u32) -> u32 {
            (self.next() % u64::from(n)) as u32
        }
    }

    /// One event at the core's OCP interface, stamped with its cycle.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Event {
        Request(Cycle, OcpCmd, u32, Vec<u32>, u64),
        Accept(Cycle, u64),
        Response(Cycle, u64, bool, Vec<u32>),
        Consumed(Cycle, u64),
    }

    struct Recorder(Arc<Mutex<Vec<Event>>>);

    impl ChannelObserver for Recorder {
        fn on_request(&mut self, now: Cycle, req: &OcpRequest) {
            let event = Event::Request(now, req.cmd, req.addr, req.data.to_vec(), req.tag);
            self.0.lock().unwrap().push(event);
        }
        fn on_accept(&mut self, now: Cycle, req: &OcpRequest) {
            self.0.lock().unwrap().push(Event::Accept(now, req.tag));
        }
        fn on_response(&mut self, now: Cycle, resp: &OcpResponse) {
            let ok = resp.status == OcpStatus::Ok;
            let event = Event::Response(now, resp.tag, ok, resp.data.to_vec());
            self.0.lock().unwrap().push(event);
        }
        fn on_response_consumed(&mut self, now: Cycle, resp: &OcpResponse) {
            self.0.lock().unwrap().push(Event::Consumed(now, resp.tag));
        }
    }

    /// What the two cores are compared on.
    trait Dut: Component<LinkArena> {
        fn snapshot(&self) -> Snapshot;
        fn done(&self) -> bool;
    }

    #[derive(Debug, PartialEq, Eq)]
    struct Snapshot {
        halt_cycle: Option<Cycle>,
        fault: Option<CpuFault>,
        regs: [u32; 16],
        pc: u32,
        stats: CpuStats,
    }

    impl Dut for RefCore {
        fn snapshot(&self) -> Snapshot {
            Snapshot {
                halt_cycle: self.halt_cycle,
                fault: self.fault,
                regs: self.regs,
                pc: self.pc,
                stats: self.stats(),
            }
        }
        fn done(&self) -> bool {
            self.state == State::Halted
        }
    }

    impl Dut for CpuCore {
        fn snapshot(&self) -> Snapshot {
            Snapshot {
                halt_cycle: self.halt_cycle(),
                fault: self.fault(),
                regs: self.regs(),
                pc: self.pc(),
                stats: self.stats(),
            }
        }
        fn done(&self) -> bool {
            self.halted()
        }
    }

    /// How a core under test is visited.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Drive {
        /// Ticked every cycle, like `Platform::step`.
        EveryCycle,
        /// Ticked only in cycles its `next_activity` hint names, like
        /// `Platform::run` (the hint is re-read every cycle, which
        /// stands in for the engine's link wake-ups).
        OnDemand,
    }

    /// A generated program with the cycle its run is cut at.
    struct Case {
        program: Program,
        stub: Vec<u32>,
        cfg: CpuConfig,
        cap: Cycle,
    }

    /// Runs `case` on a core wired straight into one memory device and
    /// returns the core's final state, its OCP event stream and how many
    /// cycles it was visited in.
    fn run<C: Dut>(
        case: &Case,
        drive: Drive,
        make: impl FnOnce(MasterPort, Arc<AddressMap>) -> C,
    ) -> (Snapshot, Vec<Event>, u64) {
        let mut map = AddressMap::new();
        map.add(
            "priv",
            PRIV,
            0x10_0000,
            SlaveId(0),
            RegionKind::PrivateMemory,
        )
        .unwrap();
        map.add(
            "shared",
            SHARED,
            0x10_0000,
            SlaveId(0),
            RegionKind::SharedMemory,
        )
        .unwrap();
        let mut net = LinkArena::new();
        let (mport, sport) = net.channel("cpu", MasterId(0));
        let events = Arc::new(Mutex::new(Vec::new()));
        mport.set_observer(&mut net, Box::new(Recorder(events.clone())));
        let mut mem = MemoryDevice::new("ram", 0, 0x20_0000, sport);
        mem.load_words(case.program.entry(), case.program.words());
        mem.load_words(STUB, &case.stub);
        let mut core = make(mport, Arc::new(map));
        net.set_run_end(case.cap);
        let mut visits = 0;
        for now in 0..case.cap {
            let visit = match drive {
                Drive::EveryCycle => true,
                Drive::OnDemand => match core.next_activity(now, &net) {
                    Activity::Busy => true,
                    Activity::IdleUntil(wake) => wake <= now,
                    Activity::Drained => false,
                },
            };
            if visit {
                core.tick(now, &mut net);
                visits += 1;
            }
            mem.tick(now, &mut net);
            if core.done() && mport.is_quiet(&net) {
                break;
            }
        }
        let events = events.lock().unwrap().clone();
        (core.snapshot(), events, visits)
    }

    const DATA_REGS: u32 = 8; // r1..=r8 hold generated values

    fn data_reg(rng: &mut Xorshift) -> Reg {
        Reg::new(1 + rng.below(DATA_REGS) as u8)
    }

    /// A source operand: mostly a data register, sometimes `r0` or one
    /// of the pointer registers.
    fn src_reg(rng: &mut Xorshift) -> Reg {
        match rng.below(10) {
            0 => R0,
            1 => [R10, R11, Reg::new(13), R15][rng.below(4) as usize],
            _ => data_reg(rng),
        }
    }

    fn imm18(rng: &mut Xorshift) -> i32 {
        rng.below(1 << 18) as i32 - (1 << 17)
    }

    /// Between `min` and `min + spread - 1` register instructions.
    fn alu(a: &mut Asm, rng: &mut Xorshift, min: u32, spread: u32) {
        use Instr::*;
        for _ in 0..min + rng.below(spread) {
            let (d, s, t) = (data_reg(rng), src_reg(rng), src_reg(rng));
            let sh = rng.below(32) as u8;
            let imm16 = rng.next() as u16;
            a.instr(match rng.below(23) {
                0 => Nop,
                1 => Add(d, s, t),
                2 => Sub(d, s, t),
                3 => And(d, s, t),
                4 => Or(d, s, t),
                5 => Xor(d, s, t),
                6 => Sll(d, s, t),
                7 => Srl(d, s, t),
                8 => Sra(d, s, t),
                9 => Mul(d, s, t),
                10 => Slt(d, s, t),
                11 => Sltu(d, s, t),
                12 => Addi(d, s, imm18(rng)),
                13 => Andi(d, s, imm18(rng)),
                14 => Ori(d, s, imm18(rng)),
                15 => Xori(d, s, imm18(rng)),
                16 => Slli(d, s, sh),
                17 => Srli(d, s, sh),
                18 => Srai(d, s, sh),
                19 => Slti(d, s, imm18(rng)),
                20 => Movi(d, imm16),
                21 => Movhi(d, imm16),
                _ => Addi(R0, s, imm18(rng)), // write to r0: discarded
            });
        }
    }

    /// A load or store in the cached data window (64 words: more lines
    /// than the tiny dcache holds, so hits, misses and evictions mix) or
    /// in uncached shared memory.
    fn memory_op(a: &mut Asm, rng: &mut Xorshift) {
        let r = data_reg(rng);
        let (base, words) = if rng.below(4) == 0 {
            (R11, 16)
        } else {
            (R10, 64)
        };
        let off = (rng.below(words) * 4) as i32;
        if rng.below(3) == 0 {
            a.stw(r, base, off);
        } else {
            a.ldw(r, base, off);
        }
    }

    fn block(a: &mut Asm, rng: &mut Xorshift, labels: &mut u32) {
        match rng.below(10) {
            0..=2 => alu(a, rng, 1, 8),
            // Straight-line code across several icache lines.
            3 => alu(a, rng, 9, 16),
            4 | 5 => memory_op(a, rng),
            6 | 7 => {
                // A counted loop, usually tight enough to stay cached.
                let label = format!("loop{}", *labels);
                *labels += 1;
                a.li(R9, 1 + rng.below(30));
                a.label(label.clone());
                alu(a, rng, 1, 5);
                if rng.below(2) == 0 {
                    memory_op(a, rng);
                }
                a.addi(R9, R9, -1);
                a.bne(R9, R0, label);
            }
            _ => {
                a.jal(format!("fn{}", rng.below(2)));
            }
        }
    }

    /// How a generated program ends.
    fn ending(a: &mut Asm, rng: &mut Xorshift) {
        match rng.below(16) {
            0 => {
                // Misaligned access: faults in its own cycle.
                let off = 1 + rng.below(3) as i32;
                if rng.below(2) == 0 {
                    a.ldw(data_reg(rng), R10, off);
                } else {
                    a.stw(data_reg(rng), R10, off);
                }
            }
            1 => {
                a.word(0xFFFF_FFFF); // illegal opcode
            }
            2 => {
                a.word(17 << 26 | 0x3_FFFF); // slli with a shift amount of 2^18 - 1
            }
            3 => {
                // Continue in uncached memory.
                a.li(R12, STUB);
                a.jr(R12);
            }
            4 => {
                // Fetch from beyond the memory: bus error.
                a.li(R12, UNMAPPED);
                a.jr(R12);
            }
            5 => {
                // Load from beyond the memory: bus error on data.
                a.li(R12, UNMAPPED);
                a.ldw(data_reg(rng), R12, 0);
            }
            6 => {
                a.label("spin");
                a.j("spin"); // never halts: the cap ends the run
            }
            7 => {
                // Spins with cached loads: a burst that never ends.
                a.label("spin");
                alu(a, rng, 1, 3);
                a.ldw(data_reg(rng), R10, (rng.below(4) * 4) as i32);
                a.j("spin");
            }
            _ => {
                a.halt();
            }
        }
    }

    fn generate(case: u64) -> Case {
        let mut rng = Xorshift::new(case);
        let mut a = Asm::new();
        a.li(R10, DATA);
        a.li(R11, SHARED + 0x100);
        for r in 1..=DATA_REGS {
            a.li(Reg::new(r as u8), rng.next() as u32);
        }
        let mut labels = 0;
        for _ in 0..1 + rng.below(14) {
            block(&mut a, &mut rng, &mut labels);
        }
        ending(&mut a, &mut rng);
        // Callees, past the end of the main flow.
        a.halt();
        a.label("fn0");
        alu(&mut a, &mut rng, 1, 4);
        a.jr(R15);
        a.label("fn1");
        alu(&mut a, &mut rng, 1, 3);
        memory_op(&mut a, &mut rng);
        a.jr(R15);
        let program = a.assemble(PRIV).expect("generated program assembles");

        let mut stub = Asm::new();
        alu(&mut stub, &mut rng, 1, 3);
        memory_op(&mut stub, &mut rng);
        stub.halt();
        let stub = stub
            .assemble(STUB)
            .expect("stub assembles")
            .words()
            .to_vec();

        let geometry = match rng.below(5) {
            0 | 1 => CacheConfig::tiny(),
            2 | 3 => CacheConfig::default_l1(),
            // Lines longer than the inline OCP payload, odd associativity.
            _ => CacheConfig {
                sets: 2,
                ways: 3,
                words_per_line: 8,
            },
        };
        // Half the runs are cut short somewhere inside the program, so
        // the state of an incomplete run is compared too.
        let cap = if rng.below(2) == 0 {
            40 + Cycle::from(rng.below(3_000))
        } else {
            30_000
        };
        Case {
            program,
            stub,
            cfg: CpuConfig {
                icache: geometry,
                dcache: geometry,
            },
            cap,
        }
    }

    /// A program aimed at the cache memos, mostly on 2-set caches, direct
    /// mapped or 2-way: counted loops whose body starts just before a line
    /// boundary, so that it runs on two memoised lines, and that call a
    /// function whose line aliases one of them (every call's refill
    /// evicts a memoised line mid-loop), store into the memoised data
    /// line and load it back, or load from two data lines of one set in
    /// turn.
    fn generate_memo(case: u64) -> Case {
        let mut rng = Xorshift::new(case ^ 0x6D65_6D6F);
        let geometry = match rng.below(4) {
            // Every line of the loop, the callee and the data evicts or
            // is evicted by another of its set; with two ways, LRU picks.
            ways @ (1 | 2) => CacheConfig {
                sets: 2,
                ways,
                words_per_line: 4,
            },
            0 => CacheConfig::tiny(),
            _ => CacheConfig::default_l1(),
        };
        let line_words = geometry.words_per_line;
        // The distance between two lines of one set.
        let alias = geometry.line_bytes() * geometry.sets;
        let mut a = Asm::new();
        a.li(R10, DATA);
        a.li(R11, DATA + alias);
        for r in 1..=DATA_REGS {
            a.li(Reg::new(r as u8), rng.next() as u32);
        }
        for n in 0..1 + rng.below(4) {
            let label = format!("memo{n}");
            a.align(line_words);
            for _ in 0..line_words - 1 - rng.below(2) {
                a.nop();
            }
            a.li(R9, 1 + rng.below(20));
            a.label(label.clone());
            alu(&mut a, &mut rng, 1, 4);
            let word = |rng: &mut Xorshift| (rng.below(line_words) * 4) as i32;
            match rng.below(4) {
                0 => {
                    a.jal("far");
                }
                1 => {
                    let off = word(&mut rng);
                    a.ldw(data_reg(&mut rng), R10, word(&mut rng));
                    a.stw(data_reg(&mut rng), R10, off);
                    a.ldw(data_reg(&mut rng), R10, off);
                }
                2 => {
                    a.ldw(data_reg(&mut rng), R10, word(&mut rng));
                    a.ldw(data_reg(&mut rng), R11, word(&mut rng));
                }
                _ => memory_op(&mut a, &mut rng),
            }
            alu(&mut a, &mut rng, 1, 3);
            a.addi(R9, R9, -1);
            a.bne(R9, R0, label);
        }
        ending(&mut a, &mut rng);
        a.halt();
        a.label("far");
        alu(&mut a, &mut rng, 1, 3);
        a.jr(R15);
        let program = a.assemble(PRIV).expect("generated program assembles");
        let mut stub = Asm::new();
        alu(&mut stub, &mut rng, 1, 3);
        stub.halt();
        let stub = stub
            .assemble(STUB)
            .expect("stub assembles")
            .words()
            .to_vec();
        let cap = if rng.below(2) == 0 {
            40 + Cycle::from(rng.below(3_000))
        } else {
            30_000
        };
        Case {
            program,
            stub,
            cfg: CpuConfig {
                icache: geometry,
                dcache: geometry,
            },
            cap,
        }
    }

    fn differential(cases: std::ops::Range<u64>, generate: fn(u64) -> Case) {
        let (mut halted, mut faulted, mut capped) = (0u32, 0u32, 0u32);
        let (mut dense_visits, mut sparse_visits) = (0u64, 0u64);
        for n in cases {
            let case = generate(n);
            let cfg = case.cfg;
            let entry = case.program.entry();
            let reference = run(&case, Drive::EveryCycle, |port, map| {
                RefCore::new(port, map, cfg, entry, SP)
            });
            for drive in [Drive::EveryCycle, Drive::OnDemand] {
                let got = run(&case, drive, |port, map| {
                    CpuCore::new("cpu", port, map, cfg, entry, SP)
                });
                assert_eq!(got.0, reference.0, "case {n} {drive:?}: core state");
                assert_eq!(got.1, reference.1, "case {n} {drive:?}: OCP events");
                match drive {
                    Drive::EveryCycle => dense_visits += got.2,
                    Drive::OnDemand => sparse_visits += got.2,
                }
            }
            match (reference.0.fault, reference.0.halt_cycle) {
                (Some(_), _) => faulted += 1,
                (None, Some(_)) => halted += 1,
                (None, None) => capped += 1,
            }
        }
        // The generator must keep reaching every kind of ending, and the
        // hints must let a driver skip most of the core's cycles.
        assert!(halted > 0 && faulted > 0 && capped > 0);
        assert!(
            sparse_visits * 4 < dense_visits,
            "on demand: {sparse_visits} visits of {dense_visits} cycles"
        );
    }

    #[test]
    fn cpu_core_matches_the_per_cycle_reference() {
        differential(0..2_000, generate);
    }

    /// Programs aimed at the line memos and batched hits; `ci.sh` runs it
    /// by name in release under a timeout.
    #[test]
    fn cpu_core_matches_the_reference_on_memoised_lines() {
        differential(0..2_000, generate_memo);
    }

    /// Ten times the programs; `ci.sh` runs it in release under a
    /// timeout, so a burst that never returns fails fast.
    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn cpu_core_matches_the_per_cycle_reference_long() {
        differential(2_000..22_000, generate);
    }

    #[test]
    fn a_visit_is_bounded_without_a_run_end() {
        // No driver set a run end: the burst ceiling alone returns
        // control, and the core still executes one instruction per
        // simulated cycle.
        const CYCLES: Cycle = 20_000;
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        let program = a.assemble(PRIV).unwrap();
        let mut map = AddressMap::new();
        map.add(
            "priv",
            PRIV,
            0x10_0000,
            SlaveId(0),
            RegionKind::PrivateMemory,
        )
        .unwrap();
        let mut net = LinkArena::new();
        let (mport, sport) = net.channel("cpu", MasterId(0));
        let mut mem = MemoryDevice::new("ram", 0, 0x10_0000, sport);
        mem.load_words(PRIV, program.words());
        let mut core = CpuCore::new("cpu", mport, Arc::new(map), CpuConfig::default(), PRIV, SP);
        assert_eq!(net.run_end(), Cycle::MAX);
        let mut visits = 0;
        for now in 0..CYCLES {
            let before = core.stats().instructions;
            core.tick(now, &mut net);
            mem.tick(now, &mut net);
            let executed = core.stats().instructions - before;
            assert!(
                executed <= crate::core::BURST_CEILING + 1,
                "one visit executed {executed} instructions"
            );
            visits += u32::from(executed > 0);
        }
        // Refill done at cycle 7; cycles 7.. are covered by bursts.
        let instructions = core.stats().instructions;
        assert!(instructions >= CYCLES - 7, "{instructions} retired");
        assert!(visits <= 6, "{visits} visits for 20 000 cycles");
        assert_eq!(core.fault(), None);
    }
}
