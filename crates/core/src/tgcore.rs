//! The TG processor simulation model: a multi-cycle "very simple
//! instruction set processor" (paper §4).

use ntg_ocp::{DataWords, LinkArena, MasterPort, OcpRequest, OcpStatus};
use ntg_sim::{Activity, Component, Cycle};

use crate::image::TgImage;
use crate::isa::TgInstr;

/// Execution statistics of one TG.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TgStats {
    /// Instructions executed (each `Idle` counts once).
    pub instructions: u64,
    /// Single reads issued.
    pub reads: u64,
    /// Single writes issued.
    pub writes: u64,
    /// Burst reads issued.
    pub burst_reads: u64,
    /// Burst writes issued.
    pub burst_writes: u64,
    /// Cycles spent in `Idle`/`IdleUntil`.
    pub idle_cycles: u64,
    /// Cycles spent blocked on the interconnect (request asserted,
    /// waiting for acceptance or a response) — the RUN-state residency
    /// lost to memory latency and arbitration, including the round-trip
    /// portion of SEMCHK-style poll loops.
    pub wait_cycles: u64,
}

/// A fault that stopped a TG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TgFault {
    /// Execution ran past the last instruction without `Halt`.
    PcOutOfRange {
        /// The offending pc.
        pc: usize,
    },
    /// A burst count register held 0 or a value above 255.
    BadBurstCount {
        /// The offending pc.
        pc: usize,
        /// The register's value.
        value: u32,
    },
    /// The interconnect returned an error response.
    BusError {
        /// The pc of the offending OCP instruction.
        pc: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Ready,
    Idling { remaining: u32 },
    IdlingUntil { cycle: u64 },
    WaitResp,
    WaitAccept,
    Halted,
}

/// The traffic-generator core: executes a [`TgImage`] against an OCP
/// master port.
///
/// Plug-compatible with `ntg_cpu::CpuCore` at the OCP boundary and
/// follows the identical blocking discipline: OCP instructions assert
/// their request in their execution cycle; reads block until the response
/// and capture its first data word in `rdreg`; writes are posted but
/// block until accepted; the next instruction executes on the cycle after
/// the unblocking event. All other instructions take one cycle, except
/// `Idle(n)` (exactly `n` cycles) and `IdleUntil(c)` (up to cycle `c`).
///
/// The simulation speedup the paper reports comes from this model doing
/// drastically less work per cycle than an instruction-set simulator with
/// caches — there is no fetch/decode from simulated memory, no cache
/// lookups, no register forwarding; just a small state machine.
pub struct TgCore {
    name: String,
    port: MasterPort,
    image: TgImage,
    regs: [u32; 16],
    pc: usize,
    state: State,
    halt_cycle: Option<Cycle>,
    fault: Option<TgFault>,
    stats: TgStats,
}

impl TgCore {
    /// Creates a TG executing `image` through `port`.
    ///
    /// Register-file initialisation from the image is applied
    /// immediately (it costs zero simulated cycles, like a program
    /// load).
    pub fn new(name: impl Into<String>, port: MasterPort, image: TgImage) -> Self {
        let mut regs = [0u32; 16];
        for (reg, value) in &image.inits {
            regs[reg.num() as usize] = *value;
        }
        Self {
            name: name.into(),
            port,
            image,
            regs,
            pc: 0,
            state: State::Ready,
            halt_cycle: None,
            fault: None,
            stats: TgStats::default(),
        }
    }

    /// Whether the TG has halted (normally or by fault).
    pub fn halted(&self) -> bool {
        self.state == State::Halted
    }

    /// Whether the TG is blocked on an outstanding OCP transaction
    /// (request asserted, waiting for acceptance or a response).
    ///
    /// A scheduler (see [`TgMultiCore`](crate::TgMultiCore)) must not
    /// preempt a blocked generator: a real master cannot retract a
    /// request that is already driving the wires.
    pub fn is_blocked(&self) -> bool {
        matches!(self.state, State::WaitResp | State::WaitAccept)
    }

    /// The cycle in which `Halt` executed, if it has.
    pub fn halt_cycle(&self) -> Option<Cycle> {
        self.halt_cycle
    }

    /// The fault that stopped the TG, if any.
    pub fn fault(&self) -> Option<TgFault> {
        self.fault
    }

    /// Current register values (`regs()[0]` is `rdreg`).
    pub fn regs(&self) -> [u32; 16] {
        self.regs
    }

    /// Execution statistics.
    pub fn stats(&self) -> TgStats {
        self.stats
    }

    fn stop_with_fault(&mut self, now: Cycle, fault: TgFault) {
        self.fault = Some(fault);
        self.halt_cycle = Some(now);
        self.state = State::Halted;
    }

    /// Resolves waits; returns whether an instruction may execute now.
    fn resolve(&mut self, now: Cycle, net: &mut LinkArena) -> bool {
        match self.state {
            State::Ready => true,
            State::Halted => false,
            State::Idling { remaining } => {
                self.stats.idle_cycles += 1;
                if remaining <= 1 {
                    self.state = State::Ready;
                } else {
                    self.state = State::Idling {
                        remaining: remaining - 1,
                    };
                }
                false
            }
            State::IdlingUntil { cycle } => {
                if now >= cycle {
                    self.state = State::Ready;
                    true
                } else {
                    self.stats.idle_cycles += 1;
                    false
                }
            }
            State::WaitResp => match self.port.take_response(net, now) {
                Some(resp) => {
                    if resp.status != OcpStatus::Ok {
                        self.stop_with_fault(now, TgFault::BusError { pc: self.pc - 1 });
                        return false;
                    }
                    self.regs[0] = resp.data.first().copied().unwrap_or(0);
                    self.state = State::Ready;
                    true
                }
                None => {
                    self.stats.wait_cycles += 1;
                    false
                }
            },
            State::WaitAccept => {
                if self.port.take_accept(net, now).is_some() {
                    self.state = State::Ready;
                    true
                } else {
                    self.stats.wait_cycles += 1;
                    false
                }
            }
        }
    }

    fn execute(&mut self, now: Cycle, net: &mut LinkArena) {
        let Some(&instr) = self.image.instrs.get(self.pc) else {
            self.stop_with_fault(now, TgFault::PcOutOfRange { pc: self.pc });
            return;
        };
        self.stats.instructions += 1;
        let reg = |r: crate::isa::TgReg| self.regs[r.num() as usize];
        match instr {
            TgInstr::Read { addr } => {
                self.port
                    .assert_request(net, OcpRequest::read(reg(addr)), now);
                self.stats.reads += 1;
                self.state = State::WaitResp;
                self.pc += 1;
            }
            TgInstr::Write { addr, data } => {
                self.port
                    .assert_request(net, OcpRequest::write(reg(addr), reg(data)), now);
                self.stats.writes += 1;
                self.state = State::WaitAccept;
                self.pc += 1;
            }
            TgInstr::BurstRead { addr, count } => {
                let n = reg(count);
                if n == 0 || n > 255 {
                    self.stop_with_fault(
                        now,
                        TgFault::BadBurstCount {
                            pc: self.pc,
                            value: n,
                        },
                    );
                    return;
                }
                self.port
                    .assert_request(net, OcpRequest::burst_read(reg(addr), n as u8), now);
                self.stats.burst_reads += 1;
                self.state = State::WaitResp;
                self.pc += 1;
            }
            TgInstr::BurstWrite { addr, data, count } => {
                let n = reg(count);
                if n == 0 || n > 255 {
                    self.stop_with_fault(
                        now,
                        TgFault::BadBurstCount {
                            pc: self.pc,
                            value: n,
                        },
                    );
                    return;
                }
                let payload = DataWords::splat(reg(data), n as usize);
                self.port
                    .assert_request(net, OcpRequest::burst_write(reg(addr), payload), now);
                self.stats.burst_writes += 1;
                self.state = State::WaitAccept;
                self.pc += 1;
            }
            TgInstr::If { a, b, cond, target } => {
                self.pc = if cond.eval(reg(a), reg(b)) {
                    target as usize
                } else {
                    self.pc + 1
                };
            }
            TgInstr::Jump { target } => {
                self.pc = target as usize;
            }
            TgInstr::SetRegister { reg: r, value } => {
                self.regs[r.num() as usize] = value;
                self.pc += 1;
            }
            TgInstr::Idle { cycles } => {
                // This cycle is the first idle cycle.
                self.stats.idle_cycles += 1;
                if cycles > 1 {
                    self.state = State::Idling {
                        remaining: cycles - 1,
                    };
                }
                self.pc += 1;
            }
            TgInstr::IdleUntil { cycle } => {
                self.stats.idle_cycles += 1;
                if cycle > now + 1 {
                    self.state = State::IdlingUntil { cycle };
                }
                self.pc += 1;
            }
            TgInstr::Halt => {
                self.halt_cycle = Some(now);
                self.state = State::Halted;
            }
        }
    }
}

impl Component<LinkArena> for TgCore {
    fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        if self.resolve(now, net) {
            self.execute(now, net);
        }
    }

    #[inline]
    fn is_idle(&self, net: &LinkArena) -> bool {
        self.halted() && self.port.is_quiet(net)
    }

    #[inline]
    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        match self.state {
            State::Ready => Activity::Busy,
            State::Halted => {
                if self.port.is_quiet(net) {
                    Activity::Drained
                } else {
                    Activity::Busy
                }
            }
            State::Idling { remaining } => Activity::IdleUntil(now + Cycle::from(remaining)),
            // `cycle <= now` happens when a multi-core scheduler resumes a
            // task past its deadline; the next tick executes immediately.
            State::IdlingUntil { cycle } if cycle > now => Activity::IdleUntil(cycle),
            State::IdlingUntil { .. } => Activity::Busy,
            State::WaitResp => Activity::awaiting(self.port.response_visible_at(net), now),
            State::WaitAccept => Activity::awaiting(self.port.accept_visible_at(net), now),
        }
    }

    fn skip(&mut self, now: Cycle, next: Cycle, _net: &mut LinkArena) {
        let n = next - now;
        match self.state {
            State::Idling { remaining } => {
                debug_assert!(n <= Cycle::from(remaining));
                self.stats.idle_cycles += n;
                let left = remaining - n as u32;
                if left == 0 {
                    self.state = State::Ready;
                } else {
                    self.state = State::Idling { remaining: left };
                }
            }
            State::IdlingUntil { cycle } => {
                debug_assert!(next <= cycle);
                self.stats.idle_cycles += n;
            }
            // Each skipped blocked cycle would have been a failed
            // `resolve` tick; replicate its counter effect exactly.
            State::WaitResp | State::WaitAccept => {
                self.stats.wait_cycles += n;
            }
            // Ready is never skipped; halted ticks have no side effects.
            State::Ready | State::Halted => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::isa::{TgCond, TgReg, RDREG, TEMPREG};
    use crate::program::{TgProgram, TgSymInstr};
    use ntg_mem::MemoryDevice;
    use ntg_ocp::MasterId;

    fn build(f: impl FnOnce(&mut TgProgram)) -> TgImage {
        let mut p = TgProgram::new(0);
        f(&mut p);
        assemble(&p).unwrap()
    }

    /// TG wired straight into one memory device at 0x1000.
    fn system(image: TgImage) -> (LinkArena, TgCore, MemoryDevice) {
        let mut net = LinkArena::new();
        let (mport, sport) = net.channel("tg0", MasterId(0));
        let mem = MemoryDevice::new("ram", 0x1000, 0x1000, sport);
        (net, TgCore::new("tg0", mport, image), mem)
    }

    fn run(net: &mut LinkArena, tg: &mut TgCore, mem: &mut MemoryDevice, max: Cycle) -> Cycle {
        for now in 0..max {
            tg.tick(now, net);
            mem.tick(now, net);
            if tg.halted() && tg.port.is_quiet(net) {
                return now;
            }
        }
        panic!("TG did not halt within {max} cycles");
    }

    #[test]
    fn idle_then_halt_timing_is_exact() {
        let img = build(|p| {
            p.push(TgSymInstr::Idle(11));
            p.push(TgSymInstr::Halt);
        });
        let (mut net, mut tg, mut mem) = system(img);
        run(&mut net, &mut tg, &mut mem, 100);
        // Idle occupies cycles 0..=10, halt executes at 11.
        assert_eq!(tg.halt_cycle(), Some(11));
        assert_eq!(tg.stats().idle_cycles, 11);
    }

    #[test]
    fn idle_one_costs_one_cycle() {
        let img = build(|p| {
            p.push(TgSymInstr::Idle(1));
            p.push(TgSymInstr::Halt);
        });
        let (mut net, mut tg, mut mem) = system(img);
        run(&mut net, &mut tg, &mut mem, 100);
        assert_eq!(tg.halt_cycle(), Some(1));
    }

    #[test]
    fn read_blocks_and_captures_rdreg() {
        let img = build(|p| {
            p.inits.push((TgReg::new(2), 0x1010));
            p.push(TgSymInstr::Read(TgReg::new(2)));
            p.push(TgSymInstr::Halt);
        });
        let (mut net, mut tg, mut mem) = system(img);
        mem.poke(0x1010, 0xCAFE);
        run(&mut net, &mut tg, &mut mem, 100);
        assert_eq!(tg.regs()[0], 0xCAFE);
        // read asserts @0, resp pushed @3, visible @4 → halt at 4.
        assert_eq!(tg.halt_cycle(), Some(4));
        // Cycles 1..=3 were failed resolves while blocked.
        assert_eq!(tg.stats().wait_cycles, 3);
    }

    #[test]
    fn write_is_posted_but_waits_for_accept() {
        let img = build(|p| {
            p.inits.push((TgReg::new(2), 0x1004));
            p.inits.push((TgReg::new(3), 0x99));
            p.push(TgSymInstr::Write(TgReg::new(2), TgReg::new(3)));
            p.push(TgSymInstr::Halt);
        });
        let (mut net, mut tg, mut mem) = system(img);
        run(&mut net, &mut tg, &mut mem, 100);
        assert_eq!(mem.peek(0x1004), 0x99);
        // write asserts @0, accepted @3 (after 1 ws + 1 beat), visible
        // @4 → halt at 4.
        assert_eq!(tg.halt_cycle(), Some(4));
        assert_eq!(tg.stats().wait_cycles, 3);
    }

    #[test]
    fn burst_read_uses_count_register() {
        let img = build(|p| {
            p.inits.push((TgReg::new(2), 0x1000));
            p.inits.push((TgReg::new(4), 4));
            p.push(TgSymInstr::BurstRead(TgReg::new(2), TgReg::new(4)));
            p.push(TgSymInstr::Halt);
        });
        let (mut net, mut tg, mut mem) = system(img);
        mem.load_words(0x1000, &[7, 8, 9, 10]);
        run(&mut net, &mut tg, &mut mem, 100);
        assert_eq!(tg.regs()[0], 7, "rdreg holds the first burst word");
        assert_eq!(tg.stats().burst_reads, 1);
    }

    #[test]
    fn burst_write_repeats_data_word() {
        let img = build(|p| {
            p.inits.push((TgReg::new(2), 0x1020));
            p.inits.push((TgReg::new(3), 0xAB));
            p.inits.push((TgReg::new(4), 3));
            p.push(TgSymInstr::BurstWrite(
                TgReg::new(2),
                TgReg::new(3),
                TgReg::new(4),
            ));
            p.push(TgSymInstr::Halt);
        });
        let (mut net, mut tg, mut mem) = system(img);
        run(&mut net, &mut tg, &mut mem, 100);
        assert_eq!(mem.peek(0x1020), 0xAB);
        assert_eq!(mem.peek(0x1028), 0xAB);
    }

    #[test]
    fn bad_burst_count_faults() {
        let img = build(|p| {
            p.inits.push((TgReg::new(2), 0x1000));
            p.inits.push((TgReg::new(4), 0));
            p.push(TgSymInstr::BurstRead(TgReg::new(2), TgReg::new(4)));
        });
        let (mut net, mut tg, mut mem) = system(img);
        for now in 0..10 {
            tg.tick(now, &mut net);
            mem.tick(now, &mut net);
        }
        assert_eq!(tg.fault(), Some(TgFault::BadBurstCount { pc: 0, value: 0 }));
    }

    #[test]
    fn running_off_the_end_faults() {
        let img = build(|p| {
            p.push(TgSymInstr::Idle(1));
        });
        let (mut net, mut tg, mut mem) = system(img);
        for now in 0..10 {
            tg.tick(now, &mut net);
            mem.tick(now, &mut net);
        }
        assert_eq!(tg.fault(), Some(TgFault::PcOutOfRange { pc: 1 }));
    }

    #[test]
    fn semchk_loop_polls_until_expected() {
        // Poll 0x1000 until it reads 5. The memory starts at 0; we flip
        // it after a while, emulating another master's release.
        let img = build(|p| {
            p.inits.push((TgReg::new(2), 0x1000));
            p.inits.push((TEMPREG, 5));
            p.label("semchk");
            p.push(TgSymInstr::Read(TgReg::new(2)));
            p.push(TgSymInstr::If(RDREG, TEMPREG, TgCond::Ne, "semchk".into()));
            p.push(TgSymInstr::Halt);
        });
        let (mut net, mut tg, mut mem) = system(img);
        let mut halted_at = None;
        for now in 0..200 {
            if now == 40 {
                mem.poke(0x1000, 5);
            }
            tg.tick(now, &mut net);
            mem.tick(now, &mut net);
            if tg.halted() {
                halted_at = Some(now);
                break;
            }
        }
        let at = halted_at.expect("poll loop must terminate");
        assert!(at > 40, "several failed polls before the flip");
        assert!(tg.stats().reads >= 5, "polled repeatedly");
        assert_eq!(tg.regs()[0], 5);
    }

    #[test]
    fn idle_until_waits_for_absolute_cycle() {
        let img = build(|p| {
            p.push(TgSymInstr::IdleUntil(20));
            p.push(TgSymInstr::Halt);
        });
        let (mut net, mut tg, mut mem) = system(img);
        run(&mut net, &mut tg, &mut mem, 100);
        assert_eq!(tg.halt_cycle(), Some(20));
    }

    #[test]
    fn idle_until_in_the_past_is_single_cycle() {
        let img = build(|p| {
            p.push(TgSymInstr::Idle(30));
            p.push(TgSymInstr::IdleUntil(5));
            p.push(TgSymInstr::Halt);
        });
        let (mut net, mut tg, mut mem) = system(img);
        run(&mut net, &mut tg, &mut mem, 100);
        assert_eq!(tg.halt_cycle(), Some(31), "acts as a one-cycle idle");
    }

    #[test]
    fn jump_rewinds_like_the_paper_listing() {
        // start: Write; Jump(start) — runs forever; check it repeats.
        let img = build(|p| {
            p.inits.push((TgReg::new(2), 0x1000));
            p.inits.push((TgReg::new(3), 1));
            p.label("start");
            p.push(TgSymInstr::Write(TgReg::new(2), TgReg::new(3)));
            p.push(TgSymInstr::Jump("start".into()));
        });
        let (mut net, mut tg, mut mem) = system(img);
        for now in 0..100 {
            tg.tick(now, &mut net);
            mem.tick(now, &mut net);
        }
        assert!(!tg.halted());
        assert!(tg.stats().writes >= 3, "rewound and re-issued");
    }
}
