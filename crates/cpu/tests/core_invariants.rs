//! Generated-input invariants of the Srisc ISA, assembler, caches and
//! core, through the crate's public API only:
//!
//! * every instruction survives `encode` → `decode`, and `decode`
//!   accepts or rejects arbitrary words without panicking;
//! * [`Cache`] agrees with a set-associative LRU model written with
//!   plain division — hits, misses, victims, write-update, statistics;
//! * `Asm::align` padding never changes what a program computes;
//! * the cycle-true [`CpuCore`] and the zero-time [`Interp`] leave the
//!   same registers and memory behind on generated ALU and load/store
//!   programs.
//!
//! Inputs come from a fixed-seed xorshift generator, so a failure names
//! the case that reproduces it. (The cycle-level differential against
//! the per-cycle reference core lives in the crate, next to `RefCore`.)

use std::sync::Arc;

use ntg_cpu::cache::{Cache, CacheConfig, CacheStats};
use ntg_cpu::interp::{Interp, InterpStop};
use ntg_cpu::isa::{decode, encode, Cond, Instr, Reg, IMM18_RANGE, OFF26_RANGE};
use ntg_cpu::{Asm, CpuConfig, CpuCore, Program};
use ntg_mem::{AddressMap, MemoryDevice, RegionKind};
use ntg_ocp::{LinkArena, MasterId, SlaveId};
use ntg_sim::Component;

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

    fn reg(&mut self) -> Reg {
        Reg::new(self.below(16) as u8)
    }

    fn in_range(&mut self, range: &std::ops::RangeInclusive<i32>) -> i32 {
        let span = (*range.end() as i64 - *range.start() as i64 + 1) as u64;
        (*range.start() as i64 + (self.next() % span) as i64) as i32
    }
}

const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu];

/// Any instruction of the ISA, operands uniform over their fields.
fn any_instr(rng: &mut Xorshift) -> Instr {
    use Instr::*;
    let (d, s, t) = (rng.reg(), rng.reg(), rng.reg());
    let imm = rng.in_range(&IMM18_RANGE);
    let off = rng.in_range(&OFF26_RANGE);
    let sh = rng.below(32) as u8;
    let imm16 = rng.next() as u16;
    match rng.below(30) {
        0 => Nop,
        1 => Halt,
        2 => Add(d, s, t),
        3 => Sub(d, s, t),
        4 => And(d, s, t),
        5 => Or(d, s, t),
        6 => Xor(d, s, t),
        7 => Sll(d, s, t),
        8 => Srl(d, s, t),
        9 => Sra(d, s, t),
        10 => Mul(d, s, t),
        11 => Slt(d, s, t),
        12 => Sltu(d, s, t),
        13 => Addi(d, s, imm),
        14 => Andi(d, s, imm),
        15 => Ori(d, s, imm),
        16 => Xori(d, s, imm),
        17 => Slli(d, s, sh),
        18 => Srli(d, s, sh),
        19 => Srai(d, s, sh),
        20 => Slti(d, s, imm),
        21 => Movi(d, imm16),
        22 => Movhi(d, imm16),
        23 => Ldw(d, s, imm),
        24 => Stw(d, s, imm),
        25 => Branch(CONDS[rng.below(6) as usize], s, t, imm),
        26 => J(off),
        27 => Jal(off),
        _ => Jr(s),
    }
}

#[test]
fn every_instruction_round_trips_through_its_encoding() {
    let mut rng = Xorshift::new(1);
    for case in 0..50_000 {
        let instr = any_instr(&mut rng);
        assert_eq!(decode(encode(&instr)), Ok(instr), "case {case}");
    }
    // Field extremes.
    for imm in [*IMM18_RANGE.start(), -1, 0, *IMM18_RANGE.end()] {
        let instr = Instr::Branch(Cond::Geu, Reg::new(15), Reg::new(0), imm);
        assert_eq!(decode(encode(&instr)), Ok(instr));
    }
    for off in [*OFF26_RANGE.start(), -1, 0, *OFF26_RANGE.end()] {
        assert_eq!(decode(encode(&Instr::Jal(off))), Ok(Instr::Jal(off)));
    }
}

#[test]
fn decode_never_panics_and_canonical_form_is_a_fixpoint() {
    let mut rng = Xorshift::new(2);
    let mut accepted = 0;
    for case in 0..200_000u32 {
        // Uniform words rarely carry a valid opcode; bias half of them.
        let mut word = rng.next() as u32;
        if case % 2 == 0 {
            word = (word & 0x03FF_FFFF) | (rng.below(40) << 26);
        }
        match decode(word) {
            Ok(instr) => {
                accepted += 1;
                // Unused bits are dropped by re-encoding, after which
                // the word and the instruction name each other.
                let canon = encode(&instr);
                assert_eq!(decode(canon), Ok(instr), "word {word:#010x}");
                assert_eq!(encode(&decode(canon).unwrap()), canon);
            }
            Err(e) => assert_eq!(e.word, word),
        }
    }
    assert!(accepted > 50_000, "only {accepted} words decoded");
}

/// A set-associative LRU cache written the obvious way: per set, a list
/// of `(line number, words, last use)`.
struct ModelCache {
    cfg: CacheConfig,
    sets: Vec<Vec<(u32, Vec<u32>, u64)>>,
    clock: u64,
    stats: CacheStats,
}

impl ModelCache {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            cfg,
            sets: vec![Vec::new(); cfg.sets as usize],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn locate(&self, addr: u32) -> (usize, u32, usize) {
        let line = addr / self.cfg.line_bytes();
        let word = (addr % self.cfg.line_bytes()) / 4;
        ((line % self.cfg.sets) as usize, line, word as usize)
    }

    fn read(&mut self, addr: u32) -> Option<u32> {
        let (set, line, word) = self.locate(addr);
        self.clock += 1;
        match self.sets[set].iter_mut().find(|l| l.0 == line) {
            Some(l) => {
                l.2 = self.clock;
                self.stats.read_hits += 1;
                Some(l.1[word])
            }
            None => {
                self.stats.read_misses += 1;
                None
            }
        }
    }

    fn write_update(&mut self, addr: u32, value: u32) -> bool {
        let (set, line, word) = self.locate(addr);
        self.clock += 1;
        match self.sets[set].iter_mut().find(|l| l.0 == line) {
            Some(l) => {
                l.2 = self.clock;
                l.1[word] = value;
                self.stats.write_hits += 1;
                true
            }
            None => {
                self.stats.write_misses += 1;
                false
            }
        }
    }

    /// Installs a line; returns the line number it displaced, if any.
    fn fill(&mut self, line_addr: u32, words: &[u32]) -> Option<u32> {
        let (set, line, _) = self.locate(line_addr);
        self.clock += 1;
        self.stats.fills += 1;
        let ways = &mut self.sets[set];
        let mut evicted = None;
        if ways.len() == self.cfg.ways as usize {
            let lru = (0..ways.len()).min_by_key(|&i| ways[i].2).unwrap();
            evicted = Some(ways.remove(lru).0);
            self.stats.evictions += 1;
        }
        ways.push((line, words.to_vec(), self.clock));
        evicted
    }
}

#[test]
fn cache_matches_a_division_based_lru_model() {
    let geometries = [
        CacheConfig::tiny(),
        CacheConfig::default_l1(),
        CacheConfig {
            sets: 1,
            ways: 4,
            words_per_line: 2,
        },
        CacheConfig {
            sets: 8,
            ways: 3,
            words_per_line: 8,
        },
        CacheConfig {
            sets: 2,
            ways: 1,
            words_per_line: 1,
        },
    ];
    for (g, cfg) in geometries.into_iter().enumerate() {
        for seed in 0..40 {
            let what = format!("{cfg:?} seed {seed}");
            let mut rng = Xorshift::new(1000 * g as u64 + seed);
            let mut cache = Cache::new(cfg);
            let mut model = ModelCache::new(cfg);
            // A backing memory four times the cache, so lines conflict;
            // placed high so tags use the upper address bits too.
            let base = 0xFFF0_0000u32;
            let words = cfg.capacity_bytes(); // = 4 × capacity in words
            let mut memory: Vec<u32> = (0..words).map(|_| rng.next() as u32).collect();
            for step in 0..600 {
                let word = rng.below(words);
                let addr = base + word * 4;
                match rng.below(4) {
                    0 => {
                        // Refill on a miss, as the core does. Never
                        // fills a present line (the core cannot).
                        if !cache.contains(addr) {
                            let line = cache.line_addr(addr);
                            let first = ((line - base) / 4) as usize;
                            let data = &memory[first..first + cfg.words_per_line as usize];
                            let evicted = model.fill(line, data);
                            cache.fill(line, data);
                            if let Some(victim) = evicted {
                                let gone = victim * cfg.line_bytes();
                                assert!(!cache.contains(gone), "{what} step {step}: LRU victim");
                            }
                        }
                    }
                    1 => {
                        let value = rng.next() as u32;
                        memory[word as usize] = value;
                        assert_eq!(
                            cache.write_update(addr, value),
                            model.write_update(addr, value),
                            "{what} step {step}: write-update presence"
                        );
                    }
                    _ => {
                        let got = cache.read(addr);
                        assert_eq!(got, model.read(addr), "{what} step {step}: read");
                        if let Some(value) = got {
                            assert_eq!(value, memory[word as usize], "{what} step {step}");
                        }
                    }
                }
            }
            assert_eq!(cache.stats(), model.stats, "{what}: statistics");
            assert!(model.stats.evictions > 0 && model.stats.read_hits > 0);
        }
    }
}

#[test]
fn assembler_alignment_preserves_semantics() {
    let mut rng = Xorshift::new(3);
    for case in 0..200 {
        let pre = rng.below(7);
        let align = [1u32, 2, 4, 8][rng.below(4) as usize];
        let value = rng.next() as u16;
        let mut a = Asm::new();
        for _ in 0..pre {
            a.nop();
        }
        a.align(align);
        a.label("target");
        a.movi(Reg::new(1), value);
        a.halt();
        a.j("target"); // unreachable, but must still resolve
        let p = a.assemble(0).unwrap();
        let target = p.label("target").unwrap();
        assert_eq!(target % (align * 4), 0, "case {case}: label alignment");
        let mut i = Interp::new();
        i.load(&p);
        assert_eq!(i.run(100), InterpStop::Halted, "case {case}");
        assert_eq!(i.reg(Reg::new(1)), u32::from(value), "case {case}");
    }
}

const PRIV: u32 = 0;
const DATA: u32 = 0x4000;
const SP: u32 = 0x8000;

/// Runs `program` on the interpreter and on a cycle-true core wired to
/// one memory device, and checks registers and the data window agree.
fn assert_core_matches_interp(program: &Program, cfg: CpuConfig, what: &str) {
    let mut interp = Interp::new();
    interp.load(program);
    interp.set_reg(Reg::new(13), SP);
    assert_eq!(interp.run(1_000_000), InterpStop::Halted, "{what}: interp");

    let mut map = AddressMap::new();
    map.add("p", PRIV, 0x1_0000, SlaveId(0), RegionKind::PrivateMemory)
        .unwrap();
    let mut net = LinkArena::new();
    let (mport, sport) = net.channel("cpu", MasterId(0));
    let mut mem = MemoryDevice::new("ram", PRIV, 0x1_0000, sport);
    mem.load_words(program.entry(), program.words());
    let mut cpu = CpuCore::new("cpu", mport, Arc::new(map), cfg, program.entry(), SP);
    let mut now = 0;
    while !(cpu.halted() && mport.is_quiet(&net)) {
        assert!(now < 5_000_000, "{what}: core did not halt");
        cpu.tick(now, &mut net);
        mem.tick(now, &mut net);
        now += 1;
    }
    assert_eq!(cpu.fault(), None, "{what}");
    assert_eq!(cpu.stats().instructions, interp.instructions(), "{what}");
    for r in 0..16u8 {
        assert_eq!(
            cpu.regs()[r as usize],
            interp.reg(Reg::new(r)),
            "{what}: r{r}"
        );
    }
    for word in 0..32 {
        let addr = DATA + word * 4;
        assert_eq!(mem.peek(addr), interp.mem_word(addr), "{what}: {addr:#x}");
    }
}

fn geometry(rng: &mut Xorshift) -> CpuConfig {
    let cache = if rng.below(2) == 0 {
        CacheConfig::tiny()
    } else {
        CacheConfig::default_l1()
    };
    CpuConfig {
        icache: cache,
        dcache: cache,
    }
}

#[test]
fn alu_programs_agree_with_the_interpreter() {
    use Instr::*;
    // Found by the old proptest suite: the initial stack pointer is
    // architectural state both models must agree on.
    let mut a = Asm::new();
    a.instr(Sub(Reg::new(1), Reg::new(13), Reg::new(0)));
    a.halt();
    assert_core_matches_interp(&a.assemble(PRIV).unwrap(), CpuConfig::default(), "sp");

    let mut rng = Xorshift::new(4);
    for case in 0..300 {
        let mut a = Asm::new();
        for _ in 0..1 + rng.below(60) {
            let (d, s, t) = (rng.reg(), rng.reg(), rng.reg());
            let sh = rng.below(32) as u8;
            a.instr(match rng.below(12) {
                0 => Add(d, s, t),
                1 => Sub(d, s, t),
                2 => Mul(d, s, t),
                3 => Xor(d, s, t),
                4 => Sltu(d, s, t),
                5 => Slt(d, s, t),
                6 => Slli(d, s, sh),
                7 => Srai(d, s, sh),
                8 => Sra(d, s, t),
                9 => Addi(d, s, rng.in_range(&IMM18_RANGE)),
                10 => Movi(d, rng.next() as u16),
                _ => Movhi(d, rng.next() as u16),
            });
        }
        a.halt();
        let cfg = geometry(&mut rng);
        assert_core_matches_interp(&a.assemble(PRIV).unwrap(), cfg, &format!("alu {case}"));
    }
}

#[test]
fn memory_programs_agree_with_the_interpreter() {
    let mut rng = Xorshift::new(5);
    for case in 0..300 {
        let mut a = Asm::new();
        a.li(Reg::new(1), rng.below(1 << 16));
        a.li(Reg::new(2), DATA);
        for _ in 0..1 + rng.below(30) {
            // Value registers r3..r12 only: r1 is the running value and
            // r2 the base pointer, which loaded data must not clobber.
            let r = Reg::new(3 + rng.below(10) as u8);
            let off = (rng.below(32) * 4) as i32;
            if rng.below(2) == 0 {
                a.stw(
                    if rng.below(2) == 0 { Reg::new(1) } else { r },
                    Reg::new(2),
                    off,
                );
            } else {
                a.ldw(r, Reg::new(2), off);
            }
            a.addi(Reg::new(1), Reg::new(1), 7);
        }
        a.halt();
        let cfg = geometry(&mut rng);
        assert_core_matches_interp(&a.assemble(PRIV).unwrap(), cfg, &format!("mem {case}"));
    }
}
