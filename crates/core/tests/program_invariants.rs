//! Generated-input invariants of the TG program formats and the
//! translator: the binary ISA encoding, the `.bin` image, the assembler
//! and the `.tgp` text round-trip every valid program, their decoders
//! reject hostile bytes without panicking, and translating a well-formed
//! `.trc` trace is total, deterministic and transaction-conserving.
//!
//! Inputs come from a fixed-seed xorshift generator, so a failure names
//! the case that reproduces it.

use ntg_core::tgp::{from_tgp, to_tgp};
use ntg_core::{
    assemble, disassemble, TgCond, TgImage, TgInstr, TgItem, TgReg, TgSymInstr, TraceTranslator,
    TranslationMode, TranslatorConfig,
};
use ntg_ocp::{DataWords, OcpCmd};
use ntg_trace::{MasterTrace, TraceEvent};

const CASES: u64 = 512;

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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn reg(rng: &mut Xorshift) -> TgReg {
    TgReg::new(rng.below(16) as u8)
}

/// Any instruction of the ISA, branch targets below `targets`.
fn any_instr(rng: &mut Xorshift, targets: u32) -> TgInstr {
    let target = rng.below(u64::from(targets)) as u32;
    match rng.below(10) {
        0 => TgInstr::Read { addr: reg(rng) },
        1 => TgInstr::Write {
            addr: reg(rng),
            data: reg(rng),
        },
        2 => TgInstr::BurstRead {
            addr: reg(rng),
            count: reg(rng),
        },
        3 => TgInstr::BurstWrite {
            addr: reg(rng),
            data: reg(rng),
            count: reg(rng),
        },
        4 => TgInstr::If {
            a: reg(rng),
            b: reg(rng),
            cond: [TgCond::Eq, TgCond::Ne, TgCond::Ltu, TgCond::Geu][rng.below(4) as usize],
            target,
        },
        5 => TgInstr::Jump { target },
        6 => TgInstr::SetRegister {
            reg: reg(rng),
            value: rng.next() as u32,
        },
        // `Idle(0)` does not assemble; every other count does.
        7 => TgInstr::Idle {
            cycles: 1 + rng.below(u64::from(u32::MAX)) as u32,
        },
        8 => TgInstr::IdleUntil { cycle: rng.next() },
        _ => TgInstr::Halt,
    }
}

/// A valid image: every branch lands inside the program.
fn any_image(rng: &mut Xorshift) -> TgImage {
    let n = 1 + rng.below(40) as u32;
    TgImage {
        master: rng.next() as u16,
        thread: 0,
        inits: (0..rng.below(8))
            .map(|_| (reg(rng), rng.next() as u32))
            .collect(),
        instrs: (0..n).map(|_| any_instr(rng, n)).collect(),
    }
}

/// `bytes` with one to three bytes overwritten, inserted or removed.
fn mutate(rng: &mut Xorshift, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(out.len() as u64 + 1) as usize;
        match rng.below(3) {
            0 if at < out.len() => out[at] = rng.next() as u8,
            1 => out.insert(at, rng.next() as u8),
            _ if at < out.len() => {
                out.remove(at);
            }
            _ => {}
        }
    }
    out
}

#[test]
fn every_instruction_survives_encode_decode() {
    let mut rng = Xorshift::new(1);
    for case in 0..CASES * 8 {
        let instr = any_instr(&mut rng, u32::MAX);
        assert_eq!(TgInstr::decode(instr.encode()), Ok(instr), "case {case}");
    }
}

/// Arbitrary word triples never panic the decoder, and whatever decodes
/// re-encodes to a fixpoint.
#[test]
fn arbitrary_words_decode_to_a_fixpoint_or_an_error() {
    let mut rng = Xorshift::new(2);
    for case in 0..CASES * 8 {
        // Low opcodes often, so most triples are near-valid.
        let w0 = (rng.next() as u32 & !0xFF) | rng.below(12) as u32;
        let words = [w0, rng.next() as u32, rng.next() as u32];
        if let Ok(instr) = TgInstr::decode(words) {
            assert_eq!(TgInstr::decode(instr.encode()), Ok(instr), "case {case}");
        }
    }
}

/// Images round-trip through bytes, the disassembler/assembler and the
/// `.tgp` printer/parser.
#[test]
fn valid_images_round_trip_through_every_format() {
    for case in 0..CASES {
        let image = any_image(&mut Xorshift::new(1000 + case));
        assert_eq!(
            TgImage::from_bytes(&image.to_bytes()).as_ref(),
            Ok(&image),
            "case {case}: bytes"
        );
        let program = disassemble(&image);
        assert_eq!(assemble(&program).as_ref(), Ok(&image), "case {case}: asm");
        let text = to_tgp(&program);
        assert_eq!(from_tgp(&text).as_ref(), Ok(&program), "case {case}: .tgp");
    }
}

/// Mutated images and `.tgp` listings are rejected or accepted, never
/// panicked on; an accepted listing re-prints to text that parses to the
/// same program.
#[test]
fn decoders_survive_mutated_input() {
    for case in 0..CASES {
        let mut rng = Xorshift::new(2000 + case);
        let image = any_image(&mut rng);
        let _ = TgImage::from_bytes(&mutate(&mut rng, &image.to_bytes()));
        let text = to_tgp(&disassemble(&image));
        let mutated = mutate(&mut rng, text.as_bytes());
        if let Ok(program) = from_tgp(&String::from_utf8_lossy(&mutated)) {
            let again = from_tgp(&to_tgp(&program));
            assert_eq!(again.as_ref(), Ok(&program), "case {case}");
        }
    }
}

/// A well-formed trace: transactions in order, strictly later timestamps.
fn any_trace(rng: &mut Xorshift) -> MasterTrace {
    let mut trace = MasterTrace::new(0, 5);
    let mut now = 0;
    for _ in 0..rng.below(25) {
        let addr = 0x1000 + 4 * rng.below(0x100) as u32;
        let write = rng.below(2) == 0;
        now += 5 * (1 + rng.below(40));
        trace.events.push(TraceEvent::Request {
            cmd: if write { OcpCmd::Write } else { OcpCmd::Read },
            addr,
            data: if write {
                DataWords::one(rng.next() as u32)
            } else {
                DataWords::default()
            },
            burst: 1,
            at: now,
        });
        now += 5 * (1 + rng.below(20));
        trace.events.push(TraceEvent::Accept { at: now });
        if !write {
            now += 5 * (1 + rng.below(30));
            trace.events.push(TraceEvent::Response {
                data: DataWords::one(rng.next() as u32),
                at: now,
            });
        }
    }
    trace.halt_at = Some(now + 100);
    trace
}

#[test]
fn traces_round_trip_through_trc() {
    for case in 0..CASES {
        let trace = any_trace(&mut Xorshift::new(3000 + case));
        let parsed = MasterTrace::from_trc(&trace.to_trc()).expect("printed traces parse");
        assert_eq!(parsed, trace, "case {case}");
    }
}

/// Translating any well-formed trace succeeds in every mode, twice the
/// same, into a program that assembles, holds one bus instruction per
/// transaction (nothing is pollable, so nothing collapses), ends in one
/// `Halt`, and never idles longer than the traced core ran.
#[test]
fn translation_is_total_deterministic_and_conserving() {
    for case in 0..CASES {
        let mut rng = Xorshift::new(4000 + case);
        let trace = any_trace(&mut rng);
        let mode = [
            TranslationMode::Clone,
            TranslationMode::Timeshift,
            TranslationMode::Reactive,
        ][rng.below(3) as usize];
        let translator = TraceTranslator::new(TranslatorConfig {
            mode,
            ..TranslatorConfig::default()
        });
        let program = translator.translate(&trace).expect("translates");
        assert_eq!(
            translator.translate(&trace).as_ref(),
            Ok(&program),
            "case {case}"
        );
        assemble(&program).expect("translated programs assemble");
        let bus = program
            .instrs()
            .filter(|i| {
                matches!(
                    i,
                    TgSymInstr::Read(_)
                        | TgSymInstr::Write(..)
                        | TgSymInstr::BurstRead(..)
                        | TgSymInstr::BurstWrite(..)
                )
            })
            .count();
        let txs = trace.transactions().expect("well-formed").len();
        assert_eq!(
            bus, txs,
            "case {case} ({mode:?}): one instruction per transaction"
        );
        assert_eq!(
            program.instrs().last(),
            Some(&TgSymInstr::Halt),
            "case {case}"
        );
        assert_eq!(
            program.instrs().filter(|i| **i == TgSymInstr::Halt).count(),
            1,
            "case {case}"
        );
        if mode != TranslationMode::Clone {
            let idle: u64 = program
                .instrs()
                .map(|i| match i {
                    TgSymInstr::Idle(n) => u64::from(*n),
                    _ => 0,
                })
                .sum();
            let halt_cycle = trace.halt_at.expect("stamped") / trace.period_ns;
            assert!(
                idle <= halt_cycle,
                "case {case}: idle {idle} > {halt_cycle}"
            );
        }
    }
}

/// Collapsed polls get `Semchk` labels numbered in program order.
#[test]
fn semchk_labels_are_sequential() {
    let trc = "\
MASTER 0
PERIOD_NS 5
REQ RD 0x000000f0 @10
ACK @15
RESP 0x00000001 @30
REQ WR 0x00001000 0x1 @60
ACK @65
REQ RD 0x000000f4 @100
ACK @105
RESP 0x00000001 @120
END
";
    let trace = MasterTrace::from_trc(trc).unwrap();
    let translator = TraceTranslator::new(TranslatorConfig {
        pollable: vec![(0xF0, 0x10)],
        mode: TranslationMode::Reactive,
        ..TranslatorConfig::default()
    });
    let program = translator.translate(&trace).unwrap();
    let labels: Vec<_> = program
        .items
        .iter()
        .filter_map(|i| match i {
            TgItem::Label(l) => Some(l.as_str()),
            TgItem::Instr(_) => None,
        })
        .collect();
    assert_eq!(labels, ["Semchk0", "Semchk1"]);
}
