//! Generated-input invariants of the memory slaves: a `MemoryDevice`
//! behaves exactly like an array, completing every read with one
//! response and every write with one acceptance at the cycle its timing
//! model names; a `SemaphoreBank` is an exact test-and-set model; and an
//! out-of-range read is answered with an error that leaves every word
//! in range untouched.
//!
//! Inputs come from a fixed-seed xorshift generator; every assertion
//! names its seed, so a failure points at the case that reproduces it.

use ntg_mem::{MemoryDevice, SemaphoreBank};
use ntg_ocp::{LinkArena, MasterId, MasterPort, OcpRequest, OcpResponse, OcpStatus};
use ntg_sim::{Component, Cycle};

const CASES: u64 = 128;

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

/// How one transaction completed: its response (`None` for a write) and
/// the cycle the master saw it.
struct Completion {
    response: Option<OcpResponse>,
    at: Cycle,
}

/// Asserts `req` at `*now` and ticks the slave until the transaction
/// completes, then a few cycles more. A read must complete with exactly
/// one response, a write with exactly one acceptance and no response,
/// and the link and the slave must be quiet afterwards. Advances `*now`
/// past the transaction.
fn transact(
    net: &mut LinkArena,
    slave: &mut dyn Component<LinkArena>,
    master: &MasterPort,
    req: OcpRequest,
    now: &mut Cycle,
    seed: u64,
) -> Completion {
    let expects = req.cmd.expects_response();
    let start = *now;
    master.assert_request(net, req, start);
    let (mut responses, mut accepts) = (Vec::new(), Vec::new());
    for t in start..start + 64 {
        slave.tick(t, net);
        if let Some(resp) = master.take_response(net, t) {
            responses.push((resp, t));
        }
        // A read's acceptance is subsumed by its response; only a write
        // leaves one to take.
        if master.take_accept(net, t).is_some() {
            accepts.push(t);
        }
    }
    assert!(
        master.is_quiet(net) && slave.is_idle(net),
        "seed {seed}: link or slave still busy after the transaction"
    );
    *now = start + 64;
    if expects {
        assert_eq!(
            (responses.len(), accepts.len()),
            (1, 0),
            "seed {seed}: a read completes with one response"
        );
        let (resp, at) = responses.pop().expect("one response");
        Completion {
            response: Some(resp),
            at: at - start,
        }
    } else {
        assert_eq!(
            (responses.len(), accepts.len()),
            (0, 1),
            "seed {seed}: a write completes with one acceptance"
        );
        Completion {
            response: None,
            at: accepts[0] - start,
        }
    }
}

/// Random word-sized and burst traffic on random timing: every read
/// returns what an array model holds, every transaction completes at
/// `2 + wait_states + beats * beat_cycles` cycles after it was asserted
/// (one cycle of request visibility, the service time, one cycle of
/// response or acceptance visibility), and the final image equals the
/// model word for word.
#[test]
fn memory_matches_an_array_model() {
    const BASE: u32 = 0x1000;
    const WORDS: usize = 0x400;
    for seed in 0..CASES {
        let mut rng = Xorshift::new(seed);
        let mut net = LinkArena::new();
        let (m, s) = net.channel("mem", MasterId(0));
        let mut mem = MemoryDevice::new("ram", BASE, WORDS as u32 * 4, s);
        let wait = rng.below(4);
        let beat = 1 + rng.below(3);
        mem.set_wait_states(wait);
        mem.set_beat_cycles(beat);
        let mut model = vec![0u32; WORDS];
        let (mut reads, mut writes) = (0, 0);
        let mut now: Cycle = rng.below(100);
        for _ in 0..1 + rng.below(60) {
            // Words 0..32 so reads land on earlier writes.
            let word = rng.below(32) as usize;
            let addr = BASE + word as u32 * 4;
            let beats = 1 + rng.below(4) as usize;
            let value = rng.next() as u32;
            let (req, read) = match rng.below(4) {
                0 => (OcpRequest::read(addr), true),
                1 => (OcpRequest::write(addr, value), false),
                2 => (OcpRequest::burst_read(addr, beats as u8), true),
                _ => {
                    let payload: Vec<u32> =
                        (0..beats as u32).map(|i| value.wrapping_add(i)).collect();
                    (OcpRequest::burst_write(addr, payload), false)
                }
            };
            let beats = req.beats();
            let done = transact(&mut net, &mut mem, &m, req, &mut now, seed);
            assert_eq!(
                done.at,
                2 + wait + Cycle::from(beats) * beat,
                "seed {seed}: {beats}-beat transaction latency"
            );
            let range = word..word + beats as usize;
            if read {
                reads += 1;
                let resp = done.response.expect("a read has a response");
                assert_eq!(resp.status, OcpStatus::Ok, "seed {seed}");
                assert_eq!(&resp.data[..], &model[range], "seed {seed}: read data");
            } else {
                writes += 1;
                for (i, w) in range.enumerate() {
                    model[w] = value.wrapping_add(i as u32);
                }
            }
        }
        for (w, want) in model.iter().enumerate() {
            assert_eq!(
                mem.peek(BASE + w as u32 * 4),
                *want,
                "seed {seed}: final image word {w}"
            );
        }
        assert_eq!(
            (mem.reads(), mem.writes(), mem.errors()),
            (reads, writes, 0),
            "seed {seed}: service counters"
        );
    }
}

/// The semaphore bank is test-and-set, exactly: a model with one bit
/// per cell predicts every read value (a read of `1` acquires and
/// clears the cell, a read of `0` leaves it locked, a write stores the
/// low bit), and the bank's counters agree with the model's.
#[test]
fn semaphore_bank_matches_a_test_and_set_model() {
    const CELLS: usize = 8;
    for seed in 0..CASES {
        let mut rng = Xorshift::new(seed);
        let mut net = LinkArena::new();
        let (m, s) = net.channel("sem", MasterId(0));
        let mut bank = SemaphoreBank::new("sem", 0xA000, CELLS as u32, s);
        bank.set_wait_states(rng.below(4));
        let mut model = [1u32; CELLS];
        let (mut acquired, mut failed, mut released) = (0, 0, 0);
        let mut now: Cycle = 0;
        for _ in 0..1 + rng.below(80) {
            let cell = rng.below(CELLS as u64) as usize;
            let addr = 0xA000 + cell as u32 * 4;
            if rng.below(2) == 0 {
                let done = transact(
                    &mut net,
                    &mut bank,
                    &m,
                    OcpRequest::read(addr),
                    &mut now,
                    seed,
                );
                let got = done.response.expect("a read has a response").word();
                assert_eq!(got, model[cell], "seed {seed}: cell {cell}");
                if got == 1 {
                    acquired += 1;
                    model[cell] = 0;
                } else {
                    failed += 1;
                }
            } else {
                let value = rng.next() as u32;
                transact(
                    &mut net,
                    &mut bank,
                    &m,
                    OcpRequest::write(addr, value),
                    &mut now,
                    seed,
                );
                model[cell] = value & 1;
                released += u64::from(value & 1);
            }
        }
        for (cell, want) in model.iter().enumerate() {
            assert_eq!(bank.peek_cell(cell), *want, "seed {seed}: cell {cell}");
        }
        assert_eq!(
            (bank.acquisitions(), bank.failed_polls(), bank.releases()),
            (acquired, failed, released),
            "seed {seed}: bank counters"
        );
    }
}

/// Reads outside the device (below its base, past its end, or a burst
/// running off its end) are answered with an error response and never
/// disturb the words in range.
#[test]
fn out_of_range_reads_are_isolated() {
    const BASE: u32 = 0x1000;
    const WORDS: u32 = 32;
    for seed in 0..CASES {
        let mut rng = Xorshift::new(seed);
        let mut net = LinkArena::new();
        let (m, s) = net.channel("mem", MasterId(0));
        let mut mem = MemoryDevice::new("ram", BASE, WORDS * 4, s);
        let mut now: Cycle = 0;
        let mut model = vec![0u32; WORDS as usize];
        for _ in 0..1 + rng.below(8) {
            let word = rng.below(u64::from(WORDS)) as usize;
            let value = rng.next() as u32;
            let req = OcpRequest::write(BASE + word as u32 * 4, value);
            transact(&mut net, &mut mem, &m, req, &mut now, seed);
            model[word] = value;
        }
        let bad = 4 * rng.below(0x400) as u32;
        let req = match rng.below(3) {
            0 => OcpRequest::read(bad % BASE),
            1 => OcpRequest::read(BASE + WORDS * 4 + bad),
            _ => OcpRequest::burst_read(BASE + (WORDS - 1) * 4, 2 + rng.below(3) as u8),
        };
        let done = transact(&mut net, &mut mem, &m, req, &mut now, seed);
        let resp = done.response.expect("an out-of-range read is answered");
        assert_eq!(resp.status, OcpStatus::Error, "seed {seed}");
        assert_eq!(mem.errors(), 1, "seed {seed}");
        for (w, want) in model.iter().enumerate() {
            let req = OcpRequest::read(BASE + w as u32 * 4);
            let done = transact(&mut net, &mut mem, &m, req, &mut now, seed);
            let got = done.response.expect("a read has a response").word();
            assert_eq!(got, *want, "seed {seed}: word {w} after the bad read");
        }
    }
}
