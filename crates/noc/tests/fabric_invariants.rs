//! Generated-input invariants shared by every interconnect model:
//! conservation (each read gets exactly one response, each write exactly
//! one acceptance and one device write), per-master ordering, and a
//! final memory image equal to [`IdealInterconnect`]'s.
//!
//! Inputs come from a fixed-seed xorshift generator, so a failure names
//! the case that reproduces it.

use std::sync::Arc;

use ntg_mem::{AddressMap, MemoryDevice, RegionKind};
use ntg_noc::{AmbaBus, CrossbarBus, IdealInterconnect, Interconnect, XpipesConfig, XpipesNoc};
use ntg_ocp::{LinkArena, MasterId, MasterPort, OcpRequest, OcpStatus, SlaveId};
use ntg_sim::Component;

const N_SLAVES: usize = 2;
const BASES: [u32; N_SLAVES] = [0x1000, 0x2000];
const WORDS: u32 = 64;
const KINDS: [&str; 4] = ["amba", "crossbar", "xpipes", "ideal"];
const CASES: u64 = 24;

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

#[derive(Debug, Clone, Copy)]
struct Op {
    write: bool,
    slave: usize,
    word: u32,
    value: u32,
    /// Idle cycles before the master's next operation.
    gap: u32,
}

impl Op {
    fn addr(&self) -> u32 {
        BASES[self.slave] + self.word * 4
    }
}

/// Between 1 and `max - 1` random operations.
fn ops(rng: &mut Xorshift, max: u32) -> Vec<Op> {
    (0..1 + rng.below(max - 1))
        .map(|_| Op {
            write: rng.below(2) == 0,
            slave: rng.below(N_SLAVES as u32) as usize,
            word: rng.below(WORDS),
            value: rng.next() as u32,
            gap: rng.below(6),
        })
        .collect()
}

struct Rig {
    links: LinkArena,
    net: Box<dyn Interconnect>,
    mems: Vec<MemoryDevice>,
    cpus: Vec<MasterPort>,
}

fn build(kind: &str, n_masters: usize) -> Rig {
    let mut map = AddressMap::new();
    for (i, base) in BASES.iter().enumerate() {
        map.add(
            format!("m{i}"),
            *base,
            0x1000,
            SlaveId(i as u16),
            RegionKind::SharedMemory,
        )
        .unwrap();
    }
    let map = Arc::new(map);
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
    for (i, base) in BASES.iter().enumerate() {
        let (m, s) = links.channel(format!("slave{i}"), MasterId(0));
        net_slaves.push(m);
        mems.push(MemoryDevice::new(format!("mem{i}"), *base, 0x1000, s));
    }
    let net: Box<dyn Interconnect> = match kind {
        "amba" => Box::new(AmbaBus::new("amba", net_masters, net_slaves, map)),
        "crossbar" => Box::new(CrossbarBus::new("xbar", net_masters, net_slaves, map)),
        "xpipes" => Box::new(XpipesNoc::new(
            "xpipes",
            net_masters,
            net_slaves,
            map,
            XpipesConfig::auto(n_masters, N_SLAVES),
        )),
        "ideal" => Box::new(IdealInterconnect::new(
            "ideal",
            net_masters,
            net_slaves,
            map,
        )),
        _ => unreachable!("unknown interconnect"),
    };
    Rig {
        links,
        net,
        mems,
        cpus,
    }
}

/// Drives every master through its op list with blocking semantics
/// (reads wait for the response, writes for the acceptance, like the
/// platform's masters) until all traffic drained; returns the read
/// values each master observed, in order.
///
/// Conservation is checked on the way: a master's link carries no
/// response or acceptance it is not waiting for, and the devices
/// serviced exactly the reads and writes that were issued.
fn drive(kind: &str, rig: &mut Rig, per_master_ops: &[Vec<Op>]) -> Vec<Vec<u32>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Wait {
        Free,
        Response,
        Accept,
    }
    let n = per_master_ops.len();
    let mut next_op = vec![0usize; n];
    let mut gap = vec![0u32; n];
    let mut wait = vec![Wait::Free; n];
    let mut responses: Vec<Vec<u32>> = vec![Vec::new(); n];

    for now in 0..200_000u64 {
        for m in 0..n {
            let cpu = &rig.cpus[m];
            match wait[m] {
                Wait::Response => {
                    let Some(resp) = cpu.take_response(&mut rig.links, now) else {
                        continue;
                    };
                    assert_eq!(resp.status, OcpStatus::Ok, "{kind}: master {m}");
                    responses[m].push(resp.word());
                }
                Wait::Accept if cpu.take_accept(&mut rig.links, now).is_none() => continue,
                Wait::Accept => {}
                Wait::Free => assert!(
                    cpu.is_quiet(&rig.links),
                    "{kind}: master {m} got a reply it was not waiting for"
                ),
            }
            wait[m] = Wait::Free;
            if gap[m] > 0 {
                gap[m] -= 1;
                continue;
            }
            if let Some(op) = per_master_ops[m].get(next_op[m]) {
                if op.write {
                    cpu.assert_request(&mut rig.links, OcpRequest::write(op.addr(), op.value), now);
                    wait[m] = Wait::Accept;
                } else {
                    cpu.assert_request(&mut rig.links, OcpRequest::read(op.addr()), now);
                    wait[m] = Wait::Response;
                }
                next_op[m] += 1;
                gap[m] = op.gap;
            }
        }
        rig.net.tick(now, &mut rig.links);
        for mem in &mut rig.mems {
            mem.tick(now, &mut rig.links);
        }
        let all_done =
            (0..n).all(|m| next_op[m] == per_master_ops[m].len() && wait[m] == Wait::Free);
        if all_done && rig.net.is_idle(&rig.links) {
            let issued = |write: bool| {
                per_master_ops
                    .iter()
                    .flatten()
                    .filter(|op| op.write == write)
                    .count() as u64
            };
            let reads: u64 = rig.mems.iter().map(MemoryDevice::reads).sum();
            let writes: u64 = rig.mems.iter().map(MemoryDevice::writes).sum();
            assert_eq!(reads, issued(false), "{kind}: device reads conserved");
            assert_eq!(writes, issued(true), "{kind}: device writes conserved");
            assert_eq!(
                rig.net.transactions(),
                reads + writes,
                "{kind}: transactions"
            );
            return responses;
        }
    }
    panic!("{kind}: traffic did not drain");
}

fn image(rig: &Rig) -> Vec<u32> {
    BASES
        .iter()
        .zip(&rig.mems)
        .flat_map(|(base, mem)| (0..WORDS).map(move |w| mem.peek(base + w * 4)))
        .collect()
}

/// Sequential model of one master's own view: the value each of its
/// reads must return, and the words it leaves behind (`None` where it
/// never wrote). Valid whenever no other master writes those words.
fn golden(ops: &[Op]) -> (Vec<u32>, Vec<Option<u32>>) {
    let mut mem = vec![None; N_SLAVES * WORDS as usize];
    let mut reads = Vec::new();
    for op in ops {
        let at = op.slave * WORDS as usize + op.word as usize;
        if op.write {
            mem[at] = Some(op.value);
        } else {
            reads.push(mem[at].unwrap_or(0));
        }
    }
    (reads, mem)
}

/// Single master: every interconnect preserves program order, so the
/// observed read values and final memory equal the sequential model.
#[test]
fn single_master_sequential_semantics() {
    for case in 0..CASES {
        let ops = ops(&mut Xorshift::new(case), 40);
        let (want_reads, want_mem) = golden(&ops);
        let want_image: Vec<u32> = want_mem.iter().map(|w| w.unwrap_or(0)).collect();
        for kind in KINDS {
            let mut rig = build(kind, 1);
            let responses = drive(kind, &mut rig, std::slice::from_ref(&ops));
            assert_eq!(responses[0], want_reads, "{kind}, case {case}: read values");
            assert_eq!(image(&rig), want_image, "{kind}, case {case}: memory image");
        }
    }
}

/// Three masters hammering the same words: whatever order the fabric
/// serialises them in, every read receives exactly one OK response,
/// every write exactly one acceptance and one device write, and all
/// traffic drains (the checks live in [`drive`]).
#[test]
fn multi_master_conservation() {
    for case in 0..CASES {
        let mut rng = Xorshift::new(1000 + case);
        let per_master: Vec<Vec<Op>> = (0..3).map(|_| ops(&mut rng, 25)).collect();
        for kind in KINDS {
            drive(kind, &mut build(kind, 3), &per_master);
        }
    }
}

/// Three masters on disjoint words (`word % 3` names the owner): each
/// master must read back its own program order under contention, and
/// since disjoint writes commute the final memory image is the same on
/// every fabric — the ideal fabric's.
#[test]
fn disjoint_masters_keep_order_and_agree_with_ideal() {
    for case in 0..CASES {
        let mut rng = Xorshift::new(2000 + case);
        let per_master: Vec<Vec<Op>> = (0..3u32)
            .map(|m| {
                let mut own = ops(&mut rng, 30);
                for op in &mut own {
                    op.word = op.word % (WORDS / 3) * 3 + m;
                }
                own
            })
            .collect();
        let mut ideal = build("ideal", 3);
        drive("ideal", &mut ideal, &per_master);
        let want_image = image(&ideal);
        for kind in KINDS {
            let mut rig = build(kind, 3);
            let responses = drive(kind, &mut rig, &per_master);
            for (m, ops) in per_master.iter().enumerate() {
                assert_eq!(
                    responses[m],
                    golden(ops).0,
                    "{kind}, case {case}: master {m} read values"
                );
            }
            assert_eq!(image(&rig), want_image, "{kind}, case {case}: memory image");
        }
    }
}
