//! Generated-input invariants of the OCP link: one-cycle visibility of
//! every event, tags, quiet state, the exact wake-hint accessors, and the
//! wake contract — which port operation logs a wake token for which side.
//!
//! Inputs come from a fixed-seed xorshift generator, so a failure names
//! the case that reproduces it.

use ntg_ocp::{
    wake_token, DataWords, LinkArena, LinkId, MasterId, MasterPort, OcpRequest, OcpResponse,
    SlavePort,
};

const CASES: u64 = 256;

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

/// A read, a write, or a burst of either, at a random word.
fn any_request(rng: &mut Xorshift) -> OcpRequest {
    let addr = 4 * rng.below(1 << 12) as u32;
    let beats = 1 + rng.below(8) as u8;
    match rng.below(4) {
        0 => OcpRequest::read(addr),
        1 => OcpRequest::write(addr, rng.next() as u32),
        2 => OcpRequest::burst_read(addr, beats),
        _ => OcpRequest::burst_write(addr, DataWords::splat(rng.next() as u32, beats.into())),
    }
}

/// One link with a transaction asserted at `asserted`, accepted at
/// `accepted` and, for a read, answered at `pushed`.
fn link_at(
    read: bool,
    asserted: u64,
    accepted: u64,
    pushed: u64,
) -> (LinkArena, MasterPort, SlavePort) {
    let mut net = LinkArena::new();
    let (m, s) = net.channel("l", MasterId(0));
    let req = if read {
        OcpRequest::read(0x40)
    } else {
        OcpRequest::write(0x40, 9)
    };
    m.assert_request(&mut net, req, asserted);
    let req = s.accept_request(&mut net, accepted).expect("visible");
    if read {
        s.push_response(&mut net, OcpResponse::ok(vec![7], req.tag), pushed);
    }
    (net, m, s)
}

/// Whatever cycle a request is asserted in, it is invisible to the slave
/// that cycle and visible every later cycle until accepted; an acceptance
/// and a response obey the same rule towards the master, and each hint
/// accessor names exactly the cycle from which its `take_*` succeeds.
#[test]
fn every_event_is_visible_from_the_next_cycle_on() {
    for case in 0..CASES {
        let mut rng = Xorshift::new(case);
        let asserted = rng.below(1_000);
        let accepted = asserted + 1 + rng.below(20);
        let pushed = accepted + rng.below(20);
        let around = |at: u64| at - 2..at + 3;

        let mut net = LinkArena::new();
        let (m, s) = net.channel("l", MasterId(0));
        m.assert_request(&mut net, any_request(&mut rng), asserted);
        assert_eq!(
            s.request_visible_at(&net),
            Some(asserted + 1),
            "case {case}"
        );
        for now in around(asserted + 2) {
            let visible = now > asserted;
            assert_eq!(s.has_request(&net, now), visible, "case {case} at {now}");
            assert_eq!(s.peek_request(&net, now).is_some(), visible, "case {case}");
        }

        let (net, m, _) = link_at(true, asserted, accepted, pushed);
        assert_eq!(m.response_visible_at(&net), Some(pushed + 1), "case {case}");
        assert_eq!(m.completion_visible_at(&net, true), Some(pushed + 1));
        for now in around(pushed + 2) {
            let (mut net, m, _) = link_at(true, asserted, accepted, pushed);
            let got = m.take_response(&mut net, now);
            assert_eq!(
                got.is_some(),
                now > pushed,
                "case {case}: response at {now}"
            );
        }

        let (net, m, _) = link_at(false, asserted, accepted, 0);
        assert_eq!(m.accept_visible_at(&net), Some(accepted + 1), "case {case}");
        assert_eq!(m.completion_visible_at(&net, false), Some(accepted + 1));
        assert_eq!(m.response_visible_at(&net), None, "case {case}");
        for now in around(accepted + 2) {
            let (mut net, m, _) = link_at(false, asserted, accepted, 0);
            let got = m.take_accept(&mut net, now);
            assert_eq!(
                got.is_some(),
                now > accepted,
                "case {case}: accept at {now}"
            );
        }
    }
}

/// Tags count up by one per request on a link, whatever the mix; the
/// slave sees the tag and master id the port stamped, and the completion
/// event a master consumes carries its own request's tag.
#[test]
fn tags_count_up_and_completions_carry_them() {
    for case in 0..CASES / 8 {
        let mut rng = Xorshift::new(1000 + case);
        let mut net = LinkArena::new();
        let (m, s) = net.channel("l", MasterId(3));
        let mut now = rng.below(100);
        for i in 0..1 + rng.below(40) {
            let req = any_request(&mut rng);
            let expects = req.cmd.expects_response();
            let tag = m.assert_request(&mut net, req, now);
            assert_eq!(tag, i, "case {case}");
            now += 1 + rng.below(4);
            let req = s.accept_request(&mut net, now).expect("visible");
            assert_eq!((req.tag, req.master), (tag, MasterId(3)), "case {case}");
            if expects {
                now += rng.below(4);
                s.push_response(&mut net, OcpResponse::ok(vec![0], tag), now);
                now += 1;
                let resp = m.take_response(&mut net, now).expect("visible");
                assert_eq!(resp.tag, tag, "case {case}");
            } else {
                now += 1;
                assert_eq!(m.take_accept(&mut net, now), Some(tag), "case {case}");
            }
        }
    }
}

/// A link is busy on both ends while a request, an unconsumed
/// acceptance or a response is in flight — a read's acceptance
/// included, until its response subsumes it — and quiet, with no hint
/// left, once the master consumed the completion.
#[test]
fn a_link_is_quiet_exactly_when_nothing_is_in_flight() {
    for case in 0..CASES {
        let mut rng = Xorshift::new(2000 + case);
        let mut net = LinkArena::new();
        let (m, s) = net.channel("l", MasterId(0));
        let busy = |net: &LinkArena, what: &str| {
            assert!(!m.is_quiet(net) && !s.is_quiet(net), "case {case}: {what}");
        };
        let req = any_request(&mut rng);
        let expects = req.cmd.expects_response();
        let asserted = rng.below(50);
        m.assert_request(&mut net, req, asserted);
        busy(&net, "request on the wires");
        let accepted = asserted + 1 + rng.below(10);
        let req = s.accept_request(&mut net, accepted).expect("visible");
        busy(&net, "unconsumed acceptance");
        let done = if expects {
            let pushed = accepted + rng.below(10);
            s.push_response(&mut net, OcpResponse::ok(vec![5], req.tag), pushed);
            busy(&net, "response queued");
            let done = pushed + 1 + rng.below(5);
            assert!(m.take_response(&mut net, done).is_some(), "case {case}");
            done
        } else {
            let done = accepted + 1 + rng.below(5);
            assert!(m.take_accept(&mut net, done).is_some(), "case {case}");
            done
        };
        assert!(
            m.is_quiet(&net) && s.is_quiet(&net),
            "case {case} at {done}"
        );
        assert_eq!(m.accept_visible_at(&net), None, "case {case}");
        assert_eq!(m.response_visible_at(&net), None, "case {case}");
    }
}

/// With logging on, exactly the operations that make an awaited event
/// visible log a token for its reader: an assert wakes the slave side;
/// a posted write's acceptance and a response wake the master side; a
/// read's acceptance and every `take_*` wake nobody. Tokens decode to
/// the touched link among several.
#[test]
fn wake_tokens_follow_the_contract() {
    for case in 0..CASES {
        let mut rng = Xorshift::new(3000 + case);
        let mut net = LinkArena::new();
        let links: Vec<(MasterPort, SlavePort)> = (0..3)
            .map(|i| net.channel(format!("l{i}"), MasterId(i)))
            .collect();
        net.set_wake_logging(true);
        let drain = |net: &mut LinkArena| -> Vec<(LinkId, bool)> {
            net.drain_wakes().map(wake_token).collect()
        };
        let mut now = 0;
        for _ in 0..8 {
            let (m, s) = links[rng.below(3) as usize];
            let req = any_request(&mut rng);
            let expects = req.cmd.expects_response();
            m.assert_request(&mut net, req, now);
            assert_eq!(drain(&mut net), [(m.id(), false)], "case {case}: assert");
            now += 1;
            let req = s.accept_request(&mut net, now).expect("visible");
            let woken: &[_] = if expects { &[] } else { &[(m.id(), true)] };
            assert_eq!(
                drain(&mut net),
                woken,
                "case {case}: accept of {:?}",
                req.cmd
            );
            if expects {
                s.push_response(&mut net, OcpResponse::ok(vec![1], req.tag), now);
                assert_eq!(drain(&mut net), [(m.id(), true)], "case {case}: push");
                now += 1;
                assert!(m.take_response(&mut net, now).is_some());
            } else {
                now += 1;
                assert!(m.take_accept(&mut net, now).is_some());
            }
            assert!(drain(&mut net).is_empty(), "case {case}: take wakes nobody");
        }
    }
}
