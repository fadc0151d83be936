//! A word-addressed RAM slave with configurable access timing.

use ntg_ocp::{DataWords, LinkArena, OcpCmd, OcpRequest, OcpResponse, SlavePort};
use ntg_sim::{Activity, Component, Cycle};

enum State {
    Idle,
    Busy { done_at: Cycle },
}

/// A RAM slave device.
///
/// Services one transaction at a time. The device holds off *accepting* a
/// request until service completes (a real slave holding `SCmdAccept`
/// low): a request that becomes visible in cycle *t* is accepted — and
/// its read response pushed — in cycle
/// `t + wait_states + beats * beat_cycles`. Writes produce no response at
/// all; their acceptance is the completion signal the interconnect (and a
/// posted-write master) observes. While busy, the next request simply
/// stays asserted on the channel — exactly the "RD stalled at the slave
/// interface" behaviour the paper describes in Figure 2(a): from the
/// master's perspective the stall is part of the slave response time.
///
/// The device is word-addressed; sub-word accesses are not supported by
/// the platform. An out-of-range read receives an error response; an
/// out-of-range write, like every write, is accepted without one — the
/// acceptance still terminates it — and changes nothing. Both count in
/// [`errors`](MemoryDevice::errors).
pub struct MemoryDevice {
    name: String,
    base: u32,
    words: Vec<u32>,
    wait_states: Cycle,
    beat_cycles: Cycle,
    port: SlavePort,
    state: State,
    reads: u64,
    writes: u64,
    errors: u64,
}

impl MemoryDevice {
    /// Default wait states before the first beat of a transaction.
    pub const DEFAULT_WAIT_STATES: Cycle = 1;
    /// Default extra cycles per data beat.
    pub const DEFAULT_BEAT_CYCLES: Cycle = 1;

    /// Creates a zero-initialised RAM of `size_bytes` at `base`,
    /// serviced through `port`, with default timing.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `size_bytes` is not word-aligned or the size is
    /// zero.
    pub fn new(name: impl Into<String>, base: u32, size_bytes: u32, port: SlavePort) -> Self {
        assert!(
            base.is_multiple_of(4) && size_bytes.is_multiple_of(4) && size_bytes > 0,
            "memory device must be word-aligned and non-empty"
        );
        Self {
            name: name.into(),
            base,
            words: vec![0; (size_bytes / 4) as usize],
            wait_states: Self::DEFAULT_WAIT_STATES,
            beat_cycles: Self::DEFAULT_BEAT_CYCLES,
            port,
            state: State::Idle,
            reads: 0,
            writes: 0,
            errors: 0,
        }
    }

    /// Overrides the wait states charged before the first beat.
    pub fn set_wait_states(&mut self, wait_states: Cycle) {
        self.wait_states = wait_states;
    }

    /// Overrides the cycles charged per data beat.
    ///
    /// # Panics
    ///
    /// Panics if `beat_cycles` is zero.
    pub fn set_beat_cycles(&mut self, beat_cycles: Cycle) {
        assert!(beat_cycles > 0, "beat must take at least one cycle");
        self.beat_cycles = beat_cycles;
    }

    /// The device's base byte address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The device's size in bytes.
    pub fn size_bytes(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    /// Host-side (zero-time) word read, for loading checks and debugging.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unaligned or out of range.
    pub fn peek(&self, addr: u32) -> u32 {
        self.words[self.index(addr).expect("peek out of range")]
    }

    /// Host-side (zero-time) word write, for program/data loading.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unaligned or out of range.
    pub fn poke(&mut self, addr: u32, value: u32) {
        let idx = self.index(addr).expect("poke out of range");
        self.words[idx] = value;
    }

    /// Host-side bulk load of consecutive words starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit in the device.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.poke(addr + (i as u32) * 4, *w);
        }
    }

    /// Number of read transactions serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write transactions serviced.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of out-of-range transactions: reads that received an error
    /// response and writes accepted without effect.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    fn index(&self, addr: u32) -> Option<usize> {
        if !addr.is_multiple_of(4) || addr < self.base {
            return None;
        }
        let idx = ((addr - self.base) / 4) as usize;
        (idx < self.words.len()).then_some(idx)
    }

    /// Applies the request to the array; returns the response to push, if
    /// any (writes complete silently — their acceptance is the signal).
    fn service(&mut self, req: &OcpRequest) -> Option<OcpResponse> {
        let beats = req.beats();
        // Validate the whole extent first so bursts never partially apply.
        let all_in_range = (0..beats).all(|b| self.index(req.addr + b * 4).is_some());
        if !all_in_range {
            self.errors += 1;
            return req
                .cmd
                .expects_response()
                .then(|| OcpResponse::error(req.tag));
        }
        match req.cmd {
            OcpCmd::Read | OcpCmd::BurstRead => {
                self.reads += 1;
                let data: DataWords = (0..beats)
                    .map(|b| {
                        let idx = self.index(req.addr + b * 4).expect("range checked");
                        self.words[idx]
                    })
                    .collect();
                Some(OcpResponse::ok(data, req.tag))
            }
            OcpCmd::Write | OcpCmd::BurstWrite => {
                self.writes += 1;
                for (b, w) in req.data.iter().enumerate() {
                    let idx = self
                        .index(req.addr + (b as u32) * 4)
                        .expect("range checked");
                    self.words[idx] = *w;
                }
                None
            }
        }
    }
}

impl Component<LinkArena> for MemoryDevice {
    fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        match &self.state {
            State::Idle => {
                if let Some((_, beats, _)) = self.port.peek_meta(net, now) {
                    let done_at = now + self.wait_states + Cycle::from(beats) * self.beat_cycles;
                    self.state = State::Busy { done_at };
                }
            }
            State::Busy { done_at } => {
                if now >= *done_at {
                    self.state = State::Idle;
                    let req = self
                        .port
                        .accept_request(net, now)
                        .expect("request stays asserted during service");
                    if let Some(resp) = self.service(&req) {
                        self.port.push_response(net, resp, now);
                    }
                }
            }
        }
    }

    #[inline]
    fn is_idle(&self, net: &LinkArena) -> bool {
        matches!(self.state, State::Idle) && self.port.is_quiet(net)
    }

    // Ticks before `done_at` and idle ticks with no visible request have
    // no side effects, so the default no-op `skip` is exact. A `Drained`
    // hint is safe even though a master may later assert a request: hints
    // are re-polled before every jump, and a master able to assert is
    // itself not drained, so it bounds the horizon.
    #[inline]
    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        match self.state {
            State::Busy { done_at } if done_at > now => Activity::IdleUntil(done_at),
            State::Busy { .. } => Activity::Busy,
            State::Idle => match self.port.request_visible_at(net) {
                Some(at) if at > now => Activity::IdleUntil(at),
                Some(_) => Activity::Busy,
                None if self.port.is_quiet(net) => Activity::Drained,
                // Not quiet without a request: a produced response or
                // acceptance is queued for the fabric to collect. The
                // device itself does nothing until then.
                None => Activity::waiting(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntg_ocp::{MasterId, OcpStatus};

    /// Runs a read to completion; returns the response and consume cycle.
    fn run_one(
        net: &mut LinkArena,
        mem: &mut MemoryDevice,
        master: &ntg_ocp::MasterPort,
        req: OcpRequest,
        start: Cycle,
    ) -> (OcpResponse, Cycle) {
        master.assert_request(net, req, start);
        for now in start..start + 100 {
            mem.tick(now, net);
            if let Some(resp) = master.take_response(net, now) {
                return (resp, now);
            }
        }
        panic!("no response within 100 cycles");
    }

    /// Runs a (posted) write until acceptance; returns the accept-visible
    /// cycle.
    fn run_write(
        net: &mut LinkArena,
        mem: &mut MemoryDevice,
        master: &ntg_ocp::MasterPort,
        req: OcpRequest,
        start: Cycle,
    ) -> Cycle {
        master.assert_request(net, req, start);
        for now in start..start + 100 {
            mem.tick(now, net);
            if master.take_accept(net, now).is_some() {
                return now;
            }
        }
        panic!("write not accepted within 100 cycles");
    }

    fn device() -> (LinkArena, MemoryDevice, ntg_ocp::MasterPort) {
        let mut net = LinkArena::new();
        let (m, s) = net.channel("mem", MasterId(0));
        (net, MemoryDevice::new("ram", 0x1000, 0x100, s), m)
    }

    #[test]
    fn write_then_read_round_trips() {
        let (mut net, mut mem, m) = device();
        run_write(&mut net, &mut mem, &m, OcpRequest::write(0x1010, 0xDEAD), 0);
        let (r, _) = run_one(&mut net, &mut mem, &m, OcpRequest::read(0x1010), 20);
        assert_eq!(r.data, vec![0xDEAD]);
        assert_eq!(r.status, OcpStatus::Ok);
    }

    #[test]
    fn write_acceptance_is_delayed_until_service_completes() {
        let (mut net, mut mem, m) = device();
        // assert @0 → visible @1 → service done and accepted @3 →
        // acceptance visible @4.
        let at = run_write(&mut net, &mut mem, &m, OcpRequest::write(0x1000, 1), 0);
        assert_eq!(at, 4);
    }

    #[test]
    fn single_read_latency_matches_timing_model() {
        let (mut net, mut mem, m) = device();
        // assert at 0 → visible at 1 → accepted at 1 →
        // response pushed at 1 + wait(1) + beats(1)*beat(1) = 3 →
        // consumed at 4.
        let (_, consumed_at) = run_one(&mut net, &mut mem, &m, OcpRequest::read(0x1000), 0);
        assert_eq!(consumed_at, 4);
    }

    #[test]
    fn burst_read_charges_per_beat() {
        let (mut net, mut mem, m) = device();
        mem.load_words(0x1000, &[1, 2, 3, 4]);
        let (resp, consumed_at) =
            run_one(&mut net, &mut mem, &m, OcpRequest::burst_read(0x1000, 4), 0);
        assert_eq!(resp.data, vec![1, 2, 3, 4]);
        // accept at 1, done at 1 + 1 + 4 = 6, consumed at 7.
        assert_eq!(consumed_at, 7);
    }

    #[test]
    fn burst_write_applies_all_beats() {
        let (mut net, mut mem, m) = device();
        run_write(
            &mut net,
            &mut mem,
            &m,
            OcpRequest::burst_write(0x1020, vec![10, 11, 12]),
            0,
        );
        assert_eq!(mem.peek(0x1020), 10);
        assert_eq!(mem.peek(0x1024), 11);
        assert_eq!(mem.peek(0x1028), 12);
        assert_eq!(mem.writes(), 1);
    }

    #[test]
    fn out_of_range_burst_write_touches_nothing() {
        let (mut net, mut mem, m) = device();
        mem.poke(0x10FC, 7);
        run_write(
            &mut net,
            &mut mem,
            &m,
            OcpRequest::burst_write(0x10FC, vec![1, 2]),
            0,
        );
        assert_eq!(mem.peek(0x10FC), 7, "partial burst must not apply");
        assert_eq!(mem.errors(), 1);
    }

    #[test]
    fn out_of_range_write_is_accepted_without_a_response() {
        let (mut net, mut mem, m) = device();
        run_write(&mut net, &mut mem, &m, OcpRequest::write(0x2000, 5), 0);
        assert_eq!(mem.errors(), 1);
        assert_eq!(mem.writes(), 0);
        for now in 5..20 {
            mem.tick(now, &mut net);
            assert!(
                m.take_response(&mut net, now).is_none(),
                "no response queued"
            );
        }
        assert!(mem.is_idle(&net));
    }

    #[test]
    fn out_of_range_read_is_error_response() {
        let (mut net, mut mem, m) = device();
        let (resp, _) = run_one(&mut net, &mut mem, &m, OcpRequest::burst_read(0x10FC, 2), 0);
        assert_eq!(resp.status, OcpStatus::Error);
        assert_eq!(mem.errors(), 1);
    }

    #[test]
    fn below_base_is_error() {
        let (mut net, mut mem, m) = device();
        let (resp, _) = run_one(&mut net, &mut mem, &m, OcpRequest::read(0x0FFC), 0);
        assert_eq!(resp.status, OcpStatus::Error);
    }

    #[test]
    fn busy_device_delays_second_request() {
        let (mut net, mut mem, m) = device();
        // First transaction occupies the device; the second is asserted as
        // soon as the first is accepted, and must wait.
        m.assert_request(&mut net, OcpRequest::read(0x1000), 0);
        let mut first_resp_at = None;
        let mut second_asserted = false;
        let mut second_resp_at = None;
        for now in 0..40 {
            mem.tick(now, &mut net);
            m.take_accept(&mut net, now);
            if m.take_response(&mut net, now).is_some() {
                if first_resp_at.is_none() {
                    first_resp_at = Some(now);
                } else {
                    second_resp_at = Some(now);
                    break;
                }
            }
            if !second_asserted && !m.request_pending(&net) {
                m.assert_request(&mut net, OcpRequest::read(0x1004), now);
                second_asserted = true;
            }
        }
        let first = first_resp_at.expect("first response");
        let second = second_resp_at.expect("second response");
        assert!(
            second >= first + 3,
            "second transaction must be serialised after the first ({first} vs {second})"
        );
    }

    #[test]
    fn is_idle_reflects_outstanding_work() {
        let (mut net, mut mem, m) = device();
        assert!(mem.is_idle(&net));
        m.assert_request(&mut net, OcpRequest::read(0x1000), 0);
        assert!(!mem.is_idle(&net), "pending request keeps device busy");
        for now in 0..10 {
            mem.tick(now, &mut net);
            m.take_accept(&mut net, now);
            m.take_response(&mut net, now);
        }
        assert!(mem.is_idle(&net));
    }

    #[test]
    fn custom_wait_states_lengthen_service() {
        let mut net = LinkArena::new();
        let (m, s) = net.channel("mem", MasterId(0));
        let mut mem = MemoryDevice::new("slow", 0x0, 0x100, s);
        mem.set_wait_states(10);
        let (_, consumed_at) = run_one(&mut net, &mut mem, &m, OcpRequest::read(0x0), 0);
        assert_eq!(consumed_at, 13); // 1 (accept) + 10 + 1 + 1 (visibility)
    }
}
