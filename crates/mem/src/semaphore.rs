//! The hardware semaphore bank (test-and-set cells).

use ntg_ocp::{DataWords, LinkArena, OcpCmd, OcpRequest, OcpResponse, SlavePort};
use ntg_sim::{Activity, Component, Cycle};

enum State {
    Idle,
    Busy { done_at: Cycle },
}

/// A bank of word-addressed hardware test-and-set semaphore cells.
///
/// Semantics (matching the MPARM polling traces in the paper's Figure 2(b)
/// and Figure 3):
///
/// * **Read**: returns the cell's current value and atomically clears it.
///   A returned `1` means the semaphore was free and is now owned by the
///   reader; a returned `0` means it was (and stays) locked.
/// * **Write**: stores the low bit of the data. Writing `1` releases the
///   semaphore; writing `0` (re-)locks it.
///
/// All cells reset to `1` (free). Because the test-and-set happens in the
/// device, the *same* reactive contention dynamics arise whether the
/// masters are real CPU cores or traffic generators — which is precisely
/// what lets the TG reproduce architecture-dependent synchronisation
/// traffic instead of merely replaying it.
///
/// Burst accesses and accesses past the last cell are protocol errors:
/// a read receives an error response, a write is accepted without one
/// and changes no cell. Both count in [`errors`](SemaphoreBank::errors).
pub struct SemaphoreBank {
    name: String,
    base: u32,
    cells: Vec<u32>,
    wait_states: Cycle,
    port: SlavePort,
    state: State,
    acquisitions: u64,
    failed_polls: u64,
    releases: u64,
    errors: u64,
}

impl SemaphoreBank {
    /// Default wait states for a semaphore access.
    pub const DEFAULT_WAIT_STATES: Cycle = 1;

    /// Creates a bank of `cells` semaphores at `base`, all initially free.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word-aligned or `cells` is zero.
    pub fn new(name: impl Into<String>, base: u32, cells: u32, port: SlavePort) -> Self {
        assert!(
            base.is_multiple_of(4),
            "semaphore bank base must be word-aligned"
        );
        assert!(cells > 0, "semaphore bank must have at least one cell");
        Self {
            name: name.into(),
            base,
            cells: vec![1; cells as usize],
            wait_states: Self::DEFAULT_WAIT_STATES,
            port,
            state: State::Idle,
            acquisitions: 0,
            failed_polls: 0,
            releases: 0,
            errors: 0,
        }
    }

    /// Overrides the access wait states.
    pub fn set_wait_states(&mut self, wait_states: Cycle) {
        self.wait_states = wait_states;
    }

    /// The bank's base byte address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The bank's size in bytes (one word per cell).
    pub fn size_bytes(&self) -> u32 {
        (self.cells.len() * 4) as u32
    }

    /// Host-side view of a cell's current value (no test-and-set).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn peek_cell(&self, cell: usize) -> u32 {
        self.cells[cell]
    }

    /// Number of successful acquisitions (reads that returned 1).
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Number of failed polls (reads that returned 0).
    pub fn failed_polls(&self) -> u64 {
        self.failed_polls
    }

    /// Number of release writes (data low bit 1).
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Number of rejected accesses (bursts, unmapped cells): reads that
    /// received an error response and writes accepted without effect.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    fn index(&self, addr: u32) -> Option<usize> {
        if !addr.is_multiple_of(4) || addr < self.base {
            return None;
        }
        let idx = ((addr - self.base) / 4) as usize;
        (idx < self.cells.len()).then_some(idx)
    }

    /// Applies the request; returns the response to push, if any (writes
    /// complete silently).
    fn service(&mut self, req: &OcpRequest) -> Option<OcpResponse> {
        if req.burst != 1 || self.index(req.addr).is_none() {
            self.errors += 1;
            return req
                .cmd
                .expects_response()
                .then(|| OcpResponse::error(req.tag));
        }
        let idx = self.index(req.addr).expect("checked above");
        match req.cmd {
            OcpCmd::Read => {
                let value = self.cells[idx];
                if value == 1 {
                    self.cells[idx] = 0;
                    self.acquisitions += 1;
                } else {
                    self.failed_polls += 1;
                }
                Some(OcpResponse::ok(DataWords::one(value), req.tag))
            }
            OcpCmd::Write => {
                let bit = req.data.first().copied().unwrap_or(0) & 1;
                self.cells[idx] = bit;
                if bit == 1 {
                    self.releases += 1;
                }
                None
            }
            OcpCmd::BurstRead | OcpCmd::BurstWrite => unreachable!("burst rejected above"),
        }
    }
}

impl Component<LinkArena> for SemaphoreBank {
    fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        match &self.state {
            State::Idle => {
                if self.port.has_request(net, now) {
                    let done_at = now + self.wait_states + 1;
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

    // Same hint shape as `MemoryDevice`: service and idle ticks have no
    // side effects, so the default no-op `skip` is exact.
    #[inline]
    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        match self.state {
            State::Busy { done_at } if done_at > now => Activity::IdleUntil(done_at),
            State::Busy { .. } => Activity::Busy,
            State::Idle => match self.port.request_visible_at(net) {
                Some(at) if at > now => Activity::IdleUntil(at),
                Some(_) => Activity::Busy,
                None if self.port.is_quiet(net) => Activity::Drained,
                // Produced output queued for the fabric to collect;
                // nothing for the device to do until then.
                None => Activity::waiting(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntg_ocp::{MasterId, OcpStatus};

    fn run_one(
        net: &mut LinkArena,
        bank: &mut SemaphoreBank,
        master: &ntg_ocp::MasterPort,
        req: OcpRequest,
        start: Cycle,
    ) -> OcpResponse {
        master.assert_request(net, req, start);
        for now in start..start + 50 {
            bank.tick(now, net);
            master.take_accept(net, now);
            if let Some(resp) = master.take_response(net, now) {
                return resp;
            }
        }
        panic!("no response within 50 cycles");
    }

    /// Runs a (posted) write until acceptance.
    fn run_write(
        net: &mut LinkArena,
        bank: &mut SemaphoreBank,
        master: &ntg_ocp::MasterPort,
        req: OcpRequest,
        start: Cycle,
    ) {
        master.assert_request(net, req, start);
        for now in start..start + 50 {
            bank.tick(now, net);
            if master.take_accept(net, now).is_some() {
                return;
            }
        }
        panic!("write not accepted within 50 cycles");
    }

    fn bank() -> (LinkArena, SemaphoreBank, ntg_ocp::MasterPort) {
        let mut net = LinkArena::new();
        let (m, s) = net.channel("sem", MasterId(0));
        (net, SemaphoreBank::new("sem", 0xA000, 4, s), m)
    }

    #[test]
    fn read_acquires_then_fails() {
        let (mut net, mut b, m) = bank();
        let first = run_one(&mut net, &mut b, &m, OcpRequest::read(0xA000), 0);
        assert_eq!(first.word(), 1, "first read acquires");
        let second = run_one(&mut net, &mut b, &m, OcpRequest::read(0xA000), 20);
        assert_eq!(second.word(), 0, "second read fails");
        assert_eq!(b.acquisitions(), 1);
        assert_eq!(b.failed_polls(), 1);
    }

    #[test]
    fn write_one_releases() {
        let (mut net, mut b, m) = bank();
        run_one(&mut net, &mut b, &m, OcpRequest::read(0xA000), 0); // acquire
        run_write(&mut net, &mut b, &m, OcpRequest::write(0xA000, 1), 20); // release
        let again = run_one(&mut net, &mut b, &m, OcpRequest::read(0xA000), 40);
        assert_eq!(again.word(), 1, "released semaphore is acquirable");
        assert_eq!(b.releases(), 1);
    }

    #[test]
    fn cells_are_independent() {
        let (mut net, mut b, m) = bank();
        assert_eq!(
            run_one(&mut net, &mut b, &m, OcpRequest::read(0xA000), 0).word(),
            1
        );
        assert_eq!(
            run_one(&mut net, &mut b, &m, OcpRequest::read(0xA004), 20).word(),
            1
        );
        assert_eq!(b.peek_cell(0), 0);
        assert_eq!(b.peek_cell(1), 0);
        assert_eq!(b.peek_cell(2), 1);
    }

    #[test]
    fn burst_access_is_rejected() {
        let (mut net, mut b, m) = bank();
        let resp = run_one(&mut net, &mut b, &m, OcpRequest::burst_read(0xA000, 2), 0);
        assert_eq!(resp.status, OcpStatus::Error);
        assert_eq!(b.errors(), 1);
        assert_eq!(b.peek_cell(0), 1, "failed burst must not test-and-set");
    }

    #[test]
    fn burst_write_is_accepted_without_a_response() {
        let (mut net, mut b, m) = bank();
        run_write(
            &mut net,
            &mut b,
            &m,
            OcpRequest::burst_write(0xA000, vec![0, 0]),
            0,
        );
        assert_eq!(b.errors(), 1);
        assert_eq!(b.peek_cell(0), 1, "a rejected burst locks nothing");
        for now in 5..20 {
            b.tick(now, &mut net);
            assert!(
                m.take_response(&mut net, now).is_none(),
                "no response queued"
            );
        }
        assert!(b.is_idle(&net));
    }

    #[test]
    fn out_of_range_cell_is_error() {
        let (mut net, mut b, m) = bank();
        let resp = run_one(&mut net, &mut b, &m, OcpRequest::read(0xA010), 0);
        assert_eq!(resp.status, OcpStatus::Error);
    }

    #[test]
    fn write_stores_only_low_bit() {
        let (mut net, mut b, m) = bank();
        run_write(
            &mut net,
            &mut b,
            &m,
            OcpRequest::write(0xA000, 0xFFFF_FFFE),
            0,
        );
        assert_eq!(b.peek_cell(0), 0, "even value locks");
        run_write(&mut net, &mut b, &m, OcpRequest::write(0xA000, 3), 20);
        assert_eq!(b.peek_cell(0), 1, "odd value releases");
    }
}
