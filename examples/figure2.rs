//! Reproduces the paper's **Figure 2**: the two canonical MPARM
//! transaction patterns, exported as Chrome `trace_event` timelines
//! from real simulated traces.
//!
//! * (a) a master talking to its exclusively owned slave: posted write
//!   (WR), blocking read (RD), and a read stalled behind a write at the
//!   slave;
//! * (b) two masters racing for one hardware semaphore: M1 locks it, M2
//!   polls and fails until M1's unlocking write, then succeeds.
//!
//! Run with: `cargo run --release --example figure2 [-- OUT_DIR]`
//!
//! Writes `figure2a.trace.json` and `figure2b.trace.json` (to `OUT_DIR`,
//! default the current directory); open them in `chrome://tracing` or
//! <https://ui.perfetto.dev> to see the Figure 2 timelines interactively.

use std::path::{Path, PathBuf};

use ntg::cpu::isa::{R0, R1, R2, R3, R4};
use ntg::cpu::Asm;
use ntg::ocp::OcpCmd;
use ntg::platform::{mem_map, InterconnectChoice, PlatformBuilder};
use ntg::trace::{chrome_trace_json, MasterTrace};

fn export(out_dir: &Path, name: &str, title: &str, traces: &[MasterTrace]) {
    let json = chrome_trace_json(traces).expect("well-formed traces");
    let path = out_dir.join(name);
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    let events: usize = traces
        .iter()
        .map(|t| t.transactions().expect("well-formed trace").len())
        .sum();
    println!(
        "{title}\n  -> {} ({} masters, {events} transactions)",
        path.display(),
        traces.len()
    );
}

/// Figure 2(a): WR, RD, then a RD immediately after a WR (stalled at the
/// slave).
fn private_slave_pattern(out_dir: &Path) {
    let mut a = Asm::new();
    let base = mem_map::SHARED_BASE; // uncached, so every access is visible
    a.li(R2, base);
    a.li(R1, 0x111);
    a.stw(R1, R2, 0); // WR
    a.ldw(R3, R2, 0); // RD (blocking)
                      // Compute gap.
    a.li(R4, 20);
    a.label("gap");
    a.addi(R4, R4, -1);
    a.bne(R4, R0, "gap");
    a.stw(R1, R2, 4); // WR …
    a.ldw(R3, R2, 8); // … RD right behind it: stalls at the slave
    a.halt();
    let program = a.assemble(mem_map::private_base(0)).unwrap();

    let mut b = PlatformBuilder::new();
    b.interconnect(InterconnectChoice::Amba).tracing(true);
    b.add_cpu(program);
    let mut p = b.build().unwrap();
    assert!(p.run(100_000).completed);
    export(
        out_dir,
        "figure2a.trace.json",
        "Figure 2(a): master <-> private slave (WR posted, RD blocking)",
        &[p.trace(0).unwrap()],
    );
}

/// Figure 2(b): M1 and M2 race for a hardware semaphore; M2 polls.
fn semaphore_contention_pattern(out_dir: &Path) {
    let sem = mem_map::semaphore(0);
    let make = |core: usize, hold_cycles: u32, start_delay: u32| {
        let mut a = Asm::new();
        // Stagger the cores so M1 wins the semaphore.
        a.li(R4, start_delay.max(1));
        a.label("delay");
        a.addi(R4, R4, -1);
        a.bne(R4, R0, "delay");
        a.li(R2, sem);
        a.li(R1, 1);
        a.label("acq");
        a.ldw(R3, R2, 0); // TAS read: 1 = acquired
        a.bne(R3, R1, "acq");
        // Hold the lock for a while (M1 only holds long).
        a.li(R4, hold_cycles.max(1));
        a.label("hold");
        a.addi(R4, R4, -1);
        a.bne(R4, R0, "hold");
        a.stw(R1, R2, 0); // unlock (WR 1)
        a.halt();
        a.assemble(mem_map::private_base(core)).unwrap()
    };

    let mut b = PlatformBuilder::new();
    b.interconnect(InterconnectChoice::Amba).tracing(true);
    b.add_cpu(make(0, 120, 1)); // M1: arrives first, holds long
    b.add_cpu(make(1, 4, 30)); // M2: arrives second, polls
    let mut p = b.build().unwrap();
    assert!(p.run(100_000).completed);
    let traces = [p.trace(0).unwrap(), p.trace(1).unwrap()];
    let polls = traces[1]
        .transactions()
        .unwrap()
        .iter()
        .filter(|t| t.addr == sem && t.cmd == OcpCmd::Read)
        .count();
    export(
        out_dir,
        "figure2b.trace.json",
        "Figure 2(b): M1 locks the semaphore, M2 polls until M1 unlocks",
        &traces,
    );
    println!(
        "  M2 issued {polls} semaphore reads; all but the last returned 0 \
         (locked), the last returned 1 — the reactive pattern the TG's \
         Semchk loop regenerates."
    );
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    println!("Reproduction of Figure 2 (DATE'05 TG paper)\n");
    private_slave_pattern(&out_dir);
    semaphore_contention_pattern(&out_dir);
}
