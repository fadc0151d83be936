//! Partition-parallel execution: one platform, several worker threads.
//!
//! [`Platform::run_with_threads`] splits the ×pipes mesh into row bands
//! (see `XpipesNoc::partition_plan`), hands each band its masters,
//! routers, slave devices and the contiguous slice of the link arena
//! they communicate through, and advances every band in cycle lockstep.
//! The conservative synchronisation window is the minimum
//! cross-partition link latency — one cycle in this mesh (flits cross a
//! hop per cycle, channel writes become visible at `t + 1`) — so the
//! lockstep is per-cycle, in two barrier-separated phases:
//!
//! * **phase A** — each worker ticks its masters and runs its region's
//!   link stage, which moves flits between its own routers and exports
//!   boundary-crossing flits into the shared [`MeshBoundary`] slots;
//! * **phase B** — each worker imports the flits its neighbours
//!   exported, runs the switch + NI stages, ticks its slave devices,
//!   samples its metrics, and publishes its local status.
//!
//! The control thread (which also executes partition 0, so `N` threads
//! means exactly `N` OS threads) replicates the serial run loop's
//! global decisions — quiesce, event-horizon skip, poll backoff, tick —
//! from the [`StatusSlot`] values the workers publish. Since the hint
//! fold ([`combine_hints`]) is associative and every per-region scan
//! covers exactly the components the serial scan would, the partitioned
//! run is bit-identical to the serial one in every reported number;
//! only `wall_time` and the [`PartitionReport`] diagnostics differ.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ntg_noc::{Interconnect, RegionSpec, XpipesNoc};
use ntg_ocp::{wake_token, LinkArena};
use ntg_sim::parallel::combine_hints;
use ntg_sim::{
    ActiveSet, Activity, Component, Cycle, SpinBarrier, StatusSlot, WakeEvents, WindowSeries,
};

use super::{Master, Platform, Slave};
use crate::report::{PartitionReport, RunReport};

// Commands the control thread issues to the workers, packed into one
// atomic word: `[op:2][want_hint:1][target:61]`. Workers track the
// current cycle locally, so only the skip target rides along.
const OP_SHIFT: u32 = 62;
const OP_PROBE: u64 = 0;
const OP_TICK: u64 = 1;
const OP_SKIP: u64 = 2;
const OP_EXIT: u64 = 3;
const WANT_HINT: u64 = 1 << 61;
const TARGET_MASK: u64 = WANT_HINT - 1;

fn encode_command(op: u64, want_hint: bool, target: Cycle) -> u64 {
    debug_assert!(target <= TARGET_MASK, "cycle target overflows the command");
    (op << OP_SHIFT) | if want_hint { WANT_HINT } else { 0 } | target
}

/// One partition's components, moved onto (and joined back from) its
/// worker thread.
struct Region {
    masters: Vec<Master>,
    noc: XpipesNoc,
    slaves: Vec<Slave>,
    net: LinkArena,
    metrics: Option<RegionMetrics>,
    /// O(active) scheduling state over this band's masters and slaves
    /// (`None` runs the band dense). Local component id = global link id
    /// minus `link_base`: the band owns one contiguous link range with
    /// its master links first, slave links after — the same id space
    /// the wake tokens use.
    sched: Option<ActiveSet>,
    /// First global link id of this band's arena slice.
    link_base: usize,
    /// Masters not yet halted — O(1) gate for the quiesce predicate
    /// (maintained only when `sched` is active).
    live_masters: usize,
    /// Visit-set and wake-token scratch, reused every round.
    visit_buf: Vec<u32>,
    tokens: Vec<u32>,
    /// Final `ActiveSet::visited_component_cycles`, latched at exit.
    visited: u64,
}

/// Per-worker metric state; merged into the platform recorder after the
/// workers join. Every worker samples at exactly the cycles the serial
/// loop would, so the merged series is bit-identical to serial sampling
/// of the whole fabric.
struct RegionMetrics {
    busy: WindowSeries,
    last_util: u64,
}

impl Region {
    /// One ticked cycle: phase A, barrier, phase B, status, barrier.
    ///
    /// With O(active) scheduling on, each phase visits only the band's
    /// woken masters/slaves (sleepers catch up through `skip` when
    /// revisited); the band's mesh share always ticks, exactly like the
    /// serial sparse loop's interconnect.
    fn tick_round(&mut self, now: Cycle, barrier: &SpinBarrier, slot: &StatusSlot, hint: bool) {
        let n_m = self.masters.len();
        let split = if let Some(sched) = &mut self.sched {
            self.visit_buf.clear();
            self.visit_buf.extend_from_slice(sched.visit(now));
            let split = self.visit_buf.partition_point(|&id| (id as usize) < n_m);
            for &id in &self.visit_buf[..split] {
                let i = id as usize;
                if let Some(since) = sched.take_catch_up(id, now) {
                    self.masters[i]
                        .as_component()
                        .skip(since, now, &mut self.net);
                }
                let was_halted = self.masters[i].halted();
                self.masters[i].tick(now, &mut self.net);
                if !was_halted && self.masters[i].halted() {
                    self.live_masters -= 1;
                }
            }
            split
        } else {
            for m in &mut self.masters {
                m.tick(now, &mut self.net);
            }
            0
        };
        self.noc.phase_link(&mut self.net, now);
        barrier.wait(); // every region's boundary exports are in place
        self.noc.phase_switch_ni(&mut self.net, now);
        if let Some(sched) = &mut self.sched {
            for &id in &self.visit_buf[split..] {
                let i = id as usize - n_m;
                if let Some(since) = sched.take_catch_up(id, now) {
                    self.slaves[i]
                        .as_component()
                        .skip(since, now, &mut self.net);
                }
                self.slaves[i].tick(now, &mut self.net);
            }
            let next = now + 1;
            for &id in &self.visit_buf {
                let i = id as usize;
                let hint = if i < n_m {
                    self.masters[i]
                        .as_component_ref()
                        .next_activity(next, &self.net)
                } else {
                    self.slaves[i - n_m]
                        .as_component_ref()
                        .next_activity(next, &self.net)
                };
                sched.reinsert(id, hint, next);
            }
            // Producer touches become visible at `next`; the band's
            // links are all intra-band (each master/slave attaches to
            // an NI of its own band), so tokens never cross regions.
            let tokens = &mut self.tokens;
            self.net.drain_wakes(&mut |t| tokens.push(t));
            let base = self.link_base;
            for &t in tokens.iter() {
                let (link, master_side) = wake_token(t);
                let local = link.index() - base;
                let to_fabric = if local < n_m {
                    !master_side
                } else {
                    master_side
                };
                if to_fabric {
                    self.noc.wake_link(link);
                } else {
                    sched.wake(local as u32, next);
                }
            }
            tokens.clear();
            sched.end_cycle(now);
        } else {
            for s in &mut self.slaves {
                s.tick(now, &mut self.net);
            }
        }
        self.sample(now);
        self.publish(slot, now + 1, hint);
        barrier.wait();
    }

    /// One horizon jump `now → to`; no flits move (skips only fire on a
    /// globally idle fabric), so the mid barrier separates nothing and
    /// is crossed purely to keep every round's crossing count uniform.
    ///
    /// With O(active) scheduling on, only the mesh share fast-forwards
    /// eagerly; sleeping masters/slaves settle via catch-up skips when
    /// next visited, like the serial sparse loop.
    fn skip_round(&mut self, now: Cycle, to: Cycle, barrier: &SpinBarrier, slot: &StatusSlot) {
        if self.sched.is_some() {
            self.noc.skip(now, to, &mut self.net);
        } else {
            for m in &mut self.masters {
                m.as_component().skip(now, to, &mut self.net);
            }
            self.noc.skip(now, to, &mut self.net);
            for s in &mut self.slaves {
                s.as_component().skip(now, to, &mut self.net);
            }
        }
        barrier.wait();
        // The serial loop samples a jump at its first cycle.
        self.sample(now);
        if let Some(sched) = &mut self.sched {
            sched.advance(to);
        }
        self.publish(slot, to, true);
        barrier.wait();
    }

    /// End-of-run settlement for a sparse band: fast-forwards every
    /// sleeper's bookkeeping to the finish cycle and latches the visit
    /// counter. No-op for dense bands.
    fn finalize(&mut self, now: Cycle) {
        let Some(sched) = &mut self.sched else { return };
        let n_m = self.masters.len();
        sched.drain_catch_ups(now, |id, since| {
            let i = id as usize;
            if i < n_m {
                self.masters[i]
                    .as_component()
                    .skip(since, now, &mut self.net);
            } else {
                self.slaves[i - n_m]
                    .as_component()
                    .skip(since, now, &mut self.net);
            }
        });
        self.visited = sched.visited_component_cycles();
    }

    /// A status-only round — the very first command, so the control
    /// thread sees each partition's initial quiesce/hint state.
    fn probe_round(&mut self, now: Cycle, barrier: &SpinBarrier, slot: &StatusSlot, hint: bool) {
        barrier.wait();
        self.publish(slot, now, hint);
        barrier.wait();
    }

    /// Samples the fabric-busy delta at cycle `now`, mirroring
    /// `Platform::sample_metrics` for this region's share of the mesh.
    fn sample(&mut self, now: Cycle) {
        if let Some(rec) = &mut self.metrics {
            let util = self.noc.utilization_cycles();
            rec.busy.record(now, util - rec.last_util);
            rec.last_util = util;
        }
    }

    /// Publishes this region's quiesce flag and (when the next control
    /// decision polls the horizon) its folded wake hint, evaluated at
    /// cycle `at` — the cycle the control loop is about to decide for.
    ///
    /// A sparse band's hint comes from its scheduler instead of a
    /// component scan: `Busy` while anything runs or is due at `at`,
    /// otherwise the fold of the wheel's earliest wake with the band's
    /// mesh hint — the same value the serial sparse loop computes for
    /// its jump decision.
    fn publish(&self, slot: &StatusSlot, at: Cycle, want_hint: bool) {
        if let Some(sched) = &self.sched {
            let quiesced = self.live_masters == 0
                && self.noc.is_idle(&self.net)
                && self.slaves.iter().all(|s| s.is_idle(&self.net));
            let hint = if !want_hint || !sched.idle() {
                Activity::Busy
            } else {
                let wheel = match sched.next_wake() {
                    Some(w) => Activity::IdleUntil(w),
                    None => Activity::Drained,
                };
                combine_hints(wheel, self.noc.next_activity(at, &self.net))
            };
            slot.publish(quiesced, hint);
            return;
        }
        let quiesced = self.masters.iter().all(Master::halted)
            && self.noc.is_idle(&self.net)
            && self.slaves.iter().all(|s| s.is_idle(&self.net));
        let hint = if want_hint {
            let mut h = self.masters.iter().fold(Activity::Drained, |h, m| {
                combine_hints(h, m.as_component_ref().next_activity(at, &self.net))
            });
            if h != Activity::Busy {
                h = combine_hints(h, self.noc.next_activity(at, &self.net));
            }
            if h != Activity::Busy {
                h = self.slaves.iter().fold(h, |h, s| {
                    combine_hints(h, s.as_component_ref().next_activity(at, &self.net))
                });
            }
            h
        } else {
            // Not read this round; publish the conservative value.
            Activity::Busy
        };
        slot.publish(quiesced, hint);
    }
}

/// The worker side of the command protocol: wait for a command, execute
/// the round, repeat until `Exit`.
fn worker_loop(region: &mut Region, barrier: &SpinBarrier, command: &AtomicU64, slot: &StatusSlot) {
    let mut now: Cycle = 0;
    loop {
        barrier.wait(); // start: the command word is published
        let bits = command.load(Ordering::Relaxed);
        let (op, hint, target) = (bits >> OP_SHIFT, bits & WANT_HINT != 0, bits & TARGET_MASK);
        match op {
            OP_EXIT => {
                region.finalize(now);
                break;
            }
            OP_PROBE => region.probe_round(now, barrier, slot, hint),
            OP_TICK => {
                region.tick_round(now, barrier, slot, hint);
                now += 1;
            }
            OP_SKIP => {
                region.skip_round(now, target, barrier, slot);
                now = target;
            }
            _ => unreachable!("two-bit opcode"),
        }
    }
}

/// Folds the published per-region hints into the global horizon —
/// the partitioned equivalent of `Platform::horizon`.
fn horizon(slots: &[StatusSlot], now: Cycle, end: Cycle) -> Option<Cycle> {
    let folded = slots
        .iter()
        .fold(Activity::Drained, |h, s| combine_hints(h, s.hint()));
    let h = match folded {
        Activity::Busy => return None,
        Activity::Drained => end,
        Activity::IdleUntil(wake) => wake.min(end),
    };
    (h > now).then_some(h)
}

fn all_quiesced(slots: &[StatusSlot]) -> bool {
    slots.iter().all(StatusSlot::quiesced)
}

/// What the control loop hands back for the report.
struct ControlOutcome {
    completed: bool,
    now: Cycle,
    skipped: Cycle,
    ticked: Cycle,
}

/// The control thread's replica of the serial run loop (`Platform::run`):
/// same quiesce check every iteration, same exponential horizon-poll
/// backoff, same skip/tick decisions — but made from the workers'
/// published status instead of a direct component scan, and executed by
/// broadcasting one command per round. Runs partition 0 inline.
fn control_loop(
    region: &mut Region,
    barrier: &SpinBarrier,
    command: &AtomicU64,
    slots: &[StatusSlot],
    max_cycles: Cycle,
    skipping: bool,
) -> ControlOutcome {
    const MAX_POLL_BACKOFF: Cycle = 64;
    // With O(active) scheduling the idle test is one flag per band, so
    // the control polls the horizon every round (backoff pinned at 1),
    // exactly like the serial sparse loop checks `ActiveSet::idle`
    // every cycle — keeping the two engines' skip schedules identical.
    let sparse = region.sched.is_some();
    let mut now: Cycle = 0;
    let mut skipped: Cycle = 0;
    let mut ticked: Cycle = 0;
    let completed;
    let mut poll_at: Cycle = 0;
    let mut backoff: Cycle = 1;

    // Round 0: learn every partition's initial status. The first loop
    // iteration polls the horizon (now == poll_at), so hints are
    // requested whenever skipping is on at all.
    command.store(encode_command(OP_PROBE, skipping, 0), Ordering::Relaxed);
    barrier.wait();
    region.probe_round(now, barrier, &slots[0], skipping);

    loop {
        // The slots always describe the platform exactly at cycle `now`:
        // each worker publishes after its state for the round settles.
        if now >= max_cycles {
            completed = all_quiesced(slots);
            break;
        }
        if all_quiesced(slots) {
            completed = true;
            break;
        }
        if skipping && (sparse || now >= poll_at) {
            if let Some(next) = horizon(slots, now, max_cycles) {
                command.store(encode_command(OP_SKIP, true, next), Ordering::Relaxed);
                barrier.wait();
                region.skip_round(now, next, barrier, &slots[0]);
                skipped += next - now;
                now = next;
                backoff = 1;
                poll_at = now;
                continue;
            }
            if !sparse {
                backoff = (backoff * 2).min(MAX_POLL_BACKOFF);
                poll_at = now + backoff;
            }
        }
        let want_hint = skipping && (sparse || now + 1 >= poll_at);
        command.store(encode_command(OP_TICK, want_hint, 0), Ordering::Relaxed);
        barrier.wait();
        region.tick_round(now, barrier, &slots[0], want_hint);
        ticked += 1;
        now += 1;
    }
    command.store(encode_command(OP_EXIT, false, 0), Ordering::Relaxed);
    barrier.wait();
    ControlOutcome {
        completed,
        now,
        skipped,
        ticked,
    }
}

impl Platform {
    /// Runs like [`run`](Self::run), but advances the simulation with
    /// `sim_threads` worker threads when the platform can be partitioned
    /// — a fresh (cycle 0) platform on a ×pipes mesh with the canonical
    /// row-major NI layout ([`InterconnectChoice::Mesh`]) and at least
    /// two usable row bands. Otherwise this falls back to the serial
    /// loop, so it is always safe to call.
    ///
    /// Partitioning is a pure wall-time optimisation with the same
    /// contract as cycle skipping: reported cycles, statistics, traces
    /// and metrics are bit-identical to a serial run (the three-way
    /// equivalence tests in `ntg-bench` pin this down). A partitioned
    /// run additionally reports [`PartitionReport`] diagnostics.
    ///
    /// [`InterconnectChoice::Mesh`]: super::InterconnectChoice::Mesh
    pub fn run_with_threads(&mut self, max_cycles: Cycle, sim_threads: usize) -> RunReport {
        let plan = if sim_threads >= 2 && self.now == 0 {
            self.interconnect
                .as_xpipes_mut()
                .and_then(|x| x.partition_plan(sim_threads))
        } else {
            None
        };
        let Some(specs) = plan else {
            return self.run(max_cycles);
        };
        debug_assert_eq!(
            specs.last().map(|s| s.links.1),
            Some(self.net.len() as u32),
            "partition plan must tile the whole link arena"
        );
        let start = Instant::now();
        let p = specs.len();
        // Before carving: the sub-arenas inherit the run end.
        self.net.set_run_end(max_cycles);
        let mut regions = self.carve(&specs);

        let barrier = SpinBarrier::new(p);
        let command = AtomicU64::new(0);
        let slots: Vec<StatusSlot> = (0..p).map(|_| StatusSlot::new()).collect();
        let skipping = self.skipping;

        let mut control_region = regions.remove(0);
        let (outcome, joined) = std::thread::scope(|scope| {
            let handles: Vec<_> = regions
                .into_iter()
                .enumerate()
                .map(|(i, mut region)| {
                    let (barrier, command, slot) = (&barrier, &command, &slots[i + 1]);
                    scope.spawn(move || {
                        worker_loop(&mut region, barrier, command, slot);
                        region
                    })
                })
                .collect();
            let outcome = control_loop(
                &mut control_region,
                &barrier,
                &command,
                &slots,
                max_cycles,
                skipping,
            );
            let joined: Vec<Region> = handles
                .into_iter()
                .map(|h| h.join().expect("partition worker panicked"))
                .collect();
            (outcome, joined)
        });

        self.now = outcome.now;
        self.skipped_cycles += outcome.skipped;
        self.ticked_cycles += outcome.ticked;
        control_region.finalize(outcome.now);
        let mut all = Vec::with_capacity(p);
        all.push(control_region);
        all.extend(joined);
        // Sparse bands visited only what they woke (the mesh counts once
        // per ticked round, as in the serial sparse loop); dense rounds
        // visit every component of every region.
        let region_visited: u64 = all.iter().map(|r| r.visited).sum();
        let sparse = all[0].sched.is_some();
        self.reassemble(all);
        self.visited_component_cycles += if sparse {
            region_visited + outcome.ticked
        } else {
            self.components() as u64 * outcome.ticked
        };
        if sparse {
            self.net.set_wake_logging(false);
            self.interconnect.set_event_driven(false);
        }
        // Final window-closing sample at the finish cycle, mirroring the
        // serial engines (keeps metric sidecars byte-identical).
        self.sample_metrics(self.now);

        self.build_report(
            outcome.completed,
            start.elapsed(),
            Some(PartitionReport {
                partitions: p,
                barrier_crossings: barrier.crossings(),
                barrier_stalls: barrier.stalls(),
                oversubscribed: barrier.immediate_yield(),
            }),
        )
    }

    /// Carves the platform into per-partition [`Region`]s along `specs`:
    /// splits the mesh, slices the link arena at the band boundaries and
    /// deals out the masters and slave devices.
    fn carve(&mut self, specs: &[RegionSpec]) -> Vec<Region> {
        let sparse = self.skipping && self.active_sched;
        if sparse {
            // Sub-arenas inherit the logging flag through `split_off`.
            self.net.set_wake_logging(true);
        }
        let nocs = self
            .interconnect
            .as_xpipes_mut()
            .expect("carve is only called on a planned mesh")
            .split(specs);

        let mut arena = std::mem::take(&mut self.net);
        let mut arenas = Vec::with_capacity(specs.len());
        for spec in specs.iter().skip(1) {
            let tail = arena.split_off(spec.links.0);
            arenas.push(std::mem::replace(&mut arena, tail));
        }
        arenas.push(arena);

        let mut masters = std::mem::take(&mut self.masters).into_iter();
        let mut slaves = std::mem::take(&mut self.slaves).into_iter();
        specs
            .iter()
            .zip(nocs)
            .zip(arenas)
            .map(|((spec, mut noc), net)| {
                let masters: Vec<Master> = masters
                    .by_ref()
                    .take(spec.masters.1 - spec.masters.0)
                    .collect();
                let slaves: Vec<Slave> = slaves
                    .by_ref()
                    .take(spec.slaves.1 - spec.slaves.0)
                    .collect();
                let n_m = masters.len();
                let sched = sparse.then(|| {
                    let mut sched = ActiveSet::new(n_m + slaves.len());
                    for (m, master) in masters.iter().enumerate() {
                        let hint = master.as_component_ref().next_activity(0, &net);
                        sched.seed(m as u32, hint, 0);
                    }
                    for (s, slave) in slaves.iter().enumerate() {
                        let hint = slave.as_component_ref().next_activity(0, &net);
                        sched.seed((n_m + s) as u32, hint, 0);
                    }
                    Interconnect::set_event_driven(&mut noc, true);
                    sched
                });
                Region {
                    live_masters: masters.iter().filter(|m| !m.halted()).count(),
                    masters,
                    slaves,
                    metrics: self.metrics.as_ref().map(|_| RegionMetrics {
                        busy: WindowSeries::new("fabric_busy", 1024, 64),
                        last_util: noc.utilization_cycles(),
                    }),
                    visit_buf: Vec::with_capacity(sched.as_ref().map_or(0, ActiveSet::components)),
                    tokens: Vec::new(),
                    visited: 0,
                    sched,
                    link_base: spec.links.0 as usize,
                    noc,
                    net,
                }
            })
            .collect()
    }

    /// Inverse of [`carve`](Self::carve): moves every component back,
    /// re-joins the link arena, absorbs the region meshes into the
    /// platform interconnect and merges the per-worker metric series.
    fn reassemble(&mut self, regions: Vec<Region>) {
        let mut net: Option<LinkArena> = None;
        let mut nocs = Vec::with_capacity(regions.len());
        let mut busy: Option<WindowSeries> = None;
        for region in regions {
            self.masters.extend(region.masters);
            self.slaves.extend(region.slaves);
            nocs.push(region.noc);
            match &mut net {
                None => net = Some(region.net),
                Some(head) => head.append(region.net),
            }
            if let Some(m) = region.metrics {
                match &mut busy {
                    None => busy = Some(m.busy),
                    Some(acc) => acc.merge(&m.busy),
                }
            }
        }
        self.net = net.expect("at least one region");
        self.interconnect
            .as_xpipes_mut()
            .expect("reassemble mirrors carve")
            .absorb(nocs);
        if let Some(rec) = &mut self.metrics {
            rec.busy = busy.expect("regions carried metric state");
            rec.last_util = self.interconnect.utilization_cycles();
        }
    }
}
