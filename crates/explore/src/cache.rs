//! The TG artifact cache — trace once, translate once, replay many
//! times.
//!
//! The paper's economics (§6, Table 2) rest on amortisation: the
//! expensive cycle-true reference simulation and the trace translation
//! are one-time costs, after which every interconnect candidate is a
//! cheap TG replay. This module makes that amortisation explicit and
//! *verifiable* inside a campaign:
//!
//! * the **trace level** caches, per `(workload, cores, trace fabric)`,
//!   the traced reference run's outputs: the per-core OCP traces, the
//!   pollable ranges the translator needs, and the stochastic-baseline
//!   calibration derived from the traces;
//! * the **image level** caches, per `(workload, cores, trace fabric,
//!   translator cache key)`, the translated and assembled TG binaries.
//!
//! Both levels have *build-once* semantics under concurrency: the first
//! job to need an artifact builds it while holding that key's slot lock;
//! concurrent jobs needing the same key block on the slot (jobs for
//! other keys proceed), then read the finished artifact. Hit/miss
//! counters let tests and the CLI assert "each trace was collected and
//! translated exactly once".
//!
//! With a [`DiskStore`] attached ([`ArtifactCache::with_store`]), every
//! in-memory miss first consults the persistent store — a **third
//! counter tier**, `disk_hits`, separates "loaded from disk" from
//! "actually rebuilt", so a warm repeat campaign can assert it
//! re-traced *nothing* — and every build is spilled back to disk for
//! the next process (see [`store`](crate::store) for the on-disk
//! protocol).

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use ntg_core::{GapDistribution, StochasticConfig, TgImage};
use ntg_platform::InterconnectChoice;
use ntg_trace::{MasterTrace, TraceStats};
use ntg_workloads::Workload;

use crate::spec::MasterChoice;
use crate::store::{
    decode_images, decode_trace_artifact, encode_images, encode_trace_artifact, image_store_key,
    trace_store_key, DiskStore, RemoteSnapshot, StoreKind,
};

/// Key of the trace level: one traced reference run.
pub type TraceKey = (Workload, usize, InterconnectChoice);

/// Key of the image level: a trace key plus
/// [`TranslatorConfig::cache_key`](ntg_core::TranslatorConfig::cache_key).
pub type ImageKey = (Workload, usize, InterconnectChoice, u64);

/// Everything the traced reference run produces that later jobs reuse.
#[derive(Debug, Clone)]
pub struct TraceArtifact {
    /// Per-core OCP traces (with halt timestamps).
    pub traces: Vec<MasterTrace>,
    /// Pollable address ranges of the traced platform (translator
    /// "platform knowledge").
    pub pollable: Vec<(u32, u32)>,
    /// Per-core stochastic-baseline configurations calibrated to the
    /// trace's aggregate load (seed field left 0; jobs fill in their
    /// derived seed).
    pub calibration: Vec<StochasticConfig>,
    /// Execution time of the traced run in cycles.
    pub ref_cycles: u64,
}

impl TraceArtifact {
    /// Calibrates the per-core stochastic baseline from traces, exactly
    /// like the `ablation_stochastic` experiment: same transaction
    /// count, same mean gap, same read/write/burst mix, addresses drawn
    /// from the platform's mapped ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed trace.
    pub fn calibrate(
        traces: &[MasterTrace],
        period_ns: u64,
        ranges: &[(u32, u32)],
    ) -> Result<Vec<StochasticConfig>, String> {
        traces
            .iter()
            .map(|t| {
                let stats = TraceStats::from_trace(t).map_err(|e| format!("trace stats: {e:?}"))?;
                let txs = stats.transactions();
                let mean_gap_cycles = (stats.idle_gap_ns.mean().unwrap_or(0.0)
                    / period_ns.max(1) as f64)
                    .round() as u32;
                let reads = stats.reads + stats.burst_reads;
                let writes = stats.writes + stats.burst_writes;
                Ok(StochasticConfig {
                    seed: 0,
                    ranges: ranges.to_vec(),
                    write_fraction: writes as f64 / (reads + writes).max(1) as f64,
                    burst_fraction: (stats.burst_reads + stats.burst_writes) as f64
                        / txs.max(1) as f64,
                    gap: GapDistribution::Geometric {
                        mean: mean_gap_cycles.max(1),
                    },
                    transactions: txs,
                })
            })
            .collect()
    }
}

/// One key's slot: taken (locked) by the builder, then holds the built
/// artifact for every later reader.
type Slot<V> = Arc<Mutex<Option<Arc<V>>>>;

/// A concurrent build-once map: the first `get_or_build` for a key runs
/// the builder; concurrent calls for the same key wait and share the
/// result. Errors are not cached — a later call retries the build — and
/// neither are panics: a builder that unwinds leaves its slot poisoned
/// but empty, and the next caller recovers it and builds again.
struct OnceMap<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
}

impl<K: std::hash::Hash + Eq + Clone, V> OnceMap<K, V> {
    fn new() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// Returns `(artifact, was_hit)`.
    fn get_or_build(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<V, String>,
    ) -> Result<(Arc<V>, bool), String> {
        let slot = {
            let mut slots = self.slots.lock().expect("cache map poisoned");
            slots.entry(key.clone()).or_default().clone()
        };
        // A poisoned slot only means a builder panicked; it never stored
        // anything, so the slot is as empty as after an error.
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = guard.as_ref() {
            return Ok((v.clone(), true));
        }
        let v = Arc::new(build()?);
        *guard = Some(v.clone());
        Ok((v, false))
    }
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
        }
    }
}

/// A point-in-time copy of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Trace-level lookups served from the in-memory cache.
    pub trace_hits: u64,
    /// Trace-level builds (reference runs executed).
    pub trace_misses: u64,
    /// Trace-level lookups served from the persistent store.
    pub trace_disk_hits: u64,
    /// Image-level lookups served from the in-memory cache.
    pub image_hits: u64,
    /// Image-level builds (translations + assemblies executed).
    pub image_misses: u64,
    /// Image-level lookups served from the persistent store.
    pub image_disk_hits: u64,
    /// Published entry bytes in the attached store (0 without a store).
    pub store_bytes: u64,
    /// Remote-tier traffic (`None` when no remote tier is attached).
    pub remote: Option<RemoteSnapshot>,
}

impl CacheSnapshot {
    /// Formats the counters for CLI summaries — the campaign's cache
    /// economics in one line.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "cache: traces {} built / {} reused / {} from store, \
             TG binaries {} built / {} reused / {} from store, \
             store {} bytes",
            self.trace_misses,
            self.trace_hits,
            self.trace_disk_hits,
            self.image_misses,
            self.image_hits,
            self.image_disk_hits,
            self.store_bytes
        );
        if let Some(r) = self.remote {
            line.push_str(&format!(
                ", remote {} hits / {} misses / {} published / {} errors",
                r.hits, r.misses, r.publishes, r.errors
            ));
        }
        line
    }
}

/// The campaign-wide artifact cache (in-memory build-once map, plus an
/// optional persistent [`DiskStore`] tier underneath).
pub struct ArtifactCache {
    traces: OnceMap<TraceKey, TraceArtifact>,
    images: OnceMap<ImageKey, Vec<TgImage>>,
    store: Option<Arc<DiskStore>>,
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    trace_disk_hits: AtomicU64,
    image_hits: AtomicU64,
    image_misses: AtomicU64,
    image_disk_hits: AtomicU64,
}

impl ArtifactCache {
    /// An empty, memory-only cache.
    pub fn new() -> Self {
        Self::with_store(None)
    }

    /// A cache backed by a persistent store (`None` for memory-only).
    pub fn with_store(store: Option<Arc<DiskStore>>) -> Self {
        Self {
            traces: OnceMap::new(),
            images: OnceMap::new(),
            store,
            trace_hits: AtomicU64::new(0),
            trace_misses: AtomicU64::new(0),
            trace_disk_hits: AtomicU64::new(0),
            image_hits: AtomicU64::new(0),
            image_misses: AtomicU64::new(0),
            image_disk_hits: AtomicU64::new(0),
        }
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    /// Trace-level lookup. Returns the artifact and whether it came
    /// from cache (memory or disk).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (not cached; a later job retries).
    pub fn traces(
        &self,
        key: &TraceKey,
        build: impl FnOnce() -> Result<TraceArtifact, String>,
    ) -> Result<(Arc<TraceArtifact>, bool), String> {
        let from_disk = Cell::new(false);
        let (v, mem_hit) = self.traces.get_or_build(key, || match &self.store {
            None => build(),
            Some(store) => {
                let key_str = trace_store_key(key);
                let (artifact, disk) = store.get_or_build_typed(
                    StoreKind::Trace,
                    &key_str,
                    |payload| {
                        decode_trace_artifact(payload).map_err(|e| format!("store {key_str}: {e}"))
                    },
                    || {
                        build().map(|a| {
                            let bytes = encode_trace_artifact(&a);
                            (a, bytes)
                        })
                    },
                )?;
                from_disk.set(disk);
                Ok(artifact)
            }
        })?;
        self.count(
            mem_hit,
            from_disk.get(),
            [&self.trace_hits, &self.trace_disk_hits, &self.trace_misses],
        );
        Ok((v, mem_hit || from_disk.get()))
    }

    /// Image-level lookup. Returns the assembled TG binaries and whether
    /// they came from cache (memory or disk).
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (not cached; a later job retries).
    pub fn images(
        &self,
        key: &ImageKey,
        build: impl FnOnce() -> Result<Vec<TgImage>, String>,
    ) -> Result<(Arc<Vec<TgImage>>, bool), String> {
        let from_disk = Cell::new(false);
        let (v, mem_hit) = self.images.get_or_build(key, || match &self.store {
            None => build(),
            Some(store) => {
                let key_str = image_store_key(key);
                let (images, disk) = store.get_or_build_typed(
                    StoreKind::Image,
                    &key_str,
                    |payload| decode_images(payload).map_err(|e| format!("store {key_str}: {e}")),
                    || {
                        build().map(|imgs| {
                            let bytes = encode_images(&imgs);
                            (imgs, bytes)
                        })
                    },
                )?;
                from_disk.set(disk);
                Ok(images)
            }
        })?;
        self.count(
            mem_hit,
            from_disk.get(),
            [&self.image_hits, &self.image_disk_hits, &self.image_misses],
        );
        Ok((v, mem_hit || from_disk.get()))
    }

    fn count(&self, mem_hit: bool, disk_hit: bool, [hits, disk, misses]: [&AtomicU64; 3]) {
        let counter = if mem_hit {
            hits
        } else if disk_hit {
            disk
        } else {
            misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counter values (plus the store's on-disk size, which
    /// makes this a directory walk when a store is attached — call it
    /// once per summary, not per job).
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
            trace_disk_hits: self.trace_disk_hits.load(Ordering::Relaxed),
            image_hits: self.image_hits.load(Ordering::Relaxed),
            image_misses: self.image_misses.load(Ordering::Relaxed),
            image_disk_hits: self.image_disk_hits.load(Ordering::Relaxed),
            store_bytes: self.store.as_ref().map_or(0, |s| s.size_bytes()),
            remote: self
                .store
                .as_ref()
                .filter(|s| s.has_remote())
                .map(|s| s.remote_snapshot()),
        }
    }

    /// Which artifact levels a job of this master kind consumes — used
    /// by the runner to decide which hit flags a result records.
    pub fn levels_used(master: MasterChoice) -> (bool, bool) {
        match master {
            MasterChoice::Cpu => (false, false),
            MasterChoice::Tg => (true, true),
            MasterChoice::Stochastic => (true, false),
            // Synthetic traffic is generated, not translated: no trace,
            // no image, nothing cached.
            MasterChoice::Synthetic => (false, false),
        }
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn build_once_then_hit() {
        let cache = ArtifactCache::new();
        let key = (
            Workload::SpMatrix { n: 4 },
            1,
            InterconnectChoice::Amba,
            7u64,
        );
        let builds = AtomicUsize::new(0);
        for i in 0..3 {
            let (v, hit) = cache
                .images(&key, || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    Ok(vec![])
                })
                .unwrap();
            assert_eq!(v.len(), 0);
            assert_eq!(hit, i > 0);
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let snap = cache.snapshot();
        assert_eq!((snap.image_misses, snap.image_hits), (1, 2));
    }

    #[test]
    fn distinct_keys_build_independently() {
        let cache = ArtifactCache::new();
        let k1 = (
            Workload::SpMatrix { n: 4 },
            1,
            InterconnectChoice::Amba,
            1u64,
        );
        let k2 = (
            Workload::SpMatrix { n: 4 },
            1,
            InterconnectChoice::Amba,
            2u64,
        );
        cache.images(&k1, || Ok(vec![])).unwrap();
        let (_, hit) = cache.images(&k2, || Ok(vec![])).unwrap();
        assert!(!hit);
        assert_eq!(cache.snapshot().image_misses, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ArtifactCache::new();
        let key = (
            Workload::SpMatrix { n: 4 },
            1,
            InterconnectChoice::Amba,
            7u64,
        );
        assert!(cache.images(&key, || Err("boom".into())).is_err());
        let (_, hit) = cache.images(&key, || Ok(vec![])).unwrap();
        assert!(!hit, "error must not have populated the slot");
    }

    #[test]
    fn a_panicking_builder_leaves_the_slot_buildable() {
        let cache = ArtifactCache::new();
        let key = (
            Workload::SpMatrix { n: 4 },
            1,
            InterconnectChoice::Amba,
            7u64,
        );
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.images(&key, || panic!("simulator bug"))
        }));
        assert!(unwound.is_err());
        let (v, hit) = cache
            .images(&key, || Ok(vec![]))
            .expect("the next caller builds instead of failing on the poisoned slot");
        assert!(v.is_empty());
        assert!(!hit, "the panic must not have populated the slot");
        assert!(cache.images(&key, || Err("not called".into())).unwrap().1);
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let cache = Arc::new(ArtifactCache::new());
        let builds = Arc::new(AtomicUsize::new(0));
        let key = (
            Workload::SpMatrix { n: 4 },
            1,
            InterconnectChoice::Amba,
            9u64,
        );
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = cache.clone();
                let builds = builds.clone();
                s.spawn(move || {
                    cache
                        .images(&key, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            Ok(vec![])
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let snap = cache.snapshot();
        assert_eq!(snap.image_misses, 1);
        assert_eq!(snap.image_hits, 7);
    }
}
