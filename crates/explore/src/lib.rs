//! Design-space-exploration campaigns over the NTG platform.
//!
//! The paper's whole point (§1, §6) is that translated traffic
//! generators make *interconnect design-space exploration* cheap: trace
//! an application once on a reference platform, translate the traces
//! into reactive TG programs once, then replay them across every
//! interconnect candidate at a fraction of the full-system simulation
//! cost. This crate turns that loop into an engine:
//!
//! * [`CampaignSpec`] declares a cartesian sweep — workloads × core
//!   counts × interconnects × master kinds (reference CPU, translated
//!   TG, calibrated stochastic baseline) × translation modes — and
//!   expands it into deterministically ordered, deterministically
//!   seeded [`JobSpec`]s;
//! * [`run_campaign`] executes the jobs on a worker pool (each
//!   simulation stays single-threaded and cycle-deterministic;
//!   parallelism is across configurations), sharing an
//!   [`ArtifactCache`] so each (workload, core count) is traced once —
//!   during the CPU reference job of that point when the campaign has
//!   one — and each translator configuration is translated once per
//!   campaign;
//! * results stream to a crash-safe JSONL journal and are finalised
//!   into a canonical, **byte-reproducible** result file — identical
//!   across worker-thread counts — plus a non-canonical wall-time
//!   sidecar ([`runner`] module docs spell out the contract);
//! * interrupted campaigns resume: re-running completes only the
//!   missing jobs, guarded by a campaign fingerprint;
//! * a persistent, content-addressed [`DiskStore`] spills both cache
//!   levels to disk (`~/.cache/ntg` by default), so *repeat* campaigns
//!   skip the expensive reference simulations entirely — the
//!   `disk_hits` counter tier makes that assertable;
//! * campaigns shard across processes/machines (`RunOptions::shard`,
//!   the CLI's `--shard`); [`merge_shards`] reassembles the shard
//!   JSONLs into a file byte-identical to a single-process run.
//!
//! The `ntg-sweep` binary is the CLI frontend. Its `table2`, `fabrics`
//! and `ablation` presets are the paper's experiments, and `ntg-report`
//! renders their result files.
//!
//! ```no_run
//! use ntg_explore::{run_campaign, CampaignSpec, CoreSelection, RunOptions};
//! use ntg_workloads::Workload;
//!
//! let mut spec = CampaignSpec::new("quick");
//! spec.workloads = vec![Workload::MpMatrix { n: 8 }];
//! spec.cores = CoreSelection::List(vec![2, 4]);
//! let outcome = run_campaign(&spec, &RunOptions::default()).unwrap();
//! assert_eq!(outcome.results.len(), 4); // 2 core counts × (cpu + tg)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod json;
pub mod result;
pub mod runner;
pub mod spec;
pub mod store;

pub use cache::{ArtifactCache, CacheSnapshot, TraceArtifact};
pub use json::Json;
pub use result::{parse_results, CampaignHeader, JobMetrics, JobResult, LoadedResults};
pub use runner::{
    collect_shard_files, merge_shards, metrics_path, partial_path, run_campaign, shard_path,
    timings_path, CampaignOutcome, MergeSummary, RunOptions,
};
pub use spec::{CampaignSpec, CoreSelection, JobSpec, MasterChoice};
pub use store::{
    entry_file_name, verify_entry, DiskStore, GcStats, RemoteSnapshot, RemoteTier, StoreKind,
    StoreStats,
};
