//! The two campaign workloads: `campaign_cold` explores a design space
//! for the first time (tracing, translation, encoding and store writes
//! all on the path), `campaign_warm` replays one from a populated store
//! (store reads, decoding and TG replay only).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ntg_core::{TranslationMode, TranslatorConfig};
use ntg_explore::store::{decode_trace_artifact, trace_store_key};
use ntg_explore::{
    run_campaign, timings_path, CampaignOutcome, CampaignSpec, CoreSelection, DiskStore,
    MasterChoice, RemoteTier, RunOptions, StoreKind, TraceArtifact,
};
use ntg_platform::InterconnectChoice;
use ntg_workloads::Workload;

use crate::harness::{iterate, setup, Checks, Ctx, Iter, Layers, Report, WORKERS};
use crate::legs::{self, FlowTimes};
use crate::stats::{median, percentile};

/// The design space both campaign workloads (and the served one)
/// sweep: three Table-2 programs × {2,4,8} cores × `fabrics` ×
/// `masters`.
pub fn dse_spec(
    name: &str,
    fabrics: &[InterconnectChoice],
    masters: &[MasterChoice],
    seed: u64,
    smoke: bool,
) -> CampaignSpec {
    let mut spec = CampaignSpec::new(name);
    spec.workloads = vec![
        Workload::MpMatrix { n: 24 },
        Workload::Des {
            blocks_per_core: 24,
        },
        Workload::Cacheloop { iterations: 60_000 },
    ];
    spec.cores = CoreSelection::List(vec![2, 4, 8]);
    spec.interconnects = fabrics.to_vec();
    if smoke {
        spec.workloads = spec.workloads.iter().map(Workload::test_scale).collect();
        spec.cores = CoreSelection::List(vec![2]);
        spec.interconnects.truncate(2);
    }
    spec.masters = masters.to_vec();
    spec.base_seed = seed;
    spec
}

/// `bench-dse`: 54 jobs, CPU reference and TG replay on three fabrics.
pub fn bench_dse(seed: u64, smoke: bool) -> CampaignSpec {
    use InterconnectChoice::{Amba, Crossbar, Xpipes};
    dse_spec(
        "bench-dse",
        &[Amba, Crossbar, Xpipes],
        &[MasterChoice::Cpu, MasterChoice::Tg],
        seed,
        smoke,
    )
}

/// One finished campaign with its canonical bytes in hand.
pub struct Finished {
    pub outcome: CampaignOutcome,
    pub canonical: Vec<u8>,
    pub out: PathBuf,
    pub wall_s: f64,
}

impl Finished {
    pub fn sim_cycles(&self) -> u64 {
        self.outcome.results.iter().map(|r| r.sim_cycles).sum()
    }

    pub fn built(&self) -> u64 {
        self.outcome.cache.trace_misses + self.outcome.cache.image_misses
    }

    /// Largest `error_pct` the engine computed (TG against the CPU job
    /// of the same point).
    pub fn cycle_error_pct_max(&self) -> f64 {
        let errors = self.outcome.results.iter().filter_map(|r| r.error_pct);
        errors.fold(0.0, f64::max)
    }
}

/// Runs `spec` on two workers against the store at `store` and reads
/// the canonical file back. Every job is an op: it fails when it did
/// not complete, recorded an error, or missed its golden model.
pub fn run(
    ctx: &mut Ctx,
    checks: &mut Checks,
    spec: &CampaignSpec,
    store: &Path,
    remote: Option<Arc<dyn RemoteTier>>,
    out: PathBuf,
) -> Finished {
    let opts = RunOptions {
        threads: WORKERS,
        out: Some(out.clone()),
        store: Some(store.to_path_buf()),
        remote,
        ..RunOptions::default()
    };
    let started = Instant::now();
    let outcome = ctx
        .spans
        .scope("explore.run_campaign", |_| run_campaign(spec, &opts))
        .unwrap_or_else(|e| panic!("campaign {}: {e}", spec.name));
    let canonical = std::fs::read(&out).expect("campaign wrote its canonical file");
    let wall_s = started.elapsed().as_secs_f64();
    for r in &outcome.results {
        let ok = r.completed && r.error.is_none() && r.verified != Some(false);
        checks.op(ok, || {
            format!(
                "job {}: completed={} verified={:?} error={:?}",
                r.key, r.completed, r.verified, r.error
            )
        });
    }
    Finished {
        outcome,
        canonical,
        out,
        wall_s,
    }
}

fn throughput(f: &Finished) -> Vec<(&'static str, f64)> {
    vec![
        ("jobs_per_s", f.outcome.results.len() as f64 / f.wall_s),
        ("sim_cycles_per_s", f.sim_cycles() as f64 / f.wall_s),
    ]
}

/// Per-layer values of the campaign engine, from the outcomes and
/// per-job wall times of the traced iterations.
fn explore_layers(last: &Finished, job_walls_ms: &[f64], busy_shares: &[f64]) -> Layers {
    let c = &last.outcome.cache;
    vec![
        (
            "explore.cache_mem_hits",
            (c.trace_hits + c.image_hits) as f64,
        ),
        (
            "explore.cache_disk_hits",
            (c.trace_disk_hits + c.image_disk_hits) as f64,
        ),
        ("explore.cache_builds", last.built() as f64),
        ("explore.store_bytes", c.store_bytes as f64),
        ("explore.worker_busy_share", median(busy_shares)),
        ("explore.job_wall_ms_p50", percentile(job_walls_ms, 50)),
        ("explore.job_wall_ms_p97", percentile(job_walls_ms, 97)),
    ]
}

/// Σ job simulation wall / (workers × campaign wall): the rest is time
/// workers spent tracing, translating, on the store, or waiting for a
/// build-once slot.
fn busy_share(f: &Finished) -> f64 {
    let jobs: f64 = f.outcome.results.iter().map(|r| r.wall_secs).sum();
    jobs / (WORKERS as f64 * f.outcome.wall_secs)
}

/// What the traced iterations leave for the per-layer metrics.
#[derive(Default)]
struct LayerSamples {
    job_walls_ms: Vec<f64>,
    busy_shares: Vec<f64>,
}

impl LayerSamples {
    fn take(&mut self, f: &Finished) {
        let walls = f.outcome.results.iter().map(|r| r.wall_secs * 1e3);
        self.job_walls_ms.extend(walls);
        self.busy_shares.push(busy_share(f));
    }
}

/// The trace artifact of every `(workload, cores)` of `spec`, read back
/// from the store a campaign of that spec has filled.
fn stored_artifacts(spec: &CampaignSpec, store: &Path) -> Vec<(String, usize, TraceArtifact)> {
    let store = DiskStore::open(store).expect("reopen the campaign's store");
    let mut found: Vec<(String, usize, TraceArtifact)> = Vec::new();
    for job in spec.expand() {
        let workload = job.workload.to_string();
        if found.iter().any(|f| f.0 == workload && f.1 == job.cores) {
            continue;
        }
        let key = trace_store_key(&(job.workload, job.cores, spec.trace_interconnect));
        let artifact = store
            .load(StoreKind::Trace, &key)
            .and_then(|bytes| decode_trace_artifact(&bytes).ok())
            .unwrap_or_else(|| panic!("the store has no readable {key}"));
        found.push((workload, job.cores, artifact));
    }
    found
}

/// The flow and codec legs over the traces a cold campaign left in its
/// store.
fn flow_over_store(
    ctx: &mut Ctx,
    checks: &mut Checks,
    spec: &CampaignSpec,
    store: &Path,
) -> Layers {
    let mut times = FlowTimes::default();
    let mut all = Vec::new();
    for (_, _, artifact) in stored_artifacts(spec, store) {
        let cfg = TranslatorConfig {
            pollable: artifact.pollable,
            mode: TranslationMode::Reactive,
            loop_forever: false,
            poll_idle: 0,
        };
        legs::translate_and_assemble(&mut ctx.spans, &artifact.traces, &cfg, &mut times);
        all.extend(artifact.traces);
    }
    let mut layers = times.layers();
    layers.extend(
        ctx.spans
            .scope("trace.codec", |_| legs::codec(&all, checks)),
    );
    layers
}

/// `campaign_cold`: `bench-dse` into a fresh, empty store every
/// iteration.
pub fn campaign_cold(ctx: &mut Ctx) -> Report {
    let mut checks = Checks::default();
    // Nothing is built ahead of a first-time exploration: set-up is
    // expanding the spec and opening an empty store.
    let (spec, setup_wall) = setup(ctx, |ctx| {
        let spec = bench_dse(ctx.seed, ctx.smoke);
        let dir = ctx.fresh_dir("cold-setup");
        std::hint::black_box((spec.expand(), DiskStore::open(&dir).expect("open store")));
        let _ = std::fs::remove_dir_all(dir);
        spec
    });
    let mut samples = LayerSamples::default();
    let mut last: Option<(Finished, PathBuf)> = None;
    let timed = iterate(ctx, &mut checks, |ctx, checks, _verify| {
        if let Some((_, dir)) = last.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = ctx.fresh_dir("cold");
        let f = run(
            ctx,
            checks,
            &spec,
            &dir.join("store"),
            None,
            dir.join("out.jsonl"),
        );
        let error = f.cycle_error_pct_max();
        legs::check_cycle_error(checks, error);
        checks.require(f.built() > 0, || "a cold campaign built nothing".into());
        samples.take(&f);
        let mut it = throughput(&f);
        it.push(("cycle_error_pct_max", error));
        let fingerprint = ntg_trace::fnv64(&f.canonical);
        last = Some((f, dir));
        Iter {
            samples: it,
            fingerprint,
        }
    });
    let mut layers = Vec::new();
    if ctx.trace {
        let (f, dir) = last.as_ref().expect("at least one iteration ran");
        layers = explore_layers(f, &samples.job_walls_ms, &samples.busy_shares);
        layers.extend(flow_over_store(ctx, &mut checks, &spec, &dir.join("store")));
        let scratch = ctx.fresh_dir("store-legs");
        layers.extend(ctx.spans.scope("explore.store", |_| {
            legs::store(&scratch, ctx.smoke, &mut checks)
        }));
        let canonical = String::from_utf8_lossy(&f.canonical).into_owned();
        let timings = std::fs::read_to_string(timings_path(&f.out)).ok();
        layers.push((
            "report.render_ms",
            ctx.spans.scope("report.render_view", |_| {
                legs::render_ms(&canonical, timings.as_deref(), &mut checks)
            }),
        ));
    }
    Report::new(checks, setup_wall, timed, layers)
}

/// `campaign_warm`: `bench-dse-tg` (TG replay on four fabrics) against
/// a store populated once in set-up; every iteration starts with a new
/// in-memory cache and must build nothing.
pub fn campaign_warm(ctx: &mut Ctx) -> Report {
    use InterconnectChoice::{Amba, Crossbar, Ideal, Xpipes};
    let mut checks = Checks::default();
    let spec = dse_spec(
        "bench-dse-tg",
        &[Amba, Crossbar, Xpipes, Ideal],
        &[MasterChoice::Tg],
        ctx.seed,
        ctx.smoke,
    );
    let (store, setup_wall) = setup(ctx, |ctx| {
        let dir = ctx.fresh_dir("warm-store");
        let mut populate = Checks::default();
        run(
            ctx,
            &mut populate,
            &spec,
            &dir,
            None,
            dir.join("populate.jsonl"),
        );
        assert_eq!(
            populate.failed, 0,
            "populating the store: {:?}",
            populate.messages
        );
        dir
    });
    // The CPU reference's completion cycles travel with the traces; TG
    // jobs on the trace fabric are compared with them.
    let refs = stored_artifacts(&spec, &store);
    let trace_fabric = spec.trace_interconnect.to_string();
    let mut samples = LayerSamples::default();
    let mut last = None;
    let timed = iterate(ctx, &mut checks, |ctx, checks, _verify| {
        let dir = ctx.fresh_dir("warm");
        let f = run(ctx, checks, &spec, &store, None, dir.join("out.jsonl"));
        checks.require(f.built() == 0, || {
            format!("a warm campaign built {} artifacts", f.built())
        });
        let mut error: f64 = 0.0;
        for r in f
            .outcome
            .results
            .iter()
            .filter(|r| r.interconnect == trace_fabric)
        {
            let reference = refs.iter().find(|x| x.0 == r.workload && x.1 == r.cores);
            if let (Some((_, _, artifact)), Some(tg)) = (reference, r.cycles) {
                let cpu = artifact.ref_cycles as f64;
                error = error.max((tg as f64 - cpu).abs() / cpu * 100.0);
            }
        }
        legs::check_cycle_error(checks, error);
        samples.take(&f);
        let mut it = throughput(&f);
        it.push(("cycle_error_pct_max", error));
        let fingerprint = ntg_trace::fnv64(&f.canonical);
        let _ = std::fs::remove_dir_all(dir);
        last = Some(f);
        Iter {
            samples: it,
            fingerprint,
        }
    });
    let mut layers = Vec::new();
    if ctx.trace {
        let f = last.as_ref().expect("at least one iteration ran");
        layers = explore_layers(f, &samples.job_walls_ms, &samples.busy_shares);
        let scratch = ctx.fresh_dir("store-legs");
        layers.extend(legs::store(&scratch, ctx.smoke, &mut checks));
    }
    Report::new(checks, setup_wall, timed, layers)
}
