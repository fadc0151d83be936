//! The campaign executor: a worker pool over expanded jobs.
//!
//! Parallelism is across *configurations*, never inside a simulation:
//! each in-process worker thread builds, runs and drops whole
//! platforms. A [`Platform`] owns its entire component graph through
//! the link arena and is a plain `Send` value (compile-asserted in
//! `ntg-platform`), so workers are ordinary scoped threads. All
//! `--threads N` workers share *one* in-memory [`ArtifactCache`]
//! (hit/miss counters are atomics) backed by *one* open
//! [`DiskStore`](crate::store::DiskStore) handle, so an artifact is
//! built or loaded at most once per invocation no matter how many
//! workers want it. Shared state beyond that is limited to the work
//! queue (an atomic index), the collected results and the journal
//! file.
//!
//! # One reference run per design point
//!
//! The paper collects a point's trace *during* its reference simulation
//! (§1 step 1): tracing is a small tax on that run, not a second run. So
//! the CPU job on the campaign's trace fabric, when the campaign also
//! sweeps TG or stochastic jobs ([`CampaignSpec::produces_trace`]), runs
//! its first repeat traced inside the trace level's build-once slot. It
//! keeps that run's report and golden-model verdict as its own result
//! and publishes the artifact for the point's consumers. When the
//! artifact already exists (memory, disk or remote) the job runs
//! untraced; when the run fails the artifact checks (a fault, the cycle
//! bound) the job still records its own outcome and each consumer
//! retries the build and reports the failure, exactly as without a
//! producer.
//!
//! # Dispatch order
//!
//! Workers take pending jobs trace producers first (a point's consumers
//! then find its artifact built, or being built, instead of building it
//! themselves), then by descending core count (the widest platforms run
//! longest, and a long job started last runs alone), then by id. The
//! order shows in no output byte: the canonical file is written in id
//! order and its cache flags are structural.
//!
//! # Determinism contract
//!
//! The canonical result file is a pure function of the
//! [`CampaignSpec`]: job ids, seeds and every recorded metric are
//! derived from the spec alone, and the file is written sorted by job
//! id at finalise. Worker count and scheduling order affect only wall
//! time (reported in the timings sidecar) — `--threads 1` and
//! `--threads 8` produce byte-identical canonical files.

use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ntg_core::rng::derive_seed;
use ntg_core::{assemble, TraceTranslator, TranslatorConfig};
use ntg_platform::{MasterReport, Platform, PlatformBuilder, RunReport};
use ntg_workloads::synthetic::build_synthetic_platform;
use ntg_workloads::Workload;

use crate::cache::{ArtifactCache, CacheSnapshot, TraceArtifact, TraceKey};
use crate::json::Json;
use crate::result::{parse_results, CampaignHeader, JobMetrics, JobResult};
use crate::spec::{CampaignSpec, JobSpec, MasterChoice};

/// How to execute a campaign.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads. `0` means auto-detect: one worker per available
    /// hardware thread (`std::thread::available_parallelism`).
    pub threads: usize,
    /// Canonical output path; `None` keeps everything in memory (no
    /// journal, no resume — used by library frontends and tests).
    pub out: Option<PathBuf>,
    /// Resume from an existing journal or canonical file at `out`:
    /// results with a matching campaign fingerprint are kept and only
    /// missing (or previously failed) jobs run.
    pub resume: bool,
    /// Suppress per-job progress lines on stderr.
    pub quiet: bool,
    /// Base directory of the persistent artifact store; `None` keeps
    /// the cache in-memory only (every invocation re-traces).
    pub store: Option<PathBuf>,
    /// Remote artifact tier attached behind the disk store. Ignored
    /// without [`store`](Self::store) — the remote tier only exchanges
    /// framed entries with a local disk level, never feeds the
    /// in-memory cache directly.
    pub remote: Option<std::sync::Arc<dyn crate::store::RemoteTier>>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            out: None,
            resume: false,
            quiet: true,
            store: None,
            remote: None,
        }
    }
}

/// What a finished campaign hands back.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The header written to (or that would be written to) the file.
    pub header: CampaignHeader,
    /// All job results, sorted by id, `error_pct` filled in.
    pub results: Vec<JobResult>,
    /// Artifact-cache counters for this invocation (resumed jobs do not
    /// touch the cache).
    pub cache: CacheSnapshot,
    /// Jobs executed in this invocation.
    pub executed: usize,
    /// Jobs adopted from a previous partial/canonical file.
    pub resumed: usize,
    /// Total wall-clock seconds of this invocation.
    pub wall_secs: f64,
}

/// Runs a campaign to completion.
///
/// # Errors
///
/// Returns a message for infrastructure failures (unwritable output,
/// corrupt resume header). Per-job failures do *not* fail the campaign;
/// they are recorded in that job's [`JobResult::error`].
pub fn run_campaign(spec: &CampaignSpec, opts: &RunOptions) -> Result<CampaignOutcome, String> {
    let started = Instant::now();
    let jobs = spec.expand();
    let header = CampaignHeader {
        name: spec.name.clone(),
        fingerprint: spec.fingerprint(),
        jobs: jobs.len(),
    };

    // Adopt prior results when resuming.
    let mut done: Vec<Option<JobResult>> = vec![None; jobs.len()];
    let mut resumed = 0;
    if opts.resume {
        if let Some(out) = &opts.out {
            for r in load_prior_results(out, &header, &jobs) {
                let id = r.id;
                if done[id].is_none() {
                    resumed += 1;
                    done[id] = Some(r);
                }
            }
        }
    }
    let mut pending: Vec<&JobSpec> = jobs.iter().filter(|j| done[j.id].is_none()).collect();
    pending.sort_by_key(|j| (!spec.produces_trace(j), std::cmp::Reverse(j.cores), j.id));

    // Open the journal (header first if the file is new/empty).
    let journal = match &opts.out {
        Some(out) => {
            let path = partial_path(out);
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            }
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| format!("open {}: {e}", path.display()))?;
            let empty = f
                .metadata()
                .map_err(|e| format!("stat {}: {e}", path.display()))?
                .len()
                == 0;
            if empty {
                writeln!(f, "{}", header.render())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            Some(Mutex::new(f))
        }
        None => None,
    };

    let store = match &opts.store {
        Some(base) => {
            let mut store = crate::store::DiskStore::open(base)?;
            if let Some(remote) = &opts.remote {
                store = store.with_remote(remote.clone());
            }
            Some(std::sync::Arc::new(store))
        }
        None => None,
    };
    let cache = ArtifactCache::with_store(store);
    let next = AtomicUsize::new(0);
    let fresh: Mutex<Vec<JobResult>> = Mutex::new(Vec::new());
    let progress = AtomicUsize::new(resumed);

    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        opts.threads
    };
    let workers = threads.clamp(1, pending.len().max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = pending.get(i) else { break };
                let result = catch_unwind(AssertUnwindSafe(|| run_job(job, spec, &cache)))
                    .unwrap_or_else(|p| {
                        let msg = p
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| p.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "worker panicked".into());
                        JobResult::failed(job, format!("panic: {msg}"))
                    });
                let n = progress.fetch_add(1, Ordering::Relaxed) + 1;
                if !opts.quiet {
                    eprintln!("[{n}/{}] {}", jobs.len(), describe(&result));
                }
                if let Some(j) = &journal {
                    let mut f = j.lock().expect("journal poisoned");
                    // Journal write failures must not lose the result;
                    // the in-memory copy still reaches the canonical
                    // file.
                    let _ = writeln!(f, "{}", result.render_line());
                    let _ = f.flush();
                }
                fresh.lock().expect("results poisoned").push(result);
            });
        }
    });

    let fresh = fresh.into_inner().expect("results poisoned");
    let executed = fresh.len();
    for r in fresh {
        let id = r.id;
        done[id] = Some(r);
    }
    let mut results: Vec<JobResult> = done
        .into_iter()
        .enumerate()
        .map(|(id, r)| {
            r.unwrap_or_else(|| JobResult::failed(&jobs[id], "job was never executed".into()))
        })
        .collect();
    fill_error_pct(&mut results);
    fill_cache_flags(&mut results);

    let wall_secs = started.elapsed().as_secs_f64();
    if let Some(out) = &opts.out {
        write_canonical(out, &header, &results)?;
        write_timings(out, &header, &results, workers, wall_secs)?;
        write_metrics(out, &header, &results)?;
        let _ = fs::remove_file(partial_path(out));
    }

    Ok(CampaignOutcome {
        header,
        results,
        cache: cache.snapshot(),
        executed,
        resumed,
        wall_secs,
    })
}

/// `<out>.partial.jsonl` — the append-only journal next to `out`.
pub fn partial_path(out: &Path) -> PathBuf {
    with_suffix(out, ".partial.jsonl")
}

/// `<out>.timings.jsonl` — the non-canonical wall-time sidecar.
pub fn timings_path(out: &Path) -> PathBuf {
    with_suffix(out, ".timings.jsonl")
}

/// `<out>.metrics.jsonl` — the non-canonical observability sidecar.
pub fn metrics_path(out: &Path) -> PathBuf {
    with_suffix(out, ".metrics.jsonl")
}

fn with_suffix(out: &Path, suffix: &str) -> PathBuf {
    let mut s = out.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// Reads prior results from the journal (preferred) or the canonical
/// file, keeping only lines that belong to this exact campaign: header
/// fingerprint matches, id is in range, key matches the expanded job,
/// and the job did not fail (failed jobs rerun on resume).
fn load_prior_results(out: &Path, header: &CampaignHeader, jobs: &[JobSpec]) -> Vec<JobResult> {
    let mut adopted = Vec::new();
    for path in [partial_path(out), out.to_path_buf()] {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let Ok(loaded) = parse_results(&text, true) else {
            continue;
        };
        if loaded.header.fingerprint != header.fingerprint {
            continue;
        }
        for r in loaded.results {
            let belongs = jobs.get(r.id).is_some_and(|j| j.key() == r.key);
            if belongs && r.error.is_none() {
                adopted.push(r);
            }
        }
    }
    adopted
}

/// Fills `error_pct` of every non-CPU result from the CPU reference
/// with the same (workload, cores, interconnect) in the same campaign.
/// Recomputed on every finalise (including resume), so the canonical
/// file never depends on which invocation produced a line.
fn fill_error_pct(results: &mut [JobResult]) {
    let refs: Vec<(String, usize, String, u64)> = results
        .iter()
        .filter(|r| r.master == "cpu")
        .filter_map(|r| {
            r.cycles
                .map(|c| (r.workload.clone(), r.cores, r.interconnect.clone(), c))
        })
        .collect();
    for r in results.iter_mut() {
        r.error_pct = if r.master == "cpu" {
            None
        } else {
            r.cycles.and_then(|c| {
                refs.iter()
                    .find(|(w, p, ic, _)| {
                        *w == r.workload && *p == r.cores && *ic == r.interconnect
                    })
                    .map(|&(_, _, _, cpu)| (c as f64 - cpu as f64).abs() / cpu as f64 * 100.0)
            })
        };
    }
}

/// Normalises the per-result cache flags to their *structural* meaning:
/// the lowest-id successful job consuming an artifact is its designated
/// builder (`Some(false)`); later consumers record `Some(true)`. The
/// runtime [`ArtifactCache`] counters report which jobs actually built
/// what, but that depends on worker scheduling — recomputing the flags
/// from job order at every finalise keeps the canonical file a pure
/// function of the spec. A campaign's trace interconnect is fixed, so
/// `(workload, cores)` identifies a trace and `(workload, cores, mode)`
/// a translated TG image set.
fn fill_cache_flags(results: &mut [JobResult]) {
    let mut traces_seen: Vec<(String, usize)> = Vec::new();
    let mut images_seen: Vec<(String, usize, Option<String>)> = Vec::new();
    for r in results.iter_mut() {
        // CPU jobs consume no trace; synthetic jobs consume no artifacts
        // at all (patterns are generated, not translated).
        if r.master == "cpu" || r.master == "synthetic" || r.error.is_some() {
            r.trace_cache_hit = None;
            r.image_cache_hit = None;
            continue;
        }
        let tkey = (r.workload.clone(), r.cores);
        r.trace_cache_hit = Some(traces_seen.contains(&tkey));
        if !traces_seen.contains(&tkey) {
            traces_seen.push(tkey);
        }
        r.image_cache_hit = if r.master == "tg" {
            let ikey = (r.workload.clone(), r.cores, r.mode.clone());
            let hit = images_seen.contains(&ikey);
            if !hit {
                images_seen.push(ikey);
            }
            Some(hit)
        } else {
            None
        };
    }
}

fn write_canonical(
    out: &Path,
    header: &CampaignHeader,
    results: &[JobResult],
) -> Result<(), String> {
    let mut text = String::new();
    text.push_str(&header.render());
    text.push('\n');
    for r in results {
        text.push_str(&r.render_line());
        text.push('\n');
    }
    fs::write(out, text).map_err(|e| format!("write {}: {e}", out.display()))
}

fn write_timings(
    out: &Path,
    header: &CampaignHeader,
    results: &[JobResult],
    workers: usize,
    wall_secs: f64,
) -> Result<(), String> {
    let path = timings_path(out);
    let mut text = String::new();
    text.push_str(
        &Json::Obj(vec![
            ("campaign".into(), Json::Str(header.name.clone())),
            // The worker count that actually ran, so `--threads 0`
            // (auto-detect) records what it resolved to.
            ("threads".into(), Json::Int(workers as i64)),
            ("wall_secs".into(), Json::Float(wall_secs)),
        ])
        .render(),
    );
    text.push('\n');
    for r in results.iter().filter(|r| r.wall_secs > 0.0) {
        let mut fields = vec![
            ("id".into(), Json::Int(r.id as i64)),
            ("key".into(), Json::Str(r.key.clone())),
            ("wall_secs".into(), Json::Float(r.wall_secs)),
            ("skipped_cycles".into(), Json::Int(r.skipped_cycles as i64)),
            ("ticked_cycles".into(), Json::Int(r.ticked_cycles as i64)),
            (
                "visited_component_cycles".into(),
                Json::Int(r.visited_component_cycles as i64),
            ),
            (
                "total_component_cycles".into(),
                Json::Int(r.total_component_cycles as i64),
            ),
        ];
        // Injection rates ride along for synthetic jobs so saturation
        // can be eyeballed straight from the sidecar (they are also in
        // the canonical line — deterministic, unlike everything else
        // here).
        if let (Some(o), Some(a)) = (r.offered_rate, r.accepted_rate) {
            fields.push(("offered_rate".into(), Json::Float(o)));
            fields.push(("accepted_rate".into(), Json::Float(a)));
        }
        text.push_str(&Json::Obj(fields).render());
        text.push('\n');
    }
    fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn write_metrics(out: &Path, header: &CampaignHeader, results: &[JobResult]) -> Result<(), String> {
    let path = metrics_path(out);
    let mut text = String::new();
    text.push_str(
        &Json::Obj(vec![
            ("campaign".into(), Json::Str(header.name.clone())),
            (
                "fingerprint".into(),
                Json::Str(format!("{:016x}", header.fingerprint)),
            ),
        ])
        .render(),
    );
    text.push('\n');
    for r in results {
        if let Some(m) = &r.metrics {
            text.push_str(&m.render_line(r.id, &r.key));
            text.push('\n');
        }
    }
    fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn describe(r: &JobResult) -> String {
    match (&r.error, r.cycles) {
        (Some(e), _) => format!("{} FAILED: {e}", r.key),
        (None, Some(c)) => {
            let cache = match (r.trace_cache_hit, r.image_cache_hit) {
                (Some(t), Some(i)) => format!(
                    "  [trace {}, tg {}]",
                    if t { "cached" } else { "built" },
                    if i { "cached" } else { "built" }
                ),
                (Some(t), None) => {
                    format!("  [trace {}]", if t { "cached" } else { "built" })
                }
                _ => String::new(),
            };
            format!("{}  {c} cycles{cache}", r.key)
        }
        (None, None) => format!("{}  did not complete within the cycle bound", r.key),
    }
}

/// Runs one job, consulting the artifact cache for trace and TG-image
/// reuse. Never panics for modelled outcomes (cycle-bound hits, faults,
/// failed verification) — those are recorded in the result.
fn run_job(job: &JobSpec, spec: &CampaignSpec, cache: &ArtifactCache) -> JobResult {
    match run_job_inner(job, spec, cache) {
        Ok(r) => r,
        Err(e) => JobResult::failed(job, e),
    }
}

fn run_job_inner(
    job: &JobSpec,
    spec: &CampaignSpec,
    cache: &ArtifactCache,
) -> Result<JobResult, String> {
    match job.master {
        MasterChoice::Cpu => {
            let build = |tracing| {
                job.workload
                    .build_platform(job.cores, job.interconnect, tracing)
                    .map_err(|e| format!("build: {e}"))
            };
            // The point's traced reference run (module docs). An error
            // out of the slot belongs to the artifact, not to this job:
            // the run's faults and cycle bound are results, recorded
            // below, and every consumer retries the build and reports it.
            let mut first = None;
            if spec.produces_trace(job) {
                let _ = cache.traces(&trace_key(job, spec), || {
                    let mut p = build(true)?;
                    let run = run_once(job, &mut p);
                    let artifact = artifact_from_run(job, &p, &run.0);
                    first = Some(run);
                    artifact
                });
            }
            let (report, verified) = run_repeats(job, first, |_| build(false))?;
            Ok(finish(job, report, verified, None, None))
        }
        MasterChoice::Tg => {
            let mode = job.mode.ok_or("TG job without a translation mode")?;
            let (artifact, trace_hit) = trace_artifact(job, spec, cache)?;
            let translator_cfg = TranslatorConfig {
                pollable: artifact.pollable.clone(),
                mode,
                loop_forever: false,
                poll_idle: 0,
            };
            let image_key = (
                job.workload,
                job.cores,
                spec.trace_interconnect,
                translator_cfg.cache_key(),
            );
            let (images, image_hit) = cache.images(&image_key, || {
                let translator = TraceTranslator::new(translator_cfg.clone());
                artifact
                    .traces
                    .iter()
                    .map(|t| {
                        let program = translator
                            .translate(t)
                            .map_err(|e| format!("translate: {e:?}"))?;
                        assemble(&program).map_err(|e| format!("assemble: {e:?}"))
                    })
                    .collect()
            })?;
            let (report, verified) = run_repeats(job, None, |_| {
                job.workload
                    .build_tg_platform(images.as_ref().clone(), job.interconnect, false)
                    .map_err(|e| format!("build: {e}"))
            })?;
            Ok(finish(
                job,
                report,
                verified,
                Some(trace_hit),
                Some(image_hit),
            ))
        }
        MasterChoice::Stochastic => {
            let (artifact, trace_hit) = trace_artifact(job, spec, cache)?;
            let (report, _) = run_repeats(job, None, |_| {
                let mut b = PlatformBuilder::new();
                b.interconnect(job.interconnect);
                for (core, cfg) in artifact.calibration.iter().enumerate() {
                    let mut cfg = cfg.clone();
                    cfg.seed = derive_seed(job.seed, core as u64);
                    b.add_stochastic(cfg);
                }
                job.workload.preload(&mut b, job.cores);
                b.build().map_err(|e| format!("build: {e}"))
            })?;
            // Stochastic traffic carries no program semantics; there is
            // no memory image to check.
            Ok(finish(job, report, None, Some(trace_hit), None))
        }
        MasterChoice::Synthetic => {
            let synth = job
                .synth
                .ok_or("synthetic job without a traffic descriptor")?;
            let Workload::Synthetic { packets } = job.workload else {
                return Err("synthetic masters pair only with the synthetic workload".into());
            };
            let (report, _) = run_repeats(job, None, |_| {
                build_synthetic_platform(
                    job.cores,
                    job.interconnect,
                    synth,
                    u64::from(packets.max(1)),
                    job.seed,
                )
                .map_err(|e| format!("build: {e}"))
            })?;
            // No trace, no image, no golden model: synthetic jobs consume
            // no cached artifacts, so both provenance flags stay None.
            Ok(finish(job, report, None, None, None))
        }
    }
}

/// The trace level's key for this job's (workload, cores) on the
/// campaign's trace interconnect.
fn trace_key(job: &JobSpec, spec: &CampaignSpec) -> TraceKey {
    (job.workload, job.cores, spec.trace_interconnect)
}

/// Gets the traced-reference artifact for this job's point, running the
/// reference itself when no producer has published it.
fn trace_artifact(
    job: &JobSpec,
    spec: &CampaignSpec,
    cache: &ArtifactCache,
) -> Result<(std::sync::Arc<TraceArtifact>, bool), String> {
    cache.traces(&trace_key(job, spec), || {
        let mut p = job
            .workload
            .build_platform(job.cores, spec.trace_interconnect, true)
            .map_err(|e| format!("trace build: {e}"))?;
        let report = p.run(job.max_cycles);
        artifact_from_run(job, &p, &report)
    })
}

/// The artifact of a finished traced reference run, after the checks
/// every collector shares: no fault, inside the cycle bound, halted,
/// one trace per core.
fn artifact_from_run(
    job: &JobSpec,
    p: &Platform,
    report: &RunReport,
) -> Result<TraceArtifact, String> {
    if !report.faults.is_empty() {
        return Err(format!("trace run faulted: {:?}", report.faults));
    }
    if !report.completed {
        return Err(format!("trace run hit the {}-cycle bound", job.max_cycles));
    }
    let ref_cycles = report.execution_time().ok_or("trace run never halted")?;
    let traces = p.traces();
    if traces.len() != job.cores {
        return Err("tracing was not recorded for every core".into());
    }
    let pollable = p.map().pollable_ranges();
    let ranges: Vec<(u32, u32)> = p.map().iter().map(|r| (r.base, r.size)).collect();
    let calibration = TraceArtifact::calibrate(&traces, p.clock().period_ns(), &ranges)?;
    Ok(TraceArtifact {
        traces,
        pollable,
        calibration,
        ref_cycles,
    })
}

/// One run of a built platform with metrics on, and the golden-model
/// verdict when it completed without a fault.
fn run_once(job: &JobSpec, p: &mut Platform) -> (RunReport, Option<bool>) {
    p.enable_metrics();
    let report = p.run(job.max_cycles);
    let verified = (report.completed && report.faults.is_empty())
        .then(|| job.workload.verify(p, job.cores).is_ok());
    (report, verified)
}

/// Runs the job's platform `repeats` times (cycle counts are
/// deterministic across repeats; wall time takes the minimum), keeping
/// the golden-model verdict of the first. `first`, when given, is that
/// first repeat, already run by the trace producer.
fn run_repeats(
    job: &JobSpec,
    mut first: Option<(RunReport, Option<bool>)>,
    mut build: impl FnMut(usize) -> Result<Platform, String>,
) -> Result<(RunReport, Option<bool>), String> {
    let mut verified = None;
    let mut best_wall = f64::INFINITY;
    let mut last = None;
    for i in 0..job.repeats.max(1) {
        let (report, verdict) = match first.take() {
            Some(run) => run,
            None => run_once(job, &mut build(i)?),
        };
        if i == 0 {
            verified = verdict;
        }
        best_wall = best_wall.min(report.wall_time.as_secs_f64());
        last = Some(report);
    }
    let mut report = last.expect("at least one repeat");
    report.wall_time = std::time::Duration::from_secs_f64(best_wall);
    Ok((report, verified))
}

fn finish(
    job: &JobSpec,
    report: RunReport,
    verified: Option<bool>,
    trace_hit: Option<bool>,
    image_hit: Option<bool>,
) -> JobResult {
    let error = if report.faults.is_empty() {
        None
    } else {
        Some(format!("faults: {}", report.faults.join("; ")))
    };
    let metrics = report.metrics.as_ref().map(|m| {
        let mut idle = Vec::with_capacity(report.masters.len());
        let mut wait = Vec::with_capacity(report.masters.len());
        for master in &report.masters {
            match master {
                MasterReport::Tg(s) => {
                    idle.push(s.idle_cycles);
                    wait.push(s.wait_cycles);
                }
                MasterReport::Synthetic {
                    idle_cycles,
                    wait_cycles,
                    ..
                } => {
                    idle.push(*idle_cycles);
                    wait.push(*wait_cycles);
                }
                _ => {
                    idle.push(0);
                    wait.push(0);
                }
            }
        }
        JobMetrics {
            fabric_utilization_cycles: m.fabric_utilization_cycles,
            conflicts: m.conflicts,
            grant_wait_count: m.grant_wait_count,
            grant_wait_sum: m.grant_wait_sum,
            grant_wait_max: m.grant_wait_max,
            link_grants: m.links.iter().map(|l| l.grants).collect(),
            link_stall_cycles: m.links.iter().map(|l| l.stall_cycles).collect(),
            link_busy_cycles: m.links.iter().map(|l| l.busy_cycles).collect(),
            master_idle_cycles: idle,
            master_wait_cycles: wait,
            sem_acquisitions: m.sem_acquisitions,
            sem_failed_polls: m.sem_failed_polls,
            sem_releases: m.sem_releases,
            busy_window_cycles: m.busy_window_cycles,
            busy_windows: m.busy_windows.clone(),
        }
    });
    let rates = report.synthetic_rates();
    JobResult {
        id: job.id,
        key: job.key(),
        workload: job.workload.to_string(),
        cores: job.cores,
        interconnect: job.interconnect.to_string(),
        master: job.master.to_string(),
        mode: (job.mode.is_some() || job.synth.is_some()).then(|| job.mode_label()),
        seed: job.seed,
        completed: report.completed,
        cycles: if report.completed {
            report.execution_time()
        } else {
            None
        },
        sim_cycles: report.cycles,
        transactions: report.transactions,
        latency_mean: report.latency.map(|(mean, _)| mean),
        latency_max: report.latency.map(|(_, max)| max),
        offered_rate: rates.map(|(o, _)| o),
        accepted_rate: rates.map(|(_, a)| a),
        verified,
        error_pct: None,
        trace_cache_hit: trace_hit,
        image_cache_hit: image_hit,
        error,
        wall_secs: report.wall_time.as_secs_f64(),
        skipped_cycles: report.skipped_cycles,
        ticked_cycles: report.ticked_cycles,
        visited_component_cycles: report.visited_component_cycles,
        total_component_cycles: report.total_component_cycles,
        metrics,
    }
}
