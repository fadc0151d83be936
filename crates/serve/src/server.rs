//! The campaign job server: accepts `CampaignSpec`s over HTTP, runs
//! them as sharded campaigns on a work-stealing worker pool, and
//! serves artifacts, progress events, canonical results and report
//! renderings.
//!
//! ## Identity and idempotence
//!
//! A job's id is its campaign fingerprint (16 hex digits) — the same
//! value `run_campaign` stamps into result headers. Submitting the
//! same spec twice therefore lands on the same job: a finished job
//! answers immediately, a running one is joined, and a job whose
//! daemon died mid-campaign resumes from its shard journals on
//! resubmission (the shard runners always set `resume: true`).
//!
//! ## Execution
//!
//! Each campaign is split into `min(workers, jobs)` round-robin shards
//! (the existing `RunOptions::shard` machinery); a pool of worker
//! threads pulls shard indices from a shared counter — work stealing
//! in its simplest deterministic form: whichever worker frees up takes
//! the next undone shard. Shard outputs land in the job's directory
//! and `merge_shards` reassembles the canonical JSONL, byte-identical
//! to a single-process `run_campaign` of the same spec. Timing and
//! metrics sidecars are concatenated per shard (they join by job id,
//! so order is irrelevant) and feed the report endpoints.
//!
//! ## Progress
//!
//! Progress is a monotonically growing list of NDJSON events per job.
//! `GET /jobs/<id>/events?from=N` returns the events from index `N`
//! on — polling replaces streaming because the HTTP layer is
//! Content-Length framed by design (no chunked encoding).

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use ntg_explore::{
    merge_shards, metrics_path, run_campaign, shard_path, timings_path, CampaignSpec, Json,
    RemoteTier, RunOptions,
};

use crate::http::{Request, Response};
use crate::remote::BlobStore;

/// Job lifecycle states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, not yet picked up by the runner.
    Queued,
    /// Shards executing.
    Running,
    /// Canonical results merged and served.
    Done,
    /// The campaign could not complete (infrastructure failure; the
    /// message says why). Resubmission retries from the journals.
    Failed(String),
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// One accepted campaign.
pub struct Job {
    /// Fingerprint hex — the job id and directory name.
    pub id: String,
    spec: CampaignSpec,
    jobs: usize,
    dir: PathBuf,
    state: Mutex<JobState>,
    events: Mutex<Vec<String>>,
}

impl Job {
    fn push_event(&self, fields: Vec<(String, Json)>) {
        let mut obj = vec![("job".to_string(), Json::Str(self.id.clone()))];
        obj.extend(fields);
        self.events.lock().unwrap().push(Json::Obj(obj).render());
    }

    fn set_state(&self, s: JobState) {
        *self.state.lock().unwrap() = s;
    }

    fn status_json(&self) -> Json {
        let state = self.state.lock().unwrap().clone();
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("name".to_string(), Json::Str(self.spec.name.clone())),
            ("state".to_string(), Json::Str(state.label().to_string())),
            ("jobs".to_string(), Json::Int(self.jobs as i64)),
            (
                "events".to_string(),
                Json::Int(self.events.lock().unwrap().len() as i64),
            ),
        ];
        if let JobState::Failed(msg) = &state {
            fields.push(("error".to_string(), Json::Str(msg.clone())));
        }
        Json::Obj(fields)
    }

    fn canonical_path(&self) -> PathBuf {
        self.dir.join("out.jsonl")
    }
}

/// Configuration of a [`JobServer`].
pub struct ServerConfig {
    /// Data root: `<data>/blobs` holds the artifact objects,
    /// `<data>/jobs/<id>/` each campaign's files, `<data>/cache` the
    /// workers' local disk store (unless overridden).
    pub data: PathBuf,
    /// Worker threads per campaign (also the shard count cap).
    pub workers: usize,
    /// Workers' local artifact store base; defaults to `<data>/cache`.
    pub store: Option<PathBuf>,
    /// Upstream remote tier for the workers (another daemon's blob
    /// store) — `None` makes this daemon's own blob store the root of
    /// the hierarchy.
    pub remote: Option<Arc<dyn RemoteTier>>,
    /// Suppress per-event stderr lines.
    pub quiet: bool,
}

/// The HTTP-facing campaign service.
pub struct JobServer {
    blobs: BlobStore,
    config: ServerConfig,
    jobs: Mutex<HashMap<String, Arc<Job>>>,
}

impl JobServer {
    /// Opens the server state under `config.data`.
    ///
    /// # Errors
    ///
    /// Returns a message if the data directories cannot be created.
    pub fn open(config: ServerConfig) -> Result<Arc<Self>, String> {
        let blobs = BlobStore::open(config.data.join("blobs"))?;
        fs::create_dir_all(config.data.join("jobs"))
            .map_err(|e| format!("create jobs dir: {e}"))?;
        Ok(Arc::new(Self {
            blobs,
            config,
            jobs: Mutex::new(HashMap::new()),
        }))
    }

    /// The blob store this daemon serves under `/store/`.
    pub fn blobs(&self) -> &BlobStore {
        &self.blobs
    }

    /// Routes one request. Never panics on malformed input — every
    /// parse failure maps to a 4xx.
    pub fn handle(self: &Arc<Self>, req: &Request) -> Response {
        let segments = req.segments();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["health"]) => Response::ok_text("ok\n"),
            ("GET", ["store", "stats"]) => self.store_stats(),
            ("GET", ["store", dir, name]) => self.store_get(dir, name),
            ("PUT", ["store", dir, name]) => self.store_put(dir, name, &req.body),
            ("POST", ["jobs"]) => self.submit(&req.body),
            ("GET", ["jobs"]) => self.list_jobs(),
            ("GET", ["jobs", id]) => self.job_status(id),
            ("GET", ["jobs", id, "events"]) => {
                let from = req
                    .query_param("from")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                self.job_events(id, from)
            }
            ("GET", ["jobs", id, "results"]) => {
                self.job_file(id, Path::to_path_buf, "canonical results")
            }
            ("GET", ["jobs", id, "timings"]) => self.job_file(id, timings_path, "timings sidecar"),
            ("GET", ["jobs", id, "metrics"]) => self.job_file(id, metrics_path, "metrics sidecar"),
            ("GET", ["jobs", id, "report", view]) => self.job_report(id, view),
            (method, _) if !matches!(method, "GET" | "PUT" | "POST") => {
                Response::error(405, format!("method {method} not allowed"))
            }
            _ => Response::not_found(format!("no route for {} {}", req.method, req.path)),
        }
    }

    fn store_stats(&self) -> Response {
        let (traces, trace_bytes, images, image_bytes) = self.blobs.stats();
        Response::json(
            200,
            Json::Obj(vec![
                ("trace_objects".into(), Json::Int(traces as i64)),
                ("trace_bytes".into(), Json::Int(trace_bytes as i64)),
                ("image_objects".into(), Json::Int(images as i64)),
                ("image_bytes".into(), Json::Int(image_bytes as i64)),
            ])
            .render(),
        )
    }

    fn store_get(&self, dir: &str, name: &str) -> Response {
        let Some(kind) = ntg_explore::StoreKind::from_dir(dir) else {
            return Response::not_found(format!("unknown store section `{dir}`"));
        };
        match self.blobs.get(kind, name) {
            Some(bytes) => Response::ok_bytes("application/octet-stream", bytes),
            None => Response::not_found(format!("no object {dir}/{name}")),
        }
    }

    fn store_put(&self, dir: &str, name: &str, body: &[u8]) -> Response {
        let Some(kind) = ntg_explore::StoreKind::from_dir(dir) else {
            return Response::not_found(format!("unknown store section `{dir}`"));
        };
        match self.blobs.put(kind, name, body) {
            Ok(true) => Response::error(201, "created"),
            Ok(false) => Response::ok_text("exists\n"),
            Err(e) => Response::error(400, e),
        }
    }

    fn submit(self: &Arc<Self>, body: &[u8]) -> Response {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return Response::error(400, "spec body is not UTF-8"),
        };
        let parsed = match Json::parse(text).and_then(|v| CampaignSpec::from_json(&v)) {
            Ok(s) => s,
            Err(e) => return Response::error(400, e),
        };
        let id = format!("{:016x}", parsed.fingerprint());
        let job = {
            let mut jobs = self.jobs.lock().unwrap();
            if let Some(existing) = jobs.get(&id) {
                return Response::json(200, existing.status_json().render());
            }
            let dir = self.config.data.join("jobs").join(&id);
            if let Err(e) = fs::create_dir_all(&dir) {
                return Response::error(500, format!("create {}: {e}", dir.display()));
            }
            // Record the spec next to its outputs: jobs stay
            // reproducible and debuggable after the daemon is gone.
            let _ = fs::write(dir.join("spec.json"), parsed.to_json().render());
            let expanded = parsed.expand().len();
            let job = Arc::new(Job {
                id: id.clone(),
                spec: parsed,
                jobs: expanded,
                dir,
                state: Mutex::new(JobState::Queued),
                events: Mutex::new(Vec::new()),
            });
            jobs.insert(id.clone(), job.clone());
            job
        };
        // A finished canonical file from a previous daemon life means
        // the job is already done — adopt it instead of re-running.
        if canonical_is_complete(&job) {
            job.set_state(JobState::Done);
            job.push_event(vec![
                ("event".into(), Json::Str("adopted".into())),
                ("jobs".into(), Json::Int(job.jobs as i64)),
            ]);
            job.push_event(vec![("event".into(), Json::Str("done".into()))]);
            return Response::json(200, job.status_json().render());
        }
        job.push_event(vec![
            ("event".into(), Json::Str("queued".into())),
            ("name".into(), Json::Str(job.spec.name.clone())),
            ("jobs".into(), Json::Int(job.jobs as i64)),
        ]);
        let server = self.clone();
        let runner_job = job.clone();
        std::thread::spawn(move || server.run_job(&runner_job));
        Response::json(202, job.status_json().render())
    }

    fn list_jobs(&self) -> Response {
        let jobs = self.jobs.lock().unwrap();
        let mut ids: Vec<&String> = jobs.keys().collect();
        ids.sort();
        let arr = ids
            .into_iter()
            .map(|id| jobs[id].status_json())
            .collect::<Vec<_>>();
        Response::json(
            200,
            Json::Obj(vec![("jobs".into(), Json::Arr(arr))]).render(),
        )
    }

    fn find_job(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs.lock().unwrap().get(id).cloned()
    }

    fn job_status(&self, id: &str) -> Response {
        match self.find_job(id) {
            Some(job) => Response::json(200, job.status_json().render()),
            None => Response::not_found(format!("no job {id}")),
        }
    }

    fn job_events(&self, id: &str, from: usize) -> Response {
        let Some(job) = self.find_job(id) else {
            return Response::not_found(format!("no job {id}"));
        };
        let events = job.events.lock().unwrap();
        let mut body = String::new();
        for line in events.iter().skip(from) {
            body.push_str(line);
            body.push('\n');
        }
        Response::ok_bytes("application/x-ndjson", body.into_bytes())
    }

    /// Serves a job file derived from the canonical path (`derive` is
    /// the identity for the results themselves, or one of the
    /// `*_path` sidecar helpers).
    fn job_file(&self, id: &str, derive: fn(&Path) -> PathBuf, what: &str) -> Response {
        let Some(job) = self.find_job(id) else {
            return Response::not_found(format!("no job {id}"));
        };
        if *job.state.lock().unwrap() != JobState::Done {
            return Response::error(409, format!("job {id} is not done"));
        }
        match fs::read(derive(&job.canonical_path())) {
            Ok(bytes) => Response::ok_bytes("application/x-ndjson", bytes),
            Err(_) => Response::not_found(format!("job {id} has no {what}")),
        }
    }

    fn job_report(&self, id: &str, view: &str) -> Response {
        let Some(job) = self.find_job(id) else {
            return Response::not_found(format!("no job {id}"));
        };
        if *job.state.lock().unwrap() != JobState::Done {
            return Response::error(409, format!("job {id} is not done"));
        }
        let canonical = match fs::read_to_string(job.canonical_path()) {
            Ok(t) => t,
            Err(e) => return Response::error(500, format!("read results: {e}")),
        };
        let timings = fs::read_to_string(timings_path(&job.canonical_path())).ok();
        let metrics = fs::read_to_string(metrics_path(&job.canonical_path())).ok();
        match ntg_report::render_view(view, &canonical, timings.as_deref(), metrics.as_deref()) {
            Ok(text) => {
                let ct = if view == "markdown" {
                    "text/markdown; charset=utf-8"
                } else {
                    "text/csv; charset=utf-8"
                };
                Response::ok_bytes(ct, text.into_bytes())
            }
            Err(e) => Response::error(400, e),
        }
    }

    /// Runs one campaign: shard fan-out on the worker pool, then merge.
    fn run_job(self: &Arc<Self>, job: &Arc<Job>) {
        job.set_state(JobState::Running);
        let shards = self.config.workers.clamp(1, job.jobs.max(1));
        job.push_event(vec![
            ("event".into(), Json::Str("started".into())),
            ("shards".into(), Json::Int(shards as i64)),
        ]);
        if !self.config.quiet {
            eprintln!(
                "[job {}] started: {} jobs over {} shard(s)",
                job.id, job.jobs, shards
            );
        }
        let out = job.canonical_path();
        let store_base = self
            .config
            .store
            .clone()
            .unwrap_or_else(|| self.config.data.join("cache"));
        let next = AtomicUsize::new(0);
        let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let totals: Mutex<(u64, u64)> = Mutex::new((0, 0)); // (traces built, images built)
        std::thread::scope(|scope| {
            for _ in 0..shards {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= shards {
                        break;
                    }
                    let shard = (i + 1, shards);
                    job.push_event(vec![
                        ("event".into(), Json::Str("shard_started".into())),
                        ("shard".into(), Json::Int(shard.0 as i64)),
                        ("of".into(), Json::Int(shards as i64)),
                    ]);
                    let opts = RunOptions {
                        threads: 1,
                        out: Some(shard_path(&out, shard)),
                        resume: true,
                        quiet: true,
                        store: Some(store_base.clone()),
                        shard: Some(shard),
                        remote: self.config.remote.clone(),
                    };
                    match run_campaign(&job.spec, &opts) {
                        Ok(outcome) => {
                            {
                                let mut t = totals.lock().unwrap();
                                t.0 += outcome.cache.trace_misses;
                                t.1 += outcome.cache.image_misses;
                            }
                            job.push_event(vec![
                                ("event".into(), Json::Str("shard_done".into())),
                                ("shard".into(), Json::Int(shard.0 as i64)),
                                ("executed".into(), Json::Int(outcome.executed as i64)),
                                ("resumed".into(), Json::Int(outcome.resumed as i64)),
                                ("wall_secs".into(), Json::Float(outcome.wall_secs)),
                                ("cache".into(), Json::Str(outcome.cache.summary_line())),
                            ]);
                        }
                        Err(e) => {
                            errors.lock().unwrap().push(format!("shard {i}: {e}"));
                            job.push_event(vec![
                                ("event".into(), Json::Str("shard_failed".into())),
                                ("shard".into(), Json::Int(shard.0 as i64)),
                                ("error".into(), Json::Str(e)),
                            ]);
                        }
                    }
                });
            }
        });
        let errors = errors.into_inner().unwrap();
        if !errors.is_empty() {
            let msg = errors.join("; ");
            job.push_event(vec![
                ("event".into(), Json::Str("error".into())),
                ("message".into(), Json::Str(msg.clone())),
            ]);
            job.set_state(JobState::Failed(msg));
            return;
        }
        let (traces_built, images_built) = *totals.lock().unwrap();
        job.push_event(vec![
            ("event".into(), Json::Str("cache".into())),
            ("traces_built".into(), Json::Int(traces_built as i64)),
            ("images_built".into(), Json::Int(images_built as i64)),
        ]);
        let shard_files: Vec<PathBuf> = (1..=shards)
            .map(|i| shard_path(&out, (i, shards)))
            .collect();
        match merge_shards(&shard_files, &out) {
            Ok(summary) => {
                merge_sidecars(&shard_files, &out);
                job.push_event(vec![
                    ("event".into(), Json::Str("merged".into())),
                    ("jobs".into(), Json::Int(summary.jobs as i64)),
                ]);
                job.push_event(vec![("event".into(), Json::Str("done".into()))]);
                job.set_state(JobState::Done);
                if !self.config.quiet {
                    eprintln!("[job {}] done: {} jobs merged", job.id, summary.jobs);
                }
            }
            Err(e) => {
                job.push_event(vec![
                    ("event".into(), Json::Str("error".into())),
                    ("message".into(), Json::Str(e.clone())),
                ]);
                job.set_state(JobState::Failed(e));
            }
        }
    }
}

/// Whether the job's canonical file exists and carries the job's own
/// fingerprint with a full result set — the adopt-on-resubmit check.
fn canonical_is_complete(job: &Job) -> bool {
    let Ok(text) = fs::read_to_string(job.canonical_path()) else {
        return false;
    };
    match ntg_explore::parse_results(&text, false) {
        Ok(loaded) => {
            format!("{:016x}", loaded.header.fingerprint) == job.id
                && loaded.results.len() == loaded.header.jobs
        }
        Err(_) => false,
    }
}

/// Concatenates the shards' timing and metrics sidecars next to the
/// merged canonical file: one header line (they all carry the same
/// campaign header), then every shard's data lines. Consumers join by
/// job id, so line order across shards is irrelevant. Best-effort — a
/// missing sidecar (metrics are opt-in) is skipped silently.
fn merge_sidecars(shard_files: &[PathBuf], out: &Path) {
    for derive in [timings_path, metrics_path] {
        let mut merged = String::new();
        for shard in shard_files {
            let Ok(text) = fs::read_to_string(derive(shard)) else {
                continue;
            };
            for (i, line) in text.lines().enumerate() {
                if i == 0 && !merged.is_empty() {
                    continue; // header already present
                }
                merged.push_str(line);
                merged.push('\n');
            }
        }
        if !merged.is_empty() {
            let _ = fs::write(derive(out), merged);
        }
    }
}
