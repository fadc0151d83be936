//! The campaign job server: accepts `CampaignSpec`s over HTTP, runs
//! each as one campaign on a pool of worker threads, and serves
//! artifacts, progress events, canonical results and report renderings.
//!
//! ## Identity and idempotence
//!
//! A job's id is its campaign fingerprint (16 hex digits) — the same
//! value `run_campaign` stamps into result headers. Submitting the
//! same spec twice therefore lands on the same job: a finished job
//! answers immediately, a running one is joined, and a job whose
//! daemon died mid-campaign resumes from its campaign journal
//! (`out.jsonl.partial.jsonl`) on resubmission (the runner always sets
//! `resume: true`).
//!
//! ## Execution
//!
//! A campaign runs exactly as `ntg-sweep --threads <workers>` runs it:
//! one `run_campaign` call with one shared artifact cache, writing the
//! canonical JSONL and both sidecars into the job's directory. Its
//! workers take jobs from one queue in the engine's dispatch order, so
//! a worker is idle only when no job is left. Sharding
//! (`ntg-sweep --shard` + `merge`) stays a CLI feature for spreading a
//! campaign over processes; the daemon never shards.
//!
//! ## Progress
//!
//! Progress is a monotonically growing list of NDJSON events per job,
//! read by long-polling `GET /jobs/<id>/events?from=N` (the HTTP layer
//! is Content-Length framed by design, so there is no chunked stream to
//! hold open). The contract:
//!
//! * the answer is always `200` with the events from index `N` on, one
//!   per line — or `404` for an unknown id;
//! * it is immediate when event `N` already exists or the job is
//!   terminal (`done` / `failed`: nothing more will be appended);
//! * otherwise the request parks on the job's condition variable until
//!   the next event is pushed or `EVENTS_WAIT` has passed, then answers
//!   with what there is — possibly nothing. `EVENTS_WAIT` sits below
//!   the client's socket timeout, so a quiet job reads as an empty
//!   `200`, never as a timed-out request;
//! * the last event of a job is `done` or `error`, and the job's state
//!   is terminal *before* that event is visible: a client that sees
//!   `done` can fetch `results` at once.
//!
//! A watcher therefore loops `from += lines received` until it reads
//! the terminal event: about one request per event, no sleep on either
//! side.
//!
//! A campaign that runs pushes `queued`, `started` (with `workers`),
//! `cache` (jobs `executed` and `resumed`, `traces_built`,
//! `images_built`), then `done`; an infrastructure failure ends it with
//! `error` instead. A resubmitted job whose canonical file is already
//! complete pushes `adopted`, then `done`.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ntg_explore::{
    metrics_path, run_campaign, timings_path, CampaignSpec, Json, RemoteTier, RunOptions,
};

use crate::http::{Request, Response, IO_TIMEOUT};
use crate::remote::BlobStore;

/// Longest an events long-poll parks before answering with what there
/// is. Below [`IO_TIMEOUT`] with room to write the answer, so the
/// client's read timeout never fires first.
const EVENTS_WAIT: Duration = Duration::from_secs(20);
const _: () = assert!(EVENTS_WAIT.as_secs() + 5 <= IO_TIMEOUT.as_secs());

/// Job lifecycle states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, not yet picked up by the runner.
    Queued,
    /// The campaign executing.
    Running,
    /// Canonical results written and served.
    Done,
    /// The campaign could not complete (infrastructure failure; the
    /// message says why). Resubmission retries from the journal.
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

    fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed(_))
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
    /// Notified on every push to `events`; long-polls park on it.
    pushed: Condvar,
}

impl Job {
    fn push_event(&self, fields: Vec<(String, Json)>) {
        let mut obj = vec![("job".to_string(), Json::Str(self.id.clone()))];
        obj.extend(fields);
        self.events.lock().unwrap().push(Json::Obj(obj).render());
        self.pushed.notify_all();
    }

    fn set_state(&self, s: JobState) {
        *self.state.lock().unwrap() = s;
    }

    /// Ends the job: the state turns terminal first, then the terminal
    /// event (`done`, or `error` with the message) becomes visible. In
    /// that order a client that reacts to the event finds the results
    /// served, and a long-poll that finds the state terminal is always
    /// followed by the push that wakes it.
    fn finish(&self, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => {
                self.set_state(JobState::Done);
                self.push_event(vec![("event".into(), Json::Str("done".into()))]);
            }
            Err(msg) => {
                self.set_state(JobState::Failed(msg.clone()));
                self.push_event(vec![
                    ("event".into(), Json::Str("error".into())),
                    ("message".into(), Json::Str(msg)),
                ]);
            }
        }
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
    /// Worker threads per campaign.
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
                self.job_events(id, from, EVENTS_WAIT)
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
                pushed: Condvar::new(),
            });
            jobs.insert(id.clone(), job.clone());
            job
        };
        // A finished canonical file from a previous daemon life means
        // the job is already done — adopt it instead of re-running.
        if canonical_is_complete(&job) {
            job.push_event(vec![
                ("event".into(), Json::Str("adopted".into())),
                ("jobs".into(), Json::Int(job.jobs as i64)),
            ]);
            job.finish(Ok(()));
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

    /// The events from index `from` on, waiting up to `wait` for the
    /// first of them (module docs, "Progress"). The predicate runs
    /// under the events lock and every terminal state is followed by a
    /// push ([`Job::finish`]), so no wake-up can be missed.
    fn job_events(&self, id: &str, from: usize, wait: Duration) -> Response {
        let Some(job) = self.find_job(id) else {
            return Response::not_found(format!("no job {id}"));
        };
        let (events, _timed_out) = job
            .pushed
            .wait_timeout_while(job.events.lock().unwrap(), wait, |events| {
                events.len() <= from && !job.state.lock().unwrap().is_terminal()
            })
            .unwrap();
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

    /// Runs one campaign: one `run_campaign` on `workers` threads,
    /// resuming from whatever journal an earlier daemon life left.
    fn run_job(self: &Arc<Self>, job: &Arc<Job>) {
        job.set_state(JobState::Running);
        let workers = self.config.workers.max(1);
        job.push_event(vec![
            ("event".into(), Json::Str("started".into())),
            ("workers".into(), Json::Int(workers as i64)),
        ]);
        if !self.config.quiet {
            eprintln!(
                "[job {}] started: {} jobs on {workers} worker(s)",
                job.id, job.jobs
            );
        }
        let opts = RunOptions {
            threads: workers,
            out: Some(job.canonical_path()),
            resume: true,
            store: Some(
                self.config
                    .store
                    .clone()
                    .unwrap_or_else(|| self.config.data.join("cache")),
            ),
            remote: self.config.remote.clone(),
            ..RunOptions::default()
        };
        match run_campaign(&job.spec, &opts) {
            Ok(outcome) => {
                let count = |n: u64| Json::Int(n as i64);
                job.push_event(vec![
                    ("event".into(), Json::Str("cache".into())),
                    ("executed".into(), count(outcome.executed as u64)),
                    ("resumed".into(), count(outcome.resumed as u64)),
                    ("traces_built".into(), count(outcome.cache.trace_misses)),
                    ("images_built".into(), count(outcome.cache.image_misses)),
                ]);
                job.finish(Ok(()));
                if !self.config.quiet {
                    eprintln!("[job {}] done: {} jobs", job.id, outcome.results.len());
                }
            }
            Err(e) => job.finish(Err(e)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    /// A server over a scratch data dir holding one hand-made running
    /// job that no runner touches: the test pushes its events.
    fn server_with_job(tag: &str) -> (Arc<JobServer>, Arc<Job>) {
        let data =
            std::env::temp_dir().join(format!("ntg-serve-events-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&data);
        let server = JobServer::open(ServerConfig {
            data: data.clone(),
            workers: 1,
            store: None,
            remote: None,
            quiet: true,
        })
        .unwrap();
        let job = Arc::new(Job {
            id: "feedfacefeedface".into(),
            spec: CampaignSpec::new("events"),
            jobs: 0,
            dir: data,
            state: Mutex::new(JobState::Running),
            events: Mutex::new(Vec::new()),
            pushed: Condvar::new(),
        });
        server
            .jobs
            .lock()
            .unwrap()
            .insert(job.id.clone(), job.clone());
        (server, job)
    }

    fn event(name: &str) -> Vec<(String, Json)> {
        vec![("event".into(), Json::Str(name.into()))]
    }

    fn lines(resp: &Response) -> Vec<String> {
        assert_eq!(resp.status, 200);
        String::from_utf8(resp.body.clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// A whole minute: a test that returns at all did not wait it out.
    const FOREVER: Duration = Duration::from_secs(60);

    #[test]
    fn a_parked_long_poll_is_released_by_the_next_push() {
        let (server, job) = server_with_job("release");
        job.push_event(event("queued"));
        let (tx, rx) = mpsc::channel();
        let waiter = {
            let (server, id) = (server.clone(), job.id.clone());
            std::thread::spawn(move || {
                tx.send(None).unwrap(); // about to park at from = len
                let resp = server.job_events(&id, 1, FOREVER);
                tx.send(Some((Instant::now(), resp))).unwrap();
            })
        };
        assert!(rx.recv().unwrap().is_none());
        // Nothing to answer with yet: the waiter must still be inside.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        let pushed_at = Instant::now();
        job.push_event(event("started"));
        let (returned_at, resp) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the push releases the waiter")
            .unwrap();
        waiter.join().unwrap();
        let late = returned_at.saturating_duration_since(pushed_at);
        assert!(late < Duration::from_millis(50), "released {late:?} late");
        let got = lines(&resp);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains(r#""event":"started""#), "{got:?}");
    }

    #[test]
    fn the_deadline_answers_an_empty_200() {
        let (server, job) = server_with_job("deadline");
        job.push_event(event("queued"));
        let wait = Duration::from_millis(30);
        let t = Instant::now();
        let resp = server.job_events(&job.id, 1, wait);
        assert!(t.elapsed() >= wait, "answered before the deadline");
        assert_eq!((resp.status, resp.body.len()), (200, 0));
        // Still there for the next round.
        assert_eq!(lines(&server.job_events(&job.id, 0, wait)).len(), 1);
    }

    #[test]
    fn existing_events_terminal_jobs_and_unknown_ids_answer_at_once() {
        let (server, job) = server_with_job("immediate");
        job.push_event(event("queued"));
        job.push_event(event("started"));
        // Event `from` exists: everything from there on, no wait.
        assert_eq!(lines(&server.job_events(&job.id, 1, FOREVER)).len(), 1);
        assert_eq!(server.job_events("no-such-job", 0, FOREVER).status, 404);
        // A terminal job has nothing more to wait for, at or past its end.
        job.finish(Err("boom".into()));
        let all = lines(&server.job_events(&job.id, 0, FOREVER));
        assert_eq!(all.len(), 3);
        assert!(all[2].contains(r#""event":"error""#) && all[2].contains("boom"));
        for from in [3, 4, 1000] {
            assert!(lines(&server.job_events(&job.id, from, FOREVER)).is_empty());
        }
    }
}
