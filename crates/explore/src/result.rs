//! Campaign results and the JSONL sink.
//!
//! A campaign writes three files:
//!
//! * **`<out>`** — the canonical result file: one header line, then one
//!   line per job, **sorted by job id**, containing only deterministic
//!   fields. Two runs of the same spec produce byte-identical files
//!   regardless of worker-thread count.
//! * **`<out>.partial.jsonl`** — the crash-safe journal: results are
//!   appended as jobs finish (in completion order). On resume, parsed
//!   results whose campaign fingerprint matches are kept and only the
//!   missing jobs run. Deleted once the canonical file is finalised.
//! * **`<out>.timings.jsonl`** — wall-clock times per job plus campaign
//!   totals. Deliberately *outside* the canonical file: host timing is
//!   not deterministic and must not break byte-identity.
//! * **`<out>.metrics.jsonl`** — per-job observability metrics
//!   ([`JobMetrics`]: fabric utilization, arbitration contention, TG
//!   state residency, semaphore counters). A sidecar like the timings,
//!   so the canonical line stays small; `ntg-report` joins it with the
//!   canonical file by job id.
//!
//! The header records a fingerprint of the expanded campaign
//! ([`CampaignSpec::fingerprint`](crate::CampaignSpec::fingerprint)), so
//! a partial file from a *different* spec is rejected instead of being
//! silently merged.

use crate::json::Json;

/// The first line of every result file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignHeader {
    /// Campaign name (from the spec).
    pub name: String,
    /// [`CampaignSpec::fingerprint`](crate::CampaignSpec::fingerprint)
    /// of the producing spec.
    pub fingerprint: u64,
    /// Number of jobs in the expanded campaign.
    pub jobs: usize,
}

impl CampaignHeader {
    /// Renders the header line (no trailing newline).
    pub fn render(&self) -> String {
        Json::Obj(vec![
            ("campaign".into(), Json::Str(self.name.clone())),
            (
                "fingerprint".into(),
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("jobs".into(), Json::Int(self.jobs as i64)),
        ])
        .render()
    }

    /// Parses a header line.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation.
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = Json::parse(line)?;
        let name = v
            .get("campaign")
            .and_then(Json::as_str)
            .ok_or("header: missing `campaign`")?
            .to_string();
        let fingerprint = v
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("header: missing or malformed `fingerprint`")?;
        let jobs = v
            .get("jobs")
            .and_then(Json::as_u64)
            .ok_or("header: missing `jobs`")? as usize;
        Ok(Self {
            name,
            fingerprint,
            jobs,
        })
    }
}

/// The outcome of one job.
///
/// Everything except [`wall_secs`](Self::wall_secs) is deterministic (a
/// pure function of the spec) and appears in the canonical JSONL line;
/// wall time goes to the timings sidecar only.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Job id (expansion order).
    pub id: usize,
    /// The job key, e.g. `mp_matrix:16|4P|xpipes|tg|reactive`.
    pub key: String,
    /// Workload spec string.
    pub workload: String,
    /// Core count.
    pub cores: usize,
    /// Interconnect under evaluation.
    pub interconnect: String,
    /// Master kind (`cpu` / `tg` / `stochastic`).
    pub master: String,
    /// Translation mode for TG jobs.
    pub mode: Option<String>,
    /// The job's derived seed.
    pub seed: u64,
    /// Whether every master halted and traffic drained within the bound.
    pub completed: bool,
    /// System completion time in cycles (the paper's "cumulative
    /// execution time"); `None` if some master never halted.
    pub cycles: Option<u64>,
    /// Cycles actually simulated.
    pub sim_cycles: u64,
    /// Transactions the interconnect carried.
    pub transactions: u64,
    /// Mean of the interconnect's latency metric, if recorded.
    pub latency_mean: Option<f64>,
    /// Max of the interconnect's latency metric, if recorded.
    pub latency_max: Option<u64>,
    /// Offered injection rate in packets/cycle/master (synthetic jobs
    /// only): packets divided by the span of the back-pressure-blind
    /// schedule. Deterministic, hence canonical.
    pub offered_rate: Option<f64>,
    /// Accepted injection rate in packets/cycle/master (synthetic jobs
    /// only): the same packets divided by the span actually needed to
    /// inject them. `accepted < offered` flags a saturated point.
    pub accepted_rate: Option<f64>,
    /// Golden-model check outcome (`None` where not applicable — TG and
    /// stochastic runs of workloads without a memory image, errors).
    pub verified: Option<bool>,
    /// Completion-time error vs the CPU reference job with the same
    /// (workload, cores, interconnect) in this campaign, in percent.
    /// Filled at finalise; `None` when there is no reference.
    pub error_pct: Option<f64>,
    /// Whether this job's reference trace came from the campaign cache.
    /// `None` for jobs that use no trace (CPU runs). Normalised at
    /// finalise to the structural value — `Some(false)` marks the
    /// lowest-id successful consumer (the designated builder) — so the
    /// canonical file does not depend on worker scheduling.
    pub trace_cache_hit: Option<bool>,
    /// Whether this job's TG binaries came from the campaign cache.
    /// `None` for jobs that replay no TG image. Normalised at finalise
    /// like [`Self::trace_cache_hit`].
    pub image_cache_hit: Option<bool>,
    /// Job-level failure (build/translate error or worker panic). A
    /// failed job still produces a line, so campaigns always account for
    /// every id.
    pub error: Option<String>,
    /// Host wall-clock seconds (minimum over repeats). **Not** part of
    /// the canonical line.
    pub wall_secs: f64,
    /// Cycles fast-forwarded by event-horizon skipping. Goes to the
    /// timings sidecar with [`wall_secs`](Self::wall_secs): skipping is
    /// a host-side optimisation, so its split is **not** canonical.
    pub skipped_cycles: u64,
    /// Cycles simulated tick by tick. Timings sidecar only, like
    /// [`skipped_cycles`](Self::skipped_cycles).
    pub ticked_cycles: u64,
    /// Component-cycles the engine actually executed — with O(active)
    /// scheduling, only woken components count per ticked cycle.
    /// Timings sidecar only, like the skip split.
    pub visited_component_cycles: u64,
    /// `components × cycles`, the dense-scan denominator for
    /// [`visited_component_cycles`](Self::visited_component_cycles).
    pub total_component_cycles: u64,
    /// Observability metrics for this job. **Not** part of the
    /// canonical line; written to the `.metrics.jsonl` sidecar.
    pub metrics: Option<JobMetrics>,
}

/// Per-job observability metrics, collected by the platform's opt-in
/// metrics layer and written to the `.metrics.jsonl` sidecar.
///
/// Diagnostic rather than canonical: kept out of the byte-reproducible
/// result file like wall time, though every value here is a pure
/// function of the simulation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobMetrics {
    /// Cycles the fabric spent occupied carrying traffic.
    pub fabric_utilization_cycles: u64,
    /// Lost arbitration rounds across the fabric.
    pub conflicts: u64,
    /// Grant-latency samples.
    pub grant_wait_count: u64,
    /// Sum of grant latencies in cycles.
    pub grant_wait_sum: u64,
    /// Worst grant latency in cycles.
    pub grant_wait_max: u64,
    /// Per-master transactions granted.
    pub link_grants: Vec<u64>,
    /// Per-master cycles stalled awaiting grant.
    pub link_stall_cycles: Vec<u64>,
    /// Per-master fabric-occupancy cycles.
    pub link_busy_cycles: Vec<u64>,
    /// Per-master programmed-idle cycles (TG masters; 0 otherwise).
    pub master_idle_cycles: Vec<u64>,
    /// Per-master blocked-on-interconnect cycles (TG masters; 0
    /// otherwise) — the SEMCHK-poll / memory-wait state residency.
    pub master_wait_cycles: Vec<u64>,
    /// Successful semaphore acquisitions.
    pub sem_acquisitions: u64,
    /// Failed semaphore polls.
    pub sem_failed_polls: u64,
    /// Semaphore releases.
    pub sem_releases: u64,
    /// Width in cycles of each busy window.
    pub busy_window_cycles: u64,
    /// Fabric-busy cycles per window (time-resolved utilization).
    pub busy_windows: Vec<u64>,
}

impl JobMetrics {
    /// Renders one `.metrics.jsonl` line for job `id`/`key` (no
    /// trailing newline).
    pub fn render_line(&self, id: usize, key: &str) -> String {
        fn ints(v: &[u64]) -> Json {
            Json::Arr(v.iter().map(|&x| Json::Int(x as i64)).collect())
        }
        Json::Obj(vec![
            ("id".into(), Json::Int(id as i64)),
            ("key".into(), Json::Str(key.into())),
            (
                "fabric_utilization_cycles".into(),
                Json::Int(self.fabric_utilization_cycles as i64),
            ),
            ("conflicts".into(), Json::Int(self.conflicts as i64)),
            (
                "grant_wait_count".into(),
                Json::Int(self.grant_wait_count as i64),
            ),
            (
                "grant_wait_sum".into(),
                Json::Int(self.grant_wait_sum as i64),
            ),
            (
                "grant_wait_max".into(),
                Json::Int(self.grant_wait_max as i64),
            ),
            ("link_grants".into(), ints(&self.link_grants)),
            ("link_stall_cycles".into(), ints(&self.link_stall_cycles)),
            ("link_busy_cycles".into(), ints(&self.link_busy_cycles)),
            ("master_idle_cycles".into(), ints(&self.master_idle_cycles)),
            ("master_wait_cycles".into(), ints(&self.master_wait_cycles)),
            (
                "sem_acquisitions".into(),
                Json::Int(self.sem_acquisitions as i64),
            ),
            (
                "sem_failed_polls".into(),
                Json::Int(self.sem_failed_polls as i64),
            ),
            ("sem_releases".into(), Json::Int(self.sem_releases as i64)),
            (
                "busy_window_cycles".into(),
                Json::Int(self.busy_window_cycles as i64),
            ),
            ("busy_windows".into(), ints(&self.busy_windows)),
        ])
        .render()
    }

    /// Parses a `.metrics.jsonl` line into `(id, key, metrics)`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation.
    pub fn parse_line(line: &str) -> Result<(usize, String, Self), String> {
        let v = Json::parse(line)?;
        let u = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("metrics: missing `{k}`"))
        };
        let arr = |k: &str| -> Result<Vec<u64>, String> {
            match v.get(k) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|j| {
                        j.as_u64()
                            .ok_or_else(|| format!("metrics: bad `{k}` entry"))
                    })
                    .collect(),
                _ => Err(format!("metrics: missing `{k}`")),
            }
        };
        let id = u("id")? as usize;
        let key = v
            .get("key")
            .and_then(Json::as_str)
            .ok_or("metrics: missing `key`")?
            .to_string();
        Ok((
            id,
            key,
            Self {
                fabric_utilization_cycles: u("fabric_utilization_cycles")?,
                conflicts: u("conflicts")?,
                grant_wait_count: u("grant_wait_count")?,
                grant_wait_sum: u("grant_wait_sum")?,
                grant_wait_max: u("grant_wait_max")?,
                link_grants: arr("link_grants")?,
                link_stall_cycles: arr("link_stall_cycles")?,
                link_busy_cycles: arr("link_busy_cycles")?,
                master_idle_cycles: arr("master_idle_cycles")?,
                master_wait_cycles: arr("master_wait_cycles")?,
                sem_acquisitions: u("sem_acquisitions")?,
                sem_failed_polls: u("sem_failed_polls")?,
                sem_releases: u("sem_releases")?,
                busy_window_cycles: u("busy_window_cycles")?,
                busy_windows: arr("busy_windows")?,
            },
        ))
    }
}

impl JobResult {
    /// A result line for a job that failed before producing a report.
    pub fn failed(job: &crate::JobSpec, error: String) -> Self {
        Self {
            id: job.id,
            key: job.key(),
            workload: job.workload.to_string(),
            cores: job.cores,
            interconnect: job.interconnect.to_string(),
            master: job.master.to_string(),
            mode: (job.mode.is_some() || job.synth.is_some()).then(|| job.mode_label()),
            seed: job.seed,
            completed: false,
            cycles: None,
            sim_cycles: 0,
            transactions: 0,
            latency_mean: None,
            latency_max: None,
            offered_rate: None,
            accepted_rate: None,
            verified: None,
            error_pct: None,
            trace_cache_hit: None,
            image_cache_hit: None,
            error: Some(error),
            wall_secs: 0.0,
            skipped_cycles: 0,
            ticked_cycles: 0,
            visited_component_cycles: 0,
            total_component_cycles: 0,
            metrics: None,
        }
    }

    /// Renders the canonical JSONL line (no trailing newline, fixed
    /// field order, no wall time).
    pub fn render_line(&self) -> String {
        fn opt_u64(v: Option<u64>) -> Json {
            v.map(|x| Json::Int(x as i64)).unwrap_or(Json::Null)
        }
        fn opt_f64(v: Option<f64>) -> Json {
            v.map(Json::Float).unwrap_or(Json::Null)
        }
        fn opt_bool(v: Option<bool>) -> Json {
            v.map(Json::Bool).unwrap_or(Json::Null)
        }
        fn opt_str(v: &Option<String>) -> Json {
            v.as_ref()
                .map(|s| Json::Str(s.clone()))
                .unwrap_or(Json::Null)
        }
        Json::Obj(vec![
            ("id".into(), Json::Int(self.id as i64)),
            ("key".into(), Json::Str(self.key.clone())),
            ("workload".into(), Json::Str(self.workload.clone())),
            ("cores".into(), Json::Int(self.cores as i64)),
            ("interconnect".into(), Json::Str(self.interconnect.clone())),
            ("master".into(), Json::Str(self.master.clone())),
            ("mode".into(), opt_str(&self.mode)),
            ("seed".into(), Json::Str(format!("{:016x}", self.seed))),
            ("completed".into(), Json::Bool(self.completed)),
            ("cycles".into(), opt_u64(self.cycles)),
            ("sim_cycles".into(), Json::Int(self.sim_cycles as i64)),
            ("transactions".into(), Json::Int(self.transactions as i64)),
            ("latency_mean".into(), opt_f64(self.latency_mean)),
            ("latency_max".into(), opt_u64(self.latency_max)),
            ("offered_rate".into(), opt_f64(self.offered_rate)),
            ("accepted_rate".into(), opt_f64(self.accepted_rate)),
            ("verified".into(), opt_bool(self.verified)),
            ("error_pct".into(), opt_f64(self.error_pct)),
            ("trace_cache_hit".into(), opt_bool(self.trace_cache_hit)),
            ("image_cache_hit".into(), opt_bool(self.image_cache_hit)),
            ("error".into(), opt_str(&self.error)),
        ])
        .render()
    }

    /// Parses a canonical line back into a result.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let v = Json::parse(line)?;
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("result: missing `{k}`"))
        };
        let opt_str = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        let opt_bool = |k: &str| v.get(k).and_then(Json::as_bool);
        let opt_u64 = |k: &str| v.get(k).and_then(Json::as_u64);
        Ok(Self {
            id: opt_u64("id").ok_or("result: missing `id`")? as usize,
            key: str_field("key")?,
            workload: str_field("workload")?,
            cores: opt_u64("cores").ok_or("result: missing `cores`")? as usize,
            interconnect: str_field("interconnect")?,
            master: str_field("master")?,
            mode: opt_str("mode"),
            seed: v
                .get("seed")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("result: missing or malformed `seed`")?,
            completed: opt_bool("completed").ok_or("result: missing `completed`")?,
            cycles: opt_u64("cycles"),
            sim_cycles: opt_u64("sim_cycles").ok_or("result: missing `sim_cycles`")?,
            transactions: opt_u64("transactions").ok_or("result: missing `transactions`")?,
            latency_mean: v.get("latency_mean").and_then(Json::as_f64),
            latency_max: opt_u64("latency_max"),
            offered_rate: v.get("offered_rate").and_then(Json::as_f64),
            accepted_rate: v.get("accepted_rate").and_then(Json::as_f64),
            verified: opt_bool("verified"),
            error_pct: v.get("error_pct").and_then(Json::as_f64),
            trace_cache_hit: opt_bool("trace_cache_hit"),
            image_cache_hit: opt_bool("image_cache_hit"),
            error: opt_str("error"),
            wall_secs: 0.0,
            skipped_cycles: 0,
            ticked_cycles: 0,
            visited_component_cycles: 0,
            total_component_cycles: 0,
            metrics: None,
        })
    }
}

/// A loaded result file: its header and the parsed result lines.
#[derive(Debug, Clone)]
pub struct LoadedResults {
    /// The header line.
    pub header: CampaignHeader,
    /// The result lines, in file order.
    pub results: Vec<JobResult>,
    /// Number of lines skipped as unparsable (only in lenient mode —
    /// e.g. a torn final write in a journal).
    pub skipped: usize,
}

/// Parses a result file's contents.
///
/// `lenient` skips unparsable *result* lines (a torn final journal
/// write) instead of failing; the header must always parse.
///
/// # Errors
///
/// Returns a description of the first malformation (in strict mode) or
/// of a missing/invalid header.
pub fn parse_results(text: &str, lenient: bool) -> Result<LoadedResults, String> {
    let mut lines = text.lines();
    let header_line = lines.next().ok_or("empty result file")?;
    let header = CampaignHeader::parse(header_line)?;
    let mut results = Vec::new();
    let mut skipped = 0;
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match JobResult::parse_line(line) {
            Ok(r) => results.push(r),
            Err(e) if lenient => {
                let _ = e;
                skipped += 1;
            }
            Err(e) => return Err(format!("line {}: {e}", i + 2)),
        }
    }
    Ok(LoadedResults {
        header,
        results,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobResult {
        JobResult {
            id: 3,
            key: "mp_matrix:16|4P|xpipes|tg|reactive".into(),
            workload: "mp_matrix:16".into(),
            cores: 4,
            interconnect: "xpipes".into(),
            master: "tg".into(),
            mode: Some("reactive".into()),
            seed: 0xdead_beef_dead_beef,
            completed: true,
            cycles: Some(1_234_567),
            sim_cycles: 1_234_580,
            transactions: 9_876,
            latency_mean: Some(11.5),
            latency_max: Some(96),
            offered_rate: None,
            accepted_rate: None,
            verified: Some(true),
            error_pct: Some(3.25),
            trace_cache_hit: Some(true),
            image_cache_hit: Some(false),
            error: None,
            wall_secs: 0.0,
            skipped_cycles: 0,
            ticked_cycles: 0,
            visited_component_cycles: 0,
            total_component_cycles: 0,
            metrics: None,
        }
    }

    #[test]
    fn result_line_round_trips() {
        let r = sample();
        let line = r.render_line();
        assert_eq!(JobResult::parse_line(&line).unwrap(), r);
        // Rendering is a fixpoint (byte-identity across re-finalise).
        assert_eq!(JobResult::parse_line(&line).unwrap().render_line(), line);
    }

    #[test]
    fn injection_rates_round_trip() {
        let mut r = sample();
        r.master = "synthetic".into();
        r.mode = Some("uniform+bernoulli@0.05/4".into());
        r.offered_rate = Some(0.0497);
        r.accepted_rate = Some(0.031);
        let line = r.render_line();
        assert_eq!(JobResult::parse_line(&line).unwrap(), r);
        assert_eq!(JobResult::parse_line(&line).unwrap().render_line(), line);
    }

    #[test]
    fn nulls_round_trip() {
        let mut r = sample();
        r.mode = None;
        r.cycles = None;
        r.latency_mean = None;
        r.latency_max = None;
        r.verified = None;
        r.error_pct = None;
        r.trace_cache_hit = None;
        r.image_cache_hit = None;
        r.error = Some("boom".into());
        let line = r.render_line();
        assert_eq!(JobResult::parse_line(&line).unwrap(), r);
    }

    #[test]
    fn header_round_trips() {
        let h = CampaignHeader {
            name: "table2".into(),
            fingerprint: 0x0123_4567_89ab_cdef,
            jobs: 24,
        };
        assert_eq!(CampaignHeader::parse(&h.render()).unwrap(), h);
    }

    #[test]
    fn lenient_parse_skips_torn_tail() {
        let h = CampaignHeader {
            name: "t".into(),
            fingerprint: 1,
            jobs: 2,
        };
        let good = sample().render_line();
        let torn = &good[..good.len() / 2];
        let text = format!("{}\n{good}\n{torn}", h.render());
        let loaded = parse_results(&text, true).unwrap();
        assert_eq!(loaded.results.len(), 1);
        assert_eq!(loaded.skipped, 1);
        assert!(parse_results(&text, false).is_err());
    }

    #[test]
    fn wall_time_is_not_in_the_canonical_line() {
        let mut r = sample();
        r.wall_secs = 1.0;
        let a = r.render_line();
        r.wall_secs = 99.0;
        assert_eq!(r.render_line(), a);
    }

    #[test]
    fn skip_split_is_not_in_the_canonical_line() {
        let mut r = sample();
        let a = r.render_line();
        r.skipped_cycles = 1_000_000;
        r.ticked_cycles = 234_580;
        assert_eq!(r.render_line(), a);
    }

    #[test]
    fn metrics_are_not_in_the_canonical_line() {
        let mut r = sample();
        let a = r.render_line();
        r.metrics = Some(JobMetrics {
            fabric_utilization_cycles: 42,
            conflicts: 7,
            ..JobMetrics::default()
        });
        assert_eq!(r.render_line(), a);
    }

    #[test]
    fn metrics_line_round_trips() {
        let m = JobMetrics {
            fabric_utilization_cycles: 123_456,
            conflicts: 78,
            grant_wait_count: 90,
            grant_wait_sum: 450,
            grant_wait_max: 17,
            link_grants: vec![40, 50],
            link_stall_cycles: vec![12, 30],
            link_busy_cycles: vec![300, 280],
            master_idle_cycles: vec![1_000, 0],
            master_wait_cycles: vec![420, 9],
            sem_acquisitions: 5,
            sem_failed_polls: 33,
            sem_releases: 5,
            busy_window_cycles: 1024,
            busy_windows: vec![10, 20, 0, 5],
        };
        let line = m.render_line(7, "mp_matrix:16|2P|amba|tg|reactive");
        let (id, key, parsed) = JobMetrics::parse_line(&line).unwrap();
        assert_eq!(id, 7);
        assert_eq!(key, "mp_matrix:16|2P|amba|tg|reactive");
        assert_eq!(parsed, m);
        // Fixpoint: re-rendering reproduces the same bytes.
        assert_eq!(parsed.render_line(id, &key), line);
    }
}
