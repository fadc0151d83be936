//! Declarative campaign specifications and their expansion into jobs.
//!
//! A [`CampaignSpec`] names a cartesian grid — workloads × core counts ×
//! interconnects × master kinds × translation modes — and
//! [`CampaignSpec::expand`] turns it into a flat, **deterministically
//! ordered** list of [`JobSpec`]s:
//!
//! * expansion order is the nested iteration order of the spec's lists
//!   (workload, then cores, then interconnect, then master, then mode),
//!   so job ids are stable for a given spec;
//! * the mode axis only multiplies TG jobs — CPU and stochastic masters
//!   have no translation step, so they collapse to one job per
//!   (workload, cores, interconnect);
//! * each job's seed is derived from the campaign's base seed and a
//!   stable hash of the job *key* (not the job index), so inserting a
//!   new axis value reshuffles ids but never reseeds existing configs.

use ntg_core::rng::derive_seed;
use ntg_core::TranslationMode;
use ntg_platform::InterconnectChoice;
use ntg_workloads::synthetic::{Pattern, ShapeKind, SyntheticSpec};
use ntg_workloads::Workload;

use crate::json::Json;

/// What kind of master occupies every socket of a job's platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MasterChoice {
    /// Cycle-true Srisc CPU cores running the workload — the reference.
    Cpu,
    /// Traffic generators replaying the translated trace.
    Tg,
    /// The related-work stochastic baseline, auto-calibrated to the
    /// reference trace's aggregate load (see `ablation_stochastic`).
    Stochastic,
    /// Synthetic pattern × shape traffic generators; pairs only with
    /// [`Workload::Synthetic`] and sweeps the campaign's
    /// pattern/shape/rate axes instead of the mode axis.
    Synthetic,
}

impl std::fmt::Display for MasterChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MasterChoice::Cpu => "cpu",
            MasterChoice::Tg => "tg",
            MasterChoice::Stochastic => "stochastic",
            MasterChoice::Synthetic => "synthetic",
        })
    }
}

impl std::str::FromStr for MasterChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "cpu" => Ok(MasterChoice::Cpu),
            "tg" => Ok(MasterChoice::Tg),
            "stochastic" => Ok(MasterChoice::Stochastic),
            "synthetic" => Ok(MasterChoice::Synthetic),
            _ => Err(format!(
                "unknown master kind `{s}` (expected cpu, tg, stochastic or synthetic)"
            )),
        }
    }
}

/// How the core-count axis is chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreSelection {
    /// An explicit list, applied to every workload.
    List(Vec<usize>),
    /// Each workload's own Table-2 sweep
    /// ([`Workload::paper_core_counts`]).
    Paper,
}

/// A declarative sweep campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Human-readable campaign name (recorded in the result header).
    pub name: String,
    /// Workloads to sweep.
    pub workloads: Vec<Workload>,
    /// Core counts to sweep.
    pub cores: CoreSelection,
    /// Interconnects to evaluate.
    pub interconnects: Vec<InterconnectChoice>,
    /// Explicit xpipes mesh dimensions to evaluate *in addition to*
    /// [`Self::interconnects`]: each `(width, height)` appends an
    /// [`InterconnectChoice::Mesh`] point to the fabric axis. A mesh too
    /// small to seat a job's sockets (`2 × cores + 3` nodes: one NI per
    /// master, per private memory, plus shared memory, semaphore and
    /// print slaves) is skipped for that core count — a structural
    /// impossibility, not an error. Empty by default, so campaigns that
    /// never sweep mesh sizes keep their fingerprints.
    pub mesh_sizes: Vec<(u16, u16)>,
    /// Master kinds to evaluate.
    pub masters: Vec<MasterChoice>,
    /// Translation fidelity levels (multiplies TG jobs only).
    pub modes: Vec<TranslationMode>,
    /// Destination patterns (multiplies synthetic jobs only).
    pub patterns: Vec<Pattern>,
    /// Temporal injection shapes (multiplies synthetic jobs only).
    pub shapes: Vec<ShapeKind>,
    /// Offered injection rates λ in packets/cycle/master (multiplies
    /// synthetic jobs only).
    pub rates: Vec<f64>,
    /// Words per synthetic packet (≤ 4 keeps payloads inline).
    pub packet_words: u32,
    /// The interconnect reference traces are collected on (the paper
    /// traces on AMBA and explores elsewhere).
    pub trace_interconnect: InterconnectChoice,
    /// Base seed; per-job seeds are derived from it.
    pub base_seed: u64,
    /// Simulated-cycle bound per run (a job that hits it is recorded as
    /// not completed — a legitimate exploration outcome, not an error).
    pub max_cycles: u64,
    /// Timing repeats per job; wall time is the minimum over repeats
    /// (cycle counts are deterministic and identical across repeats).
    pub repeats: usize,
}

impl CampaignSpec {
    /// A campaign with the given name and engine defaults: AMBA traces,
    /// seed 1, a 2-billion-cycle bound, one timing repeat, reactive
    /// mode, CPU+TG masters on AMBA. Fill in the axes you sweep.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            workloads: Vec::new(),
            cores: CoreSelection::List(vec![1]),
            interconnects: vec![InterconnectChoice::Amba],
            mesh_sizes: Vec::new(),
            masters: vec![MasterChoice::Cpu, MasterChoice::Tg],
            modes: vec![TranslationMode::Reactive],
            patterns: vec![Pattern::Uniform],
            shapes: vec![ShapeKind::Bernoulli],
            rates: vec![0.05],
            packet_words: 4,
            trace_interconnect: InterconnectChoice::Amba,
            base_seed: 1,
            max_cycles: 2_000_000_000,
            repeats: 1,
        }
    }

    /// Expands the grid into deterministically ordered jobs.
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::new();
        for &workload in &self.workloads {
            let core_counts = match &self.cores {
                CoreSelection::List(l) => l.clone(),
                CoreSelection::Paper => workload.paper_core_counts(),
            };
            for &cores in &core_counts {
                // The fabric axis: the configured interconnects followed
                // by the explicit mesh sizes (dimensioned xpipes points).
                let fabrics = self.interconnects.iter().copied().chain(
                    self.mesh_sizes
                        .iter()
                        .map(|&(w, h)| InterconnectChoice::Mesh(w, h)),
                );
                for interconnect in fabrics {
                    // Skip mesh points that cannot seat this job's
                    // sockets: cores masters + (cores + 3) slaves each
                    // need a node of their own.
                    if let InterconnectChoice::Mesh(w, h) = interconnect {
                        if usize::from(w) * usize::from(h) < 2 * cores + 3 {
                            continue;
                        }
                    }
                    for &master in &self.masters {
                        // Synthetic masters pair only with the synthetic
                        // workload (and vice versa): there is no program
                        // to run or trace to replay across the divide.
                        let synthetic_workload = matches!(workload, Workload::Synthetic { .. });
                        if (master == MasterChoice::Synthetic) != synthetic_workload {
                            continue;
                        }
                        if master == MasterChoice::Synthetic {
                            // Synthetic jobs sweep pattern × shape × λ
                            // in place of the translation-mode axis.
                            for &pattern in &self.patterns {
                                for &shape in &self.shapes {
                                    for &rate in &self.rates {
                                        let synth = SyntheticSpec {
                                            pattern,
                                            shape,
                                            rate,
                                            words: self.packet_words,
                                        };
                                        push_job(
                                            &mut jobs,
                                            self,
                                            workload,
                                            cores,
                                            interconnect,
                                            master,
                                            None,
                                            Some(synth),
                                        );
                                    }
                                }
                            }
                            continue;
                        }
                        // Only TG jobs have a translation step; CPU and
                        // stochastic masters collapse the mode axis.
                        let modes: Vec<Option<TranslationMode>> = match master {
                            MasterChoice::Tg => self.modes.iter().copied().map(Some).collect(),
                            _ => vec![None],
                        };
                        for mode in modes {
                            push_job(
                                &mut jobs,
                                self,
                                workload,
                                cores,
                                interconnect,
                                master,
                                mode,
                                None,
                            );
                        }
                    }
                }
            }
        }
        jobs
    }

    /// Whether `job` is the traced reference run of its design point: a
    /// CPU job on the trace fabric of a campaign that also sweeps trace
    /// consumers (TG or stochastic masters). Such a job collects the
    /// point's trace during its own first repeat, so the campaign never
    /// simulates the same reference twice. The runner's dispatch order
    /// and `ntg-sweep --dry-run` both read this one predicate.
    pub fn produces_trace(&self, job: &JobSpec) -> bool {
        job.master == MasterChoice::Cpu
            && job.interconnect == self.trace_interconnect
            && self
                .masters
                .iter()
                .any(|m| matches!(m, MasterChoice::Tg | MasterChoice::Stochastic))
    }

    /// A stable fingerprint of everything that defines the campaign's
    /// results: the expanded job list (keys and seeds) plus the global
    /// run parameters. Resuming from a partial result file first checks
    /// the recorded fingerprint so stale results are never silently
    /// merged into a different campaign.
    pub fn fingerprint(&self) -> u64 {
        let mut acc = String::new();
        acc.push_str(&self.trace_interconnect.to_string());
        acc.push('|');
        acc.push_str(&self.max_cycles.to_string());
        acc.push('|');
        acc.push_str(&self.repeats.max(1).to_string());
        for job in self.expand() {
            acc.push('|');
            acc.push_str(&job.key());
            acc.push('#');
            acc.push_str(&job.seed.to_string());
        }
        fnv1a(acc.as_bytes())
    }

    /// The spec as a JSON object — the wire format `ntg-serve` accepts.
    /// Every axis value renders through its `Display` form (the same
    /// strings the CLI flags take), so specs are writable by hand and
    /// round-trip exactly: `from_json(to_json(s)) == s`, which also
    /// pins the fingerprint across the wire.
    pub fn to_json(&self) -> Json {
        let strs = |items: &[String]| Json::Arr(items.iter().cloned().map(Json::Str).collect());
        let shown = |items: Vec<String>| strs(&items);
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            (
                "workloads".into(),
                shown(self.workloads.iter().map(ToString::to_string).collect()),
            ),
            (
                "cores".into(),
                match &self.cores {
                    CoreSelection::Paper => Json::Str("paper".into()),
                    CoreSelection::List(l) => {
                        Json::Arr(l.iter().map(|&c| Json::Int(c as i64)).collect())
                    }
                },
            ),
            (
                "interconnects".into(),
                shown(self.interconnects.iter().map(ToString::to_string).collect()),
            ),
            (
                "mesh_sizes".into(),
                shown(
                    self.mesh_sizes
                        .iter()
                        .map(|&(w, h)| format!("{w}x{h}"))
                        .collect(),
                ),
            ),
            (
                "masters".into(),
                shown(self.masters.iter().map(ToString::to_string).collect()),
            ),
            (
                "modes".into(),
                shown(self.modes.iter().map(ToString::to_string).collect()),
            ),
            (
                "patterns".into(),
                shown(self.patterns.iter().map(ToString::to_string).collect()),
            ),
            (
                "shapes".into(),
                shown(self.shapes.iter().map(ToString::to_string).collect()),
            ),
            (
                "rates".into(),
                Json::Arr(self.rates.iter().map(|&r| Json::Float(r)).collect()),
            ),
            (
                "packet_words".into(),
                Json::Int(i64::from(self.packet_words)),
            ),
            (
                "trace_interconnect".into(),
                Json::Str(self.trace_interconnect.to_string()),
            ),
            ("base_seed".into(), json_u64(self.base_seed)),
            ("max_cycles".into(), json_u64(self.max_cycles)),
            ("repeats".into(), Json::Int(self.repeats as i64)),
        ])
    }

    /// Parses a spec from the object [`Self::to_json`] renders.
    /// Missing fields take the [`Self::new`] defaults, so a minimal
    /// hand-written submission (`{"name": ..., "workloads": [...]}`)
    /// is a complete campaign.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err("campaign spec must be a JSON object".into());
        }
        let mut spec = CampaignSpec::new("");
        spec.name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("spec: missing or non-string `name`")?
            .to_string();
        if let Some(w) = v.get("workloads") {
            spec.workloads = parse_axis(w, "workloads")?;
        }
        if let Some(c) = v.get("cores") {
            spec.cores = match c {
                Json::Str(s) if s == "paper" => CoreSelection::Paper,
                Json::Arr(items) => {
                    let mut list = Vec::with_capacity(items.len());
                    for item in items {
                        let n = item
                            .as_u64()
                            .filter(|&n| n >= 1)
                            .ok_or("spec: `cores` entries must be integers >= 1")?;
                        list.push(n as usize);
                    }
                    CoreSelection::List(list)
                }
                _ => return Err("spec: `cores` must be \"paper\" or an integer array".into()),
            };
        }
        if let Some(i) = v.get("interconnects") {
            spec.interconnects = parse_axis(i, "interconnects")?;
        }
        if let Some(m) = v.get("mesh_sizes") {
            let dims: Vec<String> = parse_axis(m, "mesh_sizes")?;
            spec.mesh_sizes = dims
                .iter()
                .map(|d| {
                    let (w, h) = d
                        .split_once('x')
                        .ok_or_else(|| format!("spec: mesh size `{d}` is not WxH"))?;
                    Ok((
                        w.parse()
                            .map_err(|_| format!("spec: mesh width in `{d}`"))?,
                        h.parse()
                            .map_err(|_| format!("spec: mesh height in `{d}`"))?,
                    ))
                })
                .collect::<Result<_, String>>()?;
        }
        if let Some(m) = v.get("masters") {
            spec.masters = parse_axis(m, "masters")?;
        }
        if let Some(m) = v.get("modes") {
            spec.modes = parse_axis(m, "modes")?;
        }
        if let Some(p) = v.get("patterns") {
            spec.patterns = parse_axis(p, "patterns")?;
        }
        if let Some(s) = v.get("shapes") {
            spec.shapes = parse_axis(s, "shapes")?;
        }
        if let Some(r) = v.get("rates") {
            let Json::Arr(items) = r else {
                return Err("spec: `rates` must be a number array".into());
            };
            spec.rates = items
                .iter()
                .map(|i| i.as_f64().ok_or("spec: `rates` entries must be numbers"))
                .collect::<Result<_, _>>()?;
        }
        if let Some(w) = v.get("packet_words") {
            spec.packet_words = u32::try_from(w.as_u64().ok_or("spec: `packet_words`")?)
                .map_err(|_| "spec: `packet_words` out of range")?;
        }
        if let Some(t) = v.get("trace_interconnect") {
            let s = t.as_str().ok_or("spec: `trace_interconnect`")?;
            spec.trace_interconnect = s
                .parse()
                .map_err(|e| format!("spec: trace_interconnect: {e}"))?;
        }
        if let Some(s) = v.get("base_seed") {
            spec.base_seed = parse_u64(s).ok_or("spec: `base_seed`")?;
        }
        if let Some(m) = v.get("max_cycles") {
            spec.max_cycles = parse_u64(m).ok_or("spec: `max_cycles`")?;
        }
        if let Some(r) = v.get("repeats") {
            spec.repeats =
                r.as_u64()
                    .filter(|&n| n >= 1)
                    .ok_or("spec: `repeats` must be an integer >= 1")? as usize;
        }
        Ok(spec)
    }
}

/// `u64` as JSON: an `Int` when it fits `i64`, else a decimal string
/// (lossless for the full range; [`parse_u64`] accepts both).
fn json_u64(n: u64) -> Json {
    match i64::try_from(n) {
        Ok(i) => Json::Int(i),
        Err(_) => Json::Str(n.to_string()),
    }
}

fn parse_u64(v: &Json) -> Option<u64> {
    v.as_u64().or_else(|| v.as_str()?.parse().ok())
}

/// Parses a string array through each element's `FromStr`.
fn parse_axis<T>(v: &Json, field: &str) -> Result<Vec<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let Json::Arr(items) = v else {
        return Err(format!("spec: `{field}` must be a string array"));
    };
    items
        .iter()
        .map(|item| {
            let s = item
                .as_str()
                .ok_or_else(|| format!("spec: `{field}` entries must be strings"))?;
            s.parse().map_err(|e| format!("spec: {field}: {e}"))
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn push_job(
    jobs: &mut Vec<JobSpec>,
    spec: &CampaignSpec,
    workload: Workload,
    cores: usize,
    interconnect: InterconnectChoice,
    master: MasterChoice,
    mode: Option<TranslationMode>,
    synth: Option<SyntheticSpec>,
) {
    let id = jobs.len();
    let mut job = JobSpec {
        id,
        workload,
        cores,
        interconnect,
        master,
        mode,
        synth,
        seed: 0,
        max_cycles: spec.max_cycles,
        repeats: spec.repeats.max(1),
    };
    job.seed = derive_seed(spec.base_seed, fnv1a(job.key().as_bytes()));
    jobs.push(job);
}

/// One fully specified simulation job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Stable index in expansion order — the JSONL ordering key.
    pub id: usize,
    /// The workload.
    pub workload: Workload,
    /// Number of masters.
    pub cores: usize,
    /// Interconnect under evaluation.
    pub interconnect: InterconnectChoice,
    /// Master kind.
    pub master: MasterChoice,
    /// Translation mode (`Some` only for TG jobs).
    pub mode: Option<TranslationMode>,
    /// Synthetic traffic descriptor (`Some` only for synthetic jobs).
    pub synth: Option<SyntheticSpec>,
    /// Per-job seed (used by stochastic masters; derived, not configured).
    pub seed: u64,
    /// Simulated-cycle bound.
    pub max_cycles: u64,
    /// Timing repeats.
    pub repeats: usize,
}

impl JobSpec {
    /// The job's human-readable identity, e.g.
    /// `mp_matrix:16|4P|xpipes|tg|reactive` or
    /// `synthetic:256|8P|xpipes|synthetic|uniform+bernoulli@0.05/4`.
    /// Unique within a campaign; also the input of per-job seed
    /// derivation.
    pub fn key(&self) -> String {
        format!(
            "{}|{}P|{}|{}|{}",
            self.workload,
            self.cores,
            self.interconnect,
            self.master,
            self.mode_label()
        )
    }

    /// The mode slot of the key and of the canonical `mode` field: the
    /// synthetic descriptor for synthetic jobs, the translation mode
    /// for TG jobs, `-` otherwise.
    pub fn mode_label(&self) -> String {
        if let Some(s) = &self.synth {
            return s.to_string();
        }
        match self.mode {
            Some(m) => m.to_string(),
            None => "-".to_string(),
        }
    }
}

/// FNV-1a over a byte string — the stable hash used for job seeds and
/// campaign fingerprints.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        let mut s = CampaignSpec::new("test");
        s.workloads = vec![
            Workload::SpMatrix { n: 4 },
            Workload::Cacheloop { iterations: 100 },
        ];
        s.cores = CoreSelection::List(vec![1, 2]);
        s.interconnects = vec![InterconnectChoice::Amba, InterconnectChoice::Ideal];
        s.masters = vec![MasterChoice::Cpu, MasterChoice::Tg];
        s.modes = vec![TranslationMode::Reactive, TranslationMode::Clone];
        s
    }

    #[test]
    fn expansion_counts_modes_only_for_tg() {
        let jobs = small_spec().expand();
        // 2 workloads × 2 cores × 2 fabrics × (1 cpu + 2 tg modes) = 24.
        assert_eq!(jobs.len(), 24);
        let cpu = jobs
            .iter()
            .filter(|j| j.master == MasterChoice::Cpu)
            .count();
        let tg = jobs.iter().filter(|j| j.master == MasterChoice::Tg).count();
        assert_eq!((cpu, tg), (8, 16));
        assert!(jobs
            .iter()
            .all(|j| (j.master == MasterChoice::Tg) == j.mode.is_some()));
    }

    #[test]
    fn expansion_is_deterministic_and_ids_are_positional() {
        let a = small_spec().expand();
        let b = small_spec().expand();
        assert_eq!(a, b);
        for (i, j) in a.iter().enumerate() {
            assert_eq!(j.id, i);
        }
        // Keys are unique.
        let mut keys: Vec<_> = a.iter().map(JobSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), a.len());
    }

    #[test]
    fn paper_core_selection_follows_each_workload() {
        let mut s = CampaignSpec::new("paper");
        s.workloads = vec![
            Workload::SpMatrix { n: 4 },
            Workload::Des { blocks_per_core: 1 },
        ];
        s.cores = CoreSelection::Paper;
        s.masters = vec![MasterChoice::Cpu];
        let jobs = s.expand();
        let sp: Vec<usize> = jobs
            .iter()
            .filter(|j| matches!(j.workload, Workload::SpMatrix { .. }))
            .map(|j| j.cores)
            .collect();
        let des: Vec<usize> = jobs
            .iter()
            .filter(|j| matches!(j.workload, Workload::Des { .. }))
            .map(|j| j.cores)
            .collect();
        assert_eq!(sp, vec![1]);
        assert_eq!(des, vec![3, 4, 6, 8, 10, 12]);
    }

    #[test]
    fn seeds_are_stable_per_key_not_per_position() {
        let full = small_spec().expand();
        let mut reduced_spec = small_spec();
        reduced_spec.workloads.remove(0); // shifts every id
        let reduced = reduced_spec.expand();
        for j in &reduced {
            let same = full.iter().find(|f| f.key() == j.key()).unwrap();
            assert_eq!(same.seed, j.seed, "{}", j.key());
            assert_ne!(same.id, j.id); // ids shifted, seeds did not
        }
    }

    #[test]
    fn fingerprint_tracks_spec_changes() {
        let base = small_spec();
        assert_eq!(base.fingerprint(), small_spec().fingerprint());
        let mut other = small_spec();
        other.max_cycles += 1;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut other = small_spec();
        other.base_seed += 1;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut other = small_spec();
        other.interconnects.pop();
        assert_ne!(base.fingerprint(), other.fingerprint());
    }

    #[test]
    fn mesh_sizes_append_to_the_fabric_axis() {
        let mut s = CampaignSpec::new("mesh");
        s.workloads = vec![Workload::SpMatrix { n: 4 }];
        s.cores = CoreSelection::List(vec![2]);
        s.interconnects = vec![InterconnectChoice::Xpipes];
        s.masters = vec![MasterChoice::Cpu];
        let plain = s.expand();
        assert_eq!(plain.len(), 1);
        let fp_plain = s.fingerprint();

        s.mesh_sizes = vec![(4, 4), (8, 8)];
        let jobs = s.expand();
        // Auto-layout xpipes plus the two explicit meshes.
        assert_eq!(jobs.len(), 3);
        let fabrics: Vec<String> = jobs.iter().map(|j| j.interconnect.to_string()).collect();
        assert_eq!(fabrics, ["xpipes", "xpipes:4x4", "xpipes:8x8"]);
        // Existing jobs keep their keys and seeds; the fingerprint moves.
        assert_eq!(jobs[0].key(), plain[0].key());
        assert_eq!(jobs[0].seed, plain[0].seed);
        assert_ne!(s.fingerprint(), fp_plain);
        // Keys stay unique across the mesh axis.
        let mut keys: Vec<_> = jobs.iter().map(JobSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len());
    }

    #[test]
    fn undersized_meshes_are_skipped_per_core_count() {
        let mut s = CampaignSpec::new("mesh-cap");
        s.workloads = vec![Workload::SpMatrix { n: 4 }];
        s.cores = CoreSelection::List(vec![2, 8]);
        s.interconnects = vec![];
        s.masters = vec![MasterChoice::Cpu];
        // 2 cores need 7 nodes, 8 cores need 19: the 3×3 mesh seats only
        // the former, the 5×4 mesh seats both.
        s.mesh_sizes = vec![(3, 3), (5, 4)];
        let jobs = s.expand();
        let keys: Vec<String> = jobs.iter().map(JobSpec::key).collect();
        assert_eq!(
            keys,
            [
                "sp_matrix:4|2P|xpipes:3x3|cpu|-",
                "sp_matrix:4|2P|xpipes:5x4|cpu|-",
                "sp_matrix:4|8P|xpipes:5x4|cpu|-",
            ]
        );
    }

    #[test]
    fn master_choice_round_trips() {
        for m in [
            MasterChoice::Cpu,
            MasterChoice::Tg,
            MasterChoice::Stochastic,
            MasterChoice::Synthetic,
        ] {
            assert_eq!(m.to_string().parse::<MasterChoice>().unwrap(), m);
        }
        assert!("arm".parse::<MasterChoice>().is_err());
    }

    #[test]
    fn json_codec_round_trips_spec_and_fingerprint() {
        let mut s = small_spec();
        s.mesh_sizes = vec![(4, 4), (8, 2)];
        s.patterns = vec![Pattern::Uniform, Pattern::Transpose];
        s.shapes = vec![ShapeKind::Bernoulli, ShapeKind::Burst { len: 8 }];
        s.rates = vec![0.05, 0.125];
        s.packet_words = 2;
        s.base_seed = 42;
        s.repeats = 3;
        let rendered = s.to_json().render();
        let back = CampaignSpec::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.fingerprint(), s.fingerprint());

        // Paper core selection and >i64 seeds survive the wire.
        s.cores = CoreSelection::Paper;
        s.base_seed = u64::MAX - 1;
        let back = CampaignSpec::from_json(&Json::parse(&s.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn json_codec_defaults_missing_fields_and_names_bad_ones() {
        let v = Json::parse(r#"{"name":"mini","workloads":["sp_matrix:4"]}"#).unwrap();
        let spec = CampaignSpec::from_json(&v).unwrap();
        let defaults = CampaignSpec::new("mini");
        assert_eq!(spec.cores, defaults.cores);
        assert_eq!(spec.masters, defaults.masters);
        assert_eq!(spec.max_cycles, defaults.max_cycles);
        assert_eq!(spec.workloads, vec![Workload::SpMatrix { n: 4 }]);

        for bad in [
            r#"{"workloads":[]}"#,                   // no name
            r#"{"name":"x","workloads":["nope"]}"#,  // bad workload
            r#"{"name":"x","cores":[0]}"#,           // zero cores
            r#"{"name":"x","mesh_sizes":["4by4"]}"#, // bad mesh dims
            r#"{"name":"x","rates":["fast"]}"#,      // non-numeric rate
            r#"{"name":"x","repeats":0}"#,           // zero repeats
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(CampaignSpec::from_json(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn synthetic_jobs_sweep_pattern_shape_rate_and_pair_exclusively() {
        let mut s = CampaignSpec::new("syn");
        s.workloads = vec![
            Workload::Synthetic { packets: 128 },
            Workload::SpMatrix { n: 4 },
        ];
        s.cores = CoreSelection::List(vec![4]);
        s.interconnects = vec![InterconnectChoice::Xpipes, InterconnectChoice::Crossbar];
        s.masters = vec![MasterChoice::Cpu, MasterChoice::Synthetic];
        s.patterns = vec![Pattern::Uniform, Pattern::Transpose];
        s.shapes = vec![ShapeKind::Bernoulli, ShapeKind::Burst { len: 8 }];
        s.rates = vec![0.05, 0.1, 0.2];
        s.packet_words = 2;
        let jobs = s.expand();
        // Synthetic workload × 2 fabrics × (2 patterns × 2 shapes × 3
        // rates) + sp_matrix × 2 fabrics × cpu.
        assert_eq!(jobs.len(), 2 * 12 + 2);
        for j in &jobs {
            let synthetic_workload = matches!(j.workload, Workload::Synthetic { .. });
            assert_eq!(j.master == MasterChoice::Synthetic, synthetic_workload);
            assert_eq!(j.synth.is_some(), synthetic_workload, "{}", j.key());
            if let Some(sp) = &j.synth {
                assert_eq!(sp.words, 2);
                assert!(j.key().ends_with(&sp.to_string()), "{}", j.key());
            }
        }
        // Keys stay unique across the synthetic axes.
        let mut keys: Vec<_> = jobs.iter().map(JobSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len());
        // The descriptor axes feed the fingerprint.
        let fp = s.fingerprint();
        s.rates.push(0.4);
        assert_ne!(fp, s.fingerprint());
    }
}
