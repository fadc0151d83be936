//! `BENCHMARK.json` as the harness reads it: the names, units and
//! bounds it reports against. The file is the single list of metric
//! and workload names; the harness emits exactly what it names.

use std::path::{Path, PathBuf};

use ntg_explore::Json;

use crate::stats::valid_name;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub run_seconds: u64,
    /// `(name, why)` in file order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// The benchmark's own directory, fixed when the harness is built in
/// its checkout.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn repo_root() -> PathBuf {
    bench_dir()
        .parent()
        .expect("benchmark/ sits one level below the repo root")
        .to_path_buf()
}

fn metric(v: &Json, bounded: bool) -> Result<MetricDef, String> {
    let field = |k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("metric without `{k}`"))
    };
    let name = field("name")?;
    if !valid_name(&name) {
        return Err(format!("invalid metric name `{name}`"));
    }
    let higher_is_better = match field("better")?.as_str() {
        "higher" => true,
        "lower" => false,
        other => return Err(format!("metric `{name}`: better = `{other}`")),
    };
    let bound = if bounded {
        Some(
            v.get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric `{name}` has no bound"))?,
        )
    } else {
        None
    };
    Ok(MetricDef {
        unit: field("unit")?,
        name,
        higher_is_better,
        bound,
    })
}

impl Contract {
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        let list = |k: &str| match v.get(k) {
            Some(Json::Arr(items)) => Ok(items.as_slice()),
            _ => Err(format!("BENCHMARK.json: `{k}` is not a list")),
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).map(str::to_string);
                match (s("name"), s("why")) {
                    (Some(n), Some(why)) if valid_name(&n) => Ok((n, why)),
                    _ => Err("BENCHMARK.json: malformed workload entry".to_string()),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            run_seconds: v
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|m| metric(m, true))
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| metric(m, false))
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn load() -> Result<Self, String> {
        let path = repo_root().join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text)
    }
}

/// The `key = value` lines of a manifest's `[profile.release]` table,
/// sorted, comments and blanks dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// Fails when the root manifest's release profile differs from the
/// harness's copy: the numbers would then describe a codegen nobody
/// ships.
pub fn check_release_profile() -> Result<(), String> {
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()));
    let root = release_profile(&read(repo_root().join("Cargo.toml"))?);
    let own = release_profile(&read(bench_dir().join("Cargo.toml"))?);
    if root == own {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] differs: root Cargo.toml has {root:?}, benchmark/Cargo.toml has \
             {own:?}; copy the root table into benchmark/Cargo.toml"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_tables_compare_by_content() {
        let a = "[package]\nname = \"x\"\n[profile.release]\n# why\nlto = \"thin\"\ncodegen-units = 1\n\n[features]\n";
        let b = "[profile.release]\ncodegen-units=1\nlto   =   \"thin\"\n";
        assert_eq!(release_profile(a), release_profile(b));
        assert_ne!(
            release_profile(a),
            release_profile("[profile.release]\nlto = \"fat\"\n")
        );
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn the_checked_in_contract_parses_and_matches_the_profile() {
        let c = Contract::load().unwrap();
        assert_eq!(c.workloads.len(), 7);
        assert_eq!(c.end_to_end.len(), 8);
        assert!(c
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .chain(c.workloads.iter().map(|w| w.0.as_str()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        check_release_profile().unwrap();
    }
}
