//! Order statistics for the benchmark's samples, and the rule for
//! metric names.

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The value at rank `p` (0..=1) of a sorted slice, interpolating
/// linearly between neighbours.
fn at_rank(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises samples.
///
/// # Panics
///
/// Panics on an empty slice: every metric the harness reports has at
/// least one sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let s = sorted(samples);
    Summary {
        min: s[0],
        q1: at_rank(&s, 0.25),
        median: at_rank(&s, 0.5),
        q3: at_rank(&s, 0.75),
        max: s[s.len() - 1],
        n: s.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The value at whole percentile `p` (nearest rank).
pub fn percentile(samples: &[f64], p: usize) -> f64 {
    assert!(!samples.is_empty() && p <= 100);
    let s = sorted(samples);
    s[((p * s.len()).div_ceil(100)).max(1) - 1]
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, with its value; `None` below twenty samples, where no
/// percentile above the median qualifies.
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    // Percentile p leaves n - ceil(p/100 * n) samples beyond it.
    let p = (50..100).rev().find(|&p| n - (p * n).div_ceil(100) >= 10)?;
    Some((p as u32, percentile(samples, p)))
}

/// Metric and workload names: letters, digits, `_`, `.`, `-`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (2.5, 1.75, 3.25, 4));
        assert_eq!((s.min, s.max), (1.0, 4.0));
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.q1, s.q3), (3.0, 2.0, 4.0));
        assert_eq!(summarize(&[7.0]).median, 7.0);
        assert_eq!(median(&[2.0, 8.0]), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        // p97 of 400 leaves 12 beyond; p98 would leave 8.
        assert_eq!(tail_percentile(&v), Some((97, 388.0)));
        assert_eq!(tail_percentile(&v[..340]), Some((97, 330.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50, 10.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99, 990.0)));
        assert_eq!(tail_percentile(&v[..19]), None);
        assert_eq!(percentile(&v, 97), 970.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50), 2.0);
        assert_eq!(percentile(&[3.0, 1.0], 0), 1.0);
    }

    #[test]
    fn names_follow_the_contract() {
        for ok in ["setup_s", "noc.xpipes_link_ns_per_cycle", "a-b", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
