//! Small statistics helpers used by devices, interconnects and harnesses.

/// A named monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use ntg_sim::stats::Counter;
///
/// let mut grants = Counter::new("bus_grants");
/// grants.add(3);
/// grants.incr();
/// assert_eq!(grants.get(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// Creates a zeroed counter with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value: 0,
        }
    }

    /// The counter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Adds one to the counter.
    pub fn incr(&mut self) {
        self.value += 1;
    }
}

/// A latency histogram with power-of-two buckets plus exact min/max/mean.
///
/// Used to summarise per-transaction network latencies without retaining
/// every sample.
///
/// # Example
///
/// ```
/// use ntg_sim::stats::Histogram;
///
/// let mut h = Histogram::new("read_latency");
/// for v in [1u64, 2, 2, 9] { h.record(v); }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.min(), Some(1));
/// assert_eq!(h.max(), Some(9));
/// assert_eq!(h.mean(), Some(3.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    name: String,
    /// bucket `i` counts samples in `[2^(i-1), 2^i)`, bucket 0 counts 0.
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The histogram's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// The largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The arithmetic mean of recorded samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum as f64 / self.count as f64)
    }

    /// The number of samples in the bucket covering `value`.
    pub fn bucket_for(&self, value: u64) -> u64 {
        let idx = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new("x");
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.name(), "x");
    }

    #[test]
    fn histogram_empty_has_no_extremes() {
        let h = Histogram::new("h");
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        let mut h = Histogram::new("h");
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        assert_eq!(h.bucket_for(0), 1); // exactly the zero bucket
        assert_eq!(h.bucket_for(1), 1); // [1,2)
        assert_eq!(h.bucket_for(2), 2); // [2,4) holds 2 and 3
        assert_eq!(h.bucket_for(4), 1); // [4,8)
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::new("h");
        for v in [5u64, 10, 15] {
            h.record(v);
        }
        assert_eq!(h.sum(), 30);
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(15));
        assert_eq!(h.mean(), Some(10.0));
    }

    #[test]
    fn histogram_handles_u64_max() {
        let mut h = Histogram::new("h");
        h.record(u64::MAX);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.bucket_for(u64::MAX), 1);
    }
}
