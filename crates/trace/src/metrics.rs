//! Fixed-bucket histograms and the end-of-run metrics registry.
//!
//! [`Hist16`] is `Copy` and allocation-free so it can live directly inside
//! hot statistics structs (`SmStats`, `MemStats`). [`Metrics`] is the
//! opposite: a named, heap-backed registry built **once** at the end of a
//! run and snapshotted into `RunResult` — never touched on the hot path.

/// Upper bounds (inclusive) of buckets 1..=15. Bucket 0 holds the value 0;
/// bucket 15 additionally holds everything above 8192.
const BOUNDS: [u64; 15] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
];

/// A 16-bucket power-of-two histogram of `u64` samples.
///
/// Buckets: `[0]`, `(0,1]`, `(1,2]`, `(2,4]`, … `(4096,8192]`,
/// `(8192,∞)`. Sixteen buckets cover the simulator's full dynamic range
/// (a DRAM round trip is a few hundred cycles; a pathological queueing
/// tail is a few thousand) while keeping the struct small enough to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Hist16 {
    counts: [u64; 16],
    sum: u64,
}

impl Hist16 {
    /// An empty histogram.
    pub const fn new() -> Self {
        Hist16 { counts: [0; 16], sum: 0 }
    }

    /// Rebuild a histogram from its raw parts (the counterpart of
    /// [`Hist16::counts`] and [`Hist16::sum`]); used by the simulator's
    /// checkpoint codec to round-trip statistics exactly.
    pub const fn from_raw(counts: [u64; 16], sum: u64) -> Self {
        Hist16 { counts, sum }
    }

    /// Bucket index for a sample.
    fn bucket(v: u64) -> usize {
        if v == 0 {
            return 0;
        }
        match BOUNDS.iter().position(|&b| v <= b) {
            Some(i) => i + 1,
            None => 15,
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.sum += v;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Hist16) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum += other.sum;
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value, or 0.0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        let n = self.total();
        if n == 0 { 0.0 } else { self.sum as f64 / n as f64 }
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64; 16] {
        &self.counts
    }

    /// Human-readable label of bucket `i` (e.g. `"(64,128]"`).
    pub(crate) fn label(i: usize) -> String {
        match i {
            0 => "0".to_string(),
            1 => "(0,1]".to_string(),
            15 => format!("(>{})", BOUNDS[13]),
            _ => format!("({},{}]", BOUNDS[i - 2], BOUNDS[i - 1]),
        }
    }

    /// Smallest bucket upper bound `b` such that at least `q` (0..=1) of
    /// the samples are ≤ `b`; an upper estimate of the q-quantile.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let n = self.total();
        if n == 0 {
            return 0;
        }
        let target = (q * n as f64).ceil() as u64;
        let mut acc = 0;
        for (i, c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return if i == 0 { 0 } else { BOUNDS[(i - 1).min(14)] };
            }
        }
        BOUNDS[14]
    }
}

/// End-of-run registry of named counters and histograms.
///
/// Names are dotted paths (`"sm.stall.idle"`, `"mem.l1.misses"`). Lookup
/// is linear — the registry holds a few dozen entries and is only read by
/// humans and report code.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics {
    counters: Vec<(String, u64)>,
    hists: Vec<(String, Hist16)>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Set (or overwrite) a counter.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        if let Some(e) = self.counters.iter_mut().find(|(n, _)| n == name) {
            e.1 = value;
        } else {
            self.counters.push((name.to_string(), value));
        }
    }

    /// Set (or overwrite) a histogram.
    pub fn set_hist(&mut self, name: &str, h: Hist16) {
        if let Some(e) = self.hists.iter_mut().find(|(n, _)| n == name) {
            e.1 = h;
        } else {
            self.hists.push((name.to_string(), h));
        }
    }

    /// Read a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Read a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Hist16> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// All counters, in insertion order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// All histograms, in insertion order.
    pub fn hists(&self) -> &[(String, Hist16)] {
        &self.hists
    }

    /// True when nothing has been registered (e.g. a hand-constructed
    /// `RunResult` in a unit test).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Fold another registry into this one: counters add, histograms
    /// merge, names absent here are inserted (in `other`'s order).
    ///
    /// This is how `repro shootout` aggregates per-cell registries into
    /// one per-policy row — summing `host/*.ns` totals and merging the
    /// `host/mem.evq.depth`-style histograms across a policy's kernels.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, v) in &other.counters {
            if let Some(e) = self.counters.iter_mut().find(|(n, _)| n == name) {
                e.1 += v;
            } else {
                self.counters.push((name.clone(), *v));
            }
        }
        for (name, h) in &other.hists {
            if let Some(e) = self.hists.iter_mut().find(|(n, _)| n == name) {
                e.1.merge(h);
            } else {
                self.hists.push((name.clone(), *h));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(Hist16::bucket(0), 0);
        assert_eq!(Hist16::bucket(1), 1);
        assert_eq!(Hist16::bucket(2), 2);
        assert_eq!(Hist16::bucket(3), 3);
        assert_eq!(Hist16::bucket(4), 3);
        assert_eq!(Hist16::bucket(5), 4);
        assert_eq!(Hist16::bucket(16384), 15);
        assert_eq!(Hist16::bucket(u64::MAX), 15);
    }

    #[test]
    fn observe_merge_mean() {
        let mut a = Hist16::new();
        a.observe(0);
        a.observe(100);
        let mut b = Hist16::new();
        b.observe(200);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.sum(), 300);
        assert!((a.mean() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_bound_is_monotone() {
        let mut h = Hist16::new();
        for v in [1u64, 10, 100, 1000] {
            h.observe(v);
        }
        let q50 = h.quantile_bound(0.5);
        let q99 = h.quantile_bound(0.99);
        assert!(q50 <= q99);
        assert!(q99 >= 1000 / 2, "q99 bound must cover the largest bucket");
    }

    #[test]
    fn registry_set_get_overwrite() {
        let mut m = Metrics::new();
        m.set_counter("a.b", 1);
        m.set_counter("a.b", 2);
        assert_eq!(m.counter("a.b"), Some(2));
        assert_eq!(m.counter("missing"), None);
        let mut h = Hist16::new();
        h.observe(7);
        m.set_hist("lat", h);
        assert_eq!(m.hist("lat").unwrap().total(), 1);
        assert_eq!(m.counters().len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn quantile_bound_empty_hist_is_zero() {
        let h = Hist16::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile_bound(q), 0);
        }
    }

    #[test]
    fn quantile_bound_all_in_last_bucket() {
        let mut h = Hist16::new();
        for _ in 0..10 {
            h.observe(1 << 20); // far past the top bound → bucket 15
        }
        // Every quantile with a nonzero target lands in the overflow
        // bucket, whose reported bound saturates at BOUNDS[14] = 16384.
        assert_eq!(h.quantile_bound(0.01), 16384);
        assert_eq!(h.quantile_bound(1.0), 16384);
    }

    #[test]
    fn quantile_bound_q0_and_q1() {
        let mut h = Hist16::new();
        h.observe(3); // bucket 3, bound 4
        h.observe(100); // bucket 8, bound 128
        // q=0 has target 0, satisfied before any counts accumulate: the
        // first bucket's bound (0) is returned by convention.
        assert_eq!(h.quantile_bound(0.0), 0);
        // q=1 must cover the largest occupied bucket.
        assert_eq!(h.quantile_bound(1.0), 128);
        // A sample of zeros keeps q=1 in bucket 0.
        let mut z = Hist16::new();
        z.observe(0);
        assert_eq!(z.quantile_bound(1.0), 0);
    }

    #[test]
    fn metrics_merge_adds_counters_and_merges_hists() {
        let mut a = Metrics::new();
        a.set_counter("host/phase.mem.ns", 10);
        let mut ha = Hist16::new();
        ha.observe(5);
        a.set_hist("host/mem.evq.depth", ha);

        let mut b = Metrics::new();
        b.set_counter("host/phase.mem.ns", 32);
        b.set_counter("host/phase.issue.ns", 7);
        let mut hb = Hist16::new();
        hb.observe(9);
        b.set_hist("host/mem.evq.depth", hb);
        b.set_hist("host/phase.issue", hb);

        a.merge(&b);
        assert_eq!(a.counter("host/phase.mem.ns"), Some(42));
        assert_eq!(a.counter("host/phase.issue.ns"), Some(7));
        let d = a.hist("host/mem.evq.depth").unwrap();
        assert_eq!(d.total(), 2);
        assert_eq!(d.sum(), 14);
        assert_eq!(a.hist("host/phase.issue").unwrap().total(), 1);
    }

    #[test]
    fn metrics_merge_into_empty_copies() {
        let mut b = Metrics::new();
        b.set_counter("x", 3);
        let mut h = Hist16::new();
        h.observe(1);
        b.set_hist("y", h);
        let mut a = Metrics::new();
        a.merge(&b);
        assert_eq!(a.counter("x"), Some(3));
        assert_eq!(a.hist("y").unwrap().total(), 1);
    }

    #[test]
    fn labels_cover_all_buckets() {
        for i in 0..16 {
            assert!(!Hist16::label(i).is_empty());
        }
        assert_eq!(Hist16::label(0), "0");
        assert_eq!(Hist16::label(2), "(1,2]");
    }
}
