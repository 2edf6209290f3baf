//! Lock-light metric primitives.
//!
//! Everything on the query hot path is a plain `AtomicU64` touched with
//! `Relaxed` ordering: one `fetch_add` per event, no locks, no
//! allocation. The only lock in the crate guards *label creation* in
//! [`GaugeVec`], which happens on the (rare) store-build path — never
//! while a query runs.

use parj_sync::atomic::{AtomicU64, Ordering};
use parj_sync::{LockLevel, OrderedRwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — independent event count; readers only need
        // eventual visibility, never cross-metric consistency
        // (loom_metrics checks snapshot monotonicity under this).
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — exposition read; staleness is acceptable.
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (bytes resident, queries
/// in flight).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        // ordering: Relaxed — last-writer-wins by design for gauges.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` to the gauge.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — see Counter::add.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from the gauge, saturating at zero on underflow
    /// (a mispaired `sub` must read as an empty gauge, not wrap to
    /// ~2^64 and poison every later reading).
    #[inline]
    pub fn sub(&self, n: u64) {
        // ordering: Relaxed — the CAS loop only needs the value it is
        // rewriting; no other memory is published through the gauge.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — exposition read; staleness is acceptable.
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over `u64` observations with fixed upper bounds.
///
/// Buckets are *non-cumulative* internally; the snapshot accumulates
/// them into the Prometheus convention (`le` buckets plus `+Inf`).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One slot per bound plus the overflow (`+Inf`) slot.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram with the given ascending upper bounds.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        // ordering: Relaxed — bucket/sum/count may be transiently
        // mutually inconsistent to a concurrent reader; each word is
        // individually exact, which is the documented contract
        // (loom_metrics checks the per-word exactness).
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        // ordering: Relaxed — exposition read; staleness is acceptable.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        // ordering: Relaxed — exposition read; staleness is acceptable.
        self.sum.load(Ordering::Relaxed)
    }

    /// Cumulative `(upper_bound, count)` pairs in Prometheus `le`
    /// convention; the final entry is the `+Inf` bucket.
    pub fn cumulative_buckets(&self) -> Vec<(Option<u64>, u64)> {
        let mut acc = 0;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            // ordering: Relaxed — buckets drift independently during
            // concurrent observes; quiescent reads are exact.
            acc += b.load(Ordering::Relaxed);
            out.push((self.bounds.get(i).copied(), acc));
        }
        out
    }
}

/// A family of gauges keyed by one label value, grown on demand.
///
/// Insertion takes the write lock; it happens only on the store
/// build path. Reads (exposition) take the read lock.
#[derive(Debug)]
pub struct GaugeVec {
    values: OrderedRwLock<std::collections::BTreeMap<String, u64>>,
}

impl Default for GaugeVec {
    fn default() -> Self {
        Self::new()
    }
}

impl GaugeVec {
    /// An empty family.
    pub fn new() -> Self {
        GaugeVec {
            // Metrics is the hierarchy floor: safe to update while
            // holding any other lock in the workspace.
            values: OrderedRwLock::new(
                LockLevel::Metrics,
                "obs.gauge_vec",
                std::collections::BTreeMap::new(),
            ),
        }
    }

    /// Sets the gauge for `label` to `v`, creating it if absent.
    pub fn set(&self, label: &str, v: u64) {
        self.values.write().insert(label.to_string(), v);
    }

    /// Replaces the entire family in one critical section (used when a
    /// store rebuild invalidates every previous label).
    pub fn replace(&self, entries: impl IntoIterator<Item = (String, u64)>) {
        let mut map = self.values.write();
        map.clear();
        map.extend(entries);
    }

    /// Current `(label, value)` pairs in label order.
    pub fn get_all(&self) -> Vec<(String, u64)> {
        self.values
            .read()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn gauge_sub_saturates_at_zero() {
        // A mispaired sub (e.g. a double-decrement on an error path)
        // must leave the gauge empty, not wrapped to ~2^64.
        let g = Gauge::new();
        g.add(2);
        g.sub(5);
        assert_eq!(g.get(), 0);
        g.add(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_accumulate() {
        let h = Histogram::new(&[10, 100]);
        for v in [1, 5, 50, 500] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 556);
        assert_eq!(
            h.cumulative_buckets(),
            vec![(Some(10), 2), (Some(100), 3), (None, 4)]
        );
    }

    #[test]
    fn gauge_vec_replace_resets_labels() {
        let v = GaugeVec::new();
        v.set("a", 1);
        v.set("b", 2);
        v.replace([("c".to_string(), 3)]);
        assert_eq!(v.get_all(), vec![("c".to_string(), 3)]);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let c = std::sync::Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
