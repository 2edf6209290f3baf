//! Equi-depth histograms over a replica's key column.
//!
//! Built from the `(key, group_size)` stream a CSR replica exposes: each
//! bucket covers a contiguous key range holding roughly `total/buckets`
//! triples. `estimate_freq(id)` answers "how many triples have this
//! key?" — the per-constant selectivity the optimizer needs — as the
//! bucket's average frequency. §4.3 notes such histograms "may not be
//! accurate especially in the case of RDF data", which is why pair
//! cardinalities correct join estimates separately.

use parj_dict::Id;

/// One bucket: keys in `[lo, hi]`, `triples` total values, `distinct`
/// distinct keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bucket {
    lo: Id,
    hi: Id,
    triples: u64,
    distinct: u64,
}

/// An equi-depth histogram over one key column of one replica.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EquiDepthHistogram {
    buckets: Vec<Bucket>,
    total_triples: u64,
    total_distinct: u64,
}

impl EquiDepthHistogram {
    /// Builds from `(key, group_size)` pairs in ascending key order,
    /// targeting `num_buckets` buckets (the store default is 64).
    pub fn build<I>(groups: I, num_buckets: usize) -> Self
    where
        I: IntoIterator<Item = (Id, u64)> + Clone,
    {
        let total: u64 = groups.clone().into_iter().map(|(_, c)| c).sum();
        let depth = (total / num_buckets.max(1) as u64).max(1);
        let mut buckets = Vec::with_capacity(num_buckets + 1);
        let mut cur: Option<Bucket> = None;
        let mut total_distinct = 0u64;
        for (key, count) in groups {
            total_distinct += 1;
            // End-biased handling of heavy hitters: a key that alone
            // meets the depth gets its own bucket, so its frequency does
            // not bleed into the estimates of its neighbours.
            if count >= depth {
                if let Some(b) = cur.take() {
                    buckets.push(b);
                }
                buckets.push(Bucket {
                    lo: key,
                    hi: key,
                    triples: count,
                    distinct: 1,
                });
                continue;
            }
            match cur.as_mut() {
                None => {
                    cur = Some(Bucket {
                        lo: key,
                        hi: key,
                        triples: count,
                        distinct: 1,
                    });
                }
                Some(b) => {
                    b.hi = key;
                    b.triples += count;
                    b.distinct += 1;
                }
            }
            if cur.as_ref().is_some_and(|b| b.triples >= depth) {
                buckets.push(cur.take().expect("bucket exists"));
            }
        }
        if let Some(b) = cur {
            buckets.push(b);
        }
        EquiDepthHistogram {
            buckets,
            total_triples: total,
            total_distinct,
        }
    }

    /// Estimated number of triples whose key equals `id` (the average
    /// frequency of the containing bucket; 0 if `id` lies outside every
    /// bucket's range).
    pub fn estimate_freq(&self, id: Id) -> f64 {
        let idx = self.buckets.partition_point(|b| b.hi < id);
        match self.buckets.get(idx) {
            Some(b) if b.lo <= id => b.triples as f64 / b.distinct as f64,
            _ => 0.0,
        }
    }

    /// True if `id` could be a key (inside some bucket's range). A
    /// `false` is definite absence.
    pub fn may_contain(&self, id: Id) -> bool {
        let idx = self.buckets.partition_point(|b| b.hi < id);
        matches!(self.buckets.get(idx), Some(b) if b.lo <= id)
    }

    /// Total triples summarized.
    pub fn total_triples(&self) -> u64 {
        self.total_triples
    }

    /// Total distinct keys summarized.
    pub fn total_distinct(&self) -> u64 {
        self.total_distinct
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Average triples per distinct key (global fan-out).
    pub fn avg_fanout(&self) -> f64 {
        if self.total_distinct == 0 {
            0.0
        } else {
            self.total_triples as f64 / self.total_distinct as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let h = EquiDepthHistogram::build(Vec::<(Id, u64)>::new(), 8);
        assert_eq!(h.estimate_freq(5), 0.0);
        assert_eq!(h.total_triples(), 0);
        assert_eq!(h.avg_fanout(), 0.0);
        assert!(!h.may_contain(0));
    }

    #[test]
    fn uniform_distribution() {
        let groups: Vec<(Id, u64)> = (0..1000).map(|k| (k, 3)).collect();
        let h = EquiDepthHistogram::build(groups, 10);
        assert_eq!(h.total_triples(), 3000);
        assert_eq!(h.total_distinct(), 1000);
        assert!(
            h.num_buckets() >= 9 && h.num_buckets() <= 11,
            "{}",
            h.num_buckets()
        );
        // Every key estimates its true frequency exactly under uniformity.
        for k in [0, 99, 500, 999] {
            assert!((h.estimate_freq(k) - 3.0).abs() < 1e-9);
        }
        assert_eq!(h.estimate_freq(1000), 0.0);
    }

    #[test]
    fn skew_isolated_by_depth() {
        // One hot key (10_000 triples) among 100 cold keys (1 each):
        // equi-depth puts the hot key (nearly) alone in its buckets, so
        // cold keys are not over-estimated by orders of magnitude.
        let mut groups: Vec<(Id, u64)> = (0..50).map(|k| (k, 1)).collect();
        groups.push((50, 10_000));
        groups.extend((51..101).map(|k| (k, 1)));
        let h = EquiDepthHistogram::build(groups, 16);
        let cold = h.estimate_freq(10);
        let hot = h.estimate_freq(50);
        assert!(hot > 100.0 * cold, "hot {hot} cold {cold}");
        assert!(cold < 50.0, "cold keys overestimated: {cold}");
    }

    #[test]
    fn range_gaps_estimate_inside_bucket() {
        // Keys 0,10,20,...: ids between keys fall inside bucket ranges
        // and get the bucket average (histograms cannot prove absence
        // within a covered range).
        let groups: Vec<(Id, u64)> = (0..100).map(|k| (k * 10, 5)).collect();
        let h = EquiDepthHistogram::build(groups, 8);
        assert!(h.estimate_freq(15) > 0.0);
        // Outside the global range is definite absence.
        assert_eq!(h.estimate_freq(99999), 0.0);
        assert!(!h.may_contain(99999));
    }

    #[test]
    fn single_key() {
        let h = EquiDepthHistogram::build(vec![(42u32, 7u64)], 8);
        assert_eq!(h.estimate_freq(42), 7.0);
        assert_eq!(h.estimate_freq(41), 0.0);
        assert_eq!(h.num_buckets(), 1);
    }
}
