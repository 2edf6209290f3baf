//! Flat row-major result batches.
//!
//! The executor's workers already materialize results into flat
//! per-worker buffers ([`crate::CollectSink`]); a [`RowBatch`] keeps
//! that layout — one contiguous `Vec<Id>` plus the row arity — through
//! merging and post-processing instead of exploding into a
//! `Vec<Vec<Id>>` (one heap allocation per row). Rows are viewed as
//! `&[Id]` slices; sorting and dedup permute the flat buffer in place
//! of row-granular moves.

use parj_dict::Id;
use std::cmp::Ordering;

/// A batch of fixed-arity result rows stored row-major in one flat
/// buffer.
///
/// A batch of arity `a > 0` holding `n` rows stores exactly `n * a`
/// ids; row `i` is `data[i * a .. (i + 1) * a]`. An arity-0 batch
/// (ASK-style / fully-constant shapes) carries no ids but still has a
/// **logical row count**: each pushed empty row is counted, `len()`
/// reports it, and `rows()` yields that many empty slices — so
/// downstream offset/limit/dedup arithmetic treats existence results
/// exactly like any other projection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowBatch {
    arity: usize,
    data: Vec<Id>,
    /// Logical row count when `arity == 0` (always 0 otherwise): flat
    /// `data` cannot represent zero-width rows, so the count is
    /// explicit.
    arity0_rows: usize,
}

impl RowBatch {
    /// An empty batch of the given row arity.
    pub fn new(arity: usize) -> Self {
        RowBatch {
            arity,
            data: Vec::new(),
            arity0_rows: 0,
        }
    }

    /// Wraps an existing flat buffer. `data.len()` must be a multiple
    /// of `arity` (for `arity == 0`, `data` must be empty and the
    /// batch starts with zero logical rows — use
    /// [`RowBatch::extend_rows`] to count existence rows).
    pub fn from_parts(arity: usize, data: Vec<Id>) -> Self {
        if arity == 0 {
            assert!(data.is_empty(), "arity-0 batch cannot carry data");
        } else {
            assert_eq!(data.len() % arity, 0, "flat buffer misaligned with arity");
        }
        RowBatch {
            arity,
            data,
            arity0_rows: 0,
        }
    }

    /// Ids per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows (logical count for arity 0).
    pub fn len(&self) -> usize {
        // An arity-0 batch carries no id payload; its logical count
        // lives in `arity0_rows`.
        self.data
            .len()
            .checked_div(self.arity)
            .unwrap_or(self.arity0_rows)
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` as a slice of `arity` ids (the empty slice for arity 0).
    pub fn row(&self, i: usize) -> &[Id] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates over the rows as slices; an arity-0 batch yields its
    /// logical row count of empty slices.
    pub fn rows(&self) -> impl Iterator<Item = &[Id]> {
        // `chunks_exact(0)` panics, so arity 0 routes through a
        // full-buffer chunk size (the buffer is empty, yielding
        // nothing) and the logical rows come from the chained repeat.
        let zero_rows = if self.arity == 0 { self.arity0_rows } else { 0 };
        self.data
            .chunks_exact(self.arity.max(1))
            .chain(std::iter::repeat_n(&[] as &[Id], zero_rows))
    }

    /// Appends one row. `row.len()` must equal the batch arity.
    pub fn push(&mut self, row: &[Id]) {
        debug_assert_eq!(row.len(), self.arity);
        if self.arity == 0 {
            self.arity0_rows += 1;
        } else {
            self.data.extend_from_slice(row);
        }
    }

    /// Appends `n` empty rows to an arity-0 batch (bulk form of
    /// `push(&[])` for counting sinks).
    pub fn extend_rows(&mut self, n: usize) {
        debug_assert_eq!(self.arity, 0, "extend_rows is the arity-0 bulk append");
        self.arity0_rows += n;
    }

    /// Appends a flat, already row-aligned buffer (e.g. a worker
    /// sink's output) without touching individual rows.
    pub fn extend_flat(&mut self, data: &[Id]) {
        debug_assert!(self.arity != 0 && data.len().is_multiple_of(self.arity));
        self.data.extend_from_slice(data);
    }

    /// Appends every row of `other` (which must have the same arity),
    /// including the logical rows of an arity-0 batch.
    pub fn append(&mut self, other: &RowBatch) {
        debug_assert_eq!(self.arity, other.arity);
        self.data.extend_from_slice(&other.data);
        self.arity0_rows += other.arity0_rows;
    }

    /// The underlying flat buffer.
    pub fn data(&self) -> &[Id] {
        &self.data
    }

    /// Consumes the batch, returning the flat buffer.
    pub fn into_data(self) -> Vec<Id> {
        self.data
    }

    /// Materializes one `Vec<Id>` per row (the legacy interchange
    /// shape; allocates per row — keep processing flat where possible).
    pub fn into_rows(self) -> Vec<Vec<Id>> {
        if self.arity == 0 {
            return vec![Vec::new(); self.arity0_rows];
        }
        self.data
            .chunks_exact(self.arity)
            .map(<[Id]>::to_vec)
            .collect()
    }

    /// Sorts the rows with a caller-supplied comparator by permuting
    /// the flat buffer through a sorted index (no per-row allocation).
    /// The sort is stable so equal rows keep their arrival order.
    pub fn sort_by<F: FnMut(&[Id], &[Id]) -> Ordering>(&mut self, mut cmp: F) {
        if self.arity == 0 || self.len() <= 1 {
            return;
        }
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by(|&i, &j| cmp(self.row(i as usize), self.row(j as usize)));
        let mut out = Vec::with_capacity(self.data.len());
        for i in order {
            out.extend_from_slice(self.row(i as usize));
        }
        self.data = out;
    }

    /// Sorts the rows lexicographically.
    pub fn sort_unstable(&mut self) {
        self.sort_by(<[Id]>::cmp);
    }

    /// Removes consecutive duplicate rows in place (sort first for
    /// global dedup).
    pub fn dedup(&mut self) {
        let a = self.arity;
        if a == 0 {
            // All zero-width rows are equal: at most one survives.
            self.arity0_rows = self.arity0_rows.min(1);
            return;
        }
        if self.len() <= 1 {
            return;
        }
        let mut kept = a; // row 0 always stays
        for i in 1..self.len() {
            let (head, tail) = self.data.split_at_mut(i * a);
            if head[kept - a..kept] != tail[..a] {
                if kept != i * a {
                    head[kept..kept + a].copy_from_slice(&tail[..a]);
                }
                kept += a;
            }
        }
        self.data.truncate(kept);
    }

    /// Keeps only the rows for which `keep` returns true, preserving
    /// order.
    pub fn retain<F: FnMut(&[Id]) -> bool>(&mut self, mut keep: F) {
        let a = self.arity;
        if a == 0 {
            let mut kept = 0;
            for _ in 0..self.arity0_rows {
                if keep(&[]) {
                    kept += 1;
                }
            }
            self.arity0_rows = kept;
            return;
        }
        let mut kept = 0;
        for i in 0..self.len() {
            let (head, tail) = self.data.split_at_mut(i * a);
            if keep(&tail[..a]) {
                if kept != i * a {
                    head[kept..kept + a].copy_from_slice(&tail[..a]);
                }
                kept += a;
            }
        }
        self.data.truncate(kept);
    }

    /// Drops the first `n` rows.
    pub fn drop_front(&mut self, n: usize) {
        if self.arity == 0 {
            self.arity0_rows = self.arity0_rows.saturating_sub(n);
            return;
        }
        let cut = (n * self.arity).min(self.data.len());
        self.data.drain(..cut);
    }

    /// Keeps at most the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        if self.arity == 0 {
            self.arity0_rows = self.arity0_rows.min(n);
            return;
        }
        let keep = n.saturating_mul(self.arity).min(self.data.len());
        self.data.truncate(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(rows: &[[Id; 2]]) -> RowBatch {
        let mut b = RowBatch::new(2);
        for r in rows {
            b.push(r);
        }
        b
    }

    #[test]
    fn layout_and_views() {
        let b = batch(&[[1, 2], [3, 4], [5, 6]]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.row(1), &[3, 4]);
        assert_eq!(
            b.rows().collect::<Vec<_>>(),
            vec![&[1, 2][..], &[3, 4], &[5, 6]]
        );
        assert_eq!(
            b.clone().into_rows(),
            vec![vec![1, 2], vec![3, 4], vec![5, 6]]
        );
        assert_eq!(b.data(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn sort_dedup_matches_nested_vecs() {
        let rows = [[3, 1], [1, 2], [3, 1], [0, 9], [1, 2], [3, 0]];
        let mut b = batch(&rows);
        b.sort_unstable();
        b.dedup();
        let mut expected: Vec<Vec<Id>> = rows.iter().map(|r| r.to_vec()).collect();
        expected.sort();
        expected.dedup();
        assert_eq!(b.into_rows(), expected);
    }

    #[test]
    fn retain_offset_limit() {
        let mut b = batch(&[[1, 1], [2, 2], [3, 3], [4, 4], [5, 5]]);
        b.retain(|r| r[0] != 3);
        assert_eq!(b.len(), 4);
        b.drop_front(1);
        b.truncate(2);
        assert_eq!(b.into_rows(), vec![vec![2, 2], vec![4, 4]]);
    }

    #[test]
    fn zero_arity_counts_rows() {
        let mut b = RowBatch::new(0);
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
        b.push(&[]);
        b.push(&[]);
        b.extend_rows(3);
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        assert_eq!(b.rows().count(), 5);
        assert!(b.rows().all(<[Id]>::is_empty));
        assert_eq!(b.clone().into_rows(), vec![Vec::<Id>::new(); 5]);
        b.sort_unstable(); // no ids to order; must not lose the count
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn zero_arity_offset_limit_dedup() {
        let mut b = RowBatch::new(0);
        b.extend_rows(4);
        b.drop_front(1);
        assert_eq!(b.len(), 3);
        b.truncate(2);
        assert_eq!(b.len(), 2);
        b.drop_front(10); // offset past end clamps to empty
        assert_eq!(b.len(), 0);

        let mut d = RowBatch::new(0);
        d.extend_rows(7);
        d.dedup(); // all zero-width rows are equal
        assert_eq!(d.len(), 1);
        let mut kept_calls = 0;
        d.retain(|r| {
            kept_calls += 1;
            r.is_empty()
        });
        assert_eq!(kept_calls, 1);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn zero_arity_append_merges_counts() {
        let mut a = RowBatch::new(0);
        a.extend_rows(2);
        let mut b = RowBatch::new(0);
        b.extend_rows(3);
        a.append(&b);
        assert_eq!(a.len(), 5);

        let mut x = batch(&[[1, 2]]);
        let y = batch(&[[3, 4], [5, 6]]);
        x.append(&y);
        assert_eq!(x.into_rows(), vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
    }

    #[test]
    fn stable_sort_keeps_arrival_order_of_ties() {
        // Compare on the first column only; second column records
        // arrival order.
        let mut b = batch(&[[2, 0], [1, 1], [2, 2], [1, 3]]);
        b.sort_by(|x, y| x[0].cmp(&y[0]));
        assert_eq!(
            b.into_rows(),
            vec![vec![1, 1], vec![1, 3], vec![2, 0], vec![2, 2]]
        );
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_from_parts_panics() {
        let _ = RowBatch::from_parts(2, vec![1, 2, 3]);
    }
}
