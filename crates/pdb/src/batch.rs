//! Struct-of-arrays world batches — the columnar output format of bulk
//! world evaluation.
//!
//! MCDB's inner loop is "run the query on each sampled world"; U-relations
//! (Antova et al.) showed the same workload goes fast when uncertain data
//! lives in a succinct columnar representation operated on by plain
//! relational operators. [`WorldBatch`] is that representation at the
//! simulation boundary: one contiguous `f64` column per output variable,
//! one row per possible world. Everything above the engines — the sweep
//! executor's wave phases, warm sessions, the server's ESTIMATE path —
//! consumes these columns as plain slices the autovectorizer can chew on,
//! instead of per-world `BundleCell` dispatch.
//!
//! A batch is only a layout, never a different computation: the columnar
//! evaluation path that fills it performs the same floating-point
//! operations in the same order as the per-world oracle, so the two are
//! bit-identical (property-tested in `tests/columnar_oracle.rs`).

/// A columnar batch of evaluated worlds: `column(c)[w]` is output column
/// `c` in world `w` of the evaluated window.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldBatch {
    n_worlds: usize,
    columns: Vec<Vec<f64>>,
}

impl WorldBatch {
    /// Build from per-column vectors. Every column must have exactly
    /// `n_worlds` entries.
    pub fn from_columns(columns: Vec<Vec<f64>>, n_worlds: usize) -> Self {
        for (c, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), n_worlds, "column {c} has wrong world count");
        }
        WorldBatch { n_worlds, columns }
    }

    /// An empty batch with `n_cols` zero-length columns (a zero-world
    /// window still has a schema).
    pub fn empty(n_cols: usize) -> Self {
        WorldBatch { n_worlds: 0, columns: vec![Vec::new(); n_cols] }
    }

    /// An empty batch whose columns have room for `cap` worlds — the
    /// stitching accumulator shape.
    pub fn with_capacity(n_cols: usize, cap: usize) -> Self {
        WorldBatch { n_worlds: 0, columns: (0..n_cols).map(|_| Vec::with_capacity(cap)).collect() }
    }

    /// Number of worlds (rows) in the batch.
    pub fn n_worlds(&self) -> usize {
        self.n_worlds
    }

    /// Number of output columns.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// One output column as a contiguous slice over worlds.
    pub fn column(&self, c: usize) -> &[f64] {
        &self.columns[c]
    }

    /// All columns, borrowed.
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.columns
    }

    /// Consume the batch into its per-column vectors — the historical
    /// `out[col][world]` shape of [`crate::Simulation::eval_worlds`].
    pub fn into_columns(self) -> Vec<Vec<f64>> {
        self.columns
    }

    /// Drop the first `n` worlds, keeping the rest in order (the unread
    /// tail of a window a caller consumes front to back).
    pub fn remove_front(&mut self, n: usize) {
        assert!(n <= self.n_worlds, "removing {n} of {} worlds", self.n_worlds);
        for col in &mut self.columns {
            col.drain(..n);
        }
        self.n_worlds -= n;
    }

    /// Append another batch's worlds below this one (window stitching).
    /// Column counts must match.
    pub fn extend(&mut self, other: WorldBatch) {
        assert_eq!(self.columns.len(), other.columns.len(), "column count mismatch");
        for (dst, src) in self.columns.iter_mut().zip(other.columns) {
            dst.extend(src);
        }
        self.n_worlds += other.n_worlds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_accessors() {
        let b = WorldBatch::from_columns(vec![vec![1.0, 2.0], vec![3.0, 4.0]], 2);
        assert_eq!(b.n_worlds(), 2);
        assert_eq!(b.n_columns(), 2);
        assert_eq!(b.column(1), &[3.0, 4.0]);
        assert_eq!(b.into_columns(), vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
    }

    #[test]
    fn empty_has_schema_but_no_worlds() {
        let b = WorldBatch::empty(3);
        assert_eq!(b.n_worlds(), 0);
        assert_eq!(b.n_columns(), 3);
        assert!(b.column(2).is_empty());
    }

    #[test]
    fn extend_stitches_windows() {
        let mut a = WorldBatch::from_columns(vec![vec![1.0]], 1);
        a.extend(WorldBatch::from_columns(vec![vec![2.0, 3.0]], 2));
        assert_eq!(a.n_worlds(), 3);
        assert_eq!(a.column(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn remove_front_keeps_the_tail_in_order() {
        let mut b = WorldBatch::from_columns(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]], 3);
        b.remove_front(2);
        assert_eq!(b.n_worlds(), 1);
        assert_eq!(b.columns(), &[vec![3.0], vec![6.0]]);
        b.remove_front(1);
        assert_eq!(b, WorldBatch::empty(2));
    }

    #[test]
    #[should_panic(expected = "wrong world count")]
    fn ragged_columns_rejected() {
        WorldBatch::from_columns(vec![vec![1.0], vec![1.0, 2.0]], 1);
    }
}
