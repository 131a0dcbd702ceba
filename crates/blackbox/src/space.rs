//! Parameter-space enumeration (the *Parameter Enumerator* of Figure 3).
//!
//! Jigsaw explores parameter spaces by brute-force enumeration — "necessary
//! to guarantee that the optimization converges to the global maximum for an
//! arbitrary black-box function" (paper §2.3). A [`ParamSpace`] is the
//! Cartesian product of the enumerable (non-chain) parameter domains; points
//! are addressed by a dense `usize` index in row-major order, which gives
//! the rest of the engine a cheap, hashable point identity.

use crate::param::{Domain, ParamDecl};

/// The Cartesian product of a set of parameter declarations.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpace {
    decls: Vec<ParamDecl>,
    /// Indices (into `decls`) of enumerable dimensions, in declaration order.
    enumerable: Vec<usize>,
    /// Row-major strides for enumerable dimensions.
    strides: Vec<usize>,
    len: usize,
}

/// Why a set of declarations does not form a [`ParamSpace`]: its points
/// cannot be addressed by a `usize` index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// One domain has more values than a `usize` counts.
    DomainTooLarge {
        /// The parameter's name.
        name: String,
    },
    /// Every domain fits, but their product does not.
    TooManyPoints,
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::DomainTooLarge { name } => {
                write!(f, "parameter @{name} has more values than a point index can count")
            }
            SpaceError::TooManyPoints => {
                write!(f, "the parameter space has more points than a point index can count")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

impl ParamSpace {
    /// Build a space from declarations. Chain parameters are carried along
    /// (their initial values appear in every point) but not enumerated.
    /// Panics when the space is too large to index; declarations from an
    /// untrusted source go through [`Self::try_new`].
    pub fn new(decls: Vec<ParamDecl>) -> Self {
        Self::try_new(decls).expect("parameter space size overflow")
    }

    /// [`Self::new`], answering a typed error when some domain, or the
    /// product of all of them, has more values than a `usize` counts.
    pub fn try_new(decls: Vec<ParamDecl>) -> Result<Self, SpaceError> {
        let enumerable: Vec<usize> = decls
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.domain.is_chain())
            .map(|(i, _)| i)
            .collect();
        let mut cards = Vec::with_capacity(enumerable.len());
        for &di in &enumerable {
            let card = decls[di].domain.checked_cardinality();
            cards.push(
                card.ok_or_else(|| SpaceError::DomainTooLarge { name: decls[di].name.clone() })?,
            );
        }
        // An empty domain empties the space, however large the others are.
        let empty = cards.contains(&0);
        let mut len = 1usize;
        let mut strides = vec![0usize; enumerable.len()];
        // Row-major: last declared enumerable dimension varies fastest.
        for (slot, &card) in cards.iter().enumerate().rev() {
            strides[slot] = len;
            if !empty {
                len = len.checked_mul(card).ok_or(SpaceError::TooManyPoints)?;
            }
        }
        if empty {
            len = 0;
        }
        Ok(ParamSpace { decls, enumerable, strides, len })
    }

    /// The declarations, in order.
    pub fn decls(&self) -> &[ParamDecl] {
        &self.decls
    }

    /// Parameter names, in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.decls.iter().map(|d| d.name.as_str()).collect()
    }

    /// Position of a parameter by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.decls.iter().position(|d| d.name == name)
    }

    /// Number of points in the space (product of enumerable cardinalities).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when some enumerable domain is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Materialize point `idx` (row-major order) as one `f64` per declared
    /// parameter. Chain parameters yield their initial values.
    pub fn point_at(&self, idx: usize) -> Vec<f64> {
        assert!(idx < self.len, "point index {idx} out of range ({} points)", self.len);
        let mut out = vec![0.0f64; self.decls.len()];
        for (d, decl) in self.decls.iter().enumerate() {
            if let Domain::Chain { initial, .. } = &decl.domain {
                out[d] = *initial;
            }
        }
        for (slot, &di) in self.enumerable.iter().enumerate() {
            let card = self.decls[di].domain.cardinality();
            let pos = (idx / self.strides[slot]) % card;
            out[di] = self.decls[di].domain.value_at(pos);
        }
        out
    }

    /// Iterate `(index, point)` over the whole space.
    pub fn iter(&self) -> PointIter<'_> {
        PointIter { space: self, next: 0 }
    }
}

/// Iterator over the points of a [`ParamSpace`].
pub struct PointIter<'a> {
    space: &'a ParamSpace,
    next: usize,
}

impl<'a> Iterator for PointIter<'a> {
    type Item = (usize, Vec<f64>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.space.len() {
            return None;
        }
        let idx = self.next;
        self.next += 1;
        Some((idx, self.space.point_at(idx)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.space.len() - self.next;
        (rem, Some(rem))
    }
}

impl<'a> ExactSizeIterator for PointIter<'a> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn space2() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDecl::range("a", 0, 2, 1),    // 3 values
            ParamDecl::set("b", vec![10, 20]), // 2 values
        ])
    }

    #[test]
    fn oversized_spaces_are_typed_errors() {
        let huge = || ParamDecl::range("x", 0, 4_000_000_000, 1);
        let three = vec![huge(), huge(), huge()];
        assert_eq!(ParamSpace::try_new(three), Err(SpaceError::TooManyPoints));
        let full = ParamDecl::range("w", i64::MIN, i64::MAX, 1);
        assert_eq!(
            ParamSpace::try_new(vec![full]),
            Err(SpaceError::DomainTooLarge { name: "w".into() })
        );
        assert_eq!(
            ParamSpace::try_new(vec![huge(), huge()]).unwrap().len(),
            4_000_000_001 * 4_000_000_001
        );
    }

    #[test]
    fn len_is_product() {
        assert_eq!(space2().len(), 6);
    }

    #[test]
    fn row_major_order_last_dim_fastest() {
        let s = space2();
        let pts: Vec<Vec<f64>> = s.iter().map(|(_, p)| p).collect();
        assert_eq!(pts[0], vec![0.0, 10.0]);
        assert_eq!(pts[1], vec![0.0, 20.0]);
        assert_eq!(pts[2], vec![1.0, 10.0]);
        assert_eq!(pts[5], vec![2.0, 20.0]);
    }

    #[test]
    fn point_at_matches_iter() {
        let s = space2();
        for (i, p) in s.iter() {
            assert_eq!(s.point_at(i), p);
        }
    }

    #[test]
    fn chain_params_carry_initial_value() {
        let s = ParamSpace::new(vec![
            ParamDecl::range("week", 0, 3, 1),
            ParamDecl::chain("release", "release_col", 52.0),
        ]);
        assert_eq!(s.len(), 4, "chain dims are not enumerated");
        for (_, p) in s.iter() {
            assert_eq!(p[1], 52.0);
        }
    }

    #[test]
    fn paper_figure1_space_size() {
        // Figure 1: current_week (53) × purchase1 (14) × purchase2 (14)
        // × feature_release (3) = 31,164 points.
        let s = ParamSpace::new(vec![
            ParamDecl::range("current_week", 0, 52, 1),
            ParamDecl::range("purchase1", 0, 52, 4),
            ParamDecl::range("purchase2", 0, 52, 4),
            ParamDecl::set("feature_release", vec![12, 36, 44]),
        ]);
        assert_eq!(s.len(), 53 * 14 * 14 * 3);
    }

    #[test]
    fn empty_domain_empties_space() {
        let s =
            ParamSpace::new(vec![ParamDecl::range("a", 5, 4, 1), ParamDecl::range("b", 0, 9, 1)]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_at_bounds_checked() {
        let _ = space2().point_at(6);
    }

    #[test]
    fn index_of_and_names() {
        let s = space2();
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("zzz"), None);
        assert_eq!(s.names(), vec!["a", "b"]);
    }

    #[test]
    fn exact_size_iterator() {
        let s = space2();
        let mut it = s.iter();
        assert_eq!(it.len(), 6);
        it.next();
        assert_eq!(it.len(), 5);
    }
}
