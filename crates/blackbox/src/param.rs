//! Parameter declarations: the `DECLARE PARAMETER` domains.
//!
//! The paper assumes "a discrete-finite domain for each parameter"
//! (§1, footnote 1). Three domain shapes appear in the query language:
//!
//! ```sql
//! DECLARE PARAMETER @current_week AS RANGE 0 TO 52 STEP BY 1;
//! DECLARE PARAMETER @feature_release AS SET (12, 36, 44);
//! DECLARE PARAMETER @release_week AS CHAIN release_week
//!     FROM @current_week : @current_week - 1 INITIAL VALUE 52;
//! ```

/// The domain of one declared parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Domain {
    /// `RANGE lo TO hi STEP BY step` — the inclusive arithmetic progression
    /// `lo, lo+step, …, ≤ hi`.
    Range {
        /// First value (inclusive).
        lo: i64,
        /// Last permitted value (inclusive if on the progression).
        hi: i64,
        /// Stride; must be positive.
        step: i64,
    },
    /// `SET (v1, v2, …)` — an explicit list of permitted values.
    Set(Vec<i64>),
    /// `CHAIN col FROM … INITIAL VALUE v` — the parameter is fed back from a
    /// result column of the previous Markov step (paper §4.2, Figure 5).
    /// Chain parameters are not enumerated; they evolve during simulation.
    Chain {
        /// Result column whose previous-step value feeds this parameter.
        source: String,
        /// Chain value at step 0.
        initial: f64,
    },
}

impl Domain {
    /// Number of enumerable values. Chains contribute a single slot (their
    /// value is determined by simulation, not enumeration). Panics when
    /// the count does not fit a `usize` (see [`Self::checked_cardinality`]).
    pub fn cardinality(&self) -> usize {
        self.checked_cardinality().expect("domain size overflows usize")
    }

    /// [`Self::cardinality`], or `None` when the count does not fit a
    /// `usize` (a `RANGE` spanning more values than the platform can
    /// address, or one with a non-positive step).
    pub fn checked_cardinality(&self) -> Option<usize> {
        match self {
            Domain::Range { lo, hi, step } => {
                if lo > hi {
                    Some(0)
                } else if *step <= 0 {
                    None
                } else {
                    let span = i128::from(*hi) - i128::from(*lo);
                    usize::try_from(span / i128::from(*step) + 1).ok()
                }
            }
            Domain::Set(vs) => Some(vs.len()),
            Domain::Chain { .. } => Some(1),
        }
    }

    /// The `i`-th value of the domain as `f64`. Panics if out of range or if
    /// the domain is a chain.
    pub fn value_at(&self, i: usize) -> f64 {
        match self {
            Domain::Range { lo, step, .. } => (lo + step * i as i64) as f64,
            Domain::Set(vs) => vs[i] as f64,
            Domain::Chain { .. } => panic!("chain parameters are not enumerable"),
        }
    }

    /// All enumerable values.
    pub fn values(&self) -> Vec<f64> {
        (0..self.cardinality()).map(|i| self.value_at(i)).collect()
    }

    /// True for [`Domain::Chain`].
    pub fn is_chain(&self) -> bool {
        matches!(self, Domain::Chain { .. })
    }
}

/// A declared parameter: name plus domain.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Parameter name without the leading `@`.
    pub name: String,
    /// The value domain.
    pub domain: Domain,
}

impl ParamDecl {
    /// Declare a `RANGE lo TO hi STEP BY step` parameter.
    pub fn range(name: impl Into<String>, lo: i64, hi: i64, step: i64) -> Self {
        assert!(step > 0, "RANGE step must be positive, got {step}");
        ParamDecl { name: name.into(), domain: Domain::Range { lo, hi, step } }
    }

    /// Declare a `SET (…)` parameter.
    pub fn set(name: impl Into<String>, values: impl Into<Vec<i64>>) -> Self {
        let values = values.into();
        assert!(!values.is_empty(), "SET domain must be non-empty");
        ParamDecl { name: name.into(), domain: Domain::Set(values) }
    }

    /// Declare a `CHAIN` parameter.
    pub fn chain(name: impl Into<String>, source: impl Into<String>, initial: f64) -> Self {
        ParamDecl { name: name.into(), domain: Domain::Chain { source: source.into(), initial } }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncountable_range_has_no_cardinality() {
        let full = Domain::Range { lo: i64::MIN, hi: i64::MAX, step: 1 };
        assert_eq!(full.checked_cardinality(), None, "2^64 values overflow usize");
        let halves = Domain::Range { lo: i64::MIN, hi: i64::MAX, step: 2 };
        assert_eq!(halves.checked_cardinality(), Some(1 << 63));
        assert_eq!(Domain::Range { lo: 0, hi: 5, step: 0 }.checked_cardinality(), None);
        assert_eq!(Domain::Range { lo: 5, hi: 0, step: 1 }.checked_cardinality(), Some(0));
    }

    #[test]
    fn range_cardinality_inclusive() {
        // The paper's @current_week: RANGE 0 TO 52 STEP BY 1 → 53 values.
        let d = Domain::Range { lo: 0, hi: 52, step: 1 };
        assert_eq!(d.cardinality(), 53);
        // @purchase1: RANGE 0 TO 52 STEP BY 4 → 14 values (0,4,…,52).
        let d = Domain::Range { lo: 0, hi: 52, step: 4 };
        assert_eq!(d.cardinality(), 14);
        assert_eq!(d.value_at(0), 0.0);
        assert_eq!(d.value_at(13), 52.0);
    }

    #[test]
    fn range_not_landing_on_hi() {
        let d = Domain::Range { lo: 0, hi: 10, step: 4 };
        assert_eq!(d.values(), vec![0.0, 4.0, 8.0]);
    }

    #[test]
    fn empty_range() {
        let d = Domain::Range { lo: 5, hi: 4, step: 1 };
        assert_eq!(d.cardinality(), 0);
    }

    #[test]
    fn set_values_in_declared_order() {
        let d = Domain::Set(vec![12, 36, 44]);
        assert_eq!(d.cardinality(), 3);
        assert_eq!(d.values(), vec![12.0, 36.0, 44.0]);
    }

    #[test]
    fn chain_is_not_enumerable() {
        let d = Domain::Chain { source: "release_week".into(), initial: 52.0 };
        assert!(d.is_chain());
        assert_eq!(d.cardinality(), 1);
    }

    #[test]
    #[should_panic(expected = "not enumerable")]
    fn chain_value_at_panics() {
        let d = Domain::Chain { source: "x".into(), initial: 0.0 };
        let _ = d.value_at(0);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn nonpositive_step_rejected() {
        let _ = ParamDecl::range("w", 0, 10, 0);
    }
}
