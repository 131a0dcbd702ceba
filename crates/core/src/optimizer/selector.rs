//! The Selector: applying `OPTIMIZE` goals to sweep results.
//!
//! The paper's Figure 1 batch query:
//!
//! ```sql
//! OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
//! FROM results
//! WHERE MAX(EXPECT overload) < 0.01
//! GROUP BY feature_release, purchase1, purchase2
//! FOR MAX @purchase1, MAX @purchase2
//! ```
//!
//! Semantics: partition the parameter space by the *decision parameters*
//! (the `GROUP BY` list); within each group, fold the chosen metric of the
//! chosen column over the remaining ("scenario") dimensions with the outer
//! aggregate (`MAX` above); keep groups satisfying the comparison; among
//! survivors pick the lexicographic best under the `FOR` objectives.
//! "Finally, the Selector component selects the parameter value, along with
//! its output distribution, that satisfies the optimization goal." (§2.3)

use std::collections::BTreeSet;

use jigsaw_blackbox::ParamSpace;
use jigsaw_pdb::{Metric, PdbError, Result};

use super::{PointResult, SweepResult};

/// The sketch-then-refine survival rule: which coarse-swept points the
/// refine pass re-runs at full budget.
///
/// A pure function of the coarse sweep table and `refine_top_k` — no wave
/// layout, thread count, or pool backend enters — so survival is
/// bit-stable for a given (config, seed). Three deterministic families
/// survive, unioned:
///
/// 1. **Representatives**: every `⌈N/K⌉`-th point in enumeration order,
///    plus the last point (coverage of every region of the space).
/// 2. **Per-column top frontier**: the `K` highest coarse expectations of
///    each output column.
/// 3. **Per-column bottom frontier**: the `K` lowest, so both optimization
///    directions keep their extremes.
///
/// Ranking uses [`f64::total_cmp`] with ascending `point_idx` as the tie
/// break, so equal coarse expectations (and NaNs) order identically on
/// every run. `refine_top_k >= N` keeps everything — the refine pass then
/// degenerates to the exhaustive sweep.
///
/// Returns surviving `point_idx` values, ascending and deduplicated.
pub fn sketch_frontier(refine_top_k: usize, coarse: &[PointResult]) -> Vec<usize> {
    let n = coarse.len();
    if n == 0 {
        return Vec::new();
    }
    if refine_top_k >= n {
        return coarse.iter().map(|p| p.point_idx).collect();
    }
    let mut keep: BTreeSet<usize> = BTreeSet::new();
    let stride = n.div_ceil(refine_top_k);
    for i in (0..n).step_by(stride) {
        keep.insert(coarse[i].point_idx);
    }
    keep.insert(coarse[n - 1].point_idx);
    let n_cols = coarse[0].metrics.len();
    for c in 0..n_cols {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            coarse[a].metrics[c]
                .expectation()
                .total_cmp(&coarse[b].metrics[c].expectation())
                .then(coarse[a].point_idx.cmp(&coarse[b].point_idx))
        });
        for &i in order.iter().take(refine_top_k) {
            keep.insert(coarse[i].point_idx);
        }
        for &i in order.iter().rev().take(refine_top_k) {
            keep.insert(coarse[i].point_idx);
        }
    }
    keep.into_iter().collect()
}

/// Fold applied across the non-decision dimensions of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OuterAgg {
    /// Worst case (`MAX(EXPECT …)`).
    Max,
    /// Best case.
    Min,
    /// Average case.
    Avg,
}

impl OuterAgg {
    fn fold(&self, xs: impl Iterator<Item = f64>) -> f64 {
        match self {
            OuterAgg::Max => xs.fold(f64::NEG_INFINITY, f64::max),
            OuterAgg::Min => xs.fold(f64::INFINITY, f64::min),
            OuterAgg::Avg => {
                let mut n = 0usize;
                let mut acc = 0.0;
                for x in xs {
                    acc += x;
                    n += 1;
                }
                if n == 0 {
                    f64::NAN
                } else {
                    acc / n as f64
                }
            }
        }
    }
}

/// Comparison in the `WHERE` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Comparison {
    fn test(&self, lhs: f64, rhs: f64) -> bool {
        match self {
            Comparison::Lt => lhs < rhs,
            Comparison::Le => lhs <= rhs,
            Comparison::Gt => lhs > rhs,
            Comparison::Ge => lhs >= rhs,
        }
    }
}

/// The constraint: `OUTER(METRIC(column)) CMP threshold`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Output column name.
    pub column: String,
    /// Per-point metric.
    pub metric: Metric,
    /// Fold across scenario dimensions.
    pub outer: OuterAgg,
    /// Comparison operator.
    pub cmp: Comparison,
    /// Right-hand side.
    pub threshold: f64,
}

/// Optimization direction for one decision parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `FOR MAX @p`.
    Max,
    /// `FOR MIN @p`.
    Min,
}

/// One `FOR` objective.
#[derive(Debug, Clone)]
pub struct Objective {
    /// Decision parameter name.
    pub param: String,
    /// Direction.
    pub direction: Direction,
}

/// A complete `OPTIMIZE` goal.
#[derive(Debug, Clone)]
pub struct OptimizeGoal {
    /// `GROUP BY` parameters (decision variables).
    pub decision_params: Vec<String>,
    /// Constraints (conjunctive).
    pub constraints: Vec<Constraint>,
    /// Lexicographic objectives.
    pub objectives: Vec<Objective>,
}

/// The winning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// `(param name, value)` for each decision parameter.
    pub assignment: Vec<(String, f64)>,
    /// Constraint left-hand sides for the winning group, in constraint
    /// order (e.g. the achieved worst-case overload risk).
    pub achieved: Vec<f64>,
    /// Point indices belonging to the winning group.
    pub member_points: Vec<usize>,
}

/// Strict lexicographic "greater" under `total_cmp` — the objective-key
/// comparison. `Vec<f64>`'s derived `PartialOrd` returns `false` on any
/// NaN comparison, which would silently *keep the incumbent* instead of
/// surfacing the bad key; `total_cmp` has no such trapdoor.
fn lex_gt(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Greater => return true,
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    false
}

/// Apply an `OPTIMIZE` goal to sweep results.
///
/// Returns `Ok(None)` when no group satisfies the constraints. Returns
/// [`PdbError::NanMetric`] when a constraint metric evaluates to NaN for
/// any point of any group: `f64::max`/`min` silently *drop* NaN operands,
/// so without this check a point with an undefined metric (e.g.
/// [`Metric::ProbOver`] over zero samples) would neither fail the
/// constraint nor surface an error — it would just vanish from the fold
/// and let an unvalidated group win.
pub fn select(
    space: &ParamSpace,
    sweep: &SweepResult,
    goal: &OptimizeGoal,
    columns: &[String],
) -> Result<Option<Selection>> {
    let decision_dims: Vec<usize> = goal
        .decision_params
        .iter()
        .map(|p| space.index_of(p).unwrap_or_else(|| panic!("unknown decision parameter @{p}")))
        .collect();
    let col_idx: Vec<usize> = goal
        .constraints
        .iter()
        .map(|c| {
            columns
                .iter()
                .position(|n| *n == c.column)
                .unwrap_or_else(|| panic!("unknown output column `{}`", c.column))
        })
        .collect();

    // Group points by decision-parameter values.
    use std::collections::HashMap;
    let mut groups: HashMap<Vec<u64>, (Vec<f64>, Vec<usize>)> = HashMap::new();
    for (i, pr) in sweep.points.iter().enumerate() {
        let vals: Vec<f64> = decision_dims.iter().map(|&d| pr.point[d]).collect();
        let key: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        groups.entry(key).or_insert_with(|| (vals, Vec::new())).1.push(i);
    }

    // Deterministic group order: HashMap iteration order varies per map
    // instance, and `FOR` objectives need not cover every decision
    // parameter, so equally-good groups can tie. Sorting by the decision
    // values (numeric order, total_cmp) breaks ties toward the smallest
    // unconstrained values and keeps the winner identical across engines
    // and runs.
    let mut ordered: Vec<_> = groups.into_iter().collect();
    ordered.sort_by(|(_, (a, _)), (_, (b, _))| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut best: Option<(Vec<f64>, Selection)> = None;
    for (_, (vals, members)) in ordered {
        // Evaluate each constraint's outer fold over the group.
        let mut achieved = Vec::with_capacity(goal.constraints.len());
        let mut ok = true;
        for (c, &ci) in goal.constraints.iter().zip(&col_idx) {
            // NaN-check every operand *before* the fold: f64::max/min keep
            // the non-NaN operand, so a poisoned point would otherwise be
            // dropped silently instead of reported.
            let mut values = Vec::with_capacity(members.len());
            for &i in &members {
                let x = c.metric.of(&sweep.points[i].metrics[ci]);
                if x.is_nan() {
                    return Err(PdbError::NanMetric(format!(
                        "{:?} of column `{}` at point {} is NaN",
                        c.metric, c.column, sweep.points[i].point_idx
                    )));
                }
                values.push(x);
            }
            let lhs = c.outer.fold(values.into_iter());
            achieved.push(lhs);
            if !c.cmp.test(lhs, c.threshold) {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        // Lexicographic objective key (negated for MIN so larger = better).
        let key: Vec<f64> =
            goal.objectives
                .iter()
                .map(|o| {
                    let d = goal.decision_params.iter().position(|p| *p == o.param).unwrap_or_else(
                        || panic!("objective @{} not a decision parameter", o.param),
                    );
                    match o.direction {
                        Direction::Max => vals[d],
                        Direction::Min => -vals[d],
                    }
                })
                .collect();
        let candidate = Selection {
            assignment: goal.decision_params.iter().cloned().zip(vals.iter().copied()).collect(),
            achieved,
            member_points: members,
        };
        match &best {
            None => best = Some((key, candidate)),
            Some((bk, _)) if lex_gt(&key, bk) => best = Some((key, candidate)),
            _ => {}
        }
    }
    Ok(best.map(|(_, s)| s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JigsawConfig;
    use crate::optimizer::SweepRunner;
    use jigsaw_blackbox::{FnBlackBox, ParamDecl, ParamSpace};
    use jigsaw_pdb::BlackBoxSim;
    use jigsaw_prng::SeedSet;
    use std::sync::Arc;

    /// Deterministic "risk" surface: risk = week/100 unless the purchase
    /// happened at or before week 20, in which case risk collapses to 0.
    fn sim() -> (BlackBoxSim, ParamSpace) {
        let space = ParamSpace::new(vec![
            ParamDecl::range("week", 0, 49, 1),
            ParamDecl::range("purchase", 0, 40, 10),
        ]);
        let bb = FnBlackBox::new("risk", 2, |p: &[f64], _s| {
            let (week, purchase) = (p[0], p[1]);
            if purchase <= 20.0 {
                0.0
            } else if week >= purchase {
                week / 100.0
            } else {
                0.001
            }
        });
        (BlackBoxSim::new(Arc::new(bb), space.clone(), SeedSet::new(5)), space)
    }

    fn goal() -> OptimizeGoal {
        OptimizeGoal {
            decision_params: vec!["purchase".into()],
            constraints: vec![Constraint {
                column: "risk".into(),
                metric: jigsaw_pdb::Metric::Expect,
                outer: OuterAgg::Max,
                cmp: Comparison::Lt,
                threshold: 0.01,
            }],
            objectives: vec![Objective { param: "purchase".into(), direction: Direction::Max }],
        }
    }

    #[test]
    fn picks_latest_safe_purchase() {
        let (sim, space) = sim();
        let cfg = JigsawConfig::paper().with_n_samples(20);
        let sweep = SweepRunner::new(cfg).run(&sim).unwrap();
        let sel =
            select(&space, &sweep, &goal(), &["risk".to_string()]).unwrap().expect("feasible");
        // purchases 0,10,20 are safe; 30,40 breach the threshold for late
        // weeks. FOR MAX @purchase → 20.
        assert_eq!(sel.assignment, vec![("purchase".to_string(), 20.0)]);
        assert!(sel.achieved[0] < 0.01);
        assert_eq!(sel.member_points.len(), 50, "one per week");
    }

    #[test]
    fn infeasible_goal_returns_none() {
        let (sim, space) = sim();
        let cfg = JigsawConfig::paper().with_n_samples(20);
        let sweep = SweepRunner::new(cfg).run(&sim).unwrap();
        let mut g = goal();
        g.constraints[0].threshold = -1.0; // impossible
        assert!(select(&space, &sweep, &g, &["risk".to_string()]).unwrap().is_none());
    }

    #[test]
    fn min_direction_flips_choice() {
        let (sim, space) = sim();
        let cfg = JigsawConfig::paper().with_n_samples(20);
        let sweep = SweepRunner::new(cfg).run(&sim).unwrap();
        let mut g = goal();
        g.objectives[0].direction = Direction::Min;
        let sel = select(&space, &sweep, &g, &["risk".to_string()]).unwrap().unwrap();
        assert_eq!(sel.assignment[0].1, 0.0);
    }

    #[test]
    fn nan_metric_is_a_typed_error_not_a_silent_win() {
        let (sim, space) = sim();
        let cfg = JigsawConfig::paper().with_n_samples(20);
        let mut sweep = SweepRunner::new(cfg).run(&sim).unwrap();
        // Poison one point's metric: ProbOver over zero samples is NaN,
        // exactly the shape an empty-metrics bug upstream would produce.
        sweep.points[7].metrics[0] = jigsaw_pdb::OutputMetrics::from_samples(Vec::new());
        let mut g = goal();
        g.constraints[0].metric = jigsaw_pdb::Metric::ProbOver(0.005);
        let err = select(&space, &sweep, &g, &["risk".to_string()]).unwrap_err();
        match err {
            jigsaw_pdb::PdbError::NanMetric(msg) => {
                assert!(msg.contains("risk"), "names the column: {msg}");
            }
            other => panic!("expected NanMetric, got {other:?}"),
        }
    }

    #[test]
    fn nan_samples_poison_prob_over_and_quantile_as_typed_errors() {
        let (sim, space) = sim();
        let cfg = JigsawConfig::paper().with_n_samples(20);
        let mut sweep = SweepRunner::new(cfg).run(&sim).unwrap();
        let owned = jigsaw_pdb::OutputMetrics::from_samples(vec![1.0, f64::NAN, 3.0, 4.0]);
        // A mapped NaN: 0·∞ appears only once the map is applied.
        let mapped = jigsaw_pdb::OutputMetrics::from_samples(vec![1.0, f64::INFINITY])
            .affine_image(0.0, 0.0);
        for poison in [owned, mapped] {
            sweep.points[7].metrics[0] = poison;
            for metric in [jigsaw_pdb::Metric::ProbOver(2.0), jigsaw_pdb::Metric::Quantile(0.5)] {
                let mut g = goal();
                g.constraints[0].metric = metric;
                match select(&space, &sweep, &g, &["risk".to_string()]) {
                    Err(jigsaw_pdb::PdbError::NanMetric(msg)) => {
                        assert!(msg.contains("point 7"), "{metric:?}: names the point: {msg}");
                    }
                    other => panic!("{metric:?}: expected NanMetric, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn outer_agg_folds() {
        assert_eq!(OuterAgg::Max.fold([1.0, 3.0, 2.0].into_iter()), 3.0);
        assert_eq!(OuterAgg::Min.fold([1.0, 3.0, 2.0].into_iter()), 1.0);
        assert!((OuterAgg::Avg.fold([1.0, 3.0, 2.0].into_iter()) - 2.0).abs() < 1e-12);
        assert!(OuterAgg::Avg.fold(std::iter::empty()).is_nan());
    }

    #[test]
    fn comparisons() {
        assert!(Comparison::Lt.test(1.0, 2.0));
        assert!(!Comparison::Lt.test(2.0, 2.0));
        assert!(Comparison::Le.test(2.0, 2.0));
        assert!(Comparison::Gt.test(3.0, 2.0));
        assert!(Comparison::Ge.test(2.0, 2.0));
    }

    fn coarse_table(expectations: &[f64]) -> Vec<PointResult> {
        expectations
            .iter()
            .enumerate()
            .map(|(i, &e)| PointResult {
                point_idx: i,
                point: vec![i as f64],
                metrics: vec![jigsaw_pdb::OutputMetrics::from_samples(vec![e])],
                reused_from: vec![None],
                coarse: true,
            })
            .collect()
    }

    #[test]
    fn sketch_frontier_keeps_extremes_and_representatives() {
        // 10 points, expectations 0..9 scrambled; K = 2.
        let table = coarse_table(&[4.0, 9.0, 1.0, 7.0, 0.0, 3.0, 8.0, 2.0, 6.0, 5.0]);
        let kept = sketch_frontier(2, &table);
        // Representatives (stride ⌈10/2⌉ = 5): 0, 5, plus last point 9.
        // Bottom 2 by expectation: points 4 (0.0), 2 (1.0).
        // Top 2: points 1 (9.0), 6 (8.0).
        assert_eq!(kept, vec![0, 1, 2, 4, 5, 6, 9]);
    }

    #[test]
    fn sketch_frontier_is_order_independent_and_tie_stable() {
        let table = coarse_table(&[5.0, 5.0, 5.0, 5.0, 5.0, 5.0]);
        let kept = sketch_frontier(2, &table);
        // All expectations tie: ranking falls back to ascending point_idx,
        // so the bottom frontier is {0, 1} and the top frontier {4, 5};
        // representatives (stride 3) add {0, 3} and the last point 5.
        assert_eq!(kept, vec![0, 1, 3, 4, 5]);
        // Shuffling the table rows must not change survival: the rule keys
        // on point_idx and metric values, never on row order.
        let mut shuffled = table.clone();
        shuffled.reverse();
        // Representatives stride over enumeration order, so restore it.
        shuffled.sort_by_key(|p| p.point_idx);
        assert_eq!(sketch_frontier(2, &shuffled), kept);
    }

    #[test]
    fn sketch_frontier_degenerates_to_everything() {
        let table = coarse_table(&[3.0, 1.0, 2.0]);
        assert_eq!(sketch_frontier(3, &table), vec![0, 1, 2]);
        assert_eq!(sketch_frontier(100, &table), vec![0, 1, 2]);
        assert_eq!(sketch_frontier(5, &[]), Vec::<usize>::new());
    }

    #[test]
    fn sketch_frontier_orders_nan_deterministically() {
        let table = coarse_table(&[1.0, f64::NAN, 2.0, f64::NAN, 0.5]);
        let a = sketch_frontier(1, &table);
        let b = sketch_frontier(1, &table);
        // total_cmp sorts NaN above +inf: the top frontier is a NaN point,
        // picked identically on every call.
        assert_eq!(a, b);
        assert!(a.contains(&3), "highest-ranked NaN (larger idx wins rev order): {a:?}");
        assert!(a.contains(&4), "lowest expectation survives: {a:?}");
    }
}
