//! The naive row-at-a-time, world-major engine.
//!
//! For each possible world, this engine interprets the plan over plain
//! `Vec<Value>` rows — re-scanning base tables, re-evaluating joins with
//! nested loops, and re-grouping aggregates from scratch, exactly the way a
//! quick scripting-language prototype (the paper's Ruby engine) would.
//! Per-world data handling is O(data) every time, and even a one-row
//! scalar query pays the interpreter walk per world (see [`super`] for the
//! measured cost against [`super::DbmsEngine`]).

use std::collections::HashMap;

use crate::bundle::{BundleCell, BundleRow, Presence};
use crate::catalog::Catalog;
use crate::error::{PdbError, Result};
use crate::expr::WorldCtx;
use crate::plan::{AggFunc, AggSpec, BoundPlan, Plan};
use crate::value::{GroupKey, Value};

use super::{Engine, ExecContext};

/// World-major scalar interpreter (the "offline" prototype analog).
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectEngine;

impl DirectEngine {
    /// Create the engine.
    pub fn new() -> Self {
        DirectEngine
    }
}

impl Engine for DirectEngine {
    fn name(&self) -> &str {
        "direct"
    }

    fn execute_rows(
        &self,
        plan: &BoundPlan,
        catalog: &Catalog,
        ctx: &ExecContext<'_>,
    ) -> Result<Vec<BundleRow>> {
        if ctx.columnar {
            return execute_columnar(plan, catalog, ctx);
        }
        // Evaluate every world independently.
        let mut worlds: Vec<Vec<Vec<Value>>> = Vec::with_capacity(ctx.n_worlds);
        for w in 0..ctx.n_worlds {
            let wctx =
                WorldCtx { world: ctx.world_start + w, seeds: &ctx.seeds, params: ctx.params };
            worlds.push(run_world(&plan.plan, catalog, &wctx)?);
        }
        assemble(plan, worlds, ctx.n_worlds)
    }
}

/// Columnar execution: worlds are still interpreted one at a time (that is
/// this engine's nature), but each world's row values stream straight into
/// flat per-(row, uncertain-column) `f64` buffers instead of being gathered
/// through a `BundleCell` enum cell grid — the hot inner loop is a plain
/// `Vec<f64>` push at a precomputed flat index, with no per-cell enum
/// dispatch and no `acc[ri][ci]` double bounds check. Deterministic column
/// values are captured once from world 0. Same values in the same order as
/// [`assemble`], so the output is bit-identical; peak memory stays at the
/// final columns themselves.
fn execute_columnar(
    plan: &BoundPlan,
    catalog: &Catalog,
    ctx: &ExecContext<'_>,
) -> Result<Vec<BundleRow>> {
    let n = ctx.n_worlds;
    let ncols = plan.schema.len();
    // Schema column → slot among the uncertain columns (None = deterministic).
    let mut unc_slot: Vec<Option<usize>> = Vec::with_capacity(ncols);
    let mut n_unc = 0usize;
    for ci in 0..ncols {
        if plan.schema.column(ci).uncertain {
            unc_slot.push(Some(n_unc));
            n_unc += 1;
        } else {
            unc_slot.push(None);
        }
    }
    let mut rows0 = 0usize;
    // `rows0 × n_unc` sample buffers, row-major: row `ri`'s uncertain slot
    // `j` lives at `ri * n_unc + j`.
    let mut stoch: Vec<Vec<f64>> = Vec::new();
    // Per row, the deterministic column values in schema order.
    let mut det: Vec<Vec<Value>> = Vec::new();
    for w in 0..n {
        let wctx = WorldCtx { world: ctx.world_start + w, seeds: &ctx.seeds, params: ctx.params };
        let rows = run_world(&plan.plan, catalog, &wctx)?;
        if w == 0 {
            rows0 = rows.len();
            stoch.reserve_exact(rows0 * n_unc);
            det.reserve_exact(rows0);
            for row in rows {
                let mut drow = Vec::with_capacity(ncols - n_unc);
                for (ci, v) in row.into_iter().enumerate() {
                    if unc_slot[ci].is_some() {
                        let mut xs = Vec::with_capacity(n);
                        xs.push(v.as_f64().unwrap_or(f64::NAN));
                        stoch.push(xs);
                    } else {
                        drow.push(v);
                    }
                }
                det.push(drow);
            }
            continue;
        }
        if rows.len() != rows0 {
            return Err(PdbError::Unsupported(
                "direct engine requires world-uniform result cardinality \
                 (use the dbms engine for stochastic top-level filters)"
                    .into(),
            ));
        }
        for (ri, row) in rows.into_iter().enumerate() {
            let base = ri * n_unc;
            #[cfg(debug_assertions)]
            let mut dj = 0usize;
            for (ci, v) in row.into_iter().enumerate() {
                match unc_slot[ci] {
                    Some(j) => stoch[base + j].push(v.as_f64().unwrap_or(f64::NAN)),
                    None => {
                        #[cfg(debug_assertions)]
                        {
                            debug_assert!(
                                det[ri][dj] == v,
                                "deterministic column varies across worlds"
                            );
                            dj += 1;
                        }
                    }
                }
            }
        }
    }
    let mut out = Vec::with_capacity(rows0);
    let mut stoch = stoch.into_iter();
    for drow in det {
        let mut drow = drow.into_iter();
        let mut cells = Vec::with_capacity(ncols);
        for slot in &unc_slot {
            match slot {
                Some(_) => cells
                    .push(BundleCell::Stoch(stoch.next().expect("one buffer per uncertain cell"))),
                None => cells.push(BundleCell::Det(drow.next().expect("det value captured"))),
            }
        }
        out.push(BundleRow { cells, presence: Presence::All });
    }
    Ok(out)
}

fn run_world(plan: &Plan, catalog: &Catalog, ctx: &WorldCtx<'_>) -> Result<Vec<Vec<Value>>> {
    match plan {
        Plan::Scan { table } => Ok(catalog.table(table)?.rows().to_vec()),
        Plan::OneRow => Ok(vec![vec![]]),
        Plan::Project { input, exprs } => {
            let rows = run_world(input, catalog, ctx)?;
            rows.into_iter()
                .map(|row| exprs.iter().map(|(_, e)| e.eval_scalar(&row, ctx)).collect())
                .collect()
        }
        Plan::Filter { input, pred } => {
            let rows = run_world(input, catalog, ctx)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                if pred.eval_scalar(&row, ctx)?.as_bool() == Some(true) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Plan::Join { left, right, pred } => {
            let l = run_world(left, catalog, ctx)?;
            let r = run_world(right, catalog, ctx)?;
            let mut out = Vec::new();
            for lr in &l {
                for rr in &r {
                    let mut row = lr.clone();
                    row.extend(rr.iter().cloned());
                    match pred {
                        None => out.push(row),
                        Some(p) => {
                            if p.eval_scalar(&row, ctx)?.as_bool() == Some(true) {
                                out.push(row);
                            }
                        }
                    }
                }
            }
            Ok(out)
        }
        // The naive engine has no hash tables: a HashJoin plan degrades to a
        // nested-loop equality join, as a scripting prototype would do.
        Plan::HashJoin { left, right, left_key, right_key } => {
            let l = run_world(left, catalog, ctx)?;
            let r = run_world(right, catalog, ctx)?;
            let ln = l.first().map(|r| r.len()).unwrap_or(0);
            let mut out = Vec::new();
            for lr in &l {
                let lk = left_key.eval_scalar(lr, ctx)?;
                if lk.is_null() {
                    continue;
                }
                for rr in &r {
                    let rk = right_key.eval_scalar(rr, ctx)?;
                    if lk.compare(&rk) == Some(std::cmp::Ordering::Equal) {
                        let mut row = lr.clone();
                        row.extend(rr.iter().cloned());
                        out.push(row);
                    }
                }
            }
            let _ = ln;
            Ok(out)
        }
        Plan::Aggregate { input, group_by, aggs } => {
            let rows = run_world(input, catalog, ctx)?;
            aggregate_world(rows, group_by, aggs, ctx)
        }
        Plan::Sort { input, keys } => {
            let rows = run_world(input, catalog, ctx)?;
            let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = rows
                .into_iter()
                .map(|row| {
                    let ks = keys
                        .iter()
                        .map(|(k, _)| k.eval_scalar(&row, ctx))
                        .collect::<Result<Vec<_>>>()?;
                    Ok((ks, row))
                })
                .collect::<Result<Vec<_>>>()?;
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, (_, desc)) in keys.iter().enumerate() {
                    let ord = a[i].compare(&b[i]).unwrap_or(std::cmp::Ordering::Equal);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(keyed.into_iter().map(|(_, r)| r).collect())
        }
        Plan::Limit { input, n } => {
            let mut rows = run_world(input, catalog, ctx)?;
            rows.truncate(*n);
            Ok(rows)
        }
    }
}

fn aggregate_world(
    rows: Vec<Vec<Value>>,
    group_by: &[(String, crate::expr::Expr)],
    aggs: &[AggSpec],
    ctx: &WorldCtx<'_>,
) -> Result<Vec<Vec<Value>>> {
    struct Acc {
        key_vals: Vec<Value>,
        count: u64,
        sums: Vec<f64>,
        mins: Vec<f64>,
        maxs: Vec<f64>,
    }
    let mut groups: HashMap<Vec<GroupKey>, Acc> = HashMap::new();
    let mut order: Vec<Vec<GroupKey>> = Vec::new();
    for row in rows {
        let mut keys = Vec::with_capacity(group_by.len());
        let mut vals = Vec::with_capacity(group_by.len());
        for (_, k) in group_by {
            let v = k.eval_scalar(&row, ctx)?;
            keys.push(v.group_key());
            vals.push(v);
        }
        // Clone the key only when a group is first seen, not on every row.
        let acc = if groups.contains_key(&keys) {
            groups.get_mut(&keys).expect("checked above")
        } else {
            order.push(keys.clone());
            groups.entry(keys).or_insert(Acc {
                key_vals: vals,
                count: 0,
                sums: vec![0.0; aggs.len()],
                mins: vec![f64::INFINITY; aggs.len()],
                maxs: vec![f64::NEG_INFINITY; aggs.len()],
            })
        };
        acc.count += 1;
        for (i, a) in aggs.iter().enumerate() {
            if let Some(e) = &a.arg {
                let x = e.eval_scalar(&row, ctx)?.as_f64().ok_or_else(|| {
                    PdbError::TypeError(format!("aggregate `{}` over non-numeric", a.name))
                })?;
                acc.sums[i] += x;
                acc.mins[i] = acc.mins[i].min(x);
                acc.maxs[i] = acc.maxs[i].max(x);
            }
        }
    }
    if order.is_empty() && group_by.is_empty() {
        order.push(Vec::new());
        groups.insert(
            Vec::new(),
            Acc {
                key_vals: Vec::new(),
                count: 0,
                sums: vec![0.0; aggs.len()],
                mins: vec![f64::INFINITY; aggs.len()],
                maxs: vec![f64::NEG_INFINITY; aggs.len()],
            },
        );
    }
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let acc = groups.remove(&key).expect("group vanished");
        let mut row = acc.key_vals;
        for (i, a) in aggs.iter().enumerate() {
            row.push(Value::Float(match a.func {
                AggFunc::Count => acc.count as f64,
                AggFunc::Sum => acc.sums[i],
                AggFunc::Avg => {
                    if acc.count == 0 {
                        f64::NAN
                    } else {
                        acc.sums[i] / acc.count as f64
                    }
                }
                AggFunc::Min => {
                    if acc.count == 0 {
                        f64::NAN
                    } else {
                        acc.mins[i]
                    }
                }
                AggFunc::Max => {
                    if acc.count == 0 {
                        f64::NAN
                    } else {
                        acc.maxs[i]
                    }
                }
            }));
        }
        out.push(row);
    }
    Ok(out)
}

/// Re-assemble per-world results into tuple bundles. The naive engine only
/// supports plans whose logical row set is world-invariant (aggregations,
/// projections, deterministic filters) — per-world cardinality differences
/// need presence masks, which row-major representation cannot express.
// Indices address the worlds[w][ri][ci] cube along three axes; iterators
// would obscure the transposition being performed here.
#[allow(clippy::needless_range_loop)]
fn assemble(
    plan: &BoundPlan,
    mut worlds: Vec<Vec<Vec<Value>>>,
    n: usize,
) -> Result<Vec<BundleRow>> {
    let rows0 = worlds[0].len();
    if worlds.iter().any(|w| w.len() != rows0) {
        return Err(PdbError::Unsupported(
            "direct engine requires world-uniform result cardinality \
             (use the dbms engine for stochastic top-level filters)"
                .into(),
        ));
    }
    let mut out = Vec::with_capacity(rows0);
    for ri in 0..rows0 {
        let mut cells = Vec::with_capacity(plan.schema.len());
        for ci in 0..plan.schema.len() {
            if plan.schema.column(ci).uncertain {
                let xs: Vec<f64> =
                    (0..n).map(|w| worlds[w][ri][ci].as_f64().unwrap_or(f64::NAN)).collect();
                cells.push(BundleCell::Stoch(xs));
            } else {
                // Deterministic column: identical across worlds by
                // construction; take world 0 and double-check in debug.
                debug_assert!(
                    (1..n).all(|w| worlds[w][ri][ci] == worlds[0][ri][ci]),
                    "deterministic column varies across worlds"
                );
                cells.push(BundleCell::Det(std::mem::replace(&mut worlds[0][ri][ci], Value::Null)));
            }
        }
        out.push(BundleRow { cells, presence: Presence::All });
    }
    Ok(out)
}
