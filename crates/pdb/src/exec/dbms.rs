//! The tuple-bundle (MCDB-style) engine.

use std::collections::HashMap;

use jigsaw_blackbox::Workload;

use crate::bundle::{BundleCell, BundleRow, Presence};
use crate::catalog::Catalog;
use crate::error::{PdbError, Result};
use crate::expr::{BatchCtx, Expr};
use crate::plan::{AggFunc, AggSpec, BoundPlan, Plan};
use crate::value::Value;

use super::{Engine, ExecContext};

/// Columnar-across-worlds engine with a configurable per-invocation setup
/// cost (the "online" prototype analog; see [`super`] docs).
#[derive(Debug, Clone, Default)]
pub struct DbmsEngine {
    /// Fixed work burned once per `execute` call, emulating the original
    /// prototype's IPC + SQL parsing/validation overhead per query
    /// invocation.
    pub setup_cost: Workload,
}

impl DbmsEngine {
    /// Engine with no synthetic setup cost.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with the given per-invocation setup cost.
    pub fn with_setup_cost(setup_cost: Workload) -> Self {
        DbmsEngine { setup_cost }
    }
}

impl Engine for DbmsEngine {
    fn name(&self) -> &str {
        "dbms"
    }

    // Nodes pass bare rows: expressions are bound by index, so only the
    // plan's inferred schema (attached by [`Engine::execute`]) names the
    // columns, and an execution builds no schema at all.
    fn execute_rows(
        &self,
        plan: &BoundPlan,
        catalog: &Catalog,
        ctx: &ExecContext<'_>,
    ) -> Result<Vec<BundleRow>> {
        self.setup_cost.burn();
        run(&plan.plan, catalog, ctx)
    }
}

fn run(plan: &Plan, catalog: &Catalog, ctx: &ExecContext<'_>) -> Result<Vec<BundleRow>> {
    match plan {
        Plan::Scan { table } => {
            Ok(catalog.table(table)?.rows().iter().map(|row| BundleRow::det(row.clone())).collect())
        }
        Plan::OneRow => Ok(vec![BundleRow { cells: vec![], presence: Presence::All }]),
        Plan::Project { input, exprs } => {
            let mut rows = run(input, catalog, ctx)?;
            let bctx = batch_ctx(ctx);
            // Each row is rewritten in place: its presence mask stays put
            // and the row vector is reused.
            for row in &mut rows {
                row.cells = exprs
                    .iter()
                    .map(|(_, e)| e.eval_bundle(row, &bctx))
                    .collect::<Result<Vec<_>>>()?;
            }
            Ok(rows)
        }
        Plan::Filter { input, pred } => {
            let mut rows = run(input, catalog, ctx)?;
            let bctx = batch_ctx(ctx);
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows.drain(..) {
                match pred.eval_bundle(&row, &bctx)? {
                    BundleCell::Det(v) => {
                        if v.as_bool() == Some(true) {
                            kept.push(row);
                        }
                    }
                    BundleCell::Stoch(xs) => {
                        let mask: Vec<bool> = xs.iter().map(|&x| x != 0.0 && !x.is_nan()).collect();
                        if mask.iter().any(|&b| b) {
                            let presence = row.presence.and(&Presence::Mask(mask), ctx.n_worlds);
                            kept.push(BundleRow { cells: row.cells, presence });
                        }
                    }
                }
            }
            Ok(kept)
        }
        Plan::Join { left, right, pred } => {
            let l = run(left, catalog, ctx)?;
            let r = run(right, catalog, ctx)?;
            let bctx = batch_ctx(ctx);
            let mut out = Vec::new();
            for lr in &l {
                for rr in &r {
                    let presence = lr.presence.and(&rr.presence, ctx.n_worlds);
                    if presence.count(ctx.n_worlds) == 0 {
                        continue;
                    }
                    let mut cells = lr.cells.clone();
                    cells.extend(rr.cells.iter().cloned());
                    let row = BundleRow { cells, presence };
                    match pred {
                        None => out.push(row),
                        Some(p) => match p.eval_bundle(&row, &bctx)? {
                            BundleCell::Det(v) => {
                                if v.as_bool() == Some(true) {
                                    out.push(row);
                                }
                            }
                            BundleCell::Stoch(xs) => {
                                let mask: Vec<bool> =
                                    xs.iter().map(|&x| x != 0.0 && !x.is_nan()).collect();
                                if mask.iter().any(|&b| b) {
                                    let presence =
                                        row.presence.and(&Presence::Mask(mask), ctx.n_worlds);
                                    out.push(BundleRow { cells: row.cells, presence });
                                }
                            }
                        },
                    }
                }
            }
            Ok(out)
        }
        Plan::HashJoin { left, right, left_key, right_key } => {
            let l = run(left, catalog, ctx)?;
            let r = run(right, catalog, ctx)?;
            let bctx = batch_ctx(ctx);
            // Build on the right.
            let mut table: HashMap<crate::value::GroupKey, Vec<usize>> = HashMap::new();
            for (i, rr) in r.iter().enumerate() {
                let key = det_value(right_key.eval_bundle(rr, &bctx)?)?;
                table.entry(key.group_key()).or_default().push(i);
            }
            let mut out = Vec::new();
            for lr in &l {
                let key = det_value(left_key.eval_bundle(lr, &bctx)?)?;
                if key.is_null() {
                    continue; // SQL: NULL keys never join
                }
                if let Some(matches) = table.get(&key.group_key()) {
                    for &ri in matches {
                        let rr = &r[ri];
                        let presence = lr.presence.and(&rr.presence, ctx.n_worlds);
                        if presence.count(ctx.n_worlds) == 0 {
                            continue;
                        }
                        let mut cells = lr.cells.clone();
                        cells.extend(rr.cells.iter().cloned());
                        out.push(BundleRow { cells, presence });
                    }
                }
            }
            Ok(out)
        }
        Plan::Aggregate { input, group_by, aggs } => {
            let rows = run(input, catalog, ctx)?;
            let bctx = batch_ctx(ctx);
            aggregate(&rows, group_by, aggs, &bctx, ctx)
        }
        Plan::Sort { input, keys } => {
            let rows = run(input, catalog, ctx)?;
            let bctx = batch_ctx(ctx);
            let mut keyed: Vec<(Vec<Value>, BundleRow)> = rows
                .into_iter()
                .map(|row| {
                    let ks = keys
                        .iter()
                        .map(|(k, _)| det_value(k.eval_bundle(&row, &bctx)?))
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
            let mut rows = run(input, catalog, ctx)?;
            rows.truncate(*n);
            Ok(rows)
        }
    }
}

fn batch_ctx<'a>(ctx: &'a ExecContext<'_>) -> BatchCtx<'a> {
    BatchCtx {
        world_start: ctx.world_start,
        n_worlds: ctx.n_worlds,
        seeds: &ctx.seeds,
        params: ctx.params,
        columnar: ctx.columnar,
    }
}

fn det_value(cell: BundleCell) -> Result<Value> {
    match cell {
        BundleCell::Det(v) => Ok(v),
        BundleCell::Stoch(_) => Err(PdbError::StochasticNotAllowed("this key")),
    }
}

fn aggregate(
    inp: &[BundleRow],
    group_by: &[(String, Expr)],
    aggs: &[AggSpec],
    bctx: &BatchCtx<'_>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<BundleRow>> {
    let n = ctx.n_worlds;
    // Group rows by deterministic keys.
    let mut groups: HashMap<Vec<crate::value::GroupKey>, (Vec<Value>, Vec<usize>)> = HashMap::new();
    let mut order: Vec<Vec<crate::value::GroupKey>> = Vec::new();
    for (ri, row) in inp.iter().enumerate() {
        let mut keys = Vec::with_capacity(group_by.len());
        let mut vals = Vec::with_capacity(group_by.len());
        for (_, k) in group_by {
            let v = det_value(k.eval_bundle(row, bctx)?)?;
            keys.push(v.group_key());
            vals.push(v);
        }
        // Clone the key only when a group is first seen, not on every row.
        if let Some(g) = groups.get_mut(&keys) {
            g.1.push(ri);
        } else {
            order.push(keys.clone());
            groups.insert(keys, (vals, vec![ri]));
        }
    }
    // Global aggregate over empty input still yields one row.
    if groups.is_empty() && group_by.is_empty() {
        order.push(Vec::new());
        groups.insert(Vec::new(), (Vec::new(), Vec::new()));
    }

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let (vals, row_ids) = groups.remove(&key).expect("group vanished");
        let mut cells: Vec<BundleCell> = vals.into_iter().map(BundleCell::Det).collect();
        for a in aggs {
            cells.push(eval_agg(a, &row_ids, inp, bctx, n)?);
        }
        out.push(BundleRow { cells, presence: Presence::All });
    }
    Ok(out)
}

/// An aggregate argument viewed once per row: a constant scalar or a
/// contiguous per-world column. Pre-classifying removes the per-world
/// `BundleCell` dispatch from the columnar accumulation loops.
enum AggView<'a> {
    Const(f64),
    Col(&'a [f64]),
}

fn agg_view<'a>(c: &'a BundleCell, spec: &AggSpec) -> Result<AggView<'a>> {
    match c {
        BundleCell::Det(v) => Ok(AggView::Const(v.as_f64().ok_or_else(|| {
            PdbError::TypeError(format!("aggregate `{}` over non-numeric", spec.name))
        })?)),
        BundleCell::Stoch(xs) => Ok(AggView::Col(xs)),
    }
}

/// Columnar accumulation of one row into the aggregate state. Performs the
/// same operations in the same order as the per-world oracle loop in
/// [`eval_agg`], so the finished accumulators are bit-identical; rows whose
/// presence mask covers every world run plain slice loops.
fn accumulate_columnar(
    spec: &AggSpec,
    row: &BundleRow,
    cell: Option<&BundleCell>,
    acc: &mut [f64],
    counts: &mut [u64],
    n: usize,
) -> Result<()> {
    match &row.presence {
        Presence::All => {
            for c in counts.iter_mut() {
                *c += 1;
            }
            if let Some(c) = cell {
                match (spec.func, agg_view(c, spec)?) {
                    (AggFunc::Count, _) => {}
                    (AggFunc::Sum | AggFunc::Avg, AggView::Col(xs)) => {
                        acc.iter_mut().zip(xs).for_each(|(a, &x)| *a += x)
                    }
                    (AggFunc::Sum | AggFunc::Avg, AggView::Const(x)) => {
                        acc.iter_mut().for_each(|a| *a += x)
                    }
                    (AggFunc::Min, AggView::Col(xs)) => {
                        acc.iter_mut().zip(xs).for_each(|(a, &x)| *a = a.min(x))
                    }
                    (AggFunc::Min, AggView::Const(x)) => acc.iter_mut().for_each(|a| *a = a.min(x)),
                    (AggFunc::Max, AggView::Col(xs)) => {
                        acc.iter_mut().zip(xs).for_each(|(a, &x)| *a = a.max(x))
                    }
                    (AggFunc::Max, AggView::Const(x)) => acc.iter_mut().for_each(|a| *a = a.max(x)),
                }
            }
        }
        Presence::Mask(m) => {
            let Some(c) = cell else {
                for (w, &p) in m.iter().enumerate().take(n) {
                    if p {
                        counts[w] += 1;
                    }
                }
                return Ok(());
            };
            // Match the oracle's error behavior: a non-numeric argument only
            // matters on worlds where the row exists.
            if !m.iter().take(n).any(|&b| b) {
                return Ok(());
            }
            match agg_view(c, spec)? {
                AggView::Const(x) => {
                    for (w, &p) in m.iter().enumerate().take(n) {
                        if !p {
                            continue;
                        }
                        counts[w] += 1;
                        match spec.func {
                            AggFunc::Sum | AggFunc::Avg => acc[w] += x,
                            AggFunc::Min => acc[w] = acc[w].min(x),
                            AggFunc::Max => acc[w] = acc[w].max(x),
                            AggFunc::Count => {}
                        }
                    }
                }
                AggView::Col(xs) => {
                    for (w, &p) in m.iter().enumerate().take(n) {
                        if !p {
                            continue;
                        }
                        counts[w] += 1;
                        match spec.func {
                            AggFunc::Sum | AggFunc::Avg => acc[w] += xs[w],
                            AggFunc::Min => acc[w] = acc[w].min(xs[w]),
                            AggFunc::Max => acc[w] = acc[w].max(xs[w]),
                            AggFunc::Count => {}
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

fn eval_agg(
    spec: &AggSpec,
    rows: &[usize],
    inp: &[BundleRow],
    bctx: &BatchCtx<'_>,
    n: usize,
) -> Result<BundleCell> {
    let mut acc: Vec<f64> = match spec.func {
        AggFunc::Min => vec![f64::INFINITY; n],
        AggFunc::Max => vec![f64::NEG_INFINITY; n],
        _ => vec![0.0; n],
    };
    let mut counts = vec![0u64; n];
    for &ri in rows {
        let row = &inp[ri];
        let cell = match &spec.arg {
            Some(e) => Some(e.eval_bundle(row, bctx)?),
            None => None,
        };
        if bctx.columnar {
            accumulate_columnar(spec, row, cell.as_ref(), &mut acc, &mut counts, n)?;
            continue;
        }
        for w in 0..n {
            if !row.presence.at(w) {
                continue;
            }
            counts[w] += 1;
            if let Some(c) = &cell {
                let x = c.f64_at(w).ok_or_else(|| {
                    PdbError::TypeError(format!("aggregate `{}` over non-numeric", spec.name))
                })?;
                match spec.func {
                    AggFunc::Sum | AggFunc::Avg => acc[w] += x,
                    AggFunc::Min => acc[w] = acc[w].min(x),
                    AggFunc::Max => acc[w] = acc[w].max(x),
                    AggFunc::Count => {}
                }
            }
        }
    }
    let out: Vec<f64> = (0..n)
        .map(|w| match spec.func {
            AggFunc::Count => counts[w] as f64,
            AggFunc::Sum => acc[w],
            AggFunc::Avg => {
                if counts[w] == 0 {
                    f64::NAN
                } else {
                    acc[w] / counts[w] as f64
                }
            }
            AggFunc::Min | AggFunc::Max => {
                if counts[w] == 0 {
                    f64::NAN
                } else {
                    acc[w]
                }
            }
        })
        .collect();
    Ok(BundleCell::Stoch(out))
}
