//! Logical query plans.
//!
//! Plans are built unbound (column/parameter names as strings), then
//! [`Plan::bind`] resolves names, assigns black-box call sites, infers the
//! output schema, and type-checks operator requirements. Both engines
//! consume the same bound plan, which (together with identical seed
//! derivation) guarantees they sample identical possible worlds.

use std::cmp::Ordering;

use crate::catalog::Catalog;
use crate::error::{PdbError, Result};
use crate::expr::Expr;
use crate::schema::{Column, ColumnType, Schema};
use crate::value::Value;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `SUM(expr)`
    Sum,
    /// `COUNT(*)` / `COUNT(expr)`
    Count,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

/// One aggregate in an [`Plan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Output column name.
    pub name: String,
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument; `None` only for `COUNT(*)`.
    pub arg: Option<Expr>,
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a catalog table.
    Scan {
        /// Table name.
        table: String,
    },
    /// A single empty tuple — `SELECT` without `FROM`.
    OneRow,
    /// Projection / computation of named expressions.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// `(output name, expression)` pairs.
        exprs: Vec<(String, Expr)>,
    },
    /// Filter by predicate. Deterministic predicates drop tuples outright;
    /// stochastic predicates become per-world presence masks (MCDB
    /// semantics).
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Boolean predicate.
        pred: Expr,
    },
    /// Nested-loop (theta) join.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Optional join predicate (cross join when `None`).
        pred: Option<Expr>,
    },
    /// Hash equi-join on deterministic keys.
    HashJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Key expression over the left schema (deterministic).
        left_key: Expr,
        /// Key expression over the right schema (deterministic).
        right_key: Expr,
    },
    /// Grouped aggregation. Group keys must be deterministic.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// `(output name, key expression)` pairs; empty for global aggregates.
        group_by: Vec<(String, Expr)>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
    /// Sort by deterministic keys (`true` = descending).
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// `(key expression, descending)` pairs.
        keys: Vec<(Expr, bool)>,
    },
    /// Keep the first `n` tuples.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Tuple budget.
        n: usize,
    },
}

/// A plan bound to a catalog: schemas inferred, names resolved, call sites
/// assigned.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPlan {
    /// The rewritten plan (all `Col`/`Param` resolved to indices).
    pub plan: Plan,
    /// Output schema.
    pub schema: Schema,
    /// Number of distinct black-box call sites in the plan.
    pub n_sites: u64,
}

/// The order of two rows under `ORDER BY keys`, given each row's key values
/// (`(expr, descending)` per key; incomparable values tie).
pub(crate) fn sort_order(keys: &[(Expr, bool)], a: &[Value], b: &[Value]) -> Ordering {
    for (i, (_, desc)) in keys.iter().enumerate() {
        let ord = a[i].compare(&b[i]).unwrap_or(Ordering::Equal);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// The static type of a bound expression over `input`: what the schema of
/// a projection records, and what a boolean connective requires of its
/// operands ([`Expr::bind`]).
pub(crate) fn infer_type(e: &Expr, input: &Schema) -> ColumnType {
    match e {
        Expr::Lit(Value::Bool(_)) => ColumnType::Bool,
        Expr::Lit(Value::Int(_)) => ColumnType::Int,
        Expr::Lit(Value::Str(_)) => ColumnType::Str,
        Expr::ColIdx(i) => input.column(*i).ty,
        Expr::Cmp { .. } | Expr::And(..) | Expr::Or(..) | Expr::Not(_) => ColumnType::Bool,
        Expr::Case { whens, otherwise } => {
            // Type of the first branch (fallback to ELSE).
            whens
                .first()
                .map(|(_, v)| infer_type(v, input))
                .or_else(|| otherwise.as_ref().map(|e| infer_type(e, input)))
                .unwrap_or(ColumnType::Float)
        }
        Expr::Bin { l, r, .. } => {
            if infer_type(l, input) == ColumnType::Int && infer_type(r, input) == ColumnType::Int {
                ColumnType::Int
            } else {
                ColumnType::Float
            }
        }
        Expr::Neg(e) => infer_type(e, input),
        _ => ColumnType::Float,
    }
}

impl Plan {
    /// Convenience: project on top of this plan.
    pub fn project(self, exprs: Vec<(impl Into<String>, Expr)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            exprs: exprs.into_iter().map(|(n, e)| (n.into(), e)).collect(),
        }
    }

    /// Convenience: filter on top of this plan.
    pub fn filter(self, pred: Expr) -> Plan {
        Plan::Filter { input: Box::new(self), pred }
    }

    /// Convenience: global aggregate on top of this plan.
    pub fn aggregate(self, group_by: Vec<(String, Expr)>, aggs: Vec<AggSpec>) -> Plan {
        Plan::Aggregate { input: Box::new(self), group_by, aggs }
    }

    /// Bind the plan: resolve names, assign call sites, infer schemas.
    pub fn bind(&self, catalog: &Catalog, params: &[String]) -> Result<BoundPlan> {
        let mut next_site = 0u64;
        let (plan, schema) = self.bind_rec(catalog, params, &mut next_site)?;
        Ok(BoundPlan { plan, schema, n_sites: next_site })
    }

    fn bind_rec(
        &self,
        catalog: &Catalog,
        params: &[String],
        next_site: &mut u64,
    ) -> Result<(Plan, Schema)> {
        match self {
            Plan::Scan { table } => {
                let t = catalog.table(table)?;
                Ok((Plan::Scan { table: table.clone() }, t.schema().clone()))
            }
            Plan::OneRow => Ok((Plan::OneRow, Schema::default())),
            Plan::Project { input, exprs } => {
                let (inp, in_schema) = input.bind_rec(catalog, params, next_site)?;
                let mut bound = Vec::with_capacity(exprs.len());
                let mut cols = Vec::with_capacity(exprs.len());
                for (name, e) in exprs {
                    let be = e.bind(&in_schema, params, catalog, next_site)?;
                    let uncertain = be.is_stochastic(&in_schema);
                    // A per-world value is held as `f64`, so an uncertain
                    // column is `Float`, except that a boolean stays
                    // `Bool`: connectives over the column still bind.
                    let ty = match infer_type(&be, &in_schema) {
                        ColumnType::Bool => ColumnType::Bool,
                        ty if !uncertain => ty,
                        _ => ColumnType::Float,
                    };
                    cols.push(Column { name: name.clone(), ty, uncertain });
                    bound.push((name.clone(), be));
                }
                Ok((Plan::Project { input: Box::new(inp), exprs: bound }, Schema::new(cols)))
            }
            Plan::Filter { input, pred } => {
                let (inp, in_schema) = input.bind_rec(catalog, params, next_site)?;
                let bp = pred.bind(&in_schema, params, catalog, next_site)?;
                Ok((Plan::Filter { input: Box::new(inp), pred: bp }, in_schema))
            }
            Plan::Join { left, right, pred } => {
                let (l, ls) = left.bind_rec(catalog, params, next_site)?;
                let (r, rs) = right.bind_rec(catalog, params, next_site)?;
                let joint =
                    Schema::new(ls.columns().iter().chain(rs.columns().iter()).cloned().collect());
                let bp = match pred {
                    Some(p) => Some(p.bind(&joint, params, catalog, next_site)?),
                    None => None,
                };
                Ok((Plan::Join { left: Box::new(l), right: Box::new(r), pred: bp }, joint))
            }
            Plan::HashJoin { left, right, left_key, right_key } => {
                let (l, ls) = left.bind_rec(catalog, params, next_site)?;
                let (r, rs) = right.bind_rec(catalog, params, next_site)?;
                let lk = left_key.bind(&ls, params, catalog, next_site)?;
                let rk = right_key.bind(&rs, params, catalog, next_site)?;
                if lk.is_stochastic(&ls) || rk.is_stochastic(&rs) {
                    return Err(PdbError::StochasticNotAllowed("hash-join keys"));
                }
                let joint =
                    Schema::new(ls.columns().iter().chain(rs.columns().iter()).cloned().collect());
                Ok((
                    Plan::HashJoin {
                        left: Box::new(l),
                        right: Box::new(r),
                        left_key: lk,
                        right_key: rk,
                    },
                    joint,
                ))
            }
            Plan::Aggregate { input, group_by, aggs } => {
                let (inp, in_schema) = input.bind_rec(catalog, params, next_site)?;
                let mut cols = Vec::new();
                let mut bound_keys = Vec::with_capacity(group_by.len());
                for (name, k) in group_by {
                    let bk = k.bind(&in_schema, params, catalog, next_site)?;
                    if bk.is_stochastic(&in_schema) {
                        return Err(PdbError::StochasticNotAllowed("group-by keys"));
                    }
                    cols.push(Column {
                        name: name.clone(),
                        ty: infer_type(&bk, &in_schema),
                        uncertain: false,
                    });
                    bound_keys.push((name.clone(), bk));
                }
                let mut bound_aggs = Vec::with_capacity(aggs.len());
                for a in aggs {
                    let arg = match &a.arg {
                        Some(e) => Some(e.bind(&in_schema, params, catalog, next_site)?),
                        None => {
                            if a.func != AggFunc::Count {
                                return Err(PdbError::Unsupported(format!(
                                    "{:?} requires an argument",
                                    a.func
                                )));
                            }
                            None
                        }
                    };
                    // Aggregates over stochastic inputs (or over tuples with
                    // stochastic presence) vary per world, so they are
                    // conservatively marked uncertain.
                    cols.push(Column {
                        name: a.name.clone(),
                        ty: ColumnType::Float,
                        uncertain: true,
                    });
                    bound_aggs.push(AggSpec { name: a.name.clone(), func: a.func, arg });
                }
                Ok((
                    Plan::Aggregate {
                        input: Box::new(inp),
                        group_by: bound_keys,
                        aggs: bound_aggs,
                    },
                    Schema::new(cols),
                ))
            }
            Plan::Sort { input, keys } => {
                let (inp, in_schema) = input.bind_rec(catalog, params, next_site)?;
                let mut bks = Vec::with_capacity(keys.len());
                for (k, desc) in keys {
                    let bk = k.bind(&in_schema, params, catalog, next_site)?;
                    if bk.is_stochastic(&in_schema) {
                        return Err(PdbError::StochasticNotAllowed("sort keys"));
                    }
                    bks.push((bk, *desc));
                }
                Ok((Plan::Sort { input: Box::new(inp), keys: bks }, in_schema))
            }
            Plan::Limit { input, n } => {
                let (inp, s) = input.bind_rec(catalog, params, next_site)?;
                Ok((Plan::Limit { input: Box::new(inp), n: *n }, s))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use jigsaw_blackbox::FnBlackBox;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            TableBuilder::new()
                .column("id", ColumnType::Int)
                .column("w", ColumnType::Float)
                .row(vec![1.into(), 0.5.into()])
                .build(),
        );
        c.add_function(Arc::new(FnBlackBox::new("D", 1, |p: &[f64], _| p[0])));
        c
    }

    #[test]
    fn scan_project_schema() {
        let c = catalog();
        let p = Plan::Scan { table: "t".into() }.project(vec![
            ("id2", Expr::col("id")),
            ("noisy", Expr::call("D", vec![Expr::col("w")])),
        ]);
        let b = p.bind(&c, &[]).unwrap();
        assert_eq!(b.schema.names(), vec!["id2", "noisy"]);
        assert!(!b.schema.column(0).uncertain);
        assert!(b.schema.column(1).uncertain);
        assert_eq!(b.schema.column(0).ty, ColumnType::Int);
        assert_eq!(b.n_sites, 1);
    }

    #[test]
    fn call_sites_count_across_plan() {
        let c = catalog();
        let p = Plan::OneRow.project(vec![
            ("a", Expr::call("D", vec![Expr::lit_f(1.0)])),
            ("b", Expr::call("D", vec![Expr::lit_f(2.0)])),
        ]);
        let b = p.bind(&c, &[]).unwrap();
        assert_eq!(b.n_sites, 2);
    }

    #[test]
    fn aggregate_schema_and_rules() {
        let c = catalog();
        let p = Plan::Scan { table: "t".into() }.aggregate(
            vec![("id".to_string(), Expr::col("id"))],
            vec![AggSpec { name: "total".into(), func: AggFunc::Sum, arg: Some(Expr::col("w")) }],
        );
        let b = p.bind(&c, &[]).unwrap();
        assert_eq!(b.schema.names(), vec!["id", "total"]);
        assert!(b.schema.column(1).uncertain);
    }

    #[test]
    fn stochastic_group_key_rejected() {
        let c = catalog();
        let p = Plan::Scan { table: "t".into() }
            .aggregate(vec![("k".to_string(), Expr::call("D", vec![Expr::col("w")]))], vec![]);
        assert_eq!(p.bind(&c, &[]).unwrap_err(), PdbError::StochasticNotAllowed("group-by keys"));
    }

    #[test]
    fn count_star_allowed_sum_star_rejected() {
        let c = catalog();
        let ok = Plan::Scan { table: "t".into() }
            .aggregate(vec![], vec![AggSpec { name: "n".into(), func: AggFunc::Count, arg: None }]);
        assert!(ok.bind(&c, &[]).is_ok());
        let bad = Plan::Scan { table: "t".into() }
            .aggregate(vec![], vec![AggSpec { name: "s".into(), func: AggFunc::Sum, arg: None }]);
        assert!(matches!(bad.bind(&c, &[]), Err(PdbError::Unsupported(_))));
    }

    #[test]
    fn join_schema_concatenates() {
        let c = catalog();
        let p = Plan::Join {
            left: Box::new(Plan::Scan { table: "t".into() }),
            right: Box::new(Plan::Scan { table: "t".into() }),
            pred: None,
        };
        let b = p.bind(&c, &[]).unwrap();
        assert_eq!(b.schema.len(), 4);
    }

    #[test]
    fn unknown_table_reported() {
        let c = catalog();
        assert!(matches!(
            Plan::Scan { table: "missing".into() }.bind(&c, &[]),
            Err(PdbError::UnknownTable(_))
        ));
    }
}
