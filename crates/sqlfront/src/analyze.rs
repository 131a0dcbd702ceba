//! Semantic analysis: AST → parameter spaces, PDB plans, optimizer goals.

use jigsaw_blackbox::{ParamDecl, ParamSpace};
use jigsaw_core::optimizer::{
    Comparison, Constraint, Direction, Objective, OptimizeGoal, OuterAgg,
};
use jigsaw_pdb::{AggFunc, AggSpec, Catalog, Expr as PExpr, Metric, Plan};

use crate::ast::*;
use crate::error::{Result, SqlError};

/// Chain metadata extracted from a `CHAIN` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainInfo {
    /// The chain parameter name (`@release_week`).
    pub param: String,
    /// The result column that feeds the chain.
    pub source_column: String,
    /// The step parameter (`@current_week`).
    pub step_param: String,
    /// Initial chain value.
    pub initial: f64,
}

/// Lower declarations into a parameter space, extracting chain metadata.
pub fn analyze_declares(decls: &[&DeclareStmt]) -> Result<(ParamSpace, Option<ChainInfo>)> {
    let mut params = Vec::with_capacity(decls.len());
    let mut chain = None;
    for d in decls {
        match &d.domain {
            DomainAst::Range { lo, hi, step } => {
                if *step <= 0 {
                    return Err(SqlError::Analyze(format!(
                        "@{}: STEP BY must be positive",
                        d.name
                    )));
                }
                params.push(ParamDecl::range(d.name.clone(), *lo, *hi, *step));
            }
            DomainAst::Set(vs) => {
                if vs.is_empty() {
                    return Err(SqlError::Analyze(format!("@{}: SET must be non-empty", d.name)));
                }
                params.push(ParamDecl::set(d.name.clone(), vs.clone()));
            }
            DomainAst::Chain { source, step_param, initial } => {
                if chain.is_some() {
                    return Err(SqlError::Analyze(
                        "at most one CHAIN parameter is supported".into(),
                    ));
                }
                chain = Some(ChainInfo {
                    param: d.name.clone(),
                    source_column: source.clone(),
                    step_param: step_param.clone(),
                    initial: *initial,
                });
                params.push(ParamDecl::chain(d.name.clone(), source.clone(), *initial));
            }
        }
    }
    let space = ParamSpace::try_new(params).map_err(|e| SqlError::Analyze(e.to_string()))?;
    Ok((space, chain))
}

/// Is this call head an aggregate function?
fn agg_func(name: &str) -> Option<AggFunc> {
    match name.to_ascii_uppercase().as_str() {
        "SUM" => Some(AggFunc::Sum),
        "COUNT" => Some(AggFunc::Count),
        "AVG" => Some(AggFunc::Avg),
        "MIN" => Some(AggFunc::Min),
        "MAX" => Some(AggFunc::Max),
        _ => None,
    }
}

fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::CountStar => true,
        Expr::Call { name, args } => {
            agg_func(name).is_some() || args.iter().any(contains_aggregate)
        }
        Expr::Bin { l, r, .. } | Expr::Cmp { l, r, .. } => {
            contains_aggregate(l) || contains_aggregate(r)
        }
        Expr::And(l, r) | Expr::Or(l, r) => contains_aggregate(l) || contains_aggregate(r),
        Expr::Not(e) | Expr::Neg(e) => contains_aggregate(e),
        Expr::Case { whens, otherwise } => {
            whens.iter().any(|(c, v)| contains_aggregate(c) || contains_aggregate(v))
                || otherwise.as_ref().map(|e| contains_aggregate(e)).unwrap_or(false)
        }
        _ => false,
    }
}

/// Column names an expression references.
fn referenced_columns(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Col(c) => out.push(c.clone()),
        Expr::Call { args, .. } => args.iter().for_each(|a| referenced_columns(a, out)),
        Expr::Bin { l, r, .. } | Expr::Cmp { l, r, .. } => {
            referenced_columns(l, out);
            referenced_columns(r, out);
        }
        Expr::And(l, r) | Expr::Or(l, r) => {
            referenced_columns(l, out);
            referenced_columns(r, out);
        }
        Expr::Not(e) | Expr::Neg(e) => referenced_columns(e, out),
        Expr::Case { whens, otherwise } => {
            for (c, v) in whens {
                referenced_columns(c, out);
                referenced_columns(v, out);
            }
            if let Some(e) = otherwise {
                referenced_columns(e, out);
            }
        }
        _ => {}
    }
}

/// Lower an AST expression to a PDB expression (aggregates rejected here;
/// they are peeled off at the select-item level).
fn lower_expr(e: &Expr) -> Result<PExpr> {
    Ok(match e {
        Expr::Int(v) => PExpr::lit_i(*v),
        Expr::Float(v) => PExpr::lit_f(*v),
        Expr::Str(s) => PExpr::Lit(jigsaw_pdb::Value::Str(s.clone())),
        Expr::Bool(b) => PExpr::Lit(jigsaw_pdb::Value::Bool(*b)),
        Expr::Null => PExpr::Lit(jigsaw_pdb::Value::Null),
        Expr::Col(c) => PExpr::col(c.clone()),
        Expr::Param(p) => PExpr::param(p.clone()),
        Expr::CountStar => {
            return Err(SqlError::Analyze("COUNT(*) is only valid as a select item".into()))
        }
        Expr::Call { name, args } => {
            if agg_func(name).is_some() {
                return Err(SqlError::Analyze(format!(
                    "aggregate {name}(…) must be a top-level select item"
                )));
            }
            PExpr::call(name.clone(), args.iter().map(lower_expr).collect::<Result<Vec<_>>>()?)
        }
        Expr::Bin { op, l, r } => PExpr::bin(*op, lower_expr(l)?, lower_expr(r)?),
        Expr::Cmp { op, l, r } => PExpr::cmp(*op, lower_expr(l)?, lower_expr(r)?),
        Expr::And(l, r) => PExpr::And(Box::new(lower_expr(l)?), Box::new(lower_expr(r)?)),
        Expr::Or(l, r) => PExpr::Or(Box::new(lower_expr(l)?), Box::new(lower_expr(r)?)),
        Expr::Not(e) => PExpr::Not(Box::new(lower_expr(e)?)),
        Expr::Neg(e) => PExpr::Neg(Box::new(lower_expr(e)?)),
        Expr::Case { whens, otherwise } => PExpr::Case {
            whens: whens
                .iter()
                .map(|(c, v)| Ok((lower_expr(c)?, lower_expr(v)?)))
                .collect::<Result<Vec<_>>>()?,
            otherwise: match otherwise {
                Some(e) => Some(Box::new(lower_expr(e)?)),
                None => None,
            },
        },
    })
}

/// Output column name for select item `i`.
fn item_name(item: &SelectItem, i: usize) -> String {
    item.alias.clone().unwrap_or_else(|| match &item.expr {
        Expr::Col(c) => c.clone(),
        Expr::Call { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col{i}"),
    })
}

/// Lower a `SELECT` statement to a logical plan.
///
/// Supports the paper's dialect conveniences:
/// * select items may reference *earlier sibling aliases* (Figure 1's
///   `CASE WHEN capacity < demand …`), realized as cascading projections;
/// * aggregates (`SUM`/`COUNT`/`AVG`/`MIN`/`MAX`) as top-level items with
///   `GROUP BY` on deterministic columns.
pub fn lower_select(stmt: &SelectStmt, catalog: &Catalog) -> Result<Plan> {
    // Source.
    let (input, input_columns): (Plan, Vec<String>) = match &stmt.from {
        None => (Plan::OneRow, vec![]),
        Some(FromClause::Table(t)) => {
            let table = catalog.table(t)?;
            let cols = table.schema().names().into_iter().map(String::from).collect();
            (Plan::Scan { table: t.clone() }, cols)
        }
        Some(FromClause::Subquery(sub)) => {
            let plan = lower_select(sub, catalog)?;
            let cols = sub.items.iter().enumerate().map(|(i, it)| item_name(it, i)).collect();
            (plan, cols)
        }
    };

    // WHERE applies over the source columns.
    let input = match &stmt.where_clause {
        Some(pred) => input.filter(lower_expr(pred)?),
        None => input,
    };

    let has_agg = stmt.items.iter().any(|it| contains_aggregate(&it.expr));
    if has_agg {
        let group_by: Vec<(String, PExpr)> =
            stmt.group_by.iter().map(|g| (g.clone(), PExpr::col(g.clone()))).collect();
        let mut aggs = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            let name = item_name(item, i);
            match &item.expr {
                Expr::CountStar => aggs.push(AggSpec { name, func: AggFunc::Count, arg: None }),
                Expr::Call { name: fname, args } if agg_func(fname).is_some() => {
                    if args.len() != 1 {
                        return Err(SqlError::Analyze(format!(
                            "{fname} takes exactly one argument"
                        )));
                    }
                    aggs.push(AggSpec {
                        name,
                        func: agg_func(fname).expect("checked"),
                        arg: Some(lower_expr(&args[0])?),
                    });
                }
                Expr::Col(c) if stmt.group_by.contains(c) => {
                    // Emitted through the group-by key list.
                }
                other => {
                    return Err(SqlError::Analyze(format!(
                        "select item `{other:?}` in an aggregate query must be an aggregate \
                         or a GROUP BY column"
                    )))
                }
            }
        }
        return Ok(input.aggregate(group_by, aggs));
    }

    // Non-aggregate: cascade projections so items may reference earlier
    // sibling aliases.
    let names: Vec<String> =
        stmt.items.iter().enumerate().map(|(i, it)| item_name(it, i)).collect();
    let mut depth = vec![0usize; stmt.items.len()];
    for (i, item) in stmt.items.iter().enumerate() {
        let mut refs = Vec::new();
        referenced_columns(&item.expr, &mut refs);
        for r in refs {
            if let Some(j) = names[..i].iter().position(|n| *n == r) {
                depth[i] = depth[i].max(depth[j] + 1);
            } else if !input_columns.contains(&r) {
                return Err(SqlError::Analyze(format!("unknown column `{r}`")));
            }
        }
    }
    let max_depth = depth.iter().copied().max().unwrap_or(0);
    let mut plan = input;
    for d in 0..=max_depth {
        let mut exprs: Vec<(String, PExpr)> = Vec::new();
        if d < max_depth {
            // Intermediate layer: keep the original input columns visible
            // for later layers, then the items computed so far.
            for c in &input_columns {
                exprs.push((c.clone(), PExpr::col(c.clone())));
            }
        }
        for (i, item) in stmt.items.iter().enumerate() {
            if depth[i] == d {
                exprs.push((names[i].clone(), lower_expr(&item.expr)?));
            } else if depth[i] < d {
                exprs.push((names[i].clone(), PExpr::col(names[i].clone())));
            }
        }
        plan = plan.project(exprs);
    }
    // The final layer must present items in declaration order.
    if max_depth > 0 {
        let reorder: Vec<(String, PExpr)> =
            names.iter().map(|n| (n.clone(), PExpr::col(n.clone()))).collect();
        plan = plan.project(reorder);
    }
    Ok(plan)
}

/// Lower an `OPTIMIZE` statement to an optimizer goal.
pub fn lower_optimize(stmt: &OptimizeStmt) -> Result<OptimizeGoal> {
    let decision_params =
        if stmt.group_by.is_empty() { stmt.select_params.clone() } else { stmt.group_by.clone() };
    let constraints = stmt
        .constraints
        .iter()
        .map(|c| {
            Ok(Constraint {
                column: c.column.clone(),
                metric: match c.metric {
                    MetricAst::Expect => Metric::Expect,
                    MetricAst::StdDev => Metric::StdDev,
                },
                outer: match c.outer {
                    OuterAggAst::Max => OuterAgg::Max,
                    OuterAggAst::Min => OuterAgg::Min,
                    OuterAggAst::Avg => OuterAgg::Avg,
                },
                cmp: match c.cmp {
                    CmpOp::Lt => Comparison::Lt,
                    CmpOp::Le => Comparison::Le,
                    CmpOp::Gt => Comparison::Gt,
                    CmpOp::Ge => Comparison::Ge,
                    other => {
                        return Err(SqlError::Analyze(format!(
                            "constraint comparison {other:?} not supported"
                        )))
                    }
                },
                threshold: c.threshold,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let objectives = stmt
        .objectives
        .iter()
        .map(|o| Objective {
            param: o.param.clone(),
            direction: if o.maximize { Direction::Max } else { Direction::Min },
        })
        .collect();
    Ok(OptimizeGoal { decision_params, constraints, objectives })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script;
    use jigsaw_blackbox::FnBlackBox;
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_function(Arc::new(FnBlackBox::new("DemandModel", 2, |p: &[f64], _| p[0])));
        c.add_function(Arc::new(FnBlackBox::new("CapacityModel", 3, |p: &[f64], _| p[0])));
        c
    }

    #[test]
    fn declares_to_space() {
        let script = parse_script(
            "DECLARE PARAMETER @w AS RANGE 0 TO 9 STEP BY 1;
             DECLARE PARAMETER @f AS SET (1,2,3);",
        )
        .unwrap();
        let decls: Vec<_> = script.declares().collect();
        let (space, chain) = analyze_declares(&decls).unwrap();
        assert_eq!(space.len(), 30);
        assert!(chain.is_none());
    }

    #[test]
    fn oversized_space_is_an_analysis_error() {
        let script = parse_script(
            "DECLARE PARAMETER @a AS RANGE 0 TO 4000000000 STEP BY 1;
             DECLARE PARAMETER @b AS RANGE 0 TO 4000000000 STEP BY 1;
             DECLARE PARAMETER @c AS RANGE 0 TO 4000000000 STEP BY 1;",
        )
        .unwrap();
        let decls: Vec<_> = script.declares().collect();
        match analyze_declares(&decls) {
            Err(SqlError::Analyze(msg)) => assert!(msg.contains("more points"), "{msg}"),
            other => panic!("expected an analysis error, got {other:?}"),
        }
    }

    #[test]
    fn chain_extraction() {
        let script = parse_script(
            "DECLARE PARAMETER @w AS RANGE 0 TO 9 STEP BY 1;
             DECLARE PARAMETER @r AS CHAIN rel FROM @w : @w - 1 INITIAL VALUE 9;",
        )
        .unwrap();
        let decls: Vec<_> = script.declares().collect();
        let (space, chain) = analyze_declares(&decls).unwrap();
        let chain = chain.unwrap();
        assert_eq!(chain.param, "r");
        assert_eq!(chain.source_column, "rel");
        assert_eq!(chain.step_param, "w");
        assert_eq!(space.len(), 10, "chain dim not enumerated");
    }

    #[test]
    fn figure1_select_lowers_with_sibling_aliases() {
        let script = parse_script(
            "SELECT DemandModel(@w, @f) AS demand,
                    CapacityModel(@w, @p1, @p2) AS capacity,
                    CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
             INTO results",
        )
        .unwrap();
        let plan = lower_select(script.scenario().unwrap(), &catalog()).unwrap();
        let params: Vec<String> = ["w", "f", "p1", "p2"].iter().map(|s| s.to_string()).collect();
        let bound = plan.bind(&catalog(), &params).unwrap();
        assert_eq!(bound.schema.names(), vec!["demand", "capacity", "overload"]);
        assert!(bound.schema.column(2).uncertain);
        assert_eq!(bound.n_sites, 2);
    }

    #[test]
    fn aggregate_lowering() {
        let mut cat = catalog();
        cat.add_table(
            "users",
            jigsaw_pdb::TableBuilder::new()
                .column("class", jigsaw_pdb::ColumnType::Int)
                .column("base", jigsaw_pdb::ColumnType::Float)
                .row(vec![1.into(), 1.0.into()])
                .row(vec![1.into(), 2.0.into()])
                .row(vec![2.into(), 5.0.into()])
                .build(),
        );
        let script = parse_script(
            "SELECT class, SUM(base) AS total, COUNT(*) AS n FROM users GROUP BY class INTO out",
        )
        .unwrap();
        let plan = lower_select(script.scenario().unwrap(), &cat).unwrap();
        let bound = plan.bind(&cat, &[]).unwrap();
        assert_eq!(bound.schema.names(), vec!["class", "total", "n"]);
    }

    #[test]
    fn unknown_column_caught_early() {
        let script = parse_script("SELECT nope AS x INTO out").unwrap();
        let err = lower_select(script.scenario().unwrap(), &catalog()).unwrap_err();
        assert!(err.to_string().contains("unknown column"), "{err}");
    }

    #[test]
    fn nonaggregate_item_in_group_query_rejected() {
        let mut cat = catalog();
        cat.add_table(
            "t",
            jigsaw_pdb::TableBuilder::new().column("a", jigsaw_pdb::ColumnType::Int).build(),
        );
        let script = parse_script("SELECT a, SUM(a) AS s FROM t INTO out").unwrap();
        // `a` is not in GROUP BY.
        assert!(lower_select(script.scenario().unwrap(), &cat).is_err());
    }

    #[test]
    fn optimize_lowering() {
        let script = parse_script(
            "OPTIMIZE SELECT @f, @p1 FROM results
             WHERE MAX(EXPECT overload) < 0.01 AND MIN(EXPECT capacity) >= 100
             GROUP BY f, p1
             FOR MAX @p1, MIN @f",
        )
        .unwrap();
        let goal = lower_optimize(script.optimize().unwrap()).unwrap();
        assert_eq!(goal.decision_params, vec!["f", "p1"]);
        assert_eq!(goal.constraints.len(), 2);
        assert_eq!(goal.constraints[1].threshold, 100.0);
        assert_eq!(goal.objectives[0].direction, Direction::Max);
        assert_eq!(goal.objectives[1].direction, Direction::Min);
    }
}
