//! Scalar expressions: AST, name binding, and two evaluators.
//!
//! Expressions appear in `SELECT` lists, `WHERE` predicates, join
//! conditions, and aggregate arguments. The same bound AST is evaluated by
//! both engines:
//!
//! * **scalar** ([`Expr::eval_scalar`]) — one `(tuple, world)` at a time on
//!   boxed [`Value`]s. This is the row-at-a-time path of the *direct*
//!   (Ruby-analog) engine.
//! * **bundled** ([`Expr::eval_bundle`]) — one tuple across *all* worlds of
//!   a batch at once, producing a [`BundleCell`]. Deterministic
//!   sub-expressions stay scalar; stochastic ones become per-world vectors.
//!   This is the MCDB-style path of the *DBMS* engine. With
//!   [`BatchCtx::columnar`] set, the stochastic arms run struct-of-arrays
//!   slice kernels (operands classified once as constant-vs-column, then
//!   plain slice loops the autovectorizer can chew on); cleared, they run
//!   the historical per-world `f64_at` dispatch loops. Both orders of
//!   operation are identical, so the outputs are bit-identical — the
//!   per-world path is kept as the oracle the property tests compare
//!   against.
//!
//! Black-box calls are the bridge to the stochastic world: each call site is
//! assigned a stable id and resolved to its catalog function ([`Callee`])
//! during binding, and the call for world `k` runs under
//! `seeds.seed(k).derive(site_id)` — both evaluators derive seeds
//! identically, so the engines produce bit-identical possible worlds (an
//! invariant the integration tests assert).

use std::sync::Arc;

use jigsaw_blackbox::BlackBox;
use jigsaw_prng::SeedSet;

use crate::bundle::{BundleCell, BundleRow};
use crate::catalog::Catalog;
use crate::error::{PdbError, Result};
use crate::schema::Schema;
use crate::value::Value;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn apply(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// A scalar expression. Build unbound (names), then [`Expr::bind`] against a
/// schema/parameter list to resolve references and assign call sites.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Lit(Value),
    /// Column reference by name (unbound).
    Col(String),
    /// Column reference by position (bound).
    ColIdx(usize),
    /// `@param` reference by name (unbound).
    Param(String),
    /// Parameter reference by position (bound).
    ParamIdx(usize),
    /// Black-box (VG-function) call. `site` is assigned at bind time and
    /// namespaces the call's randomness.
    Call {
        /// Function name in the catalog.
        name: String,
        /// Argument expressions (must be deterministic per world).
        args: Vec<Expr>,
        /// Call-site id; `u64::MAX` while unbound.
        site: u64,
        /// The catalog's function, resolved at bind time; `None` while
        /// unbound.
        func: Option<Callee>,
    },
    /// Binary arithmetic.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
    },
    /// Comparison producing a boolean.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
    },
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `CASE WHEN c1 THEN v1 [WHEN …] ELSE e END`.
    Case {
        /// `(condition, value)` arms, tested in order.
        whens: Vec<(Expr, Expr)>,
        /// `ELSE` value; NULL when absent.
        otherwise: Option<Box<Expr>>,
    },
}

/// A call site's black box, resolved once when the expression is bound, so
/// evaluation never looks a function up by name. Two callees are equal when
/// they are the same registered instance.
#[derive(Clone)]
pub struct Callee(Arc<dyn BlackBox>);

impl PartialEq for Callee {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::addr_eq(Arc::as_ptr(&self.0), Arc::as_ptr(&other.0))
    }
}

impl std::fmt::Debug for Callee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0.name())
    }
}

/// The function a call site was bound to, or the unbound-call error.
fn bound_callee<'a>(name: &str, func: &'a Option<Callee>) -> Result<&'a Arc<dyn BlackBox>> {
    match func {
        Some(Callee(f)) => Ok(f),
        None => Err(PdbError::UnknownFunction(format!("{name} (unbound)"))),
    }
}

impl Expr {
    /// Literal float shorthand.
    pub fn lit_f(x: f64) -> Expr {
        Expr::Lit(Value::Float(x))
    }

    /// Literal int shorthand.
    pub fn lit_i(x: i64) -> Expr {
        Expr::Lit(Value::Int(x))
    }

    /// Column shorthand.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Parameter shorthand.
    pub fn param(name: impl Into<String>) -> Expr {
        Expr::Param(name.into())
    }

    /// Call shorthand (unbound site).
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call { name: name.into(), args, site: u64::MAX, func: None }
    }

    /// Binary-op shorthand.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin { op, l: Box::new(l), r: Box::new(r) }
    }

    /// Comparison shorthand.
    pub fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp { op, l: Box::new(l), r: Box::new(r) }
    }

    /// Resolve names against `schema` and `params`, assign call-site ids
    /// from `next_site`, and verify function arity against `catalog`.
    pub fn bind(
        &self,
        schema: &Schema,
        params: &[String],
        catalog: &Catalog,
        next_site: &mut u64,
    ) -> Result<Expr> {
        Ok(match self {
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Col(name) => {
                let idx =
                    schema.index_of(name).ok_or_else(|| PdbError::UnknownColumn(name.clone()))?;
                Expr::ColIdx(idx)
            }
            Expr::ColIdx(i) => Expr::ColIdx(*i),
            Expr::Param(name) => {
                let idx = params
                    .iter()
                    .position(|p| p == name)
                    .ok_or_else(|| PdbError::UnknownParam(name.clone()))?;
                Expr::ParamIdx(idx)
            }
            Expr::ParamIdx(i) => Expr::ParamIdx(*i),
            Expr::Call { name, args, .. } => {
                let f = catalog.function(name)?;
                if f.arity() != args.len() {
                    return Err(PdbError::ArityMismatch {
                        function: name.clone(),
                        expected: f.arity(),
                        got: args.len(),
                    });
                }
                let site = *next_site;
                *next_site += 1;
                let args = args
                    .iter()
                    .map(|a| a.bind(schema, params, catalog, next_site))
                    .collect::<Result<Vec<_>>>()?;
                Expr::Call { name: name.clone(), args, site, func: Some(Callee(Arc::clone(f))) }
            }
            Expr::Bin { op, l, r } => Expr::bin(
                *op,
                l.bind(schema, params, catalog, next_site)?,
                r.bind(schema, params, catalog, next_site)?,
            ),
            Expr::Cmp { op, l, r } => Expr::cmp(
                *op,
                l.bind(schema, params, catalog, next_site)?,
                r.bind(schema, params, catalog, next_site)?,
            ),
            Expr::And(l, r) => Expr::And(
                Box::new(l.bind(schema, params, catalog, next_site)?),
                Box::new(r.bind(schema, params, catalog, next_site)?),
            ),
            Expr::Or(l, r) => Expr::Or(
                Box::new(l.bind(schema, params, catalog, next_site)?),
                Box::new(r.bind(schema, params, catalog, next_site)?),
            ),
            Expr::Not(e) => Expr::Not(Box::new(e.bind(schema, params, catalog, next_site)?)),
            Expr::Neg(e) => Expr::Neg(Box::new(e.bind(schema, params, catalog, next_site)?)),
            Expr::Case { whens, otherwise } => Expr::Case {
                whens: whens
                    .iter()
                    .map(|(c, v)| {
                        Ok((
                            c.bind(schema, params, catalog, next_site)?,
                            v.bind(schema, params, catalog, next_site)?,
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?,
                otherwise: match otherwise {
                    Some(e) => Some(Box::new(e.bind(schema, params, catalog, next_site)?)),
                    None => None,
                },
            },
        })
    }

    /// True when the expression's value can vary across worlds (contains a
    /// black-box call or references an uncertain column).
    pub fn is_stochastic(&self, schema: &Schema) -> bool {
        match self {
            Expr::Lit(_) | Expr::Param(_) | Expr::ParamIdx(_) => false,
            Expr::Col(name) => {
                schema.index_of(name).map(|i| schema.column(i).uncertain).unwrap_or(false)
            }
            Expr::ColIdx(i) => schema.column(*i).uncertain,
            Expr::Call { .. } => true,
            Expr::Bin { l, r, .. } | Expr::Cmp { l, r, .. } => {
                l.is_stochastic(schema) || r.is_stochastic(schema)
            }
            Expr::And(l, r) | Expr::Or(l, r) => l.is_stochastic(schema) || r.is_stochastic(schema),
            Expr::Not(e) | Expr::Neg(e) => e.is_stochastic(schema),
            Expr::Case { whens, otherwise } => {
                whens.iter().any(|(c, v)| c.is_stochastic(schema) || v.is_stochastic(schema))
                    || otherwise.as_ref().map(|e| e.is_stochastic(schema)).unwrap_or(false)
            }
        }
    }
}

/// Per-world evaluation context for the scalar path.
pub struct WorldCtx<'a> {
    /// The global world index (seed index).
    pub world: usize,
    /// The session seed set.
    pub seeds: &'a SeedSet,
    /// Bound parameter values, positionally matching the names used at bind.
    pub params: &'a [f64],
}

/// Whole-batch evaluation context for the bundled path.
pub struct BatchCtx<'a> {
    /// Global index of the first world in the batch.
    pub world_start: usize,
    /// Batch width.
    pub n_worlds: usize,
    /// The session seed set.
    pub seeds: &'a SeedSet,
    /// Bound parameter values.
    pub params: &'a [f64],
    /// Use the struct-of-arrays slice kernels instead of the per-world
    /// oracle loops. Both perform the same floating-point operations in the
    /// same order, so results are bit-identical; the oracle stays around as
    /// the reference the property tests compare against.
    pub columnar: bool,
}

/// A bundle cell viewed as a numeric operand: a constant scalar or a
/// contiguous per-world column. Classifying once per operand lets the
/// columnar kernels run plain slice loops with no per-world enum dispatch.
enum NumView<'a> {
    Const(f64),
    Col(&'a [f64]),
}

fn num_view<'a>(c: &'a BundleCell, what: &'static str) -> Result<NumView<'a>> {
    match c {
        BundleCell::Det(v) => Ok(NumView::Const(
            v.as_f64()
                .ok_or_else(|| PdbError::TypeError(format!("{what} on non-numeric bundle")))?,
        )),
        BundleCell::Stoch(xs) => Ok(NumView::Col(xs)),
    }
}

/// A bundle cell viewed as a truth operand (SQL truthiness: nonzero and
/// non-NaN; deterministic non-booleans are falsy, matching the oracle).
enum BoolView<'a> {
    Const(bool),
    Col(&'a [f64]),
}

fn bool_view(c: &BundleCell) -> BoolView<'_> {
    match c {
        BundleCell::Det(v) => BoolView::Const(v.as_bool().unwrap_or(false)),
        BundleCell::Stoch(xs) => BoolView::Col(xs),
    }
}

#[inline]
fn truthy_f64(x: f64) -> bool {
    x != 0.0 && !x.is_nan()
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic when both sides are Int (SQL-style).
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
            BinOp::Mod => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a % b)
                }
            }
        });
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(PdbError::TypeError(format!(
                "arithmetic on non-numeric values {l:?}, {r:?}"
            )))
        }
    };
    Ok(Value::Float(arith_f64(op, a, b)))
}

#[inline]
fn arith_f64(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Mod => a % b,
    }
}

#[inline]
fn cmp_f64(op: CmpOp, x: f64, y: f64) -> f64 {
    match x.partial_cmp(&y) {
        Some(o) => {
            if op.apply(o) {
                1.0
            } else {
                0.0
            }
        }
        None => f64::NAN,
    }
}

/// Columnar arithmetic over a mixed (not all-deterministic) operand pair:
/// classify once, then run a branch-free slice loop. Element order and
/// operations match the per-world oracle exactly, so outputs are
/// bit-identical.
fn bin_columnar(op: BinOp, a: &BundleCell, b: &BundleCell, n: usize) -> Result<Vec<f64>> {
    Ok(match (num_view(a, "arithmetic")?, num_view(b, "arithmetic")?) {
        (NumView::Col(xs), NumView::Col(ys)) => {
            xs.iter().zip(ys).map(|(&x, &y)| arith_f64(op, x, y)).collect()
        }
        (NumView::Col(xs), NumView::Const(y)) => xs.iter().map(|&x| arith_f64(op, x, y)).collect(),
        (NumView::Const(x), NumView::Col(ys)) => ys.iter().map(|&y| arith_f64(op, x, y)).collect(),
        (NumView::Const(x), NumView::Const(y)) => vec![arith_f64(op, x, y); n],
    })
}

/// Columnar comparison over a mixed operand pair; see [`bin_columnar`].
fn cmp_columnar(op: CmpOp, a: &BundleCell, b: &BundleCell, n: usize) -> Result<Vec<f64>> {
    Ok(match (num_view(a, "comparison")?, num_view(b, "comparison")?) {
        (NumView::Col(xs), NumView::Col(ys)) => {
            xs.iter().zip(ys).map(|(&x, &y)| cmp_f64(op, x, y)).collect()
        }
        (NumView::Col(xs), NumView::Const(y)) => xs.iter().map(|&x| cmp_f64(op, x, y)).collect(),
        (NumView::Const(x), NumView::Col(ys)) => ys.iter().map(|&y| cmp_f64(op, x, y)).collect(),
        (NumView::Const(x), NumView::Const(y)) => vec![cmp_f64(op, x, y); n],
    })
}

impl Expr {
    /// Evaluate on one tuple in one world (row-at-a-time engine).
    pub fn eval_scalar(&self, row: &[Value], ctx: &WorldCtx<'_>) -> Result<Value> {
        Ok(match self {
            Expr::Lit(v) => v.clone(),
            Expr::ColIdx(i) => row[*i].clone(),
            Expr::ParamIdx(i) => Value::Float(ctx.params[*i]),
            Expr::Col(name) => return Err(PdbError::UnknownColumn(format!("{name} (unbound)"))),
            Expr::Param(name) => return Err(PdbError::UnknownParam(format!("{name} (unbound)"))),
            Expr::Call { name, args, site, func } => {
                let f = bound_callee(name, func)?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    let v = a.eval_scalar(row, ctx)?;
                    argv.push(v.as_f64().ok_or_else(|| {
                        PdbError::TypeError(format!("non-numeric argument to `{name}`"))
                    })?);
                }
                let seed = ctx.seeds.seed(ctx.world).derive(*site);
                Value::Float(f.eval(&argv, seed))
            }
            Expr::Bin { op, l, r } => {
                arith(*op, &l.eval_scalar(row, ctx)?, &r.eval_scalar(row, ctx)?)?
            }
            Expr::Cmp { op, l, r } => {
                let (a, b) = (l.eval_scalar(row, ctx)?, r.eval_scalar(row, ctx)?);
                match a.compare(&b) {
                    Some(ord) => Value::Bool(op.apply(ord)),
                    None => Value::Null,
                }
            }
            Expr::And(l, r) => {
                match (l.eval_scalar(row, ctx)?.as_bool(), r.eval_scalar(row, ctx)?.as_bool()) {
                    (Some(a), Some(b)) => Value::Bool(a && b),
                    (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                }
            }
            Expr::Or(l, r) => {
                match (l.eval_scalar(row, ctx)?.as_bool(), r.eval_scalar(row, ctx)?.as_bool()) {
                    (Some(a), Some(b)) => Value::Bool(a || b),
                    (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                }
            }
            Expr::Not(e) => match e.eval_scalar(row, ctx)?.as_bool() {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            },
            Expr::Neg(e) => {
                let v = e.eval_scalar(row, ctx)?;
                match v {
                    Value::Null => Value::Null,
                    Value::Int(i) => Value::Int(-i),
                    other => Value::Float(-other.as_f64().ok_or_else(|| {
                        PdbError::TypeError("negation of non-numeric value".into())
                    })?),
                }
            }
            Expr::Case { whens, otherwise } => {
                for (c, v) in whens {
                    if c.eval_scalar(row, ctx)?.as_bool() == Some(true) {
                        return v.eval_scalar(row, ctx);
                    }
                }
                match otherwise {
                    Some(e) => e.eval_scalar(row, ctx)?,
                    None => Value::Null,
                }
            }
        })
    }

    /// Evaluate on one tuple bundle across all worlds of the batch
    /// (tuple-bundle engine). Deterministic sub-expressions evaluate once.
    pub fn eval_bundle(&self, row: &BundleRow, ctx: &BatchCtx<'_>) -> Result<BundleCell> {
        Ok(match self {
            Expr::Lit(v) => BundleCell::Det(v.clone()),
            Expr::ColIdx(i) => row.cells[*i].clone(),
            Expr::ParamIdx(i) => BundleCell::Det(Value::Float(ctx.params[*i])),
            Expr::Col(name) => return Err(PdbError::UnknownColumn(format!("{name} (unbound)"))),
            Expr::Param(name) => return Err(PdbError::UnknownParam(format!("{name} (unbound)"))),
            Expr::Call { name, args, site, func } => {
                let f = bound_callee(name, func)?;
                let non_numeric =
                    || PdbError::TypeError(format!("non-numeric argument to `{name}`"));
                let mut out = Vec::with_capacity(ctx.n_worlds);
                // The argument buffer lives on the stack for arities up to
                // four (every catalog model's), so a call allocates only
                // its output column.
                let (mut small, mut large) = ([0.0f64; 4], Vec::new());
                let buf: &mut [f64] = if args.len() <= small.len() {
                    &mut small[..args.len()]
                } else {
                    large.resize(args.len(), 0.0);
                    &mut large
                };
                if ctx.columnar {
                    // Constant arguments land in the buffer once, with no
                    // intermediate cell vector; the per-world loop only
                    // overwrites stochastic slots from their contiguous
                    // columns before deriving the seed. A non-numeric
                    // constant is reported after every argument evaluated,
                    // as the oracle does.
                    let mut stoch_slots: Vec<(usize, Vec<f64>)> = Vec::new();
                    let mut numeric = true;
                    for (i, a) in args.iter().enumerate() {
                        match a.eval_bundle(row, ctx)? {
                            BundleCell::Det(v) => match v.as_f64() {
                                Some(x) => buf[i] = x,
                                None => numeric = false,
                            },
                            BundleCell::Stoch(xs) => stoch_slots.push((i, xs)),
                        }
                    }
                    if !numeric {
                        return Err(non_numeric());
                    }
                    for w in 0..ctx.n_worlds {
                        for (slot, col) in &stoch_slots {
                            buf[*slot] = col[w];
                        }
                        let seed = ctx.seeds.seed(ctx.world_start + w).derive(*site);
                        out.push(f.eval(buf, seed));
                    }
                } else {
                    let argv =
                        args.iter().map(|a| a.eval_bundle(row, ctx)).collect::<Result<Vec<_>>>()?;
                    for w in 0..ctx.n_worlds {
                        for (slot, cell) in buf.iter_mut().zip(&argv) {
                            *slot = cell.f64_at(w).ok_or_else(non_numeric)?;
                        }
                        let seed = ctx.seeds.seed(ctx.world_start + w).derive(*site);
                        out.push(f.eval(buf, seed));
                    }
                }
                BundleCell::Stoch(out)
            }
            Expr::Bin { op, l, r } => {
                let (a, b) = (l.eval_bundle(row, ctx)?, r.eval_bundle(row, ctx)?);
                match (a, b) {
                    (BundleCell::Det(x), BundleCell::Det(y)) => {
                        BundleCell::Det(arith(*op, &x, &y)?)
                    }
                    (a, b) if ctx.columnar => {
                        BundleCell::Stoch(bin_columnar(*op, &a, &b, ctx.n_worlds)?)
                    }
                    (a, b) => {
                        let mut out = Vec::with_capacity(ctx.n_worlds);
                        for w in 0..ctx.n_worlds {
                            let x = a.f64_at(w).ok_or_else(|| {
                                PdbError::TypeError("arithmetic on non-numeric bundle".into())
                            })?;
                            let y = b.f64_at(w).ok_or_else(|| {
                                PdbError::TypeError("arithmetic on non-numeric bundle".into())
                            })?;
                            out.push(arith_f64(*op, x, y));
                        }
                        BundleCell::Stoch(out)
                    }
                }
            }
            Expr::Cmp { op, l, r } => {
                let (a, b) = (l.eval_bundle(row, ctx)?, r.eval_bundle(row, ctx)?);
                match (a, b) {
                    (BundleCell::Det(x), BundleCell::Det(y)) => match x.compare(&y) {
                        Some(ord) => BundleCell::Det(Value::Bool(op.apply(ord))),
                        None => BundleCell::Det(Value::Null),
                    },
                    (a, b) if ctx.columnar => {
                        BundleCell::Stoch(cmp_columnar(*op, &a, &b, ctx.n_worlds)?)
                    }
                    (a, b) => {
                        let mut out = Vec::with_capacity(ctx.n_worlds);
                        for w in 0..ctx.n_worlds {
                            let x = a.f64_at(w).ok_or_else(|| {
                                PdbError::TypeError("comparison on non-numeric bundle".into())
                            })?;
                            let y = b.f64_at(w).ok_or_else(|| {
                                PdbError::TypeError("comparison on non-numeric bundle".into())
                            })?;
                            let ord = x.partial_cmp(&y);
                            out.push(match ord {
                                Some(o) => {
                                    if op.apply(o) {
                                        1.0
                                    } else {
                                        0.0
                                    }
                                }
                                None => f64::NAN,
                            });
                        }
                        BundleCell::Stoch(out)
                    }
                }
            }
            Expr::And(l, r) => bool_bundle(l, r, ctx, row, |a, b| a && b)?,
            Expr::Or(l, r) => bool_bundle(l, r, ctx, row, |a, b| a || b)?,
            Expr::Not(e) => match e.eval_bundle(row, ctx)? {
                BundleCell::Det(v) => BundleCell::Det(match v.as_bool() {
                    Some(b) => Value::Bool(!b),
                    None => Value::Null,
                }),
                BundleCell::Stoch(xs) => BundleCell::Stoch(
                    xs.into_iter().map(|x| if x != 0.0 { 0.0 } else { 1.0 }).collect(),
                ),
            },
            Expr::Neg(e) => match e.eval_bundle(row, ctx)? {
                BundleCell::Det(Value::Int(i)) => BundleCell::Det(Value::Int(-i)),
                BundleCell::Det(Value::Null) => BundleCell::Det(Value::Null),
                BundleCell::Det(v) => BundleCell::Det(Value::Float(
                    -v.as_f64()
                        .ok_or_else(|| PdbError::TypeError("negation of non-numeric".into()))?,
                )),
                BundleCell::Stoch(xs) => BundleCell::Stoch(xs.into_iter().map(|x| -x).collect()),
            },
            Expr::Case { whens, otherwise } => {
                // Evaluate conditions and branch values, then select per world.
                let conds = whens
                    .iter()
                    .map(|(c, _)| c.eval_bundle(row, ctx))
                    .collect::<Result<Vec<_>>>()?;
                let vals = whens
                    .iter()
                    .map(|(_, v)| v.eval_bundle(row, ctx))
                    .collect::<Result<Vec<_>>>()?;
                let els = match otherwise {
                    Some(e) => Some(e.eval_bundle(row, ctx)?),
                    None => None,
                };
                // Fully deterministic fast path.
                let all_det = conds.iter().all(|c| !c.is_stoch())
                    && vals.iter().all(|v| !v.is_stoch())
                    && els.as_ref().map(|e| !e.is_stoch()).unwrap_or(true);
                if all_det {
                    for (c, v) in conds.iter().zip(&vals) {
                        if let BundleCell::Det(cv) = c {
                            if cv.as_bool() == Some(true) {
                                return Ok(v.clone());
                            }
                        }
                    }
                    return Ok(els.unwrap_or(BundleCell::Det(Value::Null)));
                }
                let mut out = Vec::with_capacity(ctx.n_worlds);
                'world: for w in 0..ctx.n_worlds {
                    for (c, v) in conds.iter().zip(&vals) {
                        let truth = match c {
                            BundleCell::Det(cv) => cv.as_bool() == Some(true),
                            BundleCell::Stoch(xs) => xs[w] != 0.0 && !xs[w].is_nan(),
                        };
                        if truth {
                            out.push(v.f64_at(w).ok_or_else(|| {
                                PdbError::TypeError("CASE branch must be numeric here".into())
                            })?);
                            continue 'world;
                        }
                    }
                    out.push(match &els {
                        Some(e) => e.f64_at(w).ok_or_else(|| {
                            PdbError::TypeError("CASE else must be numeric here".into())
                        })?,
                        None => f64::NAN,
                    });
                }
                BundleCell::Stoch(out)
            }
        })
    }
}

fn bool_bundle(
    l: &Expr,
    r: &Expr,
    ctx: &BatchCtx<'_>,
    row: &BundleRow,
    f: fn(bool, bool) -> bool,
) -> Result<BundleCell> {
    let (a, b) = (l.eval_bundle(row, ctx)?, r.eval_bundle(row, ctx)?);
    match (a, b) {
        (BundleCell::Det(x), BundleCell::Det(y)) => {
            Ok(BundleCell::Det(match (x.as_bool(), y.as_bool()) {
                (Some(p), Some(q)) => Value::Bool(f(p, q)),
                _ => Value::Null,
            }))
        }
        (a, b) if ctx.columnar => {
            let out = match (bool_view(&a), bool_view(&b)) {
                (BoolView::Col(xs), BoolView::Col(ys)) => xs
                    .iter()
                    .zip(ys)
                    .map(|(&x, &y)| if f(truthy_f64(x), truthy_f64(y)) { 1.0 } else { 0.0 })
                    .collect(),
                (BoolView::Col(xs), BoolView::Const(q)) => {
                    xs.iter().map(|&x| if f(truthy_f64(x), q) { 1.0 } else { 0.0 }).collect()
                }
                (BoolView::Const(p), BoolView::Col(ys)) => {
                    ys.iter().map(|&y| if f(p, truthy_f64(y)) { 1.0 } else { 0.0 }).collect()
                }
                (BoolView::Const(p), BoolView::Const(q)) => {
                    vec![if f(p, q) { 1.0 } else { 0.0 }; ctx.n_worlds]
                }
            };
            Ok(BundleCell::Stoch(out))
        }
        (a, b) => {
            let mut out = Vec::with_capacity(ctx.n_worlds);
            for w in 0..ctx.n_worlds {
                let p = truthy(&a, w);
                let q = truthy(&b, w);
                out.push(if f(p, q) { 1.0 } else { 0.0 });
            }
            Ok(BundleCell::Stoch(out))
        }
    }
}

fn truthy(c: &BundleCell, w: usize) -> bool {
    match c {
        BundleCell::Det(v) => v.as_bool().unwrap_or(false),
        BundleCell::Stoch(xs) => xs[w] != 0.0 && !xs[w].is_nan(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::Presence;
    use crate::schema::{Column, ColumnType};
    use jigsaw_blackbox::FnBlackBox;

    fn setup() -> (Schema, Catalog, SeedSet) {
        let schema = Schema::new(vec![
            Column::det("x", ColumnType::Float),
            Column::det("label", ColumnType::Str),
        ]);
        let mut cat = Catalog::new();
        cat.add_function(Arc::new(FnBlackBox::new("Noise", 1, |p: &[f64], s| {
            p[0] + (s.0 % 10) as f64
        })));
        (schema, cat, SeedSet::new(42))
    }

    fn bind(e: Expr, schema: &Schema, cat: &Catalog) -> Expr {
        let mut site = 0;
        e.bind(schema, &["w".to_string()], cat, &mut site).unwrap()
    }

    #[test]
    fn binding_resolves_names_and_sites() {
        let (schema, cat, _) = setup();
        let e = Expr::bin(BinOp::Add, Expr::col("x"), Expr::call("Noise", vec![Expr::param("w")]));
        let b = bind(e, &schema, &cat);
        match b {
            Expr::Bin { l, r, .. } => {
                assert_eq!(*l, Expr::ColIdx(0));
                match *r {
                    Expr::Call { site, ref args, .. } => {
                        assert_eq!(site, 0);
                        assert_eq!(args[0], Expr::ParamIdx(0));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bind_errors() {
        let (schema, cat, _) = setup();
        let mut site = 0;
        assert!(matches!(
            Expr::col("nope").bind(&schema, &[], &cat, &mut site),
            Err(PdbError::UnknownColumn(_))
        ));
        assert!(matches!(
            Expr::param("nope").bind(&schema, &[], &cat, &mut site),
            Err(PdbError::UnknownParam(_))
        ));
        assert!(matches!(
            Expr::call("Nope", vec![]).bind(&schema, &[], &cat, &mut site),
            Err(PdbError::UnknownFunction(_))
        ));
        assert!(matches!(
            Expr::call("Noise", vec![]).bind(&schema, &[], &cat, &mut site),
            Err(PdbError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn scalar_and_bundle_agree_on_calls() {
        let (schema, cat, seeds) = setup();
        let e = bind(
            Expr::bin(BinOp::Mul, Expr::call("Noise", vec![Expr::col("x")]), Expr::lit_f(2.0)),
            &schema,
            &cat,
        );
        let row_vals = vec![Value::Float(3.0), Value::Str("a".into())];
        let bundle_row = BundleRow::det(row_vals.clone());
        let n = 5;
        let bctx = BatchCtx {
            world_start: 0,
            n_worlds: n,
            seeds: &seeds,
            params: &[7.0],
            columnar: false,
        };
        let bundled = e.eval_bundle(&bundle_row, &bctx).unwrap();
        for w in 0..n {
            let sctx = WorldCtx { world: w, seeds: &seeds, params: &[7.0] };
            let scalar = e.eval_scalar(&row_vals, &sctx).unwrap();
            assert_eq!(scalar.as_f64().unwrap(), bundled.f64_at(w).unwrap(), "world {w}");
        }
    }

    #[test]
    fn case_when_scalar() {
        let (schema, cat, seeds) = setup();
        // CASE WHEN x > 2 THEN 1 ELSE 0 END — the paper's overload indicator.
        let e = bind(
            Expr::Case {
                whens: vec![(
                    Expr::cmp(CmpOp::Gt, Expr::col("x"), Expr::lit_f(2.0)),
                    Expr::lit_i(1),
                )],
                otherwise: Some(Box::new(Expr::lit_i(0))),
            },
            &schema,
            &cat,
        );
        let ctx = WorldCtx { world: 0, seeds: &seeds, params: &[] };
        assert_eq!(e.eval_scalar(&[Value::Float(3.0), Value::Null], &ctx).unwrap(), Value::Int(1));
        assert_eq!(e.eval_scalar(&[Value::Float(1.0), Value::Null], &ctx).unwrap(), Value::Int(0));
    }

    #[test]
    fn case_without_else_gives_null() {
        let (schema, cat, seeds) = setup();
        let e = bind(
            Expr::Case {
                whens: vec![(Expr::Lit(Value::Bool(false)), Expr::lit_i(1))],
                otherwise: None,
            },
            &schema,
            &cat,
        );
        let ctx = WorldCtx { world: 0, seeds: &seeds, params: &[] };
        assert_eq!(e.eval_scalar(&[Value::Null, Value::Null], &ctx).unwrap(), Value::Null);
    }

    #[test]
    fn integer_arithmetic_and_division_by_zero() {
        let (schema, cat, seeds) = setup();
        let ctx = WorldCtx { world: 0, seeds: &seeds, params: &[] };
        let div = bind(Expr::bin(BinOp::Div, Expr::lit_i(7), Expr::lit_i(2)), &schema, &cat);
        assert_eq!(div.eval_scalar(&[], &ctx).unwrap(), Value::Int(3));
        let div0 = bind(Expr::bin(BinOp::Div, Expr::lit_i(7), Expr::lit_i(0)), &schema, &cat);
        assert_eq!(div0.eval_scalar(&[], &ctx).unwrap(), Value::Null);
        let fdiv = bind(Expr::bin(BinOp::Div, Expr::lit_f(7.0), Expr::lit_i(2)), &schema, &cat);
        assert_eq!(fdiv.eval_scalar(&[], &ctx).unwrap(), Value::Float(3.5));
    }

    #[test]
    fn null_propagates_through_arithmetic_and_comparison() {
        let (schema, cat, seeds) = setup();
        let ctx = WorldCtx { world: 0, seeds: &seeds, params: &[] };
        let e = bind(Expr::bin(BinOp::Add, Expr::Lit(Value::Null), Expr::lit_i(1)), &schema, &cat);
        assert_eq!(e.eval_scalar(&[], &ctx).unwrap(), Value::Null);
        let c = bind(Expr::cmp(CmpOp::Lt, Expr::Lit(Value::Null), Expr::lit_i(1)), &schema, &cat);
        assert_eq!(c.eval_scalar(&[], &ctx).unwrap(), Value::Null);
    }

    #[test]
    fn stochasticity_detection() {
        let (schema, cat, _) = setup();
        let det = bind(Expr::bin(BinOp::Add, Expr::col("x"), Expr::lit_f(1.0)), &schema, &cat);
        assert!(!det.is_stochastic(&schema));
        let stoch = bind(Expr::call("Noise", vec![Expr::col("x")]), &schema, &cat);
        assert!(stoch.is_stochastic(&schema));
    }

    #[test]
    fn distinct_call_sites_get_independent_randomness() {
        let (schema, cat, seeds) = setup();
        // Noise(x) - Noise(x): same args, different sites → generally nonzero.
        let e = bind(
            Expr::bin(
                BinOp::Sub,
                Expr::call("Noise", vec![Expr::col("x")]),
                Expr::call("Noise", vec![Expr::col("x")]),
            ),
            &schema,
            &cat,
        );
        let row = vec![Value::Float(0.0), Value::Null];
        let mut any_nonzero = false;
        for w in 0..16 {
            let ctx = WorldCtx { world: w, seeds: &seeds, params: &[] };
            if e.eval_scalar(&row, &ctx).unwrap().as_f64().unwrap() != 0.0 {
                any_nonzero = true;
            }
        }
        assert!(any_nonzero, "two call sites shared a seed stream");
    }

    #[test]
    fn columnar_kernels_match_oracle_bit_for_bit() {
        let (schema, cat, seeds) = setup();
        // A composite expression exercising every kernel: black-box call
        // with mixed det/stoch args, mixed-arity arithmetic, comparison,
        // boolean logic, negation, and a stochastic CASE.
        let noise = Expr::call("Noise", vec![Expr::col("x")]);
        let exprs = vec![
            Expr::bin(BinOp::Add, noise.clone(), Expr::lit_f(0.5)),
            Expr::bin(BinOp::Mul, Expr::lit_f(2.0), noise.clone()),
            Expr::bin(BinOp::Sub, noise.clone(), noise.clone()),
            Expr::cmp(CmpOp::Gt, noise.clone(), Expr::lit_f(4.0)),
            Expr::cmp(CmpOp::Le, Expr::lit_f(4.0), noise.clone()),
            Expr::And(
                Box::new(Expr::cmp(CmpOp::Gt, noise.clone(), Expr::lit_f(2.0))),
                Box::new(Expr::Lit(Value::Bool(true))),
            ),
            Expr::Or(
                Box::new(Expr::Lit(Value::Bool(false))),
                Box::new(Expr::cmp(CmpOp::Lt, noise.clone(), Expr::lit_f(7.0))),
            ),
            Expr::Neg(Box::new(noise.clone())),
            Expr::Case {
                whens: vec![(
                    Expr::cmp(CmpOp::Gt, noise.clone(), Expr::lit_f(5.0)),
                    Expr::bin(BinOp::Mul, noise, Expr::lit_f(3.0)),
                )],
                otherwise: Some(Box::new(Expr::lit_f(-1.0))),
            },
        ];
        let row = BundleRow::det(vec![Value::Float(1.5), Value::Str("a".into())]);
        for e in exprs {
            let e = bind(e, &schema, &cat);
            let mk = |columnar| BatchCtx {
                world_start: 3,
                n_worlds: 9,
                seeds: &seeds,
                params: &[],
                columnar,
            };
            let oracle = e.eval_bundle(&row, &mk(false)).unwrap();
            let col = e.eval_bundle(&row, &mk(true)).unwrap();
            assert_eq!(oracle, col, "expr {e:?}");
        }
    }

    #[test]
    fn bundle_case_with_stochastic_condition() {
        let (schema, cat, seeds) = setup();
        // CASE WHEN Noise(x) > 2 THEN 1 ELSE 0 END across 8 worlds.
        let e = bind(
            Expr::Case {
                whens: vec![(
                    Expr::cmp(
                        CmpOp::Gt,
                        Expr::call("Noise", vec![Expr::col("x")]),
                        Expr::lit_f(2.0),
                    ),
                    Expr::lit_f(1.0),
                )],
                otherwise: Some(Box::new(Expr::lit_f(0.0))),
            },
            &schema,
            &cat,
        );
        let row = BundleRow {
            cells: vec![BundleCell::Det(Value::Float(0.0)), BundleCell::Det(Value::Null)],
            presence: Presence::All,
        };
        let ctx =
            BatchCtx { world_start: 0, n_worlds: 8, seeds: &seeds, params: &[], columnar: false };
        match e.eval_bundle(&row, &ctx).unwrap() {
            BundleCell::Stoch(xs) => {
                assert_eq!(xs.len(), 8);
                assert!(xs.iter().all(|&x| x == 0.0 || x == 1.0));
            }
            other => panic!("expected stochastic cell, got {other:?}"),
        }
    }
}
