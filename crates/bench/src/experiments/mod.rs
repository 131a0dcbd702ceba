//! The per-figure experiment implementations.

pub mod e1;
pub mod e10;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

use std::sync::Arc;

use jigsaw_blackbox::models::UserSelection;
use jigsaw_blackbox::{FnBlackBox, ParamDecl, ParamSpace};
use jigsaw_pdb::{Catalog, ColumnType, TableBuilder, Value};

/// Master seed used by every experiment (fixed so reported numbers are
/// reproducible run to run).
pub const MASTER_SEED: u64 = 0x5EED_2011;

/// Build the `users` table and the per-user requirement function for the
/// data-bound workload (experiment E1's `UserSelect`).
///
/// `UserReq(id, base, growth, shape, week)` draws one user's weekly
/// requirement; the `id` argument is folded into the seed so each tuple gets
/// an independent stream (MCDB gives VG-functions per-tuple randomness).
pub fn user_catalog(n_users: usize) -> Catalog {
    let mut catalog = Catalog::new();
    let population = UserSelection::synthetic(n_users, MASTER_SEED);
    let mut builder = TableBuilder::new()
        .column("id", ColumnType::Int)
        .column("base", ColumnType::Float)
        .column("growth", ColumnType::Float)
        .column("shape", ColumnType::Float);
    for (i, u) in population.users().iter().enumerate() {
        builder = builder.row(vec![
            Value::Int(i as i64),
            Value::Float(u.base),
            Value::Float(u.growth),
            Value::Float(u.shape),
        ]);
    }
    catalog.add_table("users", builder.build());
    catalog.add_function(Arc::new(FnBlackBox::new("UserReq", 5, |p: &[f64], seed| {
        let profile =
            jigsaw_blackbox::models::UserProfile { base: p[1], growth: p[2], shape: p[3] };
        UserSelection::user_requirement(&profile, p[4], seed.derive(p[0] as u64))
    })));
    catalog
}

/// One-parameter weekly space of the given length.
pub fn week_space(weeks: usize) -> ParamSpace {
    ParamSpace::new(vec![ParamDecl::range("week", 0, weeks as i64 - 1, 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_catalog_has_table_and_function() {
        let c = user_catalog(10);
        assert_eq!(c.table("users").unwrap().len(), 10);
        assert!(c.function("UserReq").is_ok());
    }

    #[test]
    fn user_req_is_per_tuple_independent() {
        let c = user_catalog(2);
        let f = c.function("UserReq").unwrap();
        let s = jigsaw_prng::Seed(9);
        let a = f.eval(&[0.0, 1.0, 0.0, 2.0, 5.0], s);
        let b = f.eval(&[1.0, 1.0, 0.0, 2.0, 5.0], s);
        assert_ne!(a, b, "same profile, different id must draw differently");
    }
}
