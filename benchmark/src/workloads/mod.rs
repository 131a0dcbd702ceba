//! The six workloads. Names, sizes and the reason each exists are the
//! benchmark's contract; see `README.md` for the glossary.

mod serve;
mod sweep;

use crate::harness::Workload;

pub use serve::{bench_catalog, start_server, WARM_POINTS, WARM_SRC};
pub use sweep::{ramp_model, user_catalog, user_plan_sim, RAMP_POINTS, REUSE_BASES, USERS};

/// Instantiate a workload by name. `split_wire` makes serve workloads talk
/// through the span-recording connection (the traced run).
pub fn build(name: &str, seed: u64, split_wire: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sweep_reuse" => Box::new(sweep::Sweep::reuse(seed)),
        "sweep_hostile" => Box::new(sweep::Sweep::hostile(seed)),
        "sweep_plan" => Box::new(sweep::Sweep::plan(seed)),
        "serve_warm" => Box::new(serve::Warm::new(seed, split_wire)?),
        "serve_subscribe" => Box::new(serve::Subscribe::new(seed, split_wire)),
        "serve_mixed" => Box::new(serve::Mixed::new(seed, split_wire)?),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                crate::spec::WORKLOADS.join(", ")
            ))
        }
    })
}
