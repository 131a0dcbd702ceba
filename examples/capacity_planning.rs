//! Capacity planning in SQL — the paper's Figure 1 scenario, end to end.
//!
//! An analyst wants the **latest** server purchase dates that keep the risk
//! of running out of CPU cores below 1%. The scenario is written in the
//! Jigsaw dialect, compiled against a catalog holding the demand/capacity
//! models, swept with fingerprint reuse, and resolved by the `OPTIMIZE`
//! selector.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use std::sync::Arc;

use jigsaw::blackbox::models::{Capacity, Demand};
use jigsaw::core::JigsawConfig;
use jigsaw::pdb::{Catalog, DbmsEngine};
use jigsaw::prng::SeedSet;
use jigsaw::sql::compile;

const SCENARIO: &str = r#"
    -- DEFINITION --
    DECLARE PARAMETER @current_week AS RANGE 0 TO 51 STEP BY 1;
    DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 8;
    DECLARE PARAMETER @purchase2 AS RANGE 0 TO 48 STEP BY 8;
    DECLARE PARAMETER @feature_release AS SET (12, 36, 44);

    SELECT DemandModel(@current_week, @feature_release) AS demand,
           CapacityModel(@current_week, @purchase1, @purchase2) AS capacity,
           CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
    INTO results;

    -- BATCH MODE --
    OPTIMIZE SELECT @feature_release, @purchase1, @purchase2
    FROM results
    WHERE MAX(EXPECT overload) < 0.01
    GROUP BY feature_release, purchase1, purchase2
    FOR MAX @purchase1, MAX @purchase2
"#;

fn main() {
    // The catalog: externally-fitted models registered as VG-functions.
    let mut catalog = Catalog::new();
    catalog.add_function_as("DemandModel", Arc::new(Demand::enterprise()));
    catalog.add_function_as("CapacityModel", Arc::new(Capacity::enterprise()));
    let catalog = Arc::new(catalog);

    // Compile: parse, analyze, lower to a PDB plan + optimizer goal.
    let scenario = compile(SCENARIO, &catalog).expect("scenario compiles");
    println!(
        "compiled: {} parameter points, output columns {:?}",
        scenario.space.len(),
        scenario.columns
    );

    // Execute the batch pipeline (Figure 3) with paper-default config.
    let cfg = JigsawConfig::paper().with_n_samples(300);
    let outcome = scenario
        .run_batch(Arc::new(DbmsEngine::new()), catalog, SeedSet::new(7), cfg)
        .expect("batch run");

    println!(
        "sweep: {} points, {} full simulations, {} reused ({:.1}%), bases per column {:?}",
        outcome.sweep.stats.points,
        outcome.sweep.stats.full_simulations,
        outcome.sweep.stats.reused,
        outcome.sweep.stats.reuse_rate() * 100.0,
        outcome.sweep.stats.bases_per_column,
    );

    match outcome.selection {
        Some(sel) => {
            println!("\nOPTIMIZE result:");
            for (name, value) in &sel.assignment {
                println!("  @{name} = {value}");
            }
            println!(
                "  worst-case overload risk across all weeks: {:.4} (< 0.01 required)",
                sel.achieved[0]
            );
        }
        None => println!("\nno parameter assignment satisfies the risk bound"),
    }
}
