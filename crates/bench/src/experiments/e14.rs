//! E14 — observability overhead (ISSUE 10's acceptance gate, not a paper
//! figure).
//!
//! The `jigsaw-obs` instruments ride the optimizer's wave hot path, the
//! worker pool, the shared store, and every server request. Their contract
//! is twofold: results are **bit-identical** whether recording is enabled
//! or disabled, and the enabled instruments cost under 2% of wall clock
//! against the runtime-disabled baseline ([`jigsaw_obs::set_enabled`] is
//! the "compiled to no-ops" arm — one binary, one code path, the branch on
//! a relaxed load being all that differs).
//!
//! Both workloads are measured **interleaved** — disabled, enabled,
//! disabled, enabled … — taking the minimum per arm over [`ROUNDS`]
//! rounds, so slow outliers (scheduler preemption on a shared CI box) fall
//! out of both arms symmetrically. The overhead column is
//! `enabled/disabled − 1` of those minima and can legitimately come out
//! negative in the noise floor.

use std::sync::Arc;
use std::time::Instant;

use jigsaw_blackbox::models::SynthBasis;
use jigsaw_blackbox::{ParamDecl, ParamSpace, Workload};
use jigsaw_core::{JigsawConfig, SweepResult, SweepRunner};
use jigsaw_pdb::BlackBoxSim;
use jigsaw_prng::SeedSet;
use jigsaw_server::{Client, JigsawServer, Request, Response};

use crate::table::{fmt_secs, Table};
use crate::Scale;

use super::MASTER_SEED;

/// One workload's enabled-vs-disabled comparison.
#[derive(Debug, Clone)]
pub struct E14Row {
    /// Workload label.
    pub workload: &'static str,
    /// Interleaved measurement rounds per arm.
    pub rounds: usize,
    /// Minimum wall-clock seconds with instruments disabled.
    pub disabled_secs: f64,
    /// Minimum wall-clock seconds with instruments enabled.
    pub enabled_secs: f64,
    /// `enabled/disabled − 1` (negative means the difference drowned in
    /// noise — the instruments cannot speed anything up).
    pub overhead: f64,
    /// Whether the two arms produced bit-identical results.
    pub identical: bool,
}

/// Interleaved rounds per arm.
pub const ROUNDS: usize = 5;

/// Sweep-plus-estimate passes inside one timed server round. Loopback
/// round-trips are scheduler-handoff-bound, so one pass is far too short
/// to time; tens of milliseconds per round lets the handoff jitter average
/// out inside the round instead of dominating the comparison.
pub const PASSES: usize = 50;

/// Run `measure` [`ROUNDS`] times per arm, alternating disabled/enabled,
/// and return the per-arm minima. Leaves the global registry enabled.
fn min_interleaved(mut measure: impl FnMut(bool) -> f64, rounds: usize) -> (f64, f64) {
    let mut best = [f64::INFINITY; 2];
    // One discarded warm-up pass so cold-start costs (page cache, lazy
    // statics, the registry mutex on first instrument lookup) fall on
    // neither arm.
    jigsaw_obs::set_enabled(true);
    measure(true);
    for round in 0..rounds {
        // Alternate which arm leads so any within-round warm-up advantage
        // of going second cancels instead of biasing one arm.
        let first = round % 2 == 0;
        for arm in [first, !first] {
            jigsaw_obs::set_enabled(arm);
            best[arm as usize] = best[arm as usize].min(measure(arm));
        }
    }
    jigsaw_obs::set_enabled(true);
    (best[0], best[1])
}

/// The E8-shape batch sweep: `SynthBasis` with the basis pinned at 10% of
/// the space and synthetic per-invocation work, exercising the executor's
/// per-wave phase histograms and the store instruments.
fn sweep_workload(scale: Scale) -> E14Row {
    let points: usize = if scale.space_divisor > 1 { 400 } else { 2000 };
    let bb = Arc::new(SynthBasis::new(points / 10).with_work(Workload(300)));
    let space = ParamSpace::new(vec![ParamDecl::range("p", 0, points as i64 - 1, 1)]);
    let sim = BlackBoxSim::new(bb, space, SeedSet::new(MASTER_SEED));
    let cfg = JigsawConfig::paper()
        .with_n_samples(scale.n_samples)
        .with_fingerprint_len(scale.m)
        .with_threads(scale.threads);
    let mut arms: [Option<SweepResult>; 2] = [None, None];
    let (disabled_secs, enabled_secs) = min_interleaved(
        |enabled| {
            let t0 = Instant::now();
            let sweep = SweepRunner::new(cfg.clone()).run(&sim).expect("sweep");
            let secs = t0.elapsed().as_secs_f64();
            arms[enabled as usize].get_or_insert(sweep);
            secs
        },
        ROUNDS,
    );
    let identical = match (&arms[0], &arms[1]) {
        (Some(a), Some(b)) => a.points == b.points && a.stats.counters() == b.stats.counters(),
        _ => false,
    };
    E14Row {
        workload: "batch sweep (E8 shape)",
        rounds: ROUNDS,
        disabled_secs,
        enabled_secs,
        overhead: enabled_secs / disabled_secs - 1.0,
        identical,
    }
}

/// The E10-shape server session: a loopback server, one client paying a
/// cold `SWEEP` then estimating every point — exercising the per-verb
/// request instruments, the connection gauges, and the session counters on
/// top of the core set.
fn server_workload(scale: Scale) -> E14Row {
    let weeks: usize = if scale.space_divisor > 1 { 30 } else { 60 };
    let src = format!(
        "DECLARE PARAMETER @week AS RANGE 0 TO {} STEP BY 1; \
         SELECT Demand(@week, 5) AS demand INTO results;",
        weeks - 1
    );
    let cfg = JigsawConfig::paper()
        .with_n_samples(scale.n_samples)
        .with_fingerprint_len(scale.m)
        .with_threads(scale.threads);
    let mut arms: [Option<Vec<(u64, u64)>>; 2] = [None, None];
    let (disabled_secs, enabled_secs) = min_interleaved(
        |enabled| {
            // A fresh server per round: every arm pays the same cold ramp.
            let handle = JigsawServer::builder()
                .config(cfg.clone())
                .master_seed(MASTER_SEED)
                .bind("127.0.0.1:0")
                .expect("bind loopback")
                .serve()
                .expect("serve");
            let mut client = Client::connect(handle.local_addr()).expect("connect");
            match client.request(&Request::Compile { src: src.clone() }).expect("compile") {
                Response::Compiled { .. } => {}
                other => panic!("unexpected compile reply {other:?}"),
            }
            // Several passes per round: one pass is sub-millisecond on
            // loopback, far below what a 2% gate can resolve over
            // syscall-latency noise.
            let mut bits = Vec::with_capacity(weeks * PASSES);
            let t0 = Instant::now();
            for _ in 0..PASSES {
                match client.request(&Request::Sweep).expect("sweep") {
                    Response::Swept { .. } => {}
                    other => panic!("unexpected sweep reply {other:?}"),
                }
                for point in 0..weeks {
                    match client.request(&Request::Estimate { point, col: 0 }).expect("estimate") {
                        Response::Estimated { expectation_bits, std_dev_bits, .. } => {
                            bits.push((expectation_bits, std_dev_bits));
                        }
                        other => panic!("unexpected estimate reply {other:?}"),
                    }
                }
            }
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(client.request(&Request::Quit).expect("quit"), Response::Bye);
            handle.shutdown().expect("shutdown");
            arms[enabled as usize].get_or_insert(bits);
            secs
        },
        ROUNDS,
    );
    let identical = match (&arms[0], &arms[1]) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    };
    E14Row {
        workload: "server session (E10 shape)",
        rounds: ROUNDS,
        disabled_secs,
        enabled_secs,
        overhead: enabled_secs / disabled_secs - 1.0,
        identical,
    }
}

/// Run both workloads.
pub fn run(scale: Scale) -> Vec<E14Row> {
    vec![sweep_workload(scale), server_workload(scale)]
}

/// Render the overhead table.
pub fn report(rows: &[E14Row]) -> Table {
    let mut t = Table::new(
        "E14 — observability overhead: instruments enabled vs runtime-disabled \
         (min over interleaved rounds; gate: enabled ≤ 2% over disabled)",
        &["Workload", "Rounds", "Disabled", "Enabled", "Overhead", "Identical"],
    );
    t.mark_timing(&["Disabled", "Enabled", "Overhead"]);
    for r in rows {
        t.row(vec![
            r.workload.to_string(),
            r.rounds.to_string(),
            fmt_secs(r.disabled_secs),
            fmt_secs(r.enabled_secs),
            format!("{:+.2}%", r.overhead * 100.0),
            if r.identical { "yes".into() } else { "NO".into() },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The determinism half of the contract, at smoke scale: toggling the
    /// instruments must not move a single result bit in either workload.
    #[test]
    fn results_are_bit_identical_across_the_toggle() {
        let rows = run(Scale { n_samples: 30, m: 10, space_divisor: 8, threads: 1 });
        assert!(jigsaw_obs::enabled(), "E14 leaves the registry enabled");
        for r in &rows {
            assert!(r.identical, "{}: toggling observability moved result bits", r.workload);
            assert!(r.disabled_secs > 0.0 && r.enabled_secs > 0.0);
        }
    }

    /// The wall-clock half: under 2% overhead at quick scale, best of
    /// three attempts. Scheduler noise on a shared runner is one-sided
    /// (interference only ever slows an arm down) while real instrument
    /// cost is systematic, so one clean attempt certifies the gate and a
    /// genuine regression fails every attempt. Timing-sensitive, so it is
    /// `#[ignore]`d in the default (parallel, debug) test run; CI runs it
    /// serially in release:
    /// `cargo test -p jigsaw-bench --release e14 -- --ignored --test-threads=1`.
    #[test]
    #[ignore = "wall-clock gate; run serially in release (see CI workflow)"]
    fn overhead_gate_under_two_percent() {
        const ATTEMPTS: usize = 3;
        let mut best: Vec<(&'static str, f64)> = Vec::new();
        for _ in 0..ATTEMPTS {
            let rows = run(Scale::QUICK);
            for r in &rows {
                assert!(r.identical, "{}: toggling observability moved result bits", r.workload);
                match best.iter_mut().find(|(w, _)| *w == r.workload) {
                    Some((_, o)) => *o = o.min(r.overhead),
                    None => best.push((r.workload, r.overhead)),
                }
            }
            if best.iter().all(|&(_, o)| o < 0.02) {
                return;
            }
        }
        let report: Vec<String> =
            best.iter().map(|(w, o)| format!("{w}: {:+.2}%", o * 100.0)).collect();
        panic!(
            "enabled instruments stayed over the 2% gate across {ATTEMPTS} attempts ({})",
            report.join(", ")
        );
    }
}
