//! # jigsaw-bench — reproduction harness for the paper's evaluation (§6)
//!
//! Each experiment module regenerates one table or figure:
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`experiments::e1`] | Figure 7 — online (DBMS) vs offline (direct) engine, s/pc |
//! | [`experiments::e2`] | Figure 8 — full evaluation vs Jigsaw |
//! | [`experiments::e3`] | Figure 9 — time/point vs structure size, 3 index strategies |
//! | [`experiments::e4`] | Figure 10 — indexing in a static parameter space |
//! | [`experiments::e5`] | Figure 11 — indexing, parameter space growing with basis size |
//! | [`experiments::e6`] | Figure 12 — Markov-jump performance vs branching factor |
//! | [`experiments::e7`] | §6.2 accuracy — fingerprint length and Markov-jump error |
//! | [`experiments::e8`] | Parallel sweep scaling at 1/2/4/8 threads (reproduction extension) |
//! | [`experiments::e9`] | Cold vs snapshot-warm-started sweeps (reproduction extension) |
//! | [`experiments::e10`] | Session server: multi-client warm-store sharing (reproduction extension) |
//! | [`experiments::e12`] | Sketch-then-refine vs exhaustive sweep (reproduction extension) |
//! | [`experiments::e13`] | Anytime `SUBSCRIBE` estimates with error bounds (reproduction extension) |
//! | [`experiments::e14`] | Observability overhead, instruments on vs off (reproduction extension) |
//!
//! The `repro` binary prints them as text tables; `EXPERIMENTS.md` records
//! paper-vs-measured values. Absolute times differ from the paper's 2009-era
//! hardware; the claims under reproduction are the *shapes*: who wins, by
//! roughly what factor, and where crossovers fall.

pub mod experiments;
pub mod table;

pub use table::Table;

/// Standard scale factors so `--quick` runs finish in seconds while the
/// default reproduces the paper's workload sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Monte Carlo samples per parameter point (paper: 1000).
    pub n_samples: usize,
    /// Fingerprint length (paper: 10).
    pub m: usize,
    /// Divide parameter-space sizes by this factor.
    pub space_divisor: usize,
    /// Thread budget for sweep/Markov world evaluation (`repro --threads`).
    /// Pure wall-clock knob: every reported counter and result is
    /// bit-identical for any value — the CI smoke job diffs two runs with
    /// different budgets to enforce exactly that.
    pub threads: usize,
}

impl Scale {
    /// Paper-sized workloads.
    pub const FULL: Scale = Scale { n_samples: 1000, m: 10, space_divisor: 1, threads: 1 };
    /// Reduced sizes for smoke runs and CI.
    pub const QUICK: Scale = Scale { n_samples: 200, m: 10, space_divisor: 4, threads: 1 };

    /// Override the thread budget.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_consistent() {
        for s in [Scale::FULL, Scale::QUICK] {
            assert!(s.n_samples > s.m);
            assert!(s.space_divisor >= 1);
            assert_eq!(s.threads, 1, "default scales are sequential");
        }
        assert_eq!(Scale::QUICK.with_threads(4).threads, 4);
    }
}
