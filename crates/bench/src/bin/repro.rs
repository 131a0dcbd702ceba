//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--quick] [--exp e1,e2,...] [--threads N] [--deterministic]
//!       [--save-basis DIR] [--load-basis DIR]
//!       [--sketch] [--sketch-budget S] [--refine-top-k K]
//! ```
//!
//! Default runs all experiments at paper scale; `--quick` shrinks workloads
//! for smoke runs. `--threads N` sets the world-evaluation thread budget
//! (`0` = all cores) for the sweep/Markov experiments e2–e6 — a pure
//! wall-clock knob, since every sweep is bit-identical for any budget. E1
//! (engine comparison) and E7 (accuracy) don't consume it, and E8 always
//! measures its own 1/2/4/8 ladder. `--deterministic` redacts wall-clock
//! columns so two runs (e.g. `--threads 1` vs `--threads 4`) emit
//! byte-identical markdown; the CI smoke job diffs exactly that. Output is
//! markdown, suitable for pasting into `EXPERIMENTS.md`.
//!
//! `--save-basis DIR` makes E9's cold sweeps persist their basis stores as
//! snapshots under `DIR`; `--load-basis DIR` warm-starts E9's warm sweeps
//! from a previous run's `DIR` instead of the snapshots written this run.
//! Warm-started sweeps are bit-identical to cold ones, so a save run and a
//! load run emit byte-identical deterministic tables — the CI smoke job
//! diffs exactly that pair too.
//!
//! `--sketch` is shorthand for `--exp e12`: run only the sketch-then-refine
//! comparison. `--sketch-budget S` / `--refine-top-k K` override E12's
//! sketch knobs (defaults: `2m` coarse worlds per point, frontier width 4).
//! Sketch pruning is a pure function of (config, seed), so deterministic
//! sketch runs are byte-identical across thread budgets — the CI smoke job
//! diffs a `--sketch --threads 1` run against a `--threads 4` one.
//!
//! Retired experiment numbers are not reused, and naming one with `--exp`
//! selects nothing. Metric and span costs are not an experiment: the repo
//! benchmark's `obs.*` and `trace.overhead_pct` probes price them.

use std::path::PathBuf;

use jigsaw_bench::experiments::{e1, e10, e12, e13, e2, e3, e4, e5, e6, e7, e8, e9};
use jigsaw_bench::{Scale, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let deterministic = args.iter().any(|a| a == "--deterministic");
    let threads: usize = match args.iter().position(|a| a == "--threads") {
        None => 1,
        Some(i) => args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            eprintln!("error: --threads requires an integer value (0 = all cores)");
            std::process::exit(2);
        }),
    };
    let dir_flag = |flag: &str| -> Option<PathBuf> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).map(PathBuf::from).unwrap_or_else(|| {
                eprintln!("error: {flag} requires a directory path");
                std::process::exit(2);
            })
        })
    };
    let save_basis = dir_flag("--save-basis");
    let load_basis = dir_flag("--load-basis");
    let sketch_only = args.iter().any(|a| a == "--sketch");
    let usize_flag = |flag: &str| -> Option<usize> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("error: {flag} requires a positive integer");
                std::process::exit(2);
            })
        })
    };
    let sketch_budget = usize_flag("--sketch-budget");
    let refine_top_k = usize_flag("--refine-top-k");
    let scale = (if quick { Scale::QUICK } else { Scale::FULL }).with_threads(threads);
    let selected: Vec<String> = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(|x| x.trim().to_lowercase()).collect())
        .unwrap_or_default();
    // `--sketch` narrows the run to E12, exactly like `--exp e12`.
    let want = |name: &str| {
        if sketch_only {
            name == "e12"
        } else {
            selected.is_empty() || selected.iter().any(|s| s == name)
        }
    };
    let render =
        |t: &Table| if deterministic { t.to_markdown_deterministic() } else { t.to_markdown() };

    // The header must stay identical across thread budgets in deterministic
    // mode (the CI diff compares such runs), so the budget is only printed
    // in the normal mode.
    if deterministic {
        println!(
            "# Jigsaw reproduction run ({} scale: n={}, m={}, space ÷{}; deterministic output)\n",
            if quick { "quick" } else { "full" },
            scale.n_samples,
            scale.m,
            scale.space_divisor
        );
    } else {
        println!(
            "# Jigsaw reproduction run ({} scale: n={}, m={}, space ÷{}, threads={})\n",
            if quick { "quick" } else { "full" },
            scale.n_samples,
            scale.m,
            scale.space_divisor,
            scale.threads
        );
    }

    if want("e1") {
        eprintln!("[repro] E1: engine comparison (Figure 7)…");
        println!("{}", render(&e1::report(&e1::run(scale))));
    }
    if want("e2") {
        eprintln!("[repro] E2: Jigsaw vs full evaluation (Figure 8)…");
        println!("{}", render(&e2::report(&e2::run(scale))));
    }
    if want("e3") {
        eprintln!("[repro] E3: structure size (Figure 9)…");
        println!("{}", render(&e3::report(&e3::run(scale))));
    }
    if want("e4") {
        eprintln!("[repro] E4: static-space indexing (Figure 10)…");
        println!("{}", render(&e4::report(&e4::run(scale))));
    }
    if want("e5") {
        eprintln!("[repro] E5: growing-space indexing (Figure 11)…");
        println!("{}", render(&e5::report(&e5::run(scale))));
    }
    if want("e6") {
        eprintln!("[repro] E6: Markov branching (Figure 12)…");
        println!("{}", render(&e6::report(&e6::run(scale))));
    }
    if want("e7") {
        eprintln!("[repro] E7: accuracy (§6.2)…");
        println!("{}", render(&e7::report_fingerprint(&e7::run_fingerprint(scale))));
        println!("{}", render(&e7::report_markov(&e7::run_markov(scale))));
    }
    if want("e8") {
        eprintln!("[repro] E8: parallel sweep scaling…");
        println!("{}", render(&e8::report(&e8::run(scale))));
    }
    if want("e9") {
        eprintln!("[repro] E9: cold vs warm-started sweeps…");
        println!(
            "{}",
            render(&e9::report(&e9::run(scale, load_basis.as_deref(), save_basis.as_deref())))
        );
    }
    if want("e10") {
        eprintln!("[repro] E10: session server, multi-client warm-store sharing…");
        let (rows, ladder) = e10::run(scale);
        println!("{}", render(&e10::report(&rows)));
        println!("{}", render(&e10::report_ladder(&ladder)));
    }
    if want("e12") {
        eprintln!("[repro] E12: sketch-then-refine vs exhaustive sweep…");
        let (default_budget, default_k) = e12::default_knobs(scale);
        let rows = e12::run(
            scale,
            sketch_budget.unwrap_or(default_budget),
            refine_top_k.unwrap_or(default_k),
        );
        println!("{}", render(&e12::report(&rows)));
    }
    if want("e13") {
        eprintln!("[repro] E13: anytime SUBSCRIBE estimates with error bounds…");
        println!("{}", render(&e13::report(&e13::run(scale))));
    }
    eprintln!("[repro] done.");
}
