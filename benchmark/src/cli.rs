//! Command line: `run` one workload (the driver's form), `all` of them in
//! child processes, or `agree` on two result sets.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::harness::{self, Options};
use crate::json::Json;
use crate::spec::{self, e2e};
use crate::stats::{iqr_spread, median};
use crate::{agree, host};

/// The contract's cap on everything the driver runs; `all` keeps its own
/// total under it by trimming rounds (never sizes).
const WALL_CLOCK_CAP_S: f64 = 3420.0;
/// Set-up, warm-up and process start of one child, generously.
const CHILD_OVERHEAD_S: f64 = 6.0;

const USAGE: &str = "usage:
  jigsaw-benchmark [run] --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]]
                         [--quick] [--report <file>]
  jigsaw-benchmark all --seed <u64> [--repeat <k>] [--seconds <s>] [--trace] [--out <file>]
  jigsaw-benchmark agree <A.json> <B.json>";

struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

/// `--name value` pairs; `--trace` and `--quick` may stand alone.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            positional.push(arg.clone());
            continue;
        };
        let bare = matches!(name, "trace" | "quick");
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") && (!bare || matches!(v.as_str(), "0" | "1")) => {
                it.next().cloned().unwrap_or_default()
            }
            _ if bare => "1".to_string(),
            _ => return Err(format!("--{name} needs a value")),
        };
        if flags.insert(name.to_string(), value).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    Ok(Args { flags, positional })
}

impl Args {
    fn take<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.flags.remove(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("--{name}: cannot read `{v}`")),
        }
    }

    fn switch(&mut self, name: &str) -> Result<bool, String> {
        Ok(self.take::<u8>(name)?.is_some_and(|v| v != 0))
    }

    fn done(self) -> Result<(), String> {
        match self.flags.keys().next() {
            Some(extra) => Err(format!("unknown option --{extra}")),
            None => Ok(()),
        }
    }
}

pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("run") => ("run", &argv[1..]),
        Some("all") => ("all", &argv[1..]),
        Some("agree") => ("agree", &argv[1..]),
        // The driver appends its options straight to the command.
        Some(first) if first.starts_with("--") => ("run", &argv[..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = parse(rest).and_then(|args| match command {
        "run" => run(args),
        "all" => all(args),
        _ => agree::main(&args.positional),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("jigsaw-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

fn run(mut args: Args) -> Result<bool, String> {
    let opts = Options {
        workload: args.take("workload")?.ok_or("--workload is required")?,
        seed: args.take("seed")?.ok_or("--seed is required")?,
        seconds: args.take("seconds")?.unwrap_or(spec::spec().run_seconds as f64),
        trace: args.switch("trace")?,
        quick: args.switch("quick")?,
    };
    let report_path: Option<PathBuf> = args.take("report")?;
    args.done()?;
    if !(1.0..=60.0).contains(&opts.seconds) {
        return Err(format!("--seconds {} is outside 1..=60", opts.seconds));
    }
    let report = harness::run(&opts)?;
    report.print_human();
    if let Some(path) = report_path {
        std::fs::write(&path, report.to_json().render_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    // Last line of standard output: the result object.
    println!("{}", report.result_line().render());
    Ok(report.correct)
}

/// Values of one metric over the runs of a result set.
type Series = BTreeMap<String, Vec<f64>>;

#[derive(Default)]
struct Collected {
    sizes: Json,
    correct: bool,
    attempted: Vec<f64>,
    failed: Vec<f64>,
    samples: Vec<f64>,
    tail_level: f64,
    e2e: Series,
    /// `op.p50_us` / `op.tail_us` as the untraced runs measured them.
    untraced_op: Series,
    layers: Series,
    /// `(values across seeds, declared seed-independent)`.
    counts: BTreeMap<String, (Vec<f64>, bool)>,
    failures: Vec<String>,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let report = harness::out_dir()?.join(format!("report-{workload}.json"));
    let _ = std::fs::remove_file(&report);
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--report")
        .arg(&report)
        .stdin(Stdio::null());
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end before returning.
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = std::fs::read_to_string(&report).map_err(|_| {
        format!(
            "{workload} (seed {seed}) exited with {} and wrote no report:\n{}{}",
            output.status,
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", report.display()))
}

fn fold(into: &mut Collected, report: &Json, timing: bool) {
    let num = |key: &str| report.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    into.correct &= report.get("correct").and_then(Json::as_bool).unwrap_or(false);
    if let Some(failures) = report.get("failures").and_then(Json::as_arr) {
        into.failures.extend(failures.iter().filter_map(Json::as_str).map(str::to_string));
    }
    if let Some(counts) = report.get("counts") {
        for (name, c) in counts.fields() {
            let value = c.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let fixed = c.get("seed_independent").and_then(Json::as_bool).unwrap_or(false);
            into.counts.entry(name.clone()).or_insert_with(|| (Vec::new(), fixed)).0.push(value);
        }
    }
    if !timing {
        return;
    }
    let traced = report.get("trace").and_then(Json::as_bool).unwrap_or(false);
    if traced {
        for (name, v) in report.get("per_layer").map_or(&[][..], Json::fields) {
            into.layers.entry(name.clone()).or_default().extend(v.as_f64());
        }
        return;
    }
    // The untraced run also knows the ungated half of its op latency.
    for (name, v) in report.get("per_layer").map_or(&[][..], Json::fields) {
        if name.starts_with("op.") {
            into.untraced_op.entry(name.clone()).or_default().extend(v.as_f64());
        }
    }
    into.sizes = report.get("sizes").cloned().unwrap_or_default();
    into.attempted.push(num("ops_attempted"));
    into.failed.push(num("ops_failed"));
    into.samples.push(num("samples"));
    into.tail_level = num("tail_level");
    for (name, v) in report.get("end_to_end").map_or(&[][..], Json::fields) {
        into.e2e.entry(name.clone()).or_default().extend(v.as_f64());
    }
}

fn all(mut args: Args) -> Result<bool, String> {
    let seed: u64 = args.take("seed")?.ok_or("--seed is required")?;
    let repeat: usize = args.take("repeat")?.unwrap_or(1).max(1);
    let mut seconds: f64 = args.take("seconds")?.unwrap_or(spec::spec().run_seconds as f64);
    let trace = args.switch("trace")?;
    let out: Option<PathBuf> = args.take("out")?;
    args.done()?;

    // Keep the whole command under the cap by trimming rounds, never sizes.
    let children = spec::WORKLOADS.len() * (repeat + usize::from(trace));
    let fits = WALL_CLOCK_CAP_S / children as f64 - CHILD_OVERHEAD_S;
    if fits < seconds {
        if fits < 5.0 {
            return Err(format!("--repeat {repeat} cannot fit under {WALL_CLOCK_CAP_S} s"));
        }
        println!("trimming --seconds {seconds} to {fits:.1} to stay under {WALL_CLOCK_CAP_S} s");
        seconds = fits.floor();
    }

    let started = Instant::now();
    let mut collected: BTreeMap<&str, Collected> = BTreeMap::new();
    for rep in 0..repeat {
        let run_seed = seed + rep as u64;
        for workload in spec::WORKLOADS {
            let c = collected
                .entry(workload)
                .or_insert_with(|| Collected { correct: true, ..Collected::default() });
            eprintln!("[{:>6.1} s] {workload} seed {run_seed}", started.elapsed().as_secs_f64());
            fold(c, &child(workload, run_seed, seconds, false, false)?, true);
            // Layer numbers carry no bound: one traced child per workload
            // (on the first seed) is the table the ledger needs.
            if trace && rep == 0 {
                fold(c, &child(workload, run_seed, seconds, true, false)?, true);
            }
        }
    }
    // The held-out seed: exact counts that should not depend on the seed
    // must read the same there. With --repeat the later seeds already are
    // held out; a single run adds one quick pass (two rounds, no timing).
    if repeat == 1 {
        for workload in spec::WORKLOADS {
            eprintln!(
                "[{:>6.1} s] {workload} held-out seed {}",
                started.elapsed().as_secs_f64(),
                seed + 1
            );
            let c = collected.get_mut(workload).expect("collected above");
            fold(c, &child(workload, seed + 1, seconds, false, true)?, false);
        }
    }
    let wall = started.elapsed().as_secs_f64();

    let spec = spec::spec();
    let mut ok = true;
    let mut doc_workloads = Json::obj();
    for workload in spec::WORKLOADS {
        let c = &collected[workload];
        ok &= c.correct;
        println!("\n# {workload} — {}", spec.why(workload));
        let (att, fail): (f64, f64) = (c.attempted.iter().sum(), c.failed.iter().sum());
        println!(
            "  runs={} ops_attempted={att} ops_failed={fail} failed_ratio={} samples/run={} tail=p{}",
            c.attempted.len(),
            fail / att.max(1.0),
            median(&c.samples),
            c.tail_level * 100.0
        );
        for (title, series, names) in [
            ("end to end", &c.e2e, &e2e::ALL[..]),
            ("not gated, untraced runs", &c.untraced_op, &spec::PER_LAYER[..2]),
            ("per layer, traced runs", &c.layers, &spec::PER_LAYER[..]),
        ] {
            if series.is_empty() {
                continue;
            }
            println!("  {title}:");
            for name in names {
                let Some(values) = series.get(*name) else { continue };
                let spread = (values.len() >= 2).then(|| (iqr_spread(values), values.len()));
                println!("    {}", harness::metric_row(name, median(values), spread));
            }
        }
        let mut counts = Json::obj();
        for (name, (values, fixed)) in &c.counts {
            let same = values.windows(2).all(|w| w[0] == w[1]);
            let verdict = match (fixed, same) {
                (true, true) => "seed-independent, holds",
                (true, false) => {
                    ok = false;
                    "SEED-INDEPENDENT BUT VARIED"
                }
                (false, true) => "may vary with seed (did not)",
                (false, false) => "varies with seed (flagged)",
            };
            println!("    count {name:<42} {:>14} {verdict}", values[0]);
            counts.set(
                name,
                Json::obj()
                    .with("values", values.clone())
                    .with("seed_independent", *fixed)
                    .with("holds", same || !fixed),
            );
        }
        for f in &c.failures {
            println!("  FAILED: {f}");
        }
        let series = |s: &Series| {
            let mut o = Json::obj();
            for (k, v) in s {
                o.set(k, v.clone());
            }
            o
        };
        doc_workloads.set(
            workload,
            Json::obj()
                .with("why", spec.why(workload))
                .with("sizes", c.sizes.clone())
                .with("correct", c.correct)
                .with("ops_attempted", c.attempted.clone())
                .with("ops_failed", c.failed.clone())
                .with("failed_ratio", fail / att.max(1.0))
                .with("samples", c.samples.clone())
                .with("tail_level", c.tail_level)
                .with("end_to_end", series(&c.e2e))
                .with("untraced_op", series(&c.untraced_op))
                .with("per_layer", series(&c.layers))
                .with("counts", counts),
        );
    }
    println!("\ntotal wall-clock of `all`: {wall:.1} s ({children} timed children, cap {WALL_CLOCK_CAP_S} s)");
    if wall > WALL_CLOCK_CAP_S {
        println!("FAILED: over the cap");
        ok = false;
    }
    if let Some(path) = out {
        let doc = Json::obj()
            .with("schema", "jigsaw-benchmark/1")
            .with("host", host::fingerprint())
            .with("seed", seed)
            .with("repeat", repeat)
            .with("seconds", seconds)
            .with("wall_clock_s", wall)
            .with("workloads", doc_workloads);
        std::fs::write(&path, doc.render_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_form_parses() {
        let mut a =
            args(&["--workload", "serve_warm", "--seed", "7", "--seconds", "8", "--trace", "0"])
                .unwrap();
        assert_eq!(a.take::<String>("workload").unwrap().as_deref(), Some("serve_warm"));
        assert_eq!(a.take::<u64>("seed").unwrap(), Some(7));
        assert!(!a.switch("trace").unwrap());
        assert_eq!(a.take::<f64>("seconds").unwrap(), Some(8.0));
        a.done().unwrap();
    }

    #[test]
    fn trace_may_stand_alone_or_carry_a_value() {
        assert!(args(&["--trace"]).unwrap().switch("trace").unwrap());
        assert!(args(&["--trace", "1", "--seed", "3"]).unwrap().switch("trace").unwrap());
        let mut a = args(&["--trace", "--seed", "3"]).unwrap();
        assert!(a.switch("trace").unwrap());
        assert_eq!(a.take::<u64>("seed").unwrap(), Some(3));
        assert!(!args(&[]).unwrap().switch("trace").unwrap());
    }

    #[test]
    fn bad_input_is_an_error_not_a_default() {
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "1", "--seed", "2"]).is_err());
        assert!(args(&["--seed", "x"]).unwrap().take::<u64>("seed").is_err());
        assert!(args(&["--frobnicate", "1"]).unwrap().done().is_err());
    }
}
