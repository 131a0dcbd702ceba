//! The run loop every workload shares: repeated set-up, a time-boxed timed
//! section of fixed-size rounds, guard rails, and the reduction of rounds
//! to the declared metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::spec::e2e;
use crate::stats::{highest_supported_level, median, percentile, samples_beyond, MIN_BEYOND};
use crate::trace::Tracer;
use crate::{host, probes, spec};

/// Set-ups per run; `setup_s` is their median, the last one is measured on.
pub const SETUPS: usize = 3;
/// Rounds the timed section must hold.
pub const MIN_ROUNDS: usize = 10;
/// Client think time before each timed request of the closed-loop serve
/// workloads. With none, a closed loop phase-locks with the server's 50 µs
/// idle park and flips between a ≈9 µs and a ≈140 µs mode from run to run;
/// 30 µs always lands the request in the first park, which is the state a
/// user who reads a reply before asking again sees.
pub const THINK_US: u64 = 30;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Two rounds, one set-up, no timing guard rails: the held-out-seed
    /// pass of `all`, which only compares exact counts.
    pub quick: bool,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub ops: u64,
    pub failed: u64,
    pub secs: f64,
    /// Per-op latencies in µs (serve workloads; sweeps leave it empty and
    /// are reduced per round).
    pub lat_us: Vec<f64>,
    /// Per-round scalars a workload's `finish` turns into layer metrics.
    pub aux: BTreeMap<&'static str, f64>,
    /// Per-round sample sets pooled by `finish` (generator lag, backoff).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Identity of the round's outputs; equal across rounds when the
    /// workload says results must repeat.
    pub result_hash: u64,
    /// First few failure messages (all are counted in `failed`).
    pub failures: Vec<String>,
}

impl Round {
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// An exact count with its expected behaviour across seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    pub value: f64,
    pub seed_independent: bool,
}

/// Everything a workload reports beyond the shared reduction.
#[derive(Debug, Default)]
pub struct Findings {
    pub layers: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, Count>,
}

impl Findings {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::PER_LAYER.contains(&name), "undeclared layer metric {name}");
        self.layers.insert(name, value);
    }

    pub fn count(&mut self, name: &'static str, value: f64, seed_independent: bool) {
        self.counts.insert(name, Count { value, seed_independent });
    }
}

/// One of the six workloads.
pub trait Workload {
    /// Frozen sizes, for the report.
    fn sizes(&self) -> Json;
    /// Client threads / connections the workload drives at once.
    fn clients(&self) -> usize;
    /// Build the system under test from nothing and run the warm-up.
    fn setup(&mut self) -> Result<(), String>;
    /// Stop everything `setup` started and wait for it.
    fn teardown(&mut self);
    /// One timed round. Errors abort the run; wrong answers are counted.
    fn round(&mut self, idx: usize, tr: &mut Tracer) -> Result<Round, String>;
    /// Percentile level of the tail over a round's latencies; `None` for
    /// workloads whose sample is the round itself.
    fn tail_level(&self) -> Option<f64>;
    /// Whether the latency this workload exists to show — its
    /// `op_latency_us` — is the tail (`serve_mixed`: head-of-line blocking
    /// lives in the p99) or the median (everything else).
    fn headline_is_tail(&self) -> bool {
        false
    }
    /// Whether every round must produce identical outputs.
    fn results_repeat(&self) -> bool;
    /// Workload-specific layer metrics and exact counts.
    fn finish(&mut self, rounds: &[Round], out: &mut Findings);
}

/// The full outcome of one run.
#[derive(Debug)]
pub struct Report {
    pub opts: Options,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    pub timed_s: f64,
    pub samples: u64,
    pub tail_level: f64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, Count>,
    pub failures: Vec<String>,
    pub sizes: Json,
    /// Each round's cost in order (its p50 in µs where it has latencies,
    /// its µs per op otherwise) — what the medians were taken over.
    pub round_cost_us: Vec<f64>,
    /// Each round's tail latency in µs (empty where the sample is the round).
    pub round_tail_us: Vec<f64>,
    /// Each round's ops per second.
    pub round_ops_per_s: Vec<f64>,
}

/// Which rounds of a traced run record spans: off-on-on-off, repeating.
/// Recording and plain rounds interleave on one warm system, so their
/// difference is the recording cost; the ABBA order cancels both a linear
/// drift and anything that alternates with period two (E14's strict
/// alternation is how it came to report a negative overhead).
fn records_spans(round: usize) -> bool {
    matches!(round % 4, 1 | 2)
}

/// A round's cost: its own p50 where it has latencies (an open-loop round
/// lasts what its schedule says), its wall-clock per op otherwise.
fn round_cost_us(r: &Round) -> f64 {
    if r.lat_us.is_empty() {
        r.secs / r.ops as f64 * 1e6
    } else {
        median(&r.lat_us)
    }
}

/// Median over rounds of a per-round scalar (0 where no round has it).
pub fn aux_median(rounds: &[Round], key: &str) -> f64 {
    let values: Vec<f64> = rounds.iter().filter_map(|r| r.aux.get(key).copied()).collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

/// One line of a metric table: value, unit, direction, bound, and — for a
/// set of runs — spread and run count.
pub fn metric_row(name: &str, value: f64, spread_of_runs: Option<(f64, usize)>) -> String {
    let decl = spec::spec().metric(name).expect("declared");
    let dir = if decl.better == spec::Better::Lower { "lower" } else { "higher" };
    let bound = decl.bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
    let runs = spread_of_runs
        .map_or(String::new(), |(spread, n)| format!(" spread={:.1}% n={n}", spread * 100.0));
    format!("{name:<48} {value:>16.4} {:<6} better={dir:<6} bound={bound:<4}{runs}", decl.unit)
}

fn per_round<T>(rounds: &[Round], f: impl Fn(&Round) -> T) -> Vec<T> {
    rounds.iter().map(f).collect()
}

/// Run one workload end to end.
pub fn run(opts: &Options) -> Result<Report, String> {
    let nproc = host::nproc();
    let mut wl = crate::workloads::build(&opts.workload, opts.seed, opts.trace)?;
    if wl.clients() > nproc {
        return Err(format!(
            "{} drives {} client threads but this host has nproc = {nproc}",
            opts.workload,
            wl.clients()
        ));
    }

    let setups = if opts.quick { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    for i in 0..setups {
        if i > 0 {
            wl.teardown();
        }
        let t0 = Instant::now();
        wl.setup()?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut rounds: Vec<Round> = Vec::new();
    let min_rounds = if opts.quick { 2 } else { MIN_ROUNDS };
    let box_s = if opts.quick { 0.0 } else { opts.seconds };
    while epoch.elapsed().as_secs_f64() < box_s || rounds.len() < min_rounds {
        let idx = rounds.len();
        tracer.set_on(opts.trace && records_spans(idx));
        let root = tracer.enter("round", idx as u64);
        let round = wl.round(idx, &mut tracer);
        tracer.exit(root);
        rounds.push(round?);
    }
    let timed_s = epoch.elapsed().as_secs_f64();
    tracer.set_on(false);

    let mut findings = Findings::default();
    wl.finish(&rounds, &mut findings);
    wl.teardown();

    let mut failures: Vec<String> = Vec::new();
    let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
    let mut failed: u64 = rounds.iter().map(|r| r.failed).sum();
    for r in &rounds {
        failures.extend(r.failures.iter().cloned());
    }
    if wl.results_repeat() && rounds.iter().any(|r| r.result_hash != rounds[0].result_hash) {
        failures.push("result bits differ between rounds".into());
    }

    // Guard rails (a violated rail fails the command: the numbers of a run
    // that was not the declared shape must not be compared with others).
    if !opts.quick {
        if rounds.len() < MIN_ROUNDS {
            failures.push(format!("only {} rounds (< {MIN_ROUNDS})", rounds.len()));
        }
        let (lo, hi) = (0.75 * opts.seconds, 1.25 * opts.seconds);
        if !(lo..=hi).contains(&timed_s) {
            failures.push(format!(
                "timed section took {timed_s:.2} s, outside {lo:.1}–{hi:.1} s: a round is \
                 longer than a tenth of --seconds on this host"
            ));
        }
    }

    // Reduction. A serve round is reduced to its own p50/tail first and
    // the metric is the median of those; a sweep round is one sample.
    let samples: u64 = match wl.tail_level() {
        Some(_) => rounds.iter().map(|r| r.lat_us.len() as u64).sum(),
        None => rounds.len() as u64,
    };
    let tail_level = match wl.tail_level() {
        Some(q) => q,
        None => highest_supported_level(rounds.len()).unwrap_or(0.5),
    };
    if !opts.quick && samples_beyond(samples as usize, tail_level) < MIN_BEYOND {
        failures.push(format!(
            "p{} of {samples} samples has fewer than {MIN_BEYOND} samples beyond it",
            tail_level * 100.0
        ));
    }
    let round_ops_per_s = per_round(&rounds, |r| r.ops as f64 / r.secs);
    let round_cost_us = per_round(&rounds, round_cost_us);
    let round_tail_us = match wl.tail_level() {
        Some(q) => per_round(&rounds, |r| percentile(&r.lat_us, q)),
        None => Vec::new(),
    };
    let ops_per_s = median(&round_ops_per_s);
    let p50 = median(&round_cost_us);
    let tail = match wl.tail_level() {
        Some(_) => median(&round_tail_us),
        None => percentile(&round_cost_us, tail_level),
    };
    let mut e2e_values = BTreeMap::new();
    e2e_values.insert(e2e::SETUP_S, median(&setup_s));
    e2e_values.insert(e2e::OPS_PER_S, ops_per_s);
    e2e_values.insert(e2e::OP_LATENCY_US, if wl.headline_is_tail() { tail } else { p50 });
    e2e_values.insert(
        e2e::PEAK_RSS_MB,
        host::peak_rss_mb().ok_or("VmHWM is not readable from /proc/self/status")?,
    );

    let mut layers = findings.layers;
    layers.insert("op.p50_us", p50);
    layers.insert("op.tail_us", tail);
    if opts.trace {
        let side = |recording: bool| -> Vec<f64> {
            let on_side =
                round_cost_us.iter().enumerate().filter(|(i, _)| records_spans(*i) == recording);
            on_side.map(|(_, cost)| *cost).collect()
        };
        let (on, off) = (median(&side(true)), median(&side(false)));
        layers.insert("trace.overhead_pct", (on - off) / off * 100.0);
        layers.insert("trace.spans", tracer.spans().len() as f64);
        layers.insert("loadgen.rounds", rounds.len() as f64);
        layers.insert("loadgen.timed_s", timed_s);
        probes::run_all(opts.seed, &mut layers)?;
        probes::derive(&opts.workload, p50, &mut layers);
        for name in spec::PER_LAYER {
            layers.entry(name).or_insert(0.0);
        }
        write_trace(opts, &tracer, &layers)?;
    }

    failed = failed.min(attempted);
    let correct = failures.is_empty() && failed == 0;
    if !correct && failed == 0 {
        // A failed gate that is not tied to single ops (a guard rail, a
        // cross-round hash) still has to show in the failure ratio.
        failed = attempted;
    }
    Ok(Report {
        opts: opts.clone(),
        correct,
        attempted,
        failed,
        rounds: rounds.len(),
        timed_s,
        samples,
        tail_level,
        e2e: e2e_values,
        layers,
        counts: findings.counts,
        failures,
        sizes: wl.sizes(),
        round_cost_us,
        round_tail_us,
        round_ops_per_s,
    })
}

/// `benchmark/out/`, where a run writes its trace and `all` its children's
/// reports: inside the checkout the binary was built from.
pub fn out_dir() -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// `benchmark/out/trace-<workload>.json`: spans plus the layer table.
fn write_trace(
    opts: &Options,
    tracer: &Tracer,
    layers: &BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let dir = out_dir()?;
    let mut table = Json::obj();
    for (name, value) in layers {
        table.set(name, *value);
    }
    let doc = Json::obj()
        .with("workload", opts.workload.as_str())
        .with("seed", opts.seed)
        .with("host", host::fingerprint())
        .with("layers", table)
        .with("trace", tracer.to_json(50_000));
    let path = dir.join(format!("trace-{}.json", opts.workload));
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

impl Report {
    /// The contract's result line: `correct`, `attempted`, `failed` and
    /// either every end-to-end metric or every per-layer metric.
    pub fn result_line(&self) -> Json {
        let spec = spec::spec();
        let (decls, values) = if self.opts.trace {
            (&spec.per_layer, &self.layers)
        } else {
            (&spec.end_to_end, &self.e2e)
        };
        let mut metrics = Json::obj();
        for decl in decls {
            let value = values
                .get(decl.name.as_str())
                .copied()
                .unwrap_or_else(|| panic!("declared metric {} was not measured", decl.name));
            metrics
                .set(&decl.name, Json::obj().with("value", value).with("unit", decl.unit.as_str()));
        }
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }

    /// The full report `all` aggregates (`--report FILE`).
    pub fn to_json(&self) -> Json {
        let values = |m: &BTreeMap<&'static str, f64>| {
            let mut o = Json::obj();
            for (k, v) in m {
                o.set(k, *v);
            }
            o
        };
        let mut counts = Json::obj();
        for (k, c) in &self.counts {
            counts.set(
                k,
                Json::obj().with("value", c.value).with("seed_independent", c.seed_independent),
            );
        }
        Json::obj()
            .with("workload", self.opts.workload.as_str())
            .with("seed", self.opts.seed)
            .with("trace", self.opts.trace)
            .with("quick", self.opts.quick)
            .with("correct", self.correct)
            .with("ops_attempted", self.attempted)
            .with("ops_failed", self.failed)
            .with("failed_ratio", self.failed as f64 / self.attempted.max(1) as f64)
            .with("rounds", self.rounds)
            .with("timed_s", self.timed_s)
            .with("samples", self.samples)
            .with("tail_level", self.tail_level)
            .with("sizes", self.sizes.clone())
            .with("end_to_end", values(&self.e2e))
            .with("per_layer", values(&self.layers))
            .with("counts", counts)
            .with("round_cost_us", self.round_cost_us.clone())
            .with("round_tail_us", self.round_tail_us.clone())
            .with("round_ops_per_s", self.round_ops_per_s.clone())
            .with("failures", self.failures.clone())
    }

    /// Every metric by name with its unit, direction, bound and sample
    /// count, for a person.
    pub fn print_human(&self) {
        let spec = spec::spec();
        println!(
            "# {} seed={} trace={} — {}",
            self.opts.workload,
            self.opts.seed,
            self.opts.trace,
            spec.why(&self.opts.workload)
        );
        println!(
            "  ops_attempted={} ops_failed={} failed_ratio={} rounds={} timed_s={:.2} samples={} \
             tail=p{}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.rounds,
            self.timed_s,
            self.samples,
            self.tail_level * 100.0
        );
        let row = |name: &str, value: f64| println!("  {}", metric_row(name, value, None));
        if !self.opts.trace {
            for name in e2e::ALL {
                row(name, self.e2e[name]);
            }
        }
        for name in spec::PER_LAYER {
            if let Some(v) = self.layers.get(name) {
                row(name, *v);
            }
        }
        for (name, c) in &self.counts {
            let scope = if c.seed_independent { "seed-independent" } else { "varies with seed" };
            println!("  count {name:<42} {:>16} ({scope})", c.value);
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }
}
