//! The benchmark's declared surface: workload and metric names.
//!
//! `../BENCHMARK.json` is the single declaration of units, directions and
//! regression bounds; it is embedded at build time and parsed here. The
//! name lists below are what the code *emits*; a test pins the two to be
//! the same sets, so a metric can neither go missing nor appear undeclared.

use std::sync::OnceLock;

use crate::json::Json;

/// The six workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 6] =
    ["sweep_reuse", "sweep_hostile", "sweep_plan", "serve_warm", "serve_subscribe", "serve_mixed"];

/// End-to-end metric names. Every workload reports every one of them; what
/// "an op" is per workload is in the README glossary.
pub mod e2e {
    pub const SETUP_S: &str = "setup_s";
    pub const OPS_PER_S: &str = "ops_per_s";
    pub const OP_LATENCY_US: &str = "op_latency_us";
    pub const PEAK_RSS_MB: &str = "peak_rss_mb";
    pub const ALL: [&str; 4] = [SETUP_S, OPS_PER_S, OP_LATENCY_US, PEAK_RSS_MB];
}

/// Per-layer metric names (the traced run reports every one; a metric that
/// does not apply to the workload being run reads 0).
pub const PER_LAYER: [&str; 73] = [
    "op.p50_us",
    "op.tail_us",
    "prng.normal_draw_ns",
    "blackbox.eval_ns.synth",
    "blackbox.eval_ns.ramp",
    "blackbox.eval_ns.userreq",
    "pdb.worlds.small_window_ns_per_world",
    "pdb.worlds.large_window_ns_per_world",
    "pdb.exec.dbms_us_per_world",
    "pdb.exec.direct_us_per_world",
    "pdb.exec.oracle_over_columnar",
    "pdb.estimator.ns_per_sample",
    "sqlfront.compile_us",
    "core.index.lookup_ns.array",
    "core.index.lookup_ns.normalization",
    "core.index.lookup_ns.sorted_sid",
    "core.index.insert_ns.array",
    "core.index.insert_ns.normalization",
    "core.index.insert_ns.sorted_sid",
    "core.index.candidates_per_lookup.array",
    "core.index.candidates_per_lookup.normalization",
    "core.index.candidates_per_lookup.sorted_sid",
    "core.mapping.find_ns",
    "core.fingerprint.affine_fits_ns",
    "core.basis.find_match_hit_ns",
    "core.basis.find_match_miss_ns",
    "core.basis.stage_commit_ns",
    "core.basis.shared_read_ns",
    "core.snapshot.save_us",
    "core.snapshot.load_us",
    "core.snapshot.bytes_per_basis",
    "core.executor.fingerprint_s",
    "core.executor.resolve_s",
    "core.executor.completion_s",
    "core.executor.commit_s",
    "core.executor.residual_s",
    "core.executor.waves",
    "core.executor.reuse_rate",
    "core.executor.pairings_per_point",
    "core.pool.scatter_us.scoped",
    "core.pool.scatter_us.persistent",
    "core.selector.select_us",
    "core.session.estimate_ns",
    "core.session.refine_once_us",
    "core.session.tick_us",
    "server.protocol.request_encode_ns",
    "server.protocol.request_decode_ns",
    "server.protocol.response_encode_ns",
    "server.protocol.response_decode_ns",
    "server.protocol.frame_rw_ns",
    "server.loop.rtt_hello_us",
    "server.loop.request_us_p50.estimate",
    "server.loop.request_us_p50.sweep",
    "server.loop.request_us_p50.subscribe",
    "server.loop.pump_pass_us_p50",
    "server.loop.idle_backoff_us_p50",
    "server.loop.wake_gap_us",
    "loadgen.lag_p99_us",
    "subscribe.frames_per_probe",
    "subscribe.tier0_ratio",
    "subscribe.converged_ratio",
    "serve.first_bound_p50_us",
    "serve.remote_sweep_p50_ms",
    "sweep.worlds_per_point",
    "sweep.bases",
    "obs.counter_inc_ns",
    "obs.hist_record_ns",
    "obs.metrics_scrape_us",
    "trace.overhead_pct",
    "trace.spans",
    "layers.residual_pct",
    "loadgen.rounds",
    "loadgen.timed_s",
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub command: Vec<String>,
    pub paths: Vec<String>,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let str_of = |j: &Json, key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key).and_then(Json::as_arr).ok_or_else(|| format!("missing array `{key}`"))
        };
        let strings = |key: &str| -> Result<Vec<String>, String> {
            list(key)?
                .iter()
                .map(|j| {
                    j.as_str().map(str::to_string).ok_or(format!("`{key}` holds a non-string"))
                })
                .collect()
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = match str_of(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("`better` is `{other}`")),
                    };
                    Ok(MetricDecl {
                        name: str_of(m, "name")?,
                        unit: str_of(m, "unit")?,
                        better,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing number `run_seconds`")? as u64,
            command: strings("command")?,
            paths: strings("paths")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((str_of(w, "name")?, str_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }

    pub fn why(&self, workload: &str) -> &str {
        self.workloads.iter().find(|(n, _)| n == workload).map_or("", |(_, w)| w)
    }
}

/// The declaration this binary was built against.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is malformed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn set<'a>(names: impl IntoIterator<Item = &'a str>) -> BTreeSet<&'a str> {
        names.into_iter().collect()
    }

    #[test]
    fn emitted_names_are_exactly_the_declared_names() {
        let spec = spec();
        let declared_workloads = set(spec.workloads.iter().map(|(n, _)| n.as_str()));
        assert_eq!(declared_workloads, set(WORKLOADS), "workloads");
        assert_eq!(spec.workloads.len(), WORKLOADS.len(), "a workload is declared twice");

        let declared_e2e = set(spec.end_to_end.iter().map(|m| m.name.as_str()));
        assert_eq!(declared_e2e, set(e2e::ALL), "end-to-end metrics");
        assert_eq!(spec.end_to_end.len(), e2e::ALL.len(), "an end-to-end metric is declared twice");

        let declared_layers = set(spec.per_layer.iter().map(|m| m.name.as_str()));
        assert_eq!(declared_layers, set(PER_LAYER), "per-layer metrics");
        assert_eq!(spec.per_layer.len(), PER_LAYER.len(), "a per-layer metric is declared twice");
        assert_eq!(set(PER_LAYER).len(), PER_LAYER.len(), "a per-layer metric is emitted twice");

        let all: Vec<&str> = WORKLOADS.iter().chain(&e2e::ALL).chain(&PER_LAYER).copied().collect();
        assert_eq!(set(all.iter().copied()).len(), all.len(), "a name is used twice");
        for name in all {
            assert!(well_formed(name), "`{name}` breaks the naming rules");
        }
    }

    #[test]
    fn declaration_meets_the_contract_limits() {
        let spec = spec();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert_eq!(spec.paths, ["benchmark"]);
        for (_, why) in &spec.workloads {
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!((0.0..=0.25).contains(&bound), "{} bound {bound}", m.name);
        }
        let setup = spec.metric(e2e::SETUP_S).expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit `{}` of {}",
                m.unit,
                m.name
            );
            if spec.per_layer.contains(m) {
                assert_eq!(m.bound, None, "{} is per-layer and carries no bound", m.name);
            }
        }
        for part in &spec.command {
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."), "{part}");
        }
    }
}
