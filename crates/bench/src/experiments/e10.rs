//! E10 — multi-client session server sharing one warm basis store (this
//! reproduction's extension, not a paper figure).
//!
//! The whole point of the session server is that expensive stochastic
//! state is paid for once and amortized across users (cf. Stochastic
//! SketchRefine's argument that in-database decision-making under
//! uncertainty only reaches interactive latencies when stochastic state is
//! shared). This experiment measures exactly that: a loopback server gets
//! one **cold** client — whose `SWEEP` pays the full Monte Carlo ramp —
//! followed by several **warm** clients compiling the same scenario over
//! open concurrent connections. Each warm client's sweep must report
//! `warm_hits == points` (it evaluates fingerprint worlds only), and its
//! per-estimate latency is a read of the shared store rather than a
//! simulation.
//!
//! Every deterministic column (worlds, warm hits, estimate provenance) is
//! identical run to run; only the latency columns are wall-clock.
//!
//! The second half (ISSUE 6) is the **connection ladder**: after the store
//! is warm, N concurrent scripted clients — N climbing to 400 — connect,
//! compile, and estimate against the server, one blocking thread per
//! connection. Every client's estimates must be bit-identical to every
//! other's (same store, same seeds), and the reported metric is mean
//! µs/estimate as a function of connection count.

use std::time::Instant;

use jigsaw_blackbox::models::SynthBasis;
use jigsaw_blackbox::Workload;
use jigsaw_core::JigsawConfig;
use jigsaw_pdb::Catalog;
use jigsaw_server::{default_catalog, Client, JigsawServer, Request, Response, ServerHandle};

use crate::table::{fmt_secs, Table};
use crate::Scale;

/// One client's leg against the shared server.
#[derive(Debug, Clone)]
pub struct E10Row {
    /// Client label (`C1` is the cold payer).
    pub client: String,
    /// `"cold"` or `"warm"`.
    pub leg: &'static str,
    /// Worlds the client's `SWEEP` evaluated.
    pub sweep_worlds: u64,
    /// Points the sweep served from pre-existing (another client's) bases.
    pub sweep_warm_hits: usize,
    /// Points the sweep fully simulated.
    pub sweep_full_sims: usize,
    /// Wall-clock seconds for the sweep.
    pub sweep_secs: f64,
    /// `ESTIMATE` probes issued after the sweep.
    pub estimates: usize,
    /// How many of them were served from a mapped basis.
    pub mapped: usize,
    /// Mean wall-clock seconds per estimate (round trip over loopback).
    pub est_secs: f64,
}

/// One rung of the connection ladder: N concurrent clients estimating
/// against the warm store, each on its own server thread.
#[derive(Debug, Clone)]
pub struct E10Ladder {
    /// Concurrent client connections in this rung.
    pub conns: usize,
    /// `ESTIMATE` probes each client issued.
    pub estimates_per_client: usize,
    /// Whether every estimate (across every client) was served from a
    /// mapped basis — i.e. the rung ran all-warm.
    pub all_mapped: bool,
    /// Mean wall-clock seconds per estimate, averaged over all clients.
    pub est_secs: f64,
}

/// Per-invocation model cost, as in E2/E8/E9: emulates the expensive
/// external models the paper targets so the cold-vs-warm gap stays honest.
const MODEL_WORK: Workload = Workload(300);

/// Number of clients attached after the cold one.
const WARM_CLIENTS: usize = 3;

/// The default catalog extended with the experiment's workload: a
/// work-weighted `SynthBasis` whose basis count is pinned at 10% of the
/// space — the same shape as E5/E9, so cold sweeps pay a real completion
/// bill that warm clients then skip.
fn catalog_with_work(points: usize) -> Catalog {
    let mut catalog = default_catalog();
    catalog.add_function_as(
        "Synth",
        std::sync::Arc::new(SynthBasis::new((points / 10).max(1)).with_work(MODEL_WORK)),
    );
    catalog
}

fn drive_client(
    addr: std::net::SocketAddr,
    label: &str,
    leg: &'static str,
    src: &str,
    probes: &[usize],
) -> (Client, E10Row) {
    let mut client = Client::connect(addr).expect("connect to loopback server");
    match client.request(&Request::Compile { src: src.into() }).expect("compile") {
        Response::Compiled { .. } => {}
        other => panic!("{label}: unexpected compile reply {other:?}"),
    }
    let t0 = Instant::now();
    let swept = client.request(&Request::Sweep).expect("sweep");
    let sweep_secs = t0.elapsed().as_secs_f64();
    let (sweep_worlds, sweep_warm_hits, sweep_full_sims) = match swept {
        Response::Swept { worlds, warm_hits, full_sims, .. } => (worlds, warm_hits, full_sims),
        other => panic!("{label}: unexpected sweep reply {other:?}"),
    };
    let mut mapped = 0usize;
    let t1 = Instant::now();
    for &p in probes {
        match client.request(&Request::Estimate { point: p, col: 0 }).expect("estimate") {
            Response::Estimated { source, .. } => {
                if source == jigsaw_core::interactive::EstimateSource::MappedBasis {
                    mapped += 1;
                }
            }
            other => panic!("{label}: unexpected estimate reply {other:?}"),
        }
    }
    let est_secs = t1.elapsed().as_secs_f64() / probes.len().max(1) as f64;
    let row = E10Row {
        client: label.to_string(),
        leg,
        sweep_worlds,
        sweep_warm_hits,
        sweep_full_sims,
        sweep_secs,
        estimates: probes.len(),
        mapped,
        est_secs,
    };
    (client, row)
}

/// One ladder rung: `n` concurrent client threads, each connect, compile,
/// and estimate every probe, with every reply's bits cross-checked against
/// client 0's. Returns the rung's row.
fn ladder_rung(handle: &ServerHandle, n: usize, src: &str, probes: &[usize]) -> E10Ladder {
    let addr = handle.local_addr();
    let threads: Vec<_> = (0..n)
        .map(|_| {
            let src = src.to_string();
            let probes = probes.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect to loopback server");
                match client.request(&Request::Compile { src }).expect("compile") {
                    Response::Compiled { .. } => {}
                    other => panic!("ladder client: unexpected compile reply {other:?}"),
                }
                let mut replies = Vec::with_capacity(probes.len());
                let t0 = Instant::now();
                for &p in &probes {
                    match client.request(&Request::Estimate { point: p, col: 0 }).expect("estimate")
                    {
                        Response::Estimated {
                            point,
                            expectation_bits,
                            std_dev_bits,
                            source,
                            ..
                        } => replies.push((
                            point,
                            expectation_bits,
                            std_dev_bits,
                            source == jigsaw_core::interactive::EstimateSource::MappedBasis,
                        )),
                        other => panic!("ladder client: unexpected estimate reply {other:?}"),
                    }
                }
                (replies, t0.elapsed().as_secs_f64())
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().expect("ladder client")).collect();
    // Bit-identity across every concurrent client: the shared warm store
    // plus seed-addressed worlds leave nothing for concurrency to perturb.
    let reference = &results[0].0;
    for (replies, _) in &results[1..] {
        assert_eq!(replies, reference, "concurrent clients diverged at {n} connections");
    }
    let all_mapped = results.iter().all(|(replies, _)| replies.iter().all(|r| r.3));
    let est_secs = results.iter().map(|(_, secs)| secs / probes.len().max(1) as f64).sum::<f64>()
        / n.max(1) as f64;
    E10Ladder { conns: n, estimates_per_client: probes.len(), all_mapped, est_secs }
}

/// Run the multi-client experiment on an in-process loopback server:
/// first the cold/warm client legs, then the connection ladder over the
/// now-warm store.
pub fn run(scale: Scale) -> (Vec<E10Row>, Vec<E10Ladder>) {
    let points = (800 / scale.space_divisor).max(20);
    let handle = JigsawServer::builder()
        .config(
            JigsawConfig::paper()
                .with_n_samples(scale.n_samples)
                .with_fingerprint_len(scale.m)
                .with_threads(scale.threads),
        )
        .catalog(catalog_with_work(points))
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .serve()
        .expect("start server");

    let src = format!(
        "DECLARE PARAMETER @p AS RANGE 0 TO {} STEP BY 1; \
         SELECT Synth(@p) AS out INTO results;",
        points - 1
    );
    let probes: Vec<usize> = (0..points).step_by(11).collect();

    let mut rows = Vec::new();
    // C1 pays the cold ramp; its connection stays open while the warm
    // clients attach, so the store is genuinely concurrently shared.
    let (c1, cold_row) = drive_client(handle.local_addr(), "C1", "cold", &src, &probes);
    rows.push(cold_row);
    let mut open = vec![c1];
    for i in 0..WARM_CLIENTS {
        let label = format!("C{}", i + 2);
        let (client, row) = drive_client(handle.local_addr(), &label, "warm", &src, &probes);
        rows.push(row);
        open.push(client);
    }
    drop(open);

    // The ladder: the store is warm, so each rung measures pure
    // connection-layer throughput. Ten probes per client keep a 400-client
    // rung at 4000 round trips.
    let ladder_probes: Vec<usize> = probes.iter().copied().take(10).collect();
    let rungs: &[usize] =
        if scale.space_divisor > 1 { &[4, 25, 100] } else { &[4, 50, 100, 200, 400] };
    let ladder = rungs.iter().map(|&n| ladder_rung(&handle, n, &src, &ladder_probes)).collect();

    handle.shutdown().expect("server shutdown");
    (rows, ladder)
}

/// Render the connection-ladder table (µs/estimate vs connection count).
pub fn report_ladder(rungs: &[E10Ladder]) -> Table {
    let mut t = Table::new(
        "E10 — connection ladder: concurrent clients vs µs/estimate (warm store)",
        &["Connections", "Estimates/client", "All mapped", "us/estimate"],
    );
    t.mark_timing(&["us/estimate"]);
    for r in rungs {
        t.row(vec![
            r.conns.to_string(),
            r.estimates_per_client.to_string(),
            r.all_mapped.to_string(),
            format!("{:.1}", r.est_secs * 1e6),
        ]);
    }
    t
}

/// Render the per-client table.
pub fn report(rows: &[E10Row]) -> Table {
    let mut t = Table::new(
        "E10 — session server: 1 cold client vs warm clients sharing one store",
        &[
            "Client",
            "Leg",
            "Sweep worlds",
            "Sweep warm hits",
            "Sweep full sims",
            "Sweep time",
            "Estimates",
            "Mapped",
            "s/estimate",
        ],
    );
    t.mark_timing(&["Sweep time", "s/estimate"]);
    for r in rows {
        t.row(vec![
            r.client.clone(),
            r.leg.to_string(),
            r.sweep_worlds.to_string(),
            r.sweep_warm_hits.to_string(),
            r.sweep_full_sims.to_string(),
            fmt_secs(r.sweep_secs),
            r.estimates.to_string(),
            r.mapped.to_string(),
            fmt_secs(r.est_secs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const MICRO: Scale = Scale { n_samples: 60, m: 10, space_divisor: 8, threads: 1 };

    #[test]
    fn warm_clients_ride_the_cold_clients_store() {
        let (rows, ladder) = run(MICRO);
        assert_eq!(rows.len(), 1 + WARM_CLIENTS);
        let cold = &rows[0];
        assert_eq!(cold.leg, "cold");
        assert_eq!(cold.sweep_warm_hits, 0, "nobody to ride on");
        assert!(cold.sweep_full_sims > 0);
        for warm in &rows[1..] {
            assert_eq!(warm.leg, "warm");
            // The acceptance property: a warm sweep runs no completion
            // simulations — every point rides bases the cold client built.
            assert_eq!(warm.sweep_full_sims, 0, "{}", warm.client);
            assert!(warm.sweep_warm_hits > 0, "{}", warm.client);
            assert!(warm.sweep_worlds < cold.sweep_worlds, "{}", warm.client);
            // And every post-sweep estimate is served from a mapped basis.
            assert_eq!(warm.mapped, warm.estimates, "{}", warm.client);
        }
        // Deterministic columns agree across warm clients.
        for pair in rows[1..].windows(2) {
            assert_eq!(pair[0].sweep_worlds, pair[1].sweep_worlds);
            assert_eq!(pair[0].sweep_warm_hits, pair[1].sweep_warm_hits);
        }
        // The ladder climbed to at least 100 concurrent connections, every
        // rung all-warm (ladder_rung itself asserts bit-identity).
        assert!(ladder.iter().any(|r| r.conns >= 100), "ladder must reach 100 connections");
        for rung in &ladder {
            assert!(rung.all_mapped, "{} connections: estimate fell off the warm path", rung.conns);
            assert!(rung.est_secs > 0.0);
        }
    }
}
