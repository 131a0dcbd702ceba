//! The three loopback-server workloads. The server runs in-process on a
//! real socket via `JigsawServer::builder()` with its **defaults** (one
//! event loop, `threads = 1`, the default persistent pool) plus the
//! benchmark catalog, so a change of a default is measured, not configured
//! away. An *op* is one `ESTIMATE` (`serve_warm`, `serve_mixed`'s reader)
//! or one `SUBSCRIBE` stream with its checking `ESTIMATE`
//! (`serve_subscribe`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use jigsaw_blackbox::models::SynthBasis;
use jigsaw_blackbox::Workload as ModelWork;
use jigsaw_core::interactive::{EstimateSource, InteractiveSession, SessionConfig};
use jigsaw_core::{AffineFamily, JigsawConfig, ShardedBasisStore, SweepRunner};
use jigsaw_pdb::{Catalog, DirectEngine};
use jigsaw_prng::SeedSet;
use jigsaw_server::{default_catalog, JigsawServer, Request, Response, ServerHandle};

use crate::gen::{stream_hash, Gen};
use crate::harness::{aux_median, Findings, Round, Workload, THINK_US};
use crate::json::Json;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::wire::{think, Wire};

/// The warm scenario `serve_warm` and `serve_mixed`'s reader estimate on.
pub const WARM_POINTS: usize = 800;
const WARM_BASES: usize = 80;
pub const WARM_SRC: &str = "DECLARE PARAMETER @p AS RANGE 0 TO 799 STEP BY 1; \
     SELECT Synth(@p) AS out INTO results;";
/// `ESTIMATE`s per `serve_warm` round (≈0.6 s with the think time).
const WARM_ROUND: usize = 4000;

/// `serve_subscribe`: a two-parameter Demand space (E13's shape) and the
/// probes of one round, each round on a fresh (cold) scenario variant.
const SUB_WEEKS: usize = 160;
const SUB_FEATURES: usize = 50;
const SUB_ROUND: usize = 300;
const SUB_EPS: f64 = 0.5;

/// `serve_mixed`: reader `ESTIMATE`s fall due as a Poisson process, one
/// every 2 ms on average; the writer sends a fresh `COMPILE` + `SWEEP` at the
/// start of every 500 ms round. (Dues on a 2 ms metronome resonate with the
/// loop's 50-100-200-… µs backoff ladder: the same code then reads a p50 of
/// 420–470 µs on some runs and 750 µs on others.)
const MIXED_GAP_US: f64 = 2000.0;
const MIXED_ROUND: Duration = Duration::from_millis(500);
/// Per-invocation model cost of the writer's scenario (E10's value): a cold
/// 80-basis sweep holds the single event loop for ≈0.12 s on this host.
const MIXED_WORK: ModelWork = ModelWork(300);

const N: u64 = 1000;
const M: u64 = 10;

/// The default catalog plus the benchmark's two models.
pub fn bench_catalog() -> Catalog {
    let mut catalog = default_catalog();
    catalog.add_function_as("Synth", Arc::new(SynthBasis::new(WARM_BASES)));
    catalog.add_function_as("SynthW", Arc::new(SynthBasis::new(WARM_BASES).with_work(MIXED_WORK)));
    catalog
}

fn mixed_src(variant: usize) -> String {
    format!(
        "DECLARE PARAMETER @p AS RANGE 0 TO {} STEP BY 1; SELECT SynthW(@p) AS out INTO results;",
        WARM_POINTS - 1 + variant
    )
}

fn subscribe_src(variant: usize) -> String {
    format!(
        "DECLARE PARAMETER @week AS RANGE 0 TO {} STEP BY 1; \
         DECLARE PARAMETER @feature AS RANGE 0 TO {} STEP BY 1; \
         SELECT Demand(@week, @feature) AS demand INTO results;",
        SUB_WEEKS - 1 + variant,
        SUB_FEATURES - 1
    )
}

/// The bits of one estimate, as they cross the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstBits {
    pub n: usize,
    pub mapped: bool,
    pub expectation: u64,
    pub std_dev: u64,
    pub lo: u64,
    pub hi: u64,
}

/// What a local `InteractiveSession` over the swept warm scenario answers
/// at every point — the reference every served `EST` must equal bit for
/// bit. Same catalog, seed, engine and configuration as the server uses.
pub fn warm_reference(seed: u64) -> Result<Vec<EstBits>, String> {
    let catalog = Arc::new(bench_catalog());
    let scenario = jigsaw_sql::compile(WARM_SRC, &catalog).map_err(|e| e.to_string())?;
    let sim = Arc::new(scenario.simulation(
        Arc::new(DirectEngine::new()),
        Arc::clone(&catalog),
        SeedSet::new(seed),
    ));
    let cfg = JigsawConfig::paper();
    let mut store = ShardedBasisStore::new(scenario.columns.len(), &cfg, Arc::new(AffineFamily));
    SweepRunner::new(cfg.clone()).store(&mut store).run(&*sim).map_err(|e| e.to_string())?;
    let mut session = InteractiveSession::with_store(sim, SessionConfig::from_jigsaw(&cfg), store);
    (0..WARM_POINTS)
        .map(|p| {
            let e = session.estimate_now(p, 0).map_err(|e| e.to_string())?;
            if e.source != EstimateSource::MappedBasis {
                return Err(format!(
                    "local reference: point {p} is not served from a mapped basis"
                ));
            }
            Ok(EstBits {
                n: e.n_samples,
                mapped: e.source == EstimateSource::MappedBasis,
                expectation: e.expectation.to_bits(),
                std_dev: e.std_dev.to_bits(),
                lo: e.lo.to_bits(),
                hi: e.hi.to_bits(),
            })
        })
        .collect()
}

fn bits_of(resp: &Response, point: usize) -> Result<EstBits, String> {
    match resp {
        Response::Estimated {
            point: p,
            col: 0,
            n_samples,
            source,
            expectation_bits,
            std_dev_bits,
            lo_bits,
            hi_bits,
        } if *p == point => Ok(EstBits {
            n: *n_samples,
            mapped: *source == EstimateSource::MappedBasis,
            expectation: *expectation_bits,
            std_dev: *std_dev_bits,
            lo: *lo_bits,
            hi: *hi_bits,
        }),
        other => Err(format!("ESTIMATE {point} answered `{}`", other.encode())),
    }
}

/// Gate: a served estimate equals the local reference bit for bit,
/// provenance included (the reference itself is all `MappedBasis`).
fn check_est(resp: &Response, point: usize, reference: &[EstBits]) -> Result<(), String> {
    let got = bits_of(resp, point)?;
    if got != reference[point] {
        return Err(format!("ESTIMATE {point} differs from the local session: {got:?}"));
    }
    Ok(())
}

/// A server with every builder default, the benchmark catalog and `seed`.
pub fn start_server(seed: u64) -> Result<ServerHandle, String> {
    JigsawServer::builder()
        .catalog(bench_catalog())
        .master_seed(seed)
        .bind("127.0.0.1:0")
        .and_then(JigsawServer::serve)
        .map_err(|e| format!("start server: {e}"))
}

fn stop_server(server: &mut Option<ServerHandle>) {
    if let Some(handle) = server.take() {
        let _ = handle.shutdown();
    }
}

fn expect_compiled(resp: Response, points: usize) -> Result<(), String> {
    match resp {
        Response::Compiled { points: p, .. } if p == points => Ok(()),
        other => Err(format!("COMPILE answered `{}`", other.encode())),
    }
}

/// Gate: a cold sweep of a `Synth`-shaped scenario of `points` points. The
/// counters must satisfy the executor's identities around the basis count,
/// and the basis count be the model's 80 — or a few more: on some seeds a
/// point misses its class's basis and is simulated in full (85 bases at
/// seed 5), which forfeits a reuse but is no wrong answer (see
/// `sweep::Expect`).
fn expect_cold_sweep(resp: &Response, points: usize) -> Result<(), String> {
    let Response::Swept { bases, .. } = resp else {
        return Err(format!("SWEEP answered `{}`", resp.encode()));
    };
    let b = bases.first().copied().unwrap_or(0);
    let want = Response::Swept {
        points,
        worlds: points as u64 * M + b as u64 * (N - M),
        full_sims: b,
        reused: points.saturating_sub(b),
        warm_hits: 0,
        bases: vec![b],
    };
    if *resp == want && (WARM_BASES..=WARM_BASES + WARM_BASES / 4).contains(&b) {
        Ok(())
    } else {
        Err(format!(
            "SWEEP answered `{}`, expected {WARM_BASES} (+25 %) bases and `{}`",
            resp.encode(),
            want.encode()
        ))
    }
}

/// Compile and sweep the warm scenario on `wire`, then touch every point
/// once (in seeded order) so the session holds all of them.
fn warm_up(wire: &mut Wire, seed: u64, reference: &[EstBits]) -> Result<(), String> {
    let mut off = Tracer::new(Instant::now());
    let req = |wire: &mut Wire, off: &mut Tracer, r: Request| {
        wire.request(&r, off, 0).map_err(|e| format!("{}: {e}", r.verb()))
    };
    expect_compiled(req(wire, &mut off, Request::Compile { src: WARM_SRC.into() })?, WARM_POINTS)?;
    expect_cold_sweep(&req(wire, &mut off, Request::Sweep)?, WARM_POINTS)?;
    for p in Gen::new(seed, 1).permutation(WARM_POINTS) {
        check_est(&req(wire, &mut off, Request::Estimate { point: p, col: 0 })?, p, reference)?;
    }
    Ok(())
}

/// p50s of the server's own histograms and the sampled idle backoff.
fn server_side_layers(rounds: &[Round], out: &mut Findings) {
    let snap = jigsaw_obs::global().snapshot();
    for (layer, verb) in [
        ("server.loop.request_us_p50.estimate", "ESTIMATE"),
        ("server.loop.request_us_p50.sweep", "SWEEP"),
        ("server.loop.request_us_p50.subscribe", "SUBSCRIBE"),
    ] {
        let p50 = snap.histogram("jigsaw_request_us", &[("verb", verb)]).map_or(0, |h| h.p50());
        out.layer(layer, p50 as f64);
    }
    out.layer(
        "server.loop.pump_pass_us_p50",
        snap.histogram("jigsaw_pump_pass_us", &[]).map_or(0, |h| h.p50()) as f64,
    );
    let backoff = pooled(rounds, "backoff_us");
    if !backoff.is_empty() {
        out.layer("server.loop.idle_backoff_us_p50", median(&backoff));
    }
}

fn pooled(rounds: &[Round], key: &str) -> Vec<f64> {
    rounds.iter().filter_map(|r| r.samples.get(key)).flatten().copied().collect()
}

/// Identity of the run's whole request stream (every round's send order),
/// so two runs of one seed can be seen to have sent the same requests.
fn stream_id(rounds: &[Round]) -> f64 {
    (crate::gen::Fnv::of(rounds.iter().map(|r| r.result_hash)) & 0xFFFF_FFFF) as f64
}

/// Current park length of event loop 0, read straight off the server's
/// gauge (sampled just before each send in span-recording rounds).
fn backoff_gauge() -> jigsaw_obs::Gauge {
    jigsaw_obs::global().gauge("jigsaw_idle_backoff_us", &[("loop", "0")])
}

// ---------------------------------------------------------------- serve_warm

pub struct Warm {
    seed: u64,
    split: bool,
    reference: Vec<EstBits>,
    server: Option<ServerHandle>,
    wire: Option<Wire>,
}

impl Warm {
    pub fn new(seed: u64, split: bool) -> Result<Warm, String> {
        Ok(Warm { seed, split, reference: warm_reference(seed)?, server: None, wire: None })
    }
}

/// One closed-loop round of seeded uniform `ESTIMATE`s on a warm session.
fn estimate_round(
    wire: &mut Wire,
    points: &[usize],
    reference: &[EstBits],
    idx: usize,
    tr: &mut Tracer,
) -> Result<Round, String> {
    let mut round = Round { ops: points.len() as u64, ..Round::default() };
    let gauge = backoff_gauge();
    let mut backoff = Vec::new();
    let t0 = Instant::now();
    for (i, &p) in points.iter().enumerate() {
        think(THINK_US);
        if tr.is_on() {
            // The park this request is about to land in.
            backoff.push(gauge.get() as f64);
        }
        let id = ((idx as u64) << 32) | i as u64;
        let span = tr.enter("op.estimate", id);
        let sent = Instant::now();
        let resp = wire.request(&Request::Estimate { point: p, col: 0 }, tr, id);
        round.lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
        tr.exit(span);
        let resp = resp.map_err(|e| format!("ESTIMATE {p}: {e}"))?;
        if let Err(why) = check_est(&resp, p, reference) {
            round.fail(1, why);
        }
    }
    round.secs = t0.elapsed().as_secs_f64();
    round.result_hash = stream_hash(points);
    round.samples.insert("backoff_us", backoff);
    Ok(round)
}

impl Workload for Warm {
    fn sizes(&self) -> Json {
        Json::obj()
            .with("scenario_points", WARM_POINTS)
            .with("basis_classes", WARM_BASES)
            .with("estimates_per_round", WARM_ROUND)
            .with("connections", 1usize)
            .with("loop", "closed")
            .with("think_us", THINK_US)
    }

    fn clients(&self) -> usize {
        1
    }

    fn setup(&mut self) -> Result<(), String> {
        let server = start_server(self.seed)?;
        let mut wire = Wire::connect(server.local_addr(), self.split)?;
        self.server = Some(server);
        warm_up(&mut wire, self.seed, &self.reference)?;
        let points = Gen::new(self.seed, 2).uniform_points(WARM_ROUND, WARM_POINTS);
        let mut off = Tracer::new(Instant::now());
        let warm = estimate_round(&mut wire, &points, &self.reference, 0, &mut off)?;
        if warm.failed > 0 {
            return Err(format!("warm-up round: {}", warm.failures.join("; ")));
        }
        self.wire = Some(wire);
        Ok(())
    }

    fn teardown(&mut self) {
        self.wire = None;
        stop_server(&mut self.server);
    }

    fn round(&mut self, idx: usize, tr: &mut Tracer) -> Result<Round, String> {
        let wire = self.wire.as_mut().ok_or("round before setup")?;
        let points = Gen::new(self.seed, 1000 + idx as u64).uniform_points(WARM_ROUND, WARM_POINTS);
        estimate_round(wire, &points, &self.reference, idx, tr)
    }

    fn tail_level(&self) -> Option<f64> {
        Some(0.99)
    }

    fn results_repeat(&self) -> bool {
        false
    }

    fn finish(&mut self, rounds: &[Round], out: &mut Findings) {
        server_side_layers(rounds, out);
        out.count("estimates_per_round", WARM_ROUND as f64, true);
        out.count("request_stream_hash_low32", stream_id(rounds), false);
    }
}

// ----------------------------------------------------------- serve_subscribe

pub struct Subscribe {
    seed: u64,
    split: bool,
    server: Option<ServerHandle>,
    wire: Option<Wire>,
    /// Scenario variants compiled on the current server; each is a new
    /// `StoreKey`, so every round starts on a cold store.
    variant: usize,
}

impl Subscribe {
    pub fn new(seed: u64, split: bool) -> Subscribe {
        Subscribe { seed, split, server: None, wire: None, variant: 0 }
    }

    fn cold_round(&mut self, idx: usize, tr: &mut Tracer) -> Result<Round, String> {
        let wire = self.wire.as_mut().ok_or("round before setup")?;
        let variant = self.variant;
        self.variant += 1;
        let space = (SUB_WEEKS + variant) * SUB_FEATURES;
        let mut order = Gen::new(self.seed, 2000 + idx as u64).permutation(space);
        order.truncate(SUB_ROUND);

        let mut round = Round { ops: SUB_ROUND as u64, ..Round::default() };
        let (mut first_us, mut frames_total, mut tier0, mut converged) =
            (Vec::new(), 0u64, 0u64, 0u64);
        let t0 = Instant::now();
        let compiled = wire
            .request(&Request::Compile { src: subscribe_src(variant) }, tr, idx as u64)
            .map_err(|e| format!("COMPILE: {e}"))?;
        expect_compiled(compiled, space)?;
        for (i, &p) in order.iter().enumerate() {
            let id = ((idx as u64) << 32) | i as u64;
            think(THINK_US);
            let span = tr.enter("op.subscribe", id);
            let sent = Instant::now();
            let mut first = None;
            let mut frames: Vec<Response> = Vec::new();
            let streamed = wire.subscribe_each(p, SUB_EPS, tr, id, |resp| {
                first.get_or_insert_with(|| sent.elapsed());
                frames.push(resp.clone());
            });
            round.lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
            tr.exit(span);
            streamed.map_err(|e| format!("SUBSCRIBE {p}: {e}"))?;
            first_us.push(first.map_or(0.0, |d| d.as_secs_f64() * 1e6));
            frames_total += frames.len() as u64;

            think(THINK_US);
            let span = tr.enter("op.estimate_check", id);
            let blocking = wire.request(&Request::Estimate { point: p, col: 0 }, tr, id);
            tr.exit(span);
            let blocking = blocking.map_err(|e| format!("ESTIMATE {p}: {e}"))?;
            match check_stream(&frames, &blocking, p) {
                Err(why) => round.fail(1, why),
                Ok(outcome) => {
                    tier0 += u64::from(outcome.tier0);
                    converged += u64::from(outcome.converged);
                }
            }
        }
        round.secs = t0.elapsed().as_secs_f64();
        round.result_hash = stream_hash(&order);
        round.aux.insert("first_bound_p50_us", median(&first_us));
        round.aux.insert("frames_per_probe", frames_total as f64 / SUB_ROUND as f64);
        round.aux.insert("tier0_ratio", tier0 as f64 / SUB_ROUND as f64);
        round.aux.insert("converged_ratio", converged as f64 / SUB_ROUND as f64);
        Ok(round)
    }
}

#[derive(Debug)]
struct StreamOutcome {
    tier0: bool,
    converged: bool,
}

/// Gates on one stream: it opens with the tier-0 `INTERVAL`, closes with an
/// `EST`, its bounds never widen, and the closing `EST` equals the blocking
/// `ESTIMATE` that follows it bit for bit.
fn check_stream(
    frames: &[Response],
    blocking: &Response,
    p: usize,
) -> Result<StreamOutcome, String> {
    let Some(Response::Interval { n_samples: n_first, .. }) = frames.first() else {
        return Err(format!("SUBSCRIBE {p} did not open with INTERVAL: {:?}", frames.first()));
    };
    let closing = frames.last().expect("non-empty");
    let last =
        bits_of(closing, p).map_err(|e| format!("SUBSCRIBE {p} did not close with EST: {e}"))?;
    if closing != blocking {
        return Err(format!(
            "closing EST of SUBSCRIBE {p} differs from the blocking ESTIMATE: `{}` vs `{}`",
            closing.encode(),
            blocking.encode()
        ));
    }
    let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
    for frame in frames {
        let (flo, fhi) = match frame {
            Response::Interval { lo_bits, hi_bits, .. }
            | Response::Estimated { lo_bits, hi_bits, .. } => {
                (f64::from_bits(*lo_bits), f64::from_bits(*hi_bits))
            }
            other => return Err(format!("SUBSCRIBE {p} streamed `{}`", other.encode())),
        };
        if flo < lo || fhi > hi {
            return Err(format!(
                "SUBSCRIBE {p}: bound widened from [{lo}, {hi}] to [{flo}, {fhi}]"
            ));
        }
        (lo, hi) = (flo, fhi);
    }
    let converged = hi - lo <= SUB_EPS;
    Ok(StreamOutcome { tier0: converged && frames.len() == 2 && last.n == *n_first, converged })
}

impl Workload for Subscribe {
    fn sizes(&self) -> Json {
        Json::obj()
            .with("scenario_points", SUB_WEEKS * SUB_FEATURES)
            .with("probes_per_round", SUB_ROUND)
            .with("eps", SUB_EPS)
            .with("connections", 1usize)
            .with("loop", "closed")
            .with("think_us", THINK_US)
            .with("store", "cold every round (fresh scenario variant)")
    }

    fn clients(&self) -> usize {
        1
    }

    fn setup(&mut self) -> Result<(), String> {
        let server = start_server(self.seed)?;
        self.wire = Some(Wire::connect(server.local_addr(), self.split)?);
        self.server = Some(server);
        self.variant = 0;
        let mut off = Tracer::new(Instant::now());
        let warm = self.cold_round(usize::MAX >> 1, &mut off)?;
        if warm.failed > 0 {
            return Err(format!("warm-up round: {}", warm.failures.join("; ")));
        }
        Ok(())
    }

    fn teardown(&mut self) {
        self.wire = None;
        stop_server(&mut self.server);
    }

    fn round(&mut self, idx: usize, tr: &mut Tracer) -> Result<Round, String> {
        self.cold_round(idx, tr)
    }

    fn tail_level(&self) -> Option<f64> {
        Some(0.95)
    }

    fn results_repeat(&self) -> bool {
        false
    }

    fn finish(&mut self, rounds: &[Round], out: &mut Findings) {
        server_side_layers(rounds, out);
        out.layer("serve.first_bound_p50_us", aux_median(rounds, "first_bound_p50_us"));
        for (layer, key) in [
            ("subscribe.frames_per_probe", "frames_per_probe"),
            ("subscribe.tier0_ratio", "tier0_ratio"),
            ("subscribe.converged_ratio", "converged_ratio"),
        ] {
            out.layer(layer, aux_median(rounds, key));
            out.count(key, aux_median(rounds, key), false);
        }
        out.count("probes_per_round", SUB_ROUND as f64, true);
        out.count("request_stream_hash_low32", stream_id(rounds), false);
    }
}

// --------------------------------------------------------------- serve_mixed

pub struct Mixed {
    seed: u64,
    split: bool,
    reference: Vec<EstBits>,
    server: Option<ServerHandle>,
    reader: Option<Wire>,
    writer: Option<Wire>,
    variant: usize,
}

/// Latency of a request due at `due`, sent at `sent` (never before `due`)
/// and answered at `done`: measured **from the due time**, so the wait a
/// stall imposes on the requests queued behind it is counted. Returns
/// `(latency_us, lag_us)`; the lag is how late the generator ran.
pub fn due_latency_us(due: Instant, sent: Instant, done: Instant) -> (f64, f64) {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    (us(done.saturating_duration_since(due)), us(sent.saturating_duration_since(due)))
}

/// Block until `due`: sleep most of the way, spin the last stretch (a bare
/// sleep overshoots by the scheduler's slack, which would show up as
/// generator lag). Returns at once when already late.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    let now = Instant::now();
    if let Some(left) = due.checked_duration_since(now) {
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
    }
}

impl Mixed {
    pub fn new(seed: u64, split: bool) -> Result<Mixed, String> {
        Ok(Mixed {
            seed,
            split,
            reference: warm_reference(seed)?,
            server: None,
            reader: None,
            writer: None,
            variant: 0,
        })
    }

    fn mixed_round(&mut self, idx: usize, tr: &mut Tracer) -> Result<Round, String> {
        let reader = self.reader.as_mut().ok_or("round before setup")?;
        let writer = self.writer.as_mut().ok_or("round before setup")?;
        self.variant += 1;
        let variant = self.variant;
        let reference = &self.reference;
        let mut gen = Gen::new(self.seed, 3000 + idx as u64);
        let dues = gen.poisson_arrivals(MIXED_GAP_US, MIXED_ROUND.as_secs_f64() * 1e6);
        let points = gen.uniform_points(dues.len(), WARM_POINTS);
        let mut round = Round { ops: dues.len() as u64 + 2, ..Round::default() };
        let mut writer_tr = tr.fork();
        let gauge = backoff_gauge();
        let (mut lag, mut backoff) = (Vec::new(), Vec::new());
        let start = Instant::now() + Duration::from_millis(1);

        let written = std::thread::scope(|scope| -> Result<Result<f64, String>, String> {
            // Writer A: a fresh scenario variant, compiled and swept cold.
            let cycle = scope.spawn(|| -> Result<Result<f64, String>, String> {
                wait_until(start);
                let id = idx as u64;
                let span = writer_tr.enter("op.compile_sweep", id);
                let compiled = writer
                    .request(&Request::Compile { src: mixed_src(variant) }, &mut writer_tr, id)
                    .map_err(|e| format!("COMPILE: {e}"))?;
                let sent = Instant::now();
                let swept = writer.request(&Request::Sweep, &mut writer_tr, id);
                let ms = sent.elapsed().as_secs_f64() * 1e3;
                writer_tr.exit(span);
                let swept = swept.map_err(|e| format!("SWEEP: {e}"))?;
                Ok(expect_compiled(compiled, WARM_POINTS + variant)
                    .and_then(|()| expect_cold_sweep(&swept, WARM_POINTS + variant))
                    .map(|()| ms))
            });
            // Reader B: open loop, one synchronous connection.
            let mut read = || -> Result<(), String> {
                for (i, (&p, &due_us)) in points.iter().zip(&dues).enumerate() {
                    let due = start + Duration::from_nanos((due_us * 1e3) as u64);
                    wait_until(due);
                    if tr.is_on() {
                        backoff.push(gauge.get() as f64);
                    }
                    let id = ((idx as u64) << 32) | i as u64;
                    let span = tr.enter("op.estimate", id);
                    let sent = Instant::now();
                    let resp = reader.request(&Request::Estimate { point: p, col: 0 }, tr, id);
                    let (latency, late) = due_latency_us(due, sent, Instant::now());
                    tr.exit(span);
                    round.lat_us.push(latency);
                    lag.push(late);
                    let resp = resp.map_err(|e| format!("ESTIMATE {p}: {e}"))?;
                    if let Err(why) = check_est(&resp, p, reference) {
                        round.fail(1, why);
                    }
                }
                Ok(())
            };
            let read = read();
            let cycle = cycle.join().map_err(|_| "writer thread panicked".to_string())?;
            read?;
            cycle
        })?;
        round.secs = start.elapsed().as_secs_f64();
        round.result_hash = stream_hash(&points);
        tr.absorb(writer_tr);
        match written {
            Ok(ms) => {
                round.aux.insert("remote_sweep_ms", ms);
            }
            Err(why) => round.fail(2, why),
        }
        round.samples.insert("lag_us", lag);
        round.samples.insert("backoff_us", backoff);
        Ok(round)
    }
}

impl Workload for Mixed {
    fn sizes(&self) -> Json {
        Json::obj()
            .with("reader_scenario_points", WARM_POINTS)
            .with("reader_mean_gap_us", MIXED_GAP_US)
            .with("reader_loop", "open (Poisson arrivals), timed from due time")
            .with("writer_period_ms", MIXED_ROUND.as_millis() as u64)
            .with("writer_scenario_points", "800 + k (fresh variant, cold sweep)")
            .with("writer_model_work", MIXED_WORK.0)
            .with("connections", 2usize)
    }

    fn clients(&self) -> usize {
        2
    }

    fn setup(&mut self) -> Result<(), String> {
        let server = start_server(self.seed)?;
        let mut reader = Wire::connect(server.local_addr(), self.split)?;
        let writer = Wire::connect(server.local_addr(), self.split)?;
        self.server = Some(server);
        warm_up(&mut reader, self.seed, &self.reference)?;
        self.reader = Some(reader);
        self.writer = Some(writer);
        self.variant = 0;
        let mut off = Tracer::new(Instant::now());
        let warm = self.mixed_round(usize::MAX >> 1, &mut off)?;
        if warm.failed > 0 {
            return Err(format!("warm-up round: {}", warm.failures.join("; ")));
        }
        Ok(())
    }

    fn teardown(&mut self) {
        self.reader = None;
        self.writer = None;
        stop_server(&mut self.server);
    }

    fn round(&mut self, idx: usize, tr: &mut Tracer) -> Result<Round, String> {
        self.mixed_round(idx, tr)
    }

    fn tail_level(&self) -> Option<f64> {
        Some(0.99)
    }

    fn headline_is_tail(&self) -> bool {
        true
    }

    fn results_repeat(&self) -> bool {
        false
    }

    fn finish(&mut self, rounds: &[Round], out: &mut Findings) {
        server_side_layers(rounds, out);
        out.layer("serve.remote_sweep_p50_ms", aux_median(rounds, "remote_sweep_ms"));
        let lag = pooled(rounds, "lag_us");
        if !lag.is_empty() {
            out.layer("loadgen.lag_p99_us", percentile(&lag, 0.99));
        }
        out.count("reader_dues", rounds.iter().map(|r| r.ops - 2).sum::<u64>() as f64, false);
        out.count("writer_sweeps", rounds.len() as f64, false);
        out.count("request_stream_hash_low32", stream_id(rounds), false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        // On time: due = sent, answered 3 ms later.
        assert_eq!(due_latency_us(t, t, t + ms(3)), (3000.0, 0.0));
        // Stalled behind a sweep: due at 10 ms, sent at 50 ms (late by 40),
        // answered at 51 ms. The user waited 41 ms, not 1.
        let (lat, lag) = due_latency_us(t + ms(10), t + ms(50), t + ms(51));
        assert_eq!((lat, lag), (41_000.0, 40_000.0));
        // A reply can never predate its due time (sends wait for it).
        assert_eq!(due_latency_us(t + ms(5), t + ms(5), t + ms(5)), (0.0, 0.0));
    }

    #[test]
    fn stream_gate_accepts_shrinking_bounds_and_rejects_widening_or_mismatch() {
        let interval = |n, lo: f64, hi: f64| Response::Interval {
            point: 3,
            col: 0,
            n_samples: n,
            lo_bits: lo.to_bits(),
            hi_bits: hi.to_bits(),
        };
        let est = |n, lo: f64, hi: f64| Response::Estimated {
            point: 3,
            col: 0,
            n_samples: n,
            source: EstimateSource::Direct,
            expectation_bits: 1.0f64.to_bits(),
            std_dev_bits: 1.0f64.to_bits(),
            lo_bits: lo.to_bits(),
            hi_bits: hi.to_bits(),
        };
        let tier0 = [interval(10, 0.9, 1.2), est(10, 0.9, 1.2)];
        let out = check_stream(&tier0, &tier0[1], 3).unwrap();
        assert!(out.tier0 && out.converged);

        let refined = [interval(10, 0.0, 2.0), interval(20, 0.5, 1.5), est(30, 0.8, 1.2)];
        let out = check_stream(&refined, &refined[2], 3).unwrap();
        assert!(!out.tier0 && out.converged);

        let widened = [interval(10, 0.5, 1.5), interval(20, 0.4, 1.5), est(30, 0.8, 1.2)];
        assert!(check_stream(&widened, &widened[2], 3).unwrap_err().contains("widened"));
        assert!(check_stream(&refined, &est(30, 0.8, 1.3), 3).unwrap_err().contains("differs"));
        assert!(check_stream(&refined[1..], &refined[2], 3).is_ok(), "any INTERVAL may open");
        assert!(check_stream(&refined[2..], &refined[2], 3).is_err(), "EST alone is no stream");
    }
}
