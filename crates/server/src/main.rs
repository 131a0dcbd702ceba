//! `jigsaw-server` — run a session server over the default model catalog.
//!
//! ```text
//! jigsaw-server [--addr HOST:PORT] [--threads N] [--n-samples N]
//!               [--fingerprint-len M] [--seed N] [--snapshot-dir DIR]
//!               [--sketch-budget S] [--refine-top-k K]
//!               [--trace] [--metrics-dump SECS]
//! ```
//!
//! Binds (default `127.0.0.1:0`, i.e. an ephemeral loopback port), prints
//! one `LISTENING <addr>` line to stdout, and serves until killed. The CI
//! smoke job scrapes that line, replays a scripted `jigsaw-client` session
//! against it, and byte-diffs the transcript against a golden file.

use std::path::PathBuf;

use jigsaw_server::JigsawServer;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| -> Option<&String> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        })
    };
    let parse_num = |flag: &str| -> Option<usize> {
        value_of(flag).map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("error: {flag} requires an integer, got `{s}`");
                std::process::exit(2);
            })
        })
    };

    let addr = value_of("--addr").cloned().unwrap_or_else(|| "127.0.0.1:0".into());
    let mut builder = JigsawServer::builder();
    let mut cfg = jigsaw_core::JigsawConfig::paper();
    if let Some(threads) = parse_num("--threads") {
        cfg = cfg.with_threads(threads);
    }
    if let Some(n) = parse_num("--n-samples") {
        cfg = cfg.with_n_samples(n);
    }
    if let Some(m) = parse_num("--fingerprint-len") {
        cfg = cfg.with_fingerprint_len(m);
    }
    // Sketch-then-refine sweeps: `--sketch-budget S` turns the two-phase
    // mode on for every `SWEEP` this server runs (no wire-protocol change —
    // the executor swap is invisible to clients except for coarse metrics
    // on pruned points). `--refine-top-k` defaults to 4 when only the
    // budget is given.
    if let Some(s) = parse_num("--sketch-budget") {
        cfg = cfg.with_sketch(s, parse_num("--refine-top-k").unwrap_or(4));
    } else if parse_num("--refine-top-k").is_some() {
        eprintln!("error: --refine-top-k requires --sketch-budget");
        std::process::exit(2);
    }
    builder = builder.config(cfg);
    if let Some(seed) = parse_num("--seed") {
        builder = builder.master_seed(seed as u64);
    }
    if let Some(dir) = value_of("--snapshot-dir") {
        builder = builder.snapshot_dir(PathBuf::from(dir));
    }
    // `--trace` is the flag form of JIGSAW_TRACE=1: NDJSON span records on
    // stderr. Purely observational — the golden-transcript byte diff holds
    // with it on.
    if args.iter().any(|a| a == "--trace") {
        jigsaw_obs::set_trace(true);
    }
    // `--metrics-dump SECS`: a detached thread writes the full Prometheus
    // snapshot to stderr every SECS seconds, bracketed by marker lines so
    // scrapers (and humans) can split the stream.
    if let Some(secs) = parse_num("--metrics-dump") {
        let period = std::time::Duration::from_secs(secs.max(1) as u64);
        std::thread::Builder::new()
            .name("jigsaw-metrics-dump".into())
            .spawn(move || loop {
                std::thread::sleep(period);
                let text = jigsaw_obs::global().snapshot().render_prometheus();
                let mut stderr = std::io::stderr().lock();
                use std::io::Write as _;
                let _ = writeln!(stderr, "# ---- jigsaw metrics dump ----");
                let _ = stderr.write_all(text.as_bytes());
                let _ = writeln!(stderr, "# ---- end dump ----");
            })
            .expect("spawn metrics dump thread");
    }

    let server = builder.bind(&addr).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let local = server.local_addr().expect("bound listener has an address");
    // The machine-readable handshake line the smoke job scrapes.
    println!("LISTENING {local}");
    use std::io::Write;
    std::io::stdout().flush().ok();
    match server.serve() {
        Ok(handle) => handle.join(),
        Err(e) => {
            eprintln!("error: server terminated: {e}");
            std::process::exit(1);
        }
    }
}
