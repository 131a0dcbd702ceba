//! `jigsaw-client` — scripted driver for the Jigsaw session server.
//!
//! ```text
//! jigsaw-client --addr HOST:PORT (--script FILE | --command "LINE")
//!               [--soak N]
//! ```
//!
//! Replays a line-oriented script (one protocol command per line; `COMPILE`
//! takes the scenario source as the rest of its line; blank lines and `#`
//! comments are skipped) and prints the canonical transcript — each command
//! echoed with `> `, each response with `< `. Every response field is
//! deterministic given the server's scenario and configuration, so the CI
//! smoke job byte-diffs this output against a golden file under
//! `tests/golden/`.
//!
//! With `--soak N`, the script is replayed by N concurrent connections and
//! every transcript is byte-compared against the first — the CI soak smoke
//! uses this to drive ≥100 concurrent clients through the server and prove
//! they all read the same warm store. One transcript is printed either way.
//!
//! Exit status: 0 when the script was replayed (even if some commands drew
//! `ERR` responses — those are part of the transcript), 1 on a transport or
//! usage failure, or when any soak transcript diverges.

use jigsaw_server::client::run_script;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| -> Option<&String> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(1);
            })
        })
    };
    let Some(addr) = value_of("--addr") else {
        eprintln!("usage: jigsaw-client --addr HOST:PORT (--script FILE | --command LINE)");
        std::process::exit(1);
    };
    let script = match (value_of("--script"), value_of("--command")) {
        (Some(path), None) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }),
        (None, Some(line)) => line.clone(),
        _ => {
            eprintln!("error: pass exactly one of --script FILE or --command LINE");
            std::process::exit(1);
        }
    };
    let soak: usize = value_of("--soak").map_or(1, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("error: --soak requires an integer, got `{s}`");
            std::process::exit(1);
        })
    });
    if soak <= 1 {
        match run_script(addr.as_str(), &script) {
            Ok(transcript) => print!("{transcript}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    // Soak mode: all N connections in flight at once, transcripts
    // byte-compared pairwise against client 0's.
    let threads: Vec<_> = (0..soak)
        .map(|_| {
            let addr = addr.clone();
            let script = script.clone();
            std::thread::spawn(move || run_script(addr.as_str(), &script))
        })
        .collect();
    let mut transcripts = Vec::with_capacity(soak);
    for (i, t) in threads.into_iter().enumerate() {
        match t.join().expect("soak client thread") {
            Ok(transcript) => transcripts.push(transcript),
            Err(e) => {
                eprintln!("error: soak client {i}: {e}");
                std::process::exit(1);
            }
        }
    }
    for (i, transcript) in transcripts.iter().enumerate().skip(1) {
        if transcript != &transcripts[0] {
            eprintln!("error: soak client {i} diverged from client 0");
            std::process::exit(1);
        }
    }
    eprintln!("[soak] {soak} concurrent clients, all transcripts byte-identical");
    print!("{}", transcripts[0]);
}
