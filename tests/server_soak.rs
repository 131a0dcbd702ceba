//! Loopback soak (ISSUE 6): ≥100 concurrent scripted clients, each on its
//! own server thread, every client's transcript **byte-identical** to the
//! single-client golden.
//!
//! One warm-up client pays the Monte Carlo ramp
//! (`tests/golden/server_soak_warm.script`), then a reference client
//! replays `tests/golden/server_soak.script` alone and is diffed against
//! `tests/golden/server_soak.txt`; finally 120 clients replay the same
//! script concurrently and each transcript is byte-compared against the
//! reference. Everything in the soak script reads the warm store, so no
//! interleaving of clients can legally change a single byte. Re-bless
//! after an intentional protocol change with:
//!
//! ```text
//! JIGSAW_BLESS=1 cargo test --test server_soak
//! ```

use std::path::PathBuf;

use jigsaw::server::{client, JigsawServer};

/// Concurrent clients in the soak leg (the ISSUE floor is 100).
const CLIENTS: usize = 120;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

#[test]
fn hundred_plus_concurrent_clients_replay_bit_identically() {
    let warm =
        std::fs::read_to_string(golden_path("server_soak_warm.script")).expect("warm script");
    let soak = std::fs::read_to_string(golden_path("server_soak.script")).expect("soak script");
    let handle = JigsawServer::builder()
        .bind("127.0.0.1:0")
        .expect("bind loopback")
        .serve()
        .expect("start server");
    let addr = handle.local_addr();

    // Warm the store once, then take the single-client reference transcript.
    client::run_script(addr, &warm).expect("warm-up replay");
    let reference = client::run_script(addr, &soak).expect("reference replay");

    let path = golden_path("server_soak.txt");
    if std::env::var("JIGSAW_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &reference).unwrap();
        eprintln!("blessed {}", path.display());
    } else {
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run `JIGSAW_BLESS=1 cargo test --test server_soak`",
                path.display()
            )
        });
        assert_eq!(expected, reference, "soak transcript drifted from {}", path.display());
    }

    // The soak: all clients in flight at once, every transcript identical.
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let soak = soak.clone();
            std::thread::spawn(move || client::run_script(addr, &soak).expect("soak replay"))
        })
        .collect();
    for (i, t) in threads.into_iter().enumerate() {
        let transcript = t.join().expect("soak client thread");
        assert_eq!(transcript, reference, "client {i} diverged from the single-client golden");
    }
    handle.shutdown().expect("shutdown");
}
