//! A minimal client: typed request/response exchange plus the scripted
//! driver behind the `jigsaw-client` binary and the golden-transcript CI
//! gate.
//!
//! A client reads every reply through a receive buffer (the protocol's
//! `FrameBuf`), like the server's end of the connection, so a reply that
//! has fully arrived costs one `read` and the next frame of a `SUBSCRIBE`
//! stream, if it came with the last, costs none.
//! It waits for a reply with the server's wait routine, buffered bytes
//! first: a waiter that finds its buffer empty either polls the socket or
//! parks in a blocking `read`.
//!
//! Parking costs a wake of an idle core, a few µs that a client sending
//! request after request pays on every one. So a client is **hot** — it
//! polls, for at most `SPIN_BUDGET` (25 µs), yielding between polls —
//! only while its polls keep succeeding. A poll that runs out parks the
//! client, and a cold client probes again once every `REPROBE_EVERY` (16)
//! waits. A closed-loop client of a warm server stays hot; an open-loop
//! one, whose replies mostly take longer than the budget because the
//! server's thread parked too, parks on most of its waits.
//! At most `available_parallelism − 1` clients in the process (at least 1)
//! poll at once, on slots of their own, apart from any server's; a client
//! that finds them taken parks. The socket is blocking again before every
//! write and every parked read, and a shut socket ends a poll as it ends a
//! parked read. `jigsaw_client_waits_total{how="spun"|"parked"}` counts
//! every frame a client reads by which way its wait ended.

use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::OnceLock;
use std::time::Duration;

use jigsaw_obs::Counter;

use crate::conn::{spin, SpinSlots};
use crate::protocol::{send_request, FrameBuf, ProtocolError, Request, Response, PROTOCOL_VERSION};

/// How long a hot client polls for a reply before it parks in `read`.
/// Above a polled round trip to a warm server (a median of 16–19 µs on a
/// 2-core host, write and read included), so a closed-loop client stays hot
/// — on the benchmark's `serve_warm`, 93 % of its waits end in a poll — and
/// below the reply time of a server thread that parked (an open-loop
/// client's requests took a median of 68–207 µs on the same host), so such
/// a client mostly parks: 73 % of `serve_mixed`'s open-loop waits did.
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(25);

/// A cold client probes — polls one wait — once every this many waits, so a
/// client whose traffic turns closed-loop becomes hot again.
pub(crate) const REPROBE_EVERY: u32 = 16;

/// The process-wide state of every client's waits.
struct Waits {
    /// Caps the clients polling at once, apart from any server's slots.
    slots: SpinSlots,
    spun: Counter,
    parked: Counter,
}

fn waits() -> &'static Waits {
    static WAITS: OnceLock<Waits> = OnceLock::new();
    WAITS.get_or_init(|| {
        let g = jigsaw_obs::global();
        Waits {
            slots: SpinSlots::new(),
            spun: g.counter("jigsaw_client_waits_total", &[("how", "spun")]),
            parked: g.counter("jigsaw_client_waits_total", &[("how", "parked")]),
        }
    })
}

/// A connected protocol client.
pub struct Client {
    stream: TcpStream,
    /// Every reply is read through this buffer.
    frames: FrameBuf,
    /// Waits since the last poll that succeeded: 0 while the client is hot;
    /// a wait polls only when this is a multiple of [`REPROBE_EVERY`].
    cold_waits: u32,
}

impl Client {
    /// Connect to a running session server and check, with the `HELLO`
    /// handshake, that it speaks [`PROTOCOL_VERSION`]; any other reply is
    /// an [`ErrorKind::InvalidData`] error. Disables Nagle's algorithm: the
    /// protocol is strict request/response with small frames, where write
    /// coalescing only adds delayed-ACK latency.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client { stream, frames: FrameBuf::new(), cold_waits: 0 };
        let bad = |m: String| std::io::Error::new(ErrorKind::InvalidData, m);
        match client
            .request(&Request::Hello { version: PROTOCOL_VERSION })
            .map_err(|e| bad(format!("handshake failed: {e}")))?
        {
            Response::Welcome { version: PROTOCOL_VERSION } => Ok(client),
            other => {
                Err(bad(format!("expected WELCOME {PROTOCOL_VERSION}, got `{}`", other.encode())))
            }
        }
    }

    /// Send one request and wait for its response. The protocol is strictly
    /// request/response, except that a `SUBSCRIBE` streams `INTERVAL`s
    /// before its closing frame: for one, this reads the whole stream and
    /// returns the closing `EST` (or `ERR`), so the connection stays in step
    /// (use [`Client::subscribe_each`] to see the stream). `Err(Truncated)`
    /// means the server went away mid-exchange.
    pub fn request(&mut self, req: &Request) -> Result<Response, ProtocolError> {
        self.exchange(req, |_| {})
    }

    /// Open a `SUBSCRIBE` stream and hand each frame to `on_frame` as it
    /// arrives: zero or more `INTERVAL`s (or a single `ERR`), closed by
    /// the final `EST`. The callback form lets callers observe *when* each
    /// bound lands — the anytime latency E13 measures.
    pub fn subscribe_each(
        &mut self,
        point: usize,
        col: usize,
        eps: f64,
        mut on_frame: impl FnMut(&Response),
    ) -> Result<(), ProtocolError> {
        let subscribe = Request::Subscribe { point, col, eps_bits: eps.to_bits() };
        let closing = self.exchange(&subscribe, &mut on_frame)?;
        on_frame(&closing);
        Ok(())
    }

    /// Send `req` and read its reply: every `INTERVAL` goes to
    /// `on_interval`, and the first other frame — the request's one reply,
    /// or a `SUBSCRIBE`'s closing frame — is returned.
    fn exchange(
        &mut self,
        req: &Request,
        on_interval: impl FnMut(&Response),
    ) -> Result<Response, ProtocolError> {
        let stream = &self.stream;
        let mut io = stream;
        let cold_waits = &mut self.cold_waits;
        round_trip(&mut io, &mut self.frames, req, on_interval, |frames| {
            let w = waits();
            let spun = cold_waits.is_multiple_of(REPROBE_EVERY)
                && spin(frames, stream, &w.slots, SPIN_BUDGET);
            *cold_waits = if spun { 0 } else { cold_waits.wrapping_add(1) };
            if spun { &w.spun } else { &w.parked }.inc();
        })
    }

    /// [`Client::subscribe_each`], collected: returns every streamed frame
    /// in order. The last element is therefore `Estimated` on success and
    /// `Error` on rejection.
    pub fn subscribe(
        &mut self,
        point: usize,
        col: usize,
        eps: f64,
    ) -> Result<Vec<Response>, ProtocolError> {
        let mut frames = Vec::new();
        self.subscribe_each(point, col, eps, |resp| frames.push(resp.clone()))?;
        Ok(frames)
    }

    /// Replay a line-oriented script (blank lines and `#` comments
    /// skipped), returning the canonical transcript: each command echoed
    /// with a `> ` prefix, each response with `< `. A `SUBSCRIBE` command
    /// echoes once and then prints every streamed frame as its own `< `
    /// line. Every response field is deterministic given the server's
    /// scenario and configuration, so the transcript can be byte-diffed
    /// against a golden file.
    pub fn run_script(&mut self, script: &str) -> Result<String, ProtocolError> {
        let mut transcript = String::new();
        for line in script.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let req = Request::from_script_line(line)?;
            let _ = writeln!(transcript, "> {line}");
            if let Request::Subscribe { point, col, eps_bits } = req {
                for resp in self.subscribe(point, col, f64::from_bits(eps_bits))? {
                    let _ = writeln!(transcript, "< {}", resp.encode());
                }
            } else {
                let resp = self.request(&req)?;
                let _ = writeln!(transcript, "< {}", resp.encode());
            }
        }
        Ok(transcript)
    }
}

/// One exchange of [`Client::exchange`] over `io`: write `req`, then read
/// frames through `frames`, calling `wait` before each, until one that is
/// not an `INTERVAL`.
fn round_trip<S: Read + Write>(
    io: &mut S,
    frames: &mut FrameBuf,
    req: &Request,
    mut on_interval: impl FnMut(&Response),
    mut wait: impl FnMut(&mut FrameBuf),
) -> Result<Response, ProtocolError> {
    send_request(io, req)?;
    loop {
        wait(frames);
        let payload = frames.read_frame(&mut *io)?.ok_or(ProtocolError::Truncated)?;
        let resp = Response::decode(&payload)?;
        if !matches!(resp, Response::Interval { .. }) {
            return Ok(resp);
        }
        on_interval(&resp);
    }
}

/// Connect, replay `script`, and return the transcript (the one-call form
/// the `jigsaw-client` binary and the CI smoke job use).
pub fn run_script(addr: impl ToSocketAddrs, script: &str) -> Result<String, ProtocolError> {
    Client::connect(addr)?.run_script(script)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::Counting;
    use crate::JigsawServer;

    /// A round trip whose wait parks — a cold client's — writes the request
    /// once and reads the whole reply once.
    #[test]
    fn a_parked_round_trip_costs_one_write_and_one_read() {
        let handle =
            JigsawServer::builder().bind("127.0.0.1:0").expect("bind").serve().expect("serve");
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        let mut io = Counting::new(&client.stream);
        let hello = Request::Hello { version: PROTOCOL_VERSION };
        for round in 1..=3 {
            let reply = round_trip(&mut io, &mut client.frames, &hello, |_| {}, |_| {});
            assert_eq!(reply.expect("answered"), Response::Welcome { version: PROTOCOL_VERSION });
            assert_eq!((io.writes, io.reads), (round, round));
        }
        handle.shutdown().expect("shutdown");
    }

    #[test]
    fn a_subscribe_sent_through_request_keeps_the_connection_in_step() {
        let handle =
            JigsawServer::builder().bind("127.0.0.1:0").expect("bind").serve().expect("serve");
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        let src = "DECLARE PARAMETER @week AS RANGE 0 TO 19 STEP BY 1; \
             SELECT Demand(@week, 5) AS demand INTO results;"
            .to_string();
        let compiled = client.request(&Request::Compile { src }).expect("compile");
        assert!(matches!(compiled, Response::Compiled { points: 20, .. }), "{compiled:?}");

        // Every stream opens with a tier-0 INTERVAL before its closing EST.
        let eps_bits = 0.5f64.to_bits();
        let closing = client.request(&Request::Subscribe { point: 12, col: 0, eps_bits });
        let closing = closing.expect("subscribe");
        assert!(matches!(closing, Response::Estimated { point: 12, col: 0, .. }), "{closing:?}");
        // The next reply on the connection is the ESTIMATE's own, and it
        // reads the state the stream left: the same bits.
        let estimate = client.request(&Request::Estimate { point: 12, col: 0 }).expect("estimate");
        assert_eq!(estimate, closing);
        let refused = client.request(&Request::Subscribe { point: 99, col: 0, eps_bits });
        assert!(matches!(refused.expect("answered"), Response::Error { .. }));
        assert_eq!(client.request(&Request::Quit).expect("quit"), Response::Bye);
        handle.shutdown().expect("shutdown");
    }
}
