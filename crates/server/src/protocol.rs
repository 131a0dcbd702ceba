//! The session-server wire protocol: length-prefixed UTF-8 line frames.
//!
//! Dependency-free by design (U-relations-style succinctness argues for a
//! compact, self-describing wire format): every message is one **frame** —
//! a little-endian `u32` byte length followed by that many bytes of UTF-8
//! payload. The payload is a single command line (verb + space-separated
//! arguments); only `COMPILE` carries a body (the scenario script) after
//! the first newline, which the length prefix makes unambiguous.
//!
//! ## Grammar
//!
//! Requests:
//!
//! ```text
//! HELLO <version>            check the protocol version (optional)
//! COMPILE\n<script>          compile a scenario; attaches the shared store
//! SWEEP                      run the wave executor over the whole space
//! FOCUS <point>              move the session focus
//! ESTIMATE <point> <col>     touch a point and return its estimate
//! SUBSCRIBE <point> <col> <eps>   stream the anytime bound
//! TICK <count>               run <count> event-loop iterations
//! STATS                      session + shared-store telemetry
//! SAVE <name>                snapshot the shared store server-side
//! LOAD <name>                replace the shared store from a snapshot
//! METRICS                    process-wide metrics snapshot
//! QUIT                       close the connection
//! ```
//!
//! Responses (one per request, in order — except `SUBSCRIBE`, which
//! streams zero or more `INTERVAL` frames before its closing `EST`):
//!
//! ```text
//! WELCOME <version>
//! COMPILED <points> <n_cols> <col>…
//! SWEPT <points> <worlds> <full_sims> <reused> <warm_hits> <bases>
//! FOCUSED <point>
//! EST <point> <col> <n> <basis|direct> <mean_bits> <sd_bits> <lo_bits> <hi_bits>
//! INTERVAL <point> <col> <n> <lo_bits> <hi_bits>
//! TICKED <ticks> <worlds>
//! STATS <bases> <touched> <warm_hits> <worlds> <generation>
//! SAVED <name> <bytes>
//! LOADED <name> <bases>
//! METRICS\n<prometheus-text>
//! BYE
//! ERR <code> <message>
//! ```
//!
//! There is one protocol version, [`PROTOCOL_VERSION`], and the handshake
//! is an *optional compatibility check*: `HELLO` (in any connection state)
//! with that version is answered `WELCOME` with it; any other version is
//! answered `ERR unsupported`, naming both, and the connection keeps
//! serving. A client that never says `HELLO` gets the same full verb set.
//!
//! `METRICS` is the one response besides `COMPILE`'s request that carries
//! a body: the verb line, a newline, then the process-wide metrics
//! snapshot in Prometheus text exposition format (`jigsaw_obs`). The
//! snapshot is wall-clock telemetry — unlike every other response it is
//! **not** deterministic, so golden-transcript scripts must not use it
//! (CI scrapes it with invariant assertions instead). A snapshot larger
//! than [`MAX_FRAME`] is answered with `ERR exec` through the normal
//! oversized-response substitution.
//!
//! `SUBSCRIBE <eps>` is a decimal f64 (e.g. `0.05`) — Rust's shortest
//! round-trippable `Display`/`parse` keeps it bit-exact on the wire; it
//! must be finite and positive. The stream closes with an `EST` carrying
//! the exact bit patterns a blocking `ESTIMATE` of the same refined state
//! returns — the anytime determinism contract.
//!
//! `<bases>` is a comma-joined per-column basis count (`-` when empty);
//! `<mean_bits>`/`<sd_bits>`/`<lo_bits>`/`<hi_bits>` are the IEEE-754 bit
//! patterns of the estimate in fixed-width hex, so estimates cross the
//! wire **bit-exactly** — the server-vs-local identity tests compare them
//! as integers.

use std::fmt;
use std::io::{Read, Write};

use jigsaw_core::interactive::EstimateSource;
use jigsaw_pdb::PdbError;

/// Upper bound on a frame payload; larger length prefixes are rejected
/// before any allocation is sized from them.
pub const MAX_FRAME: usize = 1 << 20;

/// The one protocol version this build speaks — the protocol's third wire
/// shape; no client of the first two survives. `HELLO` with any other is
/// refused.
pub const PROTOCOL_VERSION: u32 = 3;

/// Why a frame or message could not be read, written, or parsed.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying socket/file I/O failed.
    Io(std::io::Error),
    /// A frame payload longer than [`MAX_FRAME`] — declared by a length
    /// prefix on read, or composed locally on write. Both directions are
    /// hard errors: a release build must never truncate the length to
    /// `u32` and silently desync the stream.
    Oversized(usize),
    /// The stream ended inside a frame (mid-prefix or mid-payload).
    Truncated,
    /// The payload bytes are not valid UTF-8.
    NotUtf8,
    /// The payload parsed as text but not as a protocol message.
    Malformed(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "frame I/O: {e}"),
            ProtocolError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            ProtocolError::Truncated => write!(f, "frame truncated"),
            ProtocolError::NotUtf8 => write!(f, "frame payload is not UTF-8"),
            ProtocolError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<ProtocolError> for PdbError {
    fn from(e: ProtocolError) -> Self {
        PdbError::Protocol(e.to_string())
    }
}

/// Write one frame: `u32` LE payload length, then the payload bytes.
///
/// Prefix and payload go out in a single `write_all` — on a TCP socket,
/// two small writes per frame interact with Nagle + delayed ACK into
/// tens-of-milliseconds round trips ([`TcpStream::set_nodelay`] on both
/// ends guards the same latency; see [`crate::Client::connect`]).
///
/// [`TcpStream::set_nodelay`]: std::net::TcpStream::set_nodelay
pub fn write_frame(w: &mut impl Write, payload: &str) -> Result<(), ProtocolError> {
    // A typed error, not a debug_assert: in release builds the assert
    // would vanish and `payload.len() as u32` would silently truncate the
    // prefix, desyncing every frame after it.
    if payload.len() > MAX_FRAME {
        return Err(ProtocolError::Oversized(payload.len()));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); EOF *inside* a frame is [`ProtocolError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, ProtocolError> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(ProtocolError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => ProtocolError::Truncated,
        _ => ProtocolError::Io(e),
    })?;
    String::from_utf8(payload).map(Some).map_err(|_| ProtocolError::NotUtf8)
}

/// Split a frame payload into its verb, its space-separated arguments and
/// the body after the first newline, which only `body_verb` may carry.
fn split_payload<'a>(
    payload: &'a str,
    body_verb: &str,
) -> Result<(&'a str, Vec<&'a str>, Option<&'a str>), ProtocolError> {
    let (line, body) = match payload.split_once('\n') {
        Some((line, body)) => (line, Some(body)),
        None => (payload, None),
    };
    let mut words = line.split(' ');
    let verb = words.next().unwrap_or("");
    if body.is_some() && verb != body_verb {
        return Err(ProtocolError::Malformed(format!("{verb} does not take a body")));
    }
    Ok((verb, words.collect(), body))
}

/// Parse a `u32` argument named `what`.
fn parse_u32(what: &str, s: &str) -> Result<u32, ProtocolError> {
    s.parse().map_err(|_| ProtocolError::Malformed(format!("{what} `{s}` is not a u32")))
}

/// `Malformed` unless `verb` carries exactly `n` arguments (`noun`s).
fn check_arity(verb: &str, args: &[&str], n: usize, noun: &str) -> Result<(), ProtocolError> {
    if args.len() == n {
        return Ok(());
    }
    Err(ProtocolError::Malformed(format!("{verb} takes {n} {noun}(s), got {}", args.len())))
}

/// A client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Check the protocol version (optional; any connection state).
    Hello {
        /// The protocol version the client speaks.
        version: u32,
    },
    /// Compile a scenario script and attach its shared basis store.
    Compile {
        /// The scenario source (the `DECLARE …; SELECT …;` dialect).
        src: String,
    },
    /// Run the batch sweep over the whole parameter space.
    Sweep,
    /// Move the interactive focus.
    Focus {
        /// Parameter-space point index.
        point: usize,
    },
    /// Touch a point and return its estimate for one column.
    Estimate {
        /// Parameter-space point index.
        point: usize,
        /// Output-column index.
        col: usize,
    },
    /// Stream the anytime bound for one (point, column) until it is at
    /// most `eps` wide or the sample budget runs out.
    Subscribe {
        /// Parameter-space point index.
        point: usize,
        /// Output-column index.
        col: usize,
        /// `f64::to_bits` of the target width (bits keep the enum `Eq`;
        /// the wire carries the decimal form, which round-trips exactly).
        eps_bits: u64,
    },
    /// Run event-loop iterations.
    Tick {
        /// Number of ticks.
        count: u32,
    },
    /// Session and shared-store telemetry.
    Stats,
    /// Snapshot the shared store server-side under `name`.
    Save {
        /// Snapshot name (restricted charset; no paths).
        name: String,
    },
    /// Replace the shared store from the server-side snapshot `name`.
    Load {
        /// Snapshot name (restricted charset; no paths).
        name: String,
    },
    /// Process-wide metrics snapshot in Prometheus text format.
    Metrics,
    /// Close the connection.
    Quit,
}

/// True for names safe to embed in the wire format and in server-side
/// snapshot filenames: non-empty ASCII alphanumerics plus `-`/`_`/`.`,
/// never starting with a dot (no hidden files, no traversal).
pub fn valid_snapshot_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

/// Every request verb, in grammar order: the values [`Request::verb`]
/// returns, and the label space of the server's per-verb instruments.
pub const VERBS: [&str; 12] = [
    "HELLO",
    "COMPILE",
    "SWEEP",
    "FOCUS",
    "ESTIMATE",
    "SUBSCRIBE",
    "TICK",
    "STATS",
    "SAVE",
    "LOAD",
    "METRICS",
    "QUIT",
];

impl Request {
    /// The wire verb (one of [`VERBS`]), as a static string usable as a
    /// metric label (`jigsaw_requests_total{verb="ESTIMATE"}`).
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "HELLO",
            Request::Compile { .. } => "COMPILE",
            Request::Sweep => "SWEEP",
            Request::Focus { .. } => "FOCUS",
            Request::Estimate { .. } => "ESTIMATE",
            Request::Subscribe { .. } => "SUBSCRIBE",
            Request::Tick { .. } => "TICK",
            Request::Stats => "STATS",
            Request::Save { .. } => "SAVE",
            Request::Load { .. } => "LOAD",
            Request::Metrics => "METRICS",
            Request::Quit => "QUIT",
        }
    }

    /// Serialize to a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Request::Hello { version } => format!("HELLO {version}"),
            Request::Compile { src } => format!("COMPILE\n{src}"),
            Request::Sweep => "SWEEP".into(),
            Request::Focus { point } => format!("FOCUS {point}"),
            Request::Estimate { point, col } => format!("ESTIMATE {point} {col}"),
            Request::Subscribe { point, col, eps_bits } => {
                format!("SUBSCRIBE {point} {col} {}", f64::from_bits(*eps_bits))
            }
            Request::Tick { count } => format!("TICK {count}"),
            Request::Stats => "STATS".into(),
            Request::Save { name } => format!("SAVE {name}"),
            Request::Load { name } => format!("LOAD {name}"),
            Request::Metrics => "METRICS".into(),
            Request::Quit => "QUIT".into(),
        }
    }

    /// Parse a frame payload.
    pub fn decode(payload: &str) -> Result<Request, ProtocolError> {
        let (verb, args, body) = split_payload(payload, "COMPILE")?;
        let arity = |n: usize| check_arity(verb, &args, n, "argument");
        let parse_num = |what: &str, s: &str| -> Result<usize, ProtocolError> {
            s.parse().map_err(|_| ProtocolError::Malformed(format!("{what} `{s}` is not a number")))
        };
        match verb {
            "HELLO" => {
                arity(1)?;
                let version = parse_u32("version", args[0])?;
                Ok(Request::Hello { version })
            }
            "COMPILE" => {
                arity(0)?;
                match body {
                    Some(src) => Ok(Request::Compile { src: src.to_string() }),
                    None => Err(ProtocolError::Malformed("COMPILE requires a script body".into())),
                }
            }
            "SWEEP" => arity(0).map(|()| Request::Sweep),
            "FOCUS" => {
                arity(1)?;
                Ok(Request::Focus { point: parse_num("point", args[0])? })
            }
            "ESTIMATE" => {
                arity(2)?;
                Ok(Request::Estimate {
                    point: parse_num("point", args[0])?,
                    col: parse_num("column", args[1])?,
                })
            }
            "SUBSCRIBE" => {
                arity(3)?;
                let eps = args[2].parse::<f64>().map_err(|_| {
                    ProtocolError::Malformed(format!("eps `{}` is not a number", args[2]))
                })?;
                if !(eps.is_finite() && eps > 0.0) {
                    return Err(ProtocolError::Malformed(format!(
                        "eps `{}` must be positive and finite",
                        args[2]
                    )));
                }
                Ok(Request::Subscribe {
                    point: parse_num("point", args[0])?,
                    col: parse_num("column", args[1])?,
                    eps_bits: eps.to_bits(),
                })
            }
            "TICK" => {
                arity(1)?;
                let count = parse_u32("count", args[0])?;
                Ok(Request::Tick { count })
            }
            "STATS" => arity(0).map(|()| Request::Stats),
            "SAVE" | "LOAD" => {
                arity(1)?;
                let name = args[0].to_string();
                if !valid_snapshot_name(&name) {
                    return Err(ProtocolError::Malformed(format!(
                        "invalid snapshot name `{name}`"
                    )));
                }
                Ok(if verb == "SAVE" { Request::Save { name } } else { Request::Load { name } })
            }
            "METRICS" => arity(0).map(|()| Request::Metrics),
            "QUIT" => arity(0).map(|()| Request::Quit),
            other => Err(ProtocolError::Malformed(format!("unknown request verb `{other}`"))),
        }
    }

    /// Parse one line of a *client script* — the same syntax as the wire
    /// verb line, except `COMPILE` takes the scenario source as the rest of
    /// the line (scripts are line-oriented; the wire format is not).
    pub fn from_script_line(line: &str) -> Result<Request, ProtocolError> {
        match line.split_once(' ') {
            Some(("COMPILE", src)) => Ok(Request::Compile { src: src.to_string() }),
            _ => Request::decode(line),
        }
    }
}

/// Machine-readable failure class of a [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request could not be parsed.
    Malformed,
    /// The request is valid but not in this connection state (e.g. `SWEEP`
    /// before `COMPILE`) or its arguments are out of range.
    State,
    /// Scenario compilation failed.
    Compile,
    /// Sweep or session execution failed.
    Exec,
    /// Snapshot save/load failed.
    Snapshot,
    /// The server is not configured for the operation, or does not speak
    /// the client's protocol version.
    Unsupported,
}

impl ErrorCode {
    fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::State => "state",
            ErrorCode::Compile => "compile",
            ErrorCode::Exec => "exec",
            ErrorCode::Snapshot => "snapshot",
            ErrorCode::Unsupported => "unsupported",
        }
    }

    fn parse(s: &str) -> Option<ErrorCode> {
        use ErrorCode::*;
        [Malformed, State, Compile, Exec, Snapshot, Unsupported]
            .into_iter()
            .find(|c| c.as_str() == s)
    }
}

/// A server reply. Every field is deterministic given the scenario and
/// configuration — no wall-clock values cross the wire, so transcripts can
/// be byte-diffed against goldens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake accepted: the client speaks this server's version.
    Welcome {
        /// [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Scenario compiled; session attached to the shared store.
    Compiled {
        /// Parameter-space size.
        points: usize,
        /// Output-column names.
        columns: Vec<String>,
    },
    /// Sweep finished (the deterministic counters of `SweepStats`).
    Swept {
        /// Points swept.
        points: usize,
        /// Simulation worlds evaluated.
        worlds: u64,
        /// Points that ran a completion simulation.
        full_sims: usize,
        /// Points served by intra-sweep reuse.
        reused: usize,
        /// Points served by bases that pre-dated this sweep (paid for by an
        /// earlier sweep — possibly another client's).
        warm_hits: usize,
        /// Basis count per output column after the sweep.
        bases: Vec<usize>,
    },
    /// Focus moved.
    Focused {
        /// The new focus.
        point: usize,
    },
    /// An estimate, bit-exact (IEEE-754 bit patterns).
    Estimated {
        /// Point index.
        point: usize,
        /// Column index.
        col: usize,
        /// Samples backing the estimate.
        n_samples: usize,
        /// Provenance (mapped basis vs direct samples).
        source: EstimateSource,
        /// `f64::to_bits` of the expectation.
        expectation_bits: u64,
        /// `f64::to_bits` of the standard deviation.
        std_dev_bits: u64,
        /// `f64::to_bits` of the anytime bound's lower edge.
        lo_bits: u64,
        /// `f64::to_bits` of the anytime bound's upper edge.
        hi_bits: u64,
    },
    /// One step of a `SUBSCRIBE` stream: the current anytime bound.
    Interval {
        /// Point index.
        point: usize,
        /// Column index.
        col: usize,
        /// Samples backing the bound so far.
        n_samples: usize,
        /// `f64::to_bits` of the bound's lower edge.
        lo_bits: u64,
        /// `f64::to_bits` of the bound's upper edge.
        hi_bits: u64,
    },
    /// Event-loop iterations ran.
    Ticked {
        /// Ticks executed.
        ticks: u32,
        /// Session worlds evaluated so far (cumulative).
        worlds: u64,
    },
    /// Telemetry snapshot.
    Stats {
        /// Shared-store basis count per column.
        bases: Vec<usize>,
        /// Points this session has touched.
        touched: usize,
        /// This session's warm hits (first touches fully served by bases
        /// the session did not itself create).
        warm_hits: u64,
        /// This session's worlds evaluated.
        worlds: u64,
        /// Shared-store replacement generation.
        generation: u64,
    },
    /// Shared store snapshotted server-side.
    Saved {
        /// Snapshot name.
        name: String,
        /// Snapshot size in bytes.
        bytes: usize,
    },
    /// Shared store replaced from a server-side snapshot.
    Loaded {
        /// Snapshot name.
        name: String,
        /// Basis count per column after the load.
        bases: Vec<usize>,
    },
    /// Process-wide metrics snapshot. The one non-deterministic
    /// response: wall-clock latency histograms and traffic counters.
    Metrics {
        /// The snapshot in Prometheus text exposition format (the body
        /// after the verb line's newline).
        text: String,
    },
    /// Connection closing.
    Bye,
    /// The request failed; the connection stays usable.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail (single line).
        message: String,
    },
}

/// Join per-column counts for the wire (`-` for a zero-column store).
fn encode_counts(counts: &[usize]) -> String {
    if counts.is_empty() {
        "-".into()
    } else {
        counts.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",")
    }
}

fn decode_counts(s: &str) -> Result<Vec<usize>, ProtocolError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|x| {
            x.parse()
                .map_err(|_| ProtocolError::Malformed(format!("basis count `{x}` is not a number")))
        })
        .collect()
}

fn decode_bits(s: &str) -> Result<u64, ProtocolError> {
    u64::from_str_radix(s, 16)
        .map_err(|_| ProtocolError::Malformed(format!("`{s}` is not a hex bit pattern")))
}

impl Response {
    /// Serialize to a frame payload (single line; newlines in error
    /// messages are flattened to spaces).
    pub fn encode(&self) -> String {
        match self {
            Response::Welcome { version } => format!("WELCOME {version}"),
            Response::Compiled { points, columns } => {
                let mut out = format!("COMPILED {points} {}", columns.len());
                for c in columns {
                    out.push(' ');
                    out.push_str(c);
                }
                out
            }
            Response::Swept { points, worlds, full_sims, reused, warm_hits, bases } => format!(
                "SWEPT {points} {worlds} {full_sims} {reused} {warm_hits} {}",
                encode_counts(bases)
            ),
            Response::Focused { point } => format!("FOCUSED {point}"),
            Response::Estimated {
                point,
                col,
                n_samples,
                source,
                expectation_bits,
                std_dev_bits,
                lo_bits,
                hi_bits,
            } => {
                let src = match source {
                    EstimateSource::MappedBasis => "basis",
                    EstimateSource::Direct => "direct",
                };
                format!(
                    "EST {point} {col} {n_samples} {src} {expectation_bits:016x} {std_dev_bits:016x} {lo_bits:016x} {hi_bits:016x}"
                )
            }
            Response::Interval { point, col, n_samples, lo_bits, hi_bits } => {
                format!("INTERVAL {point} {col} {n_samples} {lo_bits:016x} {hi_bits:016x}")
            }
            Response::Ticked { ticks, worlds } => format!("TICKED {ticks} {worlds}"),
            Response::Stats { bases, touched, warm_hits, worlds, generation } => format!(
                "STATS {} {touched} {warm_hits} {worlds} {generation}",
                encode_counts(bases)
            ),
            Response::Saved { name, bytes } => format!("SAVED {name} {bytes}"),
            Response::Loaded { name, bases } => {
                format!("LOADED {name} {}", encode_counts(bases))
            }
            Response::Metrics { text } => format!("METRICS\n{text}"),
            Response::Bye => "BYE".into(),
            Response::Error { code, message } => {
                format!("ERR {} {}", code.as_str(), message.replace('\n', " "))
            }
        }
    }

    /// Parse a frame payload.
    pub fn decode(payload: &str) -> Result<Response, ProtocolError> {
        let (verb, args, body) = split_payload(payload, "METRICS")?;
        let arity = |n: usize| check_arity(verb, &args, n, "field");
        let num = |what: &str, s: &str| -> Result<u64, ProtocolError> {
            s.parse().map_err(|_| ProtocolError::Malformed(format!("{what} `{s}` is not a number")))
        };
        match verb {
            "WELCOME" => {
                arity(1)?;
                let version = parse_u32("version", args[0])?;
                Ok(Response::Welcome { version })
            }
            "COMPILED" => {
                if args.len() < 2 {
                    return Err(ProtocolError::Malformed("COMPILED needs points + n_cols".into()));
                }
                let points = num("points", args[0])? as usize;
                let n_cols = num("column count", args[1])? as usize;
                if args.len() != 2 + n_cols {
                    return Err(ProtocolError::Malformed(format!(
                        "COMPILED declares {n_cols} column(s) but carries {}",
                        args.len() - 2
                    )));
                }
                let columns = args[2..].iter().map(|s| s.to_string()).collect();
                Ok(Response::Compiled { points, columns })
            }
            "SWEPT" => {
                arity(6)?;
                Ok(Response::Swept {
                    points: num("points", args[0])? as usize,
                    worlds: num("worlds", args[1])?,
                    full_sims: num("full_sims", args[2])? as usize,
                    reused: num("reused", args[3])? as usize,
                    warm_hits: num("warm_hits", args[4])? as usize,
                    bases: decode_counts(args[5])?,
                })
            }
            "FOCUSED" => {
                arity(1)?;
                Ok(Response::Focused { point: num("point", args[0])? as usize })
            }
            "EST" => {
                arity(8)?;
                let source = match args[3] {
                    "basis" => EstimateSource::MappedBasis,
                    "direct" => EstimateSource::Direct,
                    other => {
                        return Err(ProtocolError::Malformed(format!(
                            "unknown estimate source `{other}`"
                        )))
                    }
                };
                Ok(Response::Estimated {
                    point: num("point", args[0])? as usize,
                    col: num("column", args[1])? as usize,
                    n_samples: num("n_samples", args[2])? as usize,
                    source,
                    expectation_bits: decode_bits(args[4])?,
                    std_dev_bits: decode_bits(args[5])?,
                    lo_bits: decode_bits(args[6])?,
                    hi_bits: decode_bits(args[7])?,
                })
            }
            "INTERVAL" => {
                arity(5)?;
                Ok(Response::Interval {
                    point: num("point", args[0])? as usize,
                    col: num("column", args[1])? as usize,
                    n_samples: num("n_samples", args[2])? as usize,
                    lo_bits: decode_bits(args[3])?,
                    hi_bits: decode_bits(args[4])?,
                })
            }
            "TICKED" => {
                arity(2)?;
                let ticks = parse_u32("ticks", args[0])?;
                Ok(Response::Ticked { ticks, worlds: num("worlds", args[1])? })
            }
            "STATS" => {
                arity(5)?;
                Ok(Response::Stats {
                    bases: decode_counts(args[0])?,
                    touched: num("touched", args[1])? as usize,
                    warm_hits: num("warm_hits", args[2])?,
                    worlds: num("worlds", args[3])?,
                    generation: num("generation", args[4])?,
                })
            }
            "SAVED" => {
                arity(2)?;
                Ok(Response::Saved {
                    name: args[0].to_string(),
                    bytes: num("bytes", args[1])? as usize,
                })
            }
            "LOADED" => {
                arity(2)?;
                Ok(Response::Loaded { name: args[0].to_string(), bases: decode_counts(args[1])? })
            }
            "METRICS" => {
                arity(0)?;
                match body {
                    Some(text) => Ok(Response::Metrics { text: text.to_string() }),
                    None => Err(ProtocolError::Malformed("METRICS requires a text body".into())),
                }
            }
            "BYE" => arity(0).map(|()| Response::Bye),
            "ERR" => {
                let rest = payload.strip_prefix("ERR ").ok_or_else(|| {
                    ProtocolError::Malformed("ERR needs a code and message".into())
                })?;
                let (code, message) = rest.split_once(' ').ok_or_else(|| {
                    ProtocolError::Malformed("ERR needs a message after the code".into())
                })?;
                let code = ErrorCode::parse(code).ok_or_else(|| {
                    ProtocolError::Malformed(format!("unknown error code `{code}`"))
                })?;
                Ok(Response::Error { code, message: message.to_string() })
            }
            other => Err(ProtocolError::Malformed(format!("unknown response verb `{other}`"))),
        }
    }
}

/// Send a request as one frame.
pub fn send_request(w: &mut impl Write, req: &Request) -> Result<(), ProtocolError> {
    write_frame(w, &req.encode())
}

/// Receive one response; `Ok(None)` is a clean disconnect.
pub fn recv_response(r: &mut impl Read) -> Result<Option<Response>, ProtocolError> {
    match read_frame(r)? {
        Some(payload) => Response::decode(&payload).map(Some),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "SWEEP").unwrap();
        write_frame(&mut buf, "FOCUS 9").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("SWEEP"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("FOCUS 9"));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let r = read_frame(&mut std::io::Cursor::new(buf));
        assert!(matches!(r, Err(ProtocolError::Oversized(_))));
    }

    #[test]
    fn oversized_frame_rejected_on_write_too() {
        // A payload one byte past MAX_FRAME must be a typed error, not a
        // truncated length prefix: nothing may reach the writer.
        let payload = "x".repeat(MAX_FRAME + 1);
        let mut buf = Vec::new();
        match write_frame(&mut buf, &payload) {
            Err(ProtocolError::Oversized(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert!(buf.is_empty(), "no bytes may leak before the size check");
        // At the limit exactly, the frame goes through.
        let fits = "x".repeat(MAX_FRAME);
        write_frame(&mut buf, &fits).unwrap();
        assert_eq!(read_frame(&mut std::io::Cursor::new(buf)).unwrap().as_deref(), Some(&*fits));
    }

    #[test]
    fn non_utf8_payload_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let r = read_frame(&mut std::io::Cursor::new(buf));
        assert!(matches!(r, Err(ProtocolError::NotUtf8)));
    }

    #[test]
    fn request_wire_forms() {
        let compile = Request::Compile { src: "SELECT D(@x) AS d INTO r;".into() };
        assert!(compile.encode().starts_with("COMPILE\n"));
        assert_eq!(Request::decode(&compile.encode()).unwrap(), compile);
        assert_eq!(
            Request::decode("ESTIMATE 9 0").unwrap(),
            Request::Estimate { point: 9, col: 0 }
        );
        assert!(Request::decode("ESTIMATE 9").is_err());
        assert!(Request::decode("NONSENSE").is_err());
        assert!(Request::decode("SWEEP extra").is_err());
        assert!(Request::decode("SAVE ../etc/passwd").is_err(), "paths are not snapshot names");
        assert!(Request::decode("SAVE .hidden").is_err());
        assert!(Request::decode("FOCUS 9\nbody").is_err(), "only COMPILE takes a body");
    }

    #[test]
    fn hello_welcome_wire_forms() {
        let hello = Request::Hello { version: PROTOCOL_VERSION };
        assert_eq!(hello.encode(), "HELLO 3");
        assert_eq!(Request::decode("HELLO 3").unwrap(), hello);
        assert!(Request::decode("HELLO").is_err());
        assert!(Request::decode("HELLO one").is_err());
        assert!(Request::decode("HELLO 1 2").is_err());
        let welcome = Response::Welcome { version: 1 };
        assert_eq!(welcome.encode(), "WELCOME 1");
        assert_eq!(Response::decode("WELCOME 1").unwrap(), welcome);
        assert!(Response::decode("WELCOME").is_err());
        // Any version roundtrips; the server, not the codec, refuses it.
        let eager = Request::Hello { version: u32::MAX };
        assert_eq!(Request::decode(&eager.encode()).unwrap(), eager);
    }

    #[test]
    fn verb_list_is_the_request_verb_set() {
        let one_of_each = [
            Request::Hello { version: PROTOCOL_VERSION },
            Request::Compile { src: "SELECT D(@x) AS d INTO r;".into() },
            Request::Sweep,
            Request::Focus { point: 1 },
            Request::Estimate { point: 1, col: 0 },
            Request::Subscribe { point: 1, col: 0, eps_bits: 0.5f64.to_bits() },
            Request::Tick { count: 1 },
            Request::Stats,
            Request::Save { name: "a".into() },
            Request::Load { name: "a".into() },
            Request::Metrics,
            Request::Quit,
        ];
        // Every variant's verb is listed, once and in grammar order, and
        // every listed verb decodes as itself.
        assert_eq!(one_of_each.len(), VERBS.len());
        for (req, verb) in one_of_each.iter().zip(VERBS) {
            assert_eq!(req.verb(), verb);
            assert_eq!(Request::decode(&req.encode()).unwrap().verb(), verb);
        }
    }

    #[test]
    fn metrics_wire_forms() {
        assert_eq!(Request::decode("METRICS").unwrap(), Request::Metrics);
        assert_eq!(Request::Metrics.encode(), "METRICS");
        assert!(Request::decode("METRICS 1").is_err());
        let resp = Response::Metrics { text: "# TYPE a counter\na 1\n".into() };
        assert_eq!(resp.encode(), "METRICS\n# TYPE a counter\na 1\n");
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        // The body survives verbatim, newlines and all.
        let round = Response::Metrics { text: "x\n\ny 2".into() };
        assert_eq!(Response::decode(&round.encode()).unwrap(), round);
        assert!(Response::decode("METRICS").is_err(), "the text body is mandatory");
        assert!(Response::decode("WELCOME 1\nbody").is_err(), "only METRICS takes a body");
    }

    #[test]
    fn script_lines_put_compile_source_inline() {
        let req = Request::from_script_line("COMPILE SELECT D(@x) AS d INTO r;").unwrap();
        assert_eq!(req, Request::Compile { src: "SELECT D(@x) AS d INTO r;".into() });
        assert_eq!(Request::from_script_line("TICK 4").unwrap(), Request::Tick { count: 4 });
    }

    #[test]
    fn response_wire_forms() {
        let est = Response::Estimated {
            point: 9,
            col: 0,
            n_samples: 210,
            source: EstimateSource::MappedBasis,
            expectation_bits: 10.03f64.to_bits(),
            std_dev_bits: 1.5f64.to_bits(),
            lo_bits: 9.7f64.to_bits(),
            hi_bits: 10.4f64.to_bits(),
        };
        let wire = est.encode();
        assert!(wire.starts_with("EST 9 0 210 basis "), "{wire}");
        assert_eq!(Response::decode(&wire).unwrap(), est);
        let err =
            Response::Error { code: ErrorCode::State, message: "compile a scenario first".into() };
        assert_eq!(Response::decode(&err.encode()).unwrap(), err);
        assert!(Response::decode("EST 9 0 210 basis xyz 0 0 0").is_err());
        assert!(
            Response::decode("EST 9 0 210 basis 4024000000000000 3ff8000000000000").is_err(),
            "a six-field EST is not a valid frame"
        );
        assert!(Response::decode("COMPILED 10 2 one").is_err(), "column count must match");
        assert!(Response::decode("BONKERS").is_err());
    }

    #[test]
    fn subscribe_wire_forms() {
        let sub = Request::Subscribe { point: 9, col: 0, eps_bits: 0.05f64.to_bits() };
        assert_eq!(sub.encode(), "SUBSCRIBE 9 0 0.05");
        assert_eq!(Request::decode("SUBSCRIBE 9 0 0.05").unwrap(), sub);
        // eps must be a positive finite number.
        assert!(Request::decode("SUBSCRIBE 9 0").is_err());
        assert!(Request::decode("SUBSCRIBE 9 0 zero").is_err());
        assert!(Request::decode("SUBSCRIBE 9 0 0").is_err());
        assert!(Request::decode("SUBSCRIBE 9 0 -0.5").is_err());
        assert!(Request::decode("SUBSCRIBE 9 0 NaN").is_err());
        assert!(Request::decode("SUBSCRIBE 9 0 inf").is_err());
        assert!(Request::decode("SUBSCRIBE 9 0 0.05 extra").is_err());
        // An awkward decimal survives encode→decode bit-exactly (shortest
        // round-trippable Display).
        let fussy = Request::Subscribe { point: 1, col: 1, eps_bits: 0.1f64.to_bits() };
        assert_eq!(Request::decode(&fussy.encode()).unwrap(), fussy);
    }

    #[test]
    fn interval_wire_forms() {
        let iv = Response::Interval {
            point: 9,
            col: 0,
            n_samples: 40,
            lo_bits: 9.5f64.to_bits(),
            hi_bits: 10.5f64.to_bits(),
        };
        let wire = iv.encode();
        assert!(wire.starts_with("INTERVAL 9 0 40 "), "{wire}");
        assert_eq!(Response::decode(&wire).unwrap(), iv);
        assert!(Response::decode("INTERVAL 9 0 40").is_err());
        assert!(Response::decode("INTERVAL 9 0 40 xyz 0").is_err());
        // ±∞ edges (the one-sample bound) are legitimate bit patterns.
        let open = Response::Interval {
            point: 0,
            col: 0,
            n_samples: 1,
            lo_bits: f64::NEG_INFINITY.to_bits(),
            hi_bits: f64::INFINITY.to_bits(),
        };
        assert_eq!(Response::decode(&open.encode()).unwrap(), open);
    }

    #[test]
    fn empty_bases_vector_roundtrips() {
        let stats =
            Response::Stats { bases: vec![], touched: 0, warm_hits: 0, worlds: 0, generation: 0 };
        assert_eq!(Response::decode(&stats.encode()).unwrap(), stats);
    }
}
