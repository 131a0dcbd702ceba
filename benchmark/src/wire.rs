//! The benchmark's connection to the loopback server.
//!
//! Untraced runs go through the program's own [`Client`], exactly as a
//! user would. Traced runs use [`Wire::Split`], which performs the same
//! exchange through the protocol layer's public functions one call at a
//! time, so a span can be recorded at each boundary: encode → frame write
//! → wait-and-read → decode.

use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use jigsaw_server::protocol::{read_frame, write_frame};
use jigsaw_server::{Client, ProtocolError, Request, Response, PROTOCOL_VERSION};

use crate::trace::Tracer;

/// One synchronous connection.
pub enum Wire {
    Plain(Client),
    Split(TcpStream),
}

impl Wire {
    /// Connect and shake hands. `split` selects the traced form.
    pub fn connect(addr: SocketAddr, split: bool) -> Result<Wire, String> {
        if !split {
            return Client::connect(addr).map(Wire::Plain).map_err(|e| format!("connect: {e}"));
        }
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let mut wire = Wire::Split(stream);
        let mut off = Tracer::new(Instant::now());
        match wire.request(&Request::Hello { version: PROTOCOL_VERSION }, &mut off, 0) {
            Ok(Response::Welcome { version }) if version == PROTOCOL_VERSION => Ok(wire),
            other => Err(format!("handshake: {other:?}")),
        }
    }

    /// One request/response exchange, attributed to request `id`.
    pub fn request(
        &mut self,
        req: &Request,
        tr: &mut Tracer,
        id: u64,
    ) -> Result<Response, ProtocolError> {
        match self {
            Wire::Plain(client) => client.request(req),
            Wire::Split(stream) => {
                let s = tr.enter("server.protocol.request_encode", id);
                let payload = req.encode();
                tr.exit(s);
                let s = tr.enter("server.frame.write", id);
                let sent = write_frame(stream, &payload);
                tr.exit(s);
                sent?;
                recv(stream, tr, id)
            }
        }
    }

    /// A `SUBSCRIBE` stream; `on_frame` sees every frame as it lands.
    pub fn subscribe_each(
        &mut self,
        point: usize,
        eps: f64,
        tr: &mut Tracer,
        id: u64,
        mut on_frame: impl FnMut(&Response),
    ) -> Result<(), ProtocolError> {
        match self {
            Wire::Plain(client) => client.subscribe_each(point, 0, eps, on_frame),
            Wire::Split(stream) => {
                let req = Request::Subscribe { point, col: 0, eps_bits: eps.to_bits() };
                let s = tr.enter("server.protocol.request_encode", id);
                let payload = req.encode();
                tr.exit(s);
                let s = tr.enter("server.frame.write", id);
                let sent = write_frame(stream, &payload);
                tr.exit(s);
                sent?;
                loop {
                    let resp = recv(stream, tr, id)?;
                    let done = !matches!(resp, Response::Interval { .. });
                    on_frame(&resp);
                    if done {
                        return Ok(());
                    }
                }
            }
        }
    }
}

fn recv(stream: &mut TcpStream, tr: &mut Tracer, id: u64) -> Result<Response, ProtocolError> {
    // Everything the server does for this request — pump pass, decode,
    // session, store, encode, park/wake — is inside this one span; the
    // layer probes and the server-side histograms split it further.
    let s = tr.enter("server.loop.wait_and_read", id);
    let frame = read_frame(stream);
    tr.exit(s);
    let payload = frame?.ok_or(ProtocolError::Truncated)?;
    let s = tr.enter("server.protocol.response_decode", id);
    let resp = Response::decode(&payload);
    tr.exit(s);
    resp
}

/// Spin for `us` microseconds: the client's think time between a reply and
/// its next request. Sleeping would hand the core to the scheduler and add
/// its wake-up jitter to every sample.
pub fn think(us: u64) {
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < us * 1000 {
        std::hint::spin_loop();
    }
}
