//! A minimal client: typed request/response exchange plus the scripted
//! driver behind the `jigsaw-client` binary and the golden-transcript CI
//! gate.

use std::fmt::Write as _;
use std::io::ErrorKind;
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    recv_response, send_request, ProtocolError, Request, Response, PROTOCOL_VERSION,
};

/// A connected protocol client.
pub struct Client {
    stream: TcpStream,
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
        let mut client = Client { stream };
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
        mut on_interval: impl FnMut(&Response),
    ) -> Result<Response, ProtocolError> {
        send_request(&mut self.stream, req)?;
        loop {
            let resp = recv_response(&mut self.stream)?.ok_or(ProtocolError::Truncated)?;
            if !matches!(resp, Response::Interval { .. }) {
                return Ok(resp);
            }
            on_interval(&resp);
        }
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

/// Connect, replay `script`, and return the transcript (the one-call form
/// the `jigsaw-client` binary and the CI smoke job use).
pub fn run_script(addr: impl ToSocketAddrs, script: &str) -> Result<String, ProtocolError> {
    Client::connect(addr)?.run_script(script)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JigsawServer;

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
