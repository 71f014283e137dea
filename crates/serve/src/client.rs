//! A blocking HTTP client for the daemon — the library behind
//! `tessera-client` and the stress/replay harnesses.
//!
//! One [`Client`] holds one keep-alive connection and issues requests
//! sequentially (`POST /api` with a full envelope). A broken connection
//! is re-dialed once per request before giving up, so a daemon restart
//! between requests is transparent.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::api::{Request, Response};
use crate::codec::{decode_response, encode_request, CodecError};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (after the one reconnect attempt).
    Io(io::Error),
    /// The server's bytes did not decode as a `tessera-serve/1`
    /// response.
    Codec(CodecError),
    /// The server answered with a non-JSON or structurally invalid
    /// HTTP response.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Codec(e) => write!(f, "{e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

/// The per-read socket timeout: analysis requests on large designs
/// are slow on purpose.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// A blocking keep-alive client.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for the daemon at `addr` (not connected yet; the first
    /// request dials).
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, stream: None }
    }

    /// Sends one request and decodes the response.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on connection failure (after one reconnect),
    /// malformed HTTP, or a response that does not decode.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let wire = encode_request(req);
        match self.round_trip(&wire) {
            Ok(body) => Ok(decode_response(&body)?),
            Err(first_try) => {
                // The keep-alive peer may have gone away: re-dial once.
                self.stream = None;
                if matches!(first_try, ClientError::Io(_)) {
                    let body = self.round_trip(&wire)?;
                    Ok(decode_response(&body)?)
                } else {
                    Err(first_try)
                }
            }
        }
    }

    fn round_trip(&mut self, wire: &str) -> Result<String, ClientError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("just connected");
        let head = format!(
            "POST /api HTTP/1.1\r\nHost: tessera\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            wire.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(wire.as_bytes())?;
        stream.flush()?;
        read_http_response(stream)
    }
}

/// Reads one `Content-Length`-framed HTTP response body.
fn read_http_response(stream: &mut TcpStream) -> Result<String, ClientError> {
    let mut buf = Vec::new();
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut content_length = None;
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let content_length = content_length
        .ok_or_else(|| ClientError::Protocol("response without Content-Length".into()))?;
    // The body leaves the read buffer without a copy: whatever arrived
    // with the head stays in place, the rest is read straight into the
    // same allocation. The length comes from the peer, so it is reserved
    // (an impossible one is an error, not an abort) and filled only with
    // bytes that actually arrive.
    let mut body = buf;
    body.drain(..head_end + 4);
    if body.len() < content_length {
        let missing = content_length - body.len();
        body.try_reserve_exact(missing).map_err(|_| {
            ClientError::Protocol(format!("Content-Length {content_length} is too large"))
        })?;
        stream.take(missing as u64).read_to_end(&mut body)?;
        if body.len() < content_length {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            )));
        }
    }
    body.truncate(content_length);
    String::from_utf8(body).map_err(|_| ClientError::Protocol("response body is not UTF-8".into()))
}
