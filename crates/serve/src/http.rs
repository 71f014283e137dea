//! The HTTP/1.1 transport: `std::net::TcpListener`, a fixed worker
//! pool, request size/time limits, graceful drain.
//!
//! Deliberately minimal — the daemon speaks exactly the subset its own
//! [`crate::client::Client`] and `curl` need: `Content-Length` bodies
//! (no chunked encoding), keep-alive, one request at a time per
//! connection. Every request records one dft-obs span tree
//! (`serve.request` > `serve.parse` / `serve.dispatch` >
//! `<kind>` / `serve.respond`) with its `connections`, `bytes_in`,
//! `bytes_out` and `transport_errors` counts; once the response is
//! written the tree folds into `/stats` ([`crate::ServeStats::absorb`]).
//! A request that panics closes only its own connection: the worker
//! catches the unwind and takes the next connection.
//!
//! ## Routes
//!
//! | Route | Request |
//! |---|---|
//! | `POST /api` | full `tessera-serve/1` envelope in the body |
//! | `POST /<type>` | bare body object, type taken from the path |
//! | `GET /stats`, `GET /designs` | field-less requests |
//! | `POST /shutdown` | graceful drain |
//!
//! ## Shutdown
//!
//! A `shutdown` request flips the service's drain flag: the accept
//! loop stops, workers finish in-flight requests and exit, and
//! [`ServerHandle::join`] returns. The daemon holds no durable state,
//! so external termination (e.g. SIGTERM, which a dependency-free
//! process cannot trap) is equally safe — clients simply reconnect to
//! a cold cache.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use dft_json::parse;
use dft_obs::{Obs, Recorder};

use crate::api::{ErrorCode, Request, Response};
use crate::codec::{decode_request, decode_request_body, encode_response};
use crate::service::Service;

/// Maximum bytes of request line + headers.
const MAX_HEAD: usize = 16 * 1024;

/// Transport limits and sizing.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Maximum request body size in bytes.
    pub max_body: usize,
    /// Per-read socket timeout.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 4,
            max_body: 8 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// A running server: its bound address and its threads.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server has drained and every thread exited
    /// (i.e. until a `shutdown` request arrives).
    pub fn join(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Binds and starts serving `service` per `config`.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(service: Arc<Service>, config: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers = (0..config.threads.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            let cfg = config.clone();
            thread::spawn(move || loop {
                let next = rx.lock().expect("worker queue poisoned").recv();
                match next {
                    // A panicking request closes only its own connection.
                    Ok(stream) => {
                        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                            handle_connection(&service, stream, &cfg);
                        }));
                    }
                    Err(_) => break, // accept loop gone: drain complete
                }
            })
        })
        .collect();

    let accept_service = Arc::clone(&service);
    let accept = thread::spawn(move || {
        loop {
            if accept_service.shutting_down() {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(_) => thread::sleep(Duration::from_millis(5)),
            }
        }
        // Dropping `tx` here wakes every idle worker with a recv error.
    });

    Ok(ServerHandle {
        addr,
        accept,
        workers,
    })
}

// ---------------------------------------------------------------------
// Per-connection handling
// ---------------------------------------------------------------------

struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
    keep_alive: bool,
}

enum ReadOutcome {
    Request(HttpRequest),
    /// Peer closed cleanly between requests.
    Eof,
    /// Malformed/oversized input: respond with this status and close.
    Bad(u16, String),
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    bytes_in: u64,
}

impl Conn {
    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        self.bytes_in += n as u64;
        Ok(n)
    }

    fn read_request(&mut self, max_body: usize) -> io::Result<ReadOutcome> {
        // Head: everything up to the blank line.
        let head_end = loop {
            if let Some(pos) = find_double_crlf(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEAD {
                return Ok(ReadOutcome::Bad(431, "request head too large".into()));
            }
            if self.fill()? == 0 {
                return Ok(if self.buf.is_empty() {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Bad(400, "truncated request head".into())
                });
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
            return Ok(ReadOutcome::Bad(400, "malformed request line".into()));
        };
        let version = parts.next().unwrap_or("HTTP/1.1");
        let method = method.to_owned();
        let path = path.to_owned();

        let mut content_length = 0usize;
        let mut keep_alive = version != "HTTP/1.0";
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                match value.parse::<usize>() {
                    Ok(n) => content_length = n,
                    Err(_) => return Ok(ReadOutcome::Bad(400, "bad Content-Length".into())),
                }
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
        if content_length > max_body {
            return Ok(ReadOutcome::Bad(
                413,
                format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
            ));
        }

        // The body leaves the read buffer without a copy: whatever
        // arrived with the head stays in place, the rest is read into
        // the same allocation in one `read_exact`.
        let mut body = std::mem::take(&mut self.buf);
        body.drain(..head_end + 4);
        if body.len() > content_length {
            // Keep any pipelined bytes for the next request.
            self.buf = body.split_off(content_length);
        } else {
            let arrived = body.len();
            body.resize(content_length, 0);
            match self.stream.read_exact(&mut body[arrived..]) {
                Ok(()) => self.bytes_in += (content_length - arrived) as u64,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    return Ok(ReadOutcome::Bad(400, "truncated request body".into()));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(ReadOutcome::Request(HttpRequest {
            method,
            path,
            body,
            keep_alive,
        }))
    }
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Maps a decoded HTTP request to a service request.
fn route(http: &HttpRequest) -> Result<Request, (u16, String)> {
    let body_text =
        std::str::from_utf8(&http.body).map_err(|_| (400u16, "body is not UTF-8".to_string()))?;
    match (http.method.as_str(), http.path.as_str()) {
        ("GET", "/stats") => Ok(Request::Stats),
        ("GET", "/designs") => Ok(Request::Designs),
        ("POST", "/shutdown") => Ok(Request::Shutdown),
        ("POST", "/api") => decode_request(body_text).map_err(|e| (400, e.to_string())),
        ("POST", path) => {
            let kind = path.trim_start_matches('/');
            let body = if body_text.trim().is_empty() {
                dft_json::Value::Obj(Vec::new())
            } else {
                parse(body_text).map_err(|e| (400, format!("invalid JSON body: {e}")))?
            };
            decode_request_body(kind, body).map_err(|e| (404, e.to_string()))
        }
        (method, path) => Err((404, format!("no route for {method} {path}"))),
    }
}

fn status_of(resp: &Response) -> u16 {
    match resp {
        Response::Error { code, .. } => match code {
            ErrorCode::BadRequest => 400,
            ErrorCode::UnknownCircuit | ErrorCode::UnknownDesign | ErrorCode::BadTarget => 404,
            ErrorCode::LoadFailed => 422,
            ErrorCode::ShuttingDown => 503,
        },
        _ => 200,
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<u64> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    Ok((head.len() + body.len()) as u64)
}

fn transport_error_body(message: &str) -> String {
    encode_response(&Response::Error {
        code: ErrorCode::BadRequest,
        message: message.to_owned(),
        available: Vec::new(),
    })
}

fn handle_connection(service: &Service, stream: TcpStream, cfg: &ServerConfig) {
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut conn = Conn {
        stream,
        buf: Vec::new(),
        bytes_in: 0,
    };
    let mut connections = 1;
    loop {
        let mut rec = Recorder::new();
        let mut obs = Obs::new(Some(&mut rec));
        // The connection counts once, on its first request's tree.
        obs.count("connections", std::mem::take(&mut connections));
        let keep_open = serve_request(service, &mut conn, cfg, &mut obs);
        drop(obs);
        service.stats().absorb(&rec.finish("serve.connection").root);
        if !keep_open {
            break;
        }
    }
}

/// Reads, dispatches and answers one request on `conn`, recording it on
/// `obs`. Returns whether the connection stays open.
fn serve_request(service: &Service, conn: &mut Conn, cfg: &ServerConfig, obs: &mut Obs) -> bool {
    obs.enter("serve.request");
    obs.enter("serve.parse");
    let outcome = conn.read_request(cfg.max_body);
    let routed = match &outcome {
        Ok(ReadOutcome::Request(http)) => Some(route(http)),
        _ => None,
    };
    obs.exit();
    obs.count("bytes_in", std::mem::take(&mut conn.bytes_in));

    let (status, body, keep_alive) = match (outcome, routed) {
        (Err(_) | Ok(ReadOutcome::Eof), _) => return false,
        (Ok(ReadOutcome::Bad(status, message)), _)
        | (Ok(ReadOutcome::Request(_)), Some(Err((status, message)))) => {
            obs.count("transport_errors", 1);
            (status, transport_error_body(&message), false)
        }
        (Ok(ReadOutcome::Request(http)), Some(Ok(req))) => {
            obs.enter("serve.dispatch");
            let resp = service.handle_with(&req, obs);
            obs.exit();
            // A shutdown response is the connection's last.
            let keep = http.keep_alive && !matches!(resp, Response::Shutdown);
            (status_of(&resp), encode_response(&resp), keep)
        }
        (Ok(ReadOutcome::Request(_)), None) => unreachable!("routed above"),
    };

    obs.enter("serve.respond");
    let written = write_response(&mut conn.stream, status, &body, keep_alive);
    obs.exit();
    match written {
        Ok(n) => {
            obs.count("bytes_out", n);
            keep_alive
        }
        Err(_) => false,
    }
}
