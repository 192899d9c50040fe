//! The operator-facing status endpoint: a minimal HTTP/1.1 server over
//! `std::net::TcpListener`, zero dependencies, one thread.
//!
//! The engine is single-writer and `&mut`-heavy, so the server never
//! calls into it. Instead the node's driving loop *publishes* snapshots
//! into a shared [`StatusCell`] — the rendered Prometheus text and the
//! current health verdict — and the server thread serves whatever was
//! last published. `/events` reads the shared [`EventLog`] directly (its
//! ring is already `&self` + mutex). This keeps the scrape path entirely
//! off the ingest path: a slow or hostile scraper can never block a
//! commit.
//!
//! Routes:
//!
//! | route      | content                                              |
//! |------------|------------------------------------------------------|
//! | `/metrics` | Prometheus text exposition of the metrics registry   |
//! | `/events`  | structured event-log tail as JSONL                   |
//! | `/health`  | full [`HealthReport`]-style JSON verdict, always 200 |
//! | `/ready`   | `{"ready":true|false}`, 200 when serving, 503 if not |
//!
//! Connections are bounded by construction: the accept loop handles one
//! connection at a time, caps the request head at 8 KiB, and applies a
//! one-second read timeout — an operator surface, not a web server.
//!
//! [`HealthReport`]: ../../dbdedup_core/health/struct.HealthReport.html

use crate::event::EventLog;
use crate::prom::render_prometheus;
use crate::registry::Registry;
use dbdedup_util::sync::lock_or_recover;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Prometheus metric-name namespace for everything this node exports.
pub const METRICS_PREFIX: &str = "dbdedup_";

/// Maximum bytes of request head the server will read.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How many trailing event lines `/events` serves.
const EVENTS_TAIL_LINES: usize = 256;

struct CellState {
    prometheus: String,
    health_json: String,
    ready: bool,
}

/// The publish side of the status surface: the node's driving loop
/// deposits rendered snapshots here; the server thread only reads.
pub struct StatusCell {
    state: Mutex<CellState>,
    events: Mutex<Option<Arc<EventLog>>>,
    /// Requests served (all routes), for smoke tests and curiosity.
    requests: AtomicU64,
}

impl std::fmt::Debug for StatusCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatusCell")
            .field("requests", &self.requests.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for StatusCell {
    fn default() -> Self {
        Self {
            state: Mutex::new(CellState {
                prometheus: String::new(),
                // Until the first publish the node is booting: live but
                // not ready, and says so.
                health_json: "{\"live\":true,\"verdict\":\"unready\",\"subsystems\":[]}".into(),
                ready: false,
            }),
            events: Mutex::new(None),
            requests: AtomicU64::new(0),
        }
    }
}

impl StatusCell {
    /// A fresh cell in the "booting" state (unready, no metrics yet).
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Attaches the event log `/events` serves.
    pub fn set_event_log(&self, log: Arc<EventLog>) {
        *lock_or_recover(&self.events) = Some(log);
    }

    /// Publishes a metrics snapshot: renders the registry to Prometheus
    /// text once, on the publisher's thread.
    pub fn publish_registry(&self, r: &Registry) {
        let text = render_prometheus(r, METRICS_PREFIX);
        lock_or_recover(&self.state).prometheus = text;
    }

    /// Publishes a health verdict: the pre-rendered `/health` JSON body
    /// plus the boolean `/ready` gate.
    pub fn publish_health(&self, ready: bool, health_json: String) {
        let mut s = lock_or_recover(&self.state);
        s.ready = ready;
        s.health_json = health_json;
    }

    /// Requests served so far (all routes).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    fn respond(&self, path: &str) -> (u16, &'static str, String) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match path {
            "/metrics" => {
                (200, "text/plain; version=0.0.4", lock_or_recover(&self.state).prometheus.clone())
            }
            "/health" => {
                (200, "application/json", lock_or_recover(&self.state).health_json.clone())
            }
            "/ready" => {
                let ready = lock_or_recover(&self.state).ready;
                let code = if ready { 200 } else { 503 };
                (code, "application/json", format!("{{\"ready\":{ready}}}"))
            }
            "/events" => {
                let body = match lock_or_recover(&self.events).as_ref() {
                    Some(log) => tail_lines(&log.to_jsonl(), EVENTS_TAIL_LINES),
                    None => String::new(),
                };
                (200, "application/jsonl", body)
            }
            "/" => (
                200,
                "text/plain",
                "dbdedup status endpoint: /metrics /events /health /ready\n".into(),
            ),
            _ => (404, "text/plain", "not found\n".into()),
        }
    }
}

/// The last `n` newline-terminated lines of `s`.
fn tail_lines(s: &str, n: usize) -> String {
    let count = s.lines().count();
    if count <= n {
        return s.to_string();
    }
    let mut out = String::new();
    for line in s.lines().skip(count - n) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// A running status server. Dropping (or [`shutdown`](Self::shutdown))
/// stops the accept loop and joins the thread.
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for StatusServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatusServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl StatusServer {
    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the serving thread against `cell`.
    pub fn start(bind: &str, cell: Arc<StatusCell>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept lets the loop poll the stop flag; actual
        // request sockets are switched back to blocking with timeouts.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("dbdedup-status".into())
            .spawn(move || serve_loop(listener, cell, stop2))?;
        Ok(Self { addr, stop, handle: Some(handle) })
    }

    /// The bound address (read the ephemeral port here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_loop(listener: TcpListener, cell: Arc<StatusCell>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One connection at a time: the scrape surface is bounded
                // by construction, and a stuck client only costs the
                // read timeout.
                let _ = handle_connection(stream, &cell);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, cell: &StatusCell) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(1)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // Read until the end of the request head (or the caps kick in). The
    // body, if any, is ignored: every route is a GET.
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    let (code, content_type, body) = match parse_request_path(&head) {
        Some(path) => cell.respond(&path),
        None => (400, "text/plain", "bad request\n".to_string()),
    };
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "OK",
    };
    let header = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Extracts the path of a `GET <path> HTTP/1.x` request line; query
/// strings are stripped. `None` means a malformed (or non-GET) request.
fn parse_request_path(head: &[u8]) -> Option<String> {
    let head = std::str::from_utf8(head).ok()?;
    let line = head.lines().next()?;
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let path = parts.next()?;
    parts.next()?.starts_with("HTTP/").then(|| path.split('?').next().unwrap_or(path).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Severity};

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let code: u16 = response
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status code");
        let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (code, body)
    }

    #[test]
    fn serves_published_metrics_and_health() {
        let cell = StatusCell::shared();
        let mut r = Registry::new();
        r.set_u64("events.len", 7);
        cell.publish_registry(&r);
        cell.publish_health(true, "{\"live\":true,\"verdict\":\"ready\"}".into());
        let server = StatusServer::start("127.0.0.1:0", Arc::clone(&cell)).expect("bind");
        let addr = server.addr();

        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("dbdedup_events_len 7\n"), "{body}");

        let (code, body) = get(addr, "/health");
        assert_eq!(code, 200);
        assert!(body.contains("\"verdict\":\"ready\""), "{body}");

        let (code, body) = get(addr, "/ready");
        assert_eq!(code, 200);
        assert_eq!(body, "{\"ready\":true}");

        assert!(cell.requests() >= 3);
        server.shutdown();
    }

    #[test]
    fn unready_gates_503_and_events_serves_jsonl() {
        let cell = StatusCell::shared();
        let log = EventLog::shared(16);
        log.record(Severity::Warn, EventKind::Partition { replica: 3 });
        cell.set_event_log(Arc::clone(&log));
        let server = StatusServer::start("127.0.0.1:0", Arc::clone(&cell)).expect("bind");
        let addr = server.addr();

        // Nothing published yet: booting ⇒ /ready is 503, /health still 200.
        let (code, body) = get(addr, "/ready");
        assert_eq!(code, 503);
        assert_eq!(body, "{\"ready\":false}");
        let (code, _) = get(addr, "/health");
        assert_eq!(code, 200);

        let (code, body) = get(addr, "/events");
        assert_eq!(code, 200);
        assert!(body.contains("\"kind\":\"partition\""), "{body}");
        crate::json::parse(body.lines().next().unwrap()).expect("JSONL line parses");

        let (code, _) = get(addr, "/nope");
        assert_eq!(code, 404);
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400_and_do_not_kill_the_server() {
        let cell = StatusCell::shared();
        let server = StatusServer::start("127.0.0.1:0", Arc::clone(&cell)).expect("bind");
        let addr = server.addr();
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"BOGUS\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        }
        // The server must keep serving after a bad request.
        let (code, _) = get(addr, "/");
        assert_eq!(code, 200);
        server.shutdown();
    }

    #[test]
    fn tail_lines_keeps_the_newest() {
        assert_eq!(tail_lines("a\nb\nc\n", 2), "b\nc\n");
        assert_eq!(tail_lines("a\nb\n", 5), "a\nb\n");
        assert_eq!(tail_lines("", 5), "");
    }

    #[test]
    fn request_path_parsing() {
        assert_eq!(parse_request_path(b"GET /metrics HTTP/1.1\r\n\r\n"), Some("/metrics".into()));
        assert_eq!(parse_request_path(b"GET /x?q=1 HTTP/1.0\r\n"), Some("/x".into()));
        assert_eq!(parse_request_path(b"POST / HTTP/1.1\r\n"), None);
        assert_eq!(parse_request_path(b"garbage"), None);
    }
}
