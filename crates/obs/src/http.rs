//! A minimal self-contained HTTP/1.1 responder for `GET /metrics` and
//! the health introspection plane (`/healthz`, `/readyz`).
//!
//! This is deliberately not a web server: one accept loop on its own
//! thread, connections handled serially, request bodies ignored, every
//! response `Connection: close`. That is all a Prometheus scraper (or
//! `curl`, or a load balancer probe) needs, and it keeps the
//! dependency count at zero — the container is offline. The render
//! closures are called once per request, so the endpoints always serve
//! live state. `HEAD` is answered with headers only (probes use it),
//! and every connection carries both a read and a write deadline so
//! one stalled scraper cannot wedge the serial loop.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gridwatch_sync::may_block;

/// Cap on request head size; anything longer is answered 400.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long a scraper may dawdle sending its request.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a scraper may dawdle draining the response before the
/// connection is dropped (slow-loris guard for the serial loop).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// What a request may ask the server: page content plus, when a
/// health closure is attached, liveness and readiness documents.
struct Routes {
    render: Box<dyn Fn() -> String + Send>,
    /// Returns `(ready, healthz_json)`; `/readyz` answers 503 when
    /// not ready, `/healthz` always answers 200 with the document.
    health: Option<Box<dyn Fn() -> (bool, String) + Send>>,
    write_timeout: Duration,
}

/// A live metrics endpoint. Shuts down on [`MetricsServer::shutdown`]
/// or drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsServer({})", self.addr)
    }
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves `GET /metrics`
    /// with whatever `render` returns, until shutdown.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn bind<F>(addr: &str, render: F) -> std::io::Result<MetricsServer>
    where
        F: Fn() -> String + Send + 'static,
    {
        MetricsServer::bind_routes(
            addr,
            Routes {
                render: Box::new(render),
                health: None,
                write_timeout: WRITE_TIMEOUT,
            },
        )
    }

    /// Like [`MetricsServer::bind`], but additionally serves the
    /// health plane: `GET /healthz` answers 200 with `health()`'s JSON
    /// document, and `GET /readyz` answers the same document with 503
    /// when `health()` reports not ready.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn bind_with_health<F, H>(
        addr: &str,
        render: F,
        health: H,
    ) -> std::io::Result<MetricsServer>
    where
        F: Fn() -> String + Send + 'static,
        H: Fn() -> (bool, String) + Send + 'static,
    {
        MetricsServer::bind_routes(
            addr,
            Routes {
                render: Box::new(render),
                health: Some(Box::new(health)),
                write_timeout: WRITE_TIMEOUT,
            },
        )
    }

    fn bind_routes(addr: &str, routes: Routes) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("gw-metrics".to_string())
            .spawn(move || accept_loop(listener, loop_stop, routes))?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the endpoint and joins its thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        may_block();
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            may_block();
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

fn accept_loop(listener: TcpListener, stop: Arc<AtomicBool>, routes: Routes) {
    loop {
        may_block();
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Serial handling: a scrape is one small read and one write,
        // both under deadlines; a misbehaving scraper only stalls the
        // metrics port briefly, never the pipeline.
        let _ = handle_connection(stream, &routes);
    }
}

/// Reads the request head and answers it. Errors are per-connection
/// and simply close the socket.
fn handle_connection(mut stream: TcpStream, routes: &Routes) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(routes.write_timeout))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if head.len() >= MAX_REQUEST_BYTES {
            return respond(&mut stream, "400 Bad Request", "request too large\n");
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        head.extend_from_slice(&buf[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let head_only = method == "HEAD";
    match (method, path) {
        ("GET" | "HEAD", "/metrics") => {
            let body = (routes.render)();
            page(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4",
                &body,
                head_only,
            )
        }
        ("GET" | "HEAD", "/healthz" | "/readyz") => match routes.health.as_ref() {
            None => page(
                &mut stream,
                "404 Not Found",
                "text/plain",
                "try /metrics\n",
                head_only,
            ),
            Some(health) => {
                let (ready, body) = health();
                // /healthz always answers 200 (the body carries the
                // verdict); /readyz flips to 503 for load balancers.
                let status = if path == "/healthz" || ready {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                };
                page(&mut stream, status, "application/json", &body, head_only)
            }
        },
        ("GET" | "HEAD", _) => page(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "try /metrics\n",
            head_only,
        ),
        _ => respond(&mut stream, "405 Method Not Allowed", "GET only\n"),
    }
}

/// Writes one response; a `HEAD` request gets the same headers
/// (including the `Content-Length` the `GET` body would have) with
/// the body withheld.
fn page(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
    head_only: bool,
) -> std::io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    may_block();
    stream.write_all(header.as_bytes())?;
    if !head_only {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()
}

fn respond(stream: &mut TcpStream, status: &str, body: &str) -> std::io::Result<()> {
    page(stream, status, "text/plain", body, false)
}

/// Fetches `path` from a [`MetricsServer`] and returns `(status_line,
/// body)`. A plain blocking client, exported for tests and the scrape
/// acceptance suite so they need no external HTTP tooling.
///
/// # Errors
///
/// Propagates connect/read/write failures and malformed responses as
/// `io::Error`.
pub fn scrape(addr: SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    scrape_method(addr, "GET", path)
}

/// Like [`scrape`], with the request method chosen by the caller —
/// how tests probe `HEAD` handling. Returns `(status_line, body)`;
/// for `HEAD` the body is empty while the headers still carry the
/// `GET` content length.
///
/// # Errors
///
/// Propagates connect/read/write failures and malformed responses as
/// `io::Error`.
pub fn scrape_method(
    addr: SocketAddr,
    method: &str,
    path: &str,
) -> std::io::Result<(String, String)> {
    may_block();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let request =
        format!("{method} {path} HTTP/1.1\r\nHost: gridwatch\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no header terminator")
    })?;
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serves_live_metrics_and_shuts_down() {
        let scrapes = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&scrapes);
        let server = MetricsServer::bind("127.0.0.1:0", move || {
            let n = counted.fetch_add(1, Ordering::SeqCst) + 1;
            format!("gw_scrapes_total {n}\n")
        })
        .unwrap();
        let addr = server.local_addr();

        let (status, body) = scrape(addr, "/metrics").unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "gw_scrapes_total 1\n");
        // Live state: a second scrape sees the updated value.
        let (_, body) = scrape(addr, "/metrics").unwrap();
        assert_eq!(body, "gw_scrapes_total 2\n");

        server.shutdown();
        // The port is released: a fresh bind on the same address works.
        assert!(TcpListener::bind(addr).is_ok());
    }

    #[test]
    fn wrong_paths_and_methods_are_refused() {
        let server = MetricsServer::bind("127.0.0.1:0", || "x 1\n".to_string()).unwrap();
        let addr = server.local_addr();
        let (status, _) = scrape(addr, "/").unwrap();
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        // Without a health closure, /healthz keeps the old 404.
        let (status, _) = scrape(addr, "/healthz").unwrap();
        assert_eq!(status, "HTTP/1.1 404 Not Found");

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }

    #[test]
    fn garbage_request_does_not_kill_the_server() {
        let server = MetricsServer::bind("127.0.0.1:0", || "ok 1\n".to_string()).unwrap();
        let addr = server.local_addr();
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"\x00\x01\x02 garbage\r\n\r\n").unwrap();
        }
        // Still serving afterwards.
        let (status, body) = scrape(addr, "/metrics").unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "ok 1\n");
    }

    /// Load-balancer and Prometheus liveness probes send `HEAD`: the
    /// server must answer headers-only (with the `GET` content length)
    /// instead of 405.
    #[test]
    fn head_requests_get_headers_only() {
        let server = MetricsServer::bind_with_health(
            "127.0.0.1:0",
            || "gw_up 1\n".to_string(),
            || (true, "{\"status\":\"ok\"}".to_string()),
        )
        .unwrap();
        let addr = server.local_addr();

        let (status, body) = scrape_method(addr, "HEAD", "/metrics").unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "", "HEAD must not carry a body");
        let (status, body) = scrape_method(addr, "HEAD", "/healthz").unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "");

        // The advertised length matches what GET would serve.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"HEAD /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.contains("Content-Length: 8"),
            "headers: {response}"
        );
        // And the server still answers a normal GET afterwards.
        let (_, body) = scrape(addr, "/metrics").unwrap();
        assert_eq!(body, "gw_up 1\n");
    }

    #[test]
    fn healthz_and_readyz_serve_the_health_document() {
        let degraded = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&degraded);
        let server = MetricsServer::bind_with_health(
            "127.0.0.1:0",
            || "gw_up 1\n".to_string(),
            move || {
                if flag.load(Ordering::SeqCst) {
                    (false, "{\"status\":\"degraded\"}".to_string())
                } else {
                    (true, "{\"status\":\"ok\"}".to_string())
                }
            },
        )
        .unwrap();
        let addr = server.local_addr();

        let (status, body) = scrape(addr, "/healthz").unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "{\"status\":\"ok\"}");
        let (status, _) = scrape(addr, "/readyz").unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");

        degraded.store(true, Ordering::SeqCst);
        // healthz stays 200 (the document carries the verdict) while
        // readyz flips to 503 for dumb load balancers.
        let (status, body) = scrape(addr, "/healthz").unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "{\"status\":\"degraded\"}");
        let (status, body) = scrape(addr, "/readyz").unwrap();
        assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
        assert_eq!(body, "{\"status\":\"degraded\"}");
    }

    /// A scraper that connects, sends a request, and never reads the
    /// response must not wedge the serial accept loop: the write
    /// deadline drops it and the next scraper is served.
    #[test]
    fn stalled_reader_cannot_wedge_the_accept_loop() {
        // A response far larger than the kernel socket buffers, so the
        // server's write genuinely blocks on the stalled peer.
        let big = "gw_filler_total 1\n".repeat(400_000);
        let server = MetricsServer::bind_routes(
            "127.0.0.1:0",
            Routes {
                render: Box::new(move || big.clone()),
                health: None,
                write_timeout: Duration::from_millis(200),
            },
        )
        .unwrap();
        let addr = server.local_addr();

        // The slow-loris: request sent, response never read. Keep the
        // socket alive so the server is genuinely blocked on us.
        let mut loris = TcpStream::connect(addr).unwrap();
        loris
            .write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();

        // A well-behaved scrape right behind it must still complete.
        let start = std::time::Instant::now();
        let (status, _) = scrape(addr, "/metrics").unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "accept loop stalled {}ms behind a slow-loris reader",
            start.elapsed().as_millis()
        );
        drop(loris);
    }
}
