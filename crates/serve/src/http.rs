//! Minimal HTTP/1.1 front end over [`crate::Service`] — std `TcpListener`
//! only, no external dependencies.
//!
//! Routes:
//!
//! * `GET /health` → `200 {"status":"ok"}` (liveness; answers even under
//!   full queues — admission control only gates `/solve`);
//! * `GET /stats`  → `200` with the [`crate::ServiceStats`] JSON;
//! * `POST /solve` → body is one [`crate::JobSpec`] directive line;
//!   `200` with the [`crate::JobResponse`] JSON, or the typed error
//!   status ([`crate::JobError::http_status`]).
//!
//! The parser is deliberately defensive: header section capped at 8 KiB,
//! body at 1 MiB, unknown methods/paths answer 404/405, and a
//! malformed request never takes the acceptor down.

use crate::job::JobSpec;
use crate::service::Service;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 8 * 1024;
/// Upper bound on a `/solve` body.
const MAX_BODY: usize = 1024 * 1024;

/// Serve requests on `listener` until `max_requests` have been handled
/// (`None`: forever). Connections are handled serially — concurrency
/// lives in the service's worker pool, and the solve path blocks only
/// the requesting connection.
pub fn serve_http(
    listener: TcpListener,
    service: &Service,
    max_requests: Option<usize>,
) -> std::io::Result<usize> {
    let mut handled = 0usize;
    for stream in listener.incoming() {
        match stream {
            Ok(s) => {
                // A slow or stuck client must not wedge the acceptor.
                let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
                let _ = s.set_write_timeout(Some(Duration::from_secs(10)));
                if handle_connection(s, service).is_ok() {
                    handled += 1;
                }
            }
            Err(_) => continue,
        }
        if let Some(cap) = max_requests {
            if handled >= cap {
                break;
            }
        }
    }
    Ok(handled)
}

fn handle_connection(stream: TcpStream, service: &Service) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    {
        let mut limited = (&mut reader).take(MAX_HEAD as u64);
        if limited.read_line(&mut request_line)? == 0 {
            return Ok(());
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => {
            let mut s = reader.into_inner();
            return respond(&mut s, 400, "{\"status\":\"error\",\"kind\":\"bad_request\",\"message\":\"malformed request line\"}");
        }
    };
    // Headers: we only need Content-Length; cap the section size.
    let mut content_length = 0usize;
    let mut head_bytes = request_line.len();
    loop {
        let mut line = String::new();
        let n = {
            let mut limited = (&mut reader).take(MAX_HEAD as u64);
            limited.read_line(&mut line)?
        };
        head_bytes += n;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if head_bytes > MAX_HEAD {
            let mut s = reader.into_inner();
            return respond(&mut s, 431, "{\"status\":\"error\",\"kind\":\"bad_request\",\"message\":\"headers too large\"}");
        }
        if let Some((key, val)) = line.split_once(':') {
            if key.eq_ignore_ascii_case("content-length") {
                content_length = val.trim().parse::<usize>().unwrap_or(usize::MAX);
            }
        }
    }
    match (method.as_str(), path.as_str()) {
        ("GET", "/health") => {
            let mut s = reader.into_inner();
            respond(&mut s, 200, "{\"status\":\"ok\"}")
        }
        ("GET", "/stats") => {
            let body = service.stats().to_json();
            let mut s = reader.into_inner();
            respond(&mut s, 200, &body)
        }
        ("POST", "/solve") => {
            if content_length > MAX_BODY {
                let mut s = reader.into_inner();
                return respond(&mut s, 413, "{\"status\":\"error\",\"kind\":\"bad_request\",\"message\":\"body too large\"}");
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            let mut s = reader.into_inner();
            let text = match String::from_utf8(body) {
                Ok(t) => t,
                Err(_) => {
                    return respond(&mut s, 400, "{\"status\":\"error\",\"kind\":\"bad_request\",\"message\":\"body is not UTF-8\"}");
                }
            };
            match JobSpec::parse(text.trim()) {
                Err(e) => {
                    let msg = crate::job::JobError::BadRequest(e).to_json();
                    respond(&mut s, 400, &msg)
                }
                Ok(spec) => match service.solve_blocking(spec) {
                    Ok(resp) => respond(&mut s, 200, &resp.to_json(true)),
                    Err(e) => respond(&mut s, e.http_status(), &e.to_json()),
                },
            }
        }
        ("POST" | "GET", _) => {
            let mut s = reader.into_inner();
            respond(&mut s, 404, "{\"status\":\"error\",\"kind\":\"bad_request\",\"message\":\"no such route\"}")
        }
        _ => {
            let mut s = reader.into_inner();
            respond(&mut s, 405, "{\"status\":\"error\",\"kind\":\"bad_request\",\"message\":\"method not allowed\"}")
        }
    }
}

fn respond(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServeConfig, Service};
    use std::net::TcpListener;

    fn roundtrip(addr: &str, request: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(request.as_bytes()).expect("write");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn health_stats_and_solve_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let service = Service::start(ServeConfig::default());
        let handle = std::thread::spawn(move || {
            serve_http(listener, &service, Some(4)).expect("serve");
            service.shutdown()
        });
        let health = roundtrip(&addr, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        let body = "inline=2:0,0,4;1,1,4;1,0,1;0,1,1 refine=2";
        let req = format!(
            "POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let solve = roundtrip(&addr, &req);
        assert!(solve.starts_with("HTTP/1.1 200"), "{solve}");
        assert!(solve.contains("\"factor_hit\":false"), "{solve}");
        let bad = roundtrip(
            &addr,
            "POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\nnonsens",
        );
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let missing = roundtrip(&addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let stats = handle.join().expect("join");
        assert_eq!(stats.completed, 1);
    }
}
