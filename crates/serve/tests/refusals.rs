//! Wire bytes of the three refusals a server sends on its own account
//! rather than from the router: the request-deadline `408`, the per-peer
//! fairness `429` and the governor's shed `503`. Each is pinned as the
//! exact response stream, head and body, that a client reads before the
//! server closes, on both serve cores.

use langcrux_serve::loadgen::get;
use langcrux_serve::{spawn, FairnessConfig, ServeConfig, ServeCore, ServerHandle};

mod common;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn connect(server: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

/// Everything the server sends until it closes (a reset after the bytes
/// arrived ends the stream too).
fn read_until_close(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    let mut buf = [0u8; 1024];
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn request_timeout_bytes_are_pinned() {
    common::for_each_core(request_timeout_bytes);
}

fn request_timeout_bytes(core: ServeCore) {
    let server = spawn(ServeConfig {
        core,
        request_deadline: Duration::from_millis(200),
        idle_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut stream = connect(&server);
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\n")
        .expect("partial head");
    assert_eq!(
        read_until_close(&mut stream),
        "HTTP/1.1 408 Request Timeout\r\nContent-Type: application/json\r\n\
         Content-Length: 57\r\nConnection: close\r\n\r\n\
         {\"error\":\"request did not complete in time\",\"status\":408}"
    );
    assert_eq!(server.shutdown().requests.timeouts, 1);
}

#[test]
fn rate_limited_bytes_are_pinned() {
    common::for_each_core(rate_limited_bytes);
}

fn rate_limited_bytes(core: ServeCore) {
    let server = spawn(ServeConfig {
        core,
        fairness: Some(FairnessConfig {
            rate_per_sec: 1,
            burst: 1,
            retry_after_secs: 2,
        }),
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut stream = connect(&server);
    let mut scratch = Vec::new();
    let (status, _) = get(&mut stream, "/v1/healthz", &mut scratch).expect("first request");
    assert_eq!(status, 200, "the burst admits one request");
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: pin\r\n\r\n")
        .expect("second request");
    assert_eq!(
        read_until_close(&mut stream),
        "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
         Content-Length: 71\r\nRetry-After: 2\r\nConnection: close\r\n\r\n\
         {\"error\":\"per-client rate limit exceeded\",\"status\":429,\"retry_after\":2}"
    );
    assert_eq!(server.shutdown().requests.rate_limited, 1);
}

#[test]
fn shed_bytes_are_pinned() {
    common::for_each_core(shed_bytes);
}

fn shed_bytes(core: ServeCore) {
    let server = spawn(ServeConfig {
        core,
        max_connections: 1,
        accept_queue: 0,
        ..ServeConfig::default()
    })
    .expect("spawn");
    // Hold the only slot; the round trip proves the holder is served.
    let mut holder = connect(&server);
    let mut scratch = Vec::new();
    let (status, _) = get(&mut holder, "/v1/healthz", &mut scratch).expect("holder");
    assert_eq!(status, 200);
    let mut client = connect(&server);
    client
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: pin\r\n\r\n")
        .expect("shed request");
    assert_eq!(
        read_until_close(&mut client),
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: 70\r\nRetry-After: 1\r\nConnection: close\r\n\r\n\
         {\"error\":\"server at connection capacity\",\"status\":503,\"retry_after\":1}"
    );
    drop(holder);
    assert_eq!(server.shutdown().requests.shed, 1);
}
