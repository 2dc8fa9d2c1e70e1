//! Open-loop load generator.
//!
//! The schedule is fixed before the run: every request has a due time, a
//! connection and a payload. One thread sends each request when it falls
//! due over its pipelined keep-alive connection, whether or not earlier
//! answers have arrived, and matches answers to requests in order per
//! connection. Latency is timed from the due time, so a stall of the
//! generator or of the server counts against every request it delays.
//! Each request also records how late the generator got round to it (its
//! lag).
//!
//! Sockets are non-blocking and the thread waits in `ppoll` until a
//! socket is ready or the next request falls due.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the server must answer for a payload.
pub enum Expect {
    /// A `200` whose body equals these bytes.
    Bytes(Arc<Vec<u8>>),
    /// A `200` whose (de-chunked) body is the JSON array splice of these
    /// documents: `[` a `,` b … `]`.
    Splice(Vec<Arc<Vec<u8>>>),
}

impl Expect {
    pub fn matches(&self, body: &[u8]) -> bool {
        match self {
            Expect::Bytes(want) => body == want.as_slice(),
            Expect::Splice(parts) => {
                let Some(mut rest) = body.strip_prefix(b"[") else {
                    return false;
                };
                for (i, part) in parts.iter().enumerate() {
                    if i > 0 {
                        let Some(r) = rest.strip_prefix(b",") else {
                            return false;
                        };
                        rest = r;
                    }
                    let Some(r) = rest.strip_prefix(part.as_slice()) else {
                        return false;
                    };
                    rest = r;
                }
                rest == b"]"
            }
        }
    }
}

/// One request body and the answer it must get.
pub struct Payload {
    pub path: &'static str,
    pub body: Arc<Vec<u8>>,
    pub expect: Expect,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Due time, nanoseconds after the run's start.
    pub due_ns: u64,
    pub conn: usize,
    /// Index into the payload table.
    pub payload: usize,
}

/// What happened to one scheduled request. Times are nanoseconds after
/// the run's start.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    pub due_ns: u64,
    /// When the generator queued the request for sending.
    pub sent_ns: u64,
    /// When the full answer had arrived; `None` if it never did.
    pub done_ns: Option<u64>,
    pub status: u16,
    /// A `200` whose body matched the expectation.
    pub ok: bool,
}

impl Outcome {
    /// Latency from the due time, in milliseconds; `None` for a failure.
    pub fn latency_ms(&self) -> Option<f64> {
        match self.done_ns {
            Some(done) if self.ok => Some((done - self.due_ns) as f64 / 1e6),
            _ => None,
        }
    }

    /// How late the generator queued the request, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Options of one run.
pub struct RunOptions {
    /// How long after the last due time unanswered requests are still
    /// waited for; after that they count as failed.
    pub drain: Duration,
    /// Testing aid: before queueing the request at this position of the
    /// plan, sleep this long.
    pub stall: Option<(usize, Duration)>,
}

/// One keep-alive connection and the requests on it.
struct Conn {
    stream: TcpStream,
    /// Due requests (plan positions) not yet written.
    pending: VecDeque<usize>,
    /// Bytes of the request being written, and how far writing got.
    out: Vec<u8>,
    out_pos: usize,
    /// Requests written (or being written), oldest first: the order the
    /// answers come back in.
    inflight: VecDeque<usize>,
    inbuf: Vec<u8>,
    closed: bool,
}

impl Conn {
    fn idle(&self) -> bool {
        self.pending.is_empty() && self.inflight.is_empty()
    }

    /// Write due requests until the socket would block. Only the request
    /// being written is held as bytes, so a backlog costs no memory per
    /// request beyond its plan position.
    fn flush(&mut self, plan: &[Planned], payloads: &[Payload]) {
        while !self.closed {
            if self.out_pos == self.out.len() {
                let Some(k) = self.pending.pop_front() else {
                    return;
                };
                let p = &payloads[plan[k].payload];
                self.out.clear();
                self.out_pos = 0;
                let _ = write!(
                    self.out,
                    "POST {} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
                    p.path,
                    p.body.len()
                );
                self.out.extend_from_slice(&p.body);
                self.inflight.push_back(k);
            }
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => self.closed = true,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
    }

    /// Read what has arrived and settle every complete answer.
    fn receive(
        &mut self,
        chunk: &mut [u8],
        plan: &[Planned],
        payloads: &[Payload],
        outcomes: &mut [Outcome],
        now_ns: impl Fn() -> u64,
    ) {
        while !self.closed {
            match self.stream.read(chunk) {
                Ok(0) => self.closed = true,
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.closed = true,
            }
        }
        let arrived = now_ns();
        let mut consumed = 0usize;
        loop {
            match parse_response(&self.inbuf[consumed..]) {
                Ok(Some(parsed)) => {
                    let Some(k) = self.inflight.pop_front() else {
                        // An answer nobody asked for: the stream is broken.
                        self.closed = true;
                        break;
                    };
                    let outcome = &mut outcomes[k];
                    outcome.done_ns = Some(arrived);
                    outcome.status = parsed.status;
                    outcome.ok = parsed.status == 200
                        && payloads[plan[k].payload].expect.matches(&parsed.body);
                    consumed += parsed.consumed;
                }
                Ok(None) => break,
                Err(()) => {
                    self.closed = true;
                    break;
                }
            }
        }
        self.inbuf.drain(..consumed);
    }
}

/// Run `plan` (sorted by due time) against `addr` and return one outcome
/// per planned request, in plan order. Opens one connection per distinct
/// `conn` value and drives them all from the calling thread.
pub fn run(
    addr: SocketAddr,
    plan: &[Planned],
    payloads: &[Payload],
    options: &RunOptions,
) -> std::io::Result<Vec<Outcome>> {
    let mut conns = Vec::new();
    for _ in 0..plan.iter().map(|p| p.conn + 1).max().unwrap_or(0) {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        conns.push(Conn {
            stream,
            pending: VecDeque::new(),
            out: Vec::new(),
            out_pos: 0,
            inflight: VecDeque::new(),
            inbuf: Vec::new(),
            closed: false,
        });
    }
    sys::tighten_timer_slack();
    let deadline_ns =
        plan.iter().map(|p| p.due_ns).max().unwrap_or(0) + options.drain.as_nanos() as u64;
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut outcomes: Vec<Outcome> = plan
        .iter()
        .map(|p| Outcome {
            due_ns: p.due_ns,
            ..Outcome::default()
        })
        .collect();
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0usize;
    loop {
        while next < plan.len() && plan[next].due_ns <= now_ns() {
            if let Some((at, pause)) = options.stall {
                if at == next {
                    std::thread::sleep(pause);
                }
            }
            outcomes[next].sent_ns = now_ns();
            conns[plan[next].conn].pending.push_back(next);
            next += 1;
        }
        for conn in &mut conns {
            conn.flush(plan, payloads);
            conn.receive(&mut chunk, plan, payloads, &mut outcomes, now_ns);
        }
        let now = now_ns();
        let finished = next == plan.len() && conns.iter().all(Conn::idle);
        if finished || conns.iter().any(|c| c.closed) || now >= deadline_ns {
            break;
        }
        let wake_ns = plan.get(next).map_or(deadline_ns, |p| p.due_ns);
        sys::wait_ready(&conns, Duration::from_nanos(wake_ns.saturating_sub(now)));
    }
    Ok(outcomes)
}

/// One complete HTTP/1.1 response.
struct Parsed {
    status: u16,
    body: Vec<u8>,
    consumed: usize,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Parse one response from the front of `buf`: `Ok(None)` if it is not
/// complete yet, `Err` if the bytes are not a response. Bodies are framed
/// by `Content-Length` or chunked transfer encoding.
fn parse_response(buf: &[u8]) -> Result<Option<Parsed>, ()> {
    let Some(head_end) = find(buf, b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| ())?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(())?;
    let header = |name: &str| {
        head.lines().find_map(|line| {
            let (n, value) = line.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| value.trim())
        })
    };
    let mut pos = head_end + 4;
    if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        let mut body = Vec::new();
        loop {
            let Some(eol) = find(&buf[pos..], b"\r\n") else {
                return Ok(None);
            };
            let line = std::str::from_utf8(&buf[pos..pos + eol]).map_err(|_| ())?;
            let size_text = line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_text, 16).map_err(|_| ())?;
            pos += eol + 2;
            if size == 0 {
                // Trailers, then the empty line.
                loop {
                    let Some(eol) = find(&buf[pos..], b"\r\n") else {
                        return Ok(None);
                    };
                    pos += eol + 2;
                    if eol == 0 {
                        return Ok(Some(Parsed {
                            status,
                            body,
                            consumed: pos,
                        }));
                    }
                }
            }
            if buf.len() < pos + size + 2 {
                return Ok(None);
            }
            body.extend_from_slice(&buf[pos..pos + size]);
            if &buf[pos + size..pos + size + 2] != b"\r\n" {
                return Err(());
            }
            pos += size + 2;
        }
    }
    let length: usize = header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or(())?;
    if buf.len() < pos + length {
        return Ok(None);
    }
    Ok(Some(Parsed {
        status,
        body: buf[pos..pos + length].to_vec(),
        consumed: pos + length,
    }))
}

#[cfg(target_os = "linux")]
mod sys {
    use super::*;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const PR_SET_TIMERSLACK: i32 = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }

    /// Wait until a connection is readable (or writable, while it has
    /// bytes to write) or `timeout` has passed.
    pub(super) fn wait_ready(conns: &[Conn], timeout: Duration) {
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN | if c.out_pos < c.out.len() { POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` holds `fds.len()` initialised pollfd records and
        // `ts` a valid timespec, both alive for the call; no signal mask.
        unsafe {
            ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
        }
    }

    /// Ask the kernel for 1 ns of timer slack on this thread, so waits
    /// end at the due time instead of up to 50 µs after it.
    pub fn tighten_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
        // no memory of this process.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server that answers the first `answer` requests on one
    /// connection with `200 ok`, in order, then holds the connection
    /// open until `release` fires (or closes it at once without one).
    fn ok_server(
        answer: usize,
        release: Option<std::sync::mpsc::Receiver<()>>,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut answered = 0;
            while answered < answer {
                while let Some(end) = find(&buf, b"\r\n\r\n") {
                    let head = std::str::from_utf8(&buf[..end]).unwrap().to_string();
                    let len: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("Content-Length: "))
                        .unwrap()
                        .parse()
                        .unwrap();
                    if buf.len() < end + 4 + len || answered == answer {
                        break;
                    }
                    buf.drain(..end + 4 + len);
                    conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                        .unwrap();
                    answered += 1;
                }
                if answered == answer {
                    break;
                }
                let n = conn.read(&mut chunk).unwrap();
                if n == 0 {
                    break;
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            if let Some(release) = release {
                let _ = release.recv();
            }
        });
        (addr, handle)
    }

    fn ok_payload() -> Vec<Payload> {
        vec![Payload {
            path: "/x",
            body: Arc::new(b"hello".to_vec()),
            expect: Expect::Bytes(Arc::new(b"ok".to_vec())),
        }]
    }

    fn every_ms(n: usize) -> Vec<Planned> {
        (0..n)
            .map(|i| Planned {
                due_ns: i as u64 * 1_000_000,
                conn: 0,
                payload: 0,
            })
            .collect()
    }

    #[test]
    fn stalled_generator_charges_the_stall_to_every_delayed_request() {
        let (addr, server) = ok_server(20, None);
        let stall = Duration::from_millis(40);
        let outcomes = run(
            addr,
            &every_ms(20),
            &ok_payload(),
            &RunOptions {
                drain: Duration::from_secs(5),
                stall: Some((0, stall)),
            },
        )
        .unwrap();
        server.join().unwrap();
        assert!(outcomes.iter().all(|o| o.ok));
        // Request i was due at i ms but could not be sent before 40 ms:
        // its latency from the due time includes the remaining stall.
        for (i, o) in outcomes.iter().enumerate() {
            let floor = 40.0 - i as f64;
            assert!(o.latency_ms().unwrap() >= floor, "request {i}: {o:?}");
            assert!(o.lag_ms() >= floor, "request {i}: {o:?}");
        }
    }

    #[test]
    fn unstalled_generator_sends_on_time() {
        let (addr, server) = ok_server(20, None);
        let outcomes = run(
            addr,
            &every_ms(20),
            &ok_payload(),
            &RunOptions {
                drain: Duration::from_secs(5),
                stall: None,
            },
        )
        .unwrap();
        server.join().unwrap();
        assert!(outcomes.iter().all(|o| o.ok));
        // Generous: a loaded test host may deschedule the thread briefly.
        assert!(outcomes.iter().all(|o| o.lag_ms() < 30.0), "{outcomes:?}");
    }

    #[test]
    fn unanswered_requests_fail_at_the_drain_deadline() {
        // The server answers 5 of 10 and then holds the connection open.
        let (release, hold) = std::sync::mpsc::channel::<()>();
        let (addr, server) = ok_server(5, Some(hold));
        let outcomes = run(
            addr,
            &every_ms(10),
            &ok_payload(),
            &RunOptions {
                drain: Duration::from_millis(100),
                stall: None,
            },
        )
        .unwrap();
        release.send(()).unwrap();
        server.join().unwrap();
        assert_eq!(outcomes.iter().filter(|o| o.ok).count(), 5);
        assert!(outcomes[5..].iter().all(|o| o.latency_ms().is_none()));
    }

    #[test]
    fn splice_expectation_checks_every_part() {
        let parts = vec![Arc::new(b"{\"a\":1}".to_vec()), Arc::new(b"{}".to_vec())];
        let expect = Expect::Splice(parts);
        assert!(expect.matches(b"[{\"a\":1},{}]"));
        assert!(!expect.matches(b"[{\"a\":1}{}]"));
        assert!(!expect.matches(b"[{\"a\":1},{}"));
        assert!(!expect.matches(b"[{\"a\":2},{}]"));
    }

    #[test]
    fn chunked_and_pipelined_responses_parse() {
        let two = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\n[ab\r\n1\r\n]\r\n0\r\n\r\nHTTP/1.1 503 X\r\nContent-Length: 1\r\n\r\nz";
        let first = parse_response(two).unwrap().unwrap();
        assert_eq!((first.status, first.body.as_slice()), (200, &b"[ab]"[..]));
        let second = parse_response(&two[first.consumed..]).unwrap().unwrap();
        assert_eq!((second.status, second.body.as_slice()), (503, &b"z"[..]));
        assert!(parse_response(&two[..20]).unwrap().is_none());
    }
}
