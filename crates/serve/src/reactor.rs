//! The event-driven serve core: a single-threaded, readiness-driven
//! reactor over raw `epoll`, replacing thread-per-connection with
//! per-connection state machines.
//!
//! Design in one paragraph: every socket is non-blocking and registered
//! level-triggered with an interest set derived from connection state
//! (`EPOLLIN` while we want bytes, `EPOLLOUT` while a response is
//! buffered). The push parser already resumes at any tear, so
//! "readable" is just *feed whatever arrived* into the connection's
//! [`Session`] — the request step the threaded core runs too: fairness
//! (429), routing, serialization, protocol errors and latency all happen
//! there, which is what makes the two cores byte-identical. This module
//! keeps only the I/O: the `out` buffer, epoll interest, the deadline
//! wheel and the blocking batch handoff. The wheel arms the session's
//! one deadline rule (slowloris 408 or idle close), capped by the
//! reactor's own write-stall deadline, instead of per-thread socket
//! timeouts; and the governor is the reactor's admission layer: `Serve`
//! registers, `Queued` parks inside the governor until a close frees the
//! slot, `Shed` becomes a tiny write-503-then-drain state machine.
//!
//! Two deliberate simplifications keep behaviour aligned with the
//! oracle:
//!
//! * **Run to completion.** A batch response streams through the shared
//!   [`stream_batch`] with the socket temporarily flipped back to
//!   blocking. The reactor stalls for that batch's duration — exactly
//!   the threaded core's per-connection behaviour, and the price buys
//!   byte-for-byte and counter-for-counter equivalence.
//! * **Lazy timer cancellation.** Connections never remove wheel
//!   entries; they bump a generation counter and stale entries are
//!   discarded when they fire ([`TimerWheel`] docs).
//!
//! The raw `epoll` FFI follows the same std-only `extern "C"`
//! discipline as the daemon's signal handling in the bench crate: no
//! libc crate, just the four syscall wrappers this module needs.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::governor::{Admission, Governor};
use crate::http::Response;
use crate::server::{
    accept_loop, stream_batch, Next, ServeConfig, ServeState, Session, POLL_TICK, RETRY_AFTER_SECS,
    SHED_DRAIN, SHED_DRAIN_READS, SHED_WRITE,
};
use crate::wheel::{TimerEntry, TimerWheel, TICK_MS};

/// Raw `epoll` bindings — std-only, mirroring the `extern "C"` signal
/// discipline used elsewhere in the workspace. Only what the reactor
/// needs: create, ctl, wait, close, and errno for the EINTR retry.
mod sys {
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;

    pub const EINTR: i32 = 4;

    /// `struct epoll_event`: packed on x86-64 (the kernel ABI), natural
    /// alignment elsewhere. Field reads copy by value — never take a
    /// reference into a packed struct.
    #[derive(Debug, Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
        #[link_name = "__errno_location"]
        pub fn errno_location() -> *mut i32;
    }
}

/// Owned epoll instance; the fd closes on drop.
struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, events)
    }

    fn modify(&self, fd: RawFd, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, events)
    }

    fn delete(&self, fd: RawFd) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wait for readiness, retrying on EINTR. A non-EINTR failure yields
    /// zero events after a short sleep rather than spinning hot.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> usize {
        loop {
            let n = unsafe {
                sys::epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return n as usize;
            }
            let errno = unsafe { *sys::errno_location() };
            if errno != sys::EINTR {
                std::thread::sleep(Duration::from_millis(5));
                return 0;
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.fd);
        }
    }
}

/// The listener's reserved token; connections count from 1.
const LISTENER: u64 = 0;

/// Readiness events pulled per `epoll_wait`.
const EVENT_BATCH: usize = 256;

/// Read passes per readiness event before yielding back to the loop —
/// level-triggered epoll re-reports leftover bytes, so fairness costs
/// nothing.
const MAX_READ_PASSES: usize = 16;

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    session: Session,
    /// Buffered response bytes not yet accepted by the socket…
    out: Vec<u8>,
    /// …and the cursor into them (avoids re-shuffling the Vec front).
    out_pos: usize,
    /// When the current write stall began (None while `out` drains
    /// freely) — feeds the write-timeout deadline.
    out_since: Option<Instant>,
    /// Interest set currently registered with epoll.
    interest: u32,
    /// Close once `out` flushes (Connection: close, protocol error, 408,
    /// 429, drain).
    close_after_flush: bool,
    /// Peer sent FIN (or a read failed): no more request bytes.
    read_closed: bool,
    /// Hard-close now, regardless of pending output.
    dead: bool,
    /// Governor-refused connection running the 503 write/drain script.
    shedding: bool,
    /// Shed phase two: response flushed, half-closed, draining reads.
    shed_draining: bool,
    /// Whether this connection occupies a governor slot (shed ones
    /// don't) — a close must `finish()` to hand the slot to a queued
    /// waiter.
    holds_slot: bool,
    /// Timer generation: bumping it cancels armed wheel entries lazily.
    gen: u64,
    /// Tick of the live wheel entry (0 = none) — re-arming is skipped
    /// when the deadline's tick is unchanged, bounding wheel churn.
    armed_tick: u64,
}

impl Conn {
    fn new(stream: TcpStream, config: &ServeConfig, holds_slot: bool) -> Conn {
        let peer = stream.peer_addr().ok().map(|a| a.ip());
        Conn {
            stream,
            session: Session::new(config.limits, peer),
            out: Vec::new(),
            out_pos: 0,
            out_since: None,
            interest: 0,
            close_after_flush: false,
            read_closed: false,
            dead: false,
            shedding: false,
            shed_draining: false,
            holds_slot,
            gen: 0,
            armed_tick: 0,
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }
}

struct Reactor {
    ep: Epoll,
    state: Arc<ServeState>,
    config: ServeConfig,
    governor: Governor<TcpStream>,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel,
    epoch: Instant,
    next_token: u64,
    draining: bool,
    /// Shared read buffer — per-connection buffers would cost 16 KiB ×
    /// connections for mostly-idle keep-alive fleets.
    read_buf: Box<[u8; 16 * 1024]>,
}

/// Run the reactor until shutdown completes its drain. Takes the same
/// signature as [`accept_loop`] so [`crate::spawn`] dispatches on
/// [`crate::ServeCore`] alone; if epoll itself cannot be created (no
/// known failure mode on Linux short of fd exhaustion), falls back to
/// the threaded core rather than serving nothing.
pub(crate) fn run(
    listener: TcpListener,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    config: ServeConfig,
) {
    let ep = match Epoll::new() {
        Ok(ep) => ep,
        Err(_) => {
            let _ = listener.set_nonblocking(false);
            return accept_loop(listener, state, shutdown, config);
        }
    };
    if listener.set_nonblocking(true).is_err()
        || ep
            .add(listener.as_raw_fd(), LISTENER, sys::EPOLLIN)
            .is_err()
    {
        let _ = listener.set_nonblocking(false);
        return accept_loop(listener, state, shutdown, config);
    }
    let governor = Governor::new(config.max_connections, config.accept_queue);
    let mut reactor = Reactor {
        ep,
        state,
        config,
        governor,
        listener: Some(listener),
        conns: HashMap::new(),
        wheel: TimerWheel::new(256),
        epoch: Instant::now(),
        next_token: 1,
        draining: false,
        read_buf: Box::new([0u8; 16 * 1024]),
    };
    reactor.run_loop(&shutdown);
}

impl Reactor {
    fn run_loop(&mut self, shutdown: &AtomicBool) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        let mut expired: Vec<TimerEntry> = Vec::new();
        loop {
            if !self.draining && shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                break;
            }

            let timeout_ms = self.poll_timeout_ms();
            let n = self.ep.wait(&mut events, timeout_ms);
            if n > 0 {
                self.state
                    .reactor
                    .ready_events
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            for ev in events.iter().take(n) {
                // Copy out of the (possibly packed) event before use.
                let token = ev.data;
                let mask = ev.events;
                if token == LISTENER {
                    self.accept_all(shutdown);
                } else {
                    self.handle_event(token, mask);
                }
            }

            // Advance the wheel to the current tick and fire deadlines.
            let now_tick = self.tick_now();
            if now_tick > self.wheel.now_tick() {
                expired.clear();
                self.wheel.advance(now_tick, &mut expired);
                for entry in expired.drain(..) {
                    self.on_timer(entry);
                }
            }

            self.state
                .reactor
                .armed_connections
                .store(self.conns.len() as u64, Ordering::Relaxed);
            self.state
                .reactor
                .wheel_depth
                .store(self.wheel.len() as u64, Ordering::Relaxed);
        }
    }

    /// Milliseconds since the reactor started, in wheel ticks.
    fn tick_now(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64 / TICK_MS
    }

    /// Absolute wheel tick for a deadline instant (rounded up so a fired
    /// entry is never early by more than re-validation can absorb).
    fn tick_of(&self, deadline: Instant) -> u64 {
        deadline.saturating_duration_since(self.epoch).as_millis() as u64 / TICK_MS + 1
    }

    /// Bounded poll: the earliest wheel deadline, capped at
    /// [`POLL_TICK`] so the shutdown flag is observed promptly.
    fn poll_timeout_ms(&mut self) -> i32 {
        let cap = if self.draining {
            10
        } else {
            POLL_TICK.as_millis() as u64
        };
        let ms = match self.wheel.next_deadline_tick() {
            Some(tick) => (tick.saturating_sub(self.tick_now()) * TICK_MS).clamp(1, cap),
            None => cap,
        };
        ms as i32
    }

    // ---- admission -------------------------------------------------

    fn accept_all(&mut self, shutdown: &AtomicBool) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if shutdown.load(Ordering::SeqCst) {
                        continue; // refuse by drop, like the threaded loop
                    }
                    let _ = stream.set_nonblocking(true);
                    match self.governor.admit(stream) {
                        Admission::Serve(stream) => self.register_conn(stream, true),
                        Admission::Queued => {
                            // Parked inside the governor; a closing
                            // connection hands over its slot.
                        }
                        Admission::Shed(stream) => self.register_shed(stream),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream, holds_slot: bool) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(true); // queued streams already are
        let token = self.next_token;
        self.next_token += 1;
        let fd = stream.as_raw_fd();
        let mut conn = Conn::new(stream, &self.config, holds_slot);
        conn.interest = sys::EPOLLIN | sys::EPOLLRDHUP;
        if self.ep.add(fd, token, conn.interest).is_err() {
            // Registration failure closes the stream; release the slot.
            drop(conn);
            if holds_slot {
                if let Some(next) = self.governor.finish(!self.draining) {
                    self.register_conn(next, true);
                }
            }
            return;
        }
        self.arm_deadline(token, &mut conn);
        self.conns.insert(token, conn);
    }

    /// Governor-refused connection: write `503 + Retry-After`, half-
    /// close, drain briefly — the same script as the threaded core's
    /// detached shed thread, as reactor state instead of a thread.
    fn register_shed(&mut self, stream: TcpStream) {
        self.state.counters.shed.fetch_add(1, Ordering::Relaxed);
        let token = self.next_token;
        self.next_token += 1;
        let fd = stream.as_raw_fd();
        let mut conn = Conn::new(stream, &self.config, false);
        conn.shedding = true;
        Response::shed(RETRY_AFTER_SECS).write_into(&mut conn.out);
        conn.interest = sys::EPOLLOUT | sys::EPOLLRDHUP;
        if self.ep.add(fd, token, conn.interest).is_err() {
            return; // dropped: still closes the socket immediately
        }
        self.arm_shed_window(token, &mut conn, SHED_WRITE);
        self.conns.insert(token, conn);
    }

    fn arm_shed_window(&mut self, token: u64, conn: &mut Conn, window: Duration) {
        conn.gen += 1;
        let tick = self.tick_of(Instant::now() + window);
        conn.armed_tick = tick;
        self.wheel.insert_at(tick, token, conn.gen);
    }

    // ---- readiness -------------------------------------------------

    fn handle_event(&mut self, token: u64, mask: u32) {
        // Stale tokens (connection closed earlier in this same event
        // batch) simply miss the map. Tokens are monotonic, so a reused
        // fd can never alias a dead connection's events.
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if mask & sys::EPOLLERR != 0 {
            conn.dead = true;
            self.settle(token, conn);
            return;
        }
        if conn.shedding {
            if conn.shed_draining && mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0 {
                self.drain_shed_reads(&mut conn);
            }
            self.settle(token, conn);
            return;
        }
        if mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0 && !conn.read_closed {
            self.read_some(&mut conn);
        }
        if !conn.dead && !self.process_requests(&mut conn) {
            conn.dead = true;
        }
        self.settle(token, conn);
    }

    /// Feed the parser everything available (bounded passes; level-
    /// triggered epoll re-reports any remainder).
    fn read_some(&mut self, conn: &mut Conn) {
        for _ in 0..MAX_READ_PASSES {
            match conn.stream.read(&mut self.read_buf[..]) {
                Ok(0) => {
                    conn.read_closed = true;
                    return;
                }
                Ok(n) => conn.session.feed(&self.read_buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Hard read error: the threaded core closes here too.
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Run the shared request step ([`Session::answer`]) over everything
    /// buffered, streaming any batch it hands back. Returns false if the
    /// connection died mid-batch.
    fn process_requests(&mut self, conn: &mut Conn) -> bool {
        // Once a close is decided (Connection: close, an error, a 429),
        // buffered pipelined requests are dropped.
        while !conn.close_after_flush {
            match conn.session.answer(&self.state, &mut conn.out) {
                Next::Idle => return true,
                Next::Close => conn.close_after_flush = true,
                Next::Stream { pages, keep_alive } => {
                    if self.run_batch_blocking(conn, &pages, keep_alive).is_err() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Stream a batch through the shared [`stream_batch`] with the
    /// socket temporarily blocking: run-to-completion buys exact byte,
    /// counter, and peak-gauge parity with the threaded core. Output not
    /// yet flushed goes out ahead of the batch.
    fn run_batch_blocking(
        &self,
        conn: &mut Conn,
        pages: &[String],
        keep_alive: bool,
    ) -> std::io::Result<()> {
        conn.stream.set_nonblocking(false)?;
        conn.stream
            .set_write_timeout(Some(self.config.write_timeout))?;
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
        conn.out_since = None;
        let result = stream_batch(
            &mut conn.stream,
            &self.state,
            pages,
            keep_alive,
            &mut conn.out,
        );
        conn.out.clear();
        let restored = conn.stream.set_nonblocking(true);
        result?;
        restored
    }

    /// Write as much buffered output as the socket accepts.
    fn try_flush(&mut self, conn: &mut Conn) {
        while !conn.flushed() {
            let pos = conn.out_pos;
            match conn.stream.write(&conn.out[pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if conn.flushed() {
            conn.out.clear();
            conn.out_pos = 0;
            conn.out_since = None;
        } else {
            conn.out_since.get_or_insert_with(Instant::now);
        }
    }

    /// Shed phase two: discard the client's request bytes until EOF so
    /// closing does not RST the 503 out of the receive buffer.
    fn drain_shed_reads(&mut self, conn: &mut Conn) {
        for _ in 0..SHED_DRAIN_READS {
            match conn.stream.read(&mut self.read_buf[..]) {
                Ok(0) => {
                    conn.read_closed = true;
                    return;
                }
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    // ---- settling --------------------------------------------------

    /// Common epilogue for every event and timer: flush, maybe close,
    /// re-arm interest and deadline, put the connection back.
    fn settle(&mut self, token: u64, mut conn: Conn) {
        if !conn.dead {
            self.try_flush(&mut conn);
        }
        if conn.shedding && !conn.shed_draining && conn.flushed() && !conn.dead {
            // 503 fully written: half-close and drain reads briefly.
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.shed_draining = true;
            self.arm_shed_window(token, &mut conn, SHED_DRAIN);
        }
        let finished = conn.flushed() && (conn.close_after_flush || conn.read_closed);
        if conn.dead || finished {
            self.close(conn);
            return;
        }
        let mut want = sys::EPOLLRDHUP;
        if conn.shedding {
            want |= if conn.shed_draining {
                sys::EPOLLIN
            } else {
                sys::EPOLLOUT
            };
        } else {
            if !conn.read_closed && !conn.close_after_flush {
                want |= sys::EPOLLIN;
            }
            if !conn.flushed() {
                want |= sys::EPOLLOUT;
            }
        }
        if want != conn.interest {
            let _ = self.ep.modify(conn.stream.as_raw_fd(), token, want);
            conn.interest = want;
        }
        if !conn.shedding {
            self.arm_deadline(token, &mut conn);
        }
        self.conns.insert(token, conn);
    }

    /// The connection's next deadline, as the wheel sees it: the
    /// session's deadline rule until a close is decided, capped by the
    /// write timeout while output is stalled.
    fn arm_deadline(&mut self, token: u64, conn: &mut Conn) {
        let rule = (!conn.close_after_flush).then(|| conn.session.deadline(&self.config).0);
        let stall = (!conn.flushed())
            .then(|| conn.out_since.unwrap_or_else(Instant::now) + self.config.write_timeout);
        let Some(deadline) = rule.into_iter().chain(stall).min() else {
            return;
        };
        let tick = self.tick_of(deadline);
        if tick != conn.armed_tick {
            conn.gen += 1;
            conn.armed_tick = tick;
            self.wheel.insert_at(tick, token, conn.gen);
        }
    }

    /// A wheel entry fired: discard if stale, otherwise re-validate the
    /// deadline against real clocks (ticks are coarse) and act.
    fn on_timer(&mut self, entry: TimerEntry) {
        let Some(mut conn) = self.conns.remove(&entry.token) else {
            return;
        };
        if conn.gen != entry.gen {
            self.conns.insert(entry.token, conn);
            return;
        }
        conn.armed_tick = 0;
        let now = Instant::now();
        let (deadline, expiry) = conn.session.deadline(&self.config);
        if conn.shedding {
            // Write or drain window expired: the threaded shed thread
            // would have given up here too.
            conn.dead = true;
        } else if !conn.flushed()
            && conn
                .out_since
                .is_some_and(|s| now.duration_since(s) >= self.config.write_timeout)
        {
            // Non-reading client stalled a response past the write
            // timeout — the threaded core's write_all would have failed.
            conn.dead = true;
        } else if !conn.close_after_flush && now >= deadline {
            expiry.answer(&self.state, &mut conn.out);
            conn.close_after_flush = true;
        }
        self.settle(entry.token, conn);
    }

    /// Close a connection: deregister, drop (closing the fd), and hand
    /// the governor slot to a queued waiter unless draining.
    fn close(&mut self, conn: Conn) {
        self.ep.delete(conn.stream.as_raw_fd());
        let holds_slot = conn.holds_slot;
        drop(conn);
        if holds_slot {
            if let Some(next) = self.governor.finish(!self.draining) {
                self.register_conn(next, true);
            }
        }
    }

    // ---- drain -----------------------------------------------------

    /// Graceful drain: stop accepting, refuse the queue, answer every
    /// already-buffered complete request, then close each connection as
    /// its output flushes. In-flight batches ran to completion before
    /// the flag was observed (run-to-completion), so streams are never
    /// truncated mid-response.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            self.ep.delete(listener.as_raw_fd());
        }
        drop(self.governor.drain_queue());
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            if !conn.shedding {
                if !self.process_requests(&mut conn) {
                    conn.dead = true;
                }
                conn.close_after_flush = true;
            }
            self.settle(token, conn);
        }
    }
}
