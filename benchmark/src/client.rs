//! The benchmark's own HTTP/1.1 client.
//!
//! Each request leaves in **one** `write` (head and body in one buffer) on a
//! `TCP_NODELAY` keep-alive socket. A client that writes the head and the
//! body separately, without `TCP_NODELAY`, holds the body back under
//! Nagle's algorithm until the server's delayed ACK of the head — a ~40 ms
//! timer that `rsn_serve::loadgen` measures instead of the server. Here the
//! server's answer is the only thing a request waits for.
//!
//! Closed loops send a connection's next request when the previous answer
//! arrives. Open loops pipeline: requests leave at their scheduled instants
//! whether or not earlier ones were answered, and each latency runs from the
//! scheduled instant, so a stall also charges the requests queued behind it.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rsn_serve::http::{parse_response_bytes, Response};

/// Read/write timeout of every benchmark socket.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The request methods the benchmark sends.
#[derive(Clone, Copy, Debug)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `PUT`
    Put,
}

/// `Content-Type` of job bodies.
pub const JSON: &str = "application/json";
/// `Content-Type` of streamed network uploads.
pub const TEXT: &str = "text/plain";

/// The wire bytes of one request: head and body in a single buffer.
#[must_use]
pub fn encode(method: Method, path: &str, content_type: &str, body: &str) -> Vec<u8> {
    let method = match method {
        Method::Get => "GET",
        Method::Post => "POST",
        Method::Put => "PUT",
    };
    let mut bytes = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Bytes asked of the kernel per read.
const READ_CHUNK: usize = 256 * 1024;

/// One keep-alive connection.
pub struct Conn<S = TcpStream> {
    stream: S,
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl Conn<TcpStream> {
    /// Connects with `TCP_NODELAY` set.
    ///
    /// # Errors
    ///
    /// Connect or socket-option failures.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self::new(stream))
    }

    /// The next response if one arrives within `wait`, else `None`.
    ///
    /// # Errors
    ///
    /// Transport or framing failures, and the peer closing the connection.
    pub fn recv_within(&mut self, wait: Duration) -> io::Result<Option<Response>> {
        if let Some(response) = self.buffered()? {
            return Ok(Some(response));
        }
        if !wait_readable(&self.stream, wait)? {
            return Ok(None);
        }
        self.fill()?;
        self.buffered()
    }
}

impl<S: Read + Write> Conn<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S) -> Self {
        Self { stream, buf: Vec::new(), chunk: vec![0; READ_CHUNK] }
    }

    /// Sends one encoded request with a single `write_all` over one buffer,
    /// which is one `write` call unless the kernel accepts a short write.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Blocks for the next response.
    ///
    /// # Errors
    ///
    /// Transport or framing failures, and the peer closing the connection.
    pub fn recv(&mut self) -> io::Result<Response> {
        loop {
            if let Some(response) = self.buffered()? {
                return Ok(response);
            }
            self.fill()?;
        }
    }

    fn buffered(&mut self) -> io::Result<Option<Response>> {
        let parsed = parse_response_bytes(&self.buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(parsed.map(|(response, consumed)| {
            self.buf.drain(..consumed);
            response
        }))
    }

    fn fill(&mut self) -> io::Result<()> {
        let n = self.stream.read(&mut self.chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(())
    }
}

/// Waits until `stream` is readable or `wait` passes, with the timer's
/// full resolution: `SO_RCVTIMEO` and `poll(2)` round to the scheduler
/// tick or to whole milliseconds, which would make open-loop sends late.
#[cfg(target_os = "linux")]
fn wait_readable(stream: &TcpStream, wait: Duration) -> io::Result<bool> {
    use std::os::unix::io::AsRawFd;

    use rsn_serve::poll::{PollFd, READABLE};

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        /// `int ppoll(struct pollfd *fds, nfds_t nfds, const struct timespec
        /// *tmo, const sigset_t *sigmask)` from the libc std links.
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            tmo: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    let mut fd = PollFd::new(stream.as_raw_fd(), READABLE);
    let tmo = Timespec {
        tv_sec: i64::try_from(wait.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` is one valid `#[repr(C)]` pollfd (the layout `PollFd`
    // is declared with) for the duration of the call and `nfds` is 1;
    // `tmo` points at a valid 64-bit Linux timespec; a null sigmask leaves
    // the signal mask unchanged.
    let rc = unsafe { ppoll(&mut fd, 1, &tmo, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        return if err.kind() == io::ErrorKind::Interrupted { Ok(false) } else { Err(err) };
    }
    Ok(rc > 0)
}

#[cfg(not(target_os = "linux"))]
fn wait_readable(stream: &TcpStream, wait: Duration) -> io::Result<bool> {
    use std::os::unix::io::AsRawFd;

    use rsn_serve::poll::{poll, PollFd, READABLE};

    let mut fds = [PollFd::new(stream.as_raw_fd(), READABLE)];
    Ok(poll(&mut fds, wait)? > 0)
}

/// A response body's fingerprint: its length and 64-bit FNV-1a. Harden
/// bodies run to megabytes, so runs keep fingerprints, not bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Body length in bytes.
    pub len: usize,
    /// FNV-1a of the body.
    pub fnv: u64,
}

impl Digest {
    /// The fingerprint of `body`.
    #[must_use]
    pub fn of(body: &str) -> Self {
        Self { len: body.len(), fnv: rsn_serve::cache::fnv1a(body.as_bytes()) }
    }
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Index of the job in the workload's stream.
    pub index: u64,
    /// Client-observed latency in milliseconds (closed loop: from send;
    /// open loop: from the scheduled send instant).
    pub latency_ms: f64,
    /// HTTP status.
    pub status: u16,
    /// The body's fingerprint, kept only when the caller asked for it.
    pub digest: Option<Digest>,
}

/// What the connections of one run saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Answered requests.
    pub answers: Vec<Answer>,
    /// Requests sent or attempted.
    pub attempted: u64,
    /// Requests lost to transport failures.
    pub transport_errors: u64,
    /// Connections re-opened after a failure.
    pub reconnects: u64,
    /// Open loop: how late each request left after its scheduled instant.
    pub lateness_ms: Vec<f64>,
    /// When the last answer arrived, from the run's start.
    pub finished: Duration,
}

impl Tally {
    /// Folds another connection's tally into this one.
    pub fn absorb(&mut self, other: Self) {
        self.answers.extend(other.answers);
        self.attempted += other.attempted;
        self.transport_errors += other.transport_errors;
        self.reconnects += other.reconnects;
        self.lateness_ms.extend(other.lateness_ms);
        self.finished = self.finished.max(other.finished);
    }
}

/// A job stream as the drivers see it: request bytes for job `i`, and
/// whether to keep job `i`'s body fingerprint for the correctness check.
pub trait Jobs: Sync {
    /// Wire bytes of job `i`.
    fn request(&self, i: u64) -> Vec<u8>;
    /// Whether the body fingerprint of job `i` is kept.
    fn keep(&self, i: u64) -> bool;
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Closed loop on one connection: claims job indices from `next` and sends
/// each after the previous answer, until `run_for` has passed since `start`.
pub fn closed_loop(
    addr: &str,
    start: Instant,
    run_for: Duration,
    next: &AtomicU64,
    jobs: &dyn Jobs,
) -> Tally {
    let mut tally = Tally::default();
    let mut conn = Conn::connect(addr).ok();
    while start.elapsed() < run_for {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let request = jobs.request(i);
        tally.attempted += 1;
        let sent = Instant::now();
        match exchange(&mut conn, addr, &request, &mut tally.reconnects) {
            Ok(response) => {
                let latency_ms = ms(sent.elapsed());
                let keep = jobs.keep(i) || response.status != 200;
                tally.answers.push(Answer {
                    index: i,
                    latency_ms,
                    status: response.status,
                    digest: keep.then(|| Digest::of(&response.body)),
                });
            }
            Err(_) => tally.transport_errors += 1,
        }
    }
    tally.finished = start.elapsed();
    tally
}

/// One request/response on a kept-alive connection, re-sent once on a
/// fresh connection when the old one fails (the jobs are idempotent).
fn exchange(
    conn: &mut Option<Conn>,
    addr: &str,
    request: &[u8],
    reconnects: &mut u64,
) -> io::Result<Response> {
    if let Some(c) = conn.as_mut() {
        match c.send(request).and_then(|()| c.recv()) {
            Ok(response) => return Ok(response),
            Err(_) => *reconnects += 1,
        }
    }
    *conn = None;
    let mut fresh = Conn::connect(addr)?;
    let response = fresh.send(request).and_then(|()| fresh.recv())?;
    *conn = Some(fresh);
    Ok(response)
}

/// The send schedule and latency bookkeeping of one open-loop connection.
/// It reads no clock: every call takes the current time since the run's
/// start, so tests can drive it with a fake clock.
#[derive(Debug)]
pub struct OpenLoop {
    interval: Duration,
    next: u64,
    stride: u64,
    end: u64,
    /// Sent, unanswered requests in send order: (index, scheduled instant).
    pending: VecDeque<(u64, Duration)>,
    /// How late each request left after its scheduled instant.
    pub lateness: Vec<Duration>,
}

impl OpenLoop {
    /// Job `i` is scheduled at `i × interval`; this connection sends jobs
    /// `first, first + stride, …` below `end`.
    #[must_use]
    pub fn new(interval: Duration, first: u64, stride: u64, end: u64) -> Self {
        Self { interval, next: first, stride, end, pending: VecDeque::new(), lateness: Vec::new() }
    }

    /// Scheduled send instant of job `i`.
    #[must_use]
    pub fn due(&self, i: u64) -> Duration {
        let nanos = self.interval.as_nanos() * u128::from(i);
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }

    /// The next job to send and its scheduled instant, if any remain.
    #[must_use]
    pub fn next_due(&self) -> Option<(u64, Duration)> {
        (self.next < self.end).then(|| (self.next, self.due(self.next)))
    }

    /// Records that the next job left at `now`; returns its index.
    ///
    /// # Panics
    ///
    /// Panics when every job was already sent.
    pub fn sent(&mut self, now: Duration) -> u64 {
        let (i, due) = self.next_due().expect("a job is left to send");
        self.lateness.push(now.saturating_sub(due));
        self.pending.push_back((i, due));
        self.next += self.stride;
        i
    }

    /// Matches a response read at `now` to the oldest unanswered job (the
    /// server answers in order); returns its index and its latency from
    /// the scheduled instant.
    pub fn answered(&mut self, now: Duration) -> Option<(u64, Duration)> {
        self.pending.pop_front().map(|(i, due)| (i, now.saturating_sub(due)))
    }

    /// Sent jobs still unanswered.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Forgets every unanswered job (their connection failed); returns how
    /// many there were.
    pub fn abandon(&mut self) -> u64 {
        let n = self.pending.len() as u64;
        self.pending.clear();
        n
    }
}

/// Open loop on one connection: sends on `plan`'s schedule without waiting
/// for answers, and reads answers in between. Unanswered requests are
/// given up `grace` after the last scheduled send.
pub fn open_loop(
    addr: &str,
    start: Instant,
    mut plan: OpenLoop,
    grace: Duration,
    jobs: &dyn Jobs,
) -> Tally {
    let mut tally = Tally::default();
    let mut conn: Option<Conn> = None;
    let mut connected_once = false;
    loop {
        let now = start.elapsed();
        let next = plan.next_due();
        if let Some((i, due)) = next {
            if now >= due {
                tally.attempted += 1;
                if conn.is_none() {
                    match Conn::connect(addr) {
                        Ok(c) => {
                            tally.reconnects += u64::from(connected_once);
                            connected_once = true;
                            conn = Some(c);
                        }
                        Err(_) => {
                            plan.sent(now);
                            tally.transport_errors += plan.abandon();
                            continue;
                        }
                    }
                }
                let c = conn.as_mut().expect("connected above");
                let sent = c.send(&jobs.request(i));
                plan.sent(start.elapsed());
                if sent.is_err() {
                    tally.transport_errors += plan.abandon();
                    conn = None;
                }
                continue;
            }
        } else if plan.pending() == 0 {
            break;
        }
        let wait = match next {
            Some((_, due)) => due - now,
            None => {
                let last = plan.due(plan.end.saturating_sub(1));
                if now > last + grace {
                    tally.transport_errors += plan.abandon();
                    break;
                }
                Duration::from_millis(100)
            }
        };
        let Some(c) = conn.as_mut() else {
            std::thread::sleep(wait);
            continue;
        };
        match c.recv_within(wait) {
            Ok(Some(response)) => {
                let at = start.elapsed();
                if let Some((i, latency)) = plan.answered(at) {
                    let keep = jobs.keep(i) || response.status != 200;
                    tally.answers.push(Answer {
                        index: i,
                        latency_ms: ms(latency),
                        status: response.status,
                        digest: keep.then(|| Digest::of(&response.body)),
                    });
                    tally.finished = at;
                }
            }
            Ok(None) => {}
            Err(_) => {
                tally.transport_errors += plan.abandon();
                conn = None;
            }
        }
    }
    tally.lateness_ms = plan.lateness.iter().map(|d| ms(*d)).collect();
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream that records every `write` call it receives.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Recorder {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
    }

    #[test]
    fn a_request_leaves_in_one_write() {
        let body = "{\"network_hash\":\"ab\",\"seed\":7}";
        let request = encode(Method::Post, "/v1/analyze", JSON, body);
        let mut conn = Conn::new(Recorder::default());
        conn.send(&request).unwrap();
        assert_eq!(conn.stream.writes.len(), 1, "head and body must share one write");
        let sent = String::from_utf8(conn.stream.writes[0].clone()).unwrap();
        assert!(sent.starts_with("POST /v1/analyze HTTP/1.1\r\n"), "{sent}");
        assert!(sent.ends_with(&format!("\r\n\r\n{body}")), "{sent}");
        assert!(sent.contains(&format!("Content-Length: {}\r\n", body.len())), "{sent}");
    }

    #[test]
    fn connections_disable_nagle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = Conn::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        assert!(conn.stream.nodelay().unwrap(), "TCP_NODELAY must be set");
    }

    #[test]
    fn pipelined_answers_are_framed_in_order() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = Conn::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server
            .write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na\
                  HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\nbc",
            )
            .unwrap();
        let first = conn.recv_within(Duration::from_secs(5)).unwrap().unwrap();
        let second = conn.recv_within(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!((first.status, first.body.as_str()), (200, "a"));
        assert_eq!((second.status, second.body.as_str()), (503, "bc"));
        assert!(conn.recv_within(Duration::from_millis(1)).unwrap().is_none());
    }

    #[test]
    fn open_loop_latency_runs_from_the_scheduled_instant() {
        let ms = Duration::from_millis;
        // Connection 1 of 2 at one job per 10 ms sends jobs 1, 3, 5 (due at
        // 10, 30 and 50 ms) — driven here by a fake clock.
        let mut plan = OpenLoop::new(ms(10), 1, 2, 6);
        assert_eq!(plan.next_due(), Some((1, ms(10))));
        assert_eq!(plan.sent(ms(10)), 1);
        // The generator stalls: job 3 leaves 7 ms late, job 5 on time.
        assert_eq!(plan.next_due(), Some((3, ms(30))));
        assert_eq!(plan.sent(ms(37)), 3);
        assert_eq!(plan.sent(ms(50)), 5);
        assert_eq!(plan.next_due(), None);
        assert_eq!(plan.lateness, vec![ms(0), ms(7), ms(0)]);
        // Answers arrive in order; each latency counts from its due time,
        // so job 3's late send is charged to it.
        assert_eq!(plan.answered(ms(40)), Some((1, ms(30))));
        assert_eq!(plan.answered(ms(41)), Some((3, ms(11))));
        assert_eq!(plan.pending(), 1);
        assert_eq!(plan.abandon(), 1);
        assert_eq!(plan.answered(ms(60)), None);
    }
}
