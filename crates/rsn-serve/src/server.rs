//! The `rsnd` serving loop: a non-blocking event-loop front end over a
//! bounded queue and worker pool, with caches, a persistent store, and
//! graceful shutdown.
//!
//! One event-loop thread owns every socket. It multiplexes tens of
//! thousands of keep-alive connections over [`poll`], parses
//! pipelined HTTP/1.1 requests incrementally
//! ([`http::parse_request_bytes`]), answers `/healthz`, `/metrics` and
//! `GET /v1/networks` inline, and enqueues analysis jobs on the
//! [`BoundedQueue`]. A fixed pool of workers — sized by
//! [`robust_rsn::par::Parallelism`], so `RSN_THREADS` governs the daemon
//! like every other entry point — drains the queue and hands each [`Job`]
//! to the server's [`Backend`]. Finished responses travel back to the event
//! loop over a completion channel (a mutex-guarded vector plus a loopback
//! waker byte) and are written in request order per connection, so
//! pipelined clients always see answers in the order they asked.
//!
//! A response body is never copied on its way out. The serializer's
//! `String` becomes a [`SharedBody`] that the result cache and the
//! connection's outbox both hold; the outbox keeps, per answer, an encoded
//! head and that body, and a cursor into the front answer. Each write hands
//! the kernel the unsent slices of every ready answer in one `writev`.
//!
//! The backend is the one seam between the front end and the work.
//! [`Server::run`] serves with the local backend: it consults the LRU
//! result cache (and the persistent [`Store`], when configured) and executes
//! jobs via [`wire::execute_with`]. [`Server::run_with`] takes any other
//! backend — the `rsnc` coordinator passes one that forwards each job to a
//! fleet of `rsnd` workers — and the front end stays the same.
//!
//! Backpressure is explicit end to end: a full queue answers `503` +
//! `Retry-After` instead of queueing hidden latency, and a connection with
//! [`ServerConfig::max_inflight_per_conn`] unanswered pipelined requests is
//! simply not parsed further until responses drain. On shutdown the loop
//! stops accepting, the queue closes, workers drain every job already
//! accepted, and the loop keeps pumping until every drained response has
//! been flushed to its socket.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use robust_rsn::{Parallelism, ShardPanic};
use rsn_model::format::StreamingParser;
use rsn_store::{Namespace, Store, StoreError};

use crate::cache::LruCache;
use crate::chaos::{Chaos, Site};
use crate::http::{self, Request, Response, SharedBody};
use crate::metrics::Metrics;
use crate::poll::{self, PollFd, READABLE, WRITABLE};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::Registry;
use crate::wire::{
    self, Deadline, Endpoint, JobError, JobRequest, NetworkListResponse, ParsedNetwork, ResolvedJob,
};
use crate::wscache::WorkspaceCache;

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker-pool size (resolved like every analysis loop: explicit count
    /// or the `RSN_THREADS` environment variable).
    pub workers: Parallelism,
    /// Capacity of the submission queue; a full queue answers `503`.
    pub queue_capacity: usize,
    /// Capacity of the LRU result cache; `0` disables caching.
    pub cache_capacity: usize,
    /// Capacity of the warm-[`Workspace`](robust_rsn::Workspace) LRU that
    /// backs `/v1/whatif`; `0` disables it (every what-if re-parses and
    /// re-sweeps). Workspaces hold the parsed network plus all per-mode
    /// reach caches, so this is sized far below `cache_capacity`.
    pub workspace_cache_capacity: usize,
    /// Thread count used *inside* each job's analysis. Sequential by default
    /// so concurrent jobs do not oversubscribe the worker pool.
    pub analysis_threads: Parallelism,
    /// Deadline applied when a request carries no `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Upper bound on any requested `timeout_ms`.
    pub max_timeout_ms: u64,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Value of the `Retry-After` header on `503` responses, in seconds.
    pub retry_after_secs: u64,
    /// How long a connection may sit mid-request (a partial head or body
    /// buffered, nothing parseable yet) before it is answered `408` and
    /// closed.
    pub io_timeout: Duration,
    /// How long an *idle* keep-alive connection (no buffered bytes, nothing
    /// in flight) is kept open before being dropped.
    pub idle_timeout: Duration,
    /// Upper bound on concurrently open client connections; past it the
    /// listener is simply not polled, leaving new peers in the accept
    /// backlog until a slot frees up.
    pub max_conns: usize,
    /// Per-connection bound on unanswered pipelined requests; a connection
    /// at the bound is not parsed further until responses drain.
    pub max_inflight_per_conn: usize,
    /// Path of the persistent [`Store`] backing the network registry and
    /// the durable result cache; `None` (the default) keeps the daemon
    /// fully in-memory.
    pub store_path: Option<PathBuf>,
    /// Artificial delay before each job is processed. A chaos/test knob used
    /// to saturate the queue deterministically; `None` in production.
    pub worker_delay: Option<Duration>,
    /// Deterministic fault-injection schedule (`--chaos` / `RSND_CHAOS`);
    /// `None` in production — no schedule, no overhead.
    pub chaos: Option<Arc<Chaos>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: Parallelism::default(),
            queue_capacity: 64,
            cache_capacity: 128,
            workspace_cache_capacity: 8,
            analysis_threads: Parallelism::sequential(),
            default_timeout_ms: 30_000,
            max_timeout_ms: 120_000,
            max_body_bytes: 8 * 1024 * 1024,
            retry_after_secs: 1,
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            max_conns: 30_000,
            max_inflight_per_conn: 32,
            store_path: None,
            worker_delay: None,
            chaos: None,
        }
    }
}

/// A clonable handle that asks a running [`Server`] to shut down gracefully.
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Requests shutdown: stop accepting, drain in-flight jobs, exit.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }
}

/// A job on its way to a [`Backend`]: the event loop has framed, decoded
/// and resolved it; a pool thread answers it.
#[derive(Debug)]
pub enum Job {
    /// A JSON submission to one of the [`Endpoint`]s (`PUT /v1/networks`
    /// with a JSON body included).
    Submit(Box<Submission>),
    /// A streamed `text/plain` `PUT /v1/networks`, already parsed, built
    /// and registered by the event loop; the backend answers its receipt.
    Upload(Arc<ParsedNetwork>),
}

/// A decoded and resolved JSON submission.
#[derive(Debug)]
pub struct Submission {
    /// The submission as the client sent it.
    pub request: JobRequest,
    /// The same submission with every default applied.
    pub resolved: ResolvedJob,
    /// When the answer stops being worth computing.
    pub deadline: Deadline,
}

impl Job {
    /// The endpoint the job was submitted to.
    #[must_use]
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Self::Submit(submission) => submission.resolved.endpoint,
            Self::Upload(_) => Endpoint::Networks,
        }
    }
}

/// What the worker pool does with a queued [`Job`]: the seam between the
/// event loop and the work. [`Server::run`] uses the local backend (result
/// cache, store, workspace cache, analysis kernel); the `rsnc` coordinator
/// plugs in one that forwards to a fleet of `rsnd` workers.
pub trait Backend: Send + Sync {
    /// Answers one job. Runs on a pool thread under panic isolation: a
    /// panic answers a structured 500 and the thread keeps serving. The
    /// body is shared, not copied, on its way to the socket.
    fn run(&self, job: &Job) -> Response<SharedBody>;

    /// Appends the backend's own series to the `/metrics` exposition.
    fn render_metrics(&self, _out: &mut String) {}
}

/// A queued job plus the connection/sequence slot its response must land
/// in.
struct Queued {
    conn_id: u64,
    seq: u64,
    accepted_at: Instant,
    job: Job,
}

/// A finished job on its way back to the event loop.
struct Completion {
    conn_id: u64,
    seq: u64,
    endpoint: &'static str,
    accepted_at: Instant,
    response: Response<SharedBody>,
}

/// The worker→loop completion channel: a mutex-guarded vector plus a
/// loopback socket the workers poke one byte into so the loop's `poll` wakes
/// immediately instead of on its housekeeping tick.
struct Completions {
    items: Mutex<Vec<Completion>>,
    waker: TcpStream,
}

impl Completions {
    fn push(&self, completion: Completion) {
        self.items.lock().unwrap_or_else(PoisonError::into_inner).push(completion);
        // A full waker buffer means a wake-up is already pending: ignore.
        let _ = (&self.waker).write(&[1]);
    }

    fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.items.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Everything a worker thread needs, bundled for cheap cloning.
#[derive(Clone)]
struct WorkerCtx {
    queue: Arc<BoundedQueue<Queued>>,
    backend: Arc<dyn Backend>,
    metrics: Arc<Metrics>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    completions: Arc<Completions>,
}

/// The local backend: registry resolution, the result cache (memory, then
/// store), the warm-workspace cache and the analysis kernel.
struct Local {
    cache: Mutex<LruCache>,
    workspaces: Mutex<WorkspaceCache>,
    registry: Arc<Registry>,
    store: Option<Arc<Store>>,
    metrics: Arc<Metrics>,
    analysis_threads: Parallelism,
    chaos: Option<Arc<Chaos>>,
}

/// A `PUT /v1/networks` upload being streamed through the push parser:
/// body chunks feed [`StreamingParser`] as they arrive off the socket and
/// are dropped, so peak memory is bounded by the parsed [`Structure`]
/// (plus one read buffer), not the body size — uploads may exceed
/// [`ServerConfig::max_body_bytes`].
///
/// [`Structure`]: rsn_model::Structure
struct StreamingUpload {
    /// The incremental parser; dropped on the first parse error.
    parser: Option<StreamingParser>,
    /// The first parse error, answered once the body is drained (the
    /// remaining bytes must still be consumed to keep the stream framed).
    error: Option<rsn_model::format::ParseError>,
    /// Declared body bytes still expected.
    remaining: u64,
    /// The response slot reserved for this request.
    seq: u64,
}

/// Most slices one `writev` is handed: the head and body of up to 32
/// pipelined answers, the default per-connection inflight bound.
const MAX_WRITE_SLICES: usize = 64;

/// One answer waiting in a connection's outbox: its encoded head and its
/// body, shared with the result cache.
struct Outgoing {
    head: Vec<u8>,
    body: SharedBody,
}

impl Outgoing {
    fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }
}

/// One client connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    /// Answers in request order, the front one for `next_write_seq`; `None`
    /// holds the place of an answer still being computed.
    outbox: VecDeque<Option<Outgoing>>,
    /// Bytes of the front answer already written.
    cursor: usize,
    /// Sequence number assigned to the next parsed request.
    next_seq: u64,
    /// Sequence number of the next response to be written out in full.
    next_write_seq: u64,
    /// Once set, the connection closes after the response for this sequence
    /// number is flushed; no further requests are parsed.
    close_at: Option<u64>,
    /// Peer half-closed its write side; no more reads.
    eof: bool,
    /// When a partial (unparseable-yet) request started accumulating.
    partial_since: Option<Instant>,
    /// A streaming `PUT /v1/networks` body in flight; while set, incoming
    /// bytes feed the parser instead of the request buffer.
    streaming: Option<StreamingUpload>,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Self {
            stream,
            read_buf: Vec::new(),
            outbox: VecDeque::new(),
            cursor: 0,
            next_seq: 0,
            next_write_seq: 0,
            close_at: None,
            eof: false,
            partial_since: None,
            streaming: None,
            last_activity: now,
        }
    }

    /// Requests parsed but not yet answered and written out.
    fn outstanding(&self) -> u64 {
        self.next_seq - self.next_write_seq
    }

    /// Slots the response for `seq` into the outbox: its encoded head plus
    /// the shared body.
    fn push_response(&mut self, seq: u64, response: Response<SharedBody>, now: Instant) {
        let keep_alive = self.close_at != Some(seq);
        let head = http::encode_head(&response, response.body.len(), keep_alive);
        let slot = usize::try_from(seq - self.next_write_seq).expect("outbox slot fits in memory");
        if self.outbox.len() <= slot {
            self.outbox.resize_with(slot + 1, || None);
        }
        self.outbox[slot] = Some(Outgoing { head, body: response.body });
        self.last_activity = now;
    }

    /// Whether the front answer is ready to be written.
    fn wants_write(&self) -> bool {
        self.outbox.front().is_some_and(Option::is_some)
    }

    /// Writes ready answers from the front of the outbox until the socket
    /// would block or the next answer is still being computed. Each call to
    /// the kernel carries the unsent part of every ready answer in order.
    /// Errs when the peer is gone.
    fn flush(&mut self, metrics: &Metrics) -> io::Result<()> {
        loop {
            let mut slices = [IoSlice::new(&[]); MAX_WRITE_SLICES];
            let mut count = 0;
            let mut skip = self.cursor;
            for out in self.outbox.iter().map_while(Option::as_ref) {
                if count + 2 > MAX_WRITE_SLICES {
                    break;
                }
                for part in [out.head.as_slice(), out.body.as_bytes()] {
                    if skip < part.len() {
                        slices[count] = IoSlice::new(&part[skip..]);
                        count += 1;
                    }
                    skip = skip.saturating_sub(part.len());
                }
            }
            if count == 0 {
                return Ok(());
            }
            let written = self.stream.write_vectored(&slices[..count]);
            metrics.record_socket_write(written.as_ref().map_or(0, |n| *n));
            match written {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Moves the cursor `n` written bytes on, retiring every answer it
    /// passes.
    fn advance(&mut self, mut n: usize) {
        while n > 0 {
            let front = self.outbox.front().and_then(Option::as_ref);
            let left = front.expect("written bytes belong to ready answers").len() - self.cursor;
            if n < left {
                self.cursor += n;
                return;
            }
            n -= left;
            self.outbox.pop_front();
            self.cursor = 0;
            self.next_write_seq += 1;
        }
    }

    /// Whether everything owed to the peer has been handed to the kernel.
    fn flushed(&self) -> bool {
        self.outstanding() == 0
    }

    /// Whether the connection is done and should be dropped.
    fn finished(&self) -> bool {
        if !self.flushed() {
            return false;
        }
        match self.close_at {
            Some(close_at) => self.next_write_seq > close_at,
            None => self.eof,
        }
    }
}

/// What a poll-set slot refers to.
enum Token {
    Listener,
    Waker,
    Conn(u64),
}

/// The analysis daemon. Bind with [`Server::bind`], then call
/// [`Server::run`] (blocking) from the thread that owns it.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    store: Option<Arc<Store>>,
    registry: Arc<Registry>,
    queue: Arc<BoundedQueue<Queued>>,
}

/// A server's `/metrics` exposition, usable from any thread and after
/// [`Server::run_with`] took the server: the server's own series with the
/// queue depth read at the scrape, then the backend's series.
#[derive(Clone, Debug)]
pub struct Exposition {
    metrics: Arc<Metrics>,
    queue: Arc<BoundedQueue<Queued>>,
}

impl Exposition {
    /// The exposition text, with `backend`'s series appended.
    #[must_use]
    pub fn render(&self, backend: &dyn Backend) -> String {
        render_exposition(&self.metrics, &self.queue, backend)
    }
}

/// The one `/metrics` rendering. The depth is read at the scrape: pool
/// threads pop off the event loop, so depths written at each push and pop
/// could land out of order and leave the gauge stale.
fn render_exposition(
    metrics: &Metrics,
    queue: &BoundedQueue<Queued>,
    backend: &dyn Backend,
) -> String {
    metrics.set_queue_depth(queue.len());
    let mut text = metrics.render();
    backend.render_metrics(&mut text);
    text
}

/// Maps a [`StoreError`] into the `io::Error` `bind` reports.
fn store_to_io(err: StoreError) -> io::Error {
    match err {
        StoreError::Io(e) => e,
        StoreError::Corrupt(msg) => io::Error::new(io::ErrorKind::InvalidData, msg),
    }
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(source: &T) -> i32 {
    source.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_source: &T) -> i32 {
    0
}

/// A connected loopback pair: (blocking-ish writer for workers, non-blocking
/// reader for the event loop's poll set).
fn waker_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

impl Server {
    /// Binds the listener and, when [`ServerConfig::store_path`] is set,
    /// opens (or creates) the persistent store — replaying its WAL and
    /// loading every registered network before the first request is
    /// accepted. Recovery counts land in `rsnd_store_wal_replays_total` /
    /// `rsnd_store_corrupt_records_total`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; store-open failures surface as
    /// `InvalidData` (corrupt store) or the underlying IO error.
    pub fn bind(config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new());
        let store = match &config.store_path {
            Some(path) => {
                let (store, report) = Store::open(path).map_err(store_to_io)?;
                metrics.add_store_wal_replays(report.wal_records_replayed);
                metrics.add_store_corrupt_records(report.corrupt_records);
                Some(Arc::new(store))
            }
            None => None,
        };
        let registry =
            Arc::new(Registry::open(store.clone(), Arc::clone(&metrics)).map_err(store_to_io)?);
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        Ok(Self {
            listener,
            local_addr,
            config,
            metrics,
            shutdown: Arc::new(AtomicBool::new(false)),
            store,
            registry,
            queue,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared metrics registry.
    #[must_use]
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// The content-addressed network registry (shared with the workers).
    #[must_use]
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The `/metrics` exposition, for reading it off the HTTP path.
    #[must_use]
    pub fn exposition(&self) -> Exposition {
        Exposition { metrics: Arc::clone(&self.metrics), queue: Arc::clone(&self.queue) }
    }

    /// A handle that triggers graceful shutdown from another thread (or a
    /// signal handler's polling loop).
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { flag: Arc::clone(&self.shutdown) }
    }

    /// Serves with the local backend until shutdown is requested, then
    /// drains in-flight jobs (flushing every drained response) and returns.
    ///
    /// Worker threads are supervised: job execution is isolated with
    /// `catch_unwind` (a panicking job answers a structured 500), and a
    /// worker that nevertheless dies is respawned by the event loop
    /// (counted in `rsnd_workers_respawned_total`), so the daemon never
    /// loses serving capacity to a single bad job.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures; per-connection errors are
    /// answered over HTTP and never abort the loop.
    pub fn run(mut self) -> io::Result<()> {
        let local = Local {
            cache: Mutex::new(LruCache::new(self.config.cache_capacity)),
            workspaces: Mutex::new(WorkspaceCache::new(self.config.workspace_cache_capacity)),
            registry: Arc::clone(&self.registry),
            // The backend holds the last strong reference once the workers
            // joined; dropping it checkpoints the WAL into the data file.
            store: self.store.take(),
            metrics: Arc::clone(&self.metrics),
            analysis_threads: self.config.analysis_threads,
            chaos: self.config.chaos.clone(),
        };
        self.run_with(Arc::new(local))
    }

    /// Serves like [`Server::run`], but hands every queued job to
    /// `backend` instead of the local one.
    ///
    /// # Errors
    ///
    /// See [`Server::run`].
    pub fn run_with(self, backend: Arc<dyn Backend>) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let (waker_tx, waker_rx) = waker_pair()?;
        let completions = Arc::new(Completions { items: Mutex::new(Vec::new()), waker: waker_tx });
        let ctx = WorkerCtx {
            queue: self.queue,
            backend,
            metrics: Arc::clone(&self.metrics),
            config: self.config.clone(),
            shutdown: Arc::clone(&self.shutdown),
            completions,
        };

        let workers: Vec<JoinHandle<()>> =
            (0..self.config.workers.threads()).map(|i| spawn_worker(i, &ctx)).collect();
        let next_worker_id = workers.len();

        let mut event_loop = EventLoop {
            listener: self.listener,
            waker_rx,
            config: self.config,
            metrics: self.metrics,
            shutdown: self.shutdown,
            registry: self.registry,
            ctx,
            conns: HashMap::new(),
            next_conn_id: 0,
            inflight: 0,
            workers,
            next_worker_id,
            draining: false,
        };
        event_loop.run()
    }
}

fn spawn_worker(id: usize, ctx: &WorkerCtx) -> JoinHandle<()> {
    let ctx = ctx.clone();
    std::thread::Builder::new()
        .name(format!("rsnd-worker-{id}"))
        .spawn(move || worker_loop(&ctx))
        .expect("spawn worker thread")
}

/// The single-threaded owner of every socket.
struct EventLoop {
    listener: TcpListener,
    waker_rx: TcpStream,
    config: ServerConfig,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Registry>,
    ctx: WorkerCtx,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    /// Jobs handed to the queue whose completions have not been applied yet.
    inflight: usize,
    workers: Vec<JoinHandle<()>>,
    next_worker_id: usize,
    draining: bool,
}

impl EventLoop {
    fn run(&mut self) -> io::Result<()> {
        let mut scratch = vec![0u8; 64 * 1024];
        let mut drain_started: Option<Instant> = None;
        loop {
            // Enter drain mode exactly once: stop accepting, close the
            // queue (workers finish what was admitted, then exit).
            if !self.draining && self.shutdown.load(Ordering::SeqCst) {
                self.draining = true;
                drain_started = Some(Instant::now());
                self.ctx.queue.close();
            }
            self.supervise_workers();
            self.apply_completions();
            if self.draining && self.drained(drain_started) {
                break;
            }

            let (mut fds, tokens) = self.poll_set();
            let _ = poll::poll(&mut fds, Duration::from_millis(50));

            let now = Instant::now();
            for (fd, token) in fds.iter().zip(&tokens) {
                match token {
                    Token::Listener if fd.is_readable() => self.accept_ready(now),
                    Token::Waker if fd.is_readable() => self.drain_waker(&mut scratch),
                    Token::Conn(id) if fd.is_readable() => {
                        self.read_ready(*id, &mut scratch, now);
                    }
                    _ => {}
                }
            }
            self.apply_completions();

            let now = Instant::now();
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                self.pump_parse(id, now);
                self.pump_write(id);
            }
            self.housekeeping(Instant::now());
            self.metrics.set_open_sockets(self.conns.len() as u64);
            let keepalive = self
                .conns
                .values()
                .filter(|c| c.next_write_seq > 0 && c.close_at.is_none() && !c.eof)
                .count();
            self.metrics.set_keepalive_conns(keepalive as u64);
        }

        // Every job is answered and flushed; release the workers.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        Ok(())
    }

    /// True once a drain has nothing left to do: no queued or executing
    /// jobs, every completion applied, every owed byte flushed — or the
    /// flush grace period (one io_timeout) has expired on a stuck peer.
    fn drained(&self, started: Option<Instant>) -> bool {
        if !self.ctx.queue.is_empty() || self.inflight > 0 {
            return false;
        }
        let all_flushed = self.conns.values().all(Conn::flushed);
        let grace_over =
            started.is_some_and(|t| t.elapsed() > self.config.io_timeout + Duration::from_secs(1));
        all_flushed || grace_over
    }

    /// Replaces dead worker threads. Pre-shutdown every death is abnormal
    /// (an escaped panic); during drain a replacement is only needed while
    /// admitted jobs are still queued.
    fn supervise_workers(&mut self) {
        for i in 0..self.workers.len() {
            if self.workers[i].is_finished() && (!self.draining || !self.ctx.queue.is_empty()) {
                let fresh = spawn_worker(self.next_worker_id, &self.ctx);
                self.next_worker_id += 1;
                let dead = std::mem::replace(&mut self.workers[i], fresh);
                let _ = dead.join();
                self.metrics.record_worker_respawned();
            }
        }
    }

    /// Builds this iteration's poll registrations.
    fn poll_set(&self) -> (Vec<PollFd>, Vec<Token>) {
        let mut fds = Vec::with_capacity(self.conns.len() + 2);
        let mut tokens = Vec::with_capacity(self.conns.len() + 2);
        if !self.draining && self.conns.len() < self.config.max_conns {
            fds.push(PollFd::new(raw_fd(&self.listener), READABLE));
            tokens.push(Token::Listener);
        }
        fds.push(PollFd::new(raw_fd(&self.waker_rx), READABLE));
        tokens.push(Token::Waker);
        for (id, conn) in &self.conns {
            let mut events = 0;
            // A streaming upload keeps reading its body even when
            // `Connection: close` has pinned `close_at` to its own slot.
            if !conn.eof && (conn.close_at.is_none() || conn.streaming.is_some()) {
                events |= READABLE;
            }
            if conn.wants_write() {
                events |= WRITABLE;
            }
            if events != 0 {
                fds.push(PollFd::new(raw_fd(&conn.stream), events));
                tokens.push(Token::Conn(*id));
            }
        }
        (fds, tokens)
    }

    /// Accepts every pending connection (up to the socket cap).
    fn accept_ready(&mut self, now: Instant) {
        while self.conns.len() < self.config.max_conns {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if let Some(chaos) = &self.config.chaos {
                        if chaos.fires(Site::SlowRead) {
                            std::thread::sleep(chaos.delay());
                        }
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // A pipelined answer must not wait for the ACK riding on
                    // the peer's next request.
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    self.conns.insert(id, Conn::new(stream, now));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Swallows pending waker bytes (their only job was ending the poll).
    fn drain_waker(&mut self, scratch: &mut [u8]) {
        loop {
            match self.waker_rx.read(scratch) {
                Ok(0) => break, // waker peer gone; completions still drain on the tick
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Reads every available byte from connection `id`.
    fn read_ready(&mut self, id: u64, scratch: &mut [u8], now: Instant) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.eof = true;
                    break;
                }
            }
        }
    }

    /// Applies finished jobs to their connections' response slots.
    fn apply_completions(&mut self) {
        for completion in self.ctx.completions.take() {
            self.inflight -= 1;
            self.metrics.record_response(completion.response.status);
            self.metrics.record_latency(completion.endpoint, completion.accepted_at.elapsed());
            let now = Instant::now();
            if let Some(conn) = self.conns.get_mut(&completion.conn_id) {
                conn.push_response(completion.seq, completion.response, now);
            }
        }
    }

    /// Parses as many full pipelined requests as the buffer and the
    /// per-connection inflight bound allow, routing each one.
    fn pump_parse(&mut self, id: u64, now: Instant) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            // A streaming upload consumes body bytes regardless of the
            // guards below — its response slot is already reserved, and its
            // `Connection: close` may have set `close_at` to its own seq.
            if conn.streaming.is_some() {
                if !self.pump_streaming(id, now) {
                    return;
                }
                continue;
            }
            if conn.close_at.is_some()
                || conn.read_buf.is_empty()
                || conn.outstanding() >= self.config.max_inflight_per_conn as u64
            {
                return;
            }
            // A plain-text network PUT streams its body through the push
            // parser instead of buffering it, so uploads are not subject to
            // `max_body_bytes`. Head errors fall through to
            // `parse_request_bytes`, which reports them identically.
            if conn.read_buf.starts_with(b"PUT ") {
                if let Ok(Some(head)) = http::parse_request_head(&conn.read_buf) {
                    let streams = head.path == "/v1/networks"
                        && head.header("content-type").is_some_and(|v| v.starts_with("text/plain"));
                    if streams {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        if !head.keep_alive {
                            conn.close_at = Some(seq);
                        }
                        conn.read_buf.drain(..head.body_start);
                        conn.partial_since = None;
                        conn.streaming = Some(StreamingUpload {
                            parser: Some(StreamingParser::new()),
                            error: None,
                            remaining: head.content_length as u64,
                            seq,
                        });
                        self.metrics.record_request("networks");
                        continue;
                    }
                }
            }
            match http::parse_request_bytes(&conn.read_buf, self.config.max_body_bytes) {
                Ok(Some(parsed)) => {
                    conn.read_buf.drain(..parsed.consumed);
                    conn.partial_since = None;
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    if !parsed.keep_alive {
                        conn.close_at = Some(seq);
                    }
                    self.route(id, seq, &parsed.request, now);
                }
                Ok(None) => {
                    conn.partial_since.get_or_insert(now);
                    return;
                }
                Err(e) => {
                    // The byte stream is unframed from here: answer a
                    // structured envelope for this slot and close after it.
                    conn.read_buf.clear();
                    conn.partial_since = None;
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.close_at = Some(seq);
                    let err = JobError::new(e.status, "bad_request", e.message);
                    self.finish_response(id, seq, err.into());
                    return;
                }
            }
        }
    }

    /// Feeds buffered bytes to the connection's in-flight streaming upload.
    /// Returns `true` once the upload completed (and was answered), `false`
    /// while more body bytes are needed.
    fn pump_streaming(&mut self, id: u64, now: Instant) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else { return false };
        let Some(up) = conn.streaming.as_mut() else { return true };
        let take = usize::try_from(up.remaining).unwrap_or(usize::MAX).min(conn.read_buf.len());
        if take > 0 {
            if let Some(parser) = up.parser.as_mut() {
                if let Err(e) = parser.push_bytes(&conn.read_buf[..take]) {
                    // Keep draining the declared body so the connection
                    // stays framed; the error is answered once it ends.
                    up.error = Some(e);
                    up.parser = None;
                }
            }
            conn.read_buf.drain(..take);
            up.remaining -= take as u64;
            conn.last_activity = now;
        }
        if up.remaining > 0 {
            if conn.eof && conn.read_buf.is_empty() {
                // The peer hung up mid-body; nothing more will arrive.
                let up = conn.streaming.take().expect("checked above");
                conn.partial_since = None;
                conn.close_at = Some(up.seq);
                let err = JobError::new(400, "bad_request", "connection closed before end of body");
                self.finish_response(id, up.seq, err.into());
                return false;
            }
            // Restart the stall window on every chunk: a streaming body
            // making progress is alive no matter how long the total
            // transfer takes.
            if take > 0 {
                conn.partial_since = Some(now);
            } else {
                conn.partial_since.get_or_insert(now);
            }
            return false;
        }
        let up = conn.streaming.take().expect("checked above");
        conn.partial_since = None;
        let seq = up.seq;
        // Registered here, before the next pipelined request is parsed, so
        // a request behind it on the connection finds the network.
        match finish_upload(up).and_then(|parsed| self.registry.register_parsed(Arc::new(parsed))) {
            Ok(parsed) => self.enqueue(id, seq, Job::Upload(parsed), now),
            Err(err) => self.finish_response(id, seq, err.into()),
        }
        true
    }

    /// Dispatches one parsed request: answered inline or queued for a
    /// worker.
    fn route(&mut self, conn_id: u64, seq: u64, request: &Request, accepted_at: Instant) {
        let response = match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => {
                self.metrics.record_request("healthz");
                Response::text(200, Arc::new("ok\n".to_string()))
            }
            ("GET", "/metrics") => {
                self.metrics.record_request("metrics");
                let text = render_exposition(&self.metrics, &self.ctx.queue, &*self.ctx.backend);
                Response::text(200, Arc::new(text))
            }
            ("GET", "/v1/networks") => {
                self.metrics.record_request("networks");
                let listing = NetworkListResponse { networks: self.registry.list() };
                wire::respond(
                    serde_json::to_string(&listing)
                        .map_err(|e| JobError::new(500, "internal_error", e.to_string())),
                )
            }
            (method, path) => match Endpoint::ALL.into_iter().find(|e| e.path() == path) {
                Some(endpoint) if endpoint.method() == method => {
                    self.submit(conn_id, seq, request, endpoint, accepted_at);
                    return;
                }
                found => {
                    self.metrics.record_request("other");
                    if found.is_some() || matches!(path, "/healthz" | "/metrics") {
                        JobError::new(405, "method_not_allowed", "wrong method for this path")
                    } else {
                        JobError::new(404, "not_found", format!("unknown path {path:?}"))
                    }
                    .into()
                }
            },
        };
        self.finish_response(conn_id, seq, response);
    }

    /// Decodes and resolves a submission, then queues it.
    fn submit(
        &mut self,
        conn_id: u64,
        seq: u64,
        request: &Request,
        endpoint: Endpoint,
        accepted_at: Instant,
    ) {
        self.metrics.record_request(endpoint.as_str());
        let job = std::str::from_utf8(&request.body)
            .map_err(|_| JobError::new(400, "bad_request", "body is not valid utf-8"))
            .and_then(wire::parse_request)
            .and_then(|request| {
                let timeout = request
                    .timeout_ms
                    .unwrap_or(self.config.default_timeout_ms)
                    .min(self.config.max_timeout_ms);
                let deadline = Deadline::after(Duration::from_millis(timeout));
                let resolved = wire::resolve(endpoint, &request)?;
                Ok(Job::Submit(Box::new(Submission { request, resolved, deadline })))
            });
        match job {
            Ok(job) => self.enqueue(conn_id, seq, job, accepted_at),
            Err(err) => self.finish_response(conn_id, seq, err.into()),
        }
    }

    /// Queues `job` for the worker pool, answering `503` + `Retry-After`
    /// when the queue is full.
    fn enqueue(&mut self, conn_id: u64, seq: u64, job: Job, accepted_at: Instant) {
        match self.ctx.queue.try_push(Queued { conn_id, seq, accepted_at, job }) {
            Ok(_) => self.inflight += 1,
            Err(PushError::Full(_) | PushError::Closed(_)) => {
                self.metrics.record_queue_rejected();
                let err = JobError::new(
                    503,
                    "overloaded",
                    format!(
                        "submission queue is full ({} jobs); retry after {}s",
                        self.ctx.queue.capacity(),
                        self.config.retry_after_secs
                    ),
                );
                let response = Response::from(err)
                    .with_header("Retry-After", &self.config.retry_after_secs.to_string());
                self.finish_response(conn_id, seq, response);
            }
        }
    }

    /// Records and slots an inline response, then tries to flush it.
    fn finish_response(&mut self, conn_id: u64, seq: u64, response: Response<SharedBody>) {
        if let Some(chaos) = &self.config.chaos {
            if chaos.fires(Site::SlowWrite) {
                std::thread::sleep(chaos.delay());
            }
        }
        self.metrics.record_response(response.status);
        let now = Instant::now();
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.push_response(seq, response, now);
        }
        self.pump_write(conn_id);
    }

    /// Writes as much of the connection's outbox as the socket accepts,
    /// and retires the connection once it is finished.
    fn pump_write(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        let dead = conn.flush(&self.metrics).is_err();
        if dead || conn.finished() {
            self.conns.remove(&id);
        }
    }

    /// Enforces the mid-request and idle timeouts.
    fn housekeeping(&mut self, now: Instant) {
        // Mid-request stalls answer a structured 408 envelope, then close —
        // the event-loop counterpart of the old blocking read timeout.
        let stalled: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                (c.close_at.is_none() || c.streaming.is_some())
                    && !c.eof
                    && c.partial_since
                        .is_some_and(|since| now.duration_since(since) > self.config.io_timeout)
            })
            .map(|(id, _)| *id)
            .collect();
        for id in stalled {
            let Some(conn) = self.conns.get_mut(&id) else { continue };
            conn.read_buf.clear();
            conn.partial_since = None;
            // A stalled streaming upload answers on its own reserved slot;
            // a stalled request head gets a fresh one.
            let seq = match conn.streaming.take() {
                Some(up) => up.seq,
                None => {
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    seq
                }
            };
            conn.close_at = Some(seq);
            let err = JobError::new(408, "bad_request", "timed out reading from peer");
            self.finish_response(id, seq, err.into());
        }
        // Idle keep-alive connections (and half-closed leftovers) are
        // reaped silently.
        self.conns.retain(|_, c| {
            let idle = c.read_buf.is_empty() && c.flushed();
            let expired = now.duration_since(c.last_activity) > self.config.idle_timeout;
            !(idle && (c.eof || expired))
        });
    }
}

/// Finalizes a drained streaming upload: the parsed and built network, or
/// the parse/build error.
fn finish_upload(up: StreamingUpload) -> Result<ParsedNetwork, JobError> {
    let bad_network =
        |e: rsn_model::format::ParseError| JobError::new(400, "bad_network", e.to_string());
    if let Some(e) = up.error {
        return Err(bad_network(e));
    }
    let parser = up.parser.expect("uploads without an error keep their parser");
    let (name, structure) = parser.finish().map_err(bad_network)?;
    ParsedNetwork::from_parts(name, structure)
}

/// One worker: drain the queue until it is closed and empty. Job execution
/// is panic-isolated: a panicking job answers a structured 500
/// `internal_error` and the worker keeps serving.
fn worker_loop(ctx: &WorkerCtx) {
    loop {
        // The chaos worker-abort site kills the thread *between* jobs (no
        // job is ever lost) and only before shutdown, so the final drain
        // always completes. The escaped panic is what the event loop's
        // respawn supervision exists for.
        if let Some(chaos) = &ctx.config.chaos {
            if !ctx.shutdown.load(Ordering::SeqCst) && chaos.fires(Site::WorkerAbort) {
                panic!("chaos: worker aborted between jobs");
            }
            if chaos.fires(Site::QueueStall) {
                std::thread::sleep(chaos.delay());
            }
        }
        let Some(queued) = ctx.queue.pop() else { break };
        if let Some(delay) = ctx.config.worker_delay {
            std::thread::sleep(delay);
        }
        let endpoint = queued.job.endpoint().as_str();
        let result = catch_unwind(AssertUnwindSafe(|| ctx.backend.run(&queued.job)));
        let response = match result {
            Ok(response) => response,
            Err(payload) => {
                ctx.metrics.record_job_panicked();
                JobError::new(
                    500,
                    "internal_error",
                    format!(
                        "worker panicked while executing the job: {}",
                        ShardPanic::from_payload(payload).message()
                    ),
                )
                .into()
            }
        };
        if response.status == 408 {
            ctx.metrics.record_job_cancelled();
        }
        ctx.completions.push(Completion {
            conn_id: queued.conn_id,
            seq: queued.seq,
            endpoint,
            accepted_at: queued.accepted_at,
            response,
        });
    }
}

impl Backend for Local {
    fn run(&self, job: &Job) -> Response<SharedBody> {
        match job {
            Job::Submit(submission) => self.run_job(&submission.resolved, &submission.deadline),
            Job::Upload(parsed) => wire::respond(wire::networks_put_body(parsed)),
        }
    }

    /// The analysis kernel's process-wide work counters: modes and lane
    /// blocks swept, articulation blocks, and node words re-derived.
    fn render_metrics(&self, out: &mut String) {
        let k = robust_rsn::kernel_counters();
        for (name, value) in [
            ("modes", k.modes),
            ("blocks", k.blocks),
            ("articulation_blocks", k.articulation_blocks),
            ("nodes_relaxed", k.nodes_relaxed),
        ] {
            out.push_str(&format!("rsnd_kernel_{name}_total {value}\n"));
        }
    }
}

impl Local {
    /// Registry resolution, cache lookup (memory, then store), execution,
    /// cache fill. Every path that caches a body shares it with the
    /// response instead of copying it. Cache locks recover from poisoning
    /// (`PoisonError::into_inner`): the LRU's invariants hold across a panic
    /// observed mid-`get`/`put`, and losing a cached body at worst costs a
    /// recomputation.
    fn run_job(&self, job: &ResolvedJob, deadline: &Deadline) -> Response<SharedBody> {
        if let Err(err) = deadline.check("queued") {
            return err.into();
        }
        if let Some(chaos) = &self.chaos {
            if chaos.fires(Site::JobPanic) {
                panic!("chaos: injected job panic");
            }
        }
        // Resolve the network once: hash references look up the registry
        // (404 `unknown_network` otherwise), inline text goes through the
        // parse memo, and registrations persist the text under its hash.
        let network = match &job.network_hash {
            Some(hex) => self.registry.lookup(hex),
            None if job.endpoint == Endpoint::Networks => self.registry.register(&job.network),
            None => self.registry.resolve_inline(&job.network),
        };
        let network = match network {
            Ok(network) => network,
            Err(err) => return err.into(),
        };
        if job.endpoint == Endpoint::Networks {
            // Registration answers its receipt directly; the result cache is
            // for analysis bytes.
            return wire::respond(wire::networks_put_body(&network));
        }

        let key = job.canonical_key_with(&network.hash);
        if let Some(body) = self.cache.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
            self.metrics.record_cache_hit();
            return Response::json(200, body).with_header("X-Cache", "hit");
        }
        if let Some(store) = &self.store {
            if let Ok(Some(bytes)) = store.get(Namespace::Results, key.as_bytes()) {
                if let Ok(body) = String::from_utf8(bytes) {
                    self.metrics.record_store_read();
                    self.metrics.record_cache_hit();
                    let body = Arc::new(body);
                    self.cache
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .put(&key, Arc::clone(&body));
                    return Response::json(200, body).with_header("X-Cache", "store");
                }
            }
        }
        self.metrics.record_cache_miss();
        let executed = if job.endpoint == Endpoint::Whatif {
            self.run_whatif(job, &network, deadline)
        } else {
            wire::execute_with(job, &network, self.analysis_threads, deadline)
        };
        match executed {
            Ok(body) => {
                let body = Arc::new(body);
                self.cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .put(&key, Arc::clone(&body));
                if let Some(store) = &self.store {
                    // A failed persist costs only warmth after a restart; the
                    // computed response is still correct, so serve it.
                    if let Ok(true) = store.put(Namespace::Results, key.as_bytes(), body.as_bytes())
                    {
                        self.metrics.record_store_write();
                    }
                }
                Response::json(200, body).with_header("X-Cache", "miss")
            }
            Err(err) => err.into(),
        }
    }

    /// A what-if job: answered from a warm
    /// [`Workspace`](robust_rsn::Workspace) when one is cached for the job's
    /// network/spec, otherwise built once and cached for the next request.
    /// The workspace lock is per-workspace — what-ifs against *different*
    /// networks run concurrently; only same-network what-ifs serialize (each
    /// is a masking/arithmetic delta, so that is cheap).
    ///
    /// Edits commit atomically and `wire::execute_whatif` undoes its delta
    /// before answering, so the shared workspace returns to pristine state on
    /// every path short of a daemon bug — and on that path (a 500, or a panic
    /// observed as lock poisoning) the entry is dropped rather than reused.
    fn run_whatif(
        &self,
        job: &ResolvedJob,
        network: &ParsedNetwork,
        deadline: &Deadline,
    ) -> Result<String, JobError> {
        let ws_key = job.workspace_key_with(&network.hash);
        // A poisoned per-workspace lock means a previous holder panicked
        // mid-edit; treat the entry as absent and rebuild over it.
        let cached = self
            .workspaces
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&ws_key)
            .filter(|ws| !ws.is_poisoned());
        let shared = match cached {
            Some(ws) => {
                self.metrics.record_workspace_cache_hit();
                ws
            }
            None => {
                self.metrics.record_workspace_cache_miss();
                let ws = wire::build_workspace_with(job, network, self.analysis_threads, deadline)?;
                self.metrics.add_whatif_modes_swept(ws.modes_swept());
                let arc = Arc::new(Mutex::new(ws));
                self.workspaces
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .put(&ws_key, Arc::clone(&arc));
                arc
            }
        };
        let result = {
            let mut workspace = shared.lock().unwrap_or_else(PoisonError::into_inner);
            let swept = workspace.modes_swept();
            let result = wire::execute_whatif(job, &mut workspace, deadline);
            self.metrics.add_whatif_modes_swept(workspace.modes_swept() - swept);
            result
        };
        if result.as_ref().is_err_and(|e| e.status == 500) {
            self.workspaces.lock().unwrap_or_else(PoisonError::into_inner).remove(&ws_key);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::JobRequest;

    fn demo_job(seed: u64) -> ResolvedJob {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/networks/soc_demo.rsn");
        let network = std::fs::read_to_string(path).expect("read soc_demo.rsn");
        let request = JobRequest { network: Some(network), seed: Some(seed), ..Default::default() };
        wire::resolve(Endpoint::Analyze, &request).expect("resolve")
    }

    #[test]
    fn every_cache_tier_shares_the_body_it_serves() {
        let dir = std::env::temp_dir().join(format!("rsnd-shared-body-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let (store, _) = Store::open(dir.join("rsnd.store")).expect("open store");
        let store = Arc::new(store);
        let metrics = Arc::new(Metrics::new());
        let registry = Registry::open(Some(Arc::clone(&store)), Arc::clone(&metrics));
        let local = Local {
            cache: Mutex::new(LruCache::new(4)),
            workspaces: Mutex::new(WorkspaceCache::new(0)),
            registry: Arc::new(registry.expect("open registry")),
            store: Some(Arc::clone(&store)),
            metrics,
            analysis_threads: Parallelism::sequential(),
            chaos: None,
        };
        let cached = |key: &str| local.cache.lock().expect("cache lock").get(key).expect("cached");
        let key_of = |job: &ResolvedJob| {
            let network = local.registry.resolve_inline(&job.network).expect("parse");
            job.canonical_key_with(&network.hash)
        };

        // A body a previous run persisted: served from the store, then from
        // memory, one allocation throughout.
        let job = demo_job(7);
        let key = key_of(&job);
        store.put(Namespace::Results, key.as_bytes(), b"{\"stored\":1}").expect("persist");
        let stored = local.run_job(&job, &Deadline::none());
        assert_eq!(
            (stored.header("X-Cache"), stored.body.as_str()),
            (Some("store"), "{\"stored\":1}")
        );
        assert!(Arc::ptr_eq(&stored.body, &cached(&key)));
        let hit = local.run_job(&job, &Deadline::none());
        assert_eq!(hit.header("X-Cache"), Some("hit"));
        assert!(Arc::ptr_eq(&hit.body, &stored.body));

        // A computed body: the cache fill is the response's allocation.
        let job = demo_job(8);
        let missed = local.run_job(&job, &Deadline::none());
        assert_eq!(missed.header("X-Cache"), Some("miss"));
        assert!(Arc::ptr_eq(&missed.body, &cached(&key_of(&job))));

        drop((local, store));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
