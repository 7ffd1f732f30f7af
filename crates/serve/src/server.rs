//! The multi-tenant execution server (DESIGN.md §6i, §6j).
//!
//! One process hosts thousands of concurrent program executions: an
//! acceptor thread takes TCP connections, a reader thread per connection
//! decodes request frames into a shared job queue, and a fixed pool of
//! worker threads executes them. Each request runs on its own `Vm`/`Rt`
//! under its own fuel, memory and wall-clock quota; compiled programs are
//! shared immutably across workers through an `Arc<PreparedProgram>`
//! cache keyed by `(mode, source)`, so a program submitted by
//! many tenants is compiled and prepared once.
//!
//! The overload-survival layer (PR 10) sheds at *admission*, where a
//! refusal costs a queue-lock acquisition and one response frame, never
//! mid-execution:
//!
//! * the job queue is bounded ([`ServerConfig::queue_cap`]); a full
//!   queue sheds by tenant share with a typed [`Status::Overloaded`]
//!   carrying `retry_after_ms`;
//! * each tenant (explicit id, or hashed client IP) owns a token bucket
//!   ([`ServerConfig::rate_limit`]); an empty bucket answers
//!   [`Status::RateLimited`] without touching the queue;
//! * every admitted request can carry a wall-clock deadline anchored at
//!   admission (so queueing delay counts), enforced by the VM at `GcCheck`
//!   safe points as a typed [`Status::DeadlineExceeded`];
//! * connections are defended: frames must complete within
//!   [`ServerConfig::frame_timeout`] (slowloris), idle connections get a
//!   typed [`Status::Closed`] response, response writes time out
//!   ([`ServerConfig::write_timeout`]) so a never-draining peer cannot
//!   pin a worker, and a peer that dies mid-frame is reaped silently;
//! * [`ServerHandle::drain`] stops admission, answers every
//!   queued-but-unstarted request with `Overloaded`, and waits (bounded)
//!   for in-flight requests to finish — zero in-flight drops.

use crate::wire::{self, Request, Response, Status};
use kit::{Compiler, Error, PreparedProgram, VmError};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Per-tenant token-bucket rate limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained requests per second per tenant.
    pub rps: f64,
    /// Burst capacity in requests (bucket size; buckets start full).
    pub burst: f64,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Size of the worker pool (defaults to the machine's parallelism).
    pub workers: usize,
    /// Admission-queue bound: requests beyond this depth are shed with a
    /// typed `Overloaded` response instead of silently degrading p99 for
    /// everyone already admitted. Shedding is by tenant share: an arrival
    /// whose tenant already holds the largest share of the queue is shed;
    /// otherwise the *newest queued* request of the largest-share tenant
    /// is, and the arrival takes its place. A hog floods itself out of
    /// the queue while polite tenants keep getting admitted; a queue
    /// holding one tenant's traffic sheds the arrival.
    pub queue_cap: usize,
    /// Per-tenant token bucket; `None` disables rate limiting.
    pub rate_limit: Option<RateLimit>,
    /// Wall-clock deadline applied to requests that do not carry their
    /// own `deadline_ms`; also what bounds how long a drain can take.
    /// `None` imposes no default.
    pub default_deadline_ms: Option<u64>,
    /// A connection with no frame activity for this long is answered
    /// with a typed `Closed` response and dropped.
    pub idle_timeout: Duration,
    /// Once a frame's first byte has arrived the whole frame must arrive
    /// within this budget, or the connection is closed (`Closed`
    /// response) — a slowloris writer trickling one byte per idle window
    /// cannot hold a reader forever.
    pub frame_timeout: Duration,
    /// Budget for writing one response; a stalled reader (never-draining
    /// socket) fails the write, marks the connection dead and frees the
    /// worker.
    pub write_timeout: Duration,
}

/// How long [`ServerHandle::shutdown`] waits for in-flight requests
/// before giving up on the remaining workers.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Bound on the compile cache: once this many distinct programs are
/// cached, further misses compile per-request instead of inserting, so a
/// tenant flooding unique sources cannot grow memory without bound.
const COMPILE_CACHE_CAP: usize = 1024;

/// Backoff advice while draining: long enough that a retry lands after a
/// typical restart (the drain timeout).
const DRAIN_RETRY_MS: u32 = DRAIN_TIMEOUT.as_millis() as u32;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: thread::available_parallelism().map_or(4, usize::from),
            queue_cap: 1024,
            rate_limit: None,
            default_deadline_ms: None,
            idle_timeout: Duration::from_secs(60),
            frame_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Per-worker execution counters (relaxed; read for reporting only).
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Requests this worker completed.
    pub requests: AtomicU64,
    /// Total collector nanoseconds across this worker's requests.
    pub gc_time_ns: AtomicU64,
}

/// Server-wide overload counters (relaxed; read for reporting only).
#[derive(Debug, Default)]
pub struct OverloadStats {
    /// Requests shed at admission with `Overloaded` (full queue, queue
    /// eviction, or drain).
    pub shed: AtomicU64,
    /// Requests refused with `RateLimited`.
    pub rate_limited: AtomicU64,
    /// Requests that breached their wall-clock deadline mid-execution.
    pub deadline_exceeded: AtomicU64,
    /// Connections closed for idling or stalling mid-frame.
    pub closed: AtomicU64,
    /// High-watermark of the admission queue depth.
    pub queue_depth_max: AtomicUsize,
}

/// The per-connection writer: one lock so responses never interleave
/// bytes, one sticky `dead` flag so a failed write (stalled reader, gone
/// peer) stops all further writes instead of poisoning workers.
struct ConnWriter {
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
}

/// Ignore lock poisoning: a panicking writer must not take the other
/// workers down with a poisoned per-connection lock.
fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl ConnWriter {
    /// Writes one response frame; on failure the connection is marked
    /// dead and shut down so the reader side unblocks too.
    fn write(&self, resp: &Response) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut w = relock(self.stream.lock());
        let r = wire::write_response(&mut *w, resp).and_then(|()| w.flush());
        if r.is_err() {
            self.dead.store(true, Ordering::Relaxed);
            let _ = w.shutdown(Shutdown::Both);
        }
    }
}

/// One queued request plus where its response goes.
struct Job {
    req: Request,
    /// Tenant key (explicit id hashed, or hashed client IP).
    tenant: u64,
    /// Wall-clock deadline anchored at admission; `None` is unbounded.
    deadline: Option<Instant>,
    /// Queue depth observed at admission (reported in the response).
    depth: u32,
    out: Arc<ConnWriter>,
}

/// The admission queue plus the per-tenant share books tenant-share
/// shedding needs.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// tenant key → queued (not yet started) requests.
    shares: HashMap<u64, usize>,
}

impl Queue {
    fn push(&mut self, job: Job) {
        *self.shares.entry(job.tenant).or_insert(0) += 1;
        self.jobs.push_back(job);
    }

    fn pop(&mut self) -> Option<Job> {
        let job = self.jobs.pop_front()?;
        self.unshare(job.tenant);
        Some(job)
    }

    fn unshare(&mut self, tenant: u64) {
        if let Some(n) = self.shares.get_mut(&tenant) {
            *n -= 1;
            if *n == 0 {
                self.shares.remove(&tenant);
            }
        }
    }

    /// Removes the newest queued job of the tenant holding the largest
    /// queue share (ties: larger tenant key, so the choice is
    /// deterministic).
    fn evict_largest_share(&mut self) -> Option<Job> {
        let (&tenant, _) = self.shares.iter().max_by_key(|(&tenant, &n)| (n, tenant))?;
        let idx = self.jobs.iter().rposition(|j| j.tenant == tenant)?;
        let job = self.jobs.remove(idx)?;
        self.unshare(tenant);
        Some(job)
    }
}

type CacheKey = (u8, String);

struct Shared {
    config: ServerConfig,
    queue: Mutex<Queue>,
    available: Condvar,
    /// Set by drain/shutdown: stop admitting and stop starting queued
    /// work. Workers finish their in-flight request and exit.
    shutdown: AtomicBool,
    /// Compile-once cache: successful compilations only, so a tenant
    /// retrying a bad program does not pin garbage in the cache.
    cache: Mutex<HashMap<CacheKey, Arc<PreparedProgram>>>,
    workers: Vec<WorkerStats>,
    overload: OverloadStats,
    /// Token buckets, keyed like queue shares.
    buckets: Mutex<HashMap<u64, Bucket>>,
    /// Open reader connections (a leak probe's gauge).
    open_conns: AtomicUsize,
    /// Workers that have exited, for the bounded drain join and the
    /// live-worker leak probe.
    exited: Mutex<usize>,
    exited_cv: Condvar,
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            config,
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the acceptor and the worker pool; returns a handle for
    /// shutdown and stats.
    pub fn spawn(self) -> ServerHandle {
        let addr = self
            .listener
            .local_addr()
            .expect("bound listener has an address");
        let workers = self.config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache: Mutex::new(HashMap::new()),
            workers: (0..workers).map(|_| WorkerStats::default()).collect(),
            overload: OverloadStats::default(),
            buckets: Mutex::new(HashMap::new()),
            open_conns: AtomicUsize::new(0),
            exited: Mutex::new(0),
            exited_cv: Condvar::new(),
            config: self.config,
        });

        // A stack overflow aborts the process — `catch_unwind` never sees
        // it — so a worker's stack is sized for the deepest program the
        // compiler admits, in the build that needs most: the elaborator at
        // `kit_syntax::parser::MAX_NESTING` in a debug build, 23 MB (the
        // passes behind it, at `kit::MAX_NESTING`, 13.5 MB). Reserved
        // address space; only the pages a compile reaches are touched.
        const WORKER_STACK_BYTES: usize = 32 << 20;
        let mut pool = Vec::with_capacity(workers);
        for id in 0..workers {
            let shared = Arc::clone(&shared);
            pool.push(
                thread::Builder::new()
                    .name(format!("kit-serve-worker-{id}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || {
                        worker_loop(&shared, id as u32);
                        let mut exited = relock(shared.exited.lock());
                        *exited += 1;
                        shared.exited_cv.notify_all();
                    })
                    .expect("spawn worker"),
            );
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("kit-serve-acceptor".to_string())
                .spawn(move || acceptor_loop(&self.listener, &shared))
                .expect("spawn acceptor")
        };

        ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            pool,
        }
    }
}

/// What a [`ServerHandle::drain`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Queued-but-unstarted requests answered `Overloaded`.
    pub answered_overloaded: usize,
    /// Whether every worker finished its in-flight request and exited
    /// within the drain timeout.
    pub drained: bool,
}

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    pool: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of per-worker counters: `(requests, gc_time_ns)`.
    pub fn worker_stats(&self) -> Vec<(u64, u64)> {
        self.shared
            .workers
            .iter()
            .map(|w| {
                (
                    w.requests.load(Ordering::Relaxed),
                    w.gc_time_ns.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Snapshot of the overload counters:
    /// `(shed, rate_limited, deadline_exceeded, closed, queue_depth_max)`.
    pub fn overload_stats(&self) -> (u64, u64, u64, u64, usize) {
        let o = &self.shared.overload;
        (
            o.shed.load(Ordering::Relaxed),
            o.rate_limited.load(Ordering::Relaxed),
            o.deadline_exceeded.load(Ordering::Relaxed),
            o.closed.load(Ordering::Relaxed),
            o.queue_depth_max.load(Ordering::Relaxed),
        )
    }

    /// Live worker threads (the chaos leg's leak probe: must equal the
    /// configured pool size for the server's whole life).
    pub fn live_workers(&self) -> usize {
        self.shared.workers.len() - *relock(self.shared.exited.lock())
    }

    /// Open reader connections (gauge; settles to 0 when all peers are
    /// gone).
    pub fn open_connections(&self) -> usize {
        self.shared.open_conns.load(Ordering::SeqCst)
    }

    /// Entries in the compile cache (the chaos leg's memory probe:
    /// malformed/shed traffic must not grow it).
    pub fn cache_size(&self) -> usize {
        relock(self.shared.cache.lock()).len()
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        relock(self.shared.queue.lock()).jobs.len()
    }

    /// Blocks until the acceptor exits (i.e. until [`shutdown`] is
    /// called from another thread, or the listener fails).
    ///
    /// [`shutdown`]: ServerHandle::shutdown
    pub fn join_acceptor(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }

    /// Graceful drain: stop accepting connections and starting queued
    /// work, answer every queued-but-unstarted request with a typed
    /// `Overloaded`, and wait up to `timeout` for the in-flight requests
    /// to finish. In-flight requests are never dropped — they either
    /// complete within the timeout (`drained: true`) or keep running on
    /// detached workers (`drained: false`; a configured
    /// [`ServerConfig::default_deadline_ms`] bounds how long that can
    /// last).
    pub fn drain(mut self, timeout: Duration) -> DrainReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept` with a throwaway
        // connection, and the workers' condvar wait with a broadcast.
        let _ = TcpStream::connect(self.addr);
        self.shared.available.notify_all();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }

        // Workers saw the flag before popping, so everything still
        // queued is ours to answer.
        let unstarted: Vec<Job> = {
            let mut q = relock(self.shared.queue.lock());
            let jobs = std::mem::take(&mut q.jobs);
            q.shares.clear();
            jobs.into()
        };
        let answered_overloaded = unstarted.len();
        for job in unstarted {
            self.shared.overload.shed.fetch_add(1, Ordering::Relaxed);
            job.out.write(&shed_response(
                job.req.req_id,
                Status::Overloaded,
                DRAIN_RETRY_MS,
                job.depth,
                "server draining; request was not started".to_string(),
            ));
        }

        // Bounded join: workers exit after finishing their in-flight
        // request.
        let deadline = Instant::now() + timeout;
        let mut exited = relock(self.shared.exited.lock());
        let drained = loop {
            if *exited == self.pool.len() {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            let (g, _) = self
                .shared
                .exited_cv
                .wait_timeout(exited, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            exited = g;
        };
        drop(exited);
        if drained {
            for h in self.pool.drain(..) {
                let _ = h.join();
            }
        }
        DrainReport {
            answered_overloaded,
            drained,
        }
    }

    /// Stops the server via a graceful [`drain`] bounded by
    /// `DRAIN_TIMEOUT` (5 s).
    ///
    /// [`drain`]: ServerHandle::drain
    pub fn shutdown(self) -> DrainReport {
        self.drain(DRAIN_TIMEOUT)
    }
}

/// Backoff advice when shedding: roughly the time the current queue
/// takes to drain at ~1ms/request across the pool, clamped to something
/// a client can act on.
fn retry_after_ms(depth: usize, workers: usize) -> u32 {
    (depth / workers.max(1)).clamp(10, 2000) as u32
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => break,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Responses are single small frames; Nagle would hold each one
        // back until the client acknowledges the previous.
        let _ = stream.set_nodelay(true);
        let shared = Arc::clone(shared);
        let _ = thread::Builder::new()
            .name("kit-serve-conn".to_string())
            .spawn(move || {
                shared.open_conns.fetch_add(1, Ordering::SeqCst);
                connection_loop(stream, &shared);
                shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            });
    }
}

/// One frame-read attempt with the connection-hygiene timeouts applied.
enum FrameRead {
    Frame(Vec<u8>),
    /// No frame started within the idle window.
    Idle,
    /// A frame started but did not complete within the frame budget
    /// (slowloris or a stalled writer).
    Stalled,
    /// Peer is gone (clean close or death mid-frame) — reap silently.
    Disconnect,
    /// Framing is broken (oversized length, decode failure upstream).
    Malformed(io::Error),
    /// The server is shutting down.
    ShuttingDown,
}

/// Reads `buf` fully, returning how the read ended. The socket carries a
/// short read timeout (set in [`connection_loop`]) so this loop can
/// observe idle/stall budgets and the shutdown flag between chunks.
/// `started` is the first-byte instant of the current frame, shared
/// between the prefix and body reads so the budget covers the whole
/// frame.
fn read_full(
    reader: &mut TcpStream,
    shared: &Shared,
    buf: &mut [u8],
    started: &mut Option<Instant>,
    opened: Instant,
) -> Result<(), FrameRead> {
    let mut at = 0;
    while at < buf.len() {
        match reader.read(&mut buf[at..]) {
            Ok(0) => return Err(FrameRead::Disconnect),
            Ok(n) => {
                started.get_or_insert_with(Instant::now);
                at += n;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Err(FrameRead::ShuttingDown);
                }
                match *started {
                    None if opened.elapsed() >= shared.config.idle_timeout => {
                        return Err(FrameRead::Idle)
                    }
                    Some(t0) if t0.elapsed() >= shared.config.frame_timeout => {
                        return Err(FrameRead::Stalled)
                    }
                    _ => {}
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(FrameRead::Disconnect),
        }
    }
    Ok(())
}

/// Reads one frame under the idle/stall budgets.
fn read_frame_guarded(reader: &mut TcpStream, shared: &Shared, opened: Instant) -> FrameRead {
    let mut started = None;
    let mut len = [0u8; 4];
    if let Err(end) = read_full(reader, shared, &mut len, &mut started, opened) {
        return end;
    }
    let len = u32::from_le_bytes(len);
    if len > wire::MAX_FRAME {
        return FrameRead::Malformed(io::Error::new(
            ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    if let Err(end) = read_full(reader, shared, &mut buf, &mut started, opened) {
        return end;
    }
    FrameRead::Frame(buf)
}

/// Reads frames off one connection, admits them (shedding at admission
/// when the queue is full or the tenant is over its rate), and reaps the
/// connection on idle/stall/disconnect. A malformed frame gets a
/// `BadRequest` response and closes the connection (framing is lost); a
/// sound frame with an unknown dispatch byte gets one and stays open.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let peer = stream.peer_addr().ok();
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // Short tick so idle/stall budgets and shutdown are observed
    // promptly; the real budgets are enforced in `read_full`.
    let tick = shared
        .config
        .idle_timeout
        .min(shared.config.frame_timeout)
        .min(Duration::from_millis(100));
    let _ = reader.set_read_timeout(Some(tick.max(Duration::from_millis(1))));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let out = Arc::new(ConnWriter {
        stream: Mutex::new(stream),
        dead: AtomicBool::new(false),
    });
    let mut opened = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || out.dead.load(Ordering::Relaxed) {
            break;
        }
        let req = match read_frame_guarded(&mut reader, shared, opened) {
            FrameRead::Frame(payload) => match wire::decode_request(&payload) {
                Ok(req) => req,
                Err(wire::DecodeError::UnknownDispatch { req_id }) => {
                    // A sound frame naming an engine this server lacks:
                    // refused before admission (the cache never sees it)
                    // and the connection carries on.
                    out.write(&error_response(
                        req_id,
                        Status::BadRequest,
                        u32::MAX,
                        wire::UNKNOWN_DISPATCH.to_string(),
                    ));
                    opened = Instant::now();
                    continue;
                }
                Err(wire::DecodeError::Malformed(e)) => {
                    // The frame decoded badly; the req_id may be
                    // unrecoverable, so answer with id 0 and drop the
                    // connection.
                    out.write(&error_response(
                        0,
                        Status::BadRequest,
                        u32::MAX,
                        format!("bad request: {e}"),
                    ));
                    break;
                }
            },
            FrameRead::Malformed(e) => {
                out.write(&error_response(
                    0,
                    Status::BadRequest,
                    u32::MAX,
                    format!("bad request: {e}"),
                ));
                break;
            }
            FrameRead::Idle => {
                shared.overload.closed.fetch_add(1, Ordering::Relaxed);
                out.write(&error_response(
                    0,
                    Status::Closed,
                    u32::MAX,
                    "idle connection closed".to_string(),
                ));
                break;
            }
            FrameRead::Stalled => {
                shared.overload.closed.fetch_add(1, Ordering::Relaxed);
                out.write(&error_response(
                    0,
                    Status::Closed,
                    u32::MAX,
                    "frame stalled mid-read".to_string(),
                ));
                break;
            }
            FrameRead::Disconnect | FrameRead::ShuttingDown => break,
        };
        admit(shared, req, peer, &out);
        opened = Instant::now(); // restart the idle window per frame
    }
    // Dropping `out` (once queued jobs finish) closes the stream.
    let _ = reader.shutdown(Shutdown::Read);
}

/// Tenant key: the explicit request tenant id, or the client IP (not
/// port: a flooder opening many connections is still one tenant).
fn tenant_key(req: &Request, peer: Option<SocketAddr>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    if req.tenant.is_empty() {
        match peer {
            Some(addr) => addr.ip().hash(&mut h),
            None => 0u8.hash(&mut h),
        }
    } else {
        req.tenant.hash(&mut h);
    }
    h.finish()
}

/// Admission: rate limit first (cheapest, no shared queue contention),
/// then the bounded queue with the configured shed policy. Every refusal
/// is a typed response — nothing is silently dropped.
fn admit(shared: &Arc<Shared>, req: Request, peer: Option<SocketAddr>, out: &Arc<ConnWriter>) {
    let tenant = tenant_key(&req, peer);
    let workers = shared.workers.len();

    if shared.shutdown.load(Ordering::SeqCst) {
        shared.overload.shed.fetch_add(1, Ordering::Relaxed);
        out.write(&shed_response(
            req.req_id,
            Status::Overloaded,
            DRAIN_RETRY_MS,
            0,
            "server draining".to_string(),
        ));
        return;
    }

    if let Some(limit) = shared.config.rate_limit {
        if let Some(wait_ms) = take_token(shared, tenant, limit) {
            shared.overload.rate_limited.fetch_add(1, Ordering::Relaxed);
            out.write(&shed_response(
                req.req_id,
                Status::RateLimited,
                wait_ms,
                0,
                format!("tenant over {} req/s", limit.rps),
            ));
            return;
        }
    }

    let admitted = Instant::now();
    let deadline_ms = req.deadline_ms.or(shared.config.default_deadline_ms);
    let deadline = deadline_ms.map(|ms| admitted + Duration::from_millis(ms));

    let mut q = relock(shared.queue.lock());
    let depth = q.jobs.len();
    let mut evicted = None;
    if depth >= shared.config.queue_cap {
        let max_share = q.shares.values().copied().max().unwrap_or(0);
        let my_share = q.shares.get(&tenant).copied().unwrap_or(0);
        // The newcomer is shed only if it already holds (at least) the
        // largest share — always so in a one-tenant queue; otherwise the
        // hog loses its newest queued request to make room.
        let shed_incoming = if my_share + 1 > max_share {
            true
        } else {
            evicted = q.evict_largest_share();
            evicted.is_none()
        };
        if shed_incoming {
            drop(q);
            shared.overload.shed.fetch_add(1, Ordering::Relaxed);
            out.write(&shed_response(
                req.req_id,
                Status::Overloaded,
                retry_after_ms(depth, workers),
                depth as u32,
                format!("admission queue full ({depth} queued)"),
            ));
            return;
        }
    }
    let depth_at_admission = q.jobs.len() as u32;
    q.push(Job {
        req,
        tenant,
        deadline,
        depth: depth_at_admission,
        out: Arc::clone(out),
    });
    shared
        .overload
        .queue_depth_max
        .fetch_max(q.jobs.len(), Ordering::Relaxed);
    drop(q);
    shared.available.notify_one();
    if let Some(victim) = evicted {
        shared.overload.shed.fetch_add(1, Ordering::Relaxed);
        victim.out.write(&shed_response(
            victim.req.req_id,
            Status::Overloaded,
            retry_after_ms(depth, workers),
            depth as u32,
            "evicted by tenant-share shedding (largest queue share)".to_string(),
        ));
    }
}

/// Takes one token from the tenant's bucket; returns the backoff advice
/// in milliseconds if the bucket is empty.
fn take_token(shared: &Shared, tenant: u64, limit: RateLimit) -> Option<u32> {
    let rps = limit.rps.max(1e-6);
    let burst = limit.burst.max(1.0);
    let now = Instant::now();
    let mut buckets = relock(shared.buckets.lock());
    let bucket = buckets.entry(tenant).or_insert(Bucket {
        tokens: burst,
        last: now,
    });
    bucket.tokens =
        (bucket.tokens + now.duration_since(bucket.last).as_secs_f64() * rps).min(burst);
    bucket.last = now;
    if bucket.tokens >= 1.0 {
        bucket.tokens -= 1.0;
        None
    } else {
        Some(
            (((1.0 - bucket.tokens) / rps) * 1e3)
                .ceil()
                .clamp(1.0, 60_000.0) as u32,
        )
    }
}

fn worker_loop(shared: &Arc<Shared>, id: u32) {
    loop {
        let job = {
            let mut q = relock(shared.queue.lock());
            loop {
                // Checked before popping: a drain answers everything
                // still queued, so a worker must not race it for jobs.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = q.pop() {
                    break job;
                }
                q = shared
                    .available
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let resp = execute(shared, id, &job);
        let stats = &shared.workers[id as usize];
        stats.requests.fetch_add(1, Ordering::Relaxed);
        stats
            .gc_time_ns
            .fetch_add(resp.gc_time_ns, Ordering::Relaxed);
        if resp.status == Status::DeadlineExceeded {
            shared
                .overload
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
        }
        job.out.write(&resp);
    }
}

fn error_response(req_id: u64, status: Status, worker: u32, result: String) -> Response {
    Response {
        req_id,
        status,
        worker,
        retry_after_ms: 0,
        queue_depth: 0,
        instructions: 0,
        gc_count: 0,
        gc_copied_words: 0,
        gc_time_ns: 0,
        peak_bytes: 0,
        result,
        output: String::new(),
    }
}

fn shed_response(
    req_id: u64,
    status: Status,
    retry_after_ms: u32,
    queue_depth: u32,
    result: String,
) -> Response {
    Response {
        retry_after_ms,
        queue_depth,
        ..error_response(req_id, status, u32::MAX, result)
    }
}

/// Looks the program up in the compile-once cache (compiling outside the
/// cache lock on a miss) and runs it on a fresh `Vm`/`Rt` under the
/// request's quotas and deadline.
fn execute(shared: &Shared, worker: u32, job: &Job) -> Response {
    let run = catch_unwind(AssertUnwindSafe(|| execute_inner(shared, worker, job)));
    match run {
        Ok(resp) => resp,
        Err(_) => error_response(
            job.req.req_id,
            Status::UncaughtException,
            worker,
            "internal error: execution panicked".to_string(),
        ),
    }
}

fn execute_inner(shared: &Shared, worker: u32, job: &Job) -> Response {
    let req = &job.req;
    // A request whose deadline passed while it sat in the queue is
    // answered without compiling or running anything — the VM would
    // fail at its first safe point anyway; this is the same typed
    // outcome minus the wasted work.
    if let Some(deadline) = job.deadline {
        if Instant::now() >= deadline {
            let mut resp = error_response(
                req.req_id,
                Status::DeadlineExceeded,
                worker,
                "wall-clock deadline exceeded".to_string(),
            );
            resp.queue_depth = job.depth;
            return resp;
        }
    }

    let mut compiler = Compiler::new(req.mode);
    if let Some(fuel) = req.fuel {
        compiler = compiler.with_fuel(fuel);
    }
    if let Some(pages) = req.max_heap_pages {
        compiler = compiler.with_max_heap_pages(pages);
    }
    if let Some(deadline) = job.deadline {
        compiler = compiler.with_deadline_at(deadline);
    }

    let key: CacheKey = (wire::mode_byte(req.mode), req.src.clone());
    let cached = relock(shared.cache.lock()).get(&key).cloned();
    let prep = match cached {
        Some(prep) => prep,
        None => match compiler.prepare_source(&req.src) {
            Ok(prep) => {
                let prep = Arc::new(prep);
                // Two workers may race to compile the same program; the
                // first insert wins so everyone shares one copy. A full
                // cache is left alone (bounded memory) — the request
                // still runs on its private copy.
                let mut cache = relock(shared.cache.lock());
                if cache.len() >= COMPILE_CACHE_CAP && !cache.contains_key(&key) {
                    drop(cache);
                    prep
                } else {
                    Arc::clone(cache.entry(key).or_insert(prep))
                }
            }
            Err(e) => {
                return error_response(req.req_id, Status::CompileError, worker, e.to_string())
            }
        },
    };

    let mut resp = match compiler.run_prepared(&prep) {
        Ok(out) => Response {
            req_id: req.req_id,
            status: Status::Ok,
            worker,
            retry_after_ms: 0,
            queue_depth: 0,
            instructions: out.instructions,
            gc_count: out.stats.gc_count,
            gc_copied_words: out.stats.gc_copied_words,
            gc_time_ns: out.stats.gc_time_ns,
            peak_bytes: out.stats.peak_bytes as u64,
            result: out.result,
            output: out.output,
        },
        Err(e) => {
            let status = match &e {
                Error::Run(VmError::OutOfFuel) => Status::OutOfFuel,
                Error::Run(VmError::QuotaExceeded { .. }) => Status::QuotaExceeded,
                Error::Run(VmError::DeadlineExceeded { .. }) => Status::DeadlineExceeded,
                Error::Run(VmError::UncaughtException { .. }) => Status::UncaughtException,
                Error::Compile(_) => Status::CompileError,
            };
            error_response(req.req_id, status, worker, e.to_string())
        }
    };
    resp.queue_depth = job.depth;
    resp
}
