//! The daemon: accept loop, per-connection framing, job dispatch.
//!
//! ## Threading model
//!
//! * One **accept thread** (the caller of [`Server::run`], or the thread
//!   [`Server::spawn`] creates) owns the listener.
//! * Two threads per client: a **reader** that decodes frames and
//!   dispatches them (so `Cancel` frames are seen while a job is still
//!   running), and a **writer** that owns all socket writes, draining one
//!   event channel — progress events, replies and errors, in arrival
//!   order. Replies are written the instant a job finishes; no socket
//!   timeout sits on the reply path.
//! * A fixed pool of **job runner threads** ([`fastbn_parallel::JobPool`])
//!   executes `Learn`/`Fit`/`Infer` jobs FIFO. Each job may open its own
//!   scoped worker team internally (the learners' own thread pools), so
//!   `runners` bounds *jobs in flight*, not total threads.
//!
//! ## Admission and cancellation
//!
//! The job queue is bounded: when `queue_capacity` jobs are already
//! waiting, new job requests are rejected immediately with a `Busy`
//! error rather than queued or blocked — the client owns the retry
//! policy. `Cancel` flips the target job's [`CancelToken`]; the learners
//! poll it at their deterministic safe points (per skeleton depth, per
//! applied search move) and between phases, so cancellation is prompt
//! but never tears a phase mid-way. A cancelled job answers with an
//! [`ErrorCode::Cancelled`] error and caches nothing.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use fastbn_core::{
    learn_structure_observed, DepthStats, LearnPhase, ProgressSink, StructureResult,
};
use fastbn_network::JoinTree;
use fastbn_parallel::{CancelToken, JobHandle, JobPool};

use fastbn_data::Dataset;

use crate::cache::{
    dataset_fingerprint, model_key, structure_key, ModelEntry, ServeCache, StructureEntry,
    DEFAULT_BUDGET_BYTES,
};
use crate::protocol::{
    kind, CancelReply, CancelRequest, DatasetPutReply, DatasetPutRequest, DatasetRef, ErrorCode,
    ErrorReply, FitReply, FitRequest, HealthReply, InferReply, InferRequest, JobPhase, LearnReply,
    LearnRequest, MetricsReply, ProgressEvent, StatsReply, WireDepthStats, WirePcStats,
    WireSearchStats,
};
use crate::wire::{encode_frame, Frame, FrameDecoder, PROTOCOL_VERSION};

/// How long the reader thread blocks in `read` before re-checking the
/// shutdown flag. Only shutdown responsiveness depends on it — replies
/// and events are written by the writer thread as they arrive.
const READ_SLICE: Duration = Duration::from_millis(25);

/// How long the accept loop sleeps between polls when no client is
/// connecting.
const ACCEPT_SLICE: Duration = Duration::from_millis(20);

/// Daemon tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Job runner threads — jobs in flight at once (min 1).
    pub runners: usize,
    /// Admitted-but-not-running jobs before `Busy` rejection (min 1).
    pub queue_capacity: usize,
    /// Structures, models and datasets retained per cache
    /// (least-recently-used evicted first).
    pub cache_capacity: usize,
    /// Per-cache byte budget: least-recently-used entries are evicted
    /// once a cache's estimated resident bytes exceed it.
    pub cache_budget_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            runners: 2,
            queue_capacity: 8,
            cache_capacity: 64,
            cache_budget_bytes: DEFAULT_BUDGET_BYTES,
        }
    }
}

impl ServeConfig {
    /// Set the job runner count.
    pub fn with_runners(mut self, runners: usize) -> Self {
        self.runners = runners;
        self
    }

    /// Set the admission-queue capacity.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Set the cache capacity (structures, models and datasets each).
    pub fn with_cache_capacity(mut self, cap: usize) -> Self {
        self.cache_capacity = cap;
        self
    }

    /// Set the per-cache byte budget.
    pub fn with_cache_budget_bytes(mut self, budget: usize) -> Self {
        self.cache_budget_bytes = budget;
        self
    }
}

/// Cumulative serving counters (all relaxed atomics — read for `Stats`).
#[derive(Default)]
struct Counters {
    jobs_accepted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
    busy_rejections: AtomicU64,
    learn_micros: AtomicU64,
    fit_micros: AtomicU64,
    infer_micros: AtomicU64,
    queries_answered: AtomicU64,
    moves_evaluated: AtomicU64,
    moves_pruned: AtomicU64,
    moves_carried: AtomicU64,
}

/// State shared by the accept loop, connection threads and job runners.
struct Shared {
    cfg: ServeConfig,
    pool: JobPool,
    cache: ServeCache,
    counters: Counters,
    start: Instant,
    shutdown: AtomicBool,
}

impl Shared {
    fn new(cfg: ServeConfig) -> Self {
        Self {
            pool: JobPool::new(cfg.runners, cfg.queue_capacity),
            cache: ServeCache::with_budget(cfg.cache_capacity, cfg.cache_budget_bytes),
            counters: Counters::default(),
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            cfg,
        }
    }

    /// Tally a finished learn's search-stage counters so `Stats` can
    /// report them without re-walking the caches.
    fn note_search_stats(&self, reply: &LearnReply) {
        if let Some(s) = &reply.search_stats {
            self.counters
                .moves_evaluated
                .fetch_add(s.moves_evaluated, Ordering::Relaxed);
            self.counters
                .moves_pruned
                .fetch_add(s.moves_pruned, Ordering::Relaxed);
            self.counters
                .moves_carried
                .fetch_add(s.moves_carried, Ordering::Relaxed);
        }
    }

    fn stats_reply(&self) -> StatsReply {
        let cache = self.cache.counters();
        // Engine picks live in the process-wide metrics registry — they
        // count every counting query in the process, not only the
        // daemon's own jobs (the registry is the source of truth the
        // `Metrics` frame exposes in full).
        let snap = fastbn_obs::global().snapshot();
        let pick = |name: &str| -> u64 {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        StatsReply {
            uptime_ms: self.start.elapsed().as_millis() as u64,
            jobs_accepted: self.counters.jobs_accepted.load(Ordering::Relaxed),
            jobs_completed: self.counters.jobs_completed.load(Ordering::Relaxed),
            jobs_cancelled: self.counters.jobs_cancelled.load(Ordering::Relaxed),
            busy_rejections: self.counters.busy_rejections.load(Ordering::Relaxed),
            structure_hits: cache.structure_hits,
            structure_misses: cache.structure_misses,
            model_hits: cache.model_hits,
            model_misses: cache.model_misses,
            learn_micros: self.counters.learn_micros.load(Ordering::Relaxed),
            fit_micros: self.counters.fit_micros.load(Ordering::Relaxed),
            infer_micros: self.counters.infer_micros.load(Ordering::Relaxed),
            queries_answered: self.counters.queries_answered.load(Ordering::Relaxed),
            moves_evaluated: self.counters.moves_evaluated.load(Ordering::Relaxed),
            moves_pruned: self.counters.moves_pruned.load(Ordering::Relaxed),
            moves_carried: self.counters.moves_carried.load(Ordering::Relaxed),
            engine_tiled_picks: pick("fastbn.stats.engine.tiled_picks"),
            engine_bitmap_picks: pick("fastbn.stats.engine.bitmap_picks"),
            dataset_hits: cache.dataset_hits,
            dataset_misses: cache.dataset_misses,
            cache_evictions: cache.evictions,
            cache_bytes: cache.bytes,
            simd_kernel: fastbn_stats::simd::active_tier() as u8,
            simd_scalar_fills: pick("fastbn.stats.simd.scalar_fills"),
            simd_avx2_fills: pick("fastbn.stats.simd.avx2_fills"),
            simd_avx512_fills: pick("fastbn.stats.simd.avx512_fills"),
            jobs_running: self.pool.running() as u32,
            jobs_queued: self.pool.queued() as u32,
        }
    }

    /// Resolve a request's dataset reference: inline datasets are
    /// fingerprinted on the spot; handles are looked up in the dataset
    /// cache (a miss is the client's signal to `DatasetPut` and retry).
    fn resolve_dataset(&self, dref: DatasetRef) -> Result<(u64, Arc<Dataset>), ErrorReply> {
        match dref {
            DatasetRef::Inline(data) => Ok((dataset_fingerprint(&data), Arc::new(data))),
            DatasetRef::Handle(fp) => match self.cache.get_dataset(fp) {
                Some(data) => Ok((fp, data)),
                None => Err(ErrorReply {
                    code: ErrorCode::UnknownDataset,
                    message: format!("no cached dataset {fp:#018x}"),
                }),
            },
        }
    }

    fn health_reply(&self) -> HealthReply {
        HealthReply {
            protocol_version: PROTOCOL_VERSION,
            uptime_ms: self.start.elapsed().as_millis() as u64,
            jobs_running: self.pool.running() as u32,
            jobs_queued: self.pool.queued() as u32,
            queue_capacity: self.cfg.queue_capacity as u32,
            busy_rejections: self.pool.busy_rejections(),
        }
    }
}

/// What a job sends back to its connection thread.
enum ConnEvent {
    /// A progress event to stream to the client.
    Progress(u32, ProgressEvent),
    /// The job's final reply frame: `(request_id, kind, payload)`.
    Reply(u32, u8, Vec<u8>),
    /// The job failed; send an error frame.
    Failure(u32, ErrorReply),
}

/// Bridges the learners' [`ProgressSink`] seam onto a connection's event
/// channel, and folds the job's [`CancelToken`] into every keep-going
/// answer. Called only from the job's coordinating thread, at the
/// learners' deterministic safe points.
struct JobSink {
    tx: Mutex<Sender<ConnEvent>>,
    request_id: u32,
    cancel: CancelToken,
}

impl JobSink {
    fn send(&self, event: ProgressEvent) {
        // A dead connection just means nobody is listening anymore; the
        // job still runs to completion (or until cancelled).
        let _ = self
            .tx
            .lock()
            .unwrap()
            .send(ConnEvent::Progress(self.request_id, event));
    }
}

impl ProgressSink for JobSink {
    fn on_phase(&self, phase: LearnPhase) {
        let phase = match phase {
            LearnPhase::Skeleton => JobPhase::Skeleton,
            LearnPhase::Orientation => JobPhase::Orientation,
            LearnPhase::Search => JobPhase::Search,
        };
        self.send(ProgressEvent::phase_entry(phase));
    }

    fn on_skeleton_depth(&self, stats: &DepthStats) -> bool {
        self.send(ProgressEvent {
            phase: JobPhase::Skeleton,
            iteration: stats.depth as u64,
            score: f64::NAN,
            ci_tests: stats.ci_tests,
            edges: stats.edges_removed as u64,
        });
        !self.cancel.is_cancelled()
    }

    fn on_search_iteration(&self, iteration: u64, score: f64) -> bool {
        self.send(ProgressEvent {
            phase: JobPhase::Search,
            iteration,
            score,
            ci_tests: 0,
            edges: 0,
        });
        !self.cancel.is_cancelled()
    }
}

/// A running daemon bound to a socket. Call [`Server::run`] to serve on
/// the current thread or [`Server::spawn`] to serve on a new one.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Join handle for a daemon started with [`Server::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The address the daemon is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the daemon to stop (same effect as a `Shutdown` frame) and
    /// wait for it to wind down.
    pub fn stop(self) -> io::Result<()> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("server thread panicked")))
    }

    /// Wait for the daemon to exit on its own (e.g. after a client sent
    /// `Shutdown`).
    pub fn join(self) -> io::Result<()> {
        self.thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("server thread panicked")))
    }
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            addr,
            shared: Arc::new(Shared::new(cfg)),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until a `Shutdown` frame arrives (or [`ServerHandle::stop`]
    /// is called on a spawned server). Blocks the calling thread.
    pub fn run(self) -> io::Result<()> {
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = self.shared.clone();
                    conns.push(thread::spawn(move || handle_conn(stream, shared)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_SLICE),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            conns.retain(|h| !h.is_finished());
        }
        // Stop accepting, let connection threads notice the flag, flush
        // their in-flight jobs and hang up.
        drop(self.listener);
        for conn in conns {
            let _ = conn.join();
        }
        Ok(())
    }

    /// Serve on a background thread; returns once the listener is live.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shared = self.shared.clone();
        let thread = thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shared,
            thread,
        }
    }
}

fn send_frame(stream: &mut TcpStream, kind: u8, request_id: u32, payload: &[u8]) -> io::Result<()> {
    let frame = encode_frame(kind, request_id, payload);
    stream.write_all(&frame)?;
    fastbn_obs::counter!("fastbn.serve.conn.bytes_out").add(frame.len() as u64);
    Ok(())
}

/// The in-flight job table, shared by the reader (inserts, cancels) and
/// the writer (removes once a job's final frame is written).
type Pending = Arc<Mutex<HashMap<u32, JobHandle>>>;

/// Serve one client until it hangs up, errors, or the daemon shuts down
/// with no replies left to flush.
fn handle_conn(mut stream: TcpStream, shared: Arc<Shared>) {
    // Guard, not paired calls: the function has several early returns
    // and the gauge must come back down on every one of them.
    struct ConnGauge;
    impl Drop for ConnGauge {
        fn drop(&mut self) {
            fastbn_obs::gauge!("fastbn.serve.conn.active").sub(1);
        }
    }
    fastbn_obs::gauge!("fastbn.serve.conn.active").add(1);
    let _conn_gauge = ConnGauge;
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_SLICE)).is_err() {
        return;
    }
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx): (Sender<ConnEvent>, Receiver<ConnEvent>) = channel();
    let pending: Pending = Arc::new(Mutex::new(HashMap::new()));
    let writer_pending = pending.clone();
    let writer = thread::spawn(move || write_loop(writer_stream, rx, writer_pending));

    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    'conn: loop {
        // On shutdown, hang up once nothing is left in flight (the
        // writer drains anything already queued before exiting).
        if shared.shutdown.load(Ordering::SeqCst) && pending.lock().unwrap().is_empty() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                fastbn_obs::counter!("fastbn.serve.conn.bytes_in").add(n as u64);
                decoder.feed(&buf[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(Some(frame)) => dispatch(&shared, &tx, &pending, frame),
                        Ok(None) => break,
                        Err(e) => {
                            // Framing is broken; nothing downstream can
                            // be trusted. Report and hang up.
                            fail(&tx, 0, ErrorCode::Malformed, e.to_string());
                            break 'conn;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }

    // The client is gone (or we are shutting down): nobody can read the
    // results, so stop the work.
    for handle in pending.lock().unwrap().values() {
        handle.cancel();
    }
    // Closing our channel end lets the writer exit once every running
    // job has dropped its own sender; buffered frames are still written.
    drop(tx);
    let _ = writer.join();
}

/// The writer thread: sole owner of socket writes. Blocks on the event
/// channel and writes each frame the moment it arrives; exits when every
/// sender is gone (reader closed + no job still running) or on a write
/// error.
fn write_loop(mut stream: TcpStream, rx: Receiver<ConnEvent>, pending: Pending) {
    while let Ok(event) = rx.recv() {
        let written = match event {
            ConnEvent::Progress(id, ev) => {
                send_frame(&mut stream, kind::EVENT_PROGRESS, id, &ev.encode())
            }
            ConnEvent::Reply(id, k, payload) => {
                pending.lock().unwrap().remove(&id);
                send_frame(&mut stream, k, id, &payload)
            }
            ConnEvent::Failure(id, err) => {
                pending.lock().unwrap().remove(&id);
                send_frame(&mut stream, kind::ERROR, id, &err.encode())
            }
        };
        if written.is_err() {
            // Keep draining so finished jobs still clear the pending
            // table (the reader keys its shutdown check on it).
            for leftover in rx.iter() {
                if let ConnEvent::Reply(id, _, _) | ConnEvent::Failure(id, _) = leftover {
                    pending.lock().unwrap().remove(&id);
                }
            }
            return;
        }
    }
}

fn reply(tx: &Sender<ConnEvent>, id: u32, kind: u8, payload: Vec<u8>) {
    let _ = tx.send(ConnEvent::Reply(id, kind, payload));
}

/// Handle one decoded frame on the reader thread. Everything written to
/// the socket goes through the writer's channel.
fn dispatch(shared: &Arc<Shared>, tx: &Sender<ConnEvent>, pending: &Pending, frame: Frame) {
    let id = frame.request_id;
    match frame.kind {
        kind::HEALTH => reply(tx, id, kind::HEALTH_OK, shared.health_reply().encode()),
        kind::STATS => reply(tx, id, kind::STATS_OK, shared.stats_reply().encode()),
        kind::METRICS => {
            let snap = fastbn_obs::global().snapshot();
            reply(
                tx,
                id,
                kind::METRICS_OK,
                MetricsReply::from_snapshot(&snap).encode(),
            );
        }
        kind::SHUTDOWN => {
            shared.shutdown.store(true, Ordering::SeqCst);
            reply(tx, id, kind::SHUTDOWN_OK, Vec::new());
        }
        // Answered inline: the upload already paid its cost on the wire;
        // fingerprinting + one map insert never needs a runner slot.
        kind::DATASET_PUT => match DatasetPutRequest::decode(&frame.payload) {
            Ok(req) => {
                if req.dataset.n_vars() < 2 {
                    fail(tx, id, ErrorCode::BadRequest, "need at least 2 variables");
                    return;
                }
                let n_vars = req.dataset.n_vars() as u32;
                let n_samples = req.dataset.n_samples() as u64;
                let (fingerprint, already_cached) = shared.cache.put_dataset(req.dataset);
                reply(
                    tx,
                    id,
                    kind::DATASET_PUT_OK,
                    DatasetPutReply {
                        fingerprint,
                        n_vars,
                        n_samples,
                        already_cached,
                    }
                    .encode(),
                );
            }
            Err(e) => fail(tx, id, ErrorCode::Malformed, e.to_string()),
        },
        kind::CANCEL => match CancelRequest::decode(&frame.payload) {
            Ok(req) => {
                let found = match pending.lock().unwrap().get(&req.target_request_id) {
                    Some(handle) => {
                        handle.cancel();
                        true
                    }
                    None => false,
                };
                reply(tx, id, kind::CANCEL_OK, CancelReply { found }.encode());
            }
            Err(e) => fail(tx, id, ErrorCode::Malformed, e.to_string()),
        },
        kind::LEARN => match LearnRequest::decode(&frame.payload) {
            Ok(req) => {
                let shared_job = shared.clone();
                let tx_job = tx.clone();
                submit_job(shared, tx, pending, id, move |cancel| {
                    run_learn(&shared_job, &tx_job, id, cancel, req)
                });
            }
            Err(e) => fail(tx, id, ErrorCode::Malformed, e.to_string()),
        },
        kind::FIT => match FitRequest::decode(&frame.payload) {
            Ok(req) => {
                let shared_job = shared.clone();
                let tx_job = tx.clone();
                submit_job(shared, tx, pending, id, move |cancel| {
                    run_fit(&shared_job, &tx_job, id, cancel, req)
                });
            }
            Err(e) => fail(tx, id, ErrorCode::Malformed, e.to_string()),
        },
        kind::INFER => match InferRequest::decode(&frame.payload) {
            Ok(req) => {
                let shared_job = shared.clone();
                let tx_job = tx.clone();
                submit_job(shared, tx, pending, id, move |cancel| {
                    run_infer(&shared_job, &tx_job, id, cancel, req)
                });
            }
            Err(e) => fail(tx, id, ErrorCode::Malformed, e.to_string()),
        },
        other => fail(
            tx,
            id,
            ErrorCode::Malformed,
            format!("unknown frame kind 0x{other:02X}"),
        ),
    }
}

/// Admission control: reject with `ShuttingDown`/`Busy` instead of
/// queueing unboundedly.
fn submit_job(
    shared: &Arc<Shared>,
    tx: &Sender<ConnEvent>,
    pending: &Pending,
    id: u32,
    job: impl FnOnce(&CancelToken) + Send + 'static,
) {
    if shared.shutdown.load(Ordering::SeqCst) {
        fail(tx, id, ErrorCode::ShuttingDown, "daemon is shutting down");
        return;
    }
    let shared_run = shared.clone();
    let tx_run = tx.clone();
    let pending_run = pending.clone();
    let wrapped = move |cancel: &CancelToken| {
        // A panicking job must not take its runner thread (or the
        // daemon) down with it, nor leave its caller waiting. A job's
        // final frame is its last act, so a panic means none was sent:
        // answer `Internal` in its place and drop the pending entry.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(cancel))) {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            fastbn_obs::counter!("fastbn.serve.jobs.panicked").inc();
            pending_run
                .lock()
                .expect("pending table lock poisoned")
                .remove(&id);
            fail(
                &tx_run,
                id,
                ErrorCode::Internal,
                format!("job panicked: {what}"),
            );
        }
        shared_run
            .counters
            .jobs_completed
            .fetch_add(1, Ordering::Relaxed);
    };
    // Insert before submit: a fast job must find its own entry in the
    // table (the writer removes it when the final frame goes out).
    let mut table = pending.lock().unwrap();
    match shared.pool.submit(wrapped) {
        Ok(handle) => {
            shared
                .counters
                .jobs_accepted
                .fetch_add(1, Ordering::Relaxed);
            table.insert(id, handle);
        }
        Err(_) => {
            drop(table);
            shared
                .counters
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            fail(tx, id, ErrorCode::Busy, "admission queue is full");
        }
    }
}

fn fail(tx: &Sender<ConnEvent>, id: u32, code: ErrorCode, message: impl Into<String>) {
    let _ = tx.send(ConnEvent::Failure(
        id,
        ErrorReply {
            code,
            message: message.into(),
        },
    ));
}

/// Convert the learner's output into the wire reply.
fn build_learn_reply(key: u64, result: &StructureResult) -> LearnReply {
    let as_u32 = |edges: Vec<(usize, usize)>| -> Vec<(u32, u32)> {
        edges
            .into_iter()
            .map(|(u, v)| (u as u32, v as u32))
            .collect()
    };
    LearnReply {
        structure_key: key,
        cache_hit: false,
        n_vars: result.cpdag.n() as u32,
        directed_edges: as_u32(result.cpdag.directed_edges()),
        undirected_edges: as_u32(result.cpdag.undirected_edges()),
        dag_edges: result.dag.as_ref().map(|d| as_u32(d.edges())),
        score: result.score,
        pc_stats: result.pc_stats.as_ref().map(|s| WirePcStats {
            depths: s
                .depths
                .iter()
                .map(|d| WireDepthStats {
                    depth: d.depth as u32,
                    edges_at_start: d.edges_at_start as u32,
                    edges_removed: d.edges_removed as u32,
                    ci_tests: d.ci_tests,
                    micros: d.duration.as_micros() as u64,
                })
                .collect(),
            skeleton_micros: s.skeleton_duration.as_micros() as u64,
            orientation_micros: s.orientation_duration.as_micros() as u64,
        }),
        search_stats: result.search_stats.as_ref().map(|s| WireSearchStats {
            iterations: s.iterations,
            restarts: s.restarts,
            moves_evaluated: s.moves_evaluated,
            moves_pruned: s.moves_pruned,
            moves_carried: s.moves_carried,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            micros: s.duration.as_micros() as u64,
        }),
    }
}

/// Learn (or replay) a structure; caches only complete, uncancelled
/// results so a cache entry is always bitwise equal to a fresh run.
fn run_learn(
    shared: &Arc<Shared>,
    tx: &Sender<ConnEvent>,
    id: u32,
    cancel: &CancelToken,
    req: LearnRequest,
) {
    let t0 = Instant::now();
    let (fp, dataset) = match shared.resolve_dataset(req.dataset) {
        Ok(resolved) => resolved,
        Err(err) => {
            let _ = tx.send(ConnEvent::Failure(id, err));
            return;
        }
    };
    if dataset.n_vars() < 2 {
        fail(tx, id, ErrorCode::BadRequest, "need at least 2 variables");
        return;
    }
    let key = structure_key(fp, &req.strategy.canonical_bytes());
    if let Some(entry) = shared.cache.get_structure(key) {
        let mut reply = entry.reply.clone();
        reply.cache_hit = true;
        let _ = tx.send(ConnEvent::Reply(id, kind::LEARN_OK, reply.encode()));
        return;
    }
    let sink = JobSink {
        tx: Mutex::new(tx.clone()),
        request_id: id,
        cancel: cancel.clone(),
    };
    let strategy = req.strategy.to_strategy();
    let result = learn_structure_observed(&*dataset, &strategy, &sink);
    if cancel.is_cancelled() {
        shared
            .counters
            .jobs_cancelled
            .fetch_add(1, Ordering::Relaxed);
        fail(tx, id, ErrorCode::Cancelled, "learn cancelled");
        return;
    }
    let reply = build_learn_reply(key, &result);
    shared.note_search_stats(&reply);
    shared.cache.put_structure(
        key,
        StructureEntry {
            reply: reply.clone(),
            result,
        },
    );
    shared
        .counters
        .learn_micros
        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
    fastbn_obs::histogram!("fastbn.serve.request.learn_us").observe_duration(t0.elapsed());
    let _ = tx.send(ConnEvent::Reply(id, kind::LEARN_OK, reply.encode()));
}

/// Learn-if-needed, fit CPTs, calibrate a junction tree, cache the
/// model. Reuses the structure cache so `Learn` + `Fit` of the same
/// request pair never learns twice.
fn run_fit(
    shared: &Arc<Shared>,
    tx: &Sender<ConnEvent>,
    id: u32,
    cancel: &CancelToken,
    req: FitRequest,
) {
    let t0 = Instant::now();
    let (fp, dataset) = match shared.resolve_dataset(req.dataset) {
        Ok(resolved) => resolved,
        Err(err) => {
            let _ = tx.send(ConnEvent::Failure(id, err));
            return;
        }
    };
    if dataset.n_vars() < 2 {
        fail(tx, id, ErrorCode::BadRequest, "need at least 2 variables");
        return;
    }
    let skey = structure_key(fp, &req.strategy.canonical_bytes());
    let mkey = model_key(skey, req.smoothing);
    if let Some(model) = shared.cache.get_model(mkey) {
        let mut reply = model.reply;
        reply.cache_hit = true;
        let _ = tx.send(ConnEvent::Reply(id, kind::FIT_OK, reply.encode()));
        return;
    }
    let sink = JobSink {
        tx: Mutex::new(tx.clone()),
        request_id: id,
        cancel: cancel.clone(),
    };
    let structure = match shared.cache.get_structure(skey) {
        Some(entry) => entry,
        None => {
            let result = learn_structure_observed(&*dataset, &req.strategy.to_strategy(), &sink);
            if cancel.is_cancelled() {
                shared
                    .counters
                    .jobs_cancelled
                    .fetch_add(1, Ordering::Relaxed);
                fail(tx, id, ErrorCode::Cancelled, "fit cancelled during learn");
                return;
            }
            let reply = build_learn_reply(skey, &result);
            shared.note_search_stats(&reply);
            shared
                .cache
                .put_structure(skey, StructureEntry { reply, result })
        }
    };
    sink.send(ProgressEvent::phase_entry(JobPhase::Fit));
    let t_fit = Instant::now();
    let net = structure.result.fit(&dataset, req.smoothing, "served");
    let fit_micros = t_fit.elapsed().as_micros() as u64;
    if cancel.is_cancelled() {
        shared
            .counters
            .jobs_cancelled
            .fetch_add(1, Ordering::Relaxed);
        fail(tx, id, ErrorCode::Cancelled, "fit cancelled");
        return;
    }
    sink.send(ProgressEvent::phase_entry(JobPhase::Calibrate));
    let t_cal = Instant::now();
    let tree = JoinTree::build(&net, req.calibrate_threads.max(1) as usize);
    let calibrate_micros = t_cal.elapsed().as_micros() as u64;
    let stats = tree.stats();
    let reply = FitReply {
        model_id: mkey,
        cache_hit: false,
        n_vars: net.n() as u32,
        n_edges: net.dag().edge_count() as u32,
        n_cliques: stats.n_cliques as u32,
        width: stats.width as u32,
        max_clique_cells: stats.max_clique_cells as u64,
        fit_micros,
        calibrate_micros,
    };
    shared
        .cache
        .put_model(mkey, ModelEntry { net, tree, reply });
    shared
        .counters
        .fit_micros
        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
    fastbn_obs::histogram!("fastbn.serve.request.fit_us").observe_duration(t0.elapsed());
    let _ = tx.send(ConnEvent::Reply(id, kind::FIT_OK, reply.encode()));
}

/// Answer a posterior batch against a cached model.
fn run_infer(
    shared: &Arc<Shared>,
    tx: &Sender<ConnEvent>,
    id: u32,
    cancel: &CancelToken,
    req: InferRequest,
) {
    let t0 = Instant::now();
    if cancel.is_cancelled() {
        shared
            .counters
            .jobs_cancelled
            .fetch_add(1, Ordering::Relaxed);
        fail(tx, id, ErrorCode::Cancelled, "infer cancelled");
        return;
    }
    let Some(model) = shared.cache.peek_model(req.model_id) else {
        fail(
            tx,
            id,
            ErrorCode::UnknownModel,
            format!("no fitted model {:#018x}", req.model_id),
        );
        return;
    };
    let n = model.net.n();
    for q in &req.queries {
        let ok = q.target < n
            && q.evidence
                .iter()
                .all(|&(v, s)| v < n && (s as usize) < model.net.arity(v));
        if !ok {
            fail(tx, id, ErrorCode::BadRequest, "query out of range");
            return;
        }
    }
    let results = model.tree.posteriors(&req.queries);
    shared
        .counters
        .queries_answered
        .fetch_add(req.queries.len() as u64, Ordering::Relaxed);
    shared
        .counters
        .infer_micros
        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
    fastbn_obs::histogram!("fastbn.serve.request.infer_us").observe_duration(t0.elapsed());
    let _ = tx.send(ConnEvent::Reply(
        id,
        kind::INFER_OK,
        InferReply { results }.encode(),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panicked_count() -> u64 {
        fastbn_obs::global()
            .snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == "fastbn.serve.jobs.panicked")
            .map_or(0, |&(_, v)| v)
    }

    #[test]
    fn panicking_job_answers_internal_and_clears_its_pending_entry() {
        let shared = Arc::new(Shared::new(ServeConfig::default().with_runners(1)));
        let (tx, rx) = channel();
        let pending: Pending = Arc::new(Mutex::new(HashMap::new()));
        let before = panicked_count();

        submit_job(&shared, &tx, &pending, 7, |_| panic!("boom"));
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(ConnEvent::Failure(id, err)) => {
                assert_eq!(id, 7);
                assert_eq!(err.code, ErrorCode::Internal);
                assert!(err.message.contains("boom"), "{}", err.message);
            }
            Ok(_) => panic!("expected a failure event"),
            Err(e) => panic!("no reply for the panicked job: {e}"),
        }
        assert!(!pending.lock().unwrap().contains_key(&7));
        assert!(panicked_count() > before);

        // The runner survived: a well-behaved job still gets through.
        let tx_ok = tx.clone();
        submit_job(&shared, &tx, &pending, 8, move |_| {
            reply(&tx_ok, 8, kind::HEALTH_OK, Vec::new())
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(ConnEvent::Reply(id, _, _)) => assert_eq!(id, 8),
            _ => panic!("expected the follow-up job's reply"),
        }
    }
}
