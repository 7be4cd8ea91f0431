//! The in-process inference service: submit queue, dynamic micro-batcher and
//! worker pool.
//!
//! # Data flow
//!
//! ```text
//! submit() ──► pending queue ──► worker: pop oldest request
//!                 ▲  (Mutex +        │  take every queued request with
//!                 │   Condvar +      │  the same key, up to max_batch
//!            validation  idle count) │  queries; hold open only if idle
//!                                    ▼
//!                              Engine::execute_query[_parallel]
//!                                    │
//!                    slice values per request ──► response channels
//!                                                  + completion wakers
//! ```
//!
//! The micro-batcher is *work-conserving*: a worker takes the oldest
//! pending request plus every queued request of the same
//! `(model, query mode, numeric mode, precision, sample spec)`, up to
//! [`BatchPolicy::max_batch_queries`] queries, and dispatches at once.
//! Batches therefore form from backlog alone: under load requests queue up
//! behind busy workers and leave together, and no worker ever sleeps while
//! work is queued.  Only when waiting costs nobody anything does a worker
//! hold a partial batch open for up to [`BatchPolicy::max_wait`] to gather
//! more same-key requests: it must have found the service idle (it waited
//! for the batch's first request rather than taking it from backlog), the
//! queue must be otherwise empty and no sibling worker may be idle.  Any
//! other arrival, a sibling going idle, a full batch or shutdown ends the
//! hold early.  So with two or more workers a lone request dispatches at
//! once; a single worker still pays up to `max_wait` for company.
//!
//! Once it has sent the responses of a batch or session drain, a worker
//! fires the completion wakers the TCP front-ends registered, so an event
//! loop blocked in `poll(2)` collects the answers at once instead of on a
//! timer.
//!
//! Coalescing never changes answers: every backend applies an identical
//! per-query kernel, so the values a request receives from a coalesced batch
//! are bit-for-bit those of executing it alone.  If a merged batch fails
//! (e.g. one request conditions on zero-probability evidence), the worker
//! re-executes each request separately so errors stay with the request that
//! caused them.
//!
//! # Sessions
//!
//! Alongside one-shot requests the service keeps per-connection
//! *evaluation sessions* (see [`crate::session`]): [`Service::session_open`]
//! primes a model variant under full evidence, and
//! [`Service::session_delta`] then re-evaluates under a handful of flipped
//! variables through the backend's incremental cone path.  Session
//! operations ride the same worker queue as tokens but are dispatched one
//! at a time under the session's own mutex — the micro-batcher never
//! coalesces them with query batches or with deltas of other sessions.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spn_core::wire::{QueryRequest, QueryResponse};
use spn_core::{QueryBatch, QueryMode, SampleSpec, Spn};
use spn_platforms::{Backend, Engine, Parallelism, QueryOutput};

use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsRecord, SessionStats};
use crate::poll::Waker;
use crate::registry::{ModelRegistry, ModelVariant};
use crate::session::{
    evict_entry, SessionEntry, SessionHandle, SessionInner, SessionKey, SessionOp, SessionOpen,
    SessionPending, SessionResponse, SessionTable,
};

/// When and how hard the micro-batcher coalesces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Stop absorbing requests once a batch holds this many queries (a
    /// single oversized request still dispatches alone, unsplit).
    pub max_batch_queries: usize,
    /// The longest a worker holds a non-full batch open for more same-key
    /// requests.  It holds only when it found the service idle, nothing
    /// else is queued and no sibling worker is idle (see the module docs),
    /// so under load and with idle siblings batches dispatch at once;
    /// `ZERO` never holds.
    pub max_wait: Duration,
}

impl BatchPolicy {
    /// No coalescing wait: dispatch whatever is queued right now.
    pub fn immediate() -> BatchPolicy {
        BatchPolicy {
            max_batch_queries: 256,
            max_wait: Duration::ZERO,
        }
    }
}

impl Default for BatchPolicy {
    /// 256-query batches, held open at most 1 ms when the service is idle.
    fn default() -> Self {
        BatchPolicy {
            max_batch_queries: 256,
            max_wait: Duration::from_millis(1),
        }
    }
}

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Batcher worker threads (each owns its engines; clamped to ≥ 1).
    pub workers: usize,
    /// The coalescing policy.
    pub policy: BatchPolicy,
    /// Intra-batch sharding: how each dispatched batch is spread over
    /// threads *inside* `Engine::execute_query_parallel`.
    pub parallelism: Parallelism,
    /// LRU capacity of the registry's compiled-artifact cache.
    pub artifact_capacity: usize,
    /// Maximum live evaluation sessions across all connections (clamped to
    /// ≥ 1); the least-recently-used session is evicted beyond it.
    pub session_capacity: usize,
}

impl Default for ServiceConfig {
    /// Two workers, default policy, serial intra-batch execution, room for
    /// 16 compiled artifacts and 1024 evaluation sessions.
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            policy: BatchPolicy::default(),
            parallelism: Parallelism::serial(),
            artifact_capacity: 16,
            session_capacity: 1024,
        }
    }
}

/// One queued request plus its response channel and submit timestamp.
struct Pending {
    request: QueryRequest,
    tx: mpsc::Sender<Result<QueryResponse, ServeError>>,
    submitted: Instant,
}

/// One unit of queued work.
enum Item {
    /// A one-shot query request, eligible for micro-batch coalescing.
    Query(Pending),
    /// A token for a session with queued operations: the claiming worker
    /// locks the session and drains its private FIFO.  Tokens are opaque to
    /// the coalescing scan, so session operations are never merged — not
    /// with query batches and not across sessions.
    Session(Arc<SessionEntry>),
}

/// The work queue plus the worker counts the batcher's hold rule reads.
struct Queue {
    items: VecDeque<Item>,
    /// Workers blocked waiting for work.
    idle: usize,
    /// Workers holding a partial batch open for more same-key requests.
    holding: usize,
}

/// State shared between submitters and workers.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on every enqueue, on shutdown and whenever a worker goes
    /// idle while a sibling holds a batch open (which ends the hold).
    available: Condvar,
    shutdown: AtomicBool,
    /// Fired after each claim's responses are sent; see
    /// [`Service::add_waker`].
    wakers: Mutex<Vec<Arc<Waker>>>,
}

impl Shared {
    /// Raises the shutdown flag and wakes every worker.  The flag is set
    /// under the queue lock: a worker checks it under that lock just before
    /// it waits, and an unlocked store could slip in between and leave the
    /// worker asleep through the notification.
    fn begin_shutdown(&self) {
        let queue = self.queue.lock();
        self.shutdown.store(true, Ordering::Release);
        drop(queue);
        self.available.notify_all();
    }

    /// Fires every registered completion waker.
    fn wake(&self) {
        for waker in self.wakers.lock().expect("service wakers lock").iter() {
            waker.wake();
        }
    }
}

/// Fires the wakers when a worker exits, unwinding included: a panicking
/// worker drops its requests' response channels, and the front-ends must
/// look at them to answer the disconnect.
struct WakeOnExit<'a>(&'a Shared);

impl Drop for WakeOnExit<'_> {
    fn drop(&mut self) {
        self.0.wake();
    }
}

/// A waiting slot for one submitted request.
pub struct ResponseHandle {
    rx: mpsc::Receiver<Result<QueryResponse, ServeError>>,
}

impl ResponseHandle {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Returns the request's error, or [`ServeError::ShuttingDown`] when the
    /// service stopped before answering.
    pub fn wait(self) -> Result<QueryResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<QueryResponse, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// A multi-model inference service over one backend type.
///
/// Construct with [`Service::new`], [`Service::register`] models, then call
/// [`Service::query`] (blocking) or [`Service::submit`] (returns a
/// [`ResponseHandle`]) from any thread.  Wrap in an [`Arc`] to share with a
/// TCP front-end.  [`Service::shutdown`] (also run on drop) stops the
/// workers after draining queued requests.
pub struct Service<B: Backend> {
    registry: Arc<ModelRegistry<B>>,
    shared: Arc<Shared>,
    metrics: Arc<Metrics>,
    sessions: Arc<SessionTable>,
    next_conn: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<B> Service<B>
where
    B: Backend + Clone + Send + Sync + 'static,
    B::Compiled: Send + Sync + 'static,
{
    /// Starts the worker pool (no models registered yet).
    pub fn new(backend: B, config: ServiceConfig) -> Service<B> {
        let registry = Arc::new(ModelRegistry::new(backend, config.artifact_capacity));
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                idle: 0,
                holding: 0,
            }),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            wakers: Mutex::new(Vec::new()),
        });
        let metrics = Arc::new(Metrics::new());
        let sessions = Arc::new(SessionTable::new(config.session_capacity));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let registry = Arc::clone(&registry);
                let shared = Arc::clone(&shared);
                let metrics = Arc::clone(&metrics);
                let sessions = Arc::clone(&sessions);
                let policy = config.policy;
                let parallelism = config.parallelism;
                std::thread::spawn(move || {
                    worker_loop(&registry, &shared, &metrics, &sessions, policy, parallelism);
                })
            })
            .collect();
        Service {
            registry,
            shared,
            metrics,
            sessions,
            next_conn: AtomicU64::new(1),
            workers: Mutex::new(workers),
        }
    }

    /// The model registry (register/unregister/introspect models through
    /// this).
    pub fn registry(&self) -> &ModelRegistry<B> {
        &self.registry
    }

    /// Registers (or replaces) a named model without static verification.
    pub fn register(&self, name: impl Into<String>, spn: &Spn) {
        self.registry.register(name, spn);
    }

    /// Statically verifies and then registers (or replaces) a named model —
    /// see [`ModelRegistry::try_register`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Verification`] with the full diagnostic report
    /// when the model has error-level findings; the existing registration
    /// (if any) is left untouched.
    pub fn try_register(&self, name: impl Into<String>, spn: &Spn) -> Result<(), ServeError> {
        self.registry.try_register(name, spn)
    }

    /// A snapshot of the per-model / per-mode counters.
    pub fn metrics(&self) -> Vec<MetricsRecord> {
        self.metrics.snapshot()
    }

    /// Enqueues a request and returns a handle to wait on.
    ///
    /// Validation that needs no engine (model exists, variable counts match,
    /// batch non-empty) happens here, so malformed requests fail fast and
    /// can never poison a coalesced batch.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`], [`ServeError::Invalid`] or
    /// [`ServeError::ShuttingDown`] without enqueuing.
    pub fn submit(&self, request: QueryRequest) -> Result<ResponseHandle, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        if request.query.is_empty() {
            return Err(ServeError::Invalid(
                "a request needs at least one query row".to_string(),
            ));
        }
        request.query.validate()?;
        let num_vars = self.registry.num_vars(&request.model)?;
        if request.query.num_vars() != num_vars {
            return Err(ServeError::Invalid(format!(
                "model {:?} covers {} variables but the request rows cover {}",
                request.model,
                num_vars,
                request.query.num_vars()
            )));
        }

        let (tx, rx) = mpsc::channel();
        {
            let mut queue = self.shared.queue.lock().expect("service queue lock");
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::ShuttingDown);
            }
            queue.items.push_back(Item::Query(Pending {
                request,
                tx,
                submitted: Instant::now(),
            }));
        }
        self.shared.available.notify_all();
        Ok(ResponseHandle { rx })
    }

    /// Submits `request` and blocks until its response arrives.
    ///
    /// # Errors
    ///
    /// As for [`Service::submit`], plus any execution error.
    pub fn query(&self, request: QueryRequest) -> Result<QueryResponse, ServeError> {
        self.submit(request)?.wait()
    }

    /// Allocates a connection id for session scoping.  Front-ends call this
    /// once per accepted connection and [`Service::drop_connection`] when it
    /// closes; in-process callers can treat the id as a client handle.
    pub fn allocate_connection(&self) -> u64 {
        self.next_conn.fetch_add(1, Ordering::Relaxed)
    }

    /// Drops every session of `conn` (answering queued operations with an
    /// eviction error).  A reconnecting client gets a fresh connection id,
    /// so its old sessions — and their cached evaluation state — are gone.
    pub fn drop_connection(&self, conn: u64) {
        for entry in self.sessions.take_connection(conn) {
            self.metrics.record_session_eviction();
            evict_entry(&entry);
        }
    }

    /// Opens an evaluation session: primes the model variant under the
    /// request's full evidence and pins the resulting state server-side so
    /// later [`Service::session_delta`] calls send only changed variables.
    ///
    /// Opening beyond [`ServiceConfig::session_capacity`] evicts the
    /// least-recently-used session.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`], [`ServeError::Invalid`] (arity
    /// mismatch, session id already open on `conn`) or
    /// [`ServeError::ShuttingDown`] without enqueuing.
    pub fn session_open(
        &self,
        conn: u64,
        request: SessionOpen,
    ) -> Result<SessionHandle, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let num_vars = self.registry.num_vars(&request.model)?;
        if request.evidence.num_vars() != num_vars {
            return Err(ServeError::Invalid(format!(
                "model {:?} covers {} variables but the session evidence covers {}",
                request.model,
                num_vars,
                request.evidence.num_vars()
            )));
        }
        let key = SessionKey {
            conn,
            session: request.session,
        };
        let (tx, rx) = mpsc::channel();
        let pending = SessionPending {
            id: request.id,
            op: SessionOp::Open(request.evidence),
            tx,
        };
        let (entry, evicted) = self
            .sessions
            .open(key, request.model, request.variant, pending)?;
        for victim in evicted {
            self.metrics.record_session_eviction();
            evict_entry(&victim);
        }
        self.enqueue_session(entry);
        Ok(SessionHandle { rx })
    }

    /// Applies evidence flips to an open session and re-evaluates — through
    /// the incremental cone path on backends that support it.  Each flip is
    /// `(variable index, new observation)`; `None` marginalises the
    /// variable.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] (unknown session, out-of-range
    /// variable) or [`ServeError::ShuttingDown`] without enqueuing.
    pub fn session_delta(
        &self,
        conn: u64,
        session: u64,
        id: u64,
        flips: Vec<(usize, Option<bool>)>,
    ) -> Result<SessionHandle, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let key = SessionKey { conn, session };
        let entry = self.sessions.lookup(key)?;
        let (tx, rx) = mpsc::channel();
        {
            let mut inner = entry.inner.lock().expect("session lock");
            if inner.closed {
                return Err(ServeError::Invalid(format!("unknown session {session}")));
            }
            let num_vars = self.registry.num_vars(&inner.model)?;
            for &(var, _) in &flips {
                if var >= num_vars {
                    return Err(ServeError::Invalid(format!(
                        "variable {var} is out of range for the session's {num_vars}-variable model"
                    )));
                }
            }
            inner.queue.push_back(SessionPending {
                id,
                op: SessionOp::Delta(flips),
                tx,
            });
        }
        self.enqueue_session(entry);
        Ok(SessionHandle { rx })
    }

    /// Closes a session after its already queued operations have been
    /// answered, freeing its server-side state and its id for reuse.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Invalid`] for an unknown session or
    /// [`ServeError::ShuttingDown`].
    pub fn session_close(
        &self,
        conn: u64,
        session: u64,
        id: u64,
    ) -> Result<SessionHandle, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let key = SessionKey { conn, session };
        let entry = self.sessions.lookup(key)?;
        let (tx, rx) = mpsc::channel();
        {
            let mut inner = entry.inner.lock().expect("session lock");
            if inner.closed {
                return Err(ServeError::Invalid(format!("unknown session {session}")));
            }
            inner.queue.push_back(SessionPending {
                id,
                op: SessionOp::Close,
                tx,
            });
        }
        // Free the key immediately: ordering is preserved by the session's
        // private FIFO, and a same-id re-open after close must not race the
        // worker that will drain it.
        self.sessions.remove(key, &entry);
        self.enqueue_session(entry);
        Ok(SessionHandle { rx })
    }

    /// Number of live evaluation sessions across all connections.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// A copy of the global session counters.
    pub fn session_stats(&self) -> SessionStats {
        self.metrics.session_stats()
    }

    /// Pushes a worker token for `entry` onto the main queue.
    fn enqueue_session(&self, entry: Arc<SessionEntry>) {
        let mut queue = self.shared.queue.lock().expect("service queue lock");
        queue.items.push_back(Item::Session(entry));
        drop(queue);
        self.shared.available.notify_all();
    }

    /// Registers a waker fired whenever a worker has sent responses, one
    /// shot or session.
    pub(crate) fn add_waker(&self, waker: Arc<Waker>) {
        self.shared
            .wakers
            .lock()
            .expect("service wakers lock")
            .push(waker);
    }

    /// Unregisters a waker added by [`Service::add_waker`].
    pub(crate) fn remove_waker(&self, waker: &Arc<Waker>) {
        self.shared
            .wakers
            .lock()
            .expect("service wakers lock")
            .retain(|w| !Arc::ptr_eq(w, waker));
    }

    /// Stops accepting requests, lets the workers drain what is queued, and
    /// joins them.  Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        let mut workers = self.workers.lock().expect("service workers lock");
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl<B: Backend> Drop for Service<B> {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        if let Ok(mut workers) = self.workers.lock() {
            for worker in workers.drain(..) {
                let _ = worker.join();
            }
        }
    }
}

/// The sampling spec of an approximate-mode query (`None` for exact modes).
fn sample_spec(query: &QueryBatch) -> Option<SampleSpec> {
    match query {
        QueryBatch::Sample(batch) | QueryBatch::Expectation(batch) => Some(batch.spec()),
        _ => None,
    }
}

/// Everything that must agree for two one-shot requests to share a batch:
/// the model, the query mode, the `(numeric, precision)` variant and — for
/// approximate modes — the exact sampling spec, since merging rows drawn
/// with different seeds or sample counts is rejected by
/// `SampleBatch::try_extend`.
struct GroupKey {
    model: String,
    mode: QueryMode,
    variant: ModelVariant,
    spec: Option<SampleSpec>,
}

impl GroupKey {
    fn of(request: &QueryRequest) -> Self {
        GroupKey {
            model: request.model.clone(),
            mode: request.query.mode(),
            variant: ModelVariant::new(request.numeric, request.precision),
            spec: sample_spec(&request.query),
        }
    }

    fn matches(&self, request: &QueryRequest) -> bool {
        request.model == self.model
            && request.query.mode() == self.mode
            && ModelVariant::new(request.numeric, request.precision) == self.variant
            && sample_spec(&request.query) == self.spec
    }
}

/// Moves every queued request matching `key` into `group`, as long as the
/// batch stays within `max_queries` (requests that would overflow are left
/// queued for the next batch).  Session tokens are never candidates: deltas
/// are stateful and strictly ordered per session, so coalescing them —
/// least of all across sessions — would be unsound.
fn take_matching(
    queue: &mut VecDeque<Item>,
    key: &GroupKey,
    max_queries: usize,
    total: &mut usize,
    group: &mut Vec<Pending>,
) {
    let mut i = 0;
    while i < queue.len() {
        let Item::Query(candidate) = &queue[i] else {
            i += 1;
            continue;
        };
        let len = candidate.request.query.len();
        if key.matches(&candidate.request) && *total + len <= max_queries {
            let Some(Item::Query(pending)) = queue.remove(i) else {
                unreachable!("index was just observed to hold a query");
            };
            *total += len;
            group.push(pending);
        } else {
            i += 1;
        }
    }
}

/// The work a worker claimed from the queue in one pop.
enum Claimed {
    /// A coalesced group of one-shot requests plus its total query count.
    Group(Vec<Pending>, usize),
    /// A session token: drain the session's private FIFO.
    Session(Arc<SessionEntry>),
}

/// One batcher worker: pop → coalesce → execute → respond, until shutdown
/// and the queue is drained.
fn worker_loop<B>(
    registry: &ModelRegistry<B>,
    shared: &Shared,
    metrics: &Metrics,
    sessions: &SessionTable,
    policy: BatchPolicy,
    parallelism: Parallelism,
) where
    B: Backend + Clone + Send + Sync,
    B::Compiled: Send + Sync,
{
    // Engines this worker has built, keyed by (model name, variant), tagged
    // with the registry version they were built from (stale ones are
    // rebuilt).  Every variant of one model lives side by side, LRU-bounded
    // (the precision key is client-controlled).
    let mut engines: WorkerEngines<B> = WorkerEngines::new();
    let _wake_on_exit = WakeOnExit(shared);

    loop {
        let claimed = {
            let mut queue = shared.queue.lock().expect("service queue lock");
            let mut waited = false;
            let first = loop {
                if let Some(first) = queue.items.pop_front() {
                    break first;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if queue.holding > 0 {
                    // Going idle ends a sibling's hold.
                    shared.available.notify_all();
                }
                waited = true;
                queue.idle += 1;
                queue = shared
                    .available
                    .wait(queue)
                    .expect("service queue lock poisoned");
                queue.idle -= 1;
            };
            match first {
                Item::Session(entry) => Claimed::Session(entry),
                Item::Query(first) => {
                    let mut group: Vec<Pending> = Vec::new();
                    let key = GroupKey::of(&first.request);
                    let mut total = first.request.query.len();
                    group.push(first);

                    take_matching(
                        &mut queue.items,
                        &key,
                        policy.max_batch_queries,
                        &mut total,
                        &mut group,
                    );
                    // Hold the batch open for same-key company only while
                    // that delays nobody: the batch did not come from
                    // backlog, nothing else is queued, and no sibling is
                    // idle to take what arrives next.
                    let deadline = Instant::now() + policy.max_wait;
                    queue.holding += 1;
                    while waited
                        && total < policy.max_batch_queries
                        && queue.items.is_empty()
                        && queue.idle == 0
                        && !shared.shutdown.load(Ordering::Acquire)
                    {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        queue = shared
                            .available
                            .wait_timeout(queue, deadline - now)
                            .expect("service queue lock poisoned")
                            .0;
                        take_matching(
                            &mut queue.items,
                            &key,
                            policy.max_batch_queries,
                            &mut total,
                            &mut group,
                        );
                    }
                    queue.holding -= 1;
                    Claimed::Group(group, total)
                }
            }
        };
        match claimed {
            Claimed::Group(group, total) => {
                dispatch(registry, metrics, &mut engines, parallelism, group, total);
            }
            Claimed::Session(entry) => {
                handle_session(registry, sessions, metrics, &mut engines, &entry);
            }
        }
        // Every response of the claim has been sent.
        shared.wake();
    }
}

/// Drains one session's private FIFO in submission order, holding the
/// session mutex throughout so its incremental state is never touched
/// concurrently (a sibling worker claiming a later token for the same
/// session blocks here and finds an empty queue).
fn handle_session<B>(
    registry: &ModelRegistry<B>,
    sessions: &SessionTable,
    metrics: &Metrics,
    engines: &mut WorkerEngines<B>,
    entry: &Arc<SessionEntry>,
) where
    B: Backend + Clone,
{
    let mut inner = entry.inner.lock().expect("session lock");
    while let Some(pending) = inner.queue.pop_front() {
        let SessionPending { id, op, tx, .. } = pending;
        let result = run_session_op(registry, engines, &mut inner, id, &op);
        match &op {
            SessionOp::Open(_) => {
                metrics.record_session_open();
                if result.is_err() {
                    metrics.record_session_error();
                    // A session that never primed holds nothing worth
                    // keeping; free its key so the client can retry.
                    inner.closed = true;
                }
            }
            SessionOp::Delta(_) => {
                let (recomputed, full_pass) = match &result {
                    Ok(response) => (response.recomputed_ops as u64, response.full_pass),
                    Err(_) => (0, false),
                };
                metrics.record_session_delta(recomputed, full_pass, result.is_ok());
            }
            SessionOp::Close => metrics.record_session_close(),
        }
        let _ = tx.send(result);
    }
    let closed = inner.closed;
    let key = inner.key;
    drop(inner);
    if closed {
        sessions.remove(key, entry);
    }
}

/// Executes one session operation against this worker's engine for the
/// session's `(model, variant)`, transparently re-priming when the model
/// was re-registered since the session last ran.
fn run_session_op<B>(
    registry: &ModelRegistry<B>,
    engines: &mut WorkerEngines<B>,
    inner: &mut SessionInner,
    id: u64,
    op: &SessionOp,
) -> Result<SessionResponse, ServeError>
where
    B: Backend + Clone,
{
    let respond = |inner: &SessionInner, value: f64, recomputed_ops: usize, full_pass: bool| {
        SessionResponse {
            id,
            session: inner.key.session,
            model: inner.model.clone(),
            variant: inner.variant,
            value,
            recomputed_ops,
            full_pass,
            incremental: inner
                .eval
                .as_ref()
                .is_some_and(spn_platforms::EvalSession::is_incremental),
            closed: inner.closed,
        }
    };
    match op {
        SessionOp::Open(evidence) => {
            let (engine, version) = worker_engine(registry, engines, &inner.model, inner.variant)?;
            let eval = engine
                .open_session(evidence)
                .map_err(ServeError::from_backend)?;
            inner.version = version;
            let (value, ops) = (eval.value(), engine.ops().num_ops());
            inner.eval = Some(eval);
            Ok(respond(inner, value, ops, true))
        }
        SessionOp::Delta(flips) => {
            let (engine, version) = worker_engine(registry, engines, &inner.model, inner.variant)?;
            let eval = inner.eval.as_mut().ok_or_else(|| {
                ServeError::Invalid(format!("session {} was never opened", inner.key.session))
            })?;
            if version != inner.version {
                // The model was hot-swapped: re-prime the new program under
                // the session's current evidence, then apply the flips.
                let evidence = eval.evidence().clone();
                *eval = engine
                    .open_session(&evidence)
                    .map_err(ServeError::from_backend)?;
                inner.version = version;
            }
            let outcome = engine
                .session_delta(eval, flips)
                .map_err(ServeError::from_backend)?;
            Ok(respond(
                inner,
                outcome.value,
                outcome.recomputed_ops,
                outcome.full_pass,
            ))
        }
        SessionOp::Close => {
            let value = inner
                .eval
                .as_ref()
                .map_or(f64::NAN, spn_platforms::EvalSession::value);
            inner.closed = true;
            let response = respond(inner, value, 0, false);
            inner.eval = None;
            Ok(response)
        }
    }
}

/// Executes one coalesced group and distributes responses.
fn dispatch<B>(
    registry: &ModelRegistry<B>,
    metrics: &Metrics,
    engines: &mut WorkerEngines<B>,
    parallelism: Parallelism,
    group: Vec<Pending>,
    total: usize,
) where
    B: Backend + Clone + Send + Sync,
    B::Compiled: Send + Sync,
{
    let model = group[0].request.model.clone();
    let mode = group[0].request.query.mode();
    let variant = ModelVariant::new(group[0].request.numeric, group[0].request.precision);
    metrics.record_batch(
        &model,
        mode,
        variant.numeric,
        variant.precision,
        group.len() as u64,
        total as u64,
    );

    let engine = match worker_engine(registry, engines, &model, variant) {
        Ok((engine, _)) => engine,
        Err(err) => {
            let message = err.message();
            for pending in group {
                respond(metrics, pending, Err(clone_error(&err, &message)));
            }
            return;
        }
    };

    // A lone request executes its own batch directly (no copy of the
    // evidence); a coalesced group is merged into one dense batch first.
    let output = if group.len() == 1 {
        run_query(&mut *engine, &group[0].request.query, parallelism)
    } else {
        let mut merged = group[0].request.query.clone();
        group[1..]
            .iter()
            .try_for_each(|p| merged.try_extend(&p.request.query))
            .map_err(ServeError::from)
            .and_then(|()| run_query(&mut *engine, &merged, parallelism))
    };

    match output {
        Ok(output) => {
            publish_map(registry, engines, &model, mode, variant);
            let mut offset = 0;
            for pending in group {
                let n = pending.request.query.len();
                let response = slice_output(&output, &pending.request, offset, n);
                offset += n;
                respond(metrics, pending, Ok(response));
            }
        }
        Err(_) if group.len() > 1 => {
            // One request in the batch poisoned it (e.g. zero-probability
            // conditioning evidence).  Re-run each request alone so the error
            // lands only on its owner.
            for pending in group {
                let result = run_query(engine, &pending.request.query, parallelism).map(|out| {
                    slice_output(&out, &pending.request, 0, pending.request.query.len())
                });
                respond(metrics, pending, result);
            }
            publish_map(registry, engines, &model, mode, variant);
        }
        Err(err) => {
            let pending = group.into_iter().next().expect("non-empty group");
            respond(metrics, pending, Err(err));
        }
    }
}

/// Cap on cached engines per batcher worker.  The precision half of the
/// key is client-controlled (hundreds of valid `e<exp>m<mant>` names), so
/// an unbounded cache would let a client sweeping precisions bloat every
/// worker and pin registry-evicted artifacts alive; beyond the cap the
/// least-recently-used engine is dropped and rebuilt on demand from the
/// registry's shared plan (a cheap Arc bump when the artifact is still
/// cached).
const MAX_WORKER_ENGINES: usize = 32;

/// The key of one cached worker engine: model name plus execution variant.
type EngineKey = (String, ModelVariant);

/// One cached worker engine: registry version, LRU timestamp, the engine.
type EngineEntry<B> = (u64, u64, Engine<B>);

/// One batcher worker's LRU-bounded engine cache.
struct WorkerEngines<B: Backend> {
    map: HashMap<EngineKey, EngineEntry<B>>,
    /// Logical clock driving the per-worker LRU.
    clock: u64,
}

impl<B: Backend> WorkerEngines<B> {
    fn new() -> Self {
        WorkerEngines {
            map: HashMap::new(),
            clock: 0,
        }
    }
}

/// Looks up (or builds) this worker's engine for `(model, variant)`,
/// rebuilding when the registry holds a newer version and evicting the
/// worker's least-recently-used engine beyond [`MAX_WORKER_ENGINES`].
/// Returns the engine together with the registry version it was built from.
fn worker_engine<'a, B>(
    registry: &ModelRegistry<B>,
    engines: &'a mut WorkerEngines<B>,
    model: &str,
    variant: ModelVariant,
) -> Result<(&'a mut Engine<B>, u64), ServeError>
where
    B: Backend + Clone,
{
    let current = registry.version(model)?;
    engines.clock += 1;
    let clock = engines.clock;
    let key = (model.to_string(), variant);
    let needs_build = match engines.map.get(&key) {
        Some((version, _, _)) => *version != current,
        None => true,
    };
    if needs_build {
        let (engine, version) = registry.engine(model, variant)?;
        if !engines.map.contains_key(&key) && engines.map.len() >= MAX_WORKER_ENGINES {
            let victim = engines
                .map
                .iter()
                .min_by_key(|(_, (_, used, _))| *used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                engines.map.remove(&victim);
            }
        }
        engines.map.insert(key.clone(), (version, clock, engine));
    }
    let entry = engines.map.get_mut(&key).expect("engine just ensured");
    entry.1 = clock;
    Ok((&mut entry.2, entry.0))
}

/// Runs one merged batch through the serial or sharded query path.
fn run_query<B>(
    engine: &mut Engine<B>,
    query: &QueryBatch,
    parallelism: Parallelism,
) -> Result<QueryOutput, ServeError>
where
    B: Backend + Clone + Send + Sync,
    B::Compiled: Send + Sync,
{
    let result = if parallelism.workers > 1 {
        engine.execute_query_parallel(query, &parallelism)
    } else {
        engine.execute_query(query)
    };
    result.map_err(ServeError::from_backend)
}

/// After a MAP dispatch, publishes the engine's (possibly just compiled)
/// max-product artifact so sibling workers skip the compile.
fn publish_map<B>(
    registry: &ModelRegistry<B>,
    engines: &WorkerEngines<B>,
    model: &str,
    mode: QueryMode,
    variant: ModelVariant,
) where
    B: Backend + Clone,
{
    if mode != QueryMode::Map {
        return;
    }
    if let Some((version, _, engine)) = engines.map.get(&(model.to_string(), variant)) {
        if let Some(map) = engine.shared_map() {
            registry.store_map(model, *version, variant, map);
        }
    }
}

/// Cuts one request's window out of a batch output.  `offset` and `len`
/// count *queries*: sample-mode outputs carry `n_samples` values (and
/// assignments) per query, so their slices scale by the per-query width —
/// which is uniform across a coalesced group because [`take_matching`] only
/// merges requests sharing one [`SampleSpec`].  Standard errors are always
/// one per query.
fn slice_output(
    output: &QueryOutput,
    request: &QueryRequest,
    offset: usize,
    len: usize,
) -> QueryResponse {
    let spec = sample_spec(&request.query);
    let width = match &request.query {
        QueryBatch::Sample(batch) => batch.spec().n_samples as usize,
        _ => 1,
    };
    QueryResponse {
        id: request.id,
        model: request.model.clone(),
        mode: request.query.mode(),
        numeric: request.numeric,
        precision: request.precision,
        values: output.values[offset * width..(offset + len) * width].to_vec(),
        assignments: output
            .assignments
            .as_ref()
            .map(|a| a[offset * width..(offset + len) * width].to_vec()),
        std_err: output
            .std_err
            .as_ref()
            .map(|s| s[offset..offset + len].to_vec()),
        samples: spec.map_or(0, |spec| u64::from(spec.n_samples) * len as u64),
    }
}

/// Sends the result and records request-level metrics.
fn respond(metrics: &Metrics, pending: Pending, result: Result<QueryResponse, ServeError>) {
    let mode = pending.request.query.mode();
    let samples = match &result {
        Ok(response) => response.samples,
        Err(_) => 0,
    };
    metrics.record_request(
        &pending.request.model,
        mode,
        pending.request.numeric,
        pending.request.precision,
        pending.request.query.len() as u64,
        samples,
        pending.submitted.elapsed(),
        result.is_ok(),
    );
    // A dropped receiver just means the caller stopped waiting.
    let _ = pending.tx.send(result);
}

/// The error type is not `Clone` (it can wrap arbitrary messages), so fan
/// one error out to a whole group by rebuilding it from its message.
fn clone_error(err: &ServeError, message: &str) -> ServeError {
    match err {
        ServeError::UnknownModel(name) => ServeError::UnknownModel(name.clone()),
        ServeError::ShuttingDown => ServeError::ShuttingDown,
        ServeError::Invalid(_) => ServeError::Invalid(message.to_string()),
        ServeError::Protocol(_) => ServeError::Protocol(message.to_string()),
        ServeError::Remote(_) => ServeError::Remote(message.to_string()),
        ServeError::Backend(_) => ServeError::Backend(message.to_string()),
        ServeError::Verification(diagnostics) => ServeError::Verification(diagnostics.clone()),
    }
}
