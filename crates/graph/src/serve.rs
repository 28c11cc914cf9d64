//! [`ServeEngine`]: batched, prioritised, observable serving on top of a
//! compiled [`Session`].
//!
//! A session compiles a network once and can answer `run(&input)` calls,
//! but a server needs more: many callers, bounded memory under load,
//! batch coalescing, completion without a parked thread per request, and
//! visibility into what the queue is doing. The engine provides exactly
//! that, with std primitives only (threads + mutex/condvar — the
//! workspace has no crates.io access):
//!
//! * **Lifecycle** — [`Session::into_engine`](crate::Session::into_engine)
//!   consumes the session and spawns a fixed pool of worker threads.
//!   Every worker shares the session's immutable executor ([`Executor`]
//!   is `Send + Sync`) and owns one reusable [`ExecScratch`], so
//!   steady-state serving performs no tensor/scratch allocation beyond
//!   each request's output tensor (bookkeeping — tickets, job lists — is
//!   a few machine words per request). [`ServeEngine::shutdown`] (or
//!   drop) closes the queue, drains in-flight requests, and joins the
//!   workers. If every worker dies (executor panics), queued and blocked
//!   callers resolve to errors instead of hanging.
//! * **Completion** — [`submit`](ServeEngine::submit) enqueues a request
//!   and returns a [`TicketId`] immediately. Redeem it by **blocking**
//!   ([`wait`](ServeEngine::wait)), **polling** ([`poll`](ServeEngine::poll)
//!   returns `Ok(None)` while in flight), or **callback**
//!   ([`submit_with_waker`](ServeEngine::submit_with_waker) registers a
//!   [`Waker`] invoked exactly once when the ticket resolves, so async
//!   executors can park a task instead of a thread: the waker schedules
//!   the task, which then redeems via `poll`). Each ticket is delivered
//!   exactly once.
//! * **Priorities & deadlines** — [`submit_with`](ServeEngine::submit_with)
//!   takes [`SubmitOptions`]: higher [`priority`](SubmitOptions::priority)
//!   requests dequeue first (FIFO within a class), and a request whose
//!   [`deadline`](SubmitOptions::deadline) expires before execution is
//!   **shed**: its ticket resolves to the typed
//!   [`TensorError::DeadlineExpired`] without reaching the executor, so
//!   overload burns no compute on answers nobody is waiting for.
//! * **Backpressure** — the priority queue holds at most
//!   [`ServeConfig::queue_depth`] jobs: `submit` blocks while it is
//!   full, so queued + in-flight requests bound server memory no matter
//!   how fast clients submit; [`try_submit`](ServeEngine::try_submit)
//!   returns `None` instead of blocking. (Completed reports are retained
//!   until their ticket is redeemed or the engine shuts down — a caller
//!   that submits fire-and-forget without ever redeeming tickets is
//!   keeping its own results alive.)
//! * **Batch coalescing** — requests to one engine always share the
//!   graph's per-sample input shape (validated at submit), so workers
//!   greedily drain queued samples and run them as a single NCHW batch;
//!   [`run_batch`](ServeEngine::run_batch) additionally pre-coalesces its
//!   (owned) inputs into [`ServeConfig::max_batch`]-sample jobs at submit
//!   time, recycling batch buffers through an internal pool so the warm
//!   path re-copies nothing it can move. With
//!   [`ServeConfig::adaptive_batch`] the worker-side merge cap tracks a
//!   queue-depth EWMA: a quiet queue runs batch-of-1 for latency, a deep
//!   queue coalesces up to `max_batch` for throughput. Samples are
//!   independent under every backend (convolution, pooling, FC and
//!   requantization never mix batch elements), so coalescing — adaptive
//!   or not — is **bitwise invisible**: each request's output is
//!   identical to a solo [`Session::run`](crate::Session::run), at any
//!   worker count and any batching accident of timing.
//! * **Metrics** — every engine keeps lock-light counters (relaxed
//!   atomics, integer-only): p50/p99/max latency, queue depth, realised
//!   batch-size histogram, shed/failed counts.
//!   [`metrics`](ServeEngine::metrics) returns a [`ServeMetrics`]
//!   snapshot without blocking the serving path.
//! * **Exact per-request [`MemStats`]** — every traffic and working-set
//!   term of a batched run carries the batch-size factor, so the batch
//!   report divides exactly back into per-request reports
//!   (`stats × nᵢ / N`); a coalesced request reports the same stats it
//!   would have reported alone.
//!
//! To scale past one engine, [`Session::into_router`](crate::Session::into_router)
//! builds a [`router::Router`] that shards these APIs across N replica
//! engines sharing one compiled graph, plan, and calibration.

pub mod metrics;
pub mod router;

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use bconv_core::fusion::MemStats;
use bconv_tensor::{Tensor, TensorError};

use crate::exec::{check_input, ExecScratch, Executor, RunReport};
use crate::ir::Graph;
use crate::session::{Backend, Session};

use metrics::{MetricsCore, ServeMetrics};

/// Sizing of a [`ServeEngine`]'s worker pool, queue, and batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads answering requests; `0` (the default) means
    /// **auto**: one worker per core (`available_parallelism`). Each
    /// worker runs one request batch at a time, serially, through the
    /// shared executor. Workers (and [`Session::into_router`] replicas)
    /// are the engine's only source of parallelism: a single request never
    /// spreads across threads.
    pub workers: usize,
    /// Capacity of the bounded request queue, in jobs
    /// ([`ServeEngine::submit`] blocks while it is full). Queued plus
    /// in-flight requests are the engine's entire buffered state, so
    /// this caps server memory.
    pub queue_depth: usize,
    /// Maximum samples coalesced into one executor run (1 disables
    /// batching).
    pub max_batch: usize,
    /// When `true` (the default) the worker-side merge cap follows the
    /// observed queue-depth EWMA instead of always charging up to
    /// `max_batch`: an idle queue ships single requests immediately
    /// (minimum latency), a backed-up queue coalesces toward `max_batch`
    /// (maximum throughput). Jobs are never split, and outputs are
    /// bitwise-independent of the cap, so this only moves the
    /// latency/throughput trade-off.
    pub adaptive_batch: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { workers: 0, queue_depth: 64, max_batch: 8, adaptive_batch: true }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), TensorError> {
        if self.queue_depth == 0 {
            return Err(TensorError::invalid("ServeConfig::queue_depth must be >= 1"));
        }
        if self.max_batch == 0 {
            return Err(TensorError::invalid("ServeConfig::max_batch must be >= 1"));
        }
        Ok(())
    }
}

/// Handle to one submitted request; redeem it with
/// [`ServeEngine::wait`] or [`ServeEngine::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TicketId(u64);

/// Per-request scheduling options for
/// [`ServeEngine::submit_with`] / [`ServeEngine::submit_with_waker`].
///
/// The default (`priority` 0, no deadline) reproduces plain
/// [`submit`](ServeEngine::submit).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Scheduling class: **higher dequeues first**; requests within a
    /// class run FIFO. Priorities reorder *when* a request runs, never
    /// *what* it computes.
    pub priority: u8,
    /// Latest instant at which starting execution is still useful. A
    /// request found expired — at submit or at dequeue — is shed: its
    /// ticket resolves to [`TensorError::DeadlineExpired`] without
    /// touching the executor, and the shed is counted in
    /// [`ServeMetrics::shed`].
    pub deadline: Option<Instant>,
}

/// Completion callback registered at submit
/// ([`ServeEngine::submit_with_waker`]): invoked exactly once, from the
/// resolving thread, when the ticket transitions to done (success,
/// error, or shed). The waker must be cheap and must not call back into
/// the engine's blocking APIs; the intended use is waking an async task
/// or semaphore which then redeems the ticket via
/// [`poll`](ServeEngine::poll). The box is allocated by the caller, so
/// the serving hot path itself stays allocation-free. A panicking waker
/// is caught and ignored (the result is already published).
pub type Waker = Box<dyn FnOnce(TicketId) + Send + 'static>;

/// `(ticket, samples)` pairs answered by one job. `submit` jobs have
/// exactly one part (stack-stored: no heap allocation on the submit hot
/// path); `run_batch` pre-coalesced chunks carry one part per request.
enum Parts {
    One([(u64, usize); 1]),
    Many(Vec<(u64, usize)>),
}

impl Parts {
    fn as_slice(&self) -> &[(u64, usize)] {
        match self {
            Parts::One(p) => p,
            Parts::Many(p) => p,
        }
    }
}

/// One queue entry: an input batch, the tickets it answers, and its
/// scheduling metadata.
struct Job {
    parts: Parts,
    input: Tensor,
    deadline: Option<Instant>,
    submitted: Instant,
}

impl Job {
    fn samples(&self) -> usize {
        self.parts.as_slice().iter().map(|&(_, n)| n).sum()
    }
}

/// A ticket's delivery slot.
enum Slot {
    /// Submitted, not yet resolved. The waker (if any) is taken and
    /// invoked exactly once when the slot transitions to `Done`.
    Pending {
        waker: Option<Waker>,
    },
    Done(Result<RunReport, TensorError>),
}

/// Lifecycle of the shared request queue.
#[derive(Clone, Copy, PartialEq, Eq)]
enum QueuePhase {
    /// Accepting submissions.
    Open,
    /// Shutdown requested: submissions are rejected, workers drain the
    /// remaining jobs and exit.
    Closing,
    /// Every worker has exited (panic storm or completed shutdown);
    /// nothing will ever be dequeued again.
    Dead,
}

/// The priority request queue. Keyed by `(Reverse(priority), seq)` so
/// ascending BTreeMap order is "highest priority first, FIFO within a
/// class" — and iteration order is fully deterministic (lint L3 bans
/// hash maps in this module for exactly that reason).
struct QueueState {
    jobs: BTreeMap<(Reverse<u8>, u64), Job>,
    /// Monotone enqueue sequence (FIFO tie-break within a priority).
    seq: u64,
    /// Total samples across `jobs` (the metrics depth gauge).
    samples: usize,
    phase: QueuePhase,
}

/// State shared between clients and workers.
///
/// The ticket table is a `BTreeMap`, not a `HashMap`, on purpose:
/// tickets are dense sequential integers, the table is tiny (bounded by
/// the in-flight request window), and an ordered structure keeps every
/// conceivable traversal deterministic — the engine's
/// bitwise-determinism contract must not hinge on "nobody ever iterates
/// this map".
///
/// Lock order: `queue` before `results` (the worker-death path holds
/// `queue` while publishing errors); no path ever takes `queue` while
/// holding `results`.
struct Shared {
    results: Mutex<BTreeMap<u64, Slot>>,
    done: Condvar,
    queue: Mutex<QueueState>,
    /// Signalled when queue space frees up (submitters park here).
    queue_push: Condvar,
    /// Signalled when a job arrives or the phase changes (workers park
    /// here).
    queue_pop: Condvar,
    /// Recycled batch-input tensors: workers return finished job inputs,
    /// `run_batch` reuses them for its coalesced chunks, so the warm
    /// batched path allocates no fresh batch buffers.
    pool: Mutex<Vec<Tensor>>,
    metrics: MetricsCore,
    /// Workers still running; the last one out fails all queued work.
    live_workers: AtomicUsize,
}

/// Recycled-buffer pool cap: enough for every worker plus a couple of
/// in-flight `run_batch` chunks; beyond that, tensors just drop.
const POOL_CAP: usize = 8;

/// Outcome of a queue push; rejected pushes hand the job back so the
/// caller can roll back its pending slots without re-collecting tickets.
enum Pushed {
    Accepted,
    Full(Job),
    Rejected(Job),
}

impl Shared {
    /// Poison-tolerant lock on the ticket table. A worker unwind (the very
    /// event [`InFlightGuard`] exists for) may poison this mutex between a
    /// slot update and its notify; waiters must still be able to drain
    /// their tickets — the table itself is never left mid-update (every
    /// critical section completes its map operation before unwinding can
    /// reach it through the executor).
    fn lock_results(&self) -> MutexGuard<'_, BTreeMap<u64, Slot>> {
        self.results.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Poison-tolerant lock on the request queue (same rationale).
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pushes a job, parking on `queue_push` while the queue is full (or
    /// returning [`Pushed::Full`] when `block` is false). Returns
    /// [`Pushed::Rejected`] once the engine stops accepting work.
    fn push_job(&self, job: Job, priority: u8, depth: usize, block: bool) -> Pushed {
        let mut q = self.lock_queue();
        while q.phase == QueuePhase::Open && q.jobs.len() >= depth {
            if !block {
                return Pushed::Full(job);
            }
            q = self.queue_push.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        if q.phase != QueuePhase::Open {
            return Pushed::Rejected(job);
        }
        let seq = q.seq;
        q.seq += 1;
        q.samples += job.samples();
        q.jobs.insert((Reverse(priority), seq), job);
        self.metrics.on_queue_depth(q.jobs.len() as u64, q.samples as u64);
        drop(q);
        self.queue_pop.notify_one();
        Pushed::Accepted
    }

    /// Takes a recycled batch buffer (or a fresh empty tensor).
    fn take_buf(&self) -> Tensor {
        let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        pool.pop().unwrap_or_default()
    }

    /// Returns a finished job input to the pool (dropped once full).
    fn put_buf(&self, buf: Tensor) {
        let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
    }
}

/// The serving engine: a compiled session behind a bounded priority
/// queue and a worker pool. See the [module docs](self) for the full
/// semantics.
pub struct ServeEngine {
    graph: Arc<Graph>,
    executor: Arc<dyn Executor>,
    backend: Backend,
    config: ServeConfig,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    next_ticket: AtomicU64,
}

impl ServeEngine {
    /// Builds the engine from a compiled session (the
    /// [`Session::into_engine`] destination).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when `config` is invalid.
    pub(crate) fn new(session: Session, config: ServeConfig) -> Result<Self, TensorError> {
        config.validate()?;
        let mut config = config;
        if config.workers == 0 {
            config.workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        }
        let backend = session.backend();
        let (graph, executor) = session.shared_parts();
        let shared = Arc::new(Shared {
            results: Mutex::new(BTreeMap::new()),
            done: Condvar::new(),
            queue: Mutex::new(QueueState {
                jobs: BTreeMap::new(),
                seq: 0,
                samples: 0,
                phase: QueuePhase::Open,
            }),
            queue_push: Condvar::new(),
            queue_pop: Condvar::new(),
            pool: Mutex::new(Vec::new()),
            metrics: MetricsCore::new(),
            // Registered up front so a worker that dies before its
            // siblings even start still leaves an exact count.
            live_workers: AtomicUsize::new(config.workers),
        });
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let executor = Arc::clone(&executor);
            let shared_worker = Arc::clone(&shared);
            let spawned =
                std::thread::Builder::new().name(format!("bconv-serve-{i}")).spawn(move || {
                    // Worker-owned reusable buffers, built here (cold
                    // construction) so the serving loop itself never
                    // allocates bookkeeping.
                    let mut state = WorkerState {
                        scratch: ExecScratch::new(),
                        batch_buf: Tensor::default(),
                        jobs: Vec::new(),
                        parts: Vec::new(),
                    };
                    worker_loop(&*executor, &shared_worker, &mut state, config);
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Un-register the workers that will never run, close
                    // the queue so the spawned ones exit, and report the
                    // resource failure as a typed error instead of
                    // panicking mid-construction.
                    shared.live_workers.fetch_sub(config.workers - i, Ordering::AcqRel);
                    {
                        let mut q = shared.lock_queue();
                        q.phase = QueuePhase::Closing;
                    }
                    shared.queue_pop.notify_all();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(TensorError::invalid(format!(
                        "cannot spawn serve worker thread {i} of {}: {e}",
                        config.workers
                    )));
                }
            }
        }
        Ok(Self {
            graph,
            executor,
            backend,
            config,
            workers,
            shared,
            next_ticket: AtomicU64::new(1),
        })
    }

    /// The backend the engine serves.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The engine's sizing configuration, with `workers = 0` (auto)
    /// already resolved to the actual pool size.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// A point-in-time [`ServeMetrics`] snapshot. Lock-free on the
    /// serving path: counters are relaxed atomics, so the snapshot is
    /// cheap and never blocks workers or submitters.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.metrics.snapshot()
    }

    /// `true` when `other` serves the same compiled model: same graph
    /// and same executor (weights, plan, calibration) by `Arc` identity.
    /// Router replicas built by [`Session::into_router`] all share one
    /// model this way.
    pub fn shares_model_with(&self, other: &ServeEngine) -> bool {
        Arc::ptr_eq(&self.graph, &other.graph) && Arc::ptr_eq(&self.executor, &other.executor)
    }

    /// Samples currently queued (not yet dequeued by a worker) — the
    /// router's load-balancing signal.
    pub(crate) fn queued_samples(&self) -> u64 {
        self.shared.metrics.snapshot_queue_samples()
    }

    /// Validates a request input: per-sample shape must match the graph,
    /// and the batch must be non-empty (an empty batch has no ticket to
    /// answer).
    fn check_request(&self, input: &Tensor) -> Result<usize, TensorError> {
        check_input(&self.graph, input)?;
        let n = input.shape().dims()[0];
        if n == 0 {
            return Err(TensorError::invalid("cannot serve an empty (batch 0) request"));
        }
        Ok(n)
    }

    fn issue_ticket(&self) -> u64 {
        self.next_ticket.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers pending slots for `parts` (attaching `waker` to the
    /// first ticket) and pushes the job. On rejection the slots are
    /// rolled back so the tickets read as unknown rather than hanging
    /// forever. Returns `Ok(false)` only for a non-blocking push into a
    /// full queue.
    fn enqueue(
        &self,
        parts: Parts,
        input: Tensor,
        opts: SubmitOptions,
        waker: Option<Waker>,
        block: bool,
    ) -> Result<bool, TensorError> {
        let n_parts = parts.as_slice().len() as u64;
        {
            let mut results = self.shared.lock_results();
            let mut waker = waker;
            for &(t, _) in parts.as_slice() {
                results.insert(t, Slot::Pending { waker: waker.take() });
            }
        }
        let job = Job { parts, input, deadline: opts.deadline, submitted: Instant::now() };
        match self.shared.push_job(job, opts.priority, self.config.queue_depth, block) {
            Pushed::Accepted => {
                self.shared.metrics.on_submit(n_parts);
                Ok(true)
            }
            Pushed::Full(job) => {
                self.rollback(&job);
                Ok(false)
            }
            Pushed::Rejected(job) => {
                self.rollback(&job);
                Err(TensorError::invalid("engine is shut down"))
            }
        }
    }

    /// Removes the (still-pending) slots of a job the queue refused.
    fn rollback(&self, job: &Job) {
        let mut results = self.shared.lock_results();
        for &(t, _) in job.parts.as_slice() {
            results.remove(&t);
        }
    }

    fn submit_inner(
        &self,
        input: Tensor,
        opts: SubmitOptions,
        waker: Option<Waker>,
        block: bool,
    ) -> Result<Option<TicketId>, TensorError> {
        let n = self.check_request(&input)?;
        let ticket = self.issue_ticket();
        if let Some(deadline) = opts.deadline {
            if Instant::now() >= deadline {
                // Already expired at the door: resolve the ticket to the
                // typed shed error without ever queueing it.
                self.shared.metrics.on_submit(1);
                shed_ticket(&self.shared, ticket, waker);
                return Ok(Some(TicketId(ticket)));
            }
        }
        let enqueued = self.enqueue(Parts::One([(ticket, n)]), input, opts, waker, block)?;
        Ok(enqueued.then_some(TicketId(ticket)))
    }

    /// Enqueues one request (any batch size) at default priority with no
    /// deadline, **blocking while the queue is full** — the backpressure
    /// point. Returns a ticket redeemable once with [`wait`](Self::wait)
    /// or [`poll`](Self::poll).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on per-sample shape mismatch, an empty
    /// batch, or an engine that is shutting down.
    pub fn submit(&self, input: Tensor) -> Result<TicketId, TensorError> {
        self.submit_with(input, SubmitOptions::default())
    }

    /// [`submit`](Self::submit) with explicit [`SubmitOptions`]
    /// (priority and deadline).
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit). An already-expired deadline is not
    /// an error: the returned ticket resolves to
    /// [`TensorError::DeadlineExpired`].
    pub fn submit_with(&self, input: Tensor, opts: SubmitOptions) -> Result<TicketId, TensorError> {
        match self.submit_inner(input, opts, None, true)? {
            Some(ticket) => Ok(ticket),
            // Blocking push only returns "not enqueued" on shutdown.
            None => Err(TensorError::invalid("engine is shut down")),
        }
    }

    /// [`submit_with`](Self::submit_with) plus a completion [`Waker`]:
    /// `waker` is invoked exactly once — from whichever thread resolves
    /// the ticket — when the result becomes ready (success, error, or
    /// shed). Redeem the ticket afterwards with [`poll`](Self::poll) (or
    /// [`wait`](Self::wait), which will not block by then).
    ///
    /// # Errors
    ///
    /// See [`submit_with`](Self::submit_with). If submission itself
    /// fails, the waker is dropped without being invoked.
    pub fn submit_with_waker(
        &self,
        input: Tensor,
        opts: SubmitOptions,
        waker: Waker,
    ) -> Result<TicketId, TensorError> {
        match self.submit_inner(input, opts, Some(waker), true)? {
            Some(ticket) => Ok(ticket),
            None => Err(TensorError::invalid("engine is shut down")),
        }
    }

    /// Non-blocking [`submit`](Self::submit): returns `Ok(None)` instead
    /// of blocking when the queue is full (the caller sees backpressure
    /// and can shed load).
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit).
    pub fn try_submit(&self, input: Tensor) -> Result<Option<TicketId>, TensorError> {
        self.submit_inner(input, SubmitOptions::default(), None, false)
    }

    /// Non-blocking completion check: `Ok(Some(report))` delivers the
    /// result (exactly once — the ticket is consumed), `Ok(None)` means
    /// still in flight (the ticket stays redeemable).
    ///
    /// # Errors
    ///
    /// Returns the request's own execution error (consuming the ticket),
    /// or [`TensorError::InvalidParameter`] for an unknown or
    /// already-delivered ticket.
    pub fn poll(&self, ticket: TicketId) -> Result<Option<RunReport>, TensorError> {
        let mut results = self.shared.lock_results();
        match results.remove(&ticket.0) {
            None => Err(TensorError::invalid("ticket is unknown or was already delivered")),
            Some(Slot::Done(report)) => report.map(Some),
            Some(pending @ Slot::Pending { .. }) => {
                results.insert(ticket.0, pending);
                Ok(None)
            }
        }
    }

    /// Blocks until `ticket`'s request has executed and returns its
    /// report. Every ticket is delivered exactly once; waiting again (or
    /// on a ticket this engine never issued) is an error, not a hang.
    ///
    /// # Errors
    ///
    /// Returns the request's own execution error, or
    /// [`TensorError::InvalidParameter`] for an unknown/already-delivered
    /// ticket.
    pub fn wait(&self, ticket: TicketId) -> Result<RunReport, TensorError> {
        let mut results = self.shared.lock_results();
        loop {
            // Take the slot out: a Done slot is delivered (exactly once), a
            // Pending slot goes straight back before parking on the condvar.
            match results.remove(&ticket.0) {
                None => {
                    return Err(TensorError::invalid("ticket is unknown or was already delivered"))
                }
                Some(Slot::Done(report)) => return report,
                Some(pending @ Slot::Pending { .. }) => {
                    results.insert(ticket.0, pending);
                    results =
                        self.shared.done.wait(results).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Runs a batch of requests and returns their reports in request
    /// order. Inputs are validated up front, pre-coalesced into
    /// [`ServeConfig::max_batch`]-sample jobs (amortising block dispatch
    /// across the batch), executed by the worker pool, and split back
    /// into per-request reports with exact per-request [`MemStats`].
    /// Outputs are bitwise-identical to running each input through
    /// [`Session::run`](crate::Session::run) alone.
    ///
    /// Takes the inputs **by value**: a single-request chunk ships the
    /// caller's tensor itself (no deep copy), and multi-request chunks
    /// concatenate into recycled pool buffers — the warm batched path
    /// performs no per-chunk buffer allocation.
    ///
    /// # Errors
    ///
    /// Returns the first failing request's error (after all requests
    /// finished), or a validation error before anything is enqueued.
    pub fn run_batch(&self, inputs: Vec<Tensor>) -> Result<Vec<RunReport>, TensorError> {
        let mut inputs = inputs;
        let mut sizes = Vec::with_capacity(inputs.len());
        for input in &inputs {
            sizes.push(self.check_request(input)?);
        }
        let mut tickets: Vec<TicketId> = Vec::with_capacity(inputs.len());
        let mut i = 0usize;
        while i < inputs.len() {
            // Greedy chunk: extend while the sample budget holds (a single
            // oversized request still ships alone — the executor takes any
            // batch size; max_batch only caps *coalescing*).
            let mut j = i + 1;
            let mut samples = sizes[i];
            while j < inputs.len() && samples + sizes[j] <= self.config.max_batch {
                samples += sizes[j];
                j += 1;
            }
            let (parts, input) = if j - i == 1 {
                // Sole request in the chunk: move the caller's tensor
                // straight into the job — no copy of any kind.
                (Parts::One([(self.issue_ticket(), sizes[i])]), std::mem::take(&mut inputs[i]))
            } else {
                let parts: Vec<(u64, usize)> =
                    (i..j).map(|k| (self.issue_ticket(), sizes[k])).collect();
                let chunk: Vec<&Tensor> = inputs[i..j].iter().collect();
                let mut batch = self.shared.take_buf();
                concat_batch_into(&chunk, samples, &mut batch);
                (Parts::Many(parts), batch)
            };
            let chunk_tickets: Vec<u64> = parts.as_slice().iter().map(|&(t, _)| t).collect();
            if let Err(e) = self.enqueue(parts, input, SubmitOptions::default(), None, true) {
                // A blocking push can only be rejected once the engine
                // stops accepting work, so chunks enqueued earlier that
                // are not already Done will never be: resolve their
                // Pending slots to errors, then drain everything so no
                // result lingers undelivered. (This chunk's own tickets
                // were rolled back inside `enqueue` — they resolve as
                // unknown, not as a hang.) Blind-waiting instead would
                // hang on the first abandoned ticket.
                {
                    let mut results = self.shared.lock_results();
                    for t in &tickets {
                        if matches!(results.get(&t.0), Some(Slot::Pending { .. })) {
                            results.insert(t.0, Slot::Done(Err(e.clone())));
                        }
                    }
                }
                self.shared.done.notify_all();
                for ticket in tickets {
                    let _ = self.wait(ticket);
                }
                return Err(e);
            }
            tickets.extend(chunk_tickets.iter().map(|&t| TicketId(t)));
            i = j;
        }
        let mut reports = Vec::with_capacity(tickets.len());
        let mut first_err: Option<TensorError> = None;
        for ticket in tickets {
            match self.wait(ticket) {
                Ok(report) => reports.push(report),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(reports),
            Some(e) => Err(e),
        }
    }

    /// Closes the queue, drains every already-submitted request, and
    /// joins the worker pool. Dropping the engine does the same.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut q = self.shared.lock_queue();
            if q.phase == QueuePhase::Open {
                q.phase = QueuePhase::Closing;
            }
        }
        // Wake every parked worker (to drain and exit) and submitter (to
        // observe the rejection).
        self.shared.queue_pop.notify_all();
        self.shared.queue_push.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Slots still resident in the ticket table (pending or undelivered).
    #[cfg(test)]
    pub(crate) fn resident_slots(&self) -> usize {
        self.shared.lock_results().len()
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("network", &self.graph.name())
            .field("backend", &self.backend)
            .field("config", &self.config)
            .finish()
    }
}

/// Concatenates same-per-sample-shape requests along the batch dimension
/// into `out` (NCHW is sample-major, so this is a plain append) —
/// `run_batch`'s pre-coalescing primitive, writing into a recycled pool
/// buffer.
fn concat_batch_into(chunk: &[&Tensor], total_n: usize, out: &mut Tensor) {
    let [_, c, h, w] = chunk[0].shape().dims();
    out.reset([total_n, c, h, w]);
    let mut off = 0usize;
    for t in chunk {
        let d = t.data();
        out.data_mut()[off..off + d.len()].copy_from_slice(d);
        off += d.len();
    }
}

/// Worker-side twin of [`concat_batch_into`]: appends each drained job's
/// input into the worker's reusable batch buffer without building a
/// borrow list first (the serving loop stays free of per-batch
/// bookkeeping allocation).
fn concat_jobs_into(jobs: &[Job], total_n: usize, out: &mut Tensor) {
    let [_, c, h, w] = jobs[0].input.shape().dims();
    out.reset([total_n, c, h, w]);
    let mut off = 0usize;
    for job in jobs {
        let d = job.input.data();
        out.data_mut()[off..off + d.len()].copy_from_slice(d);
        off += d.len();
    }
}

/// Per-request share of a coalesced batch's [`MemStats`]: every counter
/// term of the shipped backends scales linearly with the batch
/// dimension, so `x * n / total_n` is exact and equals the stats of a
/// solo run of the same request (`tests/serve_determinism.rs` asserts
/// the equality). The multiply-first u128 arithmetic keeps release
/// builds sensible (nearest rounding, no truncation bias) even if a
/// future backend adds a batch-independent term; the debug asserts are
/// the canary that flags such a term during development.
fn per_request_stats(batch: MemStats, total_n: usize, n: usize) -> MemStats {
    debug_assert_eq!(
        batch.offchip_elems % total_n,
        0,
        "off-chip traffic must carry the batch factor"
    );
    debug_assert_eq!(
        batch.peak_working_elems % total_n,
        0,
        "working-set peak must carry the batch factor"
    );
    let share = |x: usize| -> usize {
        ((x as u128 * n as u128 + total_n as u128 / 2) / total_n as u128) as usize
    };
    MemStats {
        peak_working_elems: share(batch.peak_working_elems),
        offchip_elems: share(batch.offchip_elems),
        bits_per_elem: batch.bits_per_elem,
    }
}

/// Publishes one ticket's result, wakes blocking waiters, and invokes
/// the ticket's registered waker (if any) exactly once. The waker runs
/// outside the results lock; a panicking waker is contained so it can
/// never take down a worker (the result is already published).
fn fulfill(shared: &Shared, ticket: u64, report: Result<RunReport, TensorError>) {
    let waker = {
        let mut results = shared.lock_results();
        match results.insert(ticket, Slot::Done(report)) {
            Some(Slot::Pending { waker }) => waker,
            _ => None,
        }
    };
    shared.done.notify_all();
    if let Some(waker) = waker {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            waker(TicketId(ticket));
        }));
    }
}

/// Resolves a ticket to the typed shed error ([`TensorError::DeadlineExpired`])
/// at the submission door, before it ever queues.
fn shed_ticket(shared: &Shared, ticket: u64, waker: Option<Waker>) {
    shared.metrics.on_shed();
    {
        let mut results = shared.lock_results();
        results.insert(ticket, Slot::Done(Err(TensorError::DeadlineExpired)));
    }
    shared.done.notify_all();
    if let Some(waker) = waker {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            waker(TicketId(ticket));
        }));
    }
}

/// Sheds a dequeued-but-expired job: every ticket it carries resolves to
/// [`TensorError::DeadlineExpired`] without touching the executor.
fn shed_expired(shared: &Shared, parts: &[(u64, usize)]) {
    for &(ticket, _) in parts {
        shared.metrics.on_shed();
        fulfill(shared, ticket, Err(TensorError::DeadlineExpired));
    }
}

/// Splits a coalesced batch report back into per-request reports, in
/// batch order. The output batch dimension is partitioned at the request
/// boundaries; stats divide exactly (see [`per_request_stats`]).
fn fulfill_split(shared: &Shared, parts: &[(u64, usize)], total_n: usize, report: &RunReport) {
    let [out_n, c_out, oh, ow] = report.output.shape().dims();
    debug_assert_eq!(out_n, total_n, "output batch must match the coalesced input batch");
    let per_sample = c_out * oh * ow;
    let mut start = 0usize;
    for &(ticket, n) in parts {
        let data = report.output.data()[start * per_sample..(start + n) * per_sample].to_vec();
        // The split dims match the copied slice by construction; should
        // that invariant ever break, the ticket receives the shape error
        // instead of the worker unwinding.
        let result = Tensor::from_vec([n, c_out, oh, ow], data).map(|output| RunReport {
            output,
            stats: per_request_stats(report.stats, total_n, n),
            segments: report.segments,
        });
        fulfill(shared, ticket, result);
        start += n;
    }
}

/// A worker's reusable buffers, constructed once at spawn (in
/// [`ServeEngine::new`]'s thread closure) so the serving loop performs
/// no per-batch bookkeeping allocation.
struct WorkerState {
    scratch: ExecScratch,
    batch_buf: Tensor,
    /// Jobs drained for the current batch.
    jobs: Vec<Job>,
    /// Flattened `(ticket, samples)` parts of the current batch.
    parts: Vec<(u64, usize)>,
}

/// A worker: pull the highest-priority job, opportunistically coalesce
/// more queued jobs up to the (possibly adaptive) sample cap, shed the
/// expired ones, run the rest as one batch through the shared executor
/// with this worker's scratch, split the results per ticket, and recycle
/// the input buffers.
fn worker_loop(
    executor: &dyn Executor,
    shared: &Shared,
    state: &mut WorkerState,
    config: ServeConfig,
) {
    // Declared first so it drops LAST on unwind: the in-flight guard
    // (below) fails this worker's own tickets before the exit guard
    // decides whether the whole engine is dead.
    let _exit = WorkerExitGuard { shared };
    loop {
        let mut q = shared.lock_queue();
        let first = loop {
            if let Some((_, job)) = q.jobs.pop_first() {
                break job;
            }
            match q.phase {
                // Parking on the condvar releases the queue lock (lint
                // L5's release-and-park exemption) — no lock is held
                // while blocked.
                QueuePhase::Open => {
                    q = shared.queue_pop.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
                // Closing with an empty queue (drained) or Dead: exit.
                _ => return,
            }
        };
        // Adaptive coalescing cap: follow the smoothed queue depth so a
        // quiet queue ships single requests immediately while a deep
        // queue amortises dispatch across up to max_batch samples. Jobs
        // are never split, so a pre-coalesced run_batch chunk always
        // runs whole.
        let cap = if config.adaptive_batch {
            (shared.metrics.depth_ewma_samples() as usize).clamp(1, config.max_batch)
        } else {
            config.max_batch
        };
        let mut samples = first.samples();
        state.jobs.push(first);
        while samples < cap {
            let fits = matches!(
                q.jobs.first_key_value(),
                Some((_, job)) if samples + job.samples() <= cap
            );
            if !fits {
                break;
            }
            if let Some((_, job)) = q.jobs.pop_first() {
                samples += job.samples();
                state.jobs.push(job);
            } else {
                break;
            }
        }
        q.samples = q.samples.saturating_sub(samples);
        shared.metrics.on_queue_depth(q.jobs.len() as u64, q.samples as u64);
        drop(q);
        // Space freed: wake every parked submitter that now fits.
        shared.queue_push.notify_all();

        // Shed-on-expiry: a job whose deadline passed while queued never
        // reaches the executor — its tickets resolve to the typed error.
        let now = Instant::now();
        state.jobs.retain(|job| {
            let expired = job.deadline.is_some_and(|d| now >= d);
            if expired {
                shed_expired(shared, job.parts.as_slice());
            }
            !expired
        });
        if state.jobs.is_empty() {
            continue;
        }

        state.parts.clear();
        for job in &state.jobs {
            for &part in job.parts.as_slice() {
                state.parts.push(part);
            }
        }
        let total_n: usize = state.parts.iter().map(|&(_, n)| n).sum();

        // Exactly-once delivery must survive a panic anywhere between
        // dequeue and delivery (executor run AND result splitting): the
        // guard stays armed through fulfillment, and its Drop fails only
        // tickets still Pending, so no client hangs in `wait` and no
        // delivered result is overwritten.
        let guard = InFlightGuard { shared, parts: &state.parts };
        let result = if state.jobs.len() == 1 {
            executor.run_scratch(&state.jobs[0].input, &mut state.scratch)
        } else {
            concat_jobs_into(&state.jobs, total_n, &mut state.batch_buf);
            executor.run_scratch(&state.batch_buf, &mut state.scratch)
        };
        shared.metrics.on_batch(total_n);

        match result {
            Ok(report) => {
                // Count completions *before* publishing any result: the
                // moment a slot turns Done a waiter may wake and read the
                // metrics, and it must see its own request counted.
                for job in &state.jobs {
                    let us = job.submitted.elapsed().as_micros() as u64;
                    for _ in job.parts.as_slice() {
                        shared.metrics.on_complete(us);
                    }
                }
                match state.parts[..] {
                    // Sole request: hand the report over without a copy.
                    [(ticket, _)] => fulfill(shared, ticket, Ok(report)),
                    _ => fulfill_split(shared, &state.parts, total_n, &report),
                }
            }
            Err(e) => {
                for _ in state.parts.iter() {
                    shared.metrics.on_fail();
                }
                for &(ticket, _) in state.parts.iter() {
                    fulfill(shared, ticket, Err(e.clone()));
                }
            }
        }
        drop(guard); // everything delivered: the guard finds nothing Pending

        // Recycle the finished inputs so run_batch's next chunks reuse
        // them instead of allocating fresh batch buffers.
        for job in state.jobs.drain(..) {
            shared.put_buf(job.input);
        }
    }
}

/// Unwind guard for a worker's in-flight job: on drop it publishes an
/// error for every ticket still `Pending` (delivered results — Done or
/// already redeemed — are left untouched, so the guard is a no-op on the
/// normal path). Uses poison-tolerant locking: the unwind it exists for
/// may have poisoned any mutex. Preserves the "a ticket always resolves"
/// contract even when the executor or the result-splitting path panics.
struct InFlightGuard<'a> {
    shared: &'a Shared,
    parts: &'a [(u64, usize)],
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut failed_any = false;
        {
            let mut results = self.shared.lock_results();
            for &(ticket, _) in self.parts {
                if matches!(results.get(&ticket), Some(Slot::Pending { .. })) {
                    results.insert(
                        ticket,
                        Slot::Done(Err(TensorError::invalid(
                            "serving worker panicked while executing this request",
                        ))),
                    );
                    self.shared.metrics.on_fail();
                    failed_any = true;
                }
            }
        }
        if failed_any {
            self.shared.done.notify_all();
        }
    }
}

/// Worker-exit accounting: the last worker out (normal shutdown or a
/// panic storm) marks the queue Dead, fails every still-queued ticket,
/// and wakes all parked submitters and waiters — so a fully-dead engine
/// rejects instead of hanging. Poison-tolerant throughout: it runs
/// during unwinds.
struct WorkerExitGuard<'a> {
    shared: &'a Shared,
}

impl Drop for WorkerExitGuard<'_> {
    fn drop(&mut self) {
        if self.shared.live_workers.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        // Last worker out: nothing will ever be dequeued again.
        {
            let mut q = self.shared.lock_queue();
            q.phase = QueuePhase::Dead;
            q.samples = 0;
            self.shared.metrics.on_queue_depth(0, 0);
        }
        self.shared.queue_push.notify_all();
        self.shared.queue_pop.notify_all();
        // Fail the orphaned jobs one at a time, never holding the queue
        // lock while publishing results (lock-order hygiene: fulfill
        // takes the results lock and may run a waker).
        loop {
            let job = {
                let mut q = self.shared.lock_queue();
                match q.jobs.pop_first() {
                    Some((_, job)) => job,
                    None => break,
                }
            };
            for &(ticket, _) in job.parts.as_slice() {
                self.shared.metrics.on_fail();
                fulfill(
                    self.shared,
                    ticket,
                    Err(TensorError::invalid("all serving workers have exited")),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use bconv_models::builder::{conv, maxpool, NetBuilder};
    use bconv_models::{ActShape, Network};
    use bconv_tensor::init::{seeded_rng, uniform_tensor};
    use std::sync::mpsc;

    /// A 3-op net small enough for tight unit-test loops.
    fn tiny_net() -> Network {
        let mut b = NetBuilder::new("tiny_serve", ActShape { c: 2, h: 16, w: 16 });
        b.push("conv1", conv(3, 1, 1, 2, 3));
        b.push("conv2", conv(3, 1, 1, 3, 2));
        b.push("pool", maxpool(2, 2, 0));
        b.build()
    }

    fn builder() -> SessionBuilder {
        Session::builder().network(tiny_net()).seed(7).relu_after_conv(true)
    }

    fn input(seed: u64, n: usize) -> Tensor {
        uniform_tensor([n, 2, 16, 16], -1.0, 1.0, &mut seeded_rng(seed))
    }

    fn cfg(workers: usize, queue_depth: usize, max_batch: usize) -> ServeConfig {
        ServeConfig { workers, queue_depth, max_batch, adaptive_batch: true }
    }

    #[test]
    fn config_is_validated() {
        for bad in [
            ServeConfig { queue_depth: 0, ..ServeConfig::default() },
            ServeConfig { max_batch: 0, ..ServeConfig::default() },
        ] {
            assert!(builder().build().unwrap().into_engine(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn zero_workers_resolves_to_one_worker_per_core() {
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        let engine = builder().build().unwrap().into_engine(ServeConfig::default()).unwrap();
        assert_eq!(engine.config().workers, avail);
        let t = engine.submit(input(5, 1)).unwrap();
        assert!(engine.wait(t).is_ok());
    }

    #[test]
    fn submit_wait_matches_session_run() {
        let oracle = builder().build().unwrap();
        let engine = builder().build().unwrap().into_engine(cfg(2, 4, 4)).unwrap();
        let inputs: Vec<Tensor> = (0..4).map(|i| input(10 + i, 1)).collect();
        let want: Vec<Tensor> = inputs.iter().map(|t| oracle.run(t).unwrap().output).collect();
        let tickets: Vec<TicketId> =
            inputs.iter().map(|t| engine.submit(t.clone()).unwrap()).collect();
        // Wait out of order: tickets resolve independently.
        for (i, &t) in tickets.iter().enumerate().rev() {
            let report = engine.wait(t).unwrap();
            assert_eq!(report.output.data(), want[i].data(), "request {i} diverged");
        }
    }

    #[test]
    fn tickets_deliver_exactly_once() {
        let engine = builder().build().unwrap().into_engine(ServeConfig::default()).unwrap();
        let t = engine.submit(input(1, 1)).unwrap();
        engine.wait(t).unwrap();
        assert!(engine.wait(t).is_err(), "double wait must error, not hang");
        assert!(engine.wait(TicketId(9999)).is_err(), "unknown ticket must error");
        assert!(engine.poll(TicketId(9999)).is_err(), "unknown ticket must error on poll too");
    }

    #[test]
    fn submit_validates_shape_and_batch() {
        let engine = builder().build().unwrap().into_engine(ServeConfig::default()).unwrap();
        assert!(engine.submit(Tensor::zeros([1, 2, 8, 8])).is_err(), "wrong spatial dims");
        assert!(engine.submit(Tensor::zeros([0, 2, 16, 16])).is_err(), "empty batch");
        assert!(engine.try_submit(Tensor::zeros([1, 3, 16, 16])).is_err(), "wrong channels");
    }

    #[test]
    fn run_batch_with_mixed_batch_sizes_matches_solo_runs() {
        let oracle = builder().build().unwrap();
        let engine = builder().build().unwrap().into_engine(cfg(2, 8, 3)).unwrap();
        // Mixed sizes force uneven coalescing chunks under max_batch = 3.
        let inputs: Vec<Tensor> = [1usize, 2, 1, 3, 1]
            .iter()
            .enumerate()
            .map(|(i, &n)| input(20 + i as u64, n))
            .collect();
        let reports = engine.run_batch(inputs.clone()).unwrap();
        assert_eq!(reports.len(), inputs.len());
        for (i, (inp, got)) in inputs.iter().zip(&reports).enumerate() {
            let want = oracle.run(inp).unwrap();
            assert_eq!(got.output.data(), want.output.data(), "request {i} output diverged");
            assert_eq!(got.stats, want.stats, "request {i} stats diverged");
            assert_eq!(got.segments, want.segments);
        }
    }

    #[test]
    fn run_batch_of_nothing_is_empty() {
        let engine = builder().build().unwrap().into_engine(ServeConfig::default()).unwrap();
        assert!(engine.run_batch(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn try_submit_succeeds_on_an_idle_engine() {
        let engine = builder().build().unwrap().into_engine(ServeConfig::default()).unwrap();
        let t = engine.try_submit(input(3, 1)).unwrap().expect("idle queue accepts");
        assert!(engine.wait(t).is_ok());
    }

    #[test]
    fn shutdown_with_undelivered_results_does_not_hang() {
        let engine = builder().build().unwrap().into_engine(ServeConfig::default()).unwrap();
        for i in 0..3 {
            engine.submit(input(30 + i, 1)).unwrap();
        }
        engine.shutdown(); // tickets never waited on; must still join cleanly
    }

    #[test]
    fn engine_reports_its_configuration() {
        let conf = cfg(2, 5, 3);
        let engine = builder().build().unwrap().into_engine(conf).unwrap();
        assert_eq!(engine.config(), conf);
        assert_eq!(engine.backend(), Backend::Blocked);
        let d = format!("{engine:?}");
        assert!(d.contains("tiny_serve"), "{d}");
    }

    #[test]
    fn poll_delivers_exactly_once() {
        let oracle = builder().build().unwrap();
        let engine = builder().build().unwrap().into_engine(cfg(1, 4, 1)).unwrap();
        let inp = input(40, 1);
        let want = oracle.run(&inp).unwrap().output;
        let t = engine.submit(inp).unwrap();
        // Spin: poll returns Ok(None) while in flight, then the report.
        let report = loop {
            match engine.poll(t).unwrap() {
                Some(report) => break report,
                None => std::thread::yield_now(),
            }
        };
        assert_eq!(report.output.data(), want.data());
        assert!(engine.poll(t).is_err(), "a delivered ticket must not poll again");
        assert!(engine.wait(t).is_err(), "nor wait again");
    }

    #[test]
    fn waker_fires_exactly_once_and_result_polls() {
        let engine = builder().build().unwrap().into_engine(cfg(1, 4, 2)).unwrap();
        let (tx, rx) = mpsc::channel::<TicketId>();
        let t = engine
            .submit_with_waker(
                input(41, 1),
                SubmitOptions::default(),
                Box::new(move |done| {
                    let _ = tx.send(done);
                }),
            )
            .unwrap();
        let woken = rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        assert_eq!(woken, t, "waker must receive its own ticket");
        // After the wake the result is ready: poll must not return None.
        let report = engine.poll(t).unwrap();
        assert!(report.is_some(), "waker fired before the result was published");
        assert!(rx.try_recv().is_err(), "waker must fire exactly once");
    }

    #[test]
    fn zero_deadline_sheds_with_typed_error() {
        let engine = builder().build().unwrap().into_engine(cfg(1, 4, 2)).unwrap();
        let opts = SubmitOptions { priority: 3, deadline: Some(Instant::now()) };
        let (tx, rx) = mpsc::channel::<TicketId>();
        let t = engine
            .submit_with_waker(
                input(42, 1),
                opts,
                Box::new(move |done| {
                    let _ = tx.send(done);
                }),
            )
            .unwrap();
        // Shed notifies the waker too (the ticket resolved).
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(), t);
        assert!(matches!(engine.wait(t), Err(TensorError::DeadlineExpired)));
        let m = engine.metrics();
        assert_eq!(m.shed, 1, "shed must be counted");
        assert_eq!(m.completed, 0);
        // A generous deadline is not shed.
        let far = SubmitOptions {
            deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
            ..SubmitOptions::default()
        };
        let t2 = engine.submit_with(input(43, 1), far).unwrap();
        assert!(engine.wait(t2).is_ok(), "future deadline must execute normally");
    }

    #[test]
    fn metrics_count_requests_and_batches() {
        let oracle = builder().build().unwrap();
        let engine = builder().build().unwrap().into_engine(cfg(1, 8, 4)).unwrap();
        let inputs: Vec<Tensor> = (0..6).map(|i| input(50 + i, 1)).collect();
        let reports = engine.run_batch(inputs.clone()).unwrap();
        for (inp, got) in inputs.iter().zip(&reports) {
            assert_eq!(got.output.data(), oracle.run(inp).unwrap().output.data());
        }
        let m = engine.metrics();
        assert_eq!(m.submitted, 6);
        assert_eq!(m.completed, 6);
        assert_eq!((m.failed, m.shed), (0, 0));
        assert!(m.batches >= 2, "6 samples under max_batch 4 need >= 2 dispatches");
        assert_eq!(m.batched_samples, 6);
        assert_eq!(m.batch_hist.iter().sum::<u64>(), m.batches);
        assert!(m.p99_latency_us >= m.p50_latency_us);
        assert!(m.max_latency_us >= m.p99_latency_us);
    }

    /// Test executor: waits for a gate permit before each run and records
    /// the order in which request tags (first input element, rounded)
    /// reach the executor — the priority-ordering observer.
    struct GatedExecutor {
        inner: Arc<dyn Executor>,
        started: mpsc::Sender<()>,
        gate: Mutex<mpsc::Receiver<()>>,
        order: Mutex<Vec<i64>>,
    }

    impl Executor for GatedExecutor {
        fn name(&self) -> &'static str {
            "gated-test"
        }

        fn run_scratch(
            &self,
            input: &Tensor,
            scratch: &mut ExecScratch,
        ) -> Result<RunReport, TensorError> {
            let _ = self.started.send(());
            let _ = self.gate.lock().unwrap().recv();
            self.order.lock().unwrap().push(input.data()[0].round() as i64);
            self.inner.run_scratch(input, scratch)
        }
    }

    /// Tags a request input: first element set to `tag` (the rest random)
    /// so the gated executor can identify it.
    fn tagged(seed: u64, tag: f32) -> Tensor {
        let mut t = input(seed, 1);
        t.data_mut()[0] = tag;
        t
    }

    #[test]
    fn higher_priority_dequeues_first() {
        let mut session = builder().build().unwrap();
        let (_graph, inner) = session.shared_parts();
        let (started_tx, started_rx) = mpsc::channel();
        let (permit_tx, permit_rx) = mpsc::channel();
        let order = {
            let gated = Arc::new(GatedExecutor {
                inner,
                started: started_tx,
                gate: Mutex::new(permit_rx),
                order: Mutex::new(Vec::new()),
            });
            session.swap_executor(Arc::clone(&gated) as Arc<dyn Executor>);
            // One worker, batch-of-1, fixed cap: dequeue order is exactly
            // queue priority order.
            let engine = session
                .into_engine(ServeConfig {
                    workers: 1,
                    queue_depth: 16,
                    max_batch: 1,
                    adaptive_batch: false,
                })
                .unwrap();
            // Block the worker on a sacrificial request so the next three
            // submissions all queue up before anything else is dequeued.
            let t0 = engine.submit(tagged(60, 100.0)).unwrap();
            started_rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
            let low1 = engine
                .submit_with(tagged(61, 1.0), SubmitOptions { priority: 0, deadline: None })
                .unwrap();
            let low2 = engine
                .submit_with(tagged(62, 2.0), SubmitOptions { priority: 0, deadline: None })
                .unwrap();
            let high = engine
                .submit_with(tagged(63, 3.0), SubmitOptions { priority: 9, deadline: None })
                .unwrap();
            for _ in 0..4 {
                permit_tx.send(()).unwrap();
            }
            for t in [t0, high, low1, low2] {
                engine.wait(t).unwrap();
            }
            engine.shutdown();
            let recorded = gated.order.lock().unwrap().clone();
            recorded
        };
        // The blocked request ran first (already in flight), then the
        // high-priority one jumped the two earlier low-priority ones,
        // which kept FIFO order between themselves.
        assert_eq!(order, [100, 3, 1, 2]);
    }

    /// Test executor: panics on inputs tagged with the poison value —
    /// the worker-death injector for the run_batch regression test.
    struct PanickingExecutor {
        inner: Arc<dyn Executor>,
    }

    const POISON_TAG: f32 = 12_345.0;

    impl Executor for PanickingExecutor {
        fn name(&self) -> &'static str {
            "panicking-test"
        }

        fn run_scratch(
            &self,
            input: &Tensor,
            scratch: &mut ExecScratch,
        ) -> Result<RunReport, TensorError> {
            assert!(input.data()[0] != POISON_TAG, "poisoned request reached the executor");
            self.inner.run_scratch(input, scratch)
        }
    }

    #[test]
    fn run_batch_survives_worker_death_mid_batch() {
        // Regression (ISSUE 9): when the queue dies mid-run_batch, every
        // ticket — executed, queued, or never enqueued — must resolve,
        // and no slot may linger in the results table.
        let mut session = builder().build().unwrap();
        let (_graph, inner) = session.shared_parts();
        session.swap_executor(Arc::new(PanickingExecutor { inner }));
        // One worker and a depth-1 queue: the poison chunk kills the only
        // worker while later chunks are queued or blocked in submit.
        let engine = session
            .into_engine(ServeConfig {
                workers: 1,
                queue_depth: 1,
                max_batch: 1,
                adaptive_batch: false,
            })
            .unwrap();
        let inputs = vec![tagged(70, POISON_TAG), tagged(71, 1.0), tagged(72, 2.0)];
        let err = engine.run_batch(inputs).expect_err("a poisoned batch must fail");
        assert_ne!(err, TensorError::DeadlineExpired);
        assert_eq!(engine.resident_slots(), 0, "no slot may linger after the error path");
        // The engine is dead: later submissions fail fast instead of hanging.
        assert!(engine.submit(tagged(73, 3.0)).is_err());
        assert!(engine.try_submit(tagged(74, 4.0)).is_err());
        let m = engine.metrics();
        assert!(m.failed >= 1, "worker death must be visible in metrics");
    }

    #[test]
    fn adaptive_and_fixed_caps_agree_bitwise() {
        let oracle = builder().build().unwrap();
        let adaptive = builder().build().unwrap().into_engine(cfg(2, 8, 4)).unwrap();
        let fixed = builder()
            .build()
            .unwrap()
            .into_engine(ServeConfig {
                workers: 2,
                queue_depth: 8,
                max_batch: 4,
                adaptive_batch: false,
            })
            .unwrap();
        let inputs: Vec<Tensor> = (0..5).map(|i| input(80 + i, 1)).collect();
        let a = adaptive.run_batch(inputs.clone()).unwrap();
        let f = fixed.run_batch(inputs.clone()).unwrap();
        for ((inp, ra), rf) in inputs.iter().zip(&a).zip(&f) {
            let want = oracle.run(inp).unwrap().output;
            assert_eq!(ra.output.data(), want.data(), "adaptive cap changed an output");
            assert_eq!(rf.output.data(), want.data(), "fixed cap changed an output");
        }
    }
}
