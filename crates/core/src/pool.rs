//! A fixed, shared compute-thread pool.
//!
//! The original head fan-out spawned `cfg.heads` fresh OS threads per DiT
//! block — multiplied by N serve workers, a 1-core container could see
//! dozens of runnable threads. This pool is sized once from
//! [`std::thread::available_parallelism`] and shared process-wide: the
//! forward pass, the calibrated forward pass, and paro-serve all submit
//! work here, so no code path spawns more compute threads than the
//! machine has cores.
//!
//! A batch submitted from a pool worker (a head splitting its block rows,
//! say) is shared with the workers that are idle at that moment: it gets
//! at most one helper ticket per idle worker, and the submitter drains
//! the rest itself. A helper pulls jobs from the batch until none are
//! left, and the submitter only waits on jobs a helper has already
//! started, so nesting can never deadlock the fixed worker set. When
//! every other worker is busy, the batch runs wholly on its submitter.

use std::any::Any;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One job of a batch, returning `T`.
type BatchJob<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// A job's result slot: its value, or the payload it panicked with.
type Outcome<T> = Result<T, Box<dyn Any + Send>>;

/// The panic payload a worker job unwound with — a panic carried as a
/// value, so callers of [`ComputePool::try_run`] get a typed error
/// instead of a re-raised unwind.
///
/// `message` is extracted with [`panic_message`]; two faults with the
/// same message compare equal, which chaos tests use to assert on
/// injected panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolFault {
    /// Human-readable panic payload (or a placeholder for non-string
    /// payloads).
    pub message: String,
}

impl fmt::Display for PoolFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool job panicked: {}", self.message)
    }
}

impl Error for PoolFault {}

/// Best-effort extraction of a panic payload's message: the `&str` and
/// `String` payloads `panic!` produces are returned verbatim, anything
/// else becomes a placeholder.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job body behind the `pool.job` failpoint; `Error` faults are
/// escalated to panics because pool jobs return bare values (the caller
/// decides between re-raising and [`PoolFault`]).
fn guarded<T>(job: impl FnOnce() -> T) -> T {
    if paro_failpoint::fire(paro_failpoint::site::POOL_JOB) {
        panic!(
            "injected fault at failpoint '{}'",
            paro_failpoint::site::POOL_JOB
        );
    }
    job()
}

/// Locks a pool mutex, recovering from poison: the queue holds plain
/// data (jobs + a shutdown flag) that stays consistent even if a holder
/// panicked, and a poisoned compute pool must never take serving down.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

std::thread_local! {
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

struct PoolState {
    queue: Mutex<PoolQueue>,
    available: Condvar,
    /// Cumulative wall-nanoseconds pool workers spent executing job
    /// bodies (queue wait excluded; a nested submitter's own share
    /// excluded).
    busy_ns: std::sync::atomic::AtomicU64,
    /// Jobs executed on pool workers, helpers included (a nested
    /// submitter's own share excluded).
    executed_jobs: std::sync::atomic::AtomicU64,
}

impl PoolState {
    /// Runs one job on this worker thread under the submitter's
    /// correlation context: records its queue wait (from `enqueued`, set
    /// only while a trace session records) and its `pool.execute` span,
    /// and counts it in the busy accounting.
    fn execute<T>(&self, job: BatchJob<T>, ctx: u64, enqueued: Option<Instant>) -> Outcome<T> {
        if let Some(at) = enqueued {
            paro_trace::record_range(paro_trace::stage::POOL_QUEUE_WAIT, at, Instant::now(), ctx);
        }
        // The span must close before the result is handed back: the
        // submitter may finish the trace session as soon as the last
        // result arrives.
        let started = Instant::now();
        let outcome = {
            let _execute = paro_trace::span(paro_trace::stage::POOL_EXECUTE);
            catch_unwind(AssertUnwindSafe(|| guarded(job)))
        };
        use std::sync::atomic::Ordering::Relaxed;
        self.busy_ns.fetch_add(
            started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            Relaxed,
        );
        self.executed_jobs.fetch_add(1, Relaxed);
        outcome
    }
}

/// A point-in-time view of the pool's cumulative execution accounting.
///
/// `busy_ns` only counts time spent inside job bodies on pool worker
/// threads, jobs a helper took from a nested batch included; queue wait
/// and a nested submitter's own share of its batch are excluded. Two
/// snapshots bracket a measurement window: the busy fraction over the
/// window is `Δbusy_ns / (wall_ns × threads)` — the occupancy figure the
/// serving scheduler's continuous-batching claim is judged by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Jobs executed on pool workers since pool creation.
    pub executed_jobs: u64,
    /// Cumulative nanoseconds spent executing job bodies.
    pub busy_ns: u64,
}

impl PoolStats {
    /// Busy fraction of the pool over a window that saw `self` grow from
    /// `earlier`: executed nanoseconds divided by available
    /// thread-nanoseconds. Clamped to `[0, 1]`; 0 for an empty window.
    pub fn busy_fraction_since(&self, earlier: &PoolStats, wall: std::time::Duration) -> f64 {
        let wall_ns = wall.as_nanos() as f64 * self.threads.max(1) as f64;
        if wall_ns <= 0.0 {
            return 0.0;
        }
        let delta = self.busy_ns.saturating_sub(earlier.busy_ns) as f64;
        (delta / wall_ns).clamp(0.0, 1.0)
    }
}

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
    /// Workers parked on `available`, waiting for a job.
    parked: usize,
}

impl PoolQueue {
    /// Parked workers no queued job is already waking: the helpers a
    /// nested batch may recruit right now.
    fn idle(&self) -> usize {
        self.parked.saturating_sub(self.jobs.len())
    }
}

/// A nested batch shared between its submitter and its helpers: the
/// jobs nobody has claimed yet, in submission order, and one result slot
/// per job.
struct Batch<T> {
    state: Mutex<BatchState<T>>,
    /// Signalled whenever a helper finishes a job; only the submitter
    /// waits on it.
    finished: Condvar,
}

struct BatchState<T> {
    pending: VecDeque<(usize, BatchJob<T>)>,
    /// Jobs helpers have claimed and not yet finished.
    running: usize,
    results: Vec<Option<Outcome<T>>>,
}

impl<T> Batch<T> {
    /// Claims the next unclaimed job; a helper's claim counts as running
    /// until [`Batch::finish`].
    fn claim(&self, helper: bool) -> Option<(usize, BatchJob<T>)> {
        let mut st = relock(&self.state);
        let next = st.pending.pop_front();
        st.running += usize::from(helper && next.is_some());
        next
    }

    /// Stores a helper's result and wakes the submitter.
    fn finish(&self, idx: usize, outcome: Outcome<T>) {
        let mut st = relock(&self.state);
        st.results[idx] = Some(outcome);
        st.running -= 1;
        drop(st);
        self.finished.notify_one();
    }
}

/// A fixed-size worker pool for CPU-bound jobs.
///
/// Jobs are closures run to completion on one of `threads()` worker
/// threads; [`ComputePool::run`] and [`ComputePool::run_many`] block the
/// caller until results are back, re-raising any worker panic on the
/// calling thread. A batch submitted *from* a pool worker is not queued:
/// the submitter runs it, sharing it with at most one helper per worker
/// that is idle at submission (see the module docs), so nested
/// submission can never deadlock the fixed worker set.
pub struct ComputePool {
    state: Arc<PoolState>,
    workers: Vec<JoinHandle<()>>,
}

impl ComputePool {
    /// Creates a pool with `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let state = Arc::new(PoolState {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
                parked: 0,
            }),
            available: Condvar::new(),
            busy_ns: std::sync::atomic::AtomicU64::new(0),
            executed_jobs: std::sync::atomic::AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("paro-pool-{i}"))
                    .spawn(move || {
                        IS_POOL_WORKER.with(|f| f.set(true));
                        worker_loop(&state);
                    })
                    .expect("spawning a pool worker must succeed")
            })
            .collect();
        ComputePool { state, workers }
    }

    /// The process-wide shared pool, sized on first use by the
    /// `PARO_POOL_THREADS` environment variable when it holds a positive
    /// integer, else [`std::thread::available_parallelism`]. The override
    /// runs the test suites at a fixed width whatever the host's core
    /// count: CI pins widths 1 (no nested batch finds an idle helper) and
    /// 3 (a head's block-row ranges split across workers).
    pub fn global() -> &'static ComputePool {
        static GLOBAL: OnceLock<ComputePool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = parse_pool_threads(std::env::var("PARO_POOL_THREADS").ok().as_deref())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
            ComputePool::new(threads)
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Cumulative execution accounting since pool creation. Snapshot
    /// before and after a measurement window and use
    /// [`PoolStats::busy_fraction_since`] for the window's occupancy.
    pub fn stats(&self) -> PoolStats {
        use std::sync::atomic::Ordering::Relaxed;
        PoolStats {
            threads: self.workers.len(),
            executed_jobs: self.state.executed_jobs.load(Relaxed),
            busy_ns: self.state.busy_ns.load(Relaxed),
        }
    }

    /// Runs one job on the pool and blocks until its result is back.
    ///
    /// If the job panics, the panic is re-raised on the calling thread.
    pub fn run<T, F>(&self, job: F) -> T
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.run_many(vec![Box::new(job) as Box<dyn FnOnce() -> T + Send>])
            .pop()
            .expect("one job in, one result out")
    }

    /// Runs one job on the pool, converting a panic into a typed
    /// [`PoolFault`] instead of re-raising it — the request-isolation
    /// entry point used by the serving engine.
    pub fn try_run<T, F>(&self, job: F) -> Result<T, PoolFault>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.try_run_many(vec![Box::new(job) as Box<dyn FnOnce() -> T + Send>])
            .pop()
            .expect("one job in, one result out")
    }

    /// Runs a batch of jobs on the pool, blocking until all complete, and
    /// returns their results in submission order.
    ///
    /// If any job panics, one of the panics is re-raised on the calling
    /// thread after all results are collected.
    pub fn run_many<T>(&self, jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>) -> Vec<T>
    where
        T: Send + 'static,
    {
        reraise(self.exec_many(jobs))
    }

    /// Runs a batch of jobs, mapping each panic to a [`PoolFault`] in
    /// that job's result slot; the other jobs' results are unaffected.
    pub fn try_run_many<T>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<Result<T, PoolFault>>
    where
        T: Send + 'static,
    {
        self.exec_many(jobs)
            .into_iter()
            .map(|r| {
                r.map_err(|p| PoolFault {
                    message: panic_message(p.as_ref()),
                })
            })
            .collect()
    }

    /// Shared executor: every job runs under `catch_unwind` (and the
    /// `pool.job` failpoint), so one result slot per job comes back even
    /// when jobs panic. Callers choose between re-raising
    /// ([`ComputePool::run_many`]) and typed faults
    /// ([`ComputePool::try_run_many`]).
    fn exec_many<T>(&self, jobs: Vec<BatchJob<T>>) -> Vec<Outcome<T>>
    where
        T: Send + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        // A worker calling back into the pool must not wait on jobs that
        // only the (possibly fully occupied) worker set could run.
        if IS_POOL_WORKER.with(|f| f.get()) {
            return self.exec_shared(jobs);
        }
        // Carry the submitter's correlation context (serve request id)
        // onto the worker thread, and time queue wait vs. execution.
        // `enqueued` is only captured while a trace session is recording.
        let submit_ctx = paro_trace::current_ctx();
        let enqueued = paro_trace::is_active().then(Instant::now);
        let (tx, rx) = mpsc::channel();
        {
            let mut q = relock(&self.state.queue);
            for (idx, job) in jobs.into_iter().enumerate() {
                let tx = tx.clone();
                let state = Arc::clone(&self.state);
                q.jobs.push_back(Box::new(move || {
                    let _ctx = paro_trace::ctx(submit_ctx);
                    let outcome = state.execute(job, submit_ctx, enqueued);
                    // The receiver only hangs up on panic; dropping the
                    // result then is fine, the job's slot already holds
                    // the outcome the caller will act on.
                    let _ = tx.send((idx, outcome));
                }));
            }
        }
        drop(tx);
        self.state.available.notify_all();
        let mut results: Vec<Option<Outcome<T>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            // A closed channel here means a worker died without sending —
            // impossible under `catch_unwind`, but fail soft regardless:
            // the missing slots become faults below.
            let Ok((idx, outcome)) = rx.recv() else {
                break;
            };
            results[idx] = Some(outcome);
        }
        collect_slots(results)
    }

    /// A batch a pool worker submits, shared with the idle workers: one
    /// helper ticket per idle worker (at most `n − 1`), then the
    /// submitter claims and runs jobs inline until none are left, and
    /// finally waits for the jobs helpers already started. With no idle
    /// worker the whole batch runs inline, in order. Helpers execute
    /// their jobs as pool jobs under the submitter's context (queue wait,
    /// `pool.execute`, busy accounting); the submitter's share stays
    /// uncounted, like any other code its thread runs.
    fn exec_shared<T>(&self, jobs: Vec<BatchJob<T>>) -> Vec<Outcome<T>>
    where
        T: Send + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let submit_ctx = paro_trace::current_ctx();
        let enqueued = paro_trace::is_active().then(Instant::now);
        let mut q = relock(&self.state.queue);
        let helpers = q.idle().min(n - 1);
        if helpers == 0 {
            drop(q);
            return jobs.into_iter().map(run_inline).collect();
        }
        let batch = Arc::new(Batch {
            state: Mutex::new(BatchState {
                pending: jobs.into_iter().enumerate().collect(),
                running: 0,
                results: (0..n).map(|_| None).collect(),
            }),
            finished: Condvar::new(),
        });
        for _ in 0..helpers {
            let (batch, state) = (Arc::clone(&batch), Arc::clone(&self.state));
            q.jobs.push_back(Box::new(move || {
                let _ctx = paro_trace::ctx(submit_ctx);
                // A ticket that arrives after the submitter drained the
                // batch finds nothing to claim and returns at once.
                while let Some((idx, job)) = batch.claim(true) {
                    batch.finish(idx, state.execute(job, submit_ctx, enqueued));
                }
            }));
        }
        drop(q);
        for _ in 0..helpers {
            self.state.available.notify_one();
        }
        while let Some((idx, job)) = batch.claim(false) {
            let outcome = run_inline(job);
            relock(&batch.state).results[idx] = Some(outcome);
        }
        let mut st = relock(&batch.state);
        while st.running > 0 {
            st = batch
                .finished
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        collect_slots(std::mem::take(&mut st.results))
    }
}

/// Unwraps a batch's results in order, re-raising one of its panics on
/// the calling thread once every job is done.
fn reraise<T>(outcomes: Vec<Outcome<T>>) -> Vec<T> {
    let mut panic: Option<Box<dyn Any + Send>> = None;
    let results: Vec<Option<T>> = outcomes
        .into_iter()
        .map(|r| match r {
            Ok(v) => Some(v),
            Err(p) => {
                panic = Some(p);
                None
            }
        })
        .collect();
    if let Some(p) = panic {
        resume_unwind(p);
    }
    results
        .into_iter()
        .map(|r| r.expect("non-panicked jobs all have results"))
        .collect()
}

/// Runs one job on the calling thread under `catch_unwind` and the
/// `pool.job` failpoint, outside the pool's accounting.
fn run_inline<T>(job: BatchJob<T>) -> Outcome<T> {
    catch_unwind(AssertUnwindSafe(|| guarded(job)))
}

/// Unwraps a batch's result slots; a slot left empty (a worker that died
/// without reporting, impossible under `catch_unwind`) becomes a fault.
fn collect_slots<T>(slots: Vec<Option<Outcome<T>>>) -> Vec<Outcome<T>> {
    slots
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                Err(Box::new("pool worker result channel closed".to_string())
                    as Box<dyn Any + Send>)
            })
        })
        .collect()
}

/// Parses a `PARO_POOL_THREADS` value: a positive integer (surrounding
/// whitespace tolerated) sizes the global pool; anything else falls back
/// to the host's parallelism.
fn parse_pool_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        {
            let mut q = relock(&self.state.queue);
            q.shutdown = true;
        }
        self.state.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(state: &PoolState) {
    loop {
        let job = {
            let mut q = relock(&state.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q.parked += 1;
                q = state
                    .available
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
                q.parked -= 1;
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::Duration;

    type IdJob = Box<dyn FnOnce() -> ThreadId + Send>;

    fn thread_id() -> ThreadId {
        std::thread::current().id()
    }

    /// `n` jobs that each return the thread they ran on.
    fn id_jobs(n: usize) -> Vec<IdJob> {
        (0..n).map(|_| Box::new(thread_id) as IdJob).collect()
    }

    /// Spins until `pool` has `n` idle workers parked (fails after 10 s).
    fn wait_parked(pool: &ComputePool, n: usize) {
        let t0 = Instant::now();
        while relock(&pool.state.queue).idle() < n {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "workers never parked"
            );
            std::thread::yield_now();
        }
    }

    /// Holds every caller until `n` distinct threads have entered, or
    /// 10 s have passed, so jobs that all ran on one thread still finish
    /// (and fail their test's assertions) instead of hanging.
    struct Gate {
        seen: Mutex<Vec<ThreadId>>,
        entered: Condvar,
        n: usize,
    }

    impl Gate {
        fn new(n: usize) -> Arc<Self> {
            Arc::new(Gate {
                seen: Mutex::new(Vec::new()),
                entered: Condvar::new(),
                n,
            })
        }

        /// Enters the gate, waits for it to open and returns the caller.
        fn pass(&self) -> ThreadId {
            let me = thread_id();
            let mut seen = relock(&self.seen);
            if !seen.contains(&me) {
                seen.push(me);
                self.entered.notify_all();
            }
            let t0 = Instant::now();
            while seen.len() < self.n && t0.elapsed() < Duration::from_secs(10) {
                seen = self
                    .entered
                    .wait_timeout(seen, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            me
        }
    }

    #[test]
    fn runs_jobs_and_preserves_order() {
        let pool = ComputePool::new(3);
        assert_eq!(pool.threads(), 3);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let got = pool.run_many(jobs);
        let want: Vec<usize> = (0..20).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn single_job_round_trip() {
        let pool = ComputePool::new(1);
        assert_eq!(pool.run(|| 41 + 1), 42);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ComputePool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run(|| 7), 7);
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = ComputePool::new(2);
        let got: Vec<u8> = pool.run_many(Vec::new());
        assert!(got.is_empty());
    }

    #[test]
    fn worker_panic_reraised_on_caller() {
        let pool = ComputePool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run::<(), _>(|| panic!("head thread must not panic"));
        }));
        assert!(result.is_err());
        // Pool still usable after a panicked job.
        assert_eq!(pool.run(|| 5), 5);
    }

    #[test]
    fn nested_submission_runs_inline_without_deadlock() {
        // A job on a 1-thread pool submits to the global pool: must
        // complete, not deadlock. A one-job nested batch has nothing to
        // share, so it runs inline on the submitting worker.
        let pool = Arc::new(ComputePool::new(1));
        let p2 = Arc::clone(&pool);
        // Submit from a plain thread so the outer call queues normally.
        let outer = std::thread::spawn(move || p2.run(move || ComputePool::global().run(|| 9)));
        assert_eq!(outer.join().unwrap(), 9);
    }

    #[test]
    fn nested_batch_on_a_one_thread_pool_runs_on_its_submitter() {
        let pool = Arc::new(ComputePool::new(1));
        let p2 = Arc::clone(&pool);
        let (outer, inner) = pool.run(move || (thread_id(), p2.run_many(id_jobs(4))));
        assert_eq!(inner, vec![outer; 4]);
    }

    #[test]
    fn nested_batch_is_shared_with_parked_workers() {
        let pool = Arc::new(ComputePool::new(3));
        let p2 = Arc::clone(&pool);
        let before = pool.stats();
        let (outer, inner) = pool.run(move || {
            wait_parked(&p2, 2);
            // Each job blocks until a second thread joins it: a batch run
            // wholly on its submitter would time out on the first job.
            let gate = Gate::new(2);
            let jobs = (0..4)
                .map(|_| {
                    let gate = Arc::clone(&gate);
                    Box::new(move || gate.pass()) as IdJob
                })
                .collect();
            (thread_id(), p2.run_many(jobs))
        });
        let distinct: std::collections::HashSet<_> = inner.iter().collect();
        assert!(distinct.len() >= 2, "{inner:?}");
        // Helpers' jobs count as pool jobs; the submitter's share does not.
        let helped = inner.iter().filter(|&&t| t != outer).count() as u64;
        assert!(helped >= 1);
        let after = pool.stats();
        assert_eq!(after.executed_jobs - before.executed_jobs, 1 + helped);
    }

    #[test]
    fn nested_batch_runs_on_its_submitter_when_every_other_worker_is_busy() {
        let pool = Arc::new(ComputePool::new(3));
        let (started_tx, started_rx) = mpsc::channel();
        let mut releases = Vec::new();
        let blockers: Vec<Box<dyn FnOnce() + Send>> = (0..2)
            .map(|_| {
                let (release, hold) = mpsc::channel::<()>();
                releases.push(release);
                let started = started_tx.clone();
                Box::new(move || {
                    started.send(()).unwrap();
                    // Held until the test drops the sender.
                    let _ = hold.recv();
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let p = Arc::clone(&pool);
        let holder = std::thread::spawn(move || p.run_many(blockers));
        for _ in 0..2 {
            started_rx.recv().unwrap();
        }
        let p2 = Arc::clone(&pool);
        let (outer, inner) = pool.run(move || (thread_id(), p2.run_many(id_jobs(4))));
        assert_eq!(inner, vec![outer; 4]);
        drop(releases);
        holder.join().unwrap();
    }

    #[test]
    fn nested_batches_two_levels_deep_complete() {
        let pool = Arc::new(ComputePool::new(3));
        let p2 = Arc::clone(&pool);
        let sums = pool.run(move || {
            wait_parked(&p2, 2);
            let jobs = (0..3usize)
                .map(|i| {
                    let p3 = Arc::clone(&p2);
                    Box::new(move || {
                        let inner = (0..3usize)
                            .map(|j| {
                                Box::new(move || i * 10 + j) as Box<dyn FnOnce() -> usize + Send>
                            })
                            .collect();
                        p3.run_many(inner).into_iter().sum::<usize>()
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            p2.run_many(jobs)
        });
        assert_eq!(sums, vec![3, 33, 63]);
    }

    #[test]
    fn panicking_nested_job_faults_only_its_slot_on_submitter_or_helper() {
        for on_helper in [false, true] {
            let pool = Arc::new(ComputePool::new(2));
            let p2 = Arc::clone(&pool);
            let (outer, got) = pool.run(move || {
                wait_parked(&p2, 1);
                let outer = thread_id();
                // Both jobs wait for each other, so one runs on the
                // submitter and one on the helper; the one on the chosen
                // side panics.
                let gate = Gate::new(2);
                let jobs = (0..2)
                    .map(|_| {
                        let gate = Arc::clone(&gate);
                        Box::new(move || {
                            let me = gate.pass();
                            if (me != outer) == on_helper {
                                panic!("nested slot");
                            }
                            me
                        }) as IdJob
                    })
                    .collect();
                (outer, p2.try_run_many(jobs))
            });
            let faulted = got.iter().filter(|r| r.is_err()).count();
            assert_eq!(faulted, 1, "on_helper={on_helper}: {got:?}");
            for r in &got {
                match r {
                    Ok(t) => assert_eq!(*t != outer, !on_helper, "on_helper={on_helper}"),
                    Err(f) => assert!(f.message.contains("nested slot"), "{f}"),
                }
            }
            // The pool keeps serving nested and plain batches.
            assert_eq!(pool.run(|| 5), 5);
        }
    }

    #[test]
    fn global_pool_sized_by_available_parallelism() {
        let n = parse_pool_threads(std::env::var("PARO_POOL_THREADS").ok().as_deref())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        assert_eq!(ComputePool::global().threads(), n);
    }

    #[test]
    fn pool_threads_override_parses_positive_integers_only() {
        assert_eq!(parse_pool_threads(Some("4")), Some(4));
        assert_eq!(parse_pool_threads(Some(" 12 ")), Some(12));
        assert_eq!(parse_pool_threads(Some("0")), None);
        assert_eq!(parse_pool_threads(Some("-2")), None);
        assert_eq!(parse_pool_threads(Some("eight")), None);
        assert_eq!(parse_pool_threads(Some("")), None);
        assert_eq!(parse_pool_threads(None), None);
    }

    #[test]
    fn try_run_converts_panic_to_typed_fault() {
        let pool = ComputePool::new(2);
        let fault = pool
            .try_run::<(), _>(|| panic!("boom: request 7"))
            .expect_err("panicking job must fault");
        assert!(fault.message.contains("boom: request 7"), "{fault}");
        // Pool still usable, and a clean job succeeds.
        assert_eq!(pool.try_run(|| 5), Ok(5));
    }

    #[test]
    fn try_run_many_isolates_the_panicking_slot() {
        let pool = ComputePool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("slot three");
                    }
                    i * 10
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let got = pool.try_run_many(jobs);
        for (i, r) in got.iter().enumerate() {
            if i == 3 {
                assert!(r.as_ref().is_err_and(|f| f.message.contains("slot three")));
            } else {
                assert_eq!(r.as_ref().ok(), Some(&(i * 10)));
            }
        }
    }

    #[test]
    fn try_run_is_fault_typed_even_inline_from_a_worker() {
        // A one-job nested batch runs inline on its submitter; a panic
        // there must still come back as a PoolFault, not unwind through
        // the outer pool job.
        let pool = ComputePool::new(1);
        let fault = pool.run(|| {
            ComputePool::global()
                .try_run::<(), _>(|| panic!("inner"))
                .expect_err("inline nested job must fault")
        });
        assert!(fault.message.contains("inner"));
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(s.as_ref()), "non-string panic payload");
    }

    #[test]
    fn stats_count_executed_jobs_and_busy_time() {
        let pool = ComputePool::new(2);
        let before = pool.stats();
        assert_eq!(before.threads, 2);
        let t0 = std::time::Instant::now();
        pool.run_many(
            (0..8)
                .map(|_| {
                    Box::new(|| std::thread::sleep(std::time::Duration::from_millis(2)))
                        as Box<dyn FnOnce() + Send>
                })
                .collect(),
        );
        let after = pool.stats();
        assert_eq!(after.executed_jobs - before.executed_jobs, 8);
        // 8 × 2 ms of sleeping must register as busy time.
        assert!(after.busy_ns > before.busy_ns + 8_000_000);
        let frac = after.busy_fraction_since(&before, t0.elapsed());
        assert!(frac > 0.0 && frac <= 1.0, "{frac}");
    }

    #[test]
    fn busy_fraction_handles_degenerate_windows() {
        let s = PoolStats {
            threads: 4,
            executed_jobs: 0,
            busy_ns: 0,
        };
        assert_eq!(s.busy_fraction_since(&s, std::time::Duration::ZERO), 0.0);
        let later = PoolStats {
            threads: 4,
            executed_jobs: 1,
            busy_ns: u64::MAX,
        };
        // Clamped even when accounting exceeds the window.
        assert_eq!(
            later.busy_fraction_since(&s, std::time::Duration::from_nanos(1)),
            1.0
        );
    }

    #[test]
    fn all_jobs_execute_exactly_once() {
        let pool = ComputePool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..100)
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool.run_many(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }
}
