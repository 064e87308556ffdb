//! A from-scratch, dependency-free thread pool for the numeric hot paths.
//!
//! Design (see DESIGN.md "Threading model"):
//!
//! - A single global pool of persistent `std::thread` workers, created
//!   lazily on the first parallel call. Size = `TRANAD_THREADS` if set,
//!   else `std::thread::available_parallelism()`.
//! - One job runs at a time (submissions serialize on a mutex). A job is a
//!   chunked task queue: `n` task indices drained via an atomic cursor by
//!   the workers *and* the submitting thread, so a pool of size `t` applies
//!   `t` threads to the job, not `t + 1`.
//! - Nested parallel calls (a task that itself calls [`run`]) execute
//!   serially on the calling worker. This keeps e.g. a parallel benchmark
//!   grid whose cells invoke parallel matmuls deadlock-free.
//! - Determinism: every task writes only its own disjoint output and no
//!   reduction is combined across tasks, so results are bitwise identical
//!   for any thread count — `TRANAD_THREADS=1` and `=8` agree exactly.
//! - Panic propagation: a panicking task is caught on the worker; the
//!   submitting call panics after the job drains.
//!
//! Small inputs must not pay dispatch overhead: each op picks a chunk
//! length for [`parallel_chunks_mut`] that covers its whole output below
//! the op's size cutoff, and a region that fits in one chunk runs inline
//! and silent, like a serial [`run`] (see `Tensor`'s ops). The
//! serial/parallel decision lives here alone.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Locks `m`, recovering the guard if a panicking thread poisoned it. Every
/// mutex here guards state that stays consistent across a panic (a flag, the
/// inbox, a chunk slot), so a poisoned lock must not take the pool down.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Lifetime counters for the pool (process-wide, all threads). Cheap to
/// maintain — a few relaxed atomic adds per *job*, never per task — so they
/// stay on even when telemetry is disabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Parallel jobs dispatched through the pool.
    pub jobs: u64,
    /// Tasks contained in those jobs.
    pub tasks: u64,
    /// Tasks executed by worker threads (i.e. stolen from the submitting
    /// thread, which also drains the queue).
    pub stolen: u64,
    /// Tasks that ran inline because the region was serial (one thread,
    /// single task, or nested inside another pool task).
    pub serial_tasks: u64,
}

static JOBS: AtomicU64 = AtomicU64::new(0);
static TASKS: AtomicU64 = AtomicU64::new(0);
static STOLEN: AtomicU64 = AtomicU64::new(0);
static SERIAL_TASKS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the pool's lifetime counters.
pub fn counters() -> PoolCounters {
    PoolCounters {
        jobs: JOBS.load(Ordering::Relaxed),
        tasks: TASKS.load(Ordering::Relaxed),
        stolen: STOLEN.load(Ordering::Relaxed),
        serial_tasks: SERIAL_TASKS.load(Ordering::Relaxed),
    }
}

/// Emits the pool counters as a `pool.threads` event on
/// [`tranad_telemetry::current`] (no-op when it is disabled).
pub fn record_counters() {
    let rec = tranad_telemetry::current();
    if !rec.enabled() {
        return;
    }
    let c = counters();
    rec.emit("pool.threads", |e| {
        e.u64("threads", current_threads() as u64)
            .u64("jobs", c.jobs)
            .u64("tasks", c.tasks)
            .u64("stolen", c.stolen)
            .u64("serial_tasks", c.serial_tasks);
    });
}

/// One submitted job: a borrowed task closure plus drain-state.
struct Job {
    /// Type- and lifetime-erased pointer to the task closure. Valid for the
    /// whole job because [`run`] does not return until `remaining` hits 0.
    task: *const (dyn Fn(usize) + Sync),
    n: usize,
    cursor: AtomicUsize,
    remaining: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `task` points at a `Sync` closure that outlives the job (the
// submitter blocks until every task completes before dropping it).
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Drains tasks until the queue is empty; returns how many tasks this
    /// thread executed (feeds the steal counters).
    fn work(&self) -> u64 {
        let mut executed = 0u64;
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return executed;
            }
            executed += 1;
            // SAFETY: see `unsafe impl Send` above.
            let task = unsafe { &*self.task };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)));
            if result.is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *lock(&self.done) = true;
                self.done_cv.notify_all();
            }
        }
    }

    fn wait(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = self.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Slot the workers watch for the next job.
struct Inbox {
    job: Option<Arc<Job>>,
    seq: u64,
    shutdown: bool,
}

struct Pool {
    threads: usize,
    inbox: Mutex<Inbox>,
    inbox_cv: Condvar,
    /// Serializes submissions: one job in flight at a time.
    submit: Mutex<()>,
}

impl Pool {
    fn publish(&self, job: Arc<Job>) {
        let mut inbox = lock(&self.inbox);
        inbox.job = Some(job);
        inbox.seq += 1;
        self.inbox_cv.notify_all();
    }

    fn retire(&self) {
        lock(&self.inbox).job = None;
    }

    fn worker_loop(&self) {
        IN_POOL.with(|f| f.set(true));
        let mut last_seq = 0u64;
        loop {
            let job = {
                let mut inbox = lock(&self.inbox);
                loop {
                    if inbox.shutdown {
                        return;
                    }
                    if inbox.seq != last_seq {
                        last_seq = inbox.seq;
                        break;
                    }
                    inbox = self.inbox_cv.wait(inbox).unwrap_or_else(|e| e.into_inner());
                }
                inbox.job.clone()
            };
            if let Some(job) = job {
                let stolen = job.work();
                if stolen > 0 {
                    STOLEN.fetch_add(stolen, Ordering::Relaxed);
                }
            }
        }
    }
}

static POOL: OnceLock<&'static Pool> = OnceLock::new();

thread_local! {
    /// True on pool workers and on a thread currently executing pool tasks:
    /// nested `run` calls go serial instead of re-entering the pool.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Per-thread override installed by [`with_threads`] (tests, scoped
    /// serial sections).
    static THREAD_LIMIT: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

fn env_threads() -> usize {
    match std::env::var("TRANAD_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("TRANAD_THREADS must be a positive integer, got {v:?}")),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

fn global() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = env_threads();
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            threads,
            inbox: Mutex::new(Inbox {
                job: None,
                seq: 0,
                shutdown: false,
            }),
            inbox_cv: Condvar::new(),
            submit: Mutex::new(()),
        }));
        // The submitter participates in each job, so `threads - 1` workers
        // give `threads` active threads per job. Workers live suppressed:
        // nothing a task records reaches any recorder, `global()` included.
        for i in 1..threads {
            std::thread::Builder::new()
                .name(format!("tranad-pool-{i}"))
                .spawn(move || tranad_telemetry::span::suppressed(|| pool.worker_loop()))
                .expect("spawn pool worker");
        }
        pool
    })
}

/// The number of threads a parallel region will use right now: the
/// [`with_threads`] override if one is active, else `TRANAD_THREADS`, else
/// the machine's available parallelism.
pub fn current_threads() -> usize {
    if IN_POOL.with(|f| f.get()) {
        return 1;
    }
    match THREAD_LIMIT.with(|l| l.get()) {
        Some(n) => n.min(global().threads).max(1),
        None => global().threads,
    }
}

/// Runs `f` with parallel regions on this thread capped at `n` threads
/// (`n = 1` forces fully serial execution). Used by the determinism tests
/// and by callers that want a serial section without touching the
/// environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_LIMIT.with(|l| l.replace(Some(n.max(1))));
    let result = f();
    THREAD_LIMIT.with(|l| l.set(prev));
    result
}

/// Executes `task(0), task(1), …, task(n - 1)` across the pool, returning
/// when all have finished. Tasks must write disjoint outputs. Panics if any
/// task panicked. Serial when the pool has one thread, when `n < 2`, or
/// when called from inside another pool task (nesting).
pub fn run(n: usize, task: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    // One `pool.run` span per region, opened on the submitting thread and
    // emitted serially on both schedules. Task bodies run suppressed, here
    // and on the workers: per-task events would differ between the serial
    // and parallel paths (and, on workers, race on emission), breaking the
    // guarantee that a TRANAD_THREADS=1 trace equals a TRANAD_THREADS=8
    // trace.
    let _span = tranad_telemetry::span::enter("pool.run");
    if n == 1 || current_threads() <= 1 {
        SERIAL_TASKS.fetch_add(n as u64, Ordering::Relaxed);
        tranad_telemetry::span::suppressed(|| {
            for i in 0..n {
                task(i);
            }
        });
        return;
    }
    let pool = global();
    let submit = lock(&pool.submit);
    // SAFETY: erase the borrow's lifetime; we block on `job.wait()` below,
    // so the closure outlives every use by the workers.
    let task: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(Job {
        task,
        n,
        cursor: AtomicUsize::new(0),
        remaining: AtomicUsize::new(n),
        panicked: AtomicBool::new(false),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    JOBS.fetch_add(1, Ordering::Relaxed);
    TASKS.fetch_add(n as u64, Ordering::Relaxed);
    pool.publish(job.clone());
    // Participate; mark this thread as in-pool so nested calls go serial.
    let was_in_pool = IN_POOL.with(|f| f.replace(true));
    tranad_telemetry::span::suppressed(|| job.work());
    IN_POOL.with(|f| f.set(was_in_pool));
    job.wait();
    pool.retire();
    // Release the submission lock before re-raising a task's panic, so the
    // unwind cannot poison it for every later parallel region.
    drop(submit);
    if job.panicked.load(Ordering::Relaxed) {
        panic!("a tranad-tensor pool task panicked");
    }
}

/// Rounds `grain` up to a whole multiple of `tile` (at least one tile).
/// Row-block partitions aligned this way always split on micro-kernel tile
/// boundaries, so the parallel chunks drive the exact same sequence of
/// full and ragged-edge tiles as one serial sweep over the whole output.
pub(crate) fn aligned_grain(grain: usize, tile: usize) -> usize {
    let tile = tile.max(1);
    grain.max(1).div_ceil(tile) * tile
}

/// Runs `f(start_index, chunk)` over `chunk_len`-sized mutable chunks of
/// `out` across the pool (the last chunk may be shorter). The chunks are
/// disjoint, so each task owns its slice. An output that fits in one chunk
/// runs inline, with no `pool.run` span, and like every task it records
/// nothing.
pub fn parallel_chunks_mut<T: Send>(
    out: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let chunk_len = chunk_len.max(1);
    if out.len() <= chunk_len {
        if !out.is_empty() {
            tranad_telemetry::span::suppressed(|| f(0, out));
        }
        return;
    }
    // A slot per chunk: each task takes exclusive ownership of its chunk by
    // emptying the Option, so the `&mut` never aliases across tasks.
    type Slot<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;
    let slots: Vec<Slot<'_, T>> = out
        .chunks_mut(chunk_len)
        .enumerate()
        .map(|(i, c)| Mutex::new(Some((i * chunk_len, c))))
        .collect();
    run(slots.len(), &|i| {
        let (start, chunk) = lock(&slots[i]).take().expect("chunk taken twice");
        f(start, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_zero_tasks_is_a_noop() {
        run(0, &|_| panic!("must not be called"));
    }

    #[test]
    fn run_single_task_executes_inline() {
        let hit = AtomicUsize::new(0);
        run(1, &|i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_visits_every_index_once() {
        let counts: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        run(97, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panic_in_task_propagates() {
        let result = std::panic::catch_unwind(|| {
            run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
        // The pool must survive a panicked job.
        let sum = AtomicUsize::new(0);
        run(8, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 28);
    }

    #[test]
    fn nested_run_does_not_deadlock() {
        let total = AtomicUsize::new(0);
        run(4, &|_| {
            run(4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn with_threads_one_forces_serial() {
        with_threads(1, || {
            assert_eq!(current_threads(), 1);
            let sum = AtomicUsize::new(0);
            run(16, &|i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 120);
        });
    }

    #[test]
    fn parallel_chunks_mut_writes_disjoint_slices() {
        let mut out = vec![0usize; 100];
        parallel_chunks_mut(&mut out, 7, |start, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = start + off;
            }
        });
        let expect: Vec<usize> = (0..100).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn aligned_grain_rounds_up_to_tile_multiples() {
        assert_eq!(aligned_grain(1, 4), 4);
        assert_eq!(aligned_grain(4, 4), 4);
        assert_eq!(aligned_grain(5, 4), 8);
        assert_eq!(aligned_grain(64, 4), 64);
        assert_eq!(aligned_grain(0, 4), 4);
        assert_eq!(aligned_grain(7, 0), 7);
    }

    #[test]
    fn parallel_chunks_mut_empty_input() {
        let mut out: Vec<usize> = Vec::new();
        parallel_chunks_mut(&mut out, 4, |_, _| panic!("no chunks expected"));
    }
}
