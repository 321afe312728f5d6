//! The encode worker pool: a [`WorkerPool`] of `k` workers is the calling
//! thread plus `k − 1` threads that sleep on a condvar between batches (an
//! idle pool costs no CPU) and end with its last handle; a worker outlives
//! its batch, so its codec working set (DESIGN §14.2) stays warm. A batch's
//! jobs move into the pool by value, runners claim indices from an atomic
//! counter and write each result into its own slot, so the output is in
//! submission order at any worker count: the byte-parity tests rely on it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{JoinHandle, Result as Caught};

static THREADS_STARTED: AtomicU64 = AtomicU64::new(0);
static LIVE_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Pool threads started in this process so far, by every pool.
#[doc(hidden)]
pub fn threads_started() -> u64 {
    THREADS_STARTED.load(Relaxed)
}

/// Pool threads running right now, in every pool of the process.
#[doc(hidden)]
pub fn live_threads() -> usize {
    LIVE_THREADS.load(Relaxed)
}

// Jobs run under `catch_unwind` and outside every lock, and each update
// under a lock leaves its data valid, so a poisoned lock is used as it is.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A cloneable handle on one pool of encode threads.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<Threads>,
}

/// The pool's threads, ended when the last handle drops this.
struct Threads {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Pool threads wait here for a grant.
    wake: Condvar,
    /// Callers wait here for pool threads to leave their batch.
    over: Condvar,
}

#[derive(Default)]
struct Queue {
    /// One entry per pool thread granted to a batch and not yet on it. A
    /// grant's count of strong references changes only under the lock.
    grants: VecDeque<Arc<dyn Fn() + Send + Sync>>,
    /// Pool threads neither on a batch nor granted one.
    idle: usize,
    /// Batches that wanted pool threads but found none idle.
    inline_fallbacks: u64,
    closed: bool,
}

struct Batch<T, R, F> {
    jobs: Vec<T>,
    f: F,
    next: AtomicUsize,
    /// Each job's result, or its panic, by index.
    out: Mutex<Vec<Option<Caught<R>>>>,
}

impl<T, R, F: Fn(&T) -> R> Batch<T, R, F> {
    /// Claim and run jobs until none is left.
    fn drain(&self) {
        let mut i = self.next.fetch_add(1, Relaxed);
        while let Some(job) = self.jobs.get(i) {
            let result = catch_unwind(AssertUnwindSafe(|| (self.f)(job)));
            lock(&self.out)[i] = Some(result);
            i = self.next.fetch_add(1, Relaxed);
        }
    }
}

/// A pool thread: run grants until the pool closes.
fn work(shared: &Shared) {
    let mut queue = lock(&shared.queue);
    while !queue.closed {
        let Some(grant) = queue.grants.pop_front() else {
            queue = wait(&shared.wake, queue);
            continue;
        };
        drop(queue);
        grant();
        // Idle again before the caller sees its batch over, so that its
        // next batch finds this thread free.
        queue = lock(&shared.queue);
        queue.idle += 1;
        drop(grant);
        shared.over.notify_all();
    }
    LIVE_THREADS.fetch_sub(1, Relaxed);
}

impl WorkerPool {
    /// A pool of `max_workers`: a batch's caller and `max_workers − 1` threads started now.
    pub fn new(max_workers: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let handles: Vec<JoinHandle<()>> = (1..max_workers)
            .filter_map(|_| {
                let shared = shared.clone();
                let thread = std::thread::Builder::new().name("adshare-encode".into());
                let handle = thread.spawn(move || work(&shared)).ok()?;
                THREADS_STARTED.fetch_add(1, Relaxed);
                LIVE_THREADS.fetch_add(1, Relaxed);
                Some(handle)
            })
            .collect();
        lock(&shared.queue).idle = handles.len();
        let inner = Arc::new(Threads { shared, handles });
        WorkerPool { inner }
    }

    /// The process-wide pool single-session pipelines share, of
    /// [`crate::resolve_workers`]`(0)` workers, started on first use.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(crate::resolve_workers(0)))
    }

    /// The pool's size: its threads plus the caller.
    pub fn max_workers(&self) -> usize {
        self.inner.handles.len() + 1
    }

    /// Batches that found no idle pool thread and ran inline.
    pub fn inline_fallbacks(&self) -> u64 {
        lock(&self.inner.shared.queue).inline_fallbacks
    }

    /// `f` of every job, in job order, run on the caller and the idle ones of
    /// `want − 1` pool threads (never blocking), and how many workers the
    /// batch got. A job's panic is resumed on the caller once it is over.
    pub fn map<T, R, F>(&self, want: usize, jobs: Vec<T>, f: F) -> (Vec<R>, usize)
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let workers = want.min(jobs.len()).min(self.max_workers());
        if workers <= 1 {
            return (jobs.iter().map(f).collect(), 1);
        }
        let out = Mutex::new(jobs.iter().map(|_| None).collect());
        let next = AtomicUsize::new(0);
        let batch = Arc::new(Batch { jobs, f, next, out });
        let job = batch.clone();
        let grant: Arc<dyn Fn() + Send + Sync> = Arc::new(move || job.drain());
        let shared = &self.inner.shared;
        let mut queue = lock(&shared.queue);
        let granted = queue.idle.min(workers - 1);
        queue.idle -= granted;
        queue.inline_fallbacks += u64::from(granted == 0);
        for _ in 0..granted {
            queue.grants.push_back(grant.clone());
            shared.wake.notify_one();
        }
        drop(queue);
        batch.drain();
        // Take back the grants no thread has picked up (the work is done),
        // then wait for the threads still on the batch to leave it.
        let mut queue = lock(&shared.queue);
        let queued = queue.grants.len();
        queue.grants.retain(|g| !Arc::ptr_eq(g, &grant));
        queue.idle += queued - queue.grants.len();
        while Arc::strong_count(&grant) > 1 {
            queue = wait(&shared.over, queue);
        }
        drop(queue);
        let results = std::mem::take(&mut *lock(&batch.out)).into_iter();
        let results = results.map(|r| r.expect("every index ran"));
        let results = results.map(|r| r.unwrap_or_else(|panic| resume_unwind(panic)));
        (results.collect(), 1 + granted)
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        lock(&self.shared.queue).closed = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkerPool({} workers)", self.max_workers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};

    fn on_pool_thread() -> bool {
        std::thread::current().name() == Some("adshare-encode")
    }

    /// A job that holds the caller until a pool thread has run one, so a
    /// batch of them is really shared; `flag` says a pool thread did.
    fn shared_job(flag: Arc<AtomicBool>) -> impl Fn(&u32) -> u32 + Send + Sync + 'static {
        move |&x| {
            if on_pool_thread() {
                flag.store(true, SeqCst);
            } else {
                while !flag.load(SeqCst) {
                    std::thread::yield_now();
                }
            }
            x + 1
        }
    }

    #[test]
    fn results_keep_submission_order() {
        let jobs: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = jobs.iter().map(|&x| x * x).collect();
        for size in [1, 2, 4, 16] {
            let pool = WorkerPool::new(size);
            assert_eq!(pool.max_workers(), size);
            let (out, workers) = pool.map(size, jobs.clone(), |&x| x * x);
            assert_eq!(out, want, "pool of {size}");
            assert_eq!(workers, size, "an idle pool grants every thread");
            assert_eq!(pool.inline_fallbacks(), 0);
        }
    }

    #[test]
    fn small_batches_run_inline() {
        let pool = WorkerPool::new(8);
        let out = pool.map(8, vec![41], |&x| x + 1);
        assert_eq!(out, (vec![42], 1), "one job takes no thread");
        let out = pool.map(1, vec![1, 2, 3], |&x| x + 1);
        assert_eq!(out, (vec![2, 3, 4], 1), "want 1 is inline");
        let out = pool.map(4, Vec::<u8>::new(), |_| 0u8);
        assert_eq!(out, (vec![], 1));
        assert_eq!(
            pool.inline_fallbacks(),
            0,
            "inline by choice is no fallback"
        );
    }

    #[test]
    fn pool_threads_share_every_batch() {
        let pool = WorkerPool::new(2);
        for _ in 0..20 {
            let helped = Arc::new(AtomicBool::new(false));
            let (out, workers) = pool.map(2, (0..4).collect(), shared_job(helped.clone()));
            assert_eq!((out, workers), (vec![1, 2, 3, 4], 2));
            assert!(helped.load(SeqCst));
        }
    }

    #[test]
    fn a_panic_on_a_pool_thread_panics_the_caller_and_the_pool_lives_on() {
        let pool = WorkerPool::new(2);
        let panicked = Arc::new(AtomicBool::new(false));
        let flag = panicked.clone();
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(2, (0..3u32).collect(), move |&x| {
                if on_pool_thread() {
                    flag.store(true, SeqCst);
                    panic!("tile {x} is cursed");
                }
                while !flag.load(SeqCst) {
                    std::thread::yield_now();
                }
                x
            })
        }));
        let payload = run.expect_err("the pool thread's panic reaches the caller");
        let message = payload.downcast_ref::<String>().expect("panic message");
        assert!(message.contains("is cursed"), "{message}");
        assert!(panicked.load(SeqCst));
        // The same thread takes the next batch.
        let helped = Arc::new(AtomicBool::new(false));
        let (out, workers) = pool.map(2, (0..6).collect(), shared_job(helped.clone()));
        assert_eq!((out, workers), (vec![1, 2, 3, 4, 5, 6], 2));
        assert!(helped.load(SeqCst));
    }

    #[test]
    fn a_busy_pool_runs_the_batch_on_the_caller() {
        let pool = WorkerPool::new(3);
        // One batch holds the caller of another thread and both pool threads.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicUsize::new(0));
        let (held_gate, held_entered) = (gate.clone(), entered.clone());
        let holder = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                pool.map(3, vec![0u8; 3], move |_| {
                    held_entered.fetch_add(1, SeqCst);
                    let (open, cv) = &*held_gate;
                    let mut open = lock(open);
                    while !*open {
                        open = wait(cv, open);
                    }
                })
            })
        };
        while entered.load(SeqCst) < 3 {
            std::thread::yield_now();
        }
        let jobs: Vec<u32> = (0..16).collect();
        let (out, workers) = pool.map(4, jobs.clone(), |&x| x + 1);
        assert_eq!(out, jobs.iter().map(|&x| x + 1).collect::<Vec<_>>());
        assert_eq!(workers, 1, "no idle thread: inline");
        assert_eq!(pool.inline_fallbacks(), 1);
        *lock(&gate.0) = true;
        gate.1.notify_all();
        assert_eq!(holder.join().unwrap().1, 3);
        assert_eq!(pool.map(3, vec![1, 2, 3], |&x| x).1, 3, "freed");
    }

    #[test]
    fn dropping_the_last_handle_ends_the_threads() {
        for size in [1, 2, 5] {
            let pool = WorkerPool::new(size);
            let shared = pool.inner.shared.clone();
            assert_eq!(Arc::strong_count(&shared), size + 1, "each thread holds it");
            let clone = pool.clone();
            drop(pool);
            let (out, _) = clone.map(size, vec![1u8; 9], |&x| x);
            assert_eq!(out.len(), 9, "a clone keeps the threads");
            drop(clone);
            assert_eq!(Arc::strong_count(&shared), 1, "every thread ended");
        }
    }
}
