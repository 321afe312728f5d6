//! A scoped worker pool with deterministic result ordering.
//!
//! Workers pull job indices from a shared atomic counter (work stealing at
//! index granularity — no per-worker queues to balance) and write results
//! into per-slot cells. The output vector is assembled by index, so the
//! caller observes exactly the order it submitted, independent of worker
//! count or scheduling: the property the byte-parity tests rely on.
//!
//! `std::thread::scope` keeps lifetimes simple (jobs borrow the caller's
//! stack) and means the pool holds no threads between batches. A spawn
//! pays only for a batch with real work in it — spawning for every batch
//! of a few typed glyphs made the encode wall time exceed its CPU time —
//! so the encode pipeline asks for one worker per full tile's worth of
//! missed pixels, and small batches run inline on the caller.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a batch cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Wall-clock µs from first spawn to last join.
    pub wall_us: u64,
    /// Summed per-job µs (the serial-equivalent cost).
    pub cpu_us: u64,
    /// Workers actually spawned (1 = ran inline on the caller).
    pub workers: usize,
}

impl PoolStats {
    /// Parallel speedup ×100 (`cpu_us / wall_us`); 100 = no speedup.
    pub fn speedup_x100(&self) -> u64 {
        (self.cpu_us * 100).checked_div(self.wall_us).unwrap_or(100)
    }

    /// How busy the spawned workers were, in percent of `workers × wall`.
    pub fn utilization_pct(&self) -> u64 {
        let capacity = self.wall_us * self.workers.max(1) as u64;
        (self.cpu_us * 100)
            .checked_div(capacity)
            .map_or(100, |p| p.min(100))
    }
}

/// Apply `f` to every item, on up to `workers` threads, returning results
/// in item order. `workers <= 1` (or a batch of one) runs inline with no
/// thread spawns.
pub fn scoped_map<T, R, F>(workers: usize, items: &[T], f: F) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let start = Instant::now();
    let timed = |item: &T| {
        let t0 = Instant::now();
        let out = f(item);
        (out, t0.elapsed().as_micros() as u64)
    };
    if workers <= 1 || items.len() <= 1 {
        let mut cpu_us = 0;
        let results = items
            .iter()
            .map(|item| {
                let (out, us) = timed(item);
                cpu_us += us;
                out
            })
            .collect();
        let stats = PoolStats {
            wall_us: start.elapsed().as_micros() as u64,
            cpu_us,
            workers: 1,
        };
        return (results, stats);
    }

    let workers = workers.min(items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(R, u64)>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = timed(item);
                *slots[i].lock().expect("slot poisoned") = Some(out);
            });
        }
    });
    let mut cpu_us = 0;
    let results = slots
        .into_iter()
        .map(|slot| {
            let (out, us) = slot
                .into_inner()
                .expect("slot poisoned")
                .expect("every index visited");
            cpu_us += us;
            out
        })
        .collect();
    let stats = PoolStats {
        wall_us: start.elapsed().as_micros() as u64,
        cpu_us,
        workers,
    };
    (results, stats)
}

/// A cloneable handle on a process-wide worker budget.
///
/// `scoped_map` bounds one batch; a multi-tenant host needs to bound the
/// *sum* of all concurrent batches, or a thousand sessions each spawning 8
/// workers would mean 8000 threads. The pool hands out spawn permits from
/// a shared atomic budget: a batch takes as many as are free (never
/// blocking — zero free permits means the batch runs inline on its caller
/// thread, which costs no extra thread at all), and returns them when the
/// batch joins. Determinism is unaffected because `scoped_map` output is
/// worker-count independent.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    inner: Arc<PoolBudget>,
}

#[derive(Debug)]
struct PoolBudget {
    max: usize,
    available: AtomicUsize,
    /// Batches that wanted workers but found the budget empty (ran inline).
    inline_fallbacks: AtomicU64,
}

impl WorkerPool {
    /// A pool allowing at most `max_workers` spawned threads process-wide
    /// (minimum 1).
    pub fn new(max_workers: usize) -> Self {
        let max = max_workers.max(1);
        WorkerPool {
            inner: Arc::new(PoolBudget {
                max,
                available: AtomicUsize::new(max),
                inline_fallbacks: AtomicU64::new(0),
            }),
        }
    }

    /// The configured process-wide worker cap.
    pub fn max_workers(&self) -> usize {
        self.inner.max
    }

    /// Spawn permits currently free.
    pub fn available(&self) -> usize {
        self.inner.available.load(Ordering::Relaxed)
    }

    /// Batches that found no free permits and ran inline.
    pub fn inline_fallbacks(&self) -> u64 {
        self.inner.inline_fallbacks.load(Ordering::Relaxed)
    }

    /// Whether two handles share one budget.
    pub fn same_as(&self, other: &WorkerPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// [`scoped_map`] with the worker count bounded by both `want` and the
    /// free permits. Never blocks: an empty budget degrades to an inline
    /// (serial) batch on the caller thread.
    pub fn map<T, R, F>(&self, want: usize, items: &[T], f: F) -> (Vec<R>, PoolStats)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let want = want.min(items.len());
        if want <= 1 {
            return scoped_map(1, items, f);
        }
        let granted = self.claim(want);
        if granted == 0 {
            self.inner.inline_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        let out = scoped_map(granted.max(1), items, f);
        self.release(granted);
        out
    }

    /// Take up to `want` permits; returns how many were granted (0..=want).
    fn claim(&self, want: usize) -> usize {
        let mut granted = 0;
        let _ = self
            .inner
            .available
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |free| {
                granted = free.min(want);
                Some(free - granted)
            });
        granted
    }

    fn release(&self, permits: usize) {
        if permits > 0 {
            self.inner.available.fetch_add(permits, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_submission_order() {
        let items: Vec<u64> = (0..257).collect();
        for workers in [1, 2, 4, 16] {
            let (out, stats) = scoped_map(workers, &items, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
            assert!(stats.workers >= 1);
        }
    }

    #[test]
    fn inline_path_for_single_item() {
        let (out, stats) = scoped_map(8, &[41], |&x| x + 1);
        assert_eq!(out, vec![42]);
        assert_eq!(stats.workers, 1, "one job must not spawn threads");
    }

    #[test]
    fn empty_batch() {
        let (out, _) = scoped_map(4, &Vec::<u8>::new(), |_| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_pool_bounds_total_permits() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.claim(8), 4, "grants are capped by the budget");
        assert_eq!(pool.available(), 0);
        assert_eq!(pool.claim(2), 0, "empty budget grants nothing");
        pool.release(4);
        assert_eq!(pool.available(), 4);
        assert_eq!(pool.claim(2), 2);
        pool.release(2);
    }

    #[test]
    fn worker_pool_map_matches_scoped_map_output() {
        let items: Vec<u64> = (0..123).collect();
        let pool = WorkerPool::new(3);
        let (out, stats) = pool.map(8, &items, |&x| x * 2 + 1);
        assert_eq!(out, items.iter().map(|&x| x * 2 + 1).collect::<Vec<_>>());
        assert!(stats.workers <= 3);
        assert_eq!(pool.available(), 3, "permits returned after the batch");
    }

    #[test]
    fn worker_pool_exhausted_budget_runs_inline() {
        let pool = WorkerPool::new(2);
        let held = pool.claim(2);
        assert_eq!(held, 2);
        let items: Vec<u32> = (0..16).collect();
        let (out, stats) = pool.map(4, &items, |&x| x + 1);
        assert_eq!(out, items.iter().map(|&x| x + 1).collect::<Vec<_>>());
        assert_eq!(stats.workers, 1, "no free permits: inline");
        assert_eq!(pool.inline_fallbacks(), 1);
        pool.release(held);
    }

    #[test]
    fn worker_pool_clones_share_one_budget() {
        let a = WorkerPool::new(5);
        let b = a.clone();
        assert!(a.same_as(&b));
        assert_eq!(b.claim(3), 3);
        assert_eq!(a.available(), 2, "clone drained the shared budget");
        b.release(3);
        assert!(!a.same_as(&WorkerPool::new(5)));
    }

    #[test]
    fn parallel_actually_uses_multiple_workers() {
        let items: Vec<u32> = (0..64).collect();
        let (_, stats) = scoped_map(4, &items, |&x| {
            // Enough work to be measurable.
            let mut acc = x;
            for i in 0..10_000u32 {
                acc = acc.wrapping_mul(1664525).wrapping_add(i);
            }
            acc
        });
        assert_eq!(stats.workers, 4);
        assert!(stats.cpu_us > 0);
    }
}
