//! Process-level probes the end-to-end metrics are built from: a counting
//! global allocator, the process CPU clock and the resident-set high-water
//! mark. Everything here observes the process from outside the product.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation of the process (all threads, so the
/// product's encode workers are included) and the bytes asked for.
pub struct CountingAlloc;

// `Relaxed` is enough: the two counters are statistics that publish no
// other data, and they are only read on the driver thread between steps.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink is one trip to the allocator and may copy the
        // whole block, so it counts as one allocation of the new size.
        count(new_size);
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` since process start.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by the whole process (every thread, including ones
/// that already exited), in nanoseconds. `/proc/self/stat` reports the same
/// quantity but in 10 ms clock ticks, which is a whole step on the heavy
/// workloads; the POSIX clock has nanosecond resolution.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target, which is all this benchmark supports —
    // it also reads `/proc`), and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_allocation_pattern_exactly() {
        // Other test threads allocate concurrently, so measure the minimum
        // over a few attempts: it equals the pattern's own cost exactly
        // once an attempt runs undisturbed.
        let mut best = (u64::MAX, u64::MAX);
        for _ in 0..200 {
            let (a0, b0) = alloc_counts();
            let boxed: Vec<Box<[u8; 100]>> = (0..10).map(|_| Box::new([7u8; 100])).collect();
            let (a1, b1) = alloc_counts();
            std::hint::black_box(&boxed);
            best = best.min((a1 - a0, b1 - b0));
        }
        // Ten boxes of 100 bytes plus the one exact-size Vec of ten pointers.
        assert_eq!(
            best,
            (11, 10 * 100 + 10 * std::mem::size_of::<usize>() as u64)
        );
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > t0);
        assert!(peak_rss_mib() > 0.5);
    }
}
