//! The encode workers are started once (DESIGN §9 "Warm workers"): a
//! sharing session's steady state starts no thread, and a pool's threads
//! end with its last handle, so hosts that come and go leave none behind.
//!
//! Both tests read process-wide thread counters, so they hold one lock and
//! this file holds nothing else.

use std::sync::Mutex;

use adshare::encode::pool::{live_threads, threads_started};
use adshare::encode::{resolve_workers, WorkerPool};
use adshare::host::{HostConfig, MultiHost};
use adshare::prelude::*;
use adshare::screen::workload::photo_frame;

static COUNTERS: Mutex<()> = Mutex::new(());

const TICK_US: u64 = 16_000;

#[test]
fn a_photo_session_starts_no_thread_after_set_up() {
    let _quiet = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    // A photo-shaped session: every tick repaints a 256×256 window with a
    // new picture, four full tiles of PNG misses, so each batch is worth
    // two workers on the process-wide pool.
    let mut desktop = Desktop::new(640, 480);
    let win = desktop.create_window(1, Rect::new(32, 32, 256, 256), [255; 4]);
    let mut s = SimSession::new(desktop, AhConfig::default(), 7);
    let link = LinkConfig::default();
    s.add_udp_participant(Layout::Original, link, link, None, 8);
    let paint = |s: &mut SimSession, n: u32| {
        s.ah.desktop_mut()
            .draw(win, 0, 0, &photo_frame(256, 256, n));
        s.step(TICK_US);
    };
    // Set-up: the first repaints start the pool.
    for n in 0..4 {
        paint(&mut s, n);
    }
    let (started, encodes) = (threads_started(), s.ah.stats().encodes);
    for n in 4..28 {
        paint(&mut s, n);
    }
    assert_eq!(threads_started(), started, "a step started a thread");
    let encoded = s.ah.stats().encodes - encodes;
    assert!(encoded >= 24 * 4, "{encoded} tiles encoded in 24 repaints");
    let pool = WorkerPool::global();
    assert_eq!(pool.max_workers(), resolve_workers(0));
    assert_eq!(
        live_threads(),
        pool.max_workers() - 1,
        "the pool's threads live on"
    );
    assert!(s
        .run_until(TICK_US, 5_000_000, |s| s.converged(0))
        .is_some());
}

#[test]
fn hosts_that_come_and_go_leave_no_thread() {
    let _quiet = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (live, started) = (live_threads(), threads_started());
    for _ in 0..100 {
        let host = MultiHost::new(HostConfig { pool_workers: 4 });
        assert_eq!(host.pool().max_workers(), 4);
        assert_eq!(live_threads(), live + 3, "three threads and the caller");
    }
    assert_eq!(live_threads(), live, "every host's threads ended with it");
    assert_eq!(threads_started() - started, 300);
}
