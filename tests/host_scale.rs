//! E2E tests for the multi-tenant host (`adshare-host`).
//!
//! The load-bearing claim: hosting changes *where* sessions run, never
//! *what they send*. A hosted session must be wire-byte-identical to the
//! same session run standalone under the same scheduling policy — at any
//! worker-pool size, with the cross-session cache on. On top of that, the
//! readiness event loop must be fair (skewed damage cannot starve a
//! session) and the tenant namespaces must be leak-proof (private sessions
//! never observe each other's encoded tiles).

use adshare::prelude::*;
use adshare_host::HostConfig;
use adshare_screen::wm::WindowId;
use proptest::prelude::*;

const INTERVAL_US: u64 = adshare_host::CAPTURE_INTERVAL_US;
const T_END_US: u64 = 700_000;

fn desktop() -> (Desktop, WindowId) {
    let mut d = Desktop::new(320, 240);
    let win = d.create_window(1, Rect::new(16, 16, 192, 128), [24, 48, 72, 255]);
    (d, win)
}

fn link() -> LinkConfig {
    LinkConfig {
        delay_us: 2_000,
        ..LinkConfig::default()
    }
}

/// A deterministic per-session workload. Content depends only on
/// `(class, tick)`, so sessions with the same class produce identical
/// tiles (cross-session cache hits) while the bytes each session sends
/// are a pure function of its own inputs (the parity requirement).
fn workload(class: usize, win: WindowId) -> impl FnMut(&mut SimSession, u64) -> bool + Send {
    let mut tick = 0u32;
    move |sess, _now| {
        tick += 1;
        let c = ((tick as usize * 13 + class * 59) % 200) as u8 + 20;
        let x = (tick % 3) * 48;
        sess.ah.desktop_mut().fill(
            win,
            Rect::new(x, 0, 48, 48),
            [c, c ^ 0x5a, (class as u8) * 50, 255],
        );
        tick < 36
    }
}

/// Wire digests of `n` sessions run hosted at the given pool size.
fn hosted_digests(n: usize, pool_workers: usize, sharing: CacheSharing) -> Vec<u64> {
    let mut host = MultiHost::new(HostConfig { pool_workers });
    for i in 0..n {
        let (d, win) = desktop();
        let idx = host.add_session(d, AhConfig::default(), i as u64, sharing);
        host.session_mut(idx).add_udp_participant(
            Layout::Original,
            link(),
            link(),
            None,
            i as u64 ^ 0x77,
        );
        host.set_workload(idx, workload(i % 4, win));
    }
    host.run_until(T_END_US);
    (0..n).map(|i| host.session(i).wire_digest()).collect()
}

/// Wire digests of the same `n` sessions each run standalone (private
/// per-session cache, no pool) under the identical scheduling policy.
fn standalone_digests(n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let (d, win) = desktop();
            let mut sess = SimSession::new(d, AhConfig::default(), i as u64);
            sess.add_udp_participant(Layout::Original, link(), link(), None, i as u64 ^ 0x77);
            run_standalone(
                &mut sess,
                INTERVAL_US,
                T_END_US,
                Some(Box::new(workload(i % 4, win))),
            );
            sess.wire_digest()
        })
        .collect()
}

/// A 64-session hosted run is wire-byte-identical, per session, to 64
/// standalone runs — with the shared cache on and at any pool size.
#[test]
fn hosted_sessions_are_wire_identical_to_standalone() {
    let standalone = standalone_digests(64);
    let hosted_serial = hosted_digests(64, 1, CacheSharing::Shared);
    assert_eq!(
        hosted_serial, standalone,
        "hosting (serial pool) must not change a single wire byte"
    );
    let hosted_parallel = hosted_digests(64, 8, CacheSharing::Shared);
    assert_eq!(
        hosted_parallel, standalone,
        "worker-pool size must not change a single wire byte"
    );
    let hosted_private = hosted_digests(64, 4, CacheSharing::Private);
    assert_eq!(
        hosted_private, standalone,
        "tenant isolation must not change a single wire byte"
    );
}

/// Private tenants never observe each other's cache entries, even with
/// byte-identical content; shared tenants do. Workload content never
/// repeats within a session (tick-varying colors), so in the private run
/// every recorded hit could only come from another tenant's entry — the
/// leak the namespaces must make impossible.
#[test]
fn private_tenants_never_share_tiles() {
    let run = |sharing: CacheSharing| {
        let mut host = MultiHost::new(HostConfig { pool_workers: 2 });
        for i in 0..4 {
            let (d, win) = desktop();
            let idx = host.add_session(d, AhConfig::default(), i, sharing);
            host.session_mut(idx)
                .add_udp_participant(Layout::Original, link(), link(), None, i);
            // Same class for everyone: all four sessions draw identical bytes.
            host.set_workload(idx, workload(0, win));
        }
        host.run_until(T_END_US);
        host.stats()
    };

    let shared = run(CacheSharing::Shared);
    assert!(
        shared.cache_hits > 0,
        "identical shared-tenant content must hit the cross-session cache"
    );
    let private = run(CacheSharing::Private);
    assert_eq!(
        private.cache_hits, 0,
        "a private tenant observing another tenant's tiles is a leak"
    );
    assert!(
        private.cache_insertions > shared.cache_insertions,
        "private tenants must each pay for their own encodes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fairness: however damage is skewed across sessions — a few tenants
    /// redrawing huge regions every tick, the rest trickling — every
    /// session with a live workload is serviced at every capture tick.
    /// The event loop schedules by due time, never by damage volume.
    #[test]
    fn skewed_damage_never_starves_a_session(
        heavy_mask in 0u8..255,
        seed in 0u64..1_000,
    ) {
        let t_end = 400_000u64; // 25 capture intervals
        let mut host = MultiHost::new(HostConfig { pool_workers: 2 });
        for i in 0..8usize {
            let (d, win) = desktop();
            let idx = host.add_session(d, AhConfig::default(), seed ^ i as u64, CacheSharing::Shared);
            host.session_mut(idx)
                .add_udp_participant(Layout::Original, link(), link(), None, seed ^ (i as u64) << 8);
            let heavy = heavy_mask & (1 << i) != 0;
            let mut tick = 0u32;
            host.set_workload(idx, move |sess, _| {
                tick += 1;
                if heavy {
                    // Full-window redraw, new bytes every tick.
                    let c = (tick % 251) as u8;
                    sess.ah.desktop_mut().fill(win, Rect::new(0, 0, 192, 128), [c, 255 - c, i as u8, 255]);
                } else if tick.is_multiple_of(4) {
                    sess.ah.desktop_mut().fill(win, Rect::new(0, 0, 16, 16), [tick as u8, 0, 0, 255]);
                }
                true // live for the whole run
            });
        }
        host.run_until(t_end);
        let ticks = t_end / INTERVAL_US;
        for i in 0..8 {
            prop_assert!(
                host.session_steps(i) >= ticks - 2,
                "session {} starved: {} services over {} capture ticks",
                i, host.session_steps(i), ticks
            );
        }
    }
}
