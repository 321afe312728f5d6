//! The [`MultiHost`] readiness event loop and its scheduling policy.
//!
//! Scheduling is a binary heap of `(due_us, seq, session)` entries with
//! lazy invalidation: each slot remembers the due time it is currently
//! armed for, and stale heap entries (superseded by an earlier re-arm) are
//! skipped on pop. `seq` breaks ties FIFO so equal-due sessions are
//! serviced in arming order — the fairness property `tests/host_scale.rs`
//! proptests under skewed damage.
//!
//! The per-session policy itself lives in `Cadence`, shared verbatim
//! between the hosted loop and [`run_standalone`]: due times are a pure
//! function of the session's own state (its clock, its in-flight I/O, its
//! unflushed work), never of its neighbours. That is the whole parity
//! argument — a hosted session and a standalone session see identical
//! step instants, so they emit identical bytes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use adshare_capture::{decode_entries, encode_entries, CaptureError, WarmEntry};
use adshare_encode::{resolve_workers, EncodePipeline, SharedEncodeCache, WorkerPool};
use adshare_obs::{Counter, Registry};
use adshare_screen::desktop::Desktop;
use adshare_session::{AhConfig, SessionDriver, SimSession};

use crate::stats::HostStats;

/// Namespace bit reserved for non-sharing tenants: bit 63 set means the
/// namespace is private to one session, and [`shared_namespace`] always
/// clears it, so the two key populations can never collide.
const PRIVATE_BIT: u64 = 1 << 63;

/// Capture cadence for every hosted session (µs between desktop capture
/// ticks while a session is active).
pub const CAPTURE_INTERVAL_US: u64 = 16_000;

/// Byte budget of the process-wide shared encode cache.
const CACHE_BUDGET_BYTES: usize = 64 << 20;

/// Shard count of the shared encode cache.
const CACHE_SHARDS: usize = 16;

/// Host-level tunables.
#[derive(Debug, Clone, Default)]
pub struct HostConfig {
    /// Size of the host's encode worker pool, the stepping thread
    /// included (so `pool_workers − 1` threads); 0 = one per available
    /// core, capped at 8 ([`resolve_workers`], as for
    /// `EncodeConfig::workers`). Set by `tests/host_scale.rs`,
    /// `tests/encode_parity.rs` and `tests/encode_workers.rs`.
    pub pool_workers: usize,
}

/// Whether a session participates in the cross-session encode cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSharing {
    /// Share encoded tiles with every same-config session in the process.
    Shared,
    /// Consent-gated tenant: its cache entries live under a namespace no
    /// other session can ever look up.
    Private,
}

/// The cache namespace for sessions that opt into cross-session sharing.
///
/// Two sessions may share encoded bytes only if a cache hit in one is
/// byte-identical to the encode the other would have produced — i.e. only
/// if every configuration knob the encode closure depends on matches. The
/// namespace is a hash of exactly those knobs (codec choice and the
/// adaptive-codec classifier), so differently-configured sessions land in
/// disjoint namespaces automatically. Bit 63 is cleared; private sessions
/// set it, guaranteeing zero overlap between the populations.
pub fn shared_namespace(cfg: &AhConfig) -> u64 {
    let tag = format!("{:?}|{}", cfg.codec, cfg.adaptive_codec);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in tag.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h & !PRIVATE_BIT
}

/// A per-session application workload, invoked at each capture tick with
/// the session and the current virtual time. Return `false` when finished:
/// the host drops the workload and lets the session drain and park.
pub type Workload = Box<dyn FnMut(&mut SimSession, u64) -> bool + Send>;

/// The per-session scheduling policy — when is this session next due, and
/// what does servicing it at that instant mean. Shared verbatim between
/// [`MultiHost`] and [`run_standalone`] so hosted and standalone runs step
/// each session at identical virtual instants (the wire-parity invariant).
struct Cadence {
    interval_us: u64,
    next_capture_us: u64,
    /// Last serviced due time: the floor for the next one. Guarantees the
    /// loop makes progress even if a service leaves the session clock
    /// unmoved.
    last_due_us: u64,
}

impl Cadence {
    fn starting_at(now_us: u64, interval_us: u64) -> Self {
        Cadence {
            interval_us,
            next_capture_us: now_us + interval_us,
            last_due_us: now_us,
        }
    }

    /// The next instant this session needs service, or `None` to park.
    ///
    /// Active sessions (live workload, or unflushed damage/pacer/repair
    /// work) are due at their next capture tick; anything in flight on a
    /// link is due when it becomes deliverable — whichever is sooner. Due
    /// times are strictly increasing.
    fn next_due(&self, sess: &SimSession, workload_live: bool) -> Option<u64> {
        let now = sess.clock.now_us().max(self.last_due_us);
        let busy = workload_live || sess.ah.has_pending();
        let capture = busy.then(|| self.next_capture_us.max(now + 1));
        let io = sess.next_due_us().map(|d| d.max(now + 1));
        match (capture, io) {
            (Some(c), Some(i)) => Some(c.min(i)),
            (c, i) => c.or(i),
        }
    }

    /// Service the session at `due_us`: run the workload if this lands on
    /// a capture tick (so its damage is captured by the very step that
    /// follows), then advance the session's world to `due_us`.
    fn service(&mut self, sess: &mut SimSession, due_us: u64, workload: &mut Option<Workload>) {
        if due_us >= self.next_capture_us {
            if let Some(wl) = workload.as_mut() {
                if !wl(sess, due_us) {
                    *workload = None;
                }
            }
            while self.next_capture_us <= due_us {
                self.next_capture_us += self.interval_us;
            }
        }
        sess.drive_to(due_us);
        self.last_due_us = due_us;
    }
}

/// Run one session standalone under the exact scheduling policy
/// [`MultiHost`] applies — the comparator for wire-byte parity tests.
///
/// Virtual time starts at the session's current clock and runs until no
/// due instant at or before `t_end_us` remains.
pub fn run_standalone(
    sess: &mut SimSession,
    capture_interval_us: u64,
    t_end_us: u64,
    mut workload: Option<Workload>,
) {
    let mut cadence = Cadence::starting_at(sess.clock.now_us(), capture_interval_us);
    while let Some(due) = cadence.next_due(sess, workload.is_some()) {
        if due > t_end_us {
            break;
        }
        cadence.service(sess, due, &mut workload);
    }
}

struct Slot {
    sess: SimSession,
    cadence: Cadence,
    workload: Option<Workload>,
    /// The due time this slot is currently armed for in the heap; heap
    /// entries carrying any other due are stale and skipped on pop.
    armed_due: Option<u64>,
    steps: Counter,
    cpu_us: Counter,
}

/// A multi-tenant session host: N independent sharing sessions behind one
/// shared encode cache, one bounded worker pool, and one readiness-driven
/// event loop.
pub struct MultiHost {
    cache: Arc<SharedEncodeCache>,
    pool: WorkerPool,
    registry: Registry,
    slots: Vec<Slot>,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    seq: u64,
    now_us: u64,
    services: Counter,
    wall_us: Counter,
}

impl MultiHost {
    /// Create an empty host: the shared cache and worker pool exist from
    /// the start, sessions attach to them as they are added.
    pub fn new(cfg: HostConfig) -> Self {
        let cache = Arc::new(SharedEncodeCache::new(CACHE_BUDGET_BYTES, CACHE_SHARDS));
        let registry = Registry::new();
        let services = registry.counter("host.services");
        let wall_us = registry.counter("host.wall_us");
        MultiHost {
            cache,
            pool: WorkerPool::new(resolve_workers(cfg.pool_workers)),
            registry,
            slots: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            now_us: 0,
            services,
            wall_us,
        }
    }

    /// The process-wide shared encode cache.
    pub fn cache(&self) -> &Arc<SharedEncodeCache> {
        &self.cache
    }

    /// The host's encode worker pool, shared by all its sessions.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Host-level metrics registry (`host.*` counters and gauges).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Latest virtual instant the host has serviced.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Number of hosted sessions.
    pub fn session_count(&self) -> usize {
        self.slots.len()
    }

    /// Add a session. Its encode pipeline is rebuilt around the host's
    /// shared cache (under the namespace `sharing` dictates) and global
    /// worker pool; everything else about the session is untouched. The
    /// session is armed for its first capture tick one interval from the
    /// host's current time.
    pub fn add_session(
        &mut self,
        desktop: Desktop,
        cfg: AhConfig,
        seed: u64,
        sharing: CacheSharing,
    ) -> usize {
        let idx = self.slots.len();
        let namespace = match sharing {
            CacheSharing::Shared => shared_namespace(&cfg),
            CacheSharing::Private => PRIVATE_BIT | idx as u64,
        };
        let pipeline = EncodePipeline::with_shared(
            cfg.encode,
            namespace,
            Arc::clone(&self.cache),
            self.pool.clone(),
        );
        let sess = SimSession::new_with_pipeline(desktop, cfg, seed, pipeline);
        let steps = self.registry.counter(&format!("host.session.{idx}.steps"));
        let cpu_us = self.registry.counter(&format!("host.session.{idx}.cpu_us"));
        self.slots.push(Slot {
            sess,
            cadence: Cadence::starting_at(self.now_us, CAPTURE_INTERVAL_US),
            workload: None,
            armed_due: None,
            steps,
            cpu_us,
        });
        self.arm(idx, self.now_us + CAPTURE_INTERVAL_US);
        idx
    }

    /// Serialize the hottest `max` shared-cache entries of `namespace` as
    /// an `adshare-cachewarm/v1` warm file — what the host persists when a
    /// sharing session ends so a re-share of the same surface starts warm.
    /// Tenant-scoped: entries of other namespaces are never exported. The
    /// `capture.warm_exported_entries` / `capture.warm_exported_bytes`
    /// gauges report what was written.
    pub fn export_warm(&self, namespace: u64, max: usize) -> Vec<u8> {
        let entries: Vec<WarmEntry> = self
            .cache
            .export_namespace(namespace, max)
            .into_iter()
            .map(|(key, payload_type, payload)| WarmEntry {
                key,
                payload_type,
                payload,
            })
            .collect();
        let bytes = encode_entries(&entries);
        self.registry
            .gauge("capture.warm_exported_entries")
            .set(entries.len() as i64);
        self.registry
            .gauge("capture.warm_exported_bytes")
            .set(bytes.len() as i64);
        bytes
    }

    /// Pre-warm the shared cache from a warm file before a re-share under
    /// `namespace`. Entries carrying any other namespace are rejected by
    /// the cache (a warm file is tenant-scoped), and a corrupt file is an
    /// error, not a partial load. Returns how many entries were accepted;
    /// the `capture.prewarm_entries` gauge reports the same number.
    pub fn prewarm(&self, namespace: u64, warm_file: &[u8]) -> Result<usize, CaptureError> {
        let entries = decode_entries(warm_file)?;
        let triples: Vec<_> = entries
            .into_iter()
            .map(|e| (e.key, e.payload_type, e.payload))
            .collect();
        let loaded = self.cache.preload(namespace, &triples);
        self.registry
            .gauge("capture.prewarm_entries")
            .set(loaded as i64);
        Ok(loaded)
    }

    /// Install (or replace) a session's workload and wake it.
    pub fn set_workload<F>(&mut self, idx: usize, workload: F)
    where
        F: FnMut(&mut SimSession, u64) -> bool + Send + 'static,
    {
        self.slots[idx].workload = Some(Box::new(workload));
        self.wake(idx);
    }

    /// Shared access to a hosted session.
    pub fn session(&self, idx: usize) -> &SimSession {
        &self.slots[idx].sess
    }

    /// Mutable access to a hosted session (e.g. to add participants or
    /// mutate its desktop directly). Call [`wake`](MultiHost::wake)
    /// afterwards if the mutation created work for a parked session.
    pub fn session_mut(&mut self, idx: usize) -> &mut SimSession {
        &mut self.slots[idx].sess
    }

    /// Re-evaluate a session's due time and (re-)arm it. Idempotent; a
    /// no-op for sessions that are genuinely idle.
    pub fn wake(&mut self, idx: usize) {
        let slot = &self.slots[idx];
        if let Some(due) = slot.cadence.next_due(&slot.sess, slot.workload.is_some()) {
            self.arm(idx, due);
        }
    }

    /// Total services (event-loop steps) a session has received.
    pub fn session_steps(&self, idx: usize) -> u64 {
        self.slots[idx].steps.get()
    }

    /// Accumulated host CPU spent servicing a session (µs, wall-measured).
    pub fn session_cpu_us(&self, idx: usize) -> u64 {
        self.slots[idx].cpu_us.get()
    }

    /// Sessions currently armed in the event loop (not parked).
    pub fn active_sessions(&self) -> usize {
        self.slots.iter().filter(|s| s.armed_due.is_some()).count()
    }

    fn arm(&mut self, idx: usize, due: u64) {
        let slot = &mut self.slots[idx];
        if slot.armed_due.is_some_and(|d| d <= due) {
            return; // already armed at least as early
        }
        slot.armed_due = Some(due);
        self.seq += 1;
        self.queue.push(Reverse((due, self.seq, idx)));
    }

    /// Drive every hosted session's virtual world forward to `t_end_us`,
    /// servicing sessions strictly in due-time order (FIFO among ties).
    /// Sessions with nothing due — no workload, no unflushed work, nothing
    /// in flight — cost nothing.
    pub fn run_until(&mut self, t_end_us: u64) {
        let wall = Instant::now();
        while let Some(&Reverse((due, _seq, idx))) = self.queue.peek() {
            if due > t_end_us {
                break;
            }
            self.queue.pop();
            let slot = &mut self.slots[idx];
            if slot.armed_due != Some(due) {
                continue; // stale entry superseded by a re-arm
            }
            slot.armed_due = None;
            let t0 = Instant::now();
            slot.cadence
                .service(&mut slot.sess, due, &mut slot.workload);
            slot.cpu_us.add(t0.elapsed().as_micros() as u64);
            slot.steps.inc();
            self.services.inc();
            self.now_us = self.now_us.max(due);
            let next = slot.cadence.next_due(&slot.sess, slot.workload.is_some());
            if let Some(next) = next {
                self.arm(idx, next);
            }
        }
        self.now_us = self.now_us.max(t_end_us);
        self.wall_us.add(wall.elapsed().as_micros() as u64);
    }

    /// Snapshot host-level statistics (also refreshes the `host.sessions`
    /// and `host.active_sessions` gauges in the registry).
    pub fn stats(&self) -> HostStats {
        self.registry
            .gauge("host.sessions")
            .set(self.slots.len() as i64);
        self.registry
            .gauge("host.active_sessions")
            .set(self.active_sessions() as i64);
        let (mut steps_min, mut steps_max) = (u64::MAX, 0);
        let mut cpu_total = 0;
        let mut codec_cpu_us = [0u64; 4];
        let mut codec_encodes = [0u64; 4];
        for slot in &self.slots {
            let s = slot.steps.get();
            steps_min = steps_min.min(s);
            steps_max = steps_max.max(s);
            cpu_total += slot.cpu_us.get();
            // Roll the per-session codec split (emitted by the encode path
            // into each session's own registry) up to host level.
            let reg = &slot.sess.obs().registry;
            for (i, name) in crate::stats::CODEC_NAMES.iter().enumerate() {
                codec_cpu_us[i] += reg
                    .counter_value(&format!("codec.{name}.cpu_us_total"))
                    .unwrap_or(0);
                codec_encodes[i] += reg
                    .counter_value(&format!("codec.{name}.encodes"))
                    .unwrap_or(0);
            }
        }
        if self.slots.is_empty() {
            steps_min = 0;
        }
        HostStats {
            sessions: self.slots.len() as u64,
            active_sessions: self.active_sessions() as u64,
            services: self.services.get(),
            wall_us: self.wall_us.get(),
            cpu_us: cpu_total,
            steps_min,
            steps_max,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_insertions: self.cache.insertions(),
            cache_evictions: self.cache.evictions(),
            cache_entries: self.cache.len() as u64,
            cache_bytes: self.cache.bytes() as u64,
            cache_shards: self.cache.shard_count() as u64,
            cache_hit_rate_pct: self.cache.hit_rate_pct().round() as u64,
            pool_max_workers: self.pool.max_workers() as u64,
            pool_inline_fallbacks: self.pool.inline_fallbacks(),
            codec_cpu_us,
            codec_encodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adshare_codec::Rect;
    use adshare_netsim::udp::LinkConfig;
    use adshare_session::Layout;

    fn desktop_with_window() -> (Desktop, adshare_screen::wm::WindowId) {
        let mut d = Desktop::new(640, 480);
        let id = d.create_window(1, Rect::new(40, 40, 320, 240), [30, 60, 90, 255]);
        (d, id)
    }

    fn quick_link() -> LinkConfig {
        LinkConfig {
            delay_us: 2_000,
            ..LinkConfig::default()
        }
    }

    #[test]
    fn namespaces_partition_shared_and_private() {
        let cfg = AhConfig::default();
        let shared = shared_namespace(&cfg);
        assert_eq!(shared & PRIVATE_BIT, 0, "shared namespaces clear bit 63");
        let mut other = cfg.clone();
        other.adaptive_codec = true;
        assert_ne!(
            shared,
            shared_namespace(&other),
            "different encode config => different namespace"
        );
        assert_ne!(shared, PRIVATE_BIT, "private never collides with shared");
    }

    #[test]
    fn idle_sessions_park_and_cost_nothing() {
        let mut host = MultiHost::new(HostConfig::default());
        let (d, _) = desktop_with_window();
        let idx = host.add_session(d, AhConfig::default(), 7, CacheSharing::Shared);
        // No participants, no workload: after the initial capture ticks the
        // session drains and parks.
        host.run_until(2_000_000);
        assert_eq!(host.active_sessions(), 0, "idle session should park");
        let steps = host.session_steps(idx);
        host.run_until(4_000_000);
        assert_eq!(
            host.session_steps(idx),
            steps,
            "parked session must receive no further service"
        );
    }

    #[test]
    fn workload_drives_convergence_and_parks_when_done() {
        let mut host = MultiHost::new(HostConfig { pool_workers: 2 });
        let (d, win) = desktop_with_window();
        let idx = host.add_session(d, AhConfig::default(), 11, CacheSharing::Shared);
        host.session_mut(idx).add_udp_participant(
            Layout::Original,
            quick_link(),
            quick_link(),
            None,
            3,
        );
        let mut ticks = 0u32;
        host.set_workload(idx, move |sess, _now| {
            ticks += 1;
            if ticks.is_multiple_of(4) {
                let c = 40 + (ticks % 160) as u8;
                sess.ah
                    .desktop_mut()
                    .fill(win, Rect::new(0, 0, 64, 64), [c, c, 20, 255]);
            }
            ticks < 40
        });
        host.run_until(4_000_000);
        assert!(
            host.session(idx).converged(0),
            "participant should converge"
        );
        assert!(
            host.session_steps(idx) > 40,
            "active session must be serviced at capture cadence"
        );
        assert_eq!(host.active_sessions(), 0, "finished session parks");
    }

    #[test]
    fn stats_snapshot_is_coherent() {
        let mut host = MultiHost::new(HostConfig::default());
        for i in 0..3 {
            let (d, win) = desktop_with_window();
            let idx = host.add_session(d, AhConfig::default(), i, CacheSharing::Shared);
            host.session_mut(idx).add_udp_participant(
                Layout::Original,
                quick_link(),
                quick_link(),
                None,
                i,
            );
            let mut n = 0u32;
            host.set_workload(idx, move |sess, _| {
                n += 1;
                sess.ah
                    .desktop_mut()
                    .fill(win, Rect::new(0, 0, 32, 32), [n as u8, 0, 0, 255]);
                n < 10
            });
        }
        host.run_until(2_000_000);
        let st = host.stats();
        assert_eq!(st.sessions, 3);
        assert!(st.services >= st.steps_min * 3);
        assert!(st.cache_insertions > 0, "misses must populate the cache");
        assert!(
            st.cache_hits > 0,
            "three identical sessions must share encoded tiles"
        );
        let snap = host.registry().snapshot();
        assert_eq!(snap.gauge("host.sessions"), Some(3));
        assert_eq!(
            snap.sum_counters_with("host.session.", ".steps"),
            st.services,
            "per-session steps roll up to total services"
        );
    }
}
