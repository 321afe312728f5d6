//! A built workload instance: the world (the product's orchestrators, or
//! the benchmark's traced twins of them), its painters and its viewers,
//! behind one interface the measuring loop drives.

use adshare::prelude::*;
use adshare::screen::WindowId;
use adshare::session::participant::ParticipantStats;

use crate::stats::Fnv;
use crate::stepper;
use crate::trace::Tracer;
use crate::workloads::{
    relay_config, relay_seed, session_seed, viewer_seed, Check, DirectViewer, Painter, Plan,
    Topology, LOSSY_BOUND, TICK_US,
};

/// Upper bound on the set-up and drain phases, in ticks (30 virtual s).
const SETTLE_TICKS: u32 = (30_000_000 / TICK_US) as u32;

/// The world under test.
pub enum World {
    /// `SimSession`: AH and viewers on direct links.
    Direct(Box<SimSession>),
    /// `RelaySim` and its relay count.
    Relay(Box<RelaySim>, usize),
    /// `MultiHost`: many sessions in one process.
    Host(Box<MultiHost>),
    /// The traced twin of `Direct`.
    TracedDirect(Box<stepper::Direct>),
    /// The traced twin of `Relay`.
    TracedRelay(Box<stepper::Relay>),
}

/// One built workload instance.
pub struct Scene {
    /// The world.
    pub world: World,
    /// Painters. [`Scene::start`] hands a host's painters (one per session)
    /// to the host's own workload callbacks.
    pub painters: Vec<Painter>,
    /// The shared window of each session's desktop.
    windows: Vec<WindowId>,
    /// Expected end state per viewer, in viewer-index order.
    pub checks: Vec<Check>,
    /// Running digest of every generated input.
    pub input: Fnv,
}

/// Counters summed over every viewer of a scene.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewerTotals {
    /// RegionUpdates and MoveRectangles applied: the operations attempted.
    pub updates: u64,
    /// Updates whose payload failed to decode.
    pub decode_errors: u64,
    /// PLIs sent (one per UDP join, then one per gap-timeout fallback).
    pub plis: u64,
    /// NACK messages sent.
    pub nacks: u64,
}

impl ViewerTotals {
    fn add(&mut self, s: ParticipantStats) {
        self.updates += s.regions_applied + s.moves_applied;
        self.decode_errors += s.decode_errors;
        self.plis += s.plis_sent;
        self.nacks += s.nacks_sent;
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: ViewerTotals) -> ViewerTotals {
        ViewerTotals {
            updates: self.updates - earlier.updates,
            decode_errors: self.decode_errors - earlier.decode_errors,
            plis: self.plis - earlier.plis,
            nacks: self.nacks - earlier.nacks,
        }
    }
}

/// Mean absolute per-channel error of a viewer against the AH's desktop
/// (0 = identical, infinite when a window is missing or mis-sized).
fn divergence(desktop: &Desktop, p: &Participant) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for rec in desktop.wm().shared_records() {
        let (Some(local), Some(remote)) =
            (p.window_content(rec.id.0), desktop.window_content(rec.id))
        else {
            return f64::INFINITY;
        };
        if local.width() != remote.width() || local.height() != remote.height() {
            return f64::INFINITY;
        }
        total += local.mean_abs_error(remote);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Whether a viewer shows every shared window pixel for pixel.
fn converged(desktop: &Desktop, p: &Participant) -> bool {
    p.synced()
        && desktop.wm().shared_records().count() == p.z_order().len()
        && desktop.wm().shared_records().all(|rec| {
            p.window_content(rec.id.0).is_some()
                && p.window_content(rec.id.0) == desktop.window_content(rec.id)
        })
}

impl Scene {
    /// Build the plan's world: with the product's orchestrators, or (for
    /// the traced run) with the benchmark's own steppers. A host is the
    /// same `MultiHost` either way.
    pub fn build(plan: Plan, traced: bool) -> Scene {
        let Plan {
            seed,
            mut desktops,
            painters,
            topology,
            checks,
            input,
        } = plan;
        let windows: Vec<WindowId> = desktops.iter().map(|(_, w)| *w).collect();
        let mut desktop = || desktops.pop().expect("a desktop per session").0;
        let world = match topology {
            Topology::Direct { cfg, viewers } if traced => World::TracedDirect(Box::new(
                stepper::Direct::new(desktop(), seed, cfg, &viewers),
            )),
            Topology::Direct { cfg, viewers } => {
                let mut sim = SimSession::new(desktop(), cfg, session_seed(seed, 0));
                for (i, v) in viewers.iter().enumerate() {
                    let vseed = viewer_seed(seed, i);
                    match *v {
                        DirectViewer::Udp { down, up } => {
                            sim.add_udp_participant(Layout::Original, down, up, None, vseed)
                        }
                        DirectViewer::Tcp { link, up } => {
                            sim.add_tcp_participant(Layout::Original, link, up, vseed)
                        }
                    };
                }
                World::Direct(Box::new(sim))
            }
            Topology::Relay {
                cfg,
                hop,
                relays,
                viewers,
            } if traced => World::TracedRelay(Box::new(stepper::Relay::new(
                desktop(),
                seed,
                cfg,
                hop,
                &relays,
                &viewers,
            ))),
            Topology::Relay {
                cfg,
                hop,
                relays,
                viewers,
            } => {
                let mut sim = RelaySim::new(
                    desktop(),
                    cfg,
                    &adshare::sdp::OfferParams::default(),
                    session_seed(seed, 0),
                );
                for (i, up) in relays.iter().enumerate() {
                    sim.add_relay(*up, relay_config(), hop, hop, relay_seed(seed, i));
                }
                for (i, v) in viewers.iter().enumerate() {
                    sim.add_participant_rate(
                        v.relay,
                        Layout::Original,
                        v.link,
                        v.link,
                        viewer_seed(seed, i),
                        Some(v.cap_bps),
                    );
                }
                World::Relay(Box::new(sim), relays.len())
            }
            Topology::Host { link } => {
                let mut host = MultiHost::new(HostConfig::default());
                for (i, (desktop, _)) in desktops.into_iter().enumerate() {
                    let idx = host.add_session(
                        desktop,
                        AhConfig::default(),
                        session_seed(seed, i),
                        CacheSharing::Shared,
                    );
                    host.session_mut(idx).add_udp_participant(
                        Layout::Original,
                        link,
                        link,
                        None,
                        viewer_seed(seed, i),
                    );
                }
                World::Host(Box::new(host))
            }
        };
        Scene {
            world,
            painters,
            windows,
            checks,
            input,
        }
    }

    /// Advance the world by one capture tick.
    pub fn step(&mut self, tr: &mut Tracer) {
        match &mut self.world {
            World::Direct(sim) => sim.step(TICK_US),
            World::Relay(sim, _) => sim.step(TICK_US),
            World::Host(host) => {
                let t = host.now_us() + TICK_US;
                tr.span("host.run_until", || host.run_until(t));
            }
            World::TracedDirect(w) => w.step(TICK_US, tr),
            World::TracedRelay(w) => w.step(TICK_US, tr),
        }
    }

    /// The AH of session `i` (0 unless the world is a host).
    pub fn ah(&self, i: usize) -> &AppHost {
        match &self.world {
            World::Direct(sim) => &sim.ah,
            World::Relay(sim, _) => &sim.ah,
            World::Host(host) => &host.session(i).ah,
            World::TracedDirect(w) => &w.ah,
            World::TracedRelay(w) => &w.ah,
        }
    }

    /// Sessions in the world.
    pub fn sessions(&self) -> usize {
        self.windows.len()
    }

    /// The desktop the benchmark paints (single-session worlds only).
    pub fn desktop_mut(&mut self) -> Option<&mut Desktop> {
        match &mut self.world {
            World::Direct(sim) => Some(sim.ah.desktop_mut()),
            World::Relay(sim, _) => Some(sim.ah.desktop_mut()),
            World::Host(_) => None,
            World::TracedDirect(w) => Some(w.ah.desktop_mut()),
            World::TracedRelay(w) => Some(w.ah.desktop_mut()),
        }
    }

    /// A viewer's participant.
    pub fn participant(&self, viewer: usize) -> &Participant {
        match &self.world {
            World::Direct(sim) => sim.participant(viewer),
            World::Relay(sim, _) => sim.participant(viewer),
            World::Host(host) => host.session(viewer).participant(0),
            World::TracedDirect(w) => w.participant(viewer),
            World::TracedRelay(w) => w.participant(viewer),
        }
    }

    fn viewer_desktop(&self, viewer: usize) -> &Desktop {
        let session = if matches!(self.world, World::Host(_)) {
            viewer
        } else {
            0
        };
        self.ah(session).desktop()
    }

    /// Mean absolute error of a viewer against the AH (0 = identical).
    pub fn divergence(&self, viewer: usize) -> f64 {
        divergence(self.viewer_desktop(viewer), self.participant(viewer))
    }

    /// Whether a viewer currently passes its check.
    pub fn viewer_ok(&self, viewer: usize) -> bool {
        let (desktop, p) = (self.viewer_desktop(viewer), self.participant(viewer));
        match self.checks[viewer] {
            Check::Lossless => converged(desktop, p),
            Check::Lossy => p.synced() && divergence(desktop, p) < LOSSY_BOUND,
        }
    }

    /// Step without painting for at least `min_ticks`, then until every
    /// viewer passes its check, for at most 30 virtual seconds. Returns
    /// whether all passed. Never traced: set-up and drain belong to no frame.
    pub fn settle(&mut self, min_ticks: u32) -> bool {
        let mut untraced = Tracer::new(false);
        for tick in 1..=SETTLE_TICKS {
            self.step(&mut untraced);
            if tick >= min_ticks && (0..self.checks.len()).all(|v| self.viewer_ok(v)) {
                return true;
            }
        }
        false
    }

    /// Begin the painted phase. Single-session worlds are painted by the
    /// caller; a host paints from its own per-session workload callbacks,
    /// installed here so that set-up runs unpainted, and each stops after
    /// `ticks` capture ticks so the drain runs unpainted too.
    pub fn start(&mut self, ticks: u32) {
        if let World::Host(host) = &mut self.world {
            for (idx, mut painter) in std::mem::take(&mut self.painters).into_iter().enumerate() {
                let mut left = ticks;
                host.set_workload(idx, move |sess, _now| {
                    painter.apply(sess.ah.desktop_mut());
                    left -= 1;
                    left > 0
                });
            }
        }
    }

    /// Fold the current content of every shared window into the input
    /// digest: generators the benchmark cannot see into (`Typing`,
    /// `Scrolling`, `Terminal`) are pinned through what they painted.
    pub fn fold_windows(&mut self) {
        for i in 0..self.windows.len() {
            let content = self
                .ah(i)
                .desktop()
                .window_content(self.windows[i])
                .expect("shared window exists");
            let mut d = self.input;
            d.fold_bytes(content.data());
            self.input = d;
        }
    }

    /// Order-sensitive digest of every byte the AH(s) and relays emitted.
    pub fn wire_digest(&self) -> u64 {
        let mut d = Fnv::new();
        for i in 0..self.sessions() {
            d.fold_u64(self.ah(i).wire_digest());
        }
        for r in 0..self.relay_count() {
            let node = self.relay(r);
            for leg in 0..node.leg_count() {
                d.fold_u64(node.leg_wire_digest(leg));
            }
        }
        d.value()
    }

    /// The observability bundle of session `i`.
    pub fn obs(&self, i: usize) -> &adshare::obs::Obs {
        match &self.world {
            World::Direct(sim) => sim.obs(),
            World::Relay(sim, _) => sim.obs(),
            World::Host(host) => host.session(i).obs(),
            World::TracedDirect(w) => w.obs(),
            World::TracedRelay(w) => w.obs(),
        }
    }

    /// Relays in the world.
    pub fn relay_count(&self) -> usize {
        match &self.world {
            World::Relay(_, n) => *n,
            World::TracedRelay(w) => w.relay_count(),
            _ => 0,
        }
    }

    /// A relay node.
    pub fn relay(&self, r: usize) -> &RelayNode {
        match &self.world {
            World::Relay(sim, _) => sim.relay(r),
            World::TracedRelay(w) => w.relay(r),
            _ => panic!("world has no relay"),
        }
    }

    /// Per-leg tier snapshot of a relay at the current virtual time.
    pub fn tier_stats(&mut self, r: usize) -> adshare::layers::TierStats {
        match &mut self.world {
            World::Relay(sim, _) => sim.tier_stats(r),
            World::TracedRelay(w) => {
                let now = w.now_us();
                w.relay_mut(r).tier_stats(now)
            }
            _ => panic!("world has no relay"),
        }
    }

    /// `BacklogSkip` events (§7: TCP send buffer busy, update held back)
    /// the AH recorded at virtual time `now_us` or later.
    pub fn backlog_skips_since(&self, now_us: u64) -> u64 {
        (0..self.sessions())
            .map(|i| {
                self.obs(i)
                    .recorder
                    .snapshot_since(now_us)
                    .iter()
                    .filter(|e| e.kind == adshare::obs::EventKind::BacklogSkip)
                    .count() as u64
            })
            .sum()
    }

    /// Virtual now, µs.
    pub fn now_us(&self) -> u64 {
        match &self.world {
            World::Direct(sim) => sim.clock.now_us(),
            World::Relay(sim, _) => sim.clock.now_us(),
            World::Host(host) => host.now_us(),
            World::TracedDirect(w) => w.now_us(),
            World::TracedRelay(w) => w.now_us(),
        }
    }

    /// Reorder gaps the traced stepper abandoned to a PLI refresh (the
    /// product's orchestrators do not count theirs).
    pub fn gap_recoveries(&self) -> u64 {
        match &self.world {
            World::TracedDirect(w) => w.gap_recoveries,
            World::TracedRelay(w) => w.gap_recoveries,
            _ => 0,
        }
    }

    /// Take the traced stepper's per-leg logs (empty for other worlds).
    pub fn take_logs(&mut self) -> Vec<stepper::LegLog> {
        match &mut self.world {
            World::TracedDirect(w) => w.take_logs(),
            World::TracedRelay(w) => w.take_logs(),
            _ => Vec::new(),
        }
    }

    /// Bytes offered to transports so far, by the AH(s) and every relay.
    pub fn wire_bytes(&self) -> u64 {
        let ah: u64 = (0..self.sessions())
            .map(|i| self.ah(i).stats().bytes_sent)
            .sum();
        let relays: u64 = (0..self.relay_count())
            .map(|r| {
                let s = self.relay(r).stats();
                s.forwarded_bytes + s.catchup_bytes
            })
            .sum();
        ah + relays
    }

    /// Counters summed over all viewers.
    pub fn viewer_totals(&self) -> ViewerTotals {
        let mut t = ViewerTotals::default();
        for v in 0..self.checks.len() {
            t.add(self.participant(v).stats());
        }
        t
    }

    /// Capture→applied latency on the virtual clock, in ms: the median
    /// over viewers of each viewer's p50, and the worst viewer's p95.
    pub fn delivery_ms(&self) -> (f64, f64) {
        let mut p50s = Vec::new();
        let mut p95 = 0u64;
        for v in 0..self.checks.len() {
            if let Some((a, b, _)) = self.participant(v).latency_summary_us() {
                p50s.push(a);
                p95 = p95.max(b);
            }
        }
        p50s.sort_unstable();
        let p50 = p50s.get(p50s.len() / 2).copied().unwrap_or(0);
        (p50 as f64 / 1000.0, p95 as f64 / 1000.0)
    }
}
