//! Pending state → remoting messages: what changed but has not been sent
//! ([`Pending`]), how it becomes `WindowManagerInfo` / `MoveRectangle` /
//! `MousePointerInfo` / `RegionUpdate` messages through the tile-encode
//! pipeline, and the adaptive path's supersede-on-coverage send queue.
//! Nothing here touches a transport; [`super::leg`] sends what this drains.

use std::collections::HashMap;

use adshare_codec::{Codec, CodecKind, CodecRegistry, Image, Rect};
use adshare_encode::{tiles, RegionKey, RegionTiles, TileJob};
use adshare_obs::{Counter, EventKind, FrameTrace, Histogram, Registry, ACTOR_AH};
use adshare_rate::{FreshQueue, QualityTier, Queued, RateController};
use adshare_remoting::message::{
    MousePointerInfo, MoveRectangle, RegionUpdate, RemotingMessage, WindowManagerInfo,
    WindowRecord as WireWindowRecord,
};
use adshare_remoting::reference::REFERENCE_PT;
use adshare_remoting::WindowId as WireWindowId;
use adshare_screen::damage::DamageTracker;
use adshare_screen::desktop::{Desktop, ScrollHint};
use adshare_screen::wm::WindowId;
use bytes::Bytes;

use super::{AppHost, Cx};
use crate::config::{AhConfig, PointerPolicy};
use crate::egress::{tile_codec, Ledger};

/// Per-participant pending output (what changed but has not been sent).
#[derive(Debug, Default)]
pub(super) struct Pending {
    pub(super) wmi: bool,
    pub(super) scrolls: Vec<ScrollHint>,
    pub(super) damage: HashMap<WindowId, DamageTracker>,
    pub(super) pointer_moved: bool,
    pub(super) pointer_icon: bool,
    /// Working space of [`AppHost::drain_pending`], kept between flushes so
    /// that a steady stream of damage is drained without allocating: the
    /// damaged windows in send order, and the rects taken from one tracker
    /// (whose allocation goes back to that tracker, see
    /// [`DamageTracker::take_into`]).
    windows: Vec<WindowId>,
    rects: Vec<Rect>,
}

/// Per-codec encode cost (cache misses only), exported as `codec.{name}.*`.
#[derive(Debug)]
struct CodecMetrics {
    cpu_us_total: Counter,
    encodes: Counter,
    bytes: Counter,
    encode_us: Histogram,
}

/// The `codec.{name}.*` handles of every payload type that has encoded a
/// tile so far, resolved in the registry once per payload type instead of
/// by formatted name on every region.
#[derive(Debug, Default)]
pub(super) struct CodecMetricsByPt(Vec<(u8, CodecMetrics)>);

impl CodecMetricsByPt {
    /// The handles for `pt`, taken from `obs` on first use. They are the
    /// registry's own (get-or-insert), so several AHs exporting into one
    /// registry keep adding to the same metrics.
    fn get(&mut self, obs: &Registry, codecs: &CodecRegistry, pt: u8) -> &CodecMetrics {
        let at = match self.0.iter().position(|(p, _)| *p == pt) {
            Some(at) => at,
            None => {
                let name = codecs
                    .get(pt)
                    .map(|c| c.kind().encoding_name())
                    .unwrap_or("unknown");
                self.0.push((
                    pt,
                    CodecMetrics {
                        cpu_us_total: obs.counter(&format!("codec.{name}.cpu_us_total")),
                        encodes: obs.counter(&format!("codec.{name}.encodes")),
                        bytes: obs.counter(&format!("codec.{name}.bytes")),
                        encode_us: obs.histogram(&format!("codec.{name}.encode_us")),
                    },
                ));
                self.0.len() - 1
            }
        };
        &self.0[at].1
    }
}

impl Pending {
    pub(super) fn add_damage(
        &mut self,
        strategy: adshare_screen::damage::MergeStrategy,
        win: WindowId,
        rect: Rect,
        now_us: u64,
    ) {
        self.damage
            .entry(win)
            .or_insert_with(|| DamageTracker::new(strategy))
            .add_at(rect, now_us);
    }

    pub(super) fn is_empty(&self) -> bool {
        !self.wmi
            && self.scrolls.is_empty()
            && self.damage.values().all(|d| d.is_empty())
            && !self.pointer_moved
            && !self.pointer_icon
    }
}

/// Encoded region updates (and control messages riding FIFO with them)
/// awaiting pacer tokens, in adaptive-rate mode.
pub(super) type SendQueue = FreshQueue<(RemotingMessage, Option<FrameTrace>)>;

/// One message drained from pending state, carrying the metadata the
/// adaptive send queue needs for §7 supersede-on-coverage and byte-paced
/// pops. The unqueued paths just unwrap `msg`/`trace`.
#[derive(Debug)]
pub(super) struct Drained {
    pub(super) msg: RemotingMessage,
    pub(super) trace: Option<FrameTrace>,
    /// For RegionUpdates: source window and window-local rect, so newer
    /// damage can supersede this update while it waits for pacer tokens.
    region: Option<(WindowId, Rect)>,
    /// Encoded payload size; 0 for control messages, which ride the queue
    /// only to preserve FIFO ordering and are never dropped or deferred.
    payload_bytes: u64,
}

impl Drained {
    fn control(msg: RemotingMessage) -> Self {
        Drained {
            msg,
            trace: None,
            region: None,
            payload_bytes: 0,
        }
    }
}

/// How many encoded-but-unsent bytes the adaptive path keeps warm ahead of
/// the pacer before it stops encoding fresh damage. Bounds both encode work
/// thrown away by superseding and the staleness of queued pixels.
const QUEUE_HEADROOM_BYTES: u64 = 64 * 1024;

/// The adaptive-rate send state shared by unicast and multicast flushes.
#[derive(Debug)]
pub(super) struct RateState {
    pub(super) rate: RateController,
    /// Paced send queue with §7 supersede-on-coverage (adaptive only;
    /// stays empty in fixed mode).
    pub(super) queue: SendQueue,
    /// Regions sent at a lossy tier, owed a lossless repair before the
    /// participant can converge pixel-identical.
    pub(super) degraded: HashMap<WindowId, DamageTracker>,
    /// Lossless-repair mode: forces the lossless tier until the backlog of
    /// degraded regions has fully drained.
    pub(super) repairing: bool,
    /// When damage was last drained into encodes (for tier coalescing).
    last_encode_us: u64,
    /// Last rate estimate reported to the flight recorder (AIMD growth
    /// detection; 0 = not yet observed).
    pub(super) last_rate_bps: u64,
    /// Tier pinned by a downstream `TierRequest` (a relay asking for the
    /// lossiest tier its whole subtree still affords). `None` = publish
    /// lossless as usual; the AH's own congestion estimate can still pick
    /// an even lossier tier, so the effective tier is `max(own, pin)`.
    pub(super) tier_pin: Option<QualityTier>,
}

impl RateState {
    pub(super) fn new(rate: RateController) -> Self {
        RateState {
            rate,
            queue: FreshQueue::new(),
            degraded: HashMap::new(),
            repairing: false,
            last_encode_us: 0,
            last_rate_bps: 0,
            tier_pin: None,
        }
    }

    /// Whether the path still owes output beyond its pending state: an
    /// unfinished repair, queued updates, or regions owed a repair.
    pub(super) fn busy(&self) -> bool {
        self.repairing || !self.queue.is_empty() || !self.degraded.is_empty()
    }

    /// The one tier rule, for every leg: lossless while a repair pass is
    /// draining, else the lossier of the path's own estimate (lossless at
    /// fixed rate) and a downstream tier pin.
    ///
    /// Owed repairs re-enter `pending` as damage once that tier is back at
    /// lossless — or, where `reenter_idle` allows it, when there is nothing
    /// fresher to send — but only while the transport is `clear` (a stream
    /// waits for `backlog == 0`). The repair then pins the tier lossless
    /// until it drains, so repaired pixels are never immediately
    /// re-degraded. A fixed-rate datagram leg passes `reenter_idle = false`:
    /// its only lossy tier is a pin, and a pinned subtree that happens to
    /// go idle still cannot afford the lossless repair.
    pub(super) fn pick_tier(
        &mut self,
        pending: &mut Pending,
        strategy: adshare_screen::damage::MergeStrategy,
        reenter_idle: bool,
        clear: bool,
        now_us: u64,
    ) -> QualityTier {
        let tier = if self.repairing {
            QualityTier::Lossless
        } else {
            self.rate
                .tier()
                .max(self.tier_pin.unwrap_or(QualityTier::Lossless))
        };
        let idle = reenter_idle && pending.is_empty() && self.queue.is_empty();
        if self.degraded.is_empty() || !clear || !(tier == QualityTier::Lossless || idle) {
            return tier;
        }
        for (win, mut tracker) in std::mem::take(&mut self.degraded) {
            for rect in tracker.take() {
                pending.add_damage(strategy, win, rect, now_us);
            }
        }
        self.repairing = true;
        QualityTier::Lossless
    }
}

impl AppHost {
    pub(super) fn schedule_full_refresh(
        desktop: &Desktop,
        cfg: &AhConfig,
        pending: &mut Pending,
        now_us: u64,
    ) {
        pending.wmi = true;
        pending.pointer_moved = true;
        pending.pointer_icon = true;
        for rec in desktop.wm().shared_records() {
            pending.add_damage(
                cfg.damage_strategy,
                rec.id,
                Rect::new(0, 0, rec.rect.width, rec.rect.height),
                now_us,
            );
        }
    }

    /// Composite the pointer into `crop` (a window-local `tile` of window
    /// record rect `rec_rect`) where the pointer overlaps it. Runs before
    /// hashing, so pointer pixels are part of the tile's cache identity.
    fn composite_pointer(desktop: &Desktop, rec_rect: Rect, tile: Rect, crop: &mut Image) {
        let ptr = desktop.pointer();
        let ptr_rect = ptr.rect();
        let region_desktop = Rect::new(
            rec_rect.left + tile.left,
            rec_rect.top + tile.top,
            tile.width,
            tile.height,
        );
        if !ptr_rect.intersects(&region_desktop) {
            return;
        }
        let icon = ptr.icon();
        for dy in 0..icon.height() {
            for dx in 0..icon.width() {
                let px = icon.pixel(dx, dy).expect("in bounds");
                if px[3] == 0 {
                    continue;
                }
                let dx_abs = ptr_rect.left + dx;
                let dy_abs = ptr_rect.top + dy;
                if region_desktop.contains(dx_abs, dy_abs) {
                    crop.set_pixel(
                        dx_abs - region_desktop.left,
                        dy_abs - region_desktop.top,
                        px,
                    );
                }
            }
        }
    }

    /// Encode one damaged region of a window through the tile pipeline.
    /// The region is split along the pipeline's fixed grid; tiles already
    /// in the content-addressed cache are served without encoding, the
    /// rest encode on the worker pool. Returns the tiles in deterministic
    /// row-major order (`None` when nothing of the region is shared). At a
    /// lossy `tier` every tile is sent as coarse DCT regardless of the
    /// configured codec (the decoder needs no side channel; the payload
    /// type says DCT), and the tier is part of the cache key so a lossy
    /// encode never poisons a lossless lookup.
    ///
    /// `AppHost::step` captures once and paints nothing while its legs
    /// flush, so within a step the result is a function of `(win, rect,
    /// tier)` alone: the pipeline encodes it for the first leg that asks
    /// and hands every later leg the same tiles by handle
    /// ([`adshare_encode::EncodePipeline::encode_region`]) — counted, here
    /// and there, as the cache hits they replace.
    fn encode_region_tiles(
        cx: &mut Cx<'_>,
        now_us: u64,
        win: WindowId,
        rect: Rect,
        tier: QualityTier,
    ) -> Option<RegionTiles> {
        let (desktop, cfg, registry, counters, obs) =
            (cx.desktop, cx.cfg, cx.registry, cx.counters, cx.obs);
        let rec = desktop.wm().get(win).filter(|r| r.shared).copied()?;
        let content = desktop.window_content(win)?;
        let rect = rect.intersect(&content.bounds())?;
        let grid = cx.encode.config().tile;
        let jobs = || {
            let mut jobs = Vec::new();
            for tile in tiles(rect, grid) {
                let Ok(mut crop) = content.crop(tile) else {
                    continue;
                };
                if cfg.pointer == PointerPolicy::InStream {
                    Self::composite_pointer(desktop, rec.rect, tile, &mut crop);
                }
                jobs.push(TileJob {
                    rect: tile,
                    image: crop,
                });
            }
            jobs
        };
        let encode = tile_codec(registry, tier, cfg.codec, cfg.adaptive_codec);
        let key = RegionKey {
            surface: win.0 as u64,
            rect,
            tier: tier.as_gauge() as u8,
        };
        let region = cx.encode.encode_region(key, jobs, encode);
        let total = region.len() as u64;
        let mut hits = 0u64;
        for t in region.iter() {
            if t.cache_hit {
                hits += 1;
                continue;
            }
            counters.encodes.inc();
            counters.encoded_bytes.add(t.payload.len() as u64);
            counters.encode_us.record(t.encode_us);
            if let Some(obs) = obs {
                let codec = cx
                    .codec_metrics
                    .get(&obs.registry, registry, t.payload_type);
                codec.cpu_us_total.add(t.encode_us);
                codec.encodes.inc();
                codec.bytes.add(t.payload.len() as u64);
                codec.encode_us.record(t.encode_us);
            }
        }
        if let Some(obs) = obs {
            if hits > 0 {
                obs.event(now_us, ACTOR_AH, EventKind::CacheHit, hits, total);
            }
            if hits < total {
                obs.event(now_us, ACTOR_AH, EventKind::CacheMiss, total - hits, total);
            }
        }
        Some(region)
    }

    /// Build the ordered message list for a pending state, consuming it.
    /// `budget_bytes` bounds how many encoded-payload bytes of RegionUpdates
    /// are drained this flush (None = unlimited); undrained damage stays.
    /// At a lossy `tier`, every drained region is also remembered in
    /// `degraded` so a lossless repair can follow once bandwidth allows.
    ///
    /// Each RegionUpdate is paired with a partially-filled [`FrameTrace`]
    /// (damage age, encode cost, payload size); the flush path completes it
    /// with fragmentation and send timing before registering it.
    ///
    /// A tile the encode cache served whose payload the leg's viewer
    /// reported holding (`names`) goes as a reference to it instead.
    ///
    /// The messages are appended to `out`, a buffer the leg keeps.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn drain_pending(
        cx: &mut Cx<'_>,
        pending: &mut Pending,
        budget_bytes: Option<u64>,
        now_us: u64,
        tier: QualityTier,
        mut degraded: Option<&mut HashMap<WindowId, DamageTracker>>,
        names: &mut Ledger,
        out: &mut Vec<Drained>,
    ) {
        let (desktop, cfg, registry, counters) = (cx.desktop, cx.cfg, cx.registry, cx.counters);
        if pending.wmi {
            pending.wmi = false;
            out.push(Drained::control(Self::build_wmi_static(desktop)));
            names.note_move();
            counters.wmi_msgs.inc();
        }
        for hint in std::mem::take(&mut pending.scrolls) {
            if !cfg.use_move_rectangle {
                // Ablation: convert the scroll into plain damage of the
                // whole scrolled area.
                let dst = Rect::new(hint.dst_left, hint.dst_top, hint.src.width, hint.src.height);
                pending.add_damage(
                    cfg.damage_strategy,
                    hint.window,
                    hint.src.union(&dst),
                    now_us,
                );
                continue;
            }
            let Some(rec) = desktop.wm().get(hint.window).filter(|r| r.shared) else {
                continue;
            };
            out.push(Drained::control(RemotingMessage::MoveRectangle(
                MoveRectangle {
                    window_id: WireWindowId(hint.window.0),
                    src_left: rec.rect.left + hint.src.left,
                    src_top: rec.rect.top + hint.src.top,
                    width: hint.src.width,
                    height: hint.src.height,
                    dst_left: rec.rect.left + hint.dst_left,
                    dst_top: rec.rect.top + hint.dst_top,
                },
            )));
            names.note_move();
            counters.move_msgs.inc();
        }
        if cfg.pointer == PointerPolicy::Explicit && (pending.pointer_moved || pending.pointer_icon)
        {
            let ptr = desktop.pointer();
            let (x, y) = ptr.position();
            let image = if pending.pointer_icon {
                let raw_pt = registry.pt_for(CodecKind::Raw).expect("raw registered");
                let codec = registry.get(raw_pt).expect("registered");
                Some((raw_pt, Bytes::from(codec.encode(ptr.icon()))))
            } else {
                None
            };
            let window_id = desktop
                .wm()
                .window_at(x, y)
                .filter(|r| r.shared)
                .map(|r| WireWindowId(r.id.0))
                .unwrap_or(WireWindowId(0));
            let (pt, image_bytes) = match image {
                Some((pt, b)) => (pt, Some(b)),
                None => (
                    registry.pt_for(CodecKind::Raw).expect("raw registered"),
                    None,
                ),
            };
            out.push(Drained::control(RemotingMessage::MousePointerInfo(
                MousePointerInfo {
                    window_id,
                    payload_type: pt,
                    left: x,
                    top: y,
                    image: image_bytes,
                },
            )));
            counters.pointer_msgs.inc();
            pending.pointer_moved = false;
            pending.pointer_icon = false;
        }
        // Damage → RegionUpdates, freshest content, budget-bounded.
        let mut spent: u64 = 0;
        // In window order: `HashMap` order differs from one map to the next,
        // and the order of the updates is part of the wire digest.
        let mut windows = std::mem::take(&mut pending.windows);
        let mut rects = std::mem::take(&mut pending.rects);
        windows.clear();
        windows.extend(pending.damage.keys().copied());
        windows.sort_unstable();
        for &win in &windows {
            // Window gone or no longer shared? Drop its damage.
            if !desktop.wm().get(win).map(|r| r.shared).unwrap_or(false) {
                pending.damage.remove(&win);
                continue;
            }
            let tracker = pending.damage.get_mut(&win).expect("keyed");
            let damage_at_us = tracker.oldest_pending_us().unwrap_or(now_us);
            tracker.take_into(&mut rects);
            let mut unspent = Vec::new();
            for &rect in &rects {
                if budget_bytes.is_some_and(|b| spent >= b) {
                    unspent.push(rect);
                    continue;
                }
                // One pipeline batch per damage rect: a full-window refresh
                // becomes dozens of tiles encoding in parallel, and each
                // tile is a stable content-addressed cache unit.
                let Some(region) = Self::encode_region_tiles(cx, now_us, win, rect, tier) else {
                    continue;
                };
                for t in region.iter() {
                    let (mut pt, tile, mut payload, encode_us) =
                        (t.payload_type, t.rect, t.payload, t.encode_us);
                    let rec = desktop.wm().get(win).expect("checked above");
                    let place = (rec.rect.left + tile.left, rec.rect.top + tile.top);
                    let size = (tile.width, tile.height);
                    let named = t.cache_hit && !names.is_empty();
                    if let Some(reference) = named
                        .then(|| names.reference(pt, &payload, place, size))
                        .flatten()
                    {
                        (pt, payload) = (REFERENCE_PT, reference);
                        counters.refs_sent.inc();
                    }
                    spent += payload.len() as u64;
                    if tier.is_lossy() {
                        // A lossy encode leaves the participant with
                        // approximate pixels; remember the region so a
                        // lossless repair pass can follow once bandwidth
                        // allows (pixel-identical convergence).
                        if let Some(d) = degraded.as_deref_mut() {
                            d.entry(win)
                                .or_insert_with(|| DamageTracker::new(cfg.damage_strategy))
                                .add_at(tile, now_us);
                        }
                    }
                    let trace = FrameTrace {
                        window_id: win.0,
                        damage_at_us,
                        encode_wall_us: encode_us,
                        bytes: payload.len() as u64,
                        ..FrameTrace::default()
                    };
                    let payload_bytes = payload.len() as u64;
                    out.push(Drained {
                        msg: RemotingMessage::RegionUpdate(RegionUpdate {
                            window_id: WireWindowId(win.0),
                            payload_type: pt,
                            left: place.0,
                            top: place.1,
                            payload,
                        }),
                        trace: Some(trace),
                        region: Some((win, tile)),
                        payload_bytes,
                    });
                    counters.region_msgs.inc();
                }
            }
            // Budget-deferred rects keep their original observation time so
            // the damage stage reflects the full queueing delay.
            for rect in unspent {
                tracker.add_at(rect, damage_at_us);
            }
        }
        pending.windows = windows;
        pending.rects = rects;
    }

    /// Adaptive-mode drain (UDP unicast and multicast): encode at `tier`
    /// under the coalesce/headroom gate and route everything through the
    /// supersede-on-coverage send queue (`drained` is working space the leg
    /// keeps). Returns the messages the pacer releases this flush, in FIFO
    /// order.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn drain_adaptive(
        cx: &mut Cx<'_>,
        pending: &mut Pending,
        rs: &mut RateState,
        budget: Option<u64>,
        now_us: u64,
        tier: QualityTier,
        names: &mut Ledger,
        drained: &mut Vec<Drained>,
    ) -> Vec<Queued<(RemotingMessage, Option<FrameTrace>)>> {
        // Encode gate: stop producing fresh encodes while the queue already
        // holds a pacer-window's worth (supersede keeps it fresh), or while
        // inside the tier's damage-coalescing interval. Control messages
        // still drain — a zero budget only defers rect encodes.
        let queued = rs.queue.bytes();
        let coalescing = now_us.saturating_sub(rs.last_encode_us) < rs.rate.coalesce_us();
        let encode_budget = if queued >= QUEUE_HEADROOM_BYTES || coalescing {
            Some(0)
        } else {
            budget.map(|b| b.saturating_add(QUEUE_HEADROOM_BYTES - queued))
        };
        Self::drain_pending(
            cx,
            pending,
            encode_budget,
            now_us,
            tier,
            Some(&mut rs.degraded),
            names,
            drained,
        );
        if drained.iter().any(|d| d.region.is_some()) {
            rs.last_encode_us = now_us;
        }
        for d in drained.drain(..) {
            match d.region {
                Some((win, rect)) => {
                    // §7 generalised to UDP: fresher damage covering a
                    // queued-but-unsent update makes it stale; drop it and
                    // let the fresh encode (pushed at `now_us`, so never
                    // self-superseded) take its place.
                    let dropped = rs.queue.supersede(win.0 as u64, rect, now_us);
                    rs.rate.note_superseded(dropped);
                    if dropped > 0 {
                        cx.event(
                            now_us,
                            ACTOR_AH,
                            EventKind::PacerSupersede,
                            dropped as u64,
                            0,
                        );
                    }
                    rs.queue.push(
                        win.0 as u64,
                        rect,
                        now_us,
                        d.payload_bytes,
                        (d.msg, d.trace),
                    );
                }
                // Control messages: a window id no real window uses, an
                // empty rect and zero bytes — never superseded, virtually
                // free to pop, but strictly FIFO with the region updates
                // around them (MoveRectangle ordering matters).
                None => rs
                    .queue
                    .push(u64::MAX, Rect::new(0, 0, 0, 0), now_us, 0, (d.msg, d.trace)),
            }
        }
        let released = rs.queue.pop_budget(budget);
        // Repair complete once every owed region was re-encoded and sent.
        if rs.repairing && pending.is_empty() && rs.queue.is_empty() && rs.degraded.is_empty() {
            rs.repairing = false;
        }
        rs.rate.note_queue(rs.queue.len(), rs.queue.bytes());
        released
    }

    pub(super) fn build_wmi_static(desktop: &Desktop) -> RemotingMessage {
        let windows = desktop
            .wm()
            .shared_records()
            .map(|r| WireWindowRecord {
                window_id: WireWindowId(r.id.0),
                group_id: r.group,
                left: r.rect.left,
                top: r.rect.top,
                width: r.rect.width,
                height: r.rect.height,
            })
            .collect();
        RemotingMessage::WindowManagerInfo(WindowManagerInfo { windows })
    }
}
