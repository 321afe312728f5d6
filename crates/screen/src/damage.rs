//! Damage (dirty-region) tracking.
//!
//! The AH turns screen changes into `RegionUpdate` messages (§4.2). How
//! damage rectangles are merged before encoding is a real design trade-off:
//! too fine and per-update overhead dominates; too coarse and unchanged
//! pixels get re-encoded. Experiment E9 in `EXPERIMENTS.md` quantifies the
//! strategies implemented here.

use adshare_codec::Rect;

/// How accumulated damage rectangles are coalesced when taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Keep every reported rectangle (deduplicated, contained rects
    /// dropped). Minimum re-encoded area, maximum per-update overhead.
    PerRect,
    /// Collapse all damage into one bounding box. One update per frame,
    /// maximum re-encoded area.
    BoundingBox,
    /// Greedy pairwise merge: union two rectangles whenever the union's
    /// area is no more than `slack` × the sum of their areas. A good
    /// middle ground; `slack` ≥ 1.0.
    Greedy {
        /// Allowed growth factor before two rects are merged.
        slack_percent: u32,
    },
}

/// Accumulates damage rectangles between capture ticks.
#[derive(Debug, Clone)]
pub struct DamageTracker {
    rects: Vec<Rect>,
    strategy: MergeStrategy,
    /// Total area ever reported (before merging), for accounting.
    reported_area: u64,
    /// Virtual time the oldest still-pending damage was observed (set by
    /// [`DamageTracker::add_at`], cleared by [`DamageTracker::take`]).
    oldest_pending_us: Option<u64>,
}

impl DamageTracker {
    /// New tracker with the given merge strategy.
    pub fn new(strategy: MergeStrategy) -> Self {
        DamageTracker {
            rects: Vec::new(),
            strategy,
            reported_area: 0,
            oldest_pending_us: None,
        }
    }

    /// Report damage.
    pub fn add(&mut self, rect: Rect) {
        if rect.is_empty() {
            return;
        }
        self.reported_area += rect.area();
        // Drop rects already contained in an existing one (and vice versa).
        for existing in &mut self.rects {
            if existing.contains_rect(&rect) {
                return;
            }
        }
        self.rects.retain(|r| !rect.contains_rect(r));
        self.rects.push(rect);
    }

    /// Report damage observed at virtual time `now_us`. Identical to
    /// [`DamageTracker::add`] but keeps the oldest pending observation time,
    /// which downstream frame tracing uses as the start of the damage→send
    /// stage.
    pub fn add_at(&mut self, rect: Rect, now_us: u64) {
        if rect.is_empty() {
            return;
        }
        self.oldest_pending_us = Some(self.oldest_pending_us.map_or(now_us, |o| o.min(now_us)));
        self.add(rect);
    }

    /// Virtual time the oldest still-pending damage was observed, if any
    /// damage was reported through [`DamageTracker::add_at`].
    pub fn oldest_pending_us(&self) -> Option<u64> {
        self.oldest_pending_us
    }

    /// Whether any damage is pending.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Pending rectangle count (pre-merge).
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// Total area reported since creation (pre-merge, may double-count
    /// overlap).
    pub fn reported_area(&self) -> u64 {
        self.reported_area
    }

    /// Take the pending damage, coalesced per the strategy.
    pub fn take(&mut self) -> Vec<Rect> {
        let mut out = Vec::new();
        self.take_into(&mut out);
        out
    }

    /// [`DamageTracker::take`] into a buffer the caller keeps: `out`'s
    /// previous contents are discarded and its allocation changes hands
    /// with the tracker's, so a tracker drained every frame into the same
    /// buffer stops allocating once both have grown to size.
    pub fn take_into(&mut self, out: &mut Vec<Rect>) {
        self.oldest_pending_us = None;
        out.clear();
        std::mem::swap(&mut self.rects, out);
        match self.strategy {
            MergeStrategy::PerRect => {}
            MergeStrategy::BoundingBox => {
                if !out.is_empty() {
                    let bounds = out
                        .iter()
                        .fold(Rect::new(0, 0, 0, 0), |acc, r| acc.union(r));
                    out.clear();
                    out.push(bounds);
                }
            }
            MergeStrategy::Greedy { slack_percent } => greedy_merge(out, slack_percent),
        }
    }

    /// Change the strategy (used by the ablation bench).
    pub fn set_strategy(&mut self, strategy: MergeStrategy) {
        self.strategy = strategy;
    }

    /// Account for a scroll of `area` by (dx, dy): pending damage inside the
    /// scrolled area describes pixels that have *moved*, so a translated
    /// copy is added at the destination (the original is kept — covering
    /// both positions is always safe, and a replayed MoveRectangle will
    /// smear stale pixels into both).
    ///
    /// Without this, a queue of scrolls followed by one batched update
    /// replays every move first and then repaints only the most recent
    /// damage coordinates, leaving the intermediate bands stale.
    pub fn translate_for_scroll(&mut self, area: Rect, dx: i64, dy: i64) {
        let translated: Vec<Rect> = self
            .rects
            .iter()
            .filter_map(|r| r.intersect(&area))
            .map(|ov| ov.translated(dx, dy))
            .collect();
        // Out-of-bounds excess is clipped against the window at encode time.
        for t in translated {
            self.add(t);
        }
    }
}

impl Default for DamageTracker {
    fn default() -> Self {
        DamageTracker::new(MergeStrategy::Greedy { slack_percent: 130 })
    }
}

/// Greedy pairwise merging until fixpoint, in place.
fn greedy_merge(rects: &mut Vec<Rect>, slack_percent: u32) {
    let slack = slack_percent.max(100) as u64;
    loop {
        let mut merged_any = false;
        let mut i = 0;
        'outer: while i < rects.len() {
            let mut j = i + 1;
            while j < rects.len() {
                let a = rects[i];
                let b = rects[j];
                let u = a.union(&b);
                // Merge when the union does not grow much past the parts,
                // or when they overlap/touch anyway.
                let grow_ok = u.area() * 100 <= (a.area() + b.area()) * slack;
                if grow_ok || a.intersects(&b) {
                    rects[i] = u;
                    rects.swap_remove(j);
                    // The union may now swallow others; restart the pass.
                    merged_any = true;
                    continue 'outer;
                }
                j += 1;
            }
            i += 1;
        }
        if !merged_any {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_into_is_take_without_the_allocation() {
        for strategy in [
            MergeStrategy::PerRect,
            MergeStrategy::BoundingBox,
            MergeStrategy::Greedy { slack_percent: 130 },
        ] {
            let mut by_value = DamageTracker::new(strategy);
            let mut into = DamageTracker::new(strategy);
            let mut buf = vec![Rect::new(9, 9, 9, 9)]; // stale contents are discarded
            for round in 0..4u32 {
                for i in 0..=round {
                    let r = Rect::new(i * 40, round * 7, 10 + i, 10);
                    by_value.add_at(r, 5);
                    into.add_at(r, 5);
                }
                into.take_into(&mut buf);
                assert_eq!(buf, by_value.take(), "{strategy:?} round {round}");
                assert!(into.is_empty());
                assert_eq!(into.oldest_pending_us(), None);
            }
            // Nothing pending: an empty take, whatever the buffer held.
            into.take_into(&mut buf);
            assert!(buf.is_empty());
        }
        // The buffers trade allocations, so a tracker drained into the same
        // buffer every frame stops allocating.
        let mut t = DamageTracker::new(MergeStrategy::PerRect);
        let mut buf = Vec::with_capacity(16);
        t.add(Rect::new(0, 0, 1, 1));
        t.take_into(&mut buf);
        assert!(t.rects.capacity() >= 16);
    }

    #[test]
    fn contained_rects_deduplicated() {
        let mut t = DamageTracker::new(MergeStrategy::PerRect);
        t.add(Rect::new(0, 0, 100, 100));
        t.add(Rect::new(10, 10, 5, 5)); // contained → dropped
        assert_eq!(t.len(), 1);
        t.add(Rect::new(0, 0, 200, 200)); // contains existing → replaces
        assert_eq!(t.len(), 1);
        assert_eq!(t.take(), vec![Rect::new(0, 0, 200, 200)]);
        assert!(t.is_empty());
    }

    #[test]
    fn empty_rect_ignored() {
        let mut t = DamageTracker::default();
        t.add(Rect::new(5, 5, 0, 10));
        assert!(t.is_empty());
        assert_eq!(t.reported_area(), 0);
    }

    #[test]
    fn bounding_box_strategy() {
        let mut t = DamageTracker::new(MergeStrategy::BoundingBox);
        t.add(Rect::new(0, 0, 10, 10));
        t.add(Rect::new(90, 90, 10, 10));
        assert_eq!(t.take(), vec![Rect::new(0, 0, 100, 100)]);
    }

    #[test]
    fn per_rect_keeps_distinct() {
        let mut t = DamageTracker::new(MergeStrategy::PerRect);
        t.add(Rect::new(0, 0, 10, 10));
        t.add(Rect::new(90, 90, 10, 10));
        let taken = t.take();
        assert_eq!(taken.len(), 2);
    }

    #[test]
    fn greedy_merges_adjacent_not_distant() {
        let mut t = DamageTracker::new(MergeStrategy::Greedy { slack_percent: 130 });
        // Two adjacent rects: union area == sum → merged.
        t.add(Rect::new(0, 0, 10, 10));
        t.add(Rect::new(10, 0, 10, 10));
        // One far away: union would balloon → kept separate.
        t.add(Rect::new(500, 500, 10, 10));
        let mut taken = t.take();
        taken.sort_by_key(|r| r.left);
        assert_eq!(
            taken,
            vec![Rect::new(0, 0, 20, 10), Rect::new(500, 500, 10, 10)]
        );
    }

    #[test]
    fn greedy_merges_overlapping_always() {
        let mut t = DamageTracker::new(MergeStrategy::Greedy { slack_percent: 100 });
        t.add(Rect::new(0, 0, 100, 100));
        t.add(Rect::new(50, 50, 100, 100));
        assert_eq!(t.take(), vec![Rect::new(0, 0, 150, 150)]);
    }

    #[test]
    fn greedy_cascades_to_fixpoint() {
        let mut t = DamageTracker::new(MergeStrategy::Greedy { slack_percent: 150 });
        // A row of touching tiles must all merge into one band.
        for i in 0..10 {
            t.add(Rect::new(i * 10, 0, 10, 10));
        }
        assert_eq!(t.take(), vec![Rect::new(0, 0, 100, 10)]);
    }

    #[test]
    fn translate_for_scroll_duplicates_moved_damage() {
        let mut t = DamageTracker::new(MergeStrategy::PerRect);
        let area = Rect::new(0, 0, 100, 100);
        // Damage at the bottom band; then the content scrolls up 14.
        t.add(Rect::new(0, 86, 100, 14));
        t.translate_for_scroll(area, 0, -14);
        let mut rects = t.take();
        rects.sort_by_key(|r| r.top);
        // Both the pre-move and post-move positions are covered.
        assert_eq!(
            rects,
            vec![Rect::new(0, 72, 100, 14), Rect::new(0, 86, 100, 14)]
        );
    }

    #[test]
    fn translate_for_scroll_ignores_damage_outside_area() {
        let mut t = DamageTracker::new(MergeStrategy::PerRect);
        t.add(Rect::new(200, 200, 10, 10)); // outside the scrolled area
        t.translate_for_scroll(Rect::new(0, 0, 100, 100), 0, -14);
        assert_eq!(t.take(), vec![Rect::new(200, 200, 10, 10)]);
    }

    #[test]
    fn oldest_pending_timestamp_tracked_and_cleared() {
        let mut t = DamageTracker::default();
        assert_eq!(t.oldest_pending_us(), None);
        t.add_at(Rect::new(0, 0, 10, 10), 5_000);
        t.add_at(Rect::new(50, 50, 10, 10), 2_000);
        t.add_at(Rect::new(90, 90, 10, 10), 9_000);
        assert_eq!(t.oldest_pending_us(), Some(2_000));
        t.add_at(Rect::new(0, 0, 0, 0), 1); // empty rect: no effect
        assert_eq!(t.oldest_pending_us(), Some(2_000));
        let _ = t.take();
        assert_eq!(t.oldest_pending_us(), None, "take clears the age");
        t.add_at(Rect::new(0, 0, 1, 1), 42);
        assert_eq!(t.oldest_pending_us(), Some(42));
    }

    #[test]
    fn reported_area_accumulates() {
        let mut t = DamageTracker::default();
        t.add(Rect::new(0, 0, 10, 10));
        t.add(Rect::new(100, 100, 20, 20));
        assert_eq!(t.reported_area(), 100 + 400);
    }
}
