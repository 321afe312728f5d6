//! One round of one workload through the product's own orchestrators
//! (`SimSession`, `RelaySim`, `MultiHost`), timed from outside.
//!
//! A round is: set-up (build the world, join the viewers, initial refresh
//! until every viewer passes its check), `ticks` painted capture ticks as a
//! closed loop (one tick outstanding; the next is painted as soon as the
//! world step returns), an unpainted drain, and the correctness check.
//! Every round of a run rebuilds the world from the same seed, so all the
//! virtual-clock quantities repeat exactly from round to round and only
//! host time varies.

use std::time::Instant;

use crate::probe::{alloc_counts, process_cpu_ns};
use crate::stats::StepTimes;
use crate::trace::Tracer;
use crate::workloads::{Check, Spec, LOSSY_BOUND};
use crate::world::{Scene, ViewerTotals};

/// Unpainted ticks every round drains for before the end-of-round check
/// (one virtual second: every link in the workloads empties well inside it).
pub const DRAIN_TICKS: u32 = 63;

/// What one round measured.
#[derive(Debug)]
pub struct Round {
    /// Frames carried (ticks × sessions).
    pub frames: u64,
    /// Wall nanoseconds inside the timed part of the ticks (paint + step).
    pub wall_ns: u64,
    /// Process CPU nanoseconds over the same intervals, all threads.
    pub cpu_ns: u64,
    /// Heap allocations over the same intervals, all threads.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
    /// Bytes offered to transports from the first painted tick to the end
    /// of the drain.
    pub wire_bytes: u64,
    /// Digest of every byte the AH(s) and relays emitted, set-up included.
    pub wire_digest: u64,
    /// Digest of every generated input and of the window contents at eight
    /// checkpoints.
    pub input_digest: u64,
    /// Virtual capture→applied latency `(p50, p95)` in ms.
    pub delivery_ms: (f64, f64),
    /// Viewer counters from the first painted tick to the end of the drain.
    pub viewers: ViewerTotals,
    /// Mean absolute error of each lossy viewer at the end of the round.
    pub lossy_divergence: Vec<f64>,
    /// `BacklogSkip` events during the painted ticks (traced rounds only).
    pub backlog_skips: u64,
}

impl Round {
    /// Operations attempted: participant-updates applied or failed.
    pub fn attempted(&self) -> u64 {
        self.viewers.updates + self.viewers.decode_errors
    }

    /// Operations failed: updates that did not decode. A viewer that ends
    /// the round wrong makes the whole run incorrect instead.
    pub fn failed(&self) -> u64 {
        self.viewers.decode_errors
    }
}

/// Build the scene and run its set-up. Returns the scene and set-up wall
/// seconds, or an error naming the viewer that never synced.
pub fn set_up(spec: &Spec, seed: u64, traced: bool) -> Result<(Scene, f64), String> {
    let t0 = Instant::now();
    let mut scene = Scene::build(spec.plan(seed), traced);
    let ok = scene.settle(0);
    let setup_s = t0.elapsed().as_secs_f64();
    if !ok {
        return Err(format!(
            "{}: initial refresh did not reach every viewer within 30 virtual s",
            spec.name
        ));
    }
    Ok((scene, setup_s))
}

/// One whole round: set-up, `ticks` painted ticks, drain, check. Step wall
/// times are appended to `steps`; spans are recorded if `tr` is enabled, in
/// which case the world is the traced twin. The scene is returned so the
/// traced run can read the layers' own counters from it.
pub fn run_round(
    spec: &Spec,
    seed: u64,
    ticks: u32,
    steps: &mut StepTimes,
    tr: &mut Tracer,
) -> Result<(Round, Scene), String> {
    let (mut scene, _) = set_up(spec, seed, tr.enabled())?;
    let bytes0 = scene.wire_bytes();
    let viewers0 = scene.viewer_totals();
    scene.start(ticks);
    let mut painters = std::mem::take(&mut scene.painters);
    let checkpoint = (ticks / 8).max(1);
    let (mut wall_ns, mut cpu_ns, mut allocs, mut alloc_bytes) = (0u64, 0u64, 0u64, 0u64);
    let mut backlog_skips = 0;
    for tick in 0..ticks {
        for p in &mut painters {
            p.prepare(&mut scene.input);
        }
        let (a0, b0) = alloc_counts();
        let c0 = process_cpu_ns();
        let w0 = Instant::now();
        tr.set_frame(tick);
        let root = tr.begin("tick");
        if let Some(desktop) = scene.desktop_mut() {
            tr.span("screen.paint", || {
                for p in &mut painters {
                    p.apply(desktop);
                }
            });
        }
        scene.step(tr);
        tr.end(root);
        let step_ns = w0.elapsed().as_nanos() as u64;
        let c1 = process_cpu_ns();
        let (a1, b1) = alloc_counts();
        steps.push(step_ns);
        wall_ns += step_ns;
        cpu_ns += c1 - c0;
        allocs += a1 - a0;
        alloc_bytes += b1 - b0;
        if (tick + 1) % checkpoint == 0 {
            scene.fold_windows();
        }
        if tr.enabled() {
            backlog_skips += scene.backlog_skips_since(scene.now_us());
        }
    }
    scene.settle(DRAIN_TICKS);
    let mut failed_viewers = Vec::new();
    let mut lossy_divergence = Vec::new();
    for v in 0..scene.checks.len() {
        let check = scene.checks[v];
        if !scene.viewer_ok(v) {
            let p = scene.participant(v);
            failed_viewers.push(format!(
                "viewer {v} ({check:?}): synced {}, mean error {:.4}, {} packets held for a gap, stats {:?}",
                p.synced(),
                scene.divergence(v),
                p.reorder_held(),
                p.stats()
            ));
        }
        if check == Check::Lossy {
            lossy_divergence.push(scene.divergence(v));
        }
    }
    if !failed_viewers.is_empty() {
        let relays: Vec<String> = (0..scene.relay_count())
            .map(|r| format!("relay {r}: {:?}", scene.tier_stats(r)))
            .collect();
        return Err(format!(
            "{}: {} viewer(s) failed the end-of-round check (lossless viewers must match the AH \
             pixel for pixel, lossy ones stay under a mean error of {LOSSY_BOUND}):\n  {}\n  {}",
            spec.name,
            failed_viewers.len(),
            failed_viewers.join("\n  "),
            relays.join("\n  ")
        ));
    }
    let viewers = scene.viewer_totals().since(viewers0);
    if viewers.updates == 0 {
        return Err(format!("{}: no update reached any viewer", spec.name));
    }
    let round = Round {
        frames: ticks as u64 * spec.frames_per_tick as u64,
        wall_ns,
        cpu_ns,
        allocs,
        alloc_bytes,
        wire_bytes: scene.wire_bytes() - bytes0,
        wire_digest: scene.wire_digest(),
        input_digest: scene.input.value(),
        delivery_ms: scene.delivery_ms(),
        viewers,
        lossy_divergence,
        backlog_skips,
    };
    Ok((round, scene))
}
