//! One workload, measured for a given number of seconds: the mode the
//! benchmark contract drives (`--workload W --seed N --seconds S --trace T`).
//!
//! Rounds repeat (each one a fresh world from the same seed) until the
//! time is used up, at least three. Timing metrics are medians over rounds,
//! `step_ms_p95` included: each round gives its own 95th percentile (ten or
//! more samples lie beyond it, by the size of a round), and the median over
//! rounds shrugs off a round a noisy neighbour disturbed, which a tail
//! pooled over all rounds would collect instead. The pooled median and
//! 99th percentile are reported beside it for information. With
//! `--trace 1` untraced and traced rounds alternate: the untraced ones give
//! the reference wall time and wire digest, the traced ones the per-layer
//! numbers, and none of a traced round's timings enter an end-to-end value.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::json::Obj;
use crate::leaf;
use crate::measure::{run_round, set_up, Round};
use crate::metrics::{layer_values, MetricDef, Traced, DETERMINISTIC_GATED, END_TO_END, PER_LAYER};
use crate::pins;
use crate::probe::peak_rss_mib;
use crate::stats::{median, tail_index, StepTimes, Summary};
use crate::trace::Tracer;
use crate::workloads::Spec;

/// Fewest untraced rounds a run reports on.
const MIN_ROUNDS: usize = 3;

/// `setup_s` is the median of this many set-ups (fewer if they take more
/// than [`SETUP_BUDGET_S`] together), timed after the rounds. They build the
/// world of the pinned seed, not of `--seed`: on a lossy link the initial
/// refresh takes one NACK round more or less depending on which packets the
/// seed drops, which moved `video_dct_udp`'s set-up between 4.5 and 9.7 ms,
/// and set-up time is compared across runs that do not share a seed.
const SETUP_SAMPLES: usize = 40;

/// Wall seconds a run spends on set-up samples at most.
const SETUP_BUDGET_S: f64 = 1.5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Alternate traced rounds in and report the per-layer metrics.
    pub trace: bool,
    /// Divide every round's tick count by this (`check` runs at a tenth).
    pub ticks_div: u32,
    /// Stop after this many untraced rounds even if time is left.
    pub max_rounds: Option<usize>,
    /// Write the spans of the last traced round here, as JSON.
    pub spans: Option<PathBuf>,
}

/// What a run measured.
pub struct Report {
    /// The workload.
    pub spec: &'static Spec,
    /// Options it ran under.
    pub opts: Options,
    /// Ticks per round actually run.
    pub ticks: u32,
    /// The untraced rounds.
    pub rounds: Vec<Round>,
    /// Traced rounds run.
    pub traced_rounds: usize,
    /// End-to-end metrics: definition and summary over rounds.
    pub end_to_end: Vec<(MetricDef, Summary)>,
    /// The percentile `step_ms_p95` really is (lower only if a round has
    /// fewer than 200 ticks, as in `check`).
    pub tail_percentile: f64,
    /// Step samples pooled over all rounds, with their median and the
    /// highest percentile up to p99 that has ten samples beyond it.
    pub pooled_steps: usize,
    /// `(p50 ms, tail ms, tail percentile)` of the pooled steps.
    pub pooled: (f64, f64, f64),
    /// Per-layer metrics (median over traced rounds), if traced.
    pub per_layer: Option<BTreeMap<&'static str, f64>>,
    /// Operations attempted and failed, over every round run.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Summary {
    Summary::of(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Measure one workload.
pub fn run(opts: Options) -> Result<Report, String> {
    let spec = Spec::find(&opts.workload)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    pins::verify(spec)?;
    let ticks = (spec.ticks / opts.ticks_div.max(1)).max(8);
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut pooled = StepTimes::default();
    let mut round_tails: Vec<f64> = Vec::new();
    let tail_percentile = tail_index(ticks as usize, 95.0).1;
    let mut layer_rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    loop {
        let mut steps = StepTimes::default();
        let (round, _) = run_round(spec, opts.seed, ticks, &mut steps, &mut Tracer::new(false))?;
        if let Some(first) = rounds.first() {
            same_world(spec, first, &round, "two untraced rounds")?;
        }
        attempted += round.attempted();
        failed += round.failed();
        round_tails.push(steps.percentiles(95.0).1);
        pooled.extend(steps);
        rounds.push(round);

        if opts.trace {
            let mut tr = Tracer::new(true);
            let mut steps = StepTimes::default();
            let (round, mut scene) = run_round(spec, opts.seed, ticks, &mut steps, &mut tr)?;
            same_world(
                spec,
                &rounds[0],
                &round,
                "the traced stepper and the product's",
            )?;
            attempted += round.attempted();
            failed += round.failed();
            let spans = tr.summarise();
            if spans.escaped_children > 0 {
                return Err(format!(
                    "{}: {} span(s) lie outside their parent",
                    spec.name, spans.escaped_children
                ));
            }
            let logs = scene.take_logs();
            let t0 = Instant::now();
            let leaf = leaf::replay(&logs, scene.ah(0).config().mtu);
            let walls: Vec<f64> = rounds.iter().map(|r| r.wall_ns as f64).collect();
            layer_rounds.push(layer_values(
                &mut scene,
                &Traced {
                    round: &round,
                    spans: &spans,
                    leaf: &leaf,
                    leaf_replay_s: t0.elapsed().as_secs_f64(),
                    untraced_wall_ns: median(&walls),
                },
            ));
            if let Some(path) = &opts.spans {
                std::fs::write(path, tr.to_json())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
        }

        let elapsed = started.elapsed().as_secs_f64();
        let per_iteration = elapsed / rounds.len() as f64;
        let enough = rounds.len() >= MIN_ROUNDS || opts.trace;
        let out_of_time = elapsed + per_iteration / 2.0 >= opts.seconds;
        let capped = opts.max_rounds.is_some_and(|m| rounds.len() >= m);
        if capped || (enough && out_of_time) {
            break;
        }
    }

    let mut setups: Vec<f64> = Vec::new();
    let setting_up = Instant::now();
    while setups.len() < SETUP_SAMPLES
        && (setups.len() < MIN_ROUNDS || setting_up.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        setups.push(set_up(spec, pins::PIN_SEED, false)?.1);
    }

    let frames = |r: &Round| r.frames as f64;
    let pooled_steps = pooled.len();
    let pooled = pooled.percentiles(99.0);
    let rss = peak_rss_mib();
    let end_to_end = END_TO_END
        .iter()
        .map(|def| {
            let summary = match def.name {
                "frames_per_s" => per_round(&rounds, |r| frames(r) / (r.wall_ns as f64 / 1e9)),
                "cpu_us_per_frame" => per_round(&rounds, |r| r.cpu_ns as f64 / 1e3 / frames(r)),
                "step_ms_p95" => Summary::of(&round_tails),
                "wire_bytes_per_frame" => per_round(&rounds, |r| r.wire_bytes as f64 / frames(r)),
                "allocs_per_frame" => per_round(&rounds, |r| r.allocs as f64 / frames(r)),
                "alloc_kib_per_frame" => {
                    per_round(&rounds, |r| r.alloc_bytes as f64 / 1024.0 / frames(r))
                }
                "peak_rss_mib" => Summary::of(&[rss]),
                "setup_s" => Summary::of(&setups),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            (*def, summary)
        })
        .collect();
    let per_layer = (!layer_rounds.is_empty()).then(|| {
        PER_LAYER
            .iter()
            .map(|d| {
                let v: Vec<f64> = layer_rounds.iter().map(|m| m[d.name]).collect();
                (d.name, median(&v))
            })
            .collect()
    });
    Ok(Report {
        spec,
        ticks,
        pooled_steps,
        pooled,
        tail_percentile,
        traced_rounds: layer_rounds.len(),
        rounds,
        end_to_end,
        per_layer,
        attempted,
        failed,
        opts,
    })
}

/// Every round of a run rebuilds the same world from the same seed, so
/// everything on the virtual clock must repeat exactly.
fn same_world(spec: &Spec, a: &Round, b: &Round, who: &str) -> Result<(), String> {
    let key = |r: &Round| {
        (
            r.wire_digest,
            r.input_digest,
            r.wire_bytes,
            r.viewers,
            r.delivery_ms.0.to_bits(),
            r.delivery_ms.1.to_bits(),
        )
    };
    if key(a) == key(b) {
        Ok(())
    } else {
        Err(format!(
            "{}: {who} disagree on the virtual clock: wire digest {:016x} vs {:016x}, input digest \
             {:016x} vs {:016x}, wire bytes {} vs {}, viewers {:?} vs {:?}, delivery {:?} vs {:?}",
            spec.name,
            a.wire_digest,
            b.wire_digest,
            a.input_digest,
            b.input_digest,
            a.wire_bytes,
            b.wire_bytes,
            a.viewers,
            b.viewers,
            a.delivery_ms,
            b.delivery_ms
        ))
    }
}

impl Report {
    fn first(&self) -> &Round {
        &self.rounds[0]
    }

    /// The contract's result line: `correct`, `attempted`, `failed` and the
    /// end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
    pub fn contract_json(&self) -> String {
        let mut metrics = Obj::new();
        match &self.per_layer {
            Some(values) => {
                for d in &PER_LAYER {
                    metrics.raw(
                        d.name,
                        Obj::new()
                            .num("value", values[d.name])
                            .str("unit", d.unit)
                            .end(),
                    );
                }
            }
            None => {
                for (d, s) in &self.end_to_end {
                    metrics.raw(
                        d.name,
                        Obj::new().num("value", s.median).str("unit", d.unit).end(),
                    );
                }
            }
        }
        Obj::new()
            .raw("correct", "true".into())
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw("metrics", metrics.end())
            .end()
    }

    /// The detailed document `run`, `check` and `compare` work from.
    pub fn detail_json(&self) -> String {
        let r = self.first();
        let mut e2e = Obj::new();
        for (d, s) in &self.end_to_end {
            e2e.raw(
                d.name,
                Obj::new()
                    .str("unit", d.unit)
                    .str("better", d.better.as_str())
                    .num("bound", d.bound.unwrap_or(0.0))
                    .num("median", s.median)
                    .num("q1", s.q1)
                    .num("q3", s.q3)
                    .int("n", s.n as u64)
                    .end(),
            );
        }
        let gated_value = |name: &str| match name {
            "session.delivery_ms_p50" => r.delivery_ms.0,
            "session.delivery_ms_p95" => r.delivery_ms.1,
            "session.failed_share" => self.failed as f64 / self.attempted.max(1) as f64,
            other => unreachable!("gated metric {other} has no source"),
        };
        let mut gated = Obj::new();
        for (name, bound) in DETERMINISTIC_GATED {
            gated.raw(
                name,
                Obj::new()
                    .num("value", gated_value(name))
                    .num("bound", bound)
                    .end(),
            );
        }
        let mut doc = Obj::new();
        doc.str("schema", "adshare-e2e-workload/v1")
            .str("workload", self.spec.name)
            .str("why", self.spec.why)
            .int("seed", self.opts.seed)
            .num("seconds", self.opts.seconds)
            .int("ticks_per_round", self.ticks as u64)
            .int("frames_per_round", r.frames)
            .int("rounds", self.rounds.len() as u64)
            .int("traced_rounds", self.traced_rounds as u64)
            .num("step_tail_percentile", self.tail_percentile)
            .int("pooled_steps", self.pooled_steps as u64)
            .num("pooled_step_ms_p50", self.pooled.0)
            .num("pooled_step_ms_tail", self.pooled.1)
            .num("pooled_step_tail_percentile", self.pooled.2)
            .str("wire_digest", &format!("{:016x}", r.wire_digest))
            .str("input_digest", &format!("{:016x}", r.input_digest))
            .int("wire_bytes_per_round", r.wire_bytes)
            .int("updates_per_round", r.viewers.updates)
            .int("nacks_per_round", r.viewers.nacks)
            .int("plis_per_round", r.viewers.plis)
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw(
                "lossy_divergence",
                format!(
                    "[{}]",
                    r.lossy_divergence
                        .iter()
                        .map(|d| crate::json::number(*d))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            )
            .raw("end_to_end", e2e.end())
            .raw("gated", gated.end());
        if let Some(values) = &self.per_layer {
            let mut layers = Obj::new();
            for d in &PER_LAYER {
                layers.raw(
                    d.name,
                    Obj::new()
                        .num("value", values[d.name])
                        .str("unit", d.unit)
                        .str("better", d.better.as_str())
                        .end(),
                );
            }
            doc.raw("per_layer", layers.end());
        }
        doc.raw("machine", crate::machine::record_json());
        doc.end()
    }

    /// A table of every metric for people.
    pub fn print_table(&self) {
        eprintln!(
            "{} seed {} — {} round(s) of {} ticks, {} pooled steps, {} traced round(s)",
            self.spec.name,
            self.opts.seed,
            self.rounds.len(),
            self.ticks,
            self.pooled_steps,
            self.traced_rounds
        );
        for (d, s) in &self.end_to_end {
            let label = if d.name == "step_ms_p95" && self.tail_percentile < 95.0 {
                format!("{} (p{:.1})", d.name, self.tail_percentile)
            } else {
                d.name.to_string()
            };
            eprintln!(
                "  {label:<28} {:>14.4} {:<6} [q1 {:.4}, q3 {:.4}, n {}, spread {:.1}%]",
                s.median,
                d.unit,
                s.q1,
                s.q3,
                s.n,
                100.0 * s.spread()
            );
        }
        let r = self.first();
        eprintln!(
            "  pooled steps: p50 {:.4} ms, p{:.1} {:.4} ms over {} samples",
            self.pooled.0, self.pooled.2, self.pooled.1, self.pooled_steps
        );
        eprintln!(
            "  delivery p50/p95 {:.3}/{:.3} ms (virtual), ops {} attempted {} failed, wire digest {:016x}",
            r.delivery_ms.0, r.delivery_ms.1, self.attempted, self.failed, r.wire_digest
        );
        if let Some(values) = &self.per_layer {
            for d in &PER_LAYER {
                if values[d.name] != 0.0 {
                    eprintln!("  {:<36} {:>14.4} {}", d.name, values[d.name], d.unit);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adshare::obs::json::{parse, Json};

    #[test]
    fn a_small_traced_run_emits_parseable_documents_with_exact_keys() {
        let report = run(Options {
            workload: "office_tcp".to_string(),
            seed: pins::PIN_SEED,
            seconds: 0.0,
            trace: true,
            ticks_div: 10,
            max_rounds: Some(1),
            spans: None,
        })
        .expect("office_tcp runs and its traced twin agrees with it");
        let line = parse(&report.contract_json()).expect("result line parses");
        let keys: Vec<&str> = line
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line
            .get("attempted")
            .and_then(|a| a.as_u64())
            .is_some_and(|a| a >= 1));
        let metrics = line
            .get("metrics")
            .and_then(|m| m.as_object())
            .expect("metrics");
        let mut want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        want.sort_unstable();
        assert_eq!(metrics.keys().map(String::as_str).collect::<Vec<_>>(), want);
        let detail = parse(&report.detail_json()).expect("detail parses");
        let e2e = detail
            .get("end_to_end")
            .and_then(|m| m.as_object())
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for d in &END_TO_END {
            assert!(
                matches!(
                    e2e[d.name].get("median"),
                    Some(Json::Num(v)) if *v > 0.0
                ),
                "{} must never be 0",
                d.name
            );
        }
        assert!(detail.get("machine").and_then(|m| m.get("nproc")).is_some());
        // The layers this workload exercises report work; the ones it
        // bypasses report none.
        let layer = |name: &str| match metrics[name].get("value") {
            Some(Json::Num(v)) => *v,
            other => panic!("{name}: {other:?}"),
        };
        assert!(layer("session.ah_step_us") > 0.0 && layer("rtp.framing_us") > 0.0);
        assert!(
            layer("encode.cache_hit_ratio") > 0.5,
            "ping-pong must hit the cache"
        );
        assert_eq!(layer("relay.ingest_us"), 0.0);
        assert_eq!(layer("obs.escaped_children"), 0.0);
    }
}
