//! The metric tables — every name, unit and direction the benchmark
//! reports, which `BENCHMARK.json` must list exactly — and the assembly of
//! the per-layer values from a traced round.

use std::collections::BTreeMap;

use adshare::session::ParticipantHandle;

use crate::leaf::LeafTotals;
use crate::measure::Round;
use crate::trace::TraceSummary;
use crate::world::{Scene, World};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// `compare` calls it a regression (`None`: reported, never gated).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user or operator of the system sees.
///
/// The bounds are wide for the host-time metrics because this is a shared
/// two-core sandbox whose speed drifts by up to a fifth over minutes (the
/// same binary measured 108 and then 85 frames/s on `video_dct_udp` twenty
/// minutes apart); the counts repeat almost exactly and get narrow ones.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("frames_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_frame", "us", Lower, 0.25),
    e2e("step_ms_p95", "ms", Lower, 0.25),
    e2e("wire_bytes_per_frame", "B", Lower, 0.05),
    e2e("allocs_per_frame", "count", Lower, 0.10),
    e2e("alloc_kib_per_frame", "KiB", Lower, 0.05),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Virtual-clock results that `compare` also gates although the contract's
/// `end_to_end` list cannot hold them (they repeat exactly from run to run,
/// and `failed_share` is zero on a healthy run). They are reported among
/// the per-layer metrics under these names.
pub const DETERMINISTIC_GATED: [(&str, f64); 3] = [
    ("session.delivery_ms_p50", 0.05),
    ("session.delivery_ms_p95", 0.05),
    ("session.failed_share", 0.0),
];

/// Per-layer metrics, by crate. Times are wall µs per frame unless the unit
/// says otherwise; `count` is a total over the round's painted ticks and
/// drain, `count/frame` is per frame.
pub const PER_LAYER: [MetricDef; 79] = [
    layer("screen.paint_us", "us", Lower),
    layer("screen.damage_merge_us", "us", Lower),
    layer("screen.px_per_frame", "px", Lower),
    layer("encode.batch_us", "us", Lower),
    layer("encode.batch_warm_us", "us", Lower),
    layer("encode.hash_us", "us", Lower),
    layer("encode.tiles", "count/frame", Lower),
    layer("encode.cache_hit_ratio", "ratio", Higher),
    layer("encode.cpu_us", "us", Lower),
    layer("encode.wall_us", "us", Lower),
    layer("codec.png_enc_us", "us", Lower),
    layer("codec.png_dec_us", "us", Lower),
    layer("codec.dct_enc_us", "us", Lower),
    layer("codec.dct_dec_us", "us", Lower),
    layer("codec.other_enc_us", "us", Lower),
    layer("codec.other_dec_us", "us", Lower),
    layer("codec.deflate_mb_s", "MB/s", Higher),
    layer("codec.inflate_mb_s", "MB/s", Higher),
    layer("codec.ratio", "ratio", Higher),
    layer("codec.payload_bytes", "B", Lower),
    layer("remoting.msg_encode_us", "us", Lower),
    layer("remoting.fragment_us", "us", Lower),
    layer("remoting.fragments", "count/frame", Lower),
    layer("remoting.reassemble_us", "us", Lower),
    layer("remoting.reassembly_allocs", "count/frame", Lower),
    layer("remoting.reassembly_bytes_copied", "B", Lower),
    layer("rtp.encode_us", "us", Lower),
    layer("rtp.decode_us", "us", Lower),
    layer("rtp.reorder_us", "us", Lower),
    layer("rtp.rtcp_us", "us", Lower),
    layer("rtp.framing_us", "us", Lower),
    layer("rtp.packets", "count/frame", Lower),
    layer("rate.queue_us", "us", Lower),
    layer("rate.bucket_us", "us", Lower),
    layer("rate.pace_wait_ms", "ms", Lower),
    layer("rate.superseded", "count", Lower),
    layer("rate.decreases", "count", Lower),
    layer("netsim.udp_us", "us", Lower),
    layer("netsim.tcp_us", "us", Lower),
    layer("netsim.transit_ms", "ms", Lower),
    layer("netsim.dropped", "count", Lower),
    layer("netsim.backlog_skips", "count", Lower),
    layer("session.ah_step_us", "us", Lower),
    layer("session.ah_poll_us", "us", Lower),
    layer("session.ah_rtcp_us", "us", Lower),
    layer("session.ah_glue_us", "us", Lower),
    layer("session.participant_rx_us", "us", Lower),
    layer("session.participant_tick_us", "us", Lower),
    layer("session.participant_glue_us", "us", Lower),
    layer("session.retransmits", "count", Lower),
    layer("session.nacks", "count", Lower),
    layer("session.plis", "count", Lower),
    layer("session.gap_recoveries", "count", Lower),
    layer("session.full_refreshes", "count", Lower),
    layer("session.delivery_ms_p50", "ms", Lower),
    layer("session.delivery_ms_p95", "ms", Lower),
    layer("session.failed_share", "ratio", Lower),
    layer("relay.ingest_us", "us", Lower),
    layer("relay.step_us", "us", Lower),
    layer("relay.poll_leg_us", "us", Lower),
    layer("relay.leg_rtcp_us", "us", Lower),
    layer("relay.us_per_leg_packet", "us", Lower),
    layer("relay.nacks_absorbed", "count", Higher),
    layer("relay.nacks_upstream", "count", Lower),
    layer("relay.retx_cache_hit_ratio", "ratio", Higher),
    layer("relay.catchup_frames", "count", Lower),
    layer("layers.reencodes", "count", Lower),
    layer("layers.tier_switches", "count", Lower),
    layer("layers.lossy_leg_share", "ratio", Lower),
    layer("host.run_until_us", "us", Lower),
    layer("host.cpu_us_per_service", "us", Lower),
    layer("host.cache_hit_ratio", "ratio", Higher),
    layer("host.inline_fallbacks", "count", Lower),
    layer("host.steps_spread", "ratio", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("obs.tick_self_us", "us", Lower),
    layer("obs.spans_per_frame", "count/frame", Lower),
    layer("obs.leaf_replay_s", "s", Lower),
    layer("obs.escaped_children", "count", Lower),
];

/// Seconds one contract run measures for.
pub const RUN_SECONDS: u32 = 15;

/// The text of `BENCHMARK.json`, from the tables above (a self-test checks
/// the checked-in file against them).
pub fn benchmark_json() -> String {
    use crate::json::Obj;
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let strings = |items: &[&str]| {
        let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        format!("[{}]", quoted.join(", "))
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "e2ebench/Cargo.toml",
        "--",
    ];
    let workloads = crate::workloads::SPECS
        .iter()
        .map(|w| Obj::new().str("name", w.name).str("why", w.why).end())
        .collect();
    let metric = |d: &MetricDef| {
        let mut o = Obj::new();
        o.str("name", d.name)
            .str("unit", d.unit)
            .str("better", d.better.as_str());
        if let Some(b) = d.bound {
            o.num("bound", b);
        }
        o.end()
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&command),
        strings(&["e2ebench"]),
        list(workloads),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything one traced round produced.
pub struct Traced<'a> {
    /// The round's end-to-end record.
    pub round: &'a Round,
    /// Span totals of the painted ticks.
    pub spans: &'a TraceSummary,
    /// Leaf replay totals.
    pub leaf: &'a LeafTotals,
    /// Wall seconds the leaf replay took.
    pub leaf_replay_s: f64,
    /// Median wall ns of the untraced rounds of the same run.
    pub untraced_wall_ns: f64,
}

/// Assemble every per-layer metric for one traced round. Metrics that do
/// not apply to the workload (no relay, no host, no TCP leg…) are 0.
pub fn layer_values(scene: &mut Scene, t: &Traced<'_>) -> BTreeMap<&'static str, f64> {
    let frames = t.round.frames as f64;
    let per_frame_us = |ns: u64| ns as f64 / 1e3 / frames;
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let mut set = |name: &'static str, v: f64| {
        let slot = m.get_mut(name).expect("metric is listed in PER_LAYER");
        *slot = v;
    };

    // Spans: the calls the stepper made into each layer.
    for (metric, span) in [
        ("screen.paint_us", "screen.paint"),
        ("session.ah_step_us", "session.ah_step"),
        ("session.ah_poll_us", "session.ah_poll"),
        ("session.ah_rtcp_us", "session.ah_rtcp"),
        ("session.participant_rx_us", "session.participant_rx"),
        ("session.participant_tick_us", "session.participant_tick"),
        ("relay.ingest_us", "relay.ingest"),
        ("relay.step_us", "relay.step"),
        ("relay.poll_leg_us", "relay.poll_leg"),
        ("relay.leg_rtcp_us", "relay.leg_rtcp"),
        ("host.run_until_us", "host.run_until"),
    ] {
        set(metric, per_frame_us(t.spans.total_ns(span)));
    }
    let spans: u64 = t.spans.by_name.values().map(|v| v.0).sum();
    set("obs.spans_per_frame", spans as f64 / frames);
    set("obs.escaped_children", t.spans.escaped_children as f64);
    // What a tick costs outside every span it encloses: the stepper's own
    // loop plus the recorder.
    set("obs.tick_self_us", per_frame_us(t.spans.self_ns("tick")));
    set("obs.leaf_replay_s", t.leaf_replay_s);
    set(
        "obs.trace_overhead_pct",
        100.0 * (t.round.wall_ns as f64 / t.untraced_wall_ns - 1.0),
    );

    // Leaf replay: time per frame in each leaf function.
    for name in [
        "screen.damage_merge_us",
        "encode.batch_us",
        "encode.batch_warm_us",
        "encode.hash_us",
        "codec.png_enc_us",
        "codec.png_dec_us",
        "codec.dct_enc_us",
        "codec.dct_dec_us",
        "codec.other_enc_us",
        "codec.other_dec_us",
        "remoting.msg_encode_us",
        "remoting.fragment_us",
        "remoting.reassemble_us",
        "rtp.encode_us",
        "rtp.decode_us",
        "rtp.reorder_us",
        "rtp.rtcp_us",
        "rtp.framing_us",
        "rate.queue_us",
        "rate.bucket_us",
        "netsim.udp_us",
        "netsim.tcp_us",
    ] {
        set(name, per_frame_us(t.leaf.ns_of(name)));
    }
    for (metric, count) in [
        ("screen.px_per_frame", "screen.px"),
        ("codec.payload_bytes", "codec.payload_bytes"),
        ("remoting.fragments", "remoting.fragments"),
        ("remoting.reassembly_allocs", "remoting.reassembly_allocs"),
        (
            "remoting.reassembly_bytes_copied",
            "remoting.reassembly_bytes_copied",
        ),
        ("rtp.packets", "rtp.packets"),
    ] {
        set(metric, t.leaf.count_of(count) as f64 / frames);
    }
    let mb_s = |bytes: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            bytes as f64 / 1e6 / (ns as f64 / 1e9)
        }
    };
    set(
        "codec.deflate_mb_s",
        mb_s(
            t.leaf.count_of("codec.deflate_bytes"),
            t.leaf.ns_of("codec.deflate"),
        ),
    );
    set(
        "codec.inflate_mb_s",
        mb_s(
            t.leaf.count_of("codec.inflate_bytes"),
            t.leaf.ns_of("codec.inflate"),
        ),
    );
    set(
        "codec.ratio",
        ratio(
            t.leaf.count_of("codec.raw_bytes"),
            t.leaf.count_of("codec.payload_bytes"),
        ),
    );

    // Glue: what a session call costs beyond the leaves it is made of. In a
    // relay topology the AH feeds one leg (the first relay), so only one
    // leg's send side is charged to it.
    let ah_send_ns = if scene.relay_count() > 0 {
        t.leaf.first_leg_send_ns
    } else {
        t.leaf.all_legs_send_ns
    };
    let ah_leaves = t.leaf.ns_of("encode.batch_us") + ah_send_ns;
    set(
        "session.ah_glue_us",
        per_frame_us(
            t.spans
                .total_ns("session.ah_step")
                .saturating_sub(ah_leaves),
        ),
    );
    let rx_leaves: u64 = [
        "rtp.decode_us",
        "rtp.reorder_us",
        "remoting.reassemble_us",
        "codec.png_dec_us",
        "codec.dct_dec_us",
        "codec.other_dec_us",
    ]
    .iter()
    .map(|n| t.leaf.ns_of(n))
    .sum();
    set(
        "session.participant_glue_us",
        per_frame_us(
            t.spans
                .total_ns("session.participant_rx")
                .saturating_sub(rx_leaves),
        ),
    );

    // Counters the layers keep themselves, read after the round.
    let (mut hits, mut misses, mut tiles, mut cpu, mut wall) = (0, 0, 0, 0, 0);
    let (mut superseded, mut dropped, mut retransmits, mut refreshes, mut decreases) =
        (0, 0, 0, 0, 0);
    let (mut pace_sum, mut pace_n, mut transit_sum, mut transit_n) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..scene.sessions() {
        let snap = scene.obs(i).registry.snapshot();
        hits += snap.counter("ah.encode.cache.hits").unwrap_or(0);
        misses += snap.counter("ah.encode.cache.misses").unwrap_or(0);
        tiles += snap.counter("ah.encode.tiles").unwrap_or(0);
        cpu += snap.counter("ah.encode.cpu_us_total").unwrap_or(0);
        wall += snap.counter("ah.encode.wall_us_total").unwrap_or(0);
        superseded += snap.sum_counters_with("ah.participant.", ".rate.superseded");
        dropped += snap.sum_counters_with("ah.participant.", ".dropped_datagrams");
        if let Some(h) = snap.histogram("pipeline.damage_us") {
            pace_sum += h.sum;
            pace_n += h.count;
        }
        if let Some(h) = snap.histogram("pipeline.transport_us") {
            transit_sum += h.sum;
            transit_n += h.count;
        }
        let ah = scene.ah(i);
        let stats = ah.stats();
        retransmits += stats.retransmits;
        refreshes += stats.full_refreshes;
        // Handles are attach-order indices; past the last one the AH
        // reports 0.
        decreases += (0..scene.checks.len())
            .map(|h| ah.rate_decreases(ParticipantHandle(h)))
            .sum::<u64>();
    }
    set("encode.cache_hit_ratio", ratio(hits, hits + misses));
    set("encode.tiles", tiles as f64 / frames);
    set("encode.cpu_us", cpu as f64 / frames);
    set("encode.wall_us", wall as f64 / frames);
    set("rate.superseded", superseded as f64);
    set("rate.pace_wait_ms", ratio(pace_sum, pace_n) / 1e3);
    set("netsim.transit_ms", ratio(transit_sum, transit_n) / 1e3);
    set("netsim.backlog_skips", t.round.backlog_skips as f64);
    set("session.retransmits", retransmits as f64);
    set("session.full_refreshes", refreshes as f64);
    set("session.nacks", t.round.viewers.nacks as f64);
    set("session.plis", t.round.viewers.plis as f64);
    set("session.gap_recoveries", scene.gap_recoveries() as f64);
    set("session.delivery_ms_p50", t.round.delivery_ms.0);
    set("session.delivery_ms_p95", t.round.delivery_ms.1);
    set(
        "session.failed_share",
        ratio(t.round.failed(), t.round.attempted()),
    );

    // Relays and their tier controllers.
    let relays = scene.relay_count();
    if relays > 0 {
        let (mut absorbed, mut upstream, mut catchups, mut forwarded) = (0, 0, 0, 0);
        let (mut cache_hits, mut cache_misses) = (0, 0);
        let (mut synth, mut switches, mut lossy_legs, mut legs) = (0, 0, 0u64, 0u64);
        for r in 0..relays {
            for leg in scene.tier_stats(r).legs {
                synth += leg.synth_msgs;
                switches += leg.switches;
                decreases += leg.downgrades;
                lossy_legs += (leg.tier > 0) as u64;
                legs += 1;
            }
            let node = scene.relay(r);
            let s = node.stats();
            absorbed += s.nacks_absorbed_seqs;
            upstream += s.upstream_nacks();
            catchups += s.catchups_served;
            forwarded += s.forwarded_packets;
            superseded += s.superseded_msgs;
            let (h, mi) = node.cache_stats();
            cache_hits += h;
            cache_misses += mi;
            for leg in 0..node.leg_count() {
                dropped += node.leg_link(leg).map_or(0, |l| l.stats().dropped);
            }
        }
        set("relay.nacks_absorbed", absorbed as f64);
        set("relay.nacks_upstream", upstream as f64);
        set("relay.catchup_frames", catchups as f64);
        set(
            "relay.retx_cache_hit_ratio",
            ratio(cache_hits, cache_hits + cache_misses),
        );
        let relay_ns: u64 = [
            "relay.ingest",
            "relay.step",
            "relay.poll_leg",
            "relay.leg_rtcp",
        ]
        .iter()
        .map(|n| t.spans.total_ns(n))
        .sum();
        set(
            "relay.us_per_leg_packet",
            ratio(relay_ns, forwarded.max(1)) / 1e3,
        );
        set("layers.reencodes", synth as f64);
        set("layers.tier_switches", switches as f64);
        set("layers.lossy_leg_share", ratio(lossy_legs, legs));
        set("rate.superseded", superseded as f64);
    }
    set("netsim.dropped", dropped as f64);
    set("rate.decreases", decreases as f64);

    if let World::Host(host) = &scene.world {
        let s = host.stats();
        set("host.cpu_us_per_service", ratio(s.cpu_us, s.services));
        set(
            "host.cache_hit_ratio",
            ratio(s.cache_hits, s.cache_hits + s.cache_misses),
        );
        set("host.inline_fallbacks", s.pool_inline_fallbacks as f64);
        set("host.steps_spread", ratio(s.steps_max, s.steps_min));
        set(
            "encode.cache_hit_ratio",
            ratio(s.cache_hits, s.cache_hits + s.cache_misses),
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names a `BENCHMARK.json` may carry.
    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(d.name), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(d.unit.bytes().all(
                |b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
            ));
        }
        for w in &crate::workloads::SPECS {
            assert!(well_formed(w.name), "bad workload name {:?}", w.name);
            assert!(seen.insert(w.name), "name {} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for (name, _) in DETERMINISTIC_GATED {
            assert!(PER_LAYER.iter().any(|d| d.name == name));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn tables_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = adshare::obs::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .expect("array")
            .iter()
            .map(|e| match e.get("bound") {
                Some(adshare::obs::json::Json::Num(n)) => *n,
                _ => f64::NAN,
            })
            .collect();
        let ours: Vec<f64> = END_TO_END.iter().map(|d| d.bound.expect("bound")).collect();
        assert_eq!(bounds, ours);
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("array")
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
    }
}
