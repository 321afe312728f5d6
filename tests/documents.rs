//! Every emitted document kind against its checked-in schema.
//!
//! One table: each of the nine library document kinds is produced by its
//! real emitter after a short `run_scenario` / `RelaySim` / `MultiHost`
//! run, the tenth (`adshare-bench-codecs/v4`) is the checked-in
//! `BENCH_codecs.json`. Every row must parse, validate under the schema its
//! marker names and read back the values its source struct holds; then,
//! driven by the schema file itself, every `required` key is deleted and
//! every bounded number pushed past its bound, and the walker must reject
//! each mutation. Schema conformance therefore does not depend on which CI
//! job ran which `exp_*` bin first, and a schema edit that loosens a
//! `required` list or a bound shows up here.
//!
//! The run is configured to close two defects by test: a health rule
//! switched off with infinite thresholds used to print `inf` (not JSON),
//! and the walker used to ignore `maximum` and every keyword it did not
//! know.

use adshare::capture::manifest_json;
use adshare::obs::json::{parse, Json};
use adshare::obs::schema::SchemaSet;
use adshare::obs::{HealthConfig, HealthReport, MetricSnapshot, Snapshot};
use adshare::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schemas() -> SchemaSet {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/schemas");
    SchemaSet::load(std::path::Path::new(dir)).expect("checked-in schemas load")
}

/// One produced document and what its values must read back as.
struct Row {
    marker: &'static str,
    text: String,
    values: Box<dyn Fn(&Json)>,
}

fn row(marker: &'static str, text: String, values: impl Fn(&Json) + 'static) -> Row {
    Row {
        marker,
        text,
        values: Box::new(values),
    }
}

fn u64_at(doc: &Json, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(doc, |d, k| d.get(k))?.as_u64()
}

fn str_at<'d>(doc: &'d Json, key: &str) -> Option<&'d str> {
    doc.get(key)?.as_str()
}

fn link() -> LinkConfig {
    LinkConfig {
        delay_us: 5_000,
        ..LinkConfig::default()
    }
}

fn snapshot_values(snap: Snapshot) -> impl Fn(&Json) {
    move |doc| {
        let metrics = doc.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), snap.metrics.len());
        assert!(snap
            .metrics
            .values()
            .any(|m| matches!(m, MetricSnapshot::Gauge(_))));
        for (name, m) in &snap.metrics {
            let got = &metrics[name];
            match m {
                MetricSnapshot::Counter(v) => assert_eq!(u64_at(got, &["value"]), Some(*v)),
                MetricSnapshot::Gauge(v) => {
                    assert_eq!(got.get("value").and_then(Json::as_i64), Some(*v))
                }
                MetricSnapshot::Histogram(h) => {
                    assert_eq!(u64_at(got, &["count"]), Some(h.count), "{name}");
                    assert_eq!(u64_at(got, &["max"]), Some(h.max), "{name}");
                    assert_eq!(u64_at(got, &["p50"]), Some(h.p50()), "{name}");
                    let buckets = got.get("buckets").and_then(Json::as_array).unwrap();
                    assert_eq!(buckets.len(), h.nonzero_buckets().len(), "{name}");
                }
            }
        }
    }
}

fn report_values(report: HealthReport) -> impl Fn(&Json) {
    move |doc| {
        assert_eq!(u64_at(doc, &["at_us"]), Some(report.at_us));
        assert_eq!(str_at(doc, "overall"), Some(report.overall.as_str()));
        let rules = doc.get("rules").and_then(Json::as_array).unwrap();
        assert_eq!(rules.len(), report.rules.len());
        for (got, want) in rules.iter().zip(&report.rules) {
            assert_eq!(str_at(got, "name"), Some(want.name));
            assert_eq!(str_at(got, "status"), Some(want.status.as_str()));
            assert_eq!(str_at(got, "detail"), Some(want.detail.as_str()));
        }
        // The switched-off rule: +∞ is written as the largest finite f64.
        assert_eq!(str_at(&rules[0], "name"), Some("loss"));
        assert_eq!(rules[0].get("threshold"), Some(&Json::Num(f64::MAX)));
    }
}

/// Snapshot, event log, health report, black box, scenario outcome and
/// capture manifest from one 1.5 s scenario run. The loss rule is switched
/// off with infinite thresholds and any NACK rate is CRITICAL, so the first
/// check dumps a black box whose report carries a non-finite threshold.
fn session_rows(rows: &mut Vec<Row>) {
    let mut scn = Scenario::new("documents", 0xD0C5, 1_500_000).at(
        0,
        Action::Join {
            count: 2,
            down: link(),
            up: link(),
            rate_bps: None,
        },
    );
    scn.health = Some(HealthConfig {
        loss: (f64::INFINITY, f64::INFINITY),
        nack_rate: (0.0, 0.0),
        ..HealthConfig::default()
    });
    scn.capture = Some(ScenarioCapture {
        consent: true,
        mode: CaptureMode::Full,
    });
    let (outcome, mut s) = run_scenario(&scn);
    assert!(!outcome.passed, "a CRITICAL check violates the oracle");

    let snap = s.obs().registry.snapshot();
    rows.push(row("adshare-obs/v1", snap.to_json(), snapshot_values(snap)));

    let events = s.obs().recorder.snapshot();
    let capacity = s.obs().recorder.capacity() as u64;
    rows.push(row(
        "adshare-obs-events/v1",
        s.obs().recorder.to_json(),
        move |doc| {
            assert_eq!(u64_at(doc, &["capacity"]), Some(capacity));
            let got = doc.get("events").and_then(Json::as_array).unwrap();
            assert_eq!(got.len(), events.len());
            for (got, want) in got.iter().zip(&events) {
                assert_eq!(str_at(got, "kind"), Some(want.kind.name()));
                assert_eq!(u64_at(got, &["seq"]), Some(want.seq));
                assert_eq!(u64_at(got, &["a"]), Some(want.a));
            }
        },
    ));

    let report = outcome.reports.last().expect("checked").clone();
    rows.push(row(
        "adshare-health/v1",
        report.to_json(),
        report_values(report),
    ));

    let first = outcome.reports[0].clone();
    let dump = s.obs().health.lock().unwrap().last_dump().map(String::from);
    rows.push(row(
        "adshare-blackbox/v1",
        dump.expect("the first check goes CRITICAL and dumps"),
        move |doc| {
            assert_eq!(u64_at(doc, &["at_us"]), Some(first.at_us));
            report_values(first.clone())(doc.get("report").unwrap());
            let kinds = doc.get("events").and_then(|e| e.get("events"));
            assert!(!kinds.and_then(Json::as_array).unwrap().is_empty());
        },
    ));

    let want = outcome.clone();
    rows.push(row("adshare-scenario/v1", outcome.to_json(), move |doc| {
        assert_eq!(str_at(doc, "name"), Some("documents"));
        assert_eq!(u64_at(doc, &["seed"]), Some(0xD0C5));
        assert_eq!(doc.get("passed"), Some(&Json::Bool(false)));
        assert_eq!(u64_at(doc, &["checks"]), Some(want.reports.len() as u64));
        assert_eq!(str_at(doc, "worst"), Some("CRITICAL"));
        assert_eq!(u64_at(doc, &["active_participants"]), Some(2));
        let violations = doc.get("violations").and_then(Json::as_array).unwrap();
        let got: Vec<&str> = violations.iter().filter_map(Json::as_str).collect();
        assert_eq!(got, want.violations);
    }));

    s.finalize_capture().expect("capture armed");
    let manifest = s.capture_manifest().expect("capture armed");
    rows.push(row(
        "adshare-capture-manifest/v1",
        manifest_json(&manifest),
        move |doc| {
            // `parse_manifest` is the reader `adshare-demo replay` uses.
            let text = manifest_json(&manifest);
            assert_eq!(parse_manifest(&text).as_ref(), Ok(&manifest));
            assert_eq!(u64_at(doc, &["records"]), Some(manifest.records));
            assert_eq!(str_at(doc, "mode"), Some("full"));
            let digests = doc.get("surface_digests").and_then(Json::as_array);
            assert_eq!(digests.unwrap().len(), 2);
        },
    ));
}

/// Relay stats and tier stats from a layered relay with two legs.
fn relay_rows(rows: &mut Vec<Row>) {
    let mut d = Desktop::new(320, 240);
    let doc = d.create_window(1, Rect::new(20, 20, 200, 140), [250, 250, 250, 255]);
    let mut typing = Typing::new(doc, 3);
    let mut sim = RelaySim::new(d, AhConfig::default(), &OfferParams::default(), 31);
    let layered = RelayConfig {
        layers: Some(LayersConfig::default()),
        ..RelayConfig::default()
    };
    let r0 = sim.add_relay(Upstream::Ah, layered, link(), link(), 32);
    sim.add_participant(r0, Layout::Original, link(), link(), 33);
    sim.add_participant_rate(r0, Layout::Original, link(), link(), 34, Some(400_000));
    let mut rng = StdRng::seed_from_u64(35);
    for _ in 0..40 {
        typing.tick(sim.ah.desktop_mut(), &mut rng);
        for _ in 0..3 {
            sim.step(10_000);
        }
    }
    let stats = sim.relay(r0).stats();
    let cache = sim.relay(r0).cache_stats();
    assert!(stats.forwarded_packets > 0);
    rows.push(row(
        "adshare-relay-stats/v1",
        sim.relay(r0).stats_json(),
        move |doc| {
            assert_eq!(u64_at(doc, &["legs"]), Some(2));
            assert_eq!(doc.get("synced"), Some(&Json::Bool(true)));
            let forwarded = |k| u64_at(doc, &["forwarded", k]);
            assert_eq!(forwarded("msgs"), Some(stats.forwarded_msgs));
            assert_eq!(forwarded("packets"), Some(stats.forwarded_packets));
            assert_eq!(forwarded("bytes"), Some(stats.forwarded_bytes));
            assert_eq!(u64_at(doc, &["cache", "hits"]), Some(cache.0));
            assert_eq!(
                u64_at(doc, &["nack", "received"]),
                Some(stats.nacks_received)
            );
            assert_eq!(u64_at(doc, &["pli", "received"]), Some(stats.plis_received));
            assert_eq!(
                u64_at(doc, &["catchup", "served"]),
                Some(stats.catchups_served)
            );
        },
    ));
    let tiers = sim.tier_stats(r0);
    rows.push(row(
        "adshare-relay-tier-stats/v1",
        tiers.to_json(),
        move |doc| {
            assert_eq!(u64_at(doc, &["relay_id"]), Some(tiers.relay_id as u64));
            let legs = doc.get("legs").and_then(Json::as_array).unwrap();
            assert_eq!(legs.len(), 2);
            for (got, want) in legs.iter().zip(&tiers.legs) {
                assert_eq!(u64_at(got, &["tier"]), Some(u64::from(want.tier)));
                assert_eq!(u64_at(got, &["verbatim_msgs"]), Some(want.verbatim_msgs));
                assert_eq!(u64_at(got, &["est_rate_bps"]), Some(want.est_rate_bps));
            }
        },
    ));
}

/// Host stats from three hosted sessions sharing the encode cache.
fn host_rows(rows: &mut Vec<Row>) {
    let mut host = MultiHost::new(HostConfig::default());
    for i in 0..3u64 {
        let mut d = Desktop::new(320, 240);
        let win = d.create_window(1, Rect::new(16, 16, 192, 128), [24, 48, 72, 255]);
        let idx = host.add_session(d, AhConfig::default(), i, CacheSharing::Shared);
        host.session_mut(idx)
            .add_udp_participant(Layout::Original, link(), link(), None, i ^ 0x77);
        let mut tick = 0u32;
        host.set_workload(idx, move |sess: &mut SimSession, _now| {
            tick += 1;
            let c = (tick * 13 % 200) as u8 + 20;
            let patch = Rect::new((tick % 3) * 48, 0, 48, 48);
            sess.ah
                .desktop_mut()
                .fill(win, patch, [c, c ^ 0x5a, 50, 255]);
            tick < 20
        });
    }
    host.run_until(500_000);
    let stats = host.stats();
    assert!(stats.cache_hits > 0, "same content across sessions");
    rows.push(row("adshare-host-stats/v1", stats.to_json(), move |doc| {
        assert_eq!(u64_at(doc, &["sessions"]), Some(3));
        assert_eq!(u64_at(doc, &["services"]), Some(stats.services));
        assert_eq!(u64_at(doc, &["cache", "hits"]), Some(stats.cache_hits));
        let rate = u64_at(doc, &["cache", "hit_rate_pct"]);
        assert_eq!(rate, Some(stats.cache_hit_rate_pct));
        assert_eq!(u64_at(doc, &["cache", "shards"]), Some(stats.cache_shards));
        let workers = u64_at(doc, &["pool", "max_workers"]);
        assert_eq!(workers, Some(stats.pool_max_workers));
        for (i, name) in adshare::host::stats::CODEC_NAMES.iter().enumerate() {
            let cpu = u64_at(doc, &["codec", name, "cpu_us"]);
            assert_eq!(cpu, Some(stats.codec_cpu_us[i]), "{name}");
            let encodes = u64_at(doc, &["codec", name, "encodes"]);
            assert_eq!(encodes, Some(stats.codec_encodes[i]), "{name}");
        }
    }));
}

/// One step from the document root to a member or an array item.
#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Index(usize),
}

#[derive(Debug)]
enum Mutation {
    Delete,
    Set(f64),
}

/// The schema node that describes `value`: follows `$ref`, and among
/// `oneOf` alternatives takes the one whose `type` const is the value's.
fn node_for<'s>(root: &'s Json, mut node: &'s Json, value: &Json) -> &'s Json {
    loop {
        if let Some(target) = node.get("$ref").and_then(Json::as_str) {
            let name = target.strip_prefix("#/definitions/").unwrap();
            node = root.get("definitions").and_then(|d| d.get(name)).unwrap();
        } else if let Some(options) = node.get("oneOf").and_then(Json::as_array) {
            let tagged = |o: &&Json| {
                let o = node_for(root, o, value);
                o.get("properties")
                    .and_then(|p| p.get("type")?.get("const"))
                    == value.get("type")
            };
            node = options.iter().find(tagged).expect("a tagged alternative");
        } else {
            return node;
        }
    }
}

/// Every mutation the schema says must be rejected: each `required` key
/// deleted, each bounded number pushed one past its bound. Arrays are
/// probed through their first item.
fn mutations(
    root: &Json,
    node: &Json,
    value: &Json,
    path: &mut Vec<Step>,
    out: &mut Vec<(Vec<Step>, Mutation)>,
) {
    let node = node_for(root, node, value);
    let mut at = |step: Step, m: Option<Mutation>, sub: Option<(&Json, &Json)>| {
        path.push(step);
        if let Some(m) = m {
            out.push((path.clone(), m));
        }
        if let Some((node, value)) = sub {
            mutations(root, node, value, path, out);
        }
        path.pop();
    };
    match value {
        Json::Obj(members) => {
            for key in node
                .get("required")
                .and_then(Json::as_array)
                .into_iter()
                .flatten()
            {
                at(
                    Step::Key(key.as_str().unwrap().into()),
                    Some(Mutation::Delete),
                    None,
                );
            }
            for (key, member) in members {
                let declared = node.get("properties").and_then(|p| p.get(key));
                if let Some(sub) = declared.or(node.get("additionalProperties")) {
                    at(Step::Key(key.clone()), None, Some((sub, member)));
                }
            }
        }
        Json::Arr(items) => {
            if let (Some(first), Some(sub)) = (items.first(), node.get("items")) {
                at(Step::Index(0), None, Some((sub, first)));
            }
        }
        Json::Num(_) => {
            for (keyword, past) in [("minimum", -1.0), ("maximum", 1.0)] {
                if let Some(Json::Num(bound)) = node.get(keyword) {
                    out.push((path.clone(), Mutation::Set(bound + past)));
                }
            }
        }
        _ => {}
    }
}

fn mutated(doc: &Json, path: &[Step], mutation: &Mutation) -> Json {
    let mut doc = doc.clone();
    let (last, parents) = path.split_last().expect("mutations are below the root");
    let mut cursor = &mut doc;
    for step in parents {
        cursor = match (cursor, step) {
            (Json::Obj(members), Step::Key(k)) => members.get_mut(k).unwrap(),
            (Json::Arr(items), Step::Index(i)) => &mut items[*i],
            other => panic!("path does not fit the document: {other:?}"),
        };
    }
    match (cursor, last, mutation) {
        (Json::Obj(members), Step::Key(k), Mutation::Delete) => {
            members.remove(k).expect("required key present");
        }
        (Json::Obj(members), Step::Key(k), Mutation::Set(v)) => {
            members.insert(k.clone(), Json::Num(*v));
        }
        (Json::Arr(items), Step::Index(i), Mutation::Set(v)) => items[*i] = Json::Num(*v),
        other => panic!("mutation does not fit the document: {other:?}"),
    }
    doc
}

#[test]
fn every_emitter_conforms_to_its_schema_and_every_constraint_bites() {
    let schemas = schemas();
    let mut rows = Vec::new();
    session_rows(&mut rows);
    relay_rows(&mut rows);
    host_rows(&mut rows);
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_codecs.json");
    let bench = std::fs::read_to_string(bench).expect("checked-in BENCH_codecs.json");
    rows.push(row("adshare-bench-codecs/v4", bench, |doc| {
        assert!(u64_at(doc, &["machine", "logical_cores"]).is_some());
        assert!(u64_at(doc, &["dct", "bytes"]).is_some());
        let calls = doc.get("tile_calls").and_then(Json::as_array).unwrap();
        assert_eq!(calls.len(), 4);
        assert!(calls
            .iter()
            .all(|c| matches!(c.get("allocs"), Some(Json::Num(_)))));
    }));
    assert_eq!(rows.len(), 10);
    let schema_files: Vec<Json> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/schemas"))
            .expect("schemas directory")
            .map(|entry| std::fs::read_to_string(entry.unwrap().path()).unwrap())
            .map(|text| parse(&text).unwrap())
            .collect();

    for Row {
        marker,
        text,
        values,
    } in &rows
    {
        let doc = parse(text).unwrap_or_else(|e| panic!("{marker}: does not parse: {e}"));
        assert_eq!(schemas.validate(&doc), Ok(*marker), "{marker}");
        values(&doc);

        // A black box has no schema file; its constraints are those of the
        // three documents it embeds, probed in their own rows.
        let declares = |schema: &Json| {
            let declared = schema.get("properties").and_then(|p| p.get("schema"));
            declared.and_then(|s| s.get("const")).and_then(Json::as_str) == Some(*marker)
        };
        let Some(schema) = schema_files.iter().find(|schema| declares(schema)) else {
            assert_eq!(*marker, "adshare-blackbox/v1");
            let broken = mutated(&doc, &[Step::Key("snapshot".into())], &Mutation::Delete);
            assert!(schemas.validate(&broken).is_err());
            continue;
        };
        let mut cases = Vec::new();
        mutations(schema, schema, &doc, &mut Vec::new(), &mut cases);
        let deleted = cases.iter().filter(|(_, m)| matches!(m, Mutation::Delete));
        assert!(deleted.count() >= 2, "{marker}: required keys probed");
        for (path, mutation) in &cases {
            let broken = mutated(&doc, path, mutation);
            assert!(
                schemas.validate(&broken).is_err(),
                "{marker}: {mutation:?} at {path:?} must be rejected"
            );
        }
    }
}

/// ISSUE 16, defect 1: `maximum` was skipped, so this document validated.
#[test]
fn out_of_range_tier_is_rejected() {
    let doc = |upstream: u64, leg: u64| {
        parse(&format!(
            r#"{{"schema":"adshare-relay-tier-stats/v1","relay_id":3,"upstream_tier":{upstream},
            "tier_requests":0,"legs":[{{"leg":0,"tier":{leg},"switches":0,"downgrades":0,
            "verbatim_msgs":0,"synth_msgs":0,"synth_bytes":0,"est_rate_bps":0}}]}}"#
        ))
        .unwrap()
    };
    let schemas = schemas();
    assert_eq!(
        schemas.validate(&doc(2, 2)),
        Ok("adshare-relay-tier-stats/v1")
    );
    let err = schemas.validate(&doc(9, 2)).unwrap_err();
    assert!(
        err.contains("upstream_tier") && err.contains("maximum"),
        "{err}"
    );
    let err = schemas.validate(&doc(2, 7)).unwrap_err();
    assert!(err.contains("tier") && err.contains("maximum"), "{err}");
}

/// A keyword the walker does not interpret fails when the schema is
/// loaded, wherever it sits — it never silently gates nothing.
#[test]
fn unknown_schema_keyword_is_rejected_at_load() {
    let schema = |extra: &str| {
        format!(
            r#"{{"type":"object","required":["schema"],"properties":{{
            "schema":{{"const":"t/v1"}},"name":{{"type":"string"{extra}}}}}}}"#
        )
    };
    let mut set = SchemaSet::default();
    assert_eq!(set.add(&schema("")).as_deref(), Ok("t/v1"));
    let err = SchemaSet::default()
        .add(&schema(r#","pattern":"^a""#))
        .unwrap_err();
    assert!(err.contains("pattern"), "{err}");
    // No marker to dispatch on, and an unresolvable `$ref`, fail too.
    assert!(SchemaSet::default().add(r#"{"type":"object"}"#).is_err());
    let dangling = schema(r##","$ref":"#/definitions/missing""##);
    assert!(SchemaSet::default().add(&dangling).is_err());
}

/// A manifest that claims a whole capture while counting dropped records
/// is lying, whatever the schema says about each field.
#[test]
fn inconsistent_truncation_report_is_rejected() {
    let manifest = |truncated: bool, dropped: u64| {
        parse(&manifest_json(&ManifestSummary {
            session_id: 1,
            consent: true,
            ring: true,
            window_us: 1_000_000,
            records: 10,
            bytes: 1_000,
            truncated,
            truncated_records: dropped,
            truncated_bytes: dropped * 100,
            duration_us: 900_000,
            wire_digest: 0xfeed,
            surface_digests: vec![(0, 0xbeef)],
            streams: Vec::new(),
        }))
        .unwrap()
    };
    let schemas = schemas();
    assert!(schemas.validate(&manifest(false, 0)).is_ok());
    assert!(schemas.validate(&manifest(true, 4)).is_ok());
    for (flag, dropped) in [(false, 4), (true, 0)] {
        let err = schemas.validate(&manifest(flag, dropped)).unwrap_err();
        assert!(err.contains("inconsistent truncation"), "{err}");
    }
}
