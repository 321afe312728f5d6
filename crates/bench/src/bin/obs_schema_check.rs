//! Validate adshare observability JSON documents against the checked-in
//! schemas.
//!
//! Usage:
//!
//! ```text
//! obs_schema_check [--schema-dir schemas] [FILE ...]
//! ```
//!
//! With no FILE arguments every `*.json` under `$OBS_SNAPSHOT_DIR` (default
//! `target/obs`, where the `exp_*` bins drop their snapshots) is checked.
//! Each document is dispatched on its top-level `"schema"` marker:
//!
//! | marker                 | schema file                        |
//! |------------------------|------------------------------------|
//! | `adshare-obs/v1`       | `obs_snapshot.schema.json`         |
//! | `adshare-obs-events/v1`| `obs_events.schema.json`           |
//! | `adshare-health/v1`    | `health_report.schema.json`        |
//! | `adshare-blackbox/v1`  | embedded report + events + snapshot |
//! | `adshare-relay-stats/v1` | `relay_stats.schema.json`        |
//! | `adshare-relay-tier-stats/v1` | `relay_tier_stats.schema.json` |
//! | `adshare-scenario/v1`  | `scenario_result.schema.json`      |
//! | `adshare-host-stats/v1` | `host_stats.schema.json`          |
//! | `adshare-bench-codecs/v3` | `bench_codecs.schema.json`      |
//! | `adshare-capture-manifest/v1` | `capture_manifest.schema.json` |
//!
//! Exits non-zero when any document fails to parse, carries an unknown
//! marker, or violates its schema.
//!
//! The validator interprets the subset of JSON Schema the checked-in files
//! use — `required`, `properties`, `const`, `enum`,
//! `type: object|integer|number|string|array`, `minimum`,
//! `minItems`/`maxItems`, `items`, and `$ref` into `#/definitions/...` —
//! so the schema files themselves are load-bearing: edits to their
//! `required` lists or bounds change what this bin accepts.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use adshare_obs::json::{parse, Json};

const DEFAULT_SCHEMA_DIR: &str = "schemas";
const SNAPSHOT_SCHEMA_FILE: &str = "obs_snapshot.schema.json";
const EVENTS_SCHEMA_FILE: &str = "obs_events.schema.json";
const HEALTH_SCHEMA_FILE: &str = "health_report.schema.json";
const RELAY_SCHEMA_FILE: &str = "relay_stats.schema.json";
const TIER_SCHEMA_FILE: &str = "relay_tier_stats.schema.json";
const SCENARIO_SCHEMA_FILE: &str = "scenario_result.schema.json";
const HOST_SCHEMA_FILE: &str = "host_stats.schema.json";
const BENCH_CODECS_SCHEMA_FILE: &str = "bench_codecs.schema.json";
const CAPTURE_MANIFEST_SCHEMA_FILE: &str = "capture_manifest.schema.json";

/// The loaded schema documents, keyed by the marker they validate.
struct Schemas {
    snapshot: Json,
    events: Json,
    health: Json,
    relay: Json,
    tier: Json,
    scenario: Json,
    host: Json,
    bench_codecs: Json,
    capture_manifest: Json,
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut schema_dir = DEFAULT_SCHEMA_DIR.to_string();
    if let Some(i) = args.iter().position(|a| a == "--schema-dir") {
        args.remove(i);
        if i < args.len() {
            schema_dir = args.remove(i);
        } else {
            eprintln!("--schema-dir requires a path argument");
            return ExitCode::FAILURE;
        }
    }

    let dir = Path::new(&schema_dir);
    let schemas = match load_schemas(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot load schemas from {schema_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let files: Vec<PathBuf> = if args.is_empty() {
        let dir = std::env::var("OBS_SNAPSHOT_DIR")
            .unwrap_or_else(|_| adshare_bench::OBS_SNAPSHOT_DIR.to_string());
        match list_json_files(Path::new(&dir)) {
            Ok(files) if !files.is_empty() => files,
            Ok(_) => {
                eprintln!(
                    "no *.json files under {dir}; run the emitting bins first \
                     (e.g. exp_loss_recovery, exp_health)"
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("cannot read snapshot dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        args.iter().map(PathBuf::from).collect()
    };

    let mut failed = false;
    for file in &files {
        match load_json(file).and_then(|doc| validate_document(&schemas, &doc)) {
            Ok(summary) => println!("OK   {} ({summary})", file.display()),
            Err(e) => {
                eprintln!("FAIL {}: {e}", file.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn load_schemas(dir: &Path) -> Result<Schemas, String> {
    Ok(Schemas {
        snapshot: load_json(&dir.join(SNAPSHOT_SCHEMA_FILE))
            .map_err(|e| format!("{SNAPSHOT_SCHEMA_FILE}: {e}"))?,
        events: load_json(&dir.join(EVENTS_SCHEMA_FILE))
            .map_err(|e| format!("{EVENTS_SCHEMA_FILE}: {e}"))?,
        health: load_json(&dir.join(HEALTH_SCHEMA_FILE))
            .map_err(|e| format!("{HEALTH_SCHEMA_FILE}: {e}"))?,
        relay: load_json(&dir.join(RELAY_SCHEMA_FILE))
            .map_err(|e| format!("{RELAY_SCHEMA_FILE}: {e}"))?,
        tier: load_json(&dir.join(TIER_SCHEMA_FILE))
            .map_err(|e| format!("{TIER_SCHEMA_FILE}: {e}"))?,
        scenario: load_json(&dir.join(SCENARIO_SCHEMA_FILE))
            .map_err(|e| format!("{SCENARIO_SCHEMA_FILE}: {e}"))?,
        host: load_json(&dir.join(HOST_SCHEMA_FILE))
            .map_err(|e| format!("{HOST_SCHEMA_FILE}: {e}"))?,
        bench_codecs: load_json(&dir.join(BENCH_CODECS_SCHEMA_FILE))
            .map_err(|e| format!("{BENCH_CODECS_SCHEMA_FILE}: {e}"))?,
        capture_manifest: load_json(&dir.join(CAPTURE_MANIFEST_SCHEMA_FILE))
            .map_err(|e| format!("{CAPTURE_MANIFEST_SCHEMA_FILE}: {e}"))?,
    })
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse(&text)
}

fn list_json_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Dispatch one document on its `"schema"` marker; returns a short summary.
fn validate_document(schemas: &Schemas, doc: &Json) -> Result<String, String> {
    let marker = doc
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or("missing string field \"schema\"")?;
    match marker {
        "adshare-obs/v1" => {
            validate_snapshot(&schemas.snapshot, doc).map(|n| format!("{n} metrics"))
        }
        "adshare-obs-events/v1" => validate_events(&schemas.events, doc),
        "adshare-health/v1" => validate_health(&schemas.health, doc),
        "adshare-blackbox/v1" => validate_blackbox(schemas, doc),
        "adshare-relay-stats/v1" => validate_relay(&schemas.relay, doc),
        "adshare-relay-tier-stats/v1" => validate_tier(&schemas.tier, doc),
        "adshare-scenario/v1" => validate_scenario(&schemas.scenario, doc),
        "adshare-host-stats/v1" => validate_host(&schemas.host, doc),
        "adshare-bench-codecs/v3" => validate_bench_codecs(&schemas.bench_codecs, doc),
        "adshare-capture-manifest/v1" => validate_capture_manifest(&schemas.capture_manifest, doc),
        other => Err(format!("unknown schema marker {other:?}")),
    }
}

fn validate_events(schema: &Json, doc: &Json) -> Result<String, String> {
    validate_node(schema, schema, doc)?;
    let n = doc
        .get("events")
        .and_then(|e| e.as_array())
        .map_or(0, |e| e.len());
    Ok(format!("{n} events"))
}

fn validate_relay(schema: &Json, doc: &Json) -> Result<String, String> {
    validate_node(schema, schema, doc)?;
    let legs = doc.get("legs").and_then(|l| l.as_u64()).unwrap_or(0);
    let hits = doc
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(|h| h.as_u64())
        .unwrap_or(0);
    Ok(format!("{legs} legs, {hits} cache hits"))
}

fn validate_tier(schema: &Json, doc: &Json) -> Result<String, String> {
    validate_node(schema, schema, doc)?;
    let legs = doc
        .get("legs")
        .and_then(|l| l.as_array())
        .map_or(0, |l| l.len());
    let upstream = doc
        .get("upstream_tier")
        .and_then(|t| t.as_u64())
        .unwrap_or(0);
    Ok(format!("{legs} tiered legs, upstream tier {upstream}"))
}

fn validate_host(schema: &Json, doc: &Json) -> Result<String, String> {
    validate_node(schema, schema, doc)?;
    let sessions = doc.get("sessions").and_then(|s| s.as_u64()).unwrap_or(0);
    let rate = doc
        .get("cache")
        .and_then(|c| c.get("hit_rate_pct"))
        .and_then(|r| r.as_u64())
        .unwrap_or(0);
    Ok(format!("{sessions} sessions, {rate}% cache hit rate"))
}

fn validate_bench_codecs(schema: &Json, doc: &Json) -> Result<String, String> {
    validate_node(schema, schema, doc)?;
    let num = |section: &str, key: &str| match doc.get(section).and_then(|s| s.get(key)) {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    };
    Ok(format!(
        "DCT encode {:.0} / decode {:.0} MB/s, classify {:.2} ns/px",
        num("dct", "encode_mb_per_s"),
        num("dct", "decode_mb_per_s"),
        num("classify", "ns_per_px"),
    ))
}

fn validate_scenario(schema: &Json, doc: &Json) -> Result<String, String> {
    validate_node(schema, schema, doc)?;
    let name = doc.get("name").and_then(|n| n.as_str()).unwrap_or("?");
    let passed = matches!(doc.get("passed"), Some(Json::Bool(true)));
    let violations = doc
        .get("violations")
        .and_then(|v| v.as_array())
        .map_or(0, |v| v.len());
    Ok(format!(
        "{name}: {}, {violations} violations",
        if passed { "passed" } else { "FAILED" }
    ))
}

fn validate_capture_manifest(schema: &Json, doc: &Json) -> Result<String, String> {
    validate_node(schema, schema, doc)?;
    let records = doc.get("records").and_then(|r| r.as_u64()).unwrap_or(0);
    let truncated = matches!(doc.get("truncated"), Some(Json::Bool(true)));
    let truncated_records = doc
        .get("truncated_records")
        .and_then(|r| r.as_u64())
        .unwrap_or(0);
    // Truncation must be reported consistently: a manifest claiming
    // truncated=false with dropped records (or vice versa) is lying.
    if truncated != (truncated_records > 0) {
        return Err(format!(
            "inconsistent truncation report: truncated={truncated} \
             but truncated_records={truncated_records}"
        ));
    }
    let surfaces = doc
        .get("surface_digests")
        .and_then(|s| s.as_array())
        .map_or(0, |s| s.len());
    Ok(format!(
        "{records} records, {surfaces} surface digest(s){}",
        if truncated {
            format!(", TRUNCATED ({truncated_records} dropped)")
        } else {
            String::new()
        }
    ))
}

fn validate_health(schema: &Json, doc: &Json) -> Result<String, String> {
    validate_node(schema, schema, doc)?;
    let overall = doc.get("overall").and_then(|o| o.as_str()).unwrap_or("?");
    let n = doc
        .get("rules")
        .and_then(|r| r.as_array())
        .map_or(0, |r| r.len());
    Ok(format!("overall {overall}, {n} rules"))
}

/// A black box embeds one document of each other kind; validate all three.
fn validate_blackbox(schemas: &Schemas, doc: &Json) -> Result<String, String> {
    let at_us = doc
        .get("at_us")
        .and_then(|v| v.as_u64())
        .ok_or("missing integer field \"at_us\"")?;
    let report = doc.get("report").ok_or("missing field \"report\"")?;
    let report_summary =
        validate_health(&schemas.health, report).map_err(|e| format!("report: {e}"))?;
    let events = doc.get("events").ok_or("missing field \"events\"")?;
    let events_summary =
        validate_events(&schemas.events, events).map_err(|e| format!("events: {e}"))?;
    let snapshot = doc.get("snapshot").ok_or("missing field \"snapshot\"")?;
    validate_snapshot(&schemas.snapshot, snapshot).map_err(|e| format!("snapshot: {e}"))?;
    Ok(format!(
        "blackbox at {at_us} µs: {report_summary}, {events_summary}"
    ))
}

/// Validate `doc` as a snapshot per `schema`; returns the metric count.
///
/// Snapshots keep a dedicated path because their `metrics` object dispatches
/// each entry on its `type` field against `#/definitions/...` (the schema
/// expresses this as `additionalProperties`/`oneOf`, which the generic
/// walker does not interpret).
fn validate_snapshot(schema: &Json, doc: &Json) -> Result<usize, String> {
    // Top-level required keys.
    for key in required_keys(schema)? {
        if doc.get(key).is_none() {
            return Err(format!("missing required top-level field {key:?}"));
        }
    }
    // The schema marker must match the declared const.
    let expected = schema
        .get("properties")
        .and_then(|p| p.get("schema"))
        .and_then(|s| s.get("const"))
        .and_then(|c| c.as_str())
        .ok_or("schema file lacks properties.schema.const")?;
    let got = doc
        .get("schema")
        .and_then(|v| v.as_str())
        .ok_or("\"schema\" is not a string")?;
    if got != expected {
        return Err(format!("schema is {got:?}, expected {expected:?}"));
    }

    let definitions = schema
        .get("definitions")
        .and_then(|d| d.as_object())
        .ok_or("schema file lacks definitions")?;
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or("\"metrics\" is not an object")?;
    for (name, metric) in metrics {
        validate_metric(schema, definitions, name, metric)
            .map_err(|e| format!("metric {name:?}: {e}"))?;
    }
    Ok(metrics.len())
}

/// A metric object must match the definition its `type` field names.
fn validate_metric(
    root: &Json,
    definitions: &std::collections::BTreeMap<String, Json>,
    _name: &str,
    metric: &Json,
) -> Result<(), String> {
    let kind = metric
        .get("type")
        .and_then(|t| t.as_str())
        .ok_or("missing string field \"type\"")?;
    let def = definitions
        .get(kind)
        .ok_or_else(|| format!("unknown metric type {kind:?}"))?;
    for key in required_keys(def)? {
        let value = metric
            .get(key)
            .ok_or_else(|| format!("missing required field {key:?}"))?;
        if let Some(prop) = def.get("properties").and_then(|p| p.get(key)) {
            validate_node(root, prop, value).map_err(|e| format!("field {key:?}: {e}"))?;
        }
    }
    Ok(())
}

fn required_keys(schema: &Json) -> Result<Vec<&str>, String> {
    schema
        .get("required")
        .and_then(|r| r.as_array())
        .ok_or("missing \"required\" list")?
        .iter()
        .map(|k| k.as_str().ok_or_else(|| "non-string required key".into()))
        .collect()
}

/// Check `value` against one schema fragment, resolving `$ref` against
/// `root`'s `definitions`. Supports the subset we emit: `const`/`enum`
/// strings, bounded integers, numbers, strings, arrays with item schemas,
/// and objects with `required`/`properties` recursion.
fn validate_node(root: &Json, node: &Json, value: &Json) -> Result<(), String> {
    if let Some(target) = node.get("$ref").and_then(|r| r.as_str()) {
        let name = target
            .strip_prefix("#/definitions/")
            .ok_or_else(|| format!("unsupported $ref {target:?}"))?;
        let def = root
            .get("definitions")
            .and_then(|d| d.get(name))
            .ok_or_else(|| format!("$ref to unknown definition {name:?}"))?;
        return validate_node(root, def, value);
    }
    if let Some(expected) = node.get("const").and_then(|c| c.as_str()) {
        return match value.as_str() {
            Some(s) if s == expected => Ok(()),
            other => Err(format!("expected const {expected:?}, got {other:?}")),
        };
    }
    if let Some(options) = node.get("enum").and_then(|e| e.as_array()) {
        let s = value.as_str().ok_or("enum value is not a string")?;
        return if options.iter().any(|o| o.as_str() == Some(s)) {
            Ok(())
        } else {
            Err(format!("{s:?} not in enum"))
        };
    }
    match node.get("type").and_then(|t| t.as_str()) {
        Some("integer") => {
            let n = value.as_i64().ok_or("not an integer")?;
            if let Some(min) = node.get("minimum").and_then(|m| m.as_i64()) {
                if n < min {
                    return Err(format!("{n} below minimum {min}"));
                }
            }
            Ok(())
        }
        Some("number") => match value {
            Json::Num(_) => Ok(()),
            _ => Err("not a number".into()),
        },
        Some("string") => value.as_str().map(|_| ()).ok_or("not a string".into()),
        Some("boolean") => match value {
            Json::Bool(_) => Ok(()),
            _ => Err("not a boolean".into()),
        },
        Some("array") => {
            let items = value.as_array().ok_or("not an array")?;
            if let Some(min) = node.get("minItems").and_then(|m| m.as_u64()) {
                if (items.len() as u64) < min {
                    return Err(format!("{} items, minItems {min}", items.len()));
                }
            }
            if let Some(max) = node.get("maxItems").and_then(|m| m.as_u64()) {
                if (items.len() as u64) > max {
                    return Err(format!("{} items, maxItems {max}", items.len()));
                }
            }
            if let Some(item_schema) = node.get("items") {
                for (i, item) in items.iter().enumerate() {
                    validate_node(root, item_schema, item).map_err(|e| format!("item {i}: {e}"))?;
                }
            }
            Ok(())
        }
        Some("object") => {
            let obj = value.as_object().ok_or("not an object")?;
            if node.get("required").is_some() {
                for key in required_keys(node)? {
                    let field = obj
                        .get(key)
                        .ok_or_else(|| format!("missing required field {key:?}"))?;
                    if let Some(prop) = node.get("properties").and_then(|p| p.get(key)) {
                        validate_node(root, prop, field)
                            .map_err(|e| format!("field {key:?}: {e}"))?;
                    }
                }
            }
            Ok(())
        }
        Some(other) => Err(format!("unsupported schema type {other:?}")),
        None => Ok(()),
    }
}
