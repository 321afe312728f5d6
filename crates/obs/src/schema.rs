//! Check emitted documents against the checked-in JSON Schema files.
//!
//! A [`SchemaSet`] is every `*.schema.json` in a directory, keyed by the
//! marker each file declares as `properties.schema.const`; a document is
//! dispatched on its own `"schema"` string. Adding a document kind is adding
//! a schema file — nothing here names one.
//!
//! The walker interprets the subset of JSON Schema (draft-07) those files
//! use: `type`, `required`, `properties`, `additionalProperties`, `items`,
//! `minItems`/`maxItems`, `minimum`/`maximum`, `const`, `enum`, `oneOf` and
//! `$ref` into `#/definitions/…`, with `$schema`, `$id`, `title` and
//! `description` as annotations. **Any other keyword is an error when the
//! file is loaded**: a constraint nobody enforces must not sit in a schema
//! looking as if it gated something.
//!
//! Two checks are not in the files: a black box ([`BLACKBOX_SCHEMA`]) is
//! valid when each document it embeds is valid under its own marker, and a
//! manifest whose `truncated` flag disagrees with its `truncated_records` is
//! rejected — a capture that lost records must not read as whole.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{parse, Json};
use crate::{BLACKBOX_SCHEMA, EVENTS_SCHEMA, HEALTH_SCHEMA, SNAPSHOT_SCHEMA};

/// Loaded schemas by the marker they validate.
#[derive(Debug, Default)]
pub struct SchemaSet {
    by_marker: BTreeMap<String, Json>,
}

impl SchemaSet {
    /// Load every `*.schema.json` under `dir`.
    pub fn load(dir: &Path) -> Result<SchemaSet, String> {
        let mut set = SchemaSet::default();
        for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
            let path = entry.map_err(|e| e.to_string())?.path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if name.ends_with(".schema.json") {
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
                set.add(&text).map_err(|e| format!("{name}: {e}"))?;
            }
        }
        if set.by_marker.is_empty() {
            return Err("no *.schema.json files".into());
        }
        Ok(set)
    }

    /// Add one schema from its text; returns the marker it validates.
    /// Fails on a keyword the walker does not interpret.
    pub fn add(&mut self, text: &str) -> Result<String, String> {
        let schema = parse(text)?;
        lint(&schema, &schema)?;
        let marker = schema
            .get("properties")
            .and_then(|p| p.get("schema"))
            .and_then(|s| s.get("const"))
            .and_then(Json::as_str)
            .ok_or("no marker: properties.schema.const must be a string")?
            .to_string();
        if self.by_marker.insert(marker.clone(), schema).is_some() {
            return Err(format!("second schema for marker {marker:?}"));
        }
        Ok(marker)
    }

    /// Validate `doc` under the schema its `"schema"` marker names; returns
    /// that marker.
    pub fn validate<'d>(&self, doc: &'d Json) -> Result<&'d str, String> {
        let marker = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing string field \"schema\"")?;
        if marker == BLACKBOX_SCHEMA {
            doc.get("at_us")
                .and_then(Json::as_u64)
                .ok_or("missing integer field \"at_us\"")?;
            let parts = [
                ("report", HEALTH_SCHEMA),
                ("events", EVENTS_SCHEMA),
                ("snapshot", SNAPSHOT_SCHEMA),
            ];
            for (key, expected) in parts {
                let part = doc.get(key).ok_or(format!("missing field {key:?}"))?;
                let got = self.validate(part).map_err(|e| format!("{key}: {e}"))?;
                if got != expected {
                    return Err(format!("{key}: is a {got:?}, expected {expected:?}"));
                }
            }
            return Ok(marker);
        }
        let schema = self
            .by_marker
            .get(marker)
            .ok_or(format!("unknown schema marker {marker:?}"))?;
        check(schema, schema, doc)?;
        let dropped = doc.get("truncated_records").and_then(Json::as_u64);
        match (doc.get("truncated"), dropped) {
            (Some(Json::Bool(flag)), Some(n)) if *flag != (n > 0) => Err(format!(
                "inconsistent truncation report: truncated={flag} but truncated_records={n}"
            )),
            _ => Ok(marker),
        }
    }
}

/// Reject keywords [`check`] does not interpret in every sub-schema, reached
/// by a document or not.
fn lint(root: &Json, node: &Json) -> Result<(), String> {
    for (keyword, arg) in node.as_object().ok_or("a schema must be an object")? {
        let nested: Vec<&Json> = match (keyword.as_str(), arg) {
            // The target is linted where it is defined.
            ("$ref", _) => resolve(root, arg).map(|_| Vec::new())?,
            ("items" | "additionalProperties", _) => vec![arg],
            ("oneOf", Json::Arr(options)) => options.iter().collect(),
            ("properties" | "definitions", Json::Obj(subs)) => subs.values().collect(),
            ("$schema" | "$id" | "title" | "description" | "type" | "required", _)
            | ("const" | "enum" | "minimum" | "maximum" | "minItems" | "maxItems", _) => Vec::new(),
            _ => return Err(format!("unsupported schema keyword {keyword:?}: {arg:?}")),
        };
        for sub in nested {
            lint(root, sub).map_err(|e| format!("{keyword}: {e}"))?;
        }
    }
    Ok(())
}

fn resolve<'s>(root: &'s Json, target: &Json) -> Result<&'s Json, String> {
    target
        .as_str()
        .and_then(|t| t.strip_prefix("#/definitions/"))
        .and_then(|name| root.get("definitions")?.get(name))
        .ok_or(format!("unresolvable $ref {target:?}"))
}

/// Check `value` against one schema node; `root` resolves `$ref`. As in JSON
/// Schema, a keyword that constrains another type than `value`'s is inert.
fn check(root: &Json, node: &Json, value: &Json) -> Result<(), String> {
    for (keyword, arg) in node.as_object().ok_or("a schema must be an object")? {
        match keyword.as_str() {
            "$schema" | "$id" | "title" | "description" | "definitions" => {}
            "$ref" => check(root, resolve(root, arg)?, value)?,
            "const" if value != arg => {
                return Err(format!("expected const {arg:?}, got {value:?}"));
            }
            "enum" if !arg.as_array().is_some_and(|o| o.contains(value)) => {
                return Err(format!("{value:?} not in enum {arg:?}"));
            }
            "const" | "enum" => {}
            "type" => {
                let matches = match arg.as_str() {
                    Some("object") => value.as_object().is_some(),
                    Some("array") => value.as_array().is_some(),
                    Some("string") => value.as_str().is_some(),
                    Some("boolean") => matches!(value, Json::Bool(_)),
                    Some("number") => matches!(value, Json::Num(_)),
                    Some("integer") => value.as_i64().is_some(),
                    _ => return Err(format!("unsupported schema type {arg:?}")),
                };
                if !matches {
                    return Err(format!("{value:?} is not of type {arg:?}"));
                }
            }
            "minimum" | "maximum" | "minItems" | "maxItems" => {
                let measured = match value {
                    Json::Num(n) if !keyword.ends_with("Items") => *n,
                    Json::Arr(items) if keyword.ends_with("Items") => items.len() as f64,
                    _ => continue,
                };
                let Json::Num(bound) = *arg else {
                    return Err(format!("{keyword} {arg:?} is not a number"));
                };
                if measured < bound && keyword.starts_with("min")
                    || measured > bound && keyword.starts_with("max")
                {
                    return Err(format!("{measured} violates {keyword} {bound}"));
                }
            }
            "items" => {
                for (i, item) in value.as_array().unwrap_or_default().iter().enumerate() {
                    check(root, arg, item).map_err(|e| format!("item {i}: {e}"))?;
                }
            }
            "required" => {
                for key in arg.as_array().ok_or("required must be an array")? {
                    let key = key.as_str().ok_or("non-string required key")?;
                    if value.as_object().is_some_and(|m| !m.contains_key(key)) {
                        return Err(format!("missing required field {key:?}"));
                    }
                }
            }
            "properties" => {
                for (key, sub) in arg.as_object().ok_or("properties must be an object")? {
                    if let Some(member) = value.get(key) {
                        check(root, sub, member).map_err(|e| format!("field {key:?}: {e}"))?;
                    }
                }
            }
            "additionalProperties" => {
                let declared = node.get("properties").and_then(Json::as_object);
                for (key, member) in value.as_object().into_iter().flatten() {
                    if !declared.is_some_and(|d| d.contains_key(key)) {
                        check(root, arg, member).map_err(|e| format!("member {key:?}: {e}"))?;
                    }
                }
            }
            "oneOf" => {
                let options = arg.as_array().ok_or("oneOf must be an array")?;
                let failures: Vec<String> = options
                    .iter()
                    .filter_map(|option| check(root, option, value).err())
                    .collect();
                if options.len() - failures.len() != 1 {
                    let n = options.len();
                    return Err(format!("not exactly one of {n} alternatives: {failures:?}"));
                }
            }
            other => return Err(format!("unsupported schema keyword {other:?}")),
        }
    }
    Ok(())
}
