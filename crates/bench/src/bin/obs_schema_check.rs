//! Validate adshare JSON documents against the checked-in schemas.
//!
//! ```text
//! obs_schema_check [--schema-dir schemas] [FILE ...]
//! ```
//!
//! With no FILE every `*.json` under `$OBS_SNAPSHOT_DIR` (default
//! `target/obs`, where the `exp_*` bins drop their documents) is checked.
//! Each document is dispatched on its `"schema"` marker to the schema file
//! declaring that marker; the walker, the keyword subset it enforces and the
//! black-box rule are [`adshare_obs::schema`] — this bin is argument
//! handling and a file list. Exits non-zero when a schema uses a keyword the
//! walker does not interpret, or any document fails to parse, carries an
//! unknown marker, or violates its schema.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use adshare_obs::json::parse;
use adshare_obs::schema::SchemaSet;

fn main() -> ExitCode {
    let all_ok = run(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("{e}");
        false
    });
    ExitCode::from(u8::from(!all_ok))
}

/// Check every file; `Ok(false)` when a document failed, `Err` when there
/// was nothing to check or nothing to check it with.
fn run(mut args: Vec<String>) -> Result<bool, String> {
    let schema_dir = match args.iter().position(|a| a == "--schema-dir") {
        Some(i) if i + 1 < args.len() => args.drain(i..i + 2).nth(1).expect("two drained"),
        Some(_) => return Err("--schema-dir requires a path argument".into()),
        None => "schemas".to_string(),
    };
    let schemas = SchemaSet::load(Path::new(&schema_dir))
        .map_err(|e| format!("cannot load schemas from {schema_dir}: {e}"))?;

    let mut files: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
    if files.is_empty() {
        let dir = adshare_bench::snapshot_dir();
        let entries = std::fs::read_dir(&dir);
        let dir = dir.display();
        for entry in entries.map_err(|e| format!("cannot read {dir}: {e}"))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|e| e == "json") {
                files.push(path);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(format!(
                "no *.json files under {dir}; run the emitting bins first \
                 (e.g. exp_loss_recovery, exp_health)"
            ));
        }
    }

    let mut all_ok = true;
    for file in &files {
        let verdict = std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text))
            .and_then(|doc| schemas.validate(&doc).map(str::to_string));
        match verdict {
            Ok(marker) => println!("OK   {} ({marker})", file.display()),
            Err(e) => {
                eprintln!("FAIL {}: {e}", file.display());
                all_ok = false;
            }
        }
    }
    Ok(all_ok)
}
