//! `e2e run` and `e2e check`: every workload, each in its own child
//! process (so peak memory and the allocator counts are per workload), the
//! children being this same binary in single-workload mode.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use adshare::obs::json::{parse, Json};

use crate::json::Obj;
use crate::workloads::{Spec, SPECS};

/// What `e2e run` was asked for.
pub struct SuiteOptions {
    /// One workload, or all of them.
    pub workload: Option<String>,
    /// Workload seed.
    pub seed: u64,
    /// Seconds each child measures for.
    pub seconds: f64,
    /// Also run every workload traced.
    pub trace: bool,
    /// Where the merged report goes (standard output if absent).
    pub out: Option<PathBuf>,
}

/// Run one workload in a child and return its detail document (text).
fn child_detail(spec: &Spec, seed: u64, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `output` waits for the child to end before returning.
    let out = Command::new(exe)
        .args([
            "--workload",
            spec.name,
            "--seed",
            &seed.to_string(),
            "--detail",
        ])
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child for {}: {e}", spec.name))?;
    if !out.status.success() {
        return Err(format!("{}: child failed ({})", spec.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (_result, detail) = (lines.next(), lines.next());
    let detail = detail.ok_or_else(|| format!("{}: child printed no detail line", spec.name))?;
    parse(detail).map_err(|e| format!("{}: child detail does not parse: {e}", spec.name))?;
    Ok(detail.to_string())
}

fn selected(workload: &Option<String>) -> Result<Vec<&'static Spec>, String> {
    match workload {
        None => Ok(SPECS.iter().collect()),
        Some(name) => Spec::find(name)
            .map(|s| vec![s])
            .ok_or_else(|| format!("unknown workload {name:?}")),
    }
}

/// Run the selected workloads and write one merged report.
pub fn run_all(opts: &SuiteOptions) -> Result<(), String> {
    let seconds = opts.seconds.to_string();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for spec in selected(&opts.workload)? {
        plain.push(child_detail(
            spec,
            opts.seed,
            &["--seconds", &seconds, "--trace", "0"],
        )?);
        if opts.trace {
            traced.push(child_detail(
                spec,
                opts.seed,
                &["--seconds", &seconds, "--trace", "1"],
            )?);
        }
    }
    let report = Obj::new()
        .str("schema", "adshare-e2e/v1")
        .int("seed", opts.seed)
        .num("seconds", opts.seconds)
        .raw("machine", crate::machine::record_json())
        .raw("workloads", format!("[\n{}\n]", plain.join(",\n")))
        .raw("traced", format!("[\n{}\n]", traced.join(",\n")))
        .end();
    match &opts.out {
        Some(path) => std::fs::write(path, format!("{report}\n"))
            .map_err(|e| format!("write {}: {e}", path.display())),
        None => {
            println!("{report}");
            Ok(())
        }
    }
}

/// Fields of a detail document that must repeat exactly between two
/// processes at one seed.
const DETERMINISTIC_FIELDS: [&str; 9] = [
    "wire_digest",
    "input_digest",
    "wire_bytes_per_round",
    "updates_per_round",
    "nacks_per_round",
    "plis_per_round",
    "attempted",
    "failed",
    "gated",
];

/// Run every workload twice, in separate processes, at a tenth of the
/// ticks, and fail unless everything on the virtual clock is identical.
pub fn check(seed: u64) -> Result<(), String> {
    let mut bad = Vec::new();
    for spec in &SPECS {
        let run = || -> Result<Json, String> {
            let text = child_detail(
                spec,
                seed,
                &["--seconds", "0", "--ticks-div", "10", "--max-rounds", "1"],
            )?;
            parse(&text)
        };
        let (a, b) = (run()?, run()?);
        let differing: Vec<&str> = DETERMINISTIC_FIELDS
            .iter()
            .copied()
            .filter(|f| a.get(f).is_none() || a.get(f) != b.get(f))
            .collect();
        let digest = a.get("wire_digest").and_then(|d| d.as_str()).unwrap_or("?");
        if differing.is_empty() {
            println!(
                "ok    {:<18} wire digest {digest} in both processes",
                spec.name
            );
        } else {
            println!(
                "FAIL  {:<18} differs in {}",
                spec.name,
                differing.join(", ")
            );
            bad.push(spec.name);
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "not deterministic across processes: {}",
            bad.join(", ")
        ))
    }
}
