//! E19 — adversarial scenario suite: the four canonical schedules from
//! `adshare_session::scenario::presets` and `adshare_relay::scenario`, run
//! under fixed seeds with the health engine as pass/fail oracle.
//!
//! * **flash_crowd** — 100 joiners inside one catch-up refresh interval
//!   hit the relay's shadow-state path; half leave again mid-run.
//! * **churn** — viewers join and leave every 1.5 s for 20 s.
//! * **bandwidth_cliff** — a 6 Mb/s video link collapses to 2 Mb/s and
//!   recovers; AIMD must down-shift and the tail must repair losslessly.
//! * **floor_storm** — six viewers fight over the floor across
//!   duplicating links while the chair flips the HID status.
//!
//! Each run writes its `adshare-scenario/v1` outcome document into
//! `$OBS_SNAPSHOT_DIR` (default `target/obs`) for `obs_schema_check`; a
//! failing run also leaves its event log and any CRITICAL black boxes
//! there for CI to upload. Exits non-zero when any scenario fails, so the
//! suite doubles as a release gate.

use std::path::Path;
use std::process::ExitCode;

use adshare_bench::print_table;
use adshare_relay::scenario::{run_flash_crowd, FlashCrowd};
use adshare_session::scenario::{presets, run_scenario, ScenarioOutcome};

/// Fixed seeds: CI reruns must reproduce bit-identical verdicts.
const FLASH_SEED: u64 = 708;
const CHURN_SEED: u64 = 41;
const CLIFF_SEED: u64 = 913;
const FLOOR_SEED: u64 = 1201;

fn run_all(dir: &Path) -> Vec<ScenarioOutcome> {
    let mut out = Vec::new();

    let mut fc = FlashCrowd::new(FLASH_SEED);
    fc.dump_dir = Some(dir.to_path_buf());
    out.push(run_flash_crowd(&fc).0);

    for scn in [
        presets::churn(CHURN_SEED),
        presets::bandwidth_cliff(CLIFF_SEED),
        presets::floor_storm(FLOOR_SEED),
    ] {
        let mut scn = scn;
        scn.dump_dir = Some(dir.to_path_buf());
        out.push(run_scenario(&scn).0);
    }
    out
}

fn main() -> ExitCode {
    let dir = adshare_bench::snapshot_dir();
    let outcomes = run_all(&dir);

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.name.clone(),
                o.seed.to_string(),
                if o.passed { "pass" } else { "FAIL" }.to_string(),
                o.worst.as_str().to_string(),
                o.reports.len().to_string(),
                o.active_participants.to_string(),
                if o.converged { "yes" } else { "NO" }.to_string(),
                o.violations.len().to_string(),
            ]
        })
        .collect();
    print_table(
        "E19: adversarial scenarios vs the health oracle",
        &[
            "scenario",
            "seed",
            "verdict",
            "worst",
            "checks",
            "active",
            "converged",
            "violations",
        ],
        &rows,
    );

    let mut failed = false;
    for o in &outcomes {
        if let Err(e) = o.write_artifacts(&dir) {
            eprintln!("cannot write artifacts for {}: {e}", o.name);
            failed = true;
        }
        if !o.passed || !o.converged {
            failed = true;
            for v in &o.violations {
                eprintln!("{}: {v}", o.name);
            }
            if !o.converged {
                eprintln!("{}: viewers did not converge to the AH desktop", o.name);
            }
        }
    }
    println!("\nartifacts: {}", dir.display());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
