//! The machine and build a result was measured on. Every output carries
//! it: a number without its core count and CPU model cannot be compared.

use std::process::Command;

use crate::json::Obj;

fn command_line(program: &str, args: &[&str]) -> String {
    // `output` waits for the child, so nothing is left running.
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model, compiler, build profile and git commit as a JSON
/// object, plus the statement that every link is simulated.
pub fn record_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Obj::new()
        .int("nproc", nproc as u64)
        .str("cpu_model", &cpu_model())
        .str("rustc", &command_line("rustc", &["-V"]))
        .str(
            "profile",
            if cfg!(debug_assertions) { "debug" } else { "release" },
        )
        .str("git_commit", &command_line("git", &["rev-parse", "HEAD"]))
        .str(
            "links",
            "simulated (adshare-netsim, virtual clock): no loopback or real-socket number is reported",
        )
        .str(
            "threads",
            "one driver thread plus the product's encode workers, which size themselves to nproc",
        )
        .end()
}
