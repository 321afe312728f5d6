//! Run every experiment binary of [`adshare_bench::EXPERIMENTS`] in
//! sequence (the full evaluation of EXPERIMENTS.md, E1–E23). Equivalent to
//! running each `exp_*` binary by hand.

use std::process::Command;

fn main() {
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir");
    let mut failures = Vec::new();
    for (number, exp) in adshare_bench::EXPERIMENTS {
        println!("\n===================================================================");
        println!("== E{number}: {exp}");
        println!("===================================================================");
        let status = Command::new(dir.join(exp)).status();
        if !matches!(&status, Ok(s) if s.success()) {
            eprintln!("!! {exp} failed: {status:?}");
            failures.push(exp);
        }
    }
    if !failures.is_empty() {
        eprintln!("\nfailed experiments: {failures:?}");
        std::process::exit(1);
    }
    println!("\nall experiments completed");
}
