//! `e2e` — the glass-to-glass benchmark of adshare.
//!
//! One screen change travels from damage on the AH to pixels at every
//! viewer: over AH-paced UDP with NACK repair, over RFC 4571 TCP with the
//! freshest-frame policy, through two relay hops, and inside a 64-session
//! host. Six workloads on `adshare-netsim`'s virtual clock, driven as a
//! closed loop; host time, CPU, allocations and memory are measured from
//! outside, and a separate traced run splits the cost by layer. See the
//! README next to this package.
//!
//! ```text
//! e2e --workload W --seed N --seconds S --trace 0|1   one workload (the benchmark contract)
//! e2e run [--workload W] [--seed N] [--seconds S] [--trace] [--out PATH]
//! e2e check [--seed N]                                 cross-process determinism
//! e2e compare A.json B.json                            verdict per (workload, metric)
//! e2e pins                                             print the input pins
//! e2e manifest                                         print BENCHMARK.json from the tables
//! ```

mod compare;
mod json;
mod leaf;
mod machine;
mod measure;
mod metrics;
mod pins;
mod probe;
mod run;
mod stats;
mod stepper;
mod suite;
mod trace;
mod workloads;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    /// Remove `--key value` and return the value.
    fn value(&mut self, key: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == key) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{key} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        match self.value(key)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }

    /// Remove a bare `--flag`.
    fn flag(&mut self, key: &str) -> bool {
        match self.0.iter().position(|a| a == key) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn done(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown option {unknown}")),
            None => Ok(self.0),
        }
    }
}

/// The contract mode: one workload, one result line.
fn one_workload(mut args: Args) -> Result<(), String> {
    let opts = run::Options {
        workload: args.value("--workload")?.ok_or("--workload is required")?,
        seed: args.parsed("--seed")?.unwrap_or(pins::PIN_SEED),
        seconds: args.parsed("--seconds")?.unwrap_or(10.0),
        trace: match args.value("--trace")?.as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        ticks_div: args.parsed("--ticks-div")?.unwrap_or(1),
        max_rounds: args.parsed("--max-rounds")?,
        spans: args.value("--spans")?.map(PathBuf::from),
    };
    let detail = args.flag("--detail");
    if let Some(extra) = args.done()?.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let report = run::run(opts)?;
    report.print_table();
    if detail {
        println!("{}", report.detail_json());
    }
    println!("{}", report.contract_json());
    Ok(())
}

fn dispatch() -> Result<(), String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => String::new(),
    };
    let mut args = Args(argv);
    match sub.as_str() {
        "" => one_workload(args),
        "run" => {
            let opts = suite::SuiteOptions {
                workload: args.value("--workload")?,
                seed: args.parsed("--seed")?.unwrap_or(pins::PIN_SEED),
                seconds: args.parsed("--seconds")?.unwrap_or(10.0),
                trace: args.flag("--trace"),
                out: args.value("--out")?.map(PathBuf::from),
            };
            args.done()?;
            suite::run_all(&opts)
        }
        "check" => {
            let seed = args.parsed("--seed")?.unwrap_or(pins::PIN_SEED);
            args.done()?;
            suite::check(seed)
        }
        "compare" => match args.done()?.as_slice() {
            [a, b] => compare::compare_files(a.as_ref(), b.as_ref()),
            _ => Err("usage: e2e compare A.json B.json".to_string()),
        },
        "manifest" => {
            args.done()?;
            print!("{}", metrics::benchmark_json());
            Ok(())
        }
        "pins" => {
            args.done()?;
            for spec in &workloads::SPECS {
                println!("    (\"{}\", {:#018x}),", spec.name, pins::input_pin(spec));
            }
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::FAILURE
        }
    }
}
