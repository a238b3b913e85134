//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out-dir <dir>]`
//!
//! Prints a human-readable report, then one JSON result line. Exits 1
//! when any job failed or returned a wrong answer, 2 on bad arguments.

use ditto_perfbench::{run_traced, run_untraced, Args, WorkloadName};
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed runs default to; claims are re-checked on [`HELD_OUT_SEED`].
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claimed change.
const HELD_OUT_SEED: u64 = 2;

fn usage() -> String {
    let names: Vec<&str> = WorkloadName::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out-dir <dir>]\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}",
        names.join("|")
    )
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: WorkloadName::TpcdsColocated,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(WorkloadName::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    print!("{}", report.text);
    println!("{}", report.json_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
