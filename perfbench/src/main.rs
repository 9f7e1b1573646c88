//! Command-line entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload work_queue --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exits 1 when an oracle fails, 2 on bad arguments or I/O
//! errors.

use peats_perfbench::{run, Limit, Outcome, RunConfig, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: peats-perfbench --workload <work_queue|hot_reads|universal_log> \
                     --seed <n> --seconds <s> [--trace <0|1>]";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut limit = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let secs = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                limit = Some(Limit::Seconds(secs));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        limit: limit.ok_or("--seconds is required")?,
        trace,
        sizes: Sizes::full(),
        data_dir: PathBuf::from(".bench_data"),
    })
}

fn json(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: I/O error: {e}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{} seed {}: attempted {}, failed {}",
        cfg.workload.name(),
        cfg.seed,
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        eprintln!("  {:<38} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for v in &outcome.violations {
        eprintln!("ORACLE FAILED: {v}");
    }
    match json(&outcome) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
