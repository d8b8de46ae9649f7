//! The idc-mpc benchmark.
//!
//! ```text
//! perfbench --workload <fleet_12x24|storage_8x15|tenants_paper>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny] [--out-dir <dir>]
//! ```
//!
//! Builds the workload's scenarios from `--seed`, measures for about
//! `--seconds` (a batch workload always completes one pass of each of its
//! draws), checks the outputs after the clock stops and prints, as
//! its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! line before it carries the host block and the details behind the
//! numbers (tail percentiles used, sample counts, fallbacks, mismatches).
//! `--tiny` shrinks every workload for the self-test.

mod batch;
mod common;
mod layers;
mod scrape;
mod tenants;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{host_json, json_str, rss_peak_mib, Metrics};

pub const WORKLOADS: [&str; 3] = ["fleet_12x24", "storage_8x15", "tenants_paper"];

/// End-to-end metrics printed on every run but left out of the result
/// object, whose figures must hold steady across seeds and hosts:
///
/// * wall-clock times and latencies swing with the share of time a shared
///   host steals from the vCPUs, and plain CPU times with the speed it
///   runs them at; CPU times scaled to the
///   reference speed of a [`common::Calibration`] kernel that slows down
///   with the workload's work (`step_ref_ms_*`, `steps_per_ref_s`,
///   `setup_s`) carry them into the result;
/// * `failed_frac` is exactly zero on a clean run; its complement
///   `ok_frac` carries the failures;
/// * `power_swing_mw` is dominated by the recovery after a policy fallback,
///   whose count varies from seed to seed.
const REPORTED_ONLY: [&str; 12] = [
    "step_ms_p50",
    "step_ms_tail",
    "step_cpu_ms_p50",
    "step_cpu_ms_tail",
    "steps_per_s",
    "steps_per_cpu_s",
    "setup_cpu_s",
    "setup_wall_s",
    "scrape_ms_p50",
    "scrape_ms_tail",
    "failed_frac",
    "power_swing_mw",
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub out_dir: PathBuf,
}

/// What a workload run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// `"key": value` JSON fragments describing the measurement.
    pub detail: Vec<String>,
    /// Human-readable findings of the output checks.
    pub notes: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got '{}'",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "tenants_paper" => tenants::run(&args),
        _ => batch::run(&args),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    outcome.e2e.put("rss_peak_mib", rss_peak_mib(), "MiB");

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("end-to-end:");
    outcome.e2e.print_table();
    if args.trace {
        println!("per-layer:");
        outcome.layer.print_table();
    }
    for note in &outcome.notes {
        println!("check: {note}");
    }
    let notes: Vec<String> = outcome.notes.iter().map(|n| json_str(n)).collect();
    println!(
        "{{\"host\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}, {}, \"notes\": [{}], \"end_to_end\": {}}}",
        host_json(),
        json_str(&args.workload),
        args.seed,
        args.trace as u8,
        outcome.detail.join(", "),
        notes.join(", "),
        outcome.e2e.to_json()
    );
    let metrics = if args.trace {
        outcome.layer.to_json()
    } else {
        outcome.e2e.to_json_without(&REPORTED_ONLY)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct && outcome.e2e.all_finite(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics
    );
    ExitCode::SUCCESS
}
