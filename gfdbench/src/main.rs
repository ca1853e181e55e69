//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path gfdbench/Cargo.toml -- \
//!     --workload reason --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints a provenance line, a table of every metric, and as its last
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! The git revision comes from the `GFDBENCH_REV` environment variable;
//! the program does not compute it.

use gfdbench::measure::Metric;
use gfdbench::{run, Sizes, Workload, END_TO_END, PER_LAYER, UNGATED};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: gfdbench --workload <reason|detect_stream|ggd_chase> [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// `YYYY-MM-DDTHH:MM:SSZ` for a Unix time (civil-from-days).
fn utc(secs: u64) -> String {
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(args: &Args) -> String {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = std::env::var("GFDBENCH_REV").unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"git_rev\": {}, \"nproc\": {nproc}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"profile\": {}, \"rustc\": {}, \"utc\": {}}}",
        json_str(&rev),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        json_str(env!("GFDBENCH_PROFILE")),
        json_str(env!("GFDBENCH_RUSTC")),
        json_str(&utc(now)),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gfdbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("provenance {}", provenance(&args));
    let sizes = Sizes::for_workload(args.workload);
    let result = run(args.workload, &sizes, args.seed, args.seconds, args.trace);

    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    let mut problems = result.problems;
    let mut reported: Vec<&Metric> = Vec::with_capacity(expected.len());
    for name in expected {
        match result.metrics.0.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() => reported.push(m),
            Some(m) => problems.push(format!("{name} is not finite: {}", m.value)),
            None => problems.push(format!("{name} was not measured")),
        }
    }
    for m in &result.metrics.0 {
        let name = m.name.as_str();
        if !expected.contains(&name) && (args.trace || !UNGATED.contains(&name)) {
            problems.push(format!("{name} is not a listed metric"));
        }
    }

    println!("{:<28} {:>16} unit", "metric", "value");
    for m in &result.metrics.0 {
        let note = if UNGATED.contains(&m.name.as_str()) {
            " (no bound)"
        } else {
            ""
        };
        println!("{:<28} {:>16.4} {}{note}", m.name, m.value, m.unit);
    }
    let tally = result.tally;
    let failed_ratio = tally.failed as f64 / (tally.attempted.max(1)) as f64;
    println!(
        "{:<28} {:>16.4} ratio ({} failed of {} answers)",
        "failed_ratio", failed_ratio, tally.failed, tally.attempted
    );
    if let Some(spans) = &result.spans {
        println!(
            "layer-sum check (allowed outside layer spans: {}% of wall + {} ms per call):",
            gfdbench::spans::RESIDUAL_SHARE * 100.0,
            gfdbench::spans::RESIDUAL_FLOOR_MS,
        );
        for r in spans.roots() {
            println!(
                "  {:<12} {:>6} calls {:>12.3} ms wall {:>9.3} ms outside",
                r.name, r.calls, r.wall_ms, r.unattributed_ms
            );
        }
        println!("{:<20} {:>8} {:>14}", "span", "count", "self ms");
        for (name, count, ms) in spans.totals() {
            println!("{name:<20} {count:>8} {ms:>14.3}");
        }
    }
    for p in &problems {
        println!("problem: {p}");
    }

    let correct = tally.failed == 0 && tally.attempted > 0 && problems.is_empty();
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_formats_known_instants() {
        assert_eq!(utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc(1_700_000_000), "2023-11-14T22:13:20Z");
    }

    #[test]
    fn args_reject_unknown_workloads_and_flags() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        assert!(parse(&["--workload", "reason", "--seed", "3", "--trace", "1"]).is_ok());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "3"]).is_err());
        assert!(parse(&["--workload", "reason", "--bogus", "1"]).is_err());
        assert!(parse(&["--workload", "reason", "--seconds", "0"]).is_err());
    }
}
