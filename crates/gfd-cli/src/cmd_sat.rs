//! `gfd sat FILE` — satisfiability checking.

use crate::args::{load_document, parse_budget, ArgError, Parsed};
use crate::output::{fmt_chase_stats, fmt_duration, fmt_metrics};
use crate::traceopt::{dep_rule_names, TraceArgs, TRACE_HELP};
use gfd_chase::{dep_sat_with_config, ChaseConfig, DepSatOutcome};
use gfd_runtime::RunMetrics;
use std::io::Write;
use std::time::{Duration, Instant};

const HELP: &str = "\
gfd sat FILE [--workers N] [--ttl-ms T] [--seq] [--model] [--metrics]
             [--gen-budget B] [--deadline-ms T] [--max-units N]
             [--trace FILE] [--profile] [--metrics-json FILE]

Checks whether the rule set in FILE has a model (§IV–V of the paper).
FILE may mix `gfd` and `ggd` blocks: literal-only sets run the reasoning
driver (SeqSat at one worker, ParSat at more), sets with generating rules
the GGD chase.
  --workers N    parallel workers (default 4)
  --seq          same as --workers 1
  --ttl-ms T     straggler TTL in milliseconds (default 2000)
  --model        on satisfiable sets, print the extracted model
  --metrics      print scheduler metrics (units, splits, steals, idle)
  --gen-budget B fresh-node budget of the GGD chase (default 100000);
                 exhaustion exits 2
  --deadline-ms T wall-clock budget; an expired run degrades to unknown
                 (exit 2), never to a wrong definite verdict
  --max-units N  scheduler work-unit budget; exhaustion exits 2
{TRACE}\
Exit code: 0 satisfiable, 1 unsatisfiable, 2 error or budget exhausted.
";

pub(crate) fn run(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{}", HELP.replace("{TRACE}", TRACE_HELP));
        return Ok(0);
    }
    let path = args.positional(0, "FILE")?.to_string();
    let show_model = args.flag("model");
    let show_metrics = args.flag("metrics");
    let tracing = TraceArgs::parse(&args)?;
    let cfg = parse_reason_flags(&args, &tracing)?;
    args.finish()?;

    let mut vocab = gfd_graph::Vocab::new();
    let sigma = load_document(&path, &mut vocab)?.deps;
    if sigma.is_empty() {
        return Err(ArgError::new(format!("{path} contains no rules")));
    }
    let generating = sigma.iter().filter(|(_, d)| d.is_generating()).count();
    if generating > 0 {
        let _ = writeln!(
            out,
            "{}: {} rule(s) ({} generating), total size {} — GGD chase",
            path,
            sigma.len(),
            generating,
            sigma.total_size()
        );
    } else {
        let _ = writeln!(
            out,
            "{}: {} rule(s), total size {}",
            path,
            sigma.len(),
            sigma.total_size()
        );
    }

    let start = Instant::now();
    let r = dep_sat_with_config(&sigma, &cfg);
    let elapsed = start.elapsed();
    // An undecided run has no verdict: check before the yes/no split so a
    // timeout cannot masquerade as UNSATISFIABLE.
    match &r.outcome {
        DepSatOutcome::Unknown { generated_nodes } => {
            return Err(ArgError::new(format!(
                "generation budget ({}) exhausted after materializing \
                 {generated_nodes} node(s); the set may have no finite chase — \
                 raise --gen-budget to keep going",
                cfg.max_generated_nodes
            )));
        }
        DepSatOutcome::Interrupted(i) => return Err(interrupted(i, &r.metrics)),
        DepSatOutcome::Satisfiable(_) | DepSatOutcome::Unsatisfiable(_) => {}
    }

    let satisfiable = r.is_satisfiable();
    let verdict = if satisfiable {
        "SATISFIABLE"
    } else {
        "UNSATISFIABLE"
    };
    let _ = writeln!(out, "{verdict} ({})", fmt_duration(elapsed));
    if show_metrics {
        let _ = write!(out, "{}", fmt_metrics(&r.metrics));
        if generating > 0 {
            let _ = write!(out, "{}", fmt_chase_stats(&r.stats));
        }
    }
    tracing.emit(&r.metrics, &dep_rule_names(&sigma), out)?;
    if show_model {
        if let Some(model) = r.model() {
            let _ = writeln!(
                out,
                "model: {} nodes, {} edges, {} attributes",
                model.node_count(),
                model.edge_count(),
                model.attr_count()
            );
            let _ = write!(out, "{}", gfd_dsl::print_graph("model", model, &vocab));
        }
    }
    Ok(if satisfiable { 0 } else { 1 })
}

/// Parse the reasoning flags `sat` and `imp` share into the one config of
/// the `DepSet` entry points. `--seq` is exactly `--workers 1`.
pub(crate) fn parse_reason_flags(
    args: &Parsed,
    tracing: &TraceArgs,
) -> Result<ChaseConfig, ArgError> {
    let workers = args.opt_usize("workers", 4)?;
    Ok(ChaseConfig {
        workers: if args.flag("seq") { 1 } else { workers.max(1) },
        ttl: Duration::from_millis(args.opt_u64("ttl-ms", 2000)?),
        max_generated_nodes: args.opt_u64("gen-budget", 100_000)?,
        budget: parse_budget(args)?,
        trace: tracing.spec(),
        ..ChaseConfig::default()
    })
}

/// Render an interrupted run as the uniform exit-2 diagnostic, with the
/// budget context (panics, retries, deadline slack) that explains it.
pub(crate) fn interrupted(i: &gfd_core::Interrupt, m: &RunMetrics) -> ArgError {
    let mut msg = format!("run interrupted: {i}");
    if let Some(slack) = m.deadline_slack_ms {
        msg.push_str(&format!(" (deadline slack {slack}ms)"));
    }
    if m.units_panicked > 0 {
        msg.push_str(&format!(
            "; {} unit(s) panicked, {} retried",
            m.units_panicked, m.units_retried
        ));
    }
    msg.push_str("; raise --deadline-ms/--max-units to keep going");
    ArgError::new(msg)
}
