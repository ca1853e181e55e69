//! `gfd imp FILE` — implication checking.

use crate::args::{load_document, ArgError, Parsed};
use crate::cmd_sat::{interrupted, parse_reason_flags};
use crate::output::{fmt_chase_stats, fmt_duration, fmt_metrics};
use crate::traceopt::{dep_rule_names, TraceArgs, TRACE_HELP};
use gfd_chase::{dep_imp_with_config, DepImpOutcome};
use gfd_core::DepSet;
use std::io::Write;
use std::time::Instant;

const HELP: &str = "\
gfd imp FILE --phi NAME [--workers N] [--ttl-ms T] [--seq] [--metrics]
             [--gen-budget B] [--deadline-ms T] [--max-units N]
             [--trace FILE] [--profile] [--metrics-json FILE]

Checks whether the other rules in FILE imply rule NAME (§VI). FILE may
mix `gfd` and `ggd` blocks: against literal rules any candidate runs on
the reasoning driver (SeqImp at one worker, ParImp at more; a generating
candidate exits early once its target is realized); a generating Σ runs
the GGD chase over the candidate's canonical graph.
  --phi NAME     the candidate rule ϕ (by its name in the file)
  --workers N    parallel workers (default 4)
  --seq          same as --workers 1
  --ttl-ms T     straggler TTL in milliseconds (default 2000)
  --metrics      print scheduler metrics (units, splits, steals, idle)
  --gen-budget B fresh-node budget of the GGD chase (default 100000);
                 exhaustion exits 2
  --deadline-ms T wall-clock budget; an expired run degrades to unknown
                 (exit 2), never to a wrong definite verdict
  --max-units N  scheduler work-unit budget; exhaustion exits 2
{TRACE}\
Exit code: 0 implied, 1 not implied, 2 error or budget exhausted.
";

pub(crate) fn run(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{}", HELP.replace("{TRACE}", TRACE_HELP));
        return Ok(0);
    }
    let path = args.positional(0, "FILE")?.to_string();
    let phi_name = args
        .opt_str("phi")?
        .ok_or_else(|| ArgError::new("imp requires --phi NAME"))?
        .to_string();
    let show_metrics = args.flag("metrics");
    let tracing = TraceArgs::parse(&args)?;
    let cfg = parse_reason_flags(&args, &tracing)?;
    args.finish()?;

    let mut vocab = gfd_graph::Vocab::new();
    let doc = load_document(&path, &mut vocab)?;
    let mut sigma = DepSet::new();
    let mut phi = None;
    for (_, dep) in doc.deps.iter() {
        if dep.name == phi_name {
            phi = Some(dep.clone());
        } else {
            sigma.push(dep.clone());
        }
    }
    let phi = phi.ok_or_else(|| ArgError::new(format!("no rule named `{phi_name}` in {path}")))?;

    let _ = writeln!(
        out,
        "Σ: {} rule(s); ϕ = {}",
        sigma.len(),
        phi.display(&vocab)
    );
    let start = Instant::now();
    let r = dep_imp_with_config(&sigma, &phi, &cfg);
    let elapsed = start.elapsed();
    // Check the undecided arms before the yes/no split: a deadline expiry
    // must exit 2, not report NOT IMPLIED.
    match &r.outcome {
        DepImpOutcome::Unknown { generated_nodes } => {
            return Err(ArgError::new(format!(
                "generation budget ({}) exhausted after materializing \
                 {generated_nodes} node(s); raise --gen-budget to keep going",
                cfg.max_generated_nodes
            )));
        }
        DepImpOutcome::Interrupted(i) => return Err(interrupted(i, &r.metrics)),
        DepImpOutcome::Implied(_) | DepImpOutcome::NotImplied => {}
    }

    let implied = r.is_implied();
    let verdict = if implied { "IMPLIED" } else { "NOT IMPLIED" };
    let _ = writeln!(out, "{verdict} ({})", fmt_duration(elapsed));
    if show_metrics {
        let _ = write!(out, "{}", fmt_metrics(&r.metrics));
        if sigma.has_generating() {
            let _ = write!(out, "{}", fmt_chase_stats(&r.stats));
        }
    }
    tracing.emit(&r.metrics, &dep_rule_names(&sigma), out)?;
    Ok(if implied { 0 } else { 1 })
}
