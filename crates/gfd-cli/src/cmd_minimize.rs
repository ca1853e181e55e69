//! `gfd minimize FILE` — cover computation via implication.
//!
//! The paper's motivating use of the implication analysis: "eliminates
//! redundant GFDs that are entailed by others … an optimization strategy
//! to speed up, e.g., error detection" (§I). The greedy algorithm scans
//! rules in file order and drops each rule implied by the remaining set —
//! the classical cover construction.

use crate::args::{load_document, ArgError, Parsed};
use crate::output::fmt_duration;
use gfd_core::{imp_with_config, GfdSet, ReasonConfig};
use std::io::Write;
use std::time::{Duration, Instant};

const HELP: &str = "\
gfd minimize FILE [--workers N] [--ttl-ms T] [--seq] [--out PATH]

Removes rules implied by the rest of the set (a cover). Order-dependent
but always sound: the reduced set is equivalent to the original.
  --out PATH    write the reduced set (DSL) to PATH
  --workers N   parallel workers for each implication check (default 4)
  --seq         same as --workers 1
Exit code: 0 (prints how many rules were removed), 2 on error.
";

pub(crate) fn run(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{HELP}");
        return Ok(0);
    }
    let path = args.positional(0, "FILE")?.to_string();
    let workers = args.opt_usize("workers", 4)?;
    let ttl = Duration::from_millis(args.opt_u64("ttl-ms", 2000)?);
    let sequential = args.flag("seq");
    let out_path = args.opt_str("out")?.map(str::to_string);
    args.finish()?;

    let mut vocab = gfd_graph::Vocab::new();
    let doc = load_document(&path, &mut vocab)?;
    if doc.deps.has_generating() {
        return Err(ArgError::new(
            "minimize supports literal GFD rules only (GGD implication is \
             chase-based and a cover under it may not round-trip; drop the \
             `ggd` blocks or minimize them separately)",
        ));
    }
    let rules: Vec<_> = doc.gfds.iter().map(|(_, g)| g.clone()).collect();
    if rules.is_empty() {
        return Err(ArgError::new(format!("{path} contains no GFDs")));
    }

    let cfg = ReasonConfig::with_workers(if sequential { 1 } else { workers }).with_ttl(ttl);
    let start = Instant::now();
    let mut kept: Vec<bool> = vec![true; rules.len()];
    for i in 0..rules.len() {
        // Σᵢ = every rule still kept, except i.
        let sigma_i = GfdSet::from_vec(
            rules
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i && kept[*j])
                .map(|(_, g)| g.clone())
                .collect(),
        );
        if sigma_i.is_empty() {
            continue;
        }
        if imp_with_config(&sigma_i, &rules[i], &cfg).is_implied() {
            kept[i] = false;
            let _ = writeln!(out, "removed {} (implied by the rest)", rules[i].name);
        }
    }
    let elapsed = start.elapsed();

    let reduced = GfdSet::from_vec(
        rules
            .iter()
            .zip(&kept)
            .filter(|(_, &k)| k)
            .map(|(g, _)| g.clone())
            .collect(),
    );
    let removed = rules.len() - reduced.len();
    let _ = writeln!(
        out,
        "cover: kept {} of {} rule(s), removed {removed} ({})",
        reduced.len(),
        rules.len(),
        fmt_duration(elapsed),
    );
    if let Some(out_path) = out_path {
        std::fs::write(&out_path, gfd_dsl::print_gfd_set(&reduced, &vocab))
            .map_err(|e| ArgError::new(format!("cannot write {out_path}: {e}")))?;
        let _ = writeln!(out, "wrote {out_path}");
    }
    Ok(0)
}
