//! The `gfd` command-line toolbox.
//!
//! Every operation the library supports, scriptable from a shell:
//!
//! | command | what it does |
//! |---|---|
//! | `gfd sat FILE` | satisfiability of the rule set in `FILE` |
//! | `gfd imp FILE --phi NAME` | does the rest of the set imply rule `NAME`? |
//! | `gfd minimize FILE` | drop rules implied by the others (a cover) |
//! | `gfd detect FILE` | find violations of the rules in the file's graphs |
//! | `gfd gen --rules N ...` | generate a reproducible synthetic rule set |
//! | `gfd fmt FILE` | canonical reformatting of a rule file |
//!
//! The binary is a thin wrapper over [`run`], which is fully testable:
//! it takes arguments and a writer and returns a process exit code.
//! Exit codes: `0` = yes/clean/ok, `1` = no/violations, `2` = usage or
//! input error.

#![warn(missing_docs)]

pub mod args;
mod cmd_detect;
mod cmd_fmt;
mod cmd_ged;
mod cmd_gen;
mod cmd_imp;
mod cmd_minimize;
mod cmd_sat;
mod cmd_trace_check;
pub mod output;
mod traceopt;

use args::{ArgError, Parsed};
use std::io::Write;

/// Top-level usage text.
pub const USAGE: &str = "\
gfd — reasoning about graph functional dependencies (ICDE 2018)

USAGE:
    gfd <COMMAND> [OPTIONS]

COMMANDS:
    sat FILE        check satisfiability of the rule set in FILE
                    (gfd + ggd blocks; GGD sets run the generating chase)
    imp FILE        check implication of one rule by the others
    minimize FILE   remove rules implied by the rest (cover)
    detect FILE     detect violations of the rules in FILE's graphs
                    (missing GGD subgraphs are violations with witnesses)
    gen             generate a synthetic rule set (prints DSL)
    fmt FILE        reformat a rule file canonically
    ged-sat FILE    GED satisfiability (order predicates, ids, disjunction)
    ged-imp FILE    GED implication
    resolve FILE    entity resolution with recursively-defined keys
    trace-check FILE  validate a Chrome trace-event file written by --trace
    help            show this message

COMMON OPTIONS:
    --workers N     parallel workers (default 4; 0 = sequential algorithm)
    --ttl-ms T      straggler-splitting TTL in milliseconds (default 2000)

OBSERVABILITY (sat, imp, detect, ged-sat, ged-imp):
    --trace FILE    write a Chrome trace-event timeline (chrome://tracing,
                    Perfetto); validate with `gfd trace-check FILE`
    --profile       print the aggregated per-rule / per-worker / per-phase
                    profile after the run
    --metrics-json FILE  write all run counters plus the profile as JSON

Run `gfd <COMMAND> --help` for command-specific options.
";

/// Run the CLI: parse `argv` (without the program name), execute, write
/// human-readable output to `out`. Returns the process exit code.
///
/// Diagnostics go to `out` too; the binary uses [`run_with_err`] to keep
/// them on stderr.
pub fn run(argv: &[String], out: &mut dyn Write) -> i32 {
    match dispatch(argv, out) {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            2
        }
    }
}

/// Like [`run`], but the one-line `error: ...` diagnostic goes to `err`
/// (the binary passes stderr) so results on stdout stay machine-readable
/// even when a run fails.
pub fn run_with_err(argv: &[String], out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    match dispatch(argv, out) {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(err, "error: {e}");
            2
        }
    }
}

fn dispatch(argv: &[String], out: &mut dyn Write) -> Result<i32, ArgError> {
    let Some(command) = argv.first() else {
        let _ = write!(out, "{USAGE}");
        return Ok(2);
    };
    let rest = &argv[1..];
    match command.as_str() {
        "sat" => cmd_sat::run(Parsed::parse(rest)?, out),
        "imp" => cmd_imp::run(Parsed::parse(rest)?, out),
        "minimize" => cmd_minimize::run(Parsed::parse(rest)?, out),
        "detect" => cmd_detect::run(Parsed::parse(rest)?, out),
        "gen" => cmd_gen::run(Parsed::parse(rest)?, out),
        "fmt" => cmd_fmt::run(Parsed::parse(rest)?, out),
        "ged-sat" => cmd_ged::run_sat(Parsed::parse(rest)?, out),
        "ged-imp" => cmd_ged::run_imp(Parsed::parse(rest)?, out),
        "resolve" => cmd_ged::run_resolve(Parsed::parse(rest)?, out),
        "trace-check" => cmd_trace_check::run(Parsed::parse(rest)?, out),
        "help" | "--help" | "-h" => {
            let _ = write!(out, "{USAGE}");
            Ok(0)
        }
        other => Err(ArgError::new(format!(
            "unknown command `{other}` (try `gfd help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run through the stderr-routing entry point and concatenate both
    /// streams, so assertions can match either results or diagnostics.
    fn run_vec(args: &[&str]) -> (i32, String) {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_with_err(&argv, &mut out, &mut err);
        let mut text = String::from_utf8(out).unwrap();
        text.push_str(&String::from_utf8(err).unwrap());
        (code, text)
    }

    #[test]
    fn no_args_prints_usage() {
        let (code, text) = run_vec(&[]);
        assert_eq!(code, 2);
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn help_exits_zero() {
        let (code, text) = run_vec(&["help"]);
        assert_eq!(code, 0);
        assert!(text.contains("minimize"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let (code, text) = run_vec(&["frobnicate"]);
        assert_eq!(code, 2);
        assert!(text.contains("unknown command"));
    }

    #[test]
    fn missing_file_is_reported() {
        let (code, text) = run_vec(&["sat", "/nonexistent/path.gfd"]);
        assert_eq!(code, 2);
        assert!(text.contains("error"), "{text}");
    }

    #[test]
    fn end_to_end_sat_on_temp_file() {
        let dir = std::env::temp_dir().join("gfd-cli-test-sat");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unsat.gfd");
        std::fs::write(
            &path,
            "gfd a { pattern { node x: _ } then { x.v = 1 } }\n\
             gfd b { pattern { node x: _ } then { x.v = 2 } }\n",
        )
        .unwrap();
        let (code, text) = run_vec(&["sat", path.to_str().unwrap()]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("UNSATISFIABLE"), "{text}");

        let path2 = dir.join("sat.gfd");
        std::fs::write(
            &path2,
            "gfd a { pattern { node x: person } then { x.v = 1 } }\n",
        )
        .unwrap();
        let (code, text) = run_vec(&["sat", path2.to_str().unwrap()]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("SATISFIABLE"), "{text}");
    }

    #[test]
    fn parallel_sat_prints_the_model() {
        let dir = std::env::temp_dir().join("gfd-cli-test-sat-model");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sat.gfd");
        std::fs::write(
            &path,
            "gfd a { pattern { node x: person } then { x.v = 1 } }\n",
        )
        .unwrap();
        for workers in ["1", "2"] {
            let (code, text) = run_vec(&[
                "sat",
                path.to_str().unwrap(),
                "--workers",
                workers,
                "--model",
            ]);
            assert_eq!(code, 0, "workers={workers}: {text}");
            assert!(text.contains("model: 1 nodes"), "workers={workers}: {text}");
            assert!(text.contains("graph model {"), "workers={workers}: {text}");
        }
    }

    #[test]
    fn end_to_end_ged_sat_and_resolve() {
        let dir = std::env::temp_dir().join("gfd-cli-test-ged");
        std::fs::create_dir_all(&dir).unwrap();
        // GED sat: conflicting bounds.
        let path = dir.join("bounds.gfd");
        std::fs::write(
            &path,
            "ged lo { pattern { node x: _ } then { x.a < 5 } }\n\
             ged hi { pattern { node x: _ } then { x.a > 7 } }\n",
        )
        .unwrap();
        let (code, text) = run_vec(&["ged-sat", path.to_str().unwrap()]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("UNSATISFIABLE"), "{text}");

        // GED imp: order deduction.
        let path2 = dir.join("imp.gfd");
        std::fs::write(
            &path2,
            "ged r { pattern { node x: t } then { x.a = 1 } }\n\
             ged q { pattern { node x: t } then { x.a >= 1 } }\n",
        )
        .unwrap();
        let (code, text) = run_vec(&["ged-imp", path2.to_str().unwrap(), "--phi", "q"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("IMPLIED"), "{text}");

        // Entity resolution via a key.
        let path3 = dir.join("resolve.gfd");
        std::fs::write(
            &path3,
            r#"
            graph people {
              node a: person { email = "x@y" }
              node b: person { email = "x@y" }
              node c: person { email = "z@w" }
            }
            ged key {
              pattern { node x: person node y: person }
              when { x.email = y.email }
              then { x.id = y.id }
            }
            "#,
        )
        .unwrap();
        let (code, text) = run_vec(&["resolve", path3.to_str().unwrap()]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("1 merge(s)"), "{text}");
        assert!(text.contains("2 node(s) remain"), "{text}");
    }

    #[test]
    fn end_to_end_detect_stream() {
        let dir = std::env::temp_dir().join("gfd-cli-test-stream");
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("stream.gfd");
        std::fs::write(
            &rules,
            r#"
            graph g {
              node a: t { v = 1 }
              node b: t { v = 1 }
              edge a -e-> b
            }
            gfd same {
              pattern { node x: t node y: t edge x -e-> y }
              then { x.v = y.v }
            }
            "#,
        )
        .unwrap();
        // Batch 1 breaks the pair; batch 2 adds a clean node; batch 3
        // deletes the offending edge.
        let log = dir.join("stream.delta");
        std::fs::write(
            &log,
            "batch\nattr 1 v=2\nbatch\nnode t\nattr 2 v=1\nedge 1 e 2\nbatch\ndel 0 e 1\n",
        )
        .unwrap();

        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            log.to_str().unwrap(),
            "--metrics",
        ]);
        assert!(text.contains("0 violation(s) before the stream"), "{text}");
        assert!(text.contains("batch 1:"), "{text}");
        // Batch 1 creates the x.v = y.v violation; batch 2 adds a second
        // (1 -e-> 2 with v=2 vs v=1); batch 3 removes only the first.
        assert!(text.contains("batch 3:"), "{text}");
        assert!(text.contains("1 violation(s)\n"), "{text}");
        assert_eq!(code, 1, "{text}");

        // A clean log replay exits 0.
        let clean_log = dir.join("clean.delta");
        std::fs::write(&clean_log, "batch\nattr 1 v=1\n").unwrap();
        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            clean_log.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");

        // A log referencing a node that never exists is a normal error
        // (exit 2), not a panic — node 7 in a 2-node graph.
        let bad_log = dir.join("bad-node.delta");
        std::fs::write(&bad_log, "batch\nedge 7 e 0\n").unwrap();
        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            bad_log.to_str().unwrap(),
        ]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("refers to node 7"), "{text}");
        // But referencing a node created earlier in the log is fine.
        let grow_log = dir.join("grow.delta");
        std::fs::write(&grow_log, "batch\nnode t\nattr 2 v=1\nedge 0 e 2\n").unwrap();
        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            grow_log.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");

        // Flags that cannot work in streaming mode are rejected, not
        // silently ignored.
        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            clean_log.to_str().unwrap(),
            "--repair",
        ]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("--repair"), "{text}");
        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            clean_log.to_str().unwrap(),
            "--limit",
            "3",
        ]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("--limit"), "{text}");
    }

    #[test]
    fn ged_commands_take_scheduler_flags() {
        let dir = std::env::temp_dir().join("gfd-cli-test-ged-sched");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rules.gfd");
        std::fs::write(
            &path,
            "ged lo { pattern { node x: _ } then { x.a < 5 } }\n\
             ged hi { pattern { node x: _ } then { x.a > 7 } }\n\
             ged q  { pattern { node x: _ } then { x.a < 9 } }\n",
        )
        .unwrap();
        let (code, text) = run_vec(&[
            "ged-sat",
            path.to_str().unwrap(),
            "--workers",
            "4",
            "--metrics",
        ]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("UNSATISFIABLE"), "{text}");
        assert!(text.contains("4 worker(s)"), "{text}");
        assert!(text.contains("branches explored"), "{text}");
        assert!(text.contains("units:"), "{text}");

        let (code, text) = run_vec(&[
            "ged-imp",
            path.to_str().unwrap(),
            "--phi",
            "q",
            "--workers",
            "2",
            "--metrics",
        ]);
        // Σ = {lo, hi} is unsatisfiable, so anything is implied.
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("IMPLIED"), "{text}");
        assert!(text.contains("branches explored"), "{text}");

        // A starved branch budget is a clean exit-2 error, not a panic.
        // The disjunctions force a choice tree deeper than one branch.
        let deep = dir.join("deep.gfd");
        std::fs::write(
            &deep,
            "ged d0 { pattern { node x: _ } then { x.a = 0 } or { x.a = 1 } }\n\
             ged d1 { pattern { node x: _ } then { x.a = 2 } or { x.a = 3 } }\n",
        )
        .unwrap();
        let (code, text) = run_vec(&["ged-sat", deep.to_str().unwrap(), "--max-branches", "1"]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("branch budget"), "{text}");
    }

    #[test]
    fn bad_compact_frac_values_are_rejected() {
        let dir = std::env::temp_dir().join("gfd-cli-test-compact-frac");
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("rules.gfd");
        std::fs::write(
            &rules,
            "graph g { node a: t { v = 1 } }\n\
             gfd r { pattern { node x: t } then { x.v = 1 } }\n",
        )
        .unwrap();
        let log = dir.join("log.delta");
        std::fs::write(&log, "batch\nattr 0 v=2\n").unwrap();

        for bad in ["NaN", "-0.5", "inf", "-inf"] {
            let (code, text) = run_vec(&[
                "detect",
                rules.to_str().unwrap(),
                "--stream",
                log.to_str().unwrap(),
                "--compact-frac",
                bad,
            ]);
            assert_eq!(code, 2, "`{bad}` accepted: {text}");
            assert!(text.contains("--compact-frac"), "{text}");
        }
        // 0.0 is legal: compact after every batch.
        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            log.to_str().unwrap(),
            "--compact-frac",
            "0.0",
        ]);
        assert_eq!(code, 1, "{text}"); // the attr write breaks the rule
    }

    #[test]
    fn end_to_end_mixed_ggd_sat_imp_detect_fmt() {
        let dir = std::env::temp_dir().join("gfd-cli-test-ggd");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.gfd");
        // A data graph with one lonely person, a GGD demanding every
        // person belongs to a team, and a literal rule off the generated
        // attribute.
        std::fs::write(
            &path,
            r#"
            graph g {
              node a: person { city = "nbo" }
              node b: person { city = "nbo" }
              node t: team { city = "nbo", open = true }
              edge a -memberOf-> t
            }
            ggd has_team {
              pattern { node x: person }
              create {
                node m: team
                edge x -memberOf-> m
                set { m.city = x.city }
              }
            }
            gfd team_city {
              pattern { node m: team }
              when { m.city = "nbo" }
              then { m.open = true }
            }
            "#,
        )
        .unwrap();

        // fmt canonicalizes the create block and is a fixpoint.
        let (code, formatted) = run_vec(&["fmt", path.to_str().unwrap()]);
        assert_eq!(code, 0, "{formatted}");
        assert!(formatted.contains("ggd has_team {"), "{formatted}");
        assert!(formatted.contains("create {"), "{formatted}");
        let path2 = dir.join("mixed2.gfd");
        std::fs::write(&path2, &formatted).unwrap();
        let (code, formatted2) = run_vec(&["fmt", path2.to_str().unwrap()]);
        assert_eq!(code, 0, "{formatted2}");
        assert_eq!(formatted, formatted2, "fmt must be a fixpoint");

        // sat routes through the GGD chase and finds a model.
        for workers in ["1", "2", "8"] {
            let (code, text) = run_vec(&[
                "sat",
                path.to_str().unwrap(),
                "--workers",
                workers,
                "--metrics",
            ]);
            assert_eq!(code, 0, "workers={workers}: {text}");
            assert!(text.contains("GGD chase"), "{text}");
            assert!(text.contains("SATISFIABLE"), "{text}");
            assert!(text.contains("chase:"), "{text}");
        }

        // imp: the chain GGD implies that persons have a team over
        // memberOf; a differently-labelled requirement is not implied.
        let imp_file = dir.join("imp.gfd");
        std::fs::write(
            &imp_file,
            r#"
            ggd has_team {
              pattern { node x: person }
              create { node m: team edge x -memberOf-> m }
            }
            ggd probe_good {
              pattern { node x: person }
              create { node m: team edge x -memberOf-> m }
            }
            ggd probe_bad {
              pattern { node x: person }
              create { node m: team edge x -leads-> m }
            }
            "#,
        )
        .unwrap();
        for workers in ["1", "2", "8"] {
            let (code, text) = run_vec(&[
                "imp",
                imp_file.to_str().unwrap(),
                "--phi",
                "probe_good",
                "--workers",
                workers,
            ]);
            assert_eq!(code, 0, "workers={workers}: {text}");
            assert!(text.contains("IMPLIED"), "{text}");
            let (code, text) = run_vec(&[
                "imp",
                imp_file.to_str().unwrap(),
                "--phi",
                "probe_bad",
                "--workers",
                workers,
            ]);
            assert_eq!(code, 1, "workers={workers}: {text}");
        }

        // detect: person b has no team — a violation with a
        // missing-subgraph witness; person a's is realized.
        for workers in ["1", "2", "8"] {
            let (code, text) = run_vec(&["detect", path.to_str().unwrap(), "--workers", workers]);
            assert_eq!(code, 1, "workers={workers}: {text}");
            assert!(text.contains("1 violation(s) across 1 rule(s)"), "{text}");
            assert!(text.contains("missing"), "{text}");
            assert!(text.contains("requires node m: team"), "{text}");
        }

        // A generating candidate against literal Σ exercises the driver
        // route (Goal::GgdImp): x.v = 1 as a generated assignment follows
        // from the literal rule.
        let drv_file = dir.join("driver.gfd");
        std::fs::write(
            &drv_file,
            r#"
            gfd seed { pattern { node x: t } then { x.v = 1 } }
            ggd probe { pattern { node x: t } create { set { x.v = 1 } } }
            "#,
        )
        .unwrap();
        let (code, text) = run_vec(&["imp", drv_file.to_str().unwrap(), "--phi", "probe"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("IMPLIED"), "{text}");
    }

    #[test]
    fn ggd_gen_budget_exhaustion_is_a_clean_error() {
        let dir = std::env::temp_dir().join("gfd-cli-test-ggd-budget");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runaway.gfd");
        std::fs::write(
            &path,
            "ggd spawn { pattern { node x: person } \
             create { node y: person edge x -parentOf-> y } }\n",
        )
        .unwrap();
        let (code, text) = run_vec(&["sat", path.to_str().unwrap(), "--gen-budget", "25"]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("generation budget"), "{text}");
    }

    #[test]
    fn malformed_rule_files_exit_2_on_every_subcommand() {
        let dir = std::env::temp_dir().join("gfd-cli-test-malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.gfd");
        std::fs::write(&path, "gfd broken { pattern { node x: } \x07\x00 oops").unwrap();
        let p = path.to_str().unwrap();
        for argv in [
            vec!["sat", p],
            vec!["imp", p, "--phi", "x"],
            vec!["minimize", p],
            vec!["detect", p],
            vec!["fmt", p],
            vec!["ged-sat", p],
            vec!["ged-imp", p, "--phi", "x"],
            vec!["resolve", p],
        ] {
            let (code, text) = run_vec(&argv);
            assert_eq!(code, 2, "{argv:?}: {text}");
            assert!(text.starts_with("error:"), "{argv:?}: {text}");
            assert_eq!(text.trim_end().lines().count(), 1, "one-line diag: {text}");
        }
    }

    #[test]
    fn error_diagnostics_go_to_stderr() {
        let argv = vec!["sat".to_string(), "/nonexistent/x.gfd".to_string()];
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_with_err(&argv, &mut out, &mut err);
        assert_eq!(code, 2);
        assert!(out.is_empty(), "stdout stays clean on failure");
        assert!(String::from_utf8(err).unwrap().starts_with("error:"));
    }

    #[test]
    fn expired_deadline_degrades_to_exit_2_everywhere() {
        let dir = std::env::temp_dir().join("gfd-cli-test-deadline");
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("rules.gfd");
        // Unsatisfiable set: without the budget both sat routes exit 1.
        std::fs::write(
            &rules,
            "graph g { node a: t { v = 2 } }\n\
             gfd a { pattern { node x: t } then { x.v = 1 } }\n\
             gfd b { pattern { node x: t } then { x.v = 2 } }\n",
        )
        .unwrap();
        let p = rules.to_str().unwrap();
        for argv in [
            vec!["sat", p, "--deadline-ms", "0"],
            vec!["sat", p, "--seq", "--deadline-ms", "0"],
            vec!["imp", p, "--phi", "a", "--deadline-ms", "0"],
            vec!["ged-sat", p, "--deadline-ms", "0"],
            vec!["ged-imp", p, "--phi", "a", "--deadline-ms", "0"],
            vec!["detect", p, "--deadline-ms", "0"],
        ] {
            let (code, text) = run_vec(&argv);
            assert_eq!(code, 2, "{argv:?}: {text}");
            assert!(
                text.contains("deadline expired"),
                "{argv:?} must name the interrupt: {text}"
            );
            assert!(
                !text.contains("UNSATISFIABLE") && !text.contains("NOT IMPLIED"),
                "an expired run must not claim a definite verdict: {text}"
            );
        }
        // Without the flag the same files produce definite verdicts.
        let (code, text) = run_vec(&["sat", p]);
        assert_eq!(code, 1, "{text}");
        let (code, _) = run_vec(&["detect", p]);
        assert_eq!(code, 1);
    }

    #[test]
    fn stream_checkpoint_resume_matches_a_full_replay() {
        let dir = std::env::temp_dir().join("gfd-cli-test-ckpt");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("stream.gfd");
        std::fs::write(
            &rules,
            "graph g {\n\
               node a: t { v = 1 }\n\
               node b: t { v = 1 }\n\
               edge a -e-> b\n\
             }\n\
             gfd same {\n\
               pattern { node x: t node y: t edge x -e-> y }\n\
               then { x.v = y.v }\n\
             }\n",
        )
        .unwrap();
        let full = "batch\nattr 1 v=2\nbatch\nnode t\nattr 2 v=1\nedge 1 e 2\nbatch\ndel 0 e 1\n";
        let log = dir.join("full.delta");
        std::fs::write(&log, full).unwrap();

        // Reference: a plain full replay.
        let (ref_code, ref_text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            log.to_str().unwrap(),
        ]);
        let ref_final = ref_text.split("after ").nth(1).unwrap();

        // Crashed run: only batch 1 was applied before the "crash",
        // leaving a checkpoint behind.
        let partial = dir.join("partial.delta");
        std::fs::write(&partial, "batch\nattr 1 v=2\n").unwrap();
        let ckpt = dir.join("state.ckpt");
        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            partial.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]);
        assert_eq!(code, 1, "{text}");
        assert!(ckpt.exists(), "checkpoint written");

        // Resume against the full log: batches 2 and 3 replay on top of
        // the persisted state and the final report matches the reference.
        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            log.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]);
        assert_eq!(code, ref_code, "{text}");
        assert!(text.contains("resumed from"), "{text}");
        assert!(text.contains("at batch 1"), "{text}");
        assert!(
            !text.contains("batch 1:"),
            "batch 1 must not replay: {text}"
        );
        assert!(text.contains("batch 2:"), "{text}");
        let resumed_final = text.split("after ").nth(1).unwrap();
        assert_eq!(resumed_final, ref_final, "resume must match full replay");

        // A checkpoint ahead of its log is a clean error.
        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            partial.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("ahead of the log"), "{text}");

        // Checkpoint flags outside --stream are rejected.
        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("--checkpoint"), "{text}");
    }

    #[test]
    fn stream_skip_corrupt_salvages_the_readable_lines() {
        let dir = std::env::temp_dir().join("gfd-cli-test-skipcorrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("rules.gfd");
        std::fs::write(
            &rules,
            "graph g { node a: t { v = 1 } }\n\
             gfd r { pattern { node x: t } then { x.v = 1 } }\n",
        )
        .unwrap();
        // Line 3 is garbled mid-write; line 4 still parses.
        let log = dir.join("torn.delta");
        std::fs::write(&log, "batch\nattr 0 v=2\nattr 0 \nbatch\nattr 0 v=1\n").unwrap();

        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            log.to_str().unwrap(),
        ]);
        assert_eq!(code, 2, "strict mode rejects the log: {text}");

        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            log.to_str().unwrap(),
            "--skip-corrupt",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("skipped corrupt line 3"), "{text}");
        assert!(text.contains("skipped 1 corrupt line(s)"), "{text}");
        assert!(text.contains("batch 2:"), "the good lines replay: {text}");

        // --skip-corrupt outside streaming mode is rejected.
        let (code, text) = run_vec(&["detect", rules.to_str().unwrap(), "--skip-corrupt"]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("--skip-corrupt"), "{text}");
    }

    /// The shared streaming fixture: a two-node graph, one rule, a
    /// three-batch delta log that creates, extends and partly repairs a
    /// violation.
    fn stream_fixture(dir_name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("stream.gfd");
        std::fs::write(
            &rules,
            "graph g {\n\
               node a: t { v = 1 }\n\
               node b: t { v = 1 }\n\
               edge a -e-> b\n\
             }\n\
             gfd same {\n\
               pattern { node x: t node y: t edge x -e-> y }\n\
               then { x.v = y.v }\n\
             }\n",
        )
        .unwrap();
        let log = dir.join("stream.delta");
        std::fs::write(
            &log,
            "batch\nattr 1 v=2\nbatch\nnode t\nattr 2 v=1\nedge 1 e 2\nbatch\ndel 0 e 1\n",
        )
        .unwrap();
        (rules, log)
    }

    #[test]
    fn stream_metrics_accumulate_into_whole_run_totals() {
        let (rules, log) = stream_fixture("gfd-cli-test-stream-totals");
        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            log.to_str().unwrap(),
            "--metrics",
        ]);
        assert_eq!(code, 1, "{text}");
        // One metrics block per batch plus the merged end-of-stream block.
        assert_eq!(text.matches("  workers:").count(), 4, "{text}");
        let totals = text.split("stream totals:").nth(1).expect("totals block");
        // The totals print before the `after N batch(es)` summary so
        // scripts parsing that tail stay stable.
        assert!(totals.contains("after 3 batch(es)"), "{text}");
        // Accumulated scheduler work is visible in the totals block.
        let units = totals
            .lines()
            .find(|l| l.trim_start().starts_with("units:"))
            .expect("totals units line");
        let generated: u64 = units
            .trim_start()
            .strip_prefix("units: ")
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(generated > 0, "merged totals must carry the batches' work");
    }

    #[test]
    fn trace_profile_and_metrics_json_exporters_end_to_end() {
        let (rules, log) = stream_fixture("gfd-cli-test-trace");
        let dir = std::env::temp_dir().join("gfd-cli-test-trace");
        let trace = dir.join("out.trace.json");
        let metrics = dir.join("out.metrics.json");
        let (code, text) = run_vec(&[
            "detect",
            rules.to_str().unwrap(),
            "--stream",
            log.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--profile",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ]);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("wrote trace"), "{text}");
        assert!(text.contains("profile: per-rule evaluation"), "{text}");
        assert!(text.contains("same"), "rule name labels the table: {text}");
        assert!(text.contains("Batch"), "per-batch phase rows: {text}");

        // The emitted Chrome trace validates, both against the built-in
        // field list and against the checked-in schema.
        let (code, check) = run_vec(&["trace-check", trace.to_str().unwrap()]);
        assert_eq!(code, 0, "{check}");
        assert!(check.contains("valid"), "{check}");
        let schema = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/chrome-trace.schema.json"
        );
        let (code, check) = run_vec(&["trace-check", trace.to_str().unwrap(), "--schema", schema]);
        assert_eq!(code, 0, "{check}");

        // The machine-readable report parses with the interchange parser
        // and embeds the aggregated profile.
        let json = std::fs::read_to_string(&metrics).unwrap();
        let doc = gfd_io::jsonval::parse(&json).expect("metrics JSON parses");
        assert!(doc.get("profile").is_some(), "{json}");
        assert!(doc.get("units_dispatched").is_some(), "{json}");

        // A corrupted trace file is rejected with exit 2.
        std::fs::write(&trace, "{\"traceEvents\": [{\"ph\": \"X\"}]}").unwrap();
        let (code, check) = run_vec(&["trace-check", trace.to_str().unwrap()]);
        assert_eq!(code, 2, "{check}");

        // The non-stream path exports through the same flags.
        let (code, text) = run_vec(&["detect", rules.to_str().unwrap(), "--profile"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("profile:"), "{text}");
    }

    #[test]
    fn deadline_overshoot_reports_signed_slack() {
        let dir = std::env::temp_dir().join("gfd-cli-test-overshoot");
        std::fs::create_dir_all(&dir).unwrap();
        let rules = dir.join("rules.gfd");
        std::fs::write(
            &rules,
            "graph g { node a: t { v = 2 } }\n\
             gfd a { pattern { node x: t } then { x.v = 1 } }\n",
        )
        .unwrap();
        // An already-expired deadline: the run finishes past the cut, so
        // the diagnostic must carry strictly negative slack — a
        // sub-millisecond overshoot may not round to `0ms` or vanish.
        let (code, text) = run_vec(&["detect", rules.to_str().unwrap(), "--deadline-ms", "0"]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("deadline slack -"), "{text}");
    }

    #[test]
    fn end_to_end_gen_then_fmt() {
        let (code, text) = run_vec(&["gen", "--rules", "5", "--k", "3", "--l", "2", "--seed", "7"]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("gfd "), "{text}");
        // The generated output must itself parse: pipe through fmt.
        let dir = std::env::temp_dir().join("gfd-cli-test-gen");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.gfd");
        std::fs::write(&path, &text).unwrap();
        let (code, formatted) = run_vec(&["fmt", path.to_str().unwrap()]);
        assert_eq!(code, 0, "{formatted}");
    }
}
