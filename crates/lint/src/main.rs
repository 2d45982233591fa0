//! CLI entry point for `simpadv-lint`.
//!
//! ```text
//! simpadv-lint [--root DIR] [--config FILE] [--rules SPEC] [--json] [--deny] [--list]
//! simpadv-lint graph --dot [--root DIR]
//! ```
//!
//! Exit codes:
//! - `0` — clean: no diagnostics, or diagnostics without `--deny`
//! - `1` — findings with `--deny`
//! - `2` — usage or configuration error (bad flags, malformed lint.toml,
//!   unreadable root)
//!
//! The tool never writes files (that is R9's job to police): `graph
//! --dot` prints to stdout for the caller to redirect.

use simpadv_lint::{collect_files, config, render_json, rules, run, semrules};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    rules: Option<String>,
    json: bool,
    deny: bool,
    list: bool,
    graph: bool,
    dot: bool,
}

fn usage() -> &'static str {
    "usage: simpadv-lint [--root DIR] [--config FILE] [--rules SPEC] [--json] [--deny] [--list]\n\
     \x20      simpadv-lint graph --dot [--root DIR]\n\
     \n\
     --root DIR       workspace root to analyze (default: current directory)\n\
     --config FILE    lint.toml (default: <root>/lint.toml if present)\n\
     --rules SPEC     comma list of ids/ranges: R1, R1-R10, S1-S5, R2,S4 ...;\n\
     \x20                a range selects the registered ids inside it\n\
     --rule RN        alias for --rules with a single id\n\
     --json           emit diagnostics as a JSON array\n\
     --deny           exit 1 when any diagnostic is emitted (CI mode)\n\
     --list           print the rule catalogue (R-tier, then S-tier) and exit\n\
     \n\
     graph --dot      print the workspace call graph in Graphviz DOT format\n\
     \n\
     exit codes: 0 clean, 1 findings (--deny), 2 usage/configuration error\n"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        rules: None,
        json: false,
        deny: false,
        list: false,
        graph: false,
        dot: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("graph") {
        it.next();
        args.graph = true;
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = PathBuf::from(
                    it.next().ok_or_else(|| "--root requires a directory".to_string())?,
                );
            }
            "--config" => {
                args.config = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--config requires a file".to_string())?,
                ));
            }
            "--rules" | "--rule" => {
                let spec = it
                    .next()
                    .ok_or_else(|| format!("{a} requires a spec (e.g. R1, R1-R10, S1-S5)"))?;
                rules::expand_spec(&spec)?;
                args.rules = Some(spec);
            }
            "--dot" => args.dot = true,
            "--json" => args.json = true,
            "--deny" => args.deny = true,
            "--list" => args.list = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.graph && !args.dot {
        return Err("the graph subcommand requires --dot".to_string());
    }
    if args.dot && !args.graph {
        return Err("--dot only applies to the graph subcommand".to_string());
    }
    Ok(args)
}

fn print_list() {
    println!("Syntactic rules (file-local, token-accurate):");
    for rule in rules::RULES {
        if rule.id.starts_with('R') {
            println!("  {}: {}", rule.id, rule.summary);
        }
    }
    println!();
    println!("Semantic rules (workspace-wide: symbol table + call graph + taint):");
    for rule in rules::RULES {
        if rule.id.starts_with('S') {
            println!("  {}: {}", rule.id, rule.summary);
        }
    }
    println!();
    println!("exit codes: 0 clean, 1 findings (--deny), 2 usage error");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if args.list {
        print_list();
        return ExitCode::SUCCESS;
    }

    let ws = match collect_files(&args.root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("error: walking {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    if args.graph {
        let model = semrules::SemanticModel::build(&ws);
        print!("{}", model.graph.to_dot());
        return ExitCode::SUCCESS;
    }

    let config_path = args.config.clone().or_else(|| {
        let default = args.root.join("lint.toml");
        default.exists().then_some(default)
    });
    let cfg = match config_path {
        Some(path) => {
            let src = match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match config::parse(&src) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => config::Config::default(),
    };

    let diags = run(&ws, &cfg, args.rules.as_deref());

    if args.json {
        print!("{}", render_json(&diags));
    } else {
        for d in &diags {
            print!("{}", d.render());
        }
        let scope = args.rules.as_deref().unwrap_or(rules::ALL_RULES_SPEC);
        eprintln!(
            "simpadv-lint: {} file(s) analyzed, {} diagnostic(s) [{}]",
            ws.files.len(),
            diags.len(),
            scope
        );
    }

    if args.deny && !diags.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
