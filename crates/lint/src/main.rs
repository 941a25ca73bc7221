//! `hrviz-lint` CLI — the CI gate entry point.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Test code is exempt: clippy.toml's allow-*-in-tests covers the other three.
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use hrviz_lint::{diag, lint_workspace_with, RULES};
use hrviz_obs::Collector;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Write to stdout ignoring errors, so a closed pipe (`… | head`) ends
/// the report quietly instead of panicking.
fn out(s: &str) {
    let _ = std::io::stdout().write_all(s.as_bytes());
}

const USAGE: &str = "\
hrviz-lint: workspace static analysis (determinism / panic-freedom / concurrency /
telemetry / invariants)

USAGE:
    cargo run -p hrviz-lint -- [OPTIONS]

OPTIONS:
    --check              exit 1 if any finding remains
    --format <FMT>       report format: human (default) or json
    --root <DIR>         workspace root (default: nearest ancestor with crates/)
    --list-rules         print the rule catalog and exit
    --help               this text
";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
}

struct Opts {
    check: bool,
    format: Format,
    root: Option<PathBuf>,
    list_rules: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts { check: false, format: Format::Human, root: None, list_rules: false };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => o.check = true,
            "--list-rules" => o.list_rules = true,
            "--format" => match it.next().map(String::as_str) {
                Some("json") => o.format = Format::Json,
                Some("human") => o.format = Format::Human,
                other => return Err(format!("--format expects human|json, got {other:?}")),
            },
            "--root" => match it.next() {
                Some(p) => o.root = Some(PathBuf::from(p)),
                None => return Err("--root expects a directory".into()),
            },
            "--help" | "-h" => {
                out(USAGE);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hrviz-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for r in RULES {
            out(&format!("{:<28} [{}] {}\n", r.id, r.family, r.desc));
        }
        return ExitCode::SUCCESS;
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = opts.root.clone().or_else(|| hrviz_lint::find_root(&cwd)) else {
        eprintln!("hrviz-lint: no workspace root found above {}", cwd.display());
        return ExitCode::from(2);
    };

    let obs = Collector::enabled();
    let run = match lint_workspace_with(&root, &obs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hrviz-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    match opts.format {
        Format::Json => out(&diag::json(&run.findings, run.files)),
        Format::Human => {
            out(&diag::human(&run.findings));
            out(&format!("hrviz-lint: {} files\n", run.files));
        }
    }

    if opts.check && !run.findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
