//! `hrviz-lint` CLI — the CI gate entry point.

#![forbid(unsafe_code)]

use hrviz_lint::{apply_baseline, baseline_findings, diag, lint_workspace_with, Baseline, RULES};
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
    --check              exit 1 if any non-grandfathered finding remains
    --format <FMT>       report format: human (default) or json
    --root <DIR>         workspace root (default: nearest ancestor with crates/)
    --baseline <FILE>    grandfather list (default <root>/lint-baseline.json)
    --fix-baseline       rewrite the baseline to the current findings
                         (drops stale entries; --update-baseline is an alias)
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
    baseline: Option<PathBuf>,
    fix_baseline: bool,
    list_rules: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        check: false,
        format: Format::Human,
        root: None,
        baseline: None,
        fix_baseline: false,
        list_rules: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => o.check = true,
            "--fix-baseline" | "--update-baseline" => o.fix_baseline = true,
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
            "--baseline" => match it.next() {
                Some(p) => o.baseline = Some(PathBuf::from(p)),
                None => return Err("--baseline expects a file".into()),
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
    let baseline_path = opts.baseline.clone().unwrap_or_else(|| root.join("lint-baseline.json"));

    let obs = Collector::enabled();
    let run = match lint_workspace_with(&root, &obs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hrviz-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut findings = run.findings;

    if opts.fix_baseline {
        let keep: Vec<_> = findings
            .iter()
            .filter(|f| hrviz_lint::rule(f.rule).is_some_and(|r| r.family != "meta"))
            .cloned()
            .collect();
        let text = Baseline::render(&keep);
        if let Err(e) = std::fs::write(&baseline_path, &text) {
            eprintln!("hrviz-lint: write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        out(&format!(
            "hrviz-lint: wrote {} ({} grandfathered findings)\n",
            baseline_path.display(),
            keep.len()
        ));
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("hrviz-lint: {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        },
        Err(_) => Baseline::default(),
    };
    // A non-empty baseline is itself debt, and stale entries are hard
    // errors: both arrive as unbaselineable meta findings.
    let meta = baseline_findings(&baseline, &findings);
    findings.extend(meta);
    apply_baseline(&mut findings, &baseline);

    let active = findings.iter().filter(|f| !f.baselined).count();
    match opts.format {
        Format::Json => out(&diag::json(&findings, run.files)),
        Format::Human => {
            let (report, _) = diag::human(&findings);
            out(&report);
            out(&format!("hrviz-lint: {} files\n", run.files));
        }
    }

    if opts.check && active > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
