//! Every `hrviz …` command shown in a fenced block of the README or the
//! verify skill goes through the real argument parser, which also checks
//! the per-subcommand flag allowlist. Nothing is executed.
//!
//! A command starts after `hrviz`, `target/release/hrviz`, or the `--`
//! that follows `cargo run … --bin hrviz`. Lines ending in `\` continue
//! the command; a shell operator (`||`, `&&`, `|`, `&`, `;`) or a `#`
//! comment ends it; `...`/`…` placeholders are skipped.

use hrviz_cli::{parse_args, USAGE};
use std::path::Path;

/// The documents whose commands are checked, relative to the workspace root.
const DOCS: [&str; 2] = ["README.md", ".claude/skills/verify/SKILL.md"];

/// The logical lines of every fenced block in `text`, `\` continuations
/// joined, each with the 1-based line it starts on.
fn fenced_lines(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    let mut pending: Option<(usize, String)> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence {
            continue;
        }
        let (start, mut joined) = pending.take().unwrap_or((i + 1, String::new()));
        let body = line.trim_end();
        match body.strip_suffix('\\') {
            Some(head) => {
                joined.push_str(head);
                joined.push(' ');
                pending = Some((start, joined));
            }
            None => {
                joined.push_str(body);
                out.push((start, joined));
            }
        }
    }
    out
}

/// The argument vectors of the `hrviz` commands on one logical line.
fn commands(line: &str) -> Vec<Vec<String>> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let tok = toks[i];
        i += 1;
        if tok != "hrviz" && !tok.ends_with("/hrviz") {
            continue;
        }
        if i >= 2 && toks[i - 2] == "--bin" {
            // `cargo run … --bin hrviz -- ARGS`
            if toks.get(i) != Some(&"--") {
                continue;
            }
            i += 1;
        }
        let mut args = Vec::new();
        while let Some(&t) = toks.get(i) {
            if matches!(t, "||" | "&&" | "|" | "&" | ";") || t.starts_with('#') {
                break;
            }
            i += 1;
            if t != "..." && t != "…" {
                args.push(t.trim_matches('"').to_string());
            }
        }
        out.push(args);
    }
    out
}

/// The subcommands the usage line lists: `hrviz <a|b|…> [options]`.
fn usage_commands() -> Vec<&'static str> {
    let (_, rest) = USAGE.split_once('<').expect("usage names its subcommands");
    let (list, _) = rest.split_once('>').expect("usage closes its subcommand list");
    list.split('|').collect()
}

#[test]
fn documented_hrviz_commands_parse_and_use_accepted_flags() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let known = usage_commands();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line_no, line) in fenced_lines(&text) {
            for args in commands(&line) {
                let at = format!("{doc}:{line_no}: hrviz {}", args.join(" "));
                // `parse_args` rejects any flag the subcommand does not take.
                let cli = parse_args(&args).unwrap_or_else(|e| panic!("{at}: {e}"));
                assert!(known.contains(&cli.command.as_str()), "{at}: unknown subcommand");
                checked += 1;
            }
        }
    }
    assert!(checked >= 15, "only {checked} documented commands found");
}

#[test]
fn extraction_follows_the_documented_shapes() {
    let block = "```sh\n\
                 cargo run --release -p hrviz-cli --bin hrviz -- \\\n    \
                 view --terminals 72 --svg out/v.svg   # a comment\n\
                 hrviz fsck --store s || \\\n    hrviz sweep ... --store s --resume\n\
                 target/release/hrviz serve --store s &\n\
                 cargo run -p hrviz-lint -- --check\n\
                 ```\n";
    let found: Vec<Vec<String>> =
        fenced_lines(block).iter().flat_map(|(_, line)| commands(line)).collect();
    let words = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    assert_eq!(
        found,
        vec![
            words("view --terminals 72 --svg out/v.svg"),
            words("fsck --store s"),
            words("sweep --store s --resume"),
            words("serve --store s"),
        ]
    );
}
