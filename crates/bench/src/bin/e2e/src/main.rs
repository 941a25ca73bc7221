//! `e2e` — the repository's one paper-scale benchmark.
//!
//! One command builds its inputs from `--seed`, runs a workload with
//! `hrviz_obs` tracing off, checks the outputs, and prints every metric by
//! name with its unit, sample count and failed/attempted operations; the last
//! line of standard output is the JSON object the driver reads. `--trace 1`
//! makes the separate traced pass that yields the per-layer numbers. See the
//! README beside this file for the workloads and what each metric means.
//!
//! The sources use only the layer crates' public APIs (never `hrviz_bench`),
//! so edits to the figure harness cannot change what is measured.

mod client;
mod explore;
mod gen;
mod host;
mod layers;
mod report;
mod sim;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hrviz_obs::Json;

use gen::Scale;
use report::{fresh_dir, Ctx, Outcome};

/// The four workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["sim_uniform", "live_bursty", "explore_cold", "explore_warm"];

const USAGE: &str = "usage: e2e [--workload <name>] [--seed <u64>] [--seconds <n>] \
                     [--trace <0|1>] [--smoke] [--check-repeat]";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        check_repeat: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                args.workloads = vec![name.clone()];
            }
            "--seed" => {
                args.seed =
                    value("a u64")?.parse().map_err(|_| "--seed takes a u64".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `run_seconds` and the end-to-end bounds, read from the `BENCHMARK.json`
/// of the checkout the benchmark runs in: the file is their only home.
struct Contract {
    run_seconds: f64,
    /// `(metric, better, bound)`.
    bounds: Vec<(String, String, f64)>,
}

/// The checkout this run belongs to: the nearest directory holding
/// `BENCHMARK.json` at or above the current directory, else above the
/// executable (a build under `target/` or `.bench_build/` sits inside it).
fn checkout_root() -> Option<PathBuf> {
    let above = |start: PathBuf| {
        start.ancestors().find(|dir| dir.join("BENCHMARK.json").is_file()).map(Path::to_path_buf)
    };
    std::env::current_dir()
        .ok()
        .and_then(above)
        .or_else(|| std::env::current_exe().ok().and_then(above))
}

fn read_contract(root: &Path) -> Result<Contract, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
    let bounds = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Some((field(m, "name")?, field(m, "better")?, m.get("bound").and_then(Json::as_f64)?))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
    let run_seconds =
        doc.get("run_seconds").and_then(Json::as_f64).ok_or("BENCHMARK.json: no run_seconds")?;
    Ok(Contract { run_seconds, bounds })
}

fn run_workload(name: &str, ctx: &Ctx, trace: bool) -> Outcome {
    if trace {
        return layers::traced(name, ctx);
    }
    match name {
        "sim_uniform" => sim::uniform(ctx),
        "live_bursty" => sim::bursty(ctx),
        "explore_cold" => explore::cold(ctx),
        "explore_warm" => explore::warm(ctx),
        other => unreachable!("workload {other:?} passed argument validation"),
    }
}

fn metrics_json(out: &Outcome, with_samples: bool) -> Json {
    Json::Obj(
        out.metrics
            .iter()
            .map(|m| {
                let mut fields =
                    vec![("value", Json::F64(m.value)), ("unit", Json::Str(m.unit.to_string()))];
                if with_samples {
                    fields.push(("samples", Json::U64(m.samples)));
                }
                (m.name.clone(), Json::obj(fields))
            })
            .collect(),
    )
}

/// The line the driver reads: exactly these four keys.
fn driver_line(out: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::U64(out.attempted.max(1))),
        ("failed", Json::U64(out.failed)),
        ("metrics", metrics_json(out, false)),
    ])
    .render()
}

fn print_outcome(name: &str, out: &Outcome) {
    for m in &out.metrics {
        println!("  {:<34} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
    }
    for (what, ok) in &out.checks {
        println!("  check {} {what}", if *ok { "ok    " } else { "FAILED" });
    }
    println!("  sim_digest {name} {}", out.sim_digest);
    println!("  ops {} attempted, {} failed", out.attempted, out.failed);
}

fn write_result(dir: &Path, name: &str, args: &Args, ctx: &Ctx, out: &Outcome) {
    let suffix = if args.trace { "trace_result" } else { "result" };
    let doc = Json::obj([
        ("workload", Json::Str(name.to_string())),
        ("mode", Json::Str(if args.trace { "traced" } else { "end_to_end" }.to_string())),
        ("scale", Json::Str(ctx.scale.name.to_string())),
        ("seed", Json::U64(ctx.seed)),
        ("seconds", Json::F64(ctx.seconds)),
        ("host", host::facts()),
        ("load", Json::obj(out.load.iter().map(|(k, v)| (*k, v.clone())))),
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failed)),
        (
            "checks",
            Json::Arr(
                out.checks
                    .iter()
                    .map(|(what, ok)| {
                        Json::obj([("check", Json::Str(what.clone())), ("ok", Json::Bool(*ok))])
                    })
                    .collect(),
            ),
        ),
        ("sim_digest", Json::Str(out.sim_digest.clone())),
        ("metrics", metrics_json(out, true)),
        // The benchmark defines the measurement; it claims no gain.
        ("claim", Json::Null),
    ]);
    let path = dir.join(format!("{suffix}_{name}.json"));
    if let Err(e) = std::fs::write(&path, doc.render() + "\n") {
        eprintln!("e2e: cannot write {}: {e}", path.display());
    }
}

/// Run one workload in this process, print and record it.
fn run_here(name: &str, args: &Args, scale: Scale, seconds: f64, out_dir: &Path) -> Outcome {
    let scratch = fresh_dir(&out_dir.join(format!("scratch_{name}")));
    let ctx = Ctx { scale, seed: args.seed, seconds, scratch };
    println!(
        "e2e {name} seed={} seconds={seconds} scale={} trace={}",
        args.seed,
        scale.name,
        u8::from(args.trace)
    );
    let out = run_workload(name, &ctx, args.trace);
    print_outcome(name, &out);
    write_result(out_dir, name, args, &ctx, &out);
    // Scratch stores are inputs and by-products, not results.
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    println!("{}", driver_line(&out));
    out
}

/// What a child run reported on its last line: `correct` and the metric values.
type Reported = (bool, Vec<(String, f64)>);

/// Run one workload the way the driver does — its own process, so peak RSS
/// and allocator state start fresh — echo its output, and read its last line.
fn run_child(name: &str, args: &Args, seconds: f64) -> Option<Reported> {
    let exe = std::env::current_exe().ok()?;
    let mut child = std::process::Command::new(exe);
    child.args(["--workload", name, "--seed", &args.seed.to_string()]);
    child.args(["--seconds", &seconds.to_string(), "--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        child.arg("--smoke");
    }
    let output = child.stderr(std::process::Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = Json::parse(stdout.lines().last()?).ok()?;
    let Json::Obj(metrics) = line.get("metrics")? else { return None };
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some((line.get("correct")?.as_bool()? && output.status.success(), values))
}

/// `--check-repeat`: every end-to-end metric of two sets compared against its
/// bound. Returns whether every pair agreed.
fn check_repeat(contract: &Contract, names: &[String], sets: &[Vec<Option<Reported>>]) -> bool {
    let mut agreed = true;
    println!("check-repeat: relative difference of two sets against each bound");
    for (i, name) in names.iter().enumerate() {
        for (metric, better, bound) in &contract.bounds {
            let value = |set: &Vec<Option<Reported>>| {
                let (_, values) = set[i].as_ref()?;
                values.iter().find(|(n, _)| n == metric).map(|(_, v)| *v)
            };
            let (Some(x), Some(y)) = (value(&sets[0]), value(&sets[1])) else {
                println!("  {name:<13} {metric:<18} missing");
                agreed = false;
                continue;
            };
            // How much worse one set is than the other, either way round.
            let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
            let worse = if better == "higher" { (hi - lo) / hi } else { (hi - lo) / lo };
            let ok = worse <= *bound;
            agreed &= ok;
            println!(
                "  {name:<13} {metric:<18} {x:>14.4} {y:>14.4}  diff {:>6.2}%  bound {:>5.1}%  {}",
                worse * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    agreed
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = checkout_root() else {
        eprintln!("e2e: no BENCHMARK.json above the current directory or the executable");
        return ExitCode::from(2);
    };
    let contract = match read_contract(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.smoke { Scale::smoke() } else { Scale::paper() };
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.5 } else { contract.run_seconds });
    // Scratch stores and result files live under `target/e2e/`, never `out/`.
    let out_dir = root.join("target").join("e2e");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("e2e: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    // One workload runs here; a set runs as one child process per workload,
    // exactly as the driver would run them.
    let ok = match (&args.workloads[..], args.check_repeat) {
        ([name], false) => run_here(name, &args, scale, seconds, &out_dir).correct(),
        (names, repeat) => {
            let sets: Vec<Vec<Option<Reported>>> = (0..if repeat { 2 } else { 1 })
                .map(|_| names.iter().map(|name| run_child(name, &args, seconds)).collect())
                .collect();
            let correct = sets.iter().flatten().all(|r| r.as_ref().is_some_and(|(ok, _)| *ok));
            correct && (!repeat || check_repeat(&contract, names, &sets))
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e: an output check, an operation or a repeat bound failed (see above)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse_and_bad_ones_are_refused() {
        let a = parse_args(&argv(&[
            "--workload",
            "explore_warm",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workloads, ["explore_warm"]);
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(10.0), true));
        assert_eq!(parse_args(&[]).unwrap().workloads.len(), 4);
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--trace", "yes"])).is_err());
        assert!(parse_args(&argv(&["--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--seed"])).is_err());
    }

    /// `BENCHMARK.json` names what this program reports, no more and no less.
    #[test]
    fn benchmark_json_lists_exactly_what_is_reported() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the package");
        let doc =
            Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|entry| entry.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(names("end_to_end"), report::END_TO_END);
        assert_eq!(names("per_layer"), layers::PER_LAYER);
        let contract = read_contract(root).unwrap();
        assert!(contract.bounds.iter().all(|(_, _, bound)| *bound > 0.0 && *bound <= 0.25));
        assert!(contract
            .bounds
            .iter()
            .any(|(name, better, _)| name == "setup_s" && better == "lower"));
    }

    #[test]
    fn driver_line_has_exactly_the_four_keys_and_fails_closed() {
        let mut out = Outcome::default();
        out.metrics.push(report::Metric::new("setup_s", "s", 0.25, 3));
        out.op(true);
        let line = Json::parse(&driver_line(&out)).unwrap();
        let Json::Obj(pairs) = &line else { panic!("object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let m = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        out.check("a check that fails", false);
        assert!(!out.correct());
        out.checks.clear();
        out.op(false);
        assert!(!out.correct());
    }
}
