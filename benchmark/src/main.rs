//! `rsn-benchmark` — runs the repository benchmark (normally through
//! `benchmark/run.sh`, which builds the binaries first).
//!
//! ```text
//! rsn-benchmark --root DIR --bin-dir DIR [--workload NAME] [--seed N]
//!               [--seconds S] [--trace [0|1]] [--out FILE] [--smoke]
//! ```
//!
//! A run measures for `run_seconds` of `<root>/BENCHMARK.json` (2 s with
//! `--smoke`), so both sides of a comparison run equally long; `--seconds`,
//! when given, must equal it. Without `--workload` every workload runs in
//! turn. The last line printed
//! for a workload is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics, or per-layer ones with `--trace`).
//! Every run also writes a result file with the host block and sample
//! counts: `--out FILE`, or `benchmark/results/<workload>-<seed>.json`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Content;

use rsn_benchmark::host;
use rsn_benchmark::json::{as_f64, get, int, num, obj, parse, print, print_pretty, text};
use rsn_benchmark::run::{self, Config, Outcome};
use rsn_benchmark::stream::Workload;

const USAGE: &str = "usage: rsn-benchmark --root DIR --bin-dir DIR [--workload NAME] [--seed N] \
                     [--seconds S] [--trace [0|1]] [--out FILE] [--smoke]";

struct Args {
    root: PathBuf,
    bin_dir: PathBuf,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        bin_dir: PathBuf::from("target/release"),
        workloads: Workload::ALL.to_vec(),
        seed: 2022,
        seconds: 0.0,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut seconds = None;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--bin-dir" => args.bin_dir = PathBuf::from(value("--bin-dir")?),
            "--workload" => {
                let name = value("--workload")?;
                let workload =
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                args.workloads = vec![workload];
            }
            "--seed" => args.seed = number(&value("--seed")?)?,
            "--seconds" => seconds = Some(number::<f64>(&value("--seconds")?)?),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => args.smoke = true,
            "--trace" => {
                args.trace = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    args.trace = v == "1";
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    args.seconds = run_seconds(&args.root)?;
    if let Some(s) = seconds.filter(|s| *s != args.seconds) {
        return Err(format!(
            "--seconds {s} differs from run_seconds {} in BENCHMARK.json",
            args.seconds
        ));
    }
    if args.smoke {
        args.seconds = 2.0;
        args.trace = false;
    }
    Ok(args)
}

/// `run_seconds` of `<root>/BENCHMARK.json`.
fn run_seconds(root: &Path) -> Result<f64, String> {
    let path = root.join("BENCHMARK.json");
    let spec = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|text| parse(&text))?;
    get(&spec, "run_seconds")
        .and_then(as_f64)
        .filter(|s| *s > 0.0)
        .ok_or_else(|| format!("{}: no positive run_seconds", path.display()))
}

fn number<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

fn metrics_json(outcome: &Outcome) -> Content {
    Content::Map(
        outcome
            .metrics
            .iter()
            .map(|m| {
                (m.name.to_string(), obj(vec![("value", num(m.value)), ("unit", text(m.unit))]))
            })
            .collect(),
    )
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn summary_line(outcome: &Outcome) -> String {
    print(&obj(vec![
        ("correct", Content::Bool(outcome.correct)),
        ("attempted", int(outcome.attempted)),
        ("failed", int(outcome.failed)),
        ("metrics", metrics_json(outcome)),
    ]))
}

fn result_file(cfg: &Config, host: &Content, outcome: &Outcome) -> Content {
    obj(vec![
        ("workload", text(cfg.workload.name())),
        ("seed", int(cfg.seed)),
        ("seconds", num(cfg.seconds)),
        ("trace", Content::Bool(cfg.trace)),
        ("host", host.clone()),
        ("correct", Content::Bool(outcome.correct)),
        ("attempted", int(outcome.attempted)),
        ("failed", int(outcome.failed)),
        ("metrics", metrics_json(outcome)),
        ("detail", obj(outcome.detail.iter().map(|(k, v)| (*k, v.clone())).collect())),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = host::nproc();
    let mut results = Vec::new();
    let mut all_correct = true;
    for &workload in &args.workloads {
        let cfg = Config {
            root: args.root.clone(),
            bin_dir: args.bin_dir.clone(),
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
            nproc,
        };
        let host = host::block(&cfg.root, nproc, cfg.connections());
        let outcome = match run::run(&cfg) {
            Ok(outcome) => outcome,
            Err(msg) => {
                eprintln!("error: {}: {msg}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        all_correct &= outcome.correct;
        if args.smoke {
            println!(
                "smoke {}: {} ({} attempted, {} failed)",
                workload.name(),
                if outcome.correct { "ok" } else { "FAILED" },
                outcome.attempted,
                outcome.failed
            );
            continue;
        }
        for m in &outcome.metrics {
            println!("{:<16} {:<28} {:>14.4} {}", workload.name(), m.name, m.value, m.unit);
        }
        let file = result_file(&cfg, &host, &outcome);
        if args.out.is_none() {
            let suffix = if cfg.trace { "-trace" } else { "" };
            let path =
                cfg.results_dir().join(format!("{}-{}{suffix}.json", workload.name(), cfg.seed));
            if let Err(e) = std::fs::write(&path, print_pretty(&file)) {
                eprintln!("error: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        results.push(file);
        println!("{}", summary_line(&outcome));
    }
    if let Some(out) = &args.out {
        let doc = if results.len() == 1 { results.remove(0) } else { Content::Seq(results) };
        if let Err(e) = std::fs::write(out, print_pretty(&doc)) {
            eprintln!("error: {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a response differed from the in-process recomputation");
        ExitCode::from(2)
    }
}
