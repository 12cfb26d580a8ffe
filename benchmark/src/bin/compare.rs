//! `rsn-benchmark-compare` — judges a change's result files against a
//! parent's (normally through `benchmark/compare`).
//!
//! ```text
//! rsn-benchmark-compare [--benchmark BENCHMARK.json]
//!                       --base PATH [--base PATH]... --change PATH [--change PATH]...
//! ```
//!
//! Each PATH is a result file or a directory of them (`trace-*.json` files
//! are skipped); runs pair up in file-name order. Exits 1 when a metric
//! regressed or the change failed more, 2 on unusable input (including
//! runs of different lengths).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Content;

use rsn_benchmark::compare::{bounds, collect, report};
use rsn_benchmark::json::parse;

fn files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut out: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.starts_with("trace-")
        })
        .collect();
    out.sort();
    Ok(out)
}

fn load(paths: &[PathBuf]) -> Result<Vec<Content>, String> {
    let mut docs = Vec::new();
    for path in paths {
        for file in files(path)? {
            let body =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            docs.push(parse(&body).map_err(|e| format!("{}: {e}", file.display()))?);
        }
    }
    Ok(docs)
}

fn run() -> Result<bool, String> {
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let (mut base, mut change) = (Vec::new(), Vec::new());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(PathBuf::from).ok_or(format!("{flag} expects a path"));
        match flag.as_str() {
            "--benchmark" => benchmark = value()?,
            "--base" => base.push(value()?),
            "--change" => change.push(value()?),
            other => {
                return Err(format!(
                    "unknown argument {other:?}\nusage: rsn-benchmark-compare \
                     [--benchmark BENCHMARK.json] --base PATH [--base PATH]... \
                     --change PATH [--change PATH]..."
                ))
            }
        }
    }
    if base.is_empty() || change.is_empty() {
        return Err("give at least one --base and one --change path".into());
    }
    let spec = std::fs::read_to_string(&benchmark)
        .map_err(|e| format!("{}: {e}", benchmark.display()))
        .and_then(|text| parse(&text))?;
    let bounds = bounds(&spec)?;
    let (table, regressed) = report(&bounds, &collect(&load(&base)?), &collect(&load(&change)?))?;
    print!("{table}");
    Ok(regressed)
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
