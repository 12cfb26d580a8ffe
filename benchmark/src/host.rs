//! The host and provenance block recorded in every result file: where a
//! number was measured, from which source, and with how much parallelism.

use std::path::Path;
use std::process::Command;

use serde::Content;

use crate::json::{int, obj, text};

/// Cores this process may use (`available_parallelism`): every server
/// pool and sweep is clamped to it.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(dir).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn first_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().next().map(|l| l.trim().to_string())
}

fn opt(value: Option<String>) -> Content {
    value.map_or(Content::Null, Content::Str)
}

/// The host block for a run from checkout `root` with `connections` client
/// connections. The commit and dirty flag are `null` when `root` is not the
/// top of a git work tree.
#[must_use]
pub fn block(root: &Path, nproc: usize, connections: usize) -> Content {
    let toplevel = command_line("git", &["rev-parse", "--show-toplevel"], root);
    let is_repo = toplevel
        .is_some_and(|top| std::fs::canonicalize(top).ok() == std::fs::canonicalize(root).ok());
    let (commit, dirty) = if is_repo {
        let commit = command_line("git", &["rev-parse", "HEAD"], root);
        let dirty = command_line("git", &["status", "--porcelain", "--untracked-files=no"], root)
            .map(|s| Content::Bool(!s.is_empty()))
            .unwrap_or(Content::Null);
        (opt(commit), dirty)
    } else {
        (Content::Null, Content::Null)
    };
    let loadavg = first_line("/proc/loadavg")
        .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "));
    obj(vec![
        ("nproc", int(nproc as u64)),
        ("commit", commit),
        ("dirty", dirty),
        ("rustc", opt(command_line("rustc", &["-V"], root))),
        ("cargo_features", text("default (robust-rsn wide-lanes off)")),
        ("profile", text("release")),
        ("kernel", opt(first_line("/proc/sys/kernel/osrelease"))),
        ("loadavg_at_start", opt(loadavg)),
        ("connections", int(connections as u64)),
        ("rsnd_workers", int(nproc as u64)),
        ("rsnd_analysis_threads", int(1)),
        ("cluster_workers", int(nproc as u64)),
        ("sweep_threads", int(nproc as u64)),
    ])
}
