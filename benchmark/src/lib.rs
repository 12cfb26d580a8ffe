//! The repository benchmark: five seeded workloads through `rsnd`, `rsnc`
//! and `rsn_tool sweep`, measured from one client process, with an
//! in-process layer ladder for the traced run. See `benchmark/README.md`.

pub mod client;
pub mod compare;
pub mod host;
pub mod json;
pub mod ladder;
pub mod procs;
pub mod prom;
pub mod run;
pub mod stats;
pub mod stream;
pub mod trace;
