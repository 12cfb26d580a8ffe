//! The layer ladder: each job replayed in-process through the same public
//! functions the daemon and the CLI call, one span per call.
//!
//! The ladders mirror `rsn_serve::wire::execute_with`, `execute_whatif`,
//! the coordinator's fan-out and `rsn_tool sweep` call for call, so their
//! bodies are byte-identical to the programs' (checked by the traced run)
//! and their stage times add up to the programs' own execution time.

use std::hint::black_box;

use robust_rsn::{
    analyze, analyze_graph_with, analyze_mode_range_with_cancel, canonical_network_hash,
    criticality_from_mode_damages, mode_count, solve_greedy, AnalysisOptions, AnalysisSession,
    CancelToken, CostModel, CriticalitySpec, CriticalitySummary, HardeningProblem, PaperSpecParams,
    Parallelism, SessionError, Workspace, WorkspaceDelta,
};
use rsn_model::format::parse_network;
use rsn_serve::http::{encode_response, parse_request_bytes, Response};
use rsn_serve::wire::{
    self, AnalyzeShardResponse, Deadline, Endpoint, HardenResponse, JobError, ParsedNetwork,
    ResolvedJob, ShardModeDamage, WhatifOp, WhatifResponse,
};
use rsn_serve::JobRequest;

use crate::client::{encode, Method, JSON};
use crate::stream::Workload;
use crate::trace::Tracer;

/// The daemon's default body limit, which its request parser enforces.
const MAX_BODY: usize = 8 * 1024 * 1024;

fn internal(e: impl std::fmt::Display) -> JobError {
    JobError::new(500, "internal", e.to_string())
}

/// Warm state carried between what-if jobs, like the daemon's workspace
/// cache: the workspace of the current session.
#[derive(Default)]
pub struct WhatifState {
    workspace: Option<(String, Workspace)>,
    /// Modes re-swept by each `exclude` edit, in job order.
    pub recomputed: Vec<usize>,
}

/// Replays one serving job (its request bytes) through the daemon's path:
/// HTTP parse, JSON decode, resolve, cache key, execute, HTTP encode.
///
/// # Errors
///
/// The daemon's structured error for the job.
pub fn serve(
    tr: &mut Tracer,
    id: u64,
    workload: Workload,
    request: &[u8],
    net: &ParsedNetwork,
    state: &mut WhatifState,
) -> Result<String, JobError> {
    let endpoint = workload.endpoint();
    tr.span("ladder", id, |tr| {
        let (_, job) = decode(tr, id, endpoint, request)?;
        tr.span("server.cache_key", id, |_| black_box(job.canonical_key_with(&net.hash)));
        let body = tr.span("execute", id, |tr| match workload {
            Workload::WhatifSessions => whatif_execute(tr, id, &job, net, state),
            Workload::HardenGreedy => harden_execute(tr, id, &job, net),
            _ => analyze_execute(tr, id, &job, net),
        })?;
        encode_answer(tr, id, &body);
        Ok(body)
    })
}

/// HTTP framing, JSON decoding and resolution of one request.
fn decode(
    tr: &mut Tracer,
    id: u64,
    endpoint: Endpoint,
    request: &[u8],
) -> Result<(JobRequest, ResolvedJob), JobError> {
    let parsed = tr
        .span("http.parse_request", id, |_| parse_request_bytes(request, MAX_BODY))
        .map_err(internal)?
        .ok_or_else(|| internal("truncated request"))?;
    let req = tr.span("wire.parse_request", id, |_| {
        std::str::from_utf8(&parsed.request.body).map_err(internal).and_then(wire::parse_request)
    })?;
    let job = tr.span("wire.resolve", id, |_| wire::resolve(endpoint, &req))?;
    Ok((req, job))
}

fn encode_answer(tr: &mut Tracer, id: u64, body: &str) {
    tr.span("http.encode", id, |_| {
        let response = Response::json(200, body.to_string()).with_header("X-Cache", "miss");
        black_box(encode_response(&response, true))
    });
}

/// `execute_with` for `/v1/analyze`, whole sweep or mode-range shard.
fn analyze_execute(
    tr: &mut Tracer,
    id: u64,
    job: &ResolvedJob,
    net: &ParsedNetwork,
) -> Result<String, JobError> {
    let options = AnalysisOptions { mode: job.mode, sib_policy: job.sib_policy };
    let session = tr.span("session.build", id, |_| {
        AnalysisSession::builder(net.net.clone())
            .with_structure(&net.built)
            .with_options(options)
            .with_parallelism(Parallelism::sequential())
            .with_cancel(CancelToken::none())
            .with_paper_spec(PaperSpecParams::default(), job.seed)
            .build()
    });
    let total = tr.span("shard.mode_count", id, |_| mode_count(session.network(), &options));
    let (lo, hi) = job.mode_range.map_or((0, total), |(lo, hi)| (lo as usize, hi as usize));
    let damages = tr
        .span("kernel.sweep", id, |_| {
            analyze_mode_range_with_cancel(
                session.network(),
                session.spec(),
                &options,
                Parallelism::sequential(),
                &CancelToken::none(),
                lo,
                hi,
            )
        })
        .map_err(|e| JobError::from(SessionError::from(e)))?;
    let body = if job.mode_range.is_some() {
        let response = AnalyzeShardResponse {
            network: session.network().name().to_string(),
            mode_count: total as u64,
            mode_lo: lo as u64,
            mode_hi: hi as u64,
            damages: damages.into_iter().map(ShardModeDamage::from).collect(),
        };
        tr.span("wire.serialize", id, |_| serde_json::to_string(&response)).map_err(internal)?
    } else {
        let crit = tr
            .span("shard.aggregate", id, |_| {
                criticality_from_mode_damages(session.network(), &options, &damages)
            })
            .map_err(internal)?;
        let summary = tr.span("report.summary", id, |_| {
            CriticalitySummary::new(session.network(), &crit, job.top)
        });
        tr.span("wire.serialize", id, |_| serde_json::to_string(&summary)).map_err(internal)?
    };
    tr.span("session.drop", id, |_| drop(session));
    Ok(body)
}

/// `execute_with` for `/v1/harden` with the greedy solver. Like the daemon,
/// it builds the hardening problem twice: once for the response totals and
/// once inside `AnalysisSession::solve`.
fn harden_execute(
    tr: &mut Tracer,
    id: u64,
    job: &ResolvedJob,
    net: &ParsedNetwork,
) -> Result<String, JobError> {
    let options = AnalysisOptions { mode: job.mode, sib_policy: job.sib_policy };
    let tree = tr.span("rsn_sp.tree", id, |_| rsn_sp::tree_from_structure(&net.net, &net.built));
    let session = tr.span("session.build", id, |_| {
        AnalysisSession::builder(net.net.clone())
            .with_tree(tree)
            .with_options(options)
            .with_parallelism(Parallelism::sequential())
            .with_cancel(CancelToken::none())
            .with_paper_spec(PaperSpecParams::default(), job.seed)
            .build()
    });
    let tree = tr.span("session.tree", id, |_| session.tree()).map_err(JobError::from)?;
    let crit = tr.span("criticality.tree_analyze", id, |_| {
        analyze(session.network(), tree, session.spec(), session.options())
    });
    let problem = |tr: &mut Tracer| {
        tr.span("hardening.problem", id, |_| {
            HardeningProblem::new(session.network(), &crit, &CostModel::default())
                .with_parallelism(Parallelism::sequential())
        })
    };
    let first = problem(tr);
    let (total_damage, max_cost) = (first.total_damage(), first.max_cost());
    let second = problem(tr);
    let front = tr.span("hardening.greedy", id, |_| solve_greedy(&second));
    let response = HardenResponse {
        network: session.network().name().to_string(),
        solver: job.solver.describe(),
        total_damage,
        max_cost,
        front,
    };
    let body = tr.span("wire.serialize", id, |_| serde_json::to_string(&response));
    tr.span("session.drop", id, |_| drop((first, second, crit, session)));
    body.map_err(internal)
}

/// `execute_whatif` against the session's warm workspace, building it
/// first when the job opens a new session.
fn whatif_execute(
    tr: &mut Tracer,
    id: u64,
    job: &ResolvedJob,
    net: &ParsedNetwork,
    state: &mut WhatifState,
) -> Result<String, JobError> {
    let key = job.workspace_key_with(&net.hash);
    if state.workspace.as_ref().map(|(k, _)| k) != Some(&key) {
        state.workspace = None;
        let ws = tr.span("workspace.build", id, |_| {
            wire::build_workspace_with(job, net, Parallelism::sequential(), &Deadline::none())
        })?;
        state.workspace = Some((key, ws));
    }
    let ws = &mut state.workspace.as_mut().expect("built above").1;
    let op = job.whatif.as_ref().ok_or_else(|| internal("whatif job without an op"))?;
    let target = tr
        .span("workspace.resolve_target", id, |_| {
            ws.network().nodes().find(|(n, node)| node.label(*n) == op.target()).map(|(n, _)| n)
        })
        .ok_or_else(|| JobError::new(404, "unknown_target", op.target()))?;
    let (delta, edit) = match op {
        WhatifOp::Harden { .. } => {
            (WorkspaceDelta::Harden { primitive: target }, "workspace.edit_harden")
        }
        WhatifOp::Exclude { .. } => {
            (WorkspaceDelta::ExcludeSegment { segment: target }, "workspace.edit_exclude")
        }
        WhatifOp::SetWeights { .. } => return Err(internal("set_weights is not benchmarked")),
    };
    let before = tr.span("workspace.total_damage", id, |_| ws.total_damage());
    let report = tr.span(edit, id, |_| ws.edit(delta)).map_err(JobError::from)?;
    if matches!(op, WhatifOp::Exclude { .. }) {
        state.recomputed.push(report.recomputed_modes);
    }
    let summary = tr.span("workspace.summary", id, |_| ws.summary(job.top));
    let response = WhatifResponse {
        network: ws.network().name().to_string(),
        op: op.kind().to_string(),
        target: op.target().to_string(),
        recomputed_modes: report.recomputed_modes as u64,
        total_damage_before: before,
        total_damage_after: report.total_damage,
        summary,
    };
    tr.span("workspace.undo", id, |_| ws.undo()).map_err(JobError::from)?;
    tr.span("wire.serialize", id, |_| serde_json::to_string(&response)).map_err(internal)
}

/// The reference each ladder is checked against: the daemon's own
/// execution entry point for the same job bodies (a cluster job's shard
/// bodies), each timed as `wire.execute`.
///
/// # Errors
///
/// The daemon's structured error for a job.
pub fn reference(
    tr: &mut Tracer,
    id: u64,
    workload: Workload,
    bodies: &[String],
    net: &ParsedNetwork,
    workspace: &mut Option<(String, Workspace)>,
) -> Result<Vec<String>, JobError> {
    let endpoint = workload.endpoint();
    let mut out = Vec::with_capacity(bodies.len());
    for body in bodies {
        let job = wire::resolve(endpoint, &wire::parse_request(body)?)?;
        let answer = tr.span("reference", id, |tr| {
            tr.span("wire.execute", id, |_| {
                if endpoint != Endpoint::Whatif {
                    return wire::execute_with(
                        &job,
                        net,
                        Parallelism::sequential(),
                        &Deadline::none(),
                    );
                }
                let key = job.workspace_key_with(&net.hash);
                if workspace.as_ref().map(|(k, _)| k) != Some(&key) {
                    *workspace = None;
                    let ws = wire::build_workspace_with(
                        &job,
                        net,
                        Parallelism::sequential(),
                        &Deadline::none(),
                    )?;
                    *workspace = Some((key, ws));
                }
                let ws = &mut workspace.as_mut().expect("built above").1;
                wire::execute_whatif(&job, ws, &Deadline::none())
            })
        })?;
        out.push(answer);
    }
    Ok(out)
}

/// A cluster job replayed by [`fan_out`].
#[derive(Default)]
pub struct FanOut {
    /// The merged body the coordinator answers.
    pub merged: String,
    /// The shard request bodies sent to the workers.
    pub shard_requests: Vec<String>,
    /// The workers' shard answers.
    pub shard_responses: Vec<String>,
}

/// Replays one `cluster-fanout` job through the coordinator's path: decode,
/// mode count, one `shard.dispatch` per shard (request encoding, the
/// worker's ladder, response decoding), then the merge. The dispatches run
/// one after another here; the coordinator runs them in parallel threads.
///
/// # Errors
///
/// The structured error a worker or the merge would answer.
pub fn fan_out(
    tr: &mut Tracer,
    id: u64,
    request: &[u8],
    net: &ParsedNetwork,
    workers: usize,
) -> Result<FanOut, JobError> {
    tr.span("ladder", id, |tr| {
        let (req, job) = decode(tr, id, Endpoint::Analyze, request)?;
        let options = AnalysisOptions { mode: job.mode, sib_policy: job.sib_policy };
        let total = tr.span("shard.mode_count", id, |_| mode_count(&net.net, &options)) as u64;
        let mut out = FanOut::default();
        let mut shards = Vec::new();
        for (lo, hi) in rsn_cluster::coordinator::partition_modes(total, workers) {
            let shard = tr.span("shard.dispatch", id, |tr| {
                let shard = JobRequest { mode_lo: Some(lo), mode_hi: Some(hi), ..req.clone() };
                let body = tr
                    .span("shard.encode_request", id, |_| serde_json::to_string(&shard))
                    .map_err(internal)?;
                let response = tr.span("shard.worker", id, |tr| {
                    let request = encode(Method::Post, "/v1/analyze", JSON, &body);
                    let (_, job) = decode(tr, id, Endpoint::Analyze, &request)?;
                    let out = tr.span("execute", id, |tr| analyze_execute(tr, id, &job, net))?;
                    encode_answer(tr, id, &out);
                    Ok::<_, JobError>(out)
                })?;
                let shard = tr
                    .span("shard.parse_response", id, |_| {
                        serde_json::from_str::<AnalyzeShardResponse>(&response)
                    })
                    .map_err(internal)?;
                out.shard_requests.push(body);
                out.shard_responses.push(response);
                Ok::<_, JobError>(shard)
            })?;
            shards.push(shard);
        }
        out.merged =
            tr.span("shard.merge", id, |_| wire::merge_analyze_shards(&job, net, &shards))?;
        encode_answer(tr, id, &out.merged);
        Ok(out)
    })
}

/// Replays `rsn_tool sweep FILE --seed SEED --threads THREADS` in-process:
/// read, parse, build, spec, stats, batched sweep, teardown. Returns the
/// total damage the CLI prints.
///
/// # Errors
///
/// Read, parse and build failures.
pub fn sweep(
    tr: &mut Tracer,
    id: u64,
    path: &std::path::Path,
    seed: u64,
    threads: usize,
) -> Result<u64, String> {
    tr.span("ladder", id, |tr| {
        let text = tr
            .span("cli.read", id, |_| std::fs::read_to_string(path))
            .map_err(|e| e.to_string())?;
        let (name, structure) =
            tr.span("rsn_model.parse", id, |_| parse_network(&text)).map_err(|e| e.to_string())?;
        let (net, built) =
            tr.span("rsn_model.build", id, |_| structure.build(name)).map_err(|e| e.to_string())?;
        let spec = tr.span("cli.spec", id, |_| {
            CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed)
        });
        tr.span("cli.stats", id, |_| black_box(net.stats()));
        let crit = tr.span("kernel.sweep", id, |_| {
            analyze_graph_with(&net, &spec, &AnalysisOptions::default(), Parallelism::new(threads))
        });
        let total = crit.total_damage();
        tr.span("rsn_model.drop", id, |_| drop((crit, spec, built, net, structure, text)));
        Ok(total)
    })
}

/// Times the network-level layers once on one network (`text`), with spec
/// seed `seed` and `threads` sweep threads: the per-layer figures every
/// workload reports for its own network. Returns the mode count.
///
/// # Errors
///
/// Parse, build and analysis failures.
pub fn layers(
    tr: &mut Tracer,
    id: u64,
    text: &str,
    seed: u64,
    threads: usize,
) -> Result<usize, String> {
    let threads = Parallelism::new(threads);
    let options = AnalysisOptions::default();
    tr.span("layers", id, |tr| {
        let (name, structure) =
            tr.span("rsn_model.parse", id, |_| parse_network(text)).map_err(|e| e.to_string())?;
        let (net, built) =
            tr.span("rsn_model.build", id, |_| structure.build(name)).map_err(|e| e.to_string())?;
        tr.span("rsn_model.csr", id, |_| black_box(net.csr()));
        tr.span("netkey.hash", id, |_| black_box(canonical_network_hash(&net)));
        let spec = tr.span("spec.paper_random", id, |_| {
            CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), seed)
        });
        let total = tr.span("shard.mode_count", id, |_| mode_count(&net, &options));
        let damages = tr
            .span("kernel.sweep", id, |_| {
                analyze_mode_range_with_cancel(
                    &net,
                    &spec,
                    &options,
                    threads,
                    &CancelToken::none(),
                    0,
                    total,
                )
            })
            .map_err(|e| e.to_string())?;
        let crit = tr
            .span("shard.aggregate", id, |_| {
                criticality_from_mode_damages(&net, &options, &damages)
            })
            .map_err(|e| e.to_string())?;
        let summary = tr.span("report.summary", id, |_| CriticalitySummary::new(&net, &crit, 10));
        let tree = tr.span("rsn_sp.tree", id, |_| rsn_sp::tree_from_structure(&net, &built));
        let tree_crit =
            tr.span("criticality.tree_analyze", id, |_| analyze(&net, &tree, &spec, &options));
        let problem = tr.span("hardening.problem", id, |_| {
            HardeningProblem::new(&net, &tree_crit, &CostModel::default())
        });
        tr.span("rsn_model.drop", id, |_| {
            drop((problem, tree_crit, tree, summary, crit, damages, spec, built, net, structure));
        });
        Ok(total)
    })
}
