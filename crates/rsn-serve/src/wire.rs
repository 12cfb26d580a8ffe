//! The JSON wire contract: requests, responses, resolution and execution.
//!
//! A submission is a [`JobRequest`] — the network in the textual `.rsn`
//! format (or a `network_hash` referencing a registered network) plus
//! optional analysis/solver knobs. [`resolve`] applies defaults and
//! validates it into a [`ResolvedJob`]. The network itself is parsed and
//! built once into a [`ParsedNetwork`], whose canonical content hash
//! ([`robust_rsn::canonical_network_hash`]) keys the result cache, the
//! workspace cache and the persistent registry — so the three can never
//! disagree about network identity, and two texts of the same network share
//! every cache. [`execute_with`] runs the job through [`AnalysisSession`]
//! and returns the exact response body.
//!
//! Determinism: the vendored serde shim serializes struct fields in
//! declaration order and sequences in element order, `Criticality::ranked`,
//! `HardeningFront` and the fault-simulation campaign's `ValidationReport`
//! are deterministically ordered, and the analysis itself is bit-identical
//! at any thread count — so the same resolved job always produces the same
//! bytes, and a cache hit is indistinguishable from a fresh computation
//! except for its `X-Cache` header. `/v1/harden` bodies are printed by
//! [`encode_harden_response`], which copies the id prefixes neighbouring
//! solutions share and writes the serde shim's exact bytes. The cluster
//! coordinator reads shard bodies back with [`decode_analyze_shard`], a
//! one-pass decoder of exactly the shim's grammar for
//! [`AnalyzeShardResponse`].

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use moea::{Nsga2Config, Spea2Config};
use robust_rsn::{
    analyze_mode_range, canonical_network_hash, merge_mode_damages, AnalysisOptions, AnalysisPlan,
    AnalysisSession, CancelToken, CriticalitySummary, DoubleFaultSummary, HardeningFront,
    HardeningSolution, ModeAggregation, NetworkHash, PaperSpecParams, Parallelism, SessionError,
    SibCellPolicy, Solver, Workspace, WorkspaceDelta, WorkspaceError,
};
use rsn_model::format::parse_network;
use rsn_model::{BuiltStructure, NodeId, ScanNetwork};
use rsn_sp::{tree_from_structure, DecompTree};
use serde::{Deserialize, Serialize};

use crate::http::{Response, SharedBody};

/// A job submission: the network (inline text or registry hash) plus
/// optional knobs. Missing fields take the defaults documented per field
/// (mirroring `rsn_tool`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// The network in the textual `.rsn` format. Exactly one of `network`
    /// and `network_hash` must be given.
    pub network: Option<String>,
    /// The canonical hash (64 hex digits) of a network previously registered
    /// via `PUT /v1/networks`, replacing the inline text.
    pub network_hash: Option<String>,
    /// Seed of the paper's randomized §VI specification (default 2022).
    pub seed: Option<u64>,
    /// Use instrument-kind default weights instead of the paper spec.
    pub kind_weights: Option<bool>,
    /// Fault-mode aggregation: `"worst"` (default), `"sum"`, or `"mean"`.
    pub mode: Option<String>,
    /// SIB cell policy: `"combined"` (default) or `"segment-only"`.
    pub sib_policy: Option<String>,
    /// Rows in the ranked criticality list (default 10).
    pub top: Option<usize>,
    /// Per-request deadline in milliseconds (default/cap set by the server).
    pub timeout_ms: Option<u64>,
    /// Solver for `/v1/harden`: `"spea2"` (default), `"nsga2"`, `"greedy"`,
    /// `"exact"`, or `"random"`.
    pub solver: Option<String>,
    /// Generations for the evolutionary solvers (default 100).
    pub generations: Option<usize>,
    /// Population/archive size for the evolutionary solvers (default 100).
    pub population: Option<usize>,
    /// Sample count for the random solver (default 1024).
    pub samples: Option<usize>,
    /// State budget for the exact solver (default 4 000 000).
    pub max_states: Option<usize>,
    /// RNG seed for the solver (default 2022).
    pub solver_seed: Option<u64>,
    /// What-if operation for `/v1/whatif`: `"harden"`, `"exclude"`, or
    /// `"set_weights"` (required there, ignored elsewhere).
    pub op: Option<String>,
    /// Target primitive of the what-if operation, by name (or `nN` id
    /// label for anonymous nodes).
    pub target: Option<String>,
    /// New observation weight for `op = "set_weights"`.
    pub obs_weight: Option<u64>,
    /// New setting weight for `op = "set_weights"`.
    pub set_weight: Option<u64>,
    /// For `/v1/analyze`: also run the exact double-fault sweep (every
    /// unordered pair of single faults, batched into mode-major lane
    /// blocks) and embed its statistics in the response (default false;
    /// ignored by other endpoints).
    pub exact_double: Option<bool>,
    /// For `/v1/analyze`: evaluate only fault modes `[mode_lo, mode_hi)` of
    /// the canonical mode table and return an [`AnalyzeShardResponse`]
    /// instead of a summary. Set by the cluster coordinator when it
    /// partitions one sweep across workers; both bounds must be given
    /// together.
    pub mode_lo: Option<u64>,
    /// Exclusive upper bound of the shard's mode range (see `mode_lo`).
    pub mode_hi: Option<u64>,
}

/// The endpoint a job was submitted to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `/v1/analyze` — criticality analysis.
    Analyze,
    /// `/v1/harden` — selective-hardening solve.
    Harden,
    /// `/v1/validate` — fault-simulation campaign cross-validating the
    /// analysis.
    Validate,
    /// `/v1/whatif` — incremental what-if query answered from a warm
    /// [`Workspace`].
    Whatif,
    /// `PUT /v1/networks` — register a network in the content-addressed
    /// registry and return its canonical hash.
    Networks,
}

impl Endpoint {
    /// Every endpoint, in declaration order.
    pub const ALL: [Self; 5] =
        [Self::Analyze, Self::Harden, Self::Validate, Self::Whatif, Self::Networks];

    /// The request path of this endpoint.
    #[must_use]
    pub fn path(self) -> &'static str {
        match self {
            Self::Analyze => "/v1/analyze",
            Self::Harden => "/v1/harden",
            Self::Validate => "/v1/validate",
            Self::Whatif => "/v1/whatif",
            Self::Networks => "/v1/networks",
        }
    }

    /// The request method that submits a job to this endpoint.
    #[must_use]
    pub fn method(self) -> &'static str {
        match self {
            Self::Networks => "PUT",
            _ => "POST",
        }
    }

    /// The metrics label of this endpoint.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Analyze => "analyze",
            Self::Harden => "harden",
            Self::Validate => "validate",
            Self::Whatif => "whatif",
            Self::Networks => "networks",
        }
    }
}

/// A resolved what-if operation (defaults applied, op validated).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WhatifOp {
    /// Mask the target primitive's fault modes (hardening, §V).
    Harden {
        /// Target primitive name.
        target: String,
    },
    /// Exclude the target segment from service (ambient broken fault).
    Exclude {
        /// Target segment name.
        target: String,
    },
    /// Re-weight the instrument hosted by the target segment.
    SetWeights {
        /// Target segment name.
        target: String,
        /// New observation weight.
        obs: u64,
        /// New setting weight.
        set: u64,
    },
}

impl WhatifOp {
    /// A canonical, stable description used in cache keys and responses.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::Harden { target } => format!("harden(target={target})"),
            Self::Exclude { target } => format!("exclude(target={target})"),
            Self::SetWeights { target, obs, set } => {
                format!("set_weights(target={target},obs={obs},set={set})")
            }
        }
    }

    /// The target primitive's name.
    #[must_use]
    pub fn target(&self) -> &str {
        match self {
            Self::Harden { target }
            | Self::Exclude { target }
            | Self::SetWeights { target, .. } => target,
        }
    }

    /// The metrics/response label of the operation kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Harden { .. } => "harden",
            Self::Exclude { .. } => "exclude",
            Self::SetWeights { .. } => "set_weights",
        }
    }
}

/// A fully resolved solver selection (defaults applied).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverChoice {
    /// SPEA2 with the given population/archive size and generations.
    Spea2 {
        /// Population and archive size.
        population: usize,
        /// Number of generations.
        generations: usize,
        /// RNG seed.
        seed: u64,
    },
    /// NSGA-II with the given population size and generations.
    Nsga2 {
        /// Population size.
        population: usize,
        /// Number of generations.
        generations: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Damage-per-cost greedy baseline.
    Greedy,
    /// Exact dynamic-programming front with a state budget.
    Exact {
        /// Bound on the non-dominated state set.
        max_states: usize,
    },
    /// Random sampling baseline.
    Random {
        /// Number of random genomes.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl SolverChoice {
    /// A canonical, stable description used in cache keys and responses.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::Spea2 { population, generations, seed } => {
                format!("spea2(population={population},generations={generations},seed={seed})")
            }
            Self::Nsga2 { population, generations, seed } => {
                format!("nsga2(population={population},generations={generations},seed={seed})")
            }
            Self::Greedy => "greedy".to_string(),
            Self::Exact { max_states } => format!("exact(max_states={max_states})"),
            Self::Random { samples, seed } => format!("random(samples={samples},seed={seed})"),
        }
    }

    fn to_solver(&self) -> Solver {
        match *self {
            Self::Spea2 { population, generations, seed } => Solver::Spea2 {
                config: Spea2Config {
                    population_size: population,
                    archive_size: population,
                    generations,
                    ..Default::default()
                },
                seed,
            },
            Self::Nsga2 { population, generations, seed } => Solver::Nsga2 {
                config: Nsga2Config {
                    population_size: population,
                    generations,
                    ..Default::default()
                },
                seed,
            },
            Self::Greedy => Solver::Greedy,
            Self::Exact { max_states } => Solver::Exact { max_states },
            Self::Random { samples, seed } => Solver::Random { samples, seed },
        }
    }
}

/// A network parsed and built exactly once: the unit the registry stores,
/// the caches key off, and every execution path consumes. Carrying the
/// built [`ScanNetwork`] means a registry hit skips both the parse and the
/// graph build; every execution, what-if workspaces included, shares the
/// graph through its [`Arc`].
///
/// The spec-independent analysis state is built on first use and then
/// shared by every request: one [`AnalysisPlan`] per [`SibCellPolicy`]
/// ([`plan`](Self::plan)) and the validated decomposition tree
/// ([`tree`](Self::tree)). Parsing builds neither, so registration costs
/// what it did, and concurrent first users wait for one build.
#[derive(Clone, Debug)]
pub struct ParsedNetwork {
    /// The original network text.
    pub text: String,
    /// The built scan network graph.
    pub net: Arc<ScanNetwork>,
    /// The structure with assigned node ids (for SP-tree construction).
    pub built: BuiltStructure,
    /// The canonical content hash of the built graph.
    pub hash: NetworkHash,
    /// The analysis plan per SIB policy (`Combined`, `SegmentOnly`).
    plans: [OnceLock<Arc<AnalysisPlan>>; 2],
    /// The decomposition tree, validated against `net`.
    tree: OnceLock<Result<Arc<DecompTree>, SessionError>>,
}

impl ParsedNetwork {
    /// Parses and builds `text`, computing its canonical hash.
    ///
    /// # Errors
    ///
    /// [`JobError`] with status 400 and code `bad_network` when the text
    /// does not parse or violates a graph invariant.
    pub fn from_text(text: &str) -> Result<Self, JobError> {
        let (name, structure) =
            parse_network(text).map_err(|e| JobError::new(400, "bad_network", e.to_string()))?;
        let (net, built) =
            structure.build(name).map_err(|e| JobError::new(400, "bad_network", e.to_string()))?;
        Ok(Self::new(text.to_string(), net, built))
    }

    /// Builds a parsed structure (e.g. from the streaming upload parser,
    /// where the raw text was never materialized) and computes its canonical
    /// hash. The stored `text` is the canonical re-print of the structure —
    /// it parses back to the same graph and therefore the same hash, so
    /// hash-addressed lookups and cache keys are unaffected by the original
    /// text's formatting.
    ///
    /// # Errors
    ///
    /// [`JobError`] with status 400 and code `bad_network` when the
    /// structure violates a graph invariant.
    pub fn from_parts(name: String, structure: rsn_model::Structure) -> Result<Self, JobError> {
        let (net, built) =
            structure.build(&name).map_err(|e| JobError::new(400, "bad_network", e.to_string()))?;
        let text = rsn_model::format::print_network(&name, &structure);
        Ok(Self::new(text, net, built))
    }

    fn new(text: String, net: ScanNetwork, built: BuiltStructure) -> Self {
        let hash = canonical_network_hash(&net);
        Self {
            text,
            net: Arc::new(net),
            built,
            hash,
            plans: Default::default(),
            tree: OnceLock::new(),
        }
    }

    /// The network's name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.net.name()
    }

    /// The network's analysis plan under `policy`, built on first use.
    #[must_use]
    pub fn plan(&self, policy: SibCellPolicy) -> Arc<AnalysisPlan> {
        self.plan_with(policy, || {})
    }

    /// [`plan`](Self::plan), calling `built` when this call is the one
    /// that builds it — how a server counts the plans it builds.
    pub fn plan_with(&self, policy: SibCellPolicy, built: impl FnOnce()) -> Arc<AnalysisPlan> {
        let slot = match policy {
            SibCellPolicy::Combined => &self.plans[0],
            SibCellPolicy::SegmentOnly => &self.plans[1],
        };
        Arc::clone(slot.get_or_init(|| {
            built();
            Arc::new(AnalysisPlan::new(&self.net, policy))
        }))
    }

    /// The network's decomposition tree, lowered from the structure and
    /// validated against the graph on first use.
    ///
    /// # Errors
    ///
    /// [`JobError`] with status 422 (`tree_mismatch`) when the tree does
    /// not validate against the graph.
    pub fn tree(&self) -> Result<Arc<DecompTree>, JobError> {
        self.tree
            .get_or_init(|| {
                let tree = tree_from_structure(&self.net, &self.built);
                tree.validate(&self.net).map_err(SessionError::TreeMismatch)?;
                Ok(Arc::new(tree))
            })
            .clone()
            .map_err(JobError::from)
    }
}

/// A validated job with every default applied; the unit of queueing,
/// caching and execution.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedJob {
    /// Target endpoint.
    pub endpoint: Endpoint,
    /// Network text (empty when the job references a registered network by
    /// hash instead).
    pub network: String,
    /// Canonical hash of a registered network, when the submission used
    /// `network_hash` instead of inline text.
    pub network_hash: Option<String>,
    /// Criticality-spec seed.
    pub seed: u64,
    /// Kind-based weights instead of the paper spec.
    pub kind_weights: bool,
    /// Fault-mode aggregation.
    pub mode: ModeAggregation,
    /// SIB cell policy.
    pub sib_policy: SibCellPolicy,
    /// Ranked-list size.
    pub top: usize,
    /// Solver (only consulted by [`Endpoint::Harden`]).
    pub solver: SolverChoice,
    /// What-if operation (only present for [`Endpoint::Whatif`]).
    pub whatif: Option<WhatifOp>,
    /// Run the exact double-fault sweep (only set for [`Endpoint::Analyze`]).
    pub exact_double: bool,
    /// Evaluate only this fault-mode range `[lo, hi)` and answer with an
    /// [`AnalyzeShardResponse`] (only set for [`Endpoint::Analyze`]; used
    /// by the cluster coordinator's sweep partitioning).
    pub mode_range: Option<(u64, u64)>,
}

impl ResolvedJob {
    /// The canonical cache-key string: every analysis-relevant input in a
    /// fixed order, with the network identified by its canonical content
    /// hash — so inline text, a re-printed equivalent text, and a
    /// hash-referenced submission of the same network share one key, and the
    /// key doubles as the persistent result store's on-disk key.
    #[must_use]
    pub fn canonical_key_with(&self, hash: &NetworkHash) -> String {
        // `|exact_double=true` is appended only when set, so every response
        // cached under the pre-existing v2 keys stays addressable.
        format!(
            "v2|endpoint={}|seed={}|kind_weights={}|mode={:?}|sib_policy={:?}|top={}|solver={}|whatif={}|network=sha256:{hash}{}{}",
            self.endpoint.as_str(),
            self.seed,
            self.kind_weights,
            self.mode,
            self.sib_policy,
            self.top,
            match self.endpoint {
                Endpoint::Analyze | Endpoint::Validate | Endpoint::Whatif | Endpoint::Networks =>
                    String::from("-"),
                Endpoint::Harden => self.solver.describe(),
            },
            self.whatif.as_ref().map_or_else(|| String::from("-"), WhatifOp::describe),
            if self.exact_double { "|exact_double=true" } else { "" },
            match self.mode_range {
                // Appended only when set, like `exact_double`, so existing
                // cached keys stay addressable and shard results never
                // collide with whole-sweep summaries.
                Some((lo, hi)) => format!("|modes={lo}..{hi}"),
                None => String::new(),
            },
        )
    }

    /// The key of the warm-[`Workspace`] cache: only the inputs the
    /// workspace itself depends on (no endpoint, solver, op or `top`), so
    /// every what-if against the same network/spec shares one workspace.
    #[must_use]
    pub fn workspace_key_with(&self, hash: &NetworkHash) -> String {
        format!(
            "ws2|seed={}|kind_weights={}|mode={:?}|sib_policy={:?}|network=sha256:{hash}",
            self.seed, self.kind_weights, self.mode, self.sib_policy,
        )
    }

    /// Convenience form of [`ResolvedJob::canonical_key_with`] that parses
    /// the job's inline network text to compute its hash.
    ///
    /// # Panics
    ///
    /// Panics when the job carries no parsable inline text — the daemon
    /// resolves the network through the registry and uses
    /// [`ResolvedJob::canonical_key_with`] instead; this helper exists for
    /// tests and in-process callers holding a known-good network.
    #[must_use]
    pub fn canonical_key(&self) -> String {
        let parsed = ParsedNetwork::from_text(&self.network).expect("valid inline network text");
        self.canonical_key_with(&parsed.hash)
    }

    /// Convenience form of [`ResolvedJob::workspace_key_with`]; same inline
    /// text requirement as [`ResolvedJob::canonical_key`].
    ///
    /// # Panics
    ///
    /// Panics when the job carries no parsable inline text.
    #[must_use]
    pub fn workspace_key(&self) -> String {
        let parsed = ParsedNetwork::from_text(&self.network).expect("valid inline network text");
        self.workspace_key_with(&parsed.hash)
    }
}

/// A structured error, serialized as
/// `{"error":{"code":...,"message":...,"retryable":...}}` — the shared body
/// of **every** non-200 the daemon sends (400/404/405/408/413/422/500/503).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireError {
    /// Stable machine-readable code.
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// Whether retrying the identical request may succeed (`true` exactly
    /// for 408 deadline and 503 overload responses).
    pub retryable: bool,
}

/// The JSON envelope of every error response.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// The error payload.
    pub error: WireError,
}

impl ErrorResponse {
    /// Parses a response body into the structured error, if it is one.
    /// Clients use this to surface `code`/`retryable` instead of raw JSON.
    #[must_use]
    pub fn parse(body: &str) -> Option<WireError> {
        serde_json::from_str::<Self>(body).ok().map(|r| r.error)
    }
}

/// A failed job: HTTP status plus the structured error body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobError {
    /// HTTP status code to answer with.
    pub status: u16,
    /// Stable machine-readable code.
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl JobError {
    /// Creates an error.
    #[must_use]
    pub fn new(status: u16, code: &str, message: impl Into<String>) -> Self {
        Self { status, code: code.to_string(), message: message.into() }
    }

    /// Whether retrying the identical request may succeed: deadline (408)
    /// and overload (503) responses are transient, everything else is the
    /// server's final answer for these bytes.
    #[must_use]
    pub fn retryable(&self) -> bool {
        matches!(self.status, 408 | 503)
    }

    /// The JSON body of this error.
    #[must_use]
    pub fn body(&self) -> String {
        let resp = ErrorResponse {
            error: WireError {
                code: self.code.clone(),
                message: self.message.clone(),
                retryable: self.retryable(),
            },
        };
        serde_json::to_string(&resp).unwrap_or_else(|_| String::from("{\"error\":{}}"))
    }
}

impl From<JobError> for Response<SharedBody> {
    fn from(err: JobError) -> Self {
        Self::json(err.status, Arc::new(err.body()))
    }
}

/// A `200` JSON response carrying `body`, or the error's envelope. The
/// body is shared as it came from the serializer, not copied.
#[must_use]
pub fn respond(body: Result<String, JobError>) -> Response<SharedBody> {
    match body {
        Ok(body) => Response::json(200, Arc::new(body)),
        Err(err) => err.into(),
    }
}

impl From<SessionError> for JobError {
    fn from(e: SessionError) -> Self {
        match &e {
            // A fired per-request deadline is the client's timeout, not an
            // invalid job: 408 with the same code the stage checks use.
            SessionError::Cancelled => {
                Self::new(408, "deadline_exceeded", "request deadline exceeded (analysis)")
            }
            // A panicking shard is a daemon bug, never the client's fault.
            SessionError::WorkerPanicked { .. } => Self::new(500, "internal_error", e.to_string()),
            _ => Self::new(422, e.code(), e.to_string()),
        }
    }
}

impl From<WorkspaceError> for JobError {
    fn from(e: WorkspaceError) -> Self {
        match e {
            // An inapplicable delta (already hardened, not a plain segment,
            // unknown instrument …) is the client's mistake.
            WorkspaceError::InvalidDelta(msg) => Self::new(422, "invalid_delta", msg),
            WorkspaceError::Session(inner) => Self::from(inner),
        }
    }
}

/// The `/v1/harden` response payload.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardenResponse {
    /// The network's name.
    pub network: String,
    /// Canonical description of the solver that produced the front.
    pub solver: String,
    /// Total unhardened damage (the 100 % reference).
    pub total_damage: u64,
    /// Cost of hardening everything (the 100 % reference).
    pub max_cost: u64,
    /// The cost-sorted Pareto front.
    pub front: HardeningFront,
}

/// The `/v1/analyze` response payload when `exact_double` is requested: the
/// plain criticality summary plus the exact double-fault statistics. Without
/// the option the endpoint keeps serving the bare [`CriticalitySummary`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnalyzeExactDoubleResponse {
    /// The single-fault criticality summary (the unchanged base response).
    pub summary: CriticalitySummary,
    /// Exact statistics over every unordered pair of single faults.
    pub exact_double: DoubleFaultSummary,
}

/// One evaluated fault mode in an [`AnalyzeShardResponse`] — the wire twin
/// of [`robust_rsn::ModeDamage`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardModeDamage {
    /// Observation damage of the mode.
    pub obs: u64,
    /// Setting damage of the mode.
    pub set: u64,
    /// Whether the mode disconnects an important instrument.
    pub important: bool,
}

impl From<robust_rsn::ModeDamage> for ShardModeDamage {
    fn from(d: robust_rsn::ModeDamage) -> Self {
        Self { obs: d.obs, set: d.set, important: d.affects_important }
    }
}

impl From<ShardModeDamage> for robust_rsn::ModeDamage {
    fn from(d: ShardModeDamage) -> Self {
        Self { obs: d.obs, set: d.set, affects_important: d.important }
    }
}

/// The `/v1/analyze` response payload when a `mode_lo`/`mode_hi` shard
/// range is requested: per-mode damages for `[mode_lo, mode_hi)` of the
/// canonical mode table, in table order. The coordinator concatenates shard
/// responses in range order and merges them into a [`CriticalitySummary`]
/// byte-identical to a whole-sweep `/v1/analyze`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalyzeShardResponse {
    /// The network's name.
    pub network: String,
    /// Total size of the network's canonical mode table — every shard of
    /// the same sweep reports the same value, so a mismatch flags a
    /// network-identity bug before any merge is attempted.
    pub mode_count: u64,
    /// Inclusive lower bound of the evaluated range.
    pub mode_lo: u64,
    /// Exclusive upper bound of the evaluated range.
    pub mode_hi: u64,
    /// Per-mode damages, one entry per mode in `[mode_lo, mode_hi)`.
    pub damages: Vec<ShardModeDamage>,
}

/// Merges ordered shard responses covering the whole mode table back into
/// the byte-identical whole-sweep `/v1/analyze` body. This is the cluster
/// coordinator's merge step: per-mode damages are independent of block
/// packing and thread count, so concatenating shard ranges in table order
/// and folding them through the shared aggregation reproduces exactly what
/// a single node would have served for `job` without a `mode_range`.
///
/// The mode table is walked once, by the aggregation: the shards are held
/// to the first shard's `mode_count` and must tile `0..mode_count`, and the
/// aggregation's length check then holds that count to the network's table.
///
/// # Errors
///
/// [`JobError`] with status 500 (`shard_merge`) when the shards report
/// different mode counts, do not tile `0..mode_count` contiguously, or
/// tile a table of another size than `network`'s — each means a worker
/// answered for the wrong network or a failover re-dispatch went to the
/// wrong range.
pub fn merge_analyze_shards(
    job: &ResolvedJob,
    network: &ParsedNetwork,
    shards: &[AnalyzeShardResponse],
) -> Result<String, JobError> {
    let merge_bug = |detail: String| JobError::new(500, "shard_merge", detail);
    let total = shards.first().map_or(0, |shard| shard.mode_count);
    // Sized by the damages at hand, never by a count a shard claims.
    let mut damages: Vec<robust_rsn::ModeDamage> =
        Vec::with_capacity(shards.iter().map(|shard| shard.damages.len()).sum());
    let mut next = 0u64;
    for shard in shards {
        if shard.mode_count != total {
            return Err(merge_bug(format!(
                "shard {}..{} reports mode count {}, expected {total}",
                shard.mode_lo, shard.mode_hi, shard.mode_count
            )));
        }
        if shard.mode_lo != next
            || shard.mode_hi < shard.mode_lo
            || shard.damages.len() as u64 != shard.mode_hi - shard.mode_lo
        {
            return Err(merge_bug(format!(
                "shard {}..{} with {} damages does not continue the merge at mode {next}",
                shard.mode_lo,
                shard.mode_hi,
                shard.damages.len()
            )));
        }
        next = shard.mode_hi;
        damages.extend(shard.damages.iter().map(|&d| robust_rsn::ModeDamage::from(d)));
    }
    if next != total {
        return Err(merge_bug(format!("shards cover only 0..{next} of {total} modes")));
    }
    let plan = network.plan(job.sib_policy);
    let crit = merge_mode_damages(&plan, &network.net, job.mode, &damages)
        .map_err(|e| merge_bug(e.to_string()))?;
    serialize(&CriticalitySummary::new(&network.net, &crit, job.top))
}

/// Decodes a `/v1/analyze` shard body into an [`AnalyzeShardResponse`] in
/// one pass: the coordinator's decoder for every shard a worker answers.
///
/// It accepts exactly the grammar the serde writer prints for the type —
/// compact, fields in declaration order, unsigned integers without leading
/// zeros (overflow checked), `true`/`false` — and refuses everything else,
/// so a worker of another wire version is refused rather than misread. The
/// `network` string alone goes through `serde_json::from_str::<String>`,
/// which decodes its escapes and non-ASCII text exactly as the derived
/// impl would. Damages are pushed straight into one `Vec`, reserved for as
/// many objects as the rest of the body can hold (the claimed range only
/// narrows that), so no body allocates more than its own length describes.
/// The derived `Deserialize` stays as this decoder's test oracle.
///
/// # Errors
///
/// [`JobError`] with status 502 (`bad_shard`) naming the byte offset where
/// the body leaves the grammar.
pub fn decode_analyze_shard(body: &str) -> Result<AnalyzeShardResponse, JobError> {
    /// The shortest damage object the writer prints, plus its separator.
    const MIN_DAMAGE: usize = "{\"obs\":0,\"set\":0,\"important\":true},".len();
    let mut cur = ShardCursor { body, pos: 0 };
    cur.literal("{\"network\":")?;
    let network = cur.string()?;
    cur.literal(",\"mode_count\":")?;
    let mode_count = cur.u64()?;
    cur.literal(",\"mode_lo\":")?;
    let mode_lo = cur.u64()?;
    cur.literal(",\"mode_hi\":")?;
    let mode_hi = cur.u64()?;
    cur.literal(",\"damages\":[")?;
    let room = (body.len() - cur.pos) / MIN_DAMAGE;
    let claimed = usize::try_from(mode_hi.saturating_sub(mode_lo)).unwrap_or(usize::MAX);
    let mut damages = Vec::with_capacity(room.min(claimed));
    if !cur.eat(b']') {
        loop {
            cur.literal("{\"obs\":")?;
            let obs = cur.u64()?;
            cur.literal(",\"set\":")?;
            let set = cur.u64()?;
            cur.literal(",\"important\":")?;
            let important = cur.bool()?;
            cur.literal("}")?;
            damages.push(ShardModeDamage { obs, set, important });
            if cur.eat(b']') {
                break;
            }
            cur.literal(",")?;
        }
    }
    cur.literal("}")?;
    if cur.pos != body.len() {
        return Err(cur.refuse("the end of the body"));
    }
    Ok(AnalyzeShardResponse { network, mode_count, mode_lo, mode_hi, damages })
}

/// [`decode_analyze_shard`]'s read position in a shard body.
struct ShardCursor<'a> {
    body: &'a str,
    pos: usize,
}

impl ShardCursor<'_> {
    fn rest(&self) -> &[u8] {
        &self.body.as_bytes()[self.pos..]
    }

    fn refuse(&self, expected: &str) -> JobError {
        JobError::new(
            502,
            "bad_shard",
            format!("shard body: expected {expected} at byte {}", self.pos),
        )
    }

    /// Consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.rest().first() == Some(&b);
        self.pos += usize::from(next);
        next
    }

    fn literal(&mut self, text: &str) -> Result<(), JobError> {
        if !self.rest().starts_with(text.as_bytes()) {
            return Err(self.refuse(&format!("`{text}`")));
        }
        self.pos += text.len();
        Ok(())
    }

    /// A canonical unsigned integer: `0`, or a non-zero digit and up to the
    /// digits that still fit a `u64`.
    fn u64(&mut self) -> Result<u64, JobError> {
        let digits = self.rest().iter().take_while(|b| b.is_ascii_digit()).count();
        let text = &self.rest()[..digits];
        if digits == 0 || (digits > 1 && text[0] == b'0') {
            return Err(self.refuse("an unsigned integer"));
        }
        let value = text.iter().try_fold(0u64, |v, &d| {
            v.checked_mul(10).and_then(|v| v.checked_add(u64::from(d - b'0')))
        });
        let value = value.ok_or_else(|| self.refuse("an integer that fits 64 bits"))?;
        self.pos += digits;
        Ok(value)
    }

    fn bool(&mut self) -> Result<bool, JobError> {
        for (text, value) in [("true", true), ("false", false)] {
            if self.rest().starts_with(text.as_bytes()) {
                self.pos += text.len();
                return Ok(value);
            }
        }
        Err(self.refuse("`true` or `false`"))
    }

    /// A JSON string: its extent is found by skipping escaped bytes, and
    /// only that slice is decoded by serde.
    fn string(&mut self) -> Result<String, JobError> {
        let rest = self.rest();
        if rest.first() != Some(&b'"') {
            return Err(self.refuse("a string"));
        }
        let mut end = 1;
        loop {
            match rest
                .get(end..)
                .and_then(|tail| tail.iter().position(|&b| b == b'"' || b == b'\\'))
            {
                None => return Err(self.refuse("a terminated string")),
                Some(at) if rest[end + at] == b'"' => {
                    end += at + 1;
                    break;
                }
                Some(at) => end += at + 2,
            }
        }
        // Both ends are ASCII quotes, so the slice is whole characters.
        let value = serde_json::from_str::<String>(&self.body[self.pos..self.pos + end])
            .map_err(|e| self.refuse(&format!("a valid string ({e})")))?;
        self.pos += end;
        Ok(value)
    }
}

/// The `/v1/whatif` response payload: what the delta recomputed, the
/// damage totals around it, and the full post-delta criticality summary.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WhatifResponse {
    /// The network's name.
    pub network: String,
    /// The operation kind (`harden`, `exclude`, `set_weights`).
    pub op: String,
    /// The target primitive's name.
    pub target: String,
    /// Fault modes the delta re-derived
    /// ([`DeltaReport::recomputed_modes`](robust_rsn::DeltaReport::recomputed_modes)): every
    /// mode for `exclude`, the modes whose damage changed for
    /// `set_weights`, `0` for `harden`.
    pub recomputed_modes: u64,
    /// Total single-fault damage before the delta.
    pub total_damage_before: u64,
    /// Total single-fault damage after the delta.
    pub total_damage_after: u64,
    /// The post-delta criticality summary.
    pub summary: CriticalitySummary,
}

/// The `PUT /v1/networks` response payload.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkPutResponse {
    /// Canonical content hash (64 hex digits); the handle for
    /// `network_hash`-referenced submissions.
    pub network_hash: String,
    /// The network's name.
    pub name: String,
    /// Number of nodes in the built graph.
    pub nodes: u64,
    /// Number of embedded instruments.
    pub instruments: u64,
}

/// One row of the `GET /v1/networks` listing.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkListEntry {
    /// Canonical content hash (64 hex digits).
    pub network_hash: String,
    /// The network's name.
    pub name: String,
}

/// The `GET /v1/networks` response payload, sorted by hash.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkListResponse {
    /// Registered networks.
    pub networks: Vec<NetworkListEntry>,
}

/// Renders the registration response body for a parsed network.
///
/// # Errors
///
/// [`JobError`] with status 500 on serialization failure.
pub fn networks_put_body(network: &ParsedNetwork) -> Result<String, JobError> {
    serialize(&NetworkPutResponse {
        network_hash: network.hash.to_hex(),
        name: network.name().to_string(),
        nodes: network.net.node_count() as u64,
        instruments: network.net.instrument_count() as u64,
    })
}

/// A deadline for one job, checked between pipeline stages (parse →
/// criticality → solve) *and* — via [`Deadline::cancel_token`] — at
/// cooperative checkpoints inside the sharded sweeps, campaigns, and
/// optimizer generation loops, so exceeding it interrupts a running
/// analysis mid-kernel and yields a 408 within bounded lag.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline.
    #[must_use]
    pub fn none() -> Self {
        Self { at: None }
    }

    /// A deadline `timeout` from now.
    #[must_use]
    pub fn after(timeout: Duration) -> Self {
        Self { at: Instant::now().checked_add(timeout) }
    }

    /// Whether the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Fails with a 408 `deadline_exceeded` error naming `stage` when the
    /// deadline has passed.
    ///
    /// # Errors
    ///
    /// [`JobError`] with status 408 once expired.
    pub fn check(&self, stage: &str) -> Result<(), JobError> {
        if self.expired() {
            Err(JobError::new(
                408,
                "deadline_exceeded",
                format!("request deadline exceeded ({stage})"),
            ))
        } else {
            Ok(())
        }
    }

    /// A [`CancelToken`] that fires exactly when this deadline passes,
    /// threaded into the [`AnalysisSession`] so its sharded loops observe
    /// the deadline mid-kernel. A `Deadline::none()` yields a free-to-check
    /// none token.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        match self.at {
            Some(at) => CancelToken::with_deadline(at),
            None => CancelToken::none(),
        }
    }
}

/// Parses a request body into a [`JobRequest`].
///
/// # Errors
///
/// [`JobError`] with status 400 and code `bad_request` for malformed JSON.
pub fn parse_request(body: &str) -> Result<JobRequest, JobError> {
    serde_json::from_str(body)
        .map_err(|e| JobError::new(400, "bad_request", format!("invalid request body: {e}")))
}

/// Applies defaults and validates `req` for `endpoint`.
///
/// # Errors
///
/// [`JobError`] with status 400 for unknown `mode`/`sib_policy`/`solver`
/// values, a missing/ambiguous network reference, or a malformed
/// `network_hash`.
pub fn resolve(endpoint: Endpoint, req: &JobRequest) -> Result<ResolvedJob, JobError> {
    let inline = req.network.as_deref().map(str::trim).filter(|t| !t.is_empty());
    let hash_ref = req.network_hash.as_deref().map(str::trim).filter(|h| !h.is_empty());
    let (network, network_hash) = match (inline, hash_ref) {
        (Some(text), None) => (text.to_string(), None),
        (None, Some(hex)) => {
            if endpoint == Endpoint::Networks {
                return Err(JobError::new(
                    400,
                    "bad_request",
                    "registration requires inline `network` text",
                ));
            }
            if hex.parse::<NetworkHash>().is_err() {
                return Err(JobError::new(
                    400,
                    "bad_request",
                    "field `network_hash` must be 64 lowercase hex digits",
                ));
            }
            (String::new(), Some(hex.to_string()))
        }
        (Some(_), Some(_)) => {
            return Err(JobError::new(
                400,
                "bad_request",
                "provide either `network` or `network_hash`, not both",
            ));
        }
        (None, None) => {
            return Err(JobError::new(400, "bad_request", "field `network` is required"));
        }
    };
    let mode = match req.mode.as_deref() {
        None | Some("worst") => ModeAggregation::Worst,
        Some("sum") => ModeAggregation::Sum,
        Some("mean") => ModeAggregation::Mean,
        Some(other) => {
            return Err(JobError::new(400, "bad_request", format!("unknown mode {other:?}")))
        }
    };
    let sib_policy = match req.sib_policy.as_deref() {
        None | Some("combined") => SibCellPolicy::Combined,
        Some("segment-only") => SibCellPolicy::SegmentOnly,
        Some(other) => {
            return Err(JobError::new(400, "bad_request", format!("unknown sib_policy {other:?}")))
        }
    };
    let generations = req.generations.unwrap_or(100);
    let population = req.population.unwrap_or(100);
    let solver_seed = req.solver_seed.unwrap_or(2022);
    let solver = match req.solver.as_deref() {
        None | Some("spea2") => SolverChoice::Spea2 { population, generations, seed: solver_seed },
        Some("nsga2") => SolverChoice::Nsga2 { population, generations, seed: solver_seed },
        Some("greedy") => SolverChoice::Greedy,
        Some("exact") => SolverChoice::Exact { max_states: req.max_states.unwrap_or(4_000_000) },
        Some("random") => {
            SolverChoice::Random { samples: req.samples.unwrap_or(1024), seed: solver_seed }
        }
        Some(other) => {
            return Err(JobError::new(400, "bad_request", format!("unknown solver {other:?}")))
        }
    };
    let whatif = match endpoint {
        Endpoint::Whatif => Some(resolve_whatif(req)?),
        _ => None,
    };
    let mode_range = match (req.mode_lo, req.mode_hi) {
        _ if endpoint != Endpoint::Analyze => None,
        (None, None) => None,
        (Some(lo), Some(hi)) if lo <= hi => Some((lo, hi)),
        (Some(lo), Some(hi)) => {
            return Err(JobError::new(
                400,
                "bad_request",
                format!("inverted mode range {lo}..{hi}"),
            ))
        }
        _ => {
            return Err(JobError::new(
                400,
                "bad_request",
                "`mode_lo` and `mode_hi` must be given together",
            ))
        }
    };
    if mode_range.is_some() && req.exact_double.unwrap_or(false) {
        return Err(JobError::new(
            400,
            "bad_request",
            "`exact_double` cannot be combined with a mode range",
        ));
    }
    Ok(ResolvedJob {
        endpoint,
        network,
        network_hash,
        seed: req.seed.unwrap_or(2022),
        kind_weights: req.kind_weights.unwrap_or(false),
        mode,
        sib_policy,
        top: req.top.unwrap_or(10),
        solver,
        whatif,
        exact_double: endpoint == Endpoint::Analyze && req.exact_double.unwrap_or(false),
        mode_range,
    })
}

/// Validates the what-if fields of a `/v1/whatif` submission.
fn resolve_whatif(req: &JobRequest) -> Result<WhatifOp, JobError> {
    let target = match req.target.as_deref().map(str::trim) {
        Some(t) if !t.is_empty() => t.to_string(),
        _ => return Err(JobError::new(400, "bad_request", "field `target` is required")),
    };
    match req.op.as_deref() {
        Some("harden") => Ok(WhatifOp::Harden { target }),
        Some("exclude") => Ok(WhatifOp::Exclude { target }),
        Some("set_weights") => {
            let (Some(obs), Some(set)) = (req.obs_weight, req.set_weight) else {
                return Err(JobError::new(
                    400,
                    "bad_request",
                    "op \"set_weights\" requires `obs_weight` and `set_weight`",
                ));
            };
            Ok(WhatifOp::SetWeights { target, obs, set })
        }
        Some(other) => Err(JobError::new(400, "bad_request", format!("unknown op {other:?}"))),
        None => Err(JobError::new(400, "bad_request", "field `op` is required")),
    }
}

/// Parses `job`'s inline network text and runs it through
/// [`execute_with`]. The daemon resolves the network once through its
/// registry instead; this entry point serves tests and in-process callers.
///
/// # Errors
///
/// As [`execute_with`], plus status 400 for unparsable networks.
pub fn execute(
    job: &ResolvedJob,
    threads: Parallelism,
    deadline: &Deadline,
) -> Result<String, JobError> {
    deadline.check("start")?;
    let parsed = ParsedNetwork::from_text(&job.network)?;
    execute_with(job, &parsed, threads, deadline)
}

/// Runs `job` against the pre-parsed `network` through an
/// [`AnalysisSession`] and returns the exact response body the daemon
/// serves (and caches) for it.
///
/// # Errors
///
/// [`JobError`] with status 408 for an expired `deadline` (observed between
/// stages *and* mid-kernel via the session's [`CancelToken`]), 422 for
/// analysis failures ([`SessionError`] mapped by code), and 500 for
/// serialization failures or panicking analysis shards.
pub fn execute_with(
    job: &ResolvedJob,
    network: &ParsedNetwork,
    threads: Parallelism,
    deadline: &Deadline,
) -> Result<String, JobError> {
    deadline.check("start")?;
    if job.endpoint == Endpoint::Whatif {
        // The uncached path: build a fresh workspace and answer from it.
        // The daemon goes through `build_workspace_with` + `execute_whatif`
        // itself so warm workspaces are reused across requests.
        let mut workspace = build_workspace_with(job, network, threads, deadline)?;
        return execute_whatif(job, &mut workspace, deadline);
    }
    if job.endpoint == Endpoint::Networks {
        return networks_put_body(network);
    }
    let options = AnalysisOptions { mode: job.mode, sib_policy: job.sib_policy };
    let mut builder = AnalysisSession::builder(Arc::clone(&network.net))
        .with_options(options)
        .with_parallelism(threads)
        .with_cancel(deadline.cancel_token());
    if !job.kind_weights {
        builder = builder.with_paper_spec(PaperSpecParams::default(), job.seed);
    }
    // Hardening reads the decomposition tree; analyze and validate sweep
    // the graph through the network's plan. Both are built once per
    // network and shared.
    builder = if job.endpoint == Endpoint::Harden {
        builder.with_validated_tree(network.tree()?)
    } else {
        builder.with_plan(network.plan(job.sib_policy))
    };
    let session = builder.build();
    deadline.check("parse")?;

    let body = match job.endpoint {
        Endpoint::Analyze => {
            // Criticality is swept through the mode-major batch kernel
            // (flat mode table, lane blocks) rather than the recursive
            // decomposition tree: same bytes — the per-mode damages and the
            // aggregation are shared with the tree path — but giant
            // registered networks no longer pay the per-job tree build, and
            // a `mode_range` shard evaluates just its slice of the exact
            // same table.
            let plan = session.plan();
            let total = plan.mode_count() as u64;
            let (lo, hi) = job.mode_range.unwrap_or((0, total));
            if hi > total {
                return Err(JobError::new(
                    422,
                    "bad_mode_range",
                    format!("mode range {lo}..{hi} exceeds mode count {total}"),
                ));
            }
            let damages = analyze_mode_range(
                plan,
                session.network(),
                session.spec(),
                threads,
                &deadline.cancel_token(),
                lo as usize..hi as usize,
            )
            .map_err(|e| JobError::from(SessionError::from(e)))?;
            if job.mode_range.is_some() {
                let response = AnalyzeShardResponse {
                    network: session.network().name().to_string(),
                    mode_count: total,
                    mode_lo: lo,
                    mode_hi: hi,
                    damages: damages.into_iter().map(ShardModeDamage::from).collect(),
                };
                serialize(&response)?
            } else {
                let crit = merge_mode_damages(plan, session.network(), job.mode, &damages)
                    .expect("full-range sweep matches its own mode count");
                let summary = CriticalitySummary::new(session.network(), &crit, job.top);
                if job.exact_double {
                    deadline.check("criticality")?;
                    let exact_double = session.double_fault_damage(&[]).map_err(JobError::from)?;
                    serialize(&AnalyzeExactDoubleResponse { summary, exact_double })?
                } else {
                    serialize(&summary)?
                }
            }
        }
        Endpoint::Validate => {
            let report = session.try_validate_criticality().map_err(JobError::from)?;
            serialize(report)?
        }
        Endpoint::Harden => {
            // Materialize the criticality first so the deadline is checked
            // between the analysis and the (usually dominant) solve. One
            // problem feeds both the reference totals and the solver.
            let problem = session.hardening_problem(session.cost_model())?;
            let (total_damage, max_cost) = (problem.total_damage(), problem.max_cost());
            deadline.check("criticality")?;
            let front = session.solve_problem(&problem, job.solver.to_solver())?;
            deadline.check("solve")?;
            let response = HardenResponse {
                network: session.network().name().to_string(),
                solver: job.solver.describe(),
                total_damage,
                max_cost,
                front,
            };
            encode_harden_response(&response)?
        }
        // Dispatched to `execute_whatif`/`networks_put_body` above.
        Endpoint::Whatif | Endpoint::Networks => {
            unreachable!("handled before session setup")
        }
    };
    Ok(body)
}

/// Parses `job.network` and builds a warm [`Workspace`] via
/// [`build_workspace_with`] — tests and in-process callers only.
///
/// # Errors
///
/// As [`build_workspace_with`], plus status 400 for unparsable networks.
pub fn build_workspace(
    job: &ResolvedJob,
    threads: Parallelism,
    deadline: &Deadline,
) -> Result<Workspace, JobError> {
    deadline.check("start")?;
    let parsed = ParsedNetwork::from_text(&job.network)?;
    build_workspace_with(job, &parsed, threads, deadline)
}

/// Builds a warm [`Workspace`] for the pre-parsed `network`, threading the
/// deadline's [`CancelToken`] through the initial full sweep. The returned
/// workspace carries a free-to-check none token, so it can be cached and
/// reused under later requests' deadlines.
///
/// # Errors
///
/// [`JobError`] with status 408 for an expired `deadline`, 422 for analysis
/// failures, 500 for panicking shards.
pub fn build_workspace_with(
    job: &ResolvedJob,
    network: &ParsedNetwork,
    threads: Parallelism,
    deadline: &Deadline,
) -> Result<Workspace, JobError> {
    deadline.check("start")?;
    let options = AnalysisOptions { mode: job.mode, sib_policy: job.sib_policy };
    let mut builder = Workspace::builder(Arc::clone(&network.net))
        .with_plan(network.plan(job.sib_policy))
        .with_options(options)
        .with_parallelism(threads)
        .with_cancel(deadline.cancel_token());
    if !job.kind_weights {
        builder = builder.with_paper_spec(PaperSpecParams::default(), job.seed);
    }
    let mut workspace = builder.build_workspace().map_err(JobError::from)?;
    workspace.set_cancel_token(CancelToken::none());
    Ok(workspace)
}

/// Answers a `/v1/whatif` job from `workspace`: applies the resolved delta
/// incrementally, renders the response, and undoes the delta so the (shared,
/// possibly cached) workspace is returned to its pristine state.
///
/// The per-request deadline token is installed only around the edit — the
/// restoring undo runs uncancellable, so an expired deadline yields a 408
/// *and* a clean workspace (edits commit atomically; see
/// `robust_rsn::workspace`).
///
/// # Errors
///
/// [`JobError`] with status 404 for an unknown target, 408 for an expired
/// `deadline`, 422 for an inapplicable delta, 500 for serialization
/// failures.
pub fn execute_whatif(
    job: &ResolvedJob,
    workspace: &mut Workspace,
    deadline: &Deadline,
) -> Result<String, JobError> {
    deadline.check("start")?;
    let op = job
        .whatif
        .as_ref()
        .ok_or_else(|| JobError::new(400, "bad_request", "whatif job without an op"))?;
    let target = resolve_target(workspace, op.target())?;
    let delta = match op {
        WhatifOp::Harden { .. } => WorkspaceDelta::Harden { primitive: target },
        WhatifOp::Exclude { .. } => WorkspaceDelta::ExcludeSegment { segment: target },
        WhatifOp::SetWeights { obs, set, .. } => {
            let instrument = workspace.network().instrument_at(target).ok_or_else(|| {
                JobError::new(
                    422,
                    "invalid_delta",
                    format!("target {:?} hosts no instrument", op.target()),
                )
            })?;
            WorkspaceDelta::SetWeights { instrument, obs: *obs, set: *set }
        }
    };
    let total_damage_before = workspace.total_damage();
    workspace.set_cancel_token(deadline.cancel_token());
    let edited = workspace.edit(delta);
    workspace.set_cancel_token(CancelToken::none());
    let report = edited.map_err(JobError::from)?;
    let response = WhatifResponse {
        network: workspace.network().name().to_string(),
        op: op.kind().to_string(),
        target: op.target().to_string(),
        recomputed_modes: report.recomputed_modes as u64,
        total_damage_before,
        total_damage_after: report.total_damage,
        summary: workspace.summary(job.top),
    };
    // Restore the workspace before answering; the inverse of a delta that
    // just applied is always applicable and runs uncancellable, so this
    // cannot fail short of a daemon bug.
    workspace.undo().map_err(|e| {
        JobError::new(500, "internal_error", format!("failed to restore workspace: {e}"))
    })?;
    serialize(&response)
}

/// Resolves a what-if target name to a node, matching named nodes by name
/// and anonymous ones by their `nN` id label.
fn resolve_target(workspace: &Workspace, target: &str) -> Result<NodeId, JobError> {
    workspace
        .network()
        .nodes()
        .find(|(id, n)| n.label(*id) == target)
        .map(|(id, _)| id)
        .ok_or_else(|| JobError::new(404, "unknown_target", format!("no node named {target:?}")))
}

fn serialize<T: Serialize>(value: &T) -> Result<String, JobError> {
    serde_json::to_string(value)
        .map_err(|e| JobError::new(500, "internal", format!("serialization failed: {e}")))
}

/// Encodes a `/v1/harden` body: exactly the bytes `serde_json::to_string`
/// prints for `response` (the derived impl stays as this encoder's test
/// oracle), without re-formatting the ids neighbouring solutions share.
///
/// Each solution's `hardened` list is written as the longest id prefix it
/// shares with the previous solution's list, copied byte for byte from that
/// list, followed by its remaining ids formatted one by one. A greedy front
/// shares its whole previous list, so each solution costs one formatted id
/// plus a copy; fronts whose neighbours share short prefixes (SPEA2,
/// NSGA-II, exact, random) mostly format. The same walk first runs as a
/// length pass, so the body is written into a single allocation.
///
/// # Errors
///
/// [`JobError`] with status 500 when the network or solver name fails to
/// encode, as every serialization failure is reported.
pub fn encode_harden_response(response: &HardenResponse) -> Result<String, JobError> {
    let network = serialize(&response.network)?;
    let solver = serialize(&response.solver)?;
    let walk = |sink: &mut dyn FrontSink| {
        sink.put("{\"network\":");
        sink.put(&network);
        sink.put(",\"solver\":");
        sink.put(&solver);
        sink.put(",\"total_damage\":");
        sink.put_u64(response.total_damage);
        sink.put(",\"max_cost\":");
        sink.put_u64(response.max_cost);
        sink.put(",\"front\":{\"solutions\":[");
        write_solutions(sink, response.front.solutions());
        sink.put("]}}");
    };
    let mut len = BodyLength(0);
    walk(&mut len);
    // One allocation in the power-of-two size class, not the exact length:
    // the serde writer's doubling from 128 bytes ends in this class (8 MiB
    // for p93791's 8.1 MB greedy front), so the worker threads' malloc
    // arenas see the block sizes they always saw. Exact-size buffers raised
    // the daemon's peak RSS under harden load from ~327 to ~390 MiB
    // (EXPERIMENTS.md, *Front encoder*).
    let mut body = String::with_capacity(len.0.next_power_of_two());
    walk(&mut body);
    debug_assert_eq!(body.len(), len.0, "the length pass walks the same bytes");
    Ok(body)
}

/// Where [`encode_harden_response`]'s walk writes: the body itself, or a
/// [`BodyLength`] that only counts the bytes.
trait FrontSink {
    /// Bytes written so far.
    fn len(&self) -> usize;
    /// Appends `s`.
    fn put(&mut self, s: &str);
    /// Appends `v` in decimal.
    fn put_u64(&mut self, v: u64);
    /// Appends a copy of the `len` bytes written from offset `start` on.
    fn copy(&mut self, start: usize, len: usize);
}

impl FrontSink for String {
    fn len(&self) -> usize {
        self.len()
    }

    fn put(&mut self, s: &str) {
        self.push_str(s);
    }

    fn put_u64(&mut self, v: u64) {
        use std::fmt::Write as _;
        write!(self, "{v}").expect("writing to a String cannot fail");
    }

    fn copy(&mut self, start: usize, len: usize) {
        self.extend_from_within(start..start + len);
    }
}

/// The length pass of [`encode_harden_response`].
struct BodyLength(usize);

impl FrontSink for BodyLength {
    fn len(&self) -> usize {
        self.0
    }

    fn put(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn put_u64(&mut self, v: u64) {
        self.0 += v.checked_ilog10().map_or(1, |digits| digits as usize + 1);
    }

    fn copy(&mut self, _start: usize, len: usize) {
        self.0 += len;
    }
}

/// Writes the comma-separated solution objects of a front, copying each
/// `hardened` list's shared prefix from its predecessor's bytes.
fn write_solutions(sink: &mut dyn FrontSink, solutions: &[HardeningSolution]) {
    // Byte end of each id of the previous list, relative to the list's
    // first byte: the copy length of any prefix of it.
    let mut ends: Vec<usize> = Vec::new();
    let mut prev: (&[NodeId], usize) = (&[], 0);
    for (i, solution) in solutions.iter().enumerate() {
        if i > 0 {
            sink.put(",");
        }
        sink.put("{\"hardened\":[");
        let start = sink.len();
        let ids = &solution.hardened;
        let shared = prev.0.iter().zip(ids).take_while(|(a, b)| a == b).count();
        ends.truncate(shared);
        if let Some(&end) = ends.last() {
            sink.copy(prev.1, end);
        }
        for (j, id) in ids.iter().enumerate().skip(shared) {
            if j > 0 {
                sink.put(",");
            }
            sink.put_u64(id.index() as u64);
            ends.push(sink.len() - start);
        }
        sink.put("],\"cost\":");
        sink.put_u64(solution.cost);
        sink.put(",\"damage\":");
        sink.put_u64(solution.damage);
        sink.put("}");
        prev = (ids, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NET: &str = "network t { sib s0 { seg a len=4 instrument(kind=sensor); } \
                       seg b len=2 instrument(kind=generic); }";

    fn analyze_job() -> ResolvedJob {
        resolve(Endpoint::Analyze, &JobRequest { network: Some(NET.into()), ..Default::default() })
            .unwrap()
    }

    #[test]
    fn defaults_are_applied_on_resolve() {
        let job = analyze_job();
        assert_eq!(job.seed, 2022);
        assert!(!job.kind_weights);
        assert_eq!(job.mode, ModeAggregation::Worst);
        assert_eq!(job.top, 10);
        assert_eq!(
            job.solver,
            SolverChoice::Spea2 { population: 100, generations: 100, seed: 2022 }
        );
    }

    #[test]
    fn unknown_enums_are_rejected() {
        let req = JobRequest {
            network: Some(NET.into()),
            mode: Some("best".into()),
            ..Default::default()
        };
        assert_eq!(resolve(Endpoint::Analyze, &req).unwrap_err().status, 400);
        let req = JobRequest {
            network: Some(NET.into()),
            solver: Some("magic".into()),
            ..Default::default()
        };
        assert_eq!(resolve(Endpoint::Harden, &req).unwrap_err().status, 400);
        let req = JobRequest::default();
        assert_eq!(resolve(Endpoint::Analyze, &req).unwrap_err().status, 400);
    }

    #[test]
    fn canonical_key_separates_endpoints_and_options() {
        let a = analyze_job();
        let mut h = a.clone();
        h.endpoint = Endpoint::Harden;
        assert_ne!(a.canonical_key(), h.canonical_key());
        let mut seeded = a.clone();
        seeded.seed = 7;
        assert_ne!(a.canonical_key(), seeded.canonical_key());
        // The analyze key ignores the solver — it is not an analysis input.
        let mut solver_variant = a.clone();
        solver_variant.solver = SolverChoice::Greedy;
        assert_eq!(a.canonical_key(), solver_variant.canonical_key());
    }

    #[test]
    fn execute_is_deterministic_and_thread_invariant() {
        let job = analyze_job();
        let a = execute(&job, Parallelism::sequential(), &Deadline::none()).unwrap();
        let b = execute(&job, Parallelism::new(4), &Deadline::none()).unwrap();
        assert_eq!(a, b, "analysis bytes must not depend on the thread count");
        let summary: robust_rsn::CriticalitySummary = serde_json::from_str(&a).unwrap();
        assert_eq!(summary.network, "t");
        assert!(summary.total_damage > 0);
    }

    #[test]
    fn analyze_matches_the_tree_path_byte_for_byte() {
        // The served analyze path runs through the mode-major batch kernel;
        // the decomposition-tree path must stay a bit-identical oracle.
        let job = analyze_job();
        let served = execute(&job, Parallelism::new(2), &Deadline::none()).unwrap();
        let parsed = ParsedNetwork::from_text(NET).unwrap();
        let session = AnalysisSession::builder(parsed.net.clone())
            .with_structure(&parsed.built)
            .with_paper_spec(PaperSpecParams::default(), job.seed)
            .build();
        let crit = session.criticality().unwrap();
        let tree = serialize(&CriticalitySummary::new(session.network(), crit, job.top)).unwrap();
        assert_eq!(served, tree, "batch-kernel analyze must not change a byte");
    }

    #[test]
    fn mode_range_resolution_is_validated() {
        let with = |lo: Option<u64>, hi: Option<u64>| JobRequest {
            network: Some(NET.into()),
            mode_lo: lo,
            mode_hi: hi,
            ..Default::default()
        };
        let job = resolve(Endpoint::Analyze, &with(Some(1), Some(4))).unwrap();
        assert_eq!(job.mode_range, Some((1, 4)));
        assert_eq!(resolve(Endpoint::Analyze, &with(Some(4), Some(1))).unwrap_err().status, 400);
        assert_eq!(resolve(Endpoint::Analyze, &with(Some(1), None)).unwrap_err().status, 400);
        assert_eq!(resolve(Endpoint::Analyze, &with(None, Some(4))).unwrap_err().status, 400);
        // Other endpoints ignore the fields instead of failing.
        let harden = resolve(Endpoint::Harden, &with(Some(1), Some(4))).unwrap();
        assert_eq!(harden.mode_range, None);
        // A shard cannot also request the double-fault sweep.
        let mut both = with(Some(1), Some(4));
        both.exact_double = Some(true);
        assert_eq!(resolve(Endpoint::Analyze, &both).unwrap_err().status, 400);
    }

    #[test]
    fn mode_range_gets_its_own_cache_key() {
        let whole = analyze_job();
        let mut shard = whole.clone();
        shard.mode_range = Some((0, 8));
        assert_ne!(whole.canonical_key(), shard.canonical_key());
        assert!(shard.canonical_key().ends_with("|modes=0..8"));
        let mut other = whole.clone();
        other.mode_range = Some((8, 16));
        assert_ne!(shard.canonical_key(), other.canonical_key());
    }

    #[test]
    fn sharded_analyze_merges_to_the_whole_sweep() {
        let whole = analyze_job();
        let whole_body = execute(&whole, Parallelism::sequential(), &Deadline::none()).unwrap();
        let parsed = ParsedNetwork::from_text(NET).unwrap();
        let options = AnalysisOptions { mode: whole.mode, sib_policy: whole.sib_policy };
        let total = robust_rsn::mode_count(&parsed.net, &options) as u64;
        assert!(total > 2, "test network too small to shard");
        let split = total / 2;
        let mut damages: Vec<robust_rsn::ModeDamage> = Vec::new();
        for (lo, hi) in [(0, split), (split, total)] {
            let mut job = whole.clone();
            job.mode_range = Some((lo, hi));
            let body = execute(&job, Parallelism::new(2), &Deadline::none()).unwrap();
            let shard: AnalyzeShardResponse = serde_json::from_str(&body).unwrap();
            assert_eq!(shard.mode_count, total);
            assert_eq!(shard.damages.len(), (hi - lo) as usize);
            damages.extend(shard.damages.into_iter().map(robust_rsn::ModeDamage::from));
        }
        let crit =
            robust_rsn::criticality_from_mode_damages(&parsed.net, &options, &damages).unwrap();
        let merged = serialize(&CriticalitySummary::new(&parsed.net, &crit, whole.top)).unwrap();
        assert_eq!(merged, whole_body, "shard merge must be byte-identical");
    }

    #[test]
    fn merge_refuses_shards_that_do_not_tile_the_network_table() {
        let whole = analyze_job();
        let whole_body = execute(&whole, Parallelism::sequential(), &Deadline::none()).unwrap();
        let parsed = ParsedNetwork::from_text(NET).unwrap();
        let shard = |lo: u64, hi: u64| {
            let job = ResolvedJob { mode_range: Some((lo, hi)), ..whole.clone() };
            let body = execute(&job, Parallelism::sequential(), &Deadline::none()).unwrap();
            decode_analyze_shard(&body).unwrap()
        };
        let full = shard(0, 1).mode_count;
        let (a, b) = (shard(0, 1), shard(1, full));
        let merged = merge_analyze_shards(&whole, &parsed, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(merged, whole_body);

        let recount =
            |s: &AnalyzeShardResponse, n: u64| AnalyzeShardResponse { mode_count: n, ..s.clone() };
        let short = recount(&shard(0, full - 1), full - 1);
        let long = AnalyzeShardResponse {
            mode_count: full + 1,
            mode_hi: full + 1,
            damages: [b.damages.clone(), vec![ShardModeDamage::default()]].concat(),
            ..b.clone()
        };
        for shards in [
            vec![],
            vec![b.clone(), a.clone()],
            vec![a.clone()],
            vec![a.clone(), a.clone(), b.clone()],
            vec![a.clone(), recount(&b, full + 1)],
            // Tiling a table of the wrong size: the aggregation refuses it.
            vec![short],
            vec![recount(&a, full + 1), long],
        ] {
            let err = merge_analyze_shards(&whole, &parsed, &shards).unwrap_err();
            assert_eq!((err.status, err.code.as_str()), (500, "shard_merge"), "{}", err.message);
        }
    }

    #[test]
    fn out_of_range_shards_map_to_422() {
        let mut job = analyze_job();
        job.mode_range = Some((0, u64::MAX));
        let err = execute(&job, Parallelism::sequential(), &Deadline::none()).unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(err.code, "bad_mode_range");
    }

    #[test]
    fn execute_validate_returns_a_clean_report() {
        let mut job = analyze_job();
        job.endpoint = Endpoint::Validate;
        let a = execute(&job, Parallelism::sequential(), &Deadline::none()).unwrap();
        let b = execute(&job, Parallelism::new(4), &Deadline::none()).unwrap();
        assert_eq!(a, b, "campaign bytes must not depend on the thread count");
        let report: robust_rsn::ValidationReport = serde_json::from_str(&a).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert!(report.simulated_modes > 0);
        assert_eq!(report.analysis_total_damage, report.operational_total_damage);
        // The validate key ignores the solver but differs from analyze.
        let analyze_key = analyze_job().canonical_key();
        assert_ne!(job.canonical_key(), analyze_key);
    }

    #[test]
    fn execute_harden_returns_a_front() {
        let mut job = analyze_job();
        job.endpoint = Endpoint::Harden;
        job.solver = SolverChoice::Greedy;
        let body = execute(&job, Parallelism::sequential(), &Deadline::none()).unwrap();
        let resp: HardenResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(resp.solver, "greedy");
        assert!(!resp.front.is_empty());
        assert!(resp.max_cost > 0);
    }

    #[test]
    fn bad_networks_map_to_400() {
        let req = JobRequest { network: Some("not a network".into()), ..Default::default() };
        let job = resolve(Endpoint::Analyze, &req).unwrap();
        let err = execute(&job, Parallelism::sequential(), &Deadline::none()).unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.code, "bad_network");
        let parsed: ErrorResponse = serde_json::from_str(&err.body()).unwrap();
        assert_eq!(parsed.error.code, "bad_network");
    }

    #[test]
    fn expired_deadline_yields_408() {
        let job = analyze_job();
        let deadline = Deadline::after(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        let err = execute(&job, Parallelism::sequential(), &deadline).unwrap_err();
        assert_eq!(err.status, 408);
        assert_eq!(err.code, "deadline_exceeded");
    }

    #[test]
    fn error_bodies_carry_the_retryable_flag() {
        let terminal = JobError::new(400, "bad_request", "no");
        let parsed = ErrorResponse::parse(&terminal.body()).unwrap();
        assert!(!parsed.retryable);
        assert_eq!(parsed.code, "bad_request");
        for status in [408, 503] {
            let transient = JobError::new(status, "code", "later");
            assert!(transient.retryable());
            assert!(ErrorResponse::parse(&transient.body()).unwrap().retryable);
        }
        assert!(ErrorResponse::parse("not json").is_none());
    }

    #[test]
    fn whatif_requires_op_and_target() {
        let bare = JobRequest { network: Some(NET.into()), ..Default::default() };
        let err = resolve(Endpoint::Whatif, &bare).unwrap_err();
        assert_eq!((err.status, err.code.as_str()), (400, "bad_request"));
        let req = JobRequest {
            network: Some(NET.into()),
            op: Some("harden".into()),
            target: Some("a".into()),
            ..Default::default()
        };
        let job = resolve(Endpoint::Whatif, &req).unwrap();
        assert_eq!(job.whatif, Some(WhatifOp::Harden { target: "a".into() }));
        let req = JobRequest { op: Some("melt".into()), target: Some("a".into()), ..req };
        assert_eq!(resolve(Endpoint::Whatif, &req).unwrap_err().status, 400);
        // set_weights needs both weights.
        let req = JobRequest {
            network: Some(NET.into()),
            op: Some("set_weights".into()),
            target: Some("a".into()),
            obs_weight: Some(3),
            ..Default::default()
        };
        assert_eq!(resolve(Endpoint::Whatif, &req).unwrap_err().status, 400);
    }

    fn whatif_job(op: &str, target: &str) -> ResolvedJob {
        let req = JobRequest {
            network: Some(NET.into()),
            op: Some(op.into()),
            target: Some(target.into()),
            ..Default::default()
        };
        resolve(Endpoint::Whatif, &req).unwrap()
    }

    #[test]
    fn execute_whatif_harden_is_incremental_and_restores_the_workspace() {
        let job = whatif_job("harden", "a");
        let mut ws = build_workspace(&job, Parallelism::sequential(), &Deadline::none()).unwrap();
        let baseline = ws.total_damage();
        let body = execute_whatif(&job, &mut ws, &Deadline::none()).unwrap();
        let resp: WhatifResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(resp.op, "harden");
        assert_eq!(resp.target, "a");
        assert_eq!(resp.recomputed_modes, 0, "hardening is pure masking");
        assert_eq!(resp.total_damage_before, baseline);
        assert!(resp.total_damage_after < baseline);
        // The workspace is back to pristine: same request, same bytes.
        assert_eq!(ws.total_damage(), baseline);
        assert_eq!(ws.undo_depth(), 0);
        let again = execute_whatif(&job, &mut ws, &Deadline::none()).unwrap();
        assert_eq!(body, again);
        // And the whole path is thread-invariant.
        let threaded = execute(&job, Parallelism::new(4), &Deadline::none()).unwrap();
        assert_eq!(body, threaded);
    }

    #[test]
    fn execute_whatif_exclude_on_p93791_repeats_its_bytes_with_one_sweep_each() {
        let spec = rsn_benchmarks::by_name("p93791").expect("p93791 is a Table I design");
        let req = JobRequest {
            network: Some(rsn_model::format::print_network(spec.name, &spec.generate())),
            seed: Some(7),
            op: Some("exclude".into()),
            target: Some("w5".into()),
            ..Default::default()
        };
        let job = resolve(Endpoint::Whatif, &req).unwrap();
        let mut ws = build_workspace(&job, Parallelism::sequential(), &Deadline::none()).unwrap();
        let modes = ws.modes_swept();
        let first = execute_whatif(&job, &mut ws, &Deadline::none()).unwrap();
        let second = execute_whatif(&job, &mut ws, &Deadline::none()).unwrap();
        assert_eq!(first, second, "the restored workspace answers the same bytes");
        assert_eq!(ws.modes_swept(), 3 * modes, "one sweep per exclude, none per undo");
        let resp: WhatifResponse = serde_json::from_str(&first).unwrap();
        assert_eq!(resp.recomputed_modes, modes, "the edit reports every mode");
    }

    /// Workspaces share their network's plan, so an edit to one must reach
    /// neither an analyze of the same network nor a second workspace.
    #[test]
    fn set_weights_on_one_workspace_leaves_the_shared_plan_alone() {
        let parsed = ParsedNetwork::from_text(NET).unwrap();
        let (job, analyze) = (whatif_job("harden", "a"), analyze_job());
        let run = |job: &ResolvedJob| {
            execute_with(job, &parsed, Parallelism::sequential(), &Deadline::none()).unwrap()
        };
        let build = || {
            build_workspace_with(&job, &parsed, Parallelism::sequential(), &Deadline::none())
                .unwrap()
        };
        let before = run(&analyze);
        let (mut edited, other) = (build(), build());
        assert!(Arc::ptr_eq(edited.plan(), other.plan()), "one plan per network and policy");
        assert!(Arc::ptr_eq(edited.plan(), &parsed.plan(job.sib_policy)));
        let other_before = serialize(&other.summary(job.top)).unwrap();
        let instrument = edited.network().instruments().next().unwrap().0;
        edited.edit(WorkspaceDelta::SetWeights { instrument, obs: 1_000, set: 1_000 }).unwrap();
        assert_ne!(serialize(&edited.summary(job.top)).unwrap(), other_before);
        assert_eq!(serialize(&other.summary(job.top)).unwrap(), other_before);
        assert_eq!(run(&analyze), before, "an analyze after the edit answers the same bytes");
    }

    #[test]
    fn execute_whatif_set_weights_reports_new_totals() {
        let job = {
            let req = JobRequest {
                network: Some(NET.into()),
                op: Some("set_weights".into()),
                target: Some("a".into()),
                obs_weight: Some(0),
                set_weight: Some(0),
                ..Default::default()
            };
            resolve(Endpoint::Whatif, &req).unwrap()
        };
        let body = execute(&job, Parallelism::sequential(), &Deadline::none()).unwrap();
        let resp: WhatifResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(resp.op, "set_weights");
        assert!(resp.total_damage_after < resp.total_damage_before);
    }

    #[test]
    fn whatif_set_weights_saturates_instead_of_overflowing() {
        // A weight of u64::MAX must clamp the damage at the ceiling, as the
        // full sweep does: never wrap below the weight-1 answer, never panic.
        let net = include_str!("../../../examples/networks/soc_demo.rsn");
        let total_after = |weight: u64| {
            let req = JobRequest {
                network: Some(net.into()),
                op: Some("set_weights".into()),
                target: Some("boot".into()),
                obs_weight: Some(weight),
                set_weight: Some(weight),
                ..Default::default()
            };
            let job = resolve(Endpoint::Whatif, &req).unwrap();
            let body = execute(&job, Parallelism::sequential(), &Deadline::none()).unwrap();
            serde_json::from_str::<WhatifResponse>(&body).unwrap().total_damage_after
        };
        let one = total_after(1);
        let max = total_after(u64::MAX);
        assert!(max >= one, "u64::MAX weights answered {max}, below the weight-1 total {one}");
        assert_eq!(max, u64::MAX, "the total clamps at the ceiling");
    }

    #[test]
    fn whatif_unknown_target_is_404() {
        let job = whatif_job("harden", "nowhere");
        let err = execute(&job, Parallelism::sequential(), &Deadline::none()).unwrap_err();
        assert_eq!((err.status, err.code.as_str()), (404, "unknown_target"));
        assert!(!err.retryable());
    }

    #[test]
    fn whatif_keys_separate_ops_but_share_the_workspace() {
        let harden = whatif_job("harden", "a");
        let exclude = whatif_job("exclude", "a");
        assert_ne!(harden.canonical_key(), exclude.canonical_key());
        assert_eq!(harden.workspace_key(), exclude.workspace_key());
        // The workspace key ignores `top` too — rendering only.
        let mut top = harden.clone();
        top.top = 3;
        assert_eq!(harden.workspace_key(), top.workspace_key());
        assert_ne!(harden.canonical_key(), top.canonical_key());
    }

    #[test]
    fn request_roundtrips_through_json() {
        let req = JobRequest {
            network: Some(NET.into()),
            seed: Some(7),
            solver: Some("greedy".into()),
            ..Default::default()
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: JobRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
        // Sparse hand-written submissions parse too.
        let sparse: JobRequest =
            serde_json::from_str("{\"network\":\"network t { seg a len=1; }\"}").unwrap();
        assert_eq!(sparse.network.as_deref(), Some("network t { seg a len=1; }"));
        assert_eq!(sparse.network_hash, None);
        assert_eq!(sparse.seed, None);
        // Hash-referenced submissions carry no inline text at all.
        let by_hash: JobRequest =
            serde_json::from_str(&format!("{{\"network_hash\":\"{}\"}}", "ab".repeat(32))).unwrap();
        assert_eq!(by_hash.network, None);
        assert_eq!(
            by_hash.network_hash.as_deref(),
            Some("abababababababababababababababababababababababababababababababab")
        );
    }

    #[test]
    fn resolve_accepts_hash_references_and_rejects_ambiguity() {
        let hex = "0f".repeat(32);
        let req = JobRequest { network_hash: Some(hex.clone()), ..Default::default() };
        let job = resolve(Endpoint::Analyze, &req).unwrap();
        assert_eq!(job.network_hash.as_deref(), Some(hex.as_str()));
        assert!(job.network.is_empty());

        let both = JobRequest {
            network: Some(NET.into()),
            network_hash: Some(hex.clone()),
            ..Default::default()
        };
        let err = resolve(Endpoint::Analyze, &both).unwrap_err();
        assert_eq!((err.status, err.code.as_str()), (400, "bad_request"));

        let bad = JobRequest { network_hash: Some("xyz".into()), ..Default::default() };
        assert_eq!(resolve(Endpoint::Analyze, &bad).unwrap_err().status, 400);

        // Registration itself must carry inline text.
        let err = resolve(Endpoint::Networks, &req).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn canonical_key_is_text_invariant_and_hash_keyed() {
        let job = analyze_job();
        let parsed = ParsedNetwork::from_text(NET).unwrap();
        assert_eq!(job.canonical_key(), job.canonical_key_with(&parsed.hash));
        assert!(job.canonical_key().contains(&format!("network=sha256:{}", parsed.hash)));
        // A whitespace-variant text of the same network shares the key.
        let spaced = NET.replace("; ", ";  ");
        let respaced = ParsedNetwork::from_text(&spaced).unwrap();
        assert_eq!(respaced.hash, parsed.hash);
        // A hash-referenced job keys identically to its inline form.
        let req = JobRequest { network_hash: Some(parsed.hash.to_hex()), ..Default::default() };
        let by_hash = resolve(Endpoint::Analyze, &req).unwrap();
        assert_eq!(by_hash.canonical_key_with(&parsed.hash), job.canonical_key());
        assert_eq!(by_hash.workspace_key_with(&parsed.hash), job.workspace_key());
    }

    #[test]
    fn networks_put_body_reports_hash_and_shape() {
        let parsed = ParsedNetwork::from_text(NET).unwrap();
        let body = networks_put_body(&parsed).unwrap();
        let resp: NetworkPutResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(resp.network_hash, parsed.hash.to_hex());
        assert_eq!(resp.name, "t");
        assert_eq!(resp.nodes, parsed.net.node_count() as u64);
        assert!(resp.instruments >= 2);
        // The execute path serves the same bytes for a Networks job.
        let req = JobRequest { network: Some(NET.into()), ..Default::default() };
        let job = resolve(Endpoint::Networks, &req).unwrap();
        let via_execute = execute(&job, Parallelism::sequential(), &Deadline::none()).unwrap();
        assert_eq!(via_execute, body);
    }
}
