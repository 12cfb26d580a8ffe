//! The unified analysis session — one owner for the network, its
//! decomposition tree, the criticality specification and the analysis knobs.
//!
//! [`AnalysisSession`] bundles everything the free functions take as
//! separate arguments, so the common pipeline reads as one fluent chain:
//!
//! ```
//! use robust_rsn::prelude::*;
//! use rsn_model::prelude::*;
//!
//! let s = Structure::series(vec![
//!     Structure::sib("s0", Structure::instrument_seg("temp", 4, InstrumentKind::Sensor)),
//!     Structure::sib("s1", Structure::instrument_seg("avfs", 6, InstrumentKind::RuntimeAdaptive)),
//! ]);
//! let (net, _) = s.build("demo")?;
//! let session = AnalysisSession::builder(net)
//!     .with_paper_spec(PaperSpecParams::default(), 42)
//!     .with_threads(1)
//!     .build();
//! let crit = session.criticality()?;
//! assert!(crit.total_damage() > 0);
//! let front = session.solve(Solver::Greedy)?;
//! assert!(!front.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The session caches the decomposition tree and both analysis results, so
//! repeated calls (e.g. `criticality()` followed by several `solve`s) pay
//! for each analysis once. All evaluation loops honour the session's
//! [`Parallelism`]; results are bit-identical for every thread count.

use std::sync::{Arc, OnceLock};

use moea::{Nsga2Config, Spea2Config};
use rsn_model::{BuiltStructure, ScanNetwork};
use rsn_sp::{recognize, tree_from_structure, DecompTree};

use crate::cancel::{CancelToken, Cancelled};
use crate::cost::CostModel;
use crate::criticality::{analyze, AnalysisOptions, Criticality};
use crate::graph_analysis::{
    analyze_graph, double_fault_damage, AnalysisError, DoubleFaultSummary,
};
use crate::hardening::{
    solve_exact, solve_greedy, solve_nsga2, solve_random, solve_spea2, ExactSolveError,
    HardeningFront, HardeningProblem,
};
use crate::par::Parallelism;
use crate::plan::AnalysisPlan;
use crate::spec::{CriticalitySpec, PaperSpecParams};
use crate::validate::{validate_criticality, ValidationReport};
use crate::workspace::Workspace;

/// Errors surfaced by [`AnalysisSession`] methods.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The O(N) tree analysis needs a series-parallel decomposition, but the
    /// network is not (recognizably) series-parallel and no tree was
    /// supplied to the builder. Graph-exact analysis
    /// ([`AnalysisSession::try_graph_criticality`]) still works.
    NotSeriesParallel(String),
    /// A tree supplied via [`AnalysisSessionBuilder::with_tree`] does not
    /// belong to the session's network.
    TreeMismatch(String),
    /// The exact DP solver exceeded its state budget; use the greedy or
    /// evolutionary solvers instead.
    BudgetExceeded {
        /// Non-dominated states at the point the budget was exceeded.
        states: usize,
    },
    /// A fault-set evaluation would enumerate more frozen-select
    /// combinations than
    /// [`MAX_FROZEN_COMBINATIONS`](crate::graph_analysis::MAX_FROZEN_COMBINATIONS);
    /// see [`AnalysisError::TooManyFrozenCombinations`].
    TooManyFrozenCombinations {
        /// The (saturating) number of combinations the fault set requires.
        combos: u128,
        /// The enforced bound.
        limit: usize,
    },
    /// The session's [`CancelToken`] fired (caller-side cancel or expired
    /// deadline) at a cooperative checkpoint inside a sweep, campaign, or
    /// optimizer generation loop; the operation was abandoned mid-flight.
    Cancelled,
    /// A sharded analysis worker panicked; the panic was caught at the shard
    /// boundary and the operation failed instead of unwinding the caller.
    WorkerPanicked {
        /// The panic payload rendered as text.
        message: String,
    },
    /// The network exceeds the analysis kernel's `u32` index space (node
    /// count or total mux input ports at or above `u32::MAX`); see
    /// [`AnalysisError::NetworkTooLarge`].
    NetworkTooLarge {
        /// The offending count.
        count: u128,
        /// The enforced bound (`u32::MAX`).
        limit: u64,
    },
}

impl SessionError {
    /// A stable machine-readable code for this error, used by `rsn-serve` to
    /// build structured JSON error responses and by `rsn_tool` for uniform
    /// reporting. Codes are part of the wire contract and never change.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            Self::NotSeriesParallel(_) => "not_series_parallel",
            Self::TreeMismatch(_) => "tree_mismatch",
            Self::BudgetExceeded { .. } => "exact_budget_exceeded",
            Self::TooManyFrozenCombinations { .. } => "too_many_frozen_combinations",
            Self::Cancelled => "cancelled",
            Self::WorkerPanicked { .. } => "worker_panicked",
            Self::NetworkTooLarge { .. } => "network_too_large",
        }
    }
}

impl core::fmt::Display for SessionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NotSeriesParallel(why) => {
                write!(f, "network is not series-parallel and no tree was supplied: {why}")
            }
            Self::TreeMismatch(why) => write!(f, "supplied tree does not match network: {why}"),
            Self::BudgetExceeded { states } => {
                write!(f, "exact solver exceeded its state budget ({states} states)")
            }
            Self::TooManyFrozenCombinations { combos, limit } => {
                write!(f, "fault set requires {combos} frozen-select combinations (limit {limit})")
            }
            Self::Cancelled => f.write_str("analysis cancelled (deadline exceeded or cancelled)"),
            Self::WorkerPanicked { message } => {
                write!(f, "analysis worker panicked: {message}")
            }
            Self::NetworkTooLarge { count, limit } => {
                write!(f, "network exceeds the kernel index space ({count} >= limit {limit})")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<AnalysisError> for SessionError {
    fn from(e: AnalysisError) -> Self {
        match e {
            AnalysisError::TooManyFrozenCombinations { combos, limit } => {
                Self::TooManyFrozenCombinations { combos, limit }
            }
            AnalysisError::Cancelled => Self::Cancelled,
            AnalysisError::WorkerPanicked { message } => Self::WorkerPanicked { message },
            AnalysisError::NetworkTooLarge { count, limit } => {
                Self::NetworkTooLarge { count, limit }
            }
        }
    }
}

impl From<Cancelled> for SessionError {
    fn from(_: Cancelled) -> Self {
        Self::Cancelled
    }
}

impl From<ExactSolveError> for SessionError {
    fn from(e: ExactSolveError) -> Self {
        match e {
            ExactSolveError::BudgetExceeded { states } => Self::BudgetExceeded { states },
            ExactSolveError::Cancelled => Self::Cancelled,
        }
    }
}

/// Solver selection for [`AnalysisSession::solve`].
///
/// Each variant maps to one of the free `solve_*` functions; the session
/// supplies the problem (built from its cached criticality and cost model).
#[derive(Clone, Debug, PartialEq)]
pub enum Solver {
    /// The paper's SPEA2 configuration ([`solve_spea2`]).
    Spea2 {
        /// Algorithm parameters.
        config: Spea2Config,
        /// RNG seed.
        seed: u64,
    },
    /// NSGA-II ([`solve_nsga2`]).
    Nsga2 {
        /// Algorithm parameters.
        config: Nsga2Config,
        /// RNG seed.
        seed: u64,
    },
    /// Damage-per-cost greedy baseline ([`solve_greedy`]).
    Greedy,
    /// Certified Pareto front by dynamic programming
    /// ([`solve_exact`]).
    Exact {
        /// Bound on the non-dominated state set.
        max_states: usize,
    },
    /// Random-sampling baseline ([`solve_random`]).
    Random {
        /// Number of random genomes.
        samples: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl Solver {
    /// Runs this solver on `problem`, polling `cancel` once per generation
    /// or enumeration step (greedy and random check it once up front). The
    /// one dispatch behind [`AnalysisSession::solve_problem`] and the CLI.
    ///
    /// # Errors
    ///
    /// [`SessionError::BudgetExceeded`] when [`Solver::Exact`] runs out
    /// of states; [`SessionError::Cancelled`] when `cancel` fires.
    pub fn run(
        self,
        problem: &HardeningProblem,
        cancel: &CancelToken,
    ) -> Result<HardeningFront, SessionError> {
        match self {
            Self::Spea2 { config, seed } => {
                Ok(solve_spea2(problem, &config, seed, |_| {}, cancel)?)
            }
            Self::Nsga2 { config, seed } => Ok(solve_nsga2(problem, &config, seed, cancel)?),
            Self::Greedy => {
                cancel.check()?;
                Ok(solve_greedy(problem))
            }
            Self::Exact { max_states } => Ok(solve_exact(problem, max_states, cancel)?),
            Self::Random { samples, seed } => {
                cancel.check()?;
                Ok(solve_random(problem, samples, seed))
            }
        }
    }
}

/// How the builder obtains the [`CriticalitySpec`] at build time.
#[derive(Clone, Debug)]
enum SpecChoice {
    /// Default per-kind weights ([`CriticalitySpec::from_kinds`]).
    Kinds,
    /// A caller-constructed spec.
    Provided(CriticalitySpec),
    /// The paper's randomized weights ([`CriticalitySpec::paper_random`]).
    Paper(PaperSpecParams, u64),
}

/// Where the session's decomposition tree comes from.
#[derive(Debug)]
enum TreeChoice {
    /// Recognized from the network on first use.
    Recognize,
    /// Supplied by the caller; validated against the network on first use.
    Provided(Arc<DecompTree>),
    /// Supplied by the caller, already validated against the network.
    Validated(Arc<DecompTree>),
}

/// Builder for [`AnalysisSession`]; start from
/// [`AnalysisSession::builder`].
#[derive(Debug)]
pub struct AnalysisSessionBuilder {
    net: Arc<ScanNetwork>,
    tree: TreeChoice,
    plan: Option<Arc<AnalysisPlan>>,
    spec: SpecChoice,
    options: AnalysisOptions,
    parallelism: Parallelism,
    cost_model: CostModel,
    cancel: CancelToken,
}

impl AnalysisSessionBuilder {
    /// Supplies a pre-built decomposition tree (skips recognition). The tree
    /// is validated against the network on first use.
    #[must_use]
    pub fn with_tree(mut self, tree: DecompTree) -> Self {
        self.tree = TreeChoice::Provided(Arc::new(tree));
        self
    }

    /// Shares a decomposition tree already validated against this network
    /// (with [`DecompTree::validate`]): the session neither validates nor
    /// copies it. A server that analyses one network many times validates
    /// its tree once and hands every session the same [`Arc`].
    #[must_use]
    pub fn with_validated_tree(mut self, tree: Arc<DecompTree>) -> Self {
        self.tree = TreeChoice::Validated(tree);
        self
    }

    /// Shares a prebuilt [`AnalysisPlan`] of this network, so the session's
    /// graph-exact analyses (and a workspace built from this builder) skip
    /// building their own. The plan must have been built under the SIB
    /// policy of the builder's final options.
    #[must_use]
    pub fn with_plan(mut self, plan: Arc<AnalysisPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Builds the tree from the [`BuiltStructure`] returned by
    /// [`rsn_model::Structure::build`] — the cheapest path when the network
    /// came from the structure DSL.
    #[must_use]
    pub fn with_structure(self, built: &BuiltStructure) -> Self {
        let tree = tree_from_structure(&self.net, built);
        self.with_tree(tree)
    }

    /// Uses a caller-constructed [`CriticalitySpec`].
    #[must_use]
    pub fn with_spec(mut self, spec: CriticalitySpec) -> Self {
        self.spec = SpecChoice::Provided(spec);
        self
    }

    /// Uses the paper's randomized weights
    /// ([`CriticalitySpec::paper_random`]) with the given seed.
    #[must_use]
    pub fn with_paper_spec(mut self, params: PaperSpecParams, seed: u64) -> Self {
        self.spec = SpecChoice::Paper(params, seed);
        self
    }

    /// Sets the analysis options (fault-mode aggregation, SIB cell policy).
    #[must_use]
    pub fn with_options(mut self, options: AnalysisOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the thread count for all sharded loops (`0` = auto). The
    /// default follows the `RSN_THREADS` environment variable.
    #[must_use]
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_parallelism(Parallelism::new(threads))
    }

    /// Sets the parallelism configuration directly.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the cost model used by [`AnalysisSession::solve`] and
    /// [`AnalysisSession::hardening_problem`]'s default.
    #[must_use]
    pub fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Attaches a [`CancelToken`] threaded through every sharded sweep,
    /// simulation campaign, and optimizer generation loop of the session.
    /// Once the token fires (explicit [`CancelToken::cancel`] or an expired
    /// deadline), in-flight analyses stop at their next cooperative
    /// checkpoint and session methods return [`SessionError::Cancelled`].
    ///
    /// Defaults to [`CancelToken::none`], which never fires and adds no
    /// overhead.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The supplied plan, checked against the options' SIB policy.
    fn checked_plan(&self) -> Option<Arc<AnalysisPlan>> {
        let plan = self.plan.clone()?;
        assert_eq!(
            plan.policy(),
            self.options.sib_policy,
            "the supplied analysis plan was built under another SIB policy"
        );
        Some(plan)
    }

    /// Resolves the spec choice against the network.
    fn resolve_spec(choice: SpecChoice, net: &ScanNetwork) -> CriticalitySpec {
        match choice {
            SpecChoice::Kinds => CriticalitySpec::from_kinds(net),
            SpecChoice::Provided(spec) => spec,
            SpecChoice::Paper(params, seed) => CriticalitySpec::paper_random(net, &params, seed),
        }
    }

    /// Finalizes into an incremental [`Workspace`] instead of a one-shot
    /// session: every fault mode is evaluated once here (honoring the
    /// builder's parallelism and cancel token), after which
    /// [`Workspace::edit`]/[`Workspace::harden`] work from the cached
    /// per-mode traces. A supplied tree and the cost model are not used by
    /// the workspace (it is graph-exact and builds no hardening problem).
    ///
    /// # Errors
    ///
    /// [`SessionError::Cancelled`] when the builder's token fires during
    /// the initial sweep; [`SessionError::WorkerPanicked`] when a shard
    /// panics.
    ///
    /// # Panics
    ///
    /// Panics when a plan supplied with [`with_plan`](Self::with_plan) was
    /// built under another SIB policy than the options'.
    pub fn build_workspace(self) -> Result<Workspace, SessionError> {
        // The workspace shares the network and the plan; it never edits
        // either.
        let plan = self
            .checked_plan()
            .unwrap_or_else(|| Arc::new(AnalysisPlan::new(&self.net, self.options.sib_policy)));
        let spec = Self::resolve_spec(self.spec, &self.net);
        Workspace::from_inputs(self.net, plan, spec, self.options, self.parallelism, self.cancel)
    }

    /// Finalizes the session. The spec is resolved here; the decomposition
    /// tree (when not supplied) is recognized, and the plan (when not
    /// supplied) built, lazily on first use.
    ///
    /// # Panics
    ///
    /// Panics when a plan supplied with [`with_plan`](Self::with_plan) was
    /// built under another SIB policy than the options'.
    #[must_use]
    pub fn build(self) -> AnalysisSession {
        let plan = OnceLock::new();
        if let Some(supplied) = self.checked_plan() {
            let _ = plan.set(supplied);
        }
        let tree = OnceLock::new();
        let provided_tree = match self.tree {
            TreeChoice::Recognize => None,
            TreeChoice::Provided(provided) => Some(provided),
            TreeChoice::Validated(validated) => {
                let _ = tree.set(validated);
                None
            }
        };
        let spec = Self::resolve_spec(self.spec, &self.net);
        AnalysisSession {
            net: self.net,
            provided_tree,
            spec,
            options: self.options,
            parallelism: self.parallelism,
            cost_model: self.cost_model,
            cancel: self.cancel,
            plan,
            tree,
            criticality: OnceLock::new(),
            graph_criticality: OnceLock::new(),
            validation: OnceLock::new(),
        }
    }
}

/// An analysis session: owns the network plus every analysis input, caches
/// the expensive intermediate results, and exposes the whole §IV/§V
/// pipeline as methods.
///
/// See the [module docs](self) for a worked example. Construct with
/// [`AnalysisSession::builder`].
#[derive(Debug)]
pub struct AnalysisSession {
    net: Arc<ScanNetwork>,
    /// A caller's tree still to be validated on first use.
    provided_tree: Option<Arc<DecompTree>>,
    spec: CriticalitySpec,
    options: AnalysisOptions,
    parallelism: Parallelism,
    cost_model: CostModel,
    cancel: CancelToken,
    plan: OnceLock<Arc<AnalysisPlan>>,
    tree: OnceLock<Arc<DecompTree>>,
    criticality: OnceLock<Criticality>,
    graph_criticality: OnceLock<Criticality>,
    validation: OnceLock<ValidationReport>,
}

impl AnalysisSession {
    /// Starts a builder over `net` with default spec (per-kind weights),
    /// default options, default cost model and `RSN_THREADS`-controlled
    /// parallelism. An `Arc<ScanNetwork>` is shared, not copied: the
    /// session only reads its network.
    #[must_use]
    pub fn builder(net: impl Into<Arc<ScanNetwork>>) -> AnalysisSessionBuilder {
        AnalysisSessionBuilder {
            net: net.into(),
            tree: TreeChoice::Recognize,
            plan: None,
            spec: SpecChoice::Kinds,
            options: AnalysisOptions::default(),
            parallelism: Parallelism::default(),
            cost_model: CostModel::default(),
            cancel: CancelToken::none(),
        }
    }

    /// The session's network.
    #[must_use]
    pub fn network(&self) -> &ScanNetwork {
        &self.net
    }

    /// The session's criticality specification.
    #[must_use]
    pub fn spec(&self) -> &CriticalitySpec {
        &self.spec
    }

    /// The session's analysis options.
    #[must_use]
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// The session's thread configuration.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The cost model [`solve`](Self::solve) builds its hardening problem
    /// with.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// The session's cancellation token (a clone; cancelling it is observed
    /// by every in-flight analysis of this session).
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The analysis plan every graph-exact analysis of the session sweeps
    /// through: the one supplied to the builder, or one built on first
    /// call.
    #[must_use]
    pub fn plan(&self) -> &Arc<AnalysisPlan> {
        self.plan.get_or_init(|| Arc::new(AnalysisPlan::new(&self.net, self.options.sib_policy)))
    }

    /// The decomposition tree: the one supplied to the builder (validated
    /// on first call unless supplied validated), or one recognized from the
    /// network on first call.
    ///
    /// # Errors
    ///
    /// [`SessionError::TreeMismatch`] for a supplied tree that fails
    /// validation; [`SessionError::NotSeriesParallel`] when recognition
    /// fails.
    pub fn tree(&self) -> Result<&DecompTree, SessionError> {
        if let Some(tree) = self.tree.get() {
            return Ok(tree);
        }
        let tree = match &self.provided_tree {
            Some(tree) => {
                tree.validate(&self.net).map_err(SessionError::TreeMismatch)?;
                Arc::clone(tree)
            }
            None => Arc::new(
                recognize(&self.net).map_err(|e| SessionError::NotSeriesParallel(e.to_string()))?,
            ),
        };
        Ok(self.tree.get_or_init(|| tree))
    }

    /// The O(N) tree-based criticality analysis ([`analyze`]), cached.
    ///
    /// # Errors
    ///
    /// Propagates [`tree`](Self::tree) errors for non-series-parallel
    /// networks without a supplied tree.
    pub fn criticality(&self) -> Result<&Criticality, SessionError> {
        if let Some(crit) = self.criticality.get() {
            return Ok(crit);
        }
        self.cancel.check()?;
        let tree = self.tree()?;
        let crit = analyze(&self.net, tree, &self.spec, &self.options);
        Ok(self.criticality.get_or_init(|| crit))
    }

    /// The graph-exact damage vector ([`analyze_graph`]),
    /// honoring the session's [`CancelToken`]: the token is polled at
    /// per-block checkpoints inside the sharded sweep, so a fired deadline
    /// interrupts the analysis mid-kernel. Caches on success; a cached
    /// result is returned without re-checking the token (completed analyses
    /// stay available). For incremental re-analysis use
    /// [`AnalysisSessionBuilder::build_workspace`].
    ///
    /// # Errors
    ///
    /// [`SessionError::Cancelled`] when the token fires;
    /// [`SessionError::WorkerPanicked`] when a shard panics.
    pub fn try_graph_criticality(&self) -> Result<&Criticality, SessionError> {
        if let Some(crit) = self.graph_criticality.get() {
            return Ok(crit);
        }
        let crit = analyze_graph(
            self.plan(),
            &self.net,
            &self.spec,
            self.options.mode,
            self.parallelism,
            &self.cancel,
        )?;
        Ok(self.graph_criticality.get_or_init(|| crit))
    }

    /// The fault-simulation campaign ([`validate_criticality`])
    /// honoring the session's [`CancelToken`]: polled per primitive inside
    /// the sharded campaign (and at per-block checkpoints of the underlying
    /// analysis sweep). Caches on success.
    ///
    /// # Errors
    ///
    /// [`SessionError::Cancelled`] when the token fires;
    /// [`SessionError::WorkerPanicked`] when a shard panics.
    pub fn try_validate_criticality(&self) -> Result<&ValidationReport, SessionError> {
        if let Some(report) = self.validation.get() {
            return Ok(report);
        }
        let report = validate_criticality(
            self.plan(),
            &self.net,
            &self.spec,
            self.options.mode,
            self.parallelism,
            &self.cancel,
        )?;
        Ok(self.validation.get_or_init(|| report))
    }

    /// Exact damage statistics over **every** unordered pair of single
    /// faults on non-hardened primitives ([`double_fault_damage`]): the
    /// pairs are packed into mode-major lane blocks, so the full sweep costs
    /// a few batched traversals per
    /// [`LANES`](crate::graph_analysis::batch::LANES) pairs instead of four
    /// traversals per pair. Deterministic at every thread count.
    ///
    /// # Errors
    ///
    /// [`SessionError::TooManyFrozenCombinations`] when a pair exceeds the
    /// frozen-select combination bound; [`SessionError::Cancelled`] when the
    /// session's token fires.
    pub fn double_fault_damage(
        &self,
        hardened: &[rsn_model::NodeId],
    ) -> Result<DoubleFaultSummary, SessionError> {
        double_fault_damage(
            self.plan(),
            &self.net,
            &self.spec,
            hardened,
            self.parallelism,
            &self.cancel,
        )
        .map_err(SessionError::from)
    }

    /// Builds the selective-hardening problem from the cached criticality
    /// and `cost_model`, with batch evaluation sharded per the session's
    /// thread configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`criticality`](Self::criticality) errors.
    pub fn hardening_problem(
        &self,
        cost_model: &CostModel,
    ) -> Result<HardeningProblem, SessionError> {
        let crit = self.criticality()?;
        Ok(HardeningProblem::new(&self.net, crit, cost_model).with_parallelism(self.parallelism))
    }

    /// Runs `solver` on the session's hardening problem (built with the
    /// session's cost model) and returns the resulting front.
    ///
    /// # Errors
    ///
    /// Propagates [`criticality`](Self::criticality) errors;
    /// [`SessionError::BudgetExceeded`] when [`Solver::Exact`] runs out
    /// of states; [`SessionError::Cancelled`] when the session's token fires
    /// mid-run (checked once per generation / enumeration step).
    pub fn solve(&self, solver: Solver) -> Result<HardeningFront, SessionError> {
        self.solve_problem(&self.hardening_problem(&self.cost_model)?, solver)
    }

    /// Runs `solver` on an already built `problem` under the session's
    /// cancel token: callers that also read the problem's totals build it
    /// once (usually with [`cost_model`](Self::cost_model)) and solve that.
    ///
    /// # Errors
    ///
    /// As [`solve`](Self::solve), minus the criticality errors.
    pub fn solve_problem(
        &self,
        problem: &HardeningProblem,
        solver: Solver,
    ) -> Result<HardeningFront, SessionError> {
        solver.run(problem, &self.cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_model::{InstrumentKind, Structure};

    fn demo_net() -> (ScanNetwork, BuiltStructure) {
        let s = Structure::series(vec![
            Structure::sib("s0", Structure::instrument_seg("t", 4, InstrumentKind::Sensor)),
            Structure::sib(
                "s1",
                Structure::instrument_seg("a", 6, InstrumentKind::RuntimeAdaptive),
            ),
            Structure::instrument_seg("b", 3, InstrumentKind::Generic),
        ]);
        s.build("demo").expect("valid structure")
    }

    #[test]
    fn session_matches_free_functions() {
        let (net, built) = demo_net();
        let tree = tree_from_structure(&net, &built);
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 7);
        let options = AnalysisOptions::default();
        let expected = analyze(&net, &tree, &spec, &options);
        let plan = AnalysisPlan::new(&net, options.sib_policy);
        let (seq, none) = (Parallelism::sequential(), &CancelToken::none());
        let expected_graph = analyze_graph(&plan, &net, &spec, options.mode, seq, none).unwrap();

        let session = AnalysisSession::builder(net)
            .with_paper_spec(PaperSpecParams::default(), 7)
            .with_threads(2)
            .build();
        let crit = session.criticality().expect("series-parallel");
        assert_eq!(crit, &expected);
        let graph = session.try_graph_criticality().expect("quiet token");
        assert_eq!(graph.primitives(), expected_graph.primitives());
        for &j in graph.primitives() {
            assert_eq!(graph.damage(j), expected_graph.damage(j));
        }
    }

    #[test]
    fn session_recognizes_tree_lazily_and_caches() {
        let (net, _) = demo_net();
        let session = AnalysisSession::builder(net).build();
        let a = session.criticality().expect("series-parallel") as *const Criticality;
        let b = session.criticality().expect("series-parallel") as *const Criticality;
        assert_eq!(a, b, "second call must hit the cache");
    }

    #[test]
    fn supplied_tree_skips_recognition() {
        let (net, built) = demo_net();
        let session = AnalysisSession::builder(net).with_structure(&built).build();
        assert!(session.criticality().is_ok());
    }

    #[test]
    fn solve_dispatches_every_solver() {
        let (net, _) = demo_net();
        let session = AnalysisSession::builder(net)
            .with_paper_spec(PaperSpecParams::default(), 3)
            .with_threads(1)
            .build();
        let greedy = session.solve(Solver::Greedy).expect("greedy");
        assert!(!greedy.is_empty());
        let exact = session.solve(Solver::Exact { max_states: 1 << 16 }).expect("exact");
        assert!(!exact.is_empty());
        let random = session.solve(Solver::Random { samples: 16, seed: 5 }).expect("random");
        assert!(!random.is_empty());
        let cfg = moea::Spea2Config { population_size: 20, generations: 5, ..Default::default() };
        let spea2 = session.solve(Solver::Spea2 { config: cfg, seed: 1 }).expect("spea2");
        assert!(!spea2.is_empty());
        // The exact front weakly dominates the heuristics at every cost.
        for s in greedy.solutions() {
            let best = exact.min_damage_with_cost_at_most(s.cost).expect("exact covers cost");
            assert!(best.damage <= s.damage);
        }
    }

    #[test]
    fn solve_problem_matches_solve_under_the_session_cost_model() {
        let (net, _) = demo_net();
        let uniform = CostModel::Uniform { segment: 5, mux: 1 };
        let session = AnalysisSession::builder(net)
            .with_paper_spec(PaperSpecParams::default(), 3)
            .with_cost_model(uniform.clone())
            .with_threads(1)
            .build();
        assert_eq!(session.cost_model(), &uniform);
        let problem = session.hardening_problem(session.cost_model()).expect("problem");
        assert_eq!(problem.max_cost(), uniform.max_cost(session.network()));
        for solver in [Solver::Greedy, Solver::Exact { max_states: 1 << 16 }] {
            let direct = session.solve(solver.clone()).expect("solve");
            assert_eq!(session.solve_problem(&problem, solver).expect("solve_problem"), direct);
        }
    }

    #[test]
    fn session_errors_have_stable_codes_and_displays() {
        let budget = SessionError::BudgetExceeded { states: 9 };
        assert_eq!(budget.code(), "exact_budget_exceeded");
        assert!(budget.to_string().contains("9 states"));
        let nsp = SessionError::NotSeriesParallel("cycle".into());
        assert_eq!(nsp.code(), "not_series_parallel");
        assert!(nsp.to_string().contains("cycle"));
        let mismatch = SessionError::TreeMismatch("wrong leaf".into());
        assert_eq!(mismatch.code(), "tree_mismatch");
        let frozen = SessionError::TooManyFrozenCombinations { combos: 8192, limit: 4096 };
        assert_eq!(frozen.code(), "too_many_frozen_combinations");
        assert!(frozen.to_string().contains("8192") && frozen.to_string().contains("4096"));
        let via: SessionError =
            AnalysisError::TooManyFrozenCombinations { combos: 8192, limit: 4096 }.into();
        assert_eq!(via, frozen);
        let too_large =
            SessionError::NetworkTooLarge { count: 5_000_000_000, limit: u64::from(u32::MAX) };
        assert_eq!(too_large.code(), "network_too_large");
        assert!(too_large.to_string().contains("5000000000"), "{too_large}");
        let via: SessionError =
            AnalysisError::NetworkTooLarge { count: 5_000_000_000, limit: u64::from(u32::MAX) }
                .into();
        assert_eq!(via, too_large);
        // The std Error impl lets callers print uniformly via `dyn Error`.
        let boxed: Box<dyn std::error::Error> = Box::new(mismatch);
        assert!(boxed.to_string().contains("wrong leaf"));
    }

    #[test]
    fn solve_exact_budget_error_maps_to_session_error() {
        let (net, _) = demo_net();
        let session =
            AnalysisSession::builder(net).with_paper_spec(PaperSpecParams::default(), 3).build();
        match session.solve(Solver::Exact { max_states: 1 }) {
            Err(SessionError::BudgetExceeded { states }) => assert!(states > 1),
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_session_rejects_every_entry_point() {
        let (net, _) = demo_net();
        let cancel = CancelToken::new();
        cancel.cancel();
        let builder = || {
            AnalysisSession::builder(net.clone())
                .with_paper_spec(PaperSpecParams::default(), 7)
                .with_cancel(cancel.clone())
        };
        let session = builder().build();
        assert_eq!(session.criticality().unwrap_err(), SessionError::Cancelled);
        assert_eq!(session.try_graph_criticality().unwrap_err(), SessionError::Cancelled);
        assert_eq!(session.try_validate_criticality().unwrap_err(), SessionError::Cancelled);
        assert_eq!(session.double_fault_damage(&[]).unwrap_err(), SessionError::Cancelled);
        assert_eq!(builder().build_workspace().unwrap_err(), SessionError::Cancelled);
    }

    #[test]
    fn cancelling_mid_session_interrupts_solvers() {
        let (net, _) = demo_net();
        let cancel = CancelToken::new();
        let session = AnalysisSession::builder(net)
            .with_paper_spec(PaperSpecParams::default(), 7)
            .with_cancel(cancel.clone())
            .build();
        // Warm the criticality cache while the token is quiet...
        assert!(session.criticality().is_ok());
        cancel.cancel();
        // ...then every solver observes the cancellation mid-run.
        assert_eq!(session.solve(Solver::Greedy).unwrap_err(), SessionError::Cancelled);
        assert_eq!(
            session.solve(Solver::Exact { max_states: 1 << 16 }).unwrap_err(),
            SessionError::Cancelled
        );
        let cfg = moea::Spea2Config { population_size: 20, generations: 5, ..Default::default() };
        assert_eq!(
            session.solve(Solver::Spea2 { config: cfg, seed: 1 }).unwrap_err(),
            SessionError::Cancelled
        );
        // Cached results from before the cancellation stay available.
        assert!(session.criticality().is_ok());
    }

    #[test]
    fn quiet_token_leaves_results_bit_identical() {
        let (net, _) = demo_net();
        let plain = AnalysisSession::builder(net.clone())
            .with_paper_spec(PaperSpecParams::default(), 7)
            .with_threads(1)
            .build_workspace()
            .expect("no token");
        let expected = plain.criticality();
        for threads in [1usize, 4] {
            let session = AnalysisSession::builder(net.clone())
                .with_paper_spec(PaperSpecParams::default(), 7)
                .with_threads(threads)
                .with_cancel(CancelToken::new())
                .build();
            let got = session.try_graph_criticality().expect("quiet token");
            assert_eq!(got.primitives(), expected.primitives());
            for &j in got.primitives() {
                assert_eq!(got.damage(j), expected.damage(j));
            }
        }
    }
}
