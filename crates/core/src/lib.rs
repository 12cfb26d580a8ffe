//! **robust-rsn** — Robust Reconfigurable Scan Networks.
//!
//! A from-scratch reproduction of *Robust Reconfigurable Scan Networks*
//! (Lylina, Wang, Wunderlich — DATE 2022): make an IEEE-1687 scan network
//! robust against permanent faults by **selectively hardening** a minimized
//! number of carefully chosen scan primitives, instead of changing the
//! topology or triplicating everything.
//!
//! The pipeline:
//!
//! 1. model the RSN and its instruments (`rsn-model`), lower it to a binary
//!    series-parallel decomposition tree (`rsn-sp`);
//! 2. attach an explicit **criticality specification** ([`CriticalitySpec`]):
//!    damage weights `do_i` / `ds_i` per instrument (§IV-A);
//! 3. run the **criticality analysis** ([`analyze`]): the damage `d_j` every
//!    primitive would cause, computed in O(N) on the tree (§IV-B/C);
//! 4. solve the **selective hardening** problem ([`HardeningProblem`]) with
//!    SPEA2 (or NSGA-II, greedy, exact DP) for close-to-Pareto-optimal
//!    cost/damage trade-offs (§V);
//! 5. pick constrained solutions from the front ([`HardeningFront`]) — e.g.
//!    Table I's "damage ≤ 10 %" and "cost ≤ 10 %" columns.
//!
//! # Examples
//!
//! ```
//! use moea::Spea2Config;
//! use robust_rsn::{
//!     analyze, AnalysisOptions, CancelToken, CostModel, CriticalitySpec, HardeningProblem,
//!     PaperSpecParams, solve_spea2,
//! };
//! use rsn_model::Structure;
//! use rsn_sp::tree_from_structure;
//!
//! // A small SIB-based network.
//! let s = Structure::series(vec![
//!     Structure::sib("s0", Structure::instrument_seg("temp", 4, rsn_model::InstrumentKind::Sensor)),
//!     Structure::sib("s1", Structure::instrument_seg("avfs", 6, rsn_model::InstrumentKind::RuntimeAdaptive)),
//! ]);
//! let (net, built) = s.build("demo")?;
//! let tree = tree_from_structure(&net, &built);
//! let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 42);
//! let crit = analyze(&net, &tree, &spec, &AnalysisOptions::default());
//! let problem = HardeningProblem::new(&net, &crit, &CostModel::default());
//! let cfg = Spea2Config { generations: 30, ..Default::default() };
//! let front = solve_spea2(&problem, &cfg, 1, |_| {}, &CancelToken::none())?;
//! assert!(front.min_damage_with_cost_at_most(problem.max_cost()).is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod accessibility;
pub mod baseline;
pub mod bitset;
pub mod cancel;
pub mod cost;
pub mod criticality;
pub mod diagnosis;
pub mod fault_effects;
pub mod graph_analysis;
pub mod hardening;
pub mod netkey;
pub mod par;
pub mod plan;
pub mod prelude;
pub mod reliability;
pub mod report;
pub mod session;
pub mod shard;
pub mod spec;
pub mod validate;
pub mod workspace;

pub use accessibility::{accessibility_under, oracle_damage, Accessibility};
pub use baseline::{bypass_augment, AugmentGranularity, Augmented};
pub use bitset::BitSet;
pub use cancel::{CancelToken, Cancelled};
pub use cost::CostModel;
pub use criticality::{
    analyze, analyze_naive, AnalysisOptions, Criticality, ModeAggregation, SibCellPolicy,
};
pub use diagnosis::{Diagnosis, FaultDictionary};
pub use fault_effects::{broken_segment_effect, mux_stuck_effect, FaultEffect};
pub use graph_analysis::{
    analyze_graph, analyze_graph_with, double_fault_damage, fault_set_damage, kernel_counters,
    AnalysisError, DoubleFaultSummary, GraphCriticality, KernelCounters, ReachKernel,
    MAX_FROZEN_COMBINATIONS,
};
pub use hardening::{
    solve_exact, solve_greedy, solve_nsga2, solve_random, solve_spea2, ExactSolveError,
    HardeningFront, HardeningProblem, HardeningSolution,
};
pub use netkey::{canonical_network_hash, NetworkHash};
pub use par::{Parallelism, ShardPanic};
pub use plan::AnalysisPlan;
pub use reliability::DefectModel;
pub use report::{CriticalitySummary, RankedPrimitive};
pub use session::{AnalysisSession, AnalysisSessionBuilder, SessionError, Solver};
pub use shard::{
    analyze_mode_range, analyze_mode_range_with_cancel, criticality_from_mode_damages,
    merge_mode_damages, mode_count, ModeDamage, ShardMergeError,
};
pub use spec::{CriticalitySpec, PaperSpecParams};
pub use validate::{validate_criticality, Disagreement, ValidationReport};
pub use workspace::{DeltaReport, Workspace, WorkspaceDelta, WorkspaceError};
