//! Convenience re-exports for the common analysis pipeline.
//!
//! ```
//! use robust_rsn::prelude::*;
//! ```
//!
//! brings the session API ([`AnalysisSession`], [`Solver`]), the incremental
//! engine ([`Workspace`], [`WorkspaceDelta`]), the analysis inputs
//! ([`CriticalitySpec`], [`AnalysisOptions`], [`CostModel`],
//! [`Parallelism`], [`CancelToken`]), the hardening types and the optimizer configs into
//! scope — everything a typical driver needs. Pair it with
//! `rsn_model::prelude` for the network-building side.

pub use crate::cancel::CancelToken;
pub use crate::cost::CostModel;
pub use crate::criticality::{
    analyze, AnalysisOptions, Criticality, ModeAggregation, SibCellPolicy,
};
pub use crate::graph_analysis::{
    analyze_graph, double_fault_damage, fault_set_damage, AnalysisError, GraphCriticality,
};
pub use crate::hardening::{
    solve_exact, solve_greedy, solve_nsga2, solve_random, solve_spea2, HardeningFront,
    HardeningProblem, HardeningSolution,
};
pub use crate::par::Parallelism;
pub use crate::plan::AnalysisPlan;
pub use crate::session::{AnalysisSession, AnalysisSessionBuilder, SessionError, Solver};
pub use crate::spec::{CriticalitySpec, PaperSpecParams};
pub use crate::workspace::{DeltaReport, Workspace, WorkspaceDelta, WorkspaceError};
pub use moea::{Nsga2Config, Spea2Config};
