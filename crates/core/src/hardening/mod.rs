//! Selective hardening (§V): the multi-objective optimization that picks
//! which scan primitives to harden.
//!
//! The problem ([`HardeningProblem`]) minimizes hardening cost and remaining
//! single-fault damage simultaneously; the solvers ([`solvers`]) produce
//! close-to-Pareto-optimal [`HardeningFront`]s from which constrained
//! solutions (Table I's "damage ≤ 10 %" and "cost ≤ 10 %" columns) are
//! selected.

pub mod problem;
pub mod solution;
pub mod solvers;

pub use problem::HardeningProblem;
pub use solution::{HardeningFront, HardeningSolution};
pub use solvers::{
    solve_exact, solve_greedy, solve_nsga2, solve_random, solve_spea2, ExactSolveError,
};
