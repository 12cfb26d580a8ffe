//! Multi-objective evolutionary algorithms over binary genomes.
//!
//! A from-scratch stand-in for the Opt4J framework used by *Robust
//! Reconfigurable Scan Networks* (DATE 2022): the paper selects hardening
//! candidates with **SPEA2** \[Zitzler et al. 2001\] and cites **NSGA-II**
//! \[Deb et al. 2002\]; both are implemented here with the paper's operator
//! set (binary genomes, one-point crossover, independent bit mutation,
//! binary tournament selection).
//!
//! * [`Problem`] — define a minimization problem over [`BitGenome`]s;
//! * [`spea2()`](spea2()) / [`nsga2()`](nsga2()) — run an optimizer, get a Pareto front;
//! * [`dominance`] — dominance, non-dominated sorting, crowding distance;
//! * [`metrics`] — hypervolume and extent indicators.
//!
//! # Examples
//!
//! ```
//! use moea::{spea2, BitGenome, Problem, Spea2Config};
//! use rand::SeedableRng;
//!
//! struct CostVsLoss;
//! impl Problem for CostVsLoss {
//!     fn genome_len(&self) -> usize { 16 }
//!     fn objective_count(&self) -> usize { 2 }
//!     fn evaluate(&self, g: &BitGenome) -> Vec<f64> {
//!         let ones = g.count_ones() as f64;
//!         vec![ones, 16.0 - ones]
//!     }
//! }
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let cfg = Spea2Config { generations: 10, ..Default::default() };
//! let front = spea2(&CostVsLoss, &cfg, &mut rng, |_| {}, || false)?;
//! assert!(!front.is_empty());
//! # Ok::<(), moea::Interrupted>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod dominance;
mod genome;
pub mod metrics;
pub mod nsga2;
pub mod operators;
mod problem;
pub mod spea2;

pub use dominance::{dominates, non_dominated_sort, pareto_filter};
pub use genome::BitGenome;
pub use metrics::{extent_2d, hypervolume_2d};
pub use nsga2::{nsga2, Nsga2Config};
pub use operators::{CrossoverKind, Variation};
pub use problem::{Individual, Interrupted, Problem};
pub use spea2::{spea2, GenerationStats, Spea2Config};
