//! A full Table I style campaign on an MBIST network: generate the design,
//! apply the §VI randomized specification, analyze, optimize with SPEA2, and
//! extract both constrained solutions.
//!
//! Run with `cargo run --release --example mbist_campaign [design-name]`
//! (default: MBIST_1_5_5).

use std::time::Instant;

use moea::{Spea2Config, Variation};
use robust_rsn::{
    analyze, solve_greedy, solve_spea2, AnalysisOptions, CancelToken, CostModel, CriticalitySpec,
    HardeningProblem, PaperSpecParams,
};
use rsn_benchmarks::table::by_name;
use rsn_sp::tree_from_structure;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "MBIST_1_5_5".into());
    let spec_row = by_name(&name)
        .ok_or_else(|| format!("unknown design {name:?}; see rsn_benchmarks::table"))?;

    let start = Instant::now();
    let structure = spec_row.generate();
    let (net, built) = structure.build(spec_row.name)?;
    let tree = tree_from_structure(&net, &built);
    println!(
        "{}: {} segments, {} muxes (tree depth {})",
        spec_row.name,
        net.stats().segments,
        net.stats().muxes,
        tree.depth()
    );

    // §VI specification: 70% instruments with non-zero do, 70% with ds,
    // 10% important each way.
    let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 2022);
    let crit = analyze(&net, &tree, &weights, &AnalysisOptions::default());
    let cost_model = CostModel::default();
    let problem = HardeningProblem::new(&net, &crit, &cost_model);
    println!(
        "initial assessment: max cost {}, max damage {} (analysis in {:?})",
        problem.max_cost(),
        problem.total_damage(),
        start.elapsed()
    );

    // SPEA2 with the paper's parameters (generations scaled down by default;
    // set MBIST_FULL=1 for the published generation count).
    let full = std::env::var("MBIST_FULL").is_ok();
    let generations = if full { spec_row.generations } else { spec_row.generations.min(100) };
    let config = Spea2Config {
        population_size: spec_row.population(),
        archive_size: spec_row.population(),
        generations,
        variation: Variation { crossover_rate: 0.95, mutation_rate: 0.01, ..Default::default() },
    };
    let t_ea = Instant::now();
    let observer = |s: &moea::GenerationStats| {
        if s.generation.is_multiple_of(25) {
            println!(
                "  gen {:>4}: front size {:>3}, best cost {:>8.0}, best damage {:>12.0}",
                s.generation, s.front_size, s.best[0], s.best[1]
            );
        }
    };
    let front = solve_spea2(&problem, &config, 7, observer, &CancelToken::none())?;
    println!(
        "SPEA2: {} generations, front of {} solutions in {:?}",
        generations,
        front.len(),
        t_ea.elapsed()
    );

    let max_cost = problem.max_cost();
    let max_damage = problem.total_damage();
    match front.min_cost_with_damage_at_most(max_damage / 10) {
        Some(s) => println!(
            "minimize cost, damage <= 10%:  cost {:>8}  damage {:>12}  ({} hardened)",
            s.cost,
            s.damage,
            s.hardened_count()
        ),
        None => println!("minimize cost, damage <= 10%: not reached"),
    }
    match front.min_damage_with_cost_at_most(max_cost / 10) {
        Some(s) => println!(
            "minimize damage, cost <= 10%:  cost {:>8}  damage {:>12}  ({} hardened)",
            s.cost,
            s.damage,
            s.hardened_count()
        ),
        None => println!("minimize damage, cost <= 10%: not reached"),
    }

    // Greedy baseline for comparison.
    let greedy = solve_greedy(&problem);
    let hv_ea = front.hypervolume(max_cost + 1, max_damage + 1);
    let hv_greedy = greedy.hypervolume(max_cost + 1, max_damage + 1);
    println!(
        "hypervolume: SPEA2 {:.4e}, greedy baseline {:.4e} (ratio {:.3})",
        hv_ea,
        hv_greedy,
        hv_ea / hv_greedy
    );
    println!("total {:?}", start.elapsed());
    Ok(())
}
