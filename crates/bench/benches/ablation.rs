//! **Ablation harness** (experiments A1/A3 of DESIGN.md):
//!
//! * A1 — optimizer quality: SPEA2 vs. NSGA-II vs. greedy ratio baseline vs.
//!   certified exact front (hypervolume, higher is better);
//! * A3 — fault-mode aggregation and SIB-cell policy: how the modeling
//!   choices of §IV-B shift the damage distribution.
//!
//! Run with `cargo bench -p rsn-bench --bench ablation`. `ABLATION_GENS`
//! overrides the EA budget (default 150).

use moea::Nsga2Config;
use robust_rsn::{
    analyze, bypass_augment, double_fault_damage, solve_exact, solve_greedy, solve_nsga2,
    solve_random, AnalysisOptions, AnalysisPlan, AugmentGranularity, CancelToken, CostModel,
    CriticalitySpec, HardeningProblem, ModeAggregation, PaperSpecParams, Parallelism,
    SibCellPolicy,
};
use std::time::Instant;

use rsn_bench::{optimize, prepare, spea2_config, EXPERIMENT_SEED};
use rsn_benchmarks::{by_name, table_i};
use rsn_sp::tree_from_structure;

fn main() {
    let gens: usize =
        std::env::var("ABLATION_GENS").ok().and_then(|v| v.parse().ok()).unwrap_or(150);

    println!("A1 — optimizer comparison (normalized hypervolume, 1.0 = best observed)");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "design", "SPEA2", "NSGA-II", "greedy", "random", "exact"
    );
    for name in ["TreeFlat", "TreeUnbalanced", "q12710", "MBIST_1_5_5"] {
        let spec = by_name(name).expect("registered design");
        let instance = prepare(&spec);
        let p = &instance.problem;
        let reference = (p.max_cost() + 1, p.total_damage() + 1);
        let hv = |front: &robust_rsn::HardeningFront| front.hypervolume(reference.0, reference.1);

        let spea2 = optimize(&instance, &spea2_config(&spec, gens));
        let nsga2 = solve_nsga2(
            p,
            &Nsga2Config {
                population_size: spec.population(),
                generations: gens,
                ..Default::default()
            },
            EXPERIMENT_SEED,
            &CancelToken::none(),
        )
        .expect("a none token never cancels");
        let greedy = solve_greedy(p);
        let random = solve_random(p, spec.population() * gens, EXPERIMENT_SEED);
        let exact = solve_exact(p, 4_000_000, &CancelToken::none()).ok();
        let values =
            [hv(&spea2), hv(&nsga2), hv(&greedy), hv(&random), exact.as_ref().map_or(f64::NAN, hv)];
        let best = values.iter().copied().filter(|v| v.is_finite()).fold(0.0, f64::max);
        println!(
            "{:<16} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10}",
            name,
            values[0] / best,
            values[1] / best,
            values[2] / best,
            values[3] / best,
            if values[4].is_nan() { "n/a".to_string() } else { format!("{:.4}", values[4] / best) }
        );
    }

    println!("\nA3 — fault-mode aggregation & SIB-cell policy (total damage, relative to Worst/Combined)");
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>16}",
        "design", "Worst/Comb", "Sum/Comb", "Mean/Comb", "Worst/SegOnly"
    );
    for name in ["MBIST_1_5_5", "MBIST_2_5_5", "TreeBalanced"] {
        let spec = by_name(name).expect("registered design");
        let s = spec.generate();
        let (net, built) = s.build(name).expect("valid");
        let tree = tree_from_structure(&net, &built);
        let weights =
            CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), EXPERIMENT_SEED);
        let damage = |mode, sib_policy| {
            let crit = analyze(&net, &tree, &weights, &AnalysisOptions { mode, sib_policy });
            crit.total_damage()
        };
        let base = damage(ModeAggregation::Worst, SibCellPolicy::Combined);
        let rel = |v: u64| v as f64 / base as f64;
        println!(
            "{:<16} {:>14} {:>14.3} {:>14.3} {:>16.3}",
            name,
            base,
            rel(damage(ModeAggregation::Sum, SibCellPolicy::Combined)),
            rel(damage(ModeAggregation::Mean, SibCellPolicy::Combined)),
            rel(damage(ModeAggregation::Worst, SibCellPolicy::SegmentOnly)),
        );
    }

    println!("\nA4 — criticality concentration (how few primitives carry 90% of the damage)");
    println!("{:<16} {:>10} {:>16} {:>14}", "design", "#prims", "prims for 90%", "fraction");
    for spec in table_i() {
        if spec.segments > 7_000 {
            continue;
        }
        let instance = prepare(&spec);
        let crit = {
            let weights = &instance.weights;
            analyze(&instance.net, &instance.tree, weights, &AnalysisOptions::default())
        };
        let ranked = crit.ranked();
        let total: u64 = crit.total_damage();
        let mut acc = 0u64;
        let mut count = 0usize;
        for (_, d) in &ranked {
            if acc * 10 >= total * 9 {
                break;
            }
            acc += d;
            count += 1;
        }
        println!(
            "{:<16} {:>10} {:>16} {:>13.1}%",
            spec.name,
            ranked.len(),
            count,
            100.0 * count as f64 / ranked.len() as f64
        );
        let _ = HardeningProblem::new(&instance.net, &crit, &CostModel::default());
    }

    println!("\nA5 — selective hardening vs. fault-tolerant topology augmentation [4]");
    println!(
        "{:<16} {:>12} {:>14} {:>16} {:>18}",
        "design", "FT +muxes", "FT cost", "FT residual dmg", "hardening cost*"
    );
    println!("  (*cheapest hardening solution matching the FT network's residual damage)");
    for name in ["TreeFlat", "TreeUnbalanced", "q12710", "MBIST_1_5_5"] {
        let spec = by_name(name).expect("registered design");
        let structure = spec.generate();
        let cost_model = CostModel::default();

        // Fault-tolerant baseline: add bypass connectivities, then measure
        // the residual damage of the *augmented* network (its added
        // multiplexers are fault sites of their own).
        let aug = bypass_augment(&structure, AugmentGranularity::Element);
        let (ft_net, ft_built) = aug.structure.build("ft").expect("valid augmentation");
        let ft_tree = tree_from_structure(&ft_net, &ft_built);
        let ft_weights =
            CriticalitySpec::paper_random(&ft_net, &PaperSpecParams::default(), EXPERIMENT_SEED);
        let ft_crit = analyze(&ft_net, &ft_tree, &ft_weights, &AnalysisOptions::default());
        // Hardware price of the augmentation: the added multiplexers.
        let mux_cost = 3u64; // CostModel::default() Area { mux: 3 }
        let ft_cost = aug.added_muxes as u64 * mux_cost;
        let ft_damage = ft_crit.total_damage();

        // Selective hardening on the *original* network, pushed to the same
        // residual damage level (both specs use the same seed, so weights
        // for the shared instruments coincide).
        let instance = prepare(&spec);
        let target = ft_damage.min(instance.problem.total_damage());
        let greedy = solve_greedy(&instance.problem);
        let hardening_cost = greedy.min_cost_with_damage_at_most(target.max(1)).map(|s| s.cost);
        println!(
            "{:<16} {:>12} {:>14} {:>16} {:>18}",
            name,
            aug.added_muxes,
            ft_cost,
            ft_damage,
            hardening_cost.map_or("-".into(), |c| c.to_string()),
        );
        let _ = cost_model;
    }

    println!("\nA7 — crossover-operator ablation (normalized hypervolume; paper uses one-point)");
    println!("{:<16} {:>10} {:>10} {:>10}", "design", "one-point", "two-point", "uniform");
    for name in ["TreeFlat", "q12710"] {
        let spec = by_name(name).expect("registered design");
        let instance = prepare(&spec);
        let p = &instance.problem;
        let reference = (p.max_cost() + 1, p.total_damage() + 1);
        let run = |kind| {
            let mut cfg = spea2_config(&spec, gens);
            cfg.variation.crossover = kind;
            robust_rsn::solve_spea2(p, &cfg, EXPERIMENT_SEED, |_| {}, &CancelToken::none())
                .expect("a none token never cancels")
                .hypervolume(reference.0, reference.1)
        };
        let values = [
            run(moea::CrossoverKind::OnePoint),
            run(moea::CrossoverKind::TwoPoint),
            run(moea::CrossoverKind::Uniform),
        ];
        let best = values.iter().copied().fold(0.0, f64::max);
        println!(
            "{:<16} {:>10.4} {:>10.4} {:>10.4}",
            name,
            values[0] / best,
            values[1] / best,
            values[2] / best
        );
    }

    println!("\nA6 — double-fault robustness (exact all-pairs sweep, beyond the paper's single-fault model)");
    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "design",
        "pairs",
        "mean (none)",
        "mean (d10)",
        "max (none)",
        "max (d10)",
        "reduction",
        "sweep"
    );
    for name in ["TreeFlat", "TreeUnbalanced", "q12710", "MBIST_1_5_5"] {
        let spec = by_name(name).expect("registered design");
        let instance = prepare(&spec);
        let greedy = solve_greedy(&instance.problem);
        let chosen = greedy
            .min_cost_with_damage_at_most(instance.problem.total_damage() / 10)
            .expect("greedy front reaches 10%");
        let sweep = |hardened: &[rsn_model::NodeId]| {
            double_fault_damage(
                &AnalysisPlan::new(&instance.net, SibCellPolicy::Combined),
                &instance.net,
                &instance.weights,
                hardened,
                Parallelism::default(),
                &CancelToken::none(),
            )
            .expect("within combination bound")
        };
        let t0 = Instant::now();
        let before = sweep(&[]);
        let t_sweep = t0.elapsed();
        let after = sweep(&chosen.hardened);
        println!(
            "{:<16} {:>8} {:>12.0} {:>12.0} {:>10} {:>10} {:>9.1}% {:>10.2?}",
            name,
            before.pairs,
            before.mean,
            after.mean,
            before.max,
            after.max,
            100.0 * (1.0 - after.mean / before.mean.max(1e-9)),
            t_sweep
        );
    }

    println!("\nA2 — scalability of the hierarchical analysis (§VI claim)");
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "design", "#segs", "#mux", "build", "tree", "analysis"
    );
    let mut scalability_rows = vec!["MBIST_5_20_20", "MBIST_20_20_20", "MBIST_5_100_20"];
    if std::env::var("ABLATION_HUGE").is_ok() {
        scalability_rows.push("MBIST_5_100_100");
        scalability_rows.push("MBIST_100_100_5");
    }
    for name in scalability_rows {
        let spec = by_name(name).expect("registered design");
        let structure = spec.generate();
        let t0 = Instant::now();
        let (net, built) = structure.build(name).expect("valid");
        let t_build = t0.elapsed();
        let t1 = Instant::now();
        let tree = tree_from_structure(&net, &built);
        let t_tree = t1.elapsed();
        let weights =
            CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), EXPERIMENT_SEED);
        let t2 = Instant::now();
        let crit = analyze(&net, &tree, &weights, &AnalysisOptions::default());
        let t_analyze = t2.elapsed();
        println!(
            "{:<16} {:>10} {:>10} {:>11.2?} {:>11.2?} {:>11.2?}",
            name, spec.segments, spec.muxes, t_build, t_tree, t_analyze
        );
        assert!(crit.total_damage() > 0);
    }
}
