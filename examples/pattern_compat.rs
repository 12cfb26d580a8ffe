//! Access-pattern compatibility (§V): selective hardening never changes the
//! RSN topology, so every access pattern generated for the initial network
//! drives the hardened network identically — demonstrated with the bit-level
//! simulator.
//!
//! Run with `cargo run --example pattern_compat`.

use moea::Spea2Config;
use robust_rsn::{
    analyze, solve_spea2, AnalysisOptions, CancelToken, CostModel, CriticalitySpec,
    HardeningProblem,
};
use rsn_model::{patterns, AccessKind, InstrumentKind, Simulator, Structure};
use rsn_sp::tree_from_structure;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let structure = Structure::series(vec![
        Structure::sib(
            "s0",
            Structure::series(vec![
                Structure::instrument_seg("dco", 6, InstrumentKind::RuntimeAdaptive),
                Structure::sib("s1", Structure::instrument_seg("osc", 4, InstrumentKind::Sensor)),
            ]),
        ),
        Structure::parallel(
            vec![
                Structure::instrument_seg("lane0", 5, InstrumentKind::Debug),
                Structure::instrument_seg("lane1", 5, InstrumentKind::Debug),
            ],
            "m0",
        ),
    ]);
    let (net, built) = structure.build("compat")?;

    // Generate the complete observe/control pattern set for the *initial*
    // network.
    let all = patterns::all_patterns(&net)?;
    println!("generated {} access patterns for {} instruments", all.len(), net.instrument_count());

    // Harden: pick the cheapest <=10%-damage solution.
    let tree = tree_from_structure(&net, &built);
    let spec = CriticalitySpec::from_kinds(&net);
    let crit = analyze(&net, &tree, &spec, &AnalysisOptions::default());
    let problem = HardeningProblem::new(&net, &crit, &CostModel::default());
    let config = Spea2Config { generations: 60, ..Default::default() };
    let front = solve_spea2(&problem, &config, 3, |_| {}, &CancelToken::none())?;
    let chosen = front
        .min_cost_with_damage_at_most(problem.total_damage() / 10)
        .expect("front reaches low damage");
    println!(
        "hardening {} primitives (cost {}, residual damage {})",
        chosen.hardened_count(),
        chosen.cost,
        chosen.damage
    );

    // Hardening is purely local to the cells: the network topology, and thus
    // the simulator, is literally identical. Replay the pattern set on the
    // "hardened" network (same graph) and verify bit-exact behaviour.
    let mut sim_initial = Simulator::new(&net);
    let mut sim_hardened = Simulator::new(&net); // same topology, hardened cells
    for (k, (id, _)) in net.instruments().enumerate() {
        let width = net.segment_len(net.instrument(id).segment()) as usize;
        let stimulus: Vec<bool> = (0..width).map(|b| (b + k) % 3 == 0).collect();
        sim_initial.set_instrument_data(id, &stimulus)?;
        sim_hardened.set_instrument_data(id, &stimulus)?;
        let read = patterns::pattern_for(&net, id, AccessKind::Observe)?;
        let a = read.read(&mut sim_initial)?;
        let b = read.read(&mut sim_hardened)?;
        assert_eq!(a, b, "pattern must behave identically");
        assert_eq!(a, stimulus, "pattern must read the instrument data");
        let write = patterns::pattern_for(&net, id, AccessKind::Control)?;
        let payload: Vec<bool> = (0..width).map(|b| b % 2 == 1).collect();
        write.write(&mut sim_initial, &payload)?;
        write.write(&mut sim_hardened, &payload)?;
        assert_eq!(sim_initial.instrument_output(id)?, sim_hardened.instrument_output(id)?);
        println!(
            "  {}: observe + control patterns verified bit-exact",
            net.instrument(id).label(id)
        );
    }
    println!("all access patterns of the initial RSN remain valid after hardening");
    Ok(())
}
