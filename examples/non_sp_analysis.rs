//! Criticality analysis of a non-series-parallel RSN.
//!
//! The paper's hierarchical analysis requires a series-parallel network;
//! non-SP topologies must be SP-ified with virtual vertices first (its
//! reference [19]). This workspace instead ships an exact graph-reachability
//! analysis that handles such networks directly — demonstrated here on a
//! "bridge" topology that SP recognition provably rejects.
//!
//! Run with `cargo run --example non_sp_analysis`.

use robust_rsn::{
    analyze_graph, oracle_damage, AnalysisOptions, AnalysisPlan, CancelToken, CriticalitySpec,
    Parallelism,
};
use rsn_model::{ControlSource, InstrumentKind, NetworkBuilder, Segment};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A bridge: fan-out f1 feeds segments a and b; b fans out again (f2)
    // into both the first selection m1 and a parallel register c joined by
    // m2. The crossing edge b->f2->m1 makes the graph non-SP.
    let mut bld = NetworkBuilder::new("bridge");
    let f1 = bld.add_fanout("f1");
    let a = bld.add_segment("a", Segment::new(4));
    let b = bld.add_segment("b", Segment::new(4));
    let f2 = bld.add_fanout("f2");
    let (si, so) = (bld.scan_in(), bld.scan_out());
    bld.connect(si, f1)?;
    bld.connect(f1, a)?;
    bld.connect(f1, b)?;
    bld.connect(b, f2)?;
    let m1 = bld.add_mux("m1", vec![a, f2], ControlSource::Direct)?;
    let c = bld.add_segment("c", Segment::new(4));
    bld.connect(f2, c)?;
    let m2 = bld.add_mux("m2", vec![m1, c], ControlSource::Direct)?;
    bld.connect(m2, so)?;
    bld.add_instrument("sense", a, InstrumentKind::Sensor)?;
    bld.add_instrument("bist", b, InstrumentKind::Bist)?;
    bld.add_instrument("trace", c, InstrumentKind::Debug)?;
    let net = bld.finish()?;

    // SP recognition rejects this graph...
    match rsn_sp::recognize(&net) {
        Err(e) => println!("SP recognition: {e}"),
        Ok(_) => unreachable!("the bridge is not series-parallel"),
    }

    // ...but the graph analysis handles it, cross-checked by the
    // configuration-enumeration oracle.
    let spec = CriticalitySpec::from_kinds(&net);
    let options = AnalysisOptions::default();
    let plan = AnalysisPlan::new(&net, options.sib_policy);
    let (par, none) = (Parallelism::default(), &CancelToken::none());
    let crit = analyze_graph(&plan, &net, &spec, options.mode, par, none)?;
    println!("\nper-primitive damage (graph analysis vs exhaustive oracle):");
    for j in net.primitives() {
        let oracle = oracle_damage(&net, &spec, j, &options);
        println!(
            "  {:<4} damage {:>3}   (oracle {:>3})",
            net.node(j).label(j),
            crit.damage(j),
            oracle
        );
        assert_eq!(crit.damage(j), oracle);
    }
    println!("\ntotal single-fault damage: {}", crit.total_damage());
    println!("the analyses agree on every primitive of the non-SP network");
    let _ = (m1, m2);
    Ok(())
}
