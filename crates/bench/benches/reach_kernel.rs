//! Criterion micro-benchmark: the reachability kernels on the Table I
//! benchmark networks (the largest, `p93791`, has 1241 segments / 653
//! multiplexers) and on 20k-segment generated shapes.
//!
//! Groups:
//!
//! * `reach_kernel/mode_damage` — one fault mode end to end (4 reachability
//!   maps + damage sweep) in the `Vec<bool>` reference;
//! * `reach_kernel/graph_analysis` — the full single-threaded damage-vector
//!   sweep: `bitset` is the production path (the mode-major batch kernel,
//!   64 lane-packed modes per traversal), `boolean` the `Vec<bool>`
//!   reference;
//! * `reach_kernel/batch` — the batched full sweep per Table I design, with
//!   the `Vec<bool>` reference on the `*_reference` labels, and on the
//!   20k-segment generated rings, deep-SIB and chiplet shapes. Each of these
//!   labels builds the network's [`AnalysisPlan`] inside the timed loop,
//!   like a one-shot caller; `p93791_planned` sweeps through a prebuilt
//!   plan, like a daemon request against a registered network;
//! * `reach_kernel/plan` — the spec-independent analysis state of p93791:
//!   `build` is `AnalysisPlan::new` (mode table, control-cell map and kernel
//!   graph), `kernel` folds one spec over the plan's graph;
//! * `double_fault/exact` — the exact all-pairs double-fault sweep on the
//!   mid-size Table I designs (lane-packed pair enumeration) through a
//!   prebuilt plan;
//! * `reach_kernel/fault_set` — multi-fault evaluation through a prebuilt
//!   plan: an explicit pair plus a broken SIB control cell (frozen-select
//!   enumeration).

use criterion::{criterion_group, criterion_main, Criterion};
use robust_rsn::graph_analysis::reference;
use robust_rsn::{
    analyze_graph, double_fault_damage, fault_set_damage, AnalysisOptions, AnalysisPlan,
    CancelToken, CriticalitySpec, GraphCriticality, PaperSpecParams, Parallelism, SibCellPolicy,
};
use rsn_benchmarks::{by_name, giant};
use rsn_model::{enumerate_single_faults, ControlSource, Fault, ScanNetwork};

/// The uncancelled full sweep through a throw-away plan.
fn sweep(
    net: &ScanNetwork,
    weights: &CriticalitySpec,
    options: &AnalysisOptions,
    par: Parallelism,
) -> GraphCriticality {
    let plan = AnalysisPlan::new(net, options.sib_policy);
    planned_sweep(&plan, net, weights, options, par)
}

/// The uncancelled full sweep through a prebuilt plan.
fn planned_sweep(
    plan: &AnalysisPlan,
    net: &ScanNetwork,
    weights: &CriticalitySpec,
    options: &AnalysisOptions,
    par: Parallelism,
) -> GraphCriticality {
    analyze_graph(plan, net, weights, options.mode, par, &CancelToken::none())
        .expect("sweep completes")
}

fn largest_network() -> (ScanNetwork, CriticalitySpec) {
    let spec = by_name("p93791").expect("registered design");
    let (net, _) = spec.generate().build("p93791").expect("valid structure");
    let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 1);
    (net, weights)
}

fn mode_damage(c: &mut Criterion) {
    let (net, weights) = largest_network();
    let broken = net.segments().nth(net.segments().count() / 2).expect("a segment");
    let frozen_mux = net.muxes().next().expect("a mux");
    let mut group = c.benchmark_group("reach_kernel/mode_damage");
    group.bench_function("boolean/broken", |b| {
        b.iter(|| reference::mode_damage(&net, &weights, &[broken], &[]))
    });
    group.bench_function("boolean/frozen", |b| {
        b.iter(|| reference::mode_damage(&net, &weights, &[], &[(frozen_mux, 0)]))
    });
    group.finish();
}

fn graph_analysis(c: &mut Criterion) {
    let (net, weights) = largest_network();
    let options = AnalysisOptions::default();
    let mut group = c.benchmark_group("reach_kernel/graph_analysis");
    group.sample_size(10);
    group.bench_function("bitset", |b| {
        b.iter(|| sweep(&net, &weights, &options, Parallelism::sequential()))
    });
    group.bench_function("boolean", |b| {
        b.iter(|| reference::analyze_graph_ref(&net, &weights, &options))
    });
    group.finish();
}

fn batch_sweep(c: &mut Criterion) {
    let options = AnalysisOptions::default();
    let mut group = c.benchmark_group("reach_kernel/batch");
    group.sample_size(10);
    for name in ["q12710", "a586710", "p34392", "p93791"] {
        let spec = by_name(name).expect("registered design");
        let (net, _) = spec.generate().build(name).expect("valid structure");
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 1);
        group.bench_function(name, |b| {
            b.iter(|| sweep(&net, &weights, &options, Parallelism::sequential()))
        });
        group.bench_function(format!("{name}_reference"), |b| {
            b.iter(|| reference::analyze_graph_ref(&net, &weights, &options))
        });
    }
    let (net, weights) = largest_network();
    group.bench_function("p93791_threads4", |b| {
        b.iter(|| sweep(&net, &weights, &options, Parallelism::new(4)))
    });
    let plan = AnalysisPlan::new(&net, options.sib_policy);
    group.bench_function("p93791_planned", |b| {
        b.iter(|| planned_sweep(&plan, &net, &weights, &options, Parallelism::sequential()))
    });
    // The 20k-segment generated shapes of `rsn_tool gen`: SIB-gated rings
    // (one articulation cell per ring), a SIB tower whose every fault cone
    // spans the tower, and SIB-gated chiplets.
    for (name, structure) in [
        ("rings2000", giant::ring_of_rings(2_000, 9, 2022)),
        ("deep_sib_20k", giant::deep_sib_tree(10_000, 1, 2022)),
        ("chiplets_20k", giant::multi_chiplet(20, 999, 399, 2022)),
    ] {
        let (net, _) = structure.build(name).expect("valid structure");
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 1);
        group.bench_function(name, |b| {
            b.iter(|| sweep(&net, &weights, &options, Parallelism::sequential()))
        });
    }
    group.finish();
}

fn plan(c: &mut Criterion) {
    let (net, weights) = largest_network();
    let policy = AnalysisOptions::default().sib_policy;
    let plan = AnalysisPlan::new(&net, policy);
    let mut group = c.benchmark_group("reach_kernel/plan");
    group.bench_function("build", |b| b.iter(|| AnalysisPlan::new(&net, policy)));
    group.bench_function("kernel", |b| b.iter(|| plan.kernel(&net, &weights).expect("fits")));
    group.finish();
}

fn double_fault_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("double_fault/exact");
    group.sample_size(10);
    for name in ["q12710", "p34392"] {
        let spec = by_name(name).expect("registered design");
        let (net, _) = spec.generate().build(name).expect("valid structure");
        let weights = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 1);
        let plan = AnalysisPlan::new(&net, SibCellPolicy::Combined);
        group.bench_function(name, |b| {
            b.iter(|| {
                double_fault_damage(
                    &plan,
                    &net,
                    &weights,
                    &[],
                    Parallelism::sequential(),
                    &CancelToken::none(),
                )
                .expect("exact sweep completes")
            })
        });
    }
    group.finish();
}

fn fault_set(c: &mut Criterion) {
    let (net, weights) = largest_network();
    let pool = enumerate_single_faults(&net);
    let pair = [pool[pool.len() / 3], pool[2 * pool.len() / 3]];
    // A broken SIB control cell exercises the frozen-select enumeration.
    let cell = net
        .muxes()
        .find_map(|m| match net.node(m).kind.as_mux().expect("mux").control {
            ControlSource::Cell { segment, .. } => Some(segment),
            ControlSource::Direct => None,
        })
        .expect("a cell-controlled mux");
    let plan = AnalysisPlan::new(&net, SibCellPolicy::Combined);
    let mut group = c.benchmark_group("reach_kernel/fault_set");
    group.bench_function("pair", |b| {
        b.iter(|| {
            fault_set_damage(
                &plan,
                &net,
                &weights,
                &pair,
                Parallelism::sequential(),
                &CancelToken::none(),
            )
            .expect("within combination bound")
        })
    });
    group.bench_function("broken_control_cell", |b| {
        b.iter(|| {
            fault_set_damage(
                &plan,
                &net,
                &weights,
                &[Fault::broken_segment(cell)],
                Parallelism::sequential(),
                &CancelToken::none(),
            )
            .expect("within combination bound")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    mode_damage,
    graph_analysis,
    batch_sweep,
    plan,
    double_fault_exact,
    fault_set
);
criterion_main!(benches);
