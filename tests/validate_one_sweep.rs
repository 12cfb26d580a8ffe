//! The validation campaign sweeps its fault-mode table once: the
//! per-instrument claims it checks against the simulator and the analytical
//! damage vector it diffs come from one traced lane sweep.
//!
//! The kernel counters are process-wide, so this check lives in a test
//! binary of its own, where no other sweep runs at the same time.

use robust_rsn::{
    kernel_counters, validate_criticality, AnalysisOptions, AnalysisPlan, CancelToken,
    CriticalitySpec, PaperSpecParams, Parallelism,
};
use rsn_benchmarks::by_name;

#[test]
fn a_campaign_sweeps_each_mode_once() {
    let bench = by_name("p34392").expect("p34392 is a registered Table I design");
    let (net, _) = bench.generate().build(bench.name).unwrap();
    let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 2022);
    let options = AnalysisOptions::default();
    let plan = AnalysisPlan::new(&net, options.sib_policy);
    let before = kernel_counters().modes;
    let report = validate_criticality(
        &plan,
        &net,
        &spec,
        options.mode,
        Parallelism::new(2),
        &CancelToken::none(),
    )
    .unwrap();
    let swept = kernel_counters().modes - before;
    assert!(report.is_clean(), "disagreements: {:?}", report.disagreements);
    assert_eq!(report.modes, plan.mode_count());
    assert_eq!(swept, plan.mode_count() as u64, "one sweep of the mode table");
}
