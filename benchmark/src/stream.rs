//! The five workloads and their seeded inputs.
//!
//! Every input is a pure function of the workload seed: the job stream
//! (request `i`'s bytes depend only on the seed, the registered network's
//! hash and `i`) and the giant network. The programs under test receive
//! only the generated inputs.

use rsn_model::Structure;
use rsn_serve::{Endpoint, JobRequest};

use crate::client::{encode, Jobs, Method, JSON};

/// Consecutive what-if requests sharing one spec seed (one warm workspace).
pub const SESSION_LEN: u64 = 40;

/// Job indices at and above this belong to the discarded warm-up, so warm-up
/// results can never be cache hits for measured jobs. It starts a session.
pub const WARMUP_BASE: u64 = SESSION_LEN << 35;

/// Answers recomputed in-process per run.
pub const CHECKED_JOBS: u64 = 64;

/// The Table I design every serving workload runs against.
pub const SERVING_DESIGN: &str = "p93791";

/// `giant-sweep` runs on `ring_of_rings(GIANT_RINGS, GIANT_RING_SIZE)`:
/// 20k segments, whose sweep (0.15–0.3 s on two cores) is short enough
/// for [`GIANT_SWEEPS`] of them in one run.
pub const GIANT_RINGS: usize = 2_000;
/// Registers per ring branch of the giant network.
pub const GIANT_RING_SIZE: usize = 9;
/// Timed `rsn_tool sweep` runs of an untraced `giant-sweep` run, after one
/// warm-up. The count is fixed, not set by the run time, so the reported
/// order statistic means the same on every commit however fast it sweeps.
pub const GIANT_SWEEPS: usize = 50;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of `POST /v1/analyze` with a unique spec seed per request.
    AnalyzeCold,
    /// Open loop of `POST /v1/whatif` sessions against warm workspaces.
    WhatifSessions,
    /// Closed loop of `POST /v1/harden` with the greedy solver.
    HardenGreedy,
    /// The `analyze-cold` stream through `rsnc` fanning out to workers.
    ClusterFanout,
    /// Batch `rsn_tool sweep` of a 20k-segment generated network.
    GiantSweep,
}

impl Workload {
    /// Every workload, in the order a full run takes them.
    pub const ALL: [Self; 5] = [
        Self::AnalyzeCold,
        Self::WhatifSessions,
        Self::HardenGreedy,
        Self::ClusterFanout,
        Self::GiantSweep,
    ];

    /// The workload's name on the command line and in result files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::AnalyzeCold => "analyze-cold",
            Self::WhatifSessions => "whatif-sessions",
            Self::HardenGreedy => "harden-greedy",
            Self::ClusterFanout => "cluster-fanout",
            Self::GiantSweep => "giant-sweep",
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The endpoint a serving workload's jobs go to.
    #[must_use]
    pub fn endpoint(self) -> Endpoint {
        match self {
            Self::WhatifSessions => Endpoint::Whatif,
            Self::HardenGreedy => Endpoint::Harden,
            Self::AnalyzeCold | Self::ClusterFanout | Self::GiantSweep => Endpoint::Analyze,
        }
    }

    /// The request path of a serving workload.
    #[must_use]
    pub fn path(self) -> &'static str {
        match self.endpoint() {
            Endpoint::Whatif => "/v1/whatif",
            Endpoint::Harden => "/v1/harden",
            _ => "/v1/analyze",
        }
    }

    /// Client connections, one client thread each: `min(2, nproc)`, except
    /// that the cluster spreads every request over all its workers, so one
    /// connection keeps the fleet busy; a second makes two fan-outs contend
    /// for the cores, which moves the tail with the host's other load.
    #[must_use]
    pub fn connections(self, nproc: usize) -> usize {
        match self {
            Self::ClusterFanout => 1,
            _ => nproc.min(2),
        }
    }

    /// Open-loop arrival rate (requests per second), or `None` for a closed
    /// loop.
    #[must_use]
    pub fn open_loop_rate(self) -> Option<f64> {
        match self {
            Self::WhatifSessions => Some(120.0),
            _ => None,
        }
    }

    /// The percentile reported as `latency_tail_ms`. What-if sessions use
    /// p99, where the workspace cold builds sit; the others use p90, which
    /// has at least ten samples beyond it in a 15 s run on a 2-core host.
    /// The giant sweep uses p96 of its [`GIANT_SWEEPS`] runs, the third
    /// slowest: a host's slowed stretches can cover as little as a twentieth
    /// of a run, and ten sweeps beyond p96 would take 250 of them. On a
    /// shared host a high percentile lands among the requests the
    /// host slowed, whose speed is steady, while the median moves with how
    /// many were slowed.
    #[must_use]
    pub fn tail_percentile(self) -> f64 {
        match self {
            Self::WhatifSessions => 0.99,
            Self::AnalyzeCold | Self::HardenGreedy | Self::ClusterFanout => 0.90,
            Self::GiantSweep => 0.96,
        }
    }

    /// Every `stride`-th job, up to [`CHECKED_JOBS`] of them, is recomputed
    /// in-process; the strides spread the checks over the first seconds of
    /// a run.
    #[must_use]
    pub fn check_stride(self) -> u64 {
        match self {
            Self::AnalyzeCold => 32,
            Self::WhatifSessions => 16,
            Self::HardenGreedy => 2,
            Self::ClusterFanout => 3,
            Self::GiantSweep => 1,
        }
    }
}

/// SplitMix64's output function: the seed mixer of every stream here.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const SPEC_SALT: u64 = 0x5eed_0001;
const SESSION_SALT: u64 = 0x5eed_0002;
const OP_SALT: u64 = 0x5eed_0003;
const TARGET_SALT: u64 = 0x5eed_0004;

/// The text of the serving workloads' network.
///
/// # Panics
///
/// Panics if the design vanished from the Table I registry.
#[must_use]
pub fn serving_network() -> String {
    let spec = rsn_benchmarks::by_name(SERVING_DESIGN).expect("p93791 is a Table I design");
    rsn_model::format::print_network(spec.name, &spec.generate())
}

/// The text of the giant network for `seed`.
#[must_use]
pub fn giant_network(seed: u64) -> String {
    let structure = rsn_benchmarks::giant::ring_of_rings(GIANT_RINGS, GIANT_RING_SIZE, seed);
    rsn_model::format::print_network(&format!("rings{GIANT_RINGS}"), &structure)
}

/// Names of the plain named segments of `structure`, in scan order.
#[must_use]
pub fn named_segments(structure: &Structure) -> Vec<String> {
    let mut names = Vec::new();
    let mut stack = vec![structure];
    while let Some(s) = stack.pop() {
        match s {
            Structure::Segment(spec) => names.extend(spec.name.clone()),
            Structure::Series(parts) => stack.extend(parts.iter().rev()),
            Structure::Parallel { branches, .. } => stack.extend(branches.iter().rev()),
            Structure::Sib { inner, .. } => stack.push(inner),
            Structure::Wire => {}
        }
    }
    names
}

/// The seeded job stream of one serving workload.
#[derive(Clone, Debug)]
pub struct JobStream {
    workload: Workload,
    seed: u64,
    hash: String,
    /// What-if targets: a seeded permutation of the named segments.
    targets: Vec<String>,
}

impl JobStream {
    /// The stream of `workload` for `seed` against the network registered
    /// under `hash`, whose named segments are `segments`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, hash: String, segments: &[String]) -> Self {
        let mut targets = segments.to_vec();
        // Fisher–Yates with the seeded mixer: no target repeats within
        // `targets.len()` consecutive jobs.
        for k in (1..targets.len()).rev() {
            let j = (splitmix64(seed ^ TARGET_SALT ^ k as u64) % (k as u64 + 1)) as usize;
            targets.swap(k, j);
        }
        Self { workload, seed, hash, targets }
    }

    /// The spec seed of job `i`: unique per job, except that what-if jobs
    /// share one per session.
    #[must_use]
    pub fn spec_seed(&self, i: u64) -> u64 {
        match self.workload {
            Workload::WhatifSessions => {
                splitmix64(self.seed ^ SESSION_SALT).wrapping_add(i / SESSION_LEN)
            }
            _ => splitmix64(self.seed ^ SPEC_SALT).wrapping_add(i),
        }
    }

    /// Whether job `i` opens a what-if session (and cold-builds a
    /// workspace).
    #[must_use]
    pub fn opens_session(&self, i: u64) -> bool {
        self.workload == Workload::WhatifSessions && i.is_multiple_of(SESSION_LEN)
    }

    /// The what-if operation of job `i`: `exclude` for about one in four,
    /// `harden` otherwise.
    #[must_use]
    pub fn whatif_op(&self, i: u64) -> &'static str {
        if splitmix64(self.seed ^ OP_SALT ^ i).is_multiple_of(4) {
            "exclude"
        } else {
            "harden"
        }
    }

    /// The job request of job `i`.
    #[must_use]
    pub fn job(&self, i: u64) -> JobRequest {
        let mut job = JobRequest {
            network_hash: Some(self.hash.clone()),
            seed: Some(self.spec_seed(i)),
            ..JobRequest::default()
        };
        match self.workload {
            Workload::WhatifSessions => {
                job.op = Some(self.whatif_op(i).to_string());
                job.target = Some(self.targets[(i % self.targets.len() as u64) as usize].clone());
            }
            Workload::HardenGreedy => job.solver = Some("greedy".to_string()),
            Workload::AnalyzeCold | Workload::ClusterFanout | Workload::GiantSweep => {}
        }
        job
    }

    /// The JSON body of job `i`.
    #[must_use]
    pub fn body(&self, i: u64) -> String {
        serde_json::to_string(&self.job(i)).expect("job requests serialize")
    }
}

impl Jobs for JobStream {
    fn request(&self, i: u64) -> Vec<u8> {
        encode(Method::Post, self.workload.path(), JSON, &self.body(i))
    }

    fn keep(&self, i: u64) -> bool {
        let stride = self.workload.check_stride();
        i.is_multiple_of(stride) && i / stride < CHECKED_JOBS
    }
}

/// A stream that keeps the first `count` fingerprints instead of every
/// stride-th: the traced run compares them with the in-process ladder.
pub struct KeepFirst<'a> {
    /// The underlying stream.
    pub stream: &'a JobStream,
    /// Fingerprints of jobs `0..count` are kept.
    pub count: u64,
}

impl Jobs for KeepFirst<'_> {
    fn request(&self, i: u64) -> Vec<u8> {
        self.stream.request(i)
    }

    fn keep(&self, i: u64) -> bool {
        i < self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segments() -> Vec<String> {
        (0..100).map(|k| format!("seg{k}")).collect()
    }

    fn stream(workload: Workload, seed: u64) -> JobStream {
        JobStream::new(workload, seed, "ab".repeat(32), &segments())
    }

    #[test]
    fn the_same_seed_gives_the_same_request_bytes() {
        for workload in [Workload::AnalyzeCold, Workload::WhatifSessions, Workload::HardenGreedy] {
            let (a, b) = (stream(workload, 2022), stream(workload, 2022));
            for i in [0, 1, 39, 40, 1000, WARMUP_BASE + 3] {
                assert_eq!(a.request(i), b.request(i), "{} job {i}", workload.name());
            }
        }
    }

    #[test]
    fn a_different_seed_gives_different_request_bytes() {
        for workload in [Workload::AnalyzeCold, Workload::WhatifSessions, Workload::HardenGreedy] {
            let (a, b) = (stream(workload, 2022), stream(workload, 2023));
            let differing = (0..200).filter(|&i| a.request(i) != b.request(i)).count();
            assert_eq!(differing, 200, "{}", workload.name());
        }
    }

    #[test]
    fn analyze_jobs_never_share_a_spec_seed() {
        let s = stream(Workload::AnalyzeCold, 7);
        let mut seeds: Vec<u64> = (0..5000).map(|i| s.spec_seed(i)).collect();
        seeds.push(s.spec_seed(WARMUP_BASE));
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 5001);
    }

    #[test]
    fn whatif_sessions_share_a_seed_and_never_repeat_a_target() {
        let s = stream(Workload::WhatifSessions, 7);
        for session in 0..5 {
            let jobs: Vec<JobRequest> =
                (session * SESSION_LEN..(session + 1) * SESSION_LEN).map(|i| s.job(i)).collect();
            assert!(jobs.iter().all(|j| j.seed == jobs[0].seed));
            let mut targets: Vec<_> = jobs.iter().map(|j| j.target.clone().unwrap()).collect();
            targets.sort();
            targets.dedup();
            assert_eq!(targets.len(), SESSION_LEN as usize);
        }
        assert_ne!(s.job(0).seed, s.job(SESSION_LEN).seed);
        assert!(s.opens_session(0) && s.opens_session(SESSION_LEN) && !s.opens_session(1));
        let excludes = (0..4000).filter(|&i| s.whatif_op(i) == "exclude").count();
        assert!((850..1150).contains(&excludes), "harden:exclude should be about 3:1");
    }
}
