//! Differential tests of the `/v1/harden` front encoder
//! ([`wire::encode_harden_response`]) against its oracle, the derived serde
//! impl printed by `serde_json::to_string`: random fronts with whole,
//! partial and no id prefixes shared between neighbours, hand-picked edge
//! fronts, and the bodies every solver serves on p34392.

use proptest::prelude::*;
use robust_rsn::{HardeningFront, HardeningSolution, Parallelism};
use rsn_model::NodeId;
use rsn_serve::wire::{self, Deadline, ParsedNetwork};
use rsn_serve::{Endpoint, HardenResponse, JobRequest};

/// SplitMix64: the whole random front follows from one proptest seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Name pieces that need each kind of escape, or none.
const NAME_PIECES: &[&str] =
    &["p93791", "a", "\"", "\\", "\u{0}", "\u{1f}", "\n", "\t", "\u{7f}", "é", "→", "😀", "/"];

/// Integers around every digit-count boundary and the type's extremes.
fn number(rng: &mut SplitMix) -> u64 {
    let any = rng.next();
    *rng.pick(&[0, 9, 10, 99, 100, 9_999, 10_000, 123_456_789, u64::MAX - 1, u64::MAX, any])
}

fn id(rng: &mut SplitMix) -> NodeId {
    let any = rng.next() as u32;
    let raw = *rng.pick(&[0, 7, 42, 999, 9_999, 10_000, 65_535, 1_000_000, u32::MAX, any]);
    NodeId::new(raw as usize)
}

fn name(rng: &mut SplitMix) -> String {
    (0..rng.below(6)).map(|_| *rng.pick(NAME_PIECES)).collect()
}

/// A `hardened` list related to `prev` in one of four ways: its whole
/// prefix plus new ids, a cut of it plus new ids, fresh ids, or empty.
fn hardened(rng: &mut SplitMix, prev: &[NodeId]) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = match rng.below(4) {
        0 => prev.to_vec(),
        1 => prev[..rng.below(prev.len() as u64 + 1) as usize].to_vec(),
        2 => Vec::new(),
        _ => return Vec::new(),
    };
    ids.extend((0..rng.below(4)).map(|_| id(rng)));
    ids
}

/// A front holding exactly `solutions`. [`HardeningFront::from_solutions`]
/// would drop dominated points, so the front is decoded instead.
fn front_of(solutions: &[HardeningSolution]) -> HardeningFront {
    let json = format!("{{\"solutions\":{}}}", serde_json::to_string(solutions).unwrap());
    let front: HardeningFront = serde_json::from_str(&json).unwrap();
    assert_eq!(front.solutions(), solutions, "the front decodes as built");
    front
}

fn response(network: &str, solver: &str, solutions: &[HardeningSolution]) -> HardenResponse {
    HardenResponse {
        network: network.into(),
        solver: solver.into(),
        total_damage: u64::MAX,
        max_cost: 10_000,
        front: front_of(solutions),
    }
}

fn assert_matches_oracle(response: &HardenResponse) {
    let body = wire::encode_harden_response(response).unwrap();
    assert_eq!(body, serde_json::to_string(response).unwrap());
}

fn solution(ids: &[usize], cost: u64, damage: u64) -> HardeningSolution {
    HardeningSolution { hardened: ids.iter().copied().map(NodeId::new).collect(), cost, damage }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encoder_matches_serde_on_random_fronts(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix(seed);
        let mut solutions: Vec<HardeningSolution> = Vec::new();
        for _ in 0..rng.below(12) {
            let prev = solutions.last().map_or(&[][..], |s| &s.hardened[..]);
            let hardened = hardened(&mut rng, prev);
            solutions.push(HardeningSolution {
                hardened,
                cost: number(&mut rng),
                damage: number(&mut rng),
            });
        }
        let response = HardenResponse {
            network: name(&mut rng),
            solver: name(&mut rng),
            total_damage: number(&mut rng),
            max_cost: number(&mut rng),
            front: front_of(&solutions),
        };
        let body = wire::encode_harden_response(&response).unwrap();
        prop_assert_eq!(body, serde_json::to_string(&response).unwrap());
    }
}

#[test]
fn encoder_matches_serde_on_edge_fronts() {
    let max = u64::MAX;
    let fronts: [&[HardeningSolution]; 6] = [
        &[],
        &[solution(&[], 0, max)],
        // Whole shared prefixes, the greedy shape, across digit counts.
        &[
            solution(&[], 0, 90),
            solution(&[9], 1, 80),
            solution(&[9, 10], 2, 70),
            solution(&[9, 10, 10_000], 3, 60),
            solution(&[9, 10, 10_000, 99_999], max, 0),
        ],
        // Partial prefixes, then none, then an empty list after a long one.
        &[
            solution(&[1, 2, 3, 4], 5, 50),
            solution(&[1, 2, 30_000], 6, 40),
            solution(&[7, 2, 30_000], 7, 30),
            solution(&[], 8, 20),
            solution(&[7], 9, 10),
        ],
        // A list that is a strict prefix of its predecessor.
        &[solution(&[5, 6, 7], 1, 2), solution(&[5, 6], 2, 1)],
        &[solution(&[u32::MAX as usize, 0], max, max), solution(&[u32::MAX as usize], 0, 0)],
    ];
    for solutions in fronts {
        assert_matches_oracle(&response("p93791", "greedy", solutions));
    }
    assert_matches_oracle(&response("q\"uote\\ \u{1}\u{1f}\n\r\t\u{8}\u{c}", "é→😀", &[]));
}

#[test]
fn execute_with_matches_the_oracle_on_p34392_for_every_solver() {
    let spec = rsn_benchmarks::by_name("p34392").expect("p34392 is a Table I design");
    let text = rsn_model::format::print_network(spec.name, &spec.generate());
    let network = ParsedNetwork::from_text(&text).unwrap();
    let base = JobRequest { network: Some(text), seed: Some(7), ..Default::default() };
    let jobs = [
        JobRequest { solver: Some("greedy".into()), ..base.clone() },
        JobRequest { solver: Some("spea2".into()), generations: Some(10), ..base.clone() },
        JobRequest { solver: Some("nsga2".into()), generations: Some(10), ..base.clone() },
        JobRequest { solver: Some("exact".into()), ..base.clone() },
        JobRequest { solver: Some("random".into()), samples: Some(256), ..base },
    ];
    for request in &jobs {
        let job = wire::resolve(Endpoint::Harden, request).unwrap();
        let body = wire::execute_with(&job, &network, Parallelism::sequential(), &Deadline::none())
            .unwrap();
        let decoded: HardenResponse = serde_json::from_str(&body).unwrap();
        assert!(decoded.front.len() > 1, "{}: a front worth encoding", decoded.solver);
        assert_eq!(body, serde_json::to_string(&decoded).unwrap(), "{}", decoded.solver);
    }
}
