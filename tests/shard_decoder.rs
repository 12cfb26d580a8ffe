//! Differential tests of the shard decoder ([`wire::decode_analyze_shard`])
//! against its oracle, the derived serde impl read by `serde_json::from_str`:
//! every shard the daemon serves for the Table I designs, random round trips
//! through the serde writer, bodies off the writer's grammar, and every
//! truncation and single-byte mutation of a p34392 shard body.

use proptest::prelude::*;
use robust_rsn::{AnalysisOptions, Parallelism};
use rsn_benchmarks::table::table_i;
use rsn_serve::wire::{self, Deadline, ParsedNetwork};
use rsn_serve::{AnalyzeShardResponse, Endpoint, JobRequest, ShardModeDamage};

/// Decodes `body` with the decoder and with the oracle, and asserts that the
/// decoder accepts it and agrees with the oracle.
fn assert_matches_oracle(body: &str) -> AnalyzeShardResponse {
    let oracle: AnalyzeShardResponse = serde_json::from_str(body).expect("the oracle reads it");
    let decoded = wire::decode_analyze_shard(body)
        .unwrap_or_else(|e| panic!("refused {body:?}: {}", e.message));
    assert_eq!(decoded, oracle);
    decoded
}

/// Splits `0..total` into `k` contiguous ranges, the last taking the rest.
fn split(total: u64, k: u64) -> Vec<(u64, u64)> {
    let step = total / k;
    (0..k).map(|i| (i * step, if i + 1 == k { total } else { (i + 1) * step })).collect()
}

/// The body the daemon serves for the `[lo, hi)` shard of `request`.
fn serve_shard(request: &JobRequest, network: &ParsedNetwork, lo: u64, hi: u64) -> String {
    let shard = JobRequest { mode_lo: Some(lo), mode_hi: Some(hi), ..request.clone() };
    let job = wire::resolve(Endpoint::Analyze, &shard).unwrap();
    wire::execute_with(&job, network, Parallelism::sequential(), &Deadline::none()).unwrap()
}

/// The Table I designs (18 of 24, up to MBIST_5_20_20) whose 10 shards a
/// debug build serves and decodes in seconds; the six MBIST rows above
/// 100k segments serve bodies of the same grammar, only longer.
const MAX_SEGMENTS: usize = 40_000;

#[test]
fn served_table_i_shards_decode_like_serde() {
    for spec in table_i().into_iter().filter(|spec| spec.segments <= MAX_SEGMENTS) {
        let text = rsn_model::format::print_network(spec.name, &spec.generate());
        let network = ParsedNetwork::from_text(&text).unwrap();
        let request = JobRequest { network: Some(text), seed: Some(7), ..Default::default() };
        let job = wire::resolve(Endpoint::Analyze, &request).unwrap();
        let options = AnalysisOptions { mode: job.mode, sib_policy: job.sib_policy };
        let total = robust_rsn::mode_count(&network.net, &options) as u64;
        for k in 1..=4 {
            for (lo, hi) in split(total, k) {
                let body = serve_shard(&request, &network, lo, hi);
                let shard = assert_matches_oracle(&body);
                assert_eq!((shard.mode_lo, shard.mode_hi), (lo, hi), "{}", spec.name);
                assert_eq!(shard.damages.len() as u64, hi - lo, "{}", spec.name);
            }
        }
    }
}

/// SplitMix64: each random shard follows from one proptest seed.
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
const NAME_PIECES: &[&str] = &[
    "p93791", "a", "\"", "\\", "\\\"", "\u{0}", "\u{1f}", "\n", "\t", "\u{7f}", "é", "→", "😀",
    "/", "}]",
];

/// Integers around every digit-count boundary and the type's extremes.
fn number(rng: &mut SplitMix) -> u64 {
    let any = rng.next();
    *rng.pick(&[0, 1, 9, 10, 99, 100, 9_999, 10_000, 123_456_789, u64::MAX - 1, u64::MAX, any])
}

fn name(rng: &mut SplitMix) -> String {
    (0..rng.below(6)).map(|_| *rng.pick(NAME_PIECES)).collect()
}

fn shard(network: &str, damages: Vec<ShardModeDamage>) -> AnalyzeShardResponse {
    AnalyzeShardResponse {
        network: network.into(),
        mode_count: u64::MAX,
        mode_lo: 0,
        mode_hi: damages.len() as u64,
        damages,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoder_round_trips_the_serde_writer(seed in 0u64..u64::MAX) {
        let mut rng = SplitMix(seed);
        let damages = (0..rng.below(24))
            .map(|_| ShardModeDamage {
                obs: number(&mut rng),
                set: number(&mut rng),
                important: rng.below(2) == 1,
            })
            .collect();
        let response = AnalyzeShardResponse {
            network: name(&mut rng),
            mode_count: number(&mut rng),
            mode_lo: number(&mut rng),
            mode_hi: number(&mut rng),
            damages,
        };
        let body = serde_json::to_string(&response).unwrap();
        prop_assert_eq!(assert_matches_oracle(&body), response);
    }
}

#[test]
fn decoder_round_trips_edge_shards() {
    let max = ShardModeDamage { obs: u64::MAX, set: u64::MAX, important: true };
    let zero = ShardModeDamage::default();
    let shards = [
        shard("p93791", Vec::new()),
        shard("", vec![zero]),
        shard("q\"uote\\ \u{1}\u{1f}\n\r\t\u{8}\u{c}", vec![max, zero, max]),
        shard("é→😀", vec![zero; 3]),
        shard("\\", vec![max]),
    ];
    for response in shards {
        let body = serde_json::to_string(&response).unwrap();
        assert_eq!(assert_matches_oracle(&body), response);
    }
}

#[test]
fn decoder_refuses_bodies_off_the_writer_grammar() {
    let body = serde_json::to_string(&shard("p", vec![ShardModeDamage::default()])).unwrap();
    let pretty =
        serde_json::to_string_pretty(&serde_json::from_str::<AnalyzeShardResponse>(&body).unwrap())
            .unwrap();
    let damage = "{\"obs\":0,\"set\":0,\"important\":false}";
    let head = "{\"network\":\"p\",\"mode_count\":1,\"mode_lo\":0,\"mode_hi\":1,\"damages\":";
    let off_grammar = [
        // Whitespace, reordered and extra keys: all JSON the oracle reads.
        pretty.clone(),
        format!(" {body}"),
        format!("{body} "),
        body.replacen("\"mode_lo\":0,\"mode_hi\":1", "\"mode_hi\":1,\"mode_lo\":0", 1),
        body.replacen("\"damages\"", "\"extra\":0,\"damages\"", 1),
        format!("{head}[{}]}}", damage.replacen("\"obs\":0", "\"obs\":00", 1)),
        format!("{head}[{}]}}", damage.replacen("\"obs\":0", "\"obs\":18446744073709551616", 1)),
        format!("{head}[{}]}}", damage.replacen("\"obs\":0", "\"obs\":-0", 1)),
        format!("{head}[{}]}}", damage.replacen("\"obs\":0", "\"obs\":0.0", 1)),
        format!("{head}[{}]}}", damage.replacen("false", "False", 1)),
        format!("{head}[{damage},]}}"),
        format!("{head}[{damage}]}}}}"),
        format!("{head}[{damage}]"),
        format!("{head}null}}"),
        body.replacen("\"p\"", "\"p", 1),
        body.replacen("\"p\"", "\"\\q\"", 1),
        String::new(),
    ];
    for body in &off_grammar {
        let err = wire::decode_analyze_shard(body).expect_err(body);
        assert_eq!((err.status, err.code.as_str()), (502, "bad_shard"), "{body:?}");
    }
    // The first cases are valid JSON: strictness, not the oracle, refuses them.
    for body in &off_grammar[..5] {
        serde_json::from_str::<AnalyzeShardResponse>(body).expect(body);
    }
}

#[test]
fn truncated_and_mutated_p34392_bodies_never_panic_or_disagree() {
    let spec = rsn_benchmarks::by_name("p34392").expect("p34392 is a Table I design");
    let text = rsn_model::format::print_network(spec.name, &spec.generate());
    let network = ParsedNetwork::from_text(&text).unwrap();
    let request = JobRequest { network: Some(text), seed: Some(7), ..Default::default() };
    // Twelve modes: multi-digit damages, both flags, a body short enough
    // to mutate at every byte to every value in a debug build.
    let body = serve_shard(&request, &network, 112, 124);
    let shard = assert_matches_oracle(&body);
    assert!(shard.damages.iter().any(|d| d.important) && shard.damages.iter().any(|d| d.obs > 9));
    for len in (0..body.len()).filter(|&len| body.is_char_boundary(len)) {
        assert!(wire::decode_analyze_shard(&body[..len]).is_err(), "accepted a {len}-byte cut");
    }
    let mut accepted = 0usize;
    let mut bytes = body.clone().into_bytes();
    for at in 0..bytes.len() {
        let original = bytes[at];
        for value in (0..=u8::MAX).filter(|&v| v != original) {
            bytes[at] = value;
            // The decoder takes `&str`: bytes that are not UTF-8 never reach it.
            let Ok(mutated) = std::str::from_utf8(&bytes) else { continue };
            if let Ok(decoded) = wire::decode_analyze_shard(mutated) {
                let oracle: AnalyzeShardResponse =
                    serde_json::from_str(mutated).unwrap_or_else(|e| {
                        panic!("accepted what the oracle refuses ({e}): {mutated}")
                    });
                assert_eq!(decoded, oracle, "{mutated}");
                accepted += 1;
            }
        }
        bytes[at] = original;
    }
    assert!(accepted > 0, "no mutation was accepted: the test checks only refusals");
}
