//! Explicit criticality specification (§IV-A).
//!
//! Each instrument *i* carries a pair of non-negative damage weights: `do_i`,
//! the damage of losing its **observability**, and `ds_i`, the damage of
//! losing its **settability**. Weights are assigned by the system designer;
//! this module provides
//!
//! * direct construction ([`CriticalitySpec::new`], [`set_weights`]),
//! * kind-based defaults ([`CriticalitySpec::from_kinds`]) following the
//!   paper's sensor / runtime-adaptive discussion, and
//! * the randomized experimental specification of §VI
//!   ([`CriticalitySpec::paper_random`]): 70 % of instruments get non-zero
//!   observability weights, 70 % non-zero settability weights, 10 % are
//!   *important for observation* and 10 % *important for control*, with each
//!   important weight at least as high as the sum of all uncritical weights.
//!
//! [`set_weights`]: CriticalitySpec::set_weights

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use rsn_model::{InstrumentId, InstrumentKind, ScanNetwork};

/// Damage weights for every instrument of one network.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalitySpec {
    obs: Vec<u64>,
    set: Vec<u64>,
    important_obs: Vec<bool>,
    important_set: Vec<bool>,
}

/// Parameters of the randomized §VI specification.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PaperSpecParams {
    /// Fraction of instruments with non-zero observability damage (0.7).
    pub obs_fraction: f64,
    /// Fraction of instruments with non-zero settability damage (0.7).
    pub set_fraction: f64,
    /// Fraction of instruments important for observation (0.1).
    pub important_obs_fraction: f64,
    /// Fraction of instruments important for control (0.1).
    pub important_set_fraction: f64,
    /// Upper bound (inclusive) for uncritical non-zero weights.
    pub max_uncritical_weight: u64,
}

impl Default for PaperSpecParams {
    fn default() -> Self {
        Self {
            obs_fraction: 0.7,
            set_fraction: 0.7,
            important_obs_fraction: 0.1,
            important_set_fraction: 0.1,
            max_uncritical_weight: 10,
        }
    }
}

impl CriticalitySpec {
    /// Creates an all-zero specification for the instruments of `net`.
    #[must_use]
    pub fn new(net: &ScanNetwork) -> Self {
        let n = net.instrument_count();
        Self {
            obs: vec![0; n],
            set: vec![0; n],
            important_obs: vec![false; n],
            important_set: vec![false; n],
        }
    }

    /// Number of instruments covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// Returns `true` when the network has no instruments.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// The observability damage weight `do_i`.
    #[must_use]
    pub fn obs_weight(&self, i: InstrumentId) -> u64 {
        self.obs[i.index()]
    }

    /// The settability damage weight `ds_i`.
    #[must_use]
    pub fn set_weight(&self, i: InstrumentId) -> u64 {
        self.set[i.index()]
    }

    /// Whether instrument `i` is marked important for observation.
    #[must_use]
    pub fn is_important_obs(&self, i: InstrumentId) -> bool {
        self.important_obs[i.index()]
    }

    /// Whether instrument `i` is marked important for control.
    #[must_use]
    pub fn is_important_set(&self, i: InstrumentId) -> bool {
        self.important_set[i.index()]
    }

    /// Sets both damage weights of instrument `i`.
    pub fn set_weights(&mut self, i: InstrumentId, obs: u64, set: u64) {
        self.obs[i.index()] = obs;
        self.set[i.index()] = set;
    }

    /// Marks instrument `i` important for observation/control. Importance is
    /// advisory metadata used by the robustness checks; the weights still
    /// decide the optimization.
    pub fn set_important(&mut self, i: InstrumentId, obs: bool, set: bool) {
        self.important_obs[i.index()] = obs;
        self.important_set[i.index()] = set;
    }

    /// Sum of all observability weights.
    #[must_use]
    pub fn total_obs(&self) -> u64 {
        self.obs.iter().sum()
    }

    /// Sum of all settability weights.
    #[must_use]
    pub fn total_set(&self) -> u64 {
        self.set.iter().sum()
    }

    /// Kind-based default weights reflecting §IV-A:
    ///
    /// * sensors: low observability damage, zero settability damage;
    /// * runtime-adaptive instruments: high settability damage, low
    ///   observability damage;
    /// * BIST engines: both moderate;
    /// * debug instruments: moderate observability, zero settability;
    /// * generic: low both.
    #[must_use]
    pub fn from_kinds(net: &ScanNetwork) -> Self {
        let mut spec = Self::new(net);
        for (id, inst) in net.instruments() {
            let (obs, set, imp_obs, imp_set) = match inst.kind() {
                InstrumentKind::Sensor => (2, 0, false, false),
                InstrumentKind::RuntimeAdaptive => (1, 20, false, true),
                InstrumentKind::Bist => (5, 5, false, false),
                InstrumentKind::Debug => (4, 0, false, false),
                _ => (1, 1, false, false),
            };
            spec.set_weights(id, obs, set);
            spec.set_important(id, imp_obs, imp_set);
        }
        spec
    }

    /// The randomized experimental specification of §VI, reproducible from
    /// `seed`.
    ///
    /// Important instruments receive a weight one higher than the sum of all
    /// uncritical weights of the same kind, guaranteeing that any solution
    /// preferring an important instrument over *all* uncritical ones wins.
    #[must_use]
    pub fn paper_random(net: &ScanNetwork, params: &PaperSpecParams, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = net.instrument_count();
        let mut spec = Self::new(net);
        if n == 0 {
            return spec;
        }
        let pick = |rng: &mut ChaCha8Rng, fraction: f64| -> Vec<usize> {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.shuffle(rng);
            let count = ((n as f64) * fraction).round() as usize;
            idx.truncate(count.min(n));
            idx
        };
        // 70 % non-zero observability weights, 70 % non-zero settability.
        for i in pick(&mut rng, params.obs_fraction) {
            spec.obs[i] = rng.random_range(1..=params.max_uncritical_weight);
        }
        for i in pick(&mut rng, params.set_fraction) {
            spec.set[i] = rng.random_range(1..=params.max_uncritical_weight);
        }
        // 10 % important for observation, 10 % for control; their weight must
        // be at least the sum of all other (uncritical) weights.
        let imp_obs = pick(&mut rng, params.important_obs_fraction);
        let imp_set = pick(&mut rng, params.important_set_fraction);
        for &i in &imp_obs {
            spec.important_obs[i] = true;
        }
        for &i in &imp_set {
            spec.important_set[i] = true;
        }
        let uncritical = |weights: &[u64], important: &[bool]| -> u64 {
            weights.iter().zip(important).filter(|(_, &imp)| !imp).map(|(&w, _)| w).sum()
        };
        let uncritical_obs = uncritical(&spec.obs, &spec.important_obs);
        let uncritical_set = uncritical(&spec.set, &spec.important_set);
        for i in imp_obs {
            spec.obs[i] = uncritical_obs + 1;
        }
        for i in imp_set {
            spec.set[i] = uncritical_set + 1;
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_model::Structure;

    fn net_with_instruments(n: usize) -> ScanNetwork {
        let parts = (0..n)
            .map(|i| Structure::instrument_seg(format!("i{i}"), 4, InstrumentKind::Generic))
            .collect();
        Structure::series(parts).build("t").unwrap().0
    }

    #[test]
    fn zero_spec_has_zero_totals() {
        let net = net_with_instruments(5);
        let spec = CriticalitySpec::new(&net);
        assert_eq!(spec.len(), 5);
        assert_eq!(spec.total_obs(), 0);
        assert_eq!(spec.total_set(), 0);
    }

    #[test]
    fn paper_random_respects_fractions() {
        let net = net_with_instruments(100);
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 1);
        let nonzero_obs = spec.obs.iter().filter(|&&w| w > 0).count();
        let nonzero_set = spec.set.iter().filter(|&&w| w > 0).count();
        // 70 plus up to 10 boosted-importants that were previously zero.
        assert!((70..=80).contains(&nonzero_obs), "nonzero obs {nonzero_obs}");
        assert!((70..=80).contains(&nonzero_set), "nonzero set {nonzero_set}");
        assert_eq!(spec.important_obs.iter().filter(|&&b| b).count(), 10);
        assert_eq!(spec.important_set.iter().filter(|&&b| b).count(), 10);
    }

    #[test]
    fn important_weights_dominate_uncritical_sum() {
        let net = net_with_instruments(50);
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 2);
        let uncritical: u64 = (0..50)
            .map(InstrumentId::new)
            .filter(|&i| !spec.is_important_obs(i))
            .map(|i| spec.obs_weight(i))
            .sum();
        for i in (0..50).map(InstrumentId::new) {
            if spec.is_important_obs(i) {
                assert!(spec.obs_weight(i) > uncritical);
            }
        }
    }

    #[test]
    fn paper_random_is_deterministic_per_seed() {
        let net = net_with_instruments(30);
        let a = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 9);
        let b = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 9);
        let c = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn kind_based_spec_prioritizes_runtime_settability() {
        let s = Structure::series(vec![
            Structure::instrument_seg("sensor", 2, InstrumentKind::Sensor),
            Structure::instrument_seg("avfs", 2, InstrumentKind::RuntimeAdaptive),
        ]);
        let (net, _) = s.build("t").unwrap();
        let spec = CriticalitySpec::from_kinds(&net);
        let (sensor, avfs) = (InstrumentId::new(0), InstrumentId::new(1));
        assert_eq!(spec.set_weight(sensor), 0);
        assert!(spec.set_weight(avfs) > spec.obs_weight(avfs));
        assert!(spec.is_important_set(avfs));
    }

    #[test]
    fn empty_network_spec_is_empty() {
        let (net, _) = Structure::series(vec![Structure::seg("a", 1)]).build("t").unwrap();
        let spec = CriticalitySpec::paper_random(&net, &PaperSpecParams::default(), 0);
        assert!(spec.is_empty());
    }
}
