//! Top-level ANU configuration, serializable for replication.

use crate::hash;
use crate::heuristics::TuningConfig;
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::placement::DEFAULT_ROUNDS;

/// Everything a node needs to participate in ANU placement: the shared hash
/// seed, the probe-round bound, and the delegate's tuning knobs.
///
/// This is configuration, not state — the replicated *state* is the
/// [`crate::placement::PlacementMap`] the delegate distributes after each
/// reconfiguration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AnuConfig {
    /// Seed of the agreed-upon hash family.
    pub seed: u64,
    /// Number of re-hash rounds before the direct-to-server fallback.
    pub rounds: u32,
    /// Delegate tuning configuration.
    pub tuning: TuningConfig,
}

impl Default for AnuConfig {
    fn default() -> Self {
        AnuConfig {
            seed: 0x5EED_AB1E,
            rounds: DEFAULT_ROUNDS,
            tuning: TuningConfig::paper(),
        }
    }
}

impl ToJson for AnuConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::u64(self.seed)),
            ("rounds", Json::u32(self.rounds)),
            ("tuning", self.tuning.to_json()),
        ])
    }
}

impl FromJson for AnuConfig {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(AnuConfig {
            seed: j.get("seed")?.as_u64()?,
            rounds: hash::rounds_from_json(j.get("rounds")?)?,
            tuning: TuningConfig::from_json(j.get("tuning")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_config() {
        let c = AnuConfig::default();
        assert_eq!(c.rounds, DEFAULT_ROUNDS);
        assert!(c.tuning.top_off && c.tuning.divergent);
    }

    #[test]
    fn json_roundtrip() {
        let c = AnuConfig::default();
        let text = c.to_json().render_pretty();
        let c2 = AnuConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn rejects_rounds_above_the_bound() {
        let mut c = AnuConfig {
            rounds: hash::MAX_ROUNDS,
            ..AnuConfig::default()
        };
        let at_bound = c.to_json().render();
        assert_eq!(
            AnuConfig::from_json(&Json::parse(&at_bound).unwrap()),
            Ok(c)
        );
        c.rounds = u32::MAX;
        let err = AnuConfig::from_json(&Json::parse(&c.to_json().render()).unwrap());
        assert!(err.is_err(), "{err:?}");
    }
}
