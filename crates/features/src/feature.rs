//! A single counting feature: its pattern determinized as a counting
//! automaton (what extraction counts with, [`Feature::count_dfa`]) and,
//! on first use, lowered for the backtracking oracle (the per-feature
//! reference the extraction tests compare against, [`Feature::count`]).
//! The two share only the parser. A pattern the automaton refuses is
//! refused as a feature.

use crate::sources::FeatureSource;
use psigene_regex::oracle::Oracle;
use psigene_regex::CountDfa;
use std::sync::OnceLock;

/// One feature: a compiled pattern whose non-overlapping match count
/// over the normalized payload is the feature value (§II-B: "each one
/// measuring the number of times a feature was found in an attack
/// sample").
#[derive(Debug, Clone)]
pub struct Feature {
    /// Stable index within the owning [`crate::FeatureSet`].
    pub id: usize,
    /// Human-readable name (the pattern text for generated features).
    pub name: String,
    /// The pattern source text.
    pub pattern: String,
    /// Which of Table II's three sources produced it.
    pub source: FeatureSource,
    /// `pattern` lowered for the oracle by the first
    /// [`Feature::count`]: only tests count with it, so a deployed
    /// engine never holds one.
    oracle: OnceLock<Oracle>,
    /// `pattern` determinized for counting.
    count_dfa: CountDfa,
}

impl Feature {
    /// Compiles a feature (case-insensitive, as IDS rules are). Fails
    /// when the pattern does not compile, and when [`CountDfa::new`]
    /// refuses it: a pattern that matches the empty string, or one
    /// whose counting automaton needs too many states.
    pub fn new(
        id: usize,
        name: impl Into<String>,
        pattern: impl Into<String>,
        source: FeatureSource,
    ) -> Result<Feature, psigene_regex::Error> {
        let pattern = pattern.into();
        let count_dfa = CountDfa::new(&pattern, true)?;
        Ok(Feature {
            id,
            name: name.into(),
            pattern,
            source,
            oracle: OnceLock::new(),
            count_dfa,
        })
    }

    /// The feature value for a normalized payload: the number of
    /// non-overlapping matches. Always the backtracking oracle — the
    /// per-feature reference the extraction tests compare against,
    /// several times slower than [`Feature::count_dfa`].
    pub fn count(&self, normalized_payload: &[u8]) -> usize {
        let oracle = self
            .oracle
            .get_or_init(|| Oracle::new(&self.pattern, true).expect("parsed by CountDfa::new"));
        oracle.count(normalized_payload)
    }

    /// The counting automaton: its `count` equals [`Feature::count`]
    /// on every payload.
    pub fn count_dfa(&self) -> &CountDfa {
        &self.count_dfa
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psigene_regex::ErrorKind;

    #[test]
    fn counting_semantics() {
        let f = Feature::new(0, "char(", r"char\s*\(", FeatureSource::NidsSignatures).unwrap();
        assert_eq!(f.count(b"char(58),x,char (97)"), 2);
        assert_eq!(f.count(b"nothing"), 0);
    }

    #[test]
    fn case_insensitive_by_default() {
        let f = Feature::new(0, "union", "union", FeatureSource::ReservedWords).unwrap();
        assert_eq!(f.count(b"UNION union UnIoN"), 3);
    }

    #[test]
    fn invalid_pattern_is_an_error() {
        assert!(Feature::new(0, "bad", "(", FeatureSource::ReferenceDocuments).is_err());
    }

    #[test]
    fn patterns_without_a_counting_automaton_are_refused() {
        let kind = |pattern: &str| {
            let err = Feature::new(0, pattern, pattern, FeatureSource::NidsSignatures)
                .expect_err(pattern);
            err.kind().clone()
        };
        assert_eq!(kind("a*"), ErrorKind::MatchesEmpty);
        assert_eq!(kind("(ab)?"), ErrorKind::MatchesEmpty);
        assert!(matches!(
            kind("[ab]*a[ab]{11}"),
            ErrorKind::TooManyStates { .. }
        ));
    }
}
