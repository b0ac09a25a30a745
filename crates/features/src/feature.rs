//! A single counting feature.

use crate::sources::FeatureSource;
use psigene_regex::{CountDfa, Regex, RegexBuilder, VmCache};

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
    regex: Regex,
    /// `regex` determinized for counting; `None` when the pattern was
    /// refused (see [`CountDfa::new`]) and stays on the Pike VM.
    count_dfa: Option<CountDfa>,
}

impl Feature {
    /// Compiles a feature (case-insensitive, as IDS rules are).
    pub fn new(
        id: usize,
        name: impl Into<String>,
        pattern: impl Into<String>,
        source: FeatureSource,
    ) -> Result<Feature, psigene_regex::Error> {
        let pattern = pattern.into();
        let regex = RegexBuilder::new().case_insensitive(true).build(&pattern)?;
        let count_dfa = CountDfa::new(&regex);
        Ok(Feature {
            id,
            name: name.into(),
            pattern,
            source,
            regex,
            count_dfa,
        })
    }

    /// The feature value for a normalized payload: the number of
    /// non-overlapping matches. Always the Pike VM — the per-feature
    /// oracle the extraction tests compare against.
    pub fn count(&self, normalized_payload: &[u8]) -> usize {
        self.regex.count_all(normalized_payload)
    }

    /// Like [`Feature::count`] but reusing caller-provided VM scratch
    /// space — identical result, no per-call allocation. The
    /// extraction hot path shares one cache across every feature it
    /// counts on a payload.
    pub fn count_with(&self, normalized_payload: &[u8], cache: &mut VmCache) -> usize {
        self.regex.count_all_with(normalized_payload, cache)
    }

    /// The count for payloads the fused scan already proved this
    /// feature matches, from the feature's counting automaton. A
    /// pattern without one runs its VM, minus the prefilter gate (a
    /// redundant haystack traversal — the prefilter never rejects a
    /// matching payload). Identical to [`Feature::count`] either way.
    pub fn count_known_match(&self, normalized_payload: &[u8], cache: &mut VmCache) -> usize {
        match &self.count_dfa {
            Some(dfa) => dfa.count(normalized_payload),
            None => self
                .regex
                .count_all_prefiltered_with(normalized_payload, cache),
        }
    }

    /// The counting automaton, when the pattern has one.
    pub fn count_dfa(&self) -> Option<&CountDfa> {
        self.count_dfa.as_ref()
    }

    /// Borrow of the compiled pattern.
    pub fn regex(&self) -> &Regex {
        &self.regex
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
