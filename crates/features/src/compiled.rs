//! The set-level scan: one pass over the normalized payload decides
//! which features need counting at all, and counts the fixed-width
//! ones itself.
//!
//! pSigene's operational phase (§IV of the paper) evaluates every
//! request against the full feature library before scoring
//! signatures, and the overwhelming majority of requests — all
//! benign traffic, in the paper's measurements — match almost
//! nothing. [`CompiledFeatureSet`] fuses every feature pattern into
//! one automaton ([`psigene_regex::FusedSet`]) whose single lazy-DFA
//! pass reports the *exact* set of matching features, and the match
//! count of every feature whose matches all have one width
//! (`CompiledFeatureSet::scan_count`; 267 of the 439 in the shipped
//! library, such as `\bselect\b`, `'` and `--`), and where the
//! other matched features' matches end (`CompiledFeatureSet::scan_ends`),
//! so their counting runs cover only that span. A pattern the
//! fuser refuses (too large to determinize profitably — none in the
//! shipped library) goes on the fallback list instead: its bit is
//! pre-set on every payload, so it is always counted by its own
//! counting automaton. Exactness holds by construction either way and
//! is verified by property test in `crate::proptests`.

use crate::feature::Feature;
use psigene_regex::{
    CandidateSet, DfaCache, FuseOutcome, FusedScanStats, FusedSet, FusedSetBuilder,
};

/// The compiled set-level engine for one feature set: the fused
/// lazy-DFA automaton plus the ids it could not take.
#[derive(Clone)]
pub struct CompiledFeatureSet {
    /// Total features in the owning set.
    n_features: usize,
    /// Fused multi-pattern automaton over every fusable feature;
    /// `None` when nothing fused. Pattern ids are feature ids.
    fused: Option<FusedSet>,
    /// Feature ids the fuser refused (counted by their own automaton on
    /// every payload), ascending, with the refusal reason.
    fallback: Vec<(u32, &'static str)>,
    /// Bitset with exactly the fallback ids pre-set; cloned into the
    /// scan scratch so one ascending bitset walk visits the refused
    /// features and the fused matches in id order.
    refused: CandidateSet,
}

/// What one set-level scan did; feeds the fused-engine telemetry in
/// `crate::extract` (and the end-to-end benchmark, which reads
/// `stats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct FusedScanReport {
    /// Lazy-DFA counters for the scan; `stats.matched` is the number
    /// of fused features with at least one match — the *exact* set,
    /// so their counting runs all produce nonzero counts.
    pub stats: FusedScanStats,
}

impl CompiledFeatureSet {
    /// Compiles the set-level engine for `features` (ids must be their
    /// indices, which [`crate::FeatureSet`] guarantees).
    pub fn build(features: &[Feature]) -> CompiledFeatureSet {
        let n = features.len();
        let mut fuser = FusedSetBuilder::new();
        let mut fallback: Vec<(u32, &'static str)> = Vec::new();
        let mut refused = CandidateSet::new(n);
        for (i, f) in features.iter().enumerate() {
            // Features compile case-insensitively (see
            // `crate::feature::Feature::new`); the fused automaton
            // must match that.
            let outcome = fuser
                .add(i as u32, &f.pattern, true)
                .expect("feature pattern already compiled once");
            if let FuseOutcome::Fallback(reason) = outcome {
                fallback.push((i as u32, reason));
                refused.insert(i);
            }
        }
        CompiledFeatureSet {
            n_features: n,
            fused: fuser.build(),
            fallback,
            refused,
        }
    }

    /// Fills `bits` with the features due a counting run on `norm`: every
    /// refused feature plus the exact match set of the fused ones.
    /// Returns `None` when no feature fused — `bits` then carries
    /// just the refused ids, i.e. every feature.
    pub fn fused_candidates_into(
        &self,
        norm: &[u8],
        bits: &mut CandidateSet,
        dfa: &mut DfaCache,
    ) -> Option<FusedScanReport> {
        bits.clone_from(&self.refused);
        let stats = self.fused.as_ref()?.scan_into(norm, dfa, bits);
        Some(FusedScanReport { stats })
    }

    /// Feature `id`'s count from the last scan through `dfa`, for the
    /// fused features the scan counts itself (every match one width);
    /// `None` for the rest, which need a counting run of their own.
    pub(crate) fn scan_count(&self, dfa: &DfaCache, id: usize) -> Option<usize> {
        self.fused.as_ref()?.scan_count(dfa, id)
    }

    /// The least and the greatest match end of fused feature `id` the
    /// last scan through `dfa` reported; `None` when it did not match,
    /// or is a refused feature.
    pub(crate) fn scan_ends(&self, dfa: &DfaCache, id: usize) -> Option<(usize, usize)> {
        self.fused.as_ref()?.scan_ends(dfa, id)
    }

    /// The fused multi-pattern automaton, when one exists.
    pub fn fused(&self) -> Option<&FusedSet> {
        self.fused.as_ref()
    }

    /// Features inside the fused automaton.
    pub fn fused_features(&self) -> usize {
        self.n_features - self.fallback.len()
    }

    /// Features the fuser refused, with the per-feature reason; these
    /// are counted by their own automaton on every payload.
    pub fn fallback_features(&self) -> &[(u32, &'static str)] {
        &self.fallback
    }

    /// Total features in the owning set.
    pub fn feature_count(&self) -> usize {
        self.n_features
    }
}

impl std::fmt::Debug for CompiledFeatureSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledFeatureSet")
            .field("features", &self.n_features)
            .field("fused", &self.fused_features())
            .field("fallback", &self.fallback.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptests::full_set;

    /// Byte classes of the shipped library's fused automaton.
    const CLASSES: usize = 63;

    #[test]
    fn fused_engine_covers_most_of_the_library() {
        let set = full_set();
        let c = CompiledFeatureSet::build(set.features());
        assert_eq!(c.feature_count(), set.len());
        // The shipped library fuses whole: the fallback path below is
        // for custom libraries only.
        assert!(
            c.fallback_features().is_empty(),
            "unfusable library patterns: {:?}",
            c.fallback_features()
        );
        assert_eq!(c.fused_features(), set.len());
        assert_eq!(c.fused().map(|f| f.pattern_count()), Some(set.len()));
        // The byte classes the fused table is indexed by: a library
        // edit that splits or merges some moves every scan's table
        // footprint, so it must be made here, on purpose.
        assert_eq!(c.fused().map(|f| f.class_count()), Some(CLASSES));
    }

    #[test]
    fn every_library_feature_counts_by_table() {
        // Every feature has a counting automaton (`Feature::new`
        // refuses a pattern without one); their sizes are pinned. The
        // one large automaton is named with its size, and the rest
        // stay small: a library edit that grows one shows here, well
        // before the automaton's state cap refuses it.
        const LARGEST: &str = r"sig:union(\s|\+|/\*.*?\*/)+(all(\s|\+|/\*.*?\*/)+)?select";
        let set = full_set();
        let (large, small): (Vec<_>, Vec<_>) = set
            .features()
            .iter()
            .map(|f| (f.name.as_str(), f.count_dfa().state_count()))
            .partition(|&(name, _)| name == LARGEST);
        assert_eq!(large, [(LARGEST, 7627)]);
        let largest = small.iter().max_by_key(|&&(_, states)| states);
        assert!(
            largest.is_some_and(|&(_, states)| states <= 128),
            "largest other automaton: {largest:?}"
        );
    }

    #[test]
    fn the_scan_counts_every_fixed_width_library_feature() {
        // Features whose every match has one width are counted by the
        // fused scan itself, the rest by a counting run of their own. A
        // library edit that moves features between the two moves
        // request-path work: it must be made here, on purpose.
        let set = full_set();
        let c = CompiledFeatureSet::build(set.features());
        let mut dfa = DfaCache::new();
        c.fused_candidates_into(b"", &mut CandidateSet::new(0), &mut dfa)
            .expect("full library has a fused engine");
        let counted = (0..set.len())
            .filter(|&id| c.scan_count(&dfa, id).is_some())
            .count();
        assert_eq!((counted, set.len()), (267, 439));
    }

    #[test]
    fn fused_scan_is_exact_for_fused_and_sound_for_fallback() {
        let set = full_set();
        let c = CompiledFeatureSet::build(set.features());
        let mut bits = CandidateSet::new(0);
        let mut dfa = psigene_regex::DfaCache::new();
        let payloads: &[&[u8]] = &[
            b"id=-1+union+select+1,2,concat(version(),0x3a),4--+-",
            b"page=2&sort=asc&term=2012",
            b"q=char(58),char(58)",
            b"",
        ];
        for p in payloads {
            let report = c
                .fused_candidates_into(p, &mut bits, &mut dfa)
                .expect("full library has a fused engine");
            let mut fused_matched = 0u32;
            for f in set.features() {
                let matches = f.count(p) > 0;
                let fused = !c
                    .fallback_features()
                    .iter()
                    .any(|&(id, _)| id as usize == f.id);
                if fused {
                    // Fused features get the exact answer.
                    assert_eq!(
                        bits.contains(f.id),
                        matches,
                        "fused feature {} wrong on {p:?}",
                        f.name
                    );
                    fused_matched += u32::from(matches);
                } else {
                    // Refused features are always due a counting run.
                    assert!(bits.contains(f.id), "fallback feature {} unset", f.name);
                }
            }
            assert_eq!(report.stats.matched, fused_matched, "{p:?}");
        }
    }
}
