//! Snort/ET-, Bro- and ModSecurity-style SQLi rulesets and engines.
//!
//! These are the comparison systems of the paper's evaluation
//! (§III-A): faithful *style* re-implementations — rule counts,
//! enabled shares, regex usage and length distributions mirror Table
//! IV; matching semantics mirror each system (deterministic
//! first-match for Snort and Bro, weighted anomaly scoring for
//! ModSecurity). Each engine compiles its regex rules once, at
//! construction, into fused automata that report every matching rule
//! in one scan per payload (see [`rule`]). The [`DetectionEngine`]
//! trait is what the evaluation harness and pSigene itself implement.
//!
//! # Example
//!
//! ```
//! use psigene_rulesets::{BroEngine, DetectionEngine, ModsecEngine, SnortEngine};
//! use psigene_http::HttpRequest;
//!
//! let attack = HttpRequest::get("v", "/x.php", "id=-1+union+select+1,2,3");
//! for engine in [
//!     Box::new(BroEngine::new()) as Box<dyn DetectionEngine>,
//!     Box::new(SnortEngine::new()),
//!     Box::new(ModsecEngine::new()),
//! ] {
//!     assert!(engine.evaluate(&attack).flagged, "{}", engine.name());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bro;
pub mod engine;
pub mod modsec;
pub mod rule;
pub mod snort;
pub mod stats;

pub use bro::BroEngine;
pub use engine::{Detection, DetectionEngine, Verdict};
pub use modsec::ModsecEngine;
pub use rule::{Matcher, Rule, Severity};
pub use snort::SnortEngine;
pub use stats::{compute as compute_stats, render_table_iv, table_iv, RulesetStats};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use psigene_http::HttpRequest;
    use std::sync::OnceLock;

    /// The three engines, built once per test binary: building one
    /// compiles its rules, which costs more than the cases themselves.
    fn engines() -> &'static (BroEngine, SnortEngine, ModsecEngine) {
        static ENGINES: OnceLock<(BroEngine, SnortEngine, ModsecEngine)> = OnceLock::new();
        ENGINES.get_or_init(|| (BroEngine::new(), SnortEngine::new(), ModsecEngine::new()))
    }

    /// `ModsecEngine::with_threshold(t)` for every `t` in `1..10`, built
    /// once per test binary; index `t - 1`.
    fn modsec_by_threshold() -> &'static [ModsecEngine] {
        static ENGINES: OnceLock<Vec<ModsecEngine>> = OnceLock::new();
        ENGINES.get_or_init(|| (1..10).map(ModsecEngine::with_threshold).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn engines_never_panic_on_hostile_payloads(
            query in proptest::collection::vec(any::<u8>(), 0..160),
        ) {
            let raw = String::from_utf8_lossy(&query).into_owned();
            let req = HttpRequest::get("h", "/p", &raw);
            let (bro, snort, modsec) = engines();
            let _ = bro.evaluate(&req);
            let _ = snort.evaluate(&req);
            let _ = modsec.evaluate(&req);
        }

        #[test]
        fn modsec_score_is_monotone_in_threshold(
            q in "[ -~]{0,80}",
            t1 in 1u32..10,
            t2 in 1u32..10,
        ) {
            let req = HttpRequest::get("h", "/p", &q);
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let engines = modsec_by_threshold();
            let strict = engines[lo as usize - 1].evaluate(&req);
            let lax = engines[hi as usize - 1].evaluate(&req);
            // Anything the laxer threshold flags, the stricter must too.
            if lax.flagged {
                prop_assert!(strict.flagged);
            }
            prop_assert_eq!(strict.score, lax.score);
        }
    }
}
