//! A from-scratch, byte-level regular expression engine built for
//! intrusion-detection workloads.
//!
//! The engine supports the pragmatic PCRE subset used by IDS and WAF
//! signatures — literals, character classes, `.`, alternation,
//! groups, greedy/lazy quantifiers, `^`/`$`, `\d`/`\s`/`\w` (and
//! negations), `\xHH` escapes, and the inline flags `i` and `s` —
//! and compiles patterns to automata that run in time linear in the
//! haystack, immune to backtracking blow-ups. There are two:
//!
//! * [`FusedSet`] fuses a whole pattern library into one
//!   multi-pattern NFA, executed as a lazily-determinized DFA
//!   ([`FusedSet::scan_into`]): one haystack pass reports the *exact*
//!   set of matching patterns, counts the matches of those whose
//!   matches all have one width, and keeps where every pattern's
//!   matches end ([`FusedSet::scan_ends`]). Patterns too large to share an
//!   automaton are refused ([`FuseOutcome::Fallback`]);
//!   [`FusedSet::single`] gives such a pattern a set of its own.
//! * [`CountDfa`] counts the non-overlapping matches of one pattern,
//!   the operation pSigene's features are built on (the paper adds an
//!   equivalent `count_all()` to the Bro IDS): the pattern's
//!   leftmost-first search determinized once into a table, run over
//!   the whole haystack or only between the match ends a scan reported
//!   ([`CountDfa::count_between`]). Patterns that match the empty
//!   string or need too many states are refused at construction.
//!
//! Both are tested against a backtracking oracle (the hidden `oracle`
//! module) that shares only the parser with them.
//!
//! # Example
//!
//! ```
//! use psigene_regex::{CandidateSet, CountDfa, DfaCache, FusedSetBuilder};
//!
//! let union = r"union\s+(all\s+)?select";
//! let dfa = CountDfa::new(union, true).unwrap();
//! assert_eq!(dfa.count(b"union select 1; UNION ALL SELECT 2"), 2);
//!
//! let mut builder = FusedSetBuilder::new();
//! builder.add(0, union, true).unwrap();
//! builder.add(1, r"\bor\b", true).unwrap();
//! let set = builder.build().unwrap();
//! let mut matched = CandidateSet::new(set.pattern_count());
//! let hay = b"id=1 UNION SELECT password FROM users";
//! set.scan_into(hay, &mut DfaCache::new(), &mut matched);
//! assert_eq!(matched.iter().collect::<Vec<_>>(), [0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod candidates;
mod classes;
mod compiler;
mod countdfa;
#[cfg(test)]
mod differential;
mod error;
mod lazydfa;
mod nfa;
#[doc(hidden)]
pub mod oracle;
mod parser;
mod program;

pub use crate::candidates::CandidateSet;
pub use crate::countdfa::CountDfa;
pub use crate::error::{Error, ErrorKind};
pub use crate::lazydfa::{DfaCache, FusedScanStats};
pub use crate::nfa::{FuseOutcome, FusedSet, FusedSetBuilder};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;

    /// Whether `pattern` matches anywhere in `hay`, by a set of one.
    fn matches(pattern: &str, case_insensitive: bool, hay: &[u8]) -> bool {
        let set = FusedSet::single(0, pattern, case_insensitive).expect("compiles");
        let mut out = CandidateSet::new(1);
        set.scan_into(hay, &mut DfaCache::new(), &mut out);
        out.contains(0)
    }

    #[test]
    fn count_all_non_overlapping() {
        let dfa = CountDfa::new("aa", false).unwrap();
        assert_eq!(dfa.count(b"aaaa"), 2);
        assert_eq!(dfa.count(b"aaa"), 1);
        assert_eq!(dfa.count(b""), 0);
    }

    #[test]
    fn count_all_zero_width() {
        // The counting automaton refuses a nullable pattern; the
        // oracle counts it. hay = a a b a: "aa" at 0..2, "" at 2..2,
        // "a" at 3..4, "" at 4..4 (same segmentation as Python's
        // re.findall and the regex crate).
        assert!(CountDfa::new("a*", false).is_err());
        assert_eq!(Oracle::new("a*", false).unwrap().count(b"aaba"), 4);
    }

    #[test]
    fn case_insensitive_matching() {
        assert!(matches("select", true, b"SeLeCt * from t"));
        assert!(!matches("select", true, b"selec"));
        assert!(!matches("select", false, b"SELECT"));
    }

    #[test]
    fn inline_flag_matches_ids_style_rules() {
        assert!(matches(r"(?i:union\s+select)", false, b"1 UNION SELECT 2"));
    }

    #[test]
    fn find_iter_positions() {
        let oracle = Oracle::new(r"\d+", false).unwrap();
        assert_eq!(oracle.find_all(b"a12b345c6"), vec![(1, 3), (4, 7), (8, 9)]);
        assert_eq!(CountDfa::new(r"\d+", false).unwrap().count(b"a12b345c6"), 3);
    }

    #[test]
    fn real_world_sqli_signatures() {
        // Patterns in the styles the paper catalogues (Tables II & III).
        let cases: &[(&str, &[u8], bool)] = &[
            (r"(?i)\)?;", b"abc); drop", true),
            (r"(?i)in\s*?\(+\s*?select", b"WHERE x IN (SELECT y)", true),
            (
                r"(?i)<=>|r?like|sounds\s+like|regex",
                b"1 SOUNDS LIKE 2",
                true,
            ),
            (r"=[-0-9%]*", b"id=-15%", true),
            (r"(?i)ch(a)?r\s*?\(\s*?\d", b"concat(char(58))", true),
            (
                r"(?i)union\s+(all\s+)?select",
                b"1 union all select 2",
                true,
            ),
            (
                r"(?i)union\s+(all\s+)?select",
                b"community selection",
                false,
            ),
        ];
        for (pat, hay, want) in cases {
            assert_eq!(
                matches(pat, false, hay),
                *want,
                "pattern {pat:?} on {hay:?}"
            );
        }
    }

    #[test]
    fn invalid_patterns_error() {
        assert!(FusedSet::single(0, "(a", false).is_err());
        assert!(CountDfa::new("[z-a]", false).is_err());
        assert!(FusedSetBuilder::new().add(0, "(a", false).is_err());
    }

    #[test]
    fn oversized_pattern_rejected() {
        // Counted repetitions expand: 8 bytes × 20 000 copies is past
        // the program size cap, which a set of one keeps.
        let err = FusedSet::single(0, "(abcdefgh){20000}", false).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::ProgramTooBig { .. }));
        let err = CountDfa::new("(abcdefgh){20000}", false).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::ProgramTooBig { .. }));
    }
}

/// The search cases the Pike VM was specified by, kept under their
/// names now that the VM is gone: each holds the oracle, the counting
/// automaton and a set of one to the spans worked out by hand.
#[cfg(test)]
mod vm {
    #[cfg(test)]
    mod tests {
        use crate::differential::check_every_engine;
        use crate::oracle::Oracle;

        /// Every match of `pat` in `hay`, leftmost first, once every
        /// engine has agreed on them.
        fn spans(pat: &str, hay: &str) -> Vec<(usize, usize)> {
            check_every_engine(pat, hay.as_bytes())
        }

        #[test]
        fn literal_find() {
            assert_eq!(spans("bc", "abcd"), [(1, 3)]);
            assert_eq!(spans("xy", "abcd"), []);
        }

        #[test]
        fn leftmost_preference() {
            // Both `bb` at 2 and `b` at 1 can match; leftmost wins.
            assert_eq!(spans("bb|b", "abbb"), [(1, 3), (3, 4)]);
        }

        #[test]
        fn alternation_first_branch_preference() {
            // Same start: the first branch wins even though shorter.
            assert_eq!(spans("ab|abc", "abc"), [(0, 2)]);
            assert_eq!(spans("abc|ab", "abc"), [(0, 3)]);
        }

        #[test]
        fn greedy_vs_lazy() {
            assert_eq!(spans("a+", "aaa"), [(0, 3)]);
            assert_eq!(spans("a+?", "aaa"), [(0, 1), (1, 2), (2, 3)]);
            assert_eq!(spans("a*", "bbb"), [(0, 0), (1, 1), (2, 2), (3, 3)]);
        }

        #[test]
        fn anchors() {
            assert_eq!(spans("^ab", "abab"), [(0, 2)]);
            assert_eq!(spans("ab$", "abab"), [(2, 4)]);
            assert_eq!(spans("^ab$", "abab"), []);
            assert_eq!(spans("^$", ""), [(0, 0)]);
        }

        #[test]
        fn counted_reps() {
            assert_eq!(spans("a{2,3}", "aaaa"), [(0, 3)]);
            assert_eq!(spans("a{2,3}?", "aaaa"), [(0, 2), (2, 4)]);
            assert_eq!(spans("a{5}", "aaaa"), []);
        }

        #[test]
        fn classes_and_dot() {
            assert_eq!(spans(r"[0-9]+", "ab123cd"), [(2, 5)]);
            assert_eq!(spans(r"a.c", "abc"), [(0, 3)]);
            assert_eq!(spans(r"a.c", "a\nc"), []);
            assert_eq!(spans(r"(?s)a.c", "a\nc"), [(0, 3)]);
        }

        #[test]
        fn word_boundaries() {
            assert_eq!(spans(r"\bunion\b", "a union b"), [(2, 7)]);
            assert_eq!(spans(r"\bunion\b", "reunion"), []);
            assert_eq!(spans(r"\bunion\b", "unions"), []);
            assert_eq!(spans(r"\bunion\b", "union"), [(0, 5)]);
            assert_eq!(spans(r"\Bnion", "union"), [(1, 5)]);
            assert_eq!(spans(r"\Bunion", "union"), []);
        }

        #[test]
        fn pathological_pattern_is_linear() {
            // (a|a)* a^n against a^n b — classic backtracking bomb,
            // which the automata run in linear time.
            let hay = format!("{}b", "a".repeat(64));
            assert_eq!(spans("(a|a)*c", &hay), []);
        }

        #[test]
        fn empty_pattern_matches_empty_prefix() {
            assert_eq!(spans("", "abc"), [(0, 0), (1, 1), (2, 2), (3, 3)]);
        }

        #[test]
        fn search_from_offset() {
            assert_eq!(spans("a", "abca"), [(0, 1), (3, 4)]);
            let oracle = Oracle::new("a", false).unwrap();
            assert_eq!(oracle.find_at(b"abca", 1), Some((3, 4)));
            assert_eq!(oracle.find_at(b"abca", 4), None);
        }
    }
}
