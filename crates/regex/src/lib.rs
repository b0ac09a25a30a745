//! A from-scratch, byte-level regular expression engine built for
//! intrusion-detection workloads.
//!
//! The engine supports the pragmatic PCRE subset used by IDS and WAF
//! signatures — literals, character classes, `.`, alternation,
//! groups, greedy/lazy quantifiers, `^`/`$`, `\d`/`\s`/`\w` (and
//! negations), `\xHH` escapes, and the inline flags `i` and `s` —
//! and compiles patterns to a prioritized Pike VM that runs in time
//! linear in the haystack, immune to backtracking blow-ups.
//!
//! Four features are specific to the IDS use case:
//!
//! * [`Regex::count_all`] counts non-overlapping matches, the
//!   operation pSigene's feature extraction is built on (the paper
//!   adds an equivalent `count_all()` to the Bro IDS).
//! * [`CountDfa`] is that count precompiled: the pattern's
//!   leftmost-first search determinized once into a table, for callers
//!   that count the same pattern over many haystacks. Patterns that
//!   match the empty string or need too many states are refused at
//!   construction.
//! * A mandatory-literal prefilter skips the VM entirely for the
//!   (very common) haystacks that cannot possibly match.
//! * [`FusedSet`] fuses a whole pattern library into one
//!   multi-pattern NFA, executed as a lazily-determinized DFA
//!   ([`FusedSet::scan_into`]): one haystack pass reports the *exact*
//!   set of matching patterns and counts the matches of those whose
//!   matches all have one width, so per-pattern counting only runs for
//!   the other patterns known to match. Patterns too large to fuse are
//!   refused ([`FuseOutcome::Fallback`]) and must be counted on their
//!   own.
//!
//! # Example
//!
//! ```
//! use psigene_regex::Regex;
//!
//! let re = Regex::builder()
//!     .case_insensitive(true)
//!     .build(r"union\s+(all\s+)?select")
//!     .unwrap();
//! assert!(re.is_match(b"id=1 UNION SELECT password FROM users"));
//! assert_eq!(re.count_all(b"union select 1; UNION ALL SELECT 2"), 2);
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
#[cfg(test)]
mod oracle;
mod parser;
mod prefilter;
mod program;
mod vm;

pub use crate::candidates::CandidateSet;
pub use crate::countdfa::CountDfa;
pub use crate::error::{Error, ErrorKind};
pub use crate::lazydfa::{DfaCache, FusedScanStats};
pub use crate::nfa::{FuseOutcome, FusedSet, FusedSetBuilder};

use crate::prefilter::Prefilter;
use crate::program::Program;
use crate::vm::VmCache;

/// A successful match: byte offsets into the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    start: usize,
    end: usize,
}

impl Match {
    /// Start offset (inclusive).
    pub fn start(&self) -> usize {
        self.start
    }

    /// End offset (exclusive).
    pub fn end(&self) -> usize {
        self.end
    }

    /// Length of the matched span in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for zero-width matches.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The matched bytes of `hay`.
    pub fn as_bytes<'h>(&self, hay: &'h [u8]) -> &'h [u8] {
        &hay[self.start..self.end]
    }
}

/// Configures and builds a [`Regex`].
#[derive(Debug, Clone, Default)]
pub struct RegexBuilder {
    case_insensitive: bool,
}

impl RegexBuilder {
    /// Creates a builder with default settings: case-sensitive. `.`
    /// excludes `\n` unless the pattern says `(?s)`, and the compiled
    /// program is capped at `compiler::DEFAULT_SIZE_LIMIT` instructions.
    pub fn new() -> RegexBuilder {
        RegexBuilder::default()
    }

    /// Enables ASCII case-insensitive matching for the whole pattern.
    pub fn case_insensitive(mut self, yes: bool) -> RegexBuilder {
        self.case_insensitive = yes;
        self
    }

    /// Compiles `pattern` with this configuration.
    pub fn build(&self, pattern: &str) -> Result<Regex, Error> {
        let flags = parser::Flags {
            case_insensitive: self.case_insensitive,
            dot_matches_newline: false,
        };
        let ast = parser::parse(pattern, flags)?;
        let prog = compiler::compile(&ast, compiler::DEFAULT_SIZE_LIMIT)?;
        Ok(Regex {
            pattern: pattern.to_string(),
            prog,
            prefilter: Prefilter::from_ast(&ast),
        })
    }
}

/// A compiled regular expression.
///
/// Matching operates on `&[u8]` haystacks; IDS payloads are raw bytes
/// and need no UTF-8 guarantees.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    prog: Program,
    prefilter: Option<Prefilter>,
}

impl Regex {
    /// Compiles `pattern` with default settings.
    pub fn new(pattern: &str) -> Result<Regex, Error> {
        RegexBuilder::new().build(pattern)
    }

    /// Returns a fresh [`RegexBuilder`].
    pub fn builder() -> RegexBuilder {
        RegexBuilder::new()
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// True when the pattern matches anywhere in `hay`.
    pub fn is_match(&self, hay: &[u8]) -> bool {
        self.find(hay).is_some()
    }

    /// Finds the leftmost match.
    pub fn find(&self, hay: &[u8]) -> Option<Match> {
        self.find_iter(hay).next()
    }

    /// Iterates over non-overlapping matches, leftmost-first: the next
    /// search starts where a match ended, one byte later after a
    /// zero-width one.
    pub fn find_iter<'a>(&'a self, hay: &'a [u8]) -> impl Iterator<Item = Match> + 'a {
        let mut next_start = if self.passes_prefilter(hay) {
            0
        } else {
            hay.len() + 1
        };
        let skip = self.prefilter.as_ref().and_then(|pf| pf.prefix_skip());
        let mut cache = VmCache::new();
        std::iter::from_fn(move || {
            let m = vm::find_at(&self.prog, skip, hay, next_start, &mut cache)?;
            next_start = m.end + usize::from(m.is_empty());
            Some(m)
        })
    }

    /// Counts non-overlapping matches in `hay`.
    ///
    /// This is the primitive pSigene features are built on: every
    /// feature value is `count_all(feature_pattern, request)`.
    pub fn count_all(&self, hay: &[u8]) -> usize {
        self.find_iter(hay).count()
    }

    /// False when the prefilter proves `hay` holds no match.
    fn passes_prefilter(&self, hay: &[u8]) -> bool {
        self.prefilter
            .as_ref()
            .is_none_or(|pf| pf.maybe_matches(hay))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_all_non_overlapping() {
        let re = Regex::new("aa").unwrap();
        assert_eq!(re.count_all(b"aaaa"), 2);
        assert_eq!(re.count_all(b"aaa"), 1);
        assert_eq!(re.count_all(b""), 0);
    }

    #[test]
    fn count_all_zero_width() {
        let re = Regex::new("a*").unwrap();
        // hay = a a b a: "aa" at 0..2, "" at 2..2, "a" at 3..4, "" at 4..4
        // (same segmentation as Python's re.findall and the regex crate).
        assert_eq!(re.count_all(b"aaba"), 4);
    }

    #[test]
    fn case_insensitive_matching() {
        let re = Regex::builder()
            .case_insensitive(true)
            .build("select")
            .unwrap();
        assert!(re.is_match(b"SeLeCt * from t"));
        assert!(!re.is_match(b"selec"));
    }

    #[test]
    fn inline_flag_matches_ids_style_rules() {
        let re = Regex::new(r"(?i:union\s+select)").unwrap();
        assert!(re.is_match(b"1 UNION SELECT 2"));
    }

    #[test]
    fn find_iter_positions() {
        let re = Regex::new(r"\d+").unwrap();
        let spans: Vec<(usize, usize)> = re
            .find_iter(b"a12b345c6")
            .map(|m| (m.start(), m.end()))
            .collect();
        assert_eq!(spans, vec![(1, 3), (4, 7), (8, 9)]);
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
            let re = Regex::new(pat).unwrap();
            assert_eq!(re.is_match(hay), *want, "pattern {pat:?} on {hay:?}");
        }
    }

    #[test]
    fn match_accessors() {
        let re = Regex::new("bc").unwrap();
        let m = re.find(b"abcd").unwrap();
        assert_eq!((m.start(), m.end(), m.len()), (1, 3, 2));
        assert!(!m.is_empty());
        assert_eq!(m.as_bytes(b"abcd"), b"bc");
    }

    #[test]
    fn invalid_patterns_error() {
        assert!(Regex::new("(a").is_err());
        assert!(Regex::new("[z-a]").is_err());
    }

    #[test]
    fn oversized_pattern_rejected() {
        // Counted repetitions expand: 8 bytes × 20 000 copies is past
        // the default cap.
        let err = Regex::new("(abcdefgh){20000}").unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::ProgramTooBig { .. }));
    }
}
