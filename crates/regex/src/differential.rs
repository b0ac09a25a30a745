//! Differential tests: every engine against [`Oracle`], which shares
//! only the parser and the AST with them.
//!
//! The fused lazy DFA's match set and the counts its scan makes of
//! fixed-width patterns — over the whole library in one automaton and
//! over each pattern in a set of its own ([`FusedSet::single`]) — the
//! counting automaton's counts over the whole haystack, and its counts
//! bounded by the match ends either scan reports
//! ([`CountDfa::count_between`]), are each held to the oracle. The
//! shipped feature library comes from `psigene-features` as pattern
//! strings: that crate links the non-test build of this one, so its
//! types are different types from the ones under test here.

use crate::oracle::Oracle;
use crate::{CandidateSet, CountDfa, DfaCache, FusedSet, FusedSetBuilder};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Patterns representative of IDS signature styles.
const PATTERNS: &[&str] = &[
    r"union\s+select",
    r"union\s+(all\s+)?select",
    r"in\s*?\(+\s*?select",
    r"\)?;",
    r"=[-0-9%]*",
    r"<=>|r?like|sounds\s+like|regex",
    r"[?&][^\s\x00-\x37|]+?=",
    r"ch(a)?r\s*?\(\s*?\d",
    r"(\d+)\s*(union|or|and)\s*(\d+)",
    r"'\s*or\s*'?\d",
    r"--",
    r"/\*.*\*/",
    r"[a-z]+[0-9]{2,4}",
    r"(abc|ab|a)+",
    r"x*y+z?",
    r"^select",
    r"from$",
    r"a{2,5}b{0,3}",
    r"\w+\s*=\s*\w+",
    r"[^a-z]+",
    r"\bunion\b",
    r"\bselect\b|\bfrom\b",
    r"\B\d+",
];

/// One pattern in a set of its own, determinized where it can be, and
/// lowered by the oracle.
struct Pair {
    pattern: String,
    ci: bool,
    single: FusedSet,
    dfa: Option<CountDfa>,
    oracle: Oracle,
    /// True when every match has one width w ≥ 1, so a fused scan
    /// counts the pattern itself.
    scan_counted: bool,
}

impl Pair {
    fn new(pattern: &str, ci: bool) -> Result<Pair, crate::Error> {
        let flags = crate::parser::Flags {
            case_insensitive: ci,
            dot_matches_newline: false,
        };
        let width = crate::parser::parse(pattern, flags)?.fixed_width();
        Ok(Pair {
            pattern: pattern.to_string(),
            ci,
            single: FusedSet::single(0, pattern, ci)?,
            dfa: CountDfa::new(pattern, ci).ok(),
            oracle: Oracle::new(pattern, ci)?,
            scan_counted: width.is_some_and(|w| w >= 1),
        })
    }

    /// A fused scan's count of this pattern, under id `pid`, equals the
    /// oracle's where the scan counts it, and is absent elsewhere.
    fn check_scan_count(&self, set: &FusedSet, cache: &DfaCache, pid: usize, hay: &[u8]) {
        let want = self.scan_counted.then(|| self.oracle.count(hay));
        assert_eq!(
            set.scan_count(cache, pid),
            want,
            "fused scan count {:?} (ci={}) on {hay:?}",
            self.pattern,
            self.ci
        );
    }

    /// The counting automaton's count bounded by the match ends a fused
    /// scan reported for this pattern, under id `pid`, equals the
    /// oracle's, and the scan reports ends exactly when there is a
    /// match.
    fn check_span_count(&self, set: &FusedSet, cache: &DfaCache, pid: usize, hay: &[u8]) {
        let (pat, ci) = (&self.pattern, self.ci);
        let want = self.oracle.count(hay);
        match set.scan_ends(cache, pid) {
            None => assert_eq!(want, 0, "no ends reported for {pat:?} (ci={ci}) on {hay:?}"),
            Some((first, last)) => {
                assert!(
                    first <= last && last <= hay.len(),
                    "{pat:?} ends {first}..={last}"
                );
                if let Some(dfa) = &self.dfa {
                    assert_eq!(
                        dfa.count_between(hay, first, last),
                        want,
                        "CountDfa {pat:?} (ci={ci}) between ends {first} and {last} of {hay:?}"
                    );
                }
            }
        }
    }

    /// The set of one's match bit, its match ends and, for a
    /// fixed-width pattern, its scan count agree with the oracle.
    fn check_single(&self, hay: &[u8]) {
        let mut cache = DfaCache::new();
        let mut out = CandidateSet::new(1);
        self.single.scan_into(hay, &mut cache, &mut out);
        assert_eq!(
            out.contains(0),
            self.oracle.is_match(hay),
            "set of one {:?} (ci={}) on {hay:?}",
            self.pattern,
            self.ci
        );
        self.check_scan_count(&self.single, &cache, 0, hay);
        self.check_span_count(&self.single, &cache, 0, hay);
    }

    /// The counting automaton's count, where there is one, equals the
    /// oracle's.
    fn check_counts(&self, hay: &[u8]) {
        if let Some(dfa) = &self.dfa {
            let (pat, ci) = (&self.pattern, self.ci);
            assert_eq!(
                dfa.count(hay),
                self.oracle.count(hay),
                "CountDfa {pat:?} (ci={ci}) on {hay:?}"
            );
        }
    }

    /// Every engine on one haystack.
    fn check(&self, hay: &[u8]) {
        self.check_single(hay);
        self.check_counts(hay);
    }
}

/// The shipped feature library, compiled as features are
/// (case-insensitively), then the fixed patterns in both case modes.
fn library_and_fixed() -> &'static [Pair] {
    static BUILT: OnceLock<Vec<Pair>> = OnceLock::new();
    BUILT.get_or_init(|| {
        let library = psigene_features::FeatureSet::full();
        assert_eq!(library.len(), 439, "the shipped library");
        let library = library
            .features()
            .iter()
            .map(|f| (f.pattern.as_str(), true));
        let fixed = PATTERNS.iter().flat_map(|&pat| [(pat, false), (pat, true)]);
        library
            .chain(fixed)
            .map(|(pat, ci)| Pair::new(pat, ci).expect("compiles"))
            .collect()
    })
}

/// The fixed patterns: the tail of [`library_and_fixed`].
fn fixed() -> &'static [Pair] {
    let all = library_and_fixed();
    &all[all.len() - 2 * PATTERNS.len()..]
}

#[test]
fn fixed_patterns_on_crafted_haystacks() {
    let hays: &[&[u8]] = &[
        b"",
        b"a",
        b"id=1 union select 1,2,3",
        b"id=1 UNION ALL SELECT null,null",
        b"x' or '1'='1",
        b"?q=hello&id=42",
        b"select * from users where id in (select id from admins)",
        b"/* comment */ --",
        b"aaaaabbbbbccccc",
        b"xyzzy xxyyzz",
        b"char(58) CHAR ( 5 )",
        b"===---%%%000",
        b"\x00\x01\x02binary\xff",
        b"sounds like rlike like regex <=>",
    ];
    for pair in fixed() {
        for hay in hays {
            pair.check(hay);
        }
    }
}

/// Holds every engine to the oracle on one case-sensitive pattern: the
/// counting automaton's count, and the set of one's match bit and, for
/// a fixed-width pattern, its count. Returns the oracle's spans.
pub(crate) fn check_every_engine(pat: &str, hay: &[u8]) -> Vec<(usize, usize)> {
    let pair = Pair::new(pat, false).expect("compiles");
    pair.check(hay);
    pair.oracle.find_all(hay)
}

/// SQL-ish fragments spliced between random bytes, so haystacks reach
/// the match, override and restart paths and not only the idle hop.
const TOKENS: &[&str] = &[
    "select", "UNION", "from", "null", "all", "or", "and", "char", "sleep", "like", " ", "  ",
    "\n", "/*", "*/", "--", ";", ",", "'", "\"", "(", ")", "=", "+", "1", "0x3a", "_", "a", "#",
    "%", "@@", "||", "<", ">",
];

/// A token of [`TOKENS`] per pick in range, the byte otherwise.
fn splice(parts: &[(usize, u8)]) -> Vec<u8> {
    let mut hay = Vec::new();
    for &(pick, byte) in parts {
        match TOKENS.get(pick) {
            Some(token) => hay.extend_from_slice(token.as_bytes()),
            None => hay.push(byte),
        }
    }
    hay
}

/// `sig:union(\s|\+|/\*.*?\*/)+(all(\s|\+|/\*.*?\*/)+)?select` as the
/// library compiles it: case-insensitively.
const UNION_SELECT: &str = r"(?i)union(\s|\+|/\*.*?\*/)+(all(\s|\+|/\*.*?\*/)+)?select";

/// Cases whose answer is worked out by hand from the oracle's stated
/// semantics, which pins the oracle itself, then held against every
/// engine.
#[test]
fn named_cases_hold_on_every_engine() {
    type Case = (&'static str, &'static [u8], &'static [(usize, usize)]);
    let cases: &[Case] = &[
        // Loops over a nullable body.
        (r"(a|)*b", b"aab b", &[(0, 3), (4, 5)]),
        (r"(a|)*b", b"ac", &[]),
        (r"(a*)*b", b"aab xb", &[(0, 3), (5, 6)]),
        // An iteration that consumes nothing ends the loop: the empty
        // branch comes first, so it wins at every position — also when
        // the empty iteration crossed an assertion.
        (r"(|a)+", b"aa", &[(0, 0), (1, 1), (2, 2)]),
        (r"(|a)*", b"a", &[(0, 0), (1, 1)]),
        (r"(|a)+b", b"ab", &[(0, 2)]),
        (r"(\b|a)*", b"a", &[(0, 0), (1, 1)]),
        // A count restarts mid-haystack: `\b` still reads the byte
        // before the restart, `^` still means position 0.
        (r"\ba", b"aa a", &[(0, 1), (3, 4)]),
        (r"\Ba", b"aa a", &[(1, 2)]),
        (r"a\b", b"aa a", &[(1, 2), (3, 4)]),
        (r"^a", b"aaa", &[(0, 1)]),
        (r"^a|b", b"abab", &[(0, 1), (1, 2), (3, 4)]),
        (r"\bnull\b", b"null,null", &[(0, 4), (5, 9)]),
        // `$` is the end of the haystack, not a trailing `\n`.
        (r"a$", b"a\n", &[]),
        (r"a$", b"a\na", &[(2, 3)]),
        (r"a\n$", b"a\n", &[(0, 2)]),
        (r"$", b"a\n", &[(2, 2)]),
        (r";\s*$", b"a;\n", &[(1, 3)]),
        // Greedy and lazy counted repetitions.
        (r"a{2,4}", b"aaaaa", &[(0, 4)]),
        (r"a{2,4}?", b"aaaaa", &[(0, 2), (2, 4)]),
        (r"a{1,3}?", b"aaa", &[(0, 1), (1, 2), (2, 3)]),
        (r"a{0,2}b", b"aaab", &[(1, 4)]),
        (r"a{0,2}?b", b"aaab", &[(1, 4)]),
        (r"x.{1,3}?y", b"xaybyy", &[(0, 3)]),
        (r"x.{1,3}y", b"xaybyy", &[(0, 5)]),
        // Priority: the first branch wins at one start, not the longest.
        (r"a|ab", b"abab", &[(0, 1), (2, 3)]),
        (r"ab|abc", b"abcabc", &[(0, 2), (3, 5)]),
        (r"select.+?from", b"select a from b from", &[(0, 13)]),
        // Fixed-width patterns, which the fused scan counts from the
        // match ends it reports: back to back, at the last byte, at
        // assertions and across alternatives of one width.
        (r"aa", b"aaaa", &[(0, 2), (2, 4)]),
        (r"'", b"''''", &[(0, 1), (1, 2), (2, 3), (3, 4)]),
        (r"\bor\b", b"or or,or", &[(0, 2), (3, 5), (6, 8)]),
        (r"--$", b"-- --", &[(3, 5)]),
        (r"^ab", b"abab", &[(0, 2)]),
        (r"(ab|cd)", b"abcd", &[(0, 2), (2, 4)]),
        // The library's largest counting automaton: comments between
        // the keywords close at the first `*/` that lets the rest
        // match, and an unclosed one closes nothing.
        (UNION_SELECT, b"union/**/select", &[(0, 15)]),
        (UNION_SELECT, b"UNION/*a*/ /*b*/SELECT", &[(0, 22)]),
        (UNION_SELECT, b"union/*/select", &[]),
        (UNION_SELECT, b"union/* select", &[]),
        (UNION_SELECT, b"union/*x*/all/**/select", &[(0, 23)]),
        (UNION_SELECT, b"union/*a*/b*/select", &[(0, 19)]),
    ];
    for &(pat, hay, want) in cases {
        assert_eq!(check_every_engine(pat, hay), want, "{pat:?} on {hay:?}");
    }
}

/// Span-bounded counts on cases that each take one branch of
/// [`CountDfa::count_between`]: the single-match rule where a second
/// match cannot fit and where one just fits, a run that must start a
/// full maximum width before the first reported end, with the widest
/// alternative not the first, and an unbounded width, where the run
/// starts at 0.
#[test]
fn span_bounded_counts_on_named_cases() {
    type Case = (&'static str, &'static [u8], (usize, usize), usize);
    let cases: &[Case] = &[
        // No second match fits: counted without a run.
        (r"union\s+select", b"union  select", (13, 13), 1),
        (r"\d\d+", b"a123b", (3, 4), 1),
        // A second match just fits: `last == first + min_width`.
        (r"ab*", b"aa", (1, 2), 2),
        (r"(a|bc)d?", b"bca", (2, 3), 2),
        // The first reported end is that of the leftmost match, which
        // starts the widest alternative's width before it.
        (r"(a|bcd)", b"bcdbcd", (3, 6), 2),
        (r"(a|bcd)", b"xbcdxa", (4, 6), 2),
        // Unbounded: the run starts at 0.
        (r"a+b", b"aab aab", (3, 7), 2),
    ];
    for &(pat, hay, ends, want) in cases {
        let pair = Pair::new(pat, false).expect("compiles");
        let mut cache = DfaCache::new();
        pair.single
            .scan_into(hay, &mut cache, &mut CandidateSet::new(1));
        assert_eq!(
            pair.single.scan_ends(&cache, 0),
            Some(ends),
            "{pat:?} on {hay:?}"
        );
        let dfa = pair.dfa.as_ref().expect("not nullable");
        assert_eq!(
            dfa.count_between(hay, ends.0, ends.1),
            want,
            "{pat:?} on {hay:?}"
        );
        assert_eq!(pair.oracle.count(hay), want, "{pat:?} on {hay:?}");
    }
}

/// A random pattern drawn from `picks`: sequences of `a`, `b`, `.`, the
/// four assertions and groups of one to three alternatives (any of
/// them possibly empty), with every quantifier on what may carry one,
/// nested three deep.
fn nested_pattern(picks: &mut std::slice::Iter<'_, u8>, depth: u32) -> String {
    const ATOMS: &[&str] = &["a", "b", ".", r"\b", r"\B", "^", "$", ""];
    const QUANTIFIERS: &[&str] = &["", "", "*", "+", "?", "*?", "+?", "{0,2}", "{1,2}?", "{2,}"];
    fn pick(picks: &mut std::slice::Iter<'_, u8>, n: usize) -> usize {
        picks.next().map_or(0, |&b| usize::from(b) % n)
    }
    let mut out = String::new();
    for _ in 0..=pick(picks, 3) {
        let atom = if depth < 3 && pick(picks, 3) == 0 {
            let branches: Vec<String> = (0..=pick(picks, 3))
                .map(|_| nested_pattern(picks, depth + 1))
                .collect();
            format!("({})", branches.join("|"))
        } else {
            ATOMS[pick(picks, ATOMS.len())].to_string()
        };
        let repeatable = atom.starts_with('(') || matches!(atom.as_str(), "a" | "b" | ".");
        out.push_str(&atom);
        if repeatable {
            out.push_str(QUANTIFIERS[pick(picks, QUANTIFIERS.len())]);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_haystacks_agree(hay in proptest::collection::vec(any::<u8>(), 0..80)) {
        for pair in fixed() {
            pair.check(&hay);
        }
    }

    #[test]
    fn sql_like_haystacks_agree(
        hay in "[ -~]{0,60}",
    ) {
        for pair in fixed() {
            pair.check(hay.as_bytes());
        }
    }

    #[test]
    fn random_simple_patterns_agree(
        pat in r"[abc01]([abc01.]|\\d|\\s){0,8}",
        hay in "[abc01 .x]{0,40}",
    ) {
        Pair::new(&pat, false).expect("compiles").check(hay.as_bytes());
    }

    #[test]
    fn random_nested_patterns_agree(
        picks in proptest::collection::vec(any::<u8>(), 0..48),
        hay in "[ab \n]{0,12}",
    ) {
        check_every_engine(&nested_pattern(&mut picks.iter(), 0), hay.as_bytes());
    }

    #[test]
    fn count_all_never_panics(
        pat_idx in 0usize..PATTERNS.len(),
        hay in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let pair = &fixed()[pat_idx];
        let _ = pair.dfa.as_ref().map(|dfa| dfa.count(&hay));
        pair.single.scan_into(&hay, &mut DfaCache::new(), &mut CandidateSet::new(1));
    }
}

mod fused {
    //! The fused lazy DFA against the oracle over the whole shipped
    //! library plus the fixed patterns: the matched pattern-id set of
    //! one fused scan must equal the set of patterns the oracle finds a
    //! match for, the scan's count of every fixed-width pattern the
    //! oracle's count, and every pattern's count bounded by the match
    //! ends the scan reported for it (single-match rule included) the
    //! oracle's count — on arbitrary bytes, on SQL-spliced bytes, and
    //! under state-cache pressure.

    use super::*;

    /// Every pattern of [`library_and_fixed`] in one automaton, id =
    /// index.
    fn build(state_limit: usize) -> FusedSet {
        let mut b = FusedSetBuilder::new().state_limit(state_limit);
        for (i, pair) in library_and_fixed().iter().enumerate() {
            let outcome = b.add(i as u32, &pair.pattern, pair.ci);
            let fused = outcome.expect("valid pattern") == crate::FuseOutcome::Fused;
            assert!(fused, "pattern {:?} must fuse", pair.pattern);
        }
        b.build().expect("non-empty")
    }

    fn check(set: &FusedSet, cache: &mut DfaCache, hay: &[u8]) {
        let mut out = CandidateSet::new(set.pattern_count());
        set.scan_into(hay, cache, &mut out);
        let got: Vec<usize> = out.iter().collect();
        let want: Vec<usize> = library_and_fixed()
            .iter()
            .enumerate()
            .filter(|(_, pair)| pair.oracle.is_match(hay))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, want, "fused vs oracle on {hay:?}");
        for (i, pair) in library_and_fixed().iter().enumerate() {
            pair.check_scan_count(set, cache, i, hay);
            pair.check_span_count(set, cache, i, hay);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn fused_set_equals_oracle_on_random_bytes(
            hay in proptest::collection::vec(any::<u8>(), 0..120),
        ) {
            static SET: OnceLock<FusedSet> = OnceLock::new();
            let set = SET.get_or_init(|| build(4096));
            check(set, &mut DfaCache::new(), &hay);
        }

        #[test]
        fn fused_set_equals_oracle_on_sql_spliced_bytes(
            parts in proptest::collection::vec((0usize..TOKENS.len() + 8, any::<u8>()), 0..60),
        ) {
            static SET: OnceLock<FusedSet> = OnceLock::new();
            let set = SET.get_or_init(|| build(4096));
            check(set, &mut DfaCache::new(), &splice(&parts));
        }

        #[test]
        fn fused_set_equals_oracle_under_eviction(
            hay in "[ -~]{0,100}",
        ) {
            // The minimum state budget forces constant flushing; the
            // result must not change.
            static SET: OnceLock<FusedSet> = OnceLock::new();
            let set = SET.get_or_init(|| build(1));
            check(set, &mut DfaCache::new(), hay.as_bytes());
        }
    }
}

mod count_dfa {
    //! The counting automaton against the oracle: `CountDfa::count`
    //! must equal the oracle's count for the shipped feature library,
    //! the fixed IDS-style patterns and random small patterns, on
    //! arbitrary bytes.

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn count_dfa_equals_oracle_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            parts in proptest::collection::vec((0usize..TOKENS.len() + 8, any::<u8>()), 0..60),
            pat in r"[abc01]([abc01.]|\\d|\\s|\\b|\+|\*\?|\||\$){0,8}",
            small in "[abc01 .x\n]{0,40}",
        ) {
            let spliced = splice(&parts);
            let library = library_and_fixed();
            // Every library and every fixed pattern determinizes (none of
            // them matches empty).
            prop_assert_eq!(library.iter().filter(|pair| pair.dfa.is_none()).count(), 0);
            for pair in library {
                pair.check_counts(&bytes);
                pair.check_counts(&spliced);
            }
            // A random pattern, where it compiles.
            for ci in [false, true] {
                let Ok(pair) = Pair::new(&pat, ci) else { continue };
                pair.check_counts(small.as_bytes());
                pair.check_counts(&spliced);
            }
        }
    }
}
