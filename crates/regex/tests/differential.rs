//! Differential tests: our engine vs. the `regex` crate (dev-only
//! oracle). The `regex` crate uses leftmost-first semantics like ours,
//! so `find` spans must agree on the supported pattern subset.

use proptest::prelude::*;
use psigene_regex::Regex as OurRegex;
use regex::bytes::RegexBuilder as OracleBuilder;

fn oracle(pat: &str, ci: bool) -> regex::bytes::Regex {
    OracleBuilder::new(pat)
        .unicode(false)
        .case_insensitive(ci)
        .build()
        .expect("oracle compile")
}

fn ours(pat: &str, ci: bool) -> OurRegex {
    OurRegex::builder()
        .case_insensitive(ci)
        .build(pat)
        .expect("our compile")
}

fn check_agreement(pat: &str, ci: bool, hay: &[u8]) {
    let a = ours(pat, ci);
    let b = oracle(pat, ci);
    let am = a.find(hay).map(|m| (m.start(), m.end()));
    let bm = b.find(hay).map(|m| (m.start(), m.end()));
    assert_eq!(am, bm, "pattern {pat:?} (ci={ci}) on {hay:?}");
    let ac: Vec<_> = a.find_iter(hay).map(|m| (m.start(), m.end())).collect();
    let bc: Vec<_> = b.find_iter(hay).map(|m| (m.start(), m.end())).collect();
    assert_eq!(ac, bc, "find_iter for {pat:?} (ci={ci}) on {hay:?}");
}

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
    for pat in PATTERNS {
        for hay in hays {
            check_agreement(pat, false, hay);
            check_agreement(pat, true, hay);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_haystacks_agree(hay in proptest::collection::vec(any::<u8>(), 0..80)) {
        for pat in PATTERNS {
            check_agreement(pat, false, &hay);
            check_agreement(pat, true, &hay);
        }
    }

    #[test]
    fn sql_like_haystacks_agree(
        hay in "[ -~]{0,60}",
    ) {
        for pat in PATTERNS {
            check_agreement(pat, false, hay.as_bytes());
            check_agreement(pat, true, hay.as_bytes());
        }
    }

    #[test]
    fn random_simple_patterns_agree(
        pat in r"[abc01]([abc01.]|\\d|\\s){0,8}",
        hay in "[abc01 .x]{0,40}",
    ) {
        // Only test when both engines accept the pattern.
        let ours_re = OurRegex::new(&pat);
        let oracle_re = OracleBuilder::new(&pat).unicode(false).build();
        if let (Ok(a), Ok(b)) = (ours_re, oracle_re) {
            let am = a.find(hay.as_bytes()).map(|m| (m.start(), m.end()));
            let bm = b.find(hay.as_bytes()).map(|m| (m.start(), m.end()));
            prop_assert_eq!(am, bm, "pattern {:?} on {:?}", pat, hay);
        }
    }

    #[test]
    fn count_all_never_panics(
        pat_idx in 0usize..PATTERNS.len(),
        hay in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let re = ours(PATTERNS[pat_idx], true);
        let _ = re.count_all(&hay);
    }
}

mod fused {
    //! The fused lazy DFA vs. the `regex` crate oracle: the matched
    //! pattern-id set of one fused scan must equal the set of
    //! patterns whose individual `is_match` succeeds — on arbitrary
    //! bytes, with and without state-cache pressure.

    use super::{oracle, PATTERNS};
    use proptest::prelude::*;
    use psigene_regex::{CandidateSet, DfaCache, FuseOutcome, FusedSet, FusedSetBuilder};

    fn build_fused(ci: bool, state_limit: Option<usize>) -> (FusedSet, Vec<regex::bytes::Regex>) {
        let mut b = FusedSetBuilder::new();
        if let Some(limit) = state_limit {
            b = b.state_limit(limit);
        }
        let mut oracles = Vec::new();
        for (i, pat) in PATTERNS.iter().enumerate() {
            assert_eq!(
                b.add(i as u32, pat, ci).expect("valid pattern"),
                FuseOutcome::Fused,
                "differential pattern {pat:?} must fuse"
            );
            oracles.push(oracle(pat, ci));
        }
        (b.build().expect("non-empty"), oracles)
    }

    fn check(set: &FusedSet, oracles: &[regex::bytes::Regex], cache: &mut DfaCache, hay: &[u8]) {
        let mut out = CandidateSet::new(set.pattern_count());
        set.scan_into(hay, cache, &mut out);
        let got: Vec<usize> = out.iter().collect();
        let want: Vec<usize> = oracles
            .iter()
            .enumerate()
            .filter(|(_, re)| re.is_match(hay))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, want, "fused vs oracle on {hay:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fused_set_equals_oracle_on_random_bytes(
            hay in proptest::collection::vec(any::<u8>(), 0..120),
        ) {
            for ci in [false, true] {
                let (set, oracles) = build_fused(ci, None);
                let mut cache = DfaCache::new();
                check(&set, &oracles, &mut cache, &hay);
            }
        }

        #[test]
        fn fused_set_equals_oracle_under_eviction(
            hay in "[ -~]{0,100}",
        ) {
            // The minimum state budget forces constant flushing; the
            // result must not change.
            let (set, oracles) = build_fused(true, Some(1));
            let mut cache = DfaCache::new();
            check(&set, &oracles, &mut cache, hay.as_bytes());
        }
    }
}

mod count_dfa {
    //! The counting automaton vs. the Pike VM it replaces on the
    //! request path: `CountDfa::count` must equal `Regex::count_all`
    //! for every pattern that determinizes — the shipped feature
    //! library, the fixed IDS-style patterns above and random small
    //! patterns — on arbitrary bytes.

    use super::{ours, PATTERNS};
    use proptest::prelude::*;
    use psigene_regex::{CountDfa, Regex};
    use std::sync::OnceLock;

    /// SQL-ish fragments spliced between random bytes, so haystacks
    /// reach the match, override and restart paths and not only the
    /// idle hop.
    const TOKENS: &[&str] = &[
        "select", "UNION", "from", "null", "all", "or", "and", "char", "sleep", "like", " ", "  ",
        "\n", "/*", "*/", "--", ";", ",", "'", "\"", "(", ")", "=", "+", "1", "0x3a", "_", "a",
        "#", "%", "@@", "||", "<", ">",
    ];

    /// Every library and fixed pattern (compiled the way features are:
    /// case-insensitive) with its automaton, built once.
    fn fixed_patterns() -> &'static [(Regex, CountDfa)] {
        static BUILT: OnceLock<Vec<(Regex, CountDfa)>> = OnceLock::new();
        BUILT.get_or_init(|| {
            let library = psigene_features::FeatureSet::full();
            let built: Vec<(Regex, CountDfa)> = library
                .features()
                .iter()
                .map(|f| f.regex().clone())
                .chain(PATTERNS.iter().map(|pat| ours(pat, true)))
                .chain(PATTERNS.iter().map(|pat| ours(pat, false)))
                .filter_map(|re| CountDfa::new(&re).map(|dfa| (re, dfa)))
                .collect();
            // All of the library but one pattern, and every fixed
            // pattern (none of them matches empty).
            assert!(built.len() + 1 >= library.len() + 2 * PATTERNS.len());
            built
        })
    }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn count_dfa_equals_pike_vm_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            parts in proptest::collection::vec((0usize..TOKENS.len() + 8, any::<u8>()), 0..60),
            pat in r"[abc01]([abc01.]|\\d|\\s|\\b|\+|\*\?|\||\$){0,8}",
            small in "[abc01 .x\n]{0,40}",
        ) {
            let spliced = splice(&parts);
            for (re, dfa) in fixed_patterns() {
                for hay in [&bytes, &spliced] {
                    prop_assert_eq!(
                        dfa.count(hay),
                        re.count_all(hay),
                        "pattern {:?} on {:?}", re.pattern(), hay
                    );
                }
            }
            // A random pattern, where it compiles and determinizes.
            for ci in [false, true] {
                let Ok(re) = Regex::builder().case_insensitive(ci).build(&pat) else { continue };
                let Some(dfa) = CountDfa::new(&re) else { continue };
                for hay in [small.as_bytes(), &spliced] {
                    prop_assert_eq!(
                        dfa.count(hay),
                        re.count_all(hay),
                        "pattern {:?} (ci={}) on {:?}", pat, ci, hay
                    );
                }
            }
        }
    }
}
