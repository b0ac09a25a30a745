//! The comparison engines against a reference built from their rule
//! lists: every rule matched on its own, in rule order — regex rules by
//! the backtracking oracle (`psigene_regex::oracle`, which shares only
//! the parser with the automata), content rules by a plain substring
//! search — and the engine's own decision rule applied to the result:
//! the first match for Snort and Bro, the sum of the weights of the
//! rules matching the normalized or the comment-stripped payload for
//! ModSecurity. `evaluate` must equal the reference, rule id for rule
//! id and score for score.

mod pools;

use proptest::prelude::*;
use psigene::psigene_http::decode::percent_decode;
use psigene::psigene_http::normalize::normalize;
use psigene::psigene_http::{HttpRequest, Method};
use psigene::psigene_regex::oracle::Oracle;
use psigene::psigene_rulesets::bro::bro_rules;
use psigene::psigene_rulesets::modsec::{modsec_rules, strip_inline_comments, DEFAULT_THRESHOLD};
use psigene::psigene_rulesets::snort::{et_active_rules, snort_rules};
use psigene::psigene_rulesets::{
    BroEngine, Detection, DetectionEngine, Matcher, ModsecEngine, Rule, SnortEngine,
};
use std::sync::OnceLock;

/// One engine's rules, each regex lowered once for the oracle.
struct Reference {
    rules: Vec<(Rule, Option<Oracle>)>,
}

impl Reference {
    fn new(rules: Vec<Rule>) -> Reference {
        let rules = rules
            .into_iter()
            .map(|rule| {
                let oracle = match &rule.matcher {
                    Matcher::Regex(pattern) => Some(Oracle::new(pattern, true).expect("parses")),
                    Matcher::Content(_) => None,
                };
                (rule, oracle)
            })
            .collect();
        Reference { rules }
    }

    /// A first-match engine's verdict on `payload`.
    fn first_match(&self, payload: &[u8]) -> Detection {
        let first = self
            .rules
            .iter()
            .find(|r| hit(r, payload))
            .map(|(rule, _)| rule);
        Detection {
            flagged: first.is_some(),
            matched_rules: first.map(|rule| rule.id).into_iter().collect(),
            score: if first.is_some() { 1.0 } else { 0.0 },
        }
    }

    /// A scoring engine's verdict: a rule scores once when it matches
    /// either form.
    fn scoring(&self, payload: &[u8], stripped: &[u8], threshold: u32) -> Detection {
        let matched: Vec<&Rule> = self
            .rules
            .iter()
            .filter(|r| hit(r, payload) || hit(r, stripped))
            .map(|(rule, _)| rule)
            .collect();
        let score: u32 = matched.iter().map(|rule| rule.weight).sum();
        Detection {
            flagged: score >= threshold,
            matched_rules: matched.iter().map(|rule| rule.id).collect(),
            score: f64::from(score),
        }
    }
}

/// Whether one reference rule matches `payload`.
fn hit((rule, oracle): &(Rule, Option<Oracle>), payload: &[u8]) -> bool {
    match (&rule.matcher, oracle) {
        (Matcher::Content(strings), _) => strings.iter().all(|s| {
            payload
                .windows(s.len())
                .any(|w| w.eq_ignore_ascii_case(s.as_bytes()))
        }),
        (Matcher::Regex(_), oracle) => oracle.as_ref().expect("lowered").is_match(payload),
    }
}

/// The engines under test and their references, built once per test
/// binary so the engines' caches stay warm across cases.
struct Engines {
    snort: (SnortEngine, Reference),
    bro: (BroEngine, Reference),
    modsec: (ModsecEngine, Reference),
}

fn engines() -> &'static Engines {
    static ENGINES: OnceLock<Engines> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let mut snort = snort_rules();
        snort.extend(et_active_rules());
        snort.retain(|rule| rule.enabled);
        Engines {
            snort: (SnortEngine::new(), Reference::new(snort)),
            bro: (BroEngine::new(), Reference::new(bro_rules())),
            modsec: (ModsecEngine::new(), Reference::new(modsec_rules())),
        }
    })
}

/// Holds all three engines to their references on `request`.
fn assert_engines_are_the_reference(request: &HttpRequest) {
    let e = engines();
    let decoded = percent_decode(request.detection_payload());
    let normalized = normalize(request.detection_payload());
    let cases = [
        (
            &e.snort.0 as &dyn DetectionEngine,
            e.snort.1.first_match(&decoded),
        ),
        (&e.bro.0, e.bro.1.first_match(&decoded)),
        (
            &e.modsec.0,
            e.modsec.1.scoring(
                &normalized,
                &strip_inline_comments(&normalized),
                DEFAULT_THRESHOLD,
            ),
        ),
    ];
    for (engine, want) in cases {
        let got = engine.evaluate(request);
        assert!(
            got.flagged == want.flagged
                && got.matched_rules == want.matched_rules
                && got.score.to_bits() == want.score.to_bits(),
            "{} on {:?}: {got:?}, reference {want:?}",
            engine.name(),
            String::from_utf8_lossy(request.detection_payload())
        );
    }
}

/// Fragments of the rules' vocabulary spliced between random bytes, so
/// payloads match several rules at once, in both encodings and around
/// inline comments.
const TOKENS: &[&str] = &[
    "union",
    "UNION",
    "select",
    "all",
    "from",
    "where",
    "or",
    "and",
    "1=1",
    "'1'='1",
    "sleep(",
    "benchmark(",
    "char(",
    "concat(",
    "0x7e",
    "extractvalue(1,",
    "information_schema.",
    "drop",
    "table",
    "into outfile '",
    "waitfor delay '",
    "if(",
    "order by",
    "--",
    "#",
    ";",
    "'",
    "\"",
    "(",
    ")",
    ",",
    "=",
    "+",
    " ",
    "/*",
    "*/",
    "/**/",
    "%20",
    "%27",
    "%2f%2a",
    "&",
    "?id=",
    "1",
    "@@version",
    "null",
    "||",
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

fn request(query: &[u8]) -> HttpRequest {
    HttpRequest::from_parts(Method::Get, b"/p", query, b"h", b"")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engines_are_the_reference_on_arbitrary_bytes(
        query in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        assert_engines_are_the_reference(&request(&query));
    }

    #[test]
    fn engines_are_the_reference_on_sql_spliced_bytes(
        parts in proptest::collection::vec((0usize..TOKENS.len() + 8, any::<u8>()), 0..40),
    ) {
        assert_engines_are_the_reference(&request(&splice(&parts)));
    }
}

/// The benchmark's generator pools, as in `extraction_oracle`.
/// Release-only in practice: `scripts/ci.sh` runs it with
/// `cargo test --release … -- --ignored`.
#[test]
#[ignore]
fn engines_are_the_reference_on_benchmark_sized_pools() {
    std::thread::scope(|scope| {
        for seed in [1, 7] {
            scope.spawn(move || {
                for (_, requests) in pools::pools(20_000, seed) {
                    requests.iter().for_each(assert_engines_are_the_reference);
                }
            });
        }
    });
}
