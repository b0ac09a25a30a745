//! Ruleset statistics — the data behind Table IV.

use crate::rule::Rule;

/// One row of Table IV plus the regex-length statistics quoted in
/// §III-A.
#[derive(Debug, Clone)]
pub struct RulesetStats {
    /// Ruleset name.
    pub name: String,
    /// Version label.
    pub version: String,
    /// Number of SQLi rules.
    pub rules: usize,
    /// Fraction of rules enabled by default.
    pub enabled_share: f64,
    /// Fraction of rules using regular expressions.
    pub regex_share: f64,
    /// Average regex length (chars).
    pub avg_regex_len: f64,
    /// Longest regex (chars).
    pub max_regex_len: usize,
    /// Shortest regex (chars).
    pub min_regex_len: usize,
}

/// Computes statistics for a ruleset.
pub fn compute(name: &str, version: &str, rules: &[Rule]) -> RulesetStats {
    let n = rules.len();
    let enabled = rules.iter().filter(|r| r.enabled).count();
    let regex_rules: Vec<&Rule> = rules.iter().filter(|r| r.matcher.is_regex()).collect();
    let lens: Vec<usize> = regex_rules
        .iter()
        .map(|r| r.matcher.pattern_len())
        .collect();
    RulesetStats {
        name: name.to_string(),
        version: version.to_string(),
        rules: n,
        enabled_share: if n == 0 {
            0.0
        } else {
            enabled as f64 / n as f64
        },
        regex_share: if n == 0 {
            0.0
        } else {
            regex_rules.len() as f64 / n as f64
        },
        avg_regex_len: if lens.is_empty() {
            0.0
        } else {
            lens.iter().sum::<usize>() as f64 / lens.len() as f64
        },
        max_regex_len: lens.iter().copied().max().unwrap_or(0),
        min_regex_len: lens.iter().copied().min().unwrap_or(0),
    }
}

/// All four Table IV rows for the built-in rulesets.
pub fn table_iv() -> Vec<RulesetStats> {
    vec![
        compute("Bro", "2.0", &crate::bro::bro_rules()),
        compute("Snort Rules", "2920", &crate::snort::snort_rules()),
        compute(
            "Emerging Threats",
            "7098",
            &crate::snort::et_generated_rules(),
        ),
        compute("ModSecurity", "2.2.4", &crate::modsec::modsec_rules()),
    ]
}

/// Renders Table IV as aligned text.
pub fn render_table_iv(stats: &[RulesetStats]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>8} {:>7} {:>9} {:>8} {:>9} {:>7} {:>7}\n",
        "RULES DISTRIB.", "VERSION", "# SQLi", "% ENABLED", "% REGEX", "AVG LEN", "MAX", "MIN"
    ));
    for s in stats {
        out.push_str(&format!(
            "{:<18} {:>8} {:>7} {:>8.0}% {:>7.0}% {:>9.1} {:>7} {:>7}\n",
            s.name,
            s.version,
            s.rules,
            s.enabled_share * 100.0,
            s.regex_share * 100.0,
            s.avg_regex_len,
            s.max_regex_len,
            s.min_regex_len,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_shape_matches_paper() {
        let t = table_iv();
        assert_eq!(t.len(), 4);
        let bro = &t[0];
        assert_eq!(
            (bro.rules, bro.enabled_share, bro.regex_share),
            (6, 1.0, 1.0)
        );
        let snort = &t[1];
        assert_eq!(snort.rules, 79);
        assert!((0.55..0.67).contains(&snort.enabled_share));
        let et = &t[2];
        assert_eq!(et.rules, 4231);
        assert_eq!(et.enabled_share, 0.0);
        assert!(et.regex_share > 0.985);
        let modsec = &t[3];
        assert_eq!(
            (modsec.rules, modsec.enabled_share, modsec.regex_share),
            (34, 1.0, 1.0)
        );
    }

    #[test]
    fn length_ordering_matches_paper() {
        // §III-A: ModSec (390.2) > Bro (247.7) > Snort (27.1).
        let t = table_iv();
        let bro = t[0].avg_regex_len;
        let snort = t[1].avg_regex_len;
        let modsec = t[3].avg_regex_len;
        assert!(modsec > bro, "modsec {modsec} vs bro {bro}");
        assert!(bro > snort, "bro {bro} vs snort {snort}");
    }

    #[test]
    fn render_has_five_lines() {
        let text = render_table_iv(&table_iv());
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn empty_ruleset_stats_are_zero() {
        let s = compute("empty", "0", &[]);
        assert_eq!(s.rules, 0);
        assert_eq!(s.enabled_share, 0.0);
        assert_eq!(s.avg_regex_len, 0.0);
    }
}
