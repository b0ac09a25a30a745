//! Rules and rule matchers shared by all engine styles.

use psigene_regex::{Regex, RegexBuilder};

/// Rule severity, used for reporting and for ModSec-style scoring
/// defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Informational.
    Notice,
    /// Suspicious.
    Warning,
    /// Almost certainly an attack.
    Critical,
}

/// How a rule inspects the payload.
#[derive(Debug, Clone)]
pub enum Matcher {
    /// A compiled regular expression.
    Regex(Box<Regex>),
    /// Plain content strings that must *all* occur (Snort `content:`
    /// options without a `pcre:`).
    Content(Vec<String>),
}

impl Matcher {
    /// True when the matcher uses a regular expression.
    pub fn is_regex(&self) -> bool {
        matches!(self, Matcher::Regex(_))
    }

    /// Pattern length in characters (regex text or summed content
    /// lengths), for Table IV's length statistics.
    pub fn pattern_len(&self) -> usize {
        match self {
            Matcher::Regex(re) => re.pattern().chars().count(),
            Matcher::Content(cs) => cs.iter().map(|c| c.chars().count()).sum(),
        }
    }

    fn matches(&self, payload: &[u8]) -> bool {
        match self {
            Matcher::Regex(re) => re.is_match(payload),
            Matcher::Content(cs) => cs.iter().all(|c| {
                // Snort content matches are case-insensitive here
                // (`nocase` is near-universal on SQLi rules).
                contains_ci(payload, c.as_bytes())
            }),
        }
    }
}

fn contains_ci(hay: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    if needle.len() > hay.len() {
        return false;
    }
    hay.windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle))
}

/// One detection rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Numeric rule id (SID-style).
    pub id: u32,
    /// Human-readable message.
    pub name: String,
    /// Whether the rule ships enabled.
    pub enabled: bool,
    /// Severity.
    pub severity: Severity,
    /// Anomaly points contributed on match (ModSec-style engines).
    pub weight: u32,
    /// The matcher.
    pub matcher: Matcher,
}

impl Rule {
    /// Builds a regex rule (case-insensitive).
    ///
    /// # Panics
    /// Panics when the pattern fails to compile — rulesets are static
    /// program data, so a bad pattern is a programming error.
    pub fn regex(id: u32, name: &str, pattern: &str, severity: Severity, enabled: bool) -> Rule {
        let re = RegexBuilder::new()
            .case_insensitive(true)
            .build(pattern)
            .unwrap_or_else(|e| panic!("rule {id} pattern {pattern:?}: {e}"));
        Rule {
            id,
            name: name.to_string(),
            enabled,
            severity,
            weight: match severity {
                Severity::Notice => 2,
                Severity::Warning => 3,
                Severity::Critical => 5,
            },
            matcher: Matcher::Regex(Box::new(re)),
        }
    }

    /// Builds a content-only rule.
    pub fn content(
        id: u32,
        name: &str,
        contents: &[&str],
        severity: Severity,
        enabled: bool,
    ) -> Rule {
        Rule {
            id,
            name: name.to_string(),
            enabled,
            severity,
            weight: match severity {
                Severity::Notice => 2,
                Severity::Warning => 3,
                Severity::Critical => 5,
            },
            matcher: Matcher::Content(contents.iter().map(|s| s.to_string()).collect()),
        }
    }

    /// Evaluates the rule against a preprocessed payload.
    pub fn matches(&self, payload: &[u8]) -> bool {
        self.matcher.matches(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regex_rule_matching() {
        let r = Rule::regex(
            1,
            "union select",
            r"union\s+select",
            Severity::Critical,
            true,
        );
        assert!(r.matches(b"1 UNION SELECT 2"));
        assert!(!r.matches(b"benign"));
        assert!(r.matcher.is_regex());
    }

    #[test]
    fn content_rule_requires_all_strings() {
        let r = Rule::content(2, "drop", &["drop", "table"], Severity::Critical, true);
        assert!(r.matches(b"1; DROP TABLE users"));
        assert!(!r.matches(b"drop it"));
        assert!(!r.matcher.is_regex());
    }

    #[test]
    fn pattern_len_counts_chars() {
        let r = Rule::regex(3, "x", "abc", Severity::Notice, true);
        assert_eq!(r.matcher.pattern_len(), 3);
        let c = Rule::content(4, "y", &["ab", "cd"], Severity::Notice, true);
        assert_eq!(c.matcher.pattern_len(), 4);
    }

    #[test]
    fn weights_follow_severity() {
        assert_eq!(Rule::regex(5, "n", "a", Severity::Notice, true).weight, 2);
        assert_eq!(Rule::regex(6, "w", "a", Severity::Warning, true).weight, 3);
        assert_eq!(Rule::regex(7, "c", "a", Severity::Critical, true).weight, 5);
    }

    #[test]
    #[should_panic(expected = "pattern")]
    fn bad_pattern_panics() {
        let _ = Rule::regex(8, "bad", "(", Severity::Notice, true);
    }
}
