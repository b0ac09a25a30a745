//! Rules, and the automata an engine compiles its rules into.
//!
//! A [`Rule`] is data: its regex is pattern text, which Table IV's
//! statistics read and which compiles only when an engine is built.
//! An engine compiles its rules into `CompiledRules`: one fused
//! automaton ([`psigene_regex::FusedSet`]) over every regex rule the
//! fuser accepts, plus a set of its own for each rule it refuses, with
//! the rule's index as pattern id. One scan per set and payload then
//! reports exactly which regex rules match.

use psigene_regex::{CandidateSet, DfaCache, Error, FuseOutcome, FusedSet, FusedSetBuilder};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
    /// A regular expression, matched case-insensitively.
    Regex(String),
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
            Matcher::Regex(pattern) => pattern.chars().count(),
            Matcher::Content(cs) => cs.iter().map(|c| c.chars().count()).sum(),
        }
    }

    /// Whether a content matcher finds all its strings in `payload`;
    /// false for a regex matcher, which only [`CompiledRules`] runs.
    fn content_matches(&self, payload: &[u8]) -> bool {
        match self {
            Matcher::Regex(_) => false,
            // Snort content matches are case-insensitive here
            // (`nocase` is near-universal on SQLi rules).
            Matcher::Content(cs) => cs.iter().all(|c| contains_ci(payload, c.as_bytes())),
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
    /// Builds a regex rule (case-insensitive). The pattern compiles
    /// when an engine is built.
    pub fn regex(id: u32, name: &str, pattern: &str, severity: Severity, enabled: bool) -> Rule {
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
            matcher: Matcher::Regex(pattern.to_string()),
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
}

/// An engine's rules with their regexes compiled; see the module docs.
#[derive(Debug)]
pub(crate) struct CompiledRules {
    rules: Vec<Rule>,
    /// The fused automaton first (when any rule fused), then one set
    /// per refused rule.
    sets: Vec<FusedSet>,
    /// Warm lazy-DFA caches, one per set in each bundle. An evaluation
    /// takes a bundle and puts it back, so every thread evaluating at
    /// once has its own, and no other engine's scan rebinds them.
    caches: Mutex<Vec<Vec<DfaCache>>>,
}

impl CompiledRules {
    /// Compiles the regex rules of `rules`.
    ///
    /// # Panics
    /// Panics when a pattern fails to compile — rulesets are static
    /// program data, so a bad pattern is a programming error.
    pub(crate) fn new(rules: Vec<Rule>) -> CompiledRules {
        let mut fuser = FusedSetBuilder::new();
        let mut singles = Vec::new();
        for (index, rule) in rules.iter().enumerate() {
            let Matcher::Regex(pattern) = &rule.matcher else {
                continue;
            };
            let pid = index as u32;
            let outcome = fuser.add(pid, pattern, true);
            if outcome.unwrap_or_else(|e| bad_pattern(rule.id, pattern, e)) != FuseOutcome::Fused {
                let single = FusedSet::single(pid, pattern, true);
                singles.push(single.unwrap_or_else(|e| bad_pattern(rule.id, pattern, e)));
            }
        }
        CompiledRules {
            rules,
            sets: fuser.build().into_iter().chain(singles).collect(),
            caches: Mutex::default(),
        }
    }

    /// Warms one cache bundle: one scan per set over [`WARM_UP`], so
    /// the first request served does not determinize the transitions
    /// every SQL injection takes. Idempotent: the bundle goes back to
    /// the pool, and a second call finds it warm.
    pub(crate) fn prepare(&self) {
        self.scan(&[WARM_UP]);
    }

    /// The rules, in order.
    pub(crate) fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The first rule, in rule order, matching `payload`.
    pub(crate) fn first_match(&self, payload: &[u8]) -> Option<&Rule> {
        let first_regex = self.scan(&[payload]).iter().next();
        let before = first_regex.unwrap_or(self.rules.len());
        let first_content = self.rules[..before]
            .iter()
            .position(|rule| rule.matcher.content_matches(payload));
        first_content
            .or(first_regex)
            .map(|index| &self.rules[index])
    }

    /// Every rule matching at least one of `payloads`, in rule order.
    pub(crate) fn all_matches(&self, payloads: &[&[u8]]) -> Vec<&Rule> {
        let mut hits = self.scan(payloads);
        for (index, rule) in self.rules.iter().enumerate() {
            if payloads.iter().any(|p| rule.matcher.content_matches(p)) {
                hits.insert(index);
            }
        }
        hits.iter().map(|index| &self.rules[index]).collect()
    }

    /// The indices of the regex rules matching at least one of
    /// `payloads`.
    fn scan(&self, payloads: &[&[u8]]) -> CandidateSet {
        let mut caches = lock(&self.caches)
            .pop()
            .unwrap_or_else(|| self.sets.iter().map(|_| DfaCache::new()).collect());
        let mut hits = CandidateSet::new(self.rules.len());
        for (set, cache) in self.sets.iter().zip(&mut caches) {
            for payload in payloads {
                set.scan_into(payload, cache, &mut hits);
            }
        }
        lock(&self.caches).push(caches);
        hits
    }
}

/// What [`CompiledRules::prepare`] scans: SQL injection shapes in both
/// cases, as the rulesets see them after percent-decoding (Snort, Bro)
/// and after normalization (ModSecurity).
const WARM_UP: &[u8] = b"id=1' AND 1=1 UNION ALL SELECT NULL,CONCAT(0x3a,VERSION()),CHAR(58)-- -\
    &q=x' or 'a'='a' union select 1,2 from information_schema.tables where sleep(5)#\
    &r=1;drop table users/**/waitfor delay '0:0:5' order by 1 benchmark(1000,md5(1))";

/// The panic of [`CompiledRules::new`] for a pattern that does not
/// compile.
fn bad_pattern(id: u32, pattern: &str, e: Error) -> ! {
    panic!("rule {id} pattern {pattern:?}: {e}")
}

/// Locks the cache pool. It is held only to pop or push a bundle, and a
/// bundle a panicking scan took is dropped with it, so a poisoned lock
/// still guards valid caches and is taken as is.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bro, modsec, snort, BroEngine, DetectionEngine, ModsecEngine, SnortEngine};

    /// The ids of `rules` matching `payload`: the first, and all.
    fn hits(rules: &CompiledRules, payload: &[u8]) -> (Option<u32>, Vec<u32>) {
        let first = rules.first_match(payload).map(|r| r.id);
        let all = rules.all_matches(&[payload]).iter().map(|r| r.id).collect();
        (first, all)
    }

    #[test]
    fn regex_rule_matching() {
        let r = Rule::regex(
            1,
            "union select",
            r"union\s+select",
            Severity::Critical,
            true,
        );
        assert!(r.matcher.is_regex());
        let rules = CompiledRules::new(vec![r]);
        assert_eq!(hits(&rules, b"1 UNION SELECT 2"), (Some(1), vec![1]));
        assert_eq!(hits(&rules, b"benign"), (None, vec![]));
    }

    #[test]
    fn content_rule_requires_all_strings() {
        let r = Rule::content(2, "drop", &["drop", "table"], Severity::Critical, true);
        assert!(!r.matcher.is_regex());
        let rules = CompiledRules::new(vec![r]);
        assert_eq!(hits(&rules, b"1; DROP TABLE users"), (Some(2), vec![2]));
        assert_eq!(hits(&rules, b"drop it"), (None, vec![]));
    }

    #[test]
    fn the_first_match_is_the_lowest_index_of_either_kind() {
        let rules = CompiledRules::new(vec![
            Rule::regex(1, "or", r"\bor\b", Severity::Notice, true),
            Rule::content(2, "drop", &["drop"], Severity::Notice, true),
            Rule::regex(3, "sleep", r"sleep\s*\(", Severity::Notice, true),
            Rule::regex(4, "or again", r"\bor\b", Severity::Notice, true),
        ]);
        assert_eq!(hits(&rules, b"drop or"), (Some(1), vec![1, 2, 4]));
        assert_eq!(hits(&rules, b"sleep(1) drop"), (Some(2), vec![2, 3]));
        assert_eq!(hits(&rules, b"SLEEP (1)"), (Some(3), vec![3]));
        // A rule matches when it matches any of the payloads.
        let both = rules.all_matches(&[b"drop", b"sleep("]);
        assert_eq!(both.iter().map(|r| r.id).collect::<Vec<_>>(), [2, 3]);
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
        // A rule is data; its pattern compiles with the engine.
        let rule = Rule::regex(8, "bad", "(", Severity::Notice, true);
        let _ = CompiledRules::new(vec![rule]);
    }

    /// An engine's `prepare` leaves one cache bundle in the pool, warm
    /// for the warm-up payload, however often it is called.
    #[test]
    fn prepare_leaves_one_warm_bundle() {
        let (snort, bro, modsec) = (SnortEngine::new(), BroEngine::new(), ModsecEngine::new());
        let engines: [(&dyn DetectionEngine, &CompiledRules); 3] = [
            (&snort, &snort.rules),
            (&bro, &bro.rules),
            (&modsec, &modsec.rules),
        ];
        for (engine, rules) in engines {
            engine.prepare();
            engine.prepare();
            let mut pool = lock(&rules.caches);
            assert_eq!(pool.len(), 1, "{}", engine.name());
            for (set, cache) in rules.sets.iter().zip(&mut pool[0]) {
                let mut hits = CandidateSet::new(rules.rules().len());
                let stats = set.scan_into(WARM_UP, cache, &mut hits);
                assert_eq!(stats.misses, 0, "{}", engine.name());
            }
        }
    }

    /// Patterns per set: the fused automaton first, then the sets of
    /// one.
    fn set_sizes(rules: &CompiledRules) -> Vec<usize> {
        rules.sets.iter().map(FusedSet::pattern_count).collect()
    }

    /// Every regex rule of every ruleset compiles, and an engine's sets
    /// cover its enabled regex rules: all of them in the fused
    /// automaton but the three ModSecurity rules the fuser refuses,
    /// which get a set each. The ET tail only Table IV reads fuses in
    /// full too.
    #[test]
    fn every_engine_scans_all_its_regex_rules() {
        let regex_rules = |rules: &CompiledRules| {
            rules
                .rules()
                .iter()
                .filter(|r| r.matcher.is_regex())
                .count()
        };
        let snort = SnortEngine::new().rules;
        assert_eq!(regex_rules(&snort), 156);
        assert_eq!(set_sizes(&snort), [156]);
        let bro = BroEngine::new().rules;
        assert_eq!(set_sizes(&bro), [6]);
        assert_eq!(regex_rules(&bro), 6);
        let modsec = ModsecEngine::new().rules;
        assert_eq!(regex_rules(&modsec), 34);
        assert_eq!(set_sizes(&modsec), [31, 1, 1, 1]);
        let refused: Vec<u32> = modsec.sets[1..]
            .iter()
            .map(|set| {
                let mut hits = CandidateSet::new(modsec.rules().len());
                // Every refused rule matches this payload.
                let hay = b"select a from t where sleep(5) and char(97)";
                set.scan_into(hay, &mut DfaCache::new(), &mut hits);
                let index = hits.iter().next().expect("the rule matches");
                modsec.rules()[index].id
            })
            .collect();
        assert_eq!(refused, [981232, 981237, 981300]);
        let generated = CompiledRules::new(snort::et_generated_rules());
        assert_eq!(regex_rules(&generated), 4202);
        assert_eq!(set_sizes(&generated), [4202]);
        // The rule lists the engines are built from compile as a whole,
        // disabled rules included.
        for rules in [
            snort::snort_rules(),
            bro::bro_rules(),
            modsec::modsec_rules(),
        ] {
            let regex = rules.iter().filter(|r| r.matcher.is_regex()).count();
            let compiled = CompiledRules::new(rules);
            assert_eq!(set_sizes(&compiled).iter().sum::<usize>(), regex);
        }
    }
}
