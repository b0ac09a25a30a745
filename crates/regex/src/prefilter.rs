//! Mandatory-literal prefilter.
//!
//! IDS workloads run hundreds of patterns over every request, and the
//! overwhelming majority of requests match none of them. Before
//! dispatching to the VM we extract, from the AST, a small set of
//! literals such that *every* match must contain at least one of them.
//! If none of the literals occurs in the haystack (ASCII
//! case-insensitively), the VM run is skipped entirely.

use crate::ast::Ast;

/// Maximum number of alternative literals before we give up on
/// prefiltering. Large sets (IDS keyword-inventory rules can require
/// one of hundreds of function names) switch to a bucketed
/// first-byte matcher, so the ceiling is generous.
const MAX_LITERALS: usize = 400;

/// Literal-set size above which the bucketed matcher is used instead
/// of the linear scan.
const BUCKETED_THRESHOLD: usize = 8;

/// A disjunction of required literals: a haystack that contains none
/// of them cannot match the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prefilter {
    /// Literals stored lowercased; matching is ASCII case-insensitive,
    /// which is sound for both case-sensitive and case-insensitive
    /// patterns (the prefilter is allowed false positives, never false
    /// negatives).
    literals: Vec<Vec<u8>>,
    /// For large sets: literal indices bucketed by first byte, so one
    /// pass over the haystack checks only the candidates that can
    /// start at each position (a poor man's Aho–Corasick).
    buckets: Option<Box<[Vec<u32>; 256]>>,
    /// Prefix skipper, when every match must *begin* with a known
    /// literal.
    prefixes: Option<PrefixSkip>,
}

/// Start-anchored literal requirement: every match of the pattern
/// begins (byte-wise, ASCII case-insensitively) with one of `lits`.
/// The VM uses it to jump between candidate start positions instead of
/// seeding a doomed root thread at every byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixSkip {
    /// Candidate prefixes, lowercased, all non-empty.
    lits: Vec<Vec<u8>>,
    /// `first[b]` is true when some prefix starts with byte `b` (both
    /// cases), so the scan loop is a table lookup per byte.
    first: Box<[bool; 256]>,
}

impl PrefixSkip {
    fn new(lits: Vec<Vec<u8>>) -> PrefixSkip {
        let mut first = Box::new([false; 256]);
        for lit in &lits {
            first[lit[0] as usize] = true;
            first[lit[0].to_ascii_uppercase() as usize] = true;
        }
        PrefixSkip { lits, first }
    }

    /// The earliest position `q >= start` where a match could begin
    /// (i.e. some prefix literal occurs at `q`), or `None` when no
    /// match can start anywhere in `hay[start..]`.
    pub fn next_match_start(&self, hay: &[u8], start: usize) -> Option<usize> {
        let mut q = start;
        while q < hay.len() {
            if self.first[hay[q] as usize] {
                let rest = &hay[q..];
                for lit in &self.lits {
                    if lit.len() <= rest.len() && rest[..lit.len()].eq_ignore_ascii_case(lit) {
                        return Some(q);
                    }
                }
            }
            q += 1;
        }
        None
    }
}

impl Prefilter {
    /// Attempts to derive a prefilter from `ast`. Returns `None` when
    /// no useful literal requirement exists (the VM must always run).
    pub fn from_ast(ast: &Ast) -> Option<Prefilter> {
        let lits = required_literals(ast)?;
        // A prefilter of very short literals (all length 1) still pays
        // off versus a VM run, so accept any non-empty requirement.
        if lits.is_empty() || lits.len() > MAX_LITERALS {
            return None;
        }
        let buckets = if lits.len() > BUCKETED_THRESHOLD {
            // Literals are lowercased, but the haystack is not:
            // bucket each literal under *both* cases of its first
            // byte so the scan loop indexes with the raw haystack
            // byte instead of case-folding every position.
            let mut b: Box<[Vec<u32>; 256]> = Box::new(std::array::from_fn(|_| Vec::new()));
            for (i, lit) in lits.iter().enumerate() {
                b[lit[0] as usize].push(i as u32);
                let up = lit[0].to_ascii_uppercase();
                if up != lit[0] {
                    b[up as usize].push(i as u32);
                }
            }
            Some(b)
        } else {
            None
        };
        let prefixes = prefix_literals(ast)
            .filter(|p| !p.is_empty() && p.len() <= MAX_LITERALS)
            .map(PrefixSkip::new);
        Some(Prefilter {
            literals: lits,
            buckets,
            prefixes,
        })
    }

    /// The start-anchored skipper, when every match must begin with a
    /// known literal.
    pub fn prefix_skip(&self) -> Option<&PrefixSkip> {
        self.prefixes.as_ref()
    }

    /// True when the haystack may match the pattern (i.e. it contains
    /// at least one required literal).
    pub fn maybe_matches(&self, hay: &[u8]) -> bool {
        match &self.buckets {
            None => self.literals.iter().any(|lit| contains_ascii_ci(hay, lit)),
            Some(buckets) => {
                for (i, &b) in hay.iter().enumerate() {
                    let rest = &hay[i..];
                    // Buckets carry both cases of each first byte, so
                    // the raw byte indexes directly (no per-byte fold).
                    for &li in buckets[b as usize].iter() {
                        let lit = &self.literals[li as usize];
                        if lit.len() <= rest.len() && rest[..lit.len()].eq_ignore_ascii_case(lit) {
                            return true;
                        }
                    }
                }
                false
            }
        }
    }
}

/// ASCII case-insensitive substring search; `needle` must already be
/// lowercase.
///
/// The hot loop skips on the first byte (both cases precomputed once,
/// not folded per haystack byte) and confirms the second byte before
/// paying for a full comparison — the same start-byte discipline the
/// bucketed matcher uses.
fn contains_ascii_ci(hay: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    if needle.len() > hay.len() {
        return false;
    }
    let first = needle[0];
    let first_up = first.to_ascii_uppercase();
    let end = hay.len() - needle.len();
    let mut i = 0;
    while i <= end {
        let Some(off) = hay[i..=end]
            .iter()
            .position(|&b| b == first || b == first_up)
        else {
            return false;
        };
        let at = i + off;
        if needle.len() == 1
            || (hay[at + 1].eq_ignore_ascii_case(&needle[1])
                && hay[at + 2..at + needle.len()].eq_ignore_ascii_case(&needle[2..]))
        {
            return true;
        }
        i = at + 1;
    }
    false
}

/// Computes the required-literal disjunction for `ast`, or `None` if
/// no requirement can be derived.
fn required_literals(ast: &Ast) -> Option<Vec<Vec<u8>>> {
    match ast {
        Ast::Empty
        | Ast::StartText
        | Ast::EndText
        | Ast::WordBoundary
        | Ast::NotWordBoundary
        | Ast::Dot { .. } => None,
        Ast::Literal(b) => Some(vec![vec![b.to_ascii_lowercase()]]),
        Ast::Class(set) => {
            // A class that is a single byte — or the case-folded pair
            // of one ASCII letter — acts as a literal byte.
            literal_byte_of_class(set).map(|b| vec![vec![b]])
        }
        Ast::Group(inner) => required_literals(inner),
        Ast::Repeat { ast, min, .. } => {
            if *min >= 1 {
                required_literals(ast)
            } else {
                None
            }
        }
        Ast::Alternate(branches) => {
            let mut all = Vec::new();
            for b in branches {
                let mut lits = required_literals(b)?;
                all.append(&mut lits);
                if all.len() > MAX_LITERALS {
                    return None;
                }
            }
            Some(all)
        }
        Ast::Concat(parts) => {
            // Best candidate: the longest contiguous literal run, or
            // any single part's own requirement — whichever has the
            // longest shortest-literal.
            let mut best: Option<Vec<Vec<u8>>> = None;
            let mut run: Vec<u8> = Vec::new();
            let consider = |cand: Vec<Vec<u8>>, best: &mut Option<Vec<Vec<u8>>>| {
                let cand_min = cand.iter().map(Vec::len).min().unwrap_or(0);
                let best_min = best
                    .as_ref()
                    .map(|b| b.iter().map(Vec::len).min().unwrap_or(0))
                    .unwrap_or(0);
                // Prefer longer literals; break ties toward fewer
                // alternatives.
                let better = cand_min > best_min
                    || (cand_min == best_min
                        && best.as_ref().map(|b| cand.len() < b.len()).unwrap_or(true));
                if better && cand_min > 0 {
                    *best = Some(cand);
                }
            };
            for part in parts {
                let lit = match part {
                    Ast::Literal(b) => Some(b.to_ascii_lowercase()),
                    Ast::Class(set) => literal_byte_of_class(set),
                    Ast::Group(inner) => match inner.as_ref() {
                        Ast::Literal(b) => Some(b.to_ascii_lowercase()),
                        _ => None,
                    },
                    _ => None,
                };
                match lit {
                    Some(b) => run.push(b),
                    None => {
                        if !run.is_empty() {
                            consider(vec![std::mem::take(&mut run)], &mut best);
                        }
                        // Non-literal parts may still carry their own
                        // requirement (e.g. a group of alternations).
                        if let Some(sub) = required_literals(part) {
                            consider(sub, &mut best);
                        }
                    }
                }
            }
            if !run.is_empty() {
                consider(vec![run], &mut best);
            }
            best
        }
    }
}

/// Longest fixed prefix run worth accumulating; longer prefixes add
/// verification cost without improving skip precision.
const MAX_PREFIX_LEN: usize = 16;

/// Computes the start-anchored literal disjunction: a set `P` such
/// that every match of `ast` is non-empty and begins (ASCII
/// case-insensitively) with some element of `P`. Returns `None` when
/// no such set exists (e.g. the pattern can match the empty string or
/// starts with an open class).
fn prefix_literals(ast: &Ast) -> Option<Vec<Vec<u8>>> {
    match ast {
        // Zero-width (or empty-capable) patterns have no first byte.
        Ast::Empty
        | Ast::StartText
        | Ast::EndText
        | Ast::WordBoundary
        | Ast::NotWordBoundary
        | Ast::Dot { .. } => None,
        Ast::Literal(b) => Some(vec![vec![b.to_ascii_lowercase()]]),
        Ast::Class(set) => literal_byte_of_class(set).map(|b| vec![vec![b]]),
        Ast::Group(inner) => prefix_literals(inner),
        // One mandatory iteration starts the match; min == 0 can match
        // empty, so it contributes no requirement on its own.
        Ast::Repeat { ast, min, .. } => {
            if *min >= 1 {
                prefix_literals(ast)
            } else {
                None
            }
        }
        Ast::Alternate(branches) => {
            let mut all = Vec::new();
            for b in branches {
                let mut lits = prefix_literals(b)?;
                all.append(&mut lits);
                if all.len() > MAX_LITERALS {
                    return None;
                }
            }
            Some(all)
        }
        Ast::Concat(parts) => concat_prefix_literals(parts),
    }
}

/// Prefix requirement of a concatenation: leading zero-width
/// assertions are skipped, then either a fixed literal run is
/// accumulated or the first consuming part's own requirement is taken.
fn concat_prefix_literals(parts: &[Ast]) -> Option<Vec<Vec<u8>>> {
    let mut run: Vec<u8> = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        if matches!(
            part,
            Ast::Empty | Ast::StartText | Ast::EndText | Ast::WordBoundary | Ast::NotWordBoundary
        ) {
            continue;
        }
        if let Some(b) = fixed_byte(part) {
            run.push(b);
            if run.len() >= MAX_PREFIX_LEN {
                return Some(vec![run]);
            }
            continue;
        }
        // First non-fixed part: a fixed run already pins the prefix.
        if !run.is_empty() {
            return Some(vec![run]);
        }
        return match part {
            // An optional head: the match starts with the head (one or
            // more iterations) or with whatever follows it (zero).
            Ast::Repeat {
                ast: inner, min: 0, ..
            } => {
                let mut all = prefix_literals(inner)?;
                all.extend(concat_prefix_literals(&parts[i + 1..])?);
                if all.len() > MAX_LITERALS {
                    None
                } else {
                    Some(all)
                }
            }
            _ => prefix_literals(part),
        };
    }
    if run.is_empty() {
        None
    } else {
        Some(vec![run])
    }
}

/// The single byte a part always matches (lowercased), if any.
fn fixed_byte(part: &Ast) -> Option<u8> {
    match part {
        Ast::Literal(b) => Some(b.to_ascii_lowercase()),
        Ast::Class(set) => literal_byte_of_class(set),
        Ast::Group(inner) => fixed_byte(inner),
        _ => None,
    }
}

/// If the class matches exactly one byte — or exactly the upper/lower
/// pair of one ASCII letter — returns the lowercase byte.
fn literal_byte_of_class(set: &crate::classes::ClassSet) -> Option<u8> {
    if let Some(b) = set.as_single_byte() {
        return Some(b.to_ascii_lowercase());
    }
    let ranges = set.ranges();
    if ranges.len() == 2
        && ranges.iter().all(|r| r.lo == r.hi)
        && ranges[0].lo.is_ascii_uppercase()
        && ranges[1].lo == ranges[0].lo + 32
    {
        return Some(ranges[1].lo);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, Flags};

    fn pf(pat: &str) -> Option<Prefilter> {
        let flags = Flags::default();
        Prefilter::from_ast(&parse(pat, flags).expect("parse"))
    }

    fn pf_ci(pat: &str) -> Option<Prefilter> {
        let flags = Flags {
            case_insensitive: true,
            ..Flags::default()
        };
        Prefilter::from_ast(&parse(pat, flags).expect("parse"))
    }

    #[test]
    fn literal_run_extracted() {
        // Both runs are mandatory; the longer one is preferred.
        let p = pf(r"union\s+select").expect("prefilter");
        assert_eq!(p.literals, &[b"select".to_vec()]);
    }

    #[test]
    fn prefers_longest_run() {
        let p = pf(r"or\s+sleep\s*\(").expect("prefilter");
        assert_eq!(p.literals, &[b"sleep".to_vec()]);
    }

    #[test]
    fn alternation_unions_requirements() {
        let p = pf("select|insert|delete").expect("prefilter");
        assert_eq!(p.literals.len(), 3);
        assert!(p.maybe_matches(b"xx INSERT xx"));
        assert!(!p.maybe_matches(b"nothing here"));
    }

    #[test]
    fn alternation_with_open_branch_disables() {
        assert_eq!(pf("select|[0-9]+"), None);
    }

    #[test]
    fn star_contributes_nothing() {
        assert_eq!(pf(r"\w*"), None);
        // But a mandatory tail still provides a literal.
        let p = pf(r"\w*=true").expect("prefilter");
        assert_eq!(p.literals, &[b"=true".to_vec()]);
    }

    #[test]
    fn case_insensitive_patterns_fold() {
        let p = pf_ci("UNION").expect("prefilter");
        assert_eq!(p.literals, &[b"union".to_vec()]);
        assert!(p.maybe_matches(b"UnIoN"));
    }

    #[test]
    fn ci_search_is_sound_for_cs_patterns() {
        // Case-sensitive pattern: prefilter may pass a non-matching
        // haystack (false positive is fine), never block a matching one.
        let p = pf("UNION").expect("prefilter");
        assert!(p.maybe_matches(b"union all"));
        assert!(p.maybe_matches(b"UNION all"));
    }

    #[test]
    fn contains_ascii_ci_edges() {
        assert!(contains_ascii_ci(b"abc", b"abc"));
        assert!(contains_ascii_ci(b"xABCx", b"abc"));
        assert!(!contains_ascii_ci(b"ab", b"abc"));
        assert!(contains_ascii_ci(b"", b""));
        // Single-byte needles, non-alpha first bytes, and repeated
        // first bytes that force the skip loop to advance.
        assert!(contains_ascii_ci(b"x=1", b"="));
        assert!(contains_ascii_ci(b"==select", b"=select"));
        assert!(contains_ascii_ci(b"sssSELECT", b"select"));
        assert!(!contains_ascii_ci(b"sssSELEC", b"select"));
        assert!(contains_ascii_ci(b"SsSeLeCt", b"select"));
        assert!(!contains_ascii_ci(b"zzzz", b"a"));
    }

    fn prefixes(pat: &str) -> Option<Vec<Vec<u8>>> {
        let flags = Flags {
            case_insensitive: true,
            ..Flags::default()
        };
        prefix_literals(&parse(pat, flags).expect("parse"))
    }

    #[test]
    fn prefix_of_literal_run() {
        assert_eq!(prefixes("select"), Some(vec![b"select".to_vec()]));
        // A non-fixed tail does not extend the prefix but keeps it.
        assert_eq!(prefixes(r"select.+from"), Some(vec![b"select".to_vec()]));
        assert_eq!(prefixes(r"length\s*\("), Some(vec![b"length".to_vec()]));
    }

    #[test]
    fn leading_assertions_are_skipped() {
        assert_eq!(prefixes(r"\bselect\b"), Some(vec![b"select".to_vec()]));
        assert_eq!(prefixes("^union"), Some(vec![b"union".to_vec()]));
    }

    #[test]
    fn alternation_unions_prefixes() {
        let p = prefixes("select|insert").expect("prefixes");
        assert_eq!(p, vec![b"select".to_vec(), b"insert".to_vec()]);
        // One open branch poisons the requirement.
        assert_eq!(prefixes(r"select|[0-9]+"), None);
    }

    #[test]
    fn optional_head_unions_with_rest() {
        // `x*` may match zero times, so the match can start with `x`
        // (one-plus iterations) or with `ab` (zero iterations).
        let p = prefixes("x*ab").expect("prefixes");
        assert_eq!(p, vec![b"x".to_vec(), b"ab".to_vec()]);
        // An open optional head gives up.
        assert_eq!(prefixes(r"\s*ab"), None);
    }

    #[test]
    fn empty_capable_patterns_have_no_prefix() {
        assert_eq!(prefixes(r"a*"), None);
        assert_eq!(prefixes(""), None);
        assert_eq!(prefixes(r"\b"), None);
    }

    #[test]
    fn next_match_start_jumps_case_insensitively() {
        let p = pf_ci(r"\bselect\b").expect("prefilter");
        let skip = p.prefix_skip().expect("prefix skip");
        let hay = b"x=1 or SELECT a, select b";
        assert_eq!(skip.next_match_start(hay, 0), Some(7));
        assert_eq!(skip.next_match_start(hay, 8), Some(17));
        assert_eq!(skip.next_match_start(hay, 18), None);
        assert_eq!(skip.next_match_start(hay, hay.len()), None);
    }

    #[test]
    fn skipping_patterns_still_count_correctly() {
        // End-to-end through the VM: the skip must not change counts.
        let re = crate::RegexBuilder::new()
            .case_insensitive(true)
            .build(r"\bselect\b")
            .expect("build");
        assert_eq!(re.count_all(b"select from (select) reselect"), 2);
        assert_eq!(re.count_all(b"selec"), 0);
        assert_eq!(re.count_all(b""), 0);
    }

    #[test]
    fn bucketed_matcher_handles_mixed_case_first_bytes() {
        // > BUCKETED_THRESHOLD literals forces the bucketed path.
        let p = pf("alpha|bravo|charly|delta|echo|foxtrot|golf|hotel|india")
            .expect("bucketed prefilter");
        assert!(p.maybe_matches(b"xx GOLF xx"));
        assert!(p.maybe_matches(b"xx golf xx"));
        assert!(p.maybe_matches(b"Hotel California"));
        assert!(!p.maybe_matches(b"nothing relevant"));
    }
}
