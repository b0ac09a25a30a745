//! Reference-document patterns (feature source 3 of Table II).
//!
//! "Common strings found in SQLi attacks, shared by subject matter
//! experts" — the paper cites the WebSec SQL injection pocket
//! reference and Clarke's *SQL Injection Attacks and Defense*. These
//! are the idioms written down in cheat sheets rather than derived
//! from deployed rules.

/// Cheat-sheet patterns, matched case-insensitively on normalized
/// payloads. Includes the paper's quoted examples
/// (`' ORDER BY [0-9]-- -`, `/\*/`, `\"`).
pub const REFERENCE_PATTERNS: &[&str] = &[
    // Paper's own examples from Table II.
    r"'\s*order\s+by\s+[0-9]+\s*--\s-",
    r"/\*/",
    r"\x22",
    // Pocket-reference probing idioms.
    r"'\s*--",
    r"'\s*#",
    r"'\s*/\*",
    r"\x22\s*--",
    r"admin'\s*--",
    r"admin\x22\s*--",
    r"'\s*or\s*1\s*=\s*1",
    r"\x22\s*or\s*1\s*=\s*1",
    r"or\s+1\s*=\s*1\s*(--|#|/\*)",
    r"'\s*or\s*''\s*=\s*'",
    r"'\s*or\s*'1'\s*=\s*'1",
    r"\x22\s*or\s*\x22a\x22\s*=\s*\x22a",
    r"\)\s*or\s*\(\s*'?1'?\s*=\s*'?1",
    r"'\)\s*or\s*\('",
    // Column-count bisection.
    r"order\s+by\s+1\s*--",
    r"order\s+by\s+[0-9]{1,2}\s*(--|#)?",
    r"union\s+select\s+null",
    r"union\s+select\s+1\s*,",
    // Version/fingerprint probes.
    r"and\s+substring\s*\(\s*@*version",
    r"version\s*\(\s*\)\s*,",
    r"concat\s*\(\s*0x",
    r"concat\s*\(\s*char\s*\(",
    r"concat\s*\(.+char\s*\(\s*58",
    r"unhex\s*\(\s*hex\s*\(",
    // Blind probing.
    r"and\s+sleep\s*\(\s*\d+\s*\)",
    r"or\s+sleep\s*\(\s*\d+\s*\)",
    r"and\s+benchmark\s*\(",
    r"if\s*\(\s*\d+\s*=\s*\d+\s*,\s*sleep",
    r"and\s+ascii\s*\(\s*substring",
    r"and\s+\(\s*select\s+count",
    r"and\s+length\s*\(",
    r"and\s+exists\s*\(\s*select",
    // Stacked / destructive.
    r";\s*drop\s+table",
    r";\s*insert\s+into",
    r";\s*update\s+",
    r";\s*delete\s+from",
    r";\s*exec",
    // Outfile / file access.
    r"into\s+outfile",
    r"into\s+dumpfile",
    r"load_file\s*\(\s*'",
    r"load_file\s*\(\s*0x",
    r"load\s+data\s+infile",
    // Hex/char smuggling.
    r"char\s*\(\s*\d+\s*(,\s*\d+\s*)+\)",
    r"0x3a",
    r"0x7e",
    r"0x27",
    r"=\s*0x[0-9a-f]+",
    // Double-encoding / evasion markers.
    r"%25[0-9a-f]{2}",
    r"%u00[0-9a-f]{2}",
    r"un/\*.*?\*/ion",
    r"se/\*.*?\*/lect",
    r"/\*!\s*select",
    r"\+union\+all\+select\+",
    // Error-based extraction idioms.
    r"extractvalue\s*\(\s*1\s*,",
    r"updatexml\s*\(\s*1\s*,",
    r"group\s+by\s+x\s*\)\s*a",
    r"floor\s*\(\s*rand\s*\(\s*0\s*\)\s*\*\s*2\s*\)",
    r"procedure\s+analyse\s*\(",
    // Auth-bypass one-liners.
    r"'\s*or\s*'x'\s*=\s*'x",
    r"'\s*\|\|\s*'",
    r"1'\s*and\s*'1'\s*=\s*'1",
    r"like\s*'%",
    r"'\s*between\s*'",
    // Boundary probes on numeric params.
    r"=\s*-?\d+\s+or\s+\d",
    r"=\s*-?\d+\s+and\s+\d",
    r"=\s*-\d+\s+union",
    r"and\s+\d+\s*>\s*\d+",
    r"\d+\s*=\s*\d+\s*--",
];

#[cfg(test)]
mod tests {
    use super::*;
    use psigene_regex::oracle::Oracle;

    #[test]
    fn all_patterns_compile() {
        for pat in REFERENCE_PATTERNS {
            Oracle::new(pat, true).unwrap_or_else(|e| panic!("pattern {pat:?} failed: {e}"));
        }
    }

    #[test]
    fn corpus_is_unique_and_sizable() {
        let mut set = std::collections::HashSet::new();
        for p in REFERENCE_PATTERNS {
            assert!(set.insert(p), "duplicate {p:?}");
        }
        assert!(
            REFERENCE_PATTERNS.len() >= 60,
            "{}",
            REFERENCE_PATTERNS.len()
        );
    }

    #[test]
    fn papers_order_by_example_matches() {
        let re = Oracle::new(r"'\s*order\s+by\s+[0-9]+\s*--\s-", true).unwrap();
        assert!(re.is_match(b"' ORDER BY 10-- -"));
        assert!(!re.is_match(b"order by name"));
    }

    #[test]
    fn cheat_sheet_idioms_match_their_payloads() {
        let check = |pat: &str, hay: &[u8]| {
            let re = Oracle::new(pat, true).unwrap();
            assert!(re.is_match(hay), "{pat:?} should match {hay:?}");
        };
        check(r"'\s*or\s*'1'\s*=\s*'1", b"x' or '1'='1");
        check(r"and\s+sleep\s*\(\s*\d+\s*\)", b"1 and sleep(5)");
        check(r"char\s*\(\s*\d+\s*(,\s*\d+\s*)+\)", b"char(97,100,109)");
        check(r"un/\*.*?\*/ion", b"un/**/ion select");
        check(r";\s*drop\s+table", b"1; drop table users--");
    }
}
