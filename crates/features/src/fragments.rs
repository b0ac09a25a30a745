//! Signature fragments (feature source 2 of Table II).
//!
//! "We did not use a whole signature as a single feature, but rather
//! divided the signature into logical components ... using
//! metacharacters such as parentheses and the alternation operator
//! that delimit logical groups and branches inside a regular
//! expression."
//!
//! This module carries both the fragment corpus (patterns in the
//! style of Snort/Bro/ModSecurity CRS SQLi rules, including the
//! paper's quoted examples) and the deconstruction algorithm that
//! splits a composite signature into its top-level groups.

/// Splits a composite signature on top-level alternation between
/// non-capturing groups — the paper's worked example turns
/// `(?:g1)|(?:g2)|...|(?:g7)` into seven features.
pub fn deconstruct(signature: &str) -> Vec<String> {
    let bytes = signature.as_bytes();
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_class = false;
    let mut start = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 1, // skip escaped char
            b'[' if !in_class => in_class = true,
            b']' if in_class => in_class = false,
            b'(' if !in_class => depth += 1,
            b')' if !in_class => depth = depth.saturating_sub(1),
            b'|' if !in_class && depth == 0 => {
                parts.push(signature[start..i].to_string());
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    parts.push(signature[start..].to_string());
    parts
        .into_iter()
        .map(|p| strip_group(&p))
        .filter(|p| !p.is_empty())
        .collect()
}

/// Removes one enclosing `(?:...)` / `(?i:...)` / `(...)` wrapper.
fn strip_group(part: &str) -> String {
    let p = part.trim();
    for prefix in ["(?:", "(?i:", "(?is:", "("] {
        if let Some(inner) = p.strip_prefix(prefix) {
            if let Some(body) = inner.strip_suffix(')') {
                // Only strip when the wrapper encloses the whole part
                // (no top-level close before the end).
                let mut depth = 1i32;
                let bytes = body.as_bytes();
                let mut ok = true;
                let mut i = 0;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 1,
                        b'(' => depth += 1,
                        b')' => {
                            depth -= 1;
                            if depth == 0 {
                                ok = false;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                if ok {
                    return body.to_string();
                }
            }
        }
    }
    p.to_string()
}

/// The fragment corpus: logical components of SQLi signatures in the
/// styles of the three rulesets the paper deconstructs. Patterns are
/// matched case-insensitively against the *normalized* payload.
pub const SIGNATURE_FRAGMENTS: &[&str] = &[
    // —— From the paper's own examples (§II-B, Table III) ——
    r"in\s*?\(+\s*?select",
    r"\)?;",
    r"[^a-z&]+=",
    r"=[-0-9%]*",
    r"<=>|r?like|sounds\s+like|regexp",
    r"([^a-z&]+)?&|exists",
    r"[?&][^\s\x00-\x37|]+?=",
    r"ch(a)?r\s*?\(\s*?\d",
    r"is\s+null",
    r"like\s+null",
    // —— union/select composites (Snort & ET style) ——
    r"union\s+select",
    r"union\s+all\s+select",
    r"union(\s|\+|/\*.*?\*/)+(all(\s|\+|/\*.*?\*/)+)?select",
    r"select\s+[0-9,]+",
    r"select\s+null(,null)*",
    r"select.+from",
    r"insert\s+into",
    r"delete\s+from",
    r"update\s+[a-z_]+\s+set",
    r"drop\s+table",
    r"alter\s+table",
    r"truncate\s+table",
    // —— comparison / tautology shapes ——
    r"or\s+\d+\s*=\s*\d+",
    r"and\s+\d+\s*=\s*\d+",
    r"or\s+'[^']*'\s*=\s*'",
    r"and\s+'[^']*'\s*=\s*'",
    r"or\s+\x22[^\x22]*\x22\s*=\s*\x22",
    r"'\s*or\s*'",
    r"\d+\s*=\s*\d+",
    r"'[^']*'\s*=\s*'[^']*'",
    r"or\s+\d+\s*>\s*\d+",
    r"\|\|",
    r"&&",
    // —— quote and comment mechanics ——
    r"'",
    r"\x22",
    r"--",
    r"--\s",
    r"#",
    r"/\*",
    r"\*/",
    r"/\*.*?\*/",
    r"/\*![0-9]*",
    r";\s*$",
    r";",
    r"`",
    // —— functions beloved by injections ——
    r"concat\s*\(",
    r"concat_ws\s*\(",
    r"group_concat\s*\(",
    r"char\s*\(",
    r"ascii\s*\(",
    r"substring\s*\(",
    r"substr\s*\(",
    r"mid\s*\(",
    r"length\s*\(",
    r"version\s*\(",
    r"database\s*\(",
    r"user\s*\(",
    r"current_user",
    r"system_user\s*\(",
    r"session_user\s*\(",
    r"sleep\s*\(",
    r"benchmark\s*\(",
    r"md5\s*\(",
    r"sha1\s*\(",
    r"load_file\s*\(",
    r"extractvalue\s*\(",
    r"updatexml\s*\(",
    r"floor\s*\(rand\s*\(",
    r"rand\s*\(",
    r"count\s*\(\s*\*\s*\)",
    r"if\s*\(",
    r"ifnull\s*\(",
    r"coalesce\s*\(",
    r"cast\s*\(",
    r"convert\s*\(",
    r"hex\s*\(",
    r"unhex\s*\(",
    r"exp\s*\(",
    r"analyse\s*\(",
    // —— schema snooping ——
    r"information_schema",
    r"information_schema\.tables",
    r"information_schema\.columns",
    r"table_schema",
    r"table_name",
    r"column_name",
    r"mysql\.user",
    r"@@version",
    r"@@datadir",
    r"@@hostname",
    r"@@[a-z_]+",
    // —— literals / encodings ——
    r"0x[0-9a-f]{2,}",
    r"%2527",
    r"%27",
    r"%22",
    r"%3d",
    r"%3b",
    r"\+union\+",
    r"\+select",
    r"\+or\+",
    r"\+and\+",
    // —— clause shapes ——
    r"order\s+by\s+\d+",
    r"group\s+by\s+\d+",
    r"group\s+by\s+[a-z]",
    r"limit\s+\d+",
    r"limit\s+\d+\s*,\s*\d+",
    r"offset\s+\d+",
    r"having\s+\d+",
    r"where\s+[a-z_]+\s*=",
    r"from\s+[a-z_]+\s+where",
    r"into\s+(out|dump)file",
    r"procedure\s+analyse",
    r"waitfor\s+delay",
    r"not\s+in\s*\(",
    r"in\s*\(\s*\d+(\s*,\s*\d+)*\s*\)",
    r"between\s+\d+\s+and",
    r"case\s+when",
    r"when\s+\d+\s*=\s*\d+",
    r"then\s+\d",
    r"else\s+\d",
    r"end\s*\)?",
    r"exists\s*\(\s*select",
    r"select\s+\*",
    r"admin'?\s*(--|#)",
    r"'\s*(--|#)",
    r"\)\s*(--|#)",
    r"\d+\s*;\s*(drop|insert|update|delete|shutdown)",
    r";\s*shutdown",
    // —— parameter shapes from ET/Snort ——
    r"\?[a-z_]+=-?\d+'",
    r"=\s*-\d+",
    r"=['\x22]",
    r"='?\s*or",
    r"%[0-9a-f]{2}",
    r"(%[0-9a-f]{2}){4,}",
    r"\(\s*select",
    r"select\s*\(",
    r"\)\s*or\s*\(",
    r"\)\s*and\s*\(",
    r"'\s*\)",
    r"\(\s*'",
    r",\s*null\b",
    r"null\s*,",
    r",\d+,",
    r"\d,\d,\d",
];

#[cfg(test)]
mod tests {
    use super::*;
    use psigene_regex::oracle::Oracle;

    #[test]
    fn all_fragments_compile_case_insensitively() {
        for frag in SIGNATURE_FRAGMENTS {
            Oracle::new(frag, true).unwrap_or_else(|e| panic!("fragment {frag:?} failed: {e}"));
        }
    }

    #[test]
    fn fragment_corpus_is_unique_and_sizable() {
        let mut set = std::collections::HashSet::new();
        for f in SIGNATURE_FRAGMENTS {
            assert!(set.insert(f), "duplicate fragment {f:?}");
        }
        assert!(
            SIGNATURE_FRAGMENTS.len() >= 120,
            "{}",
            SIGNATURE_FRAGMENTS.len()
        );
    }

    #[test]
    fn deconstruct_the_papers_example() {
        // The ModSec CRS example of §II-B: seven case-insensitive
        // groups joined by alternation.
        let sig = r"(?:g1)|(?:g2)|(?:is\s+null)|(?:like\s+null)|(?:g5)|(?:g6)|(?:g7)";
        let parts = deconstruct(sig);
        assert_eq!(parts.len(), 7);
        assert_eq!(parts[2], r"is\s+null");
        assert_eq!(parts[3], r"like\s+null");
    }

    #[test]
    fn deconstruct_respects_nesting_and_classes() {
        let sig = r"(?:a|(b|c))|[|]d";
        let parts = deconstruct(sig);
        // The top-level alternation splits once; `|` inside the class
        // and inside the nested group must not split.
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], "a|(b|c)");
        assert_eq!(parts[1], "[|]d");
    }

    #[test]
    fn deconstruct_handles_escapes() {
        let parts = deconstruct(r"a\|b|c");
        assert_eq!(parts, vec![r"a\|b", "c"]);
    }

    #[test]
    fn fragments_hit_their_targets() {
        let check = |pat: &str, hay: &[u8]| {
            let re = Oracle::new(pat, true).unwrap();
            assert!(re.is_match(hay), "{pat:?} should match {hay:?}");
        };
        check(r"union\s+select", b"1 union select 2");
        check(r"ch(a)?r\s*?\(\s*?\d", b"char(58)");
        check(r"floor\s*\(rand\s*\(", b"floor(rand(0)*2)");
        check(r"0x[0-9a-f]{2,}", b"concat(0x7e)");
        check(r"into\s+(out|dump)file", b"into outfile '/tmp/x'");
        check(
            r"\d+\s*;\s*(drop|insert|update|delete|shutdown)",
            b"1; drop table users",
        );
    }

    #[test]
    fn word_boundary_fragment_counts() {
        let re = Oracle::new(r"(%[0-9a-f]{2}){4,}", false).unwrap();
        assert!(re.is_match(b"%55%4e%49%4f%4e"));
        assert!(!re.is_match(b"%55%4e"));
    }
}
