//! MySQL reserved words (feature source 1 of Table II).
//!
//! The paper derives features from the MySQL 5.5 reserved-word list
//! (Oracle reference manual rev. 31755), deliberately excluding other
//! dialects' special-purpose keywords. Each word becomes one counting
//! feature, matched at word boundaries.

/// The MySQL 5.5 reserved words used as features (lowercased).
pub const MYSQL_RESERVED: &[&str] = &[
    "accessible",
    "add",
    "all",
    "alter",
    "analyze",
    "and",
    "as",
    "asc",
    "asensitive",
    "before",
    "between",
    "bigint",
    "binary",
    "blob",
    "both",
    "by",
    "call",
    "cascade",
    "case",
    "change",
    "char",
    "character",
    "check",
    "collate",
    "column",
    "condition",
    "constraint",
    "continue",
    "convert",
    "create",
    "cross",
    "current_date",
    "current_time",
    "current_timestamp",
    "current_user",
    "cursor",
    "database",
    "databases",
    "day_hour",
    "day_microsecond",
    "day_minute",
    "day_second",
    "dec",
    "decimal",
    "declare",
    "default",
    "delayed",
    "delete",
    "desc",
    "describe",
    "deterministic",
    "distinct",
    "distinctrow",
    "div",
    "double",
    "drop",
    "dual",
    "each",
    "else",
    "elseif",
    "enclosed",
    "escaped",
    "exists",
    "exit",
    "explain",
    "false",
    "fetch",
    "float",
    "float4",
    "float8",
    "for",
    "force",
    "foreign",
    "from",
    "fulltext",
    "grant",
    "group",
    "having",
    "high_priority",
    "hour_microsecond",
    "hour_minute",
    "hour_second",
    "if",
    "ignore",
    "in",
    "index",
    "infile",
    "inner",
    "inout",
    "insensitive",
    "insert",
    "int",
    "int1",
    "int2",
    "int3",
    "int4",
    "int8",
    "integer",
    "interval",
    "into",
    "is",
    "iterate",
    "join",
    "key",
    "keys",
    "kill",
    "leading",
    "leave",
    "left",
    "like",
    "limit",
    "linear",
    "lines",
    "load",
    "localtime",
    "localtimestamp",
    "lock",
    "long",
    "longblob",
    "longtext",
    "loop",
    "low_priority",
    "master_ssl_verify_server_cert",
    "match",
    "maxvalue",
    "mediumblob",
    "mediumint",
    "mediumtext",
    "middleint",
    "minute_microsecond",
    "minute_second",
    "mod",
    "modifies",
    "natural",
    "not",
    "no_write_to_binlog",
    "null",
    "numeric",
    "on",
    "optimize",
    "option",
    "optionally",
    "or",
    "order",
    "out",
    "outer",
    "outfile",
    "precision",
    "primary",
    "procedure",
    "purge",
    "range",
    "read",
    "reads",
    "read_write",
    "references",
    "regexp",
    "release",
    "rename",
    "repeat",
    "replace",
    "require",
    "resignal",
    "restrict",
    "return",
    "revoke",
    "right",
    "rlike",
    "schema",
    "schemas",
    "second_microsecond",
    "select",
    "sensitive",
    "separator",
    "set",
    "show",
    "signal",
    "smallint",
    "spatial",
    "specific",
    "sql",
    "sqlexception",
    "sqlstate",
    "sqlwarning",
    "sql_big_result",
    "sql_calc_found_rows",
    "sql_small_result",
    "ssl",
    "starting",
    "straight_join",
    "table",
    "terminated",
    "then",
    "tinyblob",
    "tinyint",
    "tinytext",
    "to",
    "trailing",
    "trigger",
    "true",
    "undo",
    "union",
    "unique",
    "unlock",
    "unsigned",
    "update",
    "usage",
    "use",
    "using",
    "utc_date",
    "utc_time",
    "utc_timestamp",
    "values",
    "varbinary",
    "varchar",
    "varcharacter",
    "varying",
    "when",
    "where",
    "while",
    "with",
    "write",
    "xor",
    "year_month",
    "zerofill",
];

/// Short reserved words that flood benign text (`as`, `in`, `is`,
/// `to`, `on`, `or`, ...) are still included — the paper's pruning
/// step and logistic regression are what down-weights them, not the
/// source list.
pub fn word_boundary_pattern(word: &str) -> String {
    format!(r"\b{}\b", regex_escape(word))
}

/// Escapes regex metacharacters in a literal word.
pub fn regex_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if "\\.+*?()|[]{}^$".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psigene_regex::oracle::Oracle;

    #[test]
    fn word_list_is_lowercase_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for w in MYSQL_RESERVED {
            assert_eq!(*w, w.to_lowercase(), "{w} not lowercase");
            assert!(seen.insert(w), "{w} duplicated");
        }
        assert!(
            MYSQL_RESERVED.len() >= 200,
            "list too short: {}",
            MYSQL_RESERVED.len()
        );
    }

    #[test]
    fn core_sqli_words_present() {
        for w in [
            "select",
            "union",
            "insert",
            "delete",
            "char",
            "varchar",
            "current_user",
        ] {
            assert!(MYSQL_RESERVED.contains(&w), "{w} missing");
        }
    }

    #[test]
    fn boundary_pattern_matches_words_not_substrings() {
        let re = Oracle::new(&word_boundary_pattern("union"), false).unwrap();
        assert!(re.is_match(b"1 union select"));
        assert!(re.is_match(b"union select"));
        assert!(re.is_match(b"x;union"));
        assert!(!re.is_match(b"reunion party"));
        assert!(!re.is_match(b"unions"));
    }

    #[test]
    fn adjacent_words_both_count() {
        let re = Oracle::new(&word_boundary_pattern("union"), false).unwrap();
        assert_eq!(re.count(b"union union,union"), 3);
    }

    #[test]
    fn escape_handles_metacharacters() {
        assert_eq!(regex_escape("a.b+c"), r"a\.b\+c");
        let re = Oracle::new(&regex_escape("a(b)|c"), false).unwrap();
        assert!(re.is_match(b"xa(b)|cy"));
    }
}
