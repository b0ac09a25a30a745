//! ModSecurity CRS 2.2.4 style ruleset and engine.
//!
//! "ModSecurity takes a probabilistic approach and uses a scoring
//! scheme where signatures are weighted and can contribute to
//! determine the level of anomaly for a particular trace" (§III-A).
//! The 34 rules here are broad keyword-group detectors in the CRS
//! style (Table IV: 34 rules, 100 % enabled, 100 % regex, average
//! regex length 390, max 2917) whose weighted matches accumulate into
//! an inbound anomaly score; the request is flagged when the score
//! reaches the threshold (CRS default 5).
//!
//! The engine applies full payload normalization (the CRS runs its
//! own transformation pipeline: urlDecode, lowercase, ...).

use crate::engine::{Detection, DetectionEngine};
use crate::rule::{CompiledRules, Rule, Severity};
use psigene_http::normalize::normalize;
use psigene_http::HttpRequest;

/// The CRS `replaceComments`-style transformation: removes inline
/// `/*...*/` comments so keyword-splitting evasions (`un/**/ion`)
/// reassemble. Unterminated comments are removed to end of input.
pub fn strip_inline_comments(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len());
    let mut i = 0;
    while i < payload.len() {
        if payload[i] == b'/' && payload.get(i + 1) == Some(&b'*') {
            // Find the closing `*/`.
            let mut j = i + 2;
            loop {
                match payload.get(j) {
                    None => return out, // unterminated: drop the rest
                    Some(b'*') if payload.get(j + 1) == Some(&b'/') => {
                        i = j + 2;
                        break;
                    }
                    _ => j += 1,
                }
            }
        } else {
            out.push(payload[i]);
            i += 1;
        }
    }
    out
}

/// Default inbound anomaly threshold (CRS 2.x default).
pub const DEFAULT_THRESHOLD: u32 = 5;

/// The 34 CRS-style scoring rules.
pub fn modsec_rules() -> Vec<Rule> {
    use Severity::*;
    let mut rules = vec![
        Rule::regex(
            981231,
            "modsec: union select",
            r"union(\s|/\*.*?\*/)+(all(\s|/\*.*?\*/)+)?select",
            Critical,
            true,
        ),
        Rule::regex(
            981232,
            "modsec: select from",
            r"select\s[^&]{0,200}?\sfrom\s",
            Warning,
            true,
        ),
        Rule::regex(
            981233,
            "modsec: boolean tautology",
            r"(or|and|\|\||&&|xor|not)\s+('[^']*'|\x22[^\x22]*\x22|[0-9]+|null|true|false)\s*(=|<=>|>=|<=|>|<|<>|!=|is\s+not|is|like|rlike|regexp|sounds\s+like|div|mod)\s*('[^']*'?|\x22[^\x22]*\x22?|[0-9]+|null|true|false)",
            Critical,
            true,
        ),
        Rule::regex(
            981234,
            "modsec: quote or breakout",
            r"('|\x22|\))\s*(or|and|\|\||&&)(\s|\+)",
            Critical,
            true,
        ),
        Rule::regex(
            981235,
            "modsec: comment injection",
            r"(/\*!?|\*/|--(\s|$)|#\s*$|;\s*--)",
            Warning,
            true,
        ),
        Rule::regex(
            981236,
            "modsec: stacked statement",
            r";\s*(\s|/\*.*?\*/)*(select\s|insert(\s|/\*.*?\*/)+into|update\s|delete(\s|/\*.*?\*/)+from|drop(\s|/\*.*?\*/)+(table|database|index|view|user)|truncate(\s|/\*.*?\*/)+table|alter(\s|/\*.*?\*/)+(table|database|user)|create(\s|/\*.*?\*/)+(table|database|index|view|user|trigger|procedure)|shutdown|grant(\s|/\*.*?\*/)+(all|select|insert)|revoke|rename(\s|/\*.*?\*/)+table|set(\s|/\*.*?\*/)+(global|session|password)|begin|commit|rollback|call\s)",
            Critical,
            true,
        ),
        Rule::regex(
            981237,
            "modsec: sleep or benchmark",
            r"(sleep\s*\(\s*\d+(\.\d+)?\s*\)|benchmark\s*\(\s*\d+\s*,|waitfor\s+delay\s+'|pg_sleep\s*\(\s*\d|dbms_lock\.sleep|dbms_pipe\.receive_message|generate_series\s*\(\s*\d+\s*,\s*\d+\s*\)|(select|from)\s*\(\s*select\s+sleep|if\s*\([^&]{0,80}?,\s*sleep\s*\()",
            Critical,
            true,
        ),
        Rule::regex(
            981238,
            "modsec: error extraction",
            r"(extractvalue\s*\(|updatexml\s*\(|floor\s*\(\s*rand\s*\(|name_const\s*\()",
            Critical,
            true,
        ),
        Rule::regex(
            981239,
            "modsec: schema snoop",
            r"(information_schema(\s|/\*.*?\*/)*\.(\s|/\*.*?\*/)*(tables|columns|schemata|statistics|routines|views|triggers|user_privileges|table_constraints|key_column_usage)?|mysql(\s)*\.(\s)*(user|db|host|tables_priv|columns_priv|proc|func)|performance_schema\.|sysobjects|syscolumns|sysusers|sysdatabases|pg_catalog|pg_user|pg_shadow|pg_database|sqlite_master|sqlite_temp_master|all_tables|user_tables|dba_tables|v\$version)",
            Critical,
            true,
        ),
        Rule::regex(
            981240,
            "modsec: string functions",
            r"(concat(_ws)?\s*\(|group_concat\s*\(|char\s*\(\s*\d|unhex\s*\(|hex\s*\()",
            Warning,
            true,
        ),
        Rule::regex(
            981241,
            "modsec: info functions",
            r"(version\s*\(\s*\)|database\s*\(\s*\)|schema\s*\(\s*\)|current_user(\s*\(\s*\))?|session_user\s*\(\s*\)|system_user\s*\(\s*\)|user\s*\(\s*\)|connection_id\s*\(\s*\)|last_insert_id\s*\(\s*\)|row_count\s*\(\s*\)|found_rows\s*\(\s*\)|@@(version|version_comment|version_compile_os|version_compile_machine|datadir|basedir|tmpdir|hostname|port|socket|pid_file|general_log|slow_query_log|log_error|secure_file_priv|global\.[a-z_]+|session\.[a-z_]+))",
            Warning,
            true,
        ),
        Rule::regex(
            981242,
            "modsec: substring probes",
            r"(substring\s*\(|substr\s*\(|mid\s*\(|ascii\s*\(|ord\s*\(|length\s*\()",
            Warning,
            true,
        ),
        Rule::regex(
            981243,
            "modsec: file operations",
            r"(load_file\s*\(|into\s+(out|dump)file|load\s+data\s+infile)",
            Critical,
            true,
        ),
        Rule::regex(
            981244,
            "modsec: order/group probe",
            r"(order|group)\s+by\s+\d+\s*(,\s*\d+\s*)*(--|#|;|$|')",
            Warning,
            true,
        ),
        Rule::regex(
            981245,
            "modsec: hex literal",
            r"0x[0-9a-f]{4,}",
            Warning,
            true,
        ),
        Rule::regex(
            981246,
            "modsec: conditional probe",
            r"(if\s*\(\s*\d+\s*=|case\s+when|ifnull\s*\(|nullif\s*\()",
            Warning,
            true,
        ),
        Rule::regex(981247, "modsec: subselect", r"\(\s*select\s", Warning, true),
        Rule::regex(
            981248,
            "modsec: exists select",
            r"exists\s*\(\s*select",
            Critical,
            true,
        ),
        Rule::regex(
            981249,
            "modsec: like/regexp probe",
            r"(<=>|r?like\s|sounds\s+like|regexp\s)",
            Notice,
            true,
        ),
        Rule::regex(
            981250,
            "modsec: null padding",
            r"(,\s*null){2,}|null\s*,\s*null",
            Warning,
            true,
        ),
        Rule::regex(
            981251,
            "modsec: numeric breakout",
            r"=\s*-?\d+\s*('|\x22|\))\s*",
            Warning,
            true,
        ),
        Rule::regex(
            981252,
            "modsec: quote at end",
            r"('|\x22)\s*(--|#|;)?\s*$",
            Notice,
            true,
        ),
        // Percent escapes that survive the normalization pass mean
        // the payload was encoded more than once — an evasion in
        // itself (CRS 950109 "multiple URL encoding detected").
        Rule::regex(
            981253,
            "modsec: multiple url encoding",
            r"(%[0-9a-f]{2}\s*){2,}|%25[0-9a-f]{2}|%u00[0-9a-f]{2}",
            Critical,
            true,
        ),
        Rule::regex(
            981254,
            "modsec: in-select",
            r"in\s*?\(+\s*?select",
            Critical,
            true,
        ),
        Rule::regex(
            981255,
            "modsec: is/like null",
            r"(is\s+null|like\s+null)",
            Notice,
            true,
        ),
        Rule::regex(
            981256,
            "modsec: limit/offset probe",
            r"limit\s+\d+(\s*,\s*\d+|\s+offset\s+\d+)?\s*(--|#|$)",
            Notice,
            true,
        ),
        Rule::regex(
            981257,
            "modsec: procedure analyse",
            r"procedure\s+analyse\s*\(",
            Critical,
            true,
        ),
        Rule::regex(
            981258,
            "modsec: between probe",
            r"between\s+\d+\s+and\s+\d+",
            Notice,
            true,
        ),
        Rule::regex(
            981259,
            "modsec: exec probes",
            r"(exec\s*\(|exec\s+xp_|xp_cmdshell|sp_password|sp_executesql)",
            Critical,
            true,
        ),
        Rule::regex(
            981260,
            "modsec: having probe",
            r"having\s+\d+\s*(=|>|<)",
            Warning,
            true,
        ),
        Rule::regex(
            981261,
            "modsec: declare/cast",
            r"(declare\s+@|cast\s*\(|convert\s*\(\s*int)",
            Warning,
            true,
        ),
        Rule::regex(
            981262,
            "modsec: admin bypass",
            r"(admin|root)('|\x22)\s*(--|#|;)",
            Critical,
            true,
        ),
        Rule::regex(
            981263,
            "modsec: equals quote",
            r"=\s*('|\x22)",
            Notice,
            true,
        ),
    ];
    // Rule 34: the CRS's giant keyword-alternation rule (Table IV's
    // max-length 2917-char regex), generated from the full keyword
    // inventory the CRS tracks.
    let keywords: Vec<String> = [
        "abs",
        "acos",
        "adddate",
        "addtime",
        "aes_decrypt",
        "aes_encrypt",
        "analyse",
        "asin",
        "atan",
        "avg",
        "benchmark",
        "bin",
        "bit_and",
        "bit_count",
        "bit_length",
        "bit_or",
        "bit_xor",
        "cast",
        "ceil",
        "ceiling",
        "char_length",
        "character_length",
        "charset",
        "coalesce",
        "coercibility",
        "compress",
        "concat",
        "concat_ws",
        "connection_id",
        "conv",
        "convert_tz",
        "cos",
        "cot",
        "count",
        "crc32",
        "curdate",
        "current_date",
        "current_time",
        "curtime",
        "database",
        "datediff",
        "date_add",
        "date_format",
        "date_sub",
        "day",
        "dayname",
        "dayofmonth",
        "dayofweek",
        "dayofyear",
        "decode",
        "degrees",
        "des_decrypt",
        "des_encrypt",
        "elt",
        "encode",
        "encrypt",
        "exp",
        "export_set",
        "extract",
        "extractvalue",
        "field",
        "find_in_set",
        "floor",
        "format",
        "found_rows",
        "from_days",
        "from_unixtime",
        "get_format",
        "get_lock",
        "greatest",
        "group_concat",
        "hex",
        "hour",
        "if",
        "ifnull",
        "inet_aton",
        "inet_ntoa",
        "insert",
        "instr",
        "interval",
        "is_free_lock",
        "is_used_lock",
        "last_day",
        "last_insert_id",
        "lcase",
        "least",
        "length",
        "ln",
        "load_file",
        "locate",
        "log",
        "log10",
        "log2",
        "lower",
        "lpad",
        "ltrim",
        "make_set",
        "makedate",
        "maketime",
        "master_pos_wait",
        "max",
        "md5",
        "microsecond",
        "min",
        "minute",
        "mod",
        "month",
        "monthname",
        "name_const",
        "now",
        "nullif",
        "oct",
        "octet_length",
        "old_password",
        "ord",
        "password",
        "period_add",
        "period_diff",
        "pi",
        "position",
        "pow",
        "power",
        "quarter",
        "quote",
        "radians",
        "rand",
        "release_lock",
        "repeat",
        "replace",
        "reverse",
        "round",
        "row_count",
        "rpad",
        "rtrim",
        "schema",
        "sec_to_time",
        "second",
        "session_user",
        "sha1",
        "sha2",
        "sign",
        "sin",
        "sleep",
        "soundex",
        "space",
        "sqrt",
        "std",
        "stddev",
        "stddev_pop",
        "stddev_samp",
        "str_to_date",
        "strcmp",
        "subdate",
        "substring_index",
        "subtime",
        "sum",
        "sysdate",
        "system_user",
        "tan",
        "time_format",
        "time_to_sec",
        "timediff",
        "timestampadd",
        "timestampdiff",
        "to_days",
        "to_seconds",
        "trim",
        "truncate",
        "ucase",
        "uncompress",
        "uncompressed_length",
        "unhex",
        "unix_timestamp",
        "updatexml",
        "upper",
        "utc_date",
        "utc_time",
        "utc_timestamp",
        "uuid",
        "uuid_short",
        "var_pop",
        "var_samp",
        "variance",
        "week",
        "weekday",
        "weekofyear",
        "year",
        "yearweek",
        "st_area",
        "st_asbinary",
        "st_astext",
        "st_buffer",
        "st_centroid",
        "st_contains",
        "st_crosses",
        "st_difference",
        "st_dimension",
        "st_disjoint",
        "st_distance",
        "st_endpoint",
        "st_envelope",
        "st_equals",
        "st_exteriorring",
        "st_geometryn",
        "st_geometrytype",
        "st_geomfromtext",
        "st_interiorringn",
        "st_intersection",
        "st_intersects",
        "st_isclosed",
        "st_isempty",
        "st_issimple",
        "st_numgeometries",
        "st_numinteriorrings",
        "st_numpoints",
        "st_overlaps",
        "st_pointn",
        "st_srid",
        "st_startpoint",
        "st_symdifference",
        "st_touches",
        "st_union",
        "st_within",
        "geometryfromtext",
        "geomfromtext",
        "pointfromtext",
        "linefromtext",
        "polyfromtext",
        "mbrcontains",
        "mbrdisjoint",
        "mbrequal",
        "mbrintersects",
        "mbroverlaps",
        "mbrtouches",
        "mbrwithin",
        "to_base64",
        "from_base64",
        "random_bytes",
        "any_value",
        "validate_password_strength",
        "wait_for_executed_gtid_set",
        "weight_string",
        "gtid_subset",
        "gtid_subtract",
        "json_array",
        "json_contains",
        "json_depth",
        "json_extract",
        "json_keys",
        "json_length",
        "json_merge",
        "json_object",
        "json_quote",
        "json_remove",
        "json_replace",
        "json_search",
        "json_set",
        "json_type",
        "json_unquote",
        "json_valid",
        "is_ipv4",
        "is_ipv6",
        "inet6_aton",
        "inet6_ntoa",
        "is_ipv4_compat",
        "is_ipv4_mapped",
    ]
    .iter()
    .map(|k| format!("{k}\\s*\\("))
    .collect();
    let giant = format!("(?:{})", keywords.join("|"));
    rules.push(Rule::regex(
        981300,
        "modsec: sql function inventory",
        &giant,
        Severity::Notice,
        true,
    ));
    rules
}

/// The ModSecurity-style scoring engine.
#[derive(Debug)]
pub struct ModsecEngine {
    pub(crate) rules: CompiledRules,
    threshold: u32,
}

impl ModsecEngine {
    /// Builds the engine with the CRS-style rules and default
    /// threshold.
    pub fn new() -> ModsecEngine {
        ModsecEngine::with_threshold(DEFAULT_THRESHOLD)
    }

    /// Overrides the anomaly threshold.
    pub fn with_threshold(threshold: u32) -> ModsecEngine {
        ModsecEngine {
            rules: CompiledRules::new(modsec_rules()),
            threshold,
        }
    }
}

impl Default for ModsecEngine {
    fn default() -> ModsecEngine {
        ModsecEngine::new()
    }
}

impl DetectionEngine for ModsecEngine {
    fn name(&self) -> &str {
        "ModSecurity"
    }

    fn prepare(&self) {
        self.rules.prepare();
    }

    fn evaluate(&self, request: &HttpRequest) -> Detection {
        // CRS transformation pipeline: full normalization, plus a
        // comment-stripped variant; a rule scores if it matches
        // either form (multi-transformation matching, as ModSecurity
        // does per-rule with t:replaceComments).
        let payload = normalize(request.detection_payload());
        // The comment-stripped variant only differs (and only needs
        // scanning) when an inline comment opener is present.
        let stripped = payload
            .windows(2)
            .any(|w| w == b"/*")
            .then(|| strip_inline_comments(&payload));
        let matched = match &stripped {
            Some(stripped) => self.rules.all_matches(&[&payload, stripped]),
            None => self.rules.all_matches(&[&payload]),
        };
        let score: u32 = matched.iter().map(|rule| rule.weight).sum();
        Detection {
            flagged: score >= self.threshold,
            matched_rules: matched.iter().map(|rule| rule.id).collect(),
            score: score as f64,
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
    fn thirty_four_rules_all_enabled_all_regex() {
        let rules = modsec_rules();
        assert_eq!(rules.len(), 34);
        assert!(rules.iter().all(|r| r.enabled && r.matcher.is_regex()));
    }

    #[test]
    fn length_statistics_match_table_iv_shape() {
        let rules = modsec_rules();
        let lens: Vec<usize> = rules.iter().map(|r| r.matcher.pattern_len()).collect();
        let max = *lens.iter().max().unwrap();
        let avg = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        // Table IV: avg 390.2, max 2917, min 28.
        assert!(max >= 1500, "max {max}");
        assert!((80.0..=600.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn catches_the_full_attack_spectrum() {
        let e = ModsecEngine::new();
        let attacks = [
            "id=-1+union+select+1,2,3",
            "id=1+un/**/ion+se/**/lect+1,2--",
            "id=1'+or+'1'='1",
            "id=1+and+2=2--",
            "id=1+and+sleep(4)--",
            "id=extractvalue(1,concat(0x7e,version()))",
            "id=1;drop+table+users",
            "id=1+union+select+char(97,100),2",
            "id=1+order+by+12--",
            "id=1+and+ascii(substring(version(),1,1))>51--",
            "q=%2527%2520or%25201%3D1",
        ];
        for a in attacks {
            let req = HttpRequest::get("v", "/x.php", a);
            let d = e.evaluate(&req);
            assert!(d.flagged, "missed {a} (score {})", d.score);
        }
    }

    #[test]
    fn scoring_accumulates_across_rules() {
        let e = ModsecEngine::new();
        let req = HttpRequest::get("v", "/x.php", "id=-1+union+select+1,null,null+from+users--");
        let d = e.evaluate(&req);
        assert!(d.matched_rules.len() >= 3, "{:?}", d.matched_rules);
        assert!(d.score >= 10.0);
    }

    #[test]
    fn plain_benign_traffic_scores_low() {
        let e = ModsecEngine::new();
        for q in ["page=2&sort=asc", "q=labor+union+history", "uid=17&dept=ee"] {
            let req = HttpRequest::get("w", "/index.php", q);
            let d = e.evaluate(&req);
            assert!(!d.flagged, "false positive on {q} (score {})", d.score);
        }
    }

    #[test]
    fn report_console_traffic_can_cross_threshold() {
        // The benign-but-SQL reporting console is what gives ModSec
        // its small but non-zero FPR in Table V.
        let e = ModsecEngine::new();
        let req = HttpRequest::get(
            "reports.university.example",
            "/admin/report.php",
            "query=select+title,+year+from+catalog+order+by+year&format=csv",
        );
        let d = e.evaluate(&req);
        assert!(d.score >= 3.0, "score {}", d.score);
    }

    #[test]
    fn threshold_is_adjustable() {
        let strict = ModsecEngine::with_threshold(2);
        let lax = ModsecEngine::with_threshold(50);
        let req = HttpRequest::get("v", "/x.php", "id=1+order+by+5--");
        assert!(strict.evaluate(&req).flagged);
        assert!(!lax.evaluate(&req).flagged);
    }
}
