//! Audit of the bundled rulesets — the observations of the paper's
//! introduction (§I) made runnable: disabled-rule shares, near-
//! duplicate signatures, and overly simple regexes that fire on
//! benign traffic.
//!
//! ```text
//! cargo run --release -p psigene --example ruleset_audit
//! ```

use psigene::psigene_http::HttpRequest;
use psigene::psigene_rulesets::{
    bro::bro_rules,
    modsec::modsec_rules,
    render_table_iv,
    snort::{et_generated_rules, snort_rules},
    table_iv,
};
use psigene::psigene_rulesets::{DetectionEngine, SnortEngine};

fn main() {
    // Table IV: structural statistics per ruleset.
    println!("{}", render_table_iv(&table_iv()));

    // Observation 1: large disabled shares.
    let snort = snort_rules();
    let disabled = snort.iter().filter(|r| !r.enabled).count();
    println!(
        "observation 1: {disabled}/{} Snort SQLi rules ship disabled; all {} generated \
         ET rules do",
        snort.len(),
        et_generated_rules().len()
    );

    // Observation 2: near-duplicate rules (the paper's 19439/19440
    // example: same regex except the last character).
    let mut near_dupes = 0;
    for (i, a) in snort.iter().enumerate() {
        for b in snort.iter().skip(i + 1) {
            if let (
                psigene::psigene_rulesets::Matcher::Regex(pa),
                psigene::psigene_rulesets::Matcher::Regex(pb),
            ) = (&a.matcher, &b.matcher)
            {
                let min = pa.len().min(pb.len());
                if min > 4 && pa.len().abs_diff(pb.len()) <= 1 && pa[..min - 1] == pb[..min - 1] {
                    near_dupes += 1;
                    println!(
                        "observation 2: rules {} and {} could be merged ({pa:?} vs {pb:?})",
                        a.id, b.id
                    );
                }
            }
        }
    }
    if near_dupes == 0 {
        println!("observation 2: no near-duplicate pairs found");
    }

    // Observation 3: simple regexes fire on benign SQL-looking
    // traffic (the paper's `.+UNION\s+SELECT` critique).
    let engine = SnortEngine::new();
    let benign_but_sqlish = [
        "query=select+name+from+dept_report&format=csv",
        "q=select+count(*)+from+enrollment",
    ];
    for q in benign_but_sqlish {
        let d = engine.evaluate(&HttpRequest::get("reports.example", "/report.php", q));
        println!(
            "observation 3: benign report query {:?} -> {}",
            q,
            if d.flagged {
                format!("FALSE ALARM (rule {:?})", d.matched_rules)
            } else {
                "passed".to_string()
            }
        );
    }

    // Regex-length distributions per ruleset.
    println!("\nregex length distribution (chars):");
    for (name, rules) in [
        ("bro", bro_rules()),
        ("snort", snort_rules()),
        ("modsec", modsec_rules()),
    ] {
        let mut lens: Vec<usize> = rules
            .iter()
            .filter(|r| r.matcher.is_regex())
            .map(|r| r.matcher.pattern_len())
            .collect();
        lens.sort_unstable();
        let median = lens[lens.len() / 2];
        println!(
            "  {name:<8} n={:<5} median={median:<6} min={} max={}",
            lens.len(),
            lens.first().unwrap(),
            lens.last().unwrap()
        );
    }
}
