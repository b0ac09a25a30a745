//! Benign HTTP traffic generator.
//!
//! Models the paper's FPR test trace: one week of traffic to a
//! university's "institutional web servers, the registration and
//! payment servers, and the web interface for the mailing servers"
//! (§III-B). A small tail of requests legitimately contains SQL
//! keywords (search queries, a reporting console, course titles like
//! "labor union history") — exactly the traffic that provokes false
//! positives in keyword-matching rulesets.

use crate::dataset::{Dataset, Label, Sample, Source};
use psigene_http::HttpRequest;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of the benign generator.
#[derive(Debug, Clone, Copy)]
pub struct BenignConfig {
    /// Number of requests to produce.
    pub requests: usize,
    /// Fraction of requests drawn from the SQL-keyword-bearing tail
    /// (default 0.01; the classic benign-but-SQL-looking traffic).
    pub sqlish_fraction: f64,
    /// Include the *novel* SQL-ish tail: request shapes that do not
    /// occur in training traces (a reporting console extended during
    /// the capture week). Test traces set this; training traces leave
    /// it off — it is what gives learning-based detectors their small
    /// non-zero FPR on unseen-but-benign traffic.
    pub include_novel_tail: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BenignConfig {
    fn default() -> BenignConfig {
        BenignConfig {
            requests: 20_000,
            sqlish_fraction: 0.01,
            include_novel_tail: false,
            seed: 0x5eed_beef,
        }
    }
}

const SEARCH_WORDS: &[&str] = &[
    "syllabus",
    "admission",
    "tuition",
    "housing",
    "library",
    "calendar",
    "schedule",
    "parking",
    "transcript",
    "grades",
    "financial",
    "aid",
    "professor",
    "research",
    "lecture",
    "campus",
    "dining",
    "semester",
    "thesis",
    "graduate",
    "registration",
    "orientation",
    "scholarship",
];

/// Phrases that are perfectly benign but contain SQL keywords —
/// the source of false positives in keyword-based rulesets.
const SQLISH_PHRASES: &[&str] = &[
    "student union events",
    "labor union history",
    "select committee report",
    "course selection guide",
    "union square directions",
    "how to select a major",
    "order by deadline",
    "sort order by name",
    "credit union banking",
    "group by research area",
    "where is the bookstore",
    "update my address form",
    "insert coin arcade night",
    "delete my account request",
    "union of concerned scientists",
    "natural join seminar notes",
];

/// Benign reporting-console queries: a legitimate internal tool whose
/// parameters carry real SQL fragments. The paper's Snort FPR (0.17 %)
/// comes from exactly this kind of traffic.
const REPORT_QUERIES: &[&str] = &[
    "select name from dept_report",
    "select count(*) from enrollment",
    "select title, year from catalog order by year",
    "select avg(gpa) from stats group by college",
];

/// Richer console queries deployed *after* the training capture —
/// present only in test traces (`include_novel_tail`). Their shapes
/// (where-clauses with quoted literals, in-lists) overlap attack
/// feature space more than the old queries do.
const NOVEL_REPORT_QUERIES: &[&str] = &[
    "select year, total from budget_report where year = 2012 order by total",
    "select name, email from staff where dept = 'ee' and active = 1",
    "select id from waitlist where term in (201201, 201208) order by id",
    "select count(*), college from stats where gpa > 3 group by college",
    "select title from catalog where title like 'union%' limit 20",
];

const PATHS: &[(&str, &[&str])] = &[
    ("/index.php", &["page", "lang", "ref"]),
    ("/courses/view.php", &["id", "term", "sec"]),
    ("/registration/enroll.php", &["crn", "term", "action"]),
    ("/payment/invoice.php", &["invoice", "account", "cycle"]),
    ("/mail/read.php", &["folder", "msg", "sort"]),
    ("/news/article.php", &["aid", "cat"]),
    ("/directory/person.php", &["uid", "dept"]),
    ("/library/search.php", &["q", "type", "page"]),
    ("/events/calendar.php", &["month", "year", "view"]),
    ("/download.php", &["file", "mirror"]),
];

/// Generates the benign dataset.
pub fn generate(config: &BenignConfig) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut ds = Dataset::new();
    for _ in 0..config.requests {
        let request = if rng.gen_bool(config.sqlish_fraction.clamp(0.0, 1.0)) {
            sqlish_request(&mut rng, config.include_novel_tail)
        } else {
            plain_request(&mut rng)
        };
        ds.samples.push(Sample {
            request,
            label: Label::Benign,
            source: Source::BenignTrace,
        });
    }
    ds
}

fn plain_request<R: Rng>(rng: &mut R) -> HttpRequest {
    let (path, params) = PATHS[rng.gen_range(0..PATHS.len())];
    let mut parts = Vec::new();
    let n = rng.gen_range(1..=params.len());
    for p in params.iter().take(n) {
        let value = match rng.gen_range(0..5) {
            0 => rng.gen_range(1..10_000).to_string(),
            1 => SEARCH_WORDS[rng.gen_range(0..SEARCH_WORDS.len())].to_string(),
            2 => format!("{}-{}", rng.gen_range(2010..2014), rng.gen_range(1..13)),
            3 => ["asc", "desc", "new", "old", "all"][rng.gen_range(0..5)].to_string(),
            _ => {
                // Multi-word search text, `+`-encoded like browsers do.
                let k = rng.gen_range(1..4);
                (0..k)
                    .map(|_| SEARCH_WORDS[rng.gen_range(0..SEARCH_WORDS.len())])
                    .collect::<Vec<_>>()
                    .join("+")
            }
        };
        parts.push(format!("{p}={value}"));
    }
    HttpRequest::get("www.university.example", path, &parts.join("&"))
}

fn sqlish_request<R: Rng>(rng: &mut R, include_novel: bool) -> HttpRequest {
    if rng.gen_bool(0.17) {
        // The internal reporting console: raw SQL in a parameter.
        let q = if include_novel && rng.gen_bool(0.35) {
            NOVEL_REPORT_QUERIES[rng.gen_range(0..NOVEL_REPORT_QUERIES.len())]
        } else {
            REPORT_QUERIES[rng.gen_range(0..REPORT_QUERIES.len())]
        };
        let enc = q.replace(' ', "+");
        HttpRequest::get(
            "reports.university.example",
            "/admin/report.php",
            &format!("query={enc}&format=csv"),
        )
    } else {
        let phrase = SQLISH_PHRASES[rng.gen_range(0..SQLISH_PHRASES.len())];
        let enc = phrase.replace(' ', "+");
        HttpRequest::get(
            "www.university.example",
            "/library/search.php",
            &format!("q={enc}&page={}", rng.gen_range(1..5)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        let ds = generate(&BenignConfig {
            requests: 500,
            ..BenignConfig::default()
        });
        assert_eq!(ds.len(), 500);
        assert_eq!(ds.attack_count(), 0);
    }

    #[test]
    fn sqlish_tail_present_at_configured_rate() {
        let ds = generate(&BenignConfig {
            requests: 5000,
            sqlish_fraction: 0.05,
            include_novel_tail: false,
            seed: 7,
        });
        let sqlish = ds
            .samples
            .iter()
            .filter(|s| {
                let q = String::from_utf8_lossy(s.request.detection_payload()).to_lowercase();
                q.contains("union") || q.contains("select") || q.contains("order+by")
            })
            .count();
        // Expected ~5% plus benign "order by" etc.; allow a wide band.
        assert!(sqlish > 50, "only {sqlish} SQL-ish benign requests");
        assert!(sqlish < 1000, "{sqlish} too many");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&BenignConfig {
            requests: 50,
            ..Default::default()
        });
        let b = generate(&BenignConfig {
            requests: 50,
            ..Default::default()
        });
        let qa: Vec<_> = a
            .samples
            .iter()
            .map(|s| s.request.raw_query().into_owned())
            .collect();
        let qb: Vec<_> = b
            .samples
            .iter()
            .map(|s| s.request.raw_query().into_owned())
            .collect();
        assert_eq!(qa, qb);
    }

    #[test]
    fn zero_requests_ok() {
        assert!(generate(&BenignConfig {
            requests: 0,
            ..Default::default()
        })
        .is_empty());
    }
}
