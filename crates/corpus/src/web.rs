//! An in-memory simulated web for the crawler to walk, with a
//! deterministic fault-injection layer.
//!
//! The paper crawled live portals (SecurityFocus, Exploit-DB,
//! PacketStorm, OSVDB) between April and June 2012. Offline, the same
//! crawler logic runs against this deterministic page store. Real
//! 2012-era portals were not reliable HTTP servers: they threw 503s
//! under load, rate-limited aggressive clients, stalled, and served
//! truncated or mis-encoded bodies. [`FaultPlan`] reproduces that
//! flakiness deterministically so the crawler's retry/backoff/
//! salvage machinery can be exercised and regression-tested.

use psigene_http::parse_url;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use std::collections::HashMap;

/// Content type of a simulated resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentType {
    /// An HTML page (links + embedded samples).
    Html,
    /// A plain-text API response.
    Text,
}

/// One fetchable resource.
#[derive(Debug, Clone)]
pub struct Page {
    /// Absolute URL of the page.
    pub url: String,
    /// Body.
    pub body: String,
    /// Content type.
    pub content_type: ContentType,
}

/// The simulated web: URL → page.
#[derive(Debug, Default)]
pub struct SimulatedWeb {
    pages: HashMap<String, Page>,
}

/// A hard failure injected into one fetch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// HTTP 503 from an overloaded portal.
    ServerError,
    /// TCP connection reset mid-transfer.
    ConnectionReset,
    /// HTTP 429; the server asks the client to wait this much
    /// (virtual) time before retrying.
    RateLimited {
        /// Advertised `Retry-After`, in virtual nanoseconds.
        retry_after_nanos: u64,
    },
}

/// What one fetch attempt produced.
#[derive(Debug)]
pub enum FetchOutcome<'a> {
    /// A 200 response. The body may still be damaged in transit:
    /// compare `body.len()` against `declared_len` (the server's
    /// Content-Length) — shorter means truncated, longer means the
    /// portal double-escaped its HTML entities.
    Success {
        /// The transferred body (borrowed when undamaged).
        body: Cow<'a, str>,
        /// Content type of the resource.
        content_type: ContentType,
        /// Content-Length the server declared for the true body.
        declared_len: usize,
        /// Virtual time the response took.
        latency_nanos: u64,
    },
    /// 404 — no page at that URL. Never retried.
    NotFound,
    /// An injected fault (retryable).
    Fault(Fault),
}

/// A seeded, fully reproducible plan of injected faults.
///
/// Every outcome is a pure function of `(seed, url, attempt)` — not
/// of the crawl order — so an interrupted-and-resumed crawl observes
/// exactly the same faults as an uninterrupted one.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the per-attempt outcome derivation.
    pub seed: u64,
    /// Probability of an HTTP 503 per attempt.
    pub server_error_rate: f64,
    /// Probability of a connection reset per attempt.
    pub reset_rate: f64,
    /// Probability of an HTTP 429 per attempt.
    pub rate_limit_rate: f64,
    /// Probability of a response slower than any sane deadline.
    pub slow_rate: f64,
    /// Probability of a truncated body per attempt.
    pub truncate_rate: f64,
    /// Probability of an entity-mangled (double-escaped) body.
    pub mangle_rate: f64,
    /// Latency of a healthy response, in virtual nanoseconds.
    pub base_latency_nanos: u64,
    /// Latency of a "slow" response (meant to exceed the crawler's
    /// deadline), in virtual nanoseconds.
    pub slow_latency_nanos: u64,
    /// `Retry-After` advertised by injected 429s.
    pub retry_after_nanos: u64,
    /// Every attempt to these hosts fails with a 503, regardless of
    /// the rates above (lowercase host names).
    pub dead_hosts: Vec<String>,
    /// Test hook: when non-zero, every fetch fails with a 503 on
    /// attempts `0..n`, then behaves per the rates. Lets tests pin
    /// "faulted then recovered" paths deterministically.
    pub fail_first_attempts: u32,
}

impl FaultPlan {
    /// A plan that never faults (the pre-fault-layer behaviour).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            server_error_rate: 0.0,
            reset_rate: 0.0,
            rate_limit_rate: 0.0,
            slow_rate: 0.0,
            truncate_rate: 0.0,
            mangle_rate: 0.0,
            base_latency_nanos: 2_000_000,     // 2 ms
            slow_latency_nanos: 2_000_000_000, // 2 s
            retry_after_nanos: 250_000_000,    // 250 ms
            dead_hosts: Vec::new(),
            fail_first_attempts: 0,
        }
    }

    /// A plan with `rate` total fault probability per attempt, split
    /// across all fault kinds (40 % hard transients, 15 % each of
    /// rate-limits, slow responses, truncation and entity-mangling).
    pub fn uniform(rate: f64, seed: u64) -> FaultPlan {
        let rate = rate.clamp(0.0, 1.0);
        FaultPlan {
            seed,
            server_error_rate: 0.30 * rate,
            reset_rate: 0.10 * rate,
            rate_limit_rate: 0.15 * rate,
            slow_rate: 0.15 * rate,
            truncate_rate: 0.15 * rate,
            mangle_rate: 0.15 * rate,
            ..FaultPlan::none()
        }
    }

    /// Adds a host whose every fetch fails (a portal that is down for
    /// the whole crawl).
    pub fn with_dead_host(mut self, host: &str) -> FaultPlan {
        self.dead_hosts.push(host.to_ascii_lowercase());
        self
    }

    /// Total per-attempt fault probability.
    pub fn total_rate(&self) -> f64 {
        self.server_error_rate
            + self.reset_rate
            + self.rate_limit_rate
            + self.slow_rate
            + self.truncate_rate
            + self.mangle_rate
    }

    /// The deterministic RNG for one `(url, attempt)` pair. `salt`
    /// separates independent consumers (fault draw vs. backoff
    /// jitter) so they do not share a stream.
    pub fn derive_rng(&self, url: &str, attempt: u32, salt: u64) -> ChaCha8Rng {
        let mut h = fnv1a(url.as_bytes());
        h ^= (u64::from(attempt) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ChaCha8Rng::seed_from_u64(self.seed ^ h ^ salt)
    }
}

/// FNV-1a over a byte string (stable across platforms and runs).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FAULT_SALT: u64 = 0xfa01;

impl SimulatedWeb {
    /// An empty web.
    pub fn new() -> SimulatedWeb {
        SimulatedWeb::default()
    }

    /// Publishes a page, replacing any previous one at that URL.
    pub fn publish(&mut self, page: Page) {
        self.pages.insert(page.url.clone(), page);
    }

    /// Fetches a URL without faults; `None` models a 404.
    pub fn fetch(&self, url: &str) -> Option<&Page> {
        self.pages.get(url)
    }

    /// Fetches a URL through the fault plan. `attempt` is 0 for the
    /// first try; retries pass 1, 2, … so each attempt draws an
    /// independent (but reproducible) outcome.
    pub fn fetch_with_plan<'a>(
        &'a self,
        url: &str,
        attempt: u32,
        plan: &FaultPlan,
    ) -> FetchOutcome<'a> {
        if !plan.dead_hosts.is_empty() {
            let host = parse_url(url).0;
            if plan.dead_hosts.contains(&host) {
                return FetchOutcome::Fault(Fault::ServerError);
            }
        }
        if attempt < plan.fail_first_attempts {
            return FetchOutcome::Fault(Fault::ServerError);
        }
        let page = match self.pages.get(url) {
            Some(p) => p,
            None => return FetchOutcome::NotFound,
        };
        let declared_len = page.body.len();
        if plan.total_rate() == 0.0 {
            return FetchOutcome::Success {
                body: Cow::Borrowed(&page.body),
                content_type: page.content_type,
                declared_len,
                latency_nanos: plan.base_latency_nanos,
            };
        }
        let mut rng = plan.derive_rng(url, attempt, FAULT_SALT);
        let roll: f64 = rng.gen();
        let mut band = plan.server_error_rate;
        if roll < band {
            return FetchOutcome::Fault(Fault::ServerError);
        }
        band += plan.reset_rate;
        if roll < band {
            return FetchOutcome::Fault(Fault::ConnectionReset);
        }
        band += plan.rate_limit_rate;
        if roll < band {
            return FetchOutcome::Fault(Fault::RateLimited {
                retry_after_nanos: plan.retry_after_nanos,
            });
        }
        band += plan.slow_rate;
        if roll < band {
            return FetchOutcome::Success {
                body: Cow::Borrowed(&page.body),
                content_type: page.content_type,
                declared_len,
                latency_nanos: plan.slow_latency_nanos,
            };
        }
        band += plan.truncate_rate;
        if roll < band {
            return FetchOutcome::Success {
                body: Cow::Owned(truncate_body(&page.body, &mut rng)),
                content_type: page.content_type,
                declared_len,
                latency_nanos: plan.base_latency_nanos,
            };
        }
        band += plan.mangle_rate;
        if roll < band {
            return FetchOutcome::Success {
                body: Cow::Owned(mangle_entities(&page.body)),
                content_type: page.content_type,
                declared_len,
                latency_nanos: plan.base_latency_nanos,
            };
        }
        FetchOutcome::Success {
            body: Cow::Borrowed(&page.body),
            content_type: page.content_type,
            declared_len,
            latency_nanos: plan.base_latency_nanos,
        }
    }

    /// Number of published pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when nothing is published.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// Cuts a body at a random point in its middle (a transfer that died
/// partway), respecting UTF-8 boundaries.
fn truncate_body(body: &str, rng: &mut ChaCha8Rng) -> String {
    let frac = 0.25 + 0.65 * rng.gen();
    let mut cut = (body.len() as f64 * frac) as usize;
    while cut < body.len() && !body.is_char_boundary(cut) {
        cut += 1;
    }
    body[..cut].to_string()
}

/// Double-escapes every ampersand (a portal whose templating escaped
/// an already-escaped body). Exactly inverted by
/// `s.replace("&amp;", "&")`, which the crawler exploits to salvage.
fn mangle_entities(body: &str) -> String {
    body.replace('&', "&amp;")
}

/// Minimal HTML escaping for embedding attack payloads in pages.
/// Quotes are load-bearing for SQLi payloads (`'` starts most string
/// escapes), so both quote forms are escaped alongside `&`/`<`/`>`.
pub fn escape_html(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
        .replace('\'', "&#39;")
}

/// Inverse of [`escape_html`]. Also accepts the hex form `&#x27;` for
/// single quotes, which some portals emit. `&amp;` must be unescaped
/// last or entity text inside payloads would double-unescape.
pub fn unescape_html(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&#39;", "'")
        .replace("&#x27;", "'")
        .replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn publish_and_fetch() {
        let mut web = SimulatedWeb::new();
        web.publish(Page {
            url: "http://a.example/".into(),
            body: "hello".into(),
            content_type: ContentType::Html,
        });
        assert_eq!(web.len(), 1);
        assert!(web.fetch("http://a.example/").is_some());
        assert!(web.fetch("http://missing.example/").is_none());
    }

    #[test]
    fn escape_roundtrip() {
        let hostile = "1<2 & x > y &amp; <=>";
        assert_eq!(unescape_html(&escape_html(hostile)), hostile);
    }

    #[test]
    fn escape_roundtrip_quotes() {
        // Single and double quotes are the load-bearing characters of
        // most SQLi payloads; they must survive a publish/crawl cycle.
        let payload = r#"id=1' or '1'='1' -- "x""#;
        assert_eq!(unescape_html(&escape_html(payload)), payload);
        assert_eq!(escape_html("'"), "&#39;");
        assert_eq!(escape_html("\""), "&quot;");
        assert_eq!(unescape_html("&#x27;"), "'");
    }

    #[test]
    fn escape_ordering_is_safe() {
        // `&` must be escaped first or `<` escapes double-escape.
        assert_eq!(escape_html("<"), "&lt;");
        assert_eq!(escape_html("&lt;"), "&amp;lt;");
        assert_eq!(unescape_html("&amp;lt;"), "&lt;");
        // Entity text already in the payload survives the round trip.
        assert_eq!(unescape_html(&escape_html("&#39;")), "&#39;");
        assert_eq!(unescape_html(&escape_html("&quot;lit")), "&quot;lit");
    }

    proptest! {
        #[test]
        fn escape_unescape_roundtrip_arbitrary(
            s in proptest::string::string_regex(
                "([ -~]|&lt;|&gt;|&amp;|&quot;|&#39;|&#x27;){0,48}"
            ).unwrap()
        ) {
            prop_assert_eq!(unescape_html(&escape_html(&s)), s);
        }
    }

    #[test]
    fn clean_plan_fetch_matches_direct_fetch() {
        let mut web = SimulatedWeb::new();
        web.publish(Page {
            url: "http://a.example/x".into(),
            body: "payload & <body>".into(),
            content_type: ContentType::Html,
        });
        match web.fetch_with_plan("http://a.example/x", 0, &FaultPlan::none()) {
            FetchOutcome::Success {
                body, declared_len, ..
            } => {
                assert_eq!(body.as_ref(), "payload & <body>");
                assert_eq!(declared_len, body.len());
            }
            other => panic!("expected success, got {other:?}"),
        }
        assert!(matches!(
            web.fetch_with_plan("http://a.example/gone", 0, &FaultPlan::none()),
            FetchOutcome::NotFound
        ));
    }

    #[test]
    fn fault_outcomes_are_deterministic_per_url_and_attempt() {
        let mut web = SimulatedWeb::new();
        for i in 0..64 {
            web.publish(Page {
                url: format!("http://a.example/{i}"),
                body: format!("<html>page {i} &amp; entities</html>"),
                content_type: ContentType::Html,
            });
        }
        let plan = FaultPlan::uniform(0.5, 42);
        for i in 0..64 {
            let url = format!("http://a.example/{i}");
            for attempt in 0..3 {
                let a = describe(&web.fetch_with_plan(&url, attempt, &plan));
                let b = describe(&web.fetch_with_plan(&url, attempt, &plan));
                assert_eq!(a, b, "outcome for ({url}, {attempt}) not reproducible");
            }
        }
    }

    fn describe(o: &FetchOutcome<'_>) -> String {
        match o {
            FetchOutcome::Success {
                body,
                latency_nanos,
                ..
            } => format!("ok:{}:{latency_nanos}", body.len()),
            FetchOutcome::NotFound => "404".into(),
            FetchOutcome::Fault(f) => format!("{f:?}"),
        }
    }

    #[test]
    fn dead_host_always_faults_case_insensitively() {
        let mut web = SimulatedWeb::new();
        web.publish(Page {
            url: "http://down.example/".into(),
            body: "x".into(),
            content_type: ContentType::Html,
        });
        let plan = FaultPlan::none().with_dead_host("Down.Example");
        for attempt in 0..8 {
            assert!(matches!(
                web.fetch_with_plan("http://down.example/", attempt, &plan),
                FetchOutcome::Fault(Fault::ServerError)
            ));
        }
    }

    #[test]
    fn mangled_bodies_are_exactly_repairable() {
        let body = "<pre class=\"sample\">id=1&#39; or &quot;a&quot;=&quot;a</pre>";
        let mangled = mangle_entities(body);
        assert!(mangled.len() > body.len());
        assert_eq!(mangled.replace("&amp;", "&"), body);
    }

    #[test]
    fn truncation_respects_char_boundaries() {
        let body = "héllo wörld — ünïcode body with some length to cut";
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..32 {
            let cut = truncate_body(body, &mut rng);
            assert!(cut.len() < body.len());
            assert!(body.starts_with(&cut));
        }
    }
}
