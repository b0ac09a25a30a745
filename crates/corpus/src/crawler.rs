//! The webcrawler (phase 1 of the pSigene pipeline), fault-tolerant.
//!
//! Breadth-first over the simulated web from seed URLs: follows
//! `href` links, consumes the plain-text search API of API-style
//! portals, and extracts attack payloads from `<pre class="sample">`
//! blocks. Full sample URLs are reduced to their query string per the
//! paper's rule (§II-A: "we extract the SQL query ... by leaving out
//! the HTTP address, the port, and the path").
//!
//! The crawl survives the faults a real 2012-era portal crawl had to
//! (see [`FaultPlan`]):
//!
//! * transient errors, rate limits and timeouts are retried with
//!   exponential backoff + deterministic jitter, bounded by
//!   [`CrawlerConfig::max_retries`] and a per-host politeness token
//!   bucket;
//! * damaged transfers (truncated bodies, double-escaped entities)
//!   are detected via the declared Content-Length; a clean copy is
//!   retried for, and when retries run out the best damaged copy is
//!   salvaged best-effort instead of dropping the page;
//! * pages that exhaust every recovery path land on a dead-letter
//!   list instead of aborting the crawl;
//! * [`Crawler::checkpoint`] snapshots the whole crawl state between
//!   pages, so a crawl killed mid-flight resumes without refetching
//!   completed pages — and, because fault outcomes are keyed by
//!   `(url, attempt)`, it produces byte-identical results.

use crate::web::{unescape_html, ContentType, Fault, FaultPlan, FetchOutcome, SimulatedWeb};
use psigene_http::split_target;
use psigene_telemetry::{Counter, Gauge, Histogram};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// A payload recovered by the crawler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawledSample {
    /// The extracted query-string payload.
    pub payload: String,
    /// The portal host it was found on.
    pub portal: String,
    /// The page URL it was found on.
    pub page_url: String,
}

/// Crawl statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrawlStats {
    /// Pages fetched successfully (including salvaged ones).
    pub pages_fetched: usize,
    /// Links seen (including duplicates).
    pub links_seen: usize,
    /// 404s encountered. Faulted-then-recovered fetches do not count.
    pub missing: usize,
    /// Retry attempts beyond each page's first fetch.
    pub retries: u64,
    /// Fault outcomes observed across all attempts (every kind:
    /// errors, resets, rate limits, timeouts, damaged bodies).
    pub faults: u64,
    /// 429 responses among the faults.
    pub rate_limited: u64,
    /// Responses discarded for exceeding the deadline.
    pub timeouts: u64,
    /// Damaged (truncated or entity-mangled) transfers observed.
    pub damaged: u64,
    /// Pages recovered from a damaged copy after retries ran out.
    pub salvaged: usize,
    /// Pages abandoned to the dead-letter list.
    pub dead_lettered: usize,
    /// Total virtual time spent backing off, in nanoseconds.
    pub backoff_nanos: u64,
}

/// A page the crawler gave up on, with its failure context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// The abandoned URL.
    pub url: String,
    /// Total fetch attempts made.
    pub attempts: u32,
    /// The last failure observed.
    pub last_error: String,
}

/// Result of a crawl.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrawlResult {
    /// Extracted samples, in crawl order; duplicates removed.
    pub samples: Vec<CrawledSample>,
    /// Statistics.
    pub stats: CrawlStats,
    /// Pages that exhausted every recovery path.
    pub dead_letters: Vec<DeadLetter>,
}

/// Crawler configuration.
#[derive(Debug, Clone)]
pub struct CrawlerConfig {
    /// Maximum pages to fetch (safety valve). An exact budget: the
    /// crawl stops once this many pages have been fetched.
    pub max_pages: usize,
    /// Restrict the crawl to the seeds' hosts.
    pub same_host_only: bool,
    /// Retries per page beyond the first attempt.
    pub max_retries: u32,
    /// First backoff duration (virtual nanoseconds); doubles per
    /// retry.
    pub backoff_base_nanos: u64,
    /// Backoff ceiling (virtual nanoseconds).
    pub backoff_cap_nanos: u64,
    /// Responses slower than this are treated as timeouts.
    pub deadline_nanos: u64,
    /// Politeness: the retry token bucket each host starts with. A
    /// retry spends one token; a successful page earns
    /// `host_retry_refill` back. A host with an empty bucket gets no
    /// more retries — its failing pages salvage or dead-letter
    /// immediately, so one struggling portal cannot monopolize the
    /// crawl.
    pub host_retry_budget: u32,
    /// Tokens returned to a host's bucket per successful page.
    pub host_retry_refill: u32,
}

impl Default for CrawlerConfig {
    fn default() -> CrawlerConfig {
        CrawlerConfig {
            max_pages: 100_000,
            same_host_only: true,
            max_retries: 5,
            backoff_base_nanos: 50_000_000,   // 50 ms
            backoff_cap_nanos: 3_200_000_000, // 3.2 s
            deadline_nanos: 1_000_000_000,    // 1 s
            host_retry_budget: 64,
            host_retry_refill: 1,
        }
    }
}

/// A serializable snapshot of an in-flight crawl, taken between
/// pages. Resuming from it (even in a fresh process) yields the same
/// [`CrawlResult`] as an uninterrupted crawl, because injected fault
/// outcomes depend only on `(url, attempt)`, never on crawl history.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlCheckpoint {
    /// URLs still to fetch, in BFS order.
    pub frontier: Vec<String>,
    /// Every URL ever enqueued (sorted for stable serialization).
    pub visited: Vec<String>,
    /// Hosts the crawl is allowed to touch (sorted).
    pub allowed_hosts: Vec<String>,
    /// Samples extracted so far, in crawl order.
    pub samples: Vec<CrawledSample>,
    /// Dead letters so far.
    pub dead_letters: Vec<DeadLetter>,
    /// Statistics so far.
    pub stats: CrawlStats,
    /// Remaining politeness tokens per host (sorted by host).
    pub host_tokens: Vec<(String, u32)>,
    /// Virtual clock, nanoseconds.
    pub clock_nanos: u64,
    /// Duplicate payloads suppressed so far.
    pub dedup_hits: u64,
}

impl CrawlCheckpoint {
    /// Serializes the checkpoint as a JSON document.
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        use std::collections::BTreeMap;
        let strings = |v: &[String]| Value::Array(v.iter().cloned().map(Value::String).collect());
        let num = |n: u64| Value::Number(n as f64);
        let mut root = BTreeMap::new();
        root.insert("frontier".into(), strings(&self.frontier));
        root.insert("visited".into(), strings(&self.visited));
        root.insert("allowed_hosts".into(), strings(&self.allowed_hosts));
        root.insert(
            "samples".into(),
            Value::Array(
                self.samples
                    .iter()
                    .map(|s| {
                        let mut m = BTreeMap::new();
                        m.insert("payload".into(), Value::String(s.payload.clone()));
                        m.insert("portal".into(), Value::String(s.portal.clone()));
                        m.insert("page_url".into(), Value::String(s.page_url.clone()));
                        Value::Object(m)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "dead_letters".into(),
            Value::Array(
                self.dead_letters
                    .iter()
                    .map(|d| {
                        let mut m = BTreeMap::new();
                        m.insert("url".into(), Value::String(d.url.clone()));
                        m.insert("attempts".into(), num(u64::from(d.attempts)));
                        m.insert("last_error".into(), Value::String(d.last_error.clone()));
                        Value::Object(m)
                    })
                    .collect(),
            ),
        );
        let s = &self.stats;
        let mut stats = BTreeMap::new();
        for (k, v) in [
            ("pages_fetched", s.pages_fetched as u64),
            ("links_seen", s.links_seen as u64),
            ("missing", s.missing as u64),
            ("retries", s.retries),
            ("faults", s.faults),
            ("rate_limited", s.rate_limited),
            ("timeouts", s.timeouts),
            ("damaged", s.damaged),
            ("salvaged", s.salvaged as u64),
            ("dead_lettered", s.dead_lettered as u64),
            ("backoff_nanos", s.backoff_nanos),
        ] {
            stats.insert(k.to_string(), num(v));
        }
        root.insert("stats".into(), Value::Object(stats));
        root.insert(
            "host_tokens".into(),
            Value::Object(
                self.host_tokens
                    .iter()
                    .map(|(h, t)| (h.clone(), num(u64::from(*t))))
                    .collect(),
            ),
        );
        root.insert("clock_nanos".into(), num(self.clock_nanos));
        root.insert("dedup_hits".into(), num(self.dedup_hits));
        serde_json::to_string(&Value::Object(root))
    }

    /// Parses a checkpoint previously produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<CrawlCheckpoint, String> {
        use serde_json::Value;
        let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let strings = |key: &str| -> Result<Vec<String>, String> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("missing array '{key}'"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("non-string in '{key}'"))
                })
                .collect()
        };
        let field_u64 = |obj: &Value, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing number '{key}'"))
        };
        let stats_v = v.get("stats").ok_or("missing 'stats'")?;
        let stats = CrawlStats {
            pages_fetched: field_u64(stats_v, "pages_fetched")? as usize,
            links_seen: field_u64(stats_v, "links_seen")? as usize,
            missing: field_u64(stats_v, "missing")? as usize,
            retries: field_u64(stats_v, "retries")?,
            faults: field_u64(stats_v, "faults")?,
            rate_limited: field_u64(stats_v, "rate_limited")?,
            timeouts: field_u64(stats_v, "timeouts")?,
            damaged: field_u64(stats_v, "damaged")?,
            salvaged: field_u64(stats_v, "salvaged")? as usize,
            dead_lettered: field_u64(stats_v, "dead_lettered")? as usize,
            backoff_nanos: field_u64(stats_v, "backoff_nanos")?,
        };
        let samples = v
            .get("samples")
            .and_then(Value::as_array)
            .ok_or("missing 'samples'")?
            .iter()
            .map(|s| {
                let text = |key: &str| {
                    s.get(key)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("sample missing '{key}'"))
                };
                Ok(CrawledSample {
                    payload: text("payload")?,
                    portal: text("portal")?,
                    page_url: text("page_url")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let dead_letters = v
            .get("dead_letters")
            .and_then(Value::as_array)
            .ok_or("missing 'dead_letters'")?
            .iter()
            .map(|d| {
                Ok(DeadLetter {
                    url: d
                        .get("url")
                        .and_then(Value::as_str)
                        .ok_or("dead letter missing 'url'")?
                        .to_string(),
                    attempts: field_u64(d, "attempts")? as u32,
                    last_error: d
                        .get("last_error")
                        .and_then(Value::as_str)
                        .ok_or("dead letter missing 'last_error'")?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let host_tokens = v
            .get("host_tokens")
            .and_then(Value::as_object)
            .ok_or("missing 'host_tokens'")?
            .iter()
            .map(|(h, t)| {
                t.as_u64()
                    .map(|t| (h.clone(), t as u32))
                    .ok_or_else(|| format!("bad token count for '{h}'"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(CrawlCheckpoint {
            frontier: strings("frontier")?,
            visited: strings("visited")?,
            allowed_hosts: strings("allowed_hosts")?,
            samples,
            dead_letters,
            stats,
            host_tokens,
            clock_nanos: field_u64(&v, "clock_nanos")?,
            dedup_hits: field_u64(&v, "dedup_hits")?,
        })
    }
}

/// Pre-resolved telemetry handles (the crawl loop should not pay a
/// string-keyed registry lookup per event).
struct CrawlMetrics {
    retries: Arc<Counter>,
    backoff: Arc<Histogram>,
    ok: Arc<Counter>,
    not_found: Arc<Counter>,
    server_error: Arc<Counter>,
    reset: Arc<Counter>,
    rate_limited: Arc<Counter>,
    timeout: Arc<Counter>,
    damaged: Arc<Counter>,
    salvaged: Arc<Counter>,
    dead_letter: Arc<Gauge>,
}

impl CrawlMetrics {
    fn new() -> CrawlMetrics {
        let t = psigene_telemetry::global();
        CrawlMetrics {
            retries: t.counter("crawl.retries"),
            backoff: t.histogram("crawl.backoff_nanos"),
            ok: t.counter("crawl.outcome.ok"),
            not_found: t.counter("crawl.outcome.not_found"),
            server_error: t.counter("crawl.outcome.server_error"),
            reset: t.counter("crawl.outcome.connection_reset"),
            rate_limited: t.counter("crawl.outcome.rate_limited"),
            timeout: t.counter("crawl.outcome.timeout"),
            damaged: t.counter("crawl.outcome.damaged"),
            salvaged: t.counter("crawl.salvaged_pages"),
            dead_letter: t.gauge("crawl.dead_letter"),
        }
    }
}

/// The best damaged copy of a page retained across attempts, in case
/// no clean copy ever arrives.
struct DamagedCopy {
    body: String,
    content_type: ContentType,
    /// Mangled copies (rank 2) are fully repairable and beat
    /// truncated ones (rank 1); longer truncations beat shorter.
    rank: u8,
}

/// An incremental, fault-tolerant crawl. Use [`crawl`] /
/// [`crawl_with_faults`] for the one-shot path; drive [`step`]
/// manually (with [`checkpoint`]/[`resume`]) for interruptible
/// crawls.
///
/// [`step`]: Crawler::step
/// [`checkpoint`]: Crawler::checkpoint
/// [`resume`]: Crawler::resume
pub struct Crawler<'a> {
    web: &'a SimulatedWeb,
    config: CrawlerConfig,
    plan: FaultPlan,
    frontier: VecDeque<String>,
    visited: HashSet<String>,
    seen_payloads: HashSet<String>,
    samples: Vec<CrawledSample>,
    dead_letters: Vec<DeadLetter>,
    stats: CrawlStats,
    allowed_hosts: HashSet<String>,
    host_tokens: HashMap<String, u32>,
    clock_nanos: u64,
    dedup_hits: u64,
    metrics: CrawlMetrics,
}

const JITTER_SALT: u64 = 0xb0ff;

impl<'a> Crawler<'a> {
    /// Starts a crawl from `seeds`.
    pub fn new(
        web: &'a SimulatedWeb,
        seeds: &[String],
        config: CrawlerConfig,
        plan: FaultPlan,
    ) -> Crawler<'a> {
        Crawler {
            web,
            config,
            plan,
            frontier: seeds.iter().cloned().collect(),
            visited: seeds.iter().cloned().collect(),
            seen_payloads: HashSet::new(),
            samples: Vec::new(),
            dead_letters: Vec::new(),
            stats: CrawlStats::default(),
            allowed_hosts: seeds.iter().map(|s| host_of(s)).collect(),
            host_tokens: HashMap::new(),
            clock_nanos: 0,
            dedup_hits: 0,
            metrics: CrawlMetrics::new(),
        }
    }

    /// Rebuilds a crawl from a [`CrawlCheckpoint`]; continuing it
    /// yields the same result an uninterrupted crawl would have.
    pub fn resume(
        web: &'a SimulatedWeb,
        config: CrawlerConfig,
        plan: FaultPlan,
        checkpoint: CrawlCheckpoint,
    ) -> Crawler<'a> {
        Crawler {
            web,
            config,
            plan,
            frontier: checkpoint.frontier.into_iter().collect(),
            visited: checkpoint.visited.into_iter().collect(),
            seen_payloads: checkpoint
                .samples
                .iter()
                .map(|s| s.payload.clone())
                .collect(),
            samples: checkpoint.samples,
            dead_letters: checkpoint.dead_letters,
            stats: checkpoint.stats,
            allowed_hosts: checkpoint.allowed_hosts.into_iter().collect(),
            host_tokens: checkpoint.host_tokens.into_iter().collect(),
            clock_nanos: checkpoint.clock_nanos,
            dedup_hits: checkpoint.dedup_hits,
            metrics: CrawlMetrics::new(),
        }
    }

    /// Snapshots the crawl between pages.
    pub fn checkpoint(&self) -> CrawlCheckpoint {
        let mut visited: Vec<String> = self.visited.iter().cloned().collect();
        visited.sort_unstable();
        let mut allowed_hosts: Vec<String> = self.allowed_hosts.iter().cloned().collect();
        allowed_hosts.sort_unstable();
        let mut host_tokens: Vec<(String, u32)> = self
            .host_tokens
            .iter()
            .map(|(h, t)| (h.clone(), *t))
            .collect();
        host_tokens.sort_unstable();
        CrawlCheckpoint {
            frontier: self.frontier.iter().cloned().collect(),
            visited,
            allowed_hosts,
            samples: self.samples.clone(),
            dead_letters: self.dead_letters.clone(),
            stats: self.stats.clone(),
            host_tokens,
            clock_nanos: self.clock_nanos,
            dedup_hits: self.dedup_hits,
        }
    }

    /// Processes one frontier URL to completion (all retries
    /// included). Returns `false` when the crawl is finished.
    pub fn step(&mut self) -> bool {
        if self.stats.pages_fetched >= self.config.max_pages {
            return false;
        }
        let url = match self.frontier.pop_front() {
            Some(u) => u,
            None => return false,
        };
        let host = host_of(&url);
        let mut best_damaged: Option<DamagedCopy> = None;
        let mut attempt: u32 = 0;
        loop {
            let mut rate_limit_wait = 0u64;
            let last_error: &'static str;
            match self.web.fetch_with_plan(&url, attempt, &self.plan) {
                FetchOutcome::NotFound => {
                    self.stats.missing += 1;
                    self.metrics.not_found.inc();
                    return true;
                }
                FetchOutcome::Success {
                    body,
                    content_type,
                    declared_len,
                    latency_nanos,
                } => {
                    self.clock_nanos += latency_nanos;
                    if latency_nanos > self.config.deadline_nanos {
                        // The body never finished inside the deadline;
                        // it was abandoned, not read.
                        self.stats.timeouts += 1;
                        self.stats.faults += 1;
                        self.metrics.timeout.inc();
                        last_error = "deadline exceeded";
                    } else if body.len() != declared_len {
                        self.stats.damaged += 1;
                        self.stats.faults += 1;
                        self.metrics.damaged.inc();
                        let rank = if body.len() > declared_len { 2 } else { 1 };
                        let better = match &best_damaged {
                            None => true,
                            Some(prev) => {
                                rank > prev.rank
                                    || (rank == prev.rank && body.len() > prev.body.len())
                            }
                        };
                        if better {
                            best_damaged = Some(DamagedCopy {
                                body: body.into_owned(),
                                content_type,
                                rank,
                            });
                        }
                        last_error = "content-length mismatch";
                    } else {
                        let owned = body.into_owned();
                        self.process_page(&url, &host, &owned, content_type, false);
                        self.stats.pages_fetched += 1;
                        self.metrics.ok.inc();
                        self.refill_tokens(&host);
                        return true;
                    }
                }
                FetchOutcome::Fault(fault) => {
                    self.stats.faults += 1;
                    self.clock_nanos += self.plan.base_latency_nanos;
                    match fault {
                        Fault::ServerError => {
                            self.metrics.server_error.inc();
                            last_error = "503 service unavailable";
                        }
                        Fault::ConnectionReset => {
                            self.metrics.reset.inc();
                            last_error = "connection reset by peer";
                        }
                        Fault::RateLimited { retry_after_nanos } => {
                            self.stats.rate_limited += 1;
                            self.metrics.rate_limited.inc();
                            rate_limit_wait = retry_after_nanos;
                            last_error = "429 too many requests";
                        }
                    }
                }
            }
            // The attempt failed; decide between retrying, salvaging
            // a damaged copy, and dead-lettering.
            if attempt >= self.config.max_retries || !self.take_token(&host) {
                if let Some(copy) = best_damaged.take() {
                    self.salvage(&url, &host, copy);
                } else {
                    self.stats.dead_lettered += 1;
                    self.dead_letters.push(DeadLetter {
                        url,
                        attempts: attempt + 1,
                        last_error: last_error.to_string(),
                    });
                    self.metrics.dead_letter.set(self.dead_letters.len() as f64);
                }
                return true;
            }
            self.stats.retries += 1;
            self.metrics.retries.inc();
            let backoff = self.backoff_for(&url, attempt).max(rate_limit_wait);
            self.stats.backoff_nanos += backoff;
            self.clock_nanos += backoff;
            self.metrics.backoff.record(backoff);
            attempt += 1;
        }
    }

    /// Runs the crawl to completion and returns the result.
    pub fn finish(mut self) -> CrawlResult {
        while self.step() {}
        let telemetry = psigene_telemetry::global();
        telemetry
            .counter("crawler.pages_fetched")
            .add(self.stats.pages_fetched as u64);
        telemetry
            .counter("crawler.links_seen")
            .add(self.stats.links_seen as u64);
        telemetry
            .counter("crawler.missing_pages")
            .add(self.stats.missing as u64);
        telemetry
            .counter("crawler.payloads_extracted")
            .add(self.samples.len() as u64);
        telemetry.counter("crawler.dedup_hits").add(self.dedup_hits);
        CrawlResult {
            samples: self.samples,
            stats: self.stats,
            dead_letters: self.dead_letters,
        }
    }

    /// Exponential backoff for retry `attempt` of `url`, with
    /// deterministic jitter in `[0.5, 1.0]` of the nominal value.
    fn backoff_for(&self, url: &str, attempt: u32) -> u64 {
        let nominal = self
            .config
            .backoff_base_nanos
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.config.backoff_cap_nanos);
        let jitter: f64 = {
            use rand::Rng;
            self.plan.derive_rng(url, attempt, JITTER_SALT).gen()
        };
        ((nominal as f64) * (0.5 + 0.5 * jitter)) as u64
    }

    /// Spends one politeness token for `host`; `false` when the
    /// bucket is empty.
    fn take_token(&mut self, host: &str) -> bool {
        let tokens = self
            .host_tokens
            .entry(host.to_string())
            .or_insert(self.config.host_retry_budget);
        if *tokens == 0 {
            false
        } else {
            *tokens -= 1;
            true
        }
    }

    /// Earns politeness tokens back after a successful page.
    fn refill_tokens(&mut self, host: &str) {
        let cap = self.config.host_retry_budget;
        let refill = self.config.host_retry_refill;
        let tokens = self.host_tokens.entry(host.to_string()).or_insert(cap);
        *tokens = (*tokens + refill).min(cap);
    }

    /// Best-effort recovery of a page from its least-damaged copy
    /// after retries ran out. Mangled copies (body longer than
    /// declared) were double-escaped in transit and repair exactly;
    /// truncated copies are parsed leniently with the trailing
    /// partial line dropped.
    fn salvage(&mut self, url: &str, host: &str, copy: DamagedCopy) {
        let (body, lenient) = if copy.rank == 2 {
            (copy.body.replace("&amp;", "&"), false)
        } else {
            (copy.body, true)
        };
        self.process_page(url, host, &body, copy.content_type, lenient);
        self.stats.pages_fetched += 1;
        self.stats.salvaged += 1;
        self.metrics.salvaged.inc();
        self.refill_tokens(host);
    }

    /// Extracts links and payloads from a successfully (or
    /// best-effort) fetched page body.
    fn process_page(
        &mut self,
        url: &str,
        host: &str,
        body: &str,
        content_type: ContentType,
        lenient: bool,
    ) {
        match content_type {
            ContentType::Html => {
                for link in extract_links(body) {
                    self.stats.links_seen += 1;
                    if self.config.same_host_only && !self.allowed_hosts.contains(&host_of(&link)) {
                        continue;
                    }
                    if self.visited.insert(link.clone()) {
                        self.frontier.push_back(link);
                    }
                }
                let (blocks, tail) = extract_sample_blocks(body);
                for raw in &blocks {
                    for line in raw.lines().map(str::trim).filter(|l| !l.is_empty()) {
                        self.record_payload(line, host, url);
                    }
                }
                if lenient {
                    if let Some(tail) = tail {
                        // An unterminated sample block on a truncated
                        // page: every complete line is salvageable,
                        // the final partial one is not.
                        for line in complete_lines(&tail) {
                            let line = line.trim();
                            if !line.is_empty() {
                                self.record_payload(line, host, url);
                            }
                        }
                    }
                }
            }
            ContentType::Text => {
                // API response: first line `NEXT: <url-or-none>`,
                // then one payload per line.
                let usable: Vec<&str> = if lenient {
                    complete_lines(body)
                } else {
                    body.lines().collect()
                };
                let mut lines = usable.into_iter();
                if let Some(first) = lines.next() {
                    if let Some(next) = first.strip_prefix("NEXT: ") {
                        if next != "none" && self.visited.insert(next.to_string()) {
                            self.frontier.push_back(next.to_string());
                        }
                    }
                }
                for line in lines.map(str::trim).filter(|l| !l.is_empty()) {
                    self.record_payload(line, host, url);
                }
            }
        }
    }

    /// Reduces one published line to its payload and records it,
    /// deduplicating byte-identical payloads.
    fn record_payload(&mut self, line: &str, host: &str, url: &str) {
        if let Some(payload) = reduce_to_query(line) {
            if self.seen_payloads.insert(payload.clone()) {
                self.samples.push(CrawledSample {
                    payload,
                    portal: host.to_string(),
                    page_url: url.to_string(),
                });
            } else {
                self.dedup_hits += 1;
            }
        }
    }
}

/// The lines of `s` that are certainly complete: when `s` does not
/// end in a newline its final line may have been cut mid-transfer, so
/// it is dropped.
fn complete_lines(s: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = s.lines().collect();
    if !s.ends_with('\n') {
        lines.pop();
    }
    lines
}

/// Crawls `web` from `seeds` over a perfectly reliable transport.
pub fn crawl(web: &SimulatedWeb, seeds: &[String], config: &CrawlerConfig) -> CrawlResult {
    crawl_with_faults(web, seeds, config, &FaultPlan::none())
}

/// Crawls `web` from `seeds` through a [`FaultPlan`].
pub fn crawl_with_faults(
    web: &SimulatedWeb,
    seeds: &[String],
    config: &CrawlerConfig,
    plan: &FaultPlan,
) -> CrawlResult {
    Crawler::new(web, seeds, config.clone(), plan.clone()).finish()
}

/// Extracts the host of an absolute URL, normalized to lowercase
/// (empty for relative ones).
fn host_of(url: &str) -> String {
    psigene_http::parse_url(url).0
}

/// Scans for `href="..."` links.
fn extract_links(html: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = html;
    while let Some(i) = rest.find("href=\"") {
        rest = &rest[i + 6..];
        if let Some(j) = rest.find('"') {
            out.push(unescape_html(&rest[..j]));
            rest = &rest[j + 1..];
        } else {
            break;
        }
    }
    out
}

/// Extracts the contents of `<pre class="sample">...</pre>` blocks.
/// The second value is an unterminated trailing block, present when
/// the page was cut before its `</pre>` — callers that trust the
/// transport ignore it; the salvage path mines it leniently.
fn extract_sample_blocks(html: &str) -> (Vec<String>, Option<String>) {
    const OPEN: &str = "<pre class=\"sample\">";
    const CLOSE: &str = "</pre>";
    let mut out = Vec::new();
    let mut rest = html;
    while let Some(i) = rest.find(OPEN) {
        rest = &rest[i + OPEN.len()..];
        match rest.find(CLOSE) {
            Some(j) => {
                out.push(unescape_html(&rest[..j]));
                rest = &rest[j + CLOSE.len()..];
            }
            None => return (out, Some(unescape_html(rest))),
        }
    }
    (out, None)
}

/// Reduces a published sample line to its query-string payload:
/// full URLs lose scheme/host/path (everything before the first `?`);
/// bare `param=payload` lines pass through; other lines are ignored.
fn reduce_to_query(line: &str) -> Option<String> {
    let candidate = if line.starts_with("http://") || line.starts_with("https://") {
        let after_scheme = &line[line.find("://").expect("scheme") + 3..];
        match after_scheme.find('?') {
            Some(i) => &after_scheme[i + 1..],
            None => return None,
        }
    } else if line.contains('=') {
        let (_, q) = split_target(line);
        if q.is_empty() {
            line
        } else {
            q
        }
    } else {
        return None;
    };
    if candidate.is_empty() {
        None
    } else {
        Some(candidate.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portal::{build_portals, PortalConfig};
    use crate::web::Page;

    #[test]
    fn crawl_recovers_all_planted_samples() {
        let corpus = build_portals(&PortalConfig {
            samples: 400,
            ..PortalConfig::default()
        });
        let result = crawl(&corpus.web, &corpus.seeds, &CrawlerConfig::default());
        let planted: HashSet<_> = corpus.planted.iter().map(|p| p.payload.clone()).collect();
        let crawled: HashSet<_> = result.samples.iter().map(|s| s.payload.clone()).collect();
        let missing: Vec<_> = planted.difference(&crawled).take(5).collect();
        assert!(
            missing.is_empty(),
            "crawler missed {} of {} payloads, e.g. {missing:?}",
            planted.len() - crawled.intersection(&planted).count(),
            planted.len()
        );
    }

    #[test]
    fn max_pages_is_an_exact_budget() {
        let corpus = build_portals(&PortalConfig {
            samples: 400,
            ..PortalConfig::default()
        });
        // Far more than 10 pages are reachable, so the budget must be
        // hit exactly — not 9 (premature stop), not 11 (off-by-one).
        let result = crawl(
            &corpus.web,
            &corpus.seeds,
            &CrawlerConfig {
                max_pages: 10,
                ..CrawlerConfig::default()
            },
        );
        assert_eq!(result.stats.pages_fetched, 10);
    }

    #[test]
    fn links_seen_counts_duplicates() {
        let mut web = SimulatedWeb::new();
        web.publish(Page {
            url: "http://a.example/".into(),
            body: r#"<a href="http://a.example/b">1</a>
                     <a href="http://a.example/b">2</a>
                     <a href="http://a.example/c">3</a>"#
                .into(),
            content_type: ContentType::Html,
        });
        web.publish(Page {
            url: "http://a.example/b".into(),
            body: r#"<a href="http://a.example/c">again</a>"#.into(),
            content_type: ContentType::Html,
        });
        web.publish(Page {
            url: "http://a.example/c".into(),
            body: String::new(),
            content_type: ContentType::Html,
        });
        let result = crawl(
            &web,
            &["http://a.example/".to_string()],
            &CrawlerConfig::default(),
        );
        // 3 links on the seed + 1 on /b: duplicates counted, even
        // though /b and /c are each fetched once.
        assert_eq!(result.stats.links_seen, 4);
        assert_eq!(result.stats.pages_fetched, 3);
    }

    #[test]
    fn missing_counts_404s_but_not_recovered_faults() {
        let mut web = SimulatedWeb::new();
        web.publish(Page {
            url: "http://a.example/".into(),
            body: r#"<a href="http://a.example/gone">404</a>
                     <a href="http://a.example/flaky">ok</a>"#
                .into(),
            content_type: ContentType::Html,
        });
        web.publish(Page {
            url: "http://a.example/flaky".into(),
            body: "<pre class=\"sample\">id=1 union select 2</pre>".into(),
            content_type: ContentType::Html,
        });
        // Every fetch fails twice before succeeding: the flaky page
        // is faulted-then-recovered and must NOT count as missing.
        let plan = FaultPlan {
            fail_first_attempts: 2,
            ..FaultPlan::none()
        };
        let result = crawl_with_faults(
            &web,
            &["http://a.example/".to_string()],
            &CrawlerConfig::default(),
            &plan,
        );
        assert_eq!(result.stats.missing, 1, "only the real 404 is missing");
        assert_eq!(result.stats.pages_fetched, 2);
        assert_eq!(result.samples.len(), 1);
        // 3 URLs (the 404 also faults before resolving) × 2 failed
        // attempts each, all retried.
        assert_eq!(result.stats.retries, 6);
        assert!(result.stats.backoff_nanos > 0);
        assert!(result.dead_letters.is_empty());
    }

    #[test]
    fn same_host_restriction_holds() {
        let corpus = build_portals(&PortalConfig {
            samples: 100,
            ..PortalConfig::default()
        });
        // Crawl only the bugtraq seed; samples must come from bugtraq.
        let result = crawl(&corpus.web, &corpus.seeds[0..1], &CrawlerConfig::default());
        assert!(result.samples.iter().all(|s| s.portal == "bugtraq.example"));
        assert!(!result.samples.is_empty());
    }

    #[test]
    fn mixed_case_seed_does_not_fence_off_the_portal() {
        // Regression: `same_host_only` used to compare hosts
        // case-sensitively, so a `HTTP://Site.Example/` seed put
        // "Site.Example" on the allowlist and every lowercase link on
        // the portal was silently skipped.
        let mut web = SimulatedWeb::new();
        web.publish(Page {
            url: "HTTP://Site.Example/".into(),
            body: r#"<a href="http://site.example/adv">advisory</a>"#.into(),
            content_type: ContentType::Html,
        });
        web.publish(Page {
            url: "http://site.example/adv".into(),
            body: "<pre class=\"sample\">id=1' or 1=1--</pre>".into(),
            content_type: ContentType::Html,
        });
        let result = crawl(
            &web,
            &["HTTP://Site.Example/".to_string()],
            &CrawlerConfig::default(),
        );
        assert_eq!(result.samples.len(), 1, "lowercase link was fenced off");
        assert_eq!(result.samples[0].portal, "site.example");
    }

    #[test]
    fn reduce_to_query_rules() {
        assert_eq!(
            reduce_to_query("http://v.example/a/b.php?id=1' or 1=1--"),
            Some("id=1' or 1=1--".into())
        );
        assert_eq!(
            reduce_to_query("id=1 union select 2"),
            Some("id=1 union select 2".into())
        );
        assert_eq!(reduce_to_query("no payload here"), None);
        assert_eq!(reduce_to_query("http://v.example/no-query"), None);
    }

    #[test]
    fn link_extraction() {
        let html = r#"<a href="http://a/1">x</a> <a href="http://a/2?p=1&amp;q=2">y</a>"#;
        let links = extract_links(html);
        assert_eq!(links, vec!["http://a/1", "http://a/2?p=1&q=2"]);
    }

    #[test]
    fn sample_block_extraction_reports_unterminated_tail() {
        let whole = "<pre class=\"sample\">a=1</pre><pre class=\"sample\">b=2\nc=3";
        let (blocks, tail) = extract_sample_blocks(whole);
        assert_eq!(blocks, vec!["a=1".to_string()]);
        assert_eq!(tail.as_deref(), Some("b=2\nc=3"));
        let (blocks, tail) = extract_sample_blocks("<pre class=\"sample\">a=1</pre>");
        assert_eq!(blocks.len(), 1);
        assert!(tail.is_none());
    }

    #[test]
    fn missing_pages_counted() {
        let web = SimulatedWeb::new();
        let result = crawl(
            &web,
            &["http://gone.example/".to_string()],
            &CrawlerConfig::default(),
        );
        assert_eq!(result.stats.missing, 1);
        assert!(result.samples.is_empty());
    }

    #[test]
    fn checkpoint_json_roundtrip() {
        let corpus = build_portals(&PortalConfig {
            samples: 120,
            ..PortalConfig::default()
        });
        let mut crawler = Crawler::new(
            &corpus.web,
            &corpus.seeds,
            CrawlerConfig::default(),
            FaultPlan::uniform(0.3, 99),
        );
        for _ in 0..12 {
            if !crawler.step() {
                break;
            }
        }
        let ckpt = crawler.checkpoint();
        let json = ckpt.to_json();
        let parsed = CrawlCheckpoint::from_json(&json).expect("checkpoint parses");
        assert_eq!(parsed, ckpt);
    }

    #[test]
    fn politeness_budget_stops_hammering_a_dying_host() {
        // A host that fails every attempt, with many pages queued:
        // once the token bucket drains, later pages dead-letter after
        // a single attempt instead of burning max_retries each.
        let mut web = SimulatedWeb::new();
        let mut body = String::new();
        for i in 0..40 {
            body.push_str(&format!(r#"<a href="http://down.example/p{i}">x</a>"#));
        }
        web.publish(Page {
            url: "http://up.example/".into(),
            body,
            content_type: ContentType::Html,
        });
        let config = CrawlerConfig {
            max_retries: 5,
            host_retry_budget: 8,
            ..CrawlerConfig::default()
        };
        let plan = FaultPlan::none().with_dead_host("down.example");
        let mut seeds = vec!["http://up.example/".to_string()];
        seeds.push("http://down.example/p0".to_string());
        let result = crawl_with_faults(&web, &seeds, &config, &plan);
        // All 40 down.example pages dead-letter (p0 is both a seed
        // and a link, so it is fetched once)...
        assert_eq!(result.dead_letters.len(), 40);
        // ...but the host only ever got its 8 budgeted retries.
        assert_eq!(result.stats.retries, 8);
    }
}
