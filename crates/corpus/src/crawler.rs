//! The webcrawler (phase 1 of the pSigene pipeline).
//!
//! Breadth-first over the simulated web from seed URLs, never leaving
//! the seeds' hosts: follows `href` links, pages through the
//! plain-text search API of API-style portals (`NEXT:` lines), and
//! extracts attack payloads from `<pre class="sample">` blocks. Full
//! sample URLs are reduced to their query string per the paper's rule
//! (§II-A: "we extract the SQL query ... by leaving out the HTTP
//! address, the port, and the path"); byte-identical payloads are kept
//! once.
//!
//! The simulated web answers every fetch with the published page or a
//! 404 (DESIGN §9), so the crawl has no retry or recovery path. It
//! terminates because a URL enters the frontier only on its first
//! sighting, and every URL comes from a finite set of published pages.

use crate::web::{unescape_html, ContentType, SimulatedWeb};
use psigene_http::split_target;
use std::collections::{HashSet, VecDeque};

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
    /// Pages fetched.
    pub pages_fetched: usize,
    /// Links seen (including duplicates).
    pub links_seen: usize,
    /// 404s encountered.
    pub missing: usize,
}

/// Result of a crawl.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrawlResult {
    /// Extracted samples, in crawl order; duplicates removed.
    pub samples: Vec<CrawledSample>,
    /// Statistics.
    pub stats: CrawlStats,
}

/// The payloads extracted so far, deduplicated.
#[derive(Default)]
struct Harvest {
    samples: Vec<CrawledSample>,
    seen: HashSet<String>,
    dedup_hits: u64,
}

impl Harvest {
    /// Reduces one published line to its payload and records it,
    /// deduplicating byte-identical payloads.
    fn record(&mut self, line: &str, host: &str, url: &str) {
        if let Some(payload) = reduce_to_query(line.trim()) {
            if self.seen.insert(payload.clone()) {
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

/// Crawls `web` breadth-first from `seeds`, restricted to the seeds'
/// hosts, and publishes the `crawler.*` counters.
pub fn crawl(web: &SimulatedWeb, seeds: &[String]) -> CrawlResult {
    let allowed_hosts: HashSet<String> = seeds.iter().map(|s| host_of(s)).collect();
    let mut frontier: VecDeque<String> = seeds.iter().cloned().collect();
    let mut visited: HashSet<String> = seeds.iter().cloned().collect();
    let mut harvest = Harvest::default();
    let mut stats = CrawlStats::default();
    while let Some(url) = frontier.pop_front() {
        let Some(page) = web.fetch(&url) else {
            stats.missing += 1;
            continue;
        };
        stats.pages_fetched += 1;
        let host = host_of(&url);
        match page.content_type {
            ContentType::Html => {
                for link in extract_links(&page.body) {
                    stats.links_seen += 1;
                    if allowed_hosts.contains(&host_of(&link)) && visited.insert(link.clone()) {
                        frontier.push_back(link);
                    }
                }
                for block in extract_sample_blocks(&page.body) {
                    for line in block.lines() {
                        harvest.record(line, &host, &url);
                    }
                }
            }
            ContentType::Text => {
                // API response: first line `NEXT: <url-or-none>`,
                // then one payload per line.
                let mut lines = page.body.lines();
                if let Some(next) = lines.next().and_then(|l| l.strip_prefix("NEXT: ")) {
                    if next != "none" && visited.insert(next.to_string()) {
                        frontier.push_back(next.to_string());
                    }
                }
                for line in lines {
                    harvest.record(line, &host, &url);
                }
            }
        }
    }
    let telemetry = psigene_telemetry::global();
    telemetry
        .counter("crawler.pages_fetched")
        .add(stats.pages_fetched as u64);
    telemetry
        .counter("crawler.links_seen")
        .add(stats.links_seen as u64);
    telemetry
        .counter("crawler.missing_pages")
        .add(stats.missing as u64);
    telemetry
        .counter("crawler.payloads_extracted")
        .add(harvest.samples.len() as u64);
    telemetry
        .counter("crawler.dedup_hits")
        .add(harvest.dedup_hits);
    CrawlResult {
        samples: harvest.samples,
        stats,
    }
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

/// Extracts the contents of `<pre class="sample">...</pre>` blocks; a
/// block without its `</pre>` is not a block.
fn extract_sample_blocks(html: &str) -> Vec<String> {
    const OPEN: &str = "<pre class=\"sample\">";
    const CLOSE: &str = "</pre>";
    let mut out = Vec::new();
    let mut rest = html;
    while let Some(i) = rest.find(OPEN) {
        rest = &rest[i + OPEN.len()..];
        let Some(j) = rest.find(CLOSE) else { break };
        out.push(unescape_html(&rest[..j]));
        rest = &rest[j + CLOSE.len()..];
    }
    out
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
        let result = crawl(&corpus.web, &corpus.seeds);
        let planted: HashSet<_> = corpus.planted.iter().map(|p| p.payload.clone()).collect();
        let crawled: HashSet<_> = result.samples.iter().map(|s| s.payload.clone()).collect();
        let missing: Vec<_> = planted.difference(&crawled).take(5).collect();
        let extra: Vec<_> = crawled.difference(&planted).take(5).collect();
        assert!(
            missing.is_empty() && extra.is_empty(),
            "crawler missed {} of {} payloads, e.g. {missing:?}, and found {} never planted, e.g. {extra:?}",
            planted.difference(&crawled).count(),
            planted.len(),
            crawled.difference(&planted).count()
        );
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
        let result = crawl(&web, &["http://a.example/".to_string()]);
        // 3 links on the seed + 1 on /b: duplicates counted, even
        // though /b and /c are each fetched once.
        assert_eq!(result.stats.links_seen, 4);
        assert_eq!(result.stats.pages_fetched, 3);
    }

    #[test]
    fn same_host_restriction_holds() {
        let corpus = build_portals(&PortalConfig {
            samples: 100,
            ..PortalConfig::default()
        });
        // Crawl only the bugtraq seed; samples must come from bugtraq.
        let result = crawl(&corpus.web, &corpus.seeds[0..1]);
        assert!(result.samples.iter().all(|s| s.portal == "bugtraq.example"));
        assert!(!result.samples.is_empty());
    }

    #[test]
    fn mixed_case_seed_does_not_fence_off_the_portal() {
        // Regression: the same-host check used to compare hosts
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
        let result = crawl(&web, &["HTTP://Site.Example/".to_string()]);
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
    fn sample_block_extraction_keeps_terminated_blocks() {
        let whole = "<pre class=\"sample\">a=1</pre><pre class=\"sample\">b=2\nc=3";
        assert_eq!(extract_sample_blocks(whole), vec!["a=1".to_string()]);
        assert_eq!(
            extract_sample_blocks("<pre class=\"sample\">a=1</pre>"),
            vec!["a=1".to_string()]
        );
    }

    #[test]
    fn missing_pages_counted() {
        let web = SimulatedWeb::new();
        let result = crawl(&web, &["http://gone.example/".to_string()]);
        assert_eq!(result.stats.missing, 1);
        assert!(result.samples.is_empty());
    }

    #[test]
    fn missing_counts_404s_but_not_recovered_faults() {
        // The simulated web has no transient faults (DESIGN §9), so a
        // fetch either finds its page or is a 404: only the 404 linked
        // from a live page counts as missing, the live pages do not.
        let mut web = SimulatedWeb::new();
        web.publish(Page {
            url: "http://a.example/".into(),
            body: r#"<a href="http://a.example/gone">404</a>
                     <a href="http://a.example/live">ok</a>"#
                .into(),
            content_type: ContentType::Html,
        });
        web.publish(Page {
            url: "http://a.example/live".into(),
            body: "<pre class=\"sample\">id=1 union select 2</pre>".into(),
            content_type: ContentType::Html,
        });
        let result = crawl(&web, &["http://a.example/".to_string()]);
        assert_eq!(result.stats.missing, 1, "only the real 404 is missing");
        assert_eq!(result.stats.pages_fetched, 2);
        assert_eq!(result.samples.len(), 1);
    }
}
