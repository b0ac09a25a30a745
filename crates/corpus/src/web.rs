//! An in-memory simulated web for the crawler to walk.
//!
//! The paper crawled live portals (SecurityFocus, Exploit-DB,
//! PacketStorm, OSVDB) between April and June 2012. Offline, the same
//! crawler logic runs against this deterministic page store: a fetch
//! returns the published page or a 404, and nothing in between
//! (DESIGN §9).

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

impl SimulatedWeb {
    /// An empty web.
    pub fn new() -> SimulatedWeb {
        SimulatedWeb::default()
    }

    /// Publishes a page, replacing any previous one at that URL.
    pub fn publish(&mut self, page: Page) {
        self.pages.insert(page.url.clone(), page);
    }

    /// Fetches a URL; `None` models a 404.
    pub fn fetch(&self, url: &str) -> Option<&Page> {
        self.pages.get(url)
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
}
