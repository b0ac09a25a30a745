//! Parsing of URLs and raw request lines into [`HttpRequest`].

use crate::request::{HttpRequest, Method};

/// Errors from request/URL parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request line did not have `METHOD TARGET VERSION` shape.
    MalformedRequestLine,
    /// The input was empty.
    Empty,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MalformedRequestLine => write!(f, "malformed request line"),
            ParseError::Empty => write!(f, "empty request"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Splits a request target into `(path, raw_query)`. The query starts
/// at the first `?`, per the extraction rule in §II-A of the paper.
pub fn split_target(target: &str) -> (&str, &str) {
    match target.find('?') {
        Some(i) => (&target[..i], &target[i + 1..]),
        None => (target, ""),
    }
}

/// Strips a `http://`/`https://` prefix, matching the scheme
/// case-insensitively per RFC 3986 §3.1.
fn strip_scheme(url: &str) -> Option<&str> {
    for prefix in ["https://", "http://"] {
        if url.len() >= prefix.len() && url[..prefix.len()].eq_ignore_ascii_case(prefix) {
            return Some(&url[prefix.len()..]);
        }
    }
    None
}

/// Parses an absolute or origin-form URL into host, path and query.
/// Scheme and port are discarded — detection ignores them. The host
/// is normalized to lowercase (host names are case-insensitive, and
/// case-sensitive comparison would silently fence off crawls seeded
/// with `HTTP://Portal.Example/`-style URLs).
pub fn parse_url(url: &str) -> (String, String, String) {
    match strip_scheme(url) {
        Some(rest) => {
            let (authority, target) = match rest.find('/') {
                Some(i) => (&rest[..i], &rest[i..]),
                None => (rest, "/"),
            };
            let host = authority
                .split(':')
                .next()
                .unwrap_or("")
                .to_ascii_lowercase();
            let (path, query) = split_target(target);
            (host, path.to_string(), query.to_string())
        }
        None => {
            let (path, query) = split_target(url);
            (String::new(), path.to_string(), query.to_string())
        }
    }
}

/// Parses a raw request head (first line + optional Host header +
/// optional body after a blank line) into an [`HttpRequest`].
pub fn parse_request(raw: &[u8]) -> Result<HttpRequest, ParseError> {
    if raw.is_empty() {
        return Err(ParseError::Empty);
    }
    let text = String::from_utf8_lossy(raw);
    let mut head_and_body = text.splitn(2, "\r\n\r\n");
    let head = head_and_body.next().unwrap_or("");
    let body = head_and_body.next().unwrap_or("");
    let mut lines = head.lines();
    let request_line = lines.next().ok_or(ParseError::Empty)?;
    let mut parts = request_line.split_whitespace();
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("POST") => Method::Post,
        Some("HEAD") => Method::Head,
        Some(other) if !other.is_empty() => Method::Other(other.to_string()),
        _ => return Err(ParseError::MalformedRequestLine),
    };
    let target = parts.next().ok_or(ParseError::MalformedRequestLine)?;
    let mut host = String::new();
    for line in lines {
        if let Some(v) = line
            .strip_prefix("Host:")
            .or_else(|| line.strip_prefix("host:"))
        {
            host = v.trim().to_string();
        }
    }
    let (path, query) = split_target(target);
    Ok(HttpRequest {
        method,
        path: path.to_string(),
        raw_query: query.to_string(),
        body: body.as_bytes().to_vec(),
        host,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_target_basic() {
        assert_eq!(split_target("/a/b?x=1"), ("/a/b", "x=1"));
        assert_eq!(split_target("/a/b"), ("/a/b", ""));
        // Only the first `?` starts the query.
        assert_eq!(split_target("/p?x=1?y=2"), ("/p", "x=1?y=2"));
    }

    #[test]
    fn parse_url_forms() {
        assert_eq!(
            parse_url("http://h.example:8080/p?q=1"),
            ("h.example".into(), "/p".into(), "q=1".into())
        );
        assert_eq!(
            parse_url("https://h.example"),
            ("h.example".into(), "/".into(), "".into())
        );
        assert_eq!(
            parse_url("/local?x=2"),
            ("".into(), "/local".into(), "x=2".into())
        );
    }

    #[test]
    fn parse_url_normalizes_host_case() {
        // Mixed-case scheme and authority must resolve to the same
        // lowercase host as their lowercase spelling.
        assert_eq!(
            parse_url("HTTP://Portal.Example/path?q=1"),
            ("portal.example".into(), "/path".into(), "q=1".into())
        );
        assert_eq!(parse_url("HTTP://Portal.Example/").0, "portal.example");
        assert_eq!(
            parse_url("http://portal.example/path?q=1").0,
            parse_url("HtTpS://PORTAL.EXAMPLE:8443/path?q=1").0
        );
    }

    #[test]
    fn parse_url_authority_without_path() {
        // Authority-only forms get the root path, in any case mix.
        assert_eq!(
            parse_url("HTTPS://H.EXAMPLE"),
            ("h.example".into(), "/".into(), "".into())
        );
        assert_eq!(
            parse_url("HTTP://H.Example:8080"),
            ("h.example".into(), "/".into(), "".into())
        );
        // The path and query keep their case — only the host folds.
        assert_eq!(
            parse_url("HTTP://H.Example/CaseSensitive?Q=UPPER"),
            (
                "h.example".into(),
                "/CaseSensitive".into(),
                "Q=UPPER".into()
            )
        );
    }

    #[test]
    fn parse_request_roundtrip() {
        let r = HttpRequest::get("h.example", "/view.php", "id=1");
        let parsed = parse_request(&r.to_wire()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_post_with_body() {
        let raw = b"POST /f HTTP/1.1\r\nHost: h\r\nContent-Length: 7\r\n\r\na=1&b=2";
        let r = parse_request(raw).unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body, b"a=1&b=2");
        assert_eq!(r.query_string(), b"a=1&b=2");
    }

    #[test]
    fn malformed_requests_error() {
        assert_eq!(parse_request(b""), Err(ParseError::Empty));
        assert!(parse_request(b"GET\r\n\r\n").is_err());
    }

    #[test]
    fn binary_garbage_does_not_panic() {
        let garbage: Vec<u8> = (0u8..=255).collect();
        let _ = parse_request(&garbage);
    }

    #[test]
    fn degenerate_heads_are_errors_not_panics() {
        // A head that is only the blank line, a lone non-UTF-8 byte,
        // and request lines made of nothing but whitespace.
        assert_eq!(parse_request(b"\r\n\r\n"), Err(ParseError::Empty));
        assert_eq!(
            parse_request(b"\xff"),
            Err(ParseError::MalformedRequestLine)
        );
        for spaces in [&b" "[..], b"   ", b"   \r\n", b" \t \r\n\r\nbody"] {
            assert_eq!(
                parse_request(spaces),
                Err(ParseError::MalformedRequestLine),
                "{spaces:?}"
            );
        }
        // One token more and it parses: a method and a target.
        let lone = parse_request(b"\xff /").unwrap();
        assert_eq!(lone.method, Method::Other("\u{fffd}".to_string()));
        assert_eq!(lone.path, "/");
    }
}
