//! Parsing of URLs and raw request lines into [`HttpRequest`].
//!
//! [`parse_request`] works on bytes and never decodes them. Where it
//! deliberately differs from the `str`-based parser it replaced (kept
//! below as a test-only oracle), each point pinned by a named test:
//!
//! 1. Bytes that are not UTF-8 reach the request verbatim, not as
//!    U+FFFD: the detector scans what the application receives.
//! 2. Only ASCII whitespace ([`u8::is_ascii_whitespace`]: space, `\t`,
//!    `\n`, `\x0C`, `\r`) splits the request line or is trimmed from
//!    the `Host` value; U+00A0, U+2028 and VT (`\x0B`) no longer do.
//! 3. The `Host` header name matches in any case (RFC 7230 §3.2).

use crate::request::{HttpRequest, Method};

/// Errors from request/URL parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request line did not have `METHOD TARGET VERSION` shape.
    MalformedRequestLine,
    /// The input was empty.
    Empty,
    /// The input does not fit the request's 32-bit offsets.
    TooLarge,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MalformedRequestLine => write!(f, "malformed request line"),
            ParseError::Empty => write!(f, "empty request"),
            ParseError::TooLarge => write!(f, "request larger than 4 GiB"),
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
/// optional body after a blank line) into an [`HttpRequest`]: one
/// forward pass that records spans into `raw`, then one copy.
pub fn parse_request(raw: &[u8]) -> Result<HttpRequest, ParseError> {
    if raw.is_empty() {
        return Err(ParseError::Empty);
    }
    if u32::try_from(raw.len()).is_err() {
        return Err(ParseError::TooLarge);
    }
    // `\n` is ASCII whitespace, so every loop below stops at the end
    // of the request line without a separate search for it.
    let blank = |b: u8| b != b'\n' && b.is_ascii_whitespace();
    let mut i = 0;
    while i < raw.len() && blank(raw[i]) {
        i += 1;
    }
    let method_start = i;
    while i < raw.len() && !raw[i].is_ascii_whitespace() {
        i += 1;
    }
    let method = &raw[method_start..i];
    while i < raw.len() && blank(raw[i]) {
        i += 1;
    }
    let target_start = i;
    let mut question = None;
    while i < raw.len() && !raw[i].is_ascii_whitespace() {
        if raw[i] == b'?' && question.is_none() {
            question = Some(i);
        }
        i += 1;
    }
    let target_end = i;
    while i < raw.len() && raw[i] != b'\n' {
        i += 1;
    }

    // Header lines, `i` on the `\n` that ended the previous line (or
    // at the end of input). The head ends at the first `\r\n\r\n`.
    let mut host = &raw[..0];
    let mut head_end = raw.len();
    let mut body_start = raw.len();
    while i < raw.len() {
        if raw[..i].ends_with(b"\r") && raw[i + 1..].starts_with(b"\r\n") {
            head_end = i - 1;
            body_start = i + 3;
            break;
        }
        let line_start = i + 1;
        i = line_start;
        while i < raw.len() && raw[i] != b'\n' {
            i += 1;
        }
        let line = &raw[line_start..i];
        if line.len() >= 5 && line[..5].eq_ignore_ascii_case(b"host:") {
            host = line[5..].trim_ascii();
        }
    }

    if head_end == 0 {
        return Err(ParseError::Empty);
    }
    if method.is_empty() || target_start == target_end {
        return Err(ParseError::MalformedRequestLine);
    }
    let method = match method {
        b"GET" => Method::Get,
        b"POST" => Method::Post,
        b"HEAD" => Method::Head,
        other => Method::Other(String::from_utf8_lossy(other).into_owned()),
    };
    let path_end = question.unwrap_or(target_end);
    let query_start = question.map_or(target_end, |q| q + 1);
    Ok(HttpRequest::from_parts(
        method,
        &raw[target_start..path_end],
        &raw[query_start..target_end],
        host,
        &raw[body_start..],
    ))
}

/// The parser [`parse_request`] replaced, kept as the oracle of the
/// differential tests: method, path, raw query, host, body.
#[cfg(test)]
pub(crate) type Parts = (Method, String, String, String, Vec<u8>);

#[cfg(test)]
pub(crate) fn parse_request_lossy(raw: &[u8]) -> Result<Parts, ParseError> {
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
    Ok((
        method,
        path.to_string(),
        query.to_string(),
        host,
        body.as_bytes().to_vec(),
    ))
}

/// [`parse_request`]'s result in the oracle's shape.
#[cfg(test)]
pub(crate) fn parse_request_parts(raw: &[u8]) -> Result<Parts, ParseError> {
    parse_request(raw).map(|r| {
        (
            r.method.clone(),
            r.path().into_owned(),
            r.raw_query().into_owned(),
            r.host().into_owned(),
            r.body().to_vec(),
        )
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
        assert_eq!(r.body(), b"a=1&b=2");
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
        assert_eq!(lone.path(), "/");
    }

    #[test]
    fn non_utf8_bytes_are_kept_verbatim() {
        let raw = b"GET /p\xe9?q=\xff\xfe HTTP/1.1\r\nHost: h\xa0\r\n\r\n\x80body";
        let r = parse_request(raw).unwrap();
        assert_eq!(r.path_bytes(), b"/p\xe9");
        assert_eq!(r.raw_query_bytes(), b"q=\xff\xfe");
        assert_eq!(r.host_bytes(), b"h\xa0");
        assert_eq!(r.body(), b"\x80body");
        assert_eq!(r.detection_payload(), b"q=\xff\xfe&\x80body");
        // The replaced parser handed the scanner U+FFFD instead.
        let old = parse_request_lossy(raw).unwrap();
        assert_eq!(old.2, "q=\u{fffd}\u{fffd}");
        assert_eq!(old.4, "\u{fffd}body".as_bytes());
    }

    #[test]
    fn only_ascii_whitespace_splits_the_request_line() {
        for space in ["\u{a0}", "\u{2028}", "\x0b"] {
            let raw =
                format!("GET /a{space}b?x=1{space}2 HTTP/1.1\r\nHost:{space}h{space}\r\n\r\n");
            let r = parse_request(raw.as_bytes()).unwrap();
            assert_eq!(r.path(), format!("/a{space}b"));
            assert_eq!(r.raw_query(), format!("x=1{space}2"));
            assert_eq!(r.host(), format!("{space}h{space}"));
            // The replaced parser cut the target at the first of them.
            let old = parse_request_lossy(raw.as_bytes()).unwrap();
            assert_eq!(
                (old.1.as_str(), old.2.as_str(), old.3.as_str()),
                ("/a", "", "h")
            );
        }
        // `u8::is_ascii_whitespace` still does, form feed included.
        for space in [" ", "\t", "\x0c", "\r"] {
            let raw = format!("GET{space}/a?x=1{space}rest\r\nHost:{space}h{space}\r\n\r\n");
            assert_eq!(
                parse_request_parts(raw.as_bytes()),
                parse_request_lossy(raw.as_bytes()),
                "{space:?}"
            );
        }
    }

    #[test]
    fn host_header_name_matches_in_any_case() {
        for name in ["Host", "host", "HOST", "hOsT"] {
            let raw = format!("GET / HTTP/1.1\r\n{name}: h.example\r\n\r\n");
            assert_eq!(parse_request(raw.as_bytes()).unwrap().host(), "h.example");
        }
        let raw = b"GET / HTTP/1.1\r\nHOST: h.example\r\n\r\n";
        assert_eq!(parse_request_lossy(raw).unwrap().3, "");
        // Still a name, not a prefix of one, and the last one wins.
        let raw = b"GET / HTTP/1.1\r\nHostile: x\r\nhost: a\r\nX-Host: c\r\nHOST:\tb \r\n\r\n";
        assert_eq!(parse_request(raw).unwrap().host(), "b");
    }

    #[test]
    fn head_ends_at_the_first_blank_line() {
        // Request line only, terminator straight after it; a `Host`
        // line after the blank line is body, not a header.
        let r = parse_request(b"POST /f?a=1\r\n\r\nHost: evil\r\n\r\nx").unwrap();
        assert_eq!(r.host(), "");
        assert_eq!(r.body(), b"Host: evil\r\n\r\nx");
        // Bare `\n` line ends are lines but never a blank-line terminator.
        let r = parse_request(b"GET /\nHost: h\n\nrest").unwrap();
        assert_eq!((r.host(), r.body()), ("h".into(), &b""[..]));
    }
}
