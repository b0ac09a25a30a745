//! The HTTP request model shared by generators, engines and the
//! pipeline.

use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;

/// HTTP request method. Only the methods the traffic generators emit
/// are modeled; everything else is `Other`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `HEAD`
    Head,
    /// Any other method, preserved verbatim.
    Other(String),
}

impl Method {
    /// The canonical wire name.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Other(s) => s,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One query-string or body parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name, percent-decoded.
    pub name: String,
    /// Parameter value, percent-decoded.
    pub value: String,
}

/// A parsed HTTP request.
///
/// The paper's detectors operate on "the entire HTTP request payload",
/// extracting the query from it by "leaving out the HTTP address, the
/// port, and the path (typically a `?` indicates the start of the
/// query string)" (§II-A). [`HttpRequest::detection_payload`]
/// implements exactly that extraction.
///
/// A request is one allocation: `buf` holds `path | host | raw_query |
/// body` back to back, with a single `&` between query and body when
/// both are non-empty, so everything from `host_end` on is the
/// detection payload as one contiguous slice. The `&` is the only
/// byte of `buf` that belongs to no part.
#[derive(Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    buf: Vec<u8>,
    path_end: u32,
    host_end: u32,
    query_end: u32,
}

impl HttpRequest {
    /// The one constructor: copies the four parts into a single
    /// buffer. `raw_query` is still percent-encoded and has no `?`.
    ///
    /// # Panics
    ///
    /// If the parts together exceed `u32::MAX` bytes.
    pub fn from_parts(
        method: Method,
        path: &[u8],
        raw_query: &[u8],
        host: &[u8],
        body: &[u8],
    ) -> HttpRequest {
        let joined = !raw_query.is_empty() && !body.is_empty();
        let len = path.len() + host.len() + raw_query.len() + usize::from(joined) + body.len();
        assert!(u32::try_from(len).is_ok(), "request of {len} bytes");
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(path);
        let path_end = buf.len() as u32;
        buf.extend_from_slice(host);
        let host_end = buf.len() as u32;
        buf.extend_from_slice(raw_query);
        let query_end = buf.len() as u32;
        if joined {
            buf.push(b'&');
        }
        buf.extend_from_slice(body);
        HttpRequest {
            method,
            buf,
            path_end,
            host_end,
            query_end,
        }
    }

    /// Creates a GET request from a path and raw query string.
    pub fn get(host: &str, path: &str, raw_query: &str) -> HttpRequest {
        HttpRequest::from_parts(
            Method::Get,
            path.as_bytes(),
            raw_query.as_bytes(),
            host.as_bytes(),
            b"",
        )
    }

    /// Creates a POST request with a form body.
    pub fn post(host: &str, path: &str, body: &str) -> HttpRequest {
        HttpRequest::from_parts(
            Method::Post,
            path.as_bytes(),
            b"",
            host.as_bytes(),
            body.as_bytes(),
        )
    }

    pub(crate) fn path_bytes(&self) -> &[u8] {
        &self.buf[..self.path_end as usize]
    }

    pub(crate) fn host_bytes(&self) -> &[u8] {
        &self.buf[self.path_end as usize..self.host_end as usize]
    }

    pub(crate) fn raw_query_bytes(&self) -> &[u8] {
        &self.buf[self.host_end as usize..self.query_end as usize]
    }

    /// Path component, without query string (decoded lossily).
    pub fn path(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(self.path_bytes())
    }

    /// Host header value (decoded lossily).
    pub fn host(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(self.host_bytes())
    }

    /// Raw (still percent-encoded) query string, without the `?`
    /// (decoded lossily).
    pub fn raw_query(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(self.raw_query_bytes())
    }

    /// Request body, empty when the request has none.
    pub fn body(&self) -> &[u8] {
        let rest = &self.buf[self.query_end as usize..];
        // After a query, a non-empty rest is the `&` and then the body.
        if self.raw_query_bytes().is_empty() || rest.is_empty() {
            rest
        } else {
            &rest[1..]
        }
    }

    /// The part of the request an SQL injection must travel through:
    /// the raw query string, or the body, or — when a request carries
    /// both — `query&body`, so neither hides behind the other.
    pub fn query_string(&self) -> &[u8] {
        &self.buf[self.host_end as usize..]
    }

    /// The bytes handed to detection engines: the query string and
    /// body, which is the request minus address, port and path.
    pub fn detection_payload(&self) -> &[u8] {
        self.query_string()
    }

    /// The full request target as it would appear on the request line:
    /// the path (decoded lossily), then `?` and the query with the
    /// bytes a target cannot carry percent-encoded, as in
    /// [`HttpRequest::to_wire`].
    pub fn request_target(&self) -> String {
        let mut target = self.path().into_owned();
        let query = self.raw_query_bytes();
        if !query.is_empty() {
            let mut wire = Vec::with_capacity(query.len());
            push_wire_query(&mut wire, query);
            target.push('?');
            target.push_str(&String::from_utf8_lossy(&wire));
        }
        target
    }

    /// Serializes the request head + body in wire format (enough for
    /// trace files; not a full RFC 7230 implementation). The query is
    /// written as [`HttpRequest::request_target`] writes it, so a
    /// parser that ends the target at the first space reads all of it.
    pub fn to_wire(&self) -> Vec<u8> {
        let (query, body) = (self.raw_query_bytes(), self.body());
        let mut out = Vec::with_capacity(64 + self.buf.len());
        out.extend_from_slice(self.method.as_str().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.path_bytes());
        if !query.is_empty() {
            out.push(b'?');
            push_wire_query(&mut out, query);
        }
        out.extend_from_slice(b" HTTP/1.1\r\nHost: ");
        out.extend_from_slice(self.host_bytes());
        out.extend_from_slice(b"\r\n");
        if !body.is_empty() {
            // Infallible: `io::Write` for `Vec<u8>` only appends.
            let _ = write!(out, "Content-Length: {}\r\n", body.len());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(body);
        out
    }
}

/// Appends `query` as a request target carries it (RFC 9112 §3.2,
/// RFC 3986 §3.4): each space or control byte (`≤ 0x20`), DEL or
/// non-ASCII byte (`≥ 0x7f`) and `#`, which would start a fragment,
/// percent-encoded; every other byte as it is. The first
/// percent-decoding sweep of §II-A maps the escapes back, so the
/// normalized payload does not change.
fn push_wire_query(out: &mut Vec<u8>, query: &[u8]) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    for &b in query {
        if b <= 0x20 || b >= 0x7f || b == b'#' {
            out.extend_from_slice(&[b'%', HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
        } else {
            out.push(b);
        }
    }
}

/// Renders the parts, not the packed buffer.
impl fmt::Debug for HttpRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpRequest")
            .field("method", &self.method)
            .field("path", &self.path())
            .field("raw_query", &self.raw_query())
            .field("body", &format_args!("b\"{}\"", self.body().escape_ascii()))
            .field("host", &self.host())
            .finish()
    }
}

impl fmt::Display for HttpRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} (host {})",
            self.method,
            self.request_target(),
            self.host()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_query_extraction() {
        let r = HttpRequest::get("example.edu", "/app/view.php", "id=1+union+select+2");
        assert_eq!(r.query_string(), b"id=1+union+select+2");
        assert_eq!(r.request_target(), "/app/view.php?id=1+union+select+2");
    }

    #[test]
    fn post_body_is_the_payload() {
        let r = HttpRequest::post("example.edu", "/login", "user=a&pass=b' or 1=1--");
        assert_eq!(r.query_string(), b"user=a&pass=b' or 1=1--");
    }

    #[test]
    fn empty_query_get() {
        let r = HttpRequest::get("h", "/", "");
        assert_eq!(r.query_string(), b"");
        assert_eq!(r.request_target(), "/");
    }

    #[test]
    fn wire_format_roundtrip_shape() {
        let r = HttpRequest::get("h.example", "/p", "a=1");
        let wire = r.to_wire();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("GET /p?a=1 HTTP/1.1\r\n"));
        assert!(text.contains("Host: h.example"));
    }

    #[test]
    fn the_wire_query_escapes_what_a_target_cannot_carry() {
        let r = HttpRequest::from_parts(
            Method::Get,
            b"/p",
            b"id=1 AND 'a'#\t\x7f\xff%27+x",
            b"h",
            b"",
        );
        let target = "/p?id=1%20AND%20'a'%23%09%7F%FF%27+x";
        assert_eq!(r.request_target(), target);
        let wire = r.to_wire();
        assert!(wire.starts_with(format!("GET {target} HTTP/1.1\r\n").as_bytes()));
        // The parser reads the whole query back, escaped.
        let parsed = crate::parse_request(&wire).unwrap();
        assert_eq!(parsed.raw_query_bytes(), &target.as_bytes()[3..]);
        assert_eq!(
            crate::normalize::normalize(parsed.detection_payload()),
            crate::normalize::normalize(r.detection_payload())
        );
    }

    #[test]
    fn query_and_body_are_one_contiguous_payload() {
        let r = HttpRequest::from_parts(Method::Post, b"/login", b"x=1", b"h", b"pass=' or 1=1--");
        assert_eq!(r.detection_payload(), b"x=1&pass=' or 1=1--");
        // The joining `&` belongs to neither part.
        assert_eq!(r.raw_query(), "x=1");
        assert_eq!(r.body(), b"pass=' or 1=1--");
        assert_eq!(
            r.to_wire(),
            b"POST /login?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 15\r\n\r\npass=' or 1=1--"
        );
        // Either part alone is the payload as it is, `&`-led or not.
        let q = HttpRequest::from_parts(Method::Post, b"/", b"&a", b"", b"");
        assert_eq!((q.detection_payload(), q.body()), (&b"&a"[..], &b""[..]));
        let b = HttpRequest::from_parts(Method::Post, b"/", b"", b"", b"&a");
        assert_eq!((b.detection_payload(), b.body()), (&b"&a"[..], &b"&a"[..]));
        assert_ne!(q, b);
    }

    #[test]
    fn debug_renders_the_parts_not_the_buffer() {
        let r = HttpRequest::from_parts(Method::Post, b"/p", b"a=1", b"h.example", b"b=\xff");
        assert_eq!(
            format!("{r:?}"),
            r#"HttpRequest { method: Post, path: "/p", raw_query: "a=1", body: b"b=\xff", host: "h.example" }"#
        );
        assert_eq!(r.to_string(), "POST /p?a=1 (host h.example)");
    }

    #[test]
    fn a_request_is_at_most_one_cache_line() {
        assert!(std::mem::size_of::<HttpRequest>() <= 64);
    }
}
