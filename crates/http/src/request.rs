//! The HTTP request model shared by generators, engines and the
//! pipeline.

use std::fmt;

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
/// query string)" (§II-A). [`HttpRequest::query_string`] and
/// [`HttpRequest::detection_payload`] implement exactly that
/// extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Path component, without query string.
    pub path: String,
    /// Raw (still percent-encoded) query string, without the `?`.
    pub raw_query: String,
    /// Request body for POST requests, empty otherwise.
    pub body: Vec<u8>,
    /// Host header value.
    pub host: String,
}

impl HttpRequest {
    /// Creates a GET request from a path and raw query string.
    pub fn get(host: &str, path: &str, raw_query: &str) -> HttpRequest {
        HttpRequest {
            method: Method::Get,
            path: path.to_string(),
            raw_query: raw_query.to_string(),
            body: Vec::new(),
            host: host.to_string(),
        }
    }

    /// Creates a POST request with a form body.
    pub fn post(host: &str, path: &str, body: &str) -> HttpRequest {
        HttpRequest {
            method: Method::Post,
            path: path.to_string(),
            raw_query: String::new(),
            body: body.as_bytes().to_vec(),
            host: host.to_string(),
        }
    }

    /// The raw query string (for GET) or form body (for POST) — the
    /// part of the request an SQL injection must travel through.
    pub fn query_string(&self) -> &[u8] {
        if self.raw_query.is_empty() && !self.body.is_empty() {
            &self.body
        } else {
            self.raw_query.as_bytes()
        }
    }

    /// The bytes handed to detection engines: the query string (or
    /// body), which is the request minus address, port and path.
    pub fn detection_payload(&self) -> &[u8] {
        self.query_string()
    }

    /// The full request target as it would appear on the request line.
    pub fn request_target(&self) -> String {
        if self.raw_query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.raw_query)
        }
    }

    /// Serializes the request head + body in wire format (enough for
    /// trace files; not a full RFC 7230 implementation).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(self.method.as_str().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.request_target().as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\nHost: ");
        out.extend_from_slice(self.host.as_bytes());
        out.extend_from_slice(b"\r\n");
        if !self.body.is_empty() {
            out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

impl fmt::Display for HttpRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} (host {})",
            self.method,
            self.request_target(),
            self.host
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
}
