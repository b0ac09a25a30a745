//! HTTP request modeling, parsing, decoding and normalization for
//! web-attack analysis.
//!
//! This crate is the transport substrate of the pSigene
//! reproduction: it defines the [`HttpRequest`] every generator
//! produces and every detection engine consumes, implements the
//! query-string extraction rule of §II-A of the paper, and provides
//! the five payload transformations (§II-A) applied before feature
//! extraction.
//!
//! # Example
//!
//! ```
//! use psigene_http::{HttpRequest, normalize};
//!
//! let req = HttpRequest::get(
//!     "app.example", "/item.php",
//!     "id=1%20UNION%20SELECT%20password%20FROM%20users",
//! );
//! let norm = normalize::normalize(req.detection_payload());
//! assert_eq!(norm, b"id=1 union select password from users");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decode;
pub mod normalize;
pub mod parse;
pub mod query;
pub mod request;

pub use normalize::{normalize_into, NormScratch};
pub use parse::{parse_request, parse_url, split_target, ParseError};
pub use query::parse_params;
pub use request::{HttpRequest, Method, Param};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    /// Fragments `parse_request_never_panics` assembles requests from.
    const REQUEST_ALPHABET: [&[u8]; 16] = [
        b"GET", b"POST", b" ", b"\t", b"/", b"?", b"=", b"&", b"%", b":", b"\r\n", b"\n", b"\r",
        b"Host:", b"a", b"\xff",
    ];

    /// `bytes` without the ASCII whitespace that would split a
    /// request line.
    fn solid(bytes: Vec<u8>) -> Vec<u8> {
        bytes
            .into_iter()
            .filter(|b| !b.is_ascii_whitespace())
            .collect()
    }

    /// What the normalizer branches on — escape openers, hex digits in
    /// both cases, a non-hex letter, `+`, whitespace, VT, controls — as
    /// single bytes, plus the openers and nested layers that uniform
    /// draws would almost never assemble.
    const HOSTILE: [&[u8]; 36] = [
        b"%", b"u", b"U", b"+", b"0", b"2", b"5", b"7", b"b", b"B", b"a", b"A", b"f", b"F", b"g",
        b"Z", b"'", b"=", b" ", b"\t", b"\n", b"\x0b", b"\x00", b"\x7f", b"%u", b"%u00", b"%u002",
        b"%u0032", b"%%u0032", b"%2", b"%2b", b"%25", b"%2525", b"2525", b"%25u00", b"25u00",
    ];

    /// Payloads of 0–300 bytes, at least three quarters of them drawn
    /// from [`HOSTILE`], the rest uniform. One draw in four keeps the
    /// full length; the others are cut to 75, 18 and 4 bytes, because
    /// a long payload nearly always holds a `%` somewhere and the
    /// passes that end without one are the short ones.
    fn hostile_payload() -> impl Strategy<Value = Vec<u8>> {
        let draws = proptest::collection::vec((any::<u8>(), any::<u8>()), 0..=300);
        (draws, 0usize..4).prop_map(|(draws, cut)| {
            let mut payload = Vec::new();
            for (pick, raw) in draws {
                if pick < 64 {
                    payload.push(raw);
                } else {
                    payload.extend_from_slice(HOSTILE[pick as usize % HOSTILE.len()]);
                }
            }
            payload.truncate(300 >> (2 * cut));
            payload
        })
    }

    proptest! {
        #[test]
        fn percent_decode_never_panics(input in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = crate::decode::percent_decode(&input);
            let _ = crate::decode::unicode_decode(&input);
            let _ = crate::normalize::normalize(&input);
        }

        #[test]
        fn decode_output_never_longer(input in proptest::collection::vec(any::<u8>(), 0..256)) {
            prop_assert!(crate::decode::percent_decode(&input).len() <= input.len());
            prop_assert!(crate::decode::unicode_decode(&input).len() <= input.len());
        }

        #[test]
        fn encode_decode_roundtrip(input in proptest::collection::vec(any::<u8>(), 0..128)) {
            let enc = crate::decode::percent_encode(&input);
            prop_assert_eq!(crate::decode::percent_decode(enc.as_bytes()), input);
        }

        #[test]
        fn normalized_is_lowercase_and_single_spaced(input in proptest::collection::vec(any::<u8>(), 0..256)) {
            let n = crate::normalize::normalize(&input);
            prop_assert!(!n.iter().any(|b| b.is_ascii_uppercase()));
            prop_assert!(!n.windows(2).any(|w| w == b"  "));
        }

        /// The fix-point contract the feature VMs rely on: a payload
        /// that has been normalized once cannot change under a second
        /// normalization (layered encodings are unwound inside ONE
        /// normalize call, not across calls).
        #[test]
        fn normalize_is_a_fix_point(input in proptest::collection::vec(any::<u8>(), 0..256)) {
            let once = crate::normalize::normalize(&input);
            prop_assert_eq!(crate::normalize::normalize(&once), once);
        }

        /// The fused sweep equals the reference fold of `apply` over
        /// the pipeline — bytes, counted passes and cap hits — on
        /// payloads dense in the bytes it branches on, including when
        /// the scratch is dirty from an unrelated previous payload.
        #[test]
        fn normalize_into_matches_normalize(prev in hostile_payload(), input in hostile_payload()) {
            let mut scratch = crate::normalize::NormScratch::new();
            let _ = crate::normalize::normalize_into(&prev, &mut scratch);
            let (want, passes) = crate::normalize::normalize_reference(&input);
            prop_assert_eq!(crate::normalize::normalize_into(&input, &mut scratch), want.as_slice());
            prop_assert_eq!(scratch.last_passes(), passes);
            prop_assert_eq!(
                scratch.last_hit_cap(),
                crate::normalize::reference_pass(&want) != want
            );
        }

        /// parse → render → parse is the identity on parameter
        /// structure: rendering escapes the reserved bytes so hostile
        /// values cannot add, drop or resplit parameters.
        #[test]
        fn parse_render_parse_roundtrip(input in proptest::collection::vec(any::<u8>(), 0..256)) {
            let parsed = crate::query::parse_params(&input);
            let rendered = crate::query::render_params(
                &parsed.iter().map(|p| (p.name.clone(), p.value.clone())).collect::<Vec<_>>(),
            );
            let reparsed = crate::query::parse_params(rendered.as_bytes());
            prop_assert_eq!(parsed, reparsed);
        }

        /// Uniform bytes almost never form a request line, so the
        /// second input draws from the bytes the parser branches on
        /// (separators, line ends, `?`, `:`, the `Host` header, a
        /// non-UTF-8 byte) and reaches the `Ok` paths; whatever parses
        /// must also survive the accessors the detector calls on it.
        #[test]
        fn parse_request_never_panics(
            input in proptest::collection::vec(any::<u8>(), 0..256),
            shaped in proptest::collection::vec(0usize..REQUEST_ALPHABET.len(), 0..96),
        ) {
            let shaped: Vec<u8> = shaped
                .iter()
                .flat_map(|&i| REQUEST_ALPHABET[i].iter().copied())
                .collect();
            for raw in [&input, &shaped] {
                if let Ok(request) = crate::parse::parse_request(raw) {
                    let _ = request.detection_payload();
                    let _ = request.request_target();
                    let _ = crate::parse::parse_request(&request.to_wire());
                }
            }
        }

        /// ROADMAP 7(d): whatever bytes travel in the query and the
        /// body are the bytes the detector scans — nothing is decoded,
        /// replaced or dropped on the way.
        #[test]
        fn detection_payload_is_the_wire_bytes(
            query in proptest::collection::vec(any::<u8>(), 0..64),
            body in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let query = solid(query);
            let mut wire = b"POST /p?".to_vec();
            wire.extend_from_slice(&query);
            wire.extend_from_slice(b" HTTP/1.1\r\nHost: h\r\n\r\n");
            wire.extend_from_slice(&body);
            let request = crate::parse::parse_request(&wire).unwrap();
            prop_assert_eq!(request.body(), body.as_slice());
            let mut payload = query.clone();
            if !query.is_empty() && !body.is_empty() {
                payload.push(b'&');
            }
            payload.extend_from_slice(&body);
            prop_assert_eq!(request.detection_payload(), payload.as_slice());
        }

        /// On valid UTF-8 with ASCII whitespace (the alphabet without
        /// its last fragment, `\xff`) the byte parser and the lossy
        /// `str` parser it replaced agree on every part and every
        /// error; `parse.rs` lists where they differ outside it.
        #[test]
        fn parse_request_matches_the_lossy_parser(
            shaped in proptest::collection::vec(0usize..REQUEST_ALPHABET.len() - 1, 0..96),
        ) {
            let raw: Vec<u8> = shaped
                .iter()
                .flat_map(|&i| REQUEST_ALPHABET[i].iter().copied())
                .collect();
            prop_assert_eq!(
                crate::parse::parse_request_parts(&raw),
                crate::parse::parse_request_lossy(&raw)
            );
        }

        /// `to_wire` and `parse_request` are inverses on requests
        /// whose parts hold none of the wire format's separators and
        /// whose query holds only bytes a request target carries as
        /// they are: `to_wire` percent-encodes the others, which a
        /// parse does not decode (their normalized payload is the
        /// same: `psigene-corpus`'s `the_wire_form_normalizes_like_the_request`).
        #[test]
        fn to_wire_then_parse_is_the_identity(
            method in 0usize..4,
            path in proptest::collection::vec(any::<u8>(), 0..24),
            query in proptest::collection::vec(any::<u8>(), 0..48),
            host in proptest::collection::vec(any::<u8>(), 0..24),
            body in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            let method = [
                crate::Method::Get,
                crate::Method::Post,
                crate::Method::Head,
                crate::Method::Other("PUT".to_string()),
            ][method].clone();
            let mut path = solid(path);
            path.retain(|&b| b != b'?');
            path.insert(0, b'/');
            let mut query = query;
            query.retain(|&b| b > 0x20 && b < 0x7f && b != b'#');
            let request =
                crate::HttpRequest::from_parts(method, &path, &query, &solid(host), &body);
            prop_assert_eq!(crate::parse::parse_request(&request.to_wire()), Ok(request));
        }

        #[test]
        fn parse_params_never_panics(input in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = crate::query::parse_params(&input);
        }
    }
}
