//! Percent- and unicode-decoding of request payloads.
//!
//! Attackers routinely hide SQL tokens behind `%27`-style percent
//! encoding, `%u0027`-style IIS unicode encoding, or doubled
//! encodings. These decoders are deliberately forgiving: invalid
//! escapes pass through unchanged, because a detector must never
//! crash on hostile input.
//!
//! Every decoder comes in two shapes: the allocating convenience
//! (`percent_decode`) and the `_into` variant writing into a
//! caller-owned buffer. They are the reference the fused sweep of
//! [`crate::normalize::normalize_into`] is tested against. The
//! `*_changes` predicates are exact: they return `true` iff the
//! corresponding decoder would produce output different from its
//! input, which is how the normalizer decides whether its pass cap
//! cut decoding short.

/// Decodes `%HH` percent escapes and `+`-as-space.
///
/// Invalid or truncated escapes are copied through verbatim.
pub fn percent_decode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len());
    percent_decode_into(input, &mut out);
    out
}

/// [`percent_decode`] into a caller-owned buffer (cleared first).
pub fn percent_decode_into(input: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let mut i = 0;
    while i < input.len() {
        match input[i] {
            // A `%HH` escape needs two bytes after the `%`: decode
            // only when both are inside the buffer AND are hex digits
            // (a valid escape ending exactly at the end of input is
            // fine; a truncated one passes through verbatim).
            b'%' if i + 2 < input.len() => match (hex(input[i + 1]), hex(input[i + 2])) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
}

/// True iff [`percent_decode`] would change `input`: it contains a
/// `+` or a complete `%HH` escape with two hex digits.
pub fn percent_decode_changes(input: &[u8]) -> bool {
    let mut i = 0;
    while i < input.len() {
        match input[i] {
            b'+' => return true,
            b'%' if i + 2 < input.len() => {
                if hex(input[i + 1]).is_some() && hex(input[i + 2]).is_some() {
                    return true;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    false
}

/// Decodes `%uXXXX` IIS-style unicode escapes to ASCII where the code
/// point is ASCII; non-ASCII code points decode to `?` so that the
/// byte-level features still see a token boundary.
pub fn unicode_decode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len());
    unicode_decode_into(input, &mut out);
    out
}

/// [`unicode_decode`] into a caller-owned buffer (cleared first).
pub fn unicode_decode_into(input: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let mut i = 0;
    while i < input.len() {
        if let Some(b) = unicode_escape_at(input, i) {
            out.push(b);
            i += 6;
        } else {
            out.push(input[i]);
            i += 1;
        }
    }
}

/// True iff [`unicode_decode`] would change `input`: it contains a
/// complete `%uXXXX` escape.
pub fn unicode_decode_changes(input: &[u8]) -> bool {
    (0..input.len()).any(|i| unicode_escape_at(input, i).is_some())
}

/// What a complete `%uXXXX`/`%UXXXX` escape starting at byte `i`
/// decodes to, if one is there: the code point when it is ASCII, `?`
/// otherwise.
pub(crate) fn unicode_escape_at(input: &[u8], i: usize) -> Option<u8> {
    if input[i] != b'%' || i + 5 >= input.len() || !matches!(input[i + 1], b'u' | b'U') {
        return None;
    }
    let mut cp = 0u32;
    for k in 2..6 {
        cp = cp << 4 | hex(input[i + k])? as u32;
    }
    Some(if cp < 0x80 { cp as u8 } else { b'?' })
}

pub(crate) fn hex(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-encodes bytes outside the unreserved set, for generators
/// that need to emit encoded payloads.
pub fn percent_encode(input: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    let mut out = String::with_capacity(input.len() * 3);
    for &b in input {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push('%');
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xF)] as char);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_percent_decoding() {
        assert_eq!(percent_decode(b"a%27b"), b"a'b");
        assert_eq!(percent_decode(b"%2527"), b"%27"); // single pass
        assert_eq!(percent_decode(b"a+b"), b"a b");
    }

    #[test]
    fn invalid_escapes_pass_through() {
        assert_eq!(percent_decode(b"100%"), b"100%");
        assert_eq!(percent_decode(b"%zz"), b"%zz");
        assert_eq!(percent_decode(b"%2"), b"%2");
    }

    #[test]
    fn truncated_escapes_at_end_of_input() {
        // Regression for the old `i + 2 < input.len() + 1` guard,
        // which probed one byte past the end and only worked because
        // the hex lookup tolerated the out-of-range access.
        assert_eq!(percent_decode(b"%"), b"%");
        assert_eq!(percent_decode(b"a%2"), b"a%2");
        // A valid escape whose last digit is the final input byte
        // must still decode.
        assert_eq!(percent_decode(b"abc%27"), b"abc'");
        assert_eq!(percent_decode(b"%27"), b"'");
    }

    #[test]
    fn change_predicates_are_exact() {
        let cases: &[&[u8]] = &[
            b"",
            b"%",
            b"a%2",
            b"%27",
            b"%zz",
            b"a+b",
            b"100%",
            b"%u0027",
            b"%u00",
            b"%U4e2D",
            b"plain text",
            b"%2527",
        ];
        for c in cases {
            assert_eq!(
                percent_decode_changes(c),
                percent_decode(c) != *c,
                "percent predicate wrong on {c:?}"
            );
            assert_eq!(
                unicode_decode_changes(c),
                unicode_decode(c) != *c,
                "unicode predicate wrong on {c:?}"
            );
        }
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let mut buf = Vec::new();
        percent_decode_into(b"a%27b", &mut buf);
        assert_eq!(buf, b"a'b");
        // A dirty buffer from a previous request is cleared first.
        percent_decode_into(b"x+y", &mut buf);
        assert_eq!(buf, b"x y");
        unicode_decode_into(b"%u0041", &mut buf);
        assert_eq!(buf, b"A");
    }

    #[test]
    fn unicode_decoding() {
        assert_eq!(unicode_decode(b"%u0027"), b"'");
        assert_eq!(unicode_decode(b"%U0041"), b"A");
        // Non-ASCII code points degrade to a placeholder.
        assert_eq!(unicode_decode(b"%u4e2d"), b"?");
        // Truncated escapes pass through.
        assert_eq!(unicode_decode(b"%u00"), b"%u00");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let payload = b"' OR 1=1 -- -";
        let enc = percent_encode(payload);
        assert_eq!(percent_decode(enc.as_bytes()), payload);
    }

    #[test]
    fn empty_input() {
        assert_eq!(percent_decode(b""), b"");
        assert_eq!(unicode_decode(b""), b"");
    }
}
