//! The paper's five payload transformations (§II-A).
//!
//! > "Once the attack samples are collected, we use a set of 5
//! > transformations, including uppercase → lowercase, URL encoding →
//! > ascii characters, and unicode → ascii characters."
//!
//! The two transformations the paper leaves unnamed are implemented
//! here as whitespace collapsing (tabs/newlines/multiple spaces → one
//! space) and control-byte stripping — both standard normalizations
//! in WAF preprocessing, needed so equivalent obfuscations land on
//! identical feature footprints.
//!
//! # Fix-point contract
//!
//! Normalization is a **bounded fix point**: the whole pipeline is
//! re-applied (up to [`MAX_NORMALIZE_PASSES`] times) until a pass
//! changes nothing, so `normalize(normalize(x)) == normalize(x)`. A
//! single decode pass is an evasion gap, not a convenience: a
//! double-encoded `%2527` would reach the feature VMs as the literal
//! bytes `%27` instead of the quote the signatures were trained on,
//! and even single-layer inputs like `%%327` re-decode on a second
//! pass. Control-byte stripping can likewise splice a fresh escape
//! together (`%2` + NUL + `7`), which is why the *whole* pipeline is
//! iterated rather than just the decoders. Pass counts land in the
//! `http.normalize_passes` telemetry counter.
//!
//! # Allocation contract
//!
//! [`normalize_into`] is the hot-path entry: it writes into a
//! caller-owned [`NormScratch`] double buffer and returns a borrowed
//! slice — of the *input* when the payload is already normal form
//! (most benign traffic), of a scratch buffer otherwise. Each
//! transformation first checks an exact "would this change anything"
//! predicate and is skipped entirely when it is a no-op, so a warm
//! scratch makes steady-state normalization allocation-free.
//! [`normalize`] is the allocating convenience wrapper over the same
//! code path.

use crate::decode::{
    percent_decode_changes, percent_decode_into, unicode_decode_changes, unicode_decode_into,
};
use psigene_telemetry::Counter;
use std::sync::{Arc, OnceLock};

/// Upper bound on full-pipeline passes: covers the encoding depths
/// seen in practice (double encoding plus one splice) while bounding
/// the work a hostile deeply-nested payload can demand.
pub const MAX_NORMALIZE_PASSES: u32 = 3;

/// One normalization step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transformation {
    /// `%uXXXX` → ASCII.
    UnicodeToAscii,
    /// `%HH`/`+` → ASCII.
    UrlDecode,
    /// ASCII uppercase → lowercase.
    Lowercase,
    /// Runs of whitespace → single space.
    CollapseWhitespace,
    /// Remove non-whitespace control bytes.
    StripControls,
}

/// The standard pipeline, in application order. Unicode and URL
/// decoding run before lowercasing so that encoded uppercase letters
/// are folded too.
pub const STANDARD_PIPELINE: [Transformation; 5] = [
    Transformation::UnicodeToAscii,
    Transformation::UrlDecode,
    Transformation::Lowercase,
    // Controls are stripped before whitespace collapsing so that a
    // control byte sandwiched between spaces cannot leave a double
    // space behind.
    Transformation::StripControls,
    Transformation::CollapseWhitespace,
];

/// Applies one transformation (allocating; see [`apply_into`] for the
/// buffer-reusing form).
pub fn apply(t: Transformation, input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len());
    apply_into(t, input, &mut out);
    out
}

/// Applies one transformation into a caller-owned buffer (cleared
/// first). Output is never longer than the input.
pub fn apply_into(t: Transformation, input: &[u8], out: &mut Vec<u8>) {
    match t {
        Transformation::UnicodeToAscii => unicode_decode_into(input, out),
        Transformation::UrlDecode => percent_decode_into(input, out),
        Transformation::Lowercase => {
            out.clear();
            out.extend(input.iter().map(|b| b.to_ascii_lowercase()));
        }
        Transformation::CollapseWhitespace => {
            out.clear();
            let mut in_space = false;
            for &b in input {
                if b.is_ascii_whitespace() {
                    if !in_space {
                        out.push(b' ');
                        in_space = true;
                    }
                } else {
                    out.push(b);
                    in_space = false;
                }
            }
        }
        Transformation::StripControls => {
            out.clear();
            out.extend(
                input
                    .iter()
                    .copied()
                    .filter(|b| !b.is_ascii_control() || b.is_ascii_whitespace()),
            );
        }
    }
}

/// Exact no-op predicate: `true` iff applying `t` would change
/// `input`. This is what lets [`normalize_into`] borrow instead of
/// copy — a transformation only runs when it has work to do.
pub fn would_change(t: Transformation, input: &[u8]) -> bool {
    match t {
        Transformation::UnicodeToAscii => unicode_decode_changes(input),
        Transformation::UrlDecode => percent_decode_changes(input),
        Transformation::Lowercase => input.iter().any(u8::is_ascii_uppercase),
        Transformation::CollapseWhitespace => {
            // Changes iff some whitespace byte is not a plain space,
            // or two whitespace bytes are adjacent.
            let mut prev_space = false;
            for &b in input {
                if b.is_ascii_whitespace() {
                    if b != b' ' || prev_space {
                        return true;
                    }
                    prev_space = true;
                } else {
                    prev_space = false;
                }
            }
            false
        }
        Transformation::StripControls => input
            .iter()
            .any(|b| b.is_ascii_control() && !b.is_ascii_whitespace()),
    }
}

/// Caller-owned working memory for [`normalize_into`]: two buffers
/// that swap source/destination roles between transformation passes.
/// Reuse one scratch per worker thread and steady-state normalization
/// stops touching the allocator (buffers keep their high-water
/// capacity across requests).
#[derive(Debug, Default)]
pub struct NormScratch {
    a: Vec<u8>,
    b: Vec<u8>,
}

impl NormScratch {
    /// An empty scratch; buffers grow to payload size on first use
    /// and are reused after that.
    pub fn new() -> NormScratch {
        NormScratch::default()
    }
}

/// Which slice currently holds the working payload.
#[derive(Clone, Copy)]
enum Cursor {
    /// Still the caller's input — nothing has needed a copy yet.
    Input,
    /// Scratch buffer `a`.
    A,
    /// Scratch buffer `b`.
    B,
}

fn passes_counter() -> &'static Arc<Counter> {
    static PASSES: OnceLock<Arc<Counter>> = OnceLock::new();
    PASSES.get_or_init(|| psigene_telemetry::counter("http.normalize_passes"))
}

/// Bytes that can give some pipeline transformation work to do: `%`
/// (percent/unicode escapes), `+` (form-encoded space), `A`-`Z`
/// (lowercasing), and every ASCII control byte — `0x00..0x20` and
/// `0x7F` — which covers both control stripping and the non-space
/// whitespace (`\t`, `\n`, `\x0B`, `\x0C`, `\r`) that collapsing
/// rewrites. A payload free of these (and of adjacent spaces, checked
/// separately) satisfies none of the [`would_change`] predicates.
const SUSPICIOUS: [bool; 256] = {
    let mut t = [false; 256];
    let mut b = 0usize;
    while b < 256 {
        t[b] = b == b'%' as usize
            || b == b'+' as usize
            || (b >= b'A' as usize && b <= b'Z' as usize)
            || b < 0x20
            || b == 0x7F;
        b += 1;
    }
    t
};

/// Single-scan normal-form gate: `true` guarantees every pipeline
/// transformation is a no-op on `input`, letting [`normalize_into`]
/// return the input borrowed after one pass over it instead of five
/// per-transformation [`would_change`] scans. `false` only routes to
/// the exact per-transformation path, so the gate being conservative
/// would cost time, never correctness; exactness is pinned by test.
fn is_normal_form(input: &[u8]) -> bool {
    let mut prev_space = false;
    for &b in input {
        if SUSPICIOUS[b as usize] {
            return false;
        }
        let space = b == b' ';
        if space && prev_space {
            return false;
        }
        prev_space = space;
    }
    true
}

/// Normalizes `input` through the [`STANDARD_PIPELINE`] to its
/// bounded fix point, writing any intermediate results into
/// `scratch` and returning a borrow of the normalized bytes — the
/// input itself when it was already in normal form, a scratch buffer
/// otherwise. Byte-identical to [`normalize`] (pinned by proptest).
pub fn normalize_into<'a>(input: &'a [u8], scratch: &'a mut NormScratch) -> &'a [u8] {
    // Fast path for the common case (benign traffic is overwhelmingly
    // already normal): one scan proves the fix-point loop would run a
    // single all-skip pass, which is exactly one counted pass and a
    // borrow of the input.
    if is_normal_form(input) {
        passes_counter().add(1);
        return input;
    }
    let NormScratch {
        ref mut a,
        ref mut b,
    } = *scratch;
    let mut cur = Cursor::Input;
    let mut passes = 0u32;
    loop {
        passes += 1;
        let mut changed = false;
        for &t in &STANDARD_PIPELINE {
            let needed = match cur {
                Cursor::Input => would_change(t, input),
                Cursor::A => would_change(t, a),
                Cursor::B => would_change(t, b),
            };
            if !needed {
                continue;
            }
            changed = true;
            cur = match cur {
                Cursor::Input => {
                    apply_into(t, input, a);
                    Cursor::A
                }
                Cursor::A => {
                    apply_into(t, a, b);
                    Cursor::B
                }
                Cursor::B => {
                    apply_into(t, b, a);
                    Cursor::A
                }
            };
        }
        if !changed || passes >= MAX_NORMALIZE_PASSES {
            break;
        }
    }
    passes_counter().add(passes as u64);
    match cur {
        Cursor::Input => input,
        Cursor::A => a,
        Cursor::B => b,
    }
}

/// Applies the whole [`STANDARD_PIPELINE`] to its bounded fix point
/// (allocating convenience over [`normalize_into`]).
pub fn normalize(input: &[u8]) -> Vec<u8> {
    let mut scratch = NormScratch::new();
    normalize_into(input, &mut scratch).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The straightforward reference implementation the scratch path
    /// must match byte-for-byte: fold the pipeline over owned `Vec`s,
    /// repeating until a pass changes nothing or the cap is hit.
    fn normalize_reference(input: &[u8]) -> Vec<u8> {
        let mut cur = input.to_vec();
        for _ in 0..MAX_NORMALIZE_PASSES {
            let next = STANDARD_PIPELINE
                .iter()
                .fold(cur.clone(), |acc, &t| apply(t, &acc));
            let done = next == cur;
            cur = next;
            if done {
                break;
            }
        }
        cur
    }

    #[test]
    fn full_pipeline_decodes_and_folds() {
        let raw = b"id=1%20UNION%20SELECT%20%27a%27";
        assert_eq!(normalize(raw), b"id=1 union select 'a'");
    }

    #[test]
    fn unicode_then_url() {
        let raw = b"q=%u0055NION+SELECT";
        assert_eq!(normalize(raw), b"q=union select");
    }

    #[test]
    fn whitespace_collapsed() {
        let raw = b"a\t\t b\n\nc";
        assert_eq!(normalize(raw), b"a b c");
    }

    #[test]
    fn controls_stripped() {
        let raw = b"a\x00b\x07c";
        assert_eq!(normalize(raw), b"abc");
    }

    #[test]
    fn normalization_is_idempotent() {
        // Re-normalizing normalized output must not change it further;
        // the fix-point loop guarantees it even for layered encodings.
        for raw in [
            b"id=%27%20or%201=1".as_slice(),
            b"%2527",
            b"%%327",
            b"%25u0027",
            b"a%2\x007",
        ] {
            let once = normalize(raw);
            assert_eq!(normalize(&once), once, "not idempotent on {raw:?}");
        }
    }

    #[test]
    fn double_encoded_payloads_reach_their_plain_form() {
        // The signatures are trained on decoded bytes; a re-encoded
        // quote must not survive normalization (the old single-pass
        // behavior left `%27` — an evasion gap).
        assert_eq!(normalize(b"%2527"), b"'");
        // `%%327`: the stray `%` passes through, `%32` decodes to
        // `2`, and the spliced `%27` decodes on the next pass.
        assert_eq!(normalize(b"%%327"), b"'");
        // Percent-encoded unicode escape.
        assert_eq!(normalize(b"%25u0027"), b"'");
        // A control byte splicing an escape back together: strip
        // joins `%2`+NUL+`7` into `%27`, the next pass decodes it.
        assert_eq!(normalize(b"%2\x007"), b"'");
        assert_eq!(normalize(b"id=%2527%2520OR%25201%253D1"), b"id=' or 1=1");
    }

    #[test]
    fn normalize_into_borrows_already_normal_input() {
        let mut scratch = NormScratch::new();
        let benign = b"page=2&sort=asc id=17";
        let out = normalize_into(benign, &mut scratch);
        assert_eq!(out, benign);
        // Borrowed straight from the input: the scratch buffers were
        // never written.
        assert!(scratch.a.is_empty() && scratch.b.is_empty());
    }

    #[test]
    fn scratch_is_reusable_across_payloads() {
        let mut scratch = NormScratch::new();
        let payloads: &[&[u8]] = &[
            b"id=1%20UNION%20SELECT%20%27a%27",
            b"page=2&sort=asc",
            b"%2527",
            b"q=%u0055NION+SELECT",
            b"",
        ];
        // Dirty scratch from the previous payload must never leak
        // into the next result.
        for p in payloads {
            assert_eq!(normalize_into(p, &mut scratch), normalize(p), "{p:?}");
        }
    }

    #[test]
    fn scratch_path_matches_reference() {
        let mut scratch = NormScratch::new();
        for p in [
            b"id=1%20UNION%20SELECT%20%27a%27".as_slice(),
            b"%2527%2527",
            b"A\tB  C\x01D",
            b"%u0041%2541",
        ] {
            assert_eq!(normalize_into(p, &mut scratch), normalize_reference(p));
        }
    }

    #[test]
    fn fast_path_gate_never_skips_needed_work() {
        // `is_normal_form(x)` must imply no transformation changes
        // `x`. Sweep all single bytes and all suspicious-adjacent
        // pairs (adjacency only matters for space collapsing).
        let changes = |input: &[u8]| STANDARD_PIPELINE.iter().any(|&t| would_change(t, input));
        for b in 0..=255u8 {
            let one = [b];
            if is_normal_form(&one) {
                assert!(!changes(&one), "gate wrong on single byte {b:#04x}");
            }
        }
        for a in [b' ', b'a', b'%', b'+', b'\t', 0x00, 0x7F] {
            for b in 0..=255u8 {
                let two = [a, b];
                if is_normal_form(&two) {
                    assert!(!changes(&two), "gate wrong on pair {a:#04x},{b:#04x}");
                }
            }
        }
        // And the gate actually fires on representative traffic.
        assert!(is_normal_form(b"page=2&sort=asc id=17"));
        assert!(!is_normal_form(b"id=%27"));
        assert!(!is_normal_form(b"two  spaces"));
    }

    #[test]
    fn would_change_predicates_are_exact() {
        let cases: &[&[u8]] = &[
            b"",
            b"plain",
            b"UPPER",
            b"two  spaces",
            b"tab\there",
            b"ctrl\x01byte",
            b"%27",
            b"%u0027",
            b"a+b",
            b"100%",
            b"a b c",
        ];
        for c in cases {
            for t in STANDARD_PIPELINE {
                assert_eq!(
                    would_change(t, c),
                    apply(t, c) != *c,
                    "{t:?} predicate wrong on {c:?}"
                );
            }
        }
    }

    #[test]
    fn equivalent_obfuscations_converge() {
        let variants: &[&[u8]] = &[
            b"1 UNION SELECT a",
            b"1+union+select+a",
            b"1%20UnIoN%20SeLeCt%20a",
            b"1\tUNION\nSELECT a",
            b"1%2520union%2520select%2520a",
        ];
        let want = b"1 union select a".to_vec();
        for v in variants {
            assert_eq!(normalize(v), want, "variant {v:?}");
        }
    }
}
