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
//! iterated rather than just the decoders.
//!
//! # One buffer, one sweep per pass
//!
//! [`normalize_into`] is the hot-path entry. One scan
//! (`first_abnormal`) finds the first byte any transformation could
//! touch; without one the *input* is returned borrowed (most benign
//! traffic). Otherwise the payload is copied once into the
//! caller-owned [`NormScratch`] and every pass is a single in-place
//! sweep that applies all five transformations to each byte as it
//! goes — exactly the sequential composition [`apply`] folded over
//! [`STANDARD_PIPELINE`] defines, which stays here as the executable
//! specification the tests compare against. A sweep that changed the
//! bytes but wrote neither `%` nor `+` has provably left a fix point,
//! so its confirming pass is counted but not run. A warm scratch
//! makes steady-state normalization allocation-free; [`normalize`] is
//! the allocating convenience wrapper over the same code path. The
//! pass count and whether the cap cut decoding short stay on the
//! scratch ([`NormScratch::last_passes`], [`NormScratch::last_hit_cap`])
//! for the extraction layer to publish as `http.normalize_passes` and
//! `http.normalize_cap_hits`.

use crate::decode::{
    hex, percent_decode, percent_decode_changes, unicode_decode, unicode_decode_changes,
    unicode_escape_at,
};

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

/// Applies one transformation. Folding this over
/// [`STANDARD_PIPELINE`] is the specification [`normalize_into`]'s
/// fused sweep is tested against. Output is never longer than the
/// input.
pub fn apply(t: Transformation, input: &[u8]) -> Vec<u8> {
    match t {
        Transformation::UnicodeToAscii => unicode_decode(input),
        Transformation::UrlDecode => percent_decode(input),
        Transformation::Lowercase => input.to_ascii_lowercase(),
        Transformation::CollapseWhitespace => {
            let mut out = Vec::with_capacity(input.len());
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
            out
        }
        Transformation::StripControls => input
            .iter()
            .copied()
            .filter(|b| !b.is_ascii_control() || b.is_ascii_whitespace())
            .collect(),
    }
}

/// Caller-owned working memory for [`normalize_into`]: the one buffer
/// every pass sweeps in place, plus the last call's outcome. Reuse one
/// scratch per worker thread and steady-state normalization stops
/// touching the allocator (the buffer keeps its high-water capacity
/// across requests).
#[derive(Debug, Default)]
pub struct NormScratch {
    buf: Vec<u8>,
    last_passes: u32,
    last_hit_cap: bool,
}

impl NormScratch {
    /// An empty scratch; the buffer grows to payload size on first use
    /// and is reused after that.
    pub fn new() -> NormScratch {
        NormScratch::default()
    }

    /// Pipeline passes the last [`normalize_into`] call on this
    /// scratch counted (`1..=MAX_NORMALIZE_PASSES`; 0 before any call):
    /// what the reference fold would have run, including a confirming
    /// pass the sweep proved unnecessary.
    pub fn last_passes(&self) -> u32 {
        self.last_passes
    }

    /// Whether the last call stopped at [`MAX_NORMALIZE_PASSES`] with
    /// bytes another pass would still change — encoding deeper than
    /// the cap, so the signatures saw a partly decoded payload.
    pub fn last_hit_cap(&self) -> bool {
        self.last_hit_cap
    }
}

/// Bytes no transformation can touch wherever they stand: everything
/// but `%` (percent/unicode escapes), `+` (form-encoded space), `A`-`Z`
/// (lowercasing), the ASCII control bytes `0x00..0x20` and `0x7F`
/// (stripped, or whitespace that collapsing rewrites) and the space
/// (plain unless it follows another). The sweep copies these straight
/// through.
const PLAIN: [bool; 256] = {
    let mut t = [false; 256];
    let mut b = 0usize;
    while b < 256 {
        t[b] = !(b == b'%' as usize
            || b == b'+' as usize
            || (b >= b'A' as usize && b <= b'Z' as usize)
            || b <= 0x20
            || b == 0x7F);
        b += 1;
    }
    t
};

/// Single-scan normal-form gate: `None` guarantees every pipeline
/// transformation is a no-op on `input`, so [`normalize_into`] returns
/// it borrowed; `Some(i)` is the first byte that is not [`PLAIN`] and
/// not a lone space, where the first sweep starts. The gate being
/// conservative would cost time, never correctness; `None` ⇒ no-op is
/// pinned by test.
fn first_abnormal(input: &[u8]) -> Option<usize> {
    let mut prev_space = false;
    for (i, &b) in input.iter().enumerate() {
        if !PLAIN[b as usize] && (b != b' ' || prev_space) {
            return Some(i);
        }
        prev_space = b == b' ';
    }
    None
}

/// The unicode decoder's next output byte at read index `i` and the
/// input bytes it consumes for it.
fn unicode_step(buf: &[u8], i: usize) -> (u8, usize) {
    match unicode_escape_at(buf, i) {
        Some(b) => (b, 6),
        None => (buf[i], 1),
    }
}

/// The next *unicode-decoded* byte at read index `i` as a hex digit:
/// its value and the input bytes consumed. The percent decoder reads
/// the unicode decoder's output, so each digit of a `%HH` escape may
/// itself arrive as a `%uXXXX` escape, and "two more bytes" counts
/// decoded bytes.
fn hex_step(buf: &[u8], i: usize) -> Option<(u8, usize)> {
    if i >= buf.len() {
        return None;
    }
    let (b, n) = unicode_step(buf, i);
    Some((hex(b)?, n))
}

/// Both decoders' output for the `%` at read index `i`: the byte the
/// percent decoder emits there, and the input bytes consumed for it.
fn decode_at(buf: &[u8], i: usize) -> (u8, usize) {
    // The common case, ahead of the general one it is an instance of:
    // two raw hex digits follow, so the unicode decoder passes all
    // three bytes through and the percent decoder folds them.
    if let [_, h, l, ..] = buf[i..] {
        if let (Some(hi), Some(lo)) = (hex(h), hex(l)) {
            return (hi * 16 + lo, 3);
        }
    }
    let (u, n) = unicode_step(buf, i);
    match u {
        b'%' => hex_step(buf, i + n)
            .and_then(|(hi, n1)| {
                let (lo, n2) = hex_step(buf, i + n + n1)?;
                Some((hi * 16 + lo, n + n1 + n2))
            })
            .unwrap_or((b'%', n)),
        // `%u002B`: the percent decoder sees a `+`.
        b'+' => (b' ', n),
        other => (other, n),
    }
}

/// What one sweep did to the buffer.
struct Swept {
    /// The sweep's output differs from its input.
    changed: bool,
    /// The output holds a `%` or a `+`. They are the only bytes a
    /// later pass can start decoding from (`%2b` decodes to a `+` the
    /// next pass turns into a space), and a swept buffer has nothing
    /// left to fold, strip or collapse — so without one it is a fix
    /// point.
    wrote_escape: bool,
}

/// One pipeline pass over `buf[start..]`, in place: read index `i`,
/// write index `w <= i` (every step consumes at least one byte and
/// emits at most one, so the write never overtakes unread input).
/// Each step takes the unicode decoder's next output byte, percent-
/// decodes it, lowercases, strips, collapses — the sequential
/// composition of [`STANDARD_PIPELINE`], byte for byte. `buf[..start]`
/// must be normal form ([`first_abnormal`]).
fn sweep(vec: &mut Vec<u8>, start: usize) -> Swept {
    let buf = vec.as_mut_slice();
    let len = buf.len();
    // Collapsing's state where the sweep enters: the prefix holds no
    // whitespace but lone spaces.
    let mut in_space = start > 0 && buf[start - 1] == b' ';
    let mut rewrote = false;
    let mut wrote_escape = false;
    let (mut i, mut w) = (start, start);
    while i < len {
        let b = buf[i];
        if PLAIN[b as usize] {
            buf[w] = b;
            w += 1;
            i += 1;
            in_space = false;
            continue;
        }
        let (p, n) = match b {
            b'%' => decode_at(buf, i),
            b'+' => (b' ', 1),
            _ => (b, 1),
        };
        i += n;
        wrote_escape |= p == b'%' || p == b'+';
        let out = if p.is_ascii_whitespace() {
            if in_space {
                continue;
            }
            in_space = true;
            b' '
        } else if p.is_ascii_control() {
            // Stripped before collapsing sees it: the in-space state
            // carries over (`a \x00 b` collapses to `a b`).
            continue;
        } else {
            in_space = false;
            p.to_ascii_lowercase()
        };
        // A same-length rewrite; every other change shortens the
        // buffer and shows in `w`.
        rewrote |= out != b;
        buf[w] = out;
        w += 1;
    }
    vec.truncate(w);
    Swept {
        changed: rewrote || w != len,
        wrote_escape,
    }
}

/// Normalizes `input` through the [`STANDARD_PIPELINE`] to its
/// bounded fix point and returns a borrow of the normalized bytes —
/// the input itself when it was already in normal form, the scratch
/// buffer otherwise. Byte for byte and pass for pass the fold of
/// [`apply`] over the pipeline (pinned by proptest).
pub fn normalize_into<'a>(input: &'a [u8], scratch: &'a mut NormScratch) -> &'a [u8] {
    scratch.last_passes = 1;
    scratch.last_hit_cap = false;
    // Fast path for the common case (benign traffic is overwhelmingly
    // already normal): the fold would run one pass that changes
    // nothing.
    let Some(mut start) = first_abnormal(input) else {
        return input;
    };
    let buf = &mut scratch.buf;
    buf.clear();
    buf.extend_from_slice(input);
    loop {
        let swept = sweep(buf, start);
        if !swept.changed {
            break;
        }
        if scratch.last_passes == MAX_NORMALIZE_PASSES {
            // Cold: after a full sweep only the two decoders can still
            // have work, so they decide exactly whether the cap cut
            // decoding short.
            scratch.last_hit_cap =
                swept.wrote_escape && (percent_decode_changes(buf) || unicode_decode_changes(buf));
            break;
        }
        // The fold's next pass — run it, or just count it when this
        // sweep proved it would change nothing.
        scratch.last_passes += 1;
        if !swept.wrote_escape {
            break;
        }
        start = 0;
    }
    buf
}

/// Applies the whole [`STANDARD_PIPELINE`] to its bounded fix point
/// (allocating convenience over [`normalize_into`]).
pub fn normalize(input: &[u8]) -> Vec<u8> {
    let mut scratch = NormScratch::new();
    normalize_into(input, &mut scratch).to_vec()
}

/// One pass of the specification: [`apply`] folded over the
/// [`STANDARD_PIPELINE`].
#[cfg(test)]
pub(crate) fn reference_pass(input: &[u8]) -> Vec<u8> {
    STANDARD_PIPELINE
        .iter()
        .fold(input.to_vec(), |acc, &t| apply(t, &acc))
}

/// The reference the fused sweep must match byte for byte and pass for
/// pass, sharing nothing with it above the decoders' leaf helpers:
/// [`reference_pass`] repeated until a pass changes nothing or the cap
/// is reached, with the number of passes run.
#[cfg(test)]
pub(crate) fn normalize_reference(input: &[u8]) -> (Vec<u8>, u32) {
    let mut cur = input.to_vec();
    let mut passes = 0;
    while passes < MAX_NORMALIZE_PASSES {
        passes += 1;
        let next = reference_pass(&cur);
        let done = next == cur;
        cur = next;
        if done {
            break;
        }
    }
    (cur, passes)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Borrowed straight from the input: the scratch buffer was
        // never written.
        assert!(scratch.buf.is_empty());
        assert_eq!((scratch.last_passes(), scratch.last_hit_cap()), (1, false));
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
            assert_eq!(normalize_into(p, &mut scratch), normalize_reference(p).0);
        }
    }

    #[test]
    fn fast_path_gate_never_skips_needed_work() {
        // `first_abnormal(x) == None` must imply no transformation
        // changes `x`. Sweep all single bytes and all
        // suspicious-adjacent pairs (adjacency only matters for space
        // collapsing).
        let changes = |input: &[u8]| STANDARD_PIPELINE.iter().any(|&t| apply(t, input) != input);
        for b in 0..=255u8 {
            let one = [b];
            if first_abnormal(&one).is_none() {
                assert!(!changes(&one), "gate wrong on single byte {b:#04x}");
            }
        }
        for a in [b' ', b'a', b'%', b'+', b'\t', 0x00, 0x7F] {
            for b in 0..=255u8 {
                let two = [a, b];
                if first_abnormal(&two).is_none() {
                    assert!(!changes(&two), "gate wrong on pair {a:#04x},{b:#04x}");
                }
            }
        }
        // And the gate actually fires on representative traffic, at
        // the byte the first sweep must start from.
        assert_eq!(first_abnormal(b"page=2&sort=asc id=17"), None);
        assert_eq!(first_abnormal(b"id=%27"), Some(3));
        assert_eq!(first_abnormal(b"two  spaces"), Some(4));
    }

    #[test]
    fn fused_sweep_equals_the_fold_on_named_cases() {
        // (input, normal form, passes the fold runs).
        let cases: &[(&[u8], &[u8], u32)] = &[
            // `%2b` decodes to a `+` only the next pass turns into a space.
            (b"%2b", b" ", 3),
            // The percent decoder reads the unicode decoder's output.
            (b"%u0025%u0032%u0037", b"'", 2),
            (b"%u0025%u0032%u00377", b"'7", 2),
            (b"%u00252%u0037", b"'", 2),
            (b"%u002B", b" ", 2),
            (b"%u0025u0027", b"'", 3),
            (b"%%327", b"'", 3),
            (b"%2\x007", b"'", 3),
            // A stripped byte does not end a run of spaces; VT is
            // stripped, not collapsed.
            (b"a \x00 b", b"a b", 2),
            (b"a\x0bb", b"ab", 2),
            (b"a \x0b\tb", b"a b", 2),
            // Truncated escapes at end of input pass through.
            (b"x%", b"x%", 1),
            (b"x%2", b"x%2", 1),
            (b"x%u002", b"x%u002", 1),
            (b"x%u00zz", b"x%u00zz", 1),
            (b"%u0025%u0032", b"%2", 2),
            (b"%%u0037", b"%7", 2),
            // The first sweep starts right after a lone space.
            (b"a \tb", b"a b", 2),
            (b"a  b", b"a b", 2),
            (b"a +b", b"a b", 2),
            (b"a %20b", b"a b", 2),
            (b"%u4e2dX", b"?x", 2),
        ];
        let mut scratch = NormScratch::new();
        for &(input, want, passes) in cases {
            assert_eq!(
                normalize_reference(input),
                (want.to_vec(), passes),
                "{input:?}"
            );
            assert_eq!(normalize_into(input, &mut scratch), want, "{input:?}");
            assert_eq!(scratch.last_passes(), passes, "{input:?}");
            assert!(!scratch.last_hit_cap(), "{input:?}");
        }
    }

    #[test]
    fn cap_hits_are_exact() {
        // (input, where normalization stops, whether a fourth pass
        // would still change it).
        let cases: &[(&[u8], &[u8], bool)] = &[
            // Three layers over a quote: the cap leaves `%27`.
            (b"%25252527", b"%27", true),
            (b"%2527", b"'", false),
            // The third sweep changed the bytes and wrote a `%`, but
            // `%zz` is no escape.
            (b"%252525zz", b"%zz", false),
            // A `+` left by the last pass is one pass short of a space.
            (b"%25252b", b"+", true),
            (b"%252525u0027", b"%u0027", true),
        ];
        let mut scratch = NormScratch::new();
        for &(input, want, hit) in cases {
            assert_eq!(normalize_into(input, &mut scratch), want, "{input:?}");
            assert_eq!(scratch.last_hit_cap(), hit, "{input:?}");
            assert_eq!(reference_pass(want) != want, hit, "{input:?}");
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
