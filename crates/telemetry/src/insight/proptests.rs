//! Property tests for the drift primitives: sketch merging is
//! order-insensitive, PSI of a distribution against itself is exactly
//! zero, and smoothing keeps every score finite — no NaN or infinity
//! can reach an exported gauge.

use crate::drift::{kl_divergence, psi};
use crate::sketch::DecayedSketch;
use proptest::prelude::*;

const BINS: usize = 16;

/// Builds a sketch from an arbitrary payload stream: each event is a
/// `(bin, weight_millis, advance)` triple, mimicking per-feature
/// observations interleaved with window rolls.
fn build(events: &[(usize, u32, bool)], decay: f64) -> DecayedSketch {
    let mut s = DecayedSketch::new(BINS, decay);
    for &(bin, w, adv) in events {
        s.observe(bin % BINS, w as f64 / 1_000.0);
        if adv {
            s.advance(1);
        }
    }
    s
}

fn events() -> impl Strategy<Value = Vec<(usize, u32, bool)>> {
    proptest::collection::vec((0usize..BINS, 1u32..50_000, any::<bool>()), 0..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sketch_merge_is_order_insensitive(
        a in events(),
        b in events(),
        decay in 0.05f64..1.0,
    ) {
        let sa = build(&a, decay);
        let sb = build(&b, decay);
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        // Generations align to the max on both sides; bin weights and
        // totals agree down to the bit.
        prop_assert_eq!(ab.generation(), ba.generation());
        for (x, y) in ab.weights().iter().zip(ba.weights()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert_eq!(ab.total().to_bits(), ba.total().to_bits());
    }

    #[test]
    fn psi_of_reference_against_itself_is_zero(
        stream in events(),
        decay in 0.05f64..1.0,
        zero_smoothing in any::<bool>(),
        smoothing_raw in 1e-9f64..1e-2,
    ) {
        let smoothing = if zero_smoothing { 0.0 } else { smoothing_raw };
        let s = build(&stream, decay);
        if let Some(d) = s.distribution() {
            prop_assert_eq!(psi(&d, &d, smoothing), 0.0);
            prop_assert_eq!(kl_divergence(&d, &d, smoothing), 0.0);
        }
        // The raw (unnormalized) weights satisfy the same identity.
        prop_assert_eq!(psi(s.weights(), s.weights(), smoothing), 0.0);
    }

    #[test]
    fn scores_stay_finite_under_empty_bucket_smoothing(
        a in events(),
        b in events(),
        decay in 0.05f64..1.0,
        zero_smoothing in any::<bool>(),
        smoothing_raw in 1e-12f64..1e-2,
    ) {
        let smoothing = if zero_smoothing { 0.0 } else { smoothing_raw };
        // Arbitrary streams routinely leave buckets empty on one side
        // or both; smoothing must keep every score a finite number.
        let sa = build(&a, decay);
        let sb = build(&b, decay);
        for (p, q) in [
            (sa.weights(), sb.weights()),
            (sb.weights(), sa.weights()),
        ] {
            let s = psi(p, q, smoothing);
            let k = kl_divergence(p, q, smoothing);
            prop_assert!(s.is_finite(), "psi = {}", s);
            prop_assert!(k.is_finite(), "kl = {}", k);
            // PSI is non-negative up to rounding; KL is non-negative
            // by Gibbs' inequality.
            prop_assert!(s >= -1e-12, "psi = {}", s);
            prop_assert!(k >= -1e-12, "kl = {}", k);
        }
    }

    #[test]
    fn merge_matches_interleaved_recording_without_decay(
        a in events(),
        b in events(),
    ) {
        // With decay 1.0 and no generation skew, merging two halves
        // equals recording the concatenated stream (weights add).
        let strip = |ev: &[(usize, u32, bool)]| -> Vec<(usize, u32, bool)> {
            ev.iter().map(|&(bin, w, _)| (bin, w, false)).collect()
        };
        let (a, b) = (strip(&a), strip(&b));
        let mut merged = build(&a, 1.0);
        merged.merge(&build(&b, 1.0));
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        let whole = build(&concat, 1.0);
        for (x, y) in merged.weights().iter().zip(whole.weights()) {
            prop_assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "{} vs {}", x, y);
        }
    }
}
