//! Property tests for the drift primitives: sketch merging is
//! order-insensitive, PSI of a distribution against itself is exactly
//! zero, smoothing keeps every score finite — no NaN or infinity can
//! reach an exported gauge — the one-pass PSI/KL equals the two
//! scores, and a monitor fed in batches equals one fed per request.

use crate::drift::{kl_divergence, psi, psi_and_kl, DriftConfig, DriftMonitor};
use crate::sketch::DecayedSketch;
use proptest::prelude::*;

const BINS: usize = 16;

/// Decays the batching properties run at. Scaling by a power of two is
/// exact, so 0.25 and 0.5 alone would let an order-sensitive monitor
/// pass on short streams; 0.9 and 0.3 round on every roll.
const DECAYS: [f64; 5] = [0.25, 0.5, 1.0, 0.9, 0.3];

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

/// Weights of every kind a caller can hand the scores: zeros of both
/// signs, NaN, ±∞, negatives, and ordinary positives of any size.
fn weights(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u8..8, 0.0f64..1e6), len).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, w)| match kind {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => f64::INFINITY,
                4 => -w,
                5 => w * 1e-9,
                _ => w,
            })
            .collect()
    })
}

/// A request stream: each request is a few `(bin, integer weight)`
/// observations (zero weights included, which the monitor ignores),
/// plus whether the feeder publishes its batch after it.
fn requests() -> impl Strategy<Value = Vec<(Vec<(usize, u32)>, bool)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0usize..BINS, 0u32..1_000), 0..4),
            (0u8..5).prop_map(|k| k == 0),
        ),
        0..160,
    )
}

/// Everything a monitor reports, as bits.
fn monitor_bits(m: &DriftMonitor) -> (u64, Option<u64>, Option<u64>, Vec<u64>, Vec<u64>) {
    let bits = |v: Option<&[f64]>| v.unwrap_or(&[]).iter().map(|x| x.to_bits()).collect();
    (
        m.windows(),
        m.psi().map(f64::to_bits),
        m.kl().map(f64::to_bits),
        bits(m.current()),
        bits(m.reference()),
    )
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
    fn one_pass_psi_and_kl_equal_the_two_scores_to_the_bit(
        len in 0usize..24,
        seed in weights(48),
        zero_smoothing in any::<bool>(),
        smoothing_raw in 1e-12f64..1.0,
    ) {
        let smoothing = if zero_smoothing { 0.0 } else { smoothing_raw };
        let (reference, current) = (&seed[..len], &seed[24..24 + len]);
        let (psi_bits, kl_bits) = {
            let (p, k) = psi_and_kl(reference, current, smoothing);
            (p.to_bits(), k.to_bits())
        };
        prop_assert_eq!(psi_bits, psi(reference, current, smoothing).to_bits());
        prop_assert_eq!(kl_bits, kl_divergence(reference, current, smoothing).to_bits());
        // A distribution against itself, and mismatched lengths.
        let (p, k) = psi_and_kl(reference, reference, smoothing);
        prop_assert_eq!(p.to_bits(), psi(reference, reference, smoothing).to_bits());
        prop_assert_eq!(k.to_bits(), kl_divergence(reference, reference, smoothing).to_bits());
        prop_assert_eq!(psi_and_kl(reference, &seed[..len + 1], smoothing), (0.0, 0.0));
    }

    /// A monitor fed one request at a time, against the same stream
    /// handed over in batches the way the engine publishes them: each
    /// batch pre-summed per bin, ended wherever the feeder chooses and
    /// at the latest where the window it started in ends, so windows
    /// are assembled from several batches and batches start and end
    /// mid-window.
    #[test]
    fn batched_feed_equals_one_observation_at_a_time(
        stream in requests(),
        decay_pick in 0usize..DECAYS.len(),
        window in 1u64..24,
    ) {
        let config = DriftConfig {
            window,
            decay: DECAYS[decay_pick],
            smoothing: 1e-2,
        };
        let mut single = DriftMonitor::new(BINS, config);
        for (request, _) in &stream {
            for &(bin, w) in request {
                single.observe(bin, f64::from(w));
            }
            single.tick();
        }

        let mut batched = DriftMonitor::new(BINS, config);
        let mut sums = [0u64; BINS];
        let mut pending = 0u64;
        let mut due = batched.remaining();
        let publish = |m: &mut DriftMonitor, sums: &mut [u64; BINS], pending: &mut u64| {
            for (bin, sum) in sums.iter_mut().enumerate() {
                m.observe(bin, std::mem::take(sum) as f64);
            }
            m.tick_n(std::mem::take(pending));
            m.remaining()
        };
        for (request, cut) in &stream {
            for &(bin, w) in request {
                sums[bin] += u64::from(w);
            }
            pending += 1;
            if pending == due || *cut {
                due = publish(&mut batched, &mut sums, &mut pending);
            }
        }
        publish(&mut batched, &mut sums, &mut pending);
        prop_assert_eq!(monitor_bits(&batched), monitor_bits(&single));
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
