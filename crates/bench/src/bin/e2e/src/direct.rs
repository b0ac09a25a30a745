//! The direct path: `parse_request` → `evaluate` on the calling
//! thread, closed loop, and the per-layer probes of the traced pass.

use crate::calib::{Floors, Kernel, Slices, Timed};
use crate::check::{Reference, Tally};
use crate::pool::Pool;
use crate::spans::{self, SpanBuffer, LAYERS};
use crate::stats::percentiles;
use psigene::psigene_features::extract::{extract_dense_into, flush_extract_metrics};
use psigene::psigene_http::{normalize_into, parse_request, NormScratch};
use psigene::psigene_regex::{CandidateSet, DfaCache};
use psigene::psigene_rulesets::DetectionEngine;
use psigene::Psigene;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Requests per slice on the direct path: a few hundred microseconds
/// of work, short enough to fit between two bursts of a busy host.
pub const CHUNK: usize = 250;

/// Throughput pass: whole chunks timed with one timer pair each, no
/// per-request timer.
pub fn throughput(
    system: &Psigene,
    pool: &Pool,
    reference: &Reference,
    kernel: &Kernel,
    seconds: f64,
    tally: &mut Tally,
) -> Timed {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut timed = Timed::new(pool.len() / CHUNK);
    let mut slices = Slices::new(kernel);
    let mut at = 0;
    loop {
        if let Some(((segment, ns), scale)) = slices.calibrate() {
            timed.push(segment, ns, CHUNK as u64, scale);
            if Instant::now() >= deadline {
                return timed;
            }
        }
        let segment = at / CHUNK;
        let mut failed = 0;
        let start = Instant::now();
        for _ in 0..CHUNK {
            match parse_request(black_box(&pool.wire[at])) {
                Ok(request) => failed += reference.mismatch(at, &system.evaluate(&request)),
                Err(_) => failed += 1,
            }
            at = pool.next(at);
        }
        slices.hold((segment, start.elapsed().as_nanos() as f64));
        tally.add(CHUNK as u64, failed);
    }
}

/// Per-request latencies of one pass. The *shape* of the latency
/// distribution comes from raw per-request floors: every request of
/// the pool is timed once per cycle, a single request is too short
/// for a burst to hit it often, and all requests see the same mix of
/// host states, so their floors relate to each other as on a quiet
/// machine. The *level* comes from whole chunks, calibrated like a
/// cost pass: a chunk and the kernel runs around it are long enough to
/// share the host's state, which one request and a kernel run are not.
pub struct Latency {
    /// Raw ns by pool index.
    by_request: Floors,
    /// Calibrated mean ns per request of each chunk, by segment.
    level: Floors,
    chunk: usize,
}

impl Latency {
    /// For a pool timed in chunks of `chunk` requests.
    pub fn new(pool: &Pool, chunk: usize) -> Latency {
        Latency {
            by_request: Floors::new(pool.len()),
            level: Floors::new(pool.len().div_ceil(chunk.max(1))),
            chunk,
        }
    }

    /// Adds one chunk: `(pool index, raw ns)` per request timed, and
    /// the chunk's scale.
    pub fn push_chunk(&mut self, timings: &[(usize, u64)], scale: f64) {
        let Some(&(first, _)) = timings.first() else {
            return;
        };
        let mut total = 0;
        for &(at, ns) in timings {
            self.by_request.push(at, ns as f64);
            total += ns;
        }
        let mean = total as f64 / timings.len() as f64;
        self.level.push(first / self.chunk, mean * scale);
    }

    /// Requests timed so far, repeats included.
    pub fn samples(&self) -> u64 {
        self.by_request.seen()
    }

    /// `(p50, p99)` in calibrated ns over the requests of the pool:
    /// the percentiles of the raw floors, rescaled so that their mean
    /// is the calibrated mean. Zeros if nothing was timed.
    pub fn percentiles(&self) -> (f64, f64) {
        let mut floors = self.by_request.floors();
        if floors.is_empty() {
            return (0.0, 0.0);
        }
        let raw_mean = floors.iter().sum::<f64>() / floors.len() as f64;
        let (p50, p99) = percentiles(&mut floors, 0.99);
        let rescale = self.level.mean() / raw_mean;
        (p50 * rescale, p99 * rescale)
    }
}

/// Latency pass: every request timed from wire bytes in to verdict
/// out.
pub fn latency(
    system: &Psigene,
    pool: &Pool,
    reference: &Reference,
    kernel: &Kernel,
    seconds: f64,
    tally: &mut Tally,
) -> Latency {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Latency::new(pool, CHUNK);
    let mut slices = Slices::new(kernel);
    let mut timings: Vec<(usize, u64)> = Vec::with_capacity(CHUNK);
    let mut at = 0;
    loop {
        if let Some((chunk, scale)) = slices.calibrate() {
            timings = chunk;
            out.push_chunk(&timings, scale);
            if Instant::now() >= deadline {
                return out;
            }
        }
        timings.clear();
        let mut failed = 0;
        for _ in 0..CHUNK {
            let start = Instant::now();
            let verdict = parse_request(black_box(&pool.wire[at])).map(|r| system.evaluate(&r));
            timings.push((at, start.elapsed().as_nanos() as u64));
            failed += verdict.map_or(1, |d| reference.mismatch(at, &d));
            at = pool.next(at);
        }
        slices.hold(std::mem::take(&mut timings));
        tally.add(CHUNK as u64, failed);
    }
}

/// What the traced pass measured: per pool segment, the mean duration
/// of every layer in calibrated ns per request, and the lazy-DFA
/// counters of the scan probe.
pub struct Layers {
    pub duration: [Floors; LAYERS.len()],
    pub requests: u64,
    /// Calibrated cost of the one timer read each span includes.
    pub timer_ns: f64,
    pub scanned_bytes: u64,
    pub dfa_skipped_bytes: u64,
    pub dfa_misses: u64,
    pub dfa_flushes: u64,
    pub dfa_states: u32,
}

impl Layers {
    /// Calibrated ns per request of every layer: `(duration, self
    /// time)`, the self times taken from the durations.
    pub fn calibrated(&self) -> ([f64; LAYERS.len()], [f64; LAYERS.len()]) {
        let mut durations = [0.0; LAYERS.len()];
        for (d, floors) in durations.iter_mut().zip(&self.duration) {
            *d = floors.mean();
        }
        (durations, spans::self_times(&durations))
    }
}

/// Traced pass: replays the pool through the layers' public functions
/// one call after another, each call a span. `on` is the engine as
/// deployed, `off` the same engine without the drift monitors.
#[allow(clippy::too_many_arguments)]
pub fn traced(
    on: &Psigene,
    off: &Psigene,
    pool: &Pool,
    reference: &Reference,
    kernel: &Kernel,
    seconds: f64,
    buffer: &mut SpanBuffer,
    tally: &mut Tally,
) -> Layers {
    let set = on.feature_set();
    let compiled = set.compiled();
    let mut norm = NormScratch::new();
    let mut bits = CandidateSet::default();
    let mut dfa = DfaCache::new();
    let mut features = Vec::new();

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let mut slices = Slices::new(kernel);
    let mut out = Layers {
        duration: std::array::from_fn(|_| Floors::new(pool.len() / CHUNK)),
        requests: 0,
        timer_ns: 0.0,
        scanned_bytes: 0,
        dfa_skipped_bytes: 0,
        dfa_misses: 0,
        dfa_flushes: 0,
        dfa_states: 0,
    };
    let mut at = 0;
    loop {
        if let Some(((segment, sums), scale)) = slices.calibrate() {
            let sums: [u64; LAYERS.len()] = sums;
            for (floors, sum) in out.duration.iter_mut().zip(sums) {
                floors.push(segment, sum as f64 / CHUNK as f64 * scale);
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        let segment = at / CHUNK;
        let mut sums = [0u64; LAYERS.len()];
        let mut first_sum = 0u64;
        let mut failed = 0;
        for _ in 0..CHUNK {
            // Consecutive probes share a timer read: a probe ends
            // where the next begins, so every span includes exactly
            // one read.
            let t0 = Instant::now();
            let Ok(request) = parse_request(black_box(&pool.wire[at])) else {
                failed += 1;
                at = pool.next(at);
                continue;
            };
            let payload = request.detection_payload();
            let t1 = Instant::now();
            // Whichever `evaluate` runs first finds the request cold,
            // as every request is in production; the second finds its
            // bytes, its automaton states and its branch history warm.
            // Alternating the order keeps that out of on - off.
            let on_first = at % 2 == 0;
            let (first, second) = if on_first { (on, off) } else { (off, on) };
            let d_first = first.evaluate(&request);
            let t2 = Instant::now();
            let d_second = second.evaluate(&request);
            let t3 = Instant::now();
            extract_dense_into(set, payload, &mut features);
            let t4 = Instant::now();
            let normalized = normalize_into(payload, &mut norm);
            let t5 = Instant::now();
            let scan = compiled.fused_candidates_into(normalized, &mut bits, &mut dfa);
            let t6 = Instant::now();
            let d_score = on.score_features(&features);
            let t7 = Instant::now();

            let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
            let (on_span, off_span) = if on_first {
                ((ns(t1), ns(t2)), (ns(t2), ns(t3)))
            } else {
                ((ns(t2), ns(t3)), (ns(t1), ns(t2)))
            };
            let mut bounds = [(0, 0); LAYERS.len()];
            bounds[spans::REQUEST] = (ns(t0), ns(t7));
            bounds[spans::PARSE] = (ns(t0), ns(t1));
            bounds[spans::EVALUATE] = on_span;
            bounds[spans::EVALUATE_PLAIN] = off_span;
            bounds[spans::EXTRACT] = (ns(t3), ns(t4));
            bounds[spans::NORMALIZE] = (ns(t4), ns(t5));
            bounds[spans::SCAN] = (ns(t5), ns(t6));
            bounds[spans::SCORE] = (ns(t6), ns(t7));
            for (sum, (start, end)) in sums.iter_mut().zip(bounds) {
                *sum += end - start;
            }
            first_sum += ns(t2) - ns(t1);
            buffer.record(at as u32, &bounds);

            failed += (reference.mismatch(at, &d_first)
                + reference.mismatch(at, &d_second)
                + reference.mismatch(at, &d_score))
            .min(1);
            if let Some(report) = scan {
                out.scanned_bytes += report.stats.bytes;
                out.dfa_skipped_bytes += report.stats.skipped;
                out.dfa_misses += u64::from(report.stats.misses);
                out.dfa_flushes += u64::from(report.stats.flushes);
                out.dfa_states = out.dfa_states.max(report.stats.states);
            }
            at = pool.next(at);
        }
        // What `evaluate` costs as deployed is its cold cost: the mean
        // of the first position, where half the requests ran without
        // the monitors, plus that half's share of what they cost.
        let insight = sums[spans::EVALUATE].saturating_sub(sums[spans::EVALUATE_PLAIN]);
        sums[spans::EVALUATE] = first_sum + insight / 2;
        sums[spans::EVALUATE_PLAIN] = sums[spans::EVALUATE] - insight;
        slices.hold((segment, sums));
        out.requests += CHUNK as u64;
        tally.add(CHUNK as u64, failed);
    }

    let mut reads = Floors::new(1);
    let mut slices = Slices::new(kernel);
    for _ in 0..=32 {
        if let Some((ns, scale)) = slices.calibrate() {
            reads.push(0, ns * scale);
        }
        let start = Instant::now();
        for _ in 0..CHUNK {
            black_box(Instant::now());
        }
        slices.hold(start.elapsed().as_nanos() as f64 / CHUNK as f64);
    }
    out.timer_ns = reads.mean();
    out
}

/// Exact per-request work counts of one cycle through the pool, from
/// the program's own counters. They repeat exactly for a seed.
pub struct Counts {
    pub normalize_passes: f64,
    pub vm_runs: f64,
    pub vm_skip_ratio: f64,
    pub fallback_vm_runs: f64,
    pub nonzero_features: f64,
}

/// Counting pass, untimed. Must run while no other thread evaluates:
/// the counters are process-wide.
pub fn counts(system: &Psigene, pool: &Pool) -> Counts {
    let telemetry = psigene_telemetry::global();
    flush_extract_metrics();
    let before = telemetry.snapshot();
    let mut parsed = Vec::with_capacity(pool.len());
    for wire in &pool.wire {
        if let Ok(request) = parse_request(wire) {
            black_box(system.evaluate(&request));
            parsed.push(request);
        }
    }
    flush_extract_metrics();
    let delta = telemetry.snapshot().delta_since(&before);
    let per_request =
        |name: &str| delta.counters.get(name).copied().unwrap_or(0) as f64 / pool.len() as f64;
    let vm_runs = per_request("features.regex_evals");
    let vm_skipped = per_request("features.vm_runs_skipped");

    let mut features = Vec::new();
    let mut nonzero = 0usize;
    for request in &parsed {
        system.features_into(request, &mut features);
        nonzero += features.iter().filter(|&&v| v != 0.0).count();
    }
    Counts {
        normalize_passes: per_request("http.normalize_passes"),
        vm_runs,
        vm_skip_ratio: vm_skipped / (vm_runs + vm_skipped).max(f64::MIN_POSITIVE),
        fallback_vm_runs: per_request("regex.fused.fallback_vm_runs"),
        nonzero_features: nonzero as f64 / pool.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_takes_its_shape_from_floors_and_its_level_from_chunks() {
        let pool = Pool {
            wire: vec![Vec::new(); 4],
            attack: vec![false; 4],
        };
        let mut latency = Latency::new(&pool, 4);
        // Quiet cycle: requests take 100, 100, 100 and 500 raw ns on a
        // machine at half the reference speed (scale 0.5).
        latency.push_chunk(&[(0, 100), (1, 100), (2, 100), (3, 500)], 0.5);
        // A cycle caught in a burst changes neither floor nor level.
        latency.push_chunk(&[(0, 900), (1, 100), (2, 4000), (3, 500)], 0.5);
        assert_eq!(latency.samples(), 8);
        // Raw floors 100, 100, 100, 500 (mean 200); calibrated level
        // 200 * 0.5 = 100; so p50 = 100 * 100 / 200 and the tail (the
        // minimum here, with so few samples) likewise.
        assert_eq!(latency.percentiles(), (50.0, 50.0));
        assert_eq!(Latency::new(&pool, 4).percentiles(), (0.0, 0.0));
    }
}
