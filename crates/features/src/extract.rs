//! Feature extraction: payloads → sparse sample×feature matrices.
//!
//! Payloads are first normalized with the five transformations of
//! §II-A. Extraction then makes **one pass** over the normalized
//! bytes with the fused lazy-DFA scan of
//! [`crate::compiled::CompiledFeatureSet`], which reports the *exact*
//! set of matching features, counts those whose matches all have
//! one width as it goes, and records the first and last end of every
//! other feature's matches. Only the other matched features are counted
//! afterwards, each by its precompiled counting automaton
//! ([`psigene_regex::CountDfa::count_between`]) over the span between
//! those ends widened by the feature's widest match — or not at all
//! when the span has room for one match only. Any feature the fuser
//! refused is counted over the whole payload, on every payload. The
//! output is identical to running `count_all` of every feature —
//! verified by property test in `crate::proptests`.
//! Matrix extraction parallelizes over samples with scoped threads
//! (each sample is independent).

use crate::set::FeatureSet;
use psigene_http::normalize::{normalize_into, NormScratch};
use psigene_linalg::{CsrBuilder, CsrMatrix};
use psigene_regex::{CandidateSet, DfaCache};
use psigene_telemetry::insight::TraceContext;
use psigene_telemetry::{Counter, Gauge};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

/// Accounting for one or more extractions: what normalization cost,
/// and how many features were actually counted versus skipped by the
/// fused scan. A *counting run* is one feature counted over one
/// payload, by whichever engine — the fused scan's own tally or the
/// counting automaton; the `vm_` in the field names predates both.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExtractStats {
    /// Normalization pipeline passes counted
    /// ([`NormScratch::last_passes`]).
    pub normalize_passes: u64,
    /// Payloads whose decoding the pass cap cut short
    /// ([`NormScratch::last_hit_cap`]).
    pub normalize_cap_hits: u64,
    /// Counting runs that happened: the sum of
    /// [`scan_tallies`](Self::scan_tallies),
    /// [`single_match_counts`](Self::single_match_counts),
    /// [`automaton_runs`](Self::automaton_runs) and
    /// [`fallback_vm_runs`](Self::fallback_vm_runs).
    pub vm_runs: u64,
    /// Counting runs the fused scan proved unnecessary.
    pub vm_runs_skipped: u64,
    /// Fused features with at least one match (their counting runs are
    /// the only fused ones — the fused scan is exact).
    pub fused_matched: u64,
    /// Fused features whose counting run the fused scan proved
    /// unnecessary.
    pub fused_skipped: u64,
    /// Matched fused features counted by the fused scan's own tally
    /// (every match one width): no automaton runs.
    pub scan_tallies: u64,
    /// Matched fused features whose first and last match end leave room
    /// for one match only, counted 1 without a run
    /// ([`CountDfa::single_match`](psigene_regex::CountDfa::single_match)).
    pub single_match_counts: u64,
    /// Matched fused features counted by their counting automaton over
    /// the span between their first and last match end.
    pub automaton_runs: u64,
    /// Counting runs for features outside the fused automaton (the
    /// fallback list): one per such feature and payload, over the
    /// whole payload.
    pub fallback_vm_runs: u64,
    /// Lazy-DFA transitions that had to be determinized.
    pub dfa_misses: u64,
    /// Lazy-DFA state-cache flushes forced by the state limit.
    pub dfa_flushes: u64,
    /// Bytes covered by the lazy DFA scan, one transition each.
    pub dfa_bytes: u64,
    /// Peak lazy-DFA states resident after a scan (absorb keeps the
    /// maximum, not the sum).
    pub dfa_states: u64,
}

impl ExtractStats {
    fn absorb(&mut self, other: ExtractStats) {
        self.normalize_passes += other.normalize_passes;
        self.normalize_cap_hits += other.normalize_cap_hits;
        self.vm_runs += other.vm_runs;
        self.vm_runs_skipped += other.vm_runs_skipped;
        self.fused_matched += other.fused_matched;
        self.fused_skipped += other.fused_skipped;
        self.scan_tallies += other.scan_tallies;
        self.single_match_counts += other.single_match_counts;
        self.automaton_runs += other.automaton_runs;
        self.fallback_vm_runs += other.fallback_vm_runs;
        self.dfa_misses += other.dfa_misses;
        self.dfa_flushes += other.dfa_flushes;
        self.dfa_bytes += other.dfa_bytes;
        self.dfa_states = self.dfa_states.max(other.dfa_states);
    }

    /// These stats with the outcome of the [`normalize_into`] call that
    /// produced the counted bytes.
    fn with_normalization(mut self, norm: &NormScratch) -> ExtractStats {
        self.normalize_passes = u64::from(norm.last_passes());
        self.normalize_cap_hits = u64::from(norm.last_hit_cap());
        self
    }

    /// Fraction of lazy-DFA transitions served from the state cache;
    /// `None` when the DFA scanned no bytes. Clamped to `[0, 1]` —
    /// flush-forced re-determinization can miss more than once per
    /// byte.
    pub fn dfa_hit_ratio(&self) -> Option<f64> {
        if self.dfa_bytes == 0 {
            return None;
        }
        Some((1.0 - self.dfa_misses as f64 / self.dfa_bytes as f64).clamp(0.0, 1.0))
    }
}

/// Pre-resolved telemetry handles for the extraction hot path
/// (string-keyed registry lookups happen once per process).
struct ExtractMetrics {
    normalize_passes: Arc<Counter>,
    normalize_cap_hits: Arc<Counter>,
    regex_evals: Arc<Counter>,
    vm_runs_skipped: Arc<Counter>,
    scan_tallies: Arc<Counter>,
    single_match_counts: Arc<Counter>,
    automaton_runs: Arc<Counter>,
    fused_fallback_vm_runs: Arc<Counter>,
    fused_cache_states: Arc<Gauge>,
    fused_cache_hit_ratio: Arc<Gauge>,
    fused_cache_flushes: Arc<Counter>,
}

fn metrics() -> &'static ExtractMetrics {
    static METRICS: OnceLock<ExtractMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let telemetry = psigene_telemetry::global();
        ExtractMetrics {
            normalize_passes: telemetry.counter("http.normalize_passes"),
            normalize_cap_hits: telemetry.counter("http.normalize_cap_hits"),
            regex_evals: telemetry.counter("features.regex_evals"),
            vm_runs_skipped: telemetry.counter("features.vm_runs_skipped"),
            scan_tallies: telemetry.counter("features.scan_tallies"),
            single_match_counts: telemetry.counter("features.single_match_counts"),
            automaton_runs: telemetry.counter("features.automaton_runs"),
            fused_fallback_vm_runs: telemetry.counter("regex.fused.fallback_vm_runs"),
            fused_cache_states: telemetry.gauge("regex.fused.cache_states"),
            fused_cache_hit_ratio: telemetry.gauge("regex.fused.cache_hit_ratio"),
            fused_cache_flushes: telemetry.counter("regex.fused.cache_flushes"),
        }
    })
}

/// Accounts extraction work in the global registry:
/// `http.normalize_passes` and `http.normalize_cap_hits` carry the
/// normalizer's pass and cap-hit counts for the payloads extracted
/// here (a bare `normalize` call elsewhere moves neither);
/// `features.regex_evals` counts the counting runs that *actually
/// happened* (not `rows × features` — the fused scan skips most of
/// those), with the skipped complement in `features.vm_runs_skipped`.
/// The runs split four ways: the fused scan's own tallies
/// (`features.scan_tallies`), single-match-rule counts
/// (`features.single_match_counts`), counting-automaton runs over a
/// match span (`features.automaton_runs`) and the whole-payload runs
/// for features the fuser refused (`regex.fused.fallback_vm_runs`).
/// Sets with a fused automaton
/// additionally feed the `regex.fused.cache_*` family (state-cache
/// occupancy, hit ratio, flushes).
fn record_stats(stats: &ExtractStats) {
    let m = metrics();
    m.normalize_passes.add(stats.normalize_passes);
    m.normalize_cap_hits.add(stats.normalize_cap_hits);
    m.regex_evals.add(stats.vm_runs);
    m.vm_runs_skipped.add(stats.vm_runs_skipped);
    m.scan_tallies.add(stats.scan_tallies);
    m.single_match_counts.add(stats.single_match_counts);
    m.automaton_runs.add(stats.automaton_runs);
    m.fused_fallback_vm_runs.add(stats.fallback_vm_runs);
    if stats.fused_matched + stats.fused_skipped > 0 {
        m.fused_cache_states.set(stats.dfa_states as f64);
        m.fused_cache_flushes.add(stats.dfa_flushes);
        if let Some(hit) = stats.dfa_hit_ratio() {
            m.fused_cache_hit_ratio.set(hit);
        }
    }
}

/// How many buffered single-row stats accumulate in the thread-local
/// scratch before being flushed to the global registry. Per-row
/// recording costs one atomic op per metric (~a dozen per payload),
/// which measurably taxes the sub-microsecond fused path; batching
/// trades bounded counter lag for removing that tax. Batch entry
/// points ([`extract_matrix`] and friends) still record immediately.
/// The detector publishes its own per-request counters at the same
/// cadence.
pub const METRICS_FLUSH_ROWS: u64 = 32;

/// Per-thread working memory for the whole extraction hot path: the
/// normalization buffer, the candidate bitset (one per extraction,
/// written by the fused scan), the lazy-DFA state cache (warm across
/// requests — the whole point of lazy determinization), a pooled
/// sparse-row buffer for `extract_row`, and the buffered telemetry
/// window (flushed every [`METRICS_FLUSH_ROWS`] rows, on
/// [`flush_extract_metrics`], and when the thread exits). One warm
/// scratch makes a steady-state extraction touch the allocator only
/// for the row it returns (and not at all on the caller-owned `_into`
/// paths).
#[derive(Default)]
struct ScanScratch {
    norm: NormScratch,
    bits: CandidateSet,
    dfa: DfaCache,
    row: Vec<(usize, f64)>,
    pending: ExtractStats,
    pending_rows: u64,
}

impl ScanScratch {
    /// Absorbs one row's stats into the pending window, flushing it to
    /// the registry when full.
    fn buffer_stats(&mut self, stats: ExtractStats) {
        self.pending.absorb(stats);
        self.pending_rows += 1;
        if self.pending_rows >= METRICS_FLUSH_ROWS {
            self.flush_stats();
        }
    }

    fn flush_stats(&mut self) {
        if self.pending_rows > 0 {
            record_stats(&self.pending);
            self.pending = ExtractStats::default();
            self.pending_rows = 0;
        }
    }
}

impl Drop for ScanScratch {
    /// A dying thread publishes whatever its window still holds, so
    /// short-lived worker threads never lose rows.
    fn drop(&mut self) {
        self.flush_stats();
    }
}

/// Publishes any per-row telemetry still buffered in this thread's
/// scratch window (see [`METRICS_FLUSH_ROWS`]). Counters lag the
/// truth by at most one window; call this before reading a snapshot
/// that must include rows this thread just extracted.
pub fn flush_extract_metrics() {
    SCRATCH.with(|cell| cell.borrow_mut().flush_stats());
}

thread_local! {
    /// Per-thread scratch; the `extract_*` entry points are the only
    /// users, so extraction allocates neither the normalization
    /// buffers nor the bitset nor the DFA cache per payload.
    static SCRATCH: RefCell<ScanScratch> = RefCell::new(ScanScratch::default());
}

/// Normalizes `payload` into the thread-local scratch, runs every due
/// feature over it via [`count_norm_traced`] and buffers the row's
/// stats in the scratch's telemetry window. The single accessor of
/// `SCRATCH` for the `_into` paths: normalization borrows the
/// scratch's buffer while counting borrows the engine caches —
/// disjoint fields, one `RefCell` borrow.
fn extract_traced(
    set: &FeatureSet,
    payload: &[u8],
    emit: impl FnMut(usize, usize),
    mut trace: Option<&mut TraceContext>,
) {
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let ScanScratch {
            norm, bits, dfa, ..
        } = scratch;
        let span = trace.as_mut().map(|t| t.begin("features.normalize"));
        let normalized = normalize_into(payload, norm);
        if let (Some(t), Some(s)) = (trace.as_mut(), span) {
            t.end(s);
        }
        let stats =
            count_norm_traced(set, normalized, emit, trace, bits, dfa).with_normalization(norm);
        scratch.buffer_stats(stats);
    })
}

/// Runs every due feature over the already-normalized `norm`,
/// emitting `(feature id, count)` in ascending id order (including
/// zero counts for refused features that match nothing), and
/// returns what ran versus what the fused scan skipped. Optional
/// per-stage spans (`features.scan`, `features.count`) are recorded
/// into a request-scoped trace; with `trace = None` the span
/// bookkeeping compiles down to nothing on the hot path.
fn count_norm_traced(
    set: &FeatureSet,
    norm: &[u8],
    mut emit: impl FnMut(usize, usize),
    mut trace: Option<&mut TraceContext>,
    bits: &mut CandidateSet,
    dfa: &mut DfaCache,
) -> ExtractStats {
    let features = set.features();
    let compiled = set.compiled();
    let span = trace.as_mut().map(|t| t.begin("features.scan"));
    let scan = compiled
        .fused_candidates_into(norm, bits, dfa)
        .map(|report| report.stats)
        .unwrap_or_default();
    if let (Some(t), Some(s)) = (trace.as_mut(), span) {
        t.end(s);
    }
    let span = trace.as_mut().map(|t| t.begin("features.count"));
    let mut vm_runs = 0u64;
    let (mut scan_tallies, mut single_match_counts, mut automaton_runs) = (0u64, 0u64, 0u64);
    for id in bits.iter() {
        // The scan counted the fixed-width features as it found them.
        // Every other fused match is counted by the feature's automaton
        // between the first and the last match end the scan reported
        // (or is 1 when only one match fits there), and a refused
        // feature's bit, set on every payload, over the whole payload.
        let n = match compiled.scan_count(dfa, id) {
            Some(n) => {
                scan_tallies += 1;
                n
            }
            None => {
                let automaton = features[id].count_dfa();
                match compiled.scan_ends(dfa, id) {
                    Some((first, last)) if automaton.single_match(first, last) => {
                        single_match_counts += 1;
                        1
                    }
                    Some((first, last)) => {
                        automaton_runs += 1;
                        automaton.count_between(norm, first, last)
                    }
                    None => automaton.count(norm),
                }
            }
        };
        emit(id, n);
        vm_runs += 1;
    }
    if let (Some(t), Some(s)) = (trace.as_mut(), span) {
        t.end(s);
    }
    let fused_matched = u64::from(scan.matched);
    ExtractStats {
        vm_runs,
        vm_runs_skipped: features.len() as u64 - vm_runs,
        fused_matched,
        fused_skipped: compiled.fused_features() as u64 - fused_matched,
        scan_tallies,
        single_match_counts,
        automaton_runs,
        // Refused ids are pre-set, so each was counted once.
        fallback_vm_runs: compiled.fallback_features().len() as u64,
        dfa_misses: u64::from(scan.misses),
        dfa_flushes: u64::from(scan.flushes),
        dfa_bytes: scan.bytes,
        dfa_states: u64::from(scan.states),
        ..ExtractStats::default()
    }
}

/// Extracts the feature vector of one payload (sparse, as
/// `(column, count)` pairs).
pub fn extract_row(set: &FeatureSet, payload: &[u8]) -> Vec<(usize, f64)> {
    let (row, stats) = extract_row_uncounted(set, payload);
    // Buffered in the thread-local window instead of paying the
    // registry's atomics on every payload.
    SCRATCH.with(|cell| cell.borrow_mut().buffer_stats(stats));
    row
}

fn extract_row_uncounted(set: &FeatureSet, payload: &[u8]) -> (Vec<(usize, f64)>, ExtractStats) {
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let ScanScratch {
            norm,
            bits,
            dfa,
            row,
            ..
        } = scratch;
        row.clear();
        let normalized = normalize_into(payload, norm);
        let stats = count_norm_traced(
            set,
            normalized,
            |id, c| {
                if c > 0 {
                    row.push((id, c as f64));
                }
            },
            None,
            bits,
            dfa,
        )
        .with_normalization(norm);
        // Accumulate into the pooled row, then clone out one
        // exact-size vector: the only allocation on this path.
        (row.clone(), stats)
    })
}

/// Extracts a dense `f64` vector (one count per feature, zeros
/// included) into a caller-owned buffer, so batch scoring reuses a
/// single allocation across the whole batch. The buffer is cleared
/// and resized to `set.len()`.
pub fn extract_dense_into(set: &FeatureSet, payload: &[u8], out: &mut Vec<f64>) {
    out.clear();
    out.resize(set.len(), 0.0);
    extract_traced(set, payload, |id, c| out[id] = c as f64, None);
}

/// Extracts the sparse row of one payload into a caller-owned buffer:
/// `(feature id, count)` for every feature that matched, ascending
/// id, nothing for the rest — the nonzero entries of
/// [`extract_dense_into`]'s vector, from the same scratch and the same
/// windowed telemetry, without the `set.len()`-wide fill. The
/// detection hot path scores and monitors from this row. With a
/// `trace`, per-stage spans (`features.normalize`, `features.scan`,
/// `features.count`) are recorded into it; tracing observes, never
/// alters, the extraction (pinned by unit test).
pub fn extract_sparse_into(
    set: &FeatureSet,
    payload: &[u8],
    row: &mut Vec<(usize, f64)>,
    trace: Option<&mut TraceContext>,
) {
    row.clear();
    extract_traced(
        set,
        payload,
        |id, c| {
            if c > 0 {
                row.push((id, c as f64));
            }
        },
        trace,
    );
}

/// Extracts the full sample×feature matrix, parallelized over
/// `threads` workers (1 = sequential).
pub fn extract_matrix(set: &FeatureSet, payloads: &[&[u8]], threads: usize) -> CsrMatrix {
    let threads = threads.max(1);
    if threads == 1 || payloads.len() < 2 * threads {
        let mut b = CsrBuilder::new(set.len());
        let mut stats = ExtractStats::default();
        for p in payloads {
            let (row, s) = extract_row_uncounted(set, p);
            stats.absorb(s);
            b.push_row(&row);
        }
        record_stats(&stats);
        return b.build();
    }
    // Build the automaton before fanning out so workers share it
    // instead of racing to build their own.
    set.compiled();
    // Chunk the payloads; each worker extracts its slice, results are
    // reassembled in order.
    let chunk = payloads.len().div_ceil(threads);
    type WorkerOut = (Vec<Vec<(usize, f64)>>, ExtractStats);
    let mut results: Vec<WorkerOut> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for ch in payloads.chunks(chunk) {
            handles.push(scope.spawn(move || {
                let mut stats = ExtractStats::default();
                let rows = ch
                    .iter()
                    .map(|p| {
                        let (row, s) = extract_row_uncounted(set, p);
                        stats.absorb(s);
                        row
                    })
                    .collect::<Vec<_>>();
                (rows, stats)
            }));
        }
        for h in handles {
            results.push(h.join().expect("extraction worker panicked"));
        }
    });
    let mut b = CsrBuilder::new(set.len());
    let mut stats = ExtractStats::default();
    for (part, s) in results {
        stats.absorb(s);
        for row in part {
            b.push_row(&row);
        }
    }
    record_stats(&stats);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptests::{full_set, naive_dense, nonzero};
    use crate::{Feature, FeatureSource};

    #[test]
    fn union_select_payload_lights_up_features() {
        let set = full_set();
        let row = extract_row(set, b"id=-1+UNION+SELECT+1,2,concat(version(),0x3a),4--+-");
        assert!(!row.is_empty());
        // At least the union and select reserved words must count.
        let names: Vec<&str> = row
            .iter()
            .map(|&(c, _)| set.features()[c].name.as_str())
            .collect();
        assert!(names.contains(&"kw:union"), "{names:?}");
        assert!(names.contains(&"kw:select"), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("sig:")), "{names:?}");
    }

    #[test]
    fn benign_payload_is_nearly_silent() {
        let set = full_set();
        let row = extract_row(set, b"page=2&sort=asc&term=2012");
        // A couple of incidental hits are fine (`=`-style features);
        // the row must be far sparser than an attack's.
        assert!(row.len() < 10, "benign row too hot: {row:?}");
    }

    #[test]
    fn counts_not_flags() {
        let set = full_set();
        let row = extract_row(set, b"q=char(58),char(58),char(58)");
        let char_count = row
            .iter()
            .find(|&&(c, _)| set.features()[c].name == "sig:char\\s*\\(")
            .map(|&(_, v)| v);
        assert_eq!(char_count, Some(3.0));
    }

    #[test]
    fn parallel_matches_sequential() {
        let set = full_set();
        let payloads: Vec<Vec<u8>> = (0..40)
            .map(|i| format!("id={i}+union+select+{i},version()--").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let seq = extract_matrix(set, &refs, 1);
        let par = extract_matrix(set, &refs, 4);
        assert_eq!(seq.rows(), par.rows());
        assert_eq!(seq.nnz(), par.nnz());
        for r in 0..seq.rows() {
            let a: Vec<_> = seq.row(r).collect();
            let b: Vec<_> = par.row(r).collect();
            assert_eq!(a, b, "row {r} differs");
        }
    }

    #[test]
    fn dense_and_sparse_rows_equal_per_feature_counts() {
        let set = full_set();
        let payloads: &[&[u8]] = &[
            b"id=-1+union+select+1,2,3--",
            b"page=2&sort=asc&term=2012",
            b"q=char(58),char(58)",
            b"",
            b"%27%20OR%201=1--",
        ];
        for p in payloads {
            let dense = naive_dense(set, p);
            let mut got = Vec::new();
            extract_dense_into(set, p, &mut got);
            assert_eq!(got, dense, "{p:?}");
            assert_eq!(extract_row(set, p), nonzero(&dense), "{p:?}");
        }
    }

    #[test]
    fn vms_run_only_for_fused_matches_plus_fallback() {
        let set = full_set();
        let (row, stats) =
            extract_row_uncounted(set, b"id=-1+union+select+1,2,concat(version(),0x3a),4--+-");
        // Every fused counting run produced a match, and the shipped
        // library has nothing on the fallback list, so the row *is* the
        // counting runs.
        assert_eq!(stats.fused_matched + stats.fallback_vm_runs, stats.vm_runs);
        assert_eq!(stats.fallback_vm_runs, 0);
        assert_eq!(row.len() as u64, stats.vm_runs);
        assert!(stats.dfa_bytes > 0, "{stats:?}");
        let fused_skip_ratio =
            stats.fused_skipped as f64 / (stats.fused_matched + stats.fused_skipped) as f64;
        assert!(
            fused_skip_ratio > 0.8,
            "attack fused skip ratio only {fused_skip_ratio:.2} ({stats:?})"
        );
    }

    #[test]
    fn counting_runs_split_into_tallies_single_matches_automaton_runs_and_fallback() {
        let split = |s: &ExtractStats| {
            s.scan_tallies + s.single_match_counts + s.automaton_runs + s.fallback_vm_runs
        };
        let attacks: &[&[u8]] = &[
            b"id=-1+union+select+1,2,concat(version(),0x3a,user()),4--+-",
            b"id=1'+or+'1'='1'+and+sleep(5)--+union+all+select+null,null",
            b"q=char(58),char(58),char(58)&x=1+or+1=1",
        ];
        let mut total = ExtractStats::default();
        for p in attacks {
            let (_, stats) = extract_row_uncounted(full_set(), p);
            assert_eq!(split(&stats), stats.vm_runs, "{p:?}: {stats:?}");
            total.absorb(stats);
        }
        for p in [b"page=2&sort=asc".as_slice(), b""] {
            let (_, stats) = extract_row_uncounted(full_set(), p);
            assert_eq!(split(&stats), stats.vm_runs, "{p:?}: {stats:?}");
        }
        // Each of the three fused ways counts something on attacks.
        assert!(total.scan_tallies > 0, "{total:?}");
        assert!(total.single_match_counts > 0, "{total:?}");
        assert!(total.automaton_runs > 0, "{total:?}");
        // And the whole-payload runs of refused features.
        let set = FeatureSet::from_features(vec![feat("union"), feat("x{40}"), feat(r"\d+")]);
        for p in long_run_payloads() {
            let (_, stats) = extract_row_uncounted(&set, &p);
            assert_eq!(stats.fallback_vm_runs, 1, "{stats:?}");
            assert_eq!(split(&stats), stats.vm_runs, "{p:?}: {stats:?}");
        }
        // The registry counters move by at least this work (they are
        // process-wide, so concurrent tests may add more).
        let telemetry = psigene_telemetry::global();
        let names = [
            "features.scan_tallies",
            "features.single_match_counts",
            "features.automaton_runs",
        ];
        let before: Vec<u64> = names.iter().map(|n| telemetry.counter(n).get()).collect();
        extract_matrix(full_set(), attacks, 1);
        let moved: Vec<u64> = names
            .iter()
            .zip(&before)
            .map(|(n, b)| telemetry.counter(n).get() - b)
            .collect();
        let want = [
            total.scan_tallies,
            total.single_match_counts,
            total.automaton_runs,
        ];
        assert!(
            moved.iter().zip(want).all(|(&m, w)| m >= w),
            "{moved:?} < {want:?}"
        );
    }

    fn feat(pattern: &str) -> Feature {
        Feature::new(0, pattern, pattern, FeatureSource::NidsSignatures).unwrap()
    }

    /// Payloads with and without the long runs the unfusable test
    /// patterns need.
    fn long_run_payloads() -> Vec<Vec<u8>> {
        vec![
            b"id=1 union select 2".to_vec(),
            format!("q={}&id=7", "x".repeat(85)).into_bytes(),
            format!("{}c union {}c", "ab".repeat(20), "AB".repeat(41)).into_bytes(),
            format!("{} {}", "x".repeat(39), "ab".repeat(19)).into_bytes(),
            Vec::new(),
        ]
    }

    fn assert_extracts_exactly(set: &FeatureSet, fallback_per_row: u64) {
        for p in long_run_payloads() {
            let dense = naive_dense(set, &p);
            let mut got = Vec::new();
            extract_dense_into(set, &p, &mut got);
            assert_eq!(got, dense, "{p:?}");
            let (row, stats) = extract_row_uncounted(set, &p);
            assert_eq!(row, nonzero(&dense), "{p:?}");
            assert_eq!(stats.fallback_vm_runs, fallback_per_row, "{stats:?}");
            assert_eq!(stats.vm_runs + stats.vm_runs_skipped, set.len() as u64);
        }
    }

    #[test]
    fn refused_patterns_are_counted_by_their_own_automaton() {
        // The path the shipped library never takes: two of the four
        // patterns repeat past the fuse limit.
        let set = FeatureSet::from_features(vec![
            feat("union"),
            feat("x{40}"),
            feat(r"\d+"),
            feat("(ab){20}c"),
        ]);
        let compiled = set.compiled();
        let refused: Vec<u32> = compiled
            .fallback_features()
            .iter()
            .map(|&(id, reason)| {
                assert!(!reason.is_empty());
                id
            })
            .collect();
        assert_eq!(refused, [1, 3]);
        assert_eq!(compiled.fused_features(), 2);
        // Both long-run patterns do count on some payload, so the
        // oracle comparison below is not vacuous.
        let hits = |id: usize| {
            long_run_payloads()
                .iter()
                .any(|p| naive_dense(&set, p)[id] > 0.0)
        };
        assert!(hits(1) && hits(3));
        assert_extracts_exactly(&set, 2);

        let counter = psigene_telemetry::global().counter("regex.fused.fallback_vm_runs");
        let before = counter.get();
        let payloads = long_run_payloads();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        extract_matrix(&set, &refs, 1);
        assert!(counter.get() - before >= 2 * refs.len() as u64);
    }

    #[test]
    fn sets_without_a_fused_engine_extract_exactly() {
        let nothing_fuses = FeatureSet::from_features(vec![feat("x{40}"), feat("(ab){20}c")]);
        let empty = FeatureSet::from_features(Vec::new());
        for (set, refused) in [(&nothing_fuses, vec![0, 1]), (&empty, vec![])] {
            let compiled = set.compiled();
            assert!(compiled.fused().is_none());
            let mut bits = CandidateSet::new(0);
            let mut dfa = DfaCache::new();
            assert!(compiled
                .fused_candidates_into(b"xxxx", &mut bits, &mut dfa)
                .is_none());
            assert_eq!(bits.iter().collect::<Vec<_>>(), refused);
            assert_extracts_exactly(set, refused.len() as u64);
        }
    }

    #[test]
    fn warm_dfa_cache_stops_missing() {
        let set = full_set();
        let payload = b"id=-1+union+select+1,2,3--";
        let _ = extract_row_uncounted(set, payload);
        let (_, warm) = extract_row_uncounted(set, payload);
        assert_eq!(warm.dfa_misses, 0, "{warm:?}");
        assert_eq!(warm.dfa_hit_ratio(), Some(1.0));
    }

    #[test]
    fn benign_traffic_skips_most_vm_runs() {
        let set = full_set();
        let (_, stats) = extract_row_uncounted(set, b"page=2&sort=asc&term=2012");
        let skip_ratio =
            stats.vm_runs_skipped as f64 / (stats.vm_runs + stats.vm_runs_skipped) as f64;
        assert!(
            skip_ratio > 0.5,
            "benign skip ratio only {skip_ratio:.2} ({stats:?})"
        );
    }

    #[test]
    fn regex_evals_counts_actual_vm_runs() {
        let set = full_set();
        // Per-row invariant: runs + skips account for every feature,
        // and benign traffic actually skips (the old accounting
        // charged rows × features unconditionally).
        let payloads: &[&[u8]] = &[b"page=2&sort=asc", b"q=summer+housing"];
        let mut total = ExtractStats::default();
        for p in payloads {
            let (_, stats) = extract_row_uncounted(set, p);
            assert_eq!(stats.vm_runs + stats.vm_runs_skipped, set.len() as u64);
            assert!(stats.vm_runs < set.len() as u64, "nothing skipped on {p:?}");
            total.absorb(stats);
        }
        // The counters move by at least this matrix's work (the
        // registry is process-wide, so concurrent tests may add more).
        let telemetry = psigene_telemetry::global();
        let evals_before = telemetry.counter("features.regex_evals").get();
        let skipped_before = telemetry.counter("features.vm_runs_skipped").get();
        extract_matrix(set, payloads, 1);
        let evals = telemetry.counter("features.regex_evals").get() - evals_before;
        let skipped = telemetry.counter("features.vm_runs_skipped").get() - skipped_before;
        assert!(evals >= total.vm_runs, "{evals} < {}", total.vm_runs);
        assert!(skipped >= total.vm_runs_skipped);
    }

    #[test]
    fn traced_extraction_is_identical_and_records_stages() {
        let set = full_set();
        for payload in [
            b"id=-1+union+select+1,2,3--".as_slice(),
            b"page=2&sort=asc",
            b"",
        ] {
            let mut plain = Vec::new();
            extract_sparse_into(set, payload, &mut plain, None);
            assert_eq!(plain, extract_row(set, payload), "{payload:?}");
            let mut traced = Vec::new();
            let mut trace = TraceContext::new(1);
            extract_sparse_into(set, payload, &mut traced, Some(&mut trace));
            assert_eq!(plain, traced, "{payload:?}");
            let t = trace.finish();
            let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
            assert!(names.contains(&"features.normalize"), "{names:?}");
            assert!(names.contains(&"features.scan"), "{names:?}");
            assert!(names.contains(&"features.count"), "{names:?}");
        }
    }

    #[test]
    fn attack_matrix_is_sparse_like_the_papers() {
        // §II-B: 85 % zeros. Our library is wider, so expect at least
        // that sparsity on attack traffic.
        let set = full_set();
        let payloads: Vec<Vec<u8>> = (0..30)
            .map(|i| format!("id=-1' or {i}={i} union select null,{i}-- -").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let m = extract_matrix(set, &refs, 2);
        assert!(m.sparsity() > 0.8, "sparsity {}", m.sparsity());
    }

    #[test]
    fn empty_inputs() {
        let set = full_set();
        let m = extract_matrix(set, &[], 4);
        assert_eq!(m.rows(), 0);
        let row = extract_row(set, b"");
        assert!(row.is_empty());
    }
}
