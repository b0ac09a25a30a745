//! pSigene as a [`DetectionEngine`]: the operational (test) phase of
//! §II-D.
//!
//! **One verdict path, sparse end to end.** `evaluate`,
//! `evaluate_batch` and `evaluate_traced` all run [`Psigene::verdict`]:
//! `extract_sparse_into` yields the request's sparse row (the features
//! that matched, ascending id — extraction is gated by the feature
//! set's one-pass set-level scan, so most feature VMs never run), the
//! engine's [`ScorePlan`](crate::plan) accumulates `w·x` into the
//! signatures those features belong to, and the thread's drift batch
//! takes the same row. Everything after the scan costs what matched, not
//! what exists: no dense vector is filled, gathered from or swept, an
//! untouched signature costs neither a multiply nor an `exp`, and a row
//! that touches nothing resolves to a precomputed verdict.
//!
//! **The dense API is the reference, not a second hot path.**
//! [`Psigene::features_of`] / [`Psigene::features_into`] produce the
//! dense vector and [`Psigene::score_features`] /
//! [`Psigene::probabilities`] consume it through
//! `GeneralizedSignature::probability`. Offline consumers (the
//! retrainer's benign-weight guard, the harness, the benchmark's
//! probes) use them, the tests hold the sparse path to them bit for
//! bit, and `evaluate` never calls them.
//!
//! **A verdict writes only thread-local state.** The detector's own
//! counters and latency histogram, and the drift monitors' feed, are
//! accumulated in the thread's `VerdictScratch` and published in
//! batches: `detector.requests`, `detector.flagged` and
//! `detector.latency_ns` every [`METRICS_FLUSH_ROWS`] requests (the
//! extraction layer's cadence), the drift batch once per monitor window
//! (`crate::insight::DriftBatch`), both when the thread exits and on
//! [`Psigene::telemetry_snapshot`] for the calling thread. Handles are
//! resolved once per process; per-signature hit counters live
//! slot-aligned in the plan and count flagged requests as they happen.

use crate::insight::DriftBatch;
use crate::pipeline::Psigene;
use crate::plan::{ScorePlan, ScoreScratch};
use psigene_features::extract::{extract_dense_into, extract_sparse_into, METRICS_FLUSH_ROWS};
use psigene_http::HttpRequest;
use psigene_rulesets::{Detection, DetectionEngine};
use psigene_telemetry::insight::TraceContext;
use psigene_telemetry::{Counter, Histogram, LocalHistogram};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Pre-resolved handles into the global telemetry registry for the
/// detector hot path.
struct DetectorMetrics {
    requests: Arc<Counter>,
    flagged: Arc<Counter>,
    latency: Arc<Histogram>,
}

fn metrics() -> &'static DetectorMetrics {
    static METRICS: OnceLock<DetectorMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let telemetry = psigene_telemetry::global();
        DetectorMetrics {
            requests: telemetry.counter("detector.requests"),
            flagged: telemetry.counter("detector.flagged"),
            latency: telemetry.histogram("detector.latency_ns"),
        }
    })
}

/// One thread's unpublished detector counters and latency samples.
#[derive(Default)]
struct VerdictTelemetry {
    requests: u64,
    flagged: u64,
    latency: LocalHistogram,
}

impl VerdictTelemetry {
    fn record(&mut self, flagged: bool, elapsed: Duration) {
        self.requests += 1;
        self.flagged += u64::from(flagged);
        self.latency.record_duration(elapsed);
        if self.requests >= METRICS_FLUSH_ROWS {
            self.publish();
        }
    }

    fn publish(&mut self) {
        if self.requests == 0 {
            return;
        }
        let m = metrics();
        m.requests.add(self.requests);
        m.flagged.add(self.flagged);
        m.latency.absorb(&mut self.latency);
        self.requests = 0;
        self.flagged = 0;
    }
}

/// Per-thread working memory of the verdict path: the request's sparse
/// row, the scoring accumulators, and the telemetry and drift batches
/// waiting to be published. A warm worker's steady-state evaluation
/// allocates for none of them.
#[derive(Default)]
struct VerdictScratch {
    row: Vec<(usize, f64)>,
    score: ScoreScratch,
    telemetry: VerdictTelemetry,
    drift: DriftBatch,
}

impl VerdictScratch {
    fn publish(&mut self) {
        self.telemetry.publish();
        self.drift.publish();
    }
}

impl Drop for VerdictScratch {
    /// A dying thread publishes what it still holds, so short-lived
    /// threads and shut-down gateway workers lose no request.
    fn drop(&mut self) {
        self.publish();
    }
}

/// Publishes the calling thread's buffered verdict telemetry and drift
/// batch (see the module docs).
pub(crate) fn publish_thread_telemetry() {
    VERDICT_SCRATCH.with(|cell| cell.borrow_mut().publish());
}

thread_local! {
    static VERDICT_SCRATCH: RefCell<VerdictScratch> = RefCell::new(VerdictScratch::default());

    /// Per-thread per-signature score column for the dense reference
    /// ([`Psigene::score_features`]).
    static SCORE_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

impl Psigene {
    /// Feature values of a request over the pruned feature set. The
    /// paper's Bro implementation runs one `count_all` per feature
    /// (§III-C); here one fused lazy-DFA scan of the normalized
    /// payload finds the matching features first and `count_all` runs
    /// only for those — identical values, a fraction of the scans
    /// (see `features.vm_runs_skipped` in telemetry).
    pub fn features_of(&self, request: &HttpRequest) -> Vec<f64> {
        let mut f = Vec::new();
        self.features_into(request, &mut f);
        f
    }

    /// Like [`Psigene::features_of`] but reusing a caller-owned
    /// buffer across requests.
    pub fn features_into(&self, request: &HttpRequest, out: &mut Vec<f64>) {
        extract_dense_into(&self.feature_set, request.detection_payload(), out);
        if self.binary {
            for v in out.iter_mut() {
                *v = if *v > 0.0 { 1.0 } else { 0.0 };
            }
        }
    }

    /// Scores an already-extracted feature vector against every
    /// signature: the max-probability score and the set of signatures
    /// at or above their thresholds. This is the dense reference for
    /// the scoring step of `evaluate`: one
    /// [`GeneralizedSignature::probability`](crate::GeneralizedSignature::probability)
    /// per signature, no telemetry, no drift feed.
    pub fn score_features(&self, features: &[f64]) -> Detection {
        SCORE_SCRATCH.with(|cell| self.score_features_into(features, &mut cell.borrow_mut()))
    }

    /// Like [`Psigene::score_features`] but also writing each
    /// signature's probability into `scores` (cleared first, one
    /// entry per signature in [`Psigene::signatures`] order).
    pub fn score_features_into(&self, features: &[f64], scores: &mut Vec<f64>) -> Detection {
        scores.clear();
        let mut matched = Vec::new();
        let mut best = 0.0f64;
        for s in &self.signatures {
            let p = s.probability(features);
            scores.push(p);
            if p > best {
                best = p;
            }
            if p >= s.threshold {
                matched.push(s.id as u32);
            }
        }
        Detection {
            flagged: !matched.is_empty(),
            matched_rules: matched,
            score: best,
        }
    }

    /// Per-signature probabilities for a request, as `(signature id,
    /// probability)` pairs.
    pub fn probabilities(&self, request: &HttpRequest) -> Vec<(usize, f64)> {
        let features = self.features_of(request);
        self.signatures
            .iter()
            .map(|s| (s.id, s.probability(&features)))
            .collect()
    }

    /// The decision threshold currently in force.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// This engine's scoring plan, built on first use.
    pub(crate) fn plan(&self) -> &ScorePlan {
        self.plan.get_or_build(&self.signatures)
    }

    /// One request through the sparse path — extract the row, score it
    /// from the plan, batch it for the drift monitors — timed and
    /// accounted. The shared body of every evaluation entry point.
    fn verdict(
        &self,
        plan: &ScorePlan,
        scratch: &mut VerdictScratch,
        request: &HttpRequest,
        mut trace: Option<&mut TraceContext>,
    ) -> Detection {
        let start = Instant::now();
        let VerdictScratch {
            row,
            score,
            telemetry,
            drift,
        } = scratch;
        let span = trace.as_mut().map(|t| t.begin("detector.extract"));
        extract_sparse_into(
            &self.feature_set,
            request.detection_payload(),
            row,
            trace.as_deref_mut(),
        );
        if self.binary {
            for entry in row.iter_mut() {
                entry.1 = 1.0;
            }
        }
        if let (Some(t), Some(s)) = (trace.as_mut(), span) {
            t.end(s);
        }
        let span = trace.as_mut().map(|t| t.begin("detector.score"));
        let (detection, scores) = plan.score(row, score);
        if let Some(insight) = &self.insight {
            drift.record(insight, plan, row, scores);
        }
        if let (Some(t), Some(s)) = (trace.as_mut(), span) {
            t.end(s);
        }
        if detection.flagged {
            plan.record_hits(&detection.matched_rules);
        }
        telemetry.record(detection.flagged, start.elapsed());
        detection
    }
}

impl DetectionEngine for Psigene {
    fn name(&self) -> &str {
        &self.name
    }

    fn prepare(&self) {
        // One-time lazily-built state, forced off the request path:
        // the fused scan automaton, the scoring plan and the
        // process-wide telemetry handles.
        self.feature_set.compiled();
        self.plan();
        metrics();
    }

    fn evaluate(&self, request: &HttpRequest) -> Detection {
        let plan = self.plan();
        VERDICT_SCRATCH.with(|cell| self.verdict(plan, &mut cell.borrow_mut(), request, None))
    }

    fn evaluate_batch(&self, requests: &[HttpRequest]) -> Vec<Detection> {
        // One plan look-up and one scratch borrow serve the whole
        // batch; the only per-batch allocation is the output vector.
        let plan = self.plan();
        VERDICT_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            requests
                .iter()
                .map(|request| self.verdict(plan, scratch, request, None))
                .collect()
        })
    }

    fn evaluate_traced(&self, request: &HttpRequest, trace: &mut TraceContext) -> Detection {
        let plan = self.plan();
        VERDICT_SCRATCH
            .with(|cell| self.verdict(plan, &mut cell.borrow_mut(), request, Some(trace)))
    }

    fn rule_count(&self) -> usize {
        self.signatures.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;

    fn trained() -> Psigene {
        Psigene::train(&PipelineConfig {
            crawl_samples: 300,
            benign_train: 1200,
            cluster_sample_cap: 300,
            threads: 2,
            ..PipelineConfig::default()
        })
    }

    #[test]
    fn flags_classic_attacks_and_passes_benign() {
        let p = trained();
        let attacks = [
            "id=-1+union+select+1,2,concat(version(),0x3a,user()),4--+-",
            "id=1'+or+'1'='1",
            "id=1+and+sleep(5)--",
        ];
        let mut caught = 0;
        for a in attacks {
            let req = HttpRequest::get("v", "/x.php", a);
            if p.evaluate(&req).flagged {
                caught += 1;
            }
        }
        assert!(caught >= 2, "caught only {caught}/3 classic attacks");
        let benign = ["page=2&sort=asc", "q=summer+housing", "uid=1920&dept=ce"];
        for b in benign {
            let req = HttpRequest::get("w", "/index.php", b);
            assert!(!p.evaluate(&req).flagged, "false positive on {b}");
        }
    }

    #[test]
    fn probabilities_are_valid_and_score_is_max() {
        let p = trained();
        let req = HttpRequest::get("v", "/x.php", "id=1+union+select+null,null--");
        let probs = p.probabilities(&req);
        assert_eq!(probs.len(), p.signatures().len());
        assert!(probs.iter().all(|&(_, v)| (0.0..=1.0).contains(&v)));
        let d = p.evaluate(&req);
        let max = probs.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        assert!((d.score - max).abs() < 1e-12);
    }

    #[test]
    fn threshold_sweep_changes_flagging() {
        let p = trained();
        let req = HttpRequest::get("v", "/x.php", "id=1+union+select+null,null--");
        let lax = p.with_threshold(0.999_999);
        let strict = p.with_threshold(1e-9);
        assert!(strict.evaluate(&req).flagged);
        // At an impossible threshold nothing is flagged.
        assert!(!lax.with_threshold(1.01).evaluate(&req).flagged);
    }

    #[test]
    fn score_features_agrees_with_evaluate() {
        let p = trained();
        let reqs = [
            HttpRequest::get("v", "/x.php", "id=1+union+select+null,null--"),
            HttpRequest::get("w", "/index.php", "page=2&sort=asc"),
        ];
        for req in &reqs {
            let via_split = p.score_features(&p.features_of(req));
            let via_evaluate = p.evaluate(req);
            assert_eq!(via_split.flagged, via_evaluate.flagged);
            assert_eq!(via_split.matched_rules, via_evaluate.matched_rules);
            assert!((via_split.score - via_evaluate.score).abs() < 1e-12);
        }
    }

    #[test]
    fn batch_evaluation_matches_single_requests() {
        let p = trained();
        let reqs: Vec<HttpRequest> = [
            "id=-1+union+select+1,2,3--",
            "page=2&sort=asc",
            "id=1'+or+'1'='1",
            "q=summer+housing",
        ]
        .iter()
        .map(|q| HttpRequest::get("v", "/x.php", q))
        .collect();
        let batch = p.evaluate_batch(&reqs);
        assert_eq!(batch.len(), reqs.len());
        for (d, req) in batch.iter().zip(&reqs) {
            let single = p.evaluate(req);
            assert_eq!(d.flagged, single.flagged);
            assert_eq!(d.matched_rules, single.matched_rules);
            assert!((d.score - single.score).abs() < 1e-12);
        }
    }

    #[test]
    fn verdicts_equal_the_per_feature_oracle_scored_densely() {
        let p = trained();
        let queries = [
            "id=-1+union+select+1,2,3--",
            "page=2&sort=asc",
            "id=1'+or+'1'='1",
            "q=summer+housing",
            "id=1+and+sleep(5)--",
        ];
        for q in queries {
            let req = HttpRequest::get("v", "/x.php", q);
            // The oracle: every feature counted by its own regex over
            // the normalized payload (no set-level engine), scored
            // through the dense reference.
            let norm = psigene_http::normalize::normalize(req.detection_payload());
            let oracle: Vec<f64> = p
                .feature_set()
                .features()
                .iter()
                .map(|f| f.count(&norm) as f64)
                .collect();
            assert_eq!(p.features_of(&req), oracle, "{q}");
            let (a, b) = (p.evaluate(&req), p.score_features(&oracle));
            assert_eq!(a.flagged, b.flagged, "{q}");
            assert_eq!(a.matched_rules, b.matched_rules, "{q}");
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{q}");
        }
    }

    #[test]
    fn insight_observation_does_not_change_verdicts() {
        let p = trained();
        let monitored = p.with_drift_config(psigene_telemetry::insight::DriftConfig {
            window: 4,
            decay: 0.5,
            smoothing: 1e-6,
        });
        let queries = [
            "id=-1+union+select+1,2,3--",
            "page=2&sort=asc",
            "id=1'+or+'1'='1",
            "q=summer+housing",
        ];
        for q in queries.iter().cycle().take(16) {
            let req = HttpRequest::get("v", "/x.php", q);
            let plain = p.evaluate(&req);
            let watched = monitored.evaluate(&req);
            assert_eq!(plain.flagged, watched.flagged, "{q}");
            assert_eq!(plain.matched_rules, watched.matched_rules, "{q}");
            assert_eq!(plain.score.to_bits(), watched.score.to_bits(), "{q}");
        }
        let scores = monitored.drift_scores().expect("insight enabled");
        assert!(scores.windows >= 2, "windows = {}", scores.windows);
        assert!(scores.features_psi.unwrap().is_finite());
        assert!(!scores.signatures.is_empty());
        assert!(p.drift_scores().is_none(), "insight off by default");
    }

    /// Attack and benign queries the equivalence tests below replay.
    const MIXED_QUERIES: [&str; 7] = [
        "id=-1+union+select+1,2,concat(version(),0x3a,user()),4--+-",
        "page=2&sort=asc",
        "id=1'+or+'1'='1",
        "q=summer+housing",
        "id=1+and+sleep(5)--",
        "uid=1920&dept=ce",
        "",
    ];

    /// `evaluate`, `evaluate_batch` and `evaluate_traced` of `engine`
    /// all equal its own dense reference, to the bit.
    fn assert_sparse_path_equals_dense_reference(engine: &Psigene, label: &str) {
        let requests: Vec<HttpRequest> = MIXED_QUERIES
            .iter()
            .map(|q| HttpRequest::get("v", "/x.php", q))
            .collect();
        let batch = engine.evaluate_batch(&requests);
        for (req, batched) in requests.iter().zip(&batch) {
            let want = engine.score_features(&engine.features_of(req));
            let mut trace = TraceContext::new(7);
            let traced = engine.evaluate_traced(req, &mut trace);
            for got in [&engine.evaluate(req), batched, &traced] {
                assert_eq!(got.flagged, want.flagged, "{label}: {req}");
                assert_eq!(got.matched_rules, want.matched_rules, "{label}: {req}");
                assert_eq!(got.score.to_bits(), want.score.to_bits(), "{label}: {req}");
            }
        }
    }

    #[test]
    fn derived_engines_score_with_their_own_plans() {
        use psigene_corpus::sqlmap::{self, SqlmapConfig};
        let p = trained();
        // The parent's plan exists before any copy is derived from it.
        p.prepare();
        assert_sparse_path_equals_dense_reference(&p, "parent");
        let benign = HttpRequest::get("w", "/index.php", "page=2&sort=asc");
        assert!(!p.evaluate(&benign).flagged);

        // A threshold under every sigmoid(bias) turns the *quiet*
        // verdict into "everything matched": a copy still scoring with
        // the parent's plan would keep passing the benign request.
        let strict = p.with_threshold(1e-9);
        assert_eq!(
            strict.evaluate(&benign).matched_rules.len(),
            p.signatures().len()
        );
        assert_sparse_path_equals_dense_reference(&strict, "with_threshold");

        let ids: Vec<usize> = p.signatures().iter().skip(1).map(|s| s.id).collect();
        let subset = p.with_signatures(&ids);
        assert_eq!(subset.rule_count(), p.rule_count() - 1);
        assert_sparse_path_equals_dense_reference(&subset, "with_signatures");

        assert_sparse_path_equals_dense_reference(&p.with_insight(true), "with_insight");

        let fresh = sqlmap::generate(&SqlmapConfig {
            samples: 80,
            ..SqlmapConfig::default()
        });
        let (retrained, stats) = p.retrain_with(&fresh, 2);
        assert!(stats.retrained_signatures > 0);
        assert_sparse_path_equals_dense_reference(&retrained, "retrain_with");

        let live_benign: Vec<Vec<f64>> = (0..8).map(|_| vec![1.0; p.feature_set().len()]).collect();
        let (guarded, clamped) = p.with_benign_weight_guard(&live_benign);
        assert!(clamped > 0);
        assert_sparse_path_equals_dense_reference(&guarded, "with_benign_weight_guard");

        // The 0/1 clamp is applied to the row on one side and to the
        // dense vector on the other.
        let mut flipped = p.clone();
        flipped.binary = !p.binary;
        assert_sparse_path_equals_dense_reference(&flipped, "binary flipped");
    }

    #[test]
    fn sparse_drift_feed_equals_feeding_every_nonzero_in_id_order() {
        use crate::insight::{score_bin, SCORE_BINS};
        use psigene_telemetry::insight::{DriftConfig, DriftMonitor};
        let config = DriftConfig {
            window: 8,
            decay: 0.5,
            smoothing: 1e-2,
        };
        let p = trained();
        let monitored = p.with_drift_config(config);
        // The reference: plain monitors fed from the dense API, one
        // `observe` per nonzero feature in ascending id.
        let mut features = DriftMonitor::new(p.feature_set().len(), config);
        let mut per_signature: Vec<DriftMonitor> = p
            .signatures()
            .iter()
            .map(|_| DriftMonitor::new(SCORE_BINS, config))
            .collect();
        let mut dense = Vec::new();
        let mut scores = Vec::new();
        for q in MIXED_QUERIES.iter().cycle().take(29) {
            let req = HttpRequest::get("v", "/x.php", q);
            monitored.evaluate(&req);
            p.features_into(&req, &mut dense);
            for (id, &v) in dense.iter().enumerate() {
                if v != 0.0 {
                    features.observe(id, v);
                }
            }
            features.tick();
            p.score_features_into(&dense, &mut scores);
            for (monitor, &score) in per_signature.iter_mut().zip(&scores) {
                monitor.observe(score_bin(score), 1.0);
                monitor.tick();
            }
        }
        assert!(features.windows() >= 3, "stream must cross window rolls");
        let got = monitored.drift_scores().expect("insight enabled");
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        assert_eq!(got.windows, features.windows());
        assert!(got.features_psi.is_some_and(|psi| psi > 0.0));
        assert_eq!(bits(got.features_psi), bits(features.psi()));
        assert_eq!(bits(got.features_kl), bits(features.kl()));
        let mut want: Vec<(u32, Option<u64>)> = p
            .signatures()
            .iter()
            .zip(&per_signature)
            .map(|(s, m)| (s.id as u32, bits(m.psi())))
            .collect();
        want.sort_by_key(|&(id, _)| id);
        let got_signatures: Vec<(u32, Option<u64>)> = got
            .signatures
            .iter()
            .map(|&(id, psi)| (id, bits(psi)))
            .collect();
        assert_eq!(got_signatures, want);
    }

    #[test]
    fn traced_evaluation_matches_and_builds_a_span_tree() {
        let p = trained();
        let req = HttpRequest::get("v", "/x.php", "id=1+union+select+null,null--");
        let mut trace = TraceContext::new(42);
        let traced = p.evaluate_traced(&req, &mut trace);
        let plain = p.evaluate(&req);
        assert_eq!(traced.flagged, plain.flagged);
        assert_eq!(traced.matched_rules, plain.matched_rules);
        assert_eq!(traced.score.to_bits(), plain.score.to_bits());
        let t = trace.finish();
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        for expected in [
            "detector.extract",
            "features.normalize",
            "features.scan",
            "features.count",
            "detector.score",
        ] {
            assert!(names.contains(&expected), "{names:?} missing {expected}");
        }
        // Extraction's sub-stages nest under detector.extract.
        let extract_depth = t
            .spans
            .iter()
            .find(|s| s.name == "detector.extract")
            .unwrap()
            .depth;
        let count_depth = t
            .spans
            .iter()
            .find(|s| s.name == "features.count")
            .unwrap()
            .depth;
        assert!(count_depth > extract_depth);
    }

    #[test]
    fn hot_path_counters_accumulate() {
        let p = trained();
        // The snapshot publishes this thread's buffered counts first.
        let requests = |p: &Psigene| {
            let snapshot = p.telemetry_snapshot();
            snapshot
                .counters
                .get("detector.requests")
                .copied()
                .unwrap_or(0)
        };
        let before = requests(&p);
        let req = HttpRequest::get("v", "/x.php", "id=1+union+select+null--");
        p.evaluate(&req);
        p.evaluate_batch(std::slice::from_ref(&req));
        let after = requests(&p);
        assert!(after >= before + 2);
    }
}
