//! Engine-level drift monitoring: the observability feed the paper's
//! incremental-retraining loop (§V) triggers from.
//!
//! An [`EngineInsight`] rides along with a trained [`Psigene`] engine
//! and watches two binned quantities on the detection hot path:
//!
//! - the **feature-frequency distribution** — which features fire,
//!   weighted by their counts, over the pruned feature space. A
//!   shift here means the *traffic* changed (new attack family, new
//!   application mix) relative to what the signatures were trained
//!   on;
//! - the **per-signature score distribution** — each signature's
//!   probability output bucketed over `[0, 1]`. A shift here means a
//!   *model's* view of the traffic changed (scores drifting toward
//!   the threshold predict false-positive/negative rate changes
//!   before flag counts move).
//!
//! Both feed exponentially-decayed per-bin weights windowed into
//! reference/current snapshots ([`DriftMonitor`]); PSI and KL scores
//! are exported as `drift.*` gauges on every window roll, with gauge
//! handles resolved once (per process for the feature gauges, per
//! monitor for the per-signature ones — zero registry lookups per
//! request or per window). The control plane reads the
//! gauges (or [`Psigene::drift_scores`]) and, past a PSI threshold,
//! kicks off incremental retraining; after promoting the retrained
//! model it calls [`Psigene::rebaseline_drift`] so drift is measured
//! against the traffic the new model was accepted on.
//!
//! **Per window, not per request.** The engine does not call
//! [`EngineInsight::observe`] per request: each evaluating thread
//! writes its observations into a thread-local `DriftBatch` and
//! hands the batch over under the monitor's lock once per window (see
//! DESIGN §11). Every feed is integer-valued, so a batch equals its
//! requests fed one by one to the bit ([`DriftMonitor`]'s exactness
//! rule); `observe` stays as the per-request reference the tests hold
//! the batches to.
//!
//! [`Psigene`]: crate::Psigene
//! [`Psigene::drift_scores`]: crate::Psigene::drift_scores
//! [`Psigene::rebaseline_drift`]: crate::Psigene::rebaseline_drift

use crate::plan::ScorePlan;
use psigene_telemetry::insight::{DriftConfig, DriftMonitor};
use psigene_telemetry::{Counter, Gauge};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of score buckets per signature monitor: probabilities in
/// `[0, 1]` land in ten equal-width bins.
pub const SCORE_BINS: usize = 10;

pub(crate) fn score_bin(p: f64) -> usize {
    ((p.clamp(0.0, 1.0) * SCORE_BINS as f64) as usize).min(SCORE_BINS - 1)
}

/// Pre-resolved feature-level `drift.*` handles (one registry lookup
/// per process, never per request or per window).
struct DriftMetrics {
    features_psi: Arc<Gauge>,
    features_kl: Arc<Gauge>,
    windows: Arc<Counter>,
}

fn drift_metrics() -> &'static DriftMetrics {
    static METRICS: OnceLock<DriftMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let telemetry = psigene_telemetry::global();
        DriftMetrics {
            features_psi: telemetry.gauge("drift.features.psi"),
            features_kl: telemetry.gauge("drift.features.kl"),
            windows: telemetry.counter("drift.windows"),
        }
    })
}

/// One signature's score monitor and its `drift.sig.<id>.psi` gauge,
/// resolved when the monitor is created.
struct SignatureMonitor {
    id: u32,
    monitor: DriftMonitor,
    psi: Arc<Gauge>,
}

impl SignatureMonitor {
    fn new(id: u32, config: DriftConfig) -> SignatureMonitor {
        SignatureMonitor {
            id,
            monitor: DriftMonitor::new(SCORE_BINS, config),
            psi: psigene_telemetry::global().gauge(&format!("drift.sig.{id}.psi")),
        }
    }
}

struct DriftState {
    features: DriftMonitor,
    /// Score monitors in first-observed order, created lazily so
    /// signature subsets stay consistent without reconfiguration.
    /// A vector, not a map: the engine feeds signatures in a stable
    /// order, so a feed walks this index-aligned and the common case
    /// is a direct slot hit with no hashing.
    signatures: Vec<SignatureMonitor>,
}

impl DriftState {
    /// The monitor slot for signature `id`, expected at position
    /// `slot` (the engine's iteration order); falls back to a scan,
    /// then to creation, for subset/reorder cases.
    fn signature_monitor(
        &mut self,
        slot: usize,
        id: u32,
        config: DriftConfig,
    ) -> &mut DriftMonitor {
        let idx = match self.signatures.get(slot) {
            Some(s) if s.id == id => slot,
            _ => match self.signatures.iter().position(|s| s.id == id) {
                Some(found) => found,
                None => {
                    self.signatures.push(SignatureMonitor::new(id, config));
                    self.signatures.len() - 1
                }
            },
        };
        &mut self.signatures[idx].monitor
    }

    /// Exports fresh gauge values — called when the feature window
    /// rolls. One fused PSI/KL pass per monitor, no allocation.
    fn export(&self) {
        let dm = drift_metrics();
        if let Some((psi, kl)) = self.features.psi_and_kl() {
            dm.features_psi.set(psi);
            dm.features_kl.set(kl);
        }
        dm.windows.inc();
        for s in &self.signatures {
            if let Some(psi) = s.monitor.psi() {
                s.psi.set(psi);
            }
        }
    }

    /// Requests left before the first monitor completes its window: the
    /// largest batch that crosses no monitor's window boundary.
    fn remaining(&self) -> u64 {
        self.signatures
            .iter()
            .map(|s| s.monitor.remaining())
            .fold(self.features.remaining(), u64::min)
    }
}

/// The monitor's state, with a poisoned lock recovered rather than
/// passed on (DESIGN §11): a holder that panicked left at worst one
/// partial feed in the bins, and failing every later verdict and
/// window over it would be worse.
fn lock(state: &Mutex<DriftState>) -> MutexGuard<'_, DriftState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Streaming drift state for one engine; shared by its clones.
///
/// All methods take `&self` — feeding serializes on an internal mutex
/// held only for the bin updates (no scoring, no I/O), so the
/// gateway's shard workers feed one monitor concurrently, once per
/// window each.
pub struct EngineInsight {
    config: DriftConfig,
    feature_bins: usize,
    state: Mutex<DriftState>,
}

impl std::fmt::Debug for EngineInsight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineInsight")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Point-in-time drift scores; `None` until two windows completed.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftScores {
    /// PSI between the reference and current feature-frequency
    /// windows.
    pub features_psi: Option<f64>,
    /// KL divergence `D(reference ‖ current)` over the same windows.
    pub features_kl: Option<f64>,
    /// Completed feature windows.
    pub windows: u64,
    /// Per-signature score-distribution PSI, sorted by signature id.
    pub signatures: Vec<(u32, Option<f64>)>,
}

impl DriftScores {
    /// The largest available PSI across features and signatures —
    /// the single number a retraining trigger compares against its
    /// threshold.
    pub fn max_psi(&self) -> Option<f64> {
        self.features_psi
            .into_iter()
            .chain(self.signatures.iter().filter_map(|&(_, p)| p))
            .fold(None, |acc, p| Some(acc.map_or(p, |a: f64| a.max(p))))
    }
}

impl EngineInsight {
    /// A monitor over `feature_bins` feature slots with the given
    /// windowing; signature score monitors appear on first
    /// observation.
    pub fn new(feature_bins: usize, config: DriftConfig) -> EngineInsight {
        EngineInsight {
            config,
            feature_bins,
            state: Mutex::new(DriftState {
                features: DriftMonitor::new(feature_bins, config),
                signatures: Vec::new(),
            }),
        }
    }

    /// The windowing configuration in force.
    pub fn config(&self) -> DriftConfig {
        self.config
    }

    /// Feeds one evaluated request: its sparse feature row — `(feature
    /// id, value)` for the features that matched, ascending id — plus
    /// each signature's `(id, probability)`. Exports fresh `drift.*`
    /// gauge values whenever the feature window rolls. The per-request
    /// reference for the engine's batched feed.
    pub fn observe(&self, row: &[(usize, f64)], scores: impl Iterator<Item = (u32, f64)>) {
        let mut st = lock(&self.state);
        for &(feature, value) in row {
            st.features.observe(feature, value);
        }
        let rolled = st.features.tick();
        for (slot, (id, p)) in scores.enumerate() {
            let m = st.signature_monitor(slot, id, self.config);
            m.observe(score_bin(p), 1.0);
            m.tick();
        }
        if rolled {
            st.export();
        }
    }

    /// Feeds a thread's batch as `batch.requests` calls of
    /// [`EngineInsight::observe`] would, and returns how many requests
    /// the thread may batch before its next publish.
    fn publish(&self, batch: &DriftBatch) -> u64 {
        let n = batch.requests;
        let mut st = lock(&self.state);
        for (feature, &sum) in batch.features.iter().enumerate() {
            st.features.observe(feature, sum);
        }
        let rolled = st.features.tick_n(n);
        let slots = batch.ids.iter().zip(&batch.quiet_bins);
        for (slot, ((&id, &quiet_bin), counts)) in
            slots.zip(batch.loud.chunks_exact(SCORE_BINS)).enumerate()
        {
            let m = st.signature_monitor(slot, id, self.config);
            let loud: u64 = counts.iter().map(|&c| u64::from(c)).sum();
            m.observe(quiet_bin, (n - loud) as f64);
            for (bin, &c) in counts.iter().enumerate() {
                m.observe(bin, f64::from(c));
            }
            m.tick_n(n);
        }
        if rolled {
            st.export();
        }
        st.remaining()
    }

    /// Current drift scores (reads the monitor, does not roll
    /// windows).
    pub fn scores(&self) -> DriftScores {
        let st = lock(&self.state);
        let mut signatures: Vec<(u32, Option<f64>)> = st
            .signatures
            .iter()
            .map(|s| (s.id, s.monitor.psi()))
            .collect();
        signatures.sort_by_key(|&(id, _)| id);
        let (features_psi, features_kl) = st.features.psi_and_kl().unzip();
        DriftScores {
            features_psi,
            features_kl,
            windows: st.features.windows(),
            signatures,
        }
    }

    /// Freezes the latest current windows as the new references —
    /// called after promoting a retrained model.
    pub fn rebaseline(&self) {
        let mut st = lock(&self.state);
        st.features.rebaseline();
        for s in st.signatures.iter_mut() {
            s.monitor.rebaseline();
        }
    }

    /// Rebaselines with the promoted model's signature set, given in
    /// its evaluation order. Score monitors are slot-aligned with that
    /// order (see `DriftState`); a retrain that drops, reorders or
    /// replaces signatures would otherwise leave a slot accumulating
    /// one signature's scores against another's reference window and
    /// report phantom drift forever. Slots whose id still matches are
    /// rebaselined in place (their history stays useful); slots whose
    /// id changed are replaced with fresh monitors; extras are
    /// dropped.
    pub fn rebaseline_aligned(&self, ids: &[u32]) {
        let mut st = lock(&self.state);
        st.features.rebaseline();
        st.signatures.truncate(ids.len());
        for (slot, &id) in ids.iter().enumerate() {
            match st.signatures.get_mut(slot) {
                Some(s) if s.id == id => s.monitor.rebaseline(),
                Some(s) => *s = SignatureMonitor::new(id, self.config),
                None => st.signatures.push(SignatureMonitor::new(id, self.config)),
            }
        }
    }

    /// See [`DriftState::remaining`].
    fn remaining(&self) -> u64 {
        lock(&self.state).remaining()
    }
}

/// One thread's drift observations that its monitor has not seen yet:
/// what the verdict path writes instead of taking the monitor's lock
/// per request. Bound to one `(EngineInsight, ScorePlan)` pair at a
/// time; evaluating with another pair publishes first and rebinds.
///
/// A request adds its sparse row's values into per-feature sums and,
/// per signature slot, one count in its score's bin — but only when
/// the score differs from the slot's quiet score `sigmoid(bias)`. A
/// benign request touches about two of the signatures, so most slots
/// stay quiet and cost one comparison; at publish a slot's quiet bin
/// receives `n − loud`. The batch's size is fixed at binding: however
/// many features the traffic matches, recording never allocates.
///
/// The batch publishes when it holds as many requests as the monitors
/// had left in their windows at this thread's previous publish (so a
/// lone feeding thread rolls every window at exactly the request it
/// would roll at per request), when the pair changes, when the thread
/// exits (`VerdictScratch`'s `Drop`) and on
/// [`Psigene::telemetry_snapshot`](crate::Psigene::telemetry_snapshot).
#[derive(Default)]
pub(crate) struct DriftBatch {
    /// The monitor fed and the serial of the plan whose slots `ids`,
    /// `quiet_bins` and `loud` follow.
    target: Option<(Arc<EngineInsight>, u64)>,
    ids: Vec<u32>,
    quiet_bins: Vec<usize>,
    /// Per feature, the sum of its values over the held requests.
    features: Vec<f64>,
    /// `SCORE_BINS` counts per slot, for scores off the quiet score.
    loud: Vec<u32>,
    requests: u64,
    /// Publish when `requests` reaches this.
    due: u64,
}

impl DriftBatch {
    /// Adds one evaluated request — its sparse row and the per-slot
    /// scores `plan` gave it — and publishes when due.
    pub fn record(
        &mut self,
        insight: &Arc<EngineInsight>,
        plan: &ScorePlan,
        row: &[(usize, f64)],
        scores: &[f64],
    ) {
        let bound = matches!(&self.target,
            Some((fed, serial)) if Arc::ptr_eq(fed, insight) && *serial == plan.serial());
        if !bound {
            self.bind(insight, plan);
        }
        for &(feature, value) in row {
            if let Some(sum) = self.features.get_mut(feature) {
                *sum += value;
            }
        }
        for (k, (&p, &quiet)) in scores.iter().zip(plan.quiet_scores()).enumerate() {
            if p.to_bits() != quiet.to_bits() {
                self.loud[k * SCORE_BINS + score_bin(p)] += 1;
            }
        }
        self.requests += 1;
        if self.requests >= self.due {
            self.publish();
        }
    }

    /// Publishes what the batch holds for its current pair, then
    /// follows `insight` and `plan`'s slots.
    fn bind(&mut self, insight: &Arc<EngineInsight>, plan: &ScorePlan) {
        self.publish();
        self.features.clear();
        self.features.resize(insight.feature_bins, 0.0);
        self.ids.clear();
        self.ids.extend(plan.slots.iter().map(|slot| slot.id));
        self.quiet_bins.clear();
        self.quiet_bins
            .extend(plan.quiet_scores().iter().map(|&p| score_bin(p)));
        self.loud.clear();
        self.loud.resize(self.ids.len() * SCORE_BINS, 0);
        self.due = insight.remaining();
        self.target = Some((Arc::clone(insight), plan.serial()));
    }

    /// Hands every held request to the monitor.
    pub fn publish(&mut self) {
        if self.requests == 0 {
            return;
        }
        if let Some((insight, _)) = &self.target {
            let due = insight.publish(self);
            self.due = due;
        }
        self.features.fill(0.0);
        self.loud.fill(0);
        self.requests = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(window: u64) -> DriftConfig {
        DriftConfig {
            window,
            decay: 0.25,
            smoothing: 1e-6,
        }
    }

    fn steady_features(i: u64) -> [(usize, f64); 1] {
        [((i % 4) as usize, 1.0 + (i % 2) as f64)]
    }

    #[test]
    fn shifted_features_raise_psi_steady_traffic_does_not() {
        let ins = EngineInsight::new(8, config(16));
        for i in 0..64 {
            ins.observe(&steady_features(i), std::iter::empty());
        }
        let calm = ins.scores().features_psi.unwrap();
        assert!(calm < 0.05, "steady psi = {calm}");
        // Shift: all weight moves to the top half of the bins.
        for _ in 0..64 {
            ins.observe(&[(6, 3.0), (7, 1.0)], std::iter::empty());
        }
        let shifted = ins.scores().features_psi.unwrap();
        assert!(shifted > 0.25, "shifted psi = {shifted}");
        // Rebaselining on the new traffic calms the score.
        ins.rebaseline();
        for _ in 0..32 {
            ins.observe(&[(6, 3.0), (7, 1.0)], std::iter::empty());
        }
        let calmed = ins.scores().features_psi.unwrap();
        assert!(calmed < 0.05, "rebaselined psi = {calmed}");
    }

    #[test]
    fn signature_score_monitors_track_per_signature() {
        let ins = EngineInsight::new(4, config(8));
        for _ in 0..32 {
            ins.observe(&[(0, 1.0)], [(3u32, 0.1), (9u32, 0.9)].into_iter());
        }
        let s = ins.scores();
        assert_eq!(s.signatures.len(), 2);
        assert_eq!(s.signatures[0].0, 3);
        assert_eq!(s.signatures[1].0, 9);
        assert!(s.signatures.iter().all(|(_, p)| p.unwrap() < 0.05));
        // One signature's scores shift toward the threshold.
        for _ in 0..32 {
            ins.observe(&[(0, 1.0)], [(3u32, 0.55), (9u32, 0.9)].into_iter());
        }
        let s = ins.scores();
        let sig3 = s.signatures[0].1.unwrap();
        let sig9 = s.signatures[1].1.unwrap();
        assert!(sig3 > 0.25, "shifted signature psi = {sig3}");
        assert!(sig9 < 0.05, "stable signature psi = {sig9}");
        assert!(s.max_psi().unwrap() >= sig3);
    }

    #[test]
    fn gauges_export_on_window_rolls() {
        let ins = EngineInsight::new(4, config(4));
        let telemetry = psigene_telemetry::global();
        let before = telemetry.counter("drift.windows").get();
        for i in 0..16 {
            ins.observe(&steady_features(i), [(1u32, 0.2)].into_iter());
        }
        assert!(telemetry.counter("drift.windows").get() >= before + 4);
        // The gauges hold finite values once exported.
        assert!(telemetry.gauge("drift.features.psi").get().is_finite());
        assert!(telemetry.gauge("drift.sig.1.psi").get().is_finite());
    }

    #[test]
    fn rebaseline_aligned_resets_changed_slots_and_keeps_stable_ones() {
        let ins = EngineInsight::new(4, config(8));
        for _ in 0..32 {
            ins.observe(&[(0, 1.0)], [(3u32, 0.2), (9u32, 0.8)].into_iter());
        }
        assert_eq!(ins.scores().signatures.len(), 2);
        // A retrain replaced signature 9 with signature 7 in slot 1.
        ins.rebaseline_aligned(&[3, 7]);
        let s = ins.scores();
        let ids: Vec<u32> = s.signatures.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![3, 7]);
        // The fresh slot starts with no windows; the stable slot kept
        // its (rebaselined) history and scores low once fed.
        assert_eq!(
            s.signatures.iter().find(|&&(id, _)| id == 7).unwrap().1,
            None
        );
        for _ in 0..32 {
            ins.observe(&[(0, 1.0)], [(3u32, 0.2), (7u32, 0.8)].into_iter());
        }
        let s = ins.scores();
        assert!(s.signatures.iter().all(|&(_, p)| p.unwrap() < 0.05));
        // Shrinking the signature set drops the extra slot.
        ins.rebaseline_aligned(&[3]);
        assert_eq!(ins.scores().signatures.len(), 1);
    }

    #[test]
    fn score_bins_cover_the_unit_interval() {
        assert_eq!(score_bin(0.0), 0);
        assert_eq!(score_bin(0.05), 0);
        assert_eq!(score_bin(0.55), 5);
        assert_eq!(score_bin(1.0), SCORE_BINS - 1);
        assert_eq!(score_bin(f64::NAN), 0);
        assert_eq!(score_bin(17.0), SCORE_BINS - 1);
    }

    mod batched {
        use super::*;
        use crate::config::PipelineConfig;
        use crate::pipeline::Psigene;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use psigene_http::HttpRequest;

        /// Decays the property runs at: the powers of two the engine's
        /// defaults use, and two that round on every roll.
        const DECAYS: [f64; 5] = [0.25, 0.5, 1.0, 0.9, 0.3];

        /// Attack and benign queries: some touch no signature, some one,
        /// some several.
        const QUERIES: [&str; 8] = [
            "id=-1+union+select+1,2,concat(version(),0x3a,user()),4--+-",
            "page=2&sort=asc",
            "id=1'+or+'1'='1",
            "q=summer+housing",
            "id=1+and+sleep(5)--",
            "uid=1920&dept=ce",
            "",
            "name=o'brien&note=select+a+seat",
        ];

        /// Per query, the sparse row and the per-signature scores.
        type Fed = Vec<(Vec<(usize, f64)>, Vec<f64>)>;

        /// A small trained engine and what the dense reference gives
        /// each query.
        fn fixture() -> &'static (Psigene, Fed) {
            static FIXTURE: OnceLock<(Psigene, Fed)> = OnceLock::new();
            FIXTURE.get_or_init(|| {
                let engine = Psigene::train(&PipelineConfig {
                    crawl_samples: 120,
                    benign_train: 300,
                    cluster_sample_cap: 120,
                    threads: 1,
                    ..PipelineConfig::default()
                });
                let fed = QUERIES
                    .iter()
                    .map(|q| {
                        let dense = engine.features_of(&HttpRequest::get("v", "/x.php", q));
                        let row = dense
                            .iter()
                            .enumerate()
                            .filter(|&(_, &v)| v != 0.0)
                            .map(|(id, &v)| (id, v))
                            .collect();
                        let mut scores = Vec::new();
                        engine.score_features_into(&dense, &mut scores);
                        (row, scores)
                    })
                    .collect();
                (engine, fed)
            })
        }

        /// `DriftScores` with every score as its bits.
        type ScoreBits = (u64, Option<u64>, Option<u64>, Vec<(u32, Option<u64>)>);

        fn bits(s: &DriftScores) -> ScoreBits {
            (
                s.windows,
                s.features_psi.map(f64::to_bits),
                s.features_kl.map(f64::to_bits),
                s.signatures
                    .iter()
                    .map(|&(id, p)| (id, p.map(f64::to_bits)))
                    .collect(),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Per-request `observe` against the batched feed, on rows
            /// and scores from the trained engine: one thread's batches,
            /// published when due and at arbitrary extra points (a
            /// snapshot, a pair change), leave every score, window count
            /// and per-signature PSI bit-equal.
            #[test]
            fn batched_publishes_equal_per_request_observe(
                stream in vec((0usize..QUERIES.len(), (0u8..6).prop_map(|k| k == 0)), 0..200),
                window in 1u64..40,
                decay_pick in 0usize..DECAYS.len(),
            ) {
                let (engine, fed) = fixture();
                let config = DriftConfig {
                    window,
                    decay: DECAYS[decay_pick],
                    smoothing: 1e-2,
                };
                let plan = engine.plan();
                let ids: Vec<u32> = plan.slots.iter().map(|slot| slot.id).collect();
                let reference = EngineInsight::new(engine.feature_set().len(), config);
                let insight = Arc::new(EngineInsight::new(engine.feature_set().len(), config));
                let mut batch = DriftBatch::default();
                for &(q, flush) in &stream {
                    let (row, scores) = &fed[q];
                    reference.observe(row, ids.iter().copied().zip(scores.iter().copied()));
                    batch.record(&insight, plan, row, scores);
                    if flush {
                        batch.publish();
                    }
                }
                batch.publish();
                prop_assert_eq!(bits(&insight.scores()), bits(&reference.scores()));
            }
        }

        /// The lock policy (DESIGN §11): a thread that panics holding
        /// the monitor's guard poisons the lock, and the engine recovers
        /// the guard instead of passing the panic on — verdicts keep
        /// coming and the drift windows keep rolling.
        #[test]
        fn a_panic_holding_the_monitor_lock_stops_neither_verdicts_nor_windows() {
            use psigene_rulesets::{Detection, DetectionEngine};
            let verdict = |d: Detection| (d.flagged, d.matched_rules, d.score.to_bits());
            let (engine, insight) = fixture().0.with_control(config(4));
            let request = HttpRequest::get("v", "/x.php", QUERIES[0]);
            let want = verdict(engine.evaluate(&request));

            let holder = Arc::clone(&insight);
            let died = std::thread::spawn(move || {
                let _guard = holder.state.lock();
                panic!("a monitor feed panicked mid-update");
            })
            .join();
            assert!(died.is_err() && insight.state.is_poisoned());

            let before = insight.scores().windows;
            for _ in 0..16 {
                assert_eq!(verdict(engine.evaluate(&request)), want);
            }
            engine.telemetry_snapshot();
            assert!(insight.scores().windows >= before + 4);
        }

        #[test]
        fn fixture_scores_touch_some_signatures_and_leave_others_quiet() {
            let (engine, fed) = fixture();
            let quiet = engine.plan().quiet_scores();
            let loud = |scores: &[f64]| {
                scores
                    .iter()
                    .zip(quiet)
                    .filter(|(p, q)| p.to_bits() != q.to_bits())
                    .count()
            };
            let per_query: Vec<usize> = fed.iter().map(|(_, scores)| loud(scores)).collect();
            assert!(per_query.contains(&0), "{per_query:?}");
            assert!(
                per_query.iter().any(|&n| n > 0 && n < quiet.len()),
                "{per_query:?}"
            );
        }
    }
}
