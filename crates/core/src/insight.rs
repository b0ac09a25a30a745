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
//! Both feed exponentially-decayed sketches windowed into
//! reference/current snapshots ([`DriftMonitor`]); PSI and KL scores
//! are exported as `drift.*` gauges on every window roll, with gauge
//! handles resolved once per process (the `DetectorMetrics` pattern —
//! zero registry lookups per request). The control plane reads the
//! gauges (or [`Psigene::drift_scores`]) and, past a PSI threshold,
//! kicks off incremental retraining; after promoting the retrained
//! model it calls [`Psigene::rebaseline_drift`] so drift is measured
//! against the traffic the new model was accepted on.

use parking_lot::{Mutex, RwLock};
use psigene_telemetry::insight::{DriftConfig, DriftMonitor};
use psigene_telemetry::{Counter, Gauge};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Number of score buckets per signature monitor: probabilities in
/// `[0, 1]` land in ten equal-width bins.
pub const SCORE_BINS: usize = 10;

pub(crate) fn score_bin(p: f64) -> usize {
    ((p.clamp(0.0, 1.0) * SCORE_BINS as f64) as usize).min(SCORE_BINS - 1)
}

/// Pre-resolved `drift.*` gauge handles (one registry lookup per
/// process, never per request or per window).
struct DriftMetrics {
    features_psi: Arc<Gauge>,
    features_kl: Arc<Gauge>,
    windows: Arc<Counter>,
    /// Per-signature PSI gauges, cached by id after first resolution.
    sig_psi: RwLock<HashMap<u32, Arc<Gauge>>>,
}

impl DriftMetrics {
    fn sig_gauge(&self, id: u32) -> Arc<Gauge> {
        if let Some(g) = self.sig_psi.read().get(&id) {
            return Arc::clone(g);
        }
        let g = psigene_telemetry::global().gauge(&format!("drift.sig.{id}.psi"));
        Arc::clone(self.sig_psi.write().entry(id).or_insert(g))
    }
}

fn drift_metrics() -> &'static DriftMetrics {
    static METRICS: OnceLock<DriftMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let telemetry = psigene_telemetry::global();
        DriftMetrics {
            features_psi: telemetry.gauge("drift.features.psi"),
            features_kl: telemetry.gauge("drift.features.kl"),
            windows: telemetry.counter("drift.windows"),
            sig_psi: RwLock::new(HashMap::new()),
        }
    })
}

struct DriftState {
    features: DriftMonitor,
    /// Score monitors in first-observed order, created lazily so
    /// signature subsets stay consistent without reconfiguration.
    /// A vector, not a map: the engine feeds signatures in a stable
    /// order every request, so the hot path walks this index-aligned
    /// and the common case is a direct slot hit with no hashing.
    signatures: Vec<(u32, DriftMonitor)>,
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
            Some(&(slot_id, _)) if slot_id == id => slot,
            _ => match self.signatures.iter().position(|&(sid, _)| sid == id) {
                Some(found) => found,
                None => {
                    self.signatures
                        .push((id, DriftMonitor::new(SCORE_BINS, config)));
                    self.signatures.len() - 1
                }
            },
        };
        &mut self.signatures[idx].1
    }
}

/// Streaming drift state for one engine; shared by its clones.
///
/// All methods take `&self` — observation serializes on an internal
/// mutex held only for the bin updates (no scoring, no I/O), so the
/// gateway's shard workers feed one monitor concurrently.
pub struct EngineInsight {
    config: DriftConfig,
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
    /// gauge values whenever the feature window rolls.
    pub fn observe(&self, row: &[(usize, f64)], scores: impl Iterator<Item = (u32, f64)>) {
        let mut st = self.state.lock();
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
            let dm = drift_metrics();
            if let Some(p) = st.features.psi() {
                dm.features_psi.set(p);
            }
            if let Some(k) = st.features.kl() {
                dm.features_kl.set(k);
            }
            dm.windows.inc();
            for &(id, ref m) in st.signatures.iter() {
                if let Some(p) = m.psi() {
                    dm.sig_gauge(id).set(p);
                }
            }
        }
    }

    /// Current drift scores (reads the monitor, does not roll
    /// windows).
    pub fn scores(&self) -> DriftScores {
        let st = self.state.lock();
        let mut signatures: Vec<(u32, Option<f64>)> = st
            .signatures
            .iter()
            .map(|&(id, ref m)| (id, m.psi()))
            .collect();
        signatures.sort_by_key(|&(id, _)| id);
        DriftScores {
            features_psi: st.features.psi(),
            features_kl: st.features.kl(),
            windows: st.features.windows(),
            signatures,
        }
    }

    /// Freezes the latest current windows as the new references —
    /// called after promoting a retrained model.
    pub fn rebaseline(&self) {
        let mut st = self.state.lock();
        st.features.rebaseline();
        for &mut (_, ref mut m) in st.signatures.iter_mut() {
            m.rebaseline();
        }
    }

    /// Rebaselines with the promoted model's signature set, given in
    /// its evaluation order. Score monitors are slot-aligned with that
    /// order (see [`DriftState`]); a retrain that drops, reorders or
    /// replaces signatures would otherwise leave a slot accumulating
    /// one signature's scores against another's reference window and
    /// report phantom drift forever. Slots whose id still matches are
    /// rebaselined in place (their history stays useful); slots whose
    /// id changed are replaced with fresh monitors; extras are
    /// dropped.
    pub fn rebaseline_aligned(&self, ids: &[u32]) {
        let mut st = self.state.lock();
        st.features.rebaseline();
        st.signatures.truncate(ids.len());
        for (slot, &id) in ids.iter().enumerate() {
            match st.signatures.get_mut(slot) {
                Some(&mut (slot_id, ref mut m)) if slot_id == id => m.rebaseline(),
                Some(entry) => *entry = (id, DriftMonitor::new(SCORE_BINS, self.config)),
                None => st
                    .signatures
                    .push((id, DriftMonitor::new(SCORE_BINS, self.config))),
            }
        }
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
}
