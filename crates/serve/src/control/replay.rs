//! Differential replay: the recent-traffic buffer evaluated against
//! the shadow model *and* a live baseline, producing the promotion
//! report the control plane gates on.
//!
//! Replay is the loop's safety net. A retrained model can look fine
//! on its training set and still regress live behaviour (a guarded
//! weight flipped a borderline benign cluster, a refit moved a
//! signature's calibration). Replaying the buffered sample of recent
//! traffic through both engines — the same requests, pairwise —
//! surfaces exactly the behavioural delta a promotion would inflict:
//! verdict flips in both directions, per-signature hit-rate movement,
//! an AUC delta over the pseudo-labels, and the score-calibration
//! shift.

use crate::buffer::TrafficSample;
use psigene_rulesets::DetectionEngine;

/// Per-signature hit-rate movement between live and shadow, measured
/// over the replayed samples (a point on each model's ROC curve at
/// the serving threshold).
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureDelta {
    /// Signature id (as reported in `Detection::matched_rules`).
    pub id: u32,
    /// Fraction of attack-labeled samples this signature matched
    /// under the live baseline.
    pub live_attack_rate: f64,
    /// … and under the shadow model.
    pub shadow_attack_rate: f64,
    /// Fraction of benign-labeled samples it matched under live.
    pub live_benign_rate: f64,
    /// … and under shadow.
    pub shadow_benign_rate: f64,
}

impl SignatureDelta {
    /// The signature's movement toward false positives: how much more
    /// of the benign population it would flag after promotion.
    pub fn benign_rate_delta(&self) -> f64 {
        self.shadow_benign_rate - self.live_benign_rate
    }
}

/// Outcome of one differential replay; the promotion gate's evidence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromotionReport {
    /// Samples replayed (attack-labeled + benign-labeled).
    pub replayed: usize,
    /// Samples the live baseline passed that the shadow flags — the
    /// false-positive regressions a promotion would ship.
    pub benign_to_flagged: usize,
    /// Samples the live baseline flagged that the shadow passes —
    /// lost detections.
    pub flagged_to_benign: usize,
    /// Fraction of attack-labeled samples flagged by live.
    pub live_attack_detection: f64,
    /// … and by shadow.
    pub shadow_attack_detection: f64,
    /// Fraction of benign-labeled samples flagged by live.
    pub live_benign_flag_rate: f64,
    /// … and by shadow.
    pub shadow_benign_flag_rate: f64,
    /// Rank-sum AUC of the live score over the capture labels.
    pub live_auc: f64,
    /// … and of the shadow score.
    pub shadow_auc: f64,
    /// Mean |shadow − live| max-signature score over all replayed
    /// samples — the score-calibration shift a promotion applies.
    pub mean_score_shift: f64,
    /// Per-signature hit-rate deltas, sorted by id (signatures that
    /// matched nothing under either model are omitted).
    pub signatures: Vec<SignatureDelta>,
}

impl PromotionReport {
    /// Total verdict flips in either direction.
    pub fn verdict_flips(&self) -> usize {
        self.benign_to_flagged + self.flagged_to_benign
    }
}

/// Mann–Whitney rank-sum AUC of `score` as a separator of
/// `label` (ties count half). Returns 0.5 when a class is empty.
fn auc(scored: &[(f64, bool)]) -> f64 {
    let pos = scored.iter().filter(|&&(_, l)| l).count();
    let neg = scored.len() - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    let mut wins = 0.0f64;
    for &(sp, lp) in scored.iter().filter(|&&(_, l)| l) {
        for &(sn, _) in scored.iter().filter(|&&(_, l)| !l) {
            wins += if sp > sn {
                1.0
            } else if sp == sn {
                0.5
            } else {
                0.0
            };
        }
        let _ = lp;
    }
    wins / (pos * neg) as f64
}

/// Replays `attacks` + `benign` through `live` and `shadow` pairwise
/// and tallies the behavioural delta. Engines are evaluated in
/// submission order; both see the identical request sequence.
pub fn differential_replay(
    live: &dyn DetectionEngine,
    shadow: &dyn DetectionEngine,
    attacks: &[TrafficSample],
    benign: &[TrafficSample],
) -> PromotionReport {
    let mut report = PromotionReport {
        replayed: attacks.len() + benign.len(),
        ..PromotionReport::default()
    };
    if report.replayed == 0 {
        report.live_auc = 0.5;
        report.shadow_auc = 0.5;
        return report;
    }

    // Per-signature tallies keyed by id: [live-on-attack,
    // shadow-on-attack, live-on-benign, shadow-on-benign].
    let mut sig_hits: std::collections::BTreeMap<u32, [usize; 4]> =
        std::collections::BTreeMap::new();
    let mut live_scored: Vec<(f64, bool)> = Vec::with_capacity(report.replayed);
    let mut shadow_scored: Vec<(f64, bool)> = Vec::with_capacity(report.replayed);
    let mut live_attack_hits = 0usize;
    let mut shadow_attack_hits = 0usize;
    let mut live_benign_hits = 0usize;
    let mut shadow_benign_hits = 0usize;
    let mut score_shift = 0.0f64;

    for sample in attacks.iter().chain(benign) {
        let dl = live.evaluate(&sample.request);
        let ds = shadow.evaluate(&sample.request);
        match (dl.flagged, ds.flagged) {
            (false, true) => report.benign_to_flagged += 1,
            (true, false) => report.flagged_to_benign += 1,
            _ => {}
        }
        if sample.attack {
            live_attack_hits += dl.flagged as usize;
            shadow_attack_hits += ds.flagged as usize;
        } else {
            live_benign_hits += dl.flagged as usize;
            shadow_benign_hits += ds.flagged as usize;
        }
        let (li, si) = if sample.attack { (0, 1) } else { (2, 3) };
        for &id in &dl.matched_rules {
            sig_hits.entry(id).or_default()[li] += 1;
        }
        for &id in &ds.matched_rules {
            sig_hits.entry(id).or_default()[si] += 1;
        }
        score_shift += (ds.score - dl.score).abs();
        live_scored.push((dl.score, sample.attack));
        shadow_scored.push((ds.score, sample.attack));
    }

    let na = attacks.len().max(1) as f64;
    let nb = benign.len().max(1) as f64;
    report.live_attack_detection = live_attack_hits as f64 / na;
    report.shadow_attack_detection = shadow_attack_hits as f64 / na;
    report.live_benign_flag_rate = live_benign_hits as f64 / nb;
    report.shadow_benign_flag_rate = shadow_benign_hits as f64 / nb;
    report.mean_score_shift = score_shift / report.replayed as f64;
    report.live_auc = auc(&live_scored);
    report.shadow_auc = auc(&shadow_scored);
    report.signatures = sig_hits
        .into_iter()
        .map(|(id, [la, sa, lb, sb])| SignatureDelta {
            id,
            live_attack_rate: la as f64 / na,
            shadow_attack_rate: sa as f64 / na,
            live_benign_rate: lb as f64 / nb,
            shadow_benign_rate: sb as f64 / nb,
        })
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use psigene_http::HttpRequest;
    use psigene_rulesets::Detection;

    /// Flags queries containing any of the given needles.
    struct Needles(&'static [&'static str], u32);

    impl DetectionEngine for Needles {
        fn name(&self) -> &str {
            "needles"
        }
        fn evaluate(&self, request: &HttpRequest) -> Detection {
            let target = request.request_target();
            let hit = self.0.iter().any(|n| target.contains(n));
            Detection {
                flagged: hit,
                matched_rules: if hit { vec![self.1] } else { vec![] },
                score: if hit { 0.9 } else { 0.1 },
            }
        }
        fn rule_count(&self) -> usize {
            1
        }
    }

    fn sample(i: u64, q: &str, attack: bool) -> TrafficSample {
        TrafficSample {
            id: i,
            request: HttpRequest::get("h", "/p", q),
            attack,
            score: if attack { 0.9 } else { 0.1 },
        }
    }

    #[test]
    fn identical_engines_report_no_flips() {
        let live = Needles(&["union"], 1);
        let shadow = Needles(&["union"], 1);
        let attacks = vec![sample(0, "a=union+select", true)];
        let benign = vec![sample(1, "a=1", false), sample(2, "b=2", false)];
        let r = differential_replay(&live, &shadow, &attacks, &benign);
        assert_eq!(r.replayed, 3);
        assert_eq!(r.verdict_flips(), 0);
        assert_eq!(r.live_attack_detection, 1.0);
        assert_eq!(r.shadow_attack_detection, 1.0);
        assert_eq!(r.mean_score_shift, 0.0);
        assert!((r.live_auc - 1.0).abs() < 1e-12);
        assert_eq!(r.signatures.len(), 1);
        assert_eq!(r.signatures[0].benign_rate_delta(), 0.0);
    }

    #[test]
    fn sabotaged_shadow_shows_benign_regressions() {
        let live = Needles(&["union"], 1);
        // The sabotaged model also flags ordinary parameters.
        let shadow = Needles(&["union", "a="], 1);
        let attacks = vec![sample(0, "q=union+select", true)];
        let benign: Vec<TrafficSample> = (0..4)
            .map(|i| sample(10 + i, &format!("a={i}"), false))
            .collect();
        let r = differential_replay(&live, &shadow, &attacks, &benign);
        assert_eq!(r.benign_to_flagged, 4);
        assert_eq!(r.flagged_to_benign, 0);
        assert_eq!(r.shadow_benign_flag_rate, 1.0);
        assert!(r.shadow_auc < r.live_auc);
        let d = &r.signatures[0];
        assert!(d.benign_rate_delta() > 0.9);
    }

    #[test]
    fn lost_detections_are_counted_separately() {
        let live = Needles(&["union", "sleep"], 1);
        let shadow = Needles(&["union"], 1);
        let attacks = vec![
            sample(0, "q=union+select", true),
            sample(1, "q=1+and+sleep(5)", true),
        ];
        let r = differential_replay(&live, &shadow, &attacks, &[]);
        assert_eq!(r.flagged_to_benign, 1);
        assert_eq!(r.benign_to_flagged, 0);
        assert!(r.shadow_attack_detection < r.live_attack_detection);
    }

    #[test]
    fn empty_replay_is_neutral() {
        let live = Needles(&[], 1);
        let shadow = Needles(&[], 1);
        let r = differential_replay(&live, &shadow, &[], &[]);
        assert_eq!(r.replayed, 0);
        assert_eq!(r.live_auc, 0.5);
    }
}
