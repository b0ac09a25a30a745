//! Incremental signature updates (the paper's Experiment 2 as an
//! operational story): a deployed system sees fresh scanner traffic,
//! folds a portion of it back into training, and its detection rate
//! on the remaining traffic improves — no manual signature editing.
//!
//! ```text
//! cargo run --release -p psigene --example signature_update
//! ```

use psigene::{PipelineConfig, Psigene};
use psigene_corpus::sqlmap::{self, SqlmapConfig};
use psigene_rulesets::DetectionEngine;

fn main() {
    println!("training the initial signature set...");
    let system = Psigene::train(&PipelineConfig {
        crawl_samples: 1500,
        benign_train: 10_000,
        cluster_sample_cap: 900,
        ..PipelineConfig::default()
    });
    println!("initial signatures: {}\n", system.signatures().len());

    // A fresh SQLmap campaign hits the network.
    let mut campaign = sqlmap::generate(&SqlmapConfig {
        samples: 1000,
        ..Default::default()
    });
    campaign.shuffle(42);

    let tpr = |sys: &Psigene, ds: &psigene_corpus::Dataset| -> f64 {
        let hits = ds
            .samples
            .iter()
            .filter(|s| sys.evaluate(&s.request).flagged)
            .count();
        hits as f64 / ds.len().max(1) as f64
    };

    println!(
        "day 0: detection rate on the campaign = {:.2}%",
        tpr(&system, &campaign) * 100.0
    );

    // The operator feeds captured samples back in, 20 % at a time —
    // "the incremental training is also an automatic process" (§III-E).
    let mut current = system;
    for day in 1..=2 {
        let (captured, remaining) = campaign.split_fraction(0.2 * day as f64);
        let (updated, stats) = current.retrain_with(&captured, 4);
        println!(
            "day {day}: retrained with {} captured samples ({} assigned to clusters, {} signatures refitted)",
            captured.len(),
            stats.assigned,
            stats.retrained_signatures
        );
        println!(
            "       detection rate on unseen remainder = {:.2}%",
            tpr(&updated, &remaining) * 100.0
        );
        current = updated;
    }

    println!("\nper-signature training set growth:");
    for s in current.signatures() {
        println!(
            "  signature {}: {} training samples",
            s.id, s.training_samples
        );
    }
}
