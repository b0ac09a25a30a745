//! Cross-engine integration: the Table V orderings the paper reports
//! must hold on freshly generated test sets.

use psigene::{PipelineConfig, Psigene};
use psigene_corpus::{
    benign::{self, BenignConfig},
    sqlmap::{self, SqlmapConfig},
    Dataset,
};
use psigene_rulesets::{BroEngine, DetectionEngine, ModsecEngine, SnortEngine};

fn tpr(e: &dyn DetectionEngine, ds: &Dataset) -> f64 {
    ds.samples
        .iter()
        .filter(|s| e.evaluate(&s.request).flagged)
        .count() as f64
        / ds.len().max(1) as f64
}

fn fpr(e: &dyn DetectionEngine, ds: &Dataset) -> f64 {
    tpr(e, ds)
}

#[test]
fn table_v_orderings_hold() {
    let system = Psigene::train(&PipelineConfig {
        crawl_samples: 1500,
        benign_train: 10_000,
        cluster_sample_cap: 900,
        threads: 2,
        ..PipelineConfig::default()
    });
    let sqlmap_ds = sqlmap::generate(&SqlmapConfig {
        samples: 700,
        ..Default::default()
    });
    let benign_ds = benign::generate(&BenignConfig {
        requests: 10_000,
        include_novel_tail: true,
        seed: 0x7e57_be11,
        ..Default::default()
    });

    let bro = BroEngine::new();
    let snort = SnortEngine::new();
    let modsec = ModsecEngine::new();

    let t_modsec = tpr(&modsec, &sqlmap_ds);
    let t_psig = tpr(&system, &sqlmap_ds);
    let t_snort = tpr(&snort, &sqlmap_ds);
    let t_bro = tpr(&bro, &sqlmap_ds);

    // Paper's TPR ordering: ModSec > pSigene > Snort > Bro.
    assert!(t_modsec > t_psig, "modsec {t_modsec} !> psigene {t_psig}");
    assert!(t_psig > t_snort, "psigene {t_psig} !> snort {t_snort}");
    assert!(t_snort > t_bro, "snort {t_snort} !> bro {t_bro}");
    // And all in the 60–100 % band.
    for (t, name) in [
        (t_modsec, "modsec"),
        (t_psig, "psigene"),
        (t_snort, "snort"),
        (t_bro, "bro"),
    ] {
        assert!((0.60..=1.0).contains(&t), "{name} TPR {t} out of band");
    }

    let f_bro = fpr(&bro, &benign_ds);
    let f_psig = fpr(&system, &benign_ds);
    let f_modsec = fpr(&modsec, &benign_ds);
    let f_snort = fpr(&snort, &benign_ds);

    // Paper's FPR ordering: Bro (zero) <= pSigene < ModSec < Snort.
    assert_eq!(f_bro, 0.0, "bro must have zero FPs");
    assert!(f_psig <= f_modsec, "psigene {f_psig} !<= modsec {f_modsec}");
    assert!(f_modsec < f_snort, "modsec {f_modsec} !< snort {f_snort}");
    assert!(f_snort < 0.005, "snort FPR {f_snort} out of band");
}

#[test]
fn deterministic_engines_agree_with_themselves() {
    // Engines are pure functions of the request.
    let sqlmap_ds = sqlmap::generate(&SqlmapConfig {
        samples: 100,
        ..Default::default()
    });
    for engine in [
        Box::new(BroEngine::new()) as Box<dyn DetectionEngine>,
        Box::new(SnortEngine::new()),
        Box::new(ModsecEngine::new()),
    ] {
        for s in &sqlmap_ds.samples {
            let a = engine.evaluate(&s.request);
            let b = engine.evaluate(&s.request);
            assert_eq!(a.flagged, b.flagged);
            assert_eq!(a.score, b.score);
        }
    }
}

#[test]
fn engines_expose_rule_counts() {
    assert_eq!(BroEngine::new().rule_count(), 6);
    assert_eq!(ModsecEngine::new().rule_count(), 34);
    assert!(SnortEngine::new().rule_count() > 100);
}
