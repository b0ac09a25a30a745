//! Integration of phases 1–2: simulated portals → crawler → feature
//! matrix, checking the §II-A/§II-B invariants the paper reports.

use psigene_corpus::{
    crawl_training_set,
    crawler::{crawl, CrawlerConfig},
    portal::{build_portals, PortalConfig},
    CrawlCorpusConfig,
};
use psigene_features::{extract, FeatureSet};
use std::sync::OnceLock;

/// The full feature library, built once per test binary.
fn full_set() -> &'static FeatureSet {
    static SET: OnceLock<FeatureSet> = OnceLock::new();
    SET.get_or_init(FeatureSet::full)
}

#[test]
fn crawler_recovers_the_whole_corpus_across_portal_styles() {
    let corpus = build_portals(&PortalConfig {
        samples: 800,
        ..Default::default()
    });
    let result = crawl(&corpus.web, &corpus.seeds, &CrawlerConfig::default());
    assert_eq!(
        result.samples.len(),
        corpus.planted.len(),
        "crawler lost samples"
    );
    // Every portal contributed.
    let portals: std::collections::HashSet<&str> =
        result.samples.iter().map(|s| s.portal.as_str()).collect();
    assert_eq!(portals.len(), 4, "portals seen: {portals:?}");
    // The crawl obeys the link graph: pages fetched exceeds the
    // number of index pages alone.
    assert!(result.stats.pages_fetched > 100);
}

#[test]
fn feature_matrix_has_paper_like_shape() {
    let ds = crawl_training_set(&CrawlCorpusConfig {
        samples: 1000,
        ..Default::default()
    });
    let full = full_set();
    let payloads: Vec<&[u8]> = ds
        .samples
        .iter()
        .map(|s| s.request.detection_payload())
        .collect();
    let matrix = extract::extract_matrix(full, &payloads, 2);
    let (pruned, kept) = full.prune_unobserved(&matrix);
    let m = matrix.select_cols(&kept);

    // §II-B: 477 → 159 and an ~85 %-zero matrix. Bands widened for
    // the synthetic corpus.
    assert!(
        (100..=320).contains(&pruned.len()),
        "pruned feature count {} out of band",
        pruned.len()
    );
    assert!(
        (0.75..=0.99).contains(&m.sparsity()),
        "sparsity {} out of band",
        m.sparsity()
    );
    // A meaningful share of features behaves binary (paper: 70/159).
    let binary = pruned.binary_feature_count(&m);
    assert!(
        binary * 5 >= pruned.len(),
        "only {binary}/{} binary features",
        pruned.len()
    );
    // Every attack family lights up at least one feature somewhere.
    let empty_rows = (0..m.rows()).filter(|&r| m.row(r).count() == 0).count();
    assert!(
        empty_rows < m.rows() / 10,
        "{empty_rows} empty rows of {}",
        m.rows()
    );
}

#[test]
fn normalization_unifies_obfuscated_duplicates() {
    use psigene_http::normalize::normalize;
    // The same logical payload under different portal obfuscations
    // must land on identical normalized bytes (and therefore identical
    // feature rows).
    let variants: [&[u8]; 3] = [
        b"id=1+UNION+SELECT+a",
        b"id=1%20union%20select%20a",
        b"id=1\tUnIoN\nSeLeCt a",
    ];
    let set = full_set();
    let rows: Vec<Vec<(usize, f64)>> = variants
        .iter()
        .map(|v| extract::extract_row(set, v))
        .collect();
    assert_eq!(normalize(variants[0]), normalize(variants[1]));
    assert_eq!(normalize(variants[1]), normalize(variants[2]));
    assert_eq!(rows[0], rows[1]);
    assert_eq!(rows[1], rows[2]);
}
