//! Integration tests for the fault-injection layer and the crawler's
//! recovery machinery (ISSUE 4 acceptance criteria):
//!
//! 1. at a 20 % per-attempt fault rate with a fixed seed, the crawl
//!    recovers ≥ 99 % of the samples a fault-free crawl collects —
//!    deterministically;
//! 2. with one portal persistently dead, the crawl terminates with a
//!    non-empty dead-letter list and still harvests every other
//!    portal;
//! 3. a crawl checkpointed mid-flight (JSON round trip included) and
//!    resumed yields the exact `CrawlResult` of an uninterrupted run.

use psigene_corpus::crawler::{crawl_with_faults, CrawlCheckpoint, Crawler, CrawlerConfig};
use psigene_corpus::portal::{build_portals, PortalConfig};
use psigene_corpus::web::FaultPlan;
use std::collections::HashSet;

const FIXED_SEED: u64 = 0x5eed_fa17;

fn portals(samples: usize) -> psigene_corpus::portal::PortalCorpus {
    build_portals(&PortalConfig {
        samples,
        ..PortalConfig::default()
    })
}

#[test]
fn recovers_99_percent_under_20_percent_faults() {
    let corpus = portals(800);
    let config = CrawlerConfig::default();

    let clean = crawl_with_faults(&corpus.web, &corpus.seeds, &config, &FaultPlan::none());
    let clean_payloads: HashSet<_> = clean.samples.iter().map(|s| s.payload.clone()).collect();
    assert!(!clean_payloads.is_empty());

    let plan = FaultPlan::uniform(0.20, FIXED_SEED);
    let faulty = crawl_with_faults(&corpus.web, &corpus.seeds, &config, &plan);
    let faulty_payloads: HashSet<_> = faulty.samples.iter().map(|s| s.payload.clone()).collect();

    let recovered = clean_payloads.intersection(&faulty_payloads).count();
    let rate = recovered as f64 / clean_payloads.len() as f64;
    assert!(
        rate >= 0.99,
        "recovered only {recovered}/{} ({:.2}%) of fault-free samples",
        clean_payloads.len(),
        rate * 100.0
    );
    // The recovery machinery actually worked for it: faults were
    // observed and retried through.
    assert!(faulty.stats.faults > 0, "20% plan injected no faults");
    assert!(faulty.stats.retries > 0, "no retries under 20% faults");
    assert!(faulty.stats.backoff_nanos > 0);

    // And deterministically: same plan, same result.
    let again = crawl_with_faults(&corpus.web, &corpus.seeds, &config, &plan);
    assert_eq!(again, faulty, "faulty crawl is not reproducible");
}

#[test]
fn dead_portal_dead_letters_without_hanging() {
    let corpus = portals(300);
    let config = CrawlerConfig::default();
    let plan = FaultPlan::none().with_dead_host("bugtraq.example");
    let result = crawl_with_faults(&corpus.web, &corpus.seeds, &config, &plan);

    assert!(
        !result.dead_letters.is_empty(),
        "a 100% persistent-fault host must produce dead letters"
    );
    assert!(result
        .dead_letters
        .iter()
        .all(|d| d.url.contains("bugtraq.example")));
    assert_eq!(result.stats.dead_lettered, result.dead_letters.len());
    // Attempts were bounded (no infinite retry loop).
    assert!(result
        .dead_letters
        .iter()
        .all(|d| u64::from(d.attempts) <= u64::from(config.max_retries) + 1));

    // The other three portals were fully harvested regardless.
    let clean = crawl_with_faults(&corpus.web, &corpus.seeds, &config, &FaultPlan::none());
    let expect: HashSet<_> = clean
        .samples
        .iter()
        .filter(|s| s.portal != "bugtraq.example")
        .map(|s| s.payload.clone())
        .collect();
    let got: HashSet<_> = result.samples.iter().map(|s| s.payload.clone()).collect();
    let missing = expect.difference(&got).count();
    assert_eq!(missing, 0, "{missing} samples lost from healthy portals");
}

#[test]
fn checkpoint_resume_equals_uninterrupted_crawl() {
    let corpus = portals(400);
    let config = CrawlerConfig::default();
    let plan = FaultPlan::uniform(0.20, FIXED_SEED ^ 0x77);

    let uninterrupted =
        Crawler::new(&corpus.web, &corpus.seeds, config.clone(), plan.clone()).finish();

    // Crawl ~40 pages, snapshot, serialize, drop the crawler.
    let mut first_half = Crawler::new(&corpus.web, &corpus.seeds, config.clone(), plan.clone());
    for _ in 0..40 {
        if !first_half.step() {
            break;
        }
    }
    let json = first_half.checkpoint().to_json();
    drop(first_half);

    // Rebuild from JSON (as a fresh process would) and finish.
    let checkpoint = CrawlCheckpoint::from_json(&json).expect("checkpoint round-trips");
    let resumed = Crawler::resume(&corpus.web, config, plan, checkpoint).finish();

    assert_eq!(
        resumed.samples, uninterrupted.samples,
        "resumed crawl produced different samples"
    );
    assert_eq!(
        resumed.stats, uninterrupted.stats,
        "resumed crawl produced different stats"
    );
    assert_eq!(resumed.dead_letters, uninterrupted.dead_letters);
}
