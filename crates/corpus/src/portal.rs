//! Simulated cybersecurity portals.
//!
//! Four portal styles mirroring the paper's sources (§II-A):
//!
//! * `bugtraq.example` — advisory pages with one sample each, linked
//!   from paginated index pages (SecurityFocus style);
//! * `exploitdb.example` — exploit pages embedding full attack URLs
//!   (Exploit-DB style);
//! * `packetstorm.example` — text dumps with several payloads per
//!   file (PacketStorm style);
//! * `vulndb.example` — a portal exposing a plain-text **search API**
//!   with pagination (OSVDB style; "this last site also provides its
//!   own search API").

use crate::families::{obfuscate, raw_payload, AttackFamily, ObfuscationProfile};
use crate::vulndb::catalog;
use crate::web::{escape_html, ContentType, Page, SimulatedWeb};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A payload planted in a portal page — the ground truth the crawler
/// is expected to recover.
#[derive(Debug, Clone)]
pub struct PlantedSample {
    /// The on-the-wire payload (query-string portion).
    pub payload: String,
    /// Ground-truth family.
    pub family: AttackFamily,
    /// Portal host that published it.
    pub portal: String,
}

/// Configuration of the portal corpus.
#[derive(Debug, Clone)]
pub struct PortalConfig {
    /// Total number of attack samples planted across all portals.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Obfuscation profile of published samples.
    pub profile: ObfuscationProfile,
}

impl Default for PortalConfig {
    fn default() -> PortalConfig {
        PortalConfig {
            samples: 3000,
            seed: 0xc0a1_e5ce,
            profile: ObfuscationProfile::portal(),
        }
    }
}

/// What portals publish: the family mix of public exploit write-ups.
/// All twelve families appear so the crawled training set exercises
/// the whole grammar; union/tautology/error dominate like public
/// exploit databases do.
const PORTAL_MIX: &[(AttackFamily, u32)] = &[
    (AttackFamily::UnionBased, 22),
    (AttackFamily::Tautology, 14),
    (AttackFamily::ErrorBased, 12),
    (AttackFamily::BooleanBlind, 12),
    (AttackFamily::InfoSchema, 9),
    (AttackFamily::TimeBlind, 8),
    (AttackFamily::CharFunction, 6),
    (AttackFamily::CommentObfuscated, 5),
    (AttackFamily::EncodedObfuscated, 5),
    (AttackFamily::Stacked, 3),
    (AttackFamily::OrderByProbe, 3),
    (AttackFamily::OutOfBand, 1),
    // Non-SQLi content the crawler extracts by accident (the paper's
    // training noise that forms the black-hole biclusters).
    (AttackFamily::ForeignNoise, 8),
];

/// The built corpus: the simulated web, the crawler seeds, and the
/// planted ground truth.
#[derive(Debug)]
pub struct PortalCorpus {
    /// The page store to crawl.
    pub web: SimulatedWeb,
    /// Seed URLs (one per portal).
    pub seeds: Vec<String>,
    /// Every planted sample.
    pub planted: Vec<PlantedSample>,
}

/// Builds all four portals with `config.samples` planted payloads.
pub fn build_portals(config: &PortalConfig) -> PortalCorpus {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut web = SimulatedWeb::new();
    let mut planted = Vec::with_capacity(config.samples);
    let vulns = catalog();

    // Split samples across the four portals.
    let per = config.samples / 4;
    let counts = [per, per, per, config.samples - 3 * per];

    // Public portals republish the same exploit write-up many times
    // (mirrors, mailing-list reposts); a bounded cache of recent raw
    // payloads models that redundancy. Republished copies differ only
    // in surface obfuscation, never byte-identically (the crawler
    // dedupes exact strings).
    let mut recent: Vec<(String, AttackFamily)> = Vec::new();
    // The crawler dedupes byte-identical payloads, so plants must be
    // unique on the wire: colliding obfuscations are re-rolled.
    let mut seen_wire: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut make_payload = |rng: &mut ChaCha8Rng| -> (String, AttackFamily) {
        loop {
            let (raw, family) = if !recent.is_empty() && rng.gen_bool(0.35) {
                recent[rng.gen_range(0..recent.len())].clone()
            } else {
                let total: u32 = PORTAL_MIX.iter().map(|(_, w)| w).sum();
                let mut t = rng.gen_range(0..total);
                let mut family = PORTAL_MIX[0].0;
                for (f, w) in PORTAL_MIX {
                    if t < *w {
                        family = *f;
                        break;
                    }
                    t -= w;
                }
                let raw = raw_payload(family, rng);
                if recent.len() >= 48 {
                    recent.remove(0);
                }
                recent.push((raw.clone(), family));
                (raw, family)
            };
            let wire = obfuscate(&raw, family, &config.profile, rng);
            let vuln = &vulns[rng.gen_range(0..vulns.len())];
            let planted = format!("{}={}", vuln.parameter, wire);
            if seen_wire.insert(planted.clone()) {
                return (planted, family);
            }
        }
    };

    // Portal 1: bugtraq.example — one advisory page per sample,
    // paginated index.
    {
        let host = "bugtraq.example";
        let n = counts[0];
        let page_size = 25;
        let pages = n.div_ceil(page_size).max(1);
        for p in 0..pages {
            let mut links = String::new();
            for i in (p * page_size)..((p + 1) * page_size).min(n) {
                links.push_str(&format!(
                    "<li><a href=\"http://{host}/bid/{i}\">BID-{i}</a></li>\n"
                ));
            }
            let next = if p + 1 < pages {
                format!(
                    "<a href=\"http://{host}/vulnerabilities?page={}\">next</a>",
                    p + 1
                )
            } else {
                String::new()
            };
            web.publish(Page {
                url: format!("http://{host}/vulnerabilities?page={p}"),
                body: format!("<html><h1>Vulnerability database</h1><ul>{links}</ul>{next}</html>"),
                content_type: ContentType::Html,
            });
        }
        for i in 0..n {
            let (payload, family) = make_payload(&mut rng);
            planted.push(PlantedSample {
                payload: payload.clone(),
                family,
                portal: host.to_string(),
            });
            web.publish(Page {
                url: format!("http://{host}/bid/{i}"),
                body: format!(
                    "<html><h2>Advisory BID-{i}</h2><p>Proof of concept:</p>\
                     <pre class=\"sample\">{}</pre></html>",
                    escape_html(&payload)
                ),
                content_type: ContentType::Html,
            });
        }
    }

    // Portal 2: exploitdb.example — exploit pages with full URLs.
    {
        let host = "exploitdb.example";
        let n = counts[1];
        let page_size = 40;
        let pages = n.div_ceil(page_size).max(1);
        for p in 0..pages {
            let mut links = String::new();
            for i in (p * page_size)..((p + 1) * page_size).min(n) {
                links.push_str(&format!(
                    "<a href=\"http://{host}/exploits/{i}\">EDB-{i}</a>\n"
                ));
            }
            let next = if p + 1 < pages {
                format!("<a href=\"http://{host}/browse?page={}\">older</a>", p + 1)
            } else {
                String::new()
            };
            web.publish(Page {
                url: format!("http://{host}/browse?page={p}"),
                body: format!("<html>{links}{next}</html>"),
                content_type: ContentType::Html,
            });
        }
        for i in 0..n {
            let (payload, family) = make_payload(&mut rng);
            let vuln = &vulns[i % vulns.len()];
            planted.push(PlantedSample {
                payload: payload.clone(),
                family,
                portal: host.to_string(),
            });
            // Exploit-DB style: the sample appears as a complete URL;
            // the crawler must strip scheme/host/path per §II-A.
            web.publish(Page {
                url: format!("http://{host}/exploits/{i}"),
                body: format!(
                    "<html><h2>{}</h2><pre class=\"sample\">http://victim.example{}?{}</pre></html>",
                    vuln.application,
                    vuln.path,
                    escape_html(&payload)
                ),
                content_type: ContentType::Html,
            });
        }
    }

    // Portal 3: packetstorm.example — multiple payloads per file.
    {
        let host = "packetstorm.example";
        let n = counts[2];
        let per_file = 5;
        let files = n.div_ceil(per_file).max(1);
        let mut index_links = String::new();
        let mut planted_so_far = 0;
        for f in 0..files {
            index_links.push_str(&format!(
                "<a href=\"http://{host}/files/{f}\">dump-{f}.txt</a>\n"
            ));
            let mut body = String::from("<html><pre class=\"sample\">");
            for _ in 0..per_file.min(n - planted_so_far) {
                let (payload, family) = make_payload(&mut rng);
                planted.push(PlantedSample {
                    payload: payload.clone(),
                    family,
                    portal: host.to_string(),
                });
                body.push_str(&escape_html(&payload));
                body.push('\n');
                planted_so_far += 1;
            }
            body.push_str("</pre></html>");
            web.publish(Page {
                url: format!("http://{host}/files/{f}"),
                body,
                content_type: ContentType::Html,
            });
        }
        web.publish(Page {
            url: format!("http://{host}/recent"),
            body: format!("<html>{index_links}</html>"),
            content_type: ContentType::Html,
        });
    }

    // Portal 4: vulndb.example — plain-text search API with
    // pagination (one payload per line, NEXT header).
    {
        let host = "vulndb.example";
        let n = counts[3];
        let page_size = 50;
        let pages = n.div_ceil(page_size).max(1);
        for p in 0..pages {
            let next = if p + 1 < pages {
                format!("NEXT: http://{host}/api/search?q=sqli&page={}", p + 1)
            } else {
                "NEXT: none".to_string()
            };
            let mut body = next;
            body.push('\n');
            for _ in (p * page_size)..((p + 1) * page_size).min(n) {
                let (payload, family) = make_payload(&mut rng);
                planted.push(PlantedSample {
                    payload: payload.clone(),
                    family,
                    portal: host.to_string(),
                });
                body.push_str(&payload);
                body.push('\n');
            }
            web.publish(Page {
                url: format!("http://{host}/api/search?q=sqli&page={p}"),
                body,
                content_type: ContentType::Text,
            });
        }
    }

    let seeds = vec![
        "http://bugtraq.example/vulnerabilities?page=0".to_string(),
        "http://exploitdb.example/browse?page=0".to_string(),
        "http://packetstorm.example/recent".to_string(),
        "http://vulndb.example/api/search?q=sqli&page=0".to_string(),
    ];
    PortalCorpus {
        web,
        seeds,
        planted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plants_requested_sample_count() {
        let c = build_portals(&PortalConfig {
            samples: 200,
            ..PortalConfig::default()
        });
        assert_eq!(c.planted.len(), 200);
        assert_eq!(c.seeds.len(), 4);
        assert!(c.web.len() > 50);
    }

    #[test]
    fn all_four_portals_publish() {
        let c = build_portals(&PortalConfig {
            samples: 120,
            ..PortalConfig::default()
        });
        for host in [
            "bugtraq.example",
            "exploitdb.example",
            "packetstorm.example",
            "vulndb.example",
        ] {
            assert!(
                c.planted.iter().any(|p| p.portal == host),
                "portal {host} has no samples"
            );
        }
    }

    #[test]
    fn family_mix_covers_everything_at_scale() {
        let c = build_portals(&PortalConfig {
            samples: 2000,
            ..PortalConfig::default()
        });
        for fam in AttackFamily::ALL {
            assert!(
                c.planted.iter().any(|p| p.family == fam),
                "family {fam:?} not represented"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build_portals(&PortalConfig {
            samples: 60,
            ..Default::default()
        });
        let b = build_portals(&PortalConfig {
            samples: 60,
            ..Default::default()
        });
        let pa: Vec<_> = a.planted.iter().map(|p| p.payload.clone()).collect();
        let pb: Vec<_> = b.planted.iter().map(|p| p.payload.clone()).collect();
        assert_eq!(pa, pb);
    }
}
