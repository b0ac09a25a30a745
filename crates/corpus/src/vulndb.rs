//! The vulnerability catalog.
//!
//! Table I of the paper lists SQLi vulnerabilities published in July
//! 2012 (NVD) which the authors used as a coverage check: for every
//! vulnerability, their crawled dataset contained at least one attack
//! sample that could target it. This module carries the paper's four
//! published examples verbatim plus a synthetic extension of the
//! same shape, and is the target list the SQLmap-style scanner runs
//! against.

/// Risk rating of an advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Risk {
    /// High severity.
    High,
    /// Medium severity.
    Medium,
}

/// One SQL-injection vulnerability advisory.
#[derive(Debug, Clone)]
pub struct Vulnerability {
    /// Affected application and component.
    pub application: String,
    /// CVE identifier (synthetic entries use the reserved
    /// `CVE-2012-9xxx` range).
    pub cve_id: String,
    /// The vulnerable URL path on the target application.
    pub path: String,
    /// The injectable parameter name.
    pub parameter: String,
    /// Severity.
    pub risk: Risk,
}

/// The four examples of Table I, verbatim from the paper.
pub fn table1_examples() -> Vec<Vulnerability> {
    vec![
        Vulnerability {
            application: "Joomla 1.5.x RSGallery 2.3.20 component".into(),
            cve_id: "CVE-2012-3554".into(),
            path: "/index.php".into(),
            parameter: "catid".into(),
            risk: Risk::High,
        },
        Vulnerability {
            application: "Drupal 6.x-4.2 Addressbook module".into(),
            cve_id: "CVE-2012-2306".into(),
            path: "/addressbook/view".into(),
            parameter: "contact_id".into(),
            risk: Risk::High,
        },
        Vulnerability {
            application: "Moodle 2.0.x mod/feedback/complete.php 2.0.10".into(),
            cve_id: "CVE-2012-3395".into(),
            path: "/mod/feedback/complete.php".into(),
            parameter: "id".into(),
            risk: Risk::Medium,
        },
        Vulnerability {
            application: "RTG 0.7.4 and RTG2 0.9.2 95/view/rtg.php".into(),
            cve_id: "CVE-2012-3881".into(),
            path: "/95/view/rtg.php".into(),
            parameter: "iid".into(),
            risk: Risk::Medium,
        },
    ]
}

/// The full catalog: Table I's examples plus synthetic advisories up
/// to roughly the "approximately 30" high/medium MySQL SQLi
/// vulnerabilities the paper inspected for July 2012.
pub fn catalog() -> Vec<Vulnerability> {
    let mut v = table1_examples();
    let apps: &[(&str, &str, &str)] = &[
        (
            "WordPress 3.3 token-manager plugin",
            "/wp-content/plugins/token-manager/view.php",
            "tid",
        ),
        ("phpBB 3.0 gallery mod", "/gallery/image.php", "image_id"),
        (
            "osCommerce 2.3 product catalog",
            "/product_info.php",
            "products_id",
        ),
        ("vBulletin 4.1 member list", "/memberlist.php", "userid"),
        ("MyBB 1.6 private messages", "/private.php", "pmid"),
        (
            "PrestaShop 1.4 search module",
            "/modules/search/search.php",
            "q",
        ),
        ("Piwigo 2.4 picture view", "/picture.php", "image_id"),
        ("e107 1.0 news extend", "/news.php", "extend"),
        ("Zen Cart 1.5 index", "/index.php", "cPath"),
        ("OpenCart 1.5 product page", "/index.php", "product_id"),
        ("SMF 2.0 topic view", "/index.php", "topic"),
        (
            "XOOPS 2.5 article module",
            "/modules/article/view.php",
            "article_id",
        ),
        ("Dolphin 7.0 profile view", "/profile.php", "ID"),
        ("ClipBucket 2.6 video view", "/watch_video.php", "v"),
        ("Coppermine 1.5 album display", "/displayimage.php", "album"),
        ("TinyWebGallery 1.8 image view", "/image.php", "img"),
        ("LimeSurvey 1.92 statistics", "/admin/statistics.php", "sid"),
        ("GLPI 0.83 ticket tracking", "/front/ticket.form.php", "id"),
        ("Collabtive 0.7 project view", "/manageproject.php", "id"),
        ("WeBid 1.0 auction view", "/item.php", "id"),
        ("Pligg 1.2 story view", "/story.php", "id"),
        ("CMS Made Simple 1.10 news", "/index.php", "articleid"),
        ("Concrete5 5.5 page view", "/index.php", "cID"),
        (
            "ImpressCMS 1.3 content page",
            "/modules/content/index.php",
            "page",
        ),
        ("Jamroom 4.1 media player", "/play.php", "song_id"),
        ("qdPM 8.0 task view", "/index.php", "task_id"),
    ];
    for (i, (app, path, param)) in apps.iter().enumerate() {
        v.push(Vulnerability {
            application: (*app).into(),
            cve_id: format!("CVE-2012-9{:03}", i + 100),
            path: (*path).into(),
            parameter: (*param).into(),
            risk: if i % 3 == 0 { Risk::Medium } else { Risk::High },
        });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let t = table1_examples();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].cve_id, "CVE-2012-3554");
        assert_eq!(t[1].cve_id, "CVE-2012-2306");
        assert_eq!(t[2].cve_id, "CVE-2012-3395");
        assert_eq!(t[3].cve_id, "CVE-2012-3881");
    }

    #[test]
    fn catalog_is_approximately_thirty() {
        let c = catalog();
        assert!(
            (28..=34).contains(&c.len()),
            "catalog size {} out of the paper's ~30 band",
            c.len()
        );
    }

    #[test]
    fn cve_ids_unique() {
        let c = catalog();
        let mut ids: Vec<_> = c.iter().map(|v| v.cve_id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), c.len());
    }

    #[test]
    fn every_entry_has_parameter_and_path() {
        for v in catalog() {
            assert!(v.path.starts_with('/'), "{}", v.path);
            assert!(!v.parameter.is_empty());
        }
    }
}
