//! Feature provenance (Table II of the paper).

/// The three feature sources of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureSource {
    /// MySQL reserved words.
    ReservedWords,
    /// Deconstructed NIDS/WAF signatures (Snort, Bro, ModSecurity).
    NidsSignatures,
    /// SQLi reference documents / cheat sheets.
    ReferenceDocuments,
}

impl FeatureSource {
    /// All sources in Table II order.
    pub const ALL: [FeatureSource; 3] = [
        FeatureSource::ReservedWords,
        FeatureSource::NidsSignatures,
        FeatureSource::ReferenceDocuments,
    ];

    /// Table II's "feature source" column.
    pub fn label(&self) -> &'static str {
        match self {
            FeatureSource::ReservedWords => "MySQL Reserved Words",
            FeatureSource::NidsSignatures => "NIDS/WAF Signatures",
            FeatureSource::ReferenceDocuments => "SQLi Reference Documents",
        }
    }

    /// Table II's "description" column.
    pub fn description(&self) -> &'static str {
        match self {
            FeatureSource::ReservedWords => {
                "Words are reserved in MySQL and require special treatment \
                 for use as identifiers or functions."
            }
            FeatureSource::NidsSignatures => {
                "SQLi signatures from popular open-source detection systems \
                 are deconstructed into their components."
            }
            FeatureSource::ReferenceDocuments => {
                "Common strings found in SQLi attacks, shared by subject \
                 matter experts."
            }
        }
    }

    /// Table II's "examples" column.
    pub fn examples(&self) -> &'static [&'static str] {
        match self {
            FeatureSource::ReservedWords => &["create", "insert", "delete"],
            FeatureSource::NidsSignatures => &[r"in\s*?\(+\s*?select", r"\)?;", r"[^a-zA-Z&]+="],
            FeatureSource::ReferenceDocuments => &["' ORDER BY [0-9]-- -", r"/\*/", "\\\""],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_are_complete() {
        for s in FeatureSource::ALL {
            assert!(!s.label().is_empty());
            assert!(!s.description().is_empty());
            assert!(!s.examples().is_empty());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            FeatureSource::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 3);
    }
}
