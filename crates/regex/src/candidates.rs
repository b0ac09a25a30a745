//! The pattern-id bitset a fused scan reports into.

/// A growable bitset over pattern ids, reused across scans.
///
/// `crate::FusedSet::scan_into` inserts the id of every matching
/// pattern into one caller-owned instance and preserves the bits
/// already set, so a caller can pre-seed ids the automaton does not
/// carry (the feature layer seeds the patterns the fuser refused) and
/// walk both populations in one ascending pass.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CandidateSet {
    bits: Vec<u64>,
    universe: usize,
}

impl Clone for CandidateSet {
    fn clone(&self) -> CandidateSet {
        CandidateSet {
            bits: self.bits.clone(),
            universe: self.universe,
        }
    }

    // Hot-path use is `scratch.clone_from(&seed)` once per request:
    // delegate to Vec::clone_from so the scratch allocation is reused.
    fn clone_from(&mut self, source: &CandidateSet) {
        self.bits.clone_from(&source.bits);
        self.universe = source.universe;
    }
}

impl CandidateSet {
    /// An empty set over `universe` pattern ids.
    pub fn new(universe: usize) -> CandidateSet {
        CandidateSet {
            bits: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// Number of ids the set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Clears every bit (and re-sizes to `universe`).
    pub fn reset(&mut self, universe: usize) {
        self.universe = universe;
        self.bits.clear();
        self.bits.resize(universe.div_ceil(64), 0);
    }

    /// Widens the set to at least `universe` ids, keeping its bits;
    /// allocates only when the set was never that wide.
    pub(crate) fn cover(&mut self, universe: usize) {
        if self.universe < universe {
            self.universe = universe;
            self.bits.resize(universe.div_ceil(64), 0);
        }
    }

    /// Inserts `id`; returns true when it was not already present.
    pub fn insert(&mut self, id: usize) -> bool {
        let (w, b) = (id / 64, 1u64 << (id % 64));
        let new = self.bits[w] & b == 0;
        self.bits[w] |= b;
        new
    }

    /// True when `id` is present.
    pub fn contains(&self, id: usize) -> bool {
        self.bits
            .get(id / 64)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// Number of ids present.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the present ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors(Some(w), |&rem| Some(rem & rem.wrapping_sub(1)))
                .take_while(|&rem| rem != 0)
                .map(move |rem| wi * 64 + rem.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_set_basics() {
        let mut s = CandidateSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
        s.reset(10);
        assert_eq!(s.count(), 0);
        assert_eq!(s.universe(), 10);
    }
}
