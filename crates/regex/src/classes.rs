//! Byte-range sets backing character classes.
//!
//! A [`ClassSet`] is a sorted list of disjoint, non-adjacent inclusive
//! byte ranges. All set operations keep that invariant, which lets a
//! determinizer test membership with a short binary search.

/// An inclusive range of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ByteRange {
    /// Lowest byte in the range.
    pub lo: u8,
    /// Highest byte in the range (inclusive).
    pub hi: u8,
}

impl ByteRange {
    /// Creates a range, swapping the bounds if given in reverse.
    pub fn new(lo: u8, hi: u8) -> ByteRange {
        if lo <= hi {
            ByteRange { lo, hi }
        } else {
            ByteRange { lo: hi, hi: lo }
        }
    }
}

/// A set of bytes represented as sorted disjoint ranges.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClassSet {
    ranges: Vec<ByteRange>,
}

impl ClassSet {
    /// The empty set.
    pub fn empty() -> ClassSet {
        ClassSet { ranges: Vec::new() }
    }

    /// A set containing a single byte.
    pub fn single(b: u8) -> ClassSet {
        let mut s = ClassSet::empty();
        s.push_range(b, b);
        s
    }

    /// Builds a set from arbitrary (possibly overlapping) ranges.
    pub fn from_ranges<I: IntoIterator<Item = (u8, u8)>>(iter: I) -> ClassSet {
        let mut s = ClassSet::empty();
        for (lo, hi) in iter {
            s.push_range(lo, hi);
        }
        s
    }

    /// Inserts `[lo, hi]`, merging with existing ranges as needed.
    pub fn push_range(&mut self, lo: u8, hi: u8) {
        let r = ByteRange::new(lo, hi);
        self.ranges.push(r);
        self.normalize();
    }

    /// Adds every byte of `other` to `self`.
    pub fn union(&mut self, other: &ClassSet) {
        self.ranges.extend_from_slice(&other.ranges);
        self.normalize();
    }

    /// Replaces the set with its complement over `0..=255`.
    pub fn negate(&mut self) {
        let mut out = Vec::new();
        let mut next = 0u16; // u16 avoids overflow past 255
        for r in &self.ranges {
            if (r.lo as u16) > next {
                out.push(ByteRange::new(next as u8, r.lo - 1));
            }
            next = r.hi as u16 + 1;
        }
        if next <= 255 {
            out.push(ByteRange::new(next as u8, 255));
        }
        self.ranges = out;
    }

    /// Adds the opposite-case counterpart of every ASCII letter in the
    /// set, implementing ASCII case folding.
    pub fn case_fold(&mut self) {
        let mut extra = Vec::new();
        for r in &self.ranges {
            // Lowercase letters overlapping the range fold to uppercase.
            let lo = r.lo.max(b'a');
            let hi = r.hi.min(b'z');
            if lo <= hi {
                extra.push(ByteRange::new(lo - 32, hi - 32));
            }
            // Uppercase letters overlapping the range fold to lowercase.
            let lo = r.lo.max(b'A');
            let hi = r.hi.min(b'Z');
            if lo <= hi {
                extra.push(ByteRange::new(lo + 32, hi + 32));
            }
        }
        self.ranges.extend(extra);
        self.normalize();
    }

    /// Membership test.
    pub fn contains(&self, b: u8) -> bool {
        self.ranges
            .binary_search_by(|r| {
                if b < r.lo {
                    std::cmp::Ordering::Greater
                } else if b > r.hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// True when the set contains no bytes.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// If the set holds exactly one byte, returns it.
    pub fn as_single_byte(&self) -> Option<u8> {
        if self.ranges.len() == 1 && self.ranges[0].lo == self.ranges[0].hi {
            Some(self.ranges[0].lo)
        } else {
            None
        }
    }

    fn normalize(&mut self) {
        if self.ranges.is_empty() {
            return;
        }
        self.ranges.sort();
        let mut out: Vec<ByteRange> = Vec::with_capacity(self.ranges.len());
        for r in self.ranges.drain(..) {
            match out.last_mut() {
                // Merge overlapping or adjacent ranges.
                Some(last) if r.lo as u16 <= last.hi as u16 + 1 => {
                    last.hi = last.hi.max(r.hi);
                }
                _ => out.push(r),
            }
        }
        self.ranges = out;
    }
}

/// `\d`
pub fn perl_digit() -> ClassSet {
    ClassSet::from_ranges([(b'0', b'9')])
}

/// `\s` — ASCII whitespace: space, tab, newline, carriage return,
/// vertical tab, form feed.
pub fn perl_space() -> ClassSet {
    ClassSet::from_ranges([(b'\t', b'\r'), (b' ', b' ')])
}

/// `\w` — word bytes: letters, digits, underscore.
pub fn perl_word() -> ClassSet {
    ClassSet::from_ranges([(b'0', b'9'), (b'A', b'Z'), (b'_', b'_'), (b'a', b'z')])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of distinct bytes in the set.
    fn len(set: &ClassSet) -> usize {
        (0..=255u8).filter(|&b| set.contains(b)).count()
    }

    #[test]
    fn merges_overlapping_ranges() {
        let s = ClassSet::from_ranges([(b'a', b'f'), (b'd', b'k'), (b'l', b'm')]);
        assert_eq!(s.ranges.len(), 1);
        assert!(s.contains(b'a') && s.contains(b'm'));
        assert!(!s.contains(b'n'));
    }

    #[test]
    fn negation_roundtrip() {
        let mut s = perl_digit();
        s.negate();
        assert!(!s.contains(b'5'));
        assert!(s.contains(b'a'));
        assert!(s.contains(0));
        assert!(s.contains(255));
        s.negate();
        assert_eq!(s, perl_digit());
    }

    #[test]
    fn negate_empty_is_full() {
        let mut s = ClassSet::empty();
        s.negate();
        assert_eq!(len(&s), 256);
    }

    #[test]
    fn case_folding_adds_counterparts() {
        let mut s = ClassSet::from_ranges([(b'a', b'c')]);
        s.case_fold();
        assert!(s.contains(b'A') && s.contains(b'C') && s.contains(b'b'));
        assert!(!s.contains(b'D'));
    }

    #[test]
    fn case_folding_partial_overlap() {
        // Range [Y-b] covers some upper and some lower case letters.
        let mut s = ClassSet::from_ranges([(b'Y', b'b')]);
        s.case_fold();
        for b in [b'y', b'z', b'Y', b'Z', b'a', b'b', b'A', b'B'] {
            assert!(s.contains(b), "missing {}", b as char);
        }
    }

    #[test]
    fn single_byte_detection() {
        assert_eq!(ClassSet::single(b'x').as_single_byte(), Some(b'x'));
        assert_eq!(perl_digit().as_single_byte(), None);
    }

    #[test]
    fn len_counts_bytes() {
        assert_eq!(len(&perl_digit()), 10);
        assert_eq!(len(&perl_word()), 63);
    }
}
