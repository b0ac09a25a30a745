//! Verdict correctness: one reference verdict per pool request, taken
//! on the direct path, against which every other pass and path is
//! checked request by request.

use crate::pool::Pool;
use psigene::psigene_http::parse_request;
use psigene::psigene_rulesets::{Detection, DetectionEngine, Verdict};
use psigene::Psigene;

/// Operations attempted and failed so far. A failure is a parse error
/// on generated traffic, a request the gateway shed or lost, or a
/// verdict that differs from the reference.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// Hash of everything a verdict says: the flag, the matched signature
/// ids in order, and the score bit for bit. Never 0, which marks a
/// request that produced no verdict.
pub fn verdict_hash(d: &Detection) -> u64 {
    let mut h = fnv(FNV_OFFSET, u64::from(d.flagged));
    for &rule in &d.matched_rules {
        h = fnv(h, u64::from(rule));
    }
    fnv(h, d.score.to_bits()) | 1
}

/// The direct path's verdict on every pool request.
pub struct Reference {
    /// [`verdict_hash`] per request; 0 where parsing failed.
    pub hashes: Vec<u64>,
    pub flagged: Vec<bool>,
    /// All of `hashes` folded in pool order: two commits that print
    /// the same digest for a seed gave the same verdicts.
    pub digest: u64,
}

impl Reference {
    pub fn take(system: &Psigene, pool: &Pool, tally: &mut Tally) -> Reference {
        let mut reference = Reference {
            hashes: Vec::with_capacity(pool.len()),
            flagged: Vec::with_capacity(pool.len()),
            digest: FNV_OFFSET,
        };
        let mut failed = 0;
        for wire in &pool.wire {
            let (hash, flagged) = match parse_request(wire) {
                Ok(request) => {
                    let d = system.evaluate(&request);
                    (verdict_hash(&d), d.flagged)
                }
                Err(_) => {
                    failed += 1;
                    (0, false)
                }
            };
            reference.hashes.push(hash);
            reference.flagged.push(flagged);
            reference.digest = fnv(reference.digest, hash);
        }
        tally.add(pool.len() as u64, failed);
        reference
    }

    /// 1 if `detection` is not the reference verdict of request `i`.
    pub fn mismatch(&self, i: usize, detection: &Detection) -> u64 {
        u64::from(verdict_hash(detection) != self.hashes[i])
    }

    /// Like [`Reference::mismatch`] for a gateway verdict: a shed
    /// request is a failure too.
    pub fn mismatch_verdict(&self, i: usize, verdict: &Verdict) -> u64 {
        match verdict {
            Verdict::Evaluated(d) => self.mismatch(i, d),
            Verdict::Overloaded { .. } => 1,
        }
    }

    /// Detection quality against the generator's labels:
    /// `(accuracy, true-positive rate, false-positive rate)`. A rate
    /// over a class the pool does not contain is 0.
    pub fn quality(&self, pool: &Pool) -> (f64, f64, f64) {
        let mut agree = 0u64;
        let mut by_class = [[0u64; 2]; 2];
        for (&flagged, &attack) in self.flagged.iter().zip(&pool.attack) {
            agree += u64::from(flagged == attack);
            by_class[usize::from(attack)][usize::from(flagged)] += 1;
        }
        let rate = |class: [u64; 2]| class[1] as f64 / (class[0] + class[1]).max(1) as f64;
        (
            agree as f64 / pool.len() as f64,
            rate(by_class[1]),
            rate(by_class[0]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detection(flagged: bool, rules: &[u32], score: f64) -> Detection {
        Detection {
            flagged,
            matched_rules: rules.to_vec(),
            score,
        }
    }

    #[test]
    fn hash_covers_flag_rules_and_score_bits() {
        let base = verdict_hash(&detection(true, &[3, 5], 0.75));
        assert_eq!(base, verdict_hash(&detection(true, &[3, 5], 0.75)));
        assert_ne!(base, verdict_hash(&detection(false, &[3, 5], 0.75)));
        assert_ne!(base, verdict_hash(&detection(true, &[5, 3], 0.75)));
        assert_ne!(base, verdict_hash(&detection(true, &[3], 0.75)));
        assert_ne!(
            base,
            verdict_hash(&detection(
                true,
                &[3, 5],
                f64::from_bits(0.75f64.to_bits() + 1)
            ))
        );
        assert_ne!(verdict_hash(&Detection::default()), 0);
    }

    #[test]
    fn quality_counts_each_class_separately() {
        let pool = Pool {
            wire: vec![Vec::new(); 4],
            attack: vec![true, true, false, false],
        };
        let reference = Reference {
            hashes: vec![1; 4],
            flagged: vec![true, false, true, false],
            digest: 0,
        };
        assert_eq!(reference.quality(&pool), (0.5, 0.5, 0.5));
        let benign_only = Pool {
            wire: vec![Vec::new(); 2],
            attack: vec![false, false],
        };
        let reference = Reference {
            hashes: vec![1; 2],
            flagged: vec![false, false],
            digest: 0,
        };
        assert_eq!(reference.quality(&benign_only), (1.0, 0.0, 0.0));
    }

    #[test]
    fn shed_request_is_a_mismatch() {
        let reference = Reference {
            hashes: vec![verdict_hash(&Detection::default())],
            flagged: vec![false],
            digest: 0,
        };
        assert_eq!(reference.mismatch(0, &Detection::default()), 0);
        let shed = Verdict::Overloaded { fail_open: true };
        assert_eq!(reference.mismatch_verdict(0, &shed), 1);
        let served = Verdict::Evaluated(Detection::default());
        assert_eq!(reference.mismatch_verdict(0, &served), 0);
    }
}
