//! The retrain trigger: a debounced threshold over the drift PSI.
//!
//! PSI crossing 0.25 for one poll can be sampling noise on a short
//! window; a retrain costs real compute and a promotion churns the
//! serving path, so the trigger fires only after the score holds the
//! band for `debounce` consecutive polls. After firing (or after a
//! promotion/rollback) the trigger re-arms through a cooldown so the
//! loop cannot spin on a score that has not had time to move.

/// Debounced drift trigger; see the module docs.
#[derive(Debug, Clone)]
pub struct RetrainTrigger {
    threshold: f64,
    debounce: u32,
    consecutive: u32,
    cooldown_left: u32,
}

impl RetrainTrigger {
    /// A trigger firing after `debounce` consecutive polls at or
    /// above `threshold` (debounce is clamped to at least 1).
    pub fn new(threshold: f64, debounce: u32) -> RetrainTrigger {
        RetrainTrigger {
            threshold,
            debounce: debounce.max(1),
            consecutive: 0,
            cooldown_left: 0,
        }
    }

    /// Feeds one drift observation (`None` = no score available yet,
    /// which resets the streak). Returns `true` exactly when the
    /// debounce window completes — the moment the loop kicks off a
    /// retrain.
    pub fn poll(&mut self, psi: Option<f64>) -> bool {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return false;
        }
        match psi {
            Some(p) if p >= self.threshold => {
                self.consecutive += 1;
                if self.consecutive >= self.debounce {
                    self.consecutive = 0;
                    return true;
                }
                false
            }
            _ => {
                self.consecutive = 0;
                false
            }
        }
    }

    /// Ignore the next `polls` observations (called after a
    /// promotion or rollback, while the rebaselined monitors settle).
    pub fn cool_down(&mut self, polls: u32) {
        self.consecutive = 0;
        self.cooldown_left = polls;
    }

    /// The PSI band the trigger watches.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_only_after_a_sustained_crossing() {
        let mut t = RetrainTrigger::new(0.25, 3);
        assert!(!t.poll(Some(0.3)));
        assert!(!t.poll(Some(0.1))); // streak broken
        assert!(!t.poll(Some(0.3)));
        assert!(!t.poll(Some(0.3)));
        assert!(t.poll(Some(0.26))); // third consecutive
                                     // Streak resets after firing.
        assert!(!t.poll(Some(0.3)));
    }

    #[test]
    fn missing_scores_break_the_streak() {
        let mut t = RetrainTrigger::new(0.25, 2);
        assert!(!t.poll(Some(0.5)));
        assert!(!t.poll(None));
        assert!(!t.poll(Some(0.5)));
        assert!(t.poll(Some(0.5)));
    }

    #[test]
    fn cooldown_swallows_polls() {
        let mut t = RetrainTrigger::new(0.25, 1);
        t.cool_down(2);
        assert!(!t.poll(Some(0.9)));
        assert!(!t.poll(Some(0.9)));
        assert!(t.poll(Some(0.9)));
    }
}
