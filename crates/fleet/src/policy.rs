//! Per-job recovery policies and the sliding-window strike tracker.

use std::collections::{BTreeMap, VecDeque};

use c4_simcore::{SimDuration, SimTime};

/// How a job resumes after C4D localizes a faulty node (the Chameleon-style
/// per-job adaptation axis: different jobs tolerate faults differently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Swap the victim for a backup node (identical layout) and restart
    /// from the last checkpoint — the paper's C4a default.
    CheckpointRestart,
    /// Prefer running on, absorbing slow components at reduced goodput;
    /// only a *dead* node (hang) forces a node swap, and persistent
    /// slowness never escalates to isolation.
    DegradedContinue,
    /// Re-place the whole job on fresh nodes when the free pool allows it
    /// (jobs whose layout is cheap to move), falling back to a single-node
    /// swap otherwise.
    Replace,
}

/// Sliding-window strike counter for repeat offenders: fabric link flaps
/// and repeated slow verdicts.
///
/// Each key (a link or job identifier chosen by the caller) accumulates
/// timestamped strikes; [`FlapTracker::record`] returns `true` when the key
/// has reached the configured strike count within the window — the signal
/// to escalate (keep the link down, isolate the slow node).
#[derive(Debug, Clone)]
pub struct FlapTracker {
    window: SimDuration,
    strikes: usize,
    history: BTreeMap<u64, VecDeque<SimTime>>,
}

impl FlapTracker {
    /// Creates a tracker escalating after `strikes` strikes within `window`.
    pub fn new(window: SimDuration, strikes: usize) -> Self {
        FlapTracker {
            window,
            strikes: strikes.max(1),
            history: BTreeMap::new(),
        }
    }

    /// Records a strike against `key` at `now`; returns `true` when the
    /// key's strike count within the window (including this one) has
    /// reached the escalation threshold. Escalating clears the key's
    /// history so a later recurrence starts a fresh count.
    pub fn record(&mut self, key: u64, now: SimTime) -> bool {
        let entry = self.history.entry(key).or_default();
        entry.push_back(now);
        let cutoff = now
            .saturating_since(SimTime::ZERO)
            .saturating_sub(self.window);
        while let Some(&front) = entry.front() {
            if front.saturating_since(SimTime::ZERO) < cutoff {
                entry.pop_front();
            } else {
                break;
            }
        }
        if entry.len() >= self.strikes {
            self.history.remove(&key);
            true
        } else {
            false
        }
    }

    /// Forgets a key (e.g. the slow job was just recovered).
    pub fn clear_key(&mut self, key: u64) {
        self.history.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracker's in-window strike count for `key`.
    fn strikes(t: &FlapTracker, key: u64) -> usize {
        t.history.get(&key).map_or(0, VecDeque::len)
    }

    #[test]
    fn escalates_after_n_strikes_in_window() {
        let mut t = FlapTracker::new(SimDuration::from_secs(100), 3);
        let at = |s| SimTime::ZERO + SimDuration::from_secs(s);
        assert!(!t.record(7, at(0)));
        assert!(!t.record(7, at(10)));
        assert_eq!(strikes(&t, 7), 2);
        assert!(t.record(7, at(20)), "third strike escalates");
        assert_eq!(strikes(&t, 7), 0, "escalation clears history");
    }

    #[test]
    fn old_strikes_age_out() {
        let mut t = FlapTracker::new(SimDuration::from_secs(50), 3);
        let at = |s| SimTime::ZERO + SimDuration::from_secs(s);
        assert!(!t.record(1, at(0)));
        assert!(!t.record(1, at(10)));
        // 200s later the first two strikes left the window.
        assert!(!t.record(1, at(200)));
        assert_eq!(strikes(&t, 1), 1);
    }

    #[test]
    fn keys_are_independent() {
        let mut t = FlapTracker::new(SimDuration::from_secs(100), 2);
        let at = |s| SimTime::ZERO + SimDuration::from_secs(s);
        assert!(!t.record(1, at(0)));
        assert!(!t.record(2, at(1)));
        assert!(t.record(1, at(2)));
        t.clear_key(2);
        assert_eq!(strikes(&t, 2), 0);
    }
}
