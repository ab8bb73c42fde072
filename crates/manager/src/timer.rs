//! Lease timers over the manager's logical clock.
//!
//! Both managers schedule one timer per leased grant in an ordered map keyed
//! by `(deadline, schedule order)`: scheduling costs O(log n), and
//! `advance_time` splits off exactly the due prefix — never a walk over the
//! outstanding leases.
//!
//! The timers are driven explicitly (`advance`), which is what makes the
//! runtime's logical clock deterministic: tests advance logical time and
//! observe exactly the expirations that became due, in deadline order.  No
//! real clock is ever read.
//!
//! Both managers file reservation ids.  A timer is never cancelled: when
//! it fires, the manager looks the id up in its reservation index, and a
//! reservation released since its grant is simply no longer there.

use std::collections::BTreeMap;

/// Payloads that fire at logical-time deadlines, in deadline order.
#[derive(Debug)]
pub struct Timers<T> {
    /// Keyed by deadline, then schedule order.
    due: BTreeMap<(u64, u64), T>,
    now: u64,
    scheduled: u64,
}

impl<T> Timers<T> {
    /// No timers, at logical time `now`.
    pub fn new(now: u64) -> Timers<T> {
        Timers { due: BTreeMap::new(), now, scheduled: 0 }
    }

    /// Number of scheduled, not yet fired timers.
    pub fn pending(&self) -> usize {
        self.due.len()
    }

    /// Schedules `payload` to fire when the clock advances to `deadline`
    /// (a deadline at or before the current time fires on the next advance).
    pub fn schedule(&mut self, deadline: u64, payload: T) {
        self.due.insert((deadline, self.scheduled), payload);
        self.scheduled += 1;
    }

    /// Advances the clock to `to`, returning every payload whose deadline
    /// passed, ordered by (deadline, schedule order).  A clock that does
    /// not move fires nothing.
    pub fn advance(&mut self, to: u64) -> Vec<T> {
        if to <= self.now {
            return Vec::new();
        }
        self.now = to;
        let later = match to.checked_add(1) {
            Some(next) => self.due.split_off(&(next, 0)),
            None => BTreeMap::new(),
        };
        std::mem::replace(&mut self.due, later).into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deadline distance far beyond any lease the tests take.
    const FAR: u64 = 1 << 24;

    #[test]
    fn fires_in_deadline_order() {
        let mut timers = Timers::new(0);
        timers.schedule(5, "b");
        timers.schedule(3, "a");
        timers.schedule(9, "c");
        assert_eq!(timers.pending(), 3);
        assert_eq!(timers.advance(4), vec!["a"]);
        assert_eq!(timers.advance(9), vec!["b", "c"]);
        assert_eq!(timers.pending(), 0);
        assert!(timers.advance(100).is_empty());
    }

    #[test]
    fn coarse_levels_cascade_into_fine_ones() {
        // A deadline must not fire one tick early, however far out it was
        // scheduled.
        let mut timers = Timers::new(0);
        timers.schedule(100, "far");
        assert!(timers.advance(99).is_empty(), "not due yet");
        assert_eq!(timers.advance(100), vec!["far"]);
        timers.schedule(5_000, "l2");
        timers.schedule(300_000, "l3");
        assert!(timers.advance(4_999).is_empty());
        assert_eq!(timers.advance(5_000), vec!["l2"]);
        assert_eq!(timers.advance(300_000), vec!["l3"]);
    }

    #[test]
    fn overflow_beyond_the_horizon_is_refiled() {
        let mut timers = Timers::new(0);
        let far = FAR * 2 + 17;
        timers.schedule(far, "beyond");
        assert!(timers.advance(FAR).is_empty());
        assert_eq!(timers.pending(), 1);
        assert_eq!(timers.advance(far), vec!["beyond"]);
    }

    #[test]
    fn overflow_map_holds_many_deadlines_beyond_the_horizon() {
        // Far deadlines neither fire early nor lose their order, including
        // entries sharing one deadline (schedule order breaks the tie).
        let mut timers = Timers::new(0);
        timers.schedule(FAR + 10, "b1");
        timers.schedule(FAR + 10, "b2");
        timers.schedule(FAR * 3, "far");
        timers.schedule(FAR + 1, "a");
        assert_eq!(timers.pending(), 4);
        assert!(timers.advance(FAR).is_empty(), "nothing due yet");
        assert_eq!(timers.pending(), 4, "kept, not dropped");
        assert_eq!(timers.advance(FAR + 10), vec!["a", "b1", "b2"]);
        assert_eq!(timers.advance(FAR * 4), vec!["far"]);
        assert_eq!(timers.pending(), 0);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_advance() {
        let mut timers = Timers::new(50);
        timers.schedule(10, "overdue");
        assert!(timers.advance(50).is_empty(), "the clock did not move");
        assert_eq!(timers.advance(51), vec!["overdue"]);
    }

    #[test]
    fn large_jumps_do_not_lose_timers() {
        let mut timers = Timers::new(0);
        let deadlines: Vec<u64> = vec![1, 63, 64, 65, 4095, 4096, 4097, 262143, 262144, 262145];
        for &d in &deadlines {
            timers.schedule(d, d);
        }
        let fired = timers.advance(500_000);
        assert_eq!(fired, {
            let mut sorted = deadlines.clone();
            sorted.sort_unstable();
            sorted
        });
        // The last tick of the clock is a deadline like any other.
        timers.schedule(u64::MAX, 0);
        assert_eq!(timers.advance(u64::MAX), vec![0]);
    }
}
