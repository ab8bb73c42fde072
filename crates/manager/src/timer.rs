//! A hierarchical timer wheel over the manager's logical clock.
//!
//! Lease expiry used to be a full scan of the reservation index on every
//! `advance_time` call.  The runtime instead schedules one timer per leased
//! grant in this wheel: four levels of 64 slots each, where level `l` covers
//! `64^l` logical-time units per slot, give O(1) schedule/cancel and an
//! advance cost proportional to the slots actually crossed plus the timers
//! actually due — never to the number of outstanding leases.  Deadlines
//! beyond the wheel's horizon (`64^4` ticks) park in an ordered overflow map
//! and are refiled when the horizon reaches them.
//!
//! The wheel is driven explicitly (`advance`), which is what makes the
//! runtime's logical clock deterministic: tests advance logical time and
//! observe exactly the expirations that became due, in deadline order.  The
//! wheel never reads a real clock.
//!
//! The payload is opaque to the wheel.  The runtime files one kind of
//! entry: per-lease expiries, whose release tasks are enqueued to the
//! owning shards' queues and served by whoever serves those shards.

use std::collections::BTreeMap;

/// Slots per level.
const SLOTS: u64 = 64;
/// Number of hierarchical levels.
const LEVELS: usize = 4;
/// First deadline distance that no level can hold (the overflow horizon).
const HORIZON: u64 = SLOTS * SLOTS * SLOTS * SLOTS;

/// Identifier of a scheduled timer (for cancellation).
pub type TimerId = u64;

#[derive(Clone, Debug)]
struct TimerEntry<T> {
    id: TimerId,
    deadline: u64,
    payload: T,
}

/// A hierarchical timer wheel firing payloads at logical-time deadlines.
#[derive(Clone, Debug)]
pub struct TimerWheel<T> {
    /// `levels[l][s]` holds entries whose deadline falls into slot `s` of
    /// level `l` relative to the wheel's current time.
    levels: Vec<Vec<Vec<TimerEntry<T>>>>,
    /// Deadlines at or beyond `now + HORIZON`.
    overflow: BTreeMap<u64, Vec<TimerEntry<T>>>,
    now: u64,
    next_id: TimerId,
    pending: usize,
}

impl<T> TimerWheel<T> {
    /// An empty wheel starting at logical time `now`.
    pub fn new(now: u64) -> TimerWheel<T> {
        TimerWheel {
            levels: (0..LEVELS).map(|_| (0..SLOTS).map(|_| Vec::new()).collect()).collect(),
            overflow: BTreeMap::new(),
            now,
            next_id: 1,
            pending: 0,
        }
    }

    /// The wheel's current logical time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of scheduled, not yet fired or cancelled timers.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Schedules `payload` to fire when the wheel advances to `deadline`
    /// (a deadline at or before the current time fires on the next advance).
    pub fn schedule(&mut self, deadline: u64, payload: T) -> TimerId {
        let id = self.next_id;
        self.next_id += 1;
        self.pending += 1;
        self.file(TimerEntry { id, deadline, payload });
        id
    }

    /// Cancels a scheduled timer.  Returns the payload if the timer was
    /// still pending.  Cost: a scan of the one slot the timer lives in.
    pub fn cancel(&mut self, id: TimerId) -> Option<T> {
        for level in self.levels.iter_mut() {
            for slot in level.iter_mut() {
                if let Some(at) = slot.iter().position(|e| e.id == id) {
                    self.pending -= 1;
                    return Some(slot.swap_remove(at).payload);
                }
            }
        }
        let mut hit = None;
        for (deadline, entries) in self.overflow.iter_mut() {
            if let Some(at) = entries.iter().position(|e| e.id == id) {
                let entry = entries.swap_remove(at);
                if entries.is_empty() {
                    hit = Some((*deadline, entry));
                } else {
                    self.pending -= 1;
                    return Some(entry.payload);
                }
                break;
            }
        }
        if let Some((deadline, entry)) = hit {
            self.overflow.remove(&deadline);
            self.pending -= 1;
            return Some(entry.payload);
        }
        None
    }

    /// Files an entry into the coarsest level whose slot span contains its
    /// deadline distance, or into the overflow map beyond the horizon.
    fn file(&mut self, entry: TimerEntry<T>) {
        // Overdue deadlines are filed as if due at the next tick, so the
        // next advance is guaranteed to cross their slot.
        let effective = entry.deadline.max(self.now + 1);
        let distance = effective - self.now;
        if distance >= HORIZON {
            self.overflow.entry(entry.deadline).or_default().push(entry);
            return;
        }
        let mut span = 1u64;
        for level in 0..LEVELS {
            if distance < span * SLOTS {
                let slot = ((effective / span) % SLOTS) as usize;
                self.levels[level][slot].push(entry);
                return;
            }
            span *= SLOTS;
        }
        unreachable!("distance below HORIZON fits some level");
    }

    /// Advances the wheel to logical time `to`, returning every payload whose
    /// deadline passed, ordered by (deadline, schedule order).  Entries in
    /// crossed slots whose deadline lies beyond `to` cascade back into finer
    /// slots; the cost is bounded by the slots crossed (at most 64 per
    /// level), not by the number of pending timers.
    pub fn advance(&mut self, to: u64) -> Vec<T> {
        if to <= self.now {
            return Vec::new();
        }
        let from = self.now;
        let mut harvested: Vec<TimerEntry<T>> = Vec::new();
        let mut span = 1u64;
        for level in 0..LEVELS {
            // Slots of this level whose time range intersects (from, to].
            let first = from / span;
            let last = to / span;
            let crossed = (last - first).min(SLOTS) + 1;
            for i in 0..crossed {
                let slot = ((first + i) % SLOTS) as usize;
                harvested.append(&mut self.levels[level][slot]);
            }
            span *= SLOTS;
        }
        self.now = to;
        // Overflow entries now inside the horizon come back to the wheel.
        let still_far = self.overflow.split_off(&(to.saturating_add(HORIZON)));
        let near = std::mem::replace(&mut self.overflow, still_far);
        harvested.extend(near.into_values().flatten());
        let mut due = Vec::new();
        for entry in harvested {
            if entry.deadline <= to {
                due.push(entry);
            } else {
                // Not due yet: refile relative to the new `now` (cascade).
                self.file(entry);
            }
        }
        due.sort_by_key(|e| (e.deadline, e.id));
        self.pending -= due.len();
        due.into_iter().map(|e| e.payload).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order() {
        let mut wheel = TimerWheel::new(0);
        wheel.schedule(5, "b");
        wheel.schedule(3, "a");
        wheel.schedule(9, "c");
        assert_eq!(wheel.pending(), 3);
        assert_eq!(wheel.advance(4), vec!["a"]);
        assert_eq!(wheel.advance(9), vec!["b", "c"]);
        assert_eq!(wheel.pending(), 0);
        assert!(wheel.advance(100).is_empty());
    }

    #[test]
    fn coarse_levels_cascade_into_fine_ones() {
        let mut wheel = TimerWheel::new(0);
        // Level-1 territory (distance in [64, 4096)): the deadline must not
        // fire when its coarse slot is crossed early.
        wheel.schedule(100, "far");
        assert!(wheel.advance(99).is_empty(), "cascades, does not fire");
        assert_eq!(wheel.advance(100), vec!["far"]);
        // Level-2 and level-3 distances.
        wheel.schedule(5_000, "l2");
        wheel.schedule(300_000, "l3");
        assert!(wheel.advance(4_999).is_empty());
        assert_eq!(wheel.advance(5_000), vec!["l2"]);
        assert_eq!(wheel.advance(300_000), vec!["l3"]);
    }

    #[test]
    fn overflow_beyond_the_horizon_is_refiled() {
        let mut wheel = TimerWheel::new(0);
        let far = HORIZON * 2 + 17;
        wheel.schedule(far, "beyond");
        assert!(wheel.advance(HORIZON).is_empty());
        assert_eq!(wheel.pending(), 1);
        assert_eq!(wheel.advance(far), vec!["beyond"]);
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut wheel = TimerWheel::new(0);
        let a = wheel.schedule(10, "a");
        let b = wheel.schedule(10_000, "b");
        let c = wheel.schedule(HORIZON + 5, "c");
        assert_eq!(wheel.cancel(a), Some("a"));
        assert_eq!(wheel.cancel(b), Some("b"));
        assert_eq!(wheel.cancel(c), Some("c"));
        assert_eq!(wheel.cancel(a), None, "already cancelled");
        assert_eq!(wheel.pending(), 0);
        assert!(wheel.advance(HORIZON * 2).is_empty());
    }

    #[test]
    fn overflow_map_holds_many_deadlines_beyond_the_horizon() {
        // Leases landing beyond the 4×64-slot horizon park in the ordered
        // overflow map; they must neither fire early nor lose their
        // deadline order, including entries sharing one deadline.
        let mut wheel = TimerWheel::new(0);
        wheel.schedule(HORIZON + 10, "b1");
        wheel.schedule(HORIZON + 10, "b2");
        wheel.schedule(HORIZON * 3, "far");
        wheel.schedule(HORIZON + 1, "a");
        assert_eq!(wheel.pending(), 4);
        assert!(wheel.advance(HORIZON).is_empty(), "nothing due inside the horizon");
        assert_eq!(wheel.pending(), 4, "refiled, not dropped");
        assert_eq!(wheel.advance(HORIZON + 10), vec!["a", "b1", "b2"]);
        assert_eq!(wheel.advance(HORIZON * 4), vec!["far"]);
        assert_eq!(wheel.pending(), 0);
    }

    #[test]
    fn cancel_from_the_overflow_map_keeps_same_deadline_siblings() {
        let mut wheel = TimerWheel::new(0);
        let a = wheel.schedule(HORIZON + 7, "a");
        let b = wheel.schedule(HORIZON + 7, "b");
        assert_eq!(wheel.cancel(a), Some("a"));
        assert_eq!(wheel.pending(), 1);
        // The sibling with the same overflow deadline still fires.
        assert_eq!(wheel.advance(HORIZON + 7), vec!["b"]);
        assert_eq!(wheel.cancel(b), None, "already fired");
    }

    #[test]
    fn overflow_entries_remain_cancellable_after_refiling_into_the_wheel() {
        let mut wheel = TimerWheel::new(0);
        let id = wheel.schedule(HORIZON + 100, "lease");
        // Advance far enough that the entry left the overflow map and was
        // refiled into a wheel level.
        assert!(wheel.advance(200).is_empty());
        assert_eq!(wheel.pending(), 1);
        assert_eq!(wheel.cancel(id), Some("lease"));
        assert!(wheel.advance(HORIZON * 2).is_empty());
        assert_eq!(wheel.pending(), 0);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_advance() {
        let mut wheel = TimerWheel::new(50);
        wheel.schedule(10, "overdue");
        assert_eq!(wheel.advance(51), vec!["overdue"]);
    }

    #[test]
    fn large_jumps_do_not_lose_timers() {
        let mut wheel = TimerWheel::new(0);
        let deadlines: Vec<u64> = vec![1, 63, 64, 65, 4095, 4096, 4097, 262143, 262144, 262145];
        for &d in &deadlines {
            wheel.schedule(d, d);
        }
        let fired = wheel.advance(500_000);
        assert_eq!(fired, {
            let mut sorted = deadlines.clone();
            sorted.sort_unstable();
            sorted
        });
    }
}
