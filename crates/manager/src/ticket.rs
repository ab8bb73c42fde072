//! Completion tickets — the oneshot handles of the session runtime.
//!
//! Every submission to a [`crate::runtime::ManagerRuntime`] returns a
//! [`Ticket`] immediately: born complete if the runtime decided the
//! operation on the submitting thread, otherwise fulfilled by the shard
//! worker that eventually processes the task, with the operation's
//! [`crate::runtime::Completion`].
//! Clients choose their own style per call:
//!
//! * [`Ticket::wait`] blocks until the result is in — the synchronous
//!   round-trip of the paper's coordination protocol;
//! * [`Ticket::poll`] checks without blocking — clients pipeline many
//!   submissions and harvest completions as they arrive;
//! * [`Ticket::then`] registers a callback run on completion (on the
//!   fulfilling worker thread) — the push style the subscription protocol
//!   uses for worklist updates.
//!
//! The implementation is a oneshot channel of its own — a mutex-guarded
//! slot plus a condvar, no async runtime — so tickets are `Send + Sync`,
//! cheap to clone, and never spin.

use crate::lock;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

type Callback<T> = Box<dyn FnOnce(T) + Send + 'static>;

struct Slot<T> {
    value: Option<T>,
    abandoned: bool,
    /// Number of threads parked on the condvar — fulfilment only signals
    /// when somebody is actually waiting (pipelined harvesting usually finds
    /// the value already present, so the common case is signal-free).
    waiters: usize,
    callbacks: Vec<Callback<T>>,
}

struct Inner<T> {
    slot: Mutex<Slot<T>>,
    ready: Condvar,
}

/// The consumer half of a oneshot completion: returned by every session
/// submission, fulfilled exactly once by the runtime.
pub struct Ticket<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Ticket<T> {
    fn clone(&self) -> Ticket<T> {
        Ticket { inner: Arc::clone(&self.inner) }
    }
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ticket(complete: {})", lock(&self.inner.slot).value.is_some())
    }
}

/// The producer half: held by the runtime, consumed by fulfilment.
pub struct TicketIssuer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> std::fmt::Debug for TicketIssuer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TicketIssuer(..)")
    }
}

impl<T> Inner<T> {
    fn new(value: Option<T>) -> Arc<Inner<T>> {
        let slot = Slot { value, abandoned: false, waiters: 0, callbacks: Vec::new() };
        Arc::new(Inner { slot: Mutex::new(slot), ready: Condvar::new() })
    }
}

/// Creates a connected issuer/ticket pair.
pub fn ticket<T>() -> (TicketIssuer<T>, Ticket<T>) {
    let inner = Inner::new(None);
    (TicketIssuer { inner: Arc::clone(&inner) }, Ticket { inner })
}

/// Creates a ticket that is already complete: for submissions the runtime
/// answers without touching any shard (e.g. denials of actions outside every
/// shard alphabet) and for those it decides on the submitting thread.  Born
/// with its value — no issuer, nobody to wake, nothing to copy.
pub fn completed<T>(value: T) -> Ticket<T> {
    Ticket { inner: Inner::new(Some(value)) }
}

impl<T: Clone> Ticket<T> {
    /// Blocks until the ticket is fulfilled and returns the completion.
    ///
    /// # Panics
    ///
    /// Panics if the issuer was dropped without fulfilling the ticket —
    /// the runtime completes every accepted submission, so an abandoned
    /// ticket marks a bug, not an operational condition.
    pub fn wait(&self) -> T {
        self.wait_until(None).expect("completion ticket abandoned by the runtime")
    }

    /// Blocks up to `timeout` for the completion; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<T> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    /// The one waiting loop: parks until the ticket is fulfilled (the
    /// completion), abandoned or past `deadline` (`None`).
    fn wait_until(&self, deadline: Option<Instant>) -> Option<T> {
        let mut slot = lock(&self.inner.slot);
        loop {
            if let Some(v) = slot.value.as_ref() {
                return Some(v.clone());
            }
            if slot.abandoned {
                return None;
            }
            let left = match deadline {
                Some(deadline) => Some(deadline.checked_duration_since(Instant::now())?),
                None => None,
            };
            slot.waiters += 1;
            slot = match left {
                Some(left) => {
                    self.inner.ready.wait_timeout(slot, left).unwrap_or_else(|e| e.into_inner()).0
                }
                None => self.inner.ready.wait(slot).unwrap_or_else(|e| e.into_inner()),
            };
            slot.waiters -= 1;
        }
    }

    /// Non-blocking check: the completion if the ticket has been fulfilled.
    pub fn poll(&self) -> Option<T> {
        lock(&self.inner.slot).value.clone()
    }

    /// True once the ticket has been fulfilled.
    pub fn is_complete(&self) -> bool {
        lock(&self.inner.slot).value.is_some()
    }

    /// Registers a callback invoked with the completion: immediately (on the
    /// calling thread) if the ticket is already fulfilled, otherwise on the
    /// worker thread that fulfils it.
    pub fn then<F: FnOnce(T) + Send + 'static>(&self, f: F) {
        let mut slot = lock(&self.inner.slot);
        match slot.value.clone() {
            Some(v) => {
                drop(slot);
                f(v);
            }
            None => slot.callbacks.push(Box::new(f)),
        }
    }
}

impl<T: Clone> TicketIssuer<T> {
    /// Fulfils the ticket: wakes every waiter and runs the registered
    /// callbacks (on this thread, outside the slot lock).
    pub fn complete(self, value: T) {
        let (callbacks, waiting) = {
            let mut slot = lock(&self.inner.slot);
            slot.value = Some(value.clone());
            (std::mem::take(&mut slot.callbacks), slot.waiters > 0)
        };
        if waiting {
            self.inner.ready.notify_all();
        }
        for cb in callbacks {
            cb(value.clone());
        }
    }
}

impl<T> Drop for TicketIssuer<T> {
    fn drop(&mut self) {
        let mut slot = lock(&self.inner.slot);
        if slot.value.is_none() {
            slot.abandoned = true;
            if slot.waiters > 0 {
                self.inner.ready.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn wait_blocks_until_fulfilled() {
        let (issuer, t) = ticket();
        let waiter = {
            let t = t.clone();
            std::thread::spawn(move || t.wait())
        };
        std::thread::sleep(Duration::from_millis(5));
        assert!(!t.is_complete());
        issuer.complete(42u32);
        assert_eq!(waiter.join().unwrap(), 42);
        assert_eq!(t.poll(), Some(42), "completions are repeatable");
        assert_eq!(t.wait(), 42);
    }

    #[test]
    fn poll_is_nonblocking() {
        let (issuer, t) = ticket();
        assert_eq!(t.poll(), None);
        issuer.complete("done");
        assert_eq!(t.poll(), Some("done"));
    }

    #[test]
    fn then_runs_on_fulfilment_or_immediately() {
        let count = Arc::new(AtomicU32::new(0));
        let (issuer, t) = ticket();
        let c = Arc::clone(&count);
        t.then(move |v: u32| {
            c.fetch_add(v, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 0, "not yet fulfilled");
        issuer.complete(5);
        assert_eq!(count.load(Ordering::SeqCst), 5);
        // Already complete: callback runs immediately.
        let c = Arc::clone(&count);
        t.then(move |v| {
            c.fetch_add(v, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn wait_timeout_times_out_and_succeeds() {
        let (issuer, t) = ticket();
        assert_eq!(t.wait_timeout(Duration::from_millis(5)), None);
        issuer.complete(1u8);
        assert_eq!(t.wait_timeout(Duration::from_millis(5)), Some(1));
    }

    #[test]
    fn completed_tickets_are_ready() {
        let t = completed(7i64);
        assert!(t.is_complete());
        assert_eq!(t.wait(), 7);
    }

    #[test]
    fn abandonment_unblocks_timeout_waiters() {
        let (issuer, t) = ticket::<u8>();
        drop(issuer);
        assert_eq!(t.wait_timeout(Duration::from_millis(50)), None);
        assert_eq!(t.poll(), None);
    }
}
