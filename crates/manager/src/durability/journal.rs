//! The write-ahead record format and the hub every record is appended
//! through: shard records are the kernel's, meta-stream records built here.

use super::FORMAT_VERSION;
use crate::log::LogKey;
use crate::subscription::ClientId;
use crate::{ManagerStats, Reservation};
use ix_core::Action;
use ix_durable::{decode_action, encode_action, CodecError, Reader, Vault, Writer, META_STREAM};
use std::sync::Arc;

pub(super) fn encode_delta(w: &mut Writer, d: &ManagerStats) {
    w.u64(d.asks);
    w.u64(d.grants);
    w.u64(d.denials);
    w.u64(d.confirmations);
    w.u64(d.expired_reservations);
    w.u64(d.aborted_reservations);
    w.u64(d.notifications);
}

pub(super) fn decode_delta(r: &mut Reader) -> Result<ManagerStats, CodecError> {
    Ok(ManagerStats {
        asks: r.u64()?,
        grants: r.u64()?,
        denials: r.u64()?,
        confirmations: r.u64()?,
        expired_reservations: r.u64()?,
        aborted_reservations: r.u64()?,
        notifications: r.u64()?,
    })
}

/// One write-ahead record.  Shard streams carry `Commit`, `Reserve` and
/// `Release` (echoed by every owner, in the owner's apply order); the meta
/// stream carries `Event` and `Clock` (order-independent, summed).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum WalRecord {
    /// A committed action.  `is_primary` marks the commit's deterministic
    /// primary owner (position 0 of the ascending owner set), which is the
    /// only echo whose `delta` is non-zero and the only one that appends to
    /// the durable action log on replay.
    Commit { key: LogKey, action: Action, is_primary: bool, delta: ManagerStats },
    /// A reservation inserted into this shard's table.
    Reserve { reservation: Reservation, delta: ManagerStats },
    /// A reservation removed from this shard's table (confirm, abort,
    /// expiry, or rejected confirmation).
    Release { id: u64, delta: ManagerStats },
    /// A pure statistics event with no deterministic shard attribution
    /// (denials, cross-commit notifications, aborts/expiries of multi-owner
    /// reservations).
    Event { delta: ManagerStats },
    /// The logical clock advanced to `now`.
    Clock { now: u64 },
    /// A subscription registered after the covering checkpoint.  Echoed on
    /// the owning shard's stream (shard-local registrations) or the meta
    /// stream (cross-shard and orphan registrations, replayed through the
    /// recovered partition); `permitted` is the cached status at registration
    /// time, the baseline the first post-recovery refresh diffs against.
    Subscribe { client: ClientId, action: Action, permitted: bool },
    /// A subscription removed after the covering checkpoint (same stream
    /// placement as `Subscribe`).
    Unsubscribe { client: ClientId, action: Action },
}

const TAG_COMMIT: u8 = 1;
const TAG_RESERVE: u8 = 2;
const TAG_RELEASE: u8 = 3;
const TAG_EVENT: u8 = 4;
const TAG_CLOCK: u8 = 5;
const TAG_SUBSCRIBE: u8 = 6;
const TAG_UNSUBSCRIBE: u8 = 7;

pub(super) fn encode_key(w: &mut Writer, key: LogKey) {
    w.u64(key.0);
    w.u8(key.1);
    w.u64(key.2);
}

pub(super) fn decode_key(r: &mut Reader) -> Result<LogKey, CodecError> {
    Ok((r.u64()?, r.u8()?, r.u64()?))
}

pub(super) fn encode_reservation(w: &mut Writer, res: &Reservation) {
    w.u64(res.id);
    encode_action(w, &res.action);
    w.u64(res.client);
    w.u64(res.granted_at);
    w.u64(res.expires_at);
}

pub(super) fn decode_reservation(r: &mut Reader) -> Result<Reservation, CodecError> {
    Ok(Reservation {
        id: r.u64()?,
        action: decode_action(r)?,
        client: r.u64()?,
        granted_at: r.u64()?,
        expires_at: r.u64()?,
    })
}

impl WalRecord {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(FORMAT_VERSION);
        match self {
            WalRecord::Commit { key, action, is_primary, delta } => {
                w.u8(TAG_COMMIT);
                encode_key(&mut w, *key);
                encode_action(&mut w, action);
                w.bool(*is_primary);
                encode_delta(&mut w, delta);
            }
            WalRecord::Reserve { reservation, delta } => {
                w.u8(TAG_RESERVE);
                encode_reservation(&mut w, reservation);
                encode_delta(&mut w, delta);
            }
            WalRecord::Release { id, delta } => {
                w.u8(TAG_RELEASE);
                w.u64(*id);
                encode_delta(&mut w, delta);
            }
            WalRecord::Event { delta } => {
                w.u8(TAG_EVENT);
                encode_delta(&mut w, delta);
            }
            WalRecord::Clock { now } => {
                w.u8(TAG_CLOCK);
                w.u64(*now);
            }
            WalRecord::Subscribe { client, action, permitted } => {
                w.u8(TAG_SUBSCRIBE);
                w.u64(*client);
                encode_action(&mut w, action);
                w.bool(*permitted);
            }
            WalRecord::Unsubscribe { client, action } => {
                w.u8(TAG_UNSUBSCRIBE);
                w.u64(*client);
                encode_action(&mut w, action);
            }
        }
        w.into_bytes()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<WalRecord, CodecError> {
        let mut r = Reader::new(bytes);
        let version = r.u8()?;
        if version != FORMAT_VERSION {
            return Err(CodecError::BadVersion { version });
        }
        match r.u8()? {
            TAG_COMMIT => Ok(WalRecord::Commit {
                key: decode_key(&mut r)?,
                action: decode_action(&mut r)?,
                is_primary: r.bool()?,
                delta: decode_delta(&mut r)?,
            }),
            TAG_RESERVE => Ok(WalRecord::Reserve {
                reservation: decode_reservation(&mut r)?,
                delta: decode_delta(&mut r)?,
            }),
            TAG_RELEASE => Ok(WalRecord::Release { id: r.u64()?, delta: decode_delta(&mut r)? }),
            TAG_EVENT => Ok(WalRecord::Event { delta: decode_delta(&mut r)? }),
            TAG_CLOCK => Ok(WalRecord::Clock { now: r.u64()? }),
            TAG_SUBSCRIBE => Ok(WalRecord::Subscribe {
                client: r.u64()?,
                action: decode_action(&mut r)?,
                permitted: r.bool()?,
            }),
            TAG_UNSUBSCRIBE => {
                Ok(WalRecord::Unsubscribe { client: r.u64()?, action: decode_action(&mut r)? })
            }
            tag => Err(CodecError::BadTag { tag }),
        }
    }

    /// The record's statistics contribution (zero for the non-delta
    /// records: `Clock`, `Subscribe`, `Unsubscribe`).
    pub(crate) fn delta(&self) -> ManagerStats {
        match self {
            WalRecord::Commit { delta, .. }
            | WalRecord::Reserve { delta, .. }
            | WalRecord::Release { delta, .. }
            | WalRecord::Event { delta } => *delta,
            WalRecord::Clock { .. }
            | WalRecord::Subscribe { .. }
            | WalRecord::Unsubscribe { .. } => ManagerStats::ZERO,
        }
    }
}

/// The runtime's handle on its vault: stream addressing plus the append
/// helpers the workers journal through.  A clone is another handle on the
/// same vault.
#[derive(Clone)]
pub(crate) struct DurabilityHub {
    vault: Arc<dyn Vault>,
}

impl DurabilityHub {
    pub(crate) fn new(vault: Arc<dyn Vault>) -> DurabilityHub {
        DurabilityHub { vault }
    }

    pub(crate) fn vault(&self) -> &Arc<dyn Vault> {
        &self.vault
    }

    /// The stream id of a shard's write-ahead log.
    pub(crate) fn shard_stream(shard: usize) -> u32 {
        shard as u32
    }

    /// Appends a record to a shard's stream (called only by the owning
    /// worker — shard streams are single-writer).
    pub(crate) fn log_shard(&self, shard: usize, record: &WalRecord) -> u64 {
        self.vault.append(DurabilityHub::shard_stream(shard), &record.encode())
    }

    /// Appends a record to the meta stream (any thread).
    fn log_meta(&self, record: &WalRecord) {
        self.vault.append(META_STREAM, &record.encode());
    }

    /// Journals one statistics-only event on the meta stream: counter bumps
    /// that have no deterministic owner shard (inline denials, cross-shard
    /// decision counters, notification fan-outs).  A zero delta writes
    /// nothing.
    pub(crate) fn log_event(&self, delta: ManagerStats) {
        if delta != ManagerStats::ZERO {
            self.log_meta(&WalRecord::Event { delta });
        }
    }

    /// Journals the logical clock reaching `now`.
    pub(crate) fn log_clock(&self, now: u64) {
        self.log_meta(&WalRecord::Clock { now });
    }

    /// Journals a subscription no shard's stream holds: one several owners
    /// share, or one on an action no shard owns.
    pub(crate) fn log_subscribe(&self, client: ClientId, action: &Action, permitted: bool) {
        self.log_meta(&WalRecord::Subscribe { client, action: action.clone(), permitted });
    }

    /// Journals the removal of such a subscription.
    pub(crate) fn log_unsubscribe(&self, client: ClientId, action: &Action) {
        self.log_meta(&WalRecord::Unsubscribe { client, action: action.clone() });
    }
}
