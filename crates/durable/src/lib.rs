//! # ix-durable — snapshots, write-ahead logs, and vaults
//!
//! The durability substrate of the runtime (nothing in here knows about the
//! manager's protocol):
//!
//! * [`codec`] — a tiny self-describing binary codec (varints, zigzag,
//!   strings) plus the CRC32 used to frame on-disk records;
//! * [`fault`] — deterministic fault injection: [`FaultVault`] journals
//!   every mutation while presenting a healthy vault, then materializes the
//!   storage a scripted crash ([`FaultPlan`]: I/O error, torn final record,
//!   or fsync lie) would have left behind;
//! * [`vault`] — the [`Vault`] storage abstraction: numbered append-only
//!   *streams* of records plus atomically-replaced named *blobs*.
//!   [`MemVault`] keeps everything in memory (the test default — it survives
//!   a simulated crash because the handle is shared, not because anything is
//!   written); [`FileVault`] maps each stream onto segmented append-only
//!   files with CRC-framed records, an [`FsyncPolicy`], and
//!   segment-granular truncation;
//! * [`snapshot`] — codecs for the core vocabulary (actions, values,
//!   alphabets) and the pointer-deduplicating state-table codec: a CoW
//!   [`ix_state::State`] tree is serialized as a flat node table in which
//!   every [`ix_state::Shared`] allocation appears exactly once, so the
//!   structural sharing that makes in-memory capture a ref-count bump also
//!   makes the serialized form proportional to the number of *distinct*
//!   nodes.  The table holds multiple roots in one pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod fault;
pub mod snapshot;
pub mod vault;

pub use codec::{crc32, CodecError, Reader, Writer};
pub use fault::{FaultMode, FaultPlan, FaultVault};
pub use snapshot::{
    decode_action, decode_alphabet, decode_value, encode_action, encode_alphabet, encode_value,
    StateTableBuilder, StateTableReader,
};
pub use vault::{history_stream, FileVault, FsyncPolicy, MemVault, Vault, META_STREAM};
