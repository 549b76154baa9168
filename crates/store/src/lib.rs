//! `kgq-store`: the durable, crash-recoverable write path.
//!
//! The read-optimised structures in `kgq-rdf` and `kgq-graph` are
//! immutable-at-heart: six sorted triple orderings and CSR-ish
//! adjacency are wonderful to query and miserable to mutate in place.
//! This crate makes them updatable *and* durable without giving that
//! up, the way MillenniumDB does: one copy of the triples under several
//! orderings, one writer, and a log in front of it:
//!
//! 1. **WAL** ([`wal`]) — every mutation batch is appended to a
//!    checksummed, length-prefixed log and fsynced *before* it is
//!    acknowledged. Recovery replays the longest valid prefix and
//!    stops cleanly at any torn or corrupt tail.
//! 2. **One live store** ([`durable`]) — each committed batch is
//!    applied once, in bulk, to the one [`kgq_rdf::TripleStore`] that
//!    readers query; recovery folds every replayed batch into a single
//!    bulk apply.
//! 3. **Compaction** ([`DurableStore::compact`]) — encodes the live
//!    store into a fresh immutable segment (written atomically: tmp
//!    file, fsync, rename, directory fsync) and truncates the log.
//! 4. **Generations** — every committed batch advances a generation
//!    stamp with the same contract as `kgq_core::cache::QueryCache`:
//!    cached results keyed at an old generation become unreachable the
//!    moment a commit lands.
//!
//! Fault injection: with the `fault-injection` feature the I/O layer
//! exposes sites `wal::append`, `wal::fsync`, `wal::read`,
//! `segment::write` and `segment::mmap` (see `docs/FAULT_SITES.md`)
//! which the crash-torture suite uses to kill the writer at every byte
//! offset and prove that recovery always equals a committed prefix.

#![deny(missing_docs)]

pub mod crc;
pub mod durable;
pub mod mmap;
pub mod segment;
pub mod wal;

pub use crc::crc32;
pub use durable::{apply, DurableLog, DurableStore, VerifyReport};
pub use mmap::SegmentMap;
pub use wal::{EdgeRec, Replay, StoreOp, TailState, Wal};

/// Consults the fault-injection plan at an I/O site and translates the
/// armed action into an [`wal::IoFault`] for the storage layer to act
/// on. `Panic`/`DelayMs` actions are executed directly by
/// `kgq_core::govern::fault::io`; non-I/O actions and the disarmed case
/// yield `None`. Compiles to `None` when the `fault-injection` feature
/// is off, so production builds carry zero overhead.
#[cfg(feature = "fault-injection")]
#[macro_export]
macro_rules! io_fault {
    ($site:expr) => {{
        match ::kgq_core::govern::fault::io($site) {
            Some(::kgq_core::govern::fault::Action::TornWrite(n)) => {
                Some($crate::wal::IoFault::Torn(n as usize))
            }
            Some(::kgq_core::govern::fault::Action::ShortRead(n)) => {
                Some($crate::wal::IoFault::Short(n as usize))
            }
            Some(::kgq_core::govern::fault::Action::FsyncFail) => Some($crate::wal::IoFault::Fsync),
            Some(::kgq_core::govern::fault::Action::CrashAfter(n)) => {
                Some($crate::wal::IoFault::Crash(n as usize))
            }
            _ => None,
        }
    }};
}

/// Disarmed variant: the site string is type-checked and discarded.
#[cfg(not(feature = "fault-injection"))]
#[macro_export]
macro_rules! io_fault {
    ($site:expr) => {{
        let _site: &str = $site;
        Option::<$crate::wal::IoFault>::None
    }};
}
