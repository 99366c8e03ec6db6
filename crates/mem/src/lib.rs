//! # sbu-mem — primitive shared-memory objects
//!
//! The paper's constructions are built from a small set of primitive memory
//! objects:
//!
//! * **safe registers** (Lamport): a read that overlaps a write may return an
//!   *arbitrary* value; only reads not concurrent with any write are
//!   meaningful,
//! * **atomic registers**: linearizable read/write (used by the randomized
//!   consensus substrate and by baselines),
//! * **sticky bits** (Definition 4.1): three-valued `{⊥, 0, 1}` with atomic
//!   `Jam`/`Read` and a *non-atomic* `Flush`,
//! * **sticky words**: the multi-bit variant; the paper constructs these
//!   from `⌈log₂⌉` sticky bits (Figure 2, reproduced in `sbu-sticky`) and we
//!   additionally expose them as primitives for tractable model checking,
//! * **test-and-set bits** and a **general RMW** register, used by the
//!   RMW-hierarchy experiments (`sbu-rmw`),
//! * **data cells**: safe registers "large enough to hold a state of the
//!   object" (Theorem 6.6), carrying an arbitrary `Clone` payload.
//!
//! All algorithm code in this workspace is written once, generically over
//! the [`WordMem`]/[`DataMem`] traits, and runs on two backends:
//!
//! * [`native::NativeMem`] — real `std::sync::atomic` operations, for
//!   multi-threaded execution and throughput benchmarks. Its registers are
//!   *stronger* than safe (they are atomic), which is sound: any algorithm
//!   correct over safe registers stays correct over atomic ones. Its
//!   register [`Layout`] is a type: [`Padded`] (the default, a cache line
//!   per register) for arenas threads share, [`Packed`] ([`OwnedMem`]) for
//!   arenas one thread owns.
//! * `sbu-sim`'s `SimMem` — a deterministic, adversarially scheduled
//!   backend that faithfully models safe-register overlap (arbitrary values)
//!   and flags non-atomic `Flush` overlap, with crash injection and step
//!   accounting.
//!
//! Objects are *handle bundles*: construction allocates registers out of a
//! backend (`&mut` setup phase) and returns plain-old-data handles; all
//! shared state lives in the backend, so the same object value can be used
//! from many threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod contention;
pub mod durable;
pub mod native;
pub mod prelude;
mod traits;

pub use contention::{Backoff, CachePadded};
pub use durable::{DurableMem, DurableObs, TornPersist};
pub use native::{Layout, MemObs, NativeMem, OwnedMem, Packed, Padded};
pub use sbu_spec::specs::Tri;
pub use sbu_spec::Pid;
pub use traits::{DataMem, JamOutcome, WordMem};

/// The word type of every register in the workspace.
pub type Word = u64;

/// Sticky words reserve this sentinel to encode `⊥`; user payloads must be
/// strictly smaller. Cell indices and processor ids always are.
pub const STICKY_WORD_UNDEF: Word = Word::MAX;

macro_rules! handle {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub usize);

        impl $name {
            /// The raw slot index in the owning backend.
            pub fn index(self) -> usize {
                self.0
            }
        }
    };
}

handle! {
    /// Handle to a safe word register.
    SafeId
}
handle! {
    /// Handle to an atomic word register.
    AtomicId
}
handle! {
    /// Handle to a sticky bit (Definition 4.1).
    StickyBitId
}
handle! {
    /// Handle to a primitive sticky word.
    StickyWordId
}
handle! {
    /// Handle to a test-and-set bit.
    TasId
}
handle! {
    /// Handle to a data cell (a safe register holding a payload).
    DataId
}

/// A backend-independent identifier for one memory *location* — the unit of
/// the independence relation used by partial-order-reduced schedule
/// exploration (`sbu-sim`'s `Explorer::explore_dpor`).
///
/// Two primitive steps by different processors commute iff they touch
/// different locations, or the same location without either mutating it.
/// Both phases of a two-phase operation (safe read/write, flush, reset,
/// data read/write) touch the operation's register location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LocId {
    /// A safe word register.
    Safe(usize),
    /// An atomic word register.
    Atomic(usize),
    /// A sticky bit.
    StickyBit(usize),
    /// A primitive sticky word.
    StickyWord(usize),
    /// A test-and-set bit.
    Tas(usize),
    /// A data cell.
    Data(usize),
    /// A persistency fence by the given processor (`WordMem::persist`).
    /// A fence makes every unfenced write the processor participated in
    /// durable, so it conflicts with *writes to any persistent location*
    /// (sticky bits/words, test-and-set bits, data cells): re-ordering a
    /// fence past such a write changes which writes a later crash can tear.
    /// Fences of different processors commute with each other (entry
    /// removal is order-insensitive) and with volatile accesses, reads,
    /// and clock steps.
    Fence(usize),
    /// The global operation clock sampled by `op_invoke`/`op_return`.
    /// Timestamp steps conflict with each other (their relative order is
    /// what a linearizability verdict observes) but commute with ordinary
    /// memory steps.
    Clock,
    /// A whole-memory effect: a crash (which closes every window the victim
    /// held open) or a step that consumed an adversary-fabricated corrupt
    /// word (which advances shared adversary state). Conflicts with
    /// everything.
    Global,
}

impl From<SafeId> for LocId {
    fn from(id: SafeId) -> Self {
        LocId::Safe(id.0)
    }
}
impl From<AtomicId> for LocId {
    fn from(id: AtomicId) -> Self {
        LocId::Atomic(id.0)
    }
}
impl From<StickyBitId> for LocId {
    fn from(id: StickyBitId) -> Self {
        LocId::StickyBit(id.0)
    }
}
impl From<StickyWordId> for LocId {
    fn from(id: StickyWordId) -> Self {
        LocId::StickyWord(id.0)
    }
}
impl From<TasId> for LocId {
    fn from(id: TasId) -> Self {
        LocId::Tas(id.0)
    }
}
impl From<DataId> for LocId {
    fn from(id: DataId) -> Self {
        LocId::Data(id.0)
    }
}

/// How a primitive step interacts with its [`LocId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Pure observation: commutes with other reads of the same location.
    Read,
    /// Mutation, or potential mutation (jam, test-and-set, RMW, opening and
    /// closing write/flush/reset windows all count as writes).
    Write,
}

impl AccessKind {
    /// Whether two accesses of the *same* location conflict: at least one
    /// of them must be a write.
    pub fn conflicts(self, other: AccessKind) -> bool {
        matches!(self, AccessKind::Write) || matches!(other, AccessKind::Write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_expose_their_index() {
        assert_eq!(SafeId(3).index(), 3);
        assert_eq!(DataId(0).index(), 0);
        assert!(StickyBitId(1) < StickyBitId(2));
    }

    #[test]
    fn sticky_word_sentinel_is_max() {
        assert_eq!(STICKY_WORD_UNDEF, u64::MAX);
    }

    #[test]
    fn loc_ids_distinguish_kinds_and_indices() {
        assert_eq!(LocId::from(SafeId(2)), LocId::Safe(2));
        assert_ne!(LocId::Safe(0), LocId::Atomic(0));
        assert_ne!(LocId::StickyBit(1), LocId::StickyBit(2));
        assert_ne!(LocId::Fence(0), LocId::Fence(1));
        assert_ne!(LocId::Clock, LocId::Global);
    }

    #[test]
    fn access_kinds_conflict_iff_a_write_is_involved() {
        use AccessKind::{Read, Write};
        assert!(!Read.conflicts(Read));
        assert!(Read.conflicts(Write));
        assert!(Write.conflicts(Read));
        assert!(Write.conflicts(Write));
    }
}
