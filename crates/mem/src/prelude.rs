//! One-stop import surface for writing algorithms over the memory traits.
//!
//! Most algorithm code in the workspace needs the same handful of items:
//! the [`WordMem`]/[`DataMem`] traits (to call *provided* methods such as
//! [`WordMem::alloc_sticky_bits`], [`WordMem::sticky_read_word`], and the
//! `op_invoke`/`op_return` clock), the handle types those methods return,
//! the word type and its `⊥` sentinel, and a concrete backend. Instead of
//! spelling out six `use` lines, write:
//!
//! ```
//! use sbu_mem::prelude::*;
//!
//! let mut mem = NativeMem::<()>::new();
//! let bit = mem.alloc_sticky_bit();
//! assert!(mem.sticky_jam(Pid(0), bit, true).is_success());
//! assert_eq!(mem.sticky_read(Pid(0), bit), Tri::One);
//! ```
//!
//! # Naming conventions
//!
//! The prelude is also where the crate's API conventions are documented,
//! so generic code reads uniformly across backends:
//!
//! * **Constructors are `new`/`with_*`** — [`NativeMem::new`],
//!   [`DurableMem::new`], [`DurableMem::with_policy`], and `sbu-sim`'s
//!   `SimMem::new(n_procs)`. `new` takes the required configuration;
//!   `with_*` variants layer optional policy on top. The packed,
//!   single-owner twin of `NativeMem`, [`OwnedMem`], is built with
//!   `OwnedMem::default()`.
//! * **Allocation methods are `alloc_*`** and take `&mut self` — they run
//!   in the single-threaded *setup phase* before any processor steps, and
//!   return plain-old-data handles ([`SafeId`], [`AtomicId`],
//!   [`StickyBitId`], [`StickyWordId`], [`TasId`], [`DataId`]).
//! * **Operations take `Pid` first** — every shared-memory step names the
//!   processor executing it, so schedules, persistency bookkeeping, and
//!   observability lanes can be attributed.
//! * **Observability attaches with `attach_obs`** — backends that carry
//!   instruments ([`MemObs`] on [`NativeMem`], [`DurableObs`] on
//!   [`DurableMem`]) register them against an `sbu_obs::Registry` via
//!   `attach_obs(&registry)`; detached backends record nothing.

pub use crate::contention::{Backoff, CachePadded};
pub use crate::durable::{DurableMem, DurableObs, TornPersist};
pub use crate::native::{MemObs, NativeMem, OwnedMem};
pub use crate::traits::{DataMem, JamOutcome, WordMem};
pub use crate::{AccessKind, LocId, Word, STICKY_WORD_UNDEF};
pub use crate::{AtomicId, DataId, SafeId, StickyBitId, StickyWordId, TasId};
pub use sbu_spec::specs::Tri;
pub use sbu_spec::Pid;

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_covers_the_generic_surface() {
        use crate::prelude::*;

        fn generic<M: WordMem>(mem: &mut M) -> Tri {
            let bit = mem.alloc_sticky_bit();
            mem.sticky_jam(Pid(0), bit, false);
            mem.sticky_read(Pid(0), bit)
        }

        let mut mem = NativeMem::<()>::new();
        assert_eq!(generic(&mut mem), Tri::Zero);
        let mut durable = DurableMem::with_policy(NativeMem::<()>::new(), TornPersist::Persist);
        assert_eq!(generic(&mut durable), Tri::Zero);
        assert_eq!(STICKY_WORD_UNDEF, Word::MAX);
    }
}
