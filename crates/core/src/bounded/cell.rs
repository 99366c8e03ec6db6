//! The cell layout of Figure 3 (with the write-once data refinement).

use crate::CellPayload;
use sbu_mem::{DataId, DataMem, SafeId, StickyBitId, StickyWordId};
use sbu_spec::SequentialSpec;

/// Pool sizing for the bounded construction.
///
/// Theorem 6.6 proves Θ(n²) cells suffice; the default is a comfortably
/// padded 4n² + 8n + 4 to absorb leaks from crashed processors (a crash
/// permanently strands at most its claimed cell and up to three grabs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniversalConfig {
    /// Number of cells in the pool (including the anchor).
    pub cells: usize,
    /// Enable the locality fast paths (an answer to the paper's §7 open
    /// problem on time complexity):
    /// * FIND-HEAD first walks from the shared **frontier cursor** (the
    ///   most recently appended cell any processor published) and then
    ///   from this processor's last-seen head, instead of scanning the
    ///   whole pool;
    /// * the helping pass **combines**: it snapshots all announced pending
    ///   appends first and folds them into one warm-cursor pass;
    /// * GFC first retries cells this processor itself reclaimed.
    ///
    /// All of them fall back to the paper's full scans whenever a hint is
    /// stale, so correctness is identical (experiments E4c/E8 measure the
    /// gain; `crates/core/tests/fastpath_equivalence.rs` checks the
    /// outcome sets match exhaustively).
    pub fast_paths: bool,
    /// Cap exponent for the bounded exponential backoff in the FIND-HEAD
    /// and GFC retry loops: one backoff pause never exceeds `2^backoff_limit`
    /// spin rounds (the `core.backoff_spins` counter attributes the cost).
    /// Purely local spinning — no shared-memory step is ever skipped, so
    /// the wait-freedom bound is unchanged by any value. Default
    /// [`sbu_mem::Backoff::DEFAULT_LIMIT`]; E10 sweeps this to tune the
    /// 4–8 thread `native_jam` contention cliff.
    pub backoff_limit: u32,
    /// Group-commit batch apply (flat-combining at the state-cell level):
    /// one appended cell carries a *batch* of commands — the appender's own
    /// block plus any blocks it packed from the announce array — paying one
    /// GFC + append protocol and one sequential-state recompute for the
    /// whole batch, with per-command return values distributed back through
    /// the packed cells. Off by default; [`UniversalConfig::paper_scans`]
    /// implies off (the paper's per-command lists are the reference arm of
    /// the equivalence tests). The mode is fixed at build time: a list
    /// carries either classic or batch payloads, never both.
    pub group_commit: bool,
    /// Max commands per owner block in group-commit mode: bounds both one
    /// [`super::Universal::apply_batch`] chunk and the per-processor
    /// response retention in snapshots (a processor never has more than one
    /// block outstanding, so retaining one block worth of `(seq, resp)`
    /// pairs per processor keeps every still-needed response recoverable).
    pub batch_cap: usize,
    /// Bounded wait (in local re-reads of the response flag) a group-commit
    /// member spends hoping a combiner serves its announced block before it
    /// falls back to the classic self-append. Purely a performance lever —
    /// the fallback makes progress regardless, so wait-freedom is
    /// unchanged. Keep small under the simulator (every re-read is a
    /// scheduled step).
    pub return_spin: u32,
}

impl UniversalConfig {
    /// The default Θ(n²) pool for `n` processors, fast paths enabled.
    pub fn for_procs(n: usize) -> Self {
        Self {
            cells: 4 * n * n + 8 * n + 4,
            fast_paths: true,
            backoff_limit: sbu_mem::Backoff::DEFAULT_LIMIT,
            group_commit: false,
            batch_cap: Self::DEFAULT_BATCH_CAP,
            return_spin: Self::DEFAULT_RETURN_SPIN,
        }
    }

    /// Default per-owner block cap in group-commit mode (see
    /// [`UniversalConfig::batch_cap`]).
    pub const DEFAULT_BATCH_CAP: usize = 32;

    /// Default member wait budget in group-commit mode (see
    /// [`UniversalConfig::return_spin`]).
    pub const DEFAULT_RETURN_SPIN: u32 = 192;

    /// Override the pool size (experiment E3 sweeps this to find the real
    /// high-water mark). Fast paths stay enabled; chain
    /// [`UniversalConfig::paper_scans`] to disable them.
    pub fn with_cells(cells: usize) -> Self {
        Self {
            cells,
            ..Self::for_procs(0)
        }
    }

    /// Disable every fast path: run the paper's full scans verbatim (the
    /// baseline arm of E4c/E8, and the reference side of the equivalence
    /// tests). Implies group-commit off — the paper's lists are strictly
    /// one command per cell.
    pub fn paper_scans(mut self) -> Self {
        self.fast_paths = false;
        self.group_commit = false;
        self
    }

    /// Enable or disable group-commit batch apply (see
    /// [`UniversalConfig::group_commit`]).
    pub fn group_commit(mut self, on: bool) -> Self {
        self.group_commit = on;
        self
    }

    /// Cap one owner block at `cap` commands in group-commit mode (see
    /// [`UniversalConfig::batch_cap`]).
    pub fn with_batch_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "batch cap must admit at least one command");
        self.batch_cap = cap;
        self
    }

    /// Bound the group-commit member wait at `spins` flag re-reads (see
    /// [`UniversalConfig::return_spin`]).
    pub fn with_return_spin(mut self, spins: u32) -> Self {
        self.return_spin = spins;
        self
    }

    /// Cap one backoff pause at `2^limit` spin rounds (see
    /// [`UniversalConfig::backoff_limit`]).
    pub fn with_backoff_limit(mut self, limit: u32) -> Self {
        self.backoff_limit = limit;
        self
    }
}

/// Handles to one cell's registers (Figure 3).
///
/// | field       | kind        | decided by                              |
/// |-------------|-------------|------------------------------------------|
/// | `claimed`   | sticky bit  | owner takes the cell                     |
/// | `proc_id`   | sticky word | GFC jam race: who owns the cell          |
/// | `not_head`  | sticky bit  | set once the cell has a successor        |
/// | `next`      | sticky word | the cell appended just before this one   |
/// | `prev`      | sticky word | consensus on this cell's successor       |
/// | `init_flag` | safe        | owner is reinitializing (Figure 5)       |
/// | `count_init`| safe        | owner's progress through the `r` bits    |
/// | `r[n]`      | safe        | `r_j`: processor j holds a grab          |
/// | `b[n]`      | safe        | `b_d`: the d-th successor wrote a state  |
/// | `cmd`       | data        | the command (write-once per incarnation) |
/// | `has_cmd`   | safe        | `cmd` is stable                          |
/// | `state`     | data        | the state snapshot (write-once)          |
/// | `has_state` | safe        | `state` is stable                        |
///
/// The per-processor `r`/`b` arrays are *not* stored here: they live in two
/// flat `Inner`-level vectors (`r_bits`/`b_bits`, one slab of `cells × n`
/// handles each) so that building an instance costs a constant number of
/// heap allocations instead of two `Vec`s per cell — the service runtime
/// creates `Universal` instances in bulk, one per live key. Allocation
/// *order* inside the backend is unchanged: [`CellHandles::new`] pushes
/// this cell's `r` and `b` handles into the slabs at exactly the point the
/// per-cell `Vec`s used to allocate them, so simulator location ids (and
/// every recorded `.sbu-sched` schedule) are identical.
pub(crate) struct CellHandles {
    pub claimed: StickyBitId,
    pub proc_id: StickyWordId,
    pub not_head: StickyBitId,
    pub next: StickyWordId,
    pub prev: StickyWordId,
    pub init_flag: SafeId,
    pub count_init: SafeId,
    pub cmd: DataId,
    pub has_cmd: SafeId,
    pub state: DataId,
    pub has_state: SafeId,
    /// Group-commit return-value slots, allocated only when the config
    /// enables batching (so a classic build's allocation order — and every
    /// simulator location id — is byte-identical to earlier PRs).
    pub group: Option<GroupSlots>,
}

/// The per-cell registers group-commit adds for return-value distribution
/// (the member's side of the flat-combining handshake).
///
/// | field        | kind        | decided by                                |
/// |--------------|-------------|-------------------------------------------|
/// | `resp_claim` | sticky word | jam race: which combiner writes the slot  |
/// | `resp`       | data        | the cell's `(seq, resp)` envelope         |
/// | `has_resp`   | safe        | `resp` is stable                          |
///
/// `resp_claim` keeps the data slot single-writer per incarnation: every
/// combiner that packed the cell jams its pid, and only the jam winner
/// writes `resp` then raises `has_resp` (write-data-then-flag, same
/// discipline as `cmd`/`state`). All three are reset by INIT alongside the
/// rest of the cell.
pub(crate) struct GroupSlots {
    pub resp_claim: StickyWordId,
    pub resp: DataId,
    pub has_resp: SafeId,
}

impl CellHandles {
    /// Allocate one cell's registers out of `mem` (named `new` per the
    /// crate-wide convention documented in `sbu_mem::prelude`: constructors
    /// are `new`, even when they allocate out of a backend), appending the
    /// cell's `n` grab bits and `n` distance bits to the shared slabs.
    pub fn new<S: SequentialSpec, M: DataMem<CellPayload<S>>>(
        mem: &mut M,
        n: usize,
        group_commit: bool,
        r_bits: &mut Vec<SafeId>,
        b_bits: &mut Vec<SafeId>,
    ) -> Self {
        let claimed = mem.alloc_sticky_bit();
        let proc_id = mem.alloc_sticky_word();
        let not_head = mem.alloc_sticky_bit();
        let next = mem.alloc_sticky_word();
        let prev = mem.alloc_sticky_word();
        let init_flag = mem.alloc_safe(0);
        let count_init = mem.alloc_safe(0);
        r_bits.extend((0..n).map(|_| mem.alloc_safe(0)));
        b_bits.extend((0..n).map(|_| mem.alloc_safe(0)));
        Self {
            claimed,
            proc_id,
            not_head,
            next,
            prev,
            init_flag,
            count_init,
            cmd: mem.alloc_data(None),
            has_cmd: mem.alloc_safe(0),
            state: mem.alloc_data(None),
            has_state: mem.alloc_safe(0),
            group: group_commit.then(|| GroupSlots {
                resp_claim: mem.alloc_sticky_word(),
                resp: mem.alloc_data(None),
                has_resp: mem.alloc_safe(0),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pool_is_quadratic() {
        assert_eq!(UniversalConfig::for_procs(1).cells, 16);
        assert_eq!(UniversalConfig::for_procs(2).cells, 36);
        assert_eq!(UniversalConfig::for_procs(4).cells, 100);
        let big = UniversalConfig::for_procs(16).cells;
        assert!(big >= 4 * 16 * 16);
        assert_eq!(UniversalConfig::with_cells(7).cells, 7);
    }
}
