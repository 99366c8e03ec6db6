//! Heap footprint of a key's first touch on a single-owner shard.
//!
//! A counting global allocator tallies the heap bytes the measuring thread
//! holds (allocated minus freed — deterministic, unlike resident-set
//! growth) while a fresh [`Shard`] materializes [`KEYS`] keys, with group
//! commit off and on. Two gates:
//!
//! * bytes per key stay under [`MAX_BYTES_PER_KEY`]: a shard's arena is
//!   packed (`OwnedMem`), so a register costs its natural size — a padded
//!   arena would spend a 128-byte line on each and land near 37 KB
//!   (45 KB under group commit) per key;
//! * the registers allocated per key (`allocation_census`, the unit of
//!   Theorem 6.6's space bound) stay exactly what the `n = 1` construction
//!   allocates: the layout changes bytes per register, never the count.

use sbu_mem::native::AllocationCensus;
use sbu_service::Shard;
use sbu_spec::specs::{CounterOp, CounterSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Keys materialized per measurement.
const KEYS: u64 = 1024;
/// The per-key heap ceiling.
const MAX_BYTES_PER_KEY: usize = 10 * 1024;

thread_local! {
    /// Heap bytes currently held by this thread's allocations.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is an allocation-free thread-local tally.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes per key, and the census of one key's registers, for a fresh
/// shard that touches keys `0..KEYS`.
fn first_touch(group_commit: bool) -> (usize, AllocationCensus) {
    let before = LIVE.with(Cell::get);
    let mut shard = Shard::new(0, CounterSpec::new()).group_commit(group_commit);
    for key in 0..KEYS {
        assert_eq!(shard.apply(key, &CounterOp::Read), 0);
    }
    let bytes = (LIVE.with(Cell::get) - before) as usize;
    let total = shard.mem().allocation_census();
    let per_key = |n: usize| {
        assert_eq!(n % KEYS as usize, 0, "every key allocates alike");
        n / KEYS as usize
    };
    let census = AllocationCensus {
        safe_words: per_key(total.safe_words),
        atomic_words: per_key(total.atomic_words),
        sticky_bits: per_key(total.sticky_bits),
        sticky_words: per_key(total.sticky_words),
        tas_bits: per_key(total.tas_bits),
        data_cells: per_key(total.data_cells),
    };
    (bytes / KEYS as usize, census)
}

/// The registers one `n = 1` counter key allocates with group commit off
/// and on (group mode allocates extra batch slots) — the construction's
/// count, which no register layout may change.
const PER_KEY: AllocationCensus = AllocationCensus {
    safe_words: 99,
    atomic_words: 2,
    sticky_bits: 32,
    sticky_words: 48,
    tas_bits: 0,
    data_cells: 32,
};
const PER_KEY_GROUP_COMMIT: AllocationCensus = AllocationCensus {
    safe_words: 115,
    atomic_words: 2,
    sticky_bits: 32,
    sticky_words: 64,
    tas_bits: 0,
    data_cells: 48,
};

#[test]
fn a_key_costs_its_registers_not_their_cache_lines() {
    for (group_commit, registers) in [(false, PER_KEY), (true, PER_KEY_GROUP_COMMIT)] {
        let (bytes, census) = first_touch(group_commit);
        println!("group_commit={group_commit}: {bytes} B/key, {census:?}");
        assert!(
            bytes <= MAX_BYTES_PER_KEY,
            "group_commit={group_commit}: {bytes} B/key > {MAX_BYTES_PER_KEY}"
        );
        assert_eq!(census, registers, "group_commit={group_commit}");
    }
}
