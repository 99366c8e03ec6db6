//! Backend conformance suite.
//!
//! Any [`WordMem`]/[`DataMem`] implementation — the built-in native and
//! simulated backends, adapters like `sbu-sticky`'s `Fig2Mem`, or your own —
//! must satisfy the sequential semantics exercised here. Call
//! [`exercise_word_mem`] (and [`exercise_data_mem`]) from your backend's
//! tests; they panic with a descriptive message on the first deviation.
//!
//! The checks are *sequential*: they pin down the single-threaded meaning of
//! every primitive (which is all a *safe*-register contract promises without
//! concurrency). Concurrent semantics are the simulator's department.

use crate::{DataMem, JamOutcome, Pid, Tri, WordMem};

/// Exercise every word-level primitive of a backend. Panics on deviation.
pub fn exercise_word_mem<M: WordMem>(mem: &mut M) {
    let p0 = Pid(0);
    let p1 = Pid(1);

    // Safe registers: exact when unshared.
    let s = mem.alloc_safe(11);
    assert_eq!(mem.safe_read(p0, s), 11, "safe: initial value");
    mem.safe_write(p0, s, 12);
    assert_eq!(mem.safe_read(p1, s), 12, "safe: last write wins");

    // Atomic registers and RMW.
    let a = mem.alloc_atomic(5);
    assert_eq!(mem.atomic_read(p0, a), 5, "atomic: initial value");
    mem.atomic_write(p1, a, 6);
    assert_eq!(mem.atomic_read(p0, a), 6, "atomic: write visible");
    let old = mem.rmw(p0, a, &|x| x * 2);
    assert_eq!(old, 6, "rmw: returns the old value");
    assert_eq!(mem.atomic_read(p1, a), 12, "rmw: applies the function");

    // Sticky bits: Definition 4.1.
    let b = mem.alloc_sticky_bit();
    assert_eq!(mem.sticky_read(p0, b), Tri::Undef, "sticky: starts ⊥");
    assert_eq!(
        mem.sticky_jam(p0, b, true),
        JamOutcome::Success,
        "sticky: first jam"
    );
    assert_eq!(
        mem.sticky_jam(p1, b, true),
        JamOutcome::Success,
        "sticky: agreeing jam succeeds"
    );
    assert_eq!(
        mem.sticky_jam(p1, b, false),
        JamOutcome::Fail,
        "sticky: disagreeing jam fails"
    );
    assert_eq!(mem.sticky_read(p1, b), Tri::One, "sticky: value stuck");
    // Fence before reinitializing: a flush over another processor's
    // unfenced write is a protocol violation under the persistency model
    // (`DurableMem`); immediate-durability backends treat this as a no-op.
    mem.persist(p0);
    mem.persist(p1);
    mem.sticky_flush(p0, b);
    assert_eq!(mem.sticky_read(p0, b), Tri::Undef, "sticky: flush resets");
    assert_eq!(
        mem.sticky_jam(p1, b, false),
        JamOutcome::Success,
        "sticky: reusable after flush"
    );

    // Sticky words.
    let w = mem.alloc_sticky_word();
    assert_eq!(mem.sticky_word_read(p0, w), None, "sticky word: starts ⊥");
    assert_eq!(
        mem.sticky_word_jam(p0, w, 42),
        JamOutcome::Success,
        "sticky word: first jam"
    );
    assert_eq!(
        mem.sticky_word_jam(p1, w, 42),
        JamOutcome::Success,
        "sticky word: agreeing jam"
    );
    assert_eq!(
        mem.sticky_word_jam(p1, w, 43),
        JamOutcome::Fail,
        "sticky word: disagreeing jam"
    );
    assert_eq!(mem.sticky_word_read(p1, w), Some(42), "sticky word: stuck");
    mem.persist(p0);
    mem.sticky_word_flush(p1, w);
    assert_eq!(mem.sticky_word_read(p0, w), None, "sticky word: flush");

    // Test-and-set.
    let t = mem.alloc_tas();
    assert!(!mem.tas_read(p0, t), "tas: starts clear");
    assert!(!mem.tas_test_and_set(p0, t), "tas: first caller sees false");
    assert!(mem.tas_test_and_set(p1, t), "tas: later callers see true");
    assert!(mem.tas_read(p1, t), "tas: set after t&s");
    mem.persist(p1);
    mem.tas_reset(p0, t);
    assert!(!mem.tas_read(p0, t), "tas: reset clears");

    // Logical clock hooks.
    let t0 = mem.op_invoke(p0);
    let t1 = mem.op_return(p0);
    let t2 = mem.op_invoke(p1);
    assert!(
        t0 < t1 && t1 < t2,
        "op hooks: strictly increasing timestamps"
    );
}

/// Exercise the data-cell primitives of a backend. Panics on deviation.
pub fn exercise_data_mem<P, M>(mem: &mut M, sample: P, other: P)
where
    P: Clone + PartialEq + core::fmt::Debug,
    M: DataMem<P>,
{
    let p0 = Pid(0);
    let d = mem.alloc_data(None);
    assert_eq!(mem.data_read(p0, d), None, "data: starts empty");
    mem.data_write(p0, d, sample.clone());
    assert_eq!(
        mem.data_read(p0, d),
        Some(sample.clone()),
        "data: write/read"
    );
    mem.data_write(p0, d, other.clone());
    assert_eq!(mem.data_read(p0, d), Some(other), "data: overwrite");
    mem.data_clear(p0, d);
    assert_eq!(mem.data_read(p0, d), None, "data: clear");
    let d2 = mem.alloc_data(Some(sample.clone()));
    assert_eq!(mem.data_read(p0, d2), Some(sample), "data: preloaded alloc");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{NativeMem, OwnedMem};
    use crate::DurableMem;

    #[test]
    fn native_backend_conforms() {
        let mut mem: NativeMem<String> = NativeMem::new();
        exercise_word_mem(&mut mem);
        exercise_data_mem(&mut mem, "a".to_string(), "b".to_string());
    }

    #[test]
    fn packed_layout_conforms() {
        let mut mem: OwnedMem<String> = OwnedMem::default();
        exercise_word_mem(&mut mem);
        exercise_data_mem(&mut mem, "a".to_string(), "b".to_string());
    }

    #[test]
    fn durable_over_packed_layout_conforms() {
        let mut mem = DurableMem::new(OwnedMem::<String>::default());
        exercise_word_mem(&mut mem);
        exercise_data_mem(&mut mem, "a".to_string(), "b".to_string());
    }
}
