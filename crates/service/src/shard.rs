//! One shard: a slice of the object space backed by per-key universal
//! constructions.
//!
//! A shard is **single-owner**: exactly one worker thread holds it (the
//! server hands each shard to one worker and never moves it), so the shard
//! needs no interior synchronization of its own — all the concurrency
//! control lives *inside* each `Universal`, and the shard can take `&mut
//! self` for the lazy key → object table. Per-key instances are built with
//! `n = 1` (the owning worker is the only processor that ever applies to
//! them), so the Θ(n²) pool collapses to its constant floor. Each instance
//! is labeled with the shard id via the builder's `shard(..)` seam for
//! observability.
//!
//! Because one thread owns the whole arena, its registers are **packed**
//! ([`OwnedMem`]): the 128-byte line per register that keeps processors
//! from false sharing in a shared arena buys nothing here. A counter key
//! then costs ≈6 KB of heap, ≈8 KB under group commit (≈36 and ≈40 KB
//! padded), with the same register count; `crates/service/tests/footprint.rs`
//! gates both.
//!
//! The shard is generic over its word space `M`: the plain service uses
//! [`OwnedMem`] (volatile — state dies with the worker), while the
//! supervised durable mode wraps it in `DurableMem` ([`DurableShard`]) so
//! a worker kill can run the real crash–restart protocol
//! ([`Shard::crash_recover`]) and recover every key.

use crate::wire::WireCodec;
use sbu_core::{bounded::UniversalConfig, CellPayload, Universal};
use sbu_mem::{DataMem, DurableMem, OwnedMem, Pid};
use std::collections::HashMap;

/// A single-owner slice of the keyed object space over word space `M`
/// (which must implement `DataMem<CellPayload<S>>` to be applied to).
pub struct Shard<S: WireCodec, M = OwnedMem<CellPayload<S>>> {
    /// This shard's index in the [`crate::ShardMap`] partition.
    id: usize,
    /// The initial state cloned into every freshly touched key.
    template: S,
    /// The shard's private memory: every per-key instance allocates here.
    mem: M,
    /// Lazily populated key → object table.
    objects: HashMap<u64, Universal<S>>,
    /// Operations applied by this shard (feeds `service.shard_imbalance`).
    ops: u64,
    /// Build per-key instances in group-commit mode so a drained queue of
    /// frames for one key commits as a single append
    /// ([`Shard::apply_batch`]).
    group_commit: bool,
}

impl<S> Shard<S>
where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    /// An empty volatile shard; keys materialize on first touch as clones
    /// of `template`.
    pub fn new(id: usize, template: S) -> Self {
        Self::with_mem(id, template, OwnedMem::default())
    }
}

impl<S, M> Shard<S, M>
where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    M: DataMem<CellPayload<S>>,
{
    /// An empty shard allocating from an explicit word space (the durable
    /// mode's entry point).
    pub fn with_mem(id: usize, template: S, mem: M) -> Self {
        Self {
            id,
            template,
            mem,
            objects: HashMap::new(),
            ops: 0,
            group_commit: false,
        }
    }

    /// Build per-key instances with [`UniversalConfig::group_commit`], so
    /// [`Shard::apply_batch`] commits a drained queue for one key as a
    /// single list append. Applies to keys materialized *after* the call;
    /// set it before the first touch (the service does, at boot).
    pub fn group_commit(mut self, on: bool) -> Self {
        self.group_commit = on;
        self
    }

    /// The object at `key`, materialized on its first touch, and the word
    /// space it lives in — one hash lookup either way.
    fn object(&mut self, key: u64) -> (&Universal<S>, &M) {
        let Self {
            id,
            template,
            mem,
            objects,
            group_commit,
            ..
        } = self;
        let obj = objects.entry(key).or_insert_with(|| {
            let config = UniversalConfig::for_procs(1).group_commit(*group_commit);
            Universal::builder(1)
                .config(config)
                .shard(*id)
                .build(mem, template.clone())
        });
        (obj, mem)
    }

    /// Apply `op` to the object at `key`, materializing it if this is the
    /// key's first touch. Always runs as `Pid(0)`: the owning worker is
    /// the instance's only processor.
    pub fn apply(&mut self, key: u64, op: &S::Op) -> S::Resp {
        self.ops += 1;
        let (obj, mem) = self.object(key);
        obj.apply(mem, Pid(0), op)
    }

    /// Apply a whole block of `ops` to the object at `key`. Under
    /// [`Shard::group_commit`] the block commits as **one** list append
    /// with one state recompute ([`Universal::apply_batch`]); otherwise it
    /// degrades to per-command applies. Responses come back in op order
    /// either way.
    pub fn apply_batch(&mut self, key: u64, ops: &[S::Op]) -> Vec<S::Resp> {
        let mut resps = Vec::with_capacity(ops.len());
        self.apply_batch_into(key, ops, &mut resps);
        resps
    }

    /// [`Shard::apply_batch`], appending the responses to `resps` — the
    /// server's drain reuses one buffer, so a per-command block allocates
    /// nothing.
    pub(crate) fn apply_batch_into(&mut self, key: u64, ops: &[S::Op], resps: &mut Vec<S::Resp>) {
        self.ops += ops.len() as u64;
        let group_commit = self.group_commit;
        let (obj, mem) = self.object(key);
        if group_commit {
            resps.extend(obj.apply_batch(mem, Pid(0), ops));
        } else {
            resps.extend(ops.iter().map(|op| obj.apply(mem, Pid(0), op)));
        }
    }
}

/// A shard whose word space is a [`DurableMem`] over [`OwnedMem`]: the
/// recoverable twin of the plain [`Shard`], built by [`Shard::durable`].
pub type DurableShard<S> = Shard<S, DurableMem<OwnedMem<CellPayload<S>>>>;

impl<S> DurableShard<S>
where
    S: WireCodec + Send + Sync,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
{
    /// An empty durable shard (honest persistence: every in-flight write
    /// survives a crash — the conservative-hardware model). Group commit
    /// stays off: the durable kill path requeues unapplied frames one by
    /// one, a per-command contract.
    pub fn durable(id: usize, template: S) -> Self {
        Self::with_mem(id, template, DurableMem::new(OwnedMem::default()))
    }

    /// Model the owning worker dying and coming back: crash the shard's
    /// single processor (resolving unfenced persists by the torn-persist
    /// policy), restart it, and run [`Universal::recover`] on every
    /// materialized object — the same protocol the crash-era stress
    /// harness drives (`crates/stress`, `RecoverableCounter`). This is a
    /// *processor* crash, the paper's fault model: the worker thread dies
    /// but the word space survives, exactly like the in-process service
    /// where a respawned worker reopens the same memory. Idempotent per
    /// crash; acked operations survive. Returns any durability violations
    /// the memory recorded (empty under the honest policy).
    pub fn crash_recover(&mut self) -> Vec<String> {
        self.mem.crash::<CellPayload<S>>(&[Pid(0)]);
        self.mem.restart(Pid(0));
        for obj in self.objects.values() {
            obj.recover(&self.mem, Pid(0));
        }
        self.mem.violations()
    }
}

impl<S: WireCodec, M> Shard<S, M> {
    /// This shard's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of keys that have been touched (and so materialized).
    pub fn keys(&self) -> usize {
        self.objects.len()
    }

    /// Total operations this shard has applied.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The word space every key's registers live in (for footprint
    /// accounting, e.g. `OwnedMem::allocation_census`).
    pub fn mem(&self) -> &M {
        &self.mem
    }
}

impl<S: WireCodec, M> std::fmt::Debug for Shard<S, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("keys", &self.objects.len())
            .field("ops", &self.ops)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbu_spec::specs::{CounterOp, CounterSpec};

    #[test]
    fn keys_are_independent_and_lazy() {
        let mut shard = Shard::new(0, CounterSpec::new());
        assert_eq!(shard.keys(), 0);
        assert_eq!(shard.apply(1, &CounterOp::Inc), 1);
        assert_eq!(shard.apply(1, &CounterOp::Inc), 2);
        assert_eq!(shard.apply(2, &CounterOp::Inc), 1); // fresh key, fresh state
        assert_eq!(shard.apply(1, &CounterOp::Read), 2);
        assert_eq!(shard.keys(), 2);
        assert_eq!(shard.ops(), 4);
    }

    #[test]
    fn batched_applies_match_per_command_applies() {
        let mut plain = Shard::new(0, CounterSpec::new());
        let mut batched = Shard::new(0, CounterSpec::new()).group_commit(true);
        let ops = vec![CounterOp::Inc, CounterOp::Add(5), CounterOp::Inc];
        let a = plain.apply_batch(7, &ops);
        let b = batched.apply_batch(7, &ops);
        assert_eq!(a, b, "batched and per-command responses must agree");
        assert_eq!(a, vec![1, 6, 7]);
        assert_eq!(plain.apply(7, &CounterOp::Read), 7);
        assert_eq!(batched.apply(7, &CounterOp::Read), 7);
        assert_eq!(batched.ops(), 4);
        // Mixed singles and blocks interleave cleanly on one object.
        assert_eq!(
            batched.apply_batch(7, &[CounterOp::Inc, CounterOp::Inc]),
            vec![8, 9]
        );
        assert_eq!(batched.apply(7, &CounterOp::Read), 9);
    }

    #[test]
    fn durable_shard_survives_crash_recover() {
        let mut shard = Shard::durable(0, CounterSpec::new());
        for _ in 0..5 {
            shard.apply(1, &CounterOp::Inc);
        }
        shard.apply(2, &CounterOp::Inc);
        let violations = shard.crash_recover();
        assert!(violations.is_empty(), "{violations:?}");
        // Acked state survived the crash.
        assert_eq!(shard.apply(1, &CounterOp::Read), 5);
        assert_eq!(shard.apply(2, &CounterOp::Read), 1);
        // And the shard keeps working (several crash cycles).
        for round in 2..5 {
            shard.apply(1, &CounterOp::Inc);
            assert!(shard.crash_recover().is_empty());
            assert_eq!(shard.apply(1, &CounterOp::Read), 4 + round);
        }
    }
}
