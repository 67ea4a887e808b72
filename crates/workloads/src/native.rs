//! The native execution backend: the RW-LE protocol over plain process
//! memory.
//!
//! Readers are truly uninstrumented — `enter` the epoch set, load the
//! active slot pointer, read an ordinary `BTreeMap`, `exit`. Writer
//! commit is emulated as **epoch-quiesced double-buffered publication**
//! (the PairLock/Left-Right active/inactive flip): each shard keeps two
//! copies of its map; a writer mutates the *inactive* copy under the
//! shard's writer mutex, flips the active index (the commit point — one
//! aggregate store, the native stand-in for a ROT's all-or-nothing store
//! burst), waits one grace period on the existing scalable summary-tree
//! barrier so no reader can still hold the old copy, then replays the
//! mutation into it. Outside a writer's critical section the two copies
//! are identical.
//!
//! What this keeps from the simulated backend: linearizable single-key
//! operations, torn-free reads, the quiescence-barrier structure (and
//! its `barrier_stalls`/`barriers_shared` accounting, including grace
//! sharing across shards through the one shared [`EpochSet`]). What it
//! drops: abort/commit breakdowns (nothing speculates, nothing aborts)
//! and `sched` schedule exploration (plain memory has no access hooks).
//!
//! ## Key placement and scans
//!
//! A key goes to a shard by its 64-key block (`key >> 6` through
//! the Fibonacci spreader), not by its own hash. Neighbouring keys
//! therefore share a shard, and a SCAN walks `[start, end)` one block at
//! a time: one read section per block, whose `BTreeMap::range` slice is
//! appended straight to the output — ascending by construction, with no
//! all-shard fan-out and no sort. A wire SCAN (at most 1024 keys) visits
//! at most 17 blocks. The cost is on the write side: a hot key range
//! (the Zipf head `0..64`) now shares one shard's writer mutex, where the
//! per-key spreader scattered it over all shards.
//!
//! ## Memory ordering
//!
//! The ISSUE's Release-flip/Acquire-load recipe is *not* sufficient:
//! reader entry (clock store, then active-index load) races the writer's
//! commit (active-index store, then clock scan) in the classic
//! store-buffering shape, and with Release/Acquire both sides can miss
//! each other — the writer would replay into a copy a reader still
//! traverses. Exactly the lazy-subscription unsafety Dice et al.
//! (arXiv:1407.6968) catalog. Both the flip and the reader's index load
//! are therefore `SeqCst`, joining the protocol's SeqCst commit-point
//! discipline: in the single total order, either the reader's clock
//! store precedes the writer's scan (the barrier waits for it) or the
//! reader sees the new index (and never touches the old copy).

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use epoch::EpochSet;
use stats::{CommitKind, ThreadStats};

use crate::backend::{
    apply_each, BatchOutcome, DurableSink, Lsn, MutOp, MutReply, StoreBackend, StoreFull,
    StoreSession, NO_LSN,
};
use crate::sharded::PutOutcome;

/// Fibonacci multiplier for the shard spreader (same as [`crate::sharded`]).
const SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

/// log2 of [`BLOCK`].
const BLOCK_SHIFT: u32 = 6;

/// Keys per placement block: keys `b * BLOCK .. (b + 1) * BLOCK` all
/// live in one shard (module docs, "Key placement and scans").
const BLOCK: u64 = 1 << BLOCK_SHIFT;

/// One shard: two map copies, the active index, and the writer mutex
/// that serializes this shard's publications.
struct NativeShard {
    /// The two copies. Index [`NativeShard::reader_active_idx`] is read
    /// by any number of epoch-protected readers; the other copy is
    /// private to the mutex-holding writer.
    slots: [UnsafeCell<BTreeMap<u64, u64>>; 2],
    /// Which slot readers use (0 or 1).
    active: AtomicUsize,
    /// Serializes writers per shard.
    writer: Mutex<()>,
}

// SAFETY: the double-buffer protocol keeps the two `UnsafeCell` maps
// race-free. Readers only dereference `slots[active]` between epoch
// enter/exit; a writer only mutates `slots[1 - active]` while holding
// `writer`, and touches the previously-active copy only after a full
// grace period has drained every reader that could have observed its
// index (both the flip and the reader's index load are SeqCst, so a
// reader either sees the new index or its odd clock is seen by the
// barrier — see the module docs).
unsafe impl Sync for NativeShard {}

impl NativeShard {
    /// A shard whose two copies both start as `map`.
    fn new(map: BTreeMap<u64, u64>) -> NativeShard {
        NativeShard {
            slots: [UnsafeCell::new(map.clone()), UnsafeCell::new(map)],
            active: AtomicUsize::new(0),
            writer: Mutex::new(()),
        }
    }

    /// The active index as a reader loads it. SeqCst: races the writer's
    /// flip-then-scan in the store-buffering shape (see module docs);
    /// anything weaker lets both sides miss each other. Reader side of
    /// `wmm::proto`'s `native_flip_dekker` litmus, which kills every
    /// one-notch weakening with a reproducing seed.
    #[inline]
    fn reader_active_idx(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// The active index as the mutex-holding writer reads it. Relaxed:
    /// only writers store this index, and they are serialized by
    /// `writer`, so the lock's own synchronization already orders the
    /// previous writer's store before this load.
    #[inline]
    fn writer_active_idx(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Flips readers onto `idx` — the commit point. SeqCst so the flip
    /// is ordered before the barrier's clock scan in the single total
    /// order (module docs; the paper's R1 commit-point discipline).
    /// Writer side of `wmm::proto`'s `native_flip_dekker` litmus.
    #[inline]
    fn publish(&self, idx: usize) {
        self.active.store(idx, Ordering::SeqCst);
    }

    /// Runs `f` over the active copy inside an epoch read section.
    fn read<R>(
        &self,
        epochs: &EpochSet,
        tid: usize,
        f: impl FnOnce(&BTreeMap<u64, u64>) -> R,
    ) -> R {
        epochs.enter(tid);
        let idx = self.reader_active_idx();
        // SAFETY: `idx` was active after our epoch entry, so any writer
        // that retires this copy must first complete a grace period that
        // includes us; the copy is not mutated while we hold it.
        let map = unsafe { &*self.slots[idx].get() };
        let out = f(map);
        epochs.exit(tid);
        out
    }

    /// Publishes `mutate` (applied to both copies around a quiescence
    /// barrier) and returns the first application's result.
    fn write<R>(
        &self,
        epochs: &EpochSet,
        tid: usize,
        st: &mut ThreadStats,
        snap: &mut Vec<u64>,
        mutate: impl Fn(&mut BTreeMap<u64, u64>) -> R,
    ) -> R {
        let _guard = self.writer.lock().unwrap();
        let active = self.writer_active_idx();
        let inactive = 1 - active;
        // SAFETY: the inactive copy is private to the mutex-holding
        // writer — readers dereference only the active index, and the
        // previous writer's grace period already drained everyone who
        // saw this copy as active.
        let out = mutate(unsafe { &mut *self.slots[inactive].get() });
        self.publish(inactive);
        let grace = epochs.grace_snapshot();
        let barrier = epochs.synchronize_from(Some(tid), grace, snap);
        st.barrier_stalls += barrier.stalls;
        st.barriers_shared += barrier.shared as u64;
        // SAFETY: the grace period drained every reader that could have
        // loaded `active` as its index; the copy is now writer-private.
        // Both copies held identical data before this call, so replaying
        // restores the identical-copies invariant.
        mutate(unsafe { &mut *self.slots[active].get() });
        out
    }
}

/// The native backend: plain-memory shards plus the shared epoch set
/// whose grace periods writers on *any* shard can share.
pub struct NativeBackend {
    shards: Vec<NativeShard>,
    epochs: EpochSet,
    next_tid: AtomicUsize,
    capacity: usize,
}

impl NativeBackend {
    /// Builds `n_shards` shards sized for `max_threads` sessions, with
    /// keys `0..prefill` pre-loaded as `value = key` (single-threaded,
    /// before any sharing).
    pub fn create(n_shards: usize, max_threads: usize, prefill: u64) -> NativeBackend {
        assert!(n_shards > 0, "need at least one shard");
        assert!(max_threads > 0, "need at least one session slot");
        // Each shard's map is bulk-built once from its ascending keys and
        // cloned for the second copy, so the identical-copies invariant
        // holds by construction before the first writer runs.
        let blocks = prefill.div_ceil(BLOCK);
        let shards = (0..n_shards)
            .map(|s| {
                let map = (0..blocks)
                    .filter(|&b| shard_of_block(b, n_shards) == s)
                    .flat_map(|b| (b << BLOCK_SHIFT..prefill).take(BLOCK as usize))
                    .map(|k| (k, k))
                    .collect();
                NativeShard::new(map)
            })
            .collect();
        NativeBackend {
            shards,
            epochs: EpochSet::new(max_threads),
            next_tid: AtomicUsize::new(0),
            capacity: max_threads,
        }
    }

    #[inline]
    fn shard_of(&self, key: u64) -> &NativeShard {
        &self.shards[shard_index(key, self.shards.len())]
    }

    /// Claims the next epoch slot. Relaxed: the counter only hands out
    /// distinct indices; slot ownership is published by the thread
    /// itself through the epoch clock, not through this counter.
    fn register(&self) -> usize {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        assert!(
            tid < self.capacity,
            "native backend sized for {} sessions, session {} requested",
            self.capacity,
            tid + 1
        );
        tid
    }
}

/// The shard (of `n_shards`) that holds `key`: its 64-key block
/// through the Fibonacci spreader. Public so tests outside this crate
/// can check that their keys really span several shards.
#[inline]
pub fn shard_index(key: u64, n_shards: usize) -> usize {
    shard_of_block(key >> BLOCK_SHIFT, n_shards)
}

#[inline]
fn shard_of_block(block: u64, n_shards: usize) -> usize {
    ((block.wrapping_mul(SPREAD) >> 32) as usize) % n_shards
}

impl StoreBackend for NativeBackend {
    fn session(&self) -> Box<dyn StoreSession + '_> {
        Box::new(NativeSession {
            backend: self,
            tid: self.register(),
            st: ThreadStats::new(),
            snap: Vec::new(),
            groups: Vec::new(),
        })
    }

    fn label(&self) -> &'static str {
        "native"
    }
}

/// Per-thread session over [`NativeBackend`]: an epoch slot plus the
/// reusable barrier snapshot buffer and the per-shard grouping scratch
/// the batched apply path reuses across calls.
struct NativeSession<'a> {
    backend: &'a NativeBackend,
    tid: usize,
    st: ThreadStats,
    snap: Vec<u64>,
    groups: Vec<Vec<usize>>,
}

/// Applies one mutation to one map copy.
fn apply_one(map: &mut BTreeMap<u64, u64>, op: &MutOp) -> MutReply {
    match *op {
        MutOp::Put { key, value } => MutReply::Put(Ok(match map.insert(key, value) {
            None => PutOutcome::Inserted,
            Some(_) => PutOutcome::Updated,
        })),
        MutOp::Del { key } => MutReply::Del(map.remove(&key).is_some()),
    }
}

impl StoreSession for NativeSession<'_> {
    fn get(&mut self, key: u64) -> Option<u64> {
        let shard = self.backend.shard_of(key);
        let out = shard.read(&self.backend.epochs, self.tid, |map| map.get(&key).copied());
        // Reads are uninstrumented, exactly as under simulated RW-LE.
        self.st.commit(CommitKind::Uninstrumented);
        out
    }

    fn put(&mut self, key: u64, value: u64) -> Result<PutOutcome, StoreFull> {
        let shard = self.backend.shard_of(key);
        let prev = shard.write(
            &self.backend.epochs,
            self.tid,
            &mut self.st,
            &mut self.snap,
            |map| map.insert(key, value),
        );
        // The publication flip stands in for a ROT's aggregate store.
        self.st.commit(CommitKind::Rot);
        Ok(match prev {
            None => PutOutcome::Inserted,
            Some(_) => PutOutcome::Updated,
        })
    }

    fn del(&mut self, key: u64) -> bool {
        let shard = self.backend.shard_of(key);
        let removed = shard.write(
            &self.backend.epochs,
            self.tid,
            &mut self.st,
            &mut self.snap,
            |map| map.remove(&key).is_some(),
        );
        self.st.commit(CommitKind::Rot);
        removed
    }

    fn scan(&mut self, start: u64, count: u32, out: &mut Vec<(u64, u64)>) {
        // One read section (and one uninstrumented commit) per block:
        // a block lives in one shard, so its `range` slice is complete
        // and the blocks come out in key order.
        let end = start.saturating_add(count as u64);
        let mut lo = start;
        while lo < end {
            // Saturating: the last block's end would wrap to key 0.
            let hi = (lo | (BLOCK - 1)).saturating_add(1).min(end);
            let shard = self.backend.shard_of(lo);
            shard.read(&self.backend.epochs, self.tid, |map| {
                out.extend(map.range(lo..hi).map(|(&k, &v)| (k, v)));
            });
            self.st.commit(CommitKind::Uninstrumented);
            lo = hi;
        }
    }

    /// The amortized batch path: group per shard, one flip per touched
    /// shard, **one** quiescence barrier for the whole batch.
    ///
    /// Within one batch epoch a shard may flip only once — a second flip
    /// before the replay would hand readers a copy missing the earlier
    /// group's mutations — so each shard's whole group is applied to its
    /// inactive copy before the single publication. Shard writer locks
    /// are taken in ascending shard order, the one lock order every
    /// batching session shares, so concurrent batches cannot deadlock
    /// (single-op `put`/`del` holds at most one shard lock and cannot
    /// participate in a cycle). The grace snapshot is taken by
    /// [`EpochSet::batch_barrier`] *after the last flip*, which is what
    /// makes one barrier cover every retired copy; see the module docs
    /// for why an earlier snapshot would be unsound.
    fn apply_batch(&mut self, ops: &[MutOp], replies: &mut Vec<MutReply>) -> BatchOutcome {
        let (out, _lsn) = self.apply_batch_inner(ops, replies, None);
        out
    }

    /// The durable override: the write-set is appended *between* the
    /// publication flips and the quiescence barrier, while every touched
    /// shard's writer lock is still held. Two batches that conflict on
    /// any shard serialize their appends through that shard's lock, so
    /// log order equals commit order without a global order lock — and
    /// the group-commit fsync the append kicks off runs concurrently
    /// with the grace period the batch pays anyway.
    fn apply_batch_durable(
        &mut self,
        ops: &[MutOp],
        replies: &mut Vec<MutReply>,
        sink: &dyn DurableSink,
    ) -> (BatchOutcome, Lsn) {
        self.apply_batch_inner(ops, replies, Some(sink))
    }

    fn take_stats(&mut self) -> ThreadStats {
        std::mem::take(&mut self.st)
    }
}

impl NativeSession<'_> {
    /// The batch path shared by the volatile and durable entry points;
    /// see [`StoreSession::apply_batch`] on `NativeSession` for the
    /// phase structure.
    fn apply_batch_inner(
        &mut self,
        ops: &[MutOp],
        replies: &mut Vec<MutReply>,
        sink: Option<&dyn DurableSink>,
    ) -> (BatchOutcome, Lsn) {
        replies.clear();
        if ops.is_empty() {
            return (BatchOutcome::default(), NO_LSN);
        }
        let n_shards = self.backend.shards.len();
        if self.groups.len() < n_shards {
            self.groups.resize(n_shards, Vec::new());
        }
        for group in &mut self.groups {
            group.clear();
        }
        for (i, op) in ops.iter().enumerate() {
            self.groups[shard_index(op.key(), n_shards)].push(i);
        }
        replies.resize(ops.len(), MutReply::Del(false));

        // Phase 1: apply each shard's group to its inactive copy and
        // publish — ascending shard order, locks held until the replay.
        let mut locked = Vec::with_capacity(n_shards.min(ops.len()));
        for (s, group) in self.groups.iter().enumerate().take(n_shards) {
            if group.is_empty() {
                continue;
            }
            let shard = &self.backend.shards[s];
            let guard = shard.writer.lock().unwrap();
            let active = shard.writer_active_idx();
            // SAFETY: the inactive copy is private to the mutex-holding
            // writer, exactly as in `NativeShard::write`.
            let map = unsafe { &mut *shard.slots[1 - active].get() };
            for &i in group {
                replies[i] = apply_one(map, &ops[i]);
            }
            shard.publish(1 - active);
            locked.push((s, guard, active));
        }

        // Phase 1.5 (durable only): append the write-set while the
        // shard locks are held — the commit-order window — so the log
        // flush rides the barrier below instead of extending the batch.
        // Native PUTs are infallible (process heap), so `ops` *is* the
        // effective write-set. The wal lock nests strictly inside the
        // shard locks on every path, so lock order is acyclic.
        let lsn = match sink {
            Some(sink) => sink.append(ops),
            None => NO_LSN,
        };

        // Phase 2: one barrier retires every copy the batch just
        // flipped away from (snapshot taken after the final flip).
        let barrier = self
            .backend
            .epochs
            .batch_barrier(Some(self.tid), &mut self.snap);
        self.st.barrier_stalls += barrier.stalls;
        self.st.barriers_shared += barrier.shared as u64;

        // Phase 3: replay each group into the retired copy to restore
        // the identical-copies invariant, then release the shard locks.
        for (s, _guard, old_active) in &locked {
            let shard = &self.backend.shards[*s];
            // SAFETY: the grace period above drained every reader that
            // could have held `old_active` as its index; the copy is now
            // writer-private (we still hold the shard's writer lock).
            let map = unsafe { &mut *shard.slots[*old_active].get() };
            for &i in &self.groups[*s] {
                apply_one(map, &ops[i]);
            }
        }
        drop(locked);

        // Same per-mutation accounting as the unbatched path: each
        // mutation is one ROT-emulated publication.
        for _ in ops {
            self.st.commit(CommitKind::Rot);
        }
        (
            BatchOutcome {
                barriers: (!barrier.shared) as u64,
                shared: barrier.shared as u64,
            },
            lsn,
        )
    }
}

/// Single-global-lock canary over plain process memory: one mutex around
/// one `BTreeMap`, none of the elision machinery. This is the
/// `--scheme SGL --backend native` baseline the CI batching gate
/// normalizes against — it reports the `"native"` backend label so
/// `regress --relative-to SGL` can match it to the RW-LE native rows at
/// the same configuration (the drift key includes the backend tag).
pub struct SglBackend {
    map: Mutex<BTreeMap<u64, u64>>,
}

impl SglBackend {
    /// Builds the locked map with keys `0..prefill` pre-loaded as
    /// `value = key`.
    pub fn create(prefill: u64) -> SglBackend {
        SglBackend {
            map: Mutex::new((0..prefill).map(|k| (k, k)).collect()),
        }
    }
}

impl StoreBackend for SglBackend {
    fn session(&self) -> Box<dyn StoreSession + '_> {
        Box::new(SglSession {
            backend: self,
            st: ThreadStats::new(),
        })
    }

    fn label(&self) -> &'static str {
        "native"
    }
}

/// Per-thread session over [`SglBackend`]: every operation takes the
/// global lock. `apply_batch` deliberately keeps the per-op loop — the
/// canary must not benefit from the batching machinery it exists to
/// baseline — but reports no barriers, because it never quiesces.
struct SglSession<'a> {
    backend: &'a SglBackend,
    st: ThreadStats,
}

impl StoreSession for SglSession<'_> {
    fn get(&mut self, key: u64) -> Option<u64> {
        let out = self.backend.map.lock().unwrap().get(&key).copied();
        self.st.commit(CommitKind::Sgl);
        out
    }

    fn put(&mut self, key: u64, value: u64) -> Result<PutOutcome, StoreFull> {
        let prev = self.backend.map.lock().unwrap().insert(key, value);
        self.st.commit(CommitKind::Sgl);
        Ok(match prev {
            None => PutOutcome::Inserted,
            Some(_) => PutOutcome::Updated,
        })
    }

    fn del(&mut self, key: u64) -> bool {
        let removed = self.backend.map.lock().unwrap().remove(&key).is_some();
        self.st.commit(CommitKind::Sgl);
        removed
    }

    fn scan(&mut self, start: u64, count: u32, out: &mut Vec<(u64, u64)>) {
        let end = start.saturating_add(count as u64);
        let map = self.backend.map.lock().unwrap();
        for (&k, &v) in map.range(start..end) {
            out.push((k, v));
        }
        drop(map);
        self.st.commit(CommitKind::Sgl);
    }

    fn apply_batch(&mut self, ops: &[MutOp], replies: &mut Vec<MutReply>) -> BatchOutcome {
        apply_each(self, ops, replies);
        BatchOutcome::default()
    }

    fn take_stats(&mut self) -> ThreadStats {
        std::mem::take(&mut self.st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both copies of every shard hold the same map.
    fn assert_copies_identical(backend: &NativeBackend) {
        for shard in &backend.shards {
            // SAFETY: callers drop every session first and no other
            // thread exists; both copies are quiescent.
            let a = unsafe { &*shard.slots[0].get() };
            // SAFETY: as above.
            let b = unsafe { &*shard.slots[1].get() };
            assert_eq!(a, b);
        }
    }

    #[test]
    fn copies_stay_identical_after_writes() {
        let backend = NativeBackend::create(2, 2, 4 * BLOCK);
        let keys = [100, 5, 3, 3 * BLOCK + 1];
        assert_ne!(shard_index(keys[0], 2), shard_index(keys[1], 2));
        {
            let mut s = backend.session();
            s.put(keys[0], 7).unwrap();
            s.del(keys[1]);
            s.put(keys[2], 99).unwrap();
            s.del(keys[3]);
        }
        assert_copies_identical(&backend);
    }

    #[test]
    fn prefill_places_whole_blocks_in_both_copies() {
        let prefill = 10 * BLOCK + 5;
        let backend = NativeBackend::create(4, 1, prefill);
        assert_copies_identical(&backend);
        let mut total = 0;
        for (s, shard) in backend.shards.iter().enumerate() {
            // SAFETY: no session exists; the copies are quiescent.
            let map = unsafe { &*shard.slots[0].get() };
            for (&k, &v) in map {
                assert_eq!((k, shard_index(k, 4)), (v, s));
            }
            total += map.len() as u64;
        }
        assert_eq!(total, prefill);
    }

    #[test]
    fn scan_takes_one_read_section_per_block() {
        let backend = NativeBackend::create(16, 1, 1000);
        let mut s = backend.session();
        let mut out = Vec::new();
        // 10..=139 spans blocks 0, 1 and 2.
        s.scan(10, 130, &mut out);
        assert_eq!(out, (10..140).map(|k| (k, k)).collect::<Vec<_>>());
        // A full wire SCAN from an unaligned start: 17 blocks.
        s.scan(BLOCK + 1, 1024, &mut out);
        s.scan(0, 0, &mut out);
        let st = s.take_stats();
        assert_eq!(st.commits(CommitKind::Uninstrumented), 3 + 17);
    }

    #[test]
    fn writer_barrier_accounting_flows_into_stats() {
        let backend = NativeBackend::create(1, 2, 0);
        let mut s = backend.session();
        for k in 0..50 {
            s.put(k, k).unwrap();
        }
        let st = s.take_stats();
        assert_eq!(st.commits(CommitKind::Rot), 50);
        assert_eq!(st.ops, 50);
    }

    #[test]
    #[should_panic(expected = "sized for 1 sessions")]
    fn oversubscribed_sessions_panic() {
        let backend = NativeBackend::create(1, 1, 0);
        let _a = backend.session();
        let _b = backend.session();
    }

    #[test]
    fn batched_apply_matches_sequential_semantics() {
        let backend = NativeBackend::create(4, 2, 10);
        // The batch spans two shards (keys 3 and 7 share block 0).
        assert_ne!(shard_index(100, 4), shard_index(3, 4));
        let mut s = backend.session();
        let ops = [
            MutOp::Put { key: 100, value: 1 },
            MutOp::Del { key: 3 },
            // Same key twice in one batch: ops order must hold.
            MutOp::Put { key: 100, value: 2 },
            MutOp::Del { key: 100 },
            MutOp::Put { key: 7, value: 9 },
        ];
        let mut replies = Vec::new();
        let out = s.apply_batch(&ops, &mut replies);
        // The whole batch pays exactly one grace period (own or shared).
        assert_eq!(out.barriers + out.shared, 1);
        assert_eq!(
            replies,
            vec![
                MutReply::Put(Ok(PutOutcome::Inserted)),
                MutReply::Del(true),
                MutReply::Put(Ok(PutOutcome::Updated)),
                MutReply::Del(true),
                // Key 7 was prefilled.
                MutReply::Put(Ok(PutOutcome::Updated)),
            ]
        );
        assert_eq!(s.get(100), None);
        assert_eq!(s.get(7), Some(9));
        let st = s.take_stats();
        assert_eq!(st.commits(CommitKind::Rot), 5);
        drop(s);
        assert_copies_identical(&backend);
    }

    #[test]
    fn empty_batch_pays_no_barrier() {
        let backend = NativeBackend::create(2, 1, 0);
        let mut s = backend.session();
        let mut replies = vec![MutReply::Del(true)];
        let out = s.apply_batch(&[], &mut replies);
        assert_eq!(out, BatchOutcome::default());
        assert!(replies.is_empty());
    }

    #[test]
    fn sgl_canary_reports_native_label_and_sgl_commits() {
        let backend = SglBackend::create(20);
        assert_eq!(backend.label(), "native");
        let mut s = backend.session();
        assert_eq!(s.get(7), Some(7));
        assert_eq!(s.put(100, 1), Ok(PutOutcome::Inserted));
        assert!(s.del(100));
        let mut out = Vec::new();
        s.scan(0, 5, &mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(s.take_stats().commits(CommitKind::Sgl), 4);
    }
}
