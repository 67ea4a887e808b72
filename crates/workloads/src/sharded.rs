//! A sharded key-value store over [`SimHashMap`], one elided read-write
//! lock per shard.
//!
//! The service layer (`crates/svc`) routes every request through this
//! wrapper: sharding multiplies the number of independent RW-LE instances
//! so concurrent connections exercise many quiescence barriers at once
//! instead of serializing on a single lock's writer path, while each
//! shard individually still runs the full paper protocol (uninstrumented
//! readers, speculative writers, grace-period barriers).
//!
//! Keys are spread over shards by a multiplicative hash that is
//! deliberately different from [`SimHashMap`]'s `key % buckets` bucket
//! choice, so skewed (Zipf-hot) key ranges do not land in one shard *and*
//! one bucket simultaneously.

use htm::{AbortCause, MemAccess, ThreadCtx};
use simmem::{Addr, AllocError, SimAlloc};
use stats::ThreadStats;

use crate::hashmap::SimHashMap;
use crate::scheme::{Scheme, SchemeKind};

/// Fibonacci multiplier for the shard spreader.
const SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

/// Keys a [`ShardedKv::scan`] looks up per window; bounds its scratch.
const SCAN_WINDOW: u64 = 1024;

/// One shard: a hashmap plus the scheme instance that guards it.
struct Shard {
    map: SimHashMap,
    scheme: Scheme,
}

/// A sharded KV store, each shard guarded by its own [`Scheme`] lock.
pub struct ShardedKv {
    shards: Vec<Shard>,
}

/// Outcome of a [`ShardedKv::put`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// The key was absent; a new node was linked in.
    Inserted,
    /// The key existed; its value was updated in place (the pre-built
    /// node was returned to the spare slot for reuse).
    Updated,
}

impl ShardedKv {
    /// Builds `n_shards` shards of `buckets_per_shard` buckets each, all
    /// using scheme `kind`, sized for `max_threads` worker threads.
    pub fn create(
        alloc: &SimAlloc,
        kind: SchemeKind,
        n_shards: usize,
        buckets_per_shard: u32,
        max_threads: usize,
    ) -> Result<Self, AllocError> {
        assert!(n_shards > 0, "need at least one shard");
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let scheme = Scheme::build(kind, alloc, max_threads).map_err(|e| match e {
                rwle::RwLeError::Alloc(a) => a,
                // The fixed scheme presets never produce config errors.
                other => panic!("scheme build: {other}"),
            })?;
            shards.push(Shard {
                map: SimHashMap::create(alloc, buckets_per_shard)?,
                scheme,
            });
        }
        Ok(ShardedKv { shards })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_index(&self, key: u64) -> usize {
        ((key.wrapping_mul(SPREAD) >> 32) as usize) % self.shards.len()
    }

    #[inline]
    fn shard_of(&self, key: u64) -> &Shard {
        &self.shards[self.shard_index(key)]
    }

    /// Looks `key` up (uninstrumented read under RW-LE).
    pub fn get(&self, ctx: &mut ThreadCtx, st: &mut ThreadStats, key: u64) -> Option<u64> {
        let shard = self.shard_of(key);
        shard
            .scheme
            .read_cs(ctx, st, &mut |acc| shard.map.lookup(acc, key))
    }

    /// Inserts or updates `key`. Allocation happens *outside* the
    /// critical section (standard pre-allocation under lock elision);
    /// `spare` recycles the node when the key already existed.
    pub fn put(
        &self,
        ctx: &mut ThreadCtx,
        st: &mut ThreadStats,
        alloc: &SimAlloc,
        spare: &mut Option<Addr>,
        key: u64,
        value: u64,
    ) -> Result<PutOutcome, AllocError> {
        let shard = self.shard_of(key);
        let node = match spare.take() {
            Some(n) => {
                // Re-initialize the detached (thread-private) node
                // directly in memory; it is not reachable by any reader.
                let mem = alloc.mem();
                mem.store(n, key);
                mem.store(n.offset(1), value);
                mem.store(n.offset(2), Addr::NULL.to_word());
                n
            }
            None => shard.map.make_node(alloc, key, value)?,
        };
        let linked = shard
            .scheme
            .write_cs(ctx, st, &mut |acc| shard.map.insert(acc, node));
        if linked {
            Ok(PutOutcome::Inserted)
        } else {
            *spare = Some(node);
            Ok(PutOutcome::Updated)
        }
    }

    /// Removes `key`, returning whether it was present. The unlinked node
    /// is *leaked* until process exit: concurrent uninstrumented readers
    /// may still be traversing it, and the service keeps no per-node
    /// grace-period bookkeeping (see DESIGN.md §8).
    pub fn del(&self, ctx: &mut ThreadCtx, st: &mut ThreadStats, key: u64) -> bool {
        let shard = self.shard_of(key);
        shard
            .scheme
            .write_cs(ctx, st, &mut |acc| map_remove(&shard.map, acc, key))
    }

    /// Looks up every key in `[start, start + count)`, appending present
    /// pairs to `out` in key order without touching what `out` already
    /// holds. Long scans are the read-capacity stressor: under RW-LE they
    /// stay uninstrumented (no HTM footprint), under HLE-style baselines
    /// they abort and re-run.
    ///
    /// The range goes in windows of at most 1024 keys. Within
    /// a window each shard that owns a key takes one read critical
    /// section, whose body *overwrites* its own keys' slots with the
    /// lookup result — so a body re-run after an abort erases whatever
    /// its failed attempt wrote — and the slots are then compacted in
    /// key order.
    pub fn scan(
        &self,
        ctx: &mut ThreadCtx,
        st: &mut ThreadStats,
        start: u64,
        count: u32,
        out: &mut Vec<(u64, u64)>,
    ) {
        let end = start.saturating_add(count as u64);
        let n = self.shards.len();
        let mut slots: Vec<Option<u64>> = Vec::new();
        // Window offsets grouped by shard (a counting sort): shard `s`
        // owns `order[bounds[s]..bounds[s + 1]]`.
        let mut order: Vec<usize> = Vec::new();
        let mut bounds = vec![0usize; n + 1];
        let mut next = vec![0usize; n];
        let mut lo = start;
        while lo < end {
            let len = (end - lo).min(SCAN_WINDOW) as usize;
            bounds.fill(0);
            for i in 0..len {
                bounds[self.shard_index(lo + i as u64) + 1] += 1;
            }
            for s in 0..n {
                bounds[s + 1] += bounds[s];
            }
            next.copy_from_slice(&bounds[..n]);
            order.clear();
            order.resize(len, 0);
            for i in 0..len {
                let s = self.shard_index(lo + i as u64);
                order[next[s]] = i;
                next[s] += 1;
            }
            slots.clear();
            slots.resize(len, None);
            for (s, shard) in self.shards.iter().enumerate() {
                let mine = &order[bounds[s]..bounds[s + 1]];
                if mine.is_empty() {
                    continue;
                }
                shard.scheme.read_cs(ctx, st, &mut |acc| {
                    for &i in mine {
                        slots[i] = shard.map.lookup(acc, lo + i as u64)?;
                    }
                    Ok(())
                });
            }
            out.extend(
                slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| v.map(|v| (lo + i as u64, v))),
            );
            lo += len as u64;
        }
    }

    /// Pre-loads keys `0..n` with `value = key`, single-threaded,
    /// bypassing the HTM layer (initialization precedes concurrency).
    pub fn populate(&self, alloc: &SimAlloc, n: u64) -> Result<(), AllocError> {
        let mem = alloc.mem();
        for key in 0..n {
            let shard = self.shard_of(key);
            let node = shard.map.make_node(alloc, key, key)?;
            let bucket = shard.map.bucket_addr(key);
            let head = mem.load(bucket);
            mem.store(node.offset(2), head);
            mem.store(bucket, node.to_word());
        }
        Ok(())
    }
}

/// `remove` narrowed to a presence bool (the caller leaks the node).
fn map_remove(map: &SimHashMap, acc: &mut dyn MemAccess, key: u64) -> Result<bool, AbortCause> {
    Ok(map.remove(acc, key)?.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm::{HtmConfig, HtmRuntime};
    use simmem::SharedMem;
    use std::sync::Arc;

    fn setup(lines: u32) -> (Arc<HtmRuntime>, SimAlloc) {
        let mem = Arc::new(SharedMem::new_lines(lines));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let alloc = SimAlloc::new(mem);
        (rt, alloc)
    }

    #[test]
    fn basic_ops_roundtrip_across_shards() {
        let (rt, alloc) = setup(4096);
        let kv = ShardedKv::create(&alloc, SchemeKind::RwLeOpt, 4, 8, 2).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        let mut spare = None;
        for key in 0..100u64 {
            let out = kv
                .put(&mut ctx, &mut st, &alloc, &mut spare, key, key * 3)
                .unwrap();
            assert_eq!(out, PutOutcome::Inserted);
        }
        for key in 0..100u64 {
            assert_eq!(kv.get(&mut ctx, &mut st, key), Some(key * 3));
        }
        // Update in place recycles the node through the spare slot.
        let out = kv
            .put(&mut ctx, &mut st, &alloc, &mut spare, 7, 999)
            .unwrap();
        assert_eq!(out, PutOutcome::Updated);
        assert!(spare.is_some());
        assert_eq!(kv.get(&mut ctx, &mut st, 7), Some(999));
        assert!(kv.del(&mut ctx, &mut st, 7));
        assert!(!kv.del(&mut ctx, &mut st, 7));
        assert_eq!(kv.get(&mut ctx, &mut st, 7), None);
    }

    #[test]
    fn scan_returns_sorted_present_range() {
        let (rt, alloc) = setup(4096);
        let kv = ShardedKv::create(&alloc, SchemeKind::RwLeOpt, 3, 8, 2).unwrap();
        kv.populate(&alloc, 50).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        let mut out = Vec::new();
        kv.scan(&mut ctx, &mut st, 40, 20, &mut out);
        let expect: Vec<(u64, u64)> = (40..50).map(|k| (k, k)).collect();
        assert_eq!(out, expect);
    }

    /// Distinct shards owning a key of `[start, start + count)`.
    fn shards_touched(kv: &ShardedKv, start: u64, count: u64) -> u64 {
        let mut seen = vec![false; kv.n_shards()];
        for key in start..start + count {
            seen[kv.shard_index(key)] = true;
        }
        seen.iter().filter(|&&b| b).count() as u64
    }

    #[test]
    fn scan_appends_after_existing_entries_and_skips_unowned_shards() {
        let (rt, alloc) = setup(4096);
        let kv = ShardedKv::create(&alloc, SchemeKind::RwLeOpt, 4, 8, 2).unwrap();
        kv.populate(&alloc, 50).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        let mut out = vec![(900, 1), (3, 3)];
        kv.scan(&mut ctx, &mut st, 1, 3, &mut out);
        kv.scan(&mut ctx, &mut st, 10, 0, &mut out);
        assert_eq!(out, vec![(900, 1), (3, 3), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(st.ops, shards_touched(&kv, 1, 3));
    }

    /// HLE-family schemes re-run a read body after an abort. A body
    /// that pushed into the output would leave its failed attempt's
    /// pairs behind (duplicates, out-of-order keys); every scan here
    /// must come back exactly as the key range, in order.
    fn scans_exact_under_concurrent_writes(kind: SchemeKind) {
        const KEYS: u64 = 2000;
        let (rt, alloc) = setup(16384);
        let kv = ShardedKv::create(&alloc, kind, 4, 64, 3).unwrap();
        kv.populate(&alloc, KEYS).unwrap();
        let stop = std::sync::Mutex::new(false);
        let (kv, alloc, stop) = (&kv, &alloc, &stop);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let rt = Arc::clone(&rt);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut st = ThreadStats::new();
                    let mut spare = None;
                    let mut i = t;
                    // Updates only: every key stays present with value
                    // `key` or `key + 1`.
                    while !*stop.lock().unwrap() {
                        let key = (i * 7919) % KEYS;
                        kv.put(&mut ctx, &mut st, alloc, &mut spare, key, key + i % 2)
                            .unwrap();
                        i += 2;
                    }
                });
            }
            let mut ctx = rt.register();
            let mut st = ThreadStats::new();
            let mut out = Vec::new();
            let mut bad = None;
            for n in 0..300u64 {
                let start = (n * 613) % (KEYS - 200);
                out.clear();
                kv.scan(&mut ctx, &mut st, start, 200, &mut out);
                let exact = out.len() == 200
                    && out
                        .iter()
                        .zip(start..)
                        .all(|(&(k, v), want)| k == want && (v == k || v == k + 1));
                if !exact {
                    bad = Some(format!("scan {n} from {start}: {} pairs", out.len()));
                    break;
                }
            }
            *stop.lock().unwrap() = true;
            // Stop the writers before failing, so the scope can join.
            assert_eq!(bad, None, "{kind:?}");
        });
    }

    #[test]
    fn hle_scans_are_exact_under_concurrent_writes() {
        scans_exact_under_concurrent_writes(SchemeKind::Hle);
    }

    #[test]
    fn scm_hle_scans_are_exact_under_concurrent_writes() {
        scans_exact_under_concurrent_writes(SchemeKind::ScmHle);
    }

    #[test]
    fn adaptive_hle_scans_are_exact_under_concurrent_writes() {
        scans_exact_under_concurrent_writes(SchemeKind::AdaptiveHle);
    }

    #[test]
    fn populate_then_concurrent_mixed_ops_keep_torn_free() {
        let (rt, alloc) = setup(16384);
        let kv = Arc::new(ShardedKv::create(&alloc, SchemeKind::RwLeOpt, 4, 16, 4).unwrap());
        kv.populate(&alloc, 200).unwrap();
        let alloc = &alloc;
        std::thread::scope(|s| {
            for t in 0..4usize {
                let rt = Arc::clone(&rt);
                let kv = Arc::clone(&kv);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut st = ThreadStats::new();
                    let mut spare = None;
                    for i in 0..200u64 {
                        let key = (t as u64 * 131 + i * 7) % 400;
                        match i % 4 {
                            0 => {
                                kv.put(&mut ctx, &mut st, alloc, &mut spare, key, key + 1)
                                    .unwrap();
                            }
                            1 => {
                                if let Some(v) = kv.get(&mut ctx, &mut st, key) {
                                    // Values are always key or key+1.
                                    assert!(v == key || v == key + 1, "torn value {v} for {key}");
                                }
                            }
                            2 => {
                                kv.del(&mut ctx, &mut st, key);
                            }
                            _ => {
                                let mut out = Vec::new();
                                kv.scan(&mut ctx, &mut st, key, 8, &mut out);
                                for (k, v) in out {
                                    assert!(v == k || v == k + 1, "torn scan {v} for {k}");
                                }
                            }
                        }
                    }
                    // 150 single-shard ops + one read CS per shard that
                    // owns a key of each 8-key scan.
                    let scan_sections: u64 = (0..200u64)
                        .filter(|i| i % 4 == 3)
                        .map(|i| {
                            let key = (t as u64 * 131 + i * 7) % 400;
                            shards_touched(&kv, key, 8)
                        })
                        .sum();
                    assert_eq!(st.ops, 150 + scan_sections);
                });
            }
        });
    }
}
