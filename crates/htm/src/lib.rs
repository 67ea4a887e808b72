//! A software-simulated POWER8-like best-effort hardware transactional
//! memory.
//!
//! The RW-LE paper (EuroSys 2016) depends on two POWER8 features no other
//! commodity ISA exposes: transaction **suspend/resume** and
//! **rollback-only transactions** (ROTs). This crate models both — plus
//! the coherence-driven conflict behaviour lock elision relies on — in
//! software, over the word-addressable memory of the `simmem` crate:
//!
//! * **Best-effort transactions** ([`TxMode::Htm`]): loads and stores are
//!   tracked at 64-byte-line granularity and subject to capacity limits;
//!   stores are buffered and written back atomically at commit.
//! * **Rollback-only transactions** ([`TxMode::Rot`]): stores tracked and
//!   buffered, loads untracked and unlimited — the weaker-but-cheaper
//!   flavour RW-LE uses for its fallback write path.
//! * **Suspend/resume** ([`Tx::suspend`]): escape speculation, run
//!   arbitrary non-transactional code (RW-LE runs its quiescence barrier
//!   there), then resume; conflicts arriving while suspended doom the
//!   transaction and surface at the next access or commit.
//! * **Requester-wins conflicts**: any load of a speculatively-written
//!   line aborts the writer; any store aborts the writer and all tracked
//!   readers — including accesses from plain, non-transactional code,
//!   which is what lets RW-LE run readers completely uninstrumented.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use htm::{HtmConfig, HtmRuntime, TxMode};
//! use simmem::{Addr, SharedMem};
//!
//! let mem = Arc::new(SharedMem::new_lines(64));
//! let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
//! let mut ctx = rt.register();
//!
//! let mut tx = ctx.begin(TxMode::Htm);
//! let v = tx.read(Addr(0))?;
//! tx.write(Addr(0), v + 1)?;
//! tx.commit()?;
//! assert_eq!(mem.load(Addr(0)), 1);
//! # Ok::<(), htm::AbortCause>(())
//! ```

#![warn(missing_docs)]

mod cause;
mod config;
mod intmap;
mod runtime;
mod tx;

pub use cause::{AbortCause, TxMode, ABORT_LOCK_BUSY};
pub use config::{HtmConfig, MAX_SLOTS};
pub use intmap::{IntMap, IntSet};
pub use runtime::{HtmRuntime, Telemetry};
pub use tx::{EpochReader, MemAccess, NonTx, ThreadCtx, Tx, ABORT_CANCELLED};

#[cfg(test)]
mod tests {
    use super::*;
    use simmem::{Addr, SharedMem};
    use std::sync::Arc;

    fn setup(lines: u32) -> (Arc<SharedMem>, Arc<HtmRuntime>) {
        let mem = Arc::new(SharedMem::new_lines(lines));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        (mem, rt)
    }

    #[test]
    fn htm_commit_publishes_atomically() {
        let (mem, rt) = setup(64);
        let mut ctx = rt.register();
        let mut tx = ctx.begin(TxMode::Htm);
        tx.write(Addr(0), 1).unwrap();
        tx.write(Addr(64), 2).unwrap();
        // Buffered stores invisible before commit.
        assert_eq!(mem.load(Addr(0)), 0);
        assert_eq!(mem.load(Addr(64)), 0);
        tx.commit().unwrap();
        assert_eq!(mem.load(Addr(0)), 1);
        assert_eq!(mem.load(Addr(64)), 2);
    }

    #[test]
    fn tx_reads_own_writes() {
        let (_mem, rt) = setup(64);
        let mut ctx = rt.register();
        let mut tx = ctx.begin(TxMode::Htm);
        tx.write(Addr(5), 99).unwrap();
        assert_eq!(tx.read(Addr(5)).unwrap(), 99);
        // Other words of the same line still read committed memory.
        assert_eq!(tx.read(Addr(6)).unwrap(), 0);
        tx.commit().unwrap();
    }

    #[test]
    fn rollback_discards_writes() {
        let (mem, rt) = setup(64);
        let mut ctx = rt.register();
        let mut tx = ctx.begin(TxMode::Htm);
        tx.write(Addr(0), 42).unwrap();
        let cause = tx.abort(7);
        assert_eq!(cause, AbortCause::Explicit(7));
        assert_eq!(mem.load(Addr(0)), 0);
        // The context is reusable afterwards.
        let mut tx = ctx.begin(TxMode::Htm);
        tx.write(Addr(0), 1).unwrap();
        tx.commit().unwrap();
        assert_eq!(mem.load(Addr(0)), 1);
    }

    #[test]
    fn drop_rolls_back() {
        let (mem, rt) = setup(64);
        let mut ctx = rt.register();
        {
            let mut tx = ctx.begin(TxMode::Htm);
            tx.write(Addr(0), 42).unwrap();
            // Dropped here without commit.
        }
        assert_eq!(mem.load(Addr(0)), 0);
        assert_eq!(rt.probe_line_writer(0), None, "claim released on drop");
    }

    #[test]
    fn nt_read_aborts_speculative_writer() {
        let (mem, rt) = setup(64);
        let mut w = rt.register();
        let r = rt.register();
        let mut tx = w.begin(TxMode::Htm);
        tx.write(Addr(0), 42).unwrap();
        // Concurrent non-transactional reader touches the written line.
        assert_eq!(r.read_nt(Addr(0)), 0, "speculative value invisible");
        assert_eq!(tx.commit(), Err(AbortCause::ConflictNonTx));
        assert_eq!(mem.load(Addr(0)), 0);
    }

    #[test]
    fn nt_read_of_untouched_line_is_harmless() {
        let (_mem, rt) = setup(64);
        let mut w = rt.register();
        let r = rt.register();
        let mut tx = w.begin(TxMode::Htm);
        tx.write(Addr(0), 42).unwrap();
        let _ = r.read_nt(Addr(64)); // different line
        tx.commit().unwrap();
    }

    #[test]
    fn tx_write_aborts_tx_reader() {
        let (_mem, rt) = setup(64);
        let mut a = rt.register();
        let mut b = rt.register();
        let mut ta = a.begin(TxMode::Htm);
        assert_eq!(ta.read(Addr(0)).unwrap(), 0);
        let mut tb = b.begin(TxMode::Htm);
        tb.write(Addr(0), 9).unwrap(); // dooms the reader (requester wins)
        assert_eq!(ta.read(Addr(8)), Err(AbortCause::ConflictTx));
        tb.commit().unwrap();
    }

    #[test]
    fn tx_read_aborts_speculative_writer() {
        let (_mem, rt) = setup(64);
        let mut a = rt.register();
        let mut b = rt.register();
        let mut ta = a.begin(TxMode::Htm);
        ta.write(Addr(0), 9).unwrap();
        let mut tb = b.begin(TxMode::Htm);
        assert_eq!(tb.read(Addr(0)).unwrap(), 0, "sees pre-speculative value");
        assert_eq!(ta.commit(), Err(AbortCause::ConflictTx));
        tb.commit().unwrap();
    }

    #[test]
    fn read_capacity_aborts_htm_but_not_rot() {
        let mem = Arc::new(SharedMem::new_lines(4096));
        let cfg = HtmConfig {
            htm_read_capacity: 16,
            ..HtmConfig::default()
        };
        let rt = HtmRuntime::new(Arc::clone(&mem), cfg);
        let mut ctx = rt.register();
        // HTM: 17th distinct line overflows.
        let mut tx = ctx.begin(TxMode::Htm);
        let mut res = Ok(0);
        for i in 0..17u32 {
            res = tx.read(Addr(i * 8));
            if res.is_err() {
                break;
            }
        }
        assert_eq!(res, Err(AbortCause::Capacity));
        drop(tx);
        // ROT: reads are untracked, no overflow.
        let mut rot = ctx.begin(TxMode::Rot);
        for i in 0..1000u32 {
            rot.read(Addr((i % 512) * 8)).unwrap();
        }
        rot.commit().unwrap();
    }

    #[test]
    fn write_capacity_differs_between_modes() {
        let mem = Arc::new(SharedMem::new_lines(4096));
        let cfg = HtmConfig {
            htm_write_capacity: 8,
            rot_write_capacity: 64,
            ..HtmConfig::default()
        };
        let rt = HtmRuntime::new(Arc::clone(&mem), cfg);
        let mut ctx = rt.register();
        let mut tx = ctx.begin(TxMode::Htm);
        let mut res = Ok(());
        for i in 0..9u32 {
            res = tx.write(Addr(i * 8), 1);
            if res.is_err() {
                break;
            }
        }
        assert_eq!(res, Err(AbortCause::Capacity));
        drop(tx);
        let mut rot = ctx.begin(TxMode::Rot);
        for i in 0..64u32 {
            rot.write(Addr(i * 8), 1).unwrap();
        }
        rot.commit().unwrap();
        assert_eq!(mem.load(Addr(63 * 8)), 1);
    }

    #[test]
    fn rot_reads_do_not_conflict_with_later_writers() {
        // A ROT that *read* a line is invisible to a writer of that line:
        // only its stores are protected.
        let (_mem, rt) = setup(64);
        let mut a = rt.register();
        let r = rt.register();
        let mut rot = a.begin(TxMode::Rot);
        rot.read(Addr(0)).unwrap();
        rot.write(Addr(8), 5).unwrap();
        // Non-transactional store to the line the ROT only read: no doom.
        r.write_nt(Addr(0), 77);
        rot.commit().unwrap();
    }

    #[test]
    fn rot_store_conflicts_like_htm() {
        let (mem, rt) = setup(64);
        let mut a = rt.register();
        let r = rt.register();
        let mut rot = a.begin(TxMode::Rot);
        rot.write(Addr(0), 5).unwrap();
        assert_eq!(r.read_nt(Addr(0)), 0);
        assert_eq!(rot.commit(), Err(AbortCause::ConflictNonTx));
        assert_eq!(mem.load(Addr(0)), 0);
    }

    #[test]
    fn suspend_escapes_speculation() {
        let (mem, rt) = setup(64);
        let mut a = rt.register();
        let mut tx = a.begin(TxMode::Htm);
        tx.write(Addr(0), 1).unwrap();
        tx.suspend(|nt| {
            // Non-transactional store while suspended: immediately visible.
            nt.write(Addr(64), 7);
            assert_eq!(nt.read(Addr(64)), 7);
        });
        assert_eq!(mem.load(Addr(64)), 7);
        tx.commit().unwrap();
        assert_eq!(mem.load(Addr(0)), 1);
    }

    #[test]
    fn conflict_during_suspension_kills_transaction_at_resume() {
        // Figure 2 of the paper: a reader touching a suspended writer's
        // write-set line aborts it.
        let (mem, rt) = setup(64);
        let mut w = rt.register();
        let r = rt.register();
        let mut tx = w.begin(TxMode::Htm);
        tx.write(Addr(0), 1).unwrap();
        tx.suspend(|_nt| {
            // While the writer is suspended a new reader arrives.
            assert_eq!(r.read_nt(Addr(0)), 0);
        });
        assert_eq!(tx.commit(), Err(AbortCause::ConflictNonTx));
        assert_eq!(mem.load(Addr(0)), 0);
    }

    #[test]
    fn explicit_lock_busy_abort_code() {
        let (_mem, rt) = setup(64);
        let mut ctx = rt.register();
        let tx = ctx.begin(TxMode::Htm);
        assert_eq!(
            tx.abort(ABORT_LOCK_BUSY),
            AbortCause::Explicit(ABORT_LOCK_BUSY)
        );
    }

    #[test]
    fn transient_interrupts_fire_with_probability_one() {
        let mem = Arc::new(SharedMem::new_lines(64));
        let cfg = HtmConfig::default().with_page_faults(1.0);
        let rt = HtmRuntime::new(mem, cfg);
        let mut ctx = rt.register();
        let mut tx = ctx.begin(TxMode::Htm);
        assert_eq!(tx.read(Addr(0)), Err(AbortCause::TransientInterrupt));
    }

    #[test]
    fn transactional_cas_semantics() {
        let (mem, rt) = setup(64);
        mem.store(Addr(0), 10);
        let mut ctx = rt.register();
        let mut tx = ctx.begin(TxMode::Htm);
        assert_eq!(tx.cas(Addr(0), 10, 11).unwrap(), Ok(10));
        assert_eq!(tx.cas(Addr(0), 10, 12).unwrap(), Err(11));
        tx.commit().unwrap();
        assert_eq!(mem.load(Addr(0)), 11);
    }

    #[test]
    fn concurrent_counter_increments_are_serializable() {
        // N threads × M transactional increments must total N*M.
        let mem = Arc::new(SharedMem::new_lines(16));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        const N: usize = 4;
        const M: u64 = 200;
        std::thread::scope(|s| {
            for _ in 0..N {
                let rt = Arc::clone(&rt);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut done = 0;
                    while done < M {
                        let mut tx = ctx.begin(TxMode::Htm);
                        let body = (|| -> Result<(), AbortCause> {
                            let v = tx.read(Addr(0))?;
                            tx.write(Addr(0), v + 1)?;
                            Ok(())
                        })();
                        let ok = body.is_ok() && tx.commit().is_ok();
                        if ok {
                            done += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(mem.load(Addr(0)), (N as u64) * M);
    }

    #[test]
    fn concurrent_disjoint_writers_all_commit() {
        let mem = Arc::new(SharedMem::new_lines(256));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        std::thread::scope(|s| {
            for t in 0..4usize {
                let rt = Arc::clone(&rt);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    // Each thread owns its own lines; conflicts are
                    // impossible, every first attempt must commit.
                    for i in 0..50u32 {
                        let mut tx = ctx.begin(TxMode::Htm);
                        let addr = Addr(((t as u32) * 64 + i) * 8);
                        tx.write(addr, 1).unwrap();
                        tx.commit().unwrap();
                    }
                });
            }
        });
        let total: u64 = (0..256u32).map(|l| mem.load(Addr(l * 8))).sum();
        assert_eq!(total, 4 * 50);
    }
}
