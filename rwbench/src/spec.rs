//! Workload definitions, the seeded request generator, and the metric
//! names the benchmark prints (the names `BENCHMARK.json` declares).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use svc::loadgen::KeyDist;
use svc::proto::Request;

/// Server worker threads, and replay threads in the traced run.
pub const WORKERS: usize = 2;
/// Store shards of every server and every in-process replay store.
pub const SHARDS: usize = 16;
/// Load connections (one client thread each).
pub const CONNS: usize = 2;
/// Requests kept outstanding per connection (closed loop).
pub const DEPTH: usize = 16;
/// Pairs requested by every SCAN.
pub const SCAN_COUNT: u32 = 512;

/// One named traffic mix and the server it runs against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Keys `0..prefill` are loaded as `value = key`; requests draw
    /// keys from the same range.
    pub prefill: u64,
    /// Zipf exponent of the key distribution (0 = uniform).
    pub theta: f64,
    /// Percent of requests that are SCANs.
    pub scan_pct: u32,
    /// Percent of requests that are PUT or DEL (split evenly); the rest
    /// are GETs.
    pub write_pct: u32,
    /// `rwled --backend`.
    pub backend: &'static str,
    /// Durable server (`--wal-dir`, `--fsync batch`) booted on a seeded
    /// log of [`LOG_RECORDS`] records.
    pub durable: bool,
    /// The traced run measures the `wal` layer on this stream: a durable
    /// replay into a `wal::Wal`, and recovery of a seeded log.
    pub wal_layer: bool,
    /// Listed in `BENCHMARK.json` and run by `--workload all`.
    pub kept: bool,
    /// Requests per thread in the traced replay.
    pub replay_ops: usize,
}

/// Records in the seeded log a durable server recovers at boot.
pub const LOG_RECORDS: usize = 48_000;
/// Mutations per record of the seeded log (so the log holds
/// `LOG_RECORDS * LOG_OPS_PER_RECORD` mutations whatever the seed).
pub const LOG_OPS_PER_RECORD: usize = 7;

/// Every workload. `durable-put` is not `kept`: on a 2-vCPU VM its
/// group-commit fsyncs make the hypervisor's I/O emulation steal a
/// quarter to a half of the guest's CPU, and its figures spread far
/// past any usable bound; its `wal` layer is measured on write-scan's
/// stream instead (same keys, same skew).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read-mostly",
        prefill: 2_000_000,
        theta: 0.0,
        scan_pct: 0,
        write_pct: 5,
        backend: "native",
        durable: false,
        replay_ops: 400_000,
        wal_layer: false,
        kept: true,
    },
    Workload {
        name: "write-scan",
        prefill: 100_000,
        theta: 0.9,
        scan_pct: 10,
        write_pct: 90,
        backend: "native",
        durable: false,
        replay_ops: 60_000,
        wal_layer: true,
        kept: true,
    },
    Workload {
        name: "durable-put",
        prefill: 100_000,
        theta: 0.9,
        scan_pct: 0,
        write_pct: 100,
        backend: "native",
        durable: true,
        replay_ops: 40_000,
        wal_layer: true,
        kept: false,
    },
    Workload {
        name: "sim-elision",
        prefill: 100_000,
        theta: 0.99,
        scan_pct: 10,
        write_pct: 50,
        backend: "sim",
        durable: false,
        replay_ops: 30_000,
        wal_layer: false,
        kept: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }
}

/// The seeded request stream of one connection. Connection `conn`
/// of seed `seed` yields the same requests in every run, both over
/// the wire and in the traced replay.
pub struct Gen {
    rng: SmallRng,
    dist: KeyDist,
    scan_pct: u32,
    write_pct: u32,
}

/// Decorrelates per-stream seeds (golden-ratio increment).
const STREAM_SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

impl Gen {
    /// The stream of connection `conn` under `seed`, drawing keys from
    /// `dist` (built once per run and shared: the Zipf table is the
    /// costly part).
    pub fn with_dist(w: &Workload, seed: u64, conn: u64, dist: KeyDist) -> Gen {
        Gen {
            rng: SmallRng::seed_from_u64(seed ^ conn.wrapping_add(1).wrapping_mul(STREAM_SPREAD)),
            dist,
            scan_pct: w.scan_pct,
            write_pct: w.write_pct,
        }
    }

    /// Draws the next request. PUTs always write `value = key + 1`
    /// over a prefill of `value = key`: the invariant every reply check
    /// rests on.
    pub fn next_request(&mut self) -> Request {
        let roll: u32 = self.rng.gen_range(0..100);
        let key = self.dist.sample(&mut self.rng);
        if roll < self.scan_pct {
            Request::Scan {
                start: key,
                count: SCAN_COUNT,
            }
        } else if roll < self.scan_pct + self.write_pct {
            if self.rng.gen_bool(0.5) {
                Request::Put {
                    key,
                    value: key + 1,
                }
            } else {
                Request::Del { key }
            }
        } else {
            Request::Get { key }
        }
    }
}

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("server_cpu_us_per_op", "us"),
    ("server_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("server.ops_per_batch", "ops"),
    ("server.barriers_per_mut", "ratio"),
    ("server.writev_per_op", "ratio"),
    ("server.sys_cpu_frac", "ratio"),
    ("wal.appends_per_fsync", "ratio"),
    ("wal.bytes_per_mut", "B"),
    ("sim.commit_htm_frac", "ratio"),
    ("sim.commit_rot_frac", "ratio"),
    ("sim.commit_ns_frac", "ratio"),
    ("sim.aborts_per_commit", "ratio"),
    ("proto.decode_ns", "ns"),
    ("proto.encode_ns", "ns"),
    ("native.get_ns", "ns"),
    ("native.scan_ns", "ns"),
    ("native.apply_batch_ns_per_mut", "ns"),
    ("native.barrier_stalls_per_batch", "count"),
    ("epoch.batch_barrier_ns", "ns"),
    ("wal.append_ns", "ns"),
    ("wal.wait_durable_us", "us"),
    ("wal.replay_ns_per_mut", "ns"),
    ("sim.get_ns", "ns"),
    ("sim.scan_ns", "ns"),
    ("sim.apply_batch_ns_per_mut", "ns"),
    ("sgl.get_ns", "ns"),
    ("sgl.scan_ns", "ns"),
    ("sgl.apply_batch_ns_per_mut", "ns"),
    ("trace.store_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    impl Gen {
        fn new(w: &Workload, seed: u64, conn: u64) -> Gen {
            Gen::with_dist(w, seed, conn, KeyDist::new(w.prefill, w.theta))
        }
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_per_connection() {
        let w = Workload::by_name("write-scan").unwrap();
        let take = |seed, conn| {
            let mut g = Gen::new(&w, seed, conn);
            (0..64).map(|_| g.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(7, 1));
        assert_ne!(take(7, 0), take(8, 0));
    }

    #[test]
    fn mixes_match_their_definitions() {
        for w in WORKLOADS {
            let mut g = Gen::new(&w, 1, 0);
            let (mut gets, mut muts, mut scans) = (0u32, 0u32, 0u32);
            for _ in 0..20_000 {
                match g.next_request() {
                    Request::Get { key } => {
                        assert!(key < w.prefill);
                        gets += 1
                    }
                    Request::Put { key, value } => {
                        assert_eq!(value, key + 1);
                        muts += 1
                    }
                    Request::Del { .. } => muts += 1,
                    Request::Scan { count, .. } => {
                        assert_eq!(count, SCAN_COUNT);
                        scans += 1
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            let pct = |n: u32| n as f64 / 200.0;
            assert!((pct(scans) - w.scan_pct as f64).abs() < 1.5, "{}", w.name);
            assert!((pct(muts) - w.write_pct as f64).abs() < 1.5, "{}", w.name);
            let get_pct = 100 - w.scan_pct - w.write_pct;
            assert!((pct(gets) - get_pct as f64).abs() < 1.5, "{}", w.name);
        }
    }
}
