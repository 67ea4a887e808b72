//! The end-to-end run: boot a real `rwled`, drive it closed-loop from
//! [`crate::spec::CONNS`] connections, and read the server's side from
//! STATS and `/proc`. Durable workloads end with a restart check.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use stats::LatencyHist;
use svc::loadgen::KeyDist;
use svc::proto::{Request, Response, ServerStats, MAX_SCAN};
use wal::{FsyncPolicy, Wal};
use workloads::backend::{DurableSink, MutOp};

use crate::check::{check, snapshot_mismatches};
use crate::load::{client, ClientOut, Window};
use crate::rwled::{Cpu, Rwled};
use crate::spec::{Gen, Workload, CONNS, LOG_OPS_PER_RECORD, LOG_RECORDS, SHARDS, WORKERS};

/// Load before the timed window starts (caches fill, batches settle).
pub const WARMUP: Duration = Duration::from_secs(1);

/// Most server boots of one run.
pub const MAX_BOOTS: usize = 40;

/// Stream index of the seeded recovery log (apart from the clients').
const LOG_STREAM: u64 = 1000;

/// A deliberately broken run, to show the checks catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// No fault.
    None,
    /// The durability restart boots on an empty log directory.
    LoseWal,
}

/// How to run one workload end to end.
pub struct Plan<'a> {
    /// The workload.
    pub w: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    /// Least server boots; more follow while `setup_budget` lasts (up
    /// to [`MAX_BOOTS`]). The last boot serves the load, and `setup_s`
    /// is the median over all of them.
    pub boots: usize,
    /// Time the extra boots may take.
    pub setup_budget: Duration,
    /// The `rwled` executable.
    pub bin: &'a Path,
    /// Working directory for logs.
    pub work: &'a Path,
    /// Deliberate fault.
    pub fault: Inject,
}

/// One metric value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The reported value.
    pub value: f64,
    /// Samples it summarizes.
    pub samples: u64,
}

/// Everything the end-to-end run measured.
pub struct E2e {
    /// `ops_per_s`: median over the quiet sub-windows
    /// ([`quiet_windows`]).
    pub ops_per_s: Value,
    /// `p50_us`: median over the quiet sub-windows of their medians.
    pub p50_us: Value,
    /// `p99_us`: median over the quiet sub-windows of their p99s.
    pub p99_us: Value,
    /// `server_cpu_us_per_op`: median over the quiet sub-windows.
    pub cpu_us_per_op: Value,
    /// `server_rss_mb`: peak RSS at the end of the window.
    pub rss_mb: Value,
    /// `setup_s`: median over boots.
    pub setup_s: Value,
    /// Requests sent by the clients.
    pub sent: u64,
    /// Failed requests by cause.
    pub failures: Failures,
    /// STATS over the timed window (end minus start).
    pub window_stats: ServerStats,
    /// Server system time over user+system time, timed window.
    pub sys_cpu_frac: f64,
    /// Drain summary line (`commits[...] aborts[...]`).
    pub summary: String,
    /// `rwled` command line.
    pub cmdline: String,
    /// Durability restart: seconds to boot on the used log, and the
    /// recovery line it printed.
    pub restart: Option<(f64, String)>,
    /// Per-sub-window series: ops/s, p50 µs, p99 µs, server CPU µs/op,
    /// and the host's steal share.
    pub series: [Vec<f64>; 5],
}

/// Failed requests, by cause.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    /// Socket errors.
    pub transport: u64,
    /// `Busy` replies.
    pub shed: u64,
    /// Requests never answered.
    pub unanswered: u64,
    /// Replies that failed their check.
    pub invalid: u64,
    /// Keys that differ across the durability restart.
    pub durability: u64,
}

impl Failures {
    /// Failed requests (socket errors are counted through the requests
    /// they left unanswered).
    pub fn total(&self) -> u64 {
        self.shed + self.unanswered + self.invalid + self.durability
    }
}

/// The `rwled` arguments of a workload.
pub fn rwled_args(w: &Workload, seed: u64, seconds: u64, wal_dir: Option<&Path>) -> Vec<String> {
    let mut a: Vec<String> = [
        "--port",
        "0",
        "--scheme",
        "rw-le_opt",
        "--backend",
        w.backend,
        "--threads",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    a.push(WORKERS.to_string());
    a.extend(["--shards".into(), SHARDS.to_string()]);
    a.extend(["--prefill".into(), w.prefill.to_string()]);
    a.extend(["--seed".into(), seed.to_string()]);
    if w.backend == "sim" {
        a.extend(["--capacity".into(), sim_capacity(seconds).to_string()]);
    }
    if let Some(dir) = wal_dir {
        a.extend(["--wal-dir".into(), dir.display().to_string()]);
        a.extend(["--fsync".into(), "batch".into()]);
    }
    a
}

/// Simulated-memory node budget for inserts: deleted nodes are not
/// reclaimed, so it grows with the run. The sim store serves under
/// 100k ops/s, at most half of them PUTs.
pub fn sim_capacity(seconds: u64) -> u64 {
    400_000 + 60_000 * (seconds + WARMUP.as_secs() + 2)
}

/// Writes the fixed-length seeded log a durable server recovers at
/// boot: [`LOG_RECORDS`] records of [`LOG_OPS_PER_RECORD`] mutations
/// drawn from the workload's own key distribution.
pub fn write_seeded_log(dir: &Path, w: &Workload, seed: u64) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let wal = Wal::open(dir, FsyncPolicy::Off, 1).map_err(io::Error::other)?;
    let mut gen = Gen::with_dist(w, seed, LOG_STREAM, KeyDist::new(w.prefill, w.theta));
    let mut ops = Vec::with_capacity(LOG_OPS_PER_RECORD);
    for _ in 0..LOG_RECORDS {
        ops.clear();
        while ops.len() < LOG_OPS_PER_RECORD {
            match gen.next_request() {
                Request::Put { key, value } => ops.push(MutOp::Put { key, value }),
                Request::Del { key } => ops.push(MutOp::Del { key }),
                _ => {}
            }
        }
        wal.append(&ops);
    }
    // Dropping an `Off` log syncs it.
    drop(wal);
    Ok(())
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Every key of the store, read by SCANs (each reply checked).
fn snapshot(server: &Rwled, prefill: u64, failures: &mut Failures) -> io::Result<Vec<(u64, u64)>> {
    let mut all = Vec::new();
    let mut start = 0;
    while start < prefill {
        let req = Request::Scan {
            start,
            count: MAX_SCAN,
        };
        let resp = server.request(&req)?;
        if check(&req, &resp).is_err() {
            failures.invalid += 1;
        }
        if let Response::Pairs(p) = resp {
            all.extend(p);
        }
        start += u64::from(MAX_SCAN);
    }
    Ok(all)
}

fn delta(a: &ServerStats, b: &ServerStats) -> ServerStats {
    ServerStats {
        enqueued: b.enqueued - a.enqueued,
        replied: b.replied - a.replied,
        shed: b.shed - a.shed,
        malformed: b.malformed - a.malformed,
        timeouts: b.timeouts - a.timeouts,
        gets: b.gets - a.gets,
        puts: b.puts - a.puts,
        dels: b.dels - a.dels,
        scans: b.scans - a.scans,
        conns: b.conns - a.conns,
        batches: b.batches - a.batches,
        batch_ops: b.batch_ops - a.batch_ops,
        barriers: b.barriers - a.barriers,
        barriers_shared: b.barriers_shared - a.barriers_shared,
        writev_calls: b.writev_calls - a.writev_calls,
        wal_appends: b.wal_appends - a.wal_appends,
        wal_fsyncs: b.wal_fsyncs - a.wal_fsyncs,
        wal_bytes: b.wal_bytes - a.wal_bytes,
        batch_hist: std::array::from_fn(|i| b.batch_hist[i] - a.batch_hist[i]),
        scheme: b.scheme.clone(),
        backend: b.backend.clone(),
        durability: b.durability.clone(),
    }
}

/// Length of one sub-window of the timed window.
pub const SUB_WINDOW: Duration = Duration::from_millis(500);

/// Sub-windows of a timed window of `seconds` (at least one).
fn sub_windows(seconds: u64) -> usize {
    ((Duration::from_secs(seconds).as_nanos() / SUB_WINDOW.as_nanos()) as usize).max(1)
}

/// Runs one workload end to end.
pub fn run(plan: &Plan<'_>) -> io::Result<E2e> {
    let w = plan.w;
    let wal_dir: Option<PathBuf> = w.durable.then(|| {
        plan.work
            .join(format!("wal-{}-{}", w.name, std::process::id()))
    });
    if let Some(dir) = &wal_dir {
        write_seeded_log(dir, &w, plan.seed)?;
    }
    let args = rwled_args(&w, plan.seed, plan.seconds, wal_dir.as_deref());
    let cmdline = format!("{} {}", plan.bin.display(), args.join(" "));
    let result = run_with(plan, &args, wal_dir.as_deref(), cmdline);
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(dir.with_extension("lost"));
    }
    result
}

fn run_with(
    plan: &Plan<'_>,
    args: &[String],
    wal_dir: Option<&Path>,
    cmdline: String,
) -> io::Result<E2e> {
    let w = plan.w;
    let mut setups = Vec::with_capacity(MAX_BOOTS);
    let began = Instant::now();
    while setups.len() + 1 < plan.boots
        || (setups.len() + 1 < MAX_BOOTS && began.elapsed() < plan.setup_budget)
    {
        let s = Rwled::boot(plan.bin, args)?;
        setups.push(s.setup_s);
        s.shutdown()?;
    }
    let server = Rwled::boot(plan.bin, args)?;
    setups.push(server.setup_s);

    let n = sub_windows(plan.seconds);
    let sub = SUB_WINDOW;
    let win = Window {
        start: Instant::now() + WARMUP,
        sub,
        n,
    };
    let stop = AtomicBool::new(false);
    let dist = KeyDist::new(w.prefill, w.theta);
    let mut cpu: Vec<Cpu> = Vec::with_capacity(n + 1);
    let mut steal: Vec<(u64, u64)> = Vec::with_capacity(n + 1);
    let (outs, stats0, stats1, rss) = std::thread::scope(|s| -> io::Result<_> {
        let clients: Vec<_> = (0..CONNS as u64)
            .map(|c| {
                let gen = Gen::with_dist(&w, plan.seed, c, dist.clone());
                let stop = &stop;
                s.spawn(move || client(server.addr, gen, win, stop))
            })
            .collect();
        let sampled = (|| -> io::Result<_> {
            sleep_until(win.start);
            cpu.push(server.cpu()?);
            steal.push(host_steal());
            let stats0 = server.stats()?;
            for i in 0..n {
                sleep_until(win.end_of(i));
                cpu.push(server.cpu()?);
                steal.push(host_steal());
            }
            let stats1 = server.stats()?;
            let rss = server.peak_rss_mib()?;
            Ok((stats0, stats1, rss))
        })();
        stop.store(true, Ordering::Relaxed);
        let outs: Vec<ClientOut> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let (stats0, stats1, rss) = sampled?;
        Ok((outs, stats0, stats1, rss))
    })?;

    let mut failures = Failures::default();
    let mut sent = 0;
    for o in &outs {
        sent += o.sent;
        failures.transport += o.transport;
        failures.shed += o.shed;
        failures.unanswered += o.unanswered;
        failures.invalid += o.invalid;
    }
    let sub_s = sub.as_secs_f64();
    let (mut rates, mut p50s, mut p99s, mut cpus) = (vec![], vec![], vec![], vec![]);
    let mut lat_counts = Vec::with_capacity(n);
    for i in 0..n {
        let mut h = LatencyHist::new();
        for o in &outs {
            h.merge(&o.hists[i]);
        }
        let ops = h.count();
        lat_counts.push(ops);
        rates.push(ops as f64 / sub_s);
        p50s.push(h.p50() as f64 / 1e3);
        p99s.push(h.p99() as f64 / 1e3);
        let ns = cpu[i + 1].ns.saturating_sub(cpu[i].ns);
        cpus.push(ns as f64 / 1e3 / ops.max(1) as f64);
    }
    let steals: Vec<f64> = steal
        .windows(2)
        .map(|p| p[1].0.saturating_sub(p[0].0) as f64 / p[1].1.saturating_sub(p[0].1).max(1) as f64)
        .collect();
    let (c0, c1) = (cpu[0], cpu[n]);
    let ticks = (c1.utime + c1.stime).saturating_sub(c0.utime + c0.stime);
    let sys_cpu_frac = c1.stime.saturating_sub(c0.stime) as f64 / ticks.max(1) as f64;

    let mut restart = None;
    let lines = match wal_dir {
        Some(dir) => {
            let before = snapshot(&server, w.prefill, &mut failures)?;
            let lines = server.shutdown()?;
            let restart_dir = match plan.fault {
                Inject::None => dir.to_path_buf(),
                Inject::LoseWal => {
                    let lost = dir.with_extension("lost");
                    let _ = std::fs::remove_dir_all(&lost);
                    lost
                }
            };
            let args = rwled_args(&w, plan.seed, plan.seconds, Some(&restart_dir));
            let again = Rwled::boot(plan.bin, &args)?;
            let after = snapshot(&again, w.prefill, &mut failures)?;
            restart = Some((again.setup_s, again.recovered.clone().unwrap_or_default()));
            again.shutdown()?;
            failures.durability = snapshot_mismatches(&before, &after);
            lines
        }
        None => server.shutdown()?,
    };
    let summary = lines
        .iter()
        .find(|l| l.trim_start().starts_with("commits["))
        .map(|l| l.trim().to_string())
        .unwrap_or_default();

    let quiet = quiet_windows(&steals);
    let pick = |xs: &[f64]| median(&quiet.iter().map(|&i| xs[i]).collect::<Vec<_>>());
    let quiet_subs = quiet.len() as u64;
    let quiet_lat: u64 = quiet.iter().map(|&i| lat_counts[i]).sum();
    Ok(E2e {
        ops_per_s: Value {
            value: pick(&rates),
            samples: quiet_subs,
        },
        p50_us: Value {
            value: pick(&p50s),
            samples: quiet_lat,
        },
        p99_us: Value {
            value: pick(&p99s),
            samples: quiet_lat,
        },
        cpu_us_per_op: Value {
            value: pick(&cpus),
            samples: quiet_subs,
        },
        rss_mb: Value {
            value: rss,
            samples: 1,
        },
        setup_s: Value {
            value: median(&setups),
            samples: setups.len() as u64,
        },
        sent,
        failures,
        window_stats: delta(&stats0, &stats1),
        sys_cpu_frac,
        summary,
        cmdline,
        restart,
        series: [rates, p50s, p99s, cpus, steals],
    })
}

/// Steal share above which a sub-window does not count.
pub const STEAL_LIMIT: f64 = 0.05;

/// The sub-windows the reported values are taken over. Time the
/// hypervisor steals from this VM is not the program's: it stalls whole
/// sub-windows at random. Sub-windows whose host steal share exceeds
/// [`STEAL_LIMIT`] are left out; when that would leave fewer than half,
/// the quieter half (ranked by steal share) is used instead. The record
/// keeps every sub-window.
fn quiet_windows(steals: &[f64]) -> Vec<usize> {
    let half = steals.len().div_ceil(2);
    let calm: Vec<usize> = (0..steals.len())
        .filter(|&i| steals[i] <= STEAL_LIMIT)
        .collect();
    if calm.len() >= half {
        return calm;
    }
    let mut order: Vec<usize> = (0..steals.len()).collect();
    order.sort_by(|&a, &b| steals[a].total_cmp(&steals[b]).then(a.cmp(&b)));
    order.truncate(half);
    order
}

/// Host-wide (steal, total) clock ticks from the `cpu` line of
/// `/proc/stat`; zeros when unreadable.
fn host_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_windows_drop_stolen_time() {
        // Calm windows suffice: every window over the limit goes.
        assert_eq!(quiet_windows(&[0.0, 0.2, 0.01, 0.05, 0.3]), vec![0, 2, 3]);
        // Too few calm windows: the quieter half, by steal share.
        assert_eq!(quiet_windows(&[0.3, 0.1, 0.2, 0.06]), vec![3, 1]);
        assert_eq!(quiet_windows(&[0.0]), vec![0]);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
