//! `rwbench` — the repository's benchmark: one real `rwled` driven
//! closed-loop, end to end, plus a traced in-process replay that times
//! each layer. See `rwbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path rwbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints a human-readable report, a
//! provenance record, and as its last line one JSON result object.
//! Exits 2 on bad arguments and 1 when the run cannot complete (build
//! or boot failure) — without a result line in both cases.

mod check;
mod e2e;
mod host;
mod load;
mod replay;
mod rwled;
mod spec;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::Duration;

use e2e::{E2e, Inject, Plan, Value};
use replay::{Name, ReplayPlan, Store, StoreRun};
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// Least server boots per end-to-end run; `setup_s` is their median.
const SETUP_BOOTS: usize = 5;
/// Time further boots may take, for a steadier `setup_s` median.
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Measuring time of the standalone epoch barrier loop.
const EPOCH_BUDGET: Duration = Duration::from_millis(300);

const USAGE: &str =
    "usage: rwbench --workload <read-mostly|write-scan|durable-put|sim-elision|all> \
--seed <n> --seconds <s> --trace <0|1> [--fault none|lose-wal]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    fault: Inject,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut fault) =
        (None, 1, 10, false, Inject::None);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = val()?.parse().map_err(|_| "--seconds takes an integer")?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--fault" => {
                fault = match val()?.as_str() {
                    "none" => Inject::None,
                    "lose-wal" => Inject::LoseWal,
                    other => return Err(format!("unknown fault {other:?}")),
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.iter().copied().filter(|w| w.kept).collect()
    } else {
        vec![Workload::by_name(&workload).ok_or(format!("unknown workload {workload:?}"))?]
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
        fault,
    })
}

/// Builds `rwled` from the checkout and returns its path.
fn build_rwled(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "svc",
            "--bin",
            "rwled",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building rwled failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let bin = target.join("release").join("rwled");
    if !bin.is_file() {
        return Err(format!("no rwled at {}", bin.display()));
    }
    Ok(bin)
}

/// One printed metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: u64,
}

/// One workload's outcome.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    record: String,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (a non-finite value would make the line invalid).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("metric is declared")
}

/// Parses `NAME=x%` out of the drain summary line, as a fraction.
fn summary_frac(summary: &str, key: &str) -> f64 {
    summary
        .split_once(key)
        .and_then(|(_, rest)| rest.split('%').next())
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |pct| pct / 100.0)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn e2e_metrics(e: &E2e) -> Vec<Metric> {
    let pick = |name: &'static str, v: Value| Metric {
        name,
        unit: unit_of(&END_TO_END, name),
        value: v.value,
        samples: v.samples,
    };
    vec![
        pick("ops_per_s", e.ops_per_s),
        pick("p50_us", e.p50_us),
        pick("p99_us", e.p99_us),
        pick("server_cpu_us_per_op", e.cpu_us_per_op),
        pick("server_rss_mb", e.rss_mb),
        pick("setup_s", e.setup_s),
    ]
}

/// The per-layer metrics: server-side counters of the end-to-end run,
/// then the traced replay's span statistics.
fn layer_metrics(w: &Workload, e: &E2e, r: &Replays) -> Vec<Metric> {
    let st = &e.window_stats;
    let muts = st.puts + st.dels;
    let sim = w.backend == "sim";
    let native_barriers = !sim;
    let mut v: Vec<(&'static str, f64, u64)> = vec![
        (
            "server.ops_per_batch",
            ratio(st.batch_ops, st.batches),
            st.batches,
        ),
        // Only the native RW-LE store counts its barriers; the sim
        // backend's per-op batch path reports one per mutation by
        // construction, and SGL (never run here) pays none.
        (
            "server.barriers_per_mut",
            if native_barriers {
                ratio(st.barriers, muts)
            } else {
                0.0
            },
            muts,
        ),
        (
            "server.writev_per_op",
            ratio(st.writev_calls, st.replied),
            st.replied,
        ),
        ("server.sys_cpu_frac", e.sys_cpu_frac, 1),
    ];
    let ws = r.wal.as_ref().and_then(|x| x.wal).unwrap_or_default();
    let wal_muts = r.wal.as_ref().map_or(0, |x| x.muts);
    v.extend([
        (
            "wal.appends_per_fsync",
            ratio(ws.appends, ws.fsyncs),
            ws.fsyncs,
        ),
        ("wal.bytes_per_mut", ratio(ws.bytes, wal_muts), wal_muts),
    ]);
    let (htm, rot, ns, apc) = if sim {
        let rate = summary_frac(&e.summary, "aborts[");
        (
            summary_frac(&e.summary, "HTM="),
            summary_frac(&e.summary, "ROT="),
            summary_frac(&e.summary, "SGL="),
            if rate < 1.0 { rate / (1.0 - rate) } else { 0.0 },
        )
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    v.extend([
        ("sim.commit_htm_frac", htm, st.batch_ops),
        ("sim.commit_rot_frac", rot, st.batch_ops),
        ("sim.commit_ns_frac", ns, st.batch_ops),
        ("sim.aborts_per_commit", apc, st.batch_ops),
    ]);
    let p = &r.primary;
    v.extend([
        (
            "proto.decode_ns",
            p.mean_ns(Name::Decode),
            p.cnt[Name::Decode as usize],
        ),
        (
            "proto.encode_ns",
            p.mean_ns(Name::Encode),
            p.cnt[Name::Encode as usize],
        ),
    ]);
    let n = &r.native;
    v.extend([
        (
            "native.get_ns",
            n.mean_ns(Name::Get),
            n.cnt[Name::Get as usize],
        ),
        (
            "native.scan_ns",
            n.mean_ns(Name::Scan),
            n.cnt[Name::Scan as usize],
        ),
        (
            "native.apply_batch_ns_per_mut",
            n.apply_ns_per_mut(),
            n.muts,
        ),
        (
            "native.barrier_stalls_per_batch",
            ratio(n.stalls, n.passes),
            n.passes,
        ),
        ("epoch.batch_barrier_ns", r.epoch_ns, 1),
    ]);
    let d = r.wal.clone().unwrap_or_default();
    v.extend([
        (
            "wal.append_ns",
            d.mean_ns(Name::Append),
            d.cnt[Name::Append as usize],
        ),
        (
            "wal.wait_durable_us",
            d.mean_ns(Name::Wait) / 1e3,
            d.cnt[Name::Wait as usize],
        ),
        ("wal.replay_ns_per_mut", r.wal_replay.0, r.wal_replay.1),
    ]);
    let s = r.sim.clone().unwrap_or_default();
    v.extend([
        (
            "sim.get_ns",
            s.mean_ns(Name::Get),
            s.cnt[Name::Get as usize],
        ),
        (
            "sim.scan_ns",
            s.mean_ns(Name::Scan),
            s.cnt[Name::Scan as usize],
        ),
        ("sim.apply_batch_ns_per_mut", s.apply_ns_per_mut(), s.muts),
    ]);
    let g = &r.sgl;
    v.extend([
        (
            "sgl.get_ns",
            g.mean_ns(Name::Get),
            g.cnt[Name::Get as usize],
        ),
        (
            "sgl.scan_ns",
            g.mean_ns(Name::Scan),
            g.cnt[Name::Scan as usize],
        ),
        ("sgl.apply_batch_ns_per_mut", g.apply_ns_per_mut(), g.muts),
        (
            "trace.store_share",
            p.store_us_per_op() / e.cpu_us_per_op.value.max(1e-9),
            p.ops,
        ),
        ("trace.overhead_frac", r.overhead_frac, 4),
    ]);
    v.into_iter()
        .map(|(name, value, samples)| Metric {
            name,
            unit: unit_of(&PER_LAYER, name),
            value,
            samples,
        })
        .collect()
}

/// The traced run's replays.
struct Replays {
    /// The workload's own store, traced.
    primary: StoreRun,
    /// Traced over untraced replay wall time, minus one.
    overhead_frac: f64,
    /// The native store (the primary one on native workloads).
    native: StoreRun,
    /// The sim store (sim workloads only).
    sim: Option<StoreRun>,
    /// A durable native replay (workloads that measure the `wal` layer).
    wal: Option<StoreRun>,
    /// The SGL reference store.
    sgl: StoreRun,
    epoch_ns: f64,
    /// Recovery ns per logged mutation, and mutations replayed.
    wal_replay: (f64, u64),
    /// Requests replayed and replies that failed their check, over
    /// every replay.
    checked: (u64, u64),
}

fn run_replays(w: &Workload, seed: u64, batch: usize, work: &Path) -> std::io::Result<Replays> {
    let primary_store = if w.backend == "sim" {
        Store::Sim
    } else {
        Store::Native
    };
    let wal_dir = work.join(format!("replay-wal-{}", std::process::id()));
    let spans_dir = work.join("trace");
    std::fs::create_dir_all(&spans_dir)?;
    let spans = spans_dir.join(format!("{}.spans.csv", w.name));
    std::fs::write(&spans, "store,thread,batch,name,parent,start_ns,end_ns\n")?;
    let plan = |store: Store, traced: bool| ReplayPlan {
        w: *w,
        seed,
        batch,
        store,
        traced,
        wal_dir: (w.durable && store == primary_store).then_some(wal_dir.as_path()),
        spans_out: Some(spans.as_path()),
    };
    // Untraced and traced replays of the primary store alternate, twice
    // each, so warm-up and drift land on both sides of the overhead.
    let plain_a = replay::replay(&plan(primary_store, false))?;
    let primary = replay::replay(&plan(primary_store, true))?;
    let plain_b = replay::replay(&plan(primary_store, false))?;
    let again = replay::replay(&ReplayPlan {
        spans_out: None,
        ..plan(primary_store, true)
    })?;
    let overhead_frac = (primary.wall + again.wall).as_secs_f64()
        / (plain_a.wall + plain_b.wall).as_secs_f64().max(1e-9)
        - 1.0;
    let native = if primary_store == Store::Native {
        primary.clone()
    } else {
        replay::replay(&plan(Store::Native, true))?
    };
    let sgl = replay::replay(&plan(Store::Sgl, true))?;
    let durable = if w.durable {
        Some(primary.clone())
    } else if w.wal_layer {
        Some(replay::replay(&ReplayPlan {
            wal_dir: Some(wal_dir.as_path()),
            ..plan(Store::Native, true)
        })?)
    } else {
        None
    };
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut checked = (0, 0);
    let extra = (primary_store != Store::Native).then_some(&native);
    let runs = [&plain_a, &primary, &plain_b, &again, &sgl];
    for run in runs
        .into_iter()
        .chain(extra)
        .chain(durable.as_ref().filter(|_| !w.durable))
    {
        checked.0 += run.ops;
        checked.1 += run.invalid;
    }
    let wal_replay = if w.wal_layer {
        replay::wal_replay_ns_per_mut(w, seed, &wal_dir)?
    } else {
        (0.0, 0)
    };
    Ok(Replays {
        overhead_frac,
        sim: (primary_store == Store::Sim).then(|| primary.clone()),
        wal: durable,
        primary,
        native,
        sgl,
        epoch_ns: replay::epoch_barrier_ns(EPOCH_BUDGET),
        wal_replay,
        checked,
    })
}

fn run_workload(
    args: &Args,
    w: Workload,
    bin: &Path,
    work: &Path,
    ctx: &Context,
) -> std::io::Result<Outcome> {
    let plan = Plan {
        w,
        seed: args.seed,
        seconds: args.seconds,
        boots: if args.trace { 1 } else { SETUP_BOOTS },
        setup_budget: if args.trace {
            Duration::ZERO
        } else {
            SETUP_BUDGET
        },
        bin,
        work,
        fault: args.fault,
    };
    let e = e2e::run(&plan)?;
    let mut attempted = e.sent;
    let mut failed = e.failures.total();
    let metrics = if args.trace {
        let batch = (e.window_stats.mean_batch().round() as usize).max(1);
        let r = run_replays(&w, args.seed, batch, work)?;
        attempted += r.checked.0;
        failed += r.checked.1;
        layer_metrics(&w, &e, &r)
    } else {
        e2e_metrics(&e)
    };
    let f = e.failures;
    let mut rec = String::new();
    let _ = write!(
        rec,
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"revision\": {}, \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"wal_fs\": {}}}, \
         \"rwled_cmd\": {}, \"loadgen_cmd\": {}, \"loadgen\": {}, \
         \"failures\": {{\"sent\": {}, \"transport\": {}, \"shed\": {}, \"unanswered\": {}, \"invalid\": {}, \"durability\": {}}}, \
         \"failed_frac\": {}, \"server_summary\": {}, \"restart\": {}, \"samples\": {{",
        json_str(w.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&ctx.revision),
        ctx.host.nproc,
        json_str(&ctx.host.cpu_model),
        json_str(&ctx.host.kernel),
        json_str(&ctx.wal_fs),
        json_str(&e.cmdline),
        json_str(&ctx.cmdline),
        json_str(&format!(
            "closed loop, {} connections x {} outstanding, {} s warm-up, {} s timed in {} ms sub-windows",
            spec::CONNS,
            spec::DEPTH,
            e2e::WARMUP.as_secs(),
            args.seconds,
            e2e::SUB_WINDOW.as_millis()
        )),
        e.sent,
        f.transport,
        f.shed,
        f.unanswered,
        f.invalid,
        f.durability,
        json_num(ratio(failed, attempted)),
        json_str(&e.summary),
        e.restart
            .as_ref()
            .map_or("null".into(), |(s, line)| format!(
                "{{\"setup_s\": {}, \"recovered\": {}}}",
                json_num(*s),
                json_str(line)
            )),
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            rec,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            json_str(m.name),
            m.samples
        );
    }
    rec.push_str("}, \"sub_windows\": {");
    let names = [
        "ops_per_s",
        "p50_us",
        "p99_us",
        "server_cpu_us_per_op",
        "host_steal_frac",
    ];
    for (i, (name, xs)) in names.iter().zip(&e.series).enumerate() {
        let xs: Vec<String> = xs.iter().map(|x| json_num(*x)).collect();
        let _ = write!(
            rec,
            "{}{}: [{}]",
            if i > 0 { ", " } else { "" },
            json_str(name),
            xs.join(", ")
        );
    }
    rec.push_str("}}}");
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        record: rec,
    })
}

/// Facts shared by every workload of one invocation.
struct Context {
    host: host::Host,
    /// Filesystem type of the working directory that holds every log.
    wal_fs: String,
    revision: String,
    cmdline: String,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("rwbench: {e}");
            }
            eprintln!("{USAGE}");
            exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory is readable");
    let bin = build_rwled(&root).unwrap_or_else(|e| {
        eprintln!("rwbench: {e}");
        eprintln!("hint: run from the repository root");
        exit(1);
    });
    let work = root.join(".rwbench");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("rwbench: cannot create {}: {e}", work.display());
        exit(1);
    }
    let ctx = Context {
        host: host::Host::probe(),
        wal_fs: host::fs_type(&work),
        revision: host::revision(&root),
        cmdline: std::env::args().collect::<Vec<_>>().join(" "),
    };
    for w in &args.workloads {
        let out = match run_workload(&args, *w, &bin, &work, &ctx) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("rwbench: {} failed: {e}", w.name);
                exit(1);
            }
        };
        println!(
            "rwbench {} seed={} seconds={} trace={}",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for m in &out.metrics {
            println!(
                "  {:<34} {:>14.4} {:<6} ({} samples)",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "  {:<34} {:>14.6} {:<6} ({} of {} attempted)",
            "failed_frac",
            ratio(out.failed, out.attempted),
            "ratio",
            out.failed,
            out.attempted
        );
        println!("{}", out.record);
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            out.failed == 0 && out.attempted > 0,
            out.attempted.max(1),
            out.failed
        );
        for (i, m) in out.metrics.iter().enumerate() {
            let _ = write!(
                line,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i > 0 { ", " } else { "" },
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}
