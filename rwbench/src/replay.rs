//! The traced replay: a workload's seeded request stream replayed in
//! process through the same public calls `rwled`'s worker loop makes,
//! in its phase order, with a span around each call.
//!
//! Per batch: `FrameReader::next_frame` + `Request::decode` (admission
//! by the server's reads-then-mutations rule, at the end-to-end run's
//! mean batch size), `StoreSession::get`/`scan`, one
//! `StoreSession::apply_batch` (or `apply_batch_durable` into a
//! `wal::Wal`, whose `append` is a child span of the store pass),
//! `DurableSink::wait_durable`, and `Response::to_frame` per reply.
//! Spans live in a bounded per-thread buffer and are written out after
//! the run; sums and counts per span name are kept for every span.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use epoch::EpochSet;
use svc::loadgen::KeyDist;
use svc::proto::{FrameReader, Request, Response};
use wal::{FsyncPolicy, Wal};
use workloads::backend::{BatchOutcome, DurableSink, Lsn, MutOp, MutReply, SimBackend, NO_LSN};
use workloads::native::{NativeBackend, SglBackend};
use workloads::{SchemeKind, StoreBackend, StoreSession};

use crate::check::check;
use crate::spec::{Gen, Workload, DEPTH, SHARDS, WORKERS};

/// Spans kept per thread and replay; later ones are only summed.
const SPAN_CAP: usize = 20_000;

/// Span names, in phase order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One admitted batch (parent of the rest).
    Batch,
    /// `FrameReader::next_frame` + `Request::decode`.
    Decode,
    /// `StoreSession::get`.
    Get,
    /// `StoreSession::scan`.
    Scan,
    /// `StoreSession::apply_batch` / `apply_batch_durable`.
    Apply,
    /// `Wal::append`, inside the store pass.
    Append,
    /// `DurableSink::wait_durable`.
    Wait,
    /// `Response::to_frame`.
    Encode,
}

impl Name {
    fn label(self) -> &'static str {
        match self {
            Name::Batch => "batch",
            Name::Decode => "proto.decode",
            Name::Get => "store.get",
            Name::Scan => "store.scan",
            Name::Apply => "store.apply_batch",
            Name::Append => "wal.append",
            Name::Wait => "wal.wait_durable",
            Name::Encode => "proto.encode",
        }
    }

    fn parent(self) -> Option<Name> {
        match self {
            Name::Batch => None,
            Name::Append => Some(Name::Apply),
            _ => Some(Name::Batch),
        }
    }
}

/// One recorded span; times are ns since the replay started.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    batch: u64,
    start: u64,
    end: u64,
}

/// Per-thread span recorder. Disabled, it reads no clock at all.
struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    sum: [u64; 8],
    cnt: [u64; 8],
}

impl Tracer {
    fn new(on: bool, base: Instant) -> Tracer {
        Tracer {
            on,
            base,
            spans: Vec::new(),
            sum: [0; 8],
            cnt: [0; 8],
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        if self.on {
            self.base.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    #[inline]
    fn span(&mut self, name: Name, batch: u64, start: u64, end: u64) {
        if !self.on {
            return;
        }
        let i = name as usize;
        self.sum[i] += end - start;
        self.cnt[i] += 1;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                batch,
                start,
                end,
            });
        }
    }
}

/// A `Wal` wrapper that times its appends for the replay thread that
/// owns it.
struct TimedSink<'a> {
    wal: &'a Wal,
    on: bool,
    base: Instant,
    last: Mutex<(u64, u64)>,
}

impl TimedSink<'_> {
    fn clock(&self) -> u64 {
        if self.on {
            self.base.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn take_last(&self) -> (u64, u64) {
        std::mem::take(&mut *self.last.lock().expect("sink timing lock poisoned"))
    }
}

impl DurableSink for TimedSink<'_> {
    fn append(&self, ops: &[MutOp]) -> Lsn {
        let t0 = self.clock();
        let lsn = self.wal.append(ops);
        *self.last.lock().expect("sink timing lock poisoned") = (t0, self.clock());
        lsn
    }

    fn append_ordered(
        &self,
        exec: &mut dyn FnMut(&mut Vec<MutOp>) -> BatchOutcome,
    ) -> (BatchOutcome, Lsn) {
        self.wal.append_ordered(exec)
    }

    fn wait_durable(&self, lsn: Lsn) {
        self.wal.wait_durable(lsn)
    }
}

/// A thread's pre-encoded request stream, cut into the chunks a
/// pipelined client would send.
struct Stream {
    bytes: Vec<u8>,
    chunks: Vec<usize>,
}

impl Stream {
    fn new(w: &Workload, seed: u64, conn: u64, ops: usize, dist: KeyDist) -> Stream {
        let mut gen = Gen::with_dist(w, seed, conn, dist);
        let mut bytes = Vec::with_capacity(ops * 24);
        let mut chunks = vec![0];
        for i in 0..ops {
            gen.next_request().encode_frame(&mut bytes);
            if (i + 1) % DEPTH == 0 || i + 1 == ops {
                chunks.push(bytes.len());
            }
        }
        Stream { bytes, chunks }
    }
}

/// What one store's replay produced (threads merged).
#[derive(Debug, Default, Clone)]
pub struct StoreRun {
    /// Wall time of the replay (threads in parallel).
    pub wall: Duration,
    /// Span-duration sums by [`Name`].
    pub sum: [u64; 8],
    /// Span counts by [`Name`].
    pub cnt: [u64; 8],
    /// Requests replayed.
    pub ops: u64,
    /// Mutations applied.
    pub muts: u64,
    /// Store passes with at least one mutation.
    pub passes: u64,
    /// Barrier stall iterations (`take_stats`).
    pub stalls: u64,
    /// Replies that failed their check.
    pub invalid: u64,
    /// The log's counters, for a durable replay.
    pub wal: Option<wal::WalStats>,
}

impl StoreRun {
    /// Mean span duration of `name`, 0 when the replay made no such call.
    pub fn mean_ns(&self, name: Name) -> f64 {
        let i = name as usize;
        if self.cnt[i] == 0 {
            0.0
        } else {
            self.sum[i] as f64 / self.cnt[i] as f64
        }
    }

    /// Store-pass self time (the pass minus its log append) per mutation.
    pub fn apply_ns_per_mut(&self) -> f64 {
        let own = self.sum[Name::Apply as usize] - self.sum[Name::Append as usize];
        own as f64 / self.muts.max(1) as f64
    }

    /// Store self time per replayed request, in µs.
    pub fn store_us_per_op(&self) -> f64 {
        let own = self.sum[Name::Get as usize]
            + self.sum[Name::Scan as usize]
            + self.sum[Name::Apply as usize]
            - self.sum[Name::Append as usize];
        own as f64 / 1e3 / self.ops.max(1) as f64
    }
}

/// Which store a replay runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// `NativeBackend` (RW-LE over plain memory).
    Native,
    /// `SimBackend` (RW-LE over the simulated HTM).
    Sim,
    /// `SglBackend` (one mutex; the reference).
    Sgl,
}

impl Store {
    /// Name in the span file.
    pub fn label(self) -> &'static str {
        match self {
            Store::Native => "native",
            Store::Sim => "sim",
            Store::Sgl => "sgl",
        }
    }
}

/// One replay's settings.
pub struct ReplayPlan<'a> {
    /// The workload whose stream is replayed.
    pub w: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Target batch size (the end-to-end run's mean).
    pub batch: usize,
    /// Store to replay on.
    pub store: Store,
    /// Record spans.
    pub traced: bool,
    /// Log directory; `Some` replays through `apply_batch_durable`.
    pub wal_dir: Option<&'a Path>,
    /// Where to write the kept spans.
    pub spans_out: Option<&'a Path>,
}

/// Builds the store with the workload's prefill.
fn build(store: Store, w: &Workload, seed: u64) -> io::Result<Box<dyn StoreBackend>> {
    Ok(match store {
        Store::Native => Box::new(NativeBackend::create(SHARDS, WORKERS, w.prefill)),
        Store::Sgl => Box::new(SglBackend::create(w.prefill)),
        Store::Sim => Box::new(
            SimBackend::create(
                SchemeKind::RwLeOpt,
                SHARDS,
                1024,
                w.prefill,
                crate::e2e::sim_capacity(0),
                WORKERS,
                seed,
            )
            .map_err(io::Error::other)?,
        ),
    })
}

/// Replays the workload's stream on [`WORKERS`] threads.
pub fn replay(p: &ReplayPlan<'_>) -> io::Result<StoreRun> {
    let dist = KeyDist::new(p.w.prefill, p.w.theta);
    let streams: Vec<Stream> = (0..WORKERS as u64)
        .map(|c| Stream::new(&p.w, p.seed, c, p.w.replay_ops, dist.clone()))
        .collect();
    let backend = build(p.store, &p.w, p.seed)?;
    let wal = match p.wal_dir {
        Some(dir) => {
            if dir.exists() {
                std::fs::remove_dir_all(dir)?;
            }
            Some(Wal::open(dir, FsyncPolicy::Batch, 1).map_err(io::Error::other)?)
        }
        None => None,
    };
    let base = Instant::now();
    let backend = &*backend;
    let wal = wal.as_ref();
    let threads: Vec<(StoreRun, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                s.spawn(move || {
                    let mut sess = backend.session();
                    let sink = wal.map(|wal| TimedSink {
                        wal,
                        on: p.traced,
                        base,
                        last: Mutex::new((0, 0)),
                    });
                    let mut tr = Tracer::new(p.traced, base);
                    let mut run =
                        replay_thread(&mut *sess, stream, p.batch, sink.as_ref(), &mut tr);
                    run.stalls = sess.take_stats().barrier_stalls;
                    run.sum = tr.sum;
                    run.cnt = tr.cnt;
                    (run, tr.spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let wall = base.elapsed();
    let mut total = StoreRun {
        wall,
        wal: wal.map(Wal::stats),
        ..StoreRun::default()
    };
    for (run, _) in &threads {
        for i in 0..total.sum.len() {
            total.sum[i] += run.sum[i];
            total.cnt[i] += run.cnt[i];
        }
        total.ops += run.ops;
        total.muts += run.muts;
        total.passes += run.passes;
        total.stalls += run.stalls;
        total.invalid += run.invalid;
    }
    if let (Some(path), true) = (p.spans_out, p.traced) {
        let label = match p.wal_dir {
            Some(_) => format!("{}+wal", p.store.label()),
            None => p.store.label().to_string(),
        };
        write_spans(path, &label, &threads)?;
    }
    Ok(total)
}

/// One thread's replay loop: the worker loop's phases 3 to 5 over an
/// in-memory stream.
fn replay_thread(
    sess: &mut dyn StoreSession,
    stream: &Stream,
    batch_size: usize,
    sink: Option<&TimedSink<'_>>,
    tr: &mut Tracer,
) -> StoreRun {
    let mut run = StoreRun::default();
    let mut fr = FrameReader::new();
    let mut next_chunk = 1;
    let mut carry: Option<Request> = None;
    let mut work: Vec<Request> = Vec::with_capacity(batch_size);
    let mut replies: Vec<Option<Response>> = Vec::with_capacity(batch_size);
    let mut mut_ops: Vec<MutOp> = Vec::new();
    let mut mut_at: Vec<usize> = Vec::new();
    let mut mut_replies: Vec<MutReply> = Vec::new();
    let mut scratch: Vec<(u64, u64)> = Vec::new();
    let mut batch: u64 = 0;
    loop {
        let t_batch = tr.now();
        // Phase 3: admit one batch, reads then mutations.
        work.clear();
        let mut saw_mutation = false;
        while work.len() < batch_size {
            let req = match carry.take() {
                Some(req) => req,
                None => {
                    if !fr.has_complete_frame() {
                        if next_chunk == stream.chunks.len() {
                            break;
                        }
                        let (a, b) = (stream.chunks[next_chunk - 1], stream.chunks[next_chunk]);
                        fr.extend(&stream.bytes[a..b]);
                        next_chunk += 1;
                    }
                    let t0 = tr.now();
                    let body = fr
                        .next_frame()
                        .expect("stream frames are well formed")
                        .expect("a complete frame is buffered");
                    let req = Request::decode(&body).expect("stream requests decode");
                    tr.span(Name::Decode, batch, t0, tr.now());
                    req
                }
            };
            let is_mut = matches!(req, Request::Put { .. } | Request::Del { .. });
            if is_mut {
                saw_mutation = true;
            } else if saw_mutation {
                carry = Some(req);
                break;
            }
            work.push(req);
        }
        if work.is_empty() {
            break;
        }
        // Phase 4: reads, then the batch's one store pass.
        replies.clear();
        mut_ops.clear();
        mut_at.clear();
        for (i, req) in work.iter().enumerate() {
            match *req {
                Request::Get { key } => {
                    let t0 = tr.now();
                    let v = sess.get(key);
                    tr.span(Name::Get, batch, t0, tr.now());
                    replies.push(Some(v.map_or(Response::NotFound, Response::Value)));
                }
                Request::Scan { start, count } => {
                    scratch.clear();
                    let t0 = tr.now();
                    sess.scan(start, count, &mut scratch);
                    tr.span(Name::Scan, batch, t0, tr.now());
                    replies.push(Some(Response::Pairs(scratch.clone())));
                }
                Request::Put { key, value } => {
                    mut_ops.push(MutOp::Put { key, value });
                    mut_at.push(i);
                    replies.push(None);
                }
                Request::Del { key } => {
                    mut_ops.push(MutOp::Del { key });
                    mut_at.push(i);
                    replies.push(None);
                }
                Request::Stats | Request::Shutdown => {
                    unreachable!("streams hold data requests only")
                }
            }
        }
        if !mut_ops.is_empty() {
            let t0 = tr.now();
            let lsn = match sink {
                Some(sink) => sess.apply_batch_durable(&mut_ops, &mut mut_replies, sink).1,
                None => {
                    sess.apply_batch(&mut_ops, &mut mut_replies);
                    NO_LSN
                }
            };
            let t1 = tr.now();
            tr.span(Name::Apply, batch, t0, t1);
            if let Some(sink) = sink {
                let (a0, a1) = sink.take_last();
                tr.span(Name::Append, batch, a0, a1);
                if lsn != NO_LSN {
                    sink.wait_durable(lsn);
                    tr.span(Name::Wait, batch, t1, tr.now());
                }
            }
            for (&i, reply) in mut_at.iter().zip(&mut_replies) {
                replies[i] = Some(match *reply {
                    MutReply::Put(Ok(_)) | MutReply::Del(true) => Response::Ok,
                    MutReply::Put(Err(_)) => Response::ServerFull,
                    MutReply::Del(false) => Response::NotFound,
                });
            }
            run.muts += mut_ops.len() as u64;
            run.passes += 1;
        }
        // Phase 5: encode every reply (and check it).
        for (req, resp) in work.iter().zip(replies.drain(..)) {
            let resp = resp.expect("every request got a reply");
            let t0 = tr.now();
            let frame = Response::to_frame(&resp);
            tr.span(Name::Encode, batch, t0, tr.now());
            std::hint::black_box(frame);
            if check(req, &resp).is_err() {
                run.invalid += 1;
            }
        }
        run.ops += work.len() as u64;
        tr.span(Name::Batch, batch, t_batch, tr.now());
        batch += 1;
    }
    run
}

/// Writes kept spans as CSV: `store,thread,batch,name,parent,start_ns,end_ns`.
fn write_spans(path: &Path, store: &str, threads: &[(StoreRun, Vec<Span>)]) -> io::Result<()> {
    let mut out = io::BufWriter::new(
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?,
    );
    for (t, (_, spans)) in threads.iter().enumerate() {
        for s in spans {
            let parent = s.name.parent().map_or("-", Name::label);
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                store,
                t,
                s.batch,
                s.name.label(),
                parent,
                s.start,
                s.end
            )?;
        }
    }
    out.flush()
}

/// Mean `EpochSet::batch_barrier` time on a standalone two-slot set
/// while one reader thread loops enter/exit.
pub fn epoch_barrier_ns(budget: Duration) -> f64 {
    let set = EpochSet::new(2);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (set, stop) = (&set, &stop);
        let reader = s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                set.enter(1);
                set.exit(1);
            }
        });
        let mut snap = Vec::new();
        let mut n = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < budget {
            for _ in 0..256 {
                std::hint::black_box(set.batch_barrier(Some(0), &mut snap));
            }
            n += 256;
        }
        let ns = t0.elapsed().as_nanos() as f64 / n as f64;
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("epoch reader panicked");
        ns
    })
}

/// Recovery cost per logged mutation: `wal::replay` of the workload's
/// seeded log into a fresh native store, exactly as `rwled` boots.
pub fn wal_replay_ns_per_mut(w: &Workload, seed: u64, dir: &Path) -> io::Result<(f64, u64)> {
    crate::e2e::write_seeded_log(dir, w, seed)?;
    let backend = NativeBackend::create(SHARDS, 1, w.prefill);
    let mut sess = backend.session();
    let mut replies = Vec::new();
    let t0 = Instant::now();
    let report = wal::replay(dir, |_lsn, ops| {
        replies.clear();
        sess.apply_batch(ops, &mut replies);
    })
    .map_err(io::Error::other)?;
    let ns = t0.elapsed().as_nanos() as f64 / report.ops.max(1) as f64;
    drop(sess);
    std::fs::remove_dir_all(dir)?;
    Ok((ns, report.ops))
}
