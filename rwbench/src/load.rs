//! The closed-loop load generator: one thread per connection, each
//! keeping [`DEPTH`] requests outstanding and checking every reply.
//!
//! Time is split into a warm-up and a timed window of equal
//! sub-windows. Replies are counted and their latencies recorded in
//! the sub-window in which they arrive; replies outside the window are
//! still checked but not timed.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use stats::LatencyHist;
use svc::proto::{FrameReader, Request, Response};

use crate::check::{check, Reject};
use crate::spec::{Gen, DEPTH};

/// A client gives up on a connection that stays silent this long.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// The timed window, shared by every client.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Start of the timed window (end of the warm-up).
    pub start: Instant,
    /// Length of one sub-window.
    pub sub: Duration,
    /// Number of sub-windows.
    pub n: usize,
}

impl Window {
    /// Sub-window index of an arrival instant, if inside the window.
    fn index(&self, at: Instant) -> Option<usize> {
        let off = at.checked_duration_since(self.start)?;
        let i = (off.as_nanos() / self.sub.as_nanos()) as usize;
        (i < self.n).then_some(i)
    }

    /// End of sub-window `i`.
    pub fn end_of(&self, i: usize) -> Instant {
        self.start + self.sub * (i as u32 + 1)
    }
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientOut {
    /// Requests written to the socket.
    pub sent: u64,
    /// Replies that failed their check.
    pub invalid: u64,
    /// `Busy` replies.
    pub shed: u64,
    /// Requests left without a reply when the connection broke.
    pub unanswered: u64,
    /// Socket errors (each also leaves its in-flight requests
    /// unanswered).
    pub transport: u64,
    /// Latency (ns) per sub-window.
    pub hists: Vec<LatencyHist>,
}

/// Runs one closed-loop connection until `stop`, then drains its
/// outstanding requests.
pub fn client(addr: SocketAddr, mut gen: Gen, win: Window, stop: &AtomicBool) -> ClientOut {
    let mut out = ClientOut {
        hists: (0..win.n).map(|_| LatencyHist::new()).collect(),
        ..ClientOut::default()
    };
    let mut inflight: VecDeque<(Request, Instant)> = VecDeque::with_capacity(DEPTH);
    if let Err(_e) = drive(addr, &mut gen, win, stop, &mut inflight, &mut out) {
        out.transport += 1;
        out.unanswered += inflight.len() as u64;
    }
    out
}

fn drive(
    addr: SocketAddr,
    gen: &mut Gen,
    win: Window,
    stop: &AtomicBool,
    inflight: &mut VecDeque<(Request, Instant)>,
    out: &mut ClientOut,
) -> io::Result<()> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut wbuf = Vec::with_capacity(DEPTH * 32);
    let mut rbuf = vec![0u8; 64 * 1024];
    let mut fr = FrameReader::new();
    loop {
        // Top the window up: one write carries every new request.
        if !stop.load(Ordering::Relaxed) {
            wbuf.clear();
            let sent_at = Instant::now();
            while inflight.len() < DEPTH {
                let req = gen.next_request();
                req.encode_frame(&mut wbuf);
                inflight.push_back((req, sent_at));
                out.sent += 1;
            }
            if !wbuf.is_empty() {
                sock.write_all(&wbuf)?;
            }
        }
        if inflight.is_empty() {
            return Ok(());
        }
        let n = sock.read(&mut rbuf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        let at = Instant::now();
        fr.extend(&rbuf[..n]);
        let slot = win.index(at);
        while let Some(body) = fr
            .next_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            let Some((req, sent_at)) = inflight.pop_front() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unsolicited reply",
                ));
            };
            match Response::decode(&body)
                .map_err(|_| Reject::Invalid)
                .and_then(|r| check(&req, &r))
            {
                Ok(()) => {}
                Err(Reject::Shed) => out.shed += 1,
                Err(Reject::Invalid) => out.invalid += 1,
            }
            if let Some(i) = slot {
                out.hists[i].record((at - sent_at).as_nanos() as u64);
            }
        }
    }
}
