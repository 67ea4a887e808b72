//! A running `rwled` child: boot, control requests, `/proc` sampling,
//! and a shutdown that always reaps the process.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use svc::proto::{self, Request, Response, ServerStats};

/// How long a boot may take before the benchmark gives up.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a drained server may take to exit after SHUTDOWN.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);
/// Read timeout of control connections.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(30);

/// A booted server.
pub struct Rwled {
    child: Option<Child>,
    /// The address `rwled` reported it listens on.
    pub addr: SocketAddr,
    /// Seconds from spawn until the listening line arrived.
    pub setup_s: f64,
    /// The `rwled recovered: ...` line of a durable boot.
    pub recovered: Option<String>,
    /// Stdout lines, stamped on arrival.
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

/// CPU the server has used so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    /// On-CPU nanoseconds summed over the server's threads
    /// (`/proc/<pid>/task/*/schedstat`).
    pub ns: u64,
    /// User time in clock ticks (`/proc/<pid>/stat`).
    pub utime: u64,
    /// System time in clock ticks.
    pub stime: u64,
}

impl Rwled {
    /// Spawns `bin args...` and waits until it publishes its port.
    pub fn boot(bin: &Path, args: &[String]) -> io::Result<Rwled> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel::<(Instant, String)>();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        // From here on Drop reaps the child and joins the reader.
        let mut server = Rwled {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
            recovered: None,
            lines: rx,
            reader: Some(reader),
        };
        loop {
            let left = BOOT_TIMEOUT.saturating_sub(spawned.elapsed());
            let (at, line) = server.lines.recv_timeout(left).map_err(|_| {
                io::Error::other("rwled exited or timed out before publishing its port")
            })?;
            if line.starts_with("rwled recovered:") {
                server.recovered = Some(line);
            } else if let Some(rest) = line.strip_prefix("rwled listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.addr = addr.parse().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad address in {line:?}"),
                    )
                })?;
                server.setup_s = (at - spawned).as_secs_f64();
                break;
            }
        }
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("server is running").id()
    }

    /// Sends one request on a fresh connection and returns the reply.
    pub fn request(&self, req: &Request) -> io::Result<Response> {
        let mut s = TcpStream::connect(self.addr)?;
        s.set_read_timeout(Some(CONTROL_TIMEOUT))?;
        s.set_nodelay(true)?;
        s.write_all(&req.to_frame())?;
        let body = proto::read_frame(&mut s)?;
        Response::decode(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// The server's STATS counters.
    pub fn stats(&self) -> io::Result<ServerStats> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(*s),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("STATS answered {other:?}"),
            )),
        }
    }

    /// CPU used so far, from `/proc`.
    pub fn cpu(&self) -> io::Result<Cpu> {
        let pid = self.pid();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the full line.
        let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
        let fields: Vec<&str> = after.split_whitespace().collect();
        let field =
            |i: usize| -> u64 { fields.get(i - 3).and_then(|f| f.parse().ok()).unwrap_or(0) };
        let mut ns = 0u64;
        for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
            let path = task?.path().join("schedstat");
            // A thread may exit between the listing and the read.
            if let Ok(s) = std::fs::read_to_string(path) {
                ns += s
                    .split_whitespace()
                    .next()
                    .and_then(|f| f.parse().ok())
                    .unwrap_or(0);
            }
        }
        Ok(Cpu {
            ns,
            utime: field(14),
            stime: field(15),
        })
    }

    /// Peak resident set size so far, in MiB (`VmHWM`).
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))?;
        Ok(kib / 1024.0)
    }

    /// Sends SHUTDOWN, waits for the drain and the exit, and returns
    /// the server's remaining stdout (the drain report). Errors if the
    /// server does not ack, does not exit in time, or exits non-zero.
    pub fn shutdown(mut self) -> io::Result<Vec<String>> {
        let ack = self.request(&Request::Shutdown);
        let status = self.reap(EXIT_TIMEOUT)?;
        let mut out = Vec::new();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        out.extend(self.lines.try_iter().map(|(_, l)| l));
        match ack? {
            Response::Ok => {}
            other => return Err(io::Error::other(format!("SHUTDOWN answered {other:?}"))),
        }
        if !status.success() {
            return Err(io::Error::other(format!("rwled exited with {status}")));
        }
        Ok(out)
    }

    /// Waits up to `limit` for the child to exit, then kills it.
    fn reap(&mut self, limit: Duration) -> io::Result<std::process::ExitStatus> {
        let mut child = self.child.take().expect("server is running");
        let start = Instant::now();
        loop {
            if let Some(status) = child.try_wait()? {
                return Ok(status);
            }
            if start.elapsed() >= limit {
                let _ = child.kill();
                child.wait()?;
                return Err(io::Error::other("rwled did not exit after SHUTDOWN"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Rwled {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}
