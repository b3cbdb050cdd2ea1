//! The system under test as child processes: a `dpipe serve --listen`
//! server, or one `dpipe plan` process per request. CPU time and peak
//! memory are read for the children alone.

use perfbench::client::Conn;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `dpipe serve --listen 127.0.0.1:0` child.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Starts the server and returns once it accepts connections.
    pub fn start(dpipe: &Path, extra: &[String]) -> io::Result<Server> {
        let mut child = Command::new(dpipe)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers", "2"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("child has no stdout"));
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening on http://") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "unexpected server output `{line}`"
            )));
        };
        let server = Server {
            addr: addr.to_owned(),
            child,
            stdout,
        };
        let (status, _) = Conn::connect(&server.addr)?.request("GET", "/healthz", b"")?;
        if status != 200 {
            return Err(io::Error::other(format!("healthz answered {status}")));
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET /metrics` as text.
    pub fn metrics(&self) -> io::Result<String> {
        let (_, body) = Conn::connect(&self.addr)?.request("GET", "/metrics", b"")?;
        Ok(String::from_utf8_lossy(&body).into_owned())
    }

    /// Graceful shutdown, waiting up to 20 s; `Drop` kills what is left.
    pub fn stop(mut self) {
        let asked = Conn::connect(&self.addr)
            .and_then(|mut c| c.request("POST", "/shutdown", b""))
            .is_ok();
        if asked {
            let mut rest = Vec::new();
            let _ = self.stdout.read_to_end(&mut rest);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline && matches!(self.child.try_wait(), Ok(None)) {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// user+sys CPU of a live process in ms, from `/proc/<pid>/stat`.
pub fn proc_cpu_ms(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of stat(5); `rest` starts at field 3. Linux reports
    // them in clock ticks of 10 ms.
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) * 10.0,
        _ => f64::NAN,
    }
}

/// Peak resident set (VmHWM) of a live process in MB.
pub fn proc_peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// CPU ms and peak RSS (MB) over every child this process has waited for.
pub fn children_usage() -> (f64, f64) {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable `struct rusage` with the 64-bit Linux
    // layout, and getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc != 0 {
        return (f64::NAN, f64::NAN);
    }
    let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    (ms(&u.utime) + ms(&u.stime), u.maxrss as f64 / 1024.0)
}

/// Runs `dpipe plan --json --spec -` on `spec`, with `extra` flags, and
/// returns its stdout if it exited 0.
pub fn cli_plan(dpipe: &Path, spec: &str, extra: &[String]) -> io::Result<Vec<u8>> {
    let mut child = Command::new(dpipe)
        .args(["plan", "--json", "--spec", "-"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let written = match child.stdin.take() {
        Some(mut stdin) => stdin.write_all(spec.as_bytes()),
        None => Err(io::Error::other("child has no stdin")),
    };
    let mut out = Vec::new();
    let read = match child.stdout.take() {
        Some(mut stdout) => stdout.read_to_end(&mut out).map(|_| ()),
        None => Err(io::Error::other("child has no stdout")),
    };
    let status = child.wait()?;
    written?;
    read?;
    if !status.success() || out.first() != Some(&b'{') {
        return Err(io::Error::other(format!("dpipe plan failed: {status}")));
    }
    Ok(out)
}
