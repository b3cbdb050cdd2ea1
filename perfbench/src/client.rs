//! A minimal HTTP/1.1 keep-alive client: one request in flight per
//! connection, `Content-Length` bodies only. It is the benchmark's own, so
//! load-generator cost never changes with the program under test.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    head: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            head: Vec::with_capacity(256),
        })
    }

    /// Sends one request and returns the status and body.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.head.clear();
        write!(
            self.head,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.head.extend_from_slice(body);
        self.stream.write_all(&self.head)?;

        self.buf.clear();
        let header_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head =
            std::str::from_utf8(&self.buf[..header_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < header_end + length {
            self.fill()?;
        }
        Ok((status, self.buf[header_end..header_end + length].to_vec()))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The position of the server-only `timing` trailer in a response body,
/// which is the last field of the document.
pub fn timing_start(body: &[u8]) -> Option<usize> {
    const KEY: &[u8] = b",\"timing\":";
    (0..body.len().saturating_sub(KEY.len()))
        .rev()
        .find(|&i| &body[i..i + KEY.len()] == KEY)
}

/// The body without its `timing` trailer: the bytes that must be identical
/// on every response for one request.
pub fn without_timing(body: &[u8]) -> &[u8] {
    timing_start(body).map_or(body, |i| &body[..i])
}

/// A number field of the `timing` trailer, e.g. `plan_ms`.
pub fn timing_field(body: &[u8], key: &str) -> Option<f64> {
    let tail = std::str::from_utf8(&body[timing_start(body)?..]).ok()?;
    let pat = format!("\"{key}\":");
    let rest = &tail[tail.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}
