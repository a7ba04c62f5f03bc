//! The line-protocol client: what a user of `sqda serve` runs. It sets
//! `TCP_NODELAY`, writes each request with one `write`, and waits for the
//! terminating newline — nothing here works around server behaviour.

use crate::proc::Res;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

pub struct Conn {
    stream: TcpStream,
    /// Bytes read past the last returned line (only pipelined use leaves any).
    buf: Vec<u8>,
}

/// One timed round trip.
pub struct Timed {
    pub reply: String,
    /// Request write → terminating newline, in nanoseconds.
    pub rtt_ns: u64,
    /// Request write → first reply byte, in nanoseconds.
    pub ttfb_ns: u64,
}

impl Conn {
    pub fn connect(addr: &str) -> Res<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A server that stops answering fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        stream.set_write_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Reads up to and including the next `\n`; returns the line without
    /// it and when the first byte of it was seen.
    fn read_line(&mut self) -> Res<(String, Instant)> {
        let mut first: Option<Instant> = (!self.buf.is_empty()).then(Instant::now);
        let mut scanned = 0;
        loop {
            if let Some(pos) = self.buf[scanned..].iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(scanned + pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop();
                let at = first.expect("a line has a first byte");
                return Ok((String::from_utf8(line)?, at));
            }
            scanned = self.buf.len();
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err("server closed the connection mid-reply".into());
            }
            first.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Sends one request line (one `write`) and waits for its reply line.
    pub fn request(&mut self, line: &str) -> Res<Timed> {
        debug_assert!(line.ends_with('\n'));
        let start = Instant::now();
        self.stream.write_all(line.as_bytes())?;
        let (reply, first) = self.read_line()?;
        let rtt_ns = start.elapsed().as_nanos() as u64;
        Ok(Timed {
            reply,
            rtt_ns,
            ttfb_ns: (first - start).as_nanos() as u64,
        })
    }

    /// Sends every request back to back from a second thread while this
    /// one reads the replies: warm-up traffic only, never timed.
    pub fn pipeline(&mut self, requests: &[String]) -> Res<Vec<String>> {
        let mut writer = self.stream.try_clone()?;
        std::thread::scope(|s| {
            let sender = s.spawn(move || -> std::io::Result<()> {
                for chunk in requests.chunks(256) {
                    writer.write_all(chunk.concat().as_bytes())?;
                }
                Ok(())
            });
            let replies: Res<Vec<String>> = (0..requests.len())
                .map(|_| self.read_line().map(|(line, _)| line))
                .collect();
            sender.join().expect("pipeline writer panicked")?;
            replies
        })
    }
}

pub fn query_line(p: &[f64; 2], k: usize) -> String {
    format!("QUERY {},{} {k}\n", p[0], p[1])
}

/// The counters of a `STATS` reply the benchmark reads.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub queries: u64,
    pub reads: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub reads_per_disk: Vec<u64>,
    pub resident_bytes: u64,
}

impl Stats {
    pub fn fetch(conn: &mut Conn) -> Res<Self> {
        let reply = conn.request("STATS\n")?.reply;
        let mut s = Stats::default();
        for word in reply.split_whitespace() {
            let Some((key, value)) = word.split_once('=') else {
                continue;
            };
            match key {
                "queries" => s.queries = value.parse()?,
                "reads" => s.reads = value.parse()?,
                "cache_hits" => s.cache_hits = value.parse()?,
                "cache_misses" => s.cache_misses = value.parse()?,
                "resident_bytes" => s.resident_bytes = value.parse()?,
                "reads_per_disk" => {
                    s.reads_per_disk = value
                        .split(',')
                        .map(|v| v.parse())
                        .collect::<Result<_, _>>()?
                }
                _ => {}
            }
        }
        Ok(s)
    }
}
