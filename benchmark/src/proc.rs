//! Child processes and scratch space: the `sqda` CLI is only ever run as
//! a program, fed generated files and protocol lines.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// A scratch directory under the benchmark's out dir, removed on drop —
/// also when a run fails or panics.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(out: &Path) -> Res<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)?
            .subsec_nanos();
        let dir = out.join(format!("tmp.{}.{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set (`VmHWM`) of a live process in MiB, from `/proc`.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one finished CLI invocation left behind.
pub struct Finished {
    pub stdout: String,
    pub wall_s: f64,
    /// Peak RSS in MiB, polled every 50 ms while the child lived.
    pub rss_mb: f64,
}

/// Runs `sqda <args>` to completion: wall time from spawn to exit, peak
/// RSS polled from a side thread (which sleeps between polls).
pub fn run_cli(sqda: &Path, args: &[&str]) -> Res<Finished> {
    let started = Instant::now();
    let mut child = Command::new(sqda)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let mut stdout = String::new();
    let mut stderr = String::new();
    let (status, wall_s, rss_mb) = std::thread::scope(|s| -> Res<_> {
        let poller = s.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::SeqCst) {
                if let Some(mb) = vm_hwm_mb(pid) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            peak
        });
        // The CLI prints a handful of lines; draining stdout to EOF is
        // the wait for its exit.
        let drained = (|| -> Res<()> {
            child
                .stdout
                .take()
                .expect("piped")
                .read_to_string(&mut stdout)?;
            child
                .stderr
                .take()
                .expect("piped")
                .read_to_string(&mut stderr)?;
            Ok(())
        })();
        let status = child.wait();
        let wall_s = started.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        let peak = poller.join().expect("rss poller panicked");
        drained?;
        Ok((status?, wall_s, peak))
    })?;
    if !status.success() {
        return Err(format!(
            "sqda {} exited with {status}: {}",
            args.join(" "),
            stderr.trim()
        )
        .into());
    }
    Ok(Finished {
        stdout,
        wall_s,
        rss_mb,
    })
}

pub fn path_str(p: &Path) -> Res<&str> {
    p.to_str().ok_or_else(|| "scratch path is not UTF-8".into())
}

/// `sqda generate --kind gaussian`: `n` 2-d points into `csv`.
pub fn generate_gaussian(sqda: &Path, n: usize, seed: u64, csv: &Path) -> Res<()> {
    let (n, seed) = (n.to_string(), seed.to_string());
    let args = [
        "generate",
        "--kind",
        "gaussian",
        "--n",
        &n,
        "--seed",
        &seed,
        "--out",
        path_str(csv)?,
    ];
    run_cli(sqda, &args).map(|_| ())
}

/// A running `sqda serve`, killed on drop if it was not shut down.
pub struct Server {
    child: Child,
    /// Kept open until the server has exited: it prints on shutdown, and
    /// a closed pipe would turn that into a panic.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Starts `sqda serve` on an ephemeral port and waits for its
    /// `listening on` line.
    pub fn start(sqda: &Path, store: &Path, cache_args: &[&str]) -> Res<Self> {
        let mut child = Command::new(sqda)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .args(["--port", "0", "--backend", "file", "--uncalibrated"])
            .args(cache_args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("sqda serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                break addr.to_string();
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn rss_mb(&self) -> f64 {
        vm_hwm_mb(self.child.id()).unwrap_or(0.0)
    }

    /// Waits for the server to exit after a `SHUTDOWN` was sent; kills it
    /// after five seconds. Returns whether it exited cleanly by itself.
    pub fn wait_exit(mut self) -> Res<bool> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status.success());
            }
            if Instant::now() >= deadline {
                return Ok(false); // drop kills it
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Total bytes of the store files a build leaves (`disk*.sqda` and
/// `meta.sqda`).
pub fn store_bytes(store: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(store)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(".sqda") {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}
