//! A separately launched release `fcds-server` process: spawn it, wait
//! for its listening line (printed after boot recovery), read its peak
//! RSS, ask it to drain, and parse the drain report it prints.

use fcds_server::client::{Client, Reply};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Counters from the server's drain report line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainCounters {
    pub items: u64,
    pub batches: u64,
    pub sheds: u64,
    pub nacks: u64,
}

/// Ingest queue depth per worker, in batches (the server's default is
/// 64). A closed-loop writer is acked on enqueue, so a host stall that
/// deschedules the workers for a few milliseconds would otherwise fill
/// the queues and shed batches.
pub const QUEUE_DEPTH: usize = 1024;

/// How to launch the server.
#[derive(Debug, Clone)]
pub struct Launch {
    pub bin: PathBuf,
    /// `Some` turns on the durability tier on this directory.
    pub data_dir: Option<PathBuf>,
    /// The server's own `--secs` cap: a benchmark that dies without
    /// stopping its server cannot leave it running for long.
    pub max_secs: u64,
}

/// A running server process; killed and reaped on drop unless
/// [`Server::shutdown`] already stopped it.
pub struct Server {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Streams the server reported as recovered at boot.
    pub recovered: Option<usize>,
}

impl Server {
    /// Spawns the server and blocks until it listens.
    pub fn launch(l: &Launch) -> std::io::Result<Server> {
        let mut cmd = Command::new(&l.bin);
        cmd.arg("--addr=127.0.0.1:0")
            .arg(format!("--secs={}", l.max_secs))
            .arg(format!("--queue-depth={QUEUE_DEPTH}"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(dir) = &l.data_dir {
            cmd.arg(format!("--data-dir={}", dir.display()))
                .arg("--snapshot-ms=100")
                .arg("--fsync=interval");
        }
        let mut child = cmd.spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child: Some(child),
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            recovered: None,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if server.stdout.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other(
                    "fcds-server exited before printing its listening address",
                ));
            }
            let l = line.trim();
            if let Some(rest) = l.strip_prefix("fcds-server: recovered ") {
                server.recovered = rest.split_whitespace().next().and_then(|n| n.parse().ok());
            }
            if let Some(rest) = l.strip_prefix("fcds-server listening on ") {
                server.addr = rest
                    .parse()
                    .map_err(|e| std::io::Error::other(format!("bad listening line {l:?}: {e}")))?;
                // The accept loop polls every 25 ms. Connecting before its
                // first poll is accepted at once, after it waits for the
                // next one; a short pause makes every set-up pay the same.
                std::thread::sleep(Duration::from_millis(5));
                return Ok(server);
            }
        }
    }

    fn status_mib(&self, field: &str) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix(field))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    /// CPU time (user + system) the server process has used, seconds.
    /// `/proc/<pid>/stat` counts it in clock ticks of 1/100 s (`USER_HZ`
    /// is 100 on every Linux architecture the repo builds on).
    pub fn cpu_seconds(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
        Some(ticks as f64 / 100.0)
    }

    /// Peak resident set (`VmHWM`) of the server process, MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        self.status_mib("VmHWM:")
    }

    /// Current resident set (`VmRSS`) of the server process, MiB.
    pub fn rss_mib(&self) -> Option<f64> {
        self.status_mib("VmRSS:")
    }

    /// Sends a `Shutdown` frame, waits for the process to drain and
    /// exit, and returns its drain report counters.
    pub fn shutdown(mut self) -> std::io::Result<DrainCounters> {
        let mut c = Client::connect(self.addr, Duration::from_secs(10))?;
        match c.request_shutdown()? {
            Reply::Ack { .. } => {}
            other => return Err(std::io::Error::other(format!("shutdown reply {other:?}"))),
        }
        drop(c);
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let mut child = self.child.take().expect("child present until shutdown");
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(s) = child.try_wait()? {
                break s;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other(
                    "fcds-server did not exit after drain",
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        if !status.success() {
            return Err(std::io::Error::other(format!(
                "fcds-server exited with {status}"
            )));
        }
        parse_drain(&rest).ok_or_else(|| std::io::Error::other("no drain report from fcds-server"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Parses `fcds-server: {items} items in {batches} batches, {sheds}
/// sheds, {nacks} nacks, ...`.
pub fn parse_drain(out: &str) -> Option<DrainCounters> {
    let line = out
        .lines()
        .find(|l| l.starts_with("fcds-server: ") && l.contains(" items in "))?;
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .take(4)
        .map(|s| s.parse().ok())
        .collect::<Option<_>>()?;
    Some(DrainCounters {
        items: nums[0],
        batches: nums[1],
        sheds: nums[2],
        nacks: nums[3],
    })
}

/// Writes pre-seeded snapshot records into a fresh `dir` through the
/// server's own store.
pub fn seed_data_dir(dir: &Path, records: &[(String, Vec<u8>)]) -> std::io::Result<()> {
    use fcds_server::persist::{DirStore, SnapshotStore};
    let _ = std::fs::remove_dir_all(dir);
    let store = DirStore::new(dir)?;
    for (name, rec) in records {
        store.put(name, rec, false)?;
    }
    store.sync_dir()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_line_parses() {
        let out = "fcds-server: drain requested by client\n\
                   fcds-server: drained (workers flushed 3, flush-failed 0, panicked 0, leaked 0)\n\
                   fcds-server: 123 items in 4 batches, 5 sheds, 6 nacks, final estimate 0.0\n";
        assert_eq!(
            parse_drain(out),
            Some(DrainCounters {
                items: 123,
                batches: 4,
                sheds: 5,
                nacks: 6
            })
        );
    }
}
