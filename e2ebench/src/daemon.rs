//! Starting and stopping the real `commalloc serve` binary.

use crate::drive::call;
use crate::spec::DaemonSpec;
use commalloc_service::{Request, Response};
use std::io::{self, BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    stderr: Option<JoinHandle<()>>,
    journal: Option<PathBuf>,
    /// The address it listens on.
    addr: String,
}

impl Daemon {
    /// Starts `binary serve` for `spec` with one worker, journaling into
    /// `journal` when the spec asks for it, and waits until it listens.
    pub fn start(binary: &Path, spec: &DaemonSpec, journal: Option<&Path>) -> io::Result<Daemon> {
        let mut cmd = match daemon_cpu() {
            Some(cpu) => {
                let mut cmd = Command::new("taskset");
                cmd.arg("-c").arg(cpu.to_string()).arg(binary);
                cmd
            }
            None => Command::new(binary),
        };
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"]);
        if spec.members.len() == 1 {
            let m = spec.members[0];
            cmd.args([
                "--machine",
                m.name,
                "--mesh",
                &format!("{}x{}", m.width, m.height),
            ]);
        } else {
            let machines: Vec<String> = spec
                .members
                .iter()
                .map(|m| format!("{}={}x{}", m.name, m.width, m.height))
                .collect();
            cmd.args(["--machines", &machines.join(",")]);
        }
        cmd.args(["--allocator", spec.allocator, "--scheduler", spec.scheduler]);
        if let Some(pool) = spec.pool {
            cmd.args(["--pool", pool]);
        }
        if let Some(router) = spec.router {
            cmd.args(["--router", router]);
        }
        if let Some(dir) = journal {
            cmd.arg("--journal").arg(dir).args(["--fsync", "512"]);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn()?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if lines.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "daemon exited before listening: {}",
                    line.trim()
                )));
            }
            addr = line
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string);
        }
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = lines.read_to_end(&mut sink);
        });
        Ok(Daemon {
            child,
            stderr: Some(stderr),
            journal: journal.map(Path::to_path_buf),
            addr: addr.expect("loop ends with an address"),
        })
    }

    /// Opens a connection with Nagle off.
    pub fn connect(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Peak resident set size of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// CPU time the daemon has used so far (all threads), in seconds.
    pub fn cpu_seconds(&self) -> Option<f64> {
        cpu_seconds(&format!("/proc/{}/stat", self.child.id()))
    }

    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
        if let Some(dir) = self.journal.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The CPU the daemon runs on: the last one, when the host has at least
/// two and `taskset` is installed; `None` runs everything unpinned.
/// Decided once, before [`pin_generator`] narrows this process's own mask.
pub fn daemon_cpu() -> Option<usize> {
    static CPU: OnceLock<Option<usize>> = OnceLock::new();
    *CPU.get_or_init(|| {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let taskset = Command::new("taskset")
            .arg("-V")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        (cpus >= 2 && taskset).then_some(cpus - 1)
    })
}

/// Keeps this process, and every thread it starts afterwards, off the
/// daemon's CPU, so generator and daemon do not trade places between
/// runs. Returns a note saying where each runs.
pub fn pin_generator() -> String {
    let Some(cpu) = daemon_cpu() else {
        return "unpinned (one CPU or no taskset)".to_string();
    };
    let mine = if cpu == 1 {
        "0".to_string()
    } else {
        format!("0-{}", cpu - 1)
    };
    let pinned = Command::new("taskset")
        .args(["-a", "-p", "-c", &mine, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    if pinned {
        format!("daemon on CPU {cpu}, generator on CPUs {mine}")
    } else {
        format!("daemon on CPU {cpu}, generator unpinned")
    }
}

/// User plus system CPU time from a `/proc/<pid>/stat` file, in seconds.
/// The file counts in clock ticks of 1/100 s (`USER_HZ` on Linux).
pub fn cpu_seconds(stat_path: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(stat_path).ok()?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime field 14, stime field 15.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i - 3)?.parse::<u64>().ok();
    Some((ticks(14)? + ticks(15)?) as f64 / 100.0)
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Starts a daemon, connects and waits for the first `ping` answer:
/// the set-up a client pays before its first request. Returns the daemon,
/// the connection and the seconds it took.
pub fn timed_setup(
    binary: &Path,
    spec: &DaemonSpec,
    journal: Option<&Path>,
) -> io::Result<(Daemon, TcpStream, f64)> {
    let start = Instant::now();
    let daemon = Daemon::start(binary, spec, journal)?;
    let mut stream = daemon.connect()?;
    match call(&mut stream, spec.framing, &Request::Ping)? {
        Response::Pong => {}
        other => return Err(io::Error::other(format!("ping answered {other:?}"))),
    }
    let seconds = start.elapsed().as_secs_f64();
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok((daemon, stream, seconds))
}
