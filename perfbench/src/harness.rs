//! Process and wire plumbing: the run directory, a guard that kills and
//! reaps every child on every exit path, the `kgq serve` launcher, and a
//! wire client of the benchmark's own.
//!
//! The client speaks the documented frame format itself instead of
//! linking `kgq_serve::Client`: the end-to-end numbers then depend only
//! on what goes over the socket, and it can time to the last body byte.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest the harness waits for one response or one boot.
pub const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Where the benchmark builds and writes: `$CARGO_TARGET_DIR` if set,
/// `target` otherwise, both relative to the checkout root.
pub fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
}

/// A fresh `target/bench/<run-id>/`, removed when dropped.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates the directory; `tag` keeps concurrent runs apart.
    pub fn create(tag: &str) -> std::io::Result<RunDir> {
        let dir = target_dir()
            .join("bench")
            .join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    /// A path inside the run directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Every child the run started. Dropping the guard kills and reaps
/// whatever is still alive, so a panic or an early return leaves no
/// `kgq` behind.
#[derive(Default)]
pub struct Children(Mutex<Vec<Child>>);

impl Children {
    /// An empty registry.
    pub fn new() -> Children {
        Children::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Child>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Spawns `cmd` and registers the child; returns its pid and, when
    /// piped, its stdout.
    pub fn spawn(&self, cmd: &mut Command) -> std::io::Result<(u32, Option<ChildStdout>)> {
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take();
        let pid = child.id();
        self.lock().push(child);
        Ok((pid, stdout))
    }

    fn take(&self, pid: u32) -> Option<Child> {
        let mut all = self.lock();
        let at = all.iter().position(|c| c.id() == pid)?;
        Some(all.swap_remove(at))
    }

    /// Waits for `pid` to exit by itself; true when it exited with 0.
    pub fn wait(&self, pid: u32) -> bool {
        self.take(pid)
            .is_some_and(|mut c| c.wait().is_ok_and(|s| s.success()))
    }

    /// `SIGKILL`s `pid` and reaps it.
    pub fn kill(&self, pid: u32) {
        if let Some(mut c) = self.take(pid) {
            let _ = c.kill();
            let _ = c.wait();
        }
    }

    /// Kills and reaps everything still registered, then checks `/proc`
    /// for a leftover child of this process. Returns the leftovers'
    /// pids (empty is the only good answer).
    pub fn reap_all(&self) -> Vec<u32> {
        let all: Vec<Child> = std::mem::take(&mut *self.lock());
        for mut c in all {
            let _ = c.kill();
            let _ = c.wait();
        }
        live_children_of(std::process::id())
    }
}

impl Drop for Children {
    fn drop(&mut self) {
        self.reap_all();
    }
}

/// Pids of live (non-zombie) processes whose parent is `ppid`.
fn live_children_of(ppid: u32) -> Vec<u32> {
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for e in entries.flatten() {
        let Some(pid) = e.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = fs::read_to_string(e.path().join("stat")) else {
            continue;
        };
        // pid (comm) state ppid ...; comm may hold spaces, so split
        // after the closing parenthesis.
        let Some(rest) = stat.rsplit_once(") ").map(|(_, r)| r) else {
            continue;
        };
        let mut it = rest.split_ascii_whitespace();
        let (state, parent) = (it.next(), it.next().and_then(|p| p.parse::<u32>().ok()));
        if parent == Some(ppid) && state != Some("Z") {
            out.push(pid);
        }
    }
    out
}

/// Peak resident set of a live process in MB (`VmHWM`).
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
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

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The `kgq` binary next to this one (both are built into the same
/// target directory by `run.sh`).
pub fn kgq_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let kgq = me.with_file_name("kgq");
    if kgq.is_file() {
        Ok(kgq)
    } else {
        Err(format!(
            "{} not found: build it first (perfbench/run.sh does)",
            kgq.display()
        ))
    }
}

/// A running `kgq serve`.
pub struct Server {
    /// Process id.
    pub pid: u32,
    /// Address parsed from the `listening on` line.
    pub addr: SocketAddr,
    // Held so the server's stdout stays open for its lifetime.
    _stdout: BufReader<ChildStdout>,
}

/// Spawns `kgq serve ARGS --port 0`, waits for its `listening on ADDR`
/// line and for the first `PING` to come back. Returns the server and
/// the seconds from spawn to that answer.
pub fn spawn_server(
    children: &Children,
    kgq: &Path,
    args: &[&str],
    stderr_to: &Path,
) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let stderr =
        fs::File::create(stderr_to).map_err(|e| format!("{}: {e}", stderr_to.display()))?;
    let (pid, stdout) = children
        .spawn(
            Command::new(kgq)
                .arg("serve")
                .args(args)
                .args(["--port", "0"])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(stderr),
        )
        .map_err(|e| format!("spawn kgq serve: {e}"))?;
    let mut stdout = BufReader::new(stdout.ok_or("kgq serve: no stdout")?);
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .map_err(|e| format!("kgq serve stdout: {e}"))?;
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| {
            let err = fs::read_to_string(stderr_to).unwrap_or_default();
            format!(
                "kgq serve {args:?} did not report an address: `{}` {err}",
                line.trim()
            )
        })?;
    let mut client = WireClient::connect(addr)?;
    let pong = client.request("PING", "up")?;
    if !pong.ok || pong.body != "up" {
        return Err(format!("kgq serve answered PING with `{}`", pong.body));
    }
    let boot_s = started.elapsed().as_secs_f64();
    Ok((
        Server {
            pid,
            addr,
            _stdout: stdout,
        },
        boot_s,
    ))
}

/// One response frame.
pub struct WireResponse {
    /// `OK` vs `ERR`.
    pub ok: bool,
    /// Body or error message.
    pub body: String,
}

/// Lock-step client over one TCP connection: one request, then block
/// for its response.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    frame: Vec<u8>,
}

impl WireClient {
    /// Connects with `TCP_NODELAY` on the client side, so a delay seen
    /// here is the server's.
    pub fn connect(addr: SocketAddr) -> Result<WireClient, String> {
        let writer = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .and_then(|()| writer.set_read_timeout(Some(IO_TIMEOUT)))
            .and_then(|()| writer.set_write_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::with_capacity(
            256 * 1024,
            writer
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(WireClient {
            reader,
            writer,
            next_id: 1,
            frame: Vec::new(),
        })
    }

    /// Sends `<id> <verb> - <len>\n<payload>` in one write and reads the
    /// `<id> OK|ERR <len>\n<body>` answer to its last byte.
    pub fn request(&mut self, verb: &str, payload: &str) -> Result<WireResponse, String> {
        let id = self.next_id;
        self.next_id += 1;
        self.frame.clear();
        let _ = write!(self.frame, "{id} {verb} - {}\n{payload}", payload.len());
        self.writer
            .write_all(&self.frame)
            .map_err(|e| format!("send {verb}: {e}"))?;
        let mut header = String::new();
        let n = self
            .reader
            .read_line(&mut header)
            .map_err(|e| format!("read {verb} header: {e}"))?;
        if n == 0 {
            return Err(format!("server closed before answering {verb}"));
        }
        let mut it = header.split_ascii_whitespace();
        let (Some(rid), Some(status), Some(len), None) =
            (it.next(), it.next(), it.next(), it.next())
        else {
            return Err(format!("malformed response header `{}`", header.trim()));
        };
        if rid.parse::<u64>().ok() != Some(id) {
            return Err(format!("response id {rid} for request {id}"));
        }
        let ok = match status {
            "OK" => true,
            "ERR" => false,
            other => return Err(format!("bad status `{other}`")),
        };
        let len: usize = len.parse().map_err(|_| format!("bad length `{len}`"))?;
        if len > 64 * 1024 * 1024 {
            return Err(format!("response of {len} bytes is beyond any workload's"));
        }
        let mut body = vec![0u8; len];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("read {verb} body: {e}"))?;
        let body = String::from_utf8(body).map_err(|_| "response body is not UTF-8".to_owned())?;
        Ok(WireResponse { ok, body })
    }

    /// One counter of a `STATS` body.
    pub fn stat(&mut self, key: &str) -> Result<u64, String> {
        let stats = self.request("STATS", "")?;
        stats
            .body
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.trim().parse().ok())
            .ok_or_else(|| format!("STATS has no `{key}`"))
    }
}

/// Runs one batch CLI invocation to the end of its stdout. Returns the
/// output, the wall time in seconds and the peak `VmHWM` seen while the
/// child was blocked writing (its peak comes before its single write, so
/// a reading taken between pipe reads is the peak for any output larger
/// than the pipe).
pub fn run_cli(
    children: &Children,
    kgq: &Path,
    args: &[&str],
) -> Result<(Vec<u8>, f64, f64), String> {
    let started = Instant::now();
    let (pid, stdout) = children
        .spawn(
            Command::new(kgq)
                .args(args)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit()),
        )
        .map_err(|e| format!("spawn kgq {args:?}: {e}"))?;
    let mut stdout = stdout.ok_or("kgq: no stdout")?;
    let mut out = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    let (mut reads, mut hwm) = (0u32, 0.0f64);
    loop {
        let n = stdout
            .read(&mut buf)
            .map_err(|e| format!("read kgq {args:?}: {e}"))?;
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
        if reads % 8 == 0 {
            hwm = hwm.max(vm_hwm_mb(pid).unwrap_or(0.0));
        }
        reads += 1;
    }
    let ok = children.wait(pid);
    let wall = started.elapsed().as_secs_f64();
    if !ok {
        return Err(format!("kgq {args:?} exited with a failure"));
    }
    Ok((out, wall, hwm))
}
