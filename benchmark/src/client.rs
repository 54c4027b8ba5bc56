//! The outside view: processes under test, a closed-loop HTTP client
//! over real TCP, `/metrics` scraping and peak-memory polling.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use stem_serve::http;

/// Builds a command for a binary with none of the caller's `STEM_*`
/// knobs, so every run configures the program the same way. The program
/// gets one glibc malloc arena: with one arena per worker thread, peak
/// memory depended on which arenas the thread pool happened to touch and
/// varied by 15–25 % between identical runs.
pub fn clean_command(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("STEM_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("MALLOC_ARENA_MAX", "1");
    cmd
}

/// Polls a process's `VmHWM` (peak resident set) until stopped.
pub struct RssPoller {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl RssPoller {
    /// Starts polling `/proc/<pid>/status` every 5 ms.
    pub fn start(pid: u32) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let path = format!("/proc/{pid}/status");
            let mut peak_kb = 0u64;
            loop {
                if let Some(kb) = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| vm_hwm_kb(&s))
                {
                    peak_kb = peak_kb.max(kb);
                }
                if flag.load(Ordering::SeqCst) {
                    return peak_kb;
                }
                thread::sleep(Duration::from_millis(5));
            }
        });
        RssPoller { stop, handle }
    }

    /// Stops polling and returns the peak in MB (`None` if never read).
    pub fn stop(self) -> Option<f64> {
        self.stop.store(true, Ordering::SeqCst);
        let kb = self.handle.join().expect("rss poller thread");
        (kb > 0).then(|| kb as f64 / 1024.0)
    }
}

fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A running `serve` daemon.
pub struct Server {
    child: Child,
    stdout_drain: Option<JoinHandle<()>>,
    /// Bound address.
    pub addr: SocketAddr,
    /// Seconds from spawn until `/healthz` answered 200.
    pub setup_secs: f64,
}

impl Server {
    /// Spawns `bin` with `STEM_THREADS` workers and waits until `/healthz`
    /// answers 200.
    ///
    /// The port is chosen here, so `/healthz` can be polled from the
    /// moment of spawn: the first probe that connects waits in the listen
    /// backlog and is answered by the server's first accept. Polling only
    /// after reading the bound address raced that first accept, and a probe
    /// that lost the race waited out a whole accept-poll interval.
    pub fn spawn(bin: &Path, threads: usize, trace_dir: Option<&Path>) -> Result<Server, String> {
        let addr: SocketAddr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("cannot reserve a port: {e}"))?;
        let mut cmd = clean_command(bin);
        cmd.env("STEM_SERVE_ADDR", addr.to_string())
            .env("STEM_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = trace_dir {
            cmd.env("STEM_SERVE_TRACE_DIR", dir);
        }
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            stdout_drain: None,
            addr,
            setup_secs: 0.0,
        };
        loop {
            if matches!(get(addr, "/healthz"), Ok(r) if r.status == 200) {
                server.setup_secs = t0.elapsed().as_secs_f64();
                break;
            }
            if t0.elapsed() > Duration::from_secs(30)
                || matches!(server.child.try_wait(), Ok(Some(_)))
            {
                return Err(format!("server did not become healthy on {addr}"));
            }
            thread::sleep(Duration::from_micros(50));
        }
        let (bound, drain) = read_listen_addr(stdout)?;
        server.stdout_drain = Some(drain);
        if bound != addr {
            return Err(format!("server bound {bound}, asked for {addr}"));
        }
        Ok(server)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks for a graceful drain and waits for the process to exit; kills
    /// it if it has not exited within 30 s. Returns whether it exited
    /// cleanly on its own.
    pub fn shutdown(mut self) -> bool {
        let asked = matches!(post(self.addr, "/shutdown", b""), Ok(r) if r.status == 200);
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.join_drain();
                return asked && status.success();
            }
            thread::sleep(Duration::from_millis(2));
        }
        self.kill();
        false
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_drain();
    }

    fn join_drain(&mut self) {
        if let Some(h) = self.stdout_drain.take() {
            let _ = h.join();
        }
    }
}

/// A server abandoned on an error path is stopped, never left running.
impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Reads the daemon's `listening on <addr>` line, then keeps draining its
/// stdout on a thread so the pipe never fills.
fn read_listen_addr(stdout: ChildStdout) -> Result<(SocketAddr, JoinHandle<()>), String> {
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("reading server stdout: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("unexpected first server line {line:?}"))?;
    let drain = thread::spawn(move || {
        let _ = std::io::copy(&mut reader, &mut std::io::sink());
    });
    Ok((addr, drain))
}

/// One request/response exchange seen from the client.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// When the client started connecting.
    pub start: Instant,
    /// When the TCP connection was established.
    pub connected: Instant,
    /// When the request was fully written.
    pub sent: Instant,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the response was fully read.
    pub end: Instant,
    /// Status and body, or the transport error.
    pub result: Result<(u16, Vec<u8>), String>,
}

impl Exchange {
    /// Whether the request succeeded with 200.
    pub fn ok(&self) -> bool {
        matches!(self.result, Ok((200, _)))
    }

    /// The response body of a successful exchange.
    pub fn body(&self) -> Option<&[u8]> {
        match &self.result {
            Ok((200, body)) => Some(body),
            _ => None,
        }
    }

    /// Client-observed latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Records when the first byte was read through it.
struct FirstByte<R> {
    inner: R,
    at: Option<Instant>,
}

impl<R: Read> Read for FirstByte<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 && self.at.is_none() {
            self.at = Some(Instant::now());
        }
        Ok(n)
    }
}

/// POSTs one `/run` body on a fresh connection (the service answers one
/// request per connection) and times each phase.
fn exchange(addr: SocketAddr, body: &[u8]) -> Exchange {
    let start = Instant::now();
    let mut times = [start; 3];
    let result = (|| -> Result<(u16, Vec<u8>), String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        times[0] = Instant::now();
        http::write_request(&mut stream, "POST", "/run", body)
            .map_err(|e| format!("write: {e}"))?;
        times[1] = Instant::now();
        let mut reader = FirstByte {
            inner: stream,
            at: None,
        };
        let resp = http::read_response(&mut reader).map_err(|e| format!("read: {e}"))?;
        times[2] = reader.at.unwrap_or_else(Instant::now);
        Ok((resp.status, resp.body))
    })();
    let end = Instant::now();
    let [connected, sent, first_byte] = times;
    Exchange {
        start,
        connected: connected.max(start),
        sent: sent.max(connected),
        first_byte: first_byte.max(sent),
        end,
        result,
    }
}

/// A `GET` returning status and body.
pub fn get(addr: SocketAddr, path: &str) -> Result<http::HttpResponse, String> {
    request(addr, "GET", path, b"")
}

/// A `POST` returning status and body.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> Result<http::HttpResponse, String> {
    request(addr, "POST", path, body)
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<http::HttpResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    http::write_request(&mut stream, method, path, body).map_err(|e| e.to_string())?;
    http::read_response(&mut stream).map_err(|e| e.to_string())
}

/// Sends `bodies` to `/run` in order from `connections` closed-loop
/// clients: each client sends its next request only after its previous
/// one completed. Returns the exchanges in request order.
pub fn closed_loop(addr: SocketAddr, bodies: &[&str], connections: usize) -> Vec<Exchange> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Exchange>>> = Mutex::new(vec![None; bodies.len()]);
    thread::scope(|s| {
        for _ in 0..connections {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(body) = bodies.get(i) else { break };
                let ex = exchange(addr, body.as_bytes());
                slots
                    .lock()
                    .expect("no client thread panics holding the lock")[i] = Some(ex);
            });
        }
    });
    slots
        .into_inner()
        .expect("client threads joined")
        .into_iter()
        .map(|e| e.expect("every request index was taken"))
        .collect()
}

/// The `/metrics` page as `series → value` (label sets kept in the key).
pub fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let resp = get(addr, "/metrics")?;
    if resp.status != 200 {
        return Err(format!("/metrics answered {}", resp.status));
    }
    Ok(parse_metrics(&resp.body_text()))
}

/// Parses Prometheus text exposition lines (`series value`).
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// `after − before` for one series (missing series count as 0).
pub fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_page_parses_plain_and_labelled_series() {
        let page = "# HELP x y\n# TYPE x counter\nstem_serve_panics_total 0\n\
                    stem_serve_requests_total{route=\"run\",status=\"200\"} 12\n\
                    stem_serve_request_seconds_sum 0.25\n";
        let m = parse_metrics(page);
        assert_eq!(m["stem_serve_panics_total"], 0.0);
        assert_eq!(
            m["stem_serve_requests_total{route=\"run\",status=\"200\"}"],
            12.0
        );
        assert_eq!(m.len(), 3);
        let mut after = m.clone();
        after.insert("stem_serve_panics_total".into(), 2.0);
        assert_eq!(delta(&m, &after, "stem_serve_panics_total"), 2.0);
        assert_eq!(delta(&m, &after, "missing"), 0.0);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  4096 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(4096));
        assert_eq!(vm_hwm_kb("Name:\tx\n"), None);
    }
}
