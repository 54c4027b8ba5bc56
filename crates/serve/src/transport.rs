//! The transport abstraction: where connections come from.
//!
//! The service core ([`crate::service`]) never touches a socket directly —
//! it pulls connections from a [`Transport`] and speaks HTTP over the
//! returned byte streams. Two implementations exist:
//!
//! * [`TcpTransport`] — a real `std::net::TcpListener`, used by the
//!   `serve` binary;
//! * [`DuplexTransport`] — an in-memory listener whose connections are
//!   `Mutex`/`Condvar` byte pipes, so the whole stack (HTTP parsing,
//!   routing, caching, backpressure) is unit-testable in-process with no
//!   ports, no firewalls, and no flaky ephemeral-bind races.
//!
//! Accept is *polled*: [`Transport::accept`] returns `Ok(None)` when no
//! connection arrived within its short internal wait, so the accept loop
//! can check its stop flag between polls and shut down promptly.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A bidirectional byte stream carrying one HTTP exchange.
pub trait Connection: Read + Write + Send {}

impl Connection for TcpStream {}

/// Boxed connections are connections too, so decorators like
/// [`ChaosConn`](crate::chaos::ChaosConn) can wrap whatever a transport
/// hands out without knowing the concrete stream type.
impl<C: Connection + ?Sized> Connection for Box<C> {}

/// A source of inbound connections the service accept-loop drains.
pub trait Transport: Send {
    /// Waits briefly for the next inbound connection. `Ok(None)` means
    /// nothing arrived within the poll window (the caller should check
    /// its stop flag and poll again); `Err` means the transport is no
    /// longer usable.
    fn accept(&self) -> io::Result<Option<Box<dyn Connection>>>;

    /// Human-readable endpoint (e.g. `127.0.0.1:8377` or `duplex`).
    fn endpoint(&self) -> String;
}

/// How long one [`Transport::accept`] poll waits before yielding `None`.
/// A TCP connection that arrives during the wait is picked up when it
/// ends, so this is the floor on a request's latency (half of it on
/// average). 5 ms keeps that floor well below the cost of a simulated
/// miss while an idle service wakes only 200 times a second.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// A [`Transport`] over a real TCP listener.
#[derive(Debug)]
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpTransport {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(TcpTransport { listener, addr })
    }

    /// The bound socket address (with the real port after an ephemeral
    /// bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Transport for TcpTransport {
    fn accept(&self) -> io::Result<Option<Box<dyn Connection>>> {
        match self.listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(false)?;
                // A stalled or half-dead client must not pin a handler
                // thread forever.
                stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                stream.set_write_timeout(Some(Duration::from_secs(10)))?;
                Ok(Some(Box::new(stream)))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn endpoint(&self) -> String {
        self.addr.to_string()
    }
}

// ---------------------------------------------------------------------------
// In-memory duplex
// ---------------------------------------------------------------------------

/// One direction of a duplex connection: a bounded-ish byte queue with
/// writer/reader shutdown flags.
#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    /// Set when the write end is dropped: readers drain what is left and
    /// then see EOF.
    write_closed: bool,
    /// Set when the read end is dropped: writers get `BrokenPipe`.
    read_closed: bool,
}

#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    cond: Condvar,
}

impl Pipe {
    fn write(&self, data: &[u8]) -> io::Result<usize> {
        let st = self.state.lock().expect("pipe lock");
        if st.read_closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "duplex peer closed its read end",
            ));
        }
        let mut st = st;
        st.buf.extend(data);
        self.cond.notify_all();
        Ok(data.len())
    }

    fn read(&self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut st = self.state.lock().expect("pipe lock");
        loop {
            if !st.buf.is_empty() {
                let n = out.len().min(st.buf.len());
                for slot in out.iter_mut().take(n) {
                    *slot = st.buf.pop_front().expect("buffer has n bytes");
                }
                return Ok(n);
            }
            if st.write_closed {
                return Ok(0); // clean EOF
            }
            let (next, timeout) = self
                .cond
                .wait_timeout(st, Duration::from_secs(10))
                .expect("pipe lock");
            st = next;
            if timeout.timed_out() && st.buf.is_empty() && !st.write_closed {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "duplex read timed out",
                ));
            }
        }
    }

    fn close_write(&self) {
        self.state.lock().expect("pipe lock").write_closed = true;
        self.cond.notify_all();
    }

    fn close_read(&self) {
        self.state.lock().expect("pipe lock").read_closed = true;
        self.cond.notify_all();
    }
}

/// One end of an in-memory duplex connection: reads from one pipe, writes
/// to the other.
#[derive(Debug)]
pub struct DuplexConn {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

impl Read for DuplexConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read(buf)
    }
}

impl Write for DuplexConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for DuplexConn {
    fn drop(&mut self) {
        self.tx.close_write();
        self.rx.close_read();
    }
}

impl Connection for DuplexConn {}

fn duplex_pair() -> (DuplexConn, DuplexConn) {
    let a = Arc::new(Pipe::default());
    let b = Arc::new(Pipe::default());
    (
        DuplexConn {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
        },
        DuplexConn { rx: b, tx: a },
    )
}

#[derive(Debug, Default)]
struct DuplexQueue {
    pending: VecDeque<DuplexConn>,
    closed: bool,
}

/// The listener half of the in-memory transport.
#[derive(Debug)]
pub struct DuplexTransport {
    queue: Arc<(Mutex<DuplexQueue>, Condvar)>,
}

/// The client half: hands out fresh connections to the paired
/// [`DuplexTransport`]. Cloneable so tests can connect from many threads.
#[derive(Debug, Clone)]
pub struct DuplexConnector {
    queue: Arc<(Mutex<DuplexQueue>, Condvar)>,
}

/// Creates a paired in-memory listener and connector.
pub fn duplex_transport() -> (DuplexTransport, DuplexConnector) {
    let queue = Arc::new((Mutex::new(DuplexQueue::default()), Condvar::new()));
    (
        DuplexTransport {
            queue: Arc::clone(&queue),
        },
        DuplexConnector { queue },
    )
}

impl DuplexConnector {
    /// Opens a new connection to the paired listener. Fails once the
    /// listener has shut down.
    pub fn connect(&self) -> io::Result<DuplexConn> {
        let (client, server) = duplex_pair();
        let (lock, cond) = &*self.queue;
        let mut q = lock.lock().expect("duplex queue lock");
        if q.closed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "duplex listener is shut down",
            ));
        }
        q.pending.push_back(server);
        cond.notify_all();
        Ok(client)
    }
}

impl Transport for DuplexTransport {
    fn accept(&self) -> io::Result<Option<Box<dyn Connection>>> {
        let (lock, cond) = &*self.queue;
        let mut q = lock.lock().expect("duplex queue lock");
        if let Some(conn) = q.pending.pop_front() {
            return Ok(Some(Box::new(conn)));
        }
        let (mut q, _timeout) = cond
            .wait_timeout(q, ACCEPT_POLL)
            .expect("duplex queue lock");
        Ok(q.pending
            .pop_front()
            .map(|c| Box::new(c) as Box<dyn Connection>))
    }

    fn endpoint(&self) -> String {
        "duplex".to_owned()
    }
}

impl Drop for DuplexTransport {
    fn drop(&mut self) {
        let (lock, cond) = &*self.queue;
        lock.lock().expect("duplex queue lock").closed = true;
        cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn duplex_round_trips_bytes_both_ways() {
        let (listener, connector) = duplex_transport();
        let mut client = connector.connect().expect("connect");
        let mut server = loop {
            if let Some(c) = listener.accept().expect("accept") {
                break c;
            }
        };
        client.write_all(b"ping").expect("client write");
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).expect("server read");
        assert_eq!(&buf, b"ping");
        server.write_all(b"pong").expect("server write");
        client.read_exact(&mut buf).expect("client read");
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn dropping_the_writer_yields_clean_eof() {
        let (listener, connector) = duplex_transport();
        let mut client = connector.connect().expect("connect");
        client.write_all(b"last words").expect("write");
        let mut server = listener.accept().expect("accept").expect("pending conn");
        drop(client);
        let mut all = Vec::new();
        server.read_to_end(&mut all).expect("read to EOF");
        assert_eq!(all, b"last words");
    }

    #[test]
    fn connect_after_listener_shutdown_is_refused() {
        let (listener, connector) = duplex_transport();
        drop(listener);
        let err = connector.connect().expect_err("refused");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn tcp_transport_binds_ephemeral_and_polls_empty() {
        let t = TcpTransport::bind("127.0.0.1:0").expect("bind");
        assert_ne!(t.local_addr().port(), 0);
        assert!(t.accept().expect("poll").is_none());
    }
}
