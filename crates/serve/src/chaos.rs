//! Deterministic chaos injection for the serving stack.
//!
//! [`ChaosTransport`] wraps any [`Transport`] and mangles the byte
//! streams the service sees, driven entirely by a seeded [`SplitMix64`]
//! plan: partial/split reads and writes, inbound byte truncation,
//! garbage prefixes, injected delays, mid-body connection resets, and a
//! slow-loris drip that feeds the parser one byte at a time. Every fault
//! is a pure function of `(seed, connection index)` — the same seed
//! replays the same storm, byte for byte, which is what lets the chaos
//! campaign in `tests/chaos.rs` assert *exact* outcomes (zero panics,
//! byte-identical healthy responses) instead of "it probably survived".
//!
//! The plan deliberately mangles only the **inbound** side of chaotic
//! connections plus their write pacing; connections the plan marks
//! healthy are perfect pass-throughs. Tests drive connections serially,
//! so the connector-side index matches the accept-side index and a test
//! can compute [`ConnPlan::for_connection`] itself to know which
//! connections must succeed verbatim.
//!
//! Injected delays are small (single-digit milliseconds) and capped per
//! connection ([`ConnPlan::DELAY_BUDGET`]), so a hundreds-of-connections
//! campaign stays in CI-smoke territory while still overrunning the
//! service's per-connection I/O deadline on the slow-loris plans.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use stem_sim_core::SplitMix64;

use crate::metrics::Metrics;
use crate::transport::{Connection, Transport};

/// The fault profile a chaotic connection runs. One profile per
/// connection keeps campaigns interpretable: a failure names the exact
/// `(seed, index, profile)` triple that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProfile {
    /// Reads are split into 1–7 byte fragments; writes into 1–63 bytes.
    SplitIo,
    /// Random bytes arrive before the real request.
    GarbagePrefix,
    /// The inbound stream reports EOF partway through the request.
    TruncateInbound,
    /// The inbound stream errors `ConnectionReset` partway through.
    ResetInbound,
    /// Outbound writes error `ConnectionReset` partway through.
    ResetOutbound,
    /// One inbound byte per read, each after a small sleep — the classic
    /// slow-loris; the service's I/O deadline must cut it off.
    SlowLoris,
    /// Small deterministic sleeps before reads and writes.
    DelayJitter,
}

impl FaultProfile {
    /// All profiles, in plan-selection order.
    pub const ALL: [FaultProfile; 7] = [
        FaultProfile::SplitIo,
        FaultProfile::GarbagePrefix,
        FaultProfile::TruncateInbound,
        FaultProfile::ResetInbound,
        FaultProfile::ResetOutbound,
        FaultProfile::SlowLoris,
        FaultProfile::DelayJitter,
    ];

    /// The `kind` label under `stem_serve_chaos_faults_total`.
    pub fn label(self) -> &'static str {
        match self {
            FaultProfile::SplitIo => "split_io",
            FaultProfile::GarbagePrefix => "garbage_prefix",
            FaultProfile::TruncateInbound => "truncate_inbound",
            FaultProfile::ResetInbound => "reset_inbound",
            FaultProfile::ResetOutbound => "reset_outbound",
            FaultProfile::SlowLoris => "slow_loris",
            FaultProfile::DelayJitter => "delay_jitter",
        }
    }
}

/// The complete, deterministic fault plan for one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnPlan {
    /// `None` = healthy pass-through connection.
    pub profile: Option<FaultProfile>,
    /// Max bytes returned per inbound read (`usize::MAX` = unlimited).
    pub read_chunk_cap: usize,
    /// Max bytes accepted per outbound write.
    pub write_chunk_cap: usize,
    /// Sleep before every inbound read.
    pub read_delay: Duration,
    /// Sleep before every outbound write.
    pub write_delay: Duration,
    /// Bytes prepended to the inbound stream before any real data.
    pub garbage_prefix: Vec<u8>,
    /// Inbound EOF after this many real bytes.
    pub truncate_inbound_after: u64,
    /// Inbound `ConnectionReset` after this many bytes.
    pub reset_inbound_after: u64,
    /// Outbound `ConnectionReset` after this many bytes.
    pub reset_outbound_after: u64,
}

impl ConnPlan {
    /// Ceiling on total injected sleep per connection, so a chaotic
    /// campaign cannot stretch wall-clock unboundedly.
    pub const DELAY_BUDGET: Duration = Duration::from_millis(400);

    /// Out of [`PLAN_MODULUS`](Self::PLAN_MODULUS) connections, how many
    /// draw a fault profile (the rest are healthy pass-throughs).
    pub const CHAOTIC_PER_MODULUS: u64 = 2;

    /// The chaotic-fraction denominator: 2 in 5 connections misbehave.
    pub const PLAN_MODULUS: u64 = 5;

    /// The identity plan: a perfect pass-through with no faults.
    pub fn healthy() -> ConnPlan {
        ConnPlan {
            profile: None,
            read_chunk_cap: usize::MAX,
            write_chunk_cap: usize::MAX,
            read_delay: Duration::ZERO,
            write_delay: Duration::ZERO,
            garbage_prefix: Vec::new(),
            truncate_inbound_after: u64::MAX,
            reset_inbound_after: u64::MAX,
            reset_outbound_after: u64::MAX,
        }
    }

    /// Derives the plan for connection number `index` (accept order,
    /// 0-based) under `seed`. Pure: transports and tests call the same
    /// function and agree on every byte.
    pub fn for_connection(seed: u64, index: u64) -> ConnPlan {
        // Feed the index through the generator state rather than xor'ing
        // it into the seed, so plans for adjacent indices share nothing.
        let mut rng = SplitMix64::new(seed.wrapping_add(index.wrapping_mul(0x9E37_79B9)));
        let healthy = ConnPlan::healthy();
        if rng.next_below(Self::PLAN_MODULUS) >= Self::CHAOTIC_PER_MODULUS {
            return healthy;
        }
        let profile = FaultProfile::ALL[rng.next_below(FaultProfile::ALL.len() as u64) as usize];
        let mut plan = ConnPlan {
            profile: Some(profile),
            ..healthy
        };
        match profile {
            FaultProfile::SplitIo => {
                plan.read_chunk_cap = 1 + rng.next_below(7) as usize;
                plan.write_chunk_cap = 1 + rng.next_below(63) as usize;
            }
            FaultProfile::GarbagePrefix => {
                let len = 1 + rng.next_below(48) as usize;
                plan.garbage_prefix = (0..len).map(|_| rng.next_u64() as u8).collect();
            }
            FaultProfile::TruncateInbound => {
                plan.truncate_inbound_after = 1 + rng.next_below(96);
            }
            FaultProfile::ResetInbound => {
                plan.reset_inbound_after = 1 + rng.next_below(96);
            }
            FaultProfile::ResetOutbound => {
                plan.reset_outbound_after = 1 + rng.next_below(64);
            }
            FaultProfile::SlowLoris => {
                plan.read_chunk_cap = 1;
                plan.read_delay = Duration::from_millis(2 + rng.next_below(3));
            }
            FaultProfile::DelayJitter => {
                plan.read_delay = Duration::from_millis(1 + rng.next_below(3));
                plan.write_delay = Duration::from_millis(1 + rng.next_below(3));
            }
        }
        plan
    }

    /// Whether this connection is a perfect pass-through.
    pub fn is_passthrough(&self) -> bool {
        self.profile.is_none()
    }
}

/// A [`Connection`] (or any `Read + Write` stream) filtered through a
/// [`ConnPlan`]. Generic so the HTTP property tests can chaos-wrap plain
/// in-memory cursors, not just live transport connections.
#[derive(Debug)]
pub struct ChaosConn<C> {
    inner: C,
    plan: ConnPlan,
    read_bytes: u64,
    written_bytes: u64,
    slept: Duration,
    /// Garbage bytes not yet delivered to the reader.
    pending_garbage: usize,
}

impl<C> ChaosConn<C> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: C, plan: ConnPlan) -> Self {
        let pending_garbage = plan.garbage_prefix.len();
        ChaosConn {
            inner,
            plan,
            read_bytes: 0,
            written_bytes: 0,
            slept: Duration::ZERO,
            pending_garbage,
        }
    }

    /// The plan this connection runs.
    pub fn plan(&self) -> &ConnPlan {
        &self.plan
    }

    /// Sleeps `d`, but never past the per-connection delay budget.
    fn throttled_sleep(&mut self, d: Duration) {
        if d.is_zero() {
            return;
        }
        let remaining = ConnPlan::DELAY_BUDGET.saturating_sub(self.slept);
        let d = d.min(remaining);
        if !d.is_zero() {
            std::thread::sleep(d);
            self.slept += d;
        }
    }
}

fn reset_err(direction: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        format!("chaos: injected {direction} connection reset"),
    )
}

impl<C: Read> Read for ChaosConn<C> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let delay = self.plan.read_delay;
        self.throttled_sleep(delay);
        // Garbage first: the parser must choke on it before seeing the
        // real request.
        if self.pending_garbage > 0 {
            let offset = self.plan.garbage_prefix.len() - self.pending_garbage;
            let n = buf
                .len()
                .min(self.pending_garbage)
                .min(self.plan.read_chunk_cap);
            buf[..n].copy_from_slice(&self.plan.garbage_prefix[offset..offset + n]);
            self.pending_garbage -= n;
            return Ok(n);
        }
        if self.read_bytes >= self.plan.reset_inbound_after {
            return Err(reset_err("inbound"));
        }
        if self.read_bytes >= self.plan.truncate_inbound_after {
            return Ok(0); // premature clean EOF
        }
        let remaining_before_fault = self
            .plan
            .reset_inbound_after
            .min(self.plan.truncate_inbound_after)
            .saturating_sub(self.read_bytes);
        let cap = buf
            .len()
            .min(self.plan.read_chunk_cap)
            .min(usize::try_from(remaining_before_fault).unwrap_or(usize::MAX));
        let n = self.inner.read(&mut buf[..cap])?;
        self.read_bytes += n as u64;
        Ok(n)
    }
}

impl<C: Write> Write for ChaosConn<C> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let delay = self.plan.write_delay;
        self.throttled_sleep(delay);
        if self.written_bytes >= self.plan.reset_outbound_after {
            return Err(reset_err("outbound"));
        }
        let remaining_before_fault = self
            .plan
            .reset_outbound_after
            .saturating_sub(self.written_bytes);
        let cap = buf
            .len()
            .min(self.plan.write_chunk_cap)
            .min(usize::try_from(remaining_before_fault).unwrap_or(usize::MAX));
        let n = self.inner.write(&buf[..cap])?;
        self.written_bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<C: Connection> Connection for ChaosConn<C> {}

/// A [`Transport`] decorator: every accepted connection is wrapped in the
/// [`ConnPlan`] its accept-order index draws from the seed. Faults are
/// counted into the service [`Metrics`] (rendered as
/// `stem_serve_chaos_connections_total` / `stem_serve_chaos_faults_total`)
/// when a metrics handle is attached.
pub struct ChaosTransport<T> {
    inner: T,
    seed: u64,
    accepted: AtomicU64,
    metrics: Option<Arc<Metrics>>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner`, mangling connections under `seed`.
    pub fn new(inner: T, seed: u64) -> Self {
        ChaosTransport {
            inner,
            seed,
            accepted: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Attaches the metrics sink that counts chaotic connections and
    /// injected fault profiles. Pass the same [`Metrics`] handed to
    /// [`ServeConfig::metrics`](crate::service::ServeConfig::metrics) so
    /// the counters surface on `/metrics`.
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The chaos seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn accept(&self) -> io::Result<Option<Box<dyn Connection>>> {
        let Some(conn) = self.inner.accept()? else {
            return Ok(None);
        };
        let index = self.accepted.fetch_add(1, Ordering::SeqCst);
        let plan = ConnPlan::for_connection(self.seed, index);
        if let (Some(metrics), Some(profile)) = (&self.metrics, plan.profile) {
            metrics.chaos_connection(profile.label());
        }
        if plan.is_passthrough() {
            return Ok(Some(conn));
        }
        Ok(Some(Box::new(ChaosConn::new(conn, plan))))
    }

    fn endpoint(&self) -> String {
        format!("{}+chaos(seed={:#x})", self.inner.endpoint(), self.seed)
    }
}

/// The shared campaign driver: drives a scripted mix of healthy and
/// chaotic connections against a service on any transport a connect
/// closure reaches (the in-memory duplex or a loopback TCP socket). Used
/// by both the `tests/chaos.rs` campaign and the `chaos_smoke` CI binary,
/// so the smoke stage exercises exactly the traffic shape the test suite
/// pins down.
pub mod campaign {
    use std::collections::BTreeMap;
    use std::io::{self, Read, Write};
    use std::time::Duration;

    use super::ConnPlan;
    use crate::http::{read_response_deadline, write_request, Deadline};

    /// What one campaign run observed.
    #[derive(Debug)]
    pub struct CampaignOutcome {
        /// Connections the plan marked healthy (pass-through).
        pub healthy_planned: usize,
        /// Healthy connections that returned HTTP 200.
        pub healthy_ok: usize,
        /// Response bodies of healthy connections, keyed by connection
        /// index — the cross-seed byte-identity assertion compares these
        /// maps wholesale.
        pub bodies: BTreeMap<u64, Vec<u8>>,
        /// Connections the plan marked chaotic.
        pub chaotic: usize,
        /// Human-readable description of every healthy-connection
        /// violation (must be empty for a passing campaign).
        pub failures: Vec<String>,
    }

    /// The request script for connection `index`: every seventh
    /// connection probes `/healthz`, the rest POST `/run` cycling through
    /// `run_bodies`. Deterministic in `index`, so the same connection
    /// sends the same request in every campaign run.
    pub fn scripted_request(
        index: u64,
        run_bodies: &[String],
    ) -> (&'static str, &'static str, String) {
        if index % 7 == 3 {
            ("GET", "/healthz", String::new())
        } else {
            let body = run_bodies[(index as usize) % run_bodies.len()].clone();
            ("POST", "/run", body)
        }
    }

    /// Drives `connections` serial connections, each opened by `connect`
    /// (serial, so connect order equals accept order and `plan_seed`
    /// bookkeeping matches the server-side [`super::ChaosTransport`]).
    /// Healthy connections must answer 200 within `healthy_deadline`;
    /// chaotic connections get `chaotic_deadline` of patience and any
    /// outcome is accepted — the invariants they probe (no panic, no
    /// hang) are asserted on the server's metrics afterwards.
    pub fn drive<C: Read + Write>(
        connect: impl Fn() -> io::Result<C>,
        plan_seed: u64,
        connections: u64,
        run_bodies: &[String],
        healthy_deadline: Duration,
        chaotic_deadline: Duration,
    ) -> CampaignOutcome {
        assert!(!run_bodies.is_empty(), "campaign needs request bodies");
        let mut outcome = CampaignOutcome {
            healthy_planned: 0,
            healthy_ok: 0,
            bodies: BTreeMap::new(),
            chaotic: 0,
            failures: Vec::new(),
        };
        for index in 0..connections {
            let plan = ConnPlan::for_connection(plan_seed, index);
            let healthy = plan.is_passthrough();
            if healthy {
                outcome.healthy_planned += 1;
            } else {
                outcome.chaotic += 1;
            }
            let (method, path, body) = scripted_request(index, run_bodies);
            let mut conn = match connect() {
                Ok(c) => c,
                Err(e) => {
                    if healthy {
                        outcome
                            .failures
                            .push(format!("conn {index}: connect failed: {e}"));
                    }
                    continue;
                }
            };
            if let Err(e) = write_request(&mut conn, method, path, body.as_bytes()) {
                if healthy {
                    outcome
                        .failures
                        .push(format!("conn {index}: write failed: {e}"));
                }
                continue;
            }
            let deadline = Deadline::after(if healthy {
                healthy_deadline
            } else {
                chaotic_deadline
            });
            match read_response_deadline(&mut conn, deadline) {
                Ok(resp) if healthy => {
                    if resp.status == 200 {
                        outcome.healthy_ok += 1;
                        outcome.bodies.insert(index, resp.body);
                    } else {
                        outcome.failures.push(format!(
                            "conn {index}: healthy connection got HTTP {}: {}",
                            resp.status,
                            resp.body_text()
                        ));
                    }
                }
                Err(e) if healthy => {
                    outcome
                        .failures
                        .push(format!("conn {index}: healthy response unreadable: {e}"));
                }
                // Chaotic connections accept any fate.
                Ok(_) | Err(_) => {}
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A minimal in-memory stream: reads from a script, writes to a sink.
    struct Loop {
        rx: Cursor<Vec<u8>>,
        tx: Vec<u8>,
    }

    impl Read for Loop {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.rx.read(buf)
        }
    }

    impl Write for Loop {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.tx.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn looped(inbound: &[u8]) -> Loop {
        Loop {
            rx: Cursor::new(inbound.to_vec()),
            tx: Vec::new(),
        }
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        for index in 0..64 {
            assert_eq!(
                ConnPlan::for_connection(42, index),
                ConnPlan::for_connection(42, index),
            );
        }
        let differs = (0..64).any(|i| {
            ConnPlan::for_connection(1, i).profile != ConnPlan::for_connection(2, i).profile
        });
        assert!(differs, "different seeds must draw different storms");
    }

    #[test]
    fn every_profile_appears_within_a_few_hundred_connections() {
        let mut seen = std::collections::BTreeSet::new();
        let mut healthy = 0u32;
        for i in 0..400 {
            match ConnPlan::for_connection(7, i).profile {
                Some(p) => {
                    seen.insert(p.label());
                }
                None => healthy += 1,
            }
        }
        assert_eq!(seen.len(), FaultProfile::ALL.len(), "seen: {seen:?}");
        assert!(
            healthy > 100,
            "healthy connections must dominate: {healthy}"
        );
    }

    #[test]
    fn passthrough_plan_does_not_alter_bytes() {
        let plan = ConnPlan {
            profile: None,
            ..ConnPlan::for_connection(0, 0)
        };
        let mut conn = ChaosConn::new(looped(b"hello"), plan);
        let mut out = Vec::new();
        conn.read_to_end(&mut out).expect("read");
        assert_eq!(out, b"hello");
        conn.write_all(b"world").expect("write");
        assert_eq!(conn.inner.tx, b"world");
    }

    #[test]
    fn garbage_prefix_arrives_before_real_data() {
        let mut plan = ConnPlan::for_connection(0, 0);
        plan.profile = Some(FaultProfile::GarbagePrefix);
        plan.garbage_prefix = vec![0xde, 0xad];
        let mut conn = ChaosConn::new(looped(b"real"), plan);
        let mut out = Vec::new();
        conn.read_to_end(&mut out).expect("read");
        assert_eq!(out, &[0xde, 0xad, b'r', b'e', b'a', b'l']);
    }

    #[test]
    fn truncation_yields_early_eof_and_reset_yields_error() {
        let mut plan = ConnPlan::for_connection(0, 0);
        plan.truncate_inbound_after = 3;
        let mut conn = ChaosConn::new(looped(b"abcdef"), plan);
        let mut out = Vec::new();
        conn.read_to_end(&mut out)
            .expect("truncated read is clean EOF");
        assert_eq!(out, b"abc");

        let mut plan = ConnPlan::for_connection(0, 0);
        plan.reset_inbound_after = 2;
        let mut conn = ChaosConn::new(looped(b"abcdef"), plan);
        let mut out = Vec::new();
        let err = conn.read_to_end(&mut out).expect_err("reset");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(out, b"ab", "bytes before the reset still arrive");
    }

    #[test]
    fn split_reads_cap_every_chunk_but_lose_nothing() {
        let mut plan = ConnPlan::for_connection(0, 0);
        plan.read_chunk_cap = 2;
        let mut conn = ChaosConn::new(looped(b"abcdefg"), plan);
        let mut buf = [0u8; 16];
        let mut total = Vec::new();
        loop {
            let n = conn.read(&mut buf).expect("read");
            if n == 0 {
                break;
            }
            assert!(n <= 2, "chunk cap violated: {n}");
            total.extend_from_slice(&buf[..n]);
        }
        assert_eq!(total, b"abcdefg");
    }

    #[test]
    fn outbound_reset_cuts_writes_mid_body() {
        let mut plan = ConnPlan::for_connection(0, 0);
        plan.reset_outbound_after = 4;
        let mut conn = ChaosConn::new(looped(b""), plan);
        conn.write_all(b"abcd").expect("first four bytes fit");
        let err = conn.write_all(b"e").expect_err("fifth byte resets");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(conn.inner.tx, b"abcd");
    }

    #[test]
    fn delay_budget_caps_total_injected_sleep() {
        let mut plan = ConnPlan::for_connection(0, 0);
        plan.read_chunk_cap = 1;
        plan.read_delay = Duration::from_millis(200);
        let inbound = vec![b'x'; 64];
        let mut conn = ChaosConn::new(looped(&inbound), plan);
        let t0 = std::time::Instant::now();
        let mut out = Vec::new();
        conn.read_to_end(&mut out).expect("read");
        assert_eq!(out.len(), 64);
        let elapsed = t0.elapsed();
        assert!(
            elapsed < ConnPlan::DELAY_BUDGET + Duration::from_millis(500),
            "delay budget exceeded: {elapsed:?}"
        );
    }
}
