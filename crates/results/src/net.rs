//! The network seam of the remote result store, and deterministic
//! fault injection behind it.
//!
//! [`NetIo`] is to the network what [`crate::StoreIo`] is to the disk:
//! the one trait everything remote goes through. Its single operation,
//! [`NetIo::exchange`], performs a whole request/response round trip —
//! connect, send one frame, read one frame, close — which is exactly
//! the granularity the failure modes of interest live at: a refused
//! connection, a dropped (timed-out) exchange, a delayed one, a
//! garbled response, a half-closed connection that truncates the
//! response. [`TcpIo`] is the production implementation with explicit
//! connect/read/write timeouts; [`FaultyNet`] wraps any [`NetIo`] and
//! injects the faults its shared [`NetFaultControl`] arms, mirroring
//! the disk-side [`crate::FaultControl`] — one-shot rules plus a
//! seeded chaos stream, so every network failure test is deterministic.

use crate::protocol::{read_frame, write_frame};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Connect/read/write deadlines for one exchange. Every timeout is
/// explicit: a dead or wedged remote must surface as an error the
/// retry/breaker machinery can act on, never as a hung sweep.
#[derive(Clone, Copy, Debug)]
pub struct NetTimeouts {
    /// Deadline for establishing the TCP connection.
    pub connect: Duration,
    /// Deadline for each read of the response.
    pub read: Duration,
    /// Deadline for each write of the request.
    pub write: Duration,
}

impl Default for NetTimeouts {
    fn default() -> Self {
        Self {
            connect: Duration::from_secs(2),
            read: Duration::from_secs(5),
            write: Duration::from_secs(5),
        }
    }
}

/// The minimal network surface the remote store talks through.
pub trait NetIo: Send + Sync {
    /// Performs one whole request/response exchange with `addr`:
    /// connect, send `request` as one frame, read one response frame,
    /// close. Returns the response payload.
    fn exchange(&self, addr: &str, request: &[u8]) -> io::Result<Vec<u8>>;
}

/// The production [`NetIo`]: one TCP connection per exchange, with the
/// configured timeouts applied to every phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpIo {
    timeouts: NetTimeouts,
}

impl TcpIo {
    /// A `TcpIo` with the given deadlines.
    pub fn new(timeouts: NetTimeouts) -> Self {
        Self { timeouts }
    }
}

impl NetIo for TcpIo {
    fn exchange(&self, addr: &str, request: &[u8]) -> io::Result<Vec<u8>> {
        let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
        })?;
        let mut stream = TcpStream::connect_timeout(&sockaddr, self.timeouts.connect)?;
        // One small request frame, then wait for the reply: Nagle's
        // algorithm would only hold it back.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeouts.read))?;
        stream.set_write_timeout(Some(self.timeouts.write))?;
        write_frame(&mut stream, request)?;
        read_frame(&mut stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed without responding",
            )
        })
    }
}

#[derive(Debug, Default)]
struct State {
    /// Refuse this many upcoming exchanges with `ConnectionRefused`
    /// (without touching the network). `u32::MAX` from
    /// [`NetFaultControl::refuse_all`] is effectively forever.
    refuse: u32,
    /// Next exchange is dropped: no network traffic, `TimedOut`.
    drop_next: bool,
    /// Next exchange really runs, after this delay.
    delay_next: Option<Duration>,
    /// Next exchange really runs, then its response bytes are garbled.
    garble_next: bool,
    /// Next exchange really runs, then its response is truncated to
    /// this many bytes — what a half-closed connection delivers.
    half_close_next: Option<usize>,
    /// Seeded chaos: (seed, percent) — each exchange independently
    /// refuses, drops, or garbles with the given probability.
    seeded: Option<(u64, u32)>,
    /// Exchanges attempted so far (the chaos stream's position). Also
    /// how breaker tests prove short-circuiting: a tripped client
    /// stops adding to this.
    ops: u64,
    /// Faults actually injected.
    injected: u64,
}

/// Shared handle steering a [`FaultyNet`]. Clone it before handing the
/// io to the remote store so the test keeps a control channel.
#[derive(Clone, Debug, Default)]
pub struct NetFaultControl(Arc<Mutex<State>>);

impl NetFaultControl {
    /// A control with no faults armed.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Refuses the next `n` exchanges with `ConnectionRefused`.
    pub fn refuse_next(&self, n: u32) {
        self.lock().refuse = n;
    }

    /// Refuses every exchange until [`NetFaultControl::clear`] — a dead
    /// remote.
    pub fn refuse_all(&self) {
        self.lock().refuse = u32::MAX;
    }

    /// Drops the next exchange: no traffic, `TimedOut`.
    pub fn drop_next(&self) {
        self.lock().drop_next = true;
    }

    /// Delays the next exchange by `d`, then lets it run.
    pub fn delay_next(&self, d: Duration) {
        self.lock().delay_next = Some(d);
    }

    /// Garbles the next exchange's response bytes.
    pub fn garble_next(&self) {
        self.lock().garble_next = true;
    }

    /// Truncates the next exchange's response to `keep` bytes — the
    /// payload a half-closed connection delivers.
    pub fn half_close_next(&self, keep: usize) {
        self.lock().half_close_next = Some(keep);
    }

    /// Enables seeded chaos: each exchange faults (refuse, drop, or
    /// garble, derived from the stream) with probability `percent`/100.
    pub fn seed(&self, seed: u64, percent: u32) {
        self.lock().seeded = Some((seed, percent));
    }

    /// Disarms every fault, keeping the counters.
    pub fn clear(&self) {
        let mut s = self.lock();
        let ops = s.ops;
        let injected = s.injected;
        *s = State::default();
        s.ops = ops;
        s.injected = injected;
    }

    /// Exchanges attempted through the faulty io so far.
    pub fn exchanges(&self) -> u64 {
        self.lock().ops
    }

    /// Faults actually injected so far.
    pub fn injected(&self) -> u64 {
        self.lock().injected
    }
}

/// SplitMix64, as in [`crate::faults`].
fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed
        .wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn injected_err(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("injected fault: {what}"))
}

/// What one exchange should do, decided under the control lock.
enum Plan {
    Clean,
    Refuse,
    Drop,
    Delay(Duration),
    Garble,
    HalfClose(usize),
}

/// A [`NetIo`] that injects the faults its [`NetFaultControl`] arms
/// and delegates everything else to the wrapped io.
pub struct FaultyNet {
    inner: Box<dyn NetIo>,
    ctl: NetFaultControl,
}

impl FaultyNet {
    /// Wraps `inner` with the given control handle.
    pub fn new(inner: Box<dyn NetIo>, ctl: NetFaultControl) -> Self {
        Self { inner, ctl }
    }
}

impl NetIo for FaultyNet {
    fn exchange(&self, addr: &str, request: &[u8]) -> io::Result<Vec<u8>> {
        let plan = {
            let mut s = self.ctl.lock();
            s.ops += 1;
            if s.refuse > 0 {
                // `refuse_all` (u32::MAX) never counts down.
                if s.refuse != u32::MAX {
                    s.refuse -= 1;
                }
                s.injected += 1;
                Plan::Refuse
            } else if s.drop_next {
                s.drop_next = false;
                s.injected += 1;
                Plan::Drop
            } else if let Some(d) = s.delay_next.take() {
                s.injected += 1;
                Plan::Delay(d)
            } else if s.garble_next {
                s.garble_next = false;
                s.injected += 1;
                Plan::Garble
            } else if let Some(keep) = s.half_close_next.take() {
                s.injected += 1;
                Plan::HalfClose(keep)
            } else if let Some((seed, percent)) = s.seeded {
                let r = mix(seed, s.ops);
                if r % 100 < u64::from(percent) {
                    s.injected += 1;
                    match (r >> 8) % 3 {
                        0 => Plan::Refuse,
                        1 => Plan::Drop,
                        _ => Plan::Garble,
                    }
                } else {
                    Plan::Clean
                }
            } else {
                Plan::Clean
            }
        };
        match plan {
            Plan::Clean => self.inner.exchange(addr, request),
            Plan::Refuse => Err(injected_err(
                io::ErrorKind::ConnectionRefused,
                "connection refused",
            )),
            Plan::Drop => Err(injected_err(io::ErrorKind::TimedOut, "exchange dropped")),
            Plan::Delay(d) => {
                std::thread::sleep(d);
                self.inner.exchange(addr, request)
            }
            Plan::Garble => {
                let mut payload = self.inner.exchange(addr, request)?;
                // Flip a bit in every 7th byte: still a frame-sized
                // payload, no longer the JSON the server sent.
                for (i, b) in payload.iter_mut().enumerate() {
                    if i % 7 == 0 {
                        *b ^= 0x20;
                    }
                }
                Ok(payload)
            }
            Plan::HalfClose(keep) => {
                let mut payload = self.inner.exchange(addr, request)?;
                payload.truncate(keep);
                Ok(payload)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// A scripted in-memory peer: always answers with the configured
    /// payload and records what it was asked.
    struct Scripted {
        answer: Vec<u8>,
        asked: StdMutex<Vec<Vec<u8>>>,
    }

    impl NetIo for Scripted {
        fn exchange(&self, _addr: &str, request: &[u8]) -> io::Result<Vec<u8>> {
            self.asked.lock().unwrap().push(request.to_vec());
            Ok(self.answer.clone())
        }
    }

    fn scripted(answer: &[u8]) -> (FaultyNet, NetFaultControl) {
        let ctl = NetFaultControl::new();
        let net = FaultyNet::new(
            Box::new(Scripted {
                answer: answer.to_vec(),
                asked: StdMutex::new(Vec::new()),
            }),
            ctl.clone(),
        );
        (net, ctl)
    }

    #[test]
    fn one_shot_rules_fire_once_then_disarm() {
        let (net, ctl) = scripted(b"pong");
        ctl.drop_next();
        assert_eq!(
            net.exchange("x", b"ping").unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(net.exchange("x", b"ping").unwrap(), b"pong");
        ctl.garble_next();
        assert_ne!(net.exchange("x", b"ping").unwrap(), b"pong");
        assert_eq!(net.exchange("x", b"ping").unwrap(), b"pong");
        ctl.half_close_next(2);
        assert_eq!(net.exchange("x", b"ping").unwrap(), b"po");
        assert_eq!(ctl.injected(), 3);
        assert_eq!(ctl.exchanges(), 5);
    }

    #[test]
    fn refusals_count_down_and_refuse_all_persists() {
        let (net, ctl) = scripted(b"pong");
        ctl.refuse_next(2);
        for _ in 0..2 {
            assert_eq!(
                net.exchange("x", b"ping").unwrap_err().kind(),
                io::ErrorKind::ConnectionRefused
            );
        }
        assert_eq!(net.exchange("x", b"ping").unwrap(), b"pong");
        ctl.refuse_all();
        for _ in 0..5 {
            assert!(net.exchange("x", b"ping").is_err());
        }
        ctl.clear();
        assert_eq!(net.exchange("x", b"ping").unwrap(), b"pong");
    }

    #[test]
    fn seeded_chaos_is_deterministic() {
        let outcomes = |seed| {
            let (net, ctl) = scripted(b"pong");
            ctl.seed(seed, 40);
            (0..30)
                .map(|_| match net.exchange("x", b"ping") {
                    Ok(p) if p == b"pong" => 'c',
                    Ok(_) => 'g',
                    Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => 'r',
                    Err(_) => 'd',
                })
                .collect::<String>()
        };
        let a = outcomes(7);
        assert_eq!(a, outcomes(7), "same seed, same fault stream");
        assert!(a.contains('c') && a.chars().any(|c| c != 'c'));
    }

    #[test]
    fn tcp_io_refuses_cleanly_on_a_dead_port() {
        // Bind-then-drop guarantees the port is closed right now.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let io = TcpIo::new(NetTimeouts {
            connect: Duration::from_millis(250),
            ..NetTimeouts::default()
        });
        assert!(io.exchange(&addr, b"ping").is_err());
    }
}
