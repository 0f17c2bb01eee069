#![warn(missing_docs)]

//! The result-service daemon behind `gm-serve`: a [`Server`] fronting
//! one [`ResultStore`] over the `gm-results` wire protocol.
//!
//! Built resilience-first, matching the store it guards:
//!
//! * **Connection-per-thread accept loop**, bounded by
//!   [`ServeConfig::max_inflight`] — excess connections wait in the
//!   listener backlog instead of spawning unbounded threads. The loop
//!   blocks in `accept`, so a client is served the moment it connects;
//!   [`Shutdown::trigger`] wakes it with one throwaway loopback
//!   connection to every listener registered on the flag.
//! * **Per-connection deadlines** on every read and write: a stalled
//!   or half-dead peer is dropped, never able to wedge the daemon.
//! * **Checksum verification on every `Put`**: the server re-renders
//!   the record it received and recomputes its SHA-256; a mismatch
//!   with the client's claim is rejected without appending — a garbled
//!   frame can cost an exchange, never corrupt the store.
//! * **Graceful drain**: triggering the shared [`Shutdown`] flag stops
//!   the accept loop, lets in-flight connections finish, fsyncs every
//!   store file, and returns — `kill -TERM` is always safe, and even
//!   `kill -9` leaves a store the next `gm-run store --verify` passes
//!   (that guarantee is the local store's, not the daemon's).
//!
//! The library form exists so tests can run a real server in-process
//! (own thread, loopback socket, deterministic shutdown) without
//! managing a child process.

use gm_results::{read_frame, sha256_hex, write_frame, Request, Response, ResultStore};
use gm_stats::Json;
use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning knobs of a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Connections served concurrently; excess waits in the backlog.
    pub max_inflight: usize,
    /// Deadline for each read from a connection. Doubles as the poll
    /// interval at which an idle connection observes a shutdown.
    pub read_timeout: Duration,
    /// Deadline for each write to a connection.
    pub write_timeout: Duration,
    /// Whether store appends fsync before being acknowledged.
    pub sync: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_inflight: 32,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(5),
            sync: false,
        }
    }
}

/// A shared drain flag: trigger it (from a signal handler bridge, a
/// test, or another thread) and the server stops accepting, finishes
/// in-flight connections, fsyncs, and returns. Deliberately a value,
/// not a process global, so parallel in-process servers in tests stay
/// independent.
#[derive(Clone, Debug, Default)]
pub struct Shutdown(Arc<DrainFlag>);

#[derive(Debug, Default)]
struct DrainFlag {
    set: AtomicBool,
    /// Loopback addresses of the listeners a trigger must wake out of
    /// `accept`; each [`Server`] is on it from bind to drop.
    wake: Mutex<Vec<SocketAddr>>,
}

impl Shutdown {
    /// A flag that is not yet set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the drain, then wakes every registered accept loop
    /// with a throwaway connection. The flag is set first, and the loop
    /// checks it before every `accept`, so no wake-up can be lost.
    pub fn trigger(&self) {
        self.0.set.store(true, Ordering::SeqCst);
        // Held across the connects: a server cannot unregister, and so
        // cannot close its listener, while it is being woken.
        for addr in self.wake_list().iter() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
        }
    }

    /// Whether the drain has been requested.
    pub fn is_set(&self) -> bool {
        self.0.set.load(Ordering::SeqCst)
    }

    fn wake_list(&self) -> MutexGuard<'_, Vec<SocketAddr>> {
        self.0.wake.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Deterministic request counters (no wall-clock anywhere): what
/// `Stats` reports and [`Server::run`] returns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Frames decoded as requests (well-formed or not).
    pub requests: u64,
    /// `Get` requests served.
    pub gets: u64,
    /// `Get`s answered with a record.
    pub hits: u64,
    /// `Get`s answered `NotFound`.
    pub misses: u64,
    /// `Put`s verified and appended.
    pub puts_accepted: u64,
    /// `Put`s rejected (checksum mismatch, bad record, append failure).
    pub puts_rejected: u64,
    /// Requests answered with an error (including rejected puts).
    pub errors: u64,
    /// Records currently indexed.
    pub records: u64,
    /// Experiments currently indexed.
    pub experiments: u64,
}

impl ServeStats {
    /// The `Stats` response body. Field order is fixed — the output of
    /// `gm-serve --status` is byte-deterministic given equal counters.
    pub fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.set("requests", self.requests)
            .set("gets", self.gets)
            .set("hits", self.hits)
            .set("misses", self.misses)
            .set("puts_accepted", self.puts_accepted)
            .set("puts_rejected", self.puts_rejected)
            .set("errors", self.errors)
            .set("records", self.records)
            .set("experiments", self.experiments);
        j
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    gets: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    puts_accepted: AtomicU64,
    puts_rejected: AtomicU64,
    errors: AtomicU64,
}

/// State shared between the accept loop and connection threads.
struct Inner {
    store: ResultStore,
    cfg: ServeConfig,
    shutdown: Shutdown,
    /// (experiment, fingerprint) → sha-stripped record. Loaded from
    /// the store at bind time, extended by every accepted `Put`.
    index: Mutex<HashMap<(String, String), Json>>,
    experiments: Mutex<std::collections::BTreeSet<String>>,
    counters: Counters,
    inflight: AtomicUsize,
}

impl Inner {
    fn stats(&self) -> ServeStats {
        let index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
        let experiments = self
            .experiments
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let c = &self.counters;
        ServeStats {
            requests: c.requests.load(Ordering::Relaxed),
            gets: c.gets.load(Ordering::Relaxed),
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            puts_accepted: c.puts_accepted.load(Ordering::Relaxed),
            puts_rejected: c.puts_rejected.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            records: index.len() as u64,
            experiments: experiments.len() as u64,
        }
    }
}

/// An experiment name the daemon will touch a file for: a path
/// component, never a path. Rejecting everything else closes the
/// traversal hole a hostile `Put{experiment: "../../etc/cron.d/x"}`
/// would otherwise open.
fn valid_experiment(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// A bound, not-yet-running result service.
pub struct Server {
    listener: TcpListener,
    /// Where [`Shutdown::trigger`] connects to wake the accept loop.
    wake_addr: SocketAddr,
    inner: Arc<Inner>,
}

impl Server {
    /// Loads `store`'s records into the in-memory index and binds the
    /// listener on `listen` (e.g. `127.0.0.1:0` for an ephemeral
    /// port). The server does not serve until [`Server::run`].
    pub fn bind(
        mut store: ResultStore,
        listen: &str,
        cfg: ServeConfig,
        shutdown: Shutdown,
    ) -> io::Result<Self> {
        store.set_sync(cfg.sync);
        let mut index = HashMap::new();
        let mut experiments = std::collections::BTreeSet::new();
        for experiment in store.experiments()? {
            let shard = store.load(&experiment)?;
            for (fingerprint, record) in shard.records {
                index.insert((experiment.clone(), fingerprint), record);
            }
            experiments.insert(experiment);
        }
        let listener = TcpListener::bind(listen)?;
        let wake_addr = loopback(listener.local_addr()?);
        shutdown.wake_list().push(wake_addr);
        Ok(Self {
            listener,
            wake_addr,
            inner: Arc::new(Inner {
                store,
                cfg,
                shutdown,
                index: Mutex::new(index),
                experiments: Mutex::new(experiments),
                counters: Counters::default(),
                inflight: AtomicUsize::new(0),
            }),
        })
    }

    /// The address the listener actually bound (resolves `:0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A snapshot of the counters (also served as `Stats`).
    pub fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    /// Serves until the [`Shutdown`] flag is triggered, then drains:
    /// stops accepting, joins in-flight connections, fsyncs every
    /// store file, and returns the final counters.
    pub fn run(self) -> io::Result<ServeStats> {
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        while !self.inner.shutdown.is_set() {
            handles.retain(|h| !h.is_finished());
            if handles.len() >= self.inner.cfg.max_inflight {
                thread::sleep(Duration::from_millis(2));
                continue;
            }
            match self.listener.accept() {
                // The connection that woke a drain, or one that raced it.
                Ok(_) if self.inner.shutdown.is_set() => break,
                Ok((stream, _peer)) => {
                    let inner = Arc::clone(&self.inner);
                    inner.inflight.fetch_add(1, Ordering::Relaxed);
                    handles.push(thread::spawn(move || {
                        serve_connection(&inner, stream);
                        inner.inflight.fetch_sub(1, Ordering::Relaxed);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain: no new connections; in-flight ones observe the flag at
        // their next read deadline and close.
        for h in handles {
            let _ = h.join();
        }
        // Belt and braces for an unsynced config: everything the store
        // acknowledged reaches the disk before the daemon exits.
        for experiment in self.inner.store.experiments()? {
            let path = self.inner.store.path(&experiment);
            if let Ok(f) = std::fs::File::open(&path) {
                f.sync_all()?;
            }
        }
        Ok(self.inner.stats())
    }
}

impl Drop for Server {
    /// Leaves the wake list before the listener closes, so a later
    /// trigger never connects to a process that reused the port.
    fn drop(&mut self) {
        self.inner
            .shutdown
            .wake_list()
            .retain(|a| *a != self.wake_addr);
    }
}

/// The address a local client reaches a listener bound to `addr` at:
/// an unspecified `0.0.0.0`/`[::]` maps to the matching loopback.
fn loopback(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Serves one connection until EOF, error, or drain.
fn serve_connection(inner: &Inner, mut stream: TcpStream) {
    // Each response is one frame the client is waiting on; send it now.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    loop {
        if inner.shutdown.is_set() {
            // Draining: in-flight requests finished their write below;
            // an idle keepalive connection is closed here.
            return;
        }
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean EOF
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue; // idle; poll the shutdown flag again
            }
            Err(_) => return,
        };
        inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        let response = handle_request(inner, &payload);
        if write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
    }
}

/// Decodes and answers one request frame.
fn handle_request(inner: &Inner, payload: &[u8]) -> Response {
    let c = &inner.counters;
    let reject = |message: String| {
        c.errors.fetch_add(1, Ordering::Relaxed);
        Response::Error { message }
    };
    let request = match Request::decode(payload) {
        Ok(r) => r,
        Err(e) => return reject(e),
    };
    match request {
        Request::Get {
            experiment,
            fingerprint,
        } => {
            c.gets.fetch_add(1, Ordering::Relaxed);
            if !valid_experiment(&experiment) {
                return reject(format!("invalid experiment name {experiment:?}"));
            }
            // Clone under the lock, hash outside it: concurrent gets must
            // not queue behind one another's render and SHA-256.
            let record = inner
                .index
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&(experiment, fingerprint))
                .cloned();
            match record {
                Some(record) => {
                    c.hits.fetch_add(1, Ordering::Relaxed);
                    Response::Found {
                        sha: sha256_hex(record.render().as_bytes()),
                        record,
                    }
                }
                None => {
                    c.misses.fetch_add(1, Ordering::Relaxed);
                    Response::NotFound
                }
            }
        }
        Request::Put {
            experiment,
            sha,
            record,
        } => {
            let rejected = |message: String| {
                c.puts_rejected.fetch_add(1, Ordering::Relaxed);
                reject(message)
            };
            if !valid_experiment(&experiment) {
                return rejected(format!("invalid experiment name {experiment:?}"));
            }
            if record.get("sha").is_some() {
                return rejected("record must not pre-carry a checksum".into());
            }
            let Some(fingerprint) = record.get("fingerprint").and_then(Json::as_str) else {
                return rejected("record has no fingerprint".into());
            };
            let fingerprint = fingerprint.to_owned();
            // The contract of the service: recompute the checksum over
            // the bytes *received* and compare with the client's claim.
            // A frame garbled anywhere between the two SHA computations
            // is rejected here and never reaches the store.
            let body = record.render();
            let computed = sha256_hex(body.as_bytes());
            if computed != sha {
                return rejected(format!(
                    "checksum mismatch: claimed {sha:.12}…, received bytes hash {computed:.12}…"
                ));
            }
            if let Err(e) = inner.store.append(&experiment, &record) {
                return rejected(format!("append failed: {e}"));
            }
            c.puts_accepted.fetch_add(1, Ordering::Relaxed);
            inner
                .index
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert((experiment.clone(), fingerprint), record);
            inner
                .experiments
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(experiment);
            Response::Stored
        }
        Request::Health => Response::Health {
            status: if inner.shutdown.is_set() {
                "draining".into()
            } else {
                "serving".into()
            },
        },
        Request::Stats => Response::Stats {
            stats: inner.stats().to_json(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_results::{RemoteStore, RetryPolicy};
    use std::path::PathBuf;
    use std::sync::mpsc;
    use std::time::Instant;

    /// A unique scratch directory under the system temp dir, removed
    /// on drop (the offline environment has no `tempfile` crate).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "gm-serve-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("scratch dir creates");
            Self(dir)
        }

        fn store(&self, name: &str) -> ResultStore {
            ResultStore::open(self.0.join(name)).expect("scratch store opens")
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn rec(fp: &str, cycles: u64) -> Json {
        let mut j = Json::object();
        j.set("fingerprint", fp).set("cycles", cycles);
        j
    }

    fn fast_client(addr: &str) -> RemoteStore {
        RemoteStore::new(addr).with_policy(RetryPolicy {
            attempts: 2,
            base_backoff: Duration::ZERO,
            seed: 1,
            breaker_threshold: 2,
        })
    }

    fn bind(store: ResultStore, listen: &str, shutdown: &Shutdown) -> Server {
        let cfg = ServeConfig {
            read_timeout: Duration::from_millis(25),
            ..ServeConfig::default()
        };
        Server::bind(store, listen, cfg, shutdown.clone()).unwrap()
    }

    /// Runs `server` on its own thread; the result arrives on the
    /// returned channel.
    fn run_in_thread(server: Server) -> mpsc::Receiver<io::Result<ServeStats>> {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(server.run());
        });
        rx
    }

    /// Waits for a drained server's counters. A lost wake-up fails the
    /// test here instead of hanging it.
    fn drained(running: mpsc::Receiver<io::Result<ServeStats>>) -> ServeStats {
        running
            .recv_timeout(Duration::from_secs(5))
            .expect("server drains within 5 s of the trigger")
            .expect("server drains cleanly")
    }

    /// Starts an in-process server over `store`, returning its
    /// address, drain trigger, and result channel.
    fn spawn_server(
        store: ResultStore,
    ) -> (String, Shutdown, mpsc::Receiver<io::Result<ServeStats>>) {
        let shutdown = Shutdown::new();
        let server = bind(store, "127.0.0.1:0", &shutdown);
        let addr = server.local_addr().unwrap().to_string();
        (addr, shutdown, run_in_thread(server))
    }

    #[test]
    fn serves_gets_and_puts_and_drains_cleanly() {
        let scratch = Scratch::new("roundtrip");
        let seed = scratch.store("server");
        let fp_a = "aa".repeat(32);
        seed.append("fig6", &rec(&fp_a, 1)).unwrap();
        let (addr, shutdown, handle) = spawn_server(scratch.store("server"));

        let client = fast_client(&addr);
        assert_eq!(
            client.get("fig6", &fp_a).unwrap().render(),
            rec(&fp_a, 1).render(),
            "preloaded record served from the index"
        );
        let fp_b = "bb".repeat(32);
        assert!(client.get("fig6", &fp_b).is_none());
        assert!(client.put("fig6", &rec(&fp_b, 2)));
        assert_eq!(
            client.get("fig6", &fp_b).unwrap().render(),
            rec(&fp_b, 2).render()
        );

        shutdown.trigger();
        let stats = drained(handle);
        assert_eq!((stats.gets, stats.hits, stats.misses), (3, 2, 1));
        assert_eq!((stats.puts_accepted, stats.puts_rejected), (1, 0));
        assert_eq!(stats.records, 2);
        // The put is durable: a fresh store handle reloads it.
        let reloaded = scratch.store("server").load("fig6").unwrap();
        assert_eq!(reloaded.records.len(), 2);
        assert_eq!(reloaded.checksummed, 2);
    }

    #[test]
    fn a_garbled_put_is_rejected_and_never_appended() {
        let scratch = Scratch::new("bad-put");
        let (addr, shutdown, handle) = spawn_server(scratch.store("server"));
        let fp = "cc".repeat(32);

        // Hand-roll a Put whose claimed sha does not match its record —
        // what a frame garbled in flight looks like to the server.
        let req = Request::Put {
            experiment: "fig6".into(),
            sha: "0".repeat(64),
            record: rec(&fp, 3),
        };
        let io = gm_results::TcpIo::default();
        use gm_results::NetIo;
        let resp = Response::decode(&io.exchange(&addr, &req.encode()).unwrap()).unwrap();
        match resp {
            Response::Error { message } => assert!(message.contains("checksum"), "{message}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        // Traversal and malformed records are rejected the same way.
        for req in [
            Request::Put {
                experiment: "../evil".into(),
                sha: "0".repeat(64),
                record: rec(&fp, 3),
            },
            Request::Put {
                experiment: "fig6".into(),
                sha: "0".repeat(64),
                record: Json::object().set("no_fingerprint", 1u64).clone(),
            },
        ] {
            let resp = Response::decode(&io.exchange(&addr, &req.encode()).unwrap()).unwrap();
            assert!(matches!(resp, Response::Error { .. }), "{req:?}");
        }

        shutdown.trigger();
        let stats = drained(handle);
        assert_eq!(stats.puts_rejected, 3);
        assert_eq!(stats.puts_accepted, 0);
        assert!(
            !scratch.store("server").path("fig6").exists(),
            "nothing was appended"
        );
    }

    #[test]
    fn health_flips_to_draining_and_stats_counts_deterministically() {
        let scratch = Scratch::new("health");
        let (addr, shutdown, handle) = spawn_server(scratch.store("server"));
        let io = gm_results::TcpIo::default();
        use gm_results::NetIo;
        let health = Response::decode(&io.exchange(&addr, &Request::Health.encode()).unwrap());
        assert_eq!(
            health.unwrap(),
            Response::Health {
                status: "serving".into()
            }
        );
        let stats = Response::decode(&io.exchange(&addr, &Request::Stats.encode()).unwrap());
        match stats.unwrap() {
            Response::Stats { stats } => {
                // Requests counted so far: the health probe and the
                // stats request itself. No wall-clock fields.
                assert_eq!(stats.get("requests").unwrap().as_u64(), Some(2));
                assert!(stats.get("uptime").is_none());
                assert_eq!(
                    stats.render(),
                    ServeStats {
                        requests: 2,
                        ..ServeStats::default()
                    }
                    .to_json()
                    .render(),
                    "stats are byte-deterministic"
                );
            }
            other => panic!("{other:?}"),
        }
        shutdown.trigger();
        drained(handle);
    }

    #[test]
    fn oversized_and_malformed_frames_cannot_wedge_the_daemon() {
        let scratch = Scratch::new("hostile");
        let (addr, shutdown, handle) = spawn_server(scratch.store("server"));
        // A malformed JSON frame gets an error response.
        use std::io::Write as _;
        let mut stream = TcpStream::connect(&addr).unwrap();
        write_frame(&mut stream, b"not json").unwrap();
        let resp = Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
        assert!(matches!(resp, Response::Error { .. }));
        // A hostile length prefix just drops the connection.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
        // And the daemon still serves afterwards.
        let client = fast_client(&addr);
        let fp = "dd".repeat(32);
        assert!(client.put("fig6", &rec(&fp, 4)));
        shutdown.trigger();
        let stats = drained(handle);
        assert_eq!(stats.puts_accepted, 1);
        assert!(stats.errors >= 1);
    }

    #[test]
    fn an_idle_server_drains_promptly() {
        let scratch = Scratch::new("idle");
        let (_addr, shutdown, handle) = spawn_server(scratch.store("server"));
        // Let the accept loop block before the trigger.
        thread::sleep(Duration::from_millis(50));
        shutdown.trigger();
        let stats = drained(handle);
        assert_eq!(stats.requests, 0, "the wake-up connection is not served");
        assert!(shutdown.wake_list().is_empty(), "run leaves the wake list");
    }

    #[test]
    fn a_server_on_the_unspecified_address_is_woken_through_loopback() {
        let scratch = Scratch::new("any");
        let shutdown = Shutdown::new();
        let server = bind(scratch.store("server"), "0.0.0.0:0", &shutdown);
        let port = server.local_addr().unwrap().port();
        assert_eq!(
            *shutdown.wake_list(),
            [SocketAddr::from((Ipv4Addr::LOCALHOST, port))]
        );
        let handle = run_in_thread(server);
        thread::sleep(Duration::from_millis(50));
        shutdown.trigger();
        drained(handle);
        assert!(shutdown.wake_list().is_empty());
    }

    #[test]
    fn a_trigger_before_run_makes_run_return_immediately() {
        let scratch = Scratch::new("early");
        let shutdown = Shutdown::new();
        let server = bind(scratch.store("server"), "127.0.0.1:0", &shutdown);
        shutdown.trigger();
        assert_eq!(drained(run_in_thread(server)), ServeStats::default());
        // A second trigger finds nothing to wake.
        assert!(shutdown.wake_list().is_empty());
        shutdown.trigger();
    }

    #[test]
    fn sequential_remote_gets_do_not_wait_on_the_accept_loop() {
        let scratch = Scratch::new("latency");
        let seed = scratch.store("server");
        let fp = "ee".repeat(32);
        seed.append("fig6", &rec(&fp, 5)).unwrap();
        let (addr, shutdown, handle) = spawn_server(scratch.store("server"));
        let client = fast_client(&addr);
        let start = Instant::now();
        for _ in 0..200 {
            assert!(client.get("fig6", &fp).is_some());
        }
        let elapsed = start.elapsed();
        shutdown.trigger();
        assert_eq!(drained(handle).hits, 200);
        // One connection per get: a server that polled its listener
        // would add the poll interval to every one of them.
        assert!(
            elapsed < Duration::from_millis(500),
            "200 gets took {elapsed:?}"
        );
    }

    #[test]
    fn experiment_name_validation_is_strict() {
        for good in ["fig6", "t", "fig11_sweep", "a-b"] {
            assert!(valid_experiment(good), "{good}");
        }
        for bad in ["", "..", "a/b", "a\\b", "a.jsonl", "é", &"x".repeat(129)] {
            assert!(!valid_experiment(bad), "{bad}");
        }
    }
}
