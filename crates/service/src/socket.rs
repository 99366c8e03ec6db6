//! The socket transport: a real blocking TCP or Unix-domain-socket
//! listener behind the [`Transport`](crate::transport::Transport) seam.
//!
//! Server shape: one acceptor thread polls a non-blocking listener; each
//! accepted connection gets a reader thread that feeds the stream through
//! a [`FrameDecoder`] and routes complete frames into the same per-worker
//! inboxes the in-process transport uses — the worker/shard loop never
//! learns whether its requests arrived over a mailbox or a socket.
//!
//! Failure containment: a [`WireError::BadLength`] on a live stream kills
//! *only that connection* (typed close, counted as `service.conn_drop`);
//! the worker survives and keeps serving every other connection. This is
//! deliberately different from the worker-side decoder, where a bad length
//! is unrecoverable — readers forward only complete re-encoded frames, so
//! the inbox stream stays clean by construction.
//!
//! Instruments (lane `workers + clients`, single-writer via a mutex):
//! `service.accept`, `service.conn_drop`, `service.read_syscall`,
//! `service.partial_frame`.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sbu_obs::Counter;

use crate::route::ShardMap;
use crate::transport::{
    ClientConn, ConnEvent, Delivery, Mailbox, RecvOutcome, SendOutcome, Transport,
};
use crate::wire::{control_frame, FrameDecoder, KIND_BUSY};

/// How long a reader blocks in `read` before rechecking the stop flag.
const READ_POLL: Duration = Duration::from_millis(25);
/// How long the acceptor sleeps between polls of the non-blocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// One accepted or dialed stream, TCP or Unix — the handful of methods the
/// transport needs, matched over both.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }

    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.write_all(bytes),
            Conn::Unix(s) => s.write_all(bytes),
        }
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    fn shutdown_both(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }

    fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l) => l.set_nonblocking(true),
        }
    }
}

/// The socket-plane counters, recorded on a dedicated obs lane owned by
/// whichever acceptor/reader thread holds the guard mutex at that moment.
pub(crate) struct SocketObs {
    accept: Counter,
    conn_drop: Counter,
    read_syscall: Counter,
    partial_frame: Counter,
    /// The transport lane (`workers + clients`).
    lane: usize,
    /// Serializes lane writes across acceptor + reader threads (the lanes
    /// are single-writer by contract; the socket plane has many threads).
    guard: Mutex<()>,
}

impl SocketObs {
    /// Register the socket-plane counters, recorded on `lane`.
    pub(crate) fn register(registry: &sbu_obs::Registry, lane: usize) -> Self {
        Self {
            accept: registry.counter("service.accept"),
            conn_drop: registry.counter("service.conn_drop"),
            read_syscall: registry.counter("service.read_syscall"),
            partial_frame: registry.counter("service.partial_frame"),
            lane,
            guard: Mutex::new(()),
        }
    }

    /// Count one event on `counter` (one of this struct's own).
    fn incr(&self, counter: &Counter) {
        let _g = self.guard.lock();
        counter.incr(self.lane);
    }
}

/// The reply-side handle for one accepted connection: readers register it
/// under the client id of the frames they decode; workers write replies
/// through it.
type Writer = Arc<Mutex<Conn>>;
type WriterMap = Arc<Mutex<HashMap<u32, Writer>>>;

/// The socket transport's server half. Client connections built through
/// [`Transport::connect`] dial the endpoint like any remote peer would —
/// they share no memory with the server beyond the obs registry.
pub(crate) struct Socket {
    inboxes: Arc<Vec<Mailbox>>,
    stop: Arc<AtomicBool>,
    writers: WriterMap,
    endpoint: String,
    acceptor: Mutex<Option<thread::JoinHandle<()>>>,
    unix_path: Option<PathBuf>,
}

impl Socket {
    /// Bind a TCP listener on `addr` and start accepting.
    pub(crate) fn tcp(
        addr: &str,
        map: ShardMap,
        workers: usize,
        capacity: usize,
        obs: Arc<SocketObs>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local: SocketAddr = listener.local_addr()?;
        let endpoint = format!("tcp://{local}");
        Self::start(
            Listener::Tcp(listener),
            endpoint,
            None,
            map,
            workers,
            capacity,
            obs,
        )
    }

    /// Bind a Unix-domain listener on `path` (unlinking any stale socket
    /// file first) and start accepting.
    pub(crate) fn unix(
        path: &Path,
        map: ShardMap,
        workers: usize,
        capacity: usize,
        obs: Arc<SocketObs>,
    ) -> std::io::Result<Self> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let endpoint = format!("unix://{}", path.display());
        Self::start(
            Listener::Unix(listener),
            endpoint,
            Some(path.to_path_buf()),
            map,
            workers,
            capacity,
            obs,
        )
    }

    fn start(
        listener: Listener,
        endpoint: String,
        unix_path: Option<PathBuf>,
        map: ShardMap,
        workers: usize,
        capacity: usize,
        obs: Arc<SocketObs>,
    ) -> std::io::Result<Self> {
        listener.set_nonblocking()?;
        let inboxes: Arc<Vec<Mailbox>> =
            Arc::new((0..workers).map(|_| Mailbox::new(capacity)).collect());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: WriterMap = Arc::new(Mutex::new(HashMap::new()));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let writers = Arc::clone(&writers);
            let inboxes = Arc::clone(&inboxes);
            thread::Builder::new()
                .name("sbu-service-accept".into())
                .spawn(move || {
                    let mut readers: Vec<thread::JoinHandle<()>> = Vec::new();
                    loop {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        match listener.accept() {
                            Ok(conn) => {
                                obs.incr(&obs.accept);
                                let _ = conn.set_read_timeout(Some(READ_POLL));
                                readers.push(spawn_reader(
                                    conn,
                                    Arc::clone(&stop),
                                    Arc::clone(&writers),
                                    Arc::clone(&inboxes),
                                    map,
                                    workers,
                                    Arc::clone(&obs),
                                ));
                            }
                            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                                thread::sleep(ACCEPT_POLL);
                            }
                            Err(_) => {
                                if stop.load(Ordering::SeqCst) {
                                    break;
                                }
                                thread::sleep(ACCEPT_POLL);
                            }
                        }
                    }
                    // Join readers on the way out so `shutdown` only has
                    // to join the acceptor.
                    for reader in readers {
                        let _ = reader.join();
                    }
                })
                .expect("spawn acceptor thread")
        };
        Ok(Self {
            inboxes,
            stop,
            writers,
            endpoint,
            acceptor: Mutex::new(Some(acceptor)),
            unix_path,
        })
    }
}

impl Transport for Socket {
    fn recv_requests(&self, worker: usize, max: usize) -> RecvOutcome {
        self.inboxes[worker].drain(max, &self.stop)
    }

    fn send_reply(&self, client: u32, delivery: Delivery) {
        // Clone the writer handle out of the registry before touching the
        // stream, so a slow peer never holds the registry lock.
        let writer = self.writers.lock().get(&client).map(Arc::clone);
        let Some(writer) = writer else {
            // The connection is already gone; the client's retransmit will
            // arrive on a fresh one and hit the dedup window.
            return;
        };
        match delivery {
            Delivery::Intact(bytes) => {
                if writer.lock().write_all(&bytes).is_err() {
                    self.drop_writer(client, &writer);
                }
            }
            Delivery::Truncated(prefix) => {
                // Fault injection at the socket seam: the peer sees a
                // partial frame and then EOF, exactly like a mid-write
                // crash.
                let mut conn = writer.lock();
                let _ = conn.write_all(&prefix);
                conn.shutdown_both();
                drop(conn);
                self.drop_writer(client, &writer);
            }
        }
    }

    fn requeue_front(&self, worker: usize, bytes: Vec<u8>) {
        self.inboxes[worker].push_front(bytes);
    }

    fn connect(self: Arc<Self>, client: u32) -> Box<dyn ClientConn> {
        Box::new(SocketConn::dial(self.endpoint.clone(), client))
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Tear down live connections so blocked reads fail fast.
        for writer in self.writers.lock().values() {
            writer.lock().shutdown_both();
        }
        if let Some(acceptor) = self.acceptor.lock().take() {
            let _ = acceptor.join();
        }
        self.writers.lock().clear();
        for inbox in self.inboxes.iter() {
            inbox.notify_all();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }

    fn endpoint(&self) -> Option<String> {
        Some(self.endpoint.clone())
    }
}

impl Socket {
    fn drop_writer(&self, client: u32, writer: &Writer) {
        let mut map = self.writers.lock();
        if map.get(&client).is_some_and(|w| Arc::ptr_eq(w, writer)) {
            map.remove(&client);
        }
    }
}

impl Drop for Socket {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_reader(
    mut conn: Conn,
    stop: Arc<AtomicBool>,
    writers: WriterMap,
    inboxes: Arc<Vec<Mailbox>>,
    map: ShardMap,
    workers: usize,
    obs: Arc<SocketObs>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("sbu-service-reader".into())
        .spawn(move || {
            let writer: Writer =
                Arc::new(Mutex::new(conn.try_clone().expect("clone accepted stream")));
            let mut registered: Vec<u32> = Vec::new();
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 16 * 1024];
            'conn: loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let n = match conn.read(&mut buf) {
                    Ok(0) => break, // clean EOF
                    Ok(n) => n,
                    Err(err)
                        if err.kind() == std::io::ErrorKind::WouldBlock
                            || err.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(_) => {
                        if !stop.load(Ordering::SeqCst) {
                            obs.incr(&obs.conn_drop);
                        }
                        break;
                    }
                };
                obs.incr(&obs.read_syscall);
                dec.push(&buf[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => {
                            // Claim (or reclaim) the writer slot for this
                            // client id. The check must go through the map,
                            // not a connection-local cache: a fault plane
                            // that reorders requests across clients can
                            // carry client A's frame over client B's
                            // stream, whose reader then claims A's slot —
                            // and A's own retransmits must win it back or
                            // A's replies stay misrouted forever.
                            {
                                let mut map = writers.lock();
                                match map.get(&frame.client) {
                                    Some(w) if Arc::ptr_eq(w, &writer) => {}
                                    _ => {
                                        map.insert(frame.client, Arc::clone(&writer));
                                    }
                                }
                            }
                            if !registered.contains(&frame.client) {
                                registered.push(frame.client);
                            }
                            let worker = map.shard_of(frame.key) % workers;
                            if !inboxes[worker].try_push(frame.to_bytes()) {
                                // Inbox at its high watermark: answer Busy
                                // directly so the client's retry loop backs
                                // off — the socket itself never blocks on a
                                // full inbox.
                                let busy = control_frame(&frame, KIND_BUSY);
                                let _ = writer.lock().write_all(&busy.to_bytes());
                            }
                        }
                        Ok(None) => break,
                        Err(err) if err.is_recoverable() => continue,
                        Err(_) => {
                            // BadLength / Payload: a length field (or frame
                            // body) we can't trust poisons the rest of the
                            // stream — typed close of this connection only;
                            // the worker never sees it.
                            obs.incr(&obs.conn_drop);
                            conn.shutdown_both();
                            deregister(&writers, &registered, &writer);
                            break 'conn;
                        }
                    }
                }
                if dec.pending_len() > 0 {
                    obs.incr(&obs.partial_frame);
                }
            }
            deregister(&writers, &registered, &writer);
        })
        .expect("spawn reader thread")
}

/// Remove this connection's writer registrations — but only where the map
/// still points at *this* writer, so a reconnected client's fresh writer
/// survives its predecessor's cleanup.
fn deregister(writers: &Mutex<HashMap<u32, Writer>>, registered: &[u32], writer: &Writer) {
    let mut map = writers.lock();
    for client in registered {
        if map.get(client).is_some_and(|w| Arc::ptr_eq(w, writer)) {
            map.remove(client);
        }
    }
}

/// The client half: one dialed connection plus its incremental decoder.
/// Built either through [`Transport::connect`] (loopback clients inside
/// the server process) or [`SocketConn::dial`] directly (a true remote
/// client, as `service_loadgen --remote` does).
pub struct SocketConn {
    endpoint: String,
    stream: Option<Conn>,
    dec: FrameDecoder,
}

impl SocketConn {
    /// Create a lazily-dialed connection to `tcp://HOST:PORT` or
    /// `unix://PATH`. The dial happens on the first send, so constructing
    /// clients against a not-yet-listening server is fine.
    pub fn dial(endpoint: String, _client: u32) -> Self {
        Self {
            endpoint,
            stream: None,
            dec: FrameDecoder::new(),
        }
    }

    fn ensure_stream(&mut self) -> Option<&mut Conn> {
        if self.stream.is_none() {
            let conn = if let Some(addr) = self.endpoint.strip_prefix("tcp://") {
                TcpStream::connect(addr).ok().map(Conn::Tcp)
            } else if let Some(path) = self.endpoint.strip_prefix("unix://") {
                UnixStream::connect(path).ok().map(Conn::Unix)
            } else {
                None
            };
            if let Some(conn) = conn {
                let _ = conn.set_read_timeout(Some(READ_POLL));
                self.stream = Some(conn);
            }
        }
        self.stream.as_mut()
    }

    fn poison(&mut self) {
        if let Some(conn) = self.stream.take() {
            conn.shutdown_both();
        }
        self.dec.reset();
    }
}

impl ClientConn for SocketConn {
    fn send(&mut self, _worker: usize, delivery: Delivery) -> SendOutcome {
        // Socket clients never shed locally: overload comes back from the
        // server as a Busy control frame. Write failures are losses — the
        // retry loop's retransmission recovers them.
        match delivery {
            Delivery::Intact(bytes) => {
                let ok = match self.ensure_stream() {
                    Some(conn) => conn.write_all(&bytes).is_ok(),
                    None => false,
                };
                if !ok {
                    self.poison();
                }
            }
            Delivery::Truncated(prefix) => {
                // Fault injection: a connection that died mid-request.
                if let Some(conn) = self.ensure_stream() {
                    let _ = conn.write_all(&prefix);
                }
                self.poison();
            }
        }
        SendOutcome::Sent
    }

    fn recv_until(&mut self, until: Instant) -> ConnEvent {
        loop {
            // Drain anything already buffered before touching the socket.
            match self.dec.next_frame() {
                Ok(Some(frame)) => return ConnEvent::Frame(frame),
                Ok(None) => {}
                Err(err) if err.is_recoverable() => return ConnEvent::Garbled,
                Err(_) => {
                    // A broken length on the reply stream: this connection
                    // is unusable; reconnect and retransmit.
                    self.poison();
                    return ConnEvent::Disconnected;
                }
            }
            let now = Instant::now();
            if now >= until {
                return ConnEvent::Timeout;
            }
            let Some(conn) = self.ensure_stream() else {
                return ConnEvent::Disconnected;
            };
            let window = (until - now).min(READ_POLL).max(Duration::from_millis(1));
            let _ = conn.set_read_timeout(Some(window));
            let mut buf = [0u8; 16 * 1024];
            match conn.read(&mut buf) {
                Ok(0) => {
                    self.poison();
                    return ConnEvent::Disconnected;
                }
                Ok(n) => self.dec.push(&buf[..n]),
                Err(err)
                    if err.kind() == std::io::ErrorKind::WouldBlock
                        || err.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => {
                    self.poison();
                    return ConnEvent::Disconnected;
                }
            }
        }
    }

    fn reconnect(&mut self) -> bool {
        self.poison();
        self.ensure_stream().is_some()
    }
}
