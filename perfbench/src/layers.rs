//! Layer timing from outside the program.
//!
//! The cluster already calls through three public traits; wrapping each
//! one times a layer without touching program code:
//!
//! * [`TimedLink`] (`SessionLink`) — the gateway: a request handed to the
//!   gateway until its reply is sent.
//! * [`TimedTransport`] (`Transport`) — peer frames, and the replication
//!   ack round trip on the primary.
//! * [`TimedBackend`] (`StorageBackend`) — the backend and the device.
//!
//! With tracing off every wrapper costs one relaxed atomic load per call.
//! With tracing on, spans go to an in-memory store that is written out as
//! JSONL when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use fc_cluster::{MemBackend, Message, StorageBackend, Transport, TransportError};
use fc_gateway::{LinkClosed, Reply, Request, SessionLink};
use fc_ring::Ring;
use fc_ssd::{Lpn, Ssd};

/// Spans kept in memory; later spans still count in the tallies but are
/// not stored (reported as `spans_dropped`).
const MAX_SPANS: usize = 1_500_000;

pub const GW_WRITE: &str = "gateway.write";
pub const GW_READ: &str = "gateway.read";
pub const GW_OTHER: &str = "gateway.other";
pub const FRAME_SEND: &str = "cluster.transport.send";
pub const ACK_RTT: &str = "cluster.repl.ack_rtt";
pub const BACKEND_WRITE: &str = "cluster.backend.write";
pub const BACKEND_READ: &str = "cluster.backend.read";
pub const BACKEND_TRIM: &str = "cluster.backend.trim";
const BACKGROUND: &str = "background";

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Span that caused this one; 0 for a root.
    pub parent: u64,
    /// Request id (session << 40 | client request id); 0 for background work.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One recorded client-visible page operation, for the LAR replay.
#[derive(Debug, Clone, Copy)]
pub struct PageOp {
    pub write: bool,
    pub lpn: u64,
    pub pages: u32,
}

/// Counts taken at the layer boundaries while tracing.
#[derive(Debug, Default)]
pub struct Tally {
    pub frames: AtomicU64,
    pub repl_batches: AtomicU64,
    pub repl_pages: AtomicU64,
    pub backend_write_pages: AtomicU64,
    /// Maximal runs of consecutive lpns in each backend's write sequence.
    pub backend_write_runs: AtomicU64,
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    roots: Mutex<Vec<Span>>,
    pub dropped: AtomicU64,
    pub tally: Tally,
    /// Per-pair page streams, in the order the gateway received them.
    streams: Mutex<Vec<Vec<PageOp>>>,
}

thread_local! {
    /// (span id, request id) of the request this thread is serving.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// This thread's background root span id (0 until first needed).
    static ROOT: Cell<u64> = const { Cell::new(0) };
}

pub fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        roots: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
        tally: Tally::default(),
        streams: Mutex::new(Vec::new()),
    })
}

impl Tracer {
    #[inline]
    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Start recording; `pairs` sizes the per-pair page streams.
    pub fn enable(&self, pairs: usize) {
        *self.streams.lock().expect("stream lock") = vec![Vec::new(); pairs];
        self.on.store(true, Ordering::SeqCst);
    }

    pub fn disable(&self) {
        self.on.store(false, Ordering::SeqCst);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span lock");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Parent for a span on this thread: the request being served, or the
    /// thread's background root.
    fn parent(&self, start_ns: u64) -> (u64, u64) {
        let (cur, req) = CURRENT.with(Cell::get);
        if cur != 0 {
            return (cur, req);
        }
        let root = ROOT.with(|r| {
            if r.get() == 0 {
                let id = self.fresh_id();
                self.roots.lock().expect("root lock").push(Span {
                    name: BACKGROUND,
                    id,
                    parent: 0,
                    req: 0,
                    start_ns,
                    end_ns: start_ns,
                });
                r.set(id);
            }
            r.get()
        });
        (root, 0)
    }

    fn child(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let (parent, req) = self.parent(start_ns);
        let id = self.fresh_id();
        self.push(Span {
            name,
            id,
            parent,
            req,
            start_ns,
            end_ns,
        });
    }

    /// Everything recorded so far: background roots (closed at the last
    /// recorded instant) followed by the spans.
    pub fn take_spans(&self) -> Vec<Span> {
        let spans = std::mem::take(&mut *self.spans.lock().expect("span lock"));
        let end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let mut all: Vec<Span> = self
            .roots
            .lock()
            .expect("root lock")
            .iter()
            .map(|r| Span { end_ns: end, ..*r })
            .collect();
        all.extend(spans);
        all
    }

    pub fn take_streams(&self) -> Vec<Vec<PageOp>> {
        std::mem::take(&mut *self.streams.lock().expect("stream lock"))
    }

    /// Record a request's pages per pair, split at block boundaries the
    /// way the gateway cuts runs (and routes them, when sharded).
    fn record_request(&self, route: Option<&Ring>, write: bool, lpn: u64, pages: u32) {
        let block = u64::from(crate::cluster::node_config(0).pages_per_block);
        let mut streams = self.streams.lock().expect("stream lock");
        let (mut at, end) = (lpn, lpn + u64::from(pages));
        while at < end {
            let seg_end = ((at / block + 1) * block).min(end);
            let pair = route.map_or(0, |r| usize::from(r.shard_of_lpn(at)));
            if let Some(s) = streams.get_mut(pair) {
                s.push(PageOp {
                    write,
                    lpn: at,
                    pages: (seg_end - at) as u32,
                });
            }
            at = seg_end;
        }
    }
}

/// Per-span self time: duration minus the time covered by its children.
/// Children of one parent run on the parent's thread one after another,
/// so their durations add up without overlap.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *covered.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let c = covered.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(c))
        })
        .collect()
}

pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

// ---------------------------------------------------------------------------
// Gateway: SessionLink
// ---------------------------------------------------------------------------

/// Request id of a session's client request, unique across sessions.
pub fn req_key(session: u64, id: u64) -> u64 {
    (session << 40) | id
}

struct Pending {
    id: u64,
    span: u64,
    start_ns: u64,
    name: &'static str,
}

pub struct TimedLink<L> {
    inner: L,
    session: u64,
    route: Option<Ring>,
    pending: RefCell<VecDeque<Pending>>,
}

impl<L> TimedLink<L> {
    pub fn new(inner: L, session: u64, route: Option<Ring>) -> Self {
        TimedLink {
            inner,
            session,
            route,
            pending: RefCell::new(VecDeque::new()),
        }
    }
}

impl<L: SessionLink> SessionLink for TimedLink<L> {
    fn send(&self, reply: Reply) -> Result<(), LinkClosed> {
        let id = reply.id();
        let res = self.inner.send(reply);
        let t = tracer();
        if t.on() {
            let end_ns = t.now_ns();
            let mut pending = self.pending.borrow_mut();
            // Replies leave in receive order and request ids increase.
            while pending.front().is_some_and(|p| p.id < id) {
                pending.pop_front();
            }
            if let Some(p) = pending.front().filter(|p| p.id == id) {
                t.push(Span {
                    name: p.name,
                    id: p.span,
                    parent: 0,
                    req: req_key(self.session, id),
                    start_ns: p.start_ns,
                    end_ns,
                });
                pending.pop_front();
            }
            let cur = pending
                .back()
                .map_or((0, 0), |p| (p.span, req_key(self.session, p.id)));
            CURRENT.with(|c| c.set(cur));
        }
        res
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Request>, LinkClosed> {
        let got = self.inner.recv_timeout(timeout)?;
        let t = tracer();
        if let (true, Some(req)) = (t.on(), &got) {
            let name = match req {
                Request::Write { lpn, pages, .. } => {
                    t.record_request(self.route.as_ref(), true, *lpn, pages.len() as u32);
                    GW_WRITE
                }
                Request::Read { lpn, pages, .. } => {
                    t.record_request(self.route.as_ref(), false, *lpn, *pages);
                    GW_READ
                }
                Request::Hello { .. } => return Ok(got),
                _ => GW_OTHER,
            };
            let p = Pending {
                id: req.id(),
                span: t.fresh_id(),
                start_ns: t.now_ns(),
                name,
            };
            CURRENT.with(|c| c.set((p.span, req_key(self.session, p.id))));
            self.pending.borrow_mut().push_back(p);
        }
        Ok(got)
    }
}

// ---------------------------------------------------------------------------
// Peer frames: Transport
// ---------------------------------------------------------------------------

pub struct TimedTransport<T> {
    inner: T,
    /// (epoch, seq) of unacknowledged `WriteReplBatch` frames → first send.
    unacked: Mutex<BTreeMap<(u32, u64), u64>>,
}

impl<T> TimedTransport<T> {
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            unacked: Mutex::new(BTreeMap::new()),
        }
    }
}

impl<T: Transport + Sync> Transport for TimedTransport<T> {
    fn send(&self, msg: Message) -> Result<(), TransportError> {
        let t = tracer();
        if !t.on() {
            return self.inner.send(msg);
        }
        let start_ns = t.now_ns();
        t.tally.frames.fetch_add(1, Ordering::Relaxed);
        if let Message::WriteReplBatch {
            epoch,
            seq,
            entries,
        } = &msg
        {
            if !entries.is_empty() {
                t.tally.repl_batches.fetch_add(1, Ordering::Relaxed);
                t.tally
                    .repl_pages
                    .fetch_add(entries.len() as u64, Ordering::Relaxed);
            }
            // A retransmission keeps the first send instant.
            self.unacked
                .lock()
                .expect("unacked lock")
                .entry((*epoch, *seq))
                .or_insert(start_ns);
        }
        let res = self.inner.send(msg);
        t.child(FRAME_SEND, start_ns, t.now_ns());
        res
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        let got = self.inner.recv_timeout(timeout)?;
        let t = tracer();
        if let (true, Some(Message::ReplAckBatch { epoch, up_to, .. })) = (t.on(), &got) {
            let now = t.now_ns();
            let acked: Vec<u64> = {
                let mut unacked = self.unacked.lock().expect("unacked lock");
                let rest = unacked.split_off(&(*epoch, up_to + 1));
                let done = std::mem::replace(&mut *unacked, rest);
                done.into_iter()
                    .filter(|((e, _), _)| e == epoch)
                    .map(|(_, sent)| sent)
                    .collect()
            };
            for sent in acked {
                t.child(ACK_RTT, sent, now);
            }
        }
        Ok(got)
    }

    fn is_connected(&self) -> bool {
        self.inner.is_connected()
    }
}

// ---------------------------------------------------------------------------
// Backend and device: StorageBackend
// ---------------------------------------------------------------------------

/// A simulated SSD shared between a pair's backend and the benchmark,
/// which reads its counters at phase boundaries.
pub struct Device {
    pub ssd: Ssd,
    /// Logical block of the cluster → device block, so the pair's share of
    /// the working set maps densely and block-aligned onto the device.
    map: HashMap<u64, u64>,
    ppb: u64,
    /// Host page writes and their summed simulated service time.
    pub host_writes: u64,
    pub sim_write_ns: u64,
}

impl Device {
    pub fn new(ssd: Ssd, blocks: &[u64]) -> Device {
        let ppb = u64::from(ssd.geometry().pages_per_block);
        let map = blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, i as u64))
            .collect();
        Device {
            ssd,
            map,
            ppb,
            host_writes: 0,
            sim_write_ns: 0,
        }
    }

    fn lpn(&self, lpn: u64) -> Lpn {
        let logical = self.ssd.logical_pages();
        match self.map.get(&(lpn / self.ppb)) {
            Some(b) => Lpn(b * self.ppb + lpn % self.ppb),
            // Outside the mapped working set (not produced by the
            // workloads): fold into the logical space.
            None => Lpn(lpn % logical),
        }
    }
}

/// A `StorageBackend` over `fc_ssd::Ssd`: contents live in memory, every
/// page write and trim drives the simulated FTL.
pub struct SsdBackend {
    mem: MemBackend,
    dev: Arc<Mutex<Device>>,
}

impl SsdBackend {
    pub fn new(dev: Arc<Mutex<Device>>) -> Self {
        SsdBackend {
            mem: MemBackend::new(),
            dev,
        }
    }
}

impl StorageBackend for SsdBackend {
    fn write_page(&mut self, lpn: u64, version: u64, data: &[u8]) {
        {
            let mut d = self.dev.lock().expect("device lock");
            let l = d.lpn(lpn);
            let took = d.ssd.write(l, 1);
            d.host_writes += 1;
            d.sim_write_ns += took.as_nanos();
        }
        self.mem.write_page(lpn, version, data);
    }

    fn read_page(&self, lpn: u64) -> Option<(u64, Vec<u8>)> {
        self.mem.read_page(lpn)
    }

    fn trim_page(&mut self, lpn: u64) {
        {
            let mut d = self.dev.lock().expect("device lock");
            let l = d.lpn(lpn);
            d.ssd.trim(l, 1);
        }
        self.mem.trim_page(lpn);
    }

    fn pages(&self) -> usize {
        self.mem.pages()
    }

    fn version_of(&self, lpn: u64) -> Option<u64> {
        self.mem.version_of(lpn)
    }

    fn lpns(&self) -> Vec<u64> {
        self.mem.lpns()
    }
}

pub struct TimedBackend {
    inner: Box<dyn StorageBackend>,
    last_write: Option<u64>,
}

impl TimedBackend {
    pub fn new(inner: impl StorageBackend + 'static) -> Self {
        TimedBackend {
            inner: Box::new(inner),
            last_write: None,
        }
    }
}

impl StorageBackend for TimedBackend {
    fn write_page(&mut self, lpn: u64, version: u64, data: &[u8]) {
        let t = tracer();
        if !t.on() {
            self.last_write = None;
            return self.inner.write_page(lpn, version, data);
        }
        let start = t.now_ns();
        self.inner.write_page(lpn, version, data);
        t.child(BACKEND_WRITE, start, t.now_ns());
        t.tally.backend_write_pages.fetch_add(1, Ordering::Relaxed);
        if self.last_write.is_none_or(|l| l + 1 != lpn) {
            t.tally.backend_write_runs.fetch_add(1, Ordering::Relaxed);
        }
        self.last_write = Some(lpn);
    }

    fn read_page(&self, lpn: u64) -> Option<(u64, Vec<u8>)> {
        let t = tracer();
        if !t.on() {
            return self.inner.read_page(lpn);
        }
        let start = t.now_ns();
        let got = self.inner.read_page(lpn);
        t.child(BACKEND_READ, start, t.now_ns());
        got
    }

    fn trim_page(&mut self, lpn: u64) {
        let t = tracer();
        if !t.on() {
            return self.inner.trim_page(lpn);
        }
        let start = t.now_ns();
        self.inner.trim_page(lpn);
        t.child(BACKEND_TRIM, start, t.now_ns());
    }

    fn pages(&self) -> usize {
        self.inner.pages()
    }

    fn version_of(&self, lpn: u64) -> Option<u64> {
        self.inner.version_of(lpn)
    }

    fn lpns(&self) -> Vec<u64> {
        self.inner.lpns()
    }
}
