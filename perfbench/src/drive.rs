//! Load generation: seeded request streams, payloads, the closed loop, and
//! the model every read is checked against.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use fc_gateway::{ClientError, GatewayClient, Reply};
use fc_trace::{record::IoRequest, Op, SyntheticSpec};

use crate::cluster::{Cluster, Profile, Workload, PAGE_BYTES};
use crate::layers::{req_key, tracer};
use crate::stats::Samples;

/// Pages per request in the final read-back.
const SWEEP_PAGES: u32 = 64;
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Distinct page payloads per client.
const POOL_PAGES: u64 = 4096;

/// A client's page payloads, built before any measurement. Write number
/// `tag` to `lpn` sends slot `slot(lpn, tag)`: taking a shared buffer costs a
/// reference count instead of building 4 KiB per page on the timed path
/// (the node copies every payload it accepts, so sharing is invisible to
/// the system). A stale or misplaced page reads back as another slot's
/// content, which the check catches unless both writes drew the same slot
/// (probability 1/`POOL_PAGES`).
pub struct Payloads {
    pages: Vec<Bytes>,
}

impl Payloads {
    pub fn new(client: u64) -> Payloads {
        let mut x = 0x2545_F491_4F6C_DD1Du64 ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let pages = (0..POOL_PAGES)
            .map(|slot| {
                let mut v = Vec::with_capacity(PAGE_BYTES);
                v.extend_from_slice(&client.to_le_bytes());
                v.extend_from_slice(&slot.to_le_bytes());
                while v.len() < PAGE_BYTES {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    v.extend_from_slice(&x.to_le_bytes());
                }
                Bytes::from(v)
            })
            .collect();
        Payloads { pages }
    }

    fn slot(lpn: u64, tag: u64) -> usize {
        let h = (lpn ^ tag.rotate_left(29)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) % POOL_PAGES) as usize
    }

    fn get(&self, lpn: u64, tag: u64) -> Bytes {
        self.pages[Self::slot(lpn, tag)].clone()
    }

    /// CPU cost of taking one page payload, in ns: the fastest of a few
    /// timed rounds, measured while no other benchmark thread runs.
    pub fn calibrate_ns(&self) -> f64 {
        const ROUND: u64 = 50_000;
        (0..5)
            .map(|r| {
                let t = Instant::now();
                for i in 0..ROUND {
                    std::hint::black_box(self.get(i, r * ROUND + i));
                }
                t.elapsed().as_nanos() as f64 / ROUND as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    fn matches(&self, page: &[u8], lpn: u64, tag: u64) -> bool {
        page == &self.pages[Self::slot(lpn, tag)][..]
    }
}

fn client_seed(seed: u64, idx: usize) -> u64 {
    // splitmix64 of (seed, client): unrelated streams per client.
    let mut z = seed
        .wrapping_add((idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A client's request stream, offsets relative to its window. The stream is
/// replayed from the start if a run outlasts it.
pub fn requests(w: &Workload, seed: u64, idx: usize, n: usize) -> Vec<IoRequest> {
    let spec = match w.profile {
        Profile::Fin1 => SyntheticSpec::fin1(w.pages_per_client),
        Profile::Fin2 => SyntheticSpec::fin2(w.pages_per_client),
    };
    spec.with_requests(n)
        .generate(client_seed(seed, idx))
        .requests
}

/// Completions within one fixed-length window of a measured phase.
#[derive(Debug, Default)]
pub struct Window {
    pub ops: u64,
    pub write_ns: Samples,
    pub read_ns: Samples,
}

/// What one client recorded in one measured phase.
#[derive(Debug, Default)]
pub struct Record {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub writes_acked: u64,
    pub write_pages_acked: u64,
    /// While tracing: (request key, client-observed latency), joined with
    /// the gateway spans.
    pub by_req: Vec<(u64, u64)>,
    /// Phase start and window length, when completions are windowed.
    clock: Option<(Instant, Duration)>,
    pub windows: Vec<Window>,
}

impl Record {
    /// A record that also files each completion under its window.
    pub fn windowed(start: Instant, window: Duration, windows: usize) -> Record {
        Record {
            clock: Some((start, window)),
            windows: (0..windows).map(|_| Window::default()).collect(),
            ..Record::default()
        }
    }

    fn window_now(&mut self) -> Option<&mut Window> {
        let (start, len) = self.clock?;
        let k = (start.elapsed().as_nanos() / len.as_nanos().max(1)) as usize;
        let last = self.windows.len().checked_sub(1)?;
        self.windows.get_mut(k.min(last))
    }
}

struct InFlight {
    id: u64,
    sent: Instant,
    op: Op,
    lpn: u64,
    pages: u32,
    /// Model tags the read must return, captured at send time.
    expect: Vec<u64>,
}

pub struct ClientState {
    pub client: GatewayClient,
    session: u64,
    base: u64,
    window: u64,
    trace: Arc<Vec<IoRequest>>,
    cursor: usize,
    next_tag: u64,
    /// Tag of the last write sent to each page of the window; 0 = no data.
    model: Vec<u64>,
    payloads: Arc<Payloads>,
}

impl ClientState {
    pub fn new(
        client: GatewayClient,
        w: &Workload,
        idx: usize,
        trace: Arc<Vec<IoRequest>>,
        payloads: Arc<Payloads>,
    ) -> Self {
        ClientState {
            client,
            session: idx as u64,
            base: idx as u64 * w.pages_per_client,
            window: w.pages_per_client,
            trace,
            cursor: 0,
            next_tag: 1,
            model: vec![0; w.pages_per_client as usize],
            payloads,
        }
    }

    fn next_request(&mut self) -> IoRequest {
        let r = self.trace[self.cursor % self.trace.len()];
        self.cursor += 1;
        r
    }

    /// Build the payloads of a write and advance the model.
    fn make_write(&mut self, off: u64, pages: u32) -> Vec<Bytes> {
        (0..u64::from(pages))
            .map(|i| {
                let tag = self.next_tag;
                self.next_tag += 1;
                self.model[(off + i) as usize] = tag;
                self.payloads.get(self.base + off + i, tag)
            })
            .collect()
    }

    fn send(&mut self, req: IoRequest) -> Result<InFlight, ClientError> {
        let pages = req.pages.max(1);
        let lpn = self.base + req.lpn;
        let range = req.lpn as usize..(req.lpn + u64::from(pages)) as usize;
        let mut expect = Vec::new();
        let mut data = Vec::new();
        match req.op {
            Op::Write => data = self.make_write(req.lpn, pages),
            Op::Read => expect = self.model[range].to_vec(),
            Op::Trim => self.model[range].fill(0),
        }
        let sent = Instant::now();
        let id = match req.op {
            Op::Write => self.client.send_write(lpn, data)?,
            Op::Read => self.client.send_read(lpn, pages)?,
            Op::Trim => self.client.send_trim(lpn, pages)?,
        };
        Ok(InFlight {
            id,
            sent,
            op: req.op,
            lpn,
            pages,
            expect,
        })
    }

    /// Check one reply against its request; true when correct.
    fn check(&self, f: &InFlight, reply: &Reply) -> bool {
        match (f.op, reply) {
            (_, r) if r.id() != f.id => false,
            (Op::Write, Reply::WriteOk { pages, .. }) => *pages == f.pages,
            (Op::Trim, Reply::TrimOk { pages, .. }) => *pages == f.pages,
            (Op::Read, Reply::ReadOk { pages, .. }) => {
                pages.len() == f.expect.len()
                    && pages
                        .iter()
                        .zip(&f.expect)
                        .enumerate()
                        .all(|(i, (got, &tag))| match (got, tag) {
                            (None, 0) => true,
                            (Some(p), t) if t != 0 => self.payloads.matches(p, f.lpn + i as u64, t),
                            _ => false,
                        })
            }
            _ => false,
        }
    }

    fn complete(&self, f: &InFlight, reply: Result<Reply, ClientError>, rec: &mut Record) {
        let lat = f.sent.elapsed().as_nanos() as u64;
        match reply {
            Ok(r) if self.check(f, &r) => {
                rec.completed += 1;
                if f.op == Op::Write {
                    rec.writes_acked += 1;
                    rec.write_pages_acked += u64::from(f.pages);
                }
                if let Some(w) = rec.window_now() {
                    w.ops += 1;
                    match f.op {
                        Op::Write => w.write_ns.push(lat),
                        Op::Read => w.read_ns.push(lat),
                        Op::Trim => {}
                    }
                }
                if tracer().on() {
                    rec.by_req.push((req_key(self.session, f.id), lat));
                }
            }
            _ => rec.failed += 1,
        }
    }

    /// Send one request and wait for its reply.
    fn call(&mut self, req: IoRequest, rec: &mut Record) {
        rec.attempted += 1;
        match self.send(req) {
            Ok(f) => {
                let reply = self.client.recv_reply(REPLY_TIMEOUT);
                self.complete(&f, reply, rec);
            }
            Err(_) => rec.failed += 1,
        }
    }

    /// One request at a time until `until`.
    pub fn closed_loop(&mut self, until: Instant, rec: &mut Record) {
        while Instant::now() < until {
            let req = self.next_request();
            self.call(req, rec);
        }
    }

    /// Store every page of the window on its pair's backend before the
    /// pairs serve traffic: the data a cluster already holds when clients
    /// arrive.
    pub fn preload(&mut self, cluster: &Cluster) {
        for off in 0..self.window {
            let tag = self.next_tag;
            self.next_tag += 1;
            self.model[off as usize] = tag;
            cluster.preload(self.base + off, &self.payloads.get(self.base + off, tag));
        }
    }

    /// Warm-up: the next `n` requests of the stream, closed loop.
    pub fn warm_up(&mut self, n: usize, rec: &mut Record) {
        for _ in 0..n {
            let req = self.next_request();
            self.call(req, rec);
        }
    }

    /// Read the whole window back and compare with the model: each page
    /// must hold its last written payload, or no data if never written or
    /// trimmed.
    pub fn read_back(&mut self, rec: &mut Record) {
        for lpn in (0..self.window).step_by(SWEEP_PAGES as usize) {
            let pages = SWEEP_PAGES.min((self.window - lpn) as u32);
            let req = IoRequest {
                at: Default::default(),
                lpn,
                pages,
                op: Op::Read,
            };
            self.call(req, rec);
        }
    }
}
