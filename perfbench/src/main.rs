//! `perfbench`: end-to-end and per-layer benchmark of a gateway-fronted
//! FlashCoop cluster.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fin1-fit --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Builds the cluster from public APIs, drives the workload from two client
//! threads for `--seconds`, reads every page back against a model of the
//! generated requests, sets the cluster up twice more (`setup_s` is the
//! median of the three set-ups), and prints one JSON result as the last
//! line of stdout. With `--trace 0` the result carries the end-to-end
//! metrics; with `--trace 1` the run is split into an untraced and a traced
//! half and the result carries the per-layer metrics. The line before the
//! result is a `perfbench-row` JSON record of the run's identity (box,
//! commit, sizes) and sample counts. Exits non-zero when any check fails.

mod cluster;
mod drive;
mod layers;
mod procfs;
mod stats;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use fc_trace::record::IoRequest;
use flashcoop::BufferManager;

use cluster::{node_config, workloads, Cluster, Snapshot, Workload, CLIENTS, PAGE_BYTES};
use drive::{ClientState, Payloads, Record};
use layers::{tracer, PageOp, Span};
use stats::{Samples, P50, P99};

/// End-to-end figures are medians over windows of this length; on the
/// reference box each holds over 1000 samples of the rarer request type.
const WINDOW: Duration = Duration::from_secs(1);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests pre-generated per client per measured second (above the
/// closed-loop capacity, so the stream rarely wraps).
const REQUESTS_PER_SECOND: usize = 25_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
    let usage = format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    let args = Args {
        workload: workload.ok_or(usage.clone())?,
        seed: seed.ok_or(usage.clone())?,
        seconds: seconds.ok_or(usage.clone())?,
        trace: trace.ok_or(usage)?,
    };
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("perfbench-row {}", out.row);
            println!("{}", out.result);
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Output {
    row: String,
    result: String,
    correct: bool,
}

/// One window of a measured phase.
struct WindowStats {
    steal_s: f64,
    ops_per_s: f64,
    cpu_us_per_op: f64,
    write: Samples,
    read: Samples,
}

/// Counters and samples of one measured phase.
struct Phase {
    traced: bool,
    recs: Vec<Record>,
    before: (Snapshot, procfs::Sample),
    after: (Snapshot, procfs::Sample),
    /// `/proc` samples at the window boundaries, first and last included.
    marks: Vec<procfs::Sample>,
}

impl Phase {
    fn delta(&self) -> procfs::Delta {
        procfs::Delta::between(&self.before.1, &self.after.1)
    }

    fn sum(&self, f: impl Fn(&Record) -> u64) -> u64 {
        self.recs.iter().map(f).sum()
    }

    fn ops(&self) -> u64 {
        self.sum(|r| r.completed)
    }

    fn per_op(&self, x: f64) -> f64 {
        ratio(x, self.ops() as f64)
    }

    fn cpu_us_per_op(&self) -> f64 {
        self.per_op(self.delta().cpu_s(ALL_THREADS) * 1e6)
    }

    fn windows(&self) -> Vec<WindowStats> {
        self.marks
            .windows(2)
            .enumerate()
            .map(|(k, m)| {
                let d = procfs::Delta::between(&m[0], &m[1]);
                let (mut ops, mut wr, mut rd) = (0, Samples::default(), Samples::default());
                for r in &self.recs {
                    if let Some(w) = r.windows.get(k) {
                        ops += w.ops;
                        wr.extend(&w.write_ns);
                        rd.extend(&w.read_ns);
                    }
                }
                WindowStats {
                    steal_s: d.steal_s,
                    ops_per_s: ratio(ops as f64, d.wall_s),
                    cpu_us_per_op: ratio(d.cpu_s(ALL_THREADS) * 1e6, ops as f64),
                    write: wr,
                    read: rd,
                }
            })
            .collect()
    }
}

/// Whole windows in a phase (at least one).
fn windows(len: Duration) -> u32 {
    ((len.as_nanos() / WINDOW.as_nanos()) as u32).max(1)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn us(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |v| v as f64 / 1e3)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Run `f` on one named thread per client, in parallel.
fn in_clients(
    states: &mut [ClientState],
    f: impl Fn(&mut ClientState, &mut Record) + Sync,
) -> Vec<Record> {
    std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(i, st)| {
                let f = &f;
                std::thread::Builder::new()
                    .name(format!("pb-client-{i}"))
                    .spawn_scoped(s, move || {
                        let mut rec = Record::default();
                        f(st, &mut rec);
                        rec
                    })
                    .expect("spawn client thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn run(args: &Args) -> Result<Output, String> {
    let w = workloads()
        .into_iter()
        .find(|w| w.name == args.workload)
        .ok_or(format!("unknown workload {:?}", args.workload))?;
    let n_requests = args.seconds as usize * REQUESTS_PER_SECOND + w.warmup_requests;
    let traces: Vec<Arc<Vec<IoRequest>>> = (0..CLIENTS)
        .map(|i| Arc::new(drive::requests(&w, args.seed, i, n_requests)))
        .collect();
    let payloads: Vec<Arc<Payloads>> = (0..CLIENTS)
        .map(|i| Arc::new(Payloads::new(i as u64 + 1)))
        .collect();
    let payload_ns = payloads[0].calibrate_ns();

    // The measured cluster is the first set-up, so the peak resident set
    // reflects one cluster, not the fragments of earlier ones.
    let mut setup_s = Vec::new();
    let mut setup_recs = Vec::new();
    let (cluster, mut states) = set_up(
        &w,
        args.seed,
        &traces,
        &payloads,
        &mut setup_s,
        &mut setup_recs,
    )?;

    let plan: Vec<(Duration, bool)> = if args.trace {
        let half = Duration::from_secs(args.seconds) / 2;
        vec![(half, false), (half, true)]
    } else {
        vec![(Duration::from_secs(args.seconds), false)]
    };
    let (phases, readback) = measure(&cluster, &mut states, &plan);

    // End-of-run checks beyond the read-back.
    let end = cluster.snapshot();
    let mut invariant_failures = Vec::new();
    for (i, n) in end.nodes.iter().enumerate() {
        if !n.writes_balance() {
            invariant_failures.push(format!("node {i}: writes_balance violated: {n:?}"));
        }
    }
    if let Some(sum) = &end.shard_sum {
        if let Err((name, s, total)) = sum.matches(&end.gateway) {
            invariant_failures.push(format!("shard sum {name}: {s} != gateway {total}"));
        }
    }
    for f in &invariant_failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let peak_rss_mb = procfs::peak_rss_mb();
    cluster.teardown(states.into_iter().map(|s| s.client).collect());

    // More set-ups, timed only: `setup_s` is the median of all of them.
    for _ in 1..SETUPS {
        let (cluster, states) = set_up(
            &w,
            args.seed,
            &traces,
            &payloads,
            &mut setup_s,
            &mut setup_recs,
        )?;
        cluster.teardown(states.into_iter().map(|s| s.client).collect());
    }

    let attempted = setup_recs.iter().map(|r| r.attempted).sum::<u64>()
        + phases.iter().map(|p| p.sum(|r| r.attempted)).sum::<u64>()
        + readback.iter().map(|r| r.attempted).sum::<u64>()
        + (end.nodes.len() + usize::from(end.shard_sum.is_some())) as u64;
    let failed = setup_recs.iter().map(|r| r.failed).sum::<u64>()
        + phases.iter().map(|p| p.sum(|r| r.failed)).sum::<u64>()
        + readback.iter().map(|r| r.failed).sum::<u64>()
        + invariant_failures.len() as u64;
    let correct = failed == 0;

    let mut metrics: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    let mut samples: BTreeMap<&'static str, usize> = BTreeMap::new();
    let main = phases.last().expect("at least one phase");
    if args.trace {
        let spans = tracer().take_spans();
        let streams = tracer().take_streams();
        per_layer(
            &w,
            &phases,
            &spans,
            &streams,
            payload_ns,
            &mut metrics,
            &mut samples,
        );
        let path = Path::new("perfbench")
            .join("out")
            .join(format!("trace-{}.jsonl", w.name));
        if let Err(e) = layers::write_jsonl(&path, &spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    } else {
        // Each end-to-end figure is a median over the phase's windows, so a
        // disturbance shorter than half the run does not move it. Only the
        // half of the windows in which the hypervisor stole the least CPU
        // from the box count: steal is other tenants' load, not this
        // program's.
        let ws = main.windows();
        let steal_cut = median(ws.iter().map(|w| w.steal_s).collect());
        let mut quiet: Vec<WindowStats> =
            ws.into_iter().filter(|w| w.steal_s <= steal_cut).collect();
        samples.insert("windows", quiet.len());
        samples.insert("write", quiet.iter().map(|w| w.write.len()).sum());
        samples.insert("read", quiet.iter().map(|w| w.read.len()).sum());
        let mut med =
            |f: &mut dyn FnMut(&mut WindowStats) -> f64| median(quiet.iter_mut().map(f).collect());
        metrics.insert("ops_per_s", (med(&mut |w| w.ops_per_s), "1/s"));
        metrics.insert("cpu_us_per_op", (med(&mut |w| w.cpu_us_per_op), "us"));
        metrics.insert(
            "write_p50_us",
            (med(&mut |w| us(w.write.percentile(P50))), "us"),
        );
        metrics.insert(
            "write_p99_us",
            (med(&mut |w| us(w.write.percentile(P99))), "us"),
        );
        metrics.insert(
            "read_p50_us",
            (med(&mut |w| us(w.read.percentile(P50))), "us"),
        );
        metrics.insert(
            "read_p99_us",
            (med(&mut |w| us(w.read.percentile(P99))), "us"),
        );
        metrics.insert("setup_s", (median(setup_s.clone()), "s"));
        metrics.insert("peak_rss_mb", (peak_rss_mb, "MiB"));
    }

    let row = row_json(args, &w, main, &setup_s, attempted, failed, &samples);
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, unit))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v)))
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(Output {
        row,
        result,
        correct,
    })
}

/// JSON number with full precision (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// One timed set-up: spawn and precondition the cluster, open the sessions,
/// preload every window and run the warm-up requests.
fn set_up(
    w: &Workload,
    seed: u64,
    traces: &[Arc<Vec<IoRequest>>],
    payloads: &[Arc<Payloads>],
    setup_s: &mut Vec<f64>,
    recs: &mut Vec<Record>,
) -> Result<(Cluster, Vec<ClientState>), String> {
    let t0 = Instant::now();
    let cluster = Cluster::build(w, seed);
    let clients = cluster.connect(w).map_err(|e| format!("connect: {e}"))?;
    let mut states: Vec<ClientState> = clients
        .into_iter()
        .enumerate()
        .map(|(i, c)| ClientState::new(c, w, i, traces[i].clone(), payloads[i].clone()))
        .collect();
    recs.extend(in_clients(&mut states, |st, rec| {
        st.preload(&cluster);
        st.warm_up(w.warmup_requests, rec);
    }));
    setup_s.push(t0.elapsed().as_secs_f64());
    Ok((cluster, states))
}

/// Drive the measured phases, then the read-back. The main thread samples
/// the cluster and `/proc` at each phase boundary while every client
/// thread waits at the barrier, so no thread of the phase has exited.
fn measure(
    cluster: &Cluster,
    states: &mut [ClientState],
    plan: &[(Duration, bool)],
) -> (Vec<Phase>, Vec<Record>) {
    let barrier = Barrier::new(states.len() + 1);
    let window: Mutex<Option<(Instant, Instant)>> = Mutex::new(None);
    let pairs = cluster.nodes.len() / 2;
    std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(i, st)| {
                let (barrier, window) = (&barrier, &window);
                std::thread::Builder::new()
                    .name(format!("pb-client-{i}"))
                    .spawn_scoped(s, move || {
                        let mut recs = Vec::new();
                        for _ in plan {
                            barrier.wait();
                            barrier.wait();
                            let (start, until) = window.lock().expect("window lock").expect("set");
                            let mut rec =
                                Record::windowed(start, WINDOW, windows(until - start) as usize);
                            st.closed_loop(until, &mut rec);
                            recs.push(rec);
                            barrier.wait();
                        }
                        barrier.wait();
                        let mut rb = Record::default();
                        st.read_back(&mut rb);
                        (recs, rb)
                    })
                    .expect("spawn client thread")
            })
            .collect();
        let mut bounds = Vec::new();
        for &(len, traced) in plan {
            barrier.wait();
            if traced {
                tracer().enable(pairs);
            }
            let before = (cluster.snapshot(), procfs::sample());
            let start = Instant::now();
            *window.lock().expect("window lock") = Some((start, start + len));
            barrier.wait();
            let mut marks = vec![before.1.clone()];
            for k in 1..windows(len) {
                let at = start + WINDOW * k;
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                marks.push(procfs::sample());
            }
            barrier.wait();
            let proc_end = procfs::sample();
            let after = (cluster.snapshot(), proc_end);
            tracer().disable();
            marks.push(after.1.clone());
            bounds.push((traced, before, after, marks));
        }
        barrier.wait();
        let mut per_client: Vec<(Vec<Record>, Record)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let phases = bounds
            .into_iter()
            .enumerate()
            .map(|(k, (traced, before, after, marks))| Phase {
                traced,
                recs: per_client
                    .iter_mut()
                    .map(|(recs, _)| std::mem::take(&mut recs[k]))
                    .collect(),
                before,
                after,
                marks,
            })
            .collect();
        (phases, per_client.into_iter().map(|(_, rb)| rb).collect())
    })
}

const ALL_THREADS: &[&str] = &[""];
const GATEWAY_THREADS: &[&str] = &["fc-gw-session"];
const PIPE_THREADS: &[&str] = &["fc-pipe-"];
const NODE_THREADS: &[&str] = &["fc-node-"];
const SERVER_THREADS: &[&str] = &["fc-gw-session", "fc-pipe-", "fc-node-"];
const CLIENT_THREADS: &[&str] = &["pb-client", "fc-gw-client"];

fn span_samples(spans: &[Span], name: &str, f: impl Fn(&Span) -> u64) -> Samples {
    let mut s = Samples::default();
    for sp in spans.iter().filter(|sp| sp.name == name) {
        s.push(f(sp));
    }
    s
}

fn per_layer(
    w: &Workload,
    phases: &[Phase],
    spans: &[Span],
    streams: &[Vec<PageOp>],
    payload_ns: f64,
    m: &mut BTreeMap<&'static str, (f64, &'static str)>,
    samples: &mut BTreeMap<&'static str, usize>,
) {
    let untraced = phases.iter().find(|p| !p.traced).expect("untraced phase");
    let p = phases.iter().find(|p| p.traced).expect("traced phase");
    let d = p.delta();
    let ops = p.ops() as f64;
    let tally = &tracer().tally;
    let get =
        |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let self_ns = layers::self_times(spans);
    let (g0, g1) = (&p.before.0, &p.after.0);

    // gateway
    let mut gw_write = span_samples(spans, layers::GW_WRITE, Span::dur_ns);
    let mut gw_read = span_samples(spans, layers::GW_READ, Span::dur_ns);
    samples.insert("gateway.write", gw_write.len());
    samples.insert("gateway.read", gw_read.len());
    m.insert(
        "gateway.write_service_us_p50",
        (us(gw_write.percentile(P50)), "us"),
    );
    m.insert(
        "gateway.write_service_us_p99",
        (us(gw_write.percentile(P99)), "us"),
    );
    m.insert(
        "gateway.read_service_us_p50",
        (us(gw_read.percentile(P50)), "us"),
    );
    m.insert(
        "gateway.read_service_us_p99",
        (us(gw_read.percentile(P99)), "us"),
    );
    let service: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.req != 0)
        .map(|s| (s.req, s.dur_ns()))
        .collect();
    let mut client_side = Samples::default();
    for r in &p.recs {
        for (key, lat) in &r.by_req {
            if let Some(svc) = service.get(key) {
                client_side.push(lat.saturating_sub(*svc));
            }
        }
    }
    samples.insert("gateway.client_side", client_side.len());
    m.insert(
        "gateway.client_side_us_p50",
        (us(client_side.percentile(P50)), "us"),
    );
    m.insert(
        "gateway.session_cpu_us_per_op",
        (p.per_op(d.cpu_s(GATEWAY_THREADS) * 1e6), "us"),
    );
    m.insert(
        "gateway.runs_per_write",
        (
            ratio(
                (g1.gateway.runs - g0.gateway.runs) as f64,
                (g1.gateway.writes - g0.gateway.writes) as f64,
            ),
            "count",
        ),
    );

    // cluster
    let writes_acked = p.sum(|r| r.writes_acked) as f64;
    m.insert(
        "cluster.repl.pages_per_batch",
        (
            ratio(get(&tally.repl_pages), get(&tally.repl_batches)),
            "count",
        ),
    );
    m.insert(
        "cluster.repl.frames_per_write",
        (ratio(get(&tally.frames), writes_acked), "count"),
    );
    let mut rtt = span_samples(spans, layers::ACK_RTT, Span::dur_ns);
    samples.insert("cluster.repl.ack_rtt", rtt.len());
    m.insert(
        "cluster.repl.ack_rtt_us_p50",
        (us(rtt.percentile(P50)), "us"),
    );
    m.insert(
        "cluster.repl.ack_rtt_us_p99",
        (us(rtt.percentile(P99)), "us"),
    );
    m.insert(
        "cluster.pipe_cpu_us_per_op",
        (p.per_op(d.cpu_s(PIPE_THREADS) * 1e6), "us"),
    );
    m.insert(
        "cluster.node_cpu_us_per_op",
        (p.per_op(d.cpu_s(NODE_THREADS) * 1e6), "us"),
    );
    m.insert(
        "cluster.vcsw_per_op",
        (p.per_op(d.vcsw(SERVER_THREADS) as f64), "count"),
    );
    let node_delta = |f: fn(&fc_cluster::NodeStats) -> u64| -> f64 {
        g1.nodes
            .iter()
            .zip(&g0.nodes)
            .map(|(b, a)| f(b) - f(a))
            .sum::<u64>() as f64
    };
    m.insert(
        "cluster.node.write_through_frac",
        (
            ratio(node_delta(|n| n.write_through), node_delta(|n| n.writes)),
            "ratio",
        ),
    );
    m.insert(
        "cluster.node.read_hit_frac",
        (
            ratio(node_delta(|n| n.read_hits), node_delta(|n| n.reads)),
            "ratio",
        ),
    );
    m.insert(
        "cluster.node.lifecycle_transitions",
        ((g1.transitions - g0.transitions) as f64, "count"),
    );
    let backend_pages = get(&tally.backend_write_pages);
    m.insert(
        "cluster.backend.write_pages_per_op",
        (ratio(backend_pages, ops), "count"),
    );
    let self_mean = |name: &str| {
        span_samples(spans, name, |s| self_ns.get(&s.id).copied().unwrap_or(0))
            .mean()
            .map_or(0.0, |v| v / 1e3)
    };
    m.insert(
        "cluster.backend.write_us_mean",
        (self_mean(layers::BACKEND_WRITE), "us"),
    );
    m.insert(
        "cluster.backend.read_us_mean",
        (self_mean(layers::BACKEND_READ), "us"),
    );
    m.insert(
        "cluster.backend.run_pages_mean",
        (
            ratio(backend_pages, get(&tally.backend_write_runs)),
            "count",
        ),
    );

    // ssd
    let dev = |f: fn(&cluster::DeviceSnapshot) -> u64| -> f64 {
        g1.devices
            .iter()
            .zip(&g0.devices)
            .map(|(b, a)| f(b) - f(a))
            .sum::<u64>() as f64
    };
    let host = dev(|d| d.host_writes);
    let programs = dev(|d| d.programs);
    m.insert(
        "ssd.gc_programs_per_host_page",
        (ratio(programs - host, host), "ratio"),
    );
    m.insert(
        "ssd.erases_per_kpage",
        (ratio(dev(|d| d.erases) * 1e3, host), "count"),
    );
    m.insert(
        "ssd.sim_write_us_mean",
        (ratio(dev(|d| d.sim_write_ns) / 1e3, host), "us"),
    );
    m.insert(
        "ssd.flash_write_amp",
        (
            ratio(programs, p.sum(|r| r.write_pages_acked) as f64),
            "ratio",
        ),
    );

    // core
    let (lar_ns, evict) = lar_replay(w, streams);
    m.insert("core.lar.write_ns_mean", (lar_ns, "ns"));
    m.insert("core.lar.evict_blocks_per_kpage", (evict, "count"));

    // loadgen / trace
    m.insert(
        "loadgen.client_cpu_us_per_op",
        (p.per_op(d.cpu_s(CLIENT_THREADS) * 1e6), "us"),
    );
    m.insert(
        "loadgen.payload_cpu_frac",
        (
            ratio(
                payload_ns * p.sum(|r| r.write_pages_acked) as f64 / 1e9,
                d.cpu_s(ALL_THREADS),
            ),
            "ratio",
        ),
    );
    m.insert(
        "trace.overhead_frac",
        (
            ratio(p.cpu_us_per_op(), untraced.cpu_us_per_op()) - 1.0,
            "ratio",
        ),
    );
    samples.insert(
        "trace.spans_dropped",
        tracer().dropped.load(std::sync::atomic::Ordering::Relaxed) as usize,
    );
}

/// Replay each pair's recorded page stream into a `BufferManager` built
/// with the node's configuration, after writing the pair's blocks into it so
/// it starts full, as the node's buffer is after warm-up.
/// Returns (mean ns per buffered write run, victim blocks per 1000 pages
/// written).
fn lar_replay(w: &Workload, streams: &[Vec<PageOp>]) -> (f64, f64) {
    let cfg = node_config(0);
    let ppb = u64::from(cfg.pages_per_block);
    let (mut write_ns, mut writes, mut pages, mut victims) = (0u128, 0u64, 0u64, 0u64);
    let owned = cluster::blocks_by_pair(w, cluster::ring(w).as_ref());
    for (ops, blocks) in streams.iter().zip(owned) {
        let mut buf = BufferManager::new(cfg.policy, cfg.buffer_pages, cfg.pages_per_block, true);
        for block in blocks {
            buf.write(block * ppb, cfg.pages_per_block);
        }
        for op in ops {
            let ev = if op.write {
                let t = Instant::now();
                let ev = std::hint::black_box(buf.write(op.lpn, op.pages));
                write_ns += t.elapsed().as_nanos();
                writes += 1;
                pages += u64::from(op.pages);
                ev
            } else {
                let mut ev = flashcoop::Eviction::default();
                for lpn in op.lpn..op.lpn + u64::from(op.pages) {
                    let hit = buf.lookup(lpn).is_some();
                    buf.read(lpn, 1);
                    if !hit {
                        ev.absorb(buf.insert_clean(lpn, 1));
                    }
                }
                ev
            };
            victims += ev
                .runs
                .iter()
                .map(|r| r.lpn / ppb)
                .collect::<HashSet<_>>()
                .len() as u64;
        }
    }
    (
        ratio(write_ns as f64, writes as f64),
        ratio(victims as f64 * 1e3, pages as f64),
    )
}

/// The run's identity and sample counts, so rows from different boxes or
/// sizes are never compared.
fn row_json(
    args: &Args,
    w: &Workload,
    main: &Phase,
    setup_s: &[f64],
    attempted: u64,
    failed: u64,
    samples: &BTreeMap<&'static str, usize>,
) -> String {
    let cfg = node_config(0);
    let ring = cluster::ring(w);
    let device = if w.ssd {
        let geometries: Vec<String> = cluster::blocks_by_pair(w, ring.as_ref())
            .iter()
            .map(|blocks| {
                let d = cluster::device_config(blocks.len() as u64 * u64::from(cfg.pages_per_block));
                format!(
                    "{{\"ftl\": \"page-level\", \"pages_per_block\": {}, \"blocks\": {}, \"planes\": {}, \"logical_pages\": {}, \"spare_fraction\": {}}}",
                    d.geometry.pages_per_block,
                    d.geometry.blocks_total(),
                    d.geometry.planes_total(),
                    d.ftl_config.logical_pages(&d.geometry),
                    d.ftl_config.spare_fraction
                )
            })
            .collect();
        format!("[{}]", geometries.join(", "))
    } else {
        "null".into()
    };
    let counts: Vec<String> = samples
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        concat!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, ",
            "\"commit\": \"{}\", \"source_digest\": \"{:016x}\", \"loop\": \"closed\", ",
            "\"pairs\": {}, \"transport\": \"{}\", \"clients\": {}, \"page_bytes\": {}, ",
            "\"buffer_pages_per_node\": {}, \"pages_per_block\": {}, \"remote_capacity\": {}, ",
            "\"working_set_pages\": {}, \"device\": {}, \"setup_s\": [{}], ",
            "\"measured_s\": {}, \"steal_s\": {}, \"attempted\": {}, \"failed\": {}, \"op_fail_frac\": {}, ",
            "\"samples\": {{{}}}}}"
        ),
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        procfs::nproc(),
        git_commit(),
        source_digest(),
        w.pairs,
        if w.tcp { "tcp" } else { "mem" },
        CLIENTS,
        PAGE_BYTES,
        cfg.buffer_pages,
        cfg.pages_per_block,
        cfg.remote_capacity,
        CLIENTS as u64 * w.pages_per_client,
        device,
        setup_s.iter().map(|v| num(*v)).collect::<Vec<_>>().join(", "),
        num(main.delta().wall_s),
        num(main.delta().steal_s),
        attempted,
        failed,
        num(ratio(failed as f64, attempted as f64)),
        counts.join(", "),
    )
}

/// HEAD of the checkout when it is a git work tree, else "none".
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("none".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// FNV-1a over the program's sources (`crates/`, `shims/`, `Cargo.lock`),
/// identifying the code under test when the checkout carries no git data.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.lock").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("shims"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
