//! Workload definitions and cluster construction from public APIs.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};

use fc_cluster::{
    mem_pair, shared_backend, MemBackend, Node, NodeConfig, NodeStats, SharedBackend,
};
use fc_gateway::{
    mem_session, AdmissionConfig, Gateway, GatewayClient, GatewayConfig, GatewayStats,
    ShardStatsSum, ShardedGateway, TcpSessionLink,
};
use fc_ring::{Ring, RingConfig};
use fc_simkit::DetRng;
use fc_ssd::{FtlConfig, FtlKind, Geometry, Ssd, SsdConfig, TimingParams};

use crate::layers::{Device, SsdBackend, TimedBackend, TimedLink, TimedTransport};

pub const PAGE_BYTES: usize = 4096;
pub const CLIENTS: usize = 2;
/// Ring placement seed: fixed, so shard layout is part of the benchmark's
/// identity and only the request stream depends on `--seed`.
const RING_SEED: u64 = 0x5EED_F1A5_C00B_0001;
/// Device logical capacity over the pair's share of the working set.
const DEVICE_HEADROOM: f64 = 1.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    Fin1,
    Fin2,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub profile: Profile,
    pub pairs: u16,
    pub tcp: bool,
    pub ssd: bool,
    /// Each client owns a disjoint window of this many pages.
    pub pages_per_client: u64,
    /// Requests each client sends during set-up, after the preload.
    pub warmup_requests: usize,
}

pub fn workloads() -> Vec<Workload> {
    vec![
        // Working set 2 × 1024 pages: half the 4096-page LAR buffer and
        // below the 8192-page credit pool, so nothing destages.
        Workload {
            name: "fin1-fit",
            profile: Profile::Fin1,
            pairs: 1,
            tcp: false,
            ssd: false,
            pages_per_client: 1024,
            warmup_requests: 20_000,
        },
        // Working set 2 × 32768 pages: 8× the two pairs' LAR buffers.
        Workload {
            name: "fin1-spill-ssd",
            profile: Profile::Fin1,
            pairs: 2,
            tcp: false,
            ssd: true,
            pages_per_client: 32_768,
            warmup_requests: 16_000,
        },
        // Working set 2 × 8192 pages: 4× the buffer.
        Workload {
            name: "fin2-read-tcp",
            profile: Profile::Fin2,
            pairs: 1,
            tcp: true,
            ssd: false,
            pages_per_client: 8192,
            warmup_requests: 10_000,
        },
    ]
}

pub fn node_config(id: u8) -> NodeConfig {
    NodeConfig {
        id,
        ..NodeConfig::default()
    }
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        admission: AdmissionConfig::unlimited(),
        pages_per_block: node_config(0).pages_per_block,
        ..GatewayConfig::default()
    }
}

/// The ring the gateway routes by; `None` for a single pair.
pub fn ring(w: &Workload) -> Option<Ring> {
    (w.pairs > 1).then(|| {
        Ring::with_pairs(
            RingConfig {
                seed: RING_SEED,
                block_pages: node_config(0).pages_per_block,
                ..RingConfig::default()
            },
            w.pairs,
        )
    })
}

/// Each pair's share of the working set: its logical blocks, ascending.
pub fn blocks_by_pair(w: &Workload, ring: Option<&Ring>) -> Vec<Vec<u64>> {
    let ppb = u64::from(node_config(0).pages_per_block);
    let mut owned = vec![Vec::new(); w.pairs as usize];
    for block in 0..(CLIENTS as u64 * w.pages_per_client).div_ceil(ppb) {
        let pair = ring.map_or(0, |r| usize::from(r.shard_of_lpn(block * ppb)));
        owned[pair].push(block);
    }
    owned
}

/// Geometry of one pair's device: 64-page blocks over 4 planes, just
/// large enough that the logical space holds `pages` with the headroom.
pub fn device_config(pages: u64) -> SsdConfig {
    let ftl_config = FtlConfig::default();
    let want = (pages as f64 * DEVICE_HEADROOM).ceil() as u64;
    let mut geometry = Geometry {
        page_bytes: PAGE_BYTES as u32,
        pages_per_block: node_config(0).pages_per_block,
        blocks_per_plane: 16,
        planes_per_die: 4,
        dies: 1,
    };
    while ftl_config.logical_pages(&geometry) < want {
        geometry.blocks_per_plane += 1;
    }
    SsdConfig {
        geometry,
        timing: TimingParams::table2(),
        ftl: FtlKind::PageLevel,
        ftl_config,
    }
}

/// A running cluster: pairs, gateway, and the handles the benchmark reads.
pub struct Cluster {
    gateway: Arc<Gateway>,
    sharded: Option<ShardedGateway>,
    /// Primary of pair i at `2i`, its secondary at `2i + 1`.
    pub nodes: Vec<Arc<Node>>,
    devices: Vec<Arc<Mutex<Device>>>,
    backends: Vec<SharedBackend>,
    ring: Option<Ring>,
}

impl Cluster {
    pub fn build(w: &Workload, seed: u64) -> Cluster {
        let ring = ring(w);
        let ppb = u64::from(node_config(0).pages_per_block);
        let mut nodes = Vec::new();
        let mut devices = Vec::new();
        let mut backends = Vec::new();
        for (pair, blocks) in blocks_by_pair(w, ring.as_ref()).iter().enumerate() {
            let backend = if w.ssd {
                let cfg = device_config(blocks.len() as u64 * ppb);
                let mut ssd = Ssd::new(cfg);
                // Age the device so GC runs from the first write.
                ssd.precondition(1.0, 0.75, &mut DetRng::new(seed ^ (pair as u64 + 1)));
                let dev = Arc::new(Mutex::new(Device::new(ssd, blocks)));
                devices.push(dev.clone());
                shared_backend(TimedBackend::new(SsdBackend::new(dev)))
            } else {
                shared_backend(TimedBackend::new(MemBackend::new()))
            };
            backends.push(backend.clone());
            let (ta, tb) = mem_pair();
            let id = 2 * pair as u8;
            nodes.push(Arc::new(Node::spawn(
                node_config(id),
                TimedTransport::new(ta),
                backend.clone(),
            )));
            nodes.push(Arc::new(Node::spawn(
                node_config(id + 1),
                TimedTransport::new(tb),
                backend,
            )));
        }
        let (gateway, sharded) = match &ring {
            None => (Gateway::new(gateway_config(), nodes[0].clone()), None),
            Some(r) => {
                let sg = ShardedGateway::from_pairs(
                    gateway_config(),
                    r.clone(),
                    nodes.iter().step_by(2).cloned().collect(),
                    nodes.iter().skip(1).step_by(2).cloned().collect(),
                );
                (sg.gateway().clone(), Some(sg))
            }
        };
        Cluster {
            gateway,
            sharded,
            nodes,
            devices,
            backends,
            ring,
        }
    }

    /// Store `data` at `lpn` on the owning pair's backend, at version 0 so
    /// every write the pair makes supersedes it.
    pub fn preload(&self, lpn: u64, data: &[u8]) {
        let pair = self
            .ring
            .as_ref()
            .map_or(0, |r| usize::from(r.shard_of_lpn(lpn)));
        self.backends[pair].lock().write_page(lpn, 0, data);
    }

    /// Open one session per client through a timed link and say Hello.
    pub fn connect(&self, w: &Workload) -> std::io::Result<Vec<GatewayClient>> {
        let mut clients = Vec::with_capacity(CLIENTS);
        if w.tcp {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            for i in 0..CLIENTS {
                let client = GatewayClient::connect_tcp(addr, i as u64 + 1)?;
                let (stream, _) = listener.accept()?;
                let link = TcpSessionLink::new(stream)?;
                self.gateway
                    .serve(TimedLink::new(link, i as u64, self.ring.clone()));
                clients.push(client);
            }
        } else {
            for i in 0..CLIENTS {
                let (client_half, link) = mem_session();
                self.gateway
                    .serve(TimedLink::new(link, i as u64, self.ring.clone()));
                clients.push(GatewayClient::from_mem(client_half, i as u64 + 1));
            }
        }
        for c in &mut clients {
            c.hello()
                .map_err(|e| std::io::Error::other(format!("hello: {e}")))?;
        }
        Ok(clients)
    }

    pub fn snapshot(&self) -> Snapshot {
        let (gateway, shard_sum) = match &self.sharded {
            Some(sg) => {
                let (g, shards) = sg.stats_with_shards();
                (g, Some(ShardStatsSum::of(&shards)))
            }
            None => (self.gateway.stats(), None),
        };
        Snapshot {
            gateway,
            shard_sum,
            nodes: self.nodes.iter().map(|n| n.stats()).collect(),
            transitions: self.nodes.iter().map(|n| n.lifecycle_transitions()).sum(),
            devices: self
                .devices
                .iter()
                .map(|d| {
                    let d = d.lock().expect("device lock");
                    DeviceSnapshot {
                        programs: d.ssd.programs_since_reset(),
                        erases: d.ssd.erases_since_reset(),
                        host_writes: d.host_writes,
                        sim_write_ns: d.sim_write_ns,
                    }
                })
                .collect(),
        }
    }

    /// Stop sessions and nodes and wait for their threads.
    pub fn teardown(self, clients: Vec<GatewayClient>) {
        drop(clients);
        self.gateway.shutdown();
        let Cluster {
            gateway,
            sharded,
            nodes,
            ..
        } = self;
        drop(sharded);
        drop(gateway);
        // Dropping the last handle of a node joins its threads.
        drop(nodes);
    }
}

#[derive(Debug, Clone)]
pub struct DeviceSnapshot {
    pub programs: u64,
    pub erases: u64,
    pub host_writes: u64,
    pub sim_write_ns: u64,
}

#[derive(Debug, Clone)]
pub struct Snapshot {
    pub gateway: GatewayStats,
    pub shard_sum: Option<ShardStatsSum>,
    pub nodes: Vec<NodeStats>,
    pub transitions: u64,
    pub devices: Vec<DeviceSnapshot>,
}
