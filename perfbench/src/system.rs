//! The system under test: dbservers over sharded stores, optionally a
//! replicated leader with replica regions, plus the client transports.

use crate::load::{post_reconciled, Posted};
use crate::timed::Timed;
use crate::traced::{ClientTrace, Kind, TracedClient};
use csaw::global::{GlobalApi, RegistrarConfig, RemoteDb, ServerDb};
use csaw_dbserver::{spawn_dbserver, DbServerConfig, DbServerHandle, DbServerStats};
use csaw_obs::{ObsCtx, PerfMode};
use csaw_replica::ReplicatedStore;
use csaw_simnet::time::SimDuration;
use csaw_simnet::topology::Asn;
use csaw_store::{Batch, ConfidenceFilter, GlobalRecord, ShardedStore, StorageBackend, StoreError};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

/// Shards per store, as in the deployment default.
pub const SHARDS: usize = 16;

/// One dbserver and the in-process handle to the DB it serves.
pub struct Node {
    /// The served DB (for in-process checks and drains).
    pub db: Arc<ServerDb>,
    /// The reactor.
    pub handle: DbServerHandle,
    /// Timing wrapper around the served backend (traced run only).
    pub timed: Option<Arc<Timed>>,
}

impl Node {
    /// The server's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Snapshot of the reactor's counters.
    pub fn stats(&self) -> DbServerStats {
        self.handle.stats()
    }
}

/// A running deployment.
pub struct Deployment {
    /// The server clients post to.
    pub leader: Node,
    /// The leader's journal, when replicated.
    pub journal: Option<Arc<ReplicatedStore>>,
    /// Timing wrapper inside the journal (traced, replicated).
    pub inner_timed: Option<Arc<Timed>>,
    /// Replica regions, in shipper link order.
    pub replicas: Vec<Node>,
    /// Observability scope of the leader's store (traced run only).
    pub leader_ctx: Option<Arc<ObsCtx>>,
}

/// A registration gate that admits the whole generated population: the
/// benchmark measures the report path, not the sybil gate.
fn open_gate() -> RegistrarConfig {
    RegistrarConfig {
        max_risk: 1.0,
        max_per_window: usize::MAX,
        window: SimDuration::from_secs(3600),
    }
}

fn serve(salt: u64, backend: Arc<dyn StorageBackend>, timed: Option<Arc<Timed>>) -> Node {
    let db = Arc::new(
        ServerDb::builder(salt)
            .registrar(open_gate())
            .backend(backend)
            .build()
            .expect("a custom backend always builds"),
    );
    let handle = spawn_dbserver(Arc::clone(&db), DbServerConfig::default())
        .expect("bind a loopback dbserver");
    Node { db, handle, timed }
}

fn store() -> Arc<dyn StorageBackend> {
    Arc::new(ShardedStore::new(SHARDS).expect("nonzero shard count"))
}

/// Wrap `backend` in a timing wrapper when tracing.
fn maybe_timed(
    traced: bool,
    label: &str,
    backend: Arc<dyn StorageBackend>,
) -> (Arc<dyn StorageBackend>, Option<Arc<Timed>>) {
    if traced {
        let t = Timed::new(label, backend);
        (t.clone(), Some(t))
    } else {
        (backend, None)
    }
}

fn prepopulate(store: &dyn StorageBackend, prepop: &[Batch]) {
    for b in prepop {
        let receipt = store
            .ingest(b)
            .expect("in-memory pre-population cannot fail");
        assert_eq!(receipt.accepted, b.len(), "generated reports are storable");
    }
}

/// Spawn a plain dbserver over a 16-shard store holding `prepop`.
/// Traced: the store is built under a perf-attributing scope and served
/// through a timing wrapper.
pub fn plain(salt: u64, prepop: &[Batch], traced: bool) -> Deployment {
    let ctx = traced.then(|| Arc::new(ObsCtx::new().with_perf(PerfMode::Monotonic)));
    let _scope = ctx.clone().map(csaw_obs::install);
    let inner = store();
    prepopulate(&*inner, prepop);
    let (backend, timed) = maybe_timed(traced, "leader", inner);
    Deployment {
        leader: serve(salt, backend, timed),
        journal: None,
        inner_timed: None,
        replicas: Vec::new(),
        leader_ctx: ctx,
    }
}

/// A leader `ReplicatedStore` over a 16-shard store plus `regions`
/// replica dbservers, each over its own store. `prepop` goes into every
/// store, in the same order, before the leader is wrapped, so the
/// journal starts empty and set-up ships nothing.
pub fn replicated(salt: u64, prepop: &[Batch], regions: usize, traced: bool) -> Deployment {
    let leader_ctx = traced.then(|| Arc::new(ObsCtx::new().with_perf(PerfMode::Monotonic)));
    let replica_ctx = traced.then(|| Arc::new(ObsCtx::new().with_perf(PerfMode::Monotonic)));
    let replicas = {
        let _scope = replica_ctx.map(csaw_obs::install);
        (0..regions)
            .map(|r| {
                let s = store();
                prepopulate(&*s, prepop);
                let (backend, timed) = maybe_timed(traced, &format!("r{r}"), s);
                serve(salt ^ (r as u64 + 1), backend, timed)
            })
            .collect()
    };
    let _scope = leader_ctx.clone().map(csaw_obs::install);
    let inner = store();
    prepopulate(&*inner, prepop);
    let (inner, inner_timed) = maybe_timed(traced, "leader.inner", inner);
    let journal = Arc::new(ReplicatedStore::new(inner));
    let (backend, timed) = maybe_timed(traced, "leader", journal.clone());
    Deployment {
        leader: serve(salt, backend, timed),
        journal: Some(journal),
        inner_timed,
        replicas,
        leader_ctx,
    }
}

impl Deployment {
    /// Every timing wrapper of the deployment (traced run only).
    pub fn timed(&self) -> impl Iterator<Item = &Arc<Timed>> {
        std::iter::once(&self.leader.timed)
            .chain(std::iter::once(&self.inner_timed))
            .chain(self.replicas.iter().map(|r| &r.timed))
            .flatten()
    }

    /// Stop every reactor, serving in-flight requests first.
    pub fn shutdown(self) {
        self.leader.handle.drain();
        for r in self.replicas {
            r.handle.drain();
        }
    }
}

/// One load connection: a `GlobalApi` and, in a traced run, the traced
/// client behind it, which opens one root span per operation.
pub struct Conn {
    api: Arc<dyn GlobalApi>,
    traced: Option<Arc<TracedClient>>,
}

impl Conn {
    fn op<R>(&self, kind: Kind, op: impl FnOnce() -> R) -> R {
        match &self.traced {
            Some(t) => t.root(kind, op),
            None => op(),
        }
    }

    /// Post `batch` until its receipt fully reconciles (see
    /// [`post_reconciled`]).
    pub fn post(&self, batch: Batch) -> Result<Posted, String> {
        self.op(Kind::Post, || {
            post_reconciled(|b| self.api.ingest(b), batch)
        })
    }

    /// Download `asn`'s blocked list.
    pub fn sync(&self, asn: Asn) -> Result<Vec<GlobalRecord>, StoreError> {
        self.op(Kind::Sync, || {
            self.api.blocked_for_as(asn, &ConfidenceFilter::default())
        })
    }
}

/// Hands out client connections: pooled `RemoteDb`s (one shared pool
/// per server) in a measured run, one `TracedClient` per thread in a
/// traced run.
pub struct Clients {
    traced: bool,
    pools: Mutex<Vec<(SocketAddr, Arc<RemoteDb>)>>,
    conns: Mutex<Vec<Arc<TracedClient>>>,
}

impl Clients {
    /// A transport; `traced` picks the benchmark-side client.
    pub fn new(traced: bool) -> Clients {
        Clients {
            traced,
            pools: Mutex::new(Vec::new()),
            conns: Mutex::new(Vec::new()),
        }
    }

    /// A connection to `addr`; `track` names a traced connection.
    pub fn connect(&self, addr: SocketAddr, track: &str) -> Conn {
        if self.traced {
            let c =
                Arc::new(TracedClient::connect(addr, track).expect("connect to a local dbserver"));
            self.conns
                .lock()
                .expect("clients lock poisoned")
                .push(c.clone());
            return Conn {
                api: c.clone(),
                traced: Some(c),
            };
        }
        let mut pools = self.pools.lock().expect("clients lock poisoned");
        let api = match pools.iter().find(|(a, _)| *a == addr) {
            Some((_, p)) => p.clone(),
            None => {
                let p = Arc::new(RemoteDb::new(addr).with_max_idle(2));
                pools.push((addr, p.clone()));
                p
            }
        };
        Conn { api, traced: None }
    }

    /// What every traced connection recorded (empty when untraced).
    pub fn traces(&self) -> Vec<ClientTrace> {
        self.conns
            .lock()
            .expect("clients lock poisoned")
            .iter()
            .map(|c| c.take())
            .collect()
    }
}
