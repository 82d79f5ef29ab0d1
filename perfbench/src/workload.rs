//! The three workloads: set-up, request generation, the timed phases over
//! real TCP, the oracle, and the metrics derived from it all.
//!
//! Every workload serves a live [`ReleaseStore`] through
//! `Server::bind_handler` with the shipped defaults (4 server workers,
//! search threads = all cores, source cache on with 4096 entries). The
//! load comes from this process alone: at most `nproc` client threads and
//! `nproc` connections.

mod check;
mod phases;

use crate::handler::BenchHandler;
use crate::json::Json;
use crate::load::{Sample, TcpTransport, Transport};
use crate::oracle;
use crate::stats::{quantile, ratio, sorted};
use crate::trace::{line_key, Trace};
use check::{AcrossEpochs, CurrentEpoch};
use phases::{each_read, open_phase, run_phases, write_samples};
use privpath_dp::{Epsilon, RngNoise};
use privpath_engine::{ReleaseId, ReleaseKind};
use privpath_geo::{generate_road_network, read_co_path, read_gr_path, write_co, write_gr};
use privpath_graph::generators::{connected_gnm, uniform_weights};
use privpath_graph::{EdgeWeights, NodeId, Topology};
use privpath_serve::{
    AdminRequest, AdminResponse, QueryRequest, QueryResponse, ReleaseRef, RunningServer, Server,
};
use privpath_store::{GeoBounds, ReleaseSpec, ReleaseStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::io::BufWriter;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The namespace every workload serves.
const NS: &str = "bench";
/// Graph of the batch workloads: `connected_gnm(V, 3V)`.
const GNM_NODES: usize = 10_000;
const GNM_EDGES: usize = 30_000;
/// Sources the hot batch workloads draw from, and pairs per batch.
const POOL: usize = 8;
const BATCH_PAIRS: usize = 16;
/// `geo-cold` road network size; every `ROUTE_EVERY`-th request is a
/// route, the rest distances (a 3:1 mix).
const GEO_NODES: usize = 100_000;
const ROUTE_EVERY: usize = 4;
/// Floors that keep the reported quantiles supported: p99 needs 1000
/// samples to have ten beyond it, update p90 needs 100.
const MIN_READS: usize = 1000;
const MIN_UPDATES: usize = 100;
/// Time slices the saturation throughput is the median over.
const RATE_SLICES: usize = 10;
/// Slices the open-loop latency quantiles are the median over, and the
/// fewest samples a slice may hold.
const LATENCY_SLICES: usize = 10;
const MIN_SLICE_SAMPLES: usize = 100;
/// Delay between scheduling a phase and its first due request, so every
/// connection thread is running before anything is due.
const LEAD: Duration = Duration::from_millis(20);
/// `update-mixed` keeps the release view of every this-many-th epoch for
/// the oracle (about 1 MB each; keeping all would dominate `rss_mb`).
const KEEP_EVERY_EPOCH: u64 = 8;
/// `batch-wide` compares every this-many-th batch with fresh searches
/// (checking all would cost the oracle a search per source).
const WIDE_CHECK_EVERY: usize = 8;
/// A generator whose median lateness exceeds this did not offer the
/// stated rate, and the run is invalid.
const MAX_MEDIAN_LATE_S: f64 = 0.010;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    BatchHot,
    BatchWide,
    GeoCold,
    UpdateMixed,
}

/// A workload's fixed parameters. The open-loop read rates are fixed
/// here, at about half of each workload's saturation throughput at the
/// commit that introduced the benchmark (`update-mixed` reads at a tenth,
/// so its writer's bursts do not saturate two cores); they are never
/// re-derived per run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub name: &'static str,
    pub kind: Kind,
    /// Open-loop read arrivals per second.
    pub read_rate: f64,
    /// Open-loop `update-weights` arrivals per second beside the reads
    /// (`update-mixed`); 0 sends updates one at a time on an idle server
    /// after the reads.
    pub update_rate: f64,
    /// Pipelined requests each connection keeps in flight at saturation.
    pub window: usize,
    /// Requests of the saturation phase (a few seconds at the seed).
    pub saturation: usize,
    /// Share of `--seconds` the open loop runs for (at least `MIN_READS`
    /// requests).
    pub open_share: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

pub const WORKLOADS: [Params; 4] = [
    Params {
        name: "batch-hot",
        kind: Kind::BatchHot,
        read_rate: 20000.0,
        update_rate: 0.0,
        window: 32,
        saturation: 120_000,
        open_share: 0.2,
        setups: 9,
    },
    Params {
        name: "batch-wide",
        kind: Kind::BatchWide,
        read_rate: 50.0,
        update_rate: 0.0,
        window: 2,
        saturation: 800,
        open_share: 0.5,
        setups: 9,
    },
    Params {
        name: "geo-cold",
        kind: Kind::GeoCold,
        read_rate: 50.0,
        update_rate: 0.0,
        window: 2,
        saturation: 300,
        open_share: 0.3,
        setups: 5,
    },
    Params {
        name: "update-mixed",
        kind: Kind::UpdateMixed,
        read_rate: 2000.0,
        update_rate: 10.0,
        window: 32,
        saturation: 30_000,
        open_share: 0.75,
        setups: 9,
    },
];

impl Params {
    /// Reader connections: all `nproc`, less the writer's on update-mixed.
    pub fn read_connections(&self, nproc: usize) -> usize {
        if self.kind == Kind::UpdateMixed {
            nproc.saturating_sub(1).max(1)
        } else {
            nproc
        }
    }
}

pub fn params(name: &str) -> Option<Params> {
    WORKLOADS.iter().copied().find(|p| p.name == name)
}

/// What one run produced.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit, samples)`; samples is 0 where no count applies.
    pub end_to_end: Vec<(&'static str, f64, &'static str, usize)>,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
    pub detail: Vec<(String, Json)>,
    pub problems: Vec<String>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Set-up time split by step.
#[derive(Clone, Copy, Debug, Default)]
struct SetupTimes {
    total_s: f64,
    ingest_s: f64,
    create_ns_s: f64,
    publish_s: f64,
}

/// One set-up: a live store served over TCP, plus the public data the
/// oracle needs.
struct Live {
    dir: PathBuf,
    store: Arc<ReleaseStore>,
    handler: Arc<BenchHandler>,
    server: Option<RunningServer>,
    addr: SocketAddr,
    release: ReleaseRef,
    id: ReleaseId,
    topo: Topology,
    /// The weights the namespace was created with (for timing a release
    /// run in process).
    weights: EdgeWeights,
    num_edges: usize,
    bounds: Option<GeoBounds>,
    pool: Vec<NodeId>,
    times: SetupTimes,
}

impl Live {
    fn close(mut self) -> Result<(), String> {
        if let Some(server) = self.server.take() {
            server.shutdown().map_err(err)?;
        }
        Ok(())
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(kind: Kind, seed: u64, dir: &Path) -> Result<Live, String> {
    let started = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(err)?;
    let mut times = SetupTimes::default();
    let (topo, weights, coords) = match kind {
        Kind::BatchHot | Kind::BatchWide | Kind::UpdateMixed => {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = connected_gnm(GNM_NODES, GNM_EDGES, &mut rng);
            let weights = uniform_weights(topo.num_edges(), 0.0, 1.0, &mut rng);
            (topo, weights, None)
        }
        Kind::GeoCold => {
            let net = generate_road_network(GEO_NODES, seed).map_err(err)?;
            let (gr, co) = (dir.join("net.gr"), dir.join("net.co"));
            let file = |p: &Path| std::fs::File::create(p).map(BufWriter::new).map_err(err);
            write_gr(file(&gr)?, &net.topology, &net.weights).map_err(err)?;
            write_co(file(&co)?, &net.coords).map_err(err)?;
            drop(net);
            let t = Instant::now();
            let parsed = read_gr_path(&gr).map_err(err)?;
            let coords = read_co_path(&co, Some(parsed.topology.num_nodes())).map_err(err)?;
            times.ingest_s = t.elapsed().as_secs_f64();
            (parsed.topology, parsed.weights, Some(coords))
        }
    };
    let public_topo = topo.clone();
    let private_weights = weights.clone();
    let num_edges = topo.num_edges();
    // Shipped defaults: source cache on, 4096 entries. The noise seed is
    // pinned so a bench seed replays the same releases.
    let store = ReleaseStore::open(dir.join("store"))
        .map_err(err)?
        .with_seed(seed);
    let t = Instant::now();
    match coords {
        Some(c) => store.create_namespace_geo(NS, topo, weights, c, None),
        None => store.create_namespace(NS, topo, weights, None),
    }
    .map_err(err)?;
    times.create_ns_s = t.elapsed().as_secs_f64();
    let spec = release_spec()?;
    let t = Instant::now();
    let id = store.publish(NS, &spec).map_err(err)?.id;
    times.publish_s = t.elapsed().as_secs_f64();
    let store = Arc::new(store);
    let handler = Arc::new(BenchHandler::new(Arc::clone(&store), NS));
    let server = Server::bind_handler("127.0.0.1:0", handler.clone())
        .map_err(err)?
        .spawn()
        .map_err(err)?;
    let addr = server.addr();
    let release = ReleaseRef::namespaced(NS, id).map_err(err)?;
    let bounds = store.snapshot(NS).map_err(err)?.geo().map(|g| g.bounds());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9001);
    let mut pool = BTreeSet::new();
    if matches!(kind, Kind::BatchHot | Kind::UpdateMixed) {
        while pool.len() < POOL {
            pool.insert(rng.gen_range(0..public_topo.num_nodes()));
        }
    }
    let pool: Vec<NodeId> = pool.into_iter().map(NodeId::new).collect();
    let mut live = Live {
        dir: dir.to_path_buf(),
        store,
        handler,
        server: Some(server),
        addr,
        release,
        id,
        topo: public_topo,
        weights: private_weights,
        num_edges,
        bounds,
        pool,
        times,
    };
    // Warm-up over the wire: every pool row into the cache (hot
    // workloads), or a request of each verb from a separate stream (code
    // paths and allocator only).
    let warm: Vec<QueryRequest> = if live.pool.is_empty() {
        let mut g = Gen::new(kind, seed ^ 0x3a3a);
        vec![g.read(&live, 0), g.read(&live, ROUTE_EVERY - 1)]
    } else {
        vec![QueryRequest::DistanceBatch {
            release: live.release.clone(),
            pairs: live.pool.iter().map(|&s| (s, s)).collect(),
            gamma: None,
        }]
    };
    let mut t = TcpTransport::connect(live.addr).map_err(err)?;
    for req in &warm {
        t.send(&req.to_string()).map_err(err)?;
        let resp = t
            .recv(Duration::from_secs(60))
            .map_err(err)?
            .ok_or("warm-up request timed out")?;
        if resp.starts_with("error") {
            return Err(format!("warm-up refused: {resp}"));
        }
    }
    drop(t);
    live.times.total_s = started.elapsed().as_secs_f64();
    Ok(live)
}

/// The one release every workload publishes: shortest paths at eps = 1.
fn release_spec() -> Result<ReleaseSpec, String> {
    ReleaseSpec::new(ReleaseKind::ShortestPath, Epsilon::new(1.0).map_err(err)?).map_err(err)
}

/// Times `count` in-process runs of the namespace's release spec over its
/// weights: the engine step of every `update-weights`.
fn replay_releases(
    live: &Live,
    seed: u64,
    count: usize,
    trace: &mut Trace,
    first_request: u64,
) -> Result<(), String> {
    let spec = release_spec()?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for i in 0..count {
        let t0 = Instant::now();
        let staged = spec
            .run(&live.topo, &live.weights, &mut RngNoise::new(&mut rng))
            .map_err(err)?;
        let t1 = Instant::now();
        std::hint::black_box(staged);
        trace.push("release", first_request + i as u64, None, t0, t1);
    }
    Ok(())
}

/// The request generator: reads and updates from their own seeded
/// streams, so the same seed gives the same inputs.
#[derive(Clone)]
struct Gen {
    kind: Kind,
    reads: StdRng,
    updates: StdRng,
}

impl Gen {
    fn new(kind: Kind, seed: u64) -> Self {
        Gen {
            kind,
            reads: StdRng::seed_from_u64(seed ^ 0x7ead),
            updates: StdRng::seed_from_u64(seed ^ 0x0dd5),
        }
    }

    fn point(&mut self, b: &GeoBounds) -> (f64, f64) {
        (
            self.reads.gen_range(b.min_lat()..b.max_lat()),
            self.reads.gen_range(b.min_lon()..b.max_lon()),
        )
    }

    /// The `i`-th read of the workload's request shape.
    fn read(&mut self, live: &Live, i: usize) -> QueryRequest {
        let release = live.release.clone();
        match (self.kind, &live.bounds) {
            (Kind::GeoCold, Some(b)) => {
                let (from, to) = (self.point(b), self.point(b));
                if i % ROUTE_EVERY == ROUTE_EVERY - 1 {
                    QueryRequest::GeoRoute { release, from, to }
                } else {
                    QueryRequest::GeoDistance {
                        release,
                        from,
                        to,
                        gamma: None,
                    }
                }
            }
            _ => {
                // Sources from the pool (hot), or uniform (wide).
                let n = live.topo.num_nodes();
                let pairs = (0..BATCH_PAIRS)
                    .map(|_| {
                        let s = if live.pool.is_empty() {
                            NodeId::new(self.reads.gen_range(0..n))
                        } else {
                            live.pool[self.reads.gen_range(0..live.pool.len())]
                        };
                        (s, NodeId::new(self.reads.gen_range(0..n)))
                    })
                    .collect();
                QueryRequest::DistanceBatch {
                    release,
                    pairs,
                    gamma: None,
                }
            }
        }
    }

    /// A sparse one-edge weight update.
    fn update(&mut self, live: &Live) -> AdminRequest {
        AdminRequest::UpdateWeights {
            namespace: NS.to_string(),
            updates: vec![(
                self.updates.gen_range(0..live.num_edges),
                self.updates.gen_range(0.0..1.0),
            )],
            full: false,
        }
    }
}

/// Cache lookups one read makes: one per distinct batch source, one per
/// geo distance, none for a route (routes are not cached).
fn lookups(req: &QueryRequest) -> u64 {
    match req {
        QueryRequest::DistanceBatch { pairs, .. } => {
            pairs.iter().map(|p| p.0).collect::<BTreeSet<_>>().len() as u64
        }
        QueryRequest::GeoDistance { .. } => 1,
        _ => 0,
    }
}

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub out_dir: PathBuf,
}

/// Adds the traced wire requests' client spans and the handler's spans
/// (joined to their client span by line key and time) to `trace`.
fn wire_spans(
    trace: &mut Trace,
    traced: &[(u64, &Sample, u64)],
    handle: Vec<(u64, Instant, Instant)>,
) {
    let mut by_key: HashMap<u64, Vec<(usize, Instant, Instant)>> = HashMap::new();
    for &(rid, s, key) in traced {
        let idx = trace.push("client", rid, None, s.sent, s.done);
        by_key.entry(key).or_default().push((idx, s.sent, s.done));
    }
    for (key, start, end) in handle {
        let parent = by_key
            .get(&key)
            .and_then(|c| c.iter().find(|&&(_, a, b)| a <= start && end <= b))
            .map(|&(idx, _, _)| idx);
        let rid = parent.map_or(u64::MAX, |p| trace.spans[p].request);
        trace.push("handle", rid, parent, start, end);
    }
}

/// Request ids of the traced run: open-loop reads by schedule index, then
/// saturation reads, replayed reads and replayed releases.
const SAT_REQUEST_BASE: u64 = 1 << 32;
const REPLAY_REQUEST_BASE: u64 = 2 << 32;
const RELEASE_REQUEST_BASE: u64 = 3 << 32;

pub fn run(p: &Params, cfg: &Config) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let run_started = Instant::now();

    // Set up several times; keep the last one live.
    let mut setups = Vec::with_capacity(p.setups);
    let mut live: Option<Live> = None;
    for k in 0..p.setups.max(1) {
        if let Some(prev) = live.take() {
            prev.close()?;
        }
        let l = setup(p.kind, cfg.seed, &cfg.work_dir.join(format!("setup-{k}")))?;
        setups.push(l.times);
        live = Some(l);
    }
    let live = live.expect("at least one set-up");
    let first = live.store.snapshot(NS).map_err(err)?;
    let first_epoch = first.epoch();
    let first_service = first.service().clone();
    drop(first);
    let mut gen = Gen::new(p.kind, cfg.seed);
    let gen_before = gen.clone();

    let phases = run_phases(p, cfg, &live, &mut gen, nproc)?;
    let rss_mb = peak_rss_mb()?;

    // ---- Oracle and cross-checks (outside every timed window).
    let mut problems = phases.problems.clone();
    let mut acked = Vec::new();
    let mut acks: Vec<(Instant, Instant, u64)> = Vec::new();
    let mut failed_updates = 0u64;
    for u in &phases.updates {
        if u.refused {
            failed_updates += 1;
            continue;
        }
        match u
            .response
            .parse::<AdminResponse>()
            .map_err(err)
            .and_then(|r| oracle::check_updated(&r))
        {
            Ok(epoch) => {
                acked.push(epoch);
                acks.push((u.sent, u.done, epoch));
            }
            Err(e) => problems.push(format!("update {}: {e}", u.index)),
        }
    }
    if let Err(e) = oracle::check_epochs(&acked) {
        problems.push(e);
    }
    let mut checked_reads = phases.checked_reads;
    if p.kind == Kind::UpdateMixed {
        let mut kept = live.handler.take_epochs();
        kept.push((first_epoch, first_service));
        let mut across = AcrossEpochs::new(&live, &kept, acks, first_epoch)?;
        drop(kept);
        each_read(&gen_before, &live, &phases, |_, req, s| {
            across.check(req, s, &mut problems);
            Ok(())
        })?;
        checked_reads = across.checked;
        // Final epoch: fresh wire reads against in-process answers.
        let reqs: Vec<QueryRequest> = (0..32).map(|i| gen.read(&live, i)).collect();
        let lines: Vec<String> = reqs.iter().map(ToString::to_string).collect();
        let mut conn = [TcpTransport::connect(live.addr).map_err(err)?];
        let samples = open_phase(&mut conn, &lines, 1000.0, true)?;
        let mut current = CurrentEpoch::new(&live, &mut problems)?;
        for s in &samples {
            if s.refused {
                problems.push("a final-epoch read was refused".into());
            }
            current.check(&reqs[s.index], s, &mut problems)?;
        }
    }

    // ---- Counts.
    let rc = &phases.read_counters;
    let uc = &phases.update_counters;
    let wc = &phases.window_counters;
    let failed_reads = phases
        .open
        .iter()
        .chain(&phases.sat)
        .filter(|s| s.refused)
        .count() as u64;
    let attempted = phases.reads_sent() + phases.updates_sent;
    let failed = failed_reads + failed_updates;
    if wc.epoch_bumps != acked.len() as u64 {
        problems.push(format!(
            "store_epoch_bumps_total moved {} for {} acked updates",
            wc.epoch_bumps,
            acked.len()
        ));
    }
    if rc.cache_hits + rc.cache_misses != phases.expected_lookups {
        problems.push(format!(
            "cache hits + misses = {} but {} (request, source) lookups were issued",
            rc.cache_hits + rc.cache_misses,
            phases.expected_lookups
        ));
    }
    if wc.requests != attempted {
        problems.push(format!(
            "serve_requests_total moved {} for {attempted} requests sent",
            wc.requests
        ));
    }
    let late = sorted(&phases.late);
    let median_late = quantile(&late, 0.5).unwrap_or(0.0);
    if median_late > MAX_MEDIAN_LATE_S {
        return Err(format!(
            "invalid run: the generator ran {:.1} ms late at the median, so the offered rate \
             was not met",
            median_late * 1e3
        ));
    }

    // ---- End-to-end metrics.
    let mut open: Vec<&Sample> = phases.untraced_open().filter(|s| !s.refused).collect();
    open.sort_by_key(|s| s.due);
    let by_due: Vec<f64> = open.iter().map(|s| s.latency_s() * 1e3).collect();
    let lat = sorted(&by_due);
    let upd: Vec<f64> = phases
        .updates
        .iter()
        .filter(|u| !u.refused)
        .map(|u| u.latency_s() * 1e3)
        .collect();
    let upd = sorted(&upd);
    let med = |xs: Vec<f64>| crate::stats::median(&xs).unwrap_or(0.0);
    let q = |xs: &[f64], qq: f64| quantile(xs, qq).unwrap_or(0.0);
    let end_to_end = vec![
        (
            "setup_s",
            med(setups.iter().map(|t| t.total_s).collect()),
            "s",
            setups.len(),
        ),
        ("p50_ms", sliced_quantile(&by_due, 0.5), "ms", lat.len()),
        ("rps", phases.rps, "req/s", phases.sat.len()),
        ("rss_mb", rss_mb, "MB", 1),
    ];
    // Tail percentiles and update latencies are reported with their
    // sample counts but not gated: on a small shared host their
    // run-to-run spread is wider than any bound the benchmark may set.
    let mut detail: Vec<(String, Json)> = vec![
        ("p90_ms".into(), Json::Num(sliced_quantile(&by_due, 0.9))),
        ("p99_ms".into(), Json::Num(q(&lat, 0.99))),
        ("read_samples".into(), Json::Int(lat.len() as u64)),
        ("update_p50_ms".into(), Json::Num(q(&upd, 0.5))),
        ("update_p90_ms".into(), Json::Num(q(&upd, 0.9))),
        ("update_samples".into(), Json::Int(upd.len() as u64)),
    ];
    if p.kind == Kind::GeoCold {
        detail.push((
            "geo.ingest_s".into(),
            Json::Num(med(setups.iter().map(|t| t.ingest_s).collect())),
        ));
    }

    // ---- Per-layer metrics.
    let reads_n = phases.reads_sent() as f64;
    let updates_n = acked.len() as f64;
    let (handle_calls, handle_us) = phases.open_handle;
    let mut per_layer = vec![
        (
            "serve.transport_us",
            phases.open_round_trip_us - handle_us,
            "us",
        ),
        ("serve.handle_us", handle_us, "us"),
        (
            "serve.bytes_in_per_req",
            ratio(wc.bytes_read as f64, wc.requests as f64),
            "B",
        ),
        (
            "serve.bytes_out_per_req",
            ratio(wc.bytes_written as f64, wc.requests as f64),
            "B",
        ),
        (
            "store.cache_hit_ratio",
            ratio(
                rc.cache_hits as f64,
                (rc.cache_hits + rc.cache_misses) as f64,
            ),
            "ratio",
        ),
        ("store.cache_hits", rc.cache_hits as f64, "count"),
        ("store.cache_misses", rc.cache_misses as f64, "count"),
        (
            "store.commit_ms",
            ratio(uc.update_s * 1e3, uc.update_count as f64),
            "ms",
        ),
        (
            "store.fsyncs_per_update",
            ratio(uc.fsync_count as f64, updates_n),
            "count",
        ),
        ("store.fsync_ms", ratio(uc.fsync_s * 1e3, updates_n), "ms"),
        (
            "store.publish_s",
            med(setups.iter().map(|t| t.publish_s).collect()),
            "s",
        ),
        (
            "store.create_ns_s",
            med(setups.iter().map(|t| t.create_ns_s).collect()),
            "s",
        ),
        (
            "graph.settled_per_query",
            ratio(rc.settled as f64, reads_n),
            "count",
        ),
        (
            "graph.sources_per_query",
            ratio(rc.sources as f64, reads_n),
            "count",
        ),
        (
            "graph.workspace_reuses_per_query",
            ratio(rc.workspace_reuses as f64, reads_n),
            "count",
        ),
        (
            "dp.noise_draws_per_update",
            ratio(uc.noise_draws as f64, updates_n),
            "count",
        ),
        ("dp.calibration_evals", uc.calibration_evals as f64, "count"),
        (
            "bench.late_ms",
            late.last().copied().unwrap_or(0.0) * 1e3,
            "ms",
        ),
    ];

    // ---- Traced run: spans, replay, per-layer times, overhead.
    if cfg.trace {
        let mut trace = Trace::new(run_started);
        let mut wire: Vec<(u64, &Sample, u64)> = Vec::new();
        each_read(&gen_before, &live, &phases, |saturation, req, s| {
            if saturation {
                wire.push((
                    SAT_REQUEST_BASE + s.index as u64,
                    s,
                    line_key(&req.to_string()),
                ));
            } else if s.index >= phases.traced_from {
                wire.push((s.index as u64, s, line_key(&req.to_string())));
            }
            Ok(())
        })?;
        wire_spans(&mut trace, &wire, live.handler.take_spans());
        let replay_count = if p.kind == Kind::GeoCold { 100 } else { 2000 };
        replay(
            &live,
            &mut gen,
            replay_count,
            &mut trace,
            REPLAY_REQUEST_BASE,
        )?;
        replay_releases(&live, cfg.seed, 5, &mut trace, RELEASE_REQUEST_BASE)?;
        let means = trace.mean_self_us();
        let m = |name: &str| means.get(name).map_or(0.0, |v| v.0);
        per_layer.push(("serve.parse_us", m("parse"), "us"));
        per_layer.push(("serve.encode_us", m("encode"), "us"));
        per_layer.push(("store.snapshot_us", m("snapshot"), "us"));
        per_layer.push(("store.read_us", m("read"), "us"));
        // The store stages re-releases through `ReleaseSpec::run`, which
        // records no `engine_release_seconds`; time the same call here.
        per_layer.push(("engine.release_ms", m("release") / 1e3, "ms"));
        if p.kind == Kind::GeoCold {
            detail.push(("geo.snap_us".into(), Json::Num(m("snap"))));
            detail.push(("engine.path_us".into(), Json::Num(m("path"))));
        }
        let p50_of = |traced: bool| {
            let xs: Vec<f64> = phases
                .open
                .iter()
                .filter(|s| (s.index >= phases.traced_from) == traced)
                .map(|s| s.latency_s() * 1e3)
                .collect();
            q(&sorted(&xs), 0.5)
        };
        let (untraced, traced) = (p50_of(false), p50_of(true));
        per_layer.push((
            "bench.trace_overhead_pct",
            ratio((traced - untraced) * 100.0, untraced),
            "%",
        ));
        let path = cfg
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", p.name, cfg.seed));
        std::fs::create_dir_all(&cfg.out_dir).map_err(err)?;
        let file = std::fs::File::create(&path).map_err(err)?;
        trace.write_jsonl(BufWriter::new(file)).map_err(err)?;
        detail.push(("trace_file".into(), Json::str(path.display().to_string())));
        detail.push(("trace_spans".into(), Json::Int(trace.spans.len() as u64)));
    }

    write_samples(cfg, p.name, run_started, &phases).map_err(err)?;
    let counts = Json::obj([
        ("reads_sent", Json::Int(phases.reads_sent())),
        ("updates_sent", Json::Int(phases.updates_sent)),
        ("updates_acked", Json::Int(acked.len() as u64)),
        ("reads_checked_by_oracle", Json::Int(checked_reads as u64)),
        ("saturation_samples", Json::Int(phases.sat.len() as u64)),
        ("handle_calls_open_loop", Json::Int(handle_calls)),
        ("placement_retries", Json::Int(phases.placement_retries)),
        ("expected_cache_lookups", Json::Int(phases.expected_lookups)),
        ("serve_requests_delta", Json::Int(wc.requests)),
        ("epoch_bumps_delta", Json::Int(wc.epoch_bumps)),
        (
            "engine_release_seconds_count_delta",
            Json::Int(uc.release_count),
        ),
        ("late_p50_ms", Json::Num(median_late * 1e3)),
        ("late_p99_ms", Json::Num(q(&late, 0.99) * 1e3)),
        (
            "error_rate",
            Json::Num(ratio(failed as f64, attempted as f64)),
        ),
    ]);
    detail.push(("counts".into(), counts));
    drop(live);
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        end_to_end,
        per_layer,
        detail,
        problems,
    })
}

/// The median, over consecutive equal slices of `values` (in time order),
/// of each slice's exact `q`-quantile. Slices hold at least
/// `MIN_SLICE_SAMPLES` values, so a p90 has ten samples beyond it in
/// every slice; a host stall of a few seconds then moves a few slices,
/// not the figure.
fn sliced_quantile(values: &[f64], q: f64) -> f64 {
    let slices = (values.len() / MIN_SLICE_SAMPLES).clamp(1, LATENCY_SLICES);
    let width = values.len() / slices;
    let per_slice: Vec<f64> = (0..slices)
        .filter_map(|k| {
            let end = if k + 1 == slices {
                values.len()
            } else {
                (k + 1) * width
            };
            quantile(&sorted(&values[k * width..end]), q)
        })
        .collect();
    crate::stats::median(&per_slice).unwrap_or(0.0)
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The traced in-process replay: fresh reads from the same generator,
/// timed around the public calls in the handler's order.
fn replay(
    live: &Live,
    gen: &mut Gen,
    count: usize,
    trace: &mut Trace,
    first_request: u64,
) -> Result<(), String> {
    for i in 0..count {
        let line = gen.read(live, i).to_string();
        let rid = first_request + i as u64;
        let t0 = Instant::now();
        let req: QueryRequest = line.parse().map_err(err)?;
        let t1 = Instant::now();
        let snap = live.store.snapshot(NS).map_err(err)?;
        let t2 = Instant::now();
        let mut kids: Vec<(&'static str, Instant, Instant)> =
            vec![("parse", t0, t1), ("snapshot", t1, t2)];
        let resp = match &req {
            QueryRequest::DistanceBatch { pairs, .. } => {
                let values = snap.distance_batch(live.id, pairs).map_err(err)?;
                kids.push(("read", t2, Instant::now()));
                QueryResponse::Distances {
                    values,
                    bound: None,
                }
            }
            QueryRequest::GeoDistance { from, to, .. }
            | QueryRequest::GeoRoute { from, to, .. } => {
                let index = snap.geo().ok_or("geo namespace lost its index")?;
                let su = index.snap(from.0, from.1).map_err(err)?.node;
                let sv = index.snap(to.0, to.1).map_err(err)?.node;
                let t3 = Instant::now();
                kids.push(("snap", t2, t3));
                if matches!(req, QueryRequest::GeoRoute { .. }) {
                    let path = snap
                        .service()
                        .query(live.id)
                        .map_err(err)?
                        .path(su, sv)
                        .ok_or("release carries no routes")?
                        .map_err(err)?;
                    kids.push(("path", t3, Instant::now()));
                    QueryResponse::GeoRoute {
                        from: su,
                        to: sv,
                        nodes: path.nodes().to_vec(),
                    }
                } else {
                    let value = snap.distance(live.id, su, sv).map_err(err)?;
                    kids.push(("read", t3, Instant::now()));
                    QueryResponse::GeoDistance {
                        from: su,
                        to: sv,
                        value,
                        bound: None,
                    }
                }
            }
            other => return Err(format!("unexpected replay request {other}")),
        };
        let t4 = Instant::now();
        let encoded = resp.to_string();
        let t5 = Instant::now();
        std::hint::black_box(encoded);
        kids.push(("encode", t4, t5));
        let root = trace.push("request", rid, None, t0, t5);
        for (name, a, b) in kids {
            trace.push(name, rid, Some(root), a, b);
        }
    }
    Ok(())
}
