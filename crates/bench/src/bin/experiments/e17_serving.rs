//! E17 — serve-path throughput: queries/sec against a live store's
//! snapshot as reader threads grow.
//!
//! The release-once/query-many architecture means the read path is pure
//! post-processing over an immutable snapshot, so serving should scale
//! near-linearly with reader threads until cores run out. This
//! experiment measures that claim on the production serve path (the
//! same `StoreHandler::handle` the TCP server runs per request line), on
//! a shortest-path release over a G(n, m) road network. The store's
//! source cache is off, so every request pays its own search and every
//! thread count does the same work.

use super::context::Ctx;
use privpath_bench::{fmt, Table};
use privpath_dp::Epsilon;
use privpath_engine::ReleaseKind;
use privpath_graph::generators::{connected_gnm, uniform_weights};
use privpath_graph::NodeId;
use privpath_serve::{QueryRequest, RequestHandler, StoreHandler};
use privpath_store::{ReleaseSpec, ReleaseStore};
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

pub fn run(ctx: &Ctx) {
    let v = 512;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Speedup tops out at the core count; on a single-core box a flat
    // curve is the expected result (and near-flat rather than degrading
    // is itself evidence the read path has no lock contention).
    println!("available parallelism: {cores} core(s)");
    let mut table = Table::new(
        "E17 serve-path throughput vs reader threads",
        &["threads", "queries", "wall_ms", "qps", "speedup_vs_1"],
    );

    let mut rng = ctx.rng(17);
    let topo = connected_gnm(v, 4 * v, &mut rng);
    let weights = uniform_weights(topo.num_edges(), 0.0, 10.0, &mut rng);
    let dir = std::env::temp_dir().join(format!("privpath-e17-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ReleaseStore::open(&dir)
        .expect("open store")
        .with_cache(false)
        .with_seed(ctx.seed);
    store
        .create_namespace("e17", topo, weights, None)
        .expect("create namespace");
    let spec =
        ReleaseSpec::new(ReleaseKind::ShortestPath, Epsilon::new(1.0).unwrap()).expect("spec");
    let id = store.publish("e17", &spec).expect("publish").id;
    let handler = StoreHandler::read_only(Arc::new(store));

    // A fixed workload with heavy source reuse, identical for every
    // thread count so the comparison is apples to apples.
    let sources = 32;
    let per_source = 8 * ctx.trials.max(1) as usize;
    let mut requests = Vec::with_capacity(sources * per_source);
    for _ in 0..sources {
        let s = NodeId::new(rng.gen_range(0..v));
        for _ in 0..per_source {
            let req = QueryRequest::Distance {
                release: id.into(),
                from: s,
                to: NodeId::new(rng.gen_range(0..v)),
                gamma: None,
            };
            requests.push(req.to_string());
        }
    }

    let mut baseline_qps: Option<f64> = None;
    for &threads in &[1usize, 2, 4, 8] {
        let start = Instant::now();
        std::thread::scope(|scope| {
            let chunk = requests.len().div_ceil(threads);
            for shard in requests.chunks(chunk) {
                let handler = &handler;
                scope.spawn(move || {
                    for line in shard {
                        std::hint::black_box(handler.handle(line));
                    }
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let qps = requests.len() as f64 / secs;
        let speedup = qps / *baseline_qps.get_or_insert(qps);
        table.row(vec![
            threads.to_string(),
            requests.len().to_string(),
            fmt(secs * 1e3),
            fmt(qps),
            fmt(speedup),
        ]);
    }
    ctx.emit(&table);
    std::fs::remove_dir_all(&dir).ok();
}
