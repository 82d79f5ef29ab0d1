//! Serving: the write-path/read-path split, end to end over TCP.
//!
//! A live `ReleaseStore` (exclusive write path) publishes two private
//! distance products once under a namespace's tracked budget; a
//! read-only `StoreHandler` (shared read path) then serves the
//! namespace's immutable snapshot from a thread-pooled TCP server, and
//! clients query over the line protocol — every answer pure
//! post-processing, free of further privacy cost.
//!
//! Run with: `cargo run --release --example serving`

use privpath::engine::ReleaseKind;
use privpath::prelude::*;
use privpath::serve::{RequestHandler, StoreHandler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -- Write path: one namespace, one budget, two releases. -----------
    let mut rng = StdRng::seed_from_u64(2016);
    let topo = privpath::graph::generators::random_geometric_graph(64, 0.3, &mut rng).topo;
    let weights =
        privpath::graph::generators::uniform_weights(topo.num_edges(), 1.0, 9.0, &mut rng);
    let dir = std::env::temp_dir().join(format!("privpath-serving-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ReleaseStore::open(&dir)?.with_seed(2016));
    store.create_namespace(
        "city",
        topo,
        weights,
        Some((Epsilon::new(2.0)?, Delta::zero())),
    )?;
    let eps = Epsilon::new(1.0)?;
    let sp = store
        .publish("city", &ReleaseSpec::new(ReleaseKind::ShortestPath, eps)?)?
        .id;
    let synth = store
        .publish("city", &ReleaseSpec::new(ReleaseKind::SyntheticGraph, eps)?)?
        .id;
    let (spent, _) = store.snapshot("city")?.service().spent();
    println!("released {sp} (routes) and {synth} (distances); budget spent eps {spent}");

    // -- Read path: the namespace's current snapshot, served read-only. --
    // Snapshots are immutable and Send + Sync; the store could keep
    // publishing (later snapshots would include the new releases).
    let handler = Arc::new(StoreHandler::read_only(Arc::clone(&store)));
    let sp_ref = ReleaseRef::namespaced("city", sp)?;
    let synth_ref = ReleaseRef::namespaced("city", synth)?;

    // In-process: the handler answers wire lines exactly as the server
    // does.
    let batch = vec![
        QueryRequest::Distance {
            release: sp_ref.clone(),
            from: NodeId::new(0),
            to: NodeId::new(40),
            // Ask for the accuracy contract alongside the estimate: the
            // response carries the ±bound the value honors w.p. 95%.
            gamma: Some(0.05),
        },
        QueryRequest::Distance {
            release: synth_ref,
            from: NodeId::new(0),
            to: NodeId::new(40),
            gamma: None,
        },
        QueryRequest::DistanceBatch {
            release: sp_ref.clone(),
            pairs: vec![
                (NodeId::new(0), NodeId::new(40)),
                (NodeId::new(0), NodeId::new(63)),
            ],
            gamma: Some(0.05),
        },
        QueryRequest::Accuracy {
            release: sp_ref.clone(),
            gamma: 0.01,
        },
        QueryRequest::BudgetStatus { namespace: None },
    ];
    for req in &batch {
        println!("  {req}  ->  {}", handler.handle(&req.to_string()));
    }

    // Over TCP: a dependency-free thread-pooled server on an ephemeral
    // port, queried by four concurrent clients.
    let running = Server::bind_handler("127.0.0.1:0", handler)?
        .with_threads(4)
        .spawn()?;
    let addr = running.addr();
    println!("serving on {addr}");
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let release = sp_ref.clone();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let to = NodeId::new(8 * worker + 7);
                let resp = client
                    .request(&QueryRequest::Distance {
                        release,
                        from: NodeId::new(0),
                        to,
                        gamma: None,
                    })
                    .expect("query");
                println!("  client {worker}: 0 -> {} answered {resp}", to.index());
            });
        }
    });

    // Graceful shutdown drains connections and reports totals.
    let stats = running.shutdown()?;
    println!(
        "served {} requests over {} connections, then shut down cleanly",
        stats.requests, stats.connections
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
