//! Determinism suite for the parallel search driver: for every topology
//! family and every thread count, `multi_source_dijkstra` must return
//! trees **bit-for-bit identical** to the sequential `dijkstra` — pinned
//! seeds replay released noise streams, so truths may never depend on
//! scheduling.
//!
//! The `determinism_target_stopped_*` tests pin the point-to-point
//! search: a run that stops once its target is settled must give the
//! full run's distance bit for bit and its route node for node.
//!
//! CI runs the named `determinism_*` tests explicitly at `--threads
//! 1,2,4` (the knob is also exercised in-process here via
//! `set_default_search_threads`).

use privpath::graph::algo::{
    dijkstra, multi_source_dijkstra, multi_source_distances, set_default_search_threads,
    DijkstraWorkspace, ShortestPathTree,
};
use privpath::graph::generators::{connected_gnm, uniform_weights, GridGraph};
use privpath::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Asserts that the parallel driver at every thread count reproduces the
/// sequential trees exactly: same distances (by `f64::to_bits`), same
/// parent edges, same sources.
fn assert_bit_identical(topo: &Topology, w: &EdgeWeights, sources: &[NodeId]) {
    let sequential: Vec<_> = sources
        .iter()
        .map(|&s| dijkstra(topo, w, s).expect("sequential dijkstra"))
        .collect();
    for &threads in &THREAD_COUNTS {
        let parallel = multi_source_dijkstra(topo, w, sources, threads).expect("parallel dijkstra");
        assert_eq!(parallel.len(), sequential.len());
        for (seq, par) in sequential.iter().zip(&parallel) {
            assert_eq!(seq.source(), par.source());
            for v in topo.nodes() {
                let (a, b) = (seq.distance(v), par.distance(v));
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "threads={threads}: distance to {v:?} diverged ({a:?} vs {b:?})"
                );
                assert_eq!(
                    seq.parent_edge(v),
                    par.parent_edge(v),
                    "threads={threads}: parent edge at {v:?} diverged"
                );
            }
        }
        let rows = multi_source_distances(topo, w, sources, threads).expect("parallel distances");
        for (seq, row) in sequential.iter().zip(&rows) {
            for v in topo.nodes() {
                let expected = seq.distance(v).unwrap_or(f64::INFINITY);
                assert_eq!(expected.to_bits(), row[v.index()].to_bits());
            }
        }
    }
}

/// Asserts that the stopped route matches the full tree's route: same
/// nodes and same edges, or both absent.
fn assert_same_route(stopped: Option<Path>, full: &ShortestPathTree, t: NodeId) {
    match (stopped, full.path_to(t)) {
        (Some(a), Some(b)) => {
            assert_eq!(a.nodes(), b.nodes(), "route to {t:?} diverged");
            assert_eq!(a.edges(), b.edges(), "route edges to {t:?} diverged");
        }
        (None, None) => {}
        (a, b) => panic!("route to {t:?}: stopped {a:?} vs full {b:?}"),
    }
}

/// Asserts that target-stopped searches reproduce the full runs for every
/// `(source, target)` pair: the stopped distance equals the full tree's
/// entry by `f64::to_bits` and the stopped route equals `path_to` on the
/// tree. At each thread count the full trees come from
/// `multi_source_dijkstra` and the stopped searches are split over that
/// many scoped workers, one reused workspace each.
fn assert_stopped_matches_full(
    topo: &Topology,
    w: &EdgeWeights,
    sources: &[NodeId],
    targets: &[NodeId],
) {
    let pairs: Vec<(usize, NodeId)> = (0..sources.len())
        .flat_map(|i| targets.iter().map(move |&t| (i, t)))
        .collect();
    for &threads in &THREAD_COUNTS {
        let trees = multi_source_dijkstra(topo, w, sources, threads).expect("full trees");
        std::thread::scope(|scope| {
            for chunk in pairs.chunks(pairs.len().div_ceil(threads).max(1)) {
                let trees = &trees;
                scope.spawn(move || {
                    let mut ws = DijkstraWorkspace::new();
                    for &(i, t) in chunk {
                        ws.run_to_unchecked(topo, w, sources[i], t);
                        let (a, b) = (ws.distance(t), trees[i].distance(t));
                        assert_eq!(
                            a.map(f64::to_bits),
                            b.map(f64::to_bits),
                            "threads={threads}: {:?}->{t:?} diverged ({a:?} vs {b:?})",
                            sources[i]
                        );
                        assert_same_route(ws.path_to(t), &trees[i], t);
                    }
                });
            }
        });
    }
}

fn every_kth_node(topo: &Topology, k: usize) -> Vec<NodeId> {
    topo.nodes().step_by(k.max(1)).collect()
}

#[test]
fn determinism_grid_topology() {
    for (rows, cols, seed) in [(7, 7, 11u64), (3, 17, 12), (10, 5, 13)] {
        let grid = GridGraph::new(rows, cols);
        let topo = grid.topology();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = uniform_weights(topo.num_edges(), 0.0, 10.0, &mut rng);
        assert_bit_identical(topo, &w, &every_kth_node(topo, 3));
    }
}

#[test]
fn determinism_random_topology() {
    for seed in [21u64, 22, 23] {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 40 + (seed as usize % 20);
        let topo = connected_gnm(n, 2 * n, &mut rng);
        let w = uniform_weights(topo.num_edges(), 0.0, 5.0, &mut rng);
        assert_bit_identical(&topo, &w, &every_kth_node(&topo, 4));
    }
}

#[test]
fn determinism_road_network_topology() {
    // The geo generator emits a *directed* topology (two arcs per
    // street) — the driver must be deterministic there too.
    let road = privpath::geo::generate_road_network(150, 31).expect("road network");
    assert_bit_identical(
        &road.topology,
        &road.weights,
        &every_kth_node(&road.topology, 10),
    );
}

#[test]
fn determinism_default_thread_knob() {
    // The process-wide knob (what `--threads` sets) must not change
    // released truths either: threads=0 means "auto".
    let grid = GridGraph::new(6, 6);
    let topo = grid.topology();
    let mut rng = StdRng::seed_from_u64(99);
    let w = uniform_weights(topo.num_edges(), 0.0, 10.0, &mut rng);
    let sources = every_kth_node(topo, 2);
    let baseline = multi_source_distances(topo, &w, &sources, 1).expect("baseline");
    for knob in [1, 2, 4] {
        set_default_search_threads(knob);
        let rows = multi_source_distances(topo, &w, &sources, 0).expect("knob run");
        for (a, b) in baseline.iter().zip(&rows) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "knob={knob} diverged");
            }
        }
    }
    set_default_search_threads(0);
}

#[test]
fn determinism_target_stopped_grid_topology() {
    for (rows, cols, seed) in [(7, 7, 41u64), (3, 17, 42)] {
        let grid = GridGraph::new(rows, cols);
        let topo = grid.topology();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = uniform_weights(topo.num_edges(), 0.0, 10.0, &mut rng);
        let targets: Vec<NodeId> = topo.nodes().collect();
        assert_stopped_matches_full(topo, &w, &every_kth_node(topo, 5), &targets);
    }
}

#[test]
fn determinism_target_stopped_random_topology() {
    for seed in [51u64, 52] {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 40 + (seed as usize % 20);
        let topo = connected_gnm(n, 2 * n, &mut rng);
        let w = uniform_weights(topo.num_edges(), 0.0, 5.0, &mut rng);
        let targets: Vec<NodeId> = topo.nodes().collect();
        assert_stopped_matches_full(&topo, &w, &every_kth_node(&topo, 6), &targets);
    }
}

#[test]
fn determinism_target_stopped_road_network_topology() {
    // Directed road topology (two arcs per street).
    let road = privpath::geo::generate_road_network(150, 61).expect("road network");
    let topo = &road.topology;
    let targets: Vec<NodeId> = topo.nodes().collect();
    assert_stopped_matches_full(topo, &road.weights, &every_kth_node(topo, 15), &targets);

    // A continuous-noise shortest-path release over it: the released
    // route and distance equal what the full tree gives.
    let params = ShortestPathParams::new(Epsilon::new(1.0).unwrap(), 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(62);
    let release = private_shortest_paths(topo, &road.weights, &params, &mut rng).unwrap();
    for s in every_kth_node(topo, 25) {
        let tree = release.paths_from(s).unwrap();
        for t in every_kth_node(topo, 7) {
            let d = release.estimated_distance(s, t).unwrap();
            assert_eq!(Some(d.to_bits()), tree.distance(t).map(f64::to_bits));
            assert_same_route(release.path(s, t).ok(), &tree, t);
        }
    }
}

#[test]
fn determinism_target_stopped_edge_cases() {
    // Two components: the path 0-1-2-3-4 and the edge 5-6.
    let mut b = Topology::builder(7);
    for i in 0..4 {
        b.add_edge(NodeId::new(i), NodeId::new(i + 1));
    }
    b.add_edge(NodeId::new(5), NodeId::new(6));
    let topo = b.build();
    let w = EdgeWeights::new(vec![1.5, 0.25, 2.0, 0.0, 3.0]).unwrap();
    let (s, far) = (NodeId::new(1), NodeId::new(6));
    let mut ws = DijkstraWorkspace::new();

    // s == t: settled first, distance 0, the one-vertex route.
    ws.run_to_unchecked(&topo, &w, s, s);
    assert_eq!(ws.distance(s).map(f64::to_bits), Some(0f64.to_bits()));
    assert_eq!(ws.path_to(s).expect("trivial route").nodes(), &[s]);

    // Unreachable target: no distance and no route from the workspace,
    // `+inf` from the distance surface and `Disconnected` from `path`.
    ws.run_to_unchecked(&topo, &w, s, far);
    assert_eq!(ws.distance(far), None);
    assert!(ws.path_to(far).is_none());
    let params = ShortestPathParams::new(Epsilon::new(1.0).unwrap(), 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(71);
    let release = private_shortest_paths(&topo, &w, &params, &mut rng).unwrap();
    assert_eq!(
        DistanceRelease::distance(&release, s, far).unwrap(),
        f64::INFINITY
    );
    assert!(matches!(
        release.path(s, far),
        Err(privpath::core::CoreError::Graph(
            GraphError::Disconnected { .. }
        ))
    ));

    // A full run right after a stopped one on the same workspace equals
    // a fresh full run bit for bit.
    ws.run_to_unchecked(&topo, &w, NodeId::new(0), NodeId::new(1));
    ws.run_unchecked(&topo, &w, NodeId::new(4));
    let fresh = dijkstra(&topo, &w, NodeId::new(4)).unwrap();
    let reused = ws.tree();
    for v in topo.nodes() {
        assert_eq!(
            reused.distance(v).map(f64::to_bits),
            fresh.distance(v).map(f64::to_bits)
        );
        assert_eq!(reused.parent_edge(v), fresh.parent_edge(v));
    }
    let row: Vec<u64> = ws.distances().iter().map(|d| d.to_bits()).collect();
    let expected: Vec<u64> = fresh.distances().iter().map(|d| d.to_bits()).collect();
    assert_eq!(row, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn determinism_randomized_graphs(seed in any::<u64>(), n in 2usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_m = n * (n - 1) / 2;
        let spare = max_m - (n - 1); // extra edges beyond a spanning tree
        let m = (n - 1) + (seed as usize % (spare + 1)).min(spare);
        let topo = connected_gnm(n, m, &mut rng);
        let w = uniform_weights(m, 0.0, 10.0, &mut rng);
        let sources: Vec<NodeId> = topo.nodes().collect();
        assert_bit_identical(&topo, &w, &sources);
    }
}
