//! Reusable single-source search state.
//!
//! Every mechanism in the workspace bottoms out in repeated Dijkstra runs
//! over the same CSR topology. A fresh run used to allocate five vectors of
//! length `V`; [`DijkstraWorkspace`] keeps those buffers alive and uses
//! generation-stamped visited marks so starting the next source costs
//! `O(touched)` bookkeeping, not `O(V)` clearing plus allocator traffic.
//!
//! This module is on the serving read path (every single-pair read runs a
//! Dijkstra that stops at its target), so it is inside `privpath-lint`'s
//! panic-freedom scope: no `unwrap`/`expect`/`panic!` in non-test code.

use super::dijkstra::{walk_parents, ShortestPathTree};
use crate::{EdgeId, EdgeWeights, NodeId, Path, Topology};
use privpath_obs::{Counter, MetricRegistry};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Cached handles into the global registry; looked up once per process
/// so the per-run cost is a pair of relaxed `fetch_add`s.
struct SearchMetrics {
    /// Runs that reused already-sized buffers (generation bump only).
    generation_reuses: Counter,
    /// Vertices settled across all runs — the real unit of search work.
    settled_nodes: Counter,
}

fn search_metrics() -> &'static SearchMetrics {
    static METRICS: OnceLock<SearchMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = MetricRegistry::global();
        SearchMetrics {
            generation_reuses: reg.counter("search_workspace_generation_reuses_total"),
            settled_nodes: reg.counter("search_settled_nodes_total"),
        }
    })
}

/// Min-heap entry ordered by distance. `f64::total_cmp` is safe because
/// weights are validated finite and nonnegative before the heap is used.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) dist: f64,
    pub(crate) node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on distance; tie-break on node for
        // determinism.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable buffers for repeated Dijkstra runs.
///
/// A vertex's `dist`/`parent` entries are only meaningful when its stamp
/// matches the current generation, so "resetting" for the next source is a
/// single generation bump — no `O(V)` clear pass, and the heap/buffer
/// allocations amortize away across runs.
///
/// ```
/// use privpath_graph::{Topology, EdgeWeights, NodeId};
/// use privpath_graph::algo::{dijkstra_into, DijkstraWorkspace};
///
/// let mut b = Topology::builder(3);
/// b.add_edge(NodeId::new(0), NodeId::new(1));
/// b.add_edge(NodeId::new(1), NodeId::new(2));
/// let topo = b.build();
/// let w = EdgeWeights::constant(2, 1.0);
///
/// let mut ws = DijkstraWorkspace::new();
/// for s in topo.nodes() {
///     dijkstra_into(&mut ws, &topo, &w, s).unwrap();
///     assert_eq!(ws.distance(s), Some(0.0));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct DijkstraWorkspace {
    /// Number of nodes covered by the most recent run.
    n: usize,
    /// Source of the most recent run (`NodeId 0` before any run).
    source: NodeId,
    /// Tentative distances; valid iff `stamp[v] == gen`.
    dist: Vec<f64>,
    /// Joint predecessor `(node, edge)`; valid iff `stamp[v] == gen`.
    parent: Vec<Option<(NodeId, EdgeId)>>,
    /// Generation stamp marking `dist`/`parent` entries as live.
    stamp: Vec<u32>,
    /// Generation stamp marking vertices as settled (popped final).
    settled: Vec<u32>,
    /// Current generation; bumped once per run.
    gen: u32,
    heap: BinaryHeap<HeapEntry>,
}

impl Default for DijkstraWorkspace {
    fn default() -> Self {
        DijkstraWorkspace::new()
    }
}

impl DijkstraWorkspace {
    /// Creates an empty workspace; buffers are sized lazily on first run.
    pub fn new() -> Self {
        DijkstraWorkspace {
            n: 0,
            source: NodeId::new(0),
            dist: Vec::new(),
            parent: Vec::new(),
            stamp: Vec::new(),
            settled: Vec::new(),
            gen: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Prepares the buffers for a run over `n` nodes and opens a new
    /// generation.
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.parent.resize(n, None);
            self.stamp.resize(n, 0);
            self.settled.resize(n, 0);
        } else if n > 0 {
            search_metrics().generation_reuses.inc();
        }
        self.n = n;
        if self.gen == u32::MAX {
            // Generation counter wrapped: invalidate everything the slow way
            // (once every 2^32 runs).
            self.stamp.fill(0);
            self.settled.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
        self.heap.clear();
    }

    /// Runs Dijkstra from `source`, assuming the inputs were already
    /// validated (see
    /// [`validate_dijkstra_inputs`](super::validate_dijkstra_inputs)):
    /// `weights` matches `topo`, is nonnegative, and `source` is in range.
    ///
    /// Relaxation order and tie-breaking are identical to
    /// [`dijkstra`](super::dijkstra), so results are bit-for-bit equal to a
    /// fresh run.
    pub fn run_unchecked(&mut self, topo: &Topology, weights: &EdgeWeights, source: NodeId) {
        self.search(topo, weights, source, None);
    }

    /// Runs Dijkstra from `source` and stops as soon as `target` is
    /// settled, under the same preconditions as
    /// [`run_unchecked`](Self::run_unchecked).
    ///
    /// The stopped run is a prefix of the full run, so every vertex it
    /// settles (the target included) carries the full run's distance and
    /// parent bit for bit. Only settled vertices are reported, so
    /// afterwards [`distance`](Self::distance) and
    /// [`path_to`](Self::path_to) answer for `target`, and vertices the
    /// run never settled read as unreachable. An unreachable target
    /// settles the whole component of `source`.
    pub fn run_to_unchecked(
        &mut self,
        topo: &Topology,
        weights: &EdgeWeights,
        source: NodeId,
        target: NodeId,
    ) {
        self.search(topo, weights, source, Some(target));
    }

    /// The one Dijkstra loop: runs from `source` until the heap drains or
    /// `target` is settled.
    fn search(
        &mut self,
        topo: &Topology,
        weights: &EdgeWeights,
        source: NodeId,
        target: Option<NodeId>,
    ) {
        self.begin(topo.num_nodes());
        self.source = source;
        let gen = self.gen;
        let s = source.index();
        self.dist[s] = 0.0;
        self.parent[s] = None;
        self.stamp[s] = gen;
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });
        let mut settled_count = 0u64;
        while let Some(HeapEntry { dist: d, node: u }) = self.heap.pop() {
            let ui = u.index();
            if self.settled[ui] == gen {
                continue;
            }
            self.settled[ui] = gen;
            settled_count += 1;
            if target == Some(u) {
                break;
            }
            for (v, e) in topo.neighbors(u) {
                let vi = v.index();
                let nd = d + weights.get(e);
                if self.stamp[vi] != gen || nd < self.dist[vi] {
                    self.dist[vi] = nd;
                    self.parent[vi] = Some((u, e));
                    self.stamp[vi] = gen;
                    self.heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
        search_metrics().settled_nodes.inc_by(settled_count);
    }

    /// Number of nodes covered by the most recent run (0 before any run).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Source of the most recent run, or `None` before any run.
    pub fn source(&self) -> Option<NodeId> {
        (self.n > 0).then_some(self.source)
    }

    /// Whether the last run settled vertex index `i` (out of range is
    /// never settled). After a full run this is exactly "reachable"; a
    /// stopped run reports nothing past its target, so no tentative
    /// distance or parent can leak.
    fn is_settled(&self, i: usize) -> bool {
        i < self.n && self.settled[i] == self.gen
    }

    /// Distance from the last run's source to `v`, or `None` if the run
    /// did not settle `v` (unreachable, past a stopped run's target, or
    /// out of range).
    pub fn distance(&self, v: NodeId) -> Option<f64> {
        let i = v.index();
        self.is_settled(i).then(|| self.dist[i])
    }

    /// Writes the full distance row of the last run into `out`
    /// (`f64::INFINITY` marks vertices the run did not settle), resizing
    /// it to [`num_nodes`](Self::num_nodes).
    pub fn write_distances(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.n).map(|i| {
            if self.is_settled(i) {
                self.dist[i]
            } else {
                f64::INFINITY
            }
        }));
    }

    /// The full distance row of the last run as a fresh vector.
    pub fn distances(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.write_distances(&mut out);
        out
    }

    /// The route from the last run's source to `v`, read straight from
    /// the parent stamps without materializing a tree; `None` if the run
    /// did not settle `v`. Equal node for node to
    /// [`tree()`](Self::tree)`.path_to(v)`.
    pub fn path_to(&self, v: NodeId) -> Option<Path> {
        // Every vertex on a settled vertex's parent chain was settled
        // before it, so the walk only reads live entries.
        self.is_settled(v.index())
            .then(|| walk_parents(self.source, v, |u| self.parent[u.index()]))
    }

    /// Materializes the last run as an owned [`ShortestPathTree`].
    ///
    /// Before any run this returns a degenerate zero-node tree.
    pub fn tree(&self) -> ShortestPathTree {
        let mut dist = vec![f64::INFINITY; self.n];
        let mut parent = vec![None; self.n];
        for i in 0..self.n {
            if self.is_settled(i) {
                dist[i] = self.dist[i];
                parent[i] = self.parent[i];
            }
        }
        ShortestPathTree::new(self.source, dist, parent)
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<DijkstraWorkspace> = RefCell::new(DijkstraWorkspace::new());
}

/// Runs `f` with this thread's shared [`DijkstraWorkspace`].
///
/// Query paths that sit behind `&self` (release oracles, the store's
/// snapshot cache, server workers) use this to get buffer reuse without
/// threading a workspace through their signatures. If the thread-local is
/// already borrowed (a reentrant call from inside `f`), a fresh temporary
/// workspace is used instead so the call still succeeds.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut DijkstraWorkspace) -> R) -> R {
    THREAD_WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut DijkstraWorkspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra_into;

    fn line(n: usize) -> (Topology, EdgeWeights) {
        let mut b = Topology::builder(n);
        for i in 0..n - 1 {
            b.add_edge(NodeId::new(i), NodeId::new(i + 1));
        }
        let topo = b.build();
        let w = EdgeWeights::constant(n - 1, 1.0);
        (topo, w)
    }

    #[test]
    fn fresh_workspace_reports_nothing() {
        let ws = DijkstraWorkspace::new();
        assert_eq!(ws.num_nodes(), 0);
        assert_eq!(ws.source(), None);
        assert!(ws.distances().is_empty());
    }

    #[test]
    fn distances_match_tree_distances() {
        let (topo, w) = line(6);
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(&mut ws, &topo, &w, NodeId::new(2)).unwrap();
        let row = ws.distances();
        let tree = ws.tree();
        assert_eq!(row, tree.distances());
        assert_eq!(ws.source(), Some(NodeId::new(2)));
    }

    #[test]
    fn unreachable_nodes_are_infinite_in_row_and_none_in_lookup() {
        let mut b = Topology::builder(4);
        b.add_edge(NodeId::new(0), NodeId::new(1));
        let topo = b.build();
        let w = EdgeWeights::zeros(1);
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(&mut ws, &topo, &w, NodeId::new(0)).unwrap();
        assert_eq!(ws.distance(NodeId::new(3)), None);
        assert!(ws.distances()[3].is_infinite());
        // Out-of-range lookups are None, not a panic.
        assert_eq!(ws.distance(NodeId::new(17)), None);
    }

    #[test]
    fn workspace_shrinks_and_grows_across_topologies() {
        let (big, wb) = line(10);
        let (small, ws_) = line(3);
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(&mut ws, &big, &wb, NodeId::new(0)).unwrap();
        assert_eq!(ws.num_nodes(), 10);
        dijkstra_into(&mut ws, &small, &ws_, NodeId::new(0)).unwrap();
        assert_eq!(ws.num_nodes(), 3);
        assert_eq!(ws.distances().len(), 3);
        dijkstra_into(&mut ws, &big, &wb, NodeId::new(9)).unwrap();
        assert_eq!(ws.distance(NodeId::new(0)), Some(9.0));
    }

    #[test]
    fn stopped_run_hides_tentative_neighbours() {
        // Star 0 -> {1, 2, 3}: settling 1 first leaves 2 and 3 stamped
        // with tentative distances in the heap.
        let mut b = Topology::builder(4);
        for leaf in 1..4 {
            b.add_edge(NodeId::new(0), NodeId::new(leaf));
        }
        let topo = b.build();
        let w = EdgeWeights::new(vec![1.0, 2.0, 3.0]).unwrap();
        let mut ws = DijkstraWorkspace::new();
        ws.run_to_unchecked(&topo, &w, NodeId::new(0), NodeId::new(1));
        assert_eq!(ws.distance(NodeId::new(1)), Some(1.0));
        let route = ws.path_to(NodeId::new(1)).unwrap();
        assert_eq!(route.nodes(), &[NodeId::new(0), NodeId::new(1)]);
        for leaf in [2, 3] {
            assert_eq!(ws.distance(NodeId::new(leaf)), None);
            assert!(ws.path_to(NodeId::new(leaf)).is_none());
        }
        assert_eq!(ws.distances()[2..], [f64::INFINITY, f64::INFINITY]);
        assert_eq!(ws.tree().distance(NodeId::new(2)), None);
        // A full run on the same workspace right after sees everything.
        ws.run_unchecked(&topo, &w, NodeId::new(0));
        assert_eq!(ws.distances(), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn path_to_matches_tree_path() {
        let (topo, w) = line(5);
        let mut ws = DijkstraWorkspace::new();
        ws.run_unchecked(&topo, &w, NodeId::new(1));
        let tree = ws.tree();
        for v in topo.nodes() {
            let (a, b) = (ws.path_to(v).unwrap(), tree.path_to(v).unwrap());
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.edges(), b.edges());
        }
        assert!(ws.path_to(NodeId::new(99)).is_none());
    }

    #[test]
    fn thread_workspace_is_reused_and_reentrant_safe() {
        let (topo, w) = line(4);
        let d = with_thread_workspace(|ws| {
            ws.run_unchecked(&topo, &w, NodeId::new(0));
            // Reentrant borrow falls back to a temporary workspace.
            let inner = with_thread_workspace(|ws2| {
                ws2.run_unchecked(&topo, &w, NodeId::new(3));
                ws2.distance(NodeId::new(0))
            });
            assert_eq!(inner, Some(3.0));
            // The outer workspace's run is untouched by the inner call.
            ws.distance(NodeId::new(3))
        });
        assert_eq!(d, Some(3.0));
    }
}
