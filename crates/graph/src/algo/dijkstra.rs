//! Dijkstra's algorithm with path extraction.
//!
//! Three entry points, from most to least convenient:
//!
//! * [`dijkstra`] — validate inputs, run one source, return a
//!   [`ShortestPathTree`]. Allocates per call.
//! * [`dijkstra_into`] — validate inputs, run one source into a caller-owned
//!   [`DijkstraWorkspace`](super::DijkstraWorkspace) so repeated searches
//!   reuse buffers.
//! * [`multi_source_dijkstra`](super::multi_source_dijkstra) — validate
//!   once, fan a batch of sources over a thread pool with bit-for-bit
//!   deterministic outputs.

use super::workspace::DijkstraWorkspace;
use crate::{EdgeId, EdgeWeights, GraphError, NodeId, Path, Topology};

/// A shortest-path tree rooted at a source vertex: the output of
/// [`dijkstra`] (and [`bellman_ford`](crate::algo::bellman_ford)).
///
/// Stores, for every vertex, the distance from the source and the last edge
/// of some shortest path, from which full paths are reconstructed on demand.
/// The predecessor node and edge are stored jointly as
/// `Option<(NodeId, EdgeId)>`, so "parent node set but parent edge missing"
/// is unrepresentable and path reconstruction cannot panic.
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    source: NodeId,
    dist: Vec<f64>,
    parent: Vec<Option<(NodeId, EdgeId)>>,
}

impl ShortestPathTree {
    pub(crate) fn new(
        source: NodeId,
        dist: Vec<f64>,
        parent: Vec<Option<(NodeId, EdgeId)>>,
    ) -> Self {
        ShortestPathTree {
            source,
            dist,
            parent,
        }
    }

    /// The source vertex.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `v`, or `None` if unreachable or out
    /// of range.
    pub fn distance(&self, v: NodeId) -> Option<f64> {
        self.dist.get(v.index()).copied().filter(|d| d.is_finite())
    }

    /// Raw distance slice (`f64::INFINITY` marks unreachable vertices).
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// Whether `v` is reachable from the source (`false` out of range).
    pub fn is_reachable(&self, v: NodeId) -> bool {
        self.distance(v).is_some()
    }

    /// The predecessor edge of `v` on its shortest path, if any (`None`
    /// out of range).
    pub fn parent_edge(&self, v: NodeId) -> Option<EdgeId> {
        self.parent_of(v).map(|(_, e)| e)
    }

    fn parent_of(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        self.parent.get(v.index()).copied().flatten()
    }

    /// Reconstructs a shortest path from the source to `v`.
    ///
    /// Returns `None` if `v` is unreachable or out of range. The path for
    /// `v == source` is the trivial single-vertex path.
    pub fn path_to(&self, v: NodeId) -> Option<Path> {
        self.is_reachable(v)
            .then(|| walk_parents(self.source, v, |u| self.parent_of(u)))
    }
}

/// Rebuilds the `source`-to-`v` path by following `parent_of` links back
/// from `v` until a vertex without a parent (the source) is reached.
pub(crate) fn walk_parents(
    source: NodeId,
    v: NodeId,
    parent_of: impl Fn(NodeId) -> Option<(NodeId, EdgeId)>,
) -> Path {
    let mut nodes = vec![v];
    let mut edges = Vec::new();
    let mut cur = v;
    while let Some((p, e)) = parent_of(cur) {
        edges.push(e);
        nodes.push(p);
        cur = p;
    }
    debug_assert_eq!(cur, source);
    nodes.reverse();
    edges.reverse();
    Path::new(nodes, edges)
}

/// Validates the `(topo, weights)` pair for Dijkstra: length match and no
/// negative weights.
///
/// Batch drivers call this **once** and then use the unchecked entry points
/// ([`dijkstra_unchecked`], [`DijkstraWorkspace::run_unchecked`]) per
/// source, instead of paying the `O(E)` scan on every run.
///
/// # Errors
/// * [`GraphError::WeightsLengthMismatch`] if `weights` does not match
///   `topo`.
/// * [`GraphError::NegativeWeight`] if any weight is negative.
pub fn validate_dijkstra_inputs(topo: &Topology, weights: &EdgeWeights) -> Result<(), GraphError> {
    weights.validate_for(topo)?;
    for (e, w) in weights.iter() {
        if w < 0.0 {
            return Err(GraphError::NegativeWeight { edge: e, value: w });
        }
    }
    Ok(())
}

/// Single-source shortest paths with nonnegative weights.
///
/// Runs in `O((V + E) log V)` using a binary heap with lazy deletion.
///
/// # Errors
/// * [`GraphError::WeightsLengthMismatch`] if `weights` does not match
///   `topo`.
/// * [`GraphError::NodeOutOfRange`] if `source` is invalid.
/// * [`GraphError::NegativeWeight`] if any weight is negative (use
///   [`bellman_ford`](crate::algo::bellman_ford) instead, or clamp first).
pub fn dijkstra(
    topo: &Topology,
    weights: &EdgeWeights,
    source: NodeId,
) -> Result<ShortestPathTree, GraphError> {
    validate_dijkstra_inputs(topo, weights)?;
    topo.check_node(source)?;
    Ok(dijkstra_unchecked(topo, weights, source))
}

/// Runs Dijkstra from `source` into a reusable workspace, validating the
/// inputs first.
///
/// The workspace keeps its buffers between calls, so a loop over sources
/// performs `O(touched)` re-initialization per run instead of allocating
/// five fresh vectors. Read the results through
/// [`DijkstraWorkspace::distance`], [`DijkstraWorkspace::distances`], or
/// [`DijkstraWorkspace::tree`].
///
/// # Errors
/// Same preconditions as [`dijkstra`].
pub fn dijkstra_into(
    ws: &mut DijkstraWorkspace,
    topo: &Topology,
    weights: &EdgeWeights,
    source: NodeId,
) -> Result<(), GraphError> {
    validate_dijkstra_inputs(topo, weights)?;
    topo.check_node(source)?;
    ws.run_unchecked(topo, weights, source);
    Ok(())
}

/// Dijkstra without precondition checks.
///
/// The caller must have already established that `weights` matches `topo`
/// and is nonnegative (e.g. via [`validate_dijkstra_inputs`], or because the
/// weights were clamped at construction); `source` must be in range. Batch
/// loops use this to avoid re-scanning weights per source.
pub fn dijkstra_unchecked(
    topo: &Topology,
    weights: &EdgeWeights,
    source: NodeId,
) -> ShortestPathTree {
    let mut ws = DijkstraWorkspace::new();
    ws.run_unchecked(topo, weights, source);
    ws.tree()
}

/// Shortest-path trees from every vertex (`V` runs of Dijkstra).
///
/// Validates once up front, then fans the per-source runs over the default
/// search thread pool (see
/// [`set_default_search_threads`](super::set_default_search_threads)); the
/// result is bit-for-bit identical regardless of thread count.
///
/// # Errors
/// Same preconditions as [`dijkstra`].
pub fn all_pairs_dijkstra(
    topo: &Topology,
    weights: &EdgeWeights,
) -> Result<Vec<ShortestPathTree>, GraphError> {
    let sources: Vec<NodeId> = topo.nodes().collect();
    super::multi_source_dijkstra(topo, weights, &sources, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 --1-- 1 --1-- 2
    ///  \_____5______/
    fn diamond() -> (Topology, EdgeWeights) {
        let mut b = Topology::builder(3);
        b.add_edge(NodeId::new(0), NodeId::new(1));
        b.add_edge(NodeId::new(1), NodeId::new(2));
        b.add_edge(NodeId::new(0), NodeId::new(2));
        let topo = b.build();
        let w = EdgeWeights::new(vec![1.0, 1.0, 5.0]).unwrap();
        (topo, w)
    }

    #[test]
    fn shortest_path_prefers_two_hops() {
        let (topo, w) = diamond();
        let spt = dijkstra(&topo, &w, NodeId::new(0)).unwrap();
        assert_eq!(spt.distance(NodeId::new(2)), Some(2.0));
        let p = spt.path_to(NodeId::new(2)).unwrap();
        assert_eq!(p.hops(), 2);
        assert!(p.validate(&topo).is_ok());
        assert!((w.path_weight(&p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn direct_edge_wins_when_cheaper() {
        let (topo, _) = diamond();
        let w = EdgeWeights::new(vec![3.0, 3.0, 5.0]).unwrap();
        let spt = dijkstra(&topo, &w, NodeId::new(0)).unwrap();
        assert_eq!(spt.distance(NodeId::new(2)), Some(5.0));
        assert_eq!(spt.path_to(NodeId::new(2)).unwrap().hops(), 1);
    }

    #[test]
    fn source_distance_is_zero_and_trivial_path() {
        let (topo, w) = diamond();
        let spt = dijkstra(&topo, &w, NodeId::new(1)).unwrap();
        assert_eq!(spt.distance(NodeId::new(1)), Some(0.0));
        assert_eq!(spt.path_to(NodeId::new(1)).unwrap().hops(), 0);
    }

    #[test]
    fn unreachable_vertex_is_none() {
        let mut b = Topology::builder(3);
        b.add_edge(NodeId::new(0), NodeId::new(1));
        let topo = b.build();
        let w = EdgeWeights::zeros(1);
        let spt = dijkstra(&topo, &w, NodeId::new(0)).unwrap();
        assert_eq!(spt.distance(NodeId::new(2)), None);
        assert!(spt.path_to(NodeId::new(2)).is_none());
        assert!(!spt.is_reachable(NodeId::new(2)));
    }

    #[test]
    fn out_of_range_vertex_is_none_not_a_panic() {
        let (topo, w) = diamond();
        let spt = dijkstra(&topo, &w, NodeId::new(0)).unwrap();
        let far = NodeId::new(topo.num_nodes() + 5);
        assert_eq!(spt.distance(far), None);
        assert!(!spt.is_reachable(far));
        assert_eq!(spt.parent_edge(far), None);
        assert!(spt.path_to(far).is_none());
    }

    #[test]
    fn negative_weight_rejected() {
        let (topo, _) = diamond();
        let w = EdgeWeights::new(vec![1.0, -0.1, 5.0]).unwrap();
        assert!(matches!(
            dijkstra(&topo, &w, NodeId::new(0)),
            Err(GraphError::NegativeWeight { .. })
        ));
    }

    #[test]
    fn parallel_edges_take_lighter() {
        let mut b = Topology::builder(2);
        let heavy = b.add_edge(NodeId::new(0), NodeId::new(1));
        let light = b.add_edge(NodeId::new(0), NodeId::new(1));
        let topo = b.build();
        let mut w = EdgeWeights::zeros(2);
        w.set(heavy, 2.0);
        w.set(light, 1.0);
        let spt = dijkstra(&topo, &w, NodeId::new(0)).unwrap();
        let p = spt.path_to(NodeId::new(1)).unwrap();
        assert_eq!(p.edges(), &[light]);
    }

    #[test]
    fn directed_respects_orientation() {
        let mut b = Topology::builder_directed(2);
        b.add_edge(NodeId::new(0), NodeId::new(1));
        let topo = b.build();
        let w = EdgeWeights::constant(1, 1.0);
        let fwd = dijkstra(&topo, &w, NodeId::new(0)).unwrap();
        assert_eq!(fwd.distance(NodeId::new(1)), Some(1.0));
        let back = dijkstra(&topo, &w, NodeId::new(1)).unwrap();
        assert_eq!(back.distance(NodeId::new(0)), None);
    }

    #[test]
    fn zero_weight_edges_ok() {
        let (topo, _) = diamond();
        let w = EdgeWeights::zeros(3);
        let spt = dijkstra(&topo, &w, NodeId::new(0)).unwrap();
        assert_eq!(spt.distance(NodeId::new(2)), Some(0.0));
    }

    #[test]
    fn all_pairs_is_symmetric_for_undirected() {
        let (topo, w) = diamond();
        let trees = all_pairs_dijkstra(&topo, &w).unwrap();
        for u in topo.nodes() {
            for v in topo.nodes() {
                assert_eq!(trees[u.index()].distance(v), trees[v.index()].distance(u));
            }
        }
    }

    #[test]
    fn mismatched_weights_rejected() {
        let (topo, _) = diamond();
        let w = EdgeWeights::zeros(2);
        assert!(matches!(
            dijkstra(&topo, &w, NodeId::new(0)),
            Err(GraphError::WeightsLengthMismatch { .. })
        ));
    }

    #[test]
    fn dijkstra_into_reuses_workspace_across_sources() {
        let (topo, w) = diamond();
        let mut ws = DijkstraWorkspace::new();
        dijkstra_into(&mut ws, &topo, &w, NodeId::new(0)).unwrap();
        assert_eq!(ws.distance(NodeId::new(2)), Some(2.0));
        dijkstra_into(&mut ws, &topo, &w, NodeId::new(2)).unwrap();
        assert_eq!(ws.distance(NodeId::new(0)), Some(2.0));
        // Stale state from the previous run must not leak through.
        assert_eq!(ws.distance(NodeId::new(2)), Some(0.0));
        assert_eq!(ws.tree().source(), NodeId::new(2));
    }

    #[test]
    fn workspace_tree_matches_fresh_dijkstra() {
        let (topo, w) = diamond();
        let fresh = dijkstra(&topo, &w, NodeId::new(1)).unwrap();
        let mut ws = DijkstraWorkspace::new();
        // Run from another source first to dirty the buffers.
        dijkstra_into(&mut ws, &topo, &w, NodeId::new(0)).unwrap();
        dijkstra_into(&mut ws, &topo, &w, NodeId::new(1)).unwrap();
        let reused = ws.tree();
        for v in topo.nodes() {
            assert_eq!(fresh.distance(v), reused.distance(v));
            assert_eq!(fresh.parent_edge(v), reused.parent_edge(v));
        }
    }
}
