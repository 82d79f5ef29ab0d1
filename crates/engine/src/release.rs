//! The serve-side query surface: the object-safe [`DistanceRelease`]
//! trait and the [`AnyRelease`] sum type the engine's registry stores.
//!
//! Everything here is **post-processing** of an already-made DP release:
//! queries are free of further privacy cost, which is exactly why the
//! release-once/query-many architecture works.
//!
//! Unreachable targets are uniform across kinds: `distance` /
//! `distance_batch` answer `+inf` for a pair with no connecting path
//! (graph-replaying releases on disconnected topologies), never an error
//! and never a silent `0`. Errors are reserved for invalid queries
//! (out-of-range ids, unsupported kinds); `path` still reports
//! `Disconnected` because there is no route to return.

use crate::error::EngineError;
use privpath_core::baselines::{AllPairsDistanceRelease, SyntheticGraphRelease};
use privpath_core::bounded::BoundedWeightRelease;
use privpath_core::matching::MatchingRelease;
use privpath_core::mst::MstRelease;
use privpath_core::shortcut::ShortcutApspRelease;
use privpath_core::shortest_path::ShortestPathRelease;
use privpath_core::tree_distance::TreeAllPairsRelease;
use privpath_core::tree_hld::HldTreeRelease;
use privpath_core::CoreError;
use privpath_graph::{GraphError, NodeId, Path};
use std::collections::HashMap;

/// An object-safe distance oracle over a stored DP release.
///
/// Implementations answer every query by post-processing the release —
/// no additional privacy is ever spent. `distance_batch` exists because
/// the serving hot path is dominated by per-query setup for
/// graph-replaying releases (a Dijkstra per source); batching lets those
/// implementations share work across queries with the same source.
///
/// The `Send + Sync` supertraits make `&dyn DistanceRelease` shareable
/// across serving threads: queries take `&self` and every release type
/// is immutable after construction.
pub trait DistanceRelease: Send + Sync {
    /// Number of vertices the release answers queries for.
    fn num_nodes(&self) -> usize;

    /// The released estimate of `d(u, v)`; `+inf` when `v` is
    /// unreachable from `u` (uniform across every release kind — an
    /// unreachable target is an answer, not an error).
    ///
    /// # Errors
    /// [`EngineError::NodeOutOfRange`] for invalid ids.
    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError>;

    /// Released estimates for many pairs at once. Equivalent to mapping
    /// [`distance`](Self::distance) but implementations may share
    /// per-source work. On error, reports the first failing pair.
    ///
    /// # Errors
    /// Same conditions as [`distance`](Self::distance).
    fn distance_batch(&self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<f64>, EngineError> {
        pairs.iter().map(|&(u, v)| self.distance(u, v)).collect()
    }

    /// Distance rows for many sources at once: row `i` holds every
    /// released distance from `sources[i]`, indexed by target
    /// (unreachable targets are `+inf`). This is the row the store's
    /// read-path cache keeps per `(release, source)`: one row answers
    /// every `(source, *)` query against the release.
    ///
    /// The default maps [`distance`](Self::distance) over all targets
    /// (cheap for table-backed kinds, whose rows are array reads);
    /// graph-replaying kinds override it to pay one Dijkstra per source,
    /// fanned over the default search thread pool. Overrides must stay
    /// bit-for-bit identical to the default mapping — callers (the
    /// store's snapshot cache) rely on replayed answers being
    /// byte-stable.
    ///
    /// # Errors
    /// Same conditions as [`distance`](Self::distance).
    fn source_distance_rows(&self, sources: &[NodeId]) -> Result<Vec<Vec<f64>>, EngineError> {
        sources
            .iter()
            .map(|&u| {
                (0..self.num_nodes())
                    .map(|v| self.distance(u, NodeId::new(v)))
                    .collect()
            })
            .collect()
    }

    /// The released route from `u` to `v`, for release kinds that carry
    /// one (`None` for value-only releases).
    ///
    /// # Errors
    /// Same conditions as [`distance`](Self::distance).
    fn path(&self, u: NodeId, v: NodeId) -> Option<Result<Path, EngineError>> {
        let _ = (u, v);
        None
    }
}

fn check_node(index: usize, num_nodes: usize) -> Result<(), EngineError> {
    if index >= num_nodes {
        return Err(EngineError::NodeOutOfRange { index, num_nodes });
    }
    Ok(())
}

/// Maps a core-level `Disconnected` error to the uniform unreachable
/// answer `+inf`; every other error passes through.
fn disconnected_is_infinite(e: CoreError) -> Result<f64, EngineError> {
    match e {
        CoreError::Graph(GraphError::Disconnected { .. }) => Ok(f64::INFINITY),
        other => Err(EngineError::Core(other)),
    }
}

/// Shared batching core for graph-replaying releases: one Dijkstra per
/// distinct source, shared across every pair with that source;
/// unreachable targets answer `+inf`.
///
/// `rows_for_sources` receives every distinct source (sorted by id) in
/// one call, so implementations can fan the per-source Dijkstras over the
/// default search thread pool; row `i` must be the full distance vector
/// from source `i`. Results are identical to a sequential per-source loop
/// because the parallel drivers are bit-for-bit deterministic.
fn batch_by_source(
    num_nodes: usize,
    pairs: &[(NodeId, NodeId)],
    rows_for_sources: impl FnOnce(&[NodeId]) -> Result<Vec<Vec<f64>>, EngineError>,
) -> Result<Vec<f64>, EngineError> {
    let mut by_source: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, &(u, v)) in pairs.iter().enumerate() {
        check_node(u.index(), num_nodes)?;
        check_node(v.index(), num_nodes)?;
        by_source.entry(u.index()).or_default().push(i);
    }
    let mut source_ids: Vec<usize> = by_source.keys().copied().collect();
    source_ids.sort_unstable();
    let sources: Vec<NodeId> = source_ids.iter().map(|&s| NodeId::new(s)).collect();
    let rows = rows_for_sources(&sources)?;
    let mut out = vec![0.0; pairs.len()];
    for (s, dists) in source_ids.iter().zip(&rows) {
        for &i in &by_source[s] {
            let (_, v) = pairs[i];
            out[i] = dists[v.index()];
        }
    }
    Ok(out)
}

impl DistanceRelease for ShortestPathRelease {
    fn num_nodes(&self) -> usize {
        self.topology().num_nodes()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        // Normalize range errors across kinds: every release reports
        // NodeOutOfRange rather than its substrate's own variant.
        check_node(u.index(), DistanceRelease::num_nodes(self))?;
        check_node(v.index(), DistanceRelease::num_nodes(self))?;
        self.estimated_distance(u, v)
            .or_else(disconnected_is_infinite)
    }

    fn distance_batch(&self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<f64>, EngineError> {
        batch_by_source(DistanceRelease::num_nodes(self), pairs, |sources| {
            Ok(self.distances_for_sources(sources)?)
        })
    }

    fn source_distance_rows(&self, sources: &[NodeId]) -> Result<Vec<Vec<f64>>, EngineError> {
        for &s in sources {
            check_node(s.index(), DistanceRelease::num_nodes(self))?;
        }
        Ok(self.distances_for_sources(sources)?)
    }

    fn path(&self, u: NodeId, v: NodeId) -> Option<Result<Path, EngineError>> {
        Some(ShortestPathRelease::path(self, u, v).map_err(EngineError::from))
    }
}

impl DistanceRelease for TreeAllPairsRelease {
    fn num_nodes(&self) -> usize {
        TreeAllPairsRelease::num_nodes(self)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        check_node(u.index(), self.num_nodes())?;
        check_node(v.index(), self.num_nodes())?;
        Ok(TreeAllPairsRelease::distance(self, u, v))
    }
}

impl DistanceRelease for HldTreeRelease {
    fn num_nodes(&self) -> usize {
        HldTreeRelease::num_nodes(self)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        check_node(u.index(), self.num_nodes())?;
        check_node(v.index(), self.num_nodes())?;
        Ok(HldTreeRelease::distance(self, u, v))
    }
}

impl DistanceRelease for BoundedWeightRelease {
    fn num_nodes(&self) -> usize {
        BoundedWeightRelease::num_nodes(self)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        check_node(u.index(), self.num_nodes())?;
        check_node(v.index(), self.num_nodes())?;
        Ok(BoundedWeightRelease::distance(self, u, v))
    }
}

impl DistanceRelease for SyntheticGraphRelease {
    fn num_nodes(&self) -> usize {
        self.topology().num_nodes()
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        check_node(u.index(), DistanceRelease::num_nodes(self))?;
        check_node(v.index(), DistanceRelease::num_nodes(self))?;
        SyntheticGraphRelease::distance(self, u, v).or_else(disconnected_is_infinite)
    }

    fn distance_batch(&self, pairs: &[(NodeId, NodeId)]) -> Result<Vec<f64>, EngineError> {
        batch_by_source(DistanceRelease::num_nodes(self), pairs, |sources| {
            Ok(self.distances_for_sources(sources)?)
        })
    }

    fn source_distance_rows(&self, sources: &[NodeId]) -> Result<Vec<Vec<f64>>, EngineError> {
        for &s in sources {
            check_node(s.index(), DistanceRelease::num_nodes(self))?;
        }
        Ok(self.distances_for_sources(sources)?)
    }
}

impl DistanceRelease for AllPairsDistanceRelease {
    fn num_nodes(&self) -> usize {
        AllPairsDistanceRelease::num_nodes(self)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        check_node(u.index(), self.num_nodes())?;
        check_node(v.index(), self.num_nodes())?;
        Ok(AllPairsDistanceRelease::distance(self, u, v))
    }
}

impl DistanceRelease for ShortcutApspRelease {
    fn num_nodes(&self) -> usize {
        ShortcutApspRelease::num_nodes(self)
    }

    fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, EngineError> {
        check_node(u.index(), self.num_nodes())?;
        check_node(v.index(), self.num_nodes())?;
        Ok(ShortcutApspRelease::distance(self, u, v))
    }
}

/// A stable tag identifying a release's kind in the registry, the CLI,
/// and the persistence format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleaseKind {
    /// Algorithm 3 shortest paths.
    ShortestPath,
    /// Algorithm 1 / Theorem 4.2 tree distances.
    Tree,
    /// Heavy-path tree extension.
    HldTree,
    /// Algorithm 2 bounded-weight distances.
    BoundedWeight,
    /// Appendix B.1 spanning tree.
    Mst,
    /// Appendix B.2 matching.
    Matching,
    /// Laplace synthetic graph baseline.
    SyntheticGraph,
    /// All-pairs composition baseline.
    AllPairsBaseline,
    /// CNX-style hierarchical shortcut APSP (bounded weights).
    ShortcutApsp,
}

impl ReleaseKind {
    /// The kind's stable name (matches [`crate::Mechanism::name`]).
    pub fn as_str(&self) -> &'static str {
        match self {
            ReleaseKind::ShortestPath => "shortest-path",
            ReleaseKind::Tree => "tree",
            ReleaseKind::HldTree => "hld-tree",
            ReleaseKind::BoundedWeight => "bounded-weight",
            ReleaseKind::Mst => "mst",
            ReleaseKind::Matching => "matching",
            ReleaseKind::SyntheticGraph => "synthetic-graph",
            ReleaseKind::AllPairsBaseline => "all-pairs-baseline",
            ReleaseKind::ShortcutApsp => "shortcut-apsp",
        }
    }

    /// Parses a kind name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "shortest-path" => ReleaseKind::ShortestPath,
            "tree" => ReleaseKind::Tree,
            "hld-tree" => ReleaseKind::HldTree,
            "bounded-weight" => ReleaseKind::BoundedWeight,
            "mst" => ReleaseKind::Mst,
            "matching" => ReleaseKind::Matching,
            "synthetic-graph" => ReleaseKind::SyntheticGraph,
            "all-pairs-baseline" => ReleaseKind::AllPairsBaseline,
            "shortcut-apsp" => ReleaseKind::ShortcutApsp,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ReleaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Any release the engine can hold: the union of every mechanism's output
/// type. Distance-capable variants expose a [`DistanceRelease`] view via
/// [`as_distance`](Self::as_distance).
#[derive(Clone, Debug)]
pub enum AnyRelease {
    /// Algorithm 3 output.
    ShortestPath(ShortestPathRelease),
    /// Algorithm 1 / Theorem 4.2 output.
    Tree(TreeAllPairsRelease),
    /// Heavy-path extension output.
    HldTree(HldTreeRelease),
    /// Algorithm 2 output.
    BoundedWeight(BoundedWeightRelease),
    /// Appendix B.1 output.
    Mst(MstRelease),
    /// Appendix B.2 output.
    Matching(MatchingRelease),
    /// Synthetic-graph baseline output.
    SyntheticGraph(SyntheticGraphRelease),
    /// Composition baseline output.
    AllPairsBaseline(AllPairsDistanceRelease),
    /// Hierarchical shortcut output.
    ShortcutApsp(ShortcutApspRelease),
}

impl AnyRelease {
    /// The release's kind tag.
    pub fn kind(&self) -> ReleaseKind {
        match self {
            AnyRelease::ShortestPath(_) => ReleaseKind::ShortestPath,
            AnyRelease::Tree(_) => ReleaseKind::Tree,
            AnyRelease::HldTree(_) => ReleaseKind::HldTree,
            AnyRelease::BoundedWeight(_) => ReleaseKind::BoundedWeight,
            AnyRelease::Mst(_) => ReleaseKind::Mst,
            AnyRelease::Matching(_) => ReleaseKind::Matching,
            AnyRelease::SyntheticGraph(_) => ReleaseKind::SyntheticGraph,
            AnyRelease::AllPairsBaseline(_) => ReleaseKind::AllPairsBaseline,
            AnyRelease::ShortcutApsp(_) => ReleaseKind::ShortcutApsp,
        }
    }

    /// A distance-oracle view, for the kinds that answer distance
    /// queries (`None` for MST and matching releases, which release a
    /// structure rather than a distance table).
    pub fn as_distance(&self) -> Option<&dyn DistanceRelease> {
        match self {
            AnyRelease::ShortestPath(r) => Some(r),
            AnyRelease::Tree(r) => Some(r),
            AnyRelease::HldTree(r) => Some(r),
            AnyRelease::BoundedWeight(r) => Some(r),
            AnyRelease::SyntheticGraph(r) => Some(r),
            AnyRelease::AllPairsBaseline(r) => Some(r),
            AnyRelease::ShortcutApsp(r) => Some(r),
            AnyRelease::Mst(_) | AnyRelease::Matching(_) => None,
        }
    }
}

impl From<ShortestPathRelease> for AnyRelease {
    fn from(r: ShortestPathRelease) -> Self {
        AnyRelease::ShortestPath(r)
    }
}

impl From<TreeAllPairsRelease> for AnyRelease {
    fn from(r: TreeAllPairsRelease) -> Self {
        AnyRelease::Tree(r)
    }
}

impl From<HldTreeRelease> for AnyRelease {
    fn from(r: HldTreeRelease) -> Self {
        AnyRelease::HldTree(r)
    }
}

impl From<BoundedWeightRelease> for AnyRelease {
    fn from(r: BoundedWeightRelease) -> Self {
        AnyRelease::BoundedWeight(r)
    }
}

impl From<MstRelease> for AnyRelease {
    fn from(r: MstRelease) -> Self {
        AnyRelease::Mst(r)
    }
}

impl From<MatchingRelease> for AnyRelease {
    fn from(r: MatchingRelease) -> Self {
        AnyRelease::Matching(r)
    }
}

impl From<SyntheticGraphRelease> for AnyRelease {
    fn from(r: SyntheticGraphRelease) -> Self {
        AnyRelease::SyntheticGraph(r)
    }
}

impl From<AllPairsDistanceRelease> for AnyRelease {
    fn from(r: AllPairsDistanceRelease) -> Self {
        AnyRelease::AllPairsBaseline(r)
    }
}

impl From<ShortcutApspRelease> for AnyRelease {
    fn from(r: ShortcutApspRelease) -> Self {
        AnyRelease::ShortcutApsp(r)
    }
}
