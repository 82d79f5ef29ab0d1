//! The generic baselines the paper compares against (Section 4's opening
//! discussion): per-pair Laplace oracles, all-pairs release via basic and
//! advanced composition, and the Laplace synthetic graph.
//!
//! These establish the `~V/eps` error floor that Theorems 4.1–4.7 improve
//! on for trees and bounded-weight graphs, and the experiment harness
//! measures all of them side by side (experiments E5/E7/E12).

use crate::model::NeighborScale;
use crate::CoreError;
use privpath_dp::composition::per_query_epsilon;
use privpath_dp::{Delta, Epsilon, NoiseSource, RngNoise};
use privpath_graph::algo::{
    dijkstra, multi_source_distances_unchecked, validate_dijkstra_inputs, with_thread_workspace,
};
use privpath_graph::{EdgeWeights, NodeId, Topology};
use rand::Rng;

/// A single noisy distance query (the Laplace mechanism on one
/// sensitivity-1 query): the building block the paper calls "a
/// straightforward application of the Laplace mechanism".
///
/// Each call spends `eps` of privacy budget; answering many pairs this way
/// composes (use [`all_pairs_basic_composition`] /
/// [`all_pairs_advanced_composition`] instead).
///
/// # Errors
/// [`CoreError::Graph`] for invalid vertices, mismatched weights, or a
/// disconnected pair.
pub fn laplace_distance_oracle(
    topo: &Topology,
    weights: &EdgeWeights,
    s: NodeId,
    t: NodeId,
    eps: Epsilon,
    scale: NeighborScale,
    noise: &mut impl NoiseSource,
) -> Result<f64, CoreError> {
    weights.validate_for(topo)?;
    topo.check_node(t)?;
    let spt = dijkstra(topo, weights, s)?;
    let d = spt
        .distance(t)
        .ok_or(CoreError::Graph(privpath_graph::GraphError::Disconnected {
            from: s,
            to: t,
        }))?;
    Ok(d + noise.laplace(scale.value() / eps.value()))
}

/// A released dense matrix of noisy all-pairs distances.
#[derive(Clone, Debug)]
pub struct AllPairsDistanceRelease {
    n: usize,
    d: Vec<f64>,
    noise_scale: f64,
}

impl AllPairsDistanceRelease {
    /// The released estimate of `d(u, v)` (0 on the diagonal).
    ///
    /// # Panics
    /// Panics if either id is out of range.
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        self.d[u.index() * self.n + v.index()]
    }

    /// The Laplace scale used per pair.
    pub fn noise_scale(&self) -> f64 {
        self.noise_scale
    }

    /// Number of vertices the release answers queries for.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The dense row-major `V x V` released matrix.
    pub fn matrix(&self) -> &[f64] {
        &self.d
    }

    /// Reassembles a release from a stored `n x n` matrix.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] on size mismatch or non-finite
    /// entries.
    pub fn from_parts(n: usize, d: Vec<f64>, noise_scale: f64) -> Result<Self, CoreError> {
        if d.len() != n * n {
            return Err(CoreError::InvalidParameter(format!(
                "stored matrix has {} entries, expected {}",
                d.len(),
                n * n
            )));
        }
        if d.iter().any(|x| !x.is_finite()) {
            return Err(CoreError::InvalidParameter(
                "stored distance matrix contains non-finite entries".into(),
            ));
        }
        if !noise_scale.is_finite() || noise_scale <= 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "invalid stored noise scale {noise_scale}"
            )));
        }
        Ok(AllPairsDistanceRelease { n, d, noise_scale })
    }
}

/// Sources per parallel batch in all-pairs fills: bounds the transient
/// row storage to `PAR_CHUNK * V` floats while still giving the thread pool
/// enough work per round.
const PAR_CHUNK: usize = 64;

fn all_pairs_with_noise_scale(
    topo: &Topology,
    weights: &EdgeWeights,
    noise_scale: f64,
    noise: &mut impl NoiseSource,
) -> Result<AllPairsDistanceRelease, CoreError> {
    // Validate once (length + nonnegativity); every per-source run below is
    // unchecked, so the O(E) scan is not repeated per source.
    validate_dijkstra_inputs(topo, weights)?;
    let n = topo.num_nodes();
    let mut d = vec![0.0; n * n];
    let sources: Vec<NodeId> = topo.nodes().collect();
    // The true rows are computed in parallel (bit-for-bit deterministic for
    // any thread count); the Laplace draws stay on this thread in the exact
    // (u, v) order the sequential loop used, so pinned-seed releases replay
    // byte-identically.
    for chunk in sources.chunks(PAR_CHUNK) {
        let rows = multi_source_distances_unchecked(topo, weights, chunk, 0);
        for (&u, row) in chunk.iter().zip(&rows) {
            for v in topo.nodes().skip(u.index() + 1) {
                let truth = row[v.index()];
                if !truth.is_finite() {
                    return Err(CoreError::Graph(privpath_graph::GraphError::Disconnected {
                        from: u,
                        to: v,
                    }));
                }
                let released = truth + noise.laplace(noise_scale);
                d[u.index() * n + v.index()] = released;
                d[v.index() * n + u.index()] = released;
            }
        }
    }
    Ok(AllPairsDistanceRelease { n, d, noise_scale })
}

/// All-pairs distances by **basic composition** (Lemma 3.3): release the
/// `V(V-1)/2` unordered pairwise distances, each of sensitivity `s`, as one
/// Laplace mechanism over the whole vector — noise scale
/// `s * V(V-1)/2 / eps` per entry. (The paper quotes this as "`Lap`
/// proportional to `V^2/eps`".) Pure `eps`-DP.
///
/// # Errors
/// [`CoreError::Graph`] for mismatched weights or a disconnected graph.
pub fn all_pairs_basic_composition(
    topo: &Topology,
    weights: &EdgeWeights,
    eps: Epsilon,
    scale: NeighborScale,
    noise: &mut impl NoiseSource,
) -> Result<AllPairsDistanceRelease, CoreError> {
    let n = topo.num_nodes();
    let pairs = (n * n.saturating_sub(1)) / 2;
    let b = scale.value() * pairs.max(1) as f64 / eps.value();
    all_pairs_with_noise_scale(topo, weights, b, noise)
}

/// All-pairs distances by **advanced composition** (Lemma 3.4): the
/// per-query epsilon is obtained by numerically inverting the composition
/// bound for `V(V-1)/2` queries, yielding noise scale
/// `O(s * V * sqrt(ln(1/delta)) / eps)` per entry. `(eps, delta)`-DP.
///
/// # Errors
/// [`CoreError::Dp`] for an invalid `delta`; otherwise as
/// [`all_pairs_basic_composition`].
pub fn all_pairs_advanced_composition(
    topo: &Topology,
    weights: &EdgeWeights,
    eps: Epsilon,
    delta: Delta,
    scale: NeighborScale,
    noise: &mut impl NoiseSource,
) -> Result<AllPairsDistanceRelease, CoreError> {
    if delta.is_pure() {
        return Err(CoreError::InvalidParameter(
            "advanced composition requires delta > 0".into(),
        ));
    }
    let n = topo.num_nodes();
    let pairs = ((n * n.saturating_sub(1)) / 2).max(1);
    let per = per_query_epsilon(eps, pairs, delta.value())?;
    let b = scale.value() / per.value();
    all_pairs_with_noise_scale(topo, weights, b, noise)
}

/// Single-source distances by advanced composition — the paper's remark
/// after Theorem 4.6: releasing the `V - 1` noisy distances from one
/// source with per-query epsilon from Lemma 3.4 gives `(eps, delta)`-DP
/// with per-distance noise `O(sqrt(V ln(1/delta)) / eps)`, matching the
/// `V`-dependence of the all-pairs bounded-weight bound.
///
/// Returns the estimate vector indexed by node id (the source entry is the
/// noisy zero) and the noise scale used.
///
/// # Errors
/// [`CoreError::InvalidParameter`] for `delta = 0`; [`CoreError::Graph`]
/// for an unreachable vertex or invalid input.
pub fn single_source_advanced_composition(
    topo: &Topology,
    weights: &EdgeWeights,
    source: NodeId,
    eps: Epsilon,
    delta: Delta,
    scale: NeighborScale,
    noise: &mut impl NoiseSource,
) -> Result<(Vec<f64>, f64), CoreError> {
    if delta.is_pure() {
        return Err(CoreError::InvalidParameter(
            "advanced composition requires delta > 0".into(),
        ));
    }
    weights.validate_for(topo)?;
    let spt = dijkstra(topo, weights, source)?;
    let k = topo.num_nodes().saturating_sub(1).max(1);
    let per = per_query_epsilon(eps, k, delta.value())?;
    let b = scale.value() / per.value();
    let mut out = Vec::with_capacity(topo.num_nodes());
    for v in topo.nodes() {
        if v == source {
            out.push(0.0);
            continue;
        }
        let d =
            spt.distance(v)
                .ok_or(CoreError::Graph(privpath_graph::GraphError::Disconnected {
                    from: source,
                    to: v,
                }))?;
        out.push(d + noise.laplace(b));
    }
    Ok((out, b))
}

/// The Laplace **synthetic graph** (the other baseline the paper sketches,
/// and the basis of Algorithm 3 without its shift): release
/// `w'(e) = w(e) + Lap(s/eps)` per edge; answer distance queries by
/// Dijkstra on the clamped-at-zero released weights. Pure `eps`-DP; error
/// `O((V s / eps) log(E/gamma))` for every pair simultaneously.
#[derive(Clone, Debug)]
pub struct SyntheticGraphRelease {
    topo: Topology,
    released: EdgeWeights,
    noise_scale: f64,
}

impl SyntheticGraphRelease {
    /// The released (clamped) weights.
    pub fn released_weights(&self) -> &EdgeWeights {
        &self.released
    }

    /// The Laplace scale used per edge.
    pub fn noise_scale(&self) -> f64 {
        self.noise_scale
    }

    /// The public topology the release answers queries on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Reassembles a release from stored parts.
    ///
    /// # Errors
    /// [`CoreError::Graph`] on weight/topology mismatch;
    /// [`CoreError::InvalidParameter`] for negative stored weights or an
    /// invalid noise scale.
    pub fn from_parts(
        topo: Topology,
        released: EdgeWeights,
        noise_scale: f64,
    ) -> Result<Self, CoreError> {
        released.validate_for(&topo)?;
        if !released.is_nonnegative() {
            return Err(CoreError::InvalidParameter(
                "stored released weights must be nonnegative".into(),
            ));
        }
        if !noise_scale.is_finite() || noise_scale <= 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "invalid stored noise scale {noise_scale}"
            )));
        }
        Ok(SyntheticGraphRelease {
            topo,
            released,
            noise_scale,
        })
    }

    /// The estimated distance between `u` and `v` in the synthetic graph.
    ///
    /// Runs on the calling thread's shared Dijkstra workspace and stops
    /// once `v` is settled: the released weights were validated
    /// nonnegative at construction, so no per-query weight scan or
    /// allocation is needed.
    ///
    /// # Errors
    /// [`CoreError::Graph`] for invalid vertices or a disconnected pair.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Result<f64, CoreError> {
        self.topo.check_node(u)?;
        self.topo.check_node(v)?;
        with_thread_workspace(|ws| {
            ws.run_to_unchecked(&self.topo, &self.released, u, v);
            ws.distance(v)
        })
        .ok_or(CoreError::Graph(privpath_graph::GraphError::Disconnected {
            from: u,
            to: v,
        }))
    }

    /// All estimated distances from `u` (one workspace-reusing Dijkstra).
    ///
    /// # Errors
    /// [`CoreError::Graph`] for an invalid vertex.
    pub fn distances_from(&self, u: NodeId) -> Result<Vec<f64>, CoreError> {
        self.topo.check_node(u)?;
        Ok(with_thread_workspace(|ws| {
            ws.run_unchecked(&self.topo, &self.released, u);
            ws.distances()
        }))
    }

    /// Distance rows for a batch of sources, fanned over the default search
    /// thread pool. Row `i` is the full distance vector from `sources[i]`
    /// (`f64::INFINITY` for unreachable vertices); outputs are bit-for-bit
    /// identical to repeated [`distances_from`](Self::distances_from) calls.
    ///
    /// # Errors
    /// [`CoreError::Graph`] for an invalid vertex.
    pub fn distances_for_sources(&self, sources: &[NodeId]) -> Result<Vec<Vec<f64>>, CoreError> {
        for &s in sources {
            self.topo.check_node(s)?;
        }
        Ok(multi_source_distances_unchecked(
            &self.topo,
            &self.released,
            sources,
            0,
        ))
    }
}

/// Builds the synthetic-graph release.
///
/// # Errors
/// [`CoreError::Graph`] on weight/topology mismatch.
pub fn synthetic_graph_release(
    topo: &Topology,
    weights: &EdgeWeights,
    eps: Epsilon,
    scale: NeighborScale,
    noise: &mut impl NoiseSource,
) -> Result<SyntheticGraphRelease, CoreError> {
    weights.validate_for(topo)?;
    let b = scale.value() / eps.value();
    let released = weights.map(|_, w| w + noise.laplace(b)).clamp_nonnegative();
    Ok(SyntheticGraphRelease {
        topo: topo.clone(),
        released,
        noise_scale: b,
    })
}

/// Convenience wrappers drawing from an `Rng`.
pub mod rng {
    use super::*;

    /// [`super::synthetic_graph_release`] with an `Rng`.
    ///
    /// # Errors
    /// As the underlying function.
    pub fn synthetic_graph_release(
        topo: &Topology,
        weights: &EdgeWeights,
        eps: Epsilon,
        scale: NeighborScale,
        rng: &mut impl Rng,
    ) -> Result<SyntheticGraphRelease, CoreError> {
        // privlint: allow(budget-discipline, "rng-to-NoiseSource adapter in the paper-level convenience API; budgeted callers reach the *_with variant through the engine, which debits before running")
        let mut noise = RngNoise::new(rng);
        super::synthetic_graph_release(topo, weights, eps, scale, &mut noise)
    }

    /// [`super::all_pairs_basic_composition`] with an `Rng`.
    ///
    /// # Errors
    /// As the underlying function.
    pub fn all_pairs_basic_composition(
        topo: &Topology,
        weights: &EdgeWeights,
        eps: Epsilon,
        scale: NeighborScale,
        rng: &mut impl Rng,
    ) -> Result<AllPairsDistanceRelease, CoreError> {
        // privlint: allow(budget-discipline, "rng-to-NoiseSource adapter in the paper-level convenience API; budgeted callers reach the *_with variant through the engine, which debits before running")
        let mut noise = RngNoise::new(rng);
        super::all_pairs_basic_composition(topo, weights, eps, scale, &mut noise)
    }

    /// [`super::all_pairs_advanced_composition`] with an `Rng`.
    ///
    /// # Errors
    /// As the underlying function.
    pub fn all_pairs_advanced_composition(
        topo: &Topology,
        weights: &EdgeWeights,
        eps: Epsilon,
        delta: Delta,
        scale: NeighborScale,
        rng: &mut impl Rng,
    ) -> Result<AllPairsDistanceRelease, CoreError> {
        // privlint: allow(budget-discipline, "rng-to-NoiseSource adapter in the paper-level convenience API; budgeted callers reach the *_with variant through the engine, which debits before running")
        let mut noise = RngNoise::new(rng);
        super::all_pairs_advanced_composition(topo, weights, eps, delta, scale, &mut noise)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_dp::{RecordingNoise, ZeroNoise};
    use privpath_graph::generators::{connected_gnm, path_graph, uniform_weights};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn unit() -> NeighborScale {
        NeighborScale::unit()
    }

    #[test]
    fn oracle_zero_noise_is_exact() {
        let topo = path_graph(6);
        let w = EdgeWeights::constant(5, 2.0);
        let d = laplace_distance_oracle(
            &topo,
            &w,
            NodeId::new(0),
            NodeId::new(5),
            eps(1.0),
            unit(),
            &mut ZeroNoise,
        )
        .unwrap();
        assert!((d - 10.0).abs() < 1e-12);
    }

    #[test]
    fn oracle_disconnected_errors() {
        let mut b = Topology::builder(3);
        b.add_edge(NodeId::new(0), NodeId::new(1));
        let topo = b.build();
        let w = EdgeWeights::constant(1, 1.0);
        assert!(laplace_distance_oracle(
            &topo,
            &w,
            NodeId::new(0),
            NodeId::new(2),
            eps(1.0),
            unit(),
            &mut ZeroNoise
        )
        .is_err());
    }

    #[test]
    fn basic_composition_noise_scale() {
        let topo = path_graph(10); // 45 pairs
        let w = EdgeWeights::constant(9, 1.0);
        let mut rec = RecordingNoise::new(ZeroNoise);
        let rel = all_pairs_basic_composition(&topo, &w, eps(1.0), unit(), &mut rec).unwrap();
        assert_eq!(rec.len(), 45);
        assert!((rel.noise_scale() - 45.0).abs() < 1e-12);
        // Zero noise: exact distances.
        assert!((rel.distance(NodeId::new(0), NodeId::new(9)) - 9.0).abs() < 1e-12);
        assert_eq!(rel.distance(NodeId::new(4), NodeId::new(4)), 0.0);
    }

    #[test]
    fn advanced_composition_scale_beats_basic_for_large_v() {
        let mut rng = StdRng::seed_from_u64(70);
        let topo = connected_gnm(60, 120, &mut rng);
        let w = uniform_weights(120, 0.0, 5.0, &mut rng);
        let basic =
            all_pairs_basic_composition(&topo, &w, eps(1.0), unit(), &mut ZeroNoise).unwrap();
        let adv = all_pairs_advanced_composition(
            &topo,
            &w,
            eps(1.0),
            Delta::new(1e-6).unwrap(),
            unit(),
            &mut ZeroNoise,
        )
        .unwrap();
        assert!(
            adv.noise_scale() < basic.noise_scale() / 5.0,
            "advanced {} vs basic {}",
            adv.noise_scale(),
            basic.noise_scale()
        );
    }

    #[test]
    fn advanced_requires_delta() {
        let topo = path_graph(4);
        let w = EdgeWeights::constant(3, 1.0);
        assert!(all_pairs_advanced_composition(
            &topo,
            &w,
            eps(1.0),
            Delta::zero(),
            unit(),
            &mut ZeroNoise
        )
        .is_err());
    }

    #[test]
    fn synthetic_graph_zero_noise_exact_and_symmetric() {
        let mut rng = StdRng::seed_from_u64(71);
        let topo = connected_gnm(30, 70, &mut rng);
        let w = uniform_weights(70, 0.0, 3.0, &mut rng);
        let rel = synthetic_graph_release(&topo, &w, eps(1.0), unit(), &mut ZeroNoise).unwrap();
        let spt = dijkstra(&topo, &w, NodeId::new(0)).unwrap();
        for v in topo.nodes() {
            let d = rel.distance(NodeId::new(0), v).unwrap();
            assert!((d - spt.distance(v).unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn synthetic_graph_clamps_noise() {
        let topo = path_graph(40);
        let w = EdgeWeights::zeros(39);
        let mut rng = StdRng::seed_from_u64(72);
        let rel = rng::synthetic_graph_release(&topo, &w, eps(0.2), unit(), &mut rng).unwrap();
        assert!(rel.released_weights().is_nonnegative());
    }

    #[test]
    fn single_source_advanced_zero_noise_exact_and_scale_sublinear() {
        let mut rng = StdRng::seed_from_u64(73);
        let topo = connected_gnm(100, 250, &mut rng);
        let w = uniform_weights(250, 0.0, 5.0, &mut rng);
        let (est, b) = single_source_advanced_composition(
            &topo,
            &w,
            NodeId::new(0),
            eps(1.0),
            Delta::new(1e-6).unwrap(),
            unit(),
            &mut ZeroNoise,
        )
        .unwrap();
        let spt = dijkstra(&topo, &w, NodeId::new(0)).unwrap();
        for v in topo.nodes() {
            assert!((est[v.index()] - spt.distance(v).unwrap()).abs() < 1e-9);
        }
        // Scale is ~sqrt(V ln 1/delta), far below the all-pairs V-scale.
        let rough = (2.0 * 99.0 * (1e6f64).ln()).sqrt();
        assert!(
            b > 0.5 * rough && b < 2.0 * rough,
            "scale {b} vs rough {rough}"
        );

        // Pure delta rejected.
        assert!(single_source_advanced_composition(
            &topo,
            &w,
            NodeId::new(0),
            eps(1.0),
            Delta::zero(),
            unit(),
            &mut ZeroNoise
        )
        .is_err());
    }

    #[test]
    fn scale_parameter_multiplies_noise() {
        let topo = path_graph(5);
        let w = EdgeWeights::constant(4, 1.0);
        let mut rec = RecordingNoise::new(ZeroNoise);
        let _ = synthetic_graph_release(
            &topo,
            &w,
            eps(1.0),
            NeighborScale::new(5.0).unwrap(),
            &mut rec,
        )
        .unwrap();
        for &(s, _) in rec.draws() {
            assert!((s - 5.0).abs() < 1e-12);
        }
    }
}
