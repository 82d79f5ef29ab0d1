//! The output oracle: wire answers against in-process answers.
//!
//! Distances must be bit-identical to what the store computes in process
//! at the same epoch, geo answers must name the nodes the spatial index
//! snaps to, routes must run between those nodes along edges of the
//! public topology, and acknowledged epochs must strictly increase. Any
//! mismatch fails the run.

use crate::trace::line_key;
use privpath_graph::{NodeId, Topology};
use privpath_serve::{AdminResponse, QueryResponse};

/// Checks a `distances` answer to a batch of `pairs` against the full
/// expected row of each source.
pub fn check_batch<'a>(
    resp: &QueryResponse,
    pairs: &[(NodeId, NodeId)],
    row: impl Fn(NodeId) -> Option<&'a [f64]>,
) -> Result<(), String> {
    let QueryResponse::Distances { values, .. } = resp else {
        return Err(format!("expected a distances answer, got {resp}"));
    };
    if values.len() != pairs.len() {
        return Err(format!("{} values for {} pairs", values.len(), pairs.len()));
    }
    for (i, (&(u, v), &got)) in pairs.iter().zip(values).enumerate() {
        let want = row(u)
            .and_then(|r| r.get(v.index()).copied())
            .ok_or_else(|| format!("no in-process row for source {}", u.index()))?;
        same_distance(got, want).map_err(|e| format!("pair {i} ({u:?}, {v:?}): {e}"))?;
    }
    Ok(())
}

/// Checks a batch answer kept only as a digest: it must be the digest of
/// the exact wire rendering of the expected values.
pub fn check_batch_digest<'a>(
    digest: u64,
    pairs: &[(NodeId, NodeId)],
    row: impl Fn(NodeId) -> Option<&'a [f64]>,
) -> Result<(), String> {
    let values = pairs
        .iter()
        .map(|&(u, v)| {
            row(u)
                .and_then(|r| r.get(v.index()).copied())
                .ok_or_else(|| format!("no in-process row for source {}", u.index()))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let want = QueryResponse::Distances {
        values,
        bound: None,
    };
    if line_key(&want.to_string()) == digest {
        Ok(())
    } else {
        Err(format!(
            "response differs from the in-process answer {want}"
        ))
    }
}

/// Checks a `geo-distance` answer: snapped endpoints and the value.
pub fn check_geo_distance(
    resp: &QueryResponse,
    from: NodeId,
    to: NodeId,
    want: f64,
) -> Result<(), String> {
    let QueryResponse::GeoDistance {
        from: f,
        to: t,
        value,
        ..
    } = resp
    else {
        return Err(format!("expected a geo-distance answer, got {resp}"));
    };
    check_snapped(*f, *t, from, to)?;
    same_distance(*value, want)
}

/// Checks a `geo-route` answer: snapped endpoints, a route that starts
/// and ends at them and follows edges of `topo`, and (when given) the
/// exact in-process route.
pub fn check_geo_route(
    resp: &QueryResponse,
    from: NodeId,
    to: NodeId,
    topo: &Topology,
    want: Option<&[NodeId]>,
) -> Result<(), String> {
    let QueryResponse::GeoRoute {
        from: f,
        to: t,
        nodes,
    } = resp
    else {
        return Err(format!("expected a geo-route answer, got {resp}"));
    };
    check_snapped(*f, *t, from, to)?;
    if nodes.first() != Some(&from) || nodes.last() != Some(&to) {
        return Err(format!(
            "route runs {:?} -> {:?}, not between the snapped nodes",
            nodes.first(),
            nodes.last()
        ));
    }
    for hop in nodes.windows(2) {
        if topo.edge_between(hop[0], hop[1]).is_none() {
            return Err(format!(
                "route hop {:?} -> {:?} is not an edge",
                hop[0], hop[1]
            ));
        }
    }
    match want {
        Some(w) if w != nodes.as_slice() => Err("route differs from the in-process route".into()),
        _ => Ok(()),
    }
}

/// Checks an `update-weights` acknowledgement and returns its epoch.
pub fn check_updated(resp: &AdminResponse) -> Result<u64, String> {
    match resp {
        AdminResponse::Updated { epoch, .. } => Ok(*epoch),
        other => Err(format!("expected an updated ack, got {other}")),
    }
}

/// Acknowledged epochs, in acknowledgement order, must strictly increase.
pub fn check_epochs(epochs: &[u64]) -> Result<(), String> {
    match epochs.windows(2).find(|w| w[1] <= w[0]) {
        Some(w) => Err(format!("epoch {} acknowledged after {}", w[1], w[0])),
        None => Ok(()),
    }
}

fn check_snapped(got_from: NodeId, got_to: NodeId, from: NodeId, to: NodeId) -> Result<(), String> {
    if (got_from, got_to) != (from, to) {
        return Err(format!(
            "snapped to ({got_from:?}, {got_to:?}), in-process index snaps to ({from:?}, {to:?})"
        ));
    }
    Ok(())
}

/// Bit identity (so `inf` matches `inf` and any perturbation fails).
fn same_distance(got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("wire {got:?} != in-process {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_graph::generators::path_graph;

    fn rows(u: NodeId) -> Option<&'static [f64]> {
        const ROW0: [f64; 4] = [0.0, 1.5, 2.25, f64::INFINITY];
        const ROW2: [f64; 4] = [2.25, 0.75, 0.0, 4.0];
        match u.index() {
            0 => Some(&ROW0),
            2 => Some(&ROW2),
            _ => None,
        }
    }

    fn pairs() -> Vec<(NodeId, NodeId)> {
        [(0, 1), (0, 3), (2, 3), (2, 0)]
            .iter()
            .map(|&(u, v)| (NodeId::new(u), NodeId::new(v)))
            .collect()
    }

    #[test]
    fn accepts_the_exact_answer_and_rejects_one_perturbed_value() {
        let good: QueryResponse = "distances 4 1.5 inf 4.0 2.25".parse().unwrap();
        check_batch(&good, &pairs(), rows).unwrap();
        // One value off by a single ulp fails the whole response.
        let bad = QueryResponse::Distances {
            values: vec![1.5, f64::INFINITY, 4.0_f64.next_up(), 2.25],
            bound: None,
        };
        let err = check_batch(&bad, &pairs(), rows).unwrap_err();
        assert!(err.contains("pair 2"), "{err}");
        // So do a short answer and a refusal.
        let short = QueryResponse::distances(vec![1.5]);
        assert!(check_batch(&short, &pairs(), rows).is_err());
        let refused: QueryResponse = "error internal boom".parse().unwrap();
        assert!(check_batch(&refused, &pairs(), rows).is_err());
        // The digest form agrees: the exact line passes, the perturbed
        // one fails.
        check_batch_digest(line_key(&good.to_string()), &pairs(), rows).unwrap();
        assert!(check_batch_digest(line_key(&bad.to_string()), &pairs(), rows).is_err());
    }

    #[test]
    fn geo_answers_need_the_snapped_nodes_and_a_real_route() {
        let topo = path_graph(5);
        let n = NodeId::new;
        let d = QueryResponse::GeoDistance {
            from: n(1),
            to: n(3),
            value: 2.0,
            bound: None,
        };
        check_geo_distance(&d, n(1), n(3), 2.0).unwrap();
        assert!(check_geo_distance(&d, n(1), n(4), 2.0).is_err());
        assert!(check_geo_distance(&d, n(1), n(3), 2.0_f64.next_down()).is_err());

        let route = |nodes: Vec<usize>| QueryResponse::GeoRoute {
            from: n(1),
            to: n(3),
            nodes: nodes.into_iter().map(n).collect(),
        };
        check_geo_route(&route(vec![1, 2, 3]), n(1), n(3), &topo, None).unwrap();
        let want = [n(1), n(2), n(3)];
        check_geo_route(&route(vec![1, 2, 3]), n(1), n(3), &topo, Some(&want)).unwrap();
        // Skips an edge, or ends elsewhere.
        assert!(check_geo_route(&route(vec![1, 3]), n(1), n(3), &topo, None).is_err());
        assert!(check_geo_route(&route(vec![1, 2]), n(1), n(3), &topo, None).is_err());
    }

    #[test]
    fn epochs_must_strictly_increase() {
        check_epochs(&[2, 3, 4]).unwrap();
        assert!(check_epochs(&[2, 4, 4]).is_err());
        assert!(check_epochs(&[3, 2]).is_err());
        let ack = AdminResponse::Updated {
            namespace: "ns".into(),
            epoch: 7,
            rereleased: 1,
            eps: 1.0,
            delta: 0.0,
        };
        assert_eq!(check_updated(&ack), Ok(7));
    }
}
