//! Applying the output oracle to a run: in-process answers at the epoch
//! each read was served at.

use super::{err, Live, NS, WIDE_CHECK_EVERY};
use crate::load::Sample;
use crate::oracle;
use privpath_engine::{QueryService, ReleaseId};
use privpath_graph::NodeId;
use privpath_serve::{QueryRequest, QueryResponse};
use privpath_store::NamespaceSnapshot;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Checks one batch answer against one epoch's rows.
fn check_batch_read(
    req: &QueryRequest,
    s: &Sample,
    rows: &HashMap<NodeId, Vec<f64>>,
) -> Result<(), String> {
    let QueryRequest::DistanceBatch { pairs, .. } = req else {
        return Err(format!("expected a batch read, generated {req}"));
    };
    let row = |u: NodeId| rows.get(&u).map(Vec::as_slice);
    if s.response.is_empty() {
        oracle::check_batch_digest(s.digest, pairs, row)
    } else {
        let resp: QueryResponse = s.response.parse().map_err(err)?;
        oracle::check_batch(&resp, pairs, row)
    }
}

/// The oracle for reads answered at the store's current epoch.
pub(super) struct CurrentEpoch<'a> {
    live: &'a Live,
    snap: Arc<NamespaceSnapshot>,
    /// Fresh pool rows (hot batch workloads).
    rows: HashMap<NodeId, Vec<f64>>,
    routes: usize,
    distances: usize,
    wide_batches: usize,
    /// Reads compared with an in-process answer.
    pub(super) checked: usize,
}

impl<'a> CurrentEpoch<'a> {
    pub(super) fn new(live: &'a Live, problems: &mut Vec<String>) -> Result<Self, String> {
        let snap = live.store.snapshot(NS).map_err(err)?;
        let mut rows = HashMap::new();
        if !live.pool.is_empty() {
            rows = fresh_rows(snap.service(), live.id, &live.pool)?;
            // The cached read path must agree with the fresh rows too.
            for (&src, row) in &rows {
                let pairs: Vec<(NodeId, NodeId)> =
                    (0..row.len()).map(|v| (src, NodeId::new(v))).collect();
                let cached = snap.distance_batch(live.id, &pairs).map_err(err)?;
                if cached
                    .iter()
                    .zip(row)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    problems.push(format!(
                        "cached row of source {} differs from a fresh search",
                        src.index()
                    ));
                }
            }
        }
        Ok(CurrentEpoch {
            live,
            snap,
            rows,
            routes: 0,
            distances: 0,
            wide_batches: 0,
            checked: 0,
        })
    }

    pub(super) fn check(
        &mut self,
        req: &QueryRequest,
        s: &Sample,
        problems: &mut Vec<String>,
    ) -> Result<(), String> {
        if s.refused {
            return Ok(());
        }
        let verdict = match req {
            QueryRequest::DistanceBatch { pairs, .. } if self.rows.is_empty() => {
                // Sources spread over the whole graph: every
                // `WIDE_CHECK_EVERY`-th batch is compared with fresh rows.
                self.wide_batches += 1;
                if self.wide_batches % WIDE_CHECK_EVERY != 1 {
                    return Ok(());
                }
                let sources: Vec<NodeId> = pairs
                    .iter()
                    .map(|p| p.0)
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let rows = fresh_rows(self.snap.service(), self.live.id, &sources)?;
                check_batch_read(req, s, &rows)
            }
            QueryRequest::DistanceBatch { .. } => check_batch_read(req, s, &self.rows),
            QueryRequest::GeoDistance { from, to, .. }
            | QueryRequest::GeoRoute { from, to, .. } => self.check_geo(req, *from, *to, s)?,
            other => Err(format!("unexpected read {other}")),
        };
        self.checked += 1;
        if let Err(e) = verdict {
            problems.push(format!("read {}: {e}", s.index));
        }
        Ok(())
    }

    /// The geo verdict (inner) or an in-process failure (outer).
    fn check_geo(
        &mut self,
        req: &QueryRequest,
        from: (f64, f64),
        to: (f64, f64),
        s: &Sample,
    ) -> Result<Result<(), String>, String> {
        let index = self.snap.geo().ok_or("geo namespace lost its index")?;
        let resp: QueryResponse = match s.response.parse() {
            Ok(r) => r,
            Err(e) => return Ok(Err(e.to_string())),
        };
        let (su, sv) = match (index.snap(from.0, from.1), index.snap(to.0, to.1)) {
            (Ok(a), Ok(b)) => (a.node, b.node),
            _ => return Ok(Err("in-process snap refused".into())),
        };
        let oracle = self.snap.service().query(self.live.id).map_err(err)?;
        if matches!(req, QueryRequest::GeoRoute { .. }) {
            self.routes += 1;
            // Every 16th route is also compared hop by hop with a fresh
            // in-process search.
            let want = match (self.routes % 16 == 1).then(|| oracle.path(su, sv)) {
                Some(Some(Ok(path))) => Some(path.nodes().to_vec()),
                _ => None,
            };
            return Ok(oracle::check_geo_route(
                &resp,
                su,
                sv,
                &self.live.topo,
                want.as_deref(),
            ));
        }
        self.distances += 1;
        let want = self.snap.distance(self.live.id, su, sv).map_err(err)?;
        // Every 32nd distance is also recomputed fresh.
        if self.distances % 32 == 1 {
            let fresh = oracle.distance(su, sv).map_err(err)?;
            if fresh.to_bits() != want.to_bits() {
                return Ok(Err(format!("cached {want:?} != fresh {fresh:?}")));
            }
        }
        Ok(oracle::check_geo_distance(&resp, su, sv, want))
    }
}

/// The update-mixed oracle: each read must match the answer at one of the
/// epochs it could have been served at (acked before it was sent ..
/// sent before it was answered). Only some epochs' release views are
/// kept: a read is checked when every candidate epoch was kept (then a
/// mismatch fails the run) or when it matches a kept one.
pub(super) struct AcrossEpochs {
    rows_by_epoch: HashMap<u64, HashMap<NodeId, Vec<f64>>>,
    /// `(sent, acked, epoch)` of every acknowledged update.
    acks: Vec<(Instant, Instant, u64)>,
    first_epoch: u64,
    pub(super) checked: usize,
}

impl AcrossEpochs {
    pub(super) fn new(
        live: &Live,
        kept: &[(u64, QueryService)],
        acks: Vec<(Instant, Instant, u64)>,
        first_epoch: u64,
    ) -> Result<Self, String> {
        let mut rows_by_epoch = HashMap::new();
        for (epoch, service) in kept {
            rows_by_epoch.insert(*epoch, fresh_rows(service, live.id, &live.pool)?);
        }
        Ok(AcrossEpochs {
            rows_by_epoch,
            acks,
            first_epoch,
            checked: 0,
        })
    }

    pub(super) fn check(&mut self, req: &QueryRequest, s: &Sample, problems: &mut Vec<String>) {
        if s.refused {
            return;
        }
        let latest = |keep: &dyn Fn(&(Instant, Instant, u64)) -> bool| {
            self.acks
                .iter()
                .filter(|a| keep(a))
                .map(|a| a.2)
                .max()
                .unwrap_or(self.first_epoch)
        };
        let lo = latest(&|a| a.1 < s.sent);
        let hi = latest(&|a| a.0 < s.done);
        let candidates: Vec<&HashMap<NodeId, Vec<f64>>> = (lo..=hi)
            .filter_map(|e| self.rows_by_epoch.get(&e))
            .collect();
        let all_kept = candidates.len() as u64 == hi - lo + 1;
        let mut last = String::new();
        let mut matched = false;
        for rows in candidates {
            match check_batch_read(req, s, rows) {
                Ok(()) => {
                    matched = true;
                    break;
                }
                Err(e) => last = e,
            }
        }
        if matched || all_kept {
            self.checked += 1;
        }
        if !matched && all_kept {
            problems.push(format!("read {} (epochs {lo}..={hi}): {last}", s.index));
        }
    }
}

/// The in-process answers the oracle compares against: full source rows
/// of one release view, computed fresh (no cache).
fn fresh_rows(
    service: &QueryService,
    id: ReleaseId,
    pool: &[NodeId],
) -> Result<HashMap<NodeId, Vec<f64>>, String> {
    let rows = service
        .query(id)
        .map_err(err)?
        .source_distance_rows(pool)
        .map_err(err)?;
    Ok(pool.iter().copied().zip(rows).collect())
}
