//! The live-store backend: one [`RequestHandler`] fronting a
//! multi-tenant [`ReleaseStore`].
//!
//! Query verbs resolve their namespace first — an explicit `ns/r0`
//! prefix picks the namespace; a bare `r0` is accepted when the store
//! has exactly one namespace (the common single-tenant deployment) —
//! then answer against that namespace's **current snapshot**: an
//! immutable, epoch-stamped view obtained by one `Arc` clone, so
//! queries never block on writers and never observe a half-applied
//! mutation. `distance`/`batch` go through the snapshot's source cache.
//!
//! Admin verbs ([`crate::admin`]) call straight into the store's write
//! path, which serializes per namespace, debits the namespace budget
//! before drawing noise, persists, and hot-swaps the snapshot.

use crate::admin::{AdminRequest, AdminResponse, TraceEntry, ADMIN_VERBS};
use crate::protocol::{engine_error_code, ErrorCode, QueryRequest, QueryResponse, ReleaseSummary};
use crate::server::RequestHandler;
use privpath_engine::{EngineError, QueryService, ReleaseId, DEFAULT_GAMMA};
use privpath_graph::{EdgeId, NodeId};
use privpath_store::{NamespaceSnapshot, ReleaseStore, SnapError, SpatialIndex, StoreError};
use std::sync::Arc;

/// The query request verbs, for dispatch before parsing.
pub(crate) const QUERY_VERBS: [&str; 10] = [
    "distance",
    "batch",
    "path",
    "geo-distance",
    "geo-route",
    "geo-batch",
    "accuracy",
    "list",
    "budget",
    "metrics",
];

/// A [`RequestHandler`] over a live [`ReleaseStore`].
pub struct StoreHandler {
    store: Arc<ReleaseStore>,
    admin_enabled: bool,
}

impl StoreHandler {
    /// Wraps a store with the full surface: query verbs **and** the
    /// mutating admin verbs. Admin verbs are unauthenticated — bind this
    /// handler to an operator-local endpoint only (see [`crate::admin`]).
    pub fn new(store: Arc<ReleaseStore>) -> Self {
        StoreHandler {
            store,
            admin_enabled: true,
        }
    }

    /// Wraps a store **read-only**: query verbs answer from the live
    /// snapshots, every admin verb is refused with `error unsupported`.
    /// This is the handler to expose publicly; pair it with a
    /// [`new`](Self::new) handler on a local admin port over the same
    /// `Arc<ReleaseStore>` (the CLI's `serve --store ... --admin-port`
    /// does exactly that).
    pub fn read_only(store: Arc<ReleaseStore>) -> Self {
        StoreHandler {
            store,
            admin_enabled: false,
        }
    }

    /// The store being served.
    pub fn store(&self) -> &Arc<ReleaseStore> {
        &self.store
    }

    /// Resolves an optional namespace qualifier to a snapshot: explicit
    /// names must exist; a bare ref works only on a single-tenant store.
    fn resolve(&self, namespace: Option<&str>) -> Result<Arc<NamespaceSnapshot>, QueryResponse> {
        let not_found = |msg: String| QueryResponse::Error {
            code: ErrorCode::UnknownRelease,
            message: msg,
        };
        match namespace {
            Some(ns) => self
                .store
                .snapshot(ns)
                .map_err(|e| not_found(e.to_string())),
            None => {
                let names = self.store.namespaces();
                match names.as_slice() {
                    [] => Err(not_found("the store has no namespaces yet".into())),
                    [only] => self
                        .store
                        .snapshot(only)
                        .map_err(|e| not_found(e.to_string())),
                    _ => Err(not_found(format!(
                        "this store is multi-tenant ({}); qualify the release as \
                         <namespace>/r<N>",
                        names.join(", ")
                    ))),
                }
            }
        }
    }

    /// Answers one query verb; the `Err` side carries the wire error so
    /// every failure path can use `?`.
    fn answer_query(&self, req: &QueryRequest) -> Result<QueryResponse, QueryResponse> {
        Ok(match req {
            QueryRequest::Distance {
                release,
                from,
                to,
                gamma,
            } => {
                let snap = self.resolve(release.namespace())?;
                let value = snap
                    .distance(release.id(), *from, *to)
                    .map_err(engine_error)?;
                let bound = error_bar(snap.service(), release.id(), *gamma)?;
                QueryResponse::Distance { value, bound }
            }
            QueryRequest::DistanceBatch {
                release,
                pairs,
                gamma,
            } => {
                let snap = self.resolve(release.namespace())?;
                let values = snap
                    .distance_batch(release.id(), pairs)
                    .map_err(engine_error)?;
                let bound = error_bar(snap.service(), release.id(), *gamma)?;
                QueryResponse::Distances { values, bound }
            }
            QueryRequest::Path { release, from, to } => {
                let snap = self.resolve(release.namespace())?;
                QueryResponse::Path(route(snap.service(), release.id(), *from, *to)?)
            }
            QueryRequest::GeoDistance {
                release,
                from,
                to,
                gamma,
            } => {
                let snap = self.resolve(release.namespace())?;
                let (from, to) = snap_pair(geo_index(&snap)?, *from, *to).map_err(snap_error)?;
                let value = snap
                    .distance(release.id(), from, to)
                    .map_err(engine_error)?;
                let bound = error_bar(snap.service(), release.id(), *gamma)?;
                QueryResponse::GeoDistance {
                    from,
                    to,
                    value,
                    bound,
                }
            }
            QueryRequest::GeoRoute { release, from, to } => {
                let snap = self.resolve(release.namespace())?;
                let (from, to) = snap_pair(geo_index(&snap)?, *from, *to).map_err(snap_error)?;
                let nodes = route(snap.service(), release.id(), from, to)?;
                QueryResponse::GeoRoute { from, to, nodes }
            }
            QueryRequest::GeoBatch {
                release,
                pairs,
                gamma,
            } => {
                let snap = self.resolve(release.namespace())?;
                let index = geo_index(&snap)?;
                let snapped = pairs
                    .iter()
                    .enumerate()
                    .map(|(i, &(from, to))| {
                        snap_pair(index, from, to).map_err(|e| snap_error_at(i, e))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let values = snap
                    .distance_batch(release.id(), &snapped)
                    .map_err(engine_error)?;
                let bound = error_bar(snap.service(), release.id(), *gamma)?;
                QueryResponse::GeoDistances {
                    triples: snapped
                        .iter()
                        .zip(values)
                        .map(|(&(u, v), d)| (u, v, d))
                        .collect(),
                    bound,
                }
            }
            QueryRequest::Accuracy { release, gamma } => {
                let snap = self.resolve(release.namespace())?;
                let bound = snap
                    .service()
                    .accuracy(release.id(), *gamma)
                    .map_err(engine_error)?;
                QueryResponse::Accuracy(bound)
            }
            QueryRequest::ListReleases { namespace } => {
                let snap = self.resolve(namespace.as_deref())?;
                QueryResponse::Releases(
                    snap.service()
                        .releases()
                        .map(|r| ReleaseSummary {
                            id: r.id(),
                            kind: r.kind(),
                            eps: r.eps(),
                            delta: r.delta(),
                            num_nodes: r.release().as_distance().map(|o| o.num_nodes()),
                            accuracy: r.error_bound(DEFAULT_GAMMA),
                        })
                        .collect(),
                )
            }
            QueryRequest::BudgetStatus { namespace } => {
                let snap = self.resolve(namespace.as_deref())?;
                let (spent_eps, spent_delta) = snap.service().spent();
                QueryResponse::Budget {
                    spent_eps,
                    spent_delta,
                    remaining: snap.service().remaining(),
                }
            }
            // Telemetry is process-wide, not namespace-scoped; answer
            // straight from the global registry without resolving.
            QueryRequest::Metrics => QueryResponse::Metrics {
                lines: privpath_obs::MetricRegistry::global().render_lines(),
            },
        })
    }

    fn answer_admin(&self, req: &AdminRequest) -> AdminResponse {
        match req {
            AdminRequest::Publish { namespace, spec } => {
                match self.store.publish(namespace, spec) {
                    Ok(r) => AdminResponse::Published {
                        namespace: r.namespace,
                        id: r.id,
                        epoch: r.epoch,
                        eps: r.eps,
                        delta: r.delta,
                    },
                    Err(e) => admin_error(&e),
                }
            }
            AdminRequest::UpdateWeights {
                namespace,
                updates,
                full,
            } => {
                let updates: Vec<(EdgeId, f64)> =
                    updates.iter().map(|&(e, w)| (EdgeId::new(e), w)).collect();
                let outcome = if *full {
                    self.store.update_weights_full(namespace, &updates)
                } else {
                    self.store.update_weights_sparse(namespace, &updates)
                };
                match outcome {
                    Ok(r) => AdminResponse::Updated {
                        namespace: r.namespace,
                        epoch: r.epoch,
                        rereleased: r.rereleased,
                        eps: r.eps,
                        delta: r.delta,
                    },
                    Err(e) => admin_error(&e),
                }
            }
            AdminRequest::Drop {
                namespace,
                release: Some(id),
            } => match self.store.drop_release(namespace, *id) {
                Ok(epoch) => AdminResponse::Dropped {
                    namespace: namespace.clone(),
                    release: Some(*id),
                    epoch: Some(epoch),
                },
                Err(e) => admin_error(&e),
            },
            AdminRequest::Drop {
                namespace,
                release: None,
            } => match self.store.drop_namespace(namespace) {
                Ok(()) => AdminResponse::Dropped {
                    namespace: namespace.clone(),
                    release: None,
                    epoch: None,
                },
                Err(e) => admin_error(&e),
            },
            AdminRequest::Epoch { namespace } => match self.store.epoch(namespace) {
                Ok(epoch) => AdminResponse::Epoch {
                    namespace: namespace.clone(),
                    epoch,
                },
                Err(e) => admin_error(&e),
            },
            AdminRequest::Stats { namespace } => match namespace {
                Some(ns) => match self.store.stats_for(ns) {
                    Ok(s) => AdminResponse::Stats(vec![s]),
                    Err(e) => admin_error(&e),
                },
                None => AdminResponse::Stats(self.store.stats()),
            },
            AdminRequest::Trace { limit } => AdminResponse::Traces(
                privpath_obs::recent_traces(*limit)
                    .into_iter()
                    .map(|t| TraceEntry {
                        op: t.op.to_string(),
                        total_us: t.total_us,
                        phases: t
                            .phases
                            .iter()
                            .map(|&(name, us)| (name.to_string(), us))
                            .collect(),
                    })
                    .collect(),
            ),
        }
    }
}

/// The namespace's spatial index, or the `unsupported` refusal for a
/// namespace created without coordinates.
fn geo_index(snap: &NamespaceSnapshot) -> Result<&SpatialIndex, QueryResponse> {
    snap.geo().ok_or_else(|| QueryResponse::Error {
        code: ErrorCode::Unsupported,
        message: format!(
            "namespace {:?} carries no spatial index: geo verbs need a namespace \
             created with coordinates (`store init --from-gr G.gr --coords G.co`)",
            snap.namespace()
        ),
    })
}

fn engine_error(e: EngineError) -> QueryResponse {
    QueryResponse::from_engine_error(&e)
}

/// The error bar for a distance/batch request that asked for one.
///
/// Lenient on contract availability — a bar-less answer is still an
/// answer, so a release without a contract (or an unknown id, which the
/// distance query itself will report) yields `Ok(None)`. Strict on the
/// input — an invalid `gamma` fails the request, exactly as it fails an
/// `accuracy` request, instead of being silently indistinguishable from
/// "no contract".
fn error_bar(
    service: &QueryService,
    release: ReleaseId,
    gamma: Option<f64>,
) -> Result<Option<f64>, QueryResponse> {
    let Some(g) = gamma else { return Ok(None) };
    match service.accuracy(release, g) {
        Ok(bound) => Ok(Some(bound.alpha())),
        Err(EngineError::UnsupportedQuery { .. }) | Err(EngineError::UnknownRelease(_)) => Ok(None),
        Err(e) => Err(engine_error(e)),
    }
}

/// The released route between two vertices, or the `unsupported`
/// refusal for a value-only kind.
fn route(
    service: &QueryService,
    release: ReleaseId,
    from: NodeId,
    to: NodeId,
) -> Result<Vec<NodeId>, QueryResponse> {
    match service.query(release).map_err(engine_error)?.path(from, to) {
        Some(Ok(path)) => Ok(path.nodes().to_vec()),
        Some(Err(e)) => Err(engine_error(e)),
        None => Err(QueryResponse::Error {
            code: ErrorCode::Unsupported,
            message: format!("release {release} does not carry routes (value-only release)"),
        }),
    }
}

/// Snaps both endpoints of a coordinate pair to network nodes.
fn snap_pair(
    index: &SpatialIndex,
    from: (f64, f64),
    to: (f64, f64),
) -> Result<(NodeId, NodeId), SnapError> {
    let from = index.snap(from.0, from.1)?;
    let to = index.snap(to.0, to.1)?;
    Ok((from.node, to.node))
}

/// Maps a snap refusal onto a wire error: a coordinate outside the
/// network's snap bounds is `out-of-range` (the query was well-formed,
/// the place just isn't on this network); a non-finite coordinate is
/// `malformed` (the parser already rejects these on the wire path, so
/// this arm covers embedded callers).
fn snap_error(e: SnapError) -> QueryResponse {
    QueryResponse::Error {
        code: match e {
            SnapError::NonFinite { .. } => ErrorCode::Malformed,
            SnapError::OutOfBounds { .. } => ErrorCode::OutOfRange,
        },
        message: e.to_string(),
    }
}

/// [`snap_error`] with the failing pair's index, for batch requests.
fn snap_error_at(pair: usize, e: SnapError) -> QueryResponse {
    match snap_error(e) {
        QueryResponse::Error { code, message } => QueryResponse::Error {
            code,
            message: format!("pair {pair}: {message}"),
        },
        other => other,
    }
}

/// Maps a store failure onto a wire error code.
fn admin_error(e: &StoreError) -> AdminResponse {
    let code = match e {
        StoreError::Engine(inner) => engine_error_code(inner),
        StoreError::UnknownNamespace(_) => ErrorCode::UnknownRelease,
        StoreError::InvalidNamespace(_)
        | StoreError::InvalidSpec(_)
        | StoreError::InvalidUpdate(_) => ErrorCode::Malformed,
        StoreError::NamespaceExists(_) => ErrorCode::Query,
        // An exhausted stream is a budget condition: the horizon was the
        // privacy analysis's input, not a parse problem.
        StoreError::ContinualHorizon { .. } => ErrorCode::Budget,
        StoreError::ContinualAccountant(_) => ErrorCode::Malformed,
        // Geo failures reaching the wire are bad inputs (malformed
        // DIMACS, coordinate/topology mismatch), not server faults.
        StoreError::Geo(_) => ErrorCode::Malformed,
        StoreError::Io { .. } | StoreError::Manifest { .. } | StoreError::WriterPoisoned(_) => {
            ErrorCode::Internal
        }
    };
    AdminResponse::Error {
        code,
        message: e.to_string(),
    }
}

impl RequestHandler for StoreHandler {
    fn handle(&self, line: &str) -> String {
        let verb = line.split_whitespace().next().unwrap_or_default();
        if QUERY_VERBS.contains(&verb) {
            // Span op names come from the known-verb set (compile-time
            // constants), never from raw client bytes.
            let mut span = privpath_obs::Span::enter(crate::server::known_verb(line));
            match line.parse::<QueryRequest>() {
                Ok(req) => {
                    span.phase("parse");
                    let resp = self.answer_query(&req).unwrap_or_else(|e| e);
                    span.phase("search");
                    let rendered = resp.to_string();
                    span.phase("encode");
                    rendered
                }
                Err(e) => QueryResponse::Error {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                }
                .to_string(),
            }
        } else if ADMIN_VERBS.contains(&verb) {
            if !self.admin_enabled {
                return AdminResponse::Error {
                    code: ErrorCode::Unsupported,
                    message: format!(
                        "`{verb}` refused: this endpoint serves the store read-only \
                         (admin verbs live on the operator-local admin endpoint)"
                    ),
                }
                .to_string();
            }
            match line.parse::<AdminRequest>() {
                Ok(req) => self.answer_admin(&req).to_string(),
                Err(e) => AdminResponse::Error {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                }
                .to_string(),
            }
        } else {
            QueryResponse::Error {
                code: ErrorCode::Malformed,
                message: format!(
                    "unknown verb {verb:?} (query: {}; admin: {})",
                    QUERY_VERBS.join(", "),
                    ADMIN_VERBS.join(", ")
                ),
            }
            .to_string()
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn unknown_verb_message_lists_every_dispatched_verb() {
        let dir = std::env::temp_dir().join(format!("privpath-live-verbs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handler = StoreHandler::read_only(Arc::new(ReleaseStore::open(&dir).unwrap()));
        let line = handler.handle("frobnicate r0 1 2");
        assert!(line.starts_with("error malformed unknown verb"), "{line}");
        // The parenthesized list, verb by verb, is exactly the dispatch
        // tables in order.
        let (_, list) = line.rsplit_once('(').unwrap();
        let listed: Vec<&str> = list
            .trim_end_matches(')')
            .split([';', ','])
            .map(|t| {
                let t = t.trim();
                t.strip_prefix("query: ")
                    .or_else(|| t.strip_prefix("admin: "))
                    .unwrap_or(t)
            })
            .collect();
        let dispatched: Vec<&str> = QUERY_VERBS.iter().chain(&ADMIN_VERBS).copied().collect();
        assert_eq!(listed, dispatched);
        std::fs::remove_dir_all(&dir).ok();
    }
}
