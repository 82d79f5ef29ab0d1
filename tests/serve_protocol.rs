//! Serve-path conformance: the wire codec round-trips, the store's
//! request handler answers every verb on every release kind, and
//! concurrent `QueryService` readers agree with single-threaded serving.

use privpath::prelude::*;
use privpath::serve::{ErrorCode, RequestHandler, StoreHandler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// An engine over one random tree workload carrying a release of every
/// distance-capable kind (trees support all seven mechanisms at once).
fn all_kinds_engine(n: usize, seed: u64) -> ReleaseEngine {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = privpath::graph::generators::random_tree_prufer(n, &mut rng);
    let weights =
        privpath::graph::generators::uniform_weights(topo.num_edges(), 1.0, 9.0, &mut rng);
    let mut engine = ReleaseEngine::new(topo, weights).unwrap();
    engine
        .release(
            &mechanisms::ShortestPaths,
            &ShortestPathParams::new(eps(1.0), 0.05).unwrap(),
            &mut rng,
        )
        .unwrap();
    engine
        .release(
            &mechanisms::TreeAllPairs,
            &TreeDistanceParams::new(eps(1.0)),
            &mut rng,
        )
        .unwrap();
    engine
        .release(
            &mechanisms::HldTree,
            &TreeDistanceParams::new(eps(1.0)),
            &mut rng,
        )
        .unwrap();
    engine
        .release(
            &mechanisms::BoundedWeight,
            &BoundedWeightParams::pure(eps(1.0), 10.0).unwrap(),
            &mut rng,
        )
        .unwrap();
    engine
        .release(
            &mechanisms::SyntheticGraph,
            &mechanisms::SyntheticGraphParams::new(eps(1.0)),
            &mut rng,
        )
        .unwrap();
    engine
        .release(
            &mechanisms::AllPairsBaseline,
            &mechanisms::AllPairsBaselineParams::basic(eps(1.0)),
            &mut rng,
        )
        .unwrap();
    engine
        .release(
            &mechanisms::ShortcutApsp,
            &ShortcutApspParams::pure(eps(1.0), 10.0).unwrap(),
            &mut rng,
        )
        .unwrap();
    engine
}

/// A read-only handler over a fresh single-namespace store that holds
/// one release of every storable kind (all six fit one random tree), in
/// publish order `r0..r5`. The store directory is removed on drop.
struct KindsStore {
    dir: PathBuf,
    store: Arc<ReleaseStore>,
    handler: StoreHandler,
}

const STORED_KINDS: [ReleaseKind; 6] = [
    ReleaseKind::ShortestPath,
    ReleaseKind::Tree,
    ReleaseKind::BoundedWeight,
    ReleaseKind::SyntheticGraph,
    ReleaseKind::AllPairsBaseline,
    ReleaseKind::ShortcutApsp,
];

impl KindsStore {
    fn new(n: usize, seed: u64) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "privpath-serve-protocol-{seed}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = privpath::graph::generators::random_tree_prufer(n, &mut rng);
        let weights =
            privpath::graph::generators::uniform_weights(topo.num_edges(), 1.0, 9.0, &mut rng);
        let store = Arc::new(ReleaseStore::open(&dir).unwrap().with_seed(seed));
        store.create_namespace("t", topo, weights, None).unwrap();
        for kind in STORED_KINDS {
            let mut spec = ReleaseSpec::new(kind, eps(1.0)).unwrap();
            if matches!(kind, ReleaseKind::BoundedWeight | ReleaseKind::ShortcutApsp) {
                spec = spec.with_max_weight(10.0).unwrap();
            }
            store.publish("t", &spec).unwrap();
        }
        let handler = StoreHandler::read_only(Arc::clone(&store));
        KindsStore {
            dir,
            store,
            handler,
        }
    }

    /// The namespace's current snapshot view, for reference answers.
    fn service(&self) -> QueryService {
        self.store.snapshot("t").unwrap().service().clone()
    }

    /// Sends one request line through the handler and parses the
    /// response line, checking it re-renders byte for byte (nothing is
    /// lost on the wire).
    fn ask(&self, req: &QueryRequest) -> QueryResponse {
        let line = self.handler.handle(&req.to_string());
        let resp: QueryResponse = line.parse().unwrap();
        assert_eq!(resp.to_string(), line, "response changed on the wire");
        resp
    }
}

impl Drop for KindsStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn shuffled<T>(mut items: Vec<T>, rng: &mut StdRng) -> Vec<T> {
    // Fisher-Yates; the vendored rand has no shuffle helper.
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
    items
}

#[test]
fn batch_matches_per_query_answers_for_every_kind() {
    let n = 24;
    let kinds = KindsStore::new(n, 41);
    let service = kinds.service();
    assert_eq!(service.len(), STORED_KINDS.len());

    // Per kind: a shuffled batch with heavy source reuse, answered once
    // cold (every source searched) and once warm (every source from the
    // snapshot's cache). Both must equal the per-query answers.
    let mut rng = StdRng::seed_from_u64(7);
    for record in service.releases() {
        let mut pairs = Vec::new();
        for _ in 0..4 {
            let from = NodeId::new(rng.gen_range(0..n));
            for _ in 0..6 {
                pairs.push((from, NodeId::new(rng.gen_range(0..n))));
            }
        }
        let pairs = shuffled(pairs, &mut rng);
        let oracle = service.query(record.id()).unwrap();
        let req = QueryRequest::DistanceBatch {
            release: record.id().into(),
            pairs: pairs.clone(),
            gamma: None,
        };
        for pass in ["cold", "warm"] {
            match kinds.ask(&req) {
                QueryResponse::Distances { values, bound } => {
                    assert_eq!(values.len(), pairs.len());
                    for (&(u, v), d) in pairs.iter().zip(&values) {
                        assert_eq!(
                            *d,
                            oracle.distance(u, v).unwrap(),
                            "{} ({pass}): batch disagrees with per-query answer on {u}->{v}",
                            record.kind()
                        );
                    }
                    assert!(bound.is_none(), "no gamma requested, no bound expected");
                }
                other => panic!("expected distances for {}, got {other}", record.kind()),
            }
        }
        // Single `distance` lines agree too.
        let (u, v) = pairs[0];
        let resp = kinds.ask(&QueryRequest::Distance {
            release: record.id().into(),
            from: u,
            to: v,
            gamma: None,
        });
        assert_eq!(
            resp,
            QueryResponse::Distance {
                value: oracle.distance(u, v).unwrap(),
                bound: None
            }
        );
    }
}

#[test]
fn eight_concurrent_readers_agree_with_single_threaded_answers() {
    let n = 32;
    let engine = all_kinds_engine(n, 45);
    let service = engine.snapshot();

    // The reference answers, computed single-threaded.
    let mut rng = StdRng::seed_from_u64(99);
    let mut workload = Vec::new();
    for record in service.releases() {
        for _ in 0..20 {
            workload.push((
                record.id(),
                NodeId::new(rng.gen_range(0..n)),
                NodeId::new(rng.gen_range(0..n)),
            ));
        }
    }
    let reference: Vec<f64> = workload
        .iter()
        .map(|&(id, u, v)| service.query(id).unwrap().distance(u, v).unwrap())
        .collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..8 {
            let service = service.clone(); // two Arc bumps, no data copied
            let workload = &workload;
            let reference = &reference;
            handles.push(scope.spawn(move || {
                // Each thread walks the workload from a different offset
                // so threads hit different releases at the same time.
                let len = workload.len();
                for i in 0..len {
                    let idx = (i + t * len / 8) % len;
                    let (id, u, v) = workload[idx];
                    let d = service.query(id).unwrap().distance(u, v).unwrap();
                    assert_eq!(d, reference[idx], "thread {t} diverged at {idx}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}

#[test]
fn snapshot_is_isolated_from_later_releases() {
    let mut rng = StdRng::seed_from_u64(46);
    let topo = privpath::graph::generators::random_tree_prufer(10, &mut rng);
    let weights =
        privpath::graph::generators::uniform_weights(topo.num_edges(), 1.0, 5.0, &mut rng);
    let mut engine = ReleaseEngine::with_budget(topo, weights, eps(2.0), Delta::zero()).unwrap();
    engine
        .release(
            &mechanisms::TreeAllPairs,
            &TreeDistanceParams::new(eps(1.0)),
            &mut rng,
        )
        .unwrap();
    let before = engine.snapshot();
    assert_eq!(before.len(), 1);
    assert_eq!(before.spent(), (1.0, 0.0));
    assert_eq!(before.remaining(), Some((1.0, 0.0)));

    // The engine keeps writing; the old snapshot must not see it.
    engine
        .release(
            &mechanisms::SyntheticGraph,
            &mechanisms::SyntheticGraphParams::new(eps(1.0)),
            &mut rng,
        )
        .unwrap();
    assert_eq!(engine.len(), 2);
    assert_eq!(before.len(), 1);
    assert_eq!(before.spent(), (1.0, 0.0));
    let after = engine.snapshot();
    assert_eq!(after.len(), 2);
    assert_eq!(after.spent(), (2.0, 0.0));
}

#[test]
fn release_id_round_trips_and_rejects_garbage() {
    let id: ReleaseId = "r3".parse().unwrap();
    assert_eq!(id.value(), 3);
    assert_eq!(id.to_string(), "r3");
    assert_eq!(id.to_string().parse::<ReleaseId>().unwrap(), id);
    // Bare numerals are accepted for CLI convenience.
    assert_eq!("17".parse::<ReleaseId>().unwrap().value(), 17);
    for bad in ["", "r", "x3", "r3x", "r-1", "3.5", "r 3"] {
        assert!(
            bad.parse::<ReleaseId>().is_err(),
            "{bad:?} should not parse"
        );
    }
}

#[test]
fn unknown_release_and_unsupported_kind_map_to_wire_codes() {
    let kinds = KindsStore::new(8, 48);

    let missing: ReleaseId = "r99".parse().unwrap();
    let resp = kinds.ask(&QueryRequest::Distance {
        release: missing.into(),
        from: NodeId::new(0),
        to: NodeId::new(1),
        gamma: None,
    });
    assert!(matches!(
        resp,
        QueryResponse::Error {
            code: ErrorCode::UnknownRelease,
            ..
        }
    ));

    // A route from a route-capable kind, and the `unsupported` refusal
    // from every value-only kind.
    for (kind, record) in STORED_KINDS.iter().zip(kinds.service().releases()) {
        assert_eq!(record.kind(), *kind);
        let resp = kinds.ask(&QueryRequest::Path {
            release: record.id().into(),
            from: NodeId::new(0),
            to: NodeId::new(5),
        });
        match (kind, resp) {
            (ReleaseKind::ShortestPath, QueryResponse::Path(nodes)) => {
                assert_eq!(nodes.first(), Some(&NodeId::new(0)));
                assert_eq!(nodes.last(), Some(&NodeId::new(5)));
            }
            (_, QueryResponse::Error { code, message }) => {
                assert_eq!(code, ErrorCode::Unsupported, "{kind}: {message}");
                assert!(message.contains("value-only"), "{message}");
            }
            (_, other) => panic!("{kind}: unexpected path answer {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Codec round-trip properties.
// ---------------------------------------------------------------------------

/// Release refs with and without a namespace qualifier, so the codec
/// properties cover the live-store form too.
fn arb_release_ref() -> impl Strategy<Value = privpath::serve::ReleaseRef> {
    (0u64..10_000, any::<u64>()).prop_map(|(v, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let ns = match rng.gen_range(0..3) {
            0 => "",
            1 => "metro",
            _ => "Tenant_7-x",
        };
        if ns.is_empty() {
            format!("r{v}").parse().unwrap()
        } else {
            format!("{ns}/r{v}").parse().unwrap()
        }
    })
}

fn arb_namespace(rng: &mut StdRng) -> Option<String> {
    rng.gen_bool(0.5).then(|| "metro".to_string())
}

fn arb_gamma(rng: &mut StdRng) -> Option<f64> {
    rng.gen_bool(0.5).then(|| rng.gen_range(1e-6..0.999))
}

fn arb_request() -> impl Strategy<Value = QueryRequest> {
    (arb_release_ref(), 0usize..6, any::<u64>()).prop_map(|(release, variant, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match variant {
            0 => QueryRequest::Distance {
                release,
                from: NodeId::new(rng.gen_range(0..1000)),
                to: NodeId::new(rng.gen_range(0..1000)),
                gamma: arb_gamma(&mut rng),
            },
            1 => {
                let count = rng.gen_range(0..20);
                let pairs = (0..count)
                    .map(|_| {
                        (
                            NodeId::new(rng.gen_range(0..1000)),
                            NodeId::new(rng.gen_range(0..1000)),
                        )
                    })
                    .collect();
                let gamma = arb_gamma(&mut rng);
                QueryRequest::DistanceBatch {
                    release,
                    pairs,
                    gamma,
                }
            }
            2 => QueryRequest::Path {
                release,
                from: NodeId::new(rng.gen_range(0..1000)),
                to: NodeId::new(rng.gen_range(0..1000)),
            },
            3 => QueryRequest::Accuracy {
                release,
                gamma: rng.gen_range(1e-6..0.999),
            },
            4 => QueryRequest::ListReleases {
                namespace: arb_namespace(&mut rng),
            },
            _ => QueryRequest::BudgetStatus {
                namespace: arb_namespace(&mut rng),
            },
        }
    })
}

fn arb_float() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|s| match s % 4 {
        0 => 0.0,
        1 => f64::INFINITY,
        2 => 1.0e-12,
        _ => {
            let mut rng = StdRng::seed_from_u64(s);
            rng.gen_range(-1.0e9..1.0e9)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_codec_round_trips(req in arb_request()) {
        let line = req.to_string();
        let back: QueryRequest = line.parse().unwrap();
        prop_assert_eq!(back, req);
    }

    #[test]
    fn distance_response_round_trips(d in arb_float(), with_bound in any::<bool>()) {
        let resp = QueryResponse::Distance {
            value: d,
            bound: with_bound.then_some(d.abs() / 2.0),
        };
        let back: QueryResponse = resp.to_string().parse().unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn distances_response_round_trips(seed in any::<u64>(), count in 0usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds: Vec<f64> = (0..count).map(|_| rng.gen_range(0.0..1.0e6)).collect();
        let bound = rng.gen_bool(0.5).then(|| rng.gen_range(0.0..1.0e4));
        let resp = QueryResponse::Distances { values: ds, bound };
        let back: QueryResponse = resp.to_string().parse().unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn accuracy_response_round_trips(alpha in arb_float(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let theorems = [
            Theorem::Thm41, Theorem::Thm42, Theorem::Thm45, Theorem::Thm46,
            Theorem::Cor56, Theorem::Lem33, Theorem::Lem34, Theorem::ThmB3,
            Theorem::ThmB6, Theorem::CnxShortcut,
        ];
        let theorem = theorems[rng.gen_range(0..theorems.len())];
        let resp = QueryResponse::Accuracy(ErrorBound::new(
            theorem,
            alpha.abs(),
            rng.gen_range(1e-6..0.999),
        ));
        let back: QueryResponse = resp.to_string().parse().unwrap();
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn budget_response_round_trips(e in arb_float(), d in arb_float(), capped in any::<bool>()) {
        let resp = QueryResponse::Budget {
            spent_eps: e.abs(),
            spent_delta: d.abs(),
            remaining: capped.then_some((e.abs() / 2.0, d.abs() / 2.0)),
        };
        let back: QueryResponse = resp.to_string().parse().unwrap();
        prop_assert_eq!(back, resp);
    }
}

#[test]
fn releases_and_error_responses_round_trip() {
    let resp = QueryResponse::Releases(vec![
        ReleaseSummary {
            id: "r0".parse().unwrap(),
            kind: ReleaseKind::ShortestPath,
            eps: 1.5,
            delta: 1e-6,
            num_nodes: Some(128),
            accuracy: Some(ErrorBound::new(Theorem::Cor56, 812.25, 0.05)),
        },
        ReleaseSummary {
            id: "r3".parse().unwrap(),
            kind: ReleaseKind::Mst,
            eps: 0.25,
            delta: 0.0,
            num_nodes: None,
            accuracy: None,
        },
        ReleaseSummary {
            id: "r4".parse().unwrap(),
            kind: ReleaseKind::ShortcutApsp,
            eps: 1.0,
            delta: 1e-6,
            num_nodes: Some(1024),
            accuracy: Some(ErrorBound::new(Theorem::CnxShortcut, 1970.5, 0.05)),
        },
    ]);
    let back: QueryResponse = resp.to_string().parse().unwrap();
    assert_eq!(back, resp);

    // Error messages may contain anything, including newlines; the codec
    // squashes them so line framing survives, and whitespace normalizes.
    let resp = QueryResponse::Error {
        code: privpath::serve::ErrorCode::Query,
        message: "no path\nfrom 3 to 9".into(),
    };
    let line = resp.to_string();
    assert!(!line.contains('\n'));
    let back: QueryResponse = line.parse().unwrap();
    match back {
        QueryResponse::Error { code, message } => {
            assert_eq!(code, privpath::serve::ErrorCode::Query);
            assert_eq!(message, "no path from 3 to 9");
        }
        other => panic!("expected an error, got {other}"),
    }
}

#[test]
fn stats_wire_line_is_byte_stable() {
    // Regression for the cache-counter migration onto the metrics
    // registry: the `stats` admin line must stay byte-identical —
    // including the `cache <hits> <misses>` segment — even though the
    // counters now live in registry cells instead of bespoke fields.
    use privpath::serve::AdminResponse;
    use privpath::store::{ContinualStatus, NamespaceStats};
    let resp = AdminResponse::Stats(vec![
        NamespaceStats {
            namespace: "metro".into(),
            epoch: 3,
            releases: 2,
            spent_eps: 1.5,
            spent_delta: 0.0,
            remaining: Some((0.5, 0.0)),
            cache_hits: 10,
            cache_misses: 4,
            continual: None,
        },
        NamespaceStats {
            namespace: "stream".into(),
            epoch: 7,
            releases: 1,
            spent_eps: 0.25,
            spent_delta: 0.0,
            remaining: None,
            cache_hits: 0,
            cache_misses: 2,
            continual: Some(ContinualStatus {
                position: 5,
                horizon: 64,
                rho_spent: 0.1,
                rho_total: 0.5,
            }),
        },
    ]);
    assert_eq!(
        resp.to_string(),
        "stats 2 \
         metro 3 2 spent 1.5 0.0 remaining 0.5 0.0 cache 10 4 standard \
         stream 7 1 spent 0.25 0.0 unbounded cache 0 2 continual 5 64 rho 0.1 0.5"
    );
    let back: AdminResponse = resp.to_string().parse().unwrap();
    assert_eq!(back, resp);
}

#[test]
fn metrics_codec_round_trips_and_rejects_torn_frames() {
    assert_eq!(QueryRequest::Metrics.to_string(), "metrics");
    assert_eq!(
        "metrics".parse::<QueryRequest>().unwrap(),
        QueryRequest::Metrics
    );

    // Empty and populated multi-line frames survive the codec.
    for lines in [
        vec![],
        vec![
            "# TYPE serve_requests_total counter".to_string(),
            "serve_requests_total{verb=\"distance\"} 42".to_string(),
            "serve_request_seconds_bucket{verb=\"distance\",le=\"+Inf\"} 42".to_string(),
        ],
    ] {
        let resp = QueryResponse::Metrics { lines };
        let back: QueryResponse = resp.to_string().parse().unwrap();
        assert_eq!(back, resp);
    }

    // A header that promises more lines than the frame carries is torn,
    // not silently truncated; a non-numeric count is malformed.
    assert!("metrics 3\nonly one line".parse::<QueryResponse>().is_err());
    assert!("metrics zebra".parse::<QueryResponse>().is_err());
}

#[test]
fn trace_admin_codec_round_trips() {
    use privpath::serve::{AdminRequest, AdminResponse, TraceEntry};

    let req = AdminRequest::Trace { limit: 5 };
    assert_eq!(req.to_string(), "trace 5");
    assert_eq!("trace 5".parse::<AdminRequest>().unwrap(), req);
    // A bare `trace` gets the default limit.
    assert_eq!(
        "trace".parse::<AdminRequest>().unwrap(),
        AdminRequest::Trace { limit: 16 }
    );
    assert!("trace zebra".parse::<AdminRequest>().is_err());

    for entries in [
        vec![],
        vec![
            TraceEntry {
                op: "distance".into(),
                total_us: 1203,
                phases: vec![
                    ("parse".into(), 11),
                    ("search".into(), 1100),
                    ("encode".into(), 92),
                ],
            },
            TraceEntry {
                op: "metrics".into(),
                total_us: 40,
                phases: vec![],
            },
        ],
    ] {
        let resp = AdminResponse::Traces(entries);
        let back: AdminResponse = resp.to_string().parse().unwrap();
        assert_eq!(back, resp);
    }
}

#[test]
fn malformed_lines_are_rejected_with_reasons() {
    for bad in [
        "",
        "frobnicate r0 1 2",
        "distance",
        "distance r0 1",
        "distance r0 1 2 3",
        "distance zebra 1 2",
        "batch r0 2 1:2",
        "batch r0 1 12",
        "path r0 x 2",
        "distance r0 1 2 gamma",
        "distance r0 1 2 gamma x",
        "accuracy r0",
        "accuracy r0 zebra",
        "accuracy r0 0.05 extra",
    ] {
        assert!(
            bad.parse::<QueryRequest>().is_err(),
            "{bad:?} should not parse"
        );
    }
}

// ---------------------------------------------------------------------------
// Accuracy over the wire.
// ---------------------------------------------------------------------------

#[test]
fn distance_queries_carry_error_bars_for_every_kind() {
    let kinds = KindsStore::new(20, 51);
    let service = kinds.service();
    for record in service.releases() {
        let gamma = 0.1;
        let expected = service.accuracy(record.id(), gamma).unwrap();
        assert!(
            expected.alpha().is_finite() && expected.alpha() > 0.0,
            "{} bound degenerate",
            record.kind()
        );
        // The handler attaches the contract's bar, and it survives the
        // wire codec (`ask` checks the round trip).
        let resp = kinds.ask(&QueryRequest::Distance {
            release: record.id().into(),
            from: NodeId::new(0),
            to: NodeId::new(5),
            gamma: Some(gamma),
        });
        let QueryResponse::Distance { value, bound } = resp else {
            panic!("expected a distance for {}, got {resp}", record.kind());
        };
        assert!(value.is_finite());
        assert_eq!(bound, Some(expected.alpha()), "{}", record.kind());
    }
}

#[test]
fn batch_queries_share_one_error_bar() {
    let kinds = KindsStore::new(16, 52);
    let service = kinds.service();
    let id = service.releases().next().unwrap().id();
    let resp = kinds.ask(&QueryRequest::DistanceBatch {
        release: id.into(),
        pairs: vec![
            (NodeId::new(0), NodeId::new(3)),
            (NodeId::new(2), NodeId::new(9)),
        ],
        gamma: Some(0.05),
    });
    let QueryResponse::Distances { values, bound } = resp else {
        panic!("expected distances, got {resp}");
    };
    assert_eq!(values.len(), 2);
    assert_eq!(
        bound,
        Some(service.accuracy(id, 0.05).unwrap().alpha()),
        "batch bar must equal the contract at the requested gamma"
    );
}

#[test]
fn accuracy_queries_report_tighter_bounds_for_looser_confidence() {
    let kinds = KindsStore::new(16, 53);
    let service = kinds.service();
    let accuracy = |id: ReleaseId, gamma: f64| match kinds.ask(&QueryRequest::Accuracy {
        release: id.into(),
        gamma,
    }) {
        QueryResponse::Accuracy(b) => b,
        other => panic!("expected an accuracy bound, got {other}"),
    };
    for record in service.releases() {
        let tight = accuracy(record.id(), 0.01);
        let loose = accuracy(record.id(), 0.5);
        assert_eq!(tight, service.accuracy(record.id(), 0.01).unwrap());
        assert!(
            tight.alpha() >= loose.alpha(),
            "{}: shrinking gamma must not shrink the bound",
            record.kind()
        );
    }
    // Invalid gammas are Query errors on the wire, not crashes.
    let id = service.releases().next().unwrap().id();
    let resp = kinds.ask(&QueryRequest::Accuracy {
        release: id.into(),
        gamma: 1.5,
    });
    assert!(matches!(
        resp,
        QueryResponse::Error {
            code: ErrorCode::Query,
            ..
        }
    ));
}

#[test]
fn list_carries_kind_cost_and_accuracy_per_release() {
    let kinds = KindsStore::new(16, 54);
    let service = kinds.service();
    // `ask` checks the whole summary — accuracy triple included —
    // survives the codec.
    let resp = kinds.ask(&QueryRequest::ListReleases { namespace: None });
    let QueryResponse::Releases(rs) = &resp else {
        panic!("expected releases, got {resp}");
    };
    assert_eq!(rs.len(), STORED_KINDS.len());
    for (summary, record) in rs.iter().zip(service.releases()) {
        assert_eq!(summary.id, record.id());
        assert_eq!(summary.kind, record.kind());
        assert_eq!(summary.eps, record.eps());
        assert_eq!(summary.delta, record.delta());
        let expected = service.accuracy(record.id(), DEFAULT_GAMMA).unwrap();
        assert_eq!(summary.accuracy, Some(expected), "{}", record.kind());
    }
}

#[test]
fn invalid_gamma_on_distance_fails_like_accuracy_does() {
    let kinds = KindsStore::new(12, 55);
    let id = kinds.service().releases().next().unwrap().id();
    for gamma in [0.0, 1.0, 1.5, -0.2] {
        // A bad gamma must be an error, not a silently bar-less answer
        // (which would be indistinguishable from "no contract").
        for req in [
            QueryRequest::Distance {
                release: id.into(),
                from: NodeId::new(0),
                to: NodeId::new(3),
                gamma: Some(gamma),
            },
            QueryRequest::DistanceBatch {
                release: id.into(),
                pairs: vec![(NodeId::new(0), NodeId::new(3))],
                gamma: Some(gamma),
            },
        ] {
            let resp = kinds.ask(&req);
            assert!(
                matches!(
                    resp,
                    QueryResponse::Error {
                        code: ErrorCode::Query,
                        ..
                    }
                ),
                "gamma {gamma}: expected a query error, got {resp}"
            );
        }
    }
}

#[test]
fn shortcut_release_is_served_on_every_wire_surface() {
    // The shortcut kind flows through list / accuracy / bound responses
    // and each survives the codec (checked by `ask`).
    let kinds = KindsStore::new(24, 91);
    let id = kinds
        .service()
        .releases()
        .find(|r| r.kind() == ReleaseKind::ShortcutApsp)
        .expect("shortcut release published")
        .id();

    // list: the record names the kind and an evaluated cnx-shortcut bound.
    let list = kinds.ask(&QueryRequest::ListReleases { namespace: None });
    let QueryResponse::Releases(rs) = &list else {
        panic!("expected releases, got {list}");
    };
    let summary = rs.iter().find(|s| s.id == id).unwrap();
    assert_eq!(summary.kind, ReleaseKind::ShortcutApsp);
    let bound = summary.accuracy.as_ref().expect("contract declared");
    assert_eq!(bound.theorem(), Theorem::CnxShortcut);

    // accuracy: re-evaluable at any gamma over the wire.
    let resp = kinds.ask(&QueryRequest::Accuracy {
        release: id.into(),
        gamma: 0.2,
    });
    let QueryResponse::Accuracy(b) = &resp else {
        panic!("expected accuracy, got {resp}");
    };
    assert_eq!(b.theorem(), Theorem::CnxShortcut);
    assert!(b.alpha() < bound.alpha(), "looser gamma, smaller bound");

    // distance / batch with gamma: answers carry the ±bound error bar.
    for req in [
        QueryRequest::Distance {
            release: id.into(),
            from: NodeId::new(0),
            to: NodeId::new(5),
            gamma: Some(0.05),
        },
        QueryRequest::DistanceBatch {
            release: id.into(),
            pairs: vec![
                (NodeId::new(0), NodeId::new(5)),
                (NodeId::new(2), NodeId::new(9)),
            ],
            gamma: Some(0.05),
        },
    ] {
        let resp = kinds.ask(&req);
        let attached = match &resp {
            QueryResponse::Distance { bound, .. } => *bound,
            QueryResponse::Distances { bound, .. } => *bound,
            other => panic!("expected a distance answer, got {other}"),
        };
        assert_eq!(attached, Some(bound.alpha()));
    }
}
