//! # privpath-serve — the serve path over DP release snapshots
//!
//! The paper's architecture — release once, query many — makes the read
//! path embarrassingly shareable: a DP release answers unboundedly many
//! queries at zero further privacy cost, so serving is pure fan-out over
//! an immutable artifact. This crate is that fan-out:
//!
//! * [`protocol`] — the typed [`QueryRequest`] / [`QueryResponse`] pairs
//!   with a line-delimited text codec (grammar in the module docs),
//!   shared by the server, the client, and the CLI. Release refs are
//!   optionally namespace-qualified ([`ReleaseRef`]) for multi-tenant
//!   live stores.
//! * [`admin`] — the namespace-scoped write verbs against a live store:
//!   `publish`, `update-weights`, `drop`, `epoch`, `stats`
//!   (budget-gated; typed [`AdminRequest`] / [`AdminResponse`]).
//! * [`live`] — [`StoreHandler`], the one backend that answers query
//!   verbs: it resolves a release ref's namespace to that namespace's
//!   current snapshot and answers from it (through the snapshot's source
//!   cache); [`StoreHandler::read_only`] refuses the admin verbs.
//! * [`server`] — a dependency-free `std::net` TCP server: fixed-size
//!   worker pool multiplexing connections over a shared
//!   [`RequestHandler`] backend (a live
//!   [`ReleaseStore`](privpath_store::ReleaseStore) via
//!   [`Server::bind_store`]) with per-connection error isolation and a
//!   graceful `shutdown` control line.
//! * [`client`] — a small blocking client for the same protocol.
//!
//! ## Example
//!
//! ```
//! use privpath_dp::{Delta, Epsilon};
//! use privpath_engine::ReleaseKind;
//! use privpath_graph::generators::{path_graph, uniform_weights};
//! use privpath_graph::NodeId;
//! use privpath_serve::{Client, QueryRequest, QueryResponse, ReleaseRef, Server};
//! use privpath_store::{ReleaseSpec, ReleaseStore};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! // Write path: a namespace with its own budget, one release published.
//! let dir = std::env::temp_dir().join(format!("privpath-serve-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let store = Arc::new(ReleaseStore::open(&dir)?);
//! let topo = path_graph(16);
//! let weights = uniform_weights(topo.num_edges(), 1.0, 5.0, &mut StdRng::seed_from_u64(1));
//! store.create_namespace("city", topo, weights, Some((Epsilon::new(2.0)?, Delta::zero())))?;
//! let spec = ReleaseSpec::new(ReleaseKind::ShortestPath, Epsilon::new(1.0)?)?;
//! let id = store.publish("city", &spec)?.id;
//!
//! // Read path: serve the store over TCP, query from a client.
//! let running = Server::bind_store("127.0.0.1:0", store)?.with_threads(2).spawn()?;
//! let mut client = Client::connect(running.addr())?;
//! let resp = client.request(&QueryRequest::Distance {
//!     release: ReleaseRef::namespaced("city", id)?,
//!     from: NodeId::new(0),
//!     to: NodeId::new(15),
//!     gamma: Some(0.05), // also return the ±bound at 95% confidence
//! })?;
//! assert!(matches!(
//!     resp,
//!     QueryResponse::Distance { value, bound: Some(b) } if value.is_finite() && b > 0.0
//! ));
//! drop(client);
//! running.shutdown()?; // graceful: drains connections, returns stats
//! std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod client;
pub mod live;
pub mod protocol;
pub mod server;

pub use admin::{AdminRequest, AdminResponse, TraceEntry};
pub use client::{Client, ClientError};
pub use live::StoreHandler;
pub use protocol::{
    ErrorCode, ParseLineError, QueryRequest, QueryResponse, ReleaseRef, ReleaseSummary,
};
pub use server::{RequestHandler, RunningServer, Server, ServerStats, MAX_LINE_BYTES};
