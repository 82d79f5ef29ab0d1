//! The bench's wrapper around the store's request handler: it times each
//! `RequestHandler::handle` call, optionally records it as a span, and
//! keeps the release view of every committed epoch for the oracle.

use crate::trace::line_key;
use privpath_engine::QueryService;
use privpath_serve::{RequestHandler, StoreHandler};
use privpath_store::ReleaseStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

/// Prefix of the placement probe lines (`accuracy` queries, which touch
/// neither the cache nor the search).
pub const PROBE_PREFIX: &str = "accuracy ";

/// Sum and count of handle times for one request class.
#[derive(Default)]
pub struct HandleTimes {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl HandleTimes {
    fn add(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// `(calls, mean microseconds)` since the last take, and reset.
    pub fn take(&self) -> (u64, f64) {
        let ns = self.ns.swap(0, Ordering::Relaxed);
        let calls = self.calls.swap(0, Ordering::Relaxed);
        (calls, crate::stats::ratio(ns as f64 / 1e3, calls as f64))
    }
}

/// A handle span: the request line's key and the call's interval.
pub type HandleSpan = (u64, Instant, Instant);

pub struct BenchHandler {
    inner: StoreHandler,
    store: Arc<ReleaseStore>,
    namespace: String,
    pub reads: HandleTimes,
    pub writes: HandleTimes,
    tracing: AtomicBool,
    spans: Mutex<Vec<HandleSpan>>,
    /// Keep the release view after every `keep_every`-th committed epoch
    /// (0 keeps none).
    keep_every: AtomicU64,
    epochs: Mutex<Vec<(u64, QueryService)>>,
    /// Which worker thread answered each placement probe line.
    probes: Mutex<HashMap<u64, ThreadId>>,
}

impl BenchHandler {
    pub fn new(store: Arc<ReleaseStore>, namespace: &str) -> Self {
        BenchHandler {
            inner: StoreHandler::new(Arc::clone(&store)),
            store,
            namespace: namespace.to_string(),
            reads: HandleTimes::default(),
            writes: HandleTimes::default(),
            tracing: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            keep_every: AtomicU64::new(0),
            epochs: Mutex::new(Vec::new()),
            probes: Mutex::new(HashMap::new()),
        }
    }

    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::SeqCst);
    }

    pub fn take_spans(&self) -> Vec<HandleSpan> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }

    pub fn keep_epochs(&self, every: u64) {
        self.keep_every.store(every, Ordering::SeqCst);
    }

    pub fn take_epochs(&self) -> Vec<(u64, QueryService)> {
        std::mem::take(&mut *self.epochs.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The worker thread that answered the probe line with key `key`.
    pub fn probe_thread(&self, key: u64) -> Option<ThreadId> {
        self.probes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .copied()
    }
}

impl RequestHandler for BenchHandler {
    fn handle(&self, line: &str) -> String {
        let start = Instant::now();
        let response = self.inner.handle(line);
        let end = Instant::now();
        if line.starts_with(PROBE_PREFIX) {
            self.probes
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(line_key(line), std::thread::current().id());
        }
        let is_update = line.starts_with("update-weights");
        let class = if is_update { &self.writes } else { &self.reads };
        class.add(end.duration_since(start).as_nanos() as u64);
        if self.tracing.load(Ordering::Relaxed) {
            self.spans
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((line_key(line), start, end));
        }
        let every = self.keep_every.load(Ordering::Relaxed);
        if is_update && every > 0 {
            // One writer connection is served by one worker, line by
            // line, so no other update can commit between the one just
            // answered and this snapshot: its epoch is the acked one.
            if let Ok(snap) = self.store.snapshot(&self.namespace) {
                if snap.epoch() % every == 0 {
                    self.epochs
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((snap.epoch(), snap.service().clone()));
                }
            }
        }
        response
    }
}
