//! Exact deltas of the process-global metric registry and the store's
//! namespace counters across a timed window.

use privpath_obs::MetricRegistry;
use privpath_store::ReleaseStore;

/// Every verb label `serve_requests_total` can carry.
const VERBS: [&str; 17] = [
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
    "publish",
    "update-weights",
    "drop",
    "epoch",
    "stats",
    "trace",
    "unknown",
];

/// The mechanism label of every release the bench publishes.
const MECHANISM: &str = "shortest-path";

/// One reading of every counter the bench derives layer metrics from.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub requests: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub epoch_bumps: u64,
    pub update_count: u64,
    pub update_s: f64,
    pub fsync_count: u64,
    pub fsync_s: f64,
    /// `engine_release_seconds` observations (the store's re-release
    /// path records none; kept to show that).
    pub release_count: u64,
    pub settled: u64,
    pub sources: u64,
    pub workspace_reuses: u64,
    pub noise_draws: u64,
    pub calibration_evals: u64,
}

impl Counters {
    /// Reads the registry and the namespace's cache counters.
    pub fn read(store: &ReleaseStore, ns: &str) -> Result<Self, String> {
        let reg = MetricRegistry::global();
        let stats = store.stats_for(ns).map_err(|e| e.to_string())?;
        let hist = |name: &str, labels: &[(&str, &str)]| {
            let s = reg.histogram_with(name, labels).snapshot();
            (s.count(), s.sum())
        };
        let (update_count, update_s) = hist("store_update_seconds", &[("ns", ns)]);
        let (fsync_count, fsync_s) = hist("store_fsync_seconds", &[]);
        let (release_count, _) = hist("engine_release_seconds", &[("mechanism", MECHANISM)]);
        Ok(Counters {
            requests: VERBS
                .iter()
                .map(|v| {
                    reg.counter_with("serve_requests_total", &[("verb", v)])
                        .value()
                })
                .sum(),
            bytes_read: reg.counter("serve_bytes_read_total").value(),
            bytes_written: reg.counter("serve_bytes_written_total").value(),
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            epoch_bumps: reg
                .counter_with("store_epoch_bumps_total", &[("ns", ns)])
                .value(),
            update_count,
            update_s,
            fsync_count,
            fsync_s,
            release_count,
            settled: reg.counter("search_settled_nodes_total").value(),
            sources: reg.counter("search_sources_total").value(),
            workspace_reuses: reg
                .counter("search_workspace_generation_reuses_total")
                .value(),
            noise_draws: reg.counter("dp_noise_draws_total").value(),
            calibration_evals: reg.counter("dp_calibration_evaluations_total").value(),
        })
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            requests: self.requests - before.requests,
            bytes_read: self.bytes_read - before.bytes_read,
            bytes_written: self.bytes_written - before.bytes_written,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            epoch_bumps: self.epoch_bumps - before.epoch_bumps,
            update_count: self.update_count - before.update_count,
            update_s: self.update_s - before.update_s,
            fsync_count: self.fsync_count - before.fsync_count,
            fsync_s: self.fsync_s - before.fsync_s,
            release_count: self.release_count - before.release_count,
            settled: self.settled - before.settled,
            sources: self.sources - before.sources,
            workspace_reuses: self.workspace_reuses - before.workspace_reuses,
            noise_draws: self.noise_draws - before.noise_draws,
            calibration_evals: self.calibration_evals - before.calibration_evals,
        }
    }
}
