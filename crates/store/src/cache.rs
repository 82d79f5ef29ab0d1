//! The read-path source cache: released distance rows keyed by
//! `(release, source)`.
//!
//! For graph-replaying releases every distinct source costs a Dijkstra,
//! and one full row (from
//! [`source_distance_rows`](privpath_engine::DistanceRelease::source_distance_rows))
//! answers every target of that source. The cache keeps such rows per
//! `(release, source)` behind a small fixed array of sharded locks, so
//! concurrent readers on different sources rarely contend.
//!
//! **What fills it.** A batch read computes full rows for its missing
//! sources anyway, so it keeps every one. A single-pair `distance` read
//! that misses answers with a search that stops at its target and has no
//! full row, so a source's first miss caches no row: it only remembers
//! that one answer (a few bytes), which answers the same pair again. A
//! later miss from that source with another target pays one full search
//! and caches the row. So an origin asked for many destinations (a
//! navigation frontend) is served from its row from its third read on,
//! a repeated pair is a hit from its second, and a cold point-to-point
//! workload, whose sources rarely repeat, does not pin one `8·V`-byte
//! row per read.
//!
//! **Invalidation is structural, not tracked**: a cache instance belongs
//! to exactly one [`NamespaceSnapshot`](crate::NamespaceSnapshot), and
//! every epoch bump installs a fresh snapshot with a fresh, empty cache.
//! A stale answer cannot survive an `update-weights` because nothing
//! carries cached values across the swap. Hit/miss counters live in the
//! process-wide `privpath-obs` registry (`store_cache_hits_total{ns}` /
//! `store_cache_misses_total{ns}`), shared across a namespace's
//! snapshots so both `stats` and the `metrics` exposition report
//! cumulative totals from the same cells.

use privpath_obs::{Counter, MetricRegistry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of lock shards (a fixed power of two; the key hash picks one).
const NUM_SHARDS: usize = 16;

/// Cumulative cache counters for one namespace, across snapshots —
/// handles into the global metric registry. `Default` yields detached
/// (unexported) counters for tests and transient snapshots.
#[derive(Clone, Debug)]
pub(crate) struct CacheCounters {
    hits: Counter,
    misses: Counter,
}

impl Default for CacheCounters {
    fn default() -> Self {
        CacheCounters {
            hits: Counter::detached(),
            misses: Counter::detached(),
        }
    }
}

impl CacheCounters {
    /// Registry-backed counters for namespace `ns`, exported as
    /// `store_cache_hits_total{ns}` / `store_cache_misses_total{ns}`.
    /// The namespace name is operator-chosen public metadata, never
    /// request- or weight-derived, so it is safe as a label value.
    pub(crate) fn for_namespace(ns: &str) -> Self {
        let reg = MetricRegistry::global();
        CacheCounters {
            hits: reg.counter_with("store_cache_hits_total", &[("ns", ns)]),
            misses: reg.counter_with("store_cache_misses_total", &[("ns", ns)]),
        }
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits.value()
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses.value()
    }
}

/// One lock shard: the cached rows, and per key without a row the one
/// single-pair answer its first miss computed.
#[derive(Debug, Default)]
struct ShardState {
    rows: HashMap<(u64, usize), Arc<Vec<f64>>>,
    first_misses: HashMap<(u64, usize), (usize, f64)>,
}

type Shard = Mutex<ShardState>;

/// What a single-pair read should do, from
/// [`SourceCache::lookup_pair`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum PairLookup {
    /// Answered from a cached row or a remembered answer (a hit).
    Hit(f64),
    /// The source missed before with another target: compute its full
    /// row and [`insert`](SourceCache::insert) it.
    FillRow,
    /// The source's first miss: answer with a point-to-point search and
    /// [`remember`](SourceCache::remember) the answer.
    Search,
}

/// One snapshot's source-row cache.
#[derive(Debug)]
pub(crate) struct SourceCache {
    shards: Vec<Shard>,
    per_shard_capacity: usize,
    counters: CacheCounters,
}

impl SourceCache {
    /// A cache bounded at roughly `capacity` source rows (and as many
    /// remembered single-pair answers), reporting into `counters`.
    pub(crate) fn new(capacity: usize, counters: CacheCounters) -> Self {
        let per_shard_capacity = capacity.div_ceil(NUM_SHARDS).max(1);
        SourceCache {
            shards: (0..NUM_SHARDS).map(|_| Shard::default()).collect(),
            per_shard_capacity,
            counters,
        }
    }

    /// The shard holding `(release, source)`, locked. A shard guards
    /// plain maps: a reader that panicked mid-lookup cannot corrupt them,
    /// so recover from poisoning — a cache must never take down the read
    /// path.
    fn lock(&self, release: u64, source: usize) -> MutexGuard<'_, ShardState> {
        // A cheap mix of the two key halves; NUM_SHARDS is a power of two.
        let h = release
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(source as u64)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.shards[(h >> 32) as usize % NUM_SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached row for `(release, source)` if present, counting a
    /// hit; `None` counts nothing (the caller is expected to follow up
    /// with [`insert`](Self::insert), which counts the miss). Batch reads
    /// use peek/insert so all their misses can be computed in one
    /// parallel fan-out instead of one Dijkstra at a time.
    pub(crate) fn peek(&self, release: u64, source: usize) -> Option<Arc<Vec<f64>>> {
        let hit = self
            .lock(release, source)
            .rows
            .get(&(release, source))
            .map(Arc::clone);
        if hit.is_some() {
            self.counters.hits.inc();
        }
        hit
    }

    /// One single-pair read's lookup of `(release, source)` → `target`
    /// (`target` must be in range for the release's rows). A hit is
    /// counted here; the caller's [`insert`](Self::insert) or
    /// [`remember`](Self::remember) counts a miss.
    pub(crate) fn lookup_pair(&self, release: u64, source: usize, target: usize) -> PairLookup {
        let key = (release, source);
        let mut guard = self.lock(release, source);
        let hit = match (guard.rows.get(&key), guard.first_misses.get(&key)) {
            (Some(row), _) => Some(row[target]),
            (None, Some(&(t, d))) if t == target => Some(d),
            _ => None,
        };
        if let Some(d) = hit {
            self.counters.hits.inc();
            return PairLookup::Hit(d);
        }
        if guard.first_misses.remove(&key).is_some() {
            PairLookup::FillRow
        } else {
            PairLookup::Search
        }
    }

    /// Remembers the answer a source's first single-pair miss computed,
    /// counting the miss. The remembered answers are bounded like the
    /// rows; a full shard forgets them all.
    pub(crate) fn remember(&self, release: u64, source: usize, target: usize, distance: f64) {
        self.counters.misses.inc();
        let mut guard = self.lock(release, source);
        if guard.first_misses.len() >= self.per_shard_capacity {
            guard.first_misses.clear();
        }
        guard
            .first_misses
            .insert((release, source), (target, distance));
    }

    /// Stores a computed row for `(release, source)`, counting a miss
    /// and evicting if the shard is at capacity; returns the shared
    /// handle. A racing insert of the same key is harmless: both rows
    /// are identical post-processing of the same release.
    pub(crate) fn insert(&self, release: u64, source: usize, vector: Vec<f64>) -> Arc<Vec<f64>> {
        let vector = Arc::new(vector);
        self.counters.misses.inc();
        let mut guard = self.lock(release, source);
        if guard.rows.len() >= self.per_shard_capacity {
            // Bounded memory beats recency here: evict an arbitrary
            // entry (HashMap order) rather than tracking LRU on the hot
            // path.
            if let Some(&victim) = guard.rows.keys().next() {
                guard.rows.remove(&victim);
            }
        }
        guard.rows.insert((release, source), Arc::clone(&vector));
        vector
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss_and_counters() {
        let counters = CacheCounters::default();
        let cache = SourceCache::new(8, counters.clone());
        assert!(cache.peek(0, 3).is_none());
        let v1 = cache.insert(0, 3, vec![1.0, 2.0]);
        let v2 = cache.peek(0, 3).unwrap();
        assert!(Arc::ptr_eq(&v1, &v2));
        assert_eq!(counters.hits(), 1);
        assert_eq!(counters.misses(), 1);
    }

    #[test]
    fn capacity_is_bounded() {
        let cache = SourceCache::new(4, CacheCounters::default());
        for s in 0..1000 {
            cache.insert(0, s, vec![s as f64]);
        }
        let total: usize = cache
            .shards
            .iter()
            .map(|s| s.lock().unwrap().rows.len())
            .sum();
        assert!(total <= NUM_SHARDS, "cache grew past its bound: {total}");
    }

    #[test]
    fn single_pair_lookups_remember_then_fill_the_row() {
        let counters = CacheCounters::default();
        let cache = SourceCache::new(4, counters.clone());
        assert_eq!(cache.lookup_pair(0, 3, 1), PairLookup::Search);
        cache.remember(0, 3, 1, 2.5);
        assert_eq!(cache.lookup_pair(0, 3, 1), PairLookup::Hit(2.5));
        assert_eq!(
            cache.lookup_pair(1, 3, 1),
            PairLookup::Search,
            "per release"
        );
        assert_eq!(cache.lookup_pair(0, 3, 0), PairLookup::FillRow);
        cache.insert(0, 3, vec![7.0, 2.5]);
        assert_eq!(cache.lookup_pair(0, 3, 0), PairLookup::Hit(7.0));
        assert_eq!((counters.hits(), counters.misses()), (2, 2));
        for s in 0..1000 {
            cache.remember(0, s, 0, 0.0);
        }
        let remembered: usize = cache
            .shards
            .iter()
            .map(|s| s.lock().unwrap().first_misses.len())
            .sum();
        assert!(
            remembered <= NUM_SHARDS,
            "remembered answers grew past their bound: {remembered}"
        );
    }
}
