//! An LRU of warm [`Workspace`]s shared across requests.
//!
//! Historically `rsnd` re-parsed the network text and re-ran the full
//! criticality sweep for every job — even when a burst of what-if queries
//! targeted the same network with the same spec. This cache fixes that:
//! workspaces are keyed by an FNV-1a content hash of the analysis-relevant
//! inputs (`ResolvedJob::workspace_key`: seed, weights source, aggregation,
//! SIB policy, network text), so every what-if against the same
//! configuration reuses one parsed, fully-swept [`Workspace`] and pays only
//! the incremental delta.
//!
//! Entries are [`WorkspaceSlot`]s, `Arc<Mutex<Option<Workspace>>>`: the
//! cache lock is held only for the map lookup, never during an analysis,
//! and a workspace evicted while a worker still holds its `Arc` simply
//! finishes that job and drops. A slot is `None` while its first user
//! builds the workspace under the slot's lock, so concurrent users of the
//! same key wait for that one build. Like the result cache, the full key
//! string is stored alongside the hash so a 64-bit collision degrades to a
//! miss instead of answering from the wrong network.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use robust_rsn::Workspace;

use crate::cache::fnv1a;

/// A cached workspace: `None` until its builder stores it.
pub type WorkspaceSlot = Arc<Mutex<Option<Workspace>>>;

struct Entry {
    key: String,
    workspace: WorkspaceSlot,
    last_used: u64,
}

/// A least-recently-used map from workspace keys to warm workspaces.
pub struct WorkspaceCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<u64, Entry>,
}

impl std::fmt::Debug for WorkspaceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkspaceCache")
            .field("capacity", &self.capacity)
            .field("len", &self.entries.len())
            .finish()
    }
}

impl WorkspaceCache {
    /// Creates a cache holding at most `capacity` workspaces; `0` disables
    /// caching entirely.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { capacity, tick: 0, entries: HashMap::new() }
    }

    /// Number of cached workspaces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the workspace for `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<WorkspaceSlot> {
        self.tick += 1;
        let entry = self.entries.get_mut(&fnv1a(key.as_bytes()))?;
        if entry.key != key {
            return None; // 64-bit hash collision: treat as a miss.
        }
        entry.last_used = self.tick;
        Some(Arc::clone(&entry.workspace))
    }

    /// Stores `workspace` under `key`, evicting the least-recently-used
    /// entry when at capacity.
    pub fn put(&mut self, key: &str, workspace: WorkspaceSlot) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let hash = fnv1a(key.as_bytes());
        if !self.entries.contains_key(&hash) && self.entries.len() >= self.capacity {
            if let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(hash, Entry { key: key.to_string(), workspace, last_used: self.tick });
    }

    /// Drops the workspace stored under `key`, if any — used when a request
    /// cycle could not restore a shared workspace to its pristine state.
    pub fn remove(&mut self, key: &str) {
        let hash = fnv1a(key.as_bytes());
        if self.entries.get(&hash).is_some_and(|e| e.key == key) {
            self.entries.remove(&hash);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robust_rsn::Workspace;
    use rsn_model::{InstrumentKind, Structure};

    fn workspace(name: &str) -> WorkspaceSlot {
        let s = Structure::series(vec![Structure::instrument_seg("a", 2, InstrumentKind::Generic)]);
        let (net, built) = s.build(name).unwrap();
        let ws = Workspace::builder(net).with_structure(&built).build_workspace().unwrap();
        Arc::new(Mutex::new(Some(ws)))
    }

    #[test]
    fn get_after_put_returns_the_same_workspace() {
        let mut cache = WorkspaceCache::new(2);
        let ws = workspace("t");
        cache.put("k", Arc::clone(&ws));
        let got = cache.get("k").unwrap();
        assert!(Arc::ptr_eq(&ws, &got));
        assert!(cache.get("other").is_none());
    }

    #[test]
    fn evicts_least_recently_used_and_supports_remove() {
        let mut cache = WorkspaceCache::new(2);
        cache.put("a", workspace("a"));
        cache.put("b", workspace("b"));
        assert!(cache.get("a").is_some()); // refresh "a"
        cache.put("c", workspace("c")); // evicts "b"
        assert!(cache.get("b").is_none());
        assert_eq!(cache.len(), 2);
        cache.remove("a");
        assert!(cache.get("a").is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_follows_exact_recency_order() {
        let mut cache = WorkspaceCache::new(3);
        for key in ["a", "b", "c"] {
            cache.put(key, workspace(key));
        }
        // Recency (least → most recent) is now a, b, c. Touch in an order
        // that inverts it, then overflow one entry at a time and check the
        // victims come out exactly least-recently-used first.
        assert!(cache.get("c").is_some());
        assert!(cache.get("b").is_some());
        assert!(cache.get("a").is_some()); // recency: c, b, a
        cache.put("d", workspace("d")); // evicts c
        assert!(cache.get("c").is_none());
        assert!(cache.get("b").is_some()); // recency: a, d, b
        cache.put("e", workspace("e")); // evicts a
        assert!(cache.get("a").is_none());
        assert_eq!(cache.len(), 3);
        // Re-putting an existing key refreshes it instead of growing.
        cache.put("d", workspace("d2"));
        cache.put("f", workspace("f")); // evicts b (d was refreshed)
        assert!(cache.get("b").is_none());
        assert!(cache.get("d").is_some());
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = WorkspaceCache::new(0);
        cache.put("a", workspace("a"));
        assert!(cache.is_empty());
    }
}
