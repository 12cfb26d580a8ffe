//! An LRU result cache keyed by a content hash of the canonical job.
//!
//! The daemon serializes every resolved job (endpoint, network text, spec,
//! options, solver — defaults applied) into a canonical string, hashes it
//! with FNV-1a, and caches the exact response body it produced. Because the
//! JSON encoding is deterministic (see `wire`), a cache hit is byte-identical
//! to recomputing — the property the end-to-end tests pin.
//!
//! Entries store the canonical key alongside the value, so a 64-bit hash
//! collision degrades to a miss instead of serving a wrong result.
//!
//! Values are [`SharedBody`]s: a fill stores the serializer's own
//! allocation and a hit hands out another reference to it, so neither
//! copies the body, and evicting an entry never disturbs a response still
//! being written from it. Memory is entries × body size.

use std::collections::HashMap;
use std::sync::Arc;

use crate::http::SharedBody;

/// 64-bit FNV-1a over `bytes` — the content hash used for cache keys.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct Entry {
    key: String,
    value: SharedBody,
    last_used: u64,
}

/// A least-recently-used map from canonical job strings to response bodies.
pub struct LruCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<u64, Entry>,
}

impl std::fmt::Debug for LruCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("capacity", &self.capacity)
            .field("len", &self.entries.len())
            .finish()
    }
}

impl LruCache {
    /// Creates a cache holding at most `capacity` entries; `0` disables
    /// caching entirely.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { capacity, tick: 0, entries: HashMap::new() }
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the response for `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<SharedBody> {
        self.tick += 1;
        let entry = self.entries.get_mut(&fnv1a(key.as_bytes()))?;
        if entry.key != key {
            return None; // 64-bit hash collision: treat as a miss.
        }
        entry.last_used = self.tick;
        Some(Arc::clone(&entry.value))
    }

    /// Stores `value` under `key`, evicting the least-recently-used entry
    /// when at capacity.
    pub fn put(&mut self, key: &str, value: SharedBody) {
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
        self.entries.insert(hash, Entry { key: key.to_string(), value, last_used: self.tick });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> SharedBody {
        Arc::new(text.to_string())
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn get_after_put_hits() {
        let mut cache = LruCache::new(4);
        cache.put("job1", body("result1"));
        assert_eq!(cache.get("job1"), Some(body("result1")));
        assert_eq!(cache.get("job2"), None);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut cache = LruCache::new(2);
        cache.put("a", body("1"));
        cache.put("b", body("2"));
        assert_eq!(cache.get("a"), Some(body("1"))); // refresh "a"
        cache.put("c", body("3")); // evicts "b"
        assert_eq!(cache.get("a"), Some(body("1")));
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("c"), Some(body("3")));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn overwriting_a_key_does_not_evict() {
        let mut cache = LruCache::new(2);
        cache.put("a", body("1"));
        cache.put("b", body("2"));
        cache.put("a", body("1b"));
        assert_eq!(cache.get("a"), Some(body("1b")));
        assert_eq!(cache.get("b"), Some(body("2")));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.put("a", body("1"));
        assert!(cache.is_empty());
        assert_eq!(cache.get("a"), None);
    }

    #[test]
    fn a_hit_shares_the_allocation_the_fill_stored() {
        let mut cache = LruCache::new(2);
        let filled = body("front");
        cache.put("job", Arc::clone(&filled));
        let first = cache.get("job").expect("hit");
        let second = cache.get("job").expect("hit");
        assert!(Arc::ptr_eq(&first, &filled) && Arc::ptr_eq(&second, &filled));
        assert_eq!(Arc::strong_count(&filled), 4, "the fill, the entry and two hits");
    }

    #[test]
    fn evicting_an_entry_leaves_a_held_response_intact() {
        let mut cache = LruCache::new(1);
        cache.put("a", body("answer a"));
        let held = cache.get("a").expect("hit");
        cache.put("b", body("answer b")); // evicts "a"
        assert_eq!(cache.get("a"), None);
        assert_eq!(held.as_str(), "answer a");
        assert_eq!(Arc::strong_count(&held), 1, "the response is the last holder");
    }
}
