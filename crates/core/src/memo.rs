//! A concurrent, byte-bounded, build-once memo: the mechanism behind
//! every cache a sweep shares across its cells (feature planes,
//! quantised columns).
//!
//! * **build-once** — each key's value is built by exactly one thread;
//!   concurrent requesters for the same key block on a per-entry
//!   [`OnceLock`], while distinct keys build in parallel;
//! * **read-only after build** — values are shared as `Arc<V>` and
//!   never mutated;
//! * **memory-bounded** — after each build, least-recently-used built
//!   entries (never the one just built) are evicted until the resident
//!   bytes fit the budget. Eviction only costs a rebuild.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Per-key slot: the build-once cell plus an LRU tick.
struct Slot<V> {
    value: OnceLock<Arc<V>>,
    last_used: AtomicU64,
}

/// What one [`Memo::get_or_build`] call found and did.
#[derive(Debug)]
pub struct Lookup<V> {
    /// The key's value.
    pub value: Arc<V>,
    /// The value was already built when the request arrived.
    pub hit: bool,
    /// This call built the value (a miss that did not wait on another
    /// thread's build).
    pub built: bool,
    /// Entries this call evicted to get back under the budget.
    pub evicted: u64,
}

/// Build-once, LRU-evicting map from `K` to shared `V`s, sized by
/// `bytes_of`.
pub struct Memo<K, V> {
    budget_bytes: usize,
    bytes_of: fn(&V) -> usize,
    tick: AtomicU64,
    entries: Mutex<HashMap<K, Arc<Slot<V>>>>,
}

impl<K: Eq + Hash + Clone, V> Memo<K, V> {
    /// A memo evicting down to `budget_bytes` of resident values. The
    /// value just built is never the victim, so a single oversized
    /// value still caches (alone).
    pub fn new(budget_bytes: usize, bytes_of: fn(&V) -> usize) -> Self {
        Memo {
            budget_bytes,
            bytes_of,
            tick: AtomicU64::new(0),
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// The value for `key`, built by `build` (at most once per resident
    /// key, across all threads) on first use.
    pub fn get_or_build(&self, key: &K, build: impl FnOnce() -> V) -> Lookup<V> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = {
            let mut map = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            match map.get(key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot =
                        Arc::new(Slot { value: OnceLock::new(), last_used: AtomicU64::new(0) });
                    map.insert(key.clone(), Arc::clone(&slot));
                    slot
                }
            }
        };
        slot.last_used.store(tick, Ordering::Relaxed);
        if let Some(value) = slot.value.get() {
            return Lookup { value: Arc::clone(value), hit: true, built: false, evicted: 0 };
        }
        let mut built = false;
        let value = Arc::clone(slot.value.get_or_init(|| {
            built = true;
            Arc::new(build())
        }));
        let evicted = if built { self.enforce_budget(key) } else { 0 };
        Lookup { value, hit: false, built, evicted }
    }

    /// Evict least-recently-used built entries (other than `keep`)
    /// until the resident bytes fit the budget; returns how many went.
    fn enforce_budget(&self, keep: &K) -> u64 {
        let mut map = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut resident: usize =
            map.values().filter_map(|s| s.value.get()).map(|v| (self.bytes_of)(v)).sum();
        let mut evicted = 0;
        while resident > self.budget_bytes {
            let victim = map
                .iter()
                .filter(|(k, s)| *k != keep && s.value.get().is_some())
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(value) = map.remove(&victim).and_then(|s| s.value.get().cloned()) {
                resident -= (self.bytes_of)(&value);
            }
            evicted += 1;
        }
        evicted
    }

    /// Bytes of built values currently resident.
    pub fn resident_bytes(&self) -> usize {
        let map = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        map.values().filter_map(|s| s.value.get()).map(|v| (self.bytes_of)(v)).sum()
    }

    /// Number of built values currently resident.
    pub fn resident(&self) -> usize {
        let map = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        map.values().filter(|s| s.value.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memo(budget: usize) -> Memo<u32, Vec<u8>> {
        Memo::new(budget, Vec::len)
    }

    #[test]
    fn second_request_hits_the_same_value() {
        let m = memo(usize::MAX);
        let a = m.get_or_build(&1, || vec![1; 4]);
        assert!(!a.hit && a.built);
        let b = m.get_or_build(&1, || unreachable!("built once"));
        assert!(b.hit && !b.built);
        assert!(Arc::ptr_eq(&a.value, &b.value));
    }

    #[test]
    fn lru_victim_goes_first_and_the_new_value_stays() {
        let m = memo(8);
        m.get_or_build(&1, || vec![0; 4]);
        m.get_or_build(&2, || vec![0; 4]);
        m.get_or_build(&1, || unreachable!()); // refresh 1
        assert_eq!(m.get_or_build(&3, || vec![0; 4]).evicted, 1); // evicts 2
        assert!(m.get_or_build(&1, || unreachable!()).hit);
        assert!(m.get_or_build(&2, || vec![0; 4]).built, "an evicted key rebuilds");
        // Oversized: nothing else fits, but the value just built stays.
        let big = m.get_or_build(&9, || vec![0; 100]);
        assert_eq!(big.evicted, 2);
        assert_eq!((m.resident(), m.resident_bytes()), (1, 100));
    }

    #[test]
    fn concurrent_requesters_share_one_build() {
        let m = memo(usize::MAX);
        let builds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    m.get_or_build(&7, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        vec![7; 3]
                    })
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
    }
}
