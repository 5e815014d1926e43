//! A sharded LRU map for memoizing computed kernel costs.
//!
//! The profiler evaluates the same kernel descriptors thousands of times —
//! a 50-step denoising loop re-costs an identical UNet kernel set every
//! step, and sweeps re-profile near-identical graphs point by point.
//! [`ShardedLru`] gives those callers a concurrent, bounded cache: keys
//! hash to one of a fixed number of shards, each shard is an independently
//! locked `HashMap`, and eviction inside a shard is least-recently-used by
//! a global access tick.
//!
//! Keys are hashed with [`FxHasher`], a multiply-rotate hash: a memo key
//! is a handful of machine words, and a lookup sits on the profiler's
//! per-op path, so a keyed SipHash would cost more than the probe. The
//! keys are simulator-generated, never adversarial. The shard comes from
//! high bits of the same hash the shard map buckets by.
//!
//! Values are handed out as `Arc<V>` so hits never clone the payload, and
//! the map never blocks readers of *other* shards while one shard evicts.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards. A small power of two: enough to
/// keep worker threads from serializing on one lock, small enough that a
/// bounded capacity still divides into useful per-shard budgets.
const SHARDS: usize = 8;

/// The shard is `hash >> SHARD_SHIFT` modulo [`SHARDS`]: bits above the
/// low ones a shard map indexes its buckets with (a shard holds far fewer
/// than 2^34 entries) and below the top seven the standard map keeps as a
/// per-slot tag, so neither loses entropy to the shard choice. After
/// [`FxHasher::finish`]'s rotation they are the product's top bits, the
/// best mixed.
const SHARD_SHIFT: u32 = 34;

/// A multiply-rotate word hasher in the style of the Firefox/rustc "Fx"
/// hash: each word is xored into the rotated state and multiplied by an
/// odd constant. `finish` rotates the well-mixed high product bits down
/// to the low bits the map's bucket index uses.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const K: u64 = 0xF135_7AEA_2E62_A9C5;
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.hash = (self.hash.rotate_left(5) ^ x).wrapping_mul(Self::K);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds the [`FxHasher`] every shard map and the shard pick share.
type FxBuild = BuildHasherDefault<FxHasher>;

/// One shard's map.
type Shard<K, V> = Mutex<HashMap<K, Slot<V>, FxBuild>>;

#[derive(Debug)]
struct Slot<V> {
    value: Arc<V>,
    last_used: u64,
}

/// A concurrent, bounded, sharded LRU map.
///
/// # Example
///
/// ```
/// let lru = mmg_gpu::ShardedLru::new(128);
/// assert!(lru.get(&"qk_gemm").is_none());
/// lru.insert("qk_gemm", 42u64);
/// assert_eq!(lru.get(&"qk_gemm").as_deref(), Some(&42));
/// assert_eq!(lru.hits(), 1);
/// assert_eq!(lru.misses(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    shards: Vec<Shard<K, V>>,
    capacity_per_shard: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq, V> ShardedLru<K, V> {
    /// A map holding at most `capacity` entries (rounded up to a multiple
    /// of the shard count, minimum one entry per shard).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ShardedLru {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            capacity_per_shard: capacity.div_ceil(SHARDS).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The index of the shard holding `key`.
    fn shard_index(key: &K) -> usize {
        (FxBuild::default().hash_one(key) >> SHARD_SHIFT) as usize % SHARDS
    }

    fn shard_of(&self, key: &K) -> &Shard<K, V> {
        &self.shards[Self::shard_index(key)]
    }

    /// Looks up `key`, refreshing its recency on a hit. Also counts the
    /// outcome into [`ShardedLru::hits`] / [`ShardedLru::misses`].
    #[must_use]
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut shard = self.shard_of(key).lock().expect("memo shard poisoned");
        match shard.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, evicting the shard's least-recently
    /// used entry if the shard is at capacity. Returns the shared value.
    ///
    /// Every access takes a fresh tick, so the evicted entry is the one
    /// with the unique minimum tick whatever order the map iterates in;
    /// this scan is the only iteration over a shard's entries.
    pub fn insert(&self, key: K, value: V) -> Arc<V>
    where
        K: Clone,
    {
        let value = Arc::new(value);
        let mut shard = self.shard_of(&key).lock().expect("memo shard poisoned");
        if !shard.contains_key(&key) && shard.len() >= self.capacity_per_shard {
            // Keys are small (shapes + enums + hashes); cloning one per
            // eviction beats maintaining a separate recency list.
            if let Some(lru_key) = shard
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.remove(&lru_key);
            }
        }
        shard.insert(
            key,
            Slot {
                value: Arc::clone(&value),
                last_used: self.tick.fetch_add(1, Ordering::Relaxed),
            },
        );
        value
    }

    /// Entries currently resident across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").len())
            .sum()
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the map since construction (or `clear`).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Counts `n` hits served outside [`ShardedLru::get`] — by a cache
    /// layered above this one that answers for `n` of its entries at
    /// once — so [`ShardedLru::hits`] reads as if each had been looked
    /// up here.
    pub fn credit_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Lookups that found nothing.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 before the first lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits();
        let m = self.misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Drops every entry and zeroes the hit/miss statistics.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("memo shard poisoned").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_round_trip() {
        let lru: ShardedLru<u32, String> = ShardedLru::new(64);
        assert!(lru.get(&7).is_none());
        lru.insert(7, "seven".to_string());
        assert_eq!(lru.get(&7).as_deref().map(String::as_str), Some("seven"));
        assert_eq!(lru.hits(), 1);
        assert_eq!(lru.misses(), 1);
        assert!((lru.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(8);
        lru.insert(1, 10);
        lru.insert(1, 20);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&1).as_deref(), Some(&20));
    }

    #[test]
    fn capacity_bounds_and_lru_eviction() {
        // One entry per shard: every colliding insert evicts.
        let lru: ShardedLru<u32, u32> = ShardedLru::new(1);
        // Find two keys in the same shard.
        let shard_idx = ShardedLru::<u32, u32>::shard_index;
        let a = 0u32;
        let b = (1..1000).find(|k| shard_idx(k) == shard_idx(&a)).unwrap();
        let c = (b + 1..2000).find(|k| shard_idx(k) == shard_idx(&a)).unwrap();
        lru.insert(a, 1);
        lru.insert(b, 2); // evicts a (LRU)
        assert!(lru.get(&a).is_none());
        assert_eq!(lru.get(&b).as_deref(), Some(&2));
        // b was just used; inserting c evicts nothing else but b stays.
        lru.insert(c, 3);
        assert_eq!(lru.get(&c).as_deref(), Some(&3));
    }

    #[test]
    fn recency_is_refreshed_by_get() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(SHARDS * 2);
        let shard_idx = ShardedLru::<u32, u32>::shard_index;
        let a = 0u32;
        let b = (1..1000).find(|k| shard_idx(k) == shard_idx(&a)).unwrap();
        let c = (b + 1..2000).find(|k| shard_idx(k) == shard_idx(&a)).unwrap();
        lru.insert(a, 1);
        lru.insert(b, 2);
        let _ = lru.get(&a); // a becomes MRU; b is now LRU
        lru.insert(c, 3); // shard at capacity 2: evicts b
        assert_eq!(lru.get(&a).as_deref(), Some(&1));
        assert!(lru.get(&b).is_none());
    }

    #[test]
    fn credited_hits_count_like_lookups() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(8);
        lru.insert(1, 1);
        let _ = lru.get(&1);
        lru.credit_hits(4);
        assert_eq!(lru.hits(), 5);
        assert_eq!(lru.misses(), 0);
        assert!((lru.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn keys_differing_in_one_field_stay_distinct() {
        // Shaped like the profiler's memo key: an op tag, its dimensions,
        // optional knobs and a device fingerprint.
        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        struct Key {
            op: u8,
            dims: [usize; 3],
            attn: Option<u8>,
            probes: usize,
            device: u64,
        }
        let base = Key { op: 2, dims: [2, 8, 4096], attn: Some(1), probes: 0, device: 0xA100 };
        let variants = [
            Key { op: 3, ..base.clone() },
            Key { dims: [2, 8, 4097], ..base.clone() },
            Key { dims: [8, 2, 4096], ..base.clone() },
            Key { attn: None, ..base.clone() },
            Key { attn: Some(0), ..base.clone() },
            Key { probes: 4096, ..base.clone() },
            Key { device: 0xA101, ..base.clone() },
        ];
        let lru: ShardedLru<Key, usize> = ShardedLru::new(64);
        lru.insert(base.clone(), 0);
        for (i, k) in variants.iter().enumerate() {
            assert!(lru.get(k).is_none(), "{k:?} must not find the base entry");
            lru.insert(k.clone(), i + 1);
        }
        assert_eq!(lru.len(), variants.len() + 1);
        assert_eq!(lru.get(&base).as_deref(), Some(&0));
        for (i, k) in variants.iter().enumerate() {
            assert_eq!(lru.get(k).as_deref(), Some(&(i + 1)), "{k:?}");
        }
    }

    #[test]
    fn consecutive_keys_spread_over_every_shard() {
        let mut used = [0usize; SHARDS];
        for k in 0..64u64 {
            used[ShardedLru::<u64, ()>::shard_index(&k)] += 1;
        }
        assert!(used.iter().all(|&n| n > 0), "shard use {used:?}");
    }

    #[test]
    fn clear_resets_everything() {
        let lru: ShardedLru<u32, u32> = ShardedLru::new(8);
        lru.insert(1, 1);
        let _ = lru.get(&1);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.hits(), 0);
        assert_eq!(lru.misses(), 0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let lru: Arc<ShardedLru<u64, u64>> = Arc::new(ShardedLru::new(256));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let lru = Arc::clone(&lru);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let k = (t * 37 + i) % 64;
                        if lru.get(&k).is_none() {
                            lru.insert(k, k * 2);
                        }
                    }
                });
            }
        });
        for k in 0..64u64 {
            if let Some(v) = lru.get(&k) {
                assert_eq!(*v, k * 2);
            }
        }
    }
}
