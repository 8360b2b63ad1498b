//! Sharded LRU result cache, keyed by [`RouteKey`].
//!
//! A route reply is a pure function of one request identity, and
//! [`RouteKey`] is that identity as one type with one constructor,
//! which both tiers call. The daemon memoizes finished **response
//! bodies** under the whole key ([`RouteKey::fnv`]). The proxy places
//! requests on shards by the request-derived part alone
//! ([`RouteKey::shard_fnv`]), so the tiers cannot disagree about which
//! requests are the same.
//!
//! The cache is split into independently locked shards: a key's shard
//! is a pure function of its hash ([`ShardedCache::shard_of`]), so two
//! requests contend only when they hash to the same shard. Each shard
//! is a classic doubly-linked LRU list over a `HashMap` index with
//! per-shard hit/miss/eviction counters. Entries store their full key
//! and probes compare it, so a 64-bit hash collision reads as a miss.
//!
//! A capacity of `0` disables caching entirely (every probe is a miss,
//! inserts are dropped) — the daemon's `--cache-capacity 0` mode, which
//! the determinism gate diffs against a cache-enabled daemon.

use crate::server::DEFAULT_CAL_ALPHA;
use codar_engine::{Backend, RouterKind};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The FNV-1a offset basis (shared by the key hash and the loadgen
/// stream checksum).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a hash state.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Folds `fields` into `hash`, each behind a `\0` so adjacent fields
/// cannot run together.
fn fold_fields(hash: u64, fields: &[&[u8]]) -> u64 {
    fields.iter().fold(hash, |hash, field| {
        fnv1a_extend(fnv1a_extend(hash, b"\0"), field)
    })
}

/// The identity of one route request: everything its reply depends on.
/// The first five fields come from the request; `seed`, `cal_version`
/// and `member` are the serving daemon's own state.
///
/// # Examples
///
/// ```
/// use codar_engine::RouterKind;
/// use codar_service::cache::RouteKey;
///
/// let key = |router| RouteKey::new("qreg q[2];".to_string(), "q20", router, None, None);
/// assert_ne!(key(RouterKind::Codar).fnv(), key(RouterKind::Sabre).fnv());
/// // Alpha is part of the key only where the router reads it.
/// assert_eq!(key(RouterKind::Codar).alpha_bits, None);
/// assert!(key(RouterKind::CodarCal).alpha_bits.is_some());
/// // Daemon state splits cache entries, not shard placement.
/// let mut served = key(RouterKind::Codar);
/// served.cal_version = 3;
/// assert_ne!(served.fnv(), key(RouterKind::Codar).fnv());
/// assert_eq!(served.shard_fnv(), key(RouterKind::Codar).shard_fnv());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteKey {
    /// The circuit as [`crate::server::canonicalize`] writes it.
    pub circuit: String,
    /// The device's catalog key ([`codar_arch::Device::catalog_key`]).
    pub device: &'static str,
    /// The requested router.
    pub router: RouterKind,
    /// Exact bits of the blend weight where the router reads it
    /// (`codar-cal`, and `auto` through its codar-cal member).
    pub alpha_bits: Option<u64>,
    /// Requested simulation backend.
    pub sim: Option<Backend>,
    /// The daemon's placement seed.
    pub seed: u64,
    /// Version of the device's active calibration snapshot (0 = none),
    /// so a reload stops every stale entry from being probed.
    pub cal_version: u64,
    /// The portfolio member an `auto` reply is bound to; `None` until a
    /// race has named one.
    pub member: Option<String>,
}

impl RouteKey {
    /// The key of a request, with the daemon's state zeroed for the
    /// daemon to fill in. An absent alpha is [`DEFAULT_CAL_ALPHA`].
    pub fn new(
        circuit: String,
        device: &'static str,
        router: RouterKind,
        alpha: Option<f64>,
        sim: Option<Backend>,
    ) -> RouteKey {
        let reads_alpha = matches!(router, RouterKind::CodarCal | RouterKind::Portfolio);
        RouteKey {
            circuit,
            device,
            router,
            alpha_bits: reads_alpha.then(|| alpha.unwrap_or(DEFAULT_CAL_ALPHA).to_bits()),
            sim,
            seed: 0,
            cal_version: 0,
            member: None,
        }
    }

    /// An `auto` request with no member yet: the portfolio must race,
    /// and the winner completes the key.
    pub fn explores(&self) -> bool {
        self.router == RouterKind::Portfolio && self.member.is_none()
    }

    /// FNV-1a over the request-derived fields: circuit, device, router,
    /// sim and alpha (the router decides whether alpha is present). It
    /// leaves out the seed, the calibration version and the member:
    /// the proxy cannot see them, and they cannot tell shards apart
    /// (shards share one seed, calibration uploads reach every shard,
    /// and the member comes from the serving shard's own win history).
    pub fn shard_fnv(&self) -> u64 {
        let sim = self.sim.map_or("", Backend::name);
        let alpha = self.alpha_bits.unwrap_or(0).to_le_bytes();
        let router = self.router.name().as_bytes();
        let fields = [
            self.circuit.as_bytes(),
            self.device.as_bytes(),
            router,
            sim.as_bytes(),
            &alpha,
        ];
        fold_fields(FNV_OFFSET, &fields)
    }

    /// FNV-1a over every field, extending [`RouteKey::shard_fnv`]. The
    /// cache's hash; probes still compare the whole key.
    pub fn fnv(&self) -> u64 {
        let member = self.member.as_deref().unwrap_or("").as_bytes();
        let fields = [
            &self.seed.to_le_bytes()[..],
            &self.cal_version.to_le_bytes(),
            member,
        ];
        fold_fields(self.shard_fnv(), &fields)
    }
}

/// Aggregate counters across all shards (a point-in-time snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total capacity in entries (sum over shards).
    pub capacity: usize,
    /// Number of shards.
    pub shards: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Probes that found their key.
    pub hits: u64,
    /// Probes that did not.
    pub misses: u64,
    /// Entries displaced by LRU eviction.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over probes, `0.0` when nothing was probed yet.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    hash: u64,
    /// The full key, compared on probe so hash collisions cannot serve
    /// a foreign result.
    key: RouteKey,
    /// Shared so a hit is a refcount bump inside the shard lock, not a
    /// deep copy of a multi-KB response body.
    value: Arc<str>,
    prev: usize,
    next: usize,
}

/// One independently locked LRU shard, indexed by key hash.
#[derive(Debug, Default)]
struct Shard {
    index: HashMap<u64, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most recently used node, `NIL` when empty.
    head: usize,
    /// Least recently used node, `NIL` when empty.
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            head: NIL,
            tail: NIL,
            ..Shard::default()
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn get(&mut self, hash: u64, key: &RouteKey) -> Option<Arc<str>> {
        match self.index.get(&hash).copied() {
            Some(slot) if self.nodes[slot].key == *key => {
                self.hits += 1;
                self.unlink(slot);
                self.push_front(slot);
                Some(Arc::clone(&self.nodes[slot].value))
            }
            // A hash collision (same 64-bit hash, different request)
            // is a miss: routing fresh is always correct.
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, hash: u64, key: RouteKey, value: Arc<str>, capacity: usize) {
        if let Some(&slot) = self.index.get(&hash) {
            // Same request: concurrent fill, refresh recency and keep
            // the (identical, routing is deterministic) value. A
            // colliding request overwrites — last writer wins; probes
            // compare keys, so correctness is unaffected either way.
            self.nodes[slot].key = key;
            self.nodes[slot].value = value;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        if self.index.len() >= capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.index.remove(&self.nodes[victim].hash);
            self.free.push(victim);
            self.evictions += 1;
        }
        let node = Node {
            hash,
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.index.insert(hash, slot);
        self.push_front(slot);
    }

    /// Hashes from most to least recently used (tests only).
    #[cfg(test)]
    fn lru_order(&self) -> Vec<u64> {
        let mut hashes = Vec::new();
        let mut slot = self.head;
        while slot != NIL {
            hashes.push(self.nodes[slot].hash);
            slot = self.nodes[slot].next;
        }
        hashes
    }
}

/// The sharded LRU cache (see the module docs).
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl ShardedCache {
    /// A cache of roughly `capacity` entries split over `shards`
    /// independently locked shards (each shard holds
    /// `ceil(capacity / shards)` entries, so the effective total is
    /// rounded up to a multiple of the shard count). `capacity == 0`
    /// disables caching; `shards` is clamped to at least 1.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_capacity,
        }
    }

    /// The shard a key hash lives in — a pure function of `(hash, shard
    /// count)`, so placement is stable across calls and instances.
    pub fn shard_of(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    /// Probes the cache, updating recency and the hit/miss counters.
    /// An entry whose hash matches but whose key differs (a 64-bit
    /// collision) reads as a miss.
    pub fn get(&self, key: &RouteKey) -> Option<Arc<str>> {
        let hash = key.fnv();
        self.shards[self.shard_of(hash)]
            .lock()
            .expect("cache shard poisoned")
            .get(hash, key)
    }

    /// Inserts a finished response body under its key (no-op when
    /// capacity is 0).
    pub fn insert(&self, key: &RouteKey, value: Arc<str>) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let hash = key.fnv();
        self.shards[self.shard_of(hash)]
            .lock()
            .expect("cache shard poisoned")
            .insert(hash, key.clone(), value, self.per_shard_capacity);
    }

    /// Point-in-time counters summed over the shards.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            capacity: self.per_shard_capacity * self.shards.len(),
            shards: self.shards.len(),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            stats.entries += shard.index.len();
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.evictions += shard.evictions;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(circuit: &str) -> RouteKey {
        RouteKey::new(circuit.to_string(), "q20", RouterKind::Codar, None, None)
    }

    #[test]
    fn hit_returns_inserted_value() {
        let cache = ShardedCache::new(8, 2);
        assert_eq!(cache.get(&key("m1")), None);
        cache.insert(&key("m1"), "one".into());
        assert_eq!(cache.get(&key("m1")).as_deref(), Some("one"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn colliding_material_reads_as_miss_never_as_foreign_hit() {
        // Same 64-bit hash, different request identity: the probe must
        // miss rather than serve another request's result.
        let (a, b) = (key("request A"), key("request B"));
        let mut shard = Shard::new();
        shard.insert(1, a.clone(), "result A".into(), 8);
        assert_eq!(shard.get(1, &b), None);
        // The collision overwrite keeps probes honest both ways.
        shard.insert(1, b.clone(), "result B".into(), 8);
        assert_eq!(shard.get(1, &a), None);
        assert_eq!(shard.get(1, &b).as_deref(), Some("result B"));
        // Keys that differ only in backend state collide in nothing
        // but the shard projection.
        let mut other_member = b.clone();
        other_member.member = Some("sabre".to_string());
        assert_eq!(shard.get(1, &other_member), None);
    }

    #[test]
    fn lru_eviction_order_is_least_recently_used_first() {
        // Single shard so the whole capacity is one LRU list.
        let mut shard = Shard::new();
        for hash in 0..4 {
            shard.insert(hash, key(&hash.to_string()), hash.to_string().into(), 4);
        }
        assert_eq!(shard.lru_order(), vec![3, 2, 1, 0]);
        // Touch 0 and 2: recency becomes [2, 0, 3, 1].
        shard.get(0, &key("0"));
        shard.get(2, &key("2"));
        assert_eq!(shard.lru_order(), vec![2, 0, 3, 1]);
        // Inserting two more evicts 1 then 3 (the two LRU tails).
        shard.insert(4, key("4"), Arc::from("4"), 4);
        assert_eq!(shard.lru_order(), vec![4, 2, 0, 3]);
        shard.insert(5, key("5"), Arc::from("5"), 4);
        assert_eq!(shard.lru_order(), vec![5, 4, 2, 0]);
        assert_eq!(shard.get(1, &key("1")), None);
        assert_eq!(shard.get(3, &key("3")), None);
        assert_eq!(shard.evictions, 2);
        // The survivors are all still retrievable.
        for hash in [0, 2, 4, 5] {
            assert_eq!(
                shard.get(hash, &key(&hash.to_string())).as_deref(),
                Some(hash.to_string().as_str()),
                "hash {hash}"
            );
        }
    }

    #[test]
    fn reinserting_existing_key_refreshes_recency_without_eviction() {
        let mut shard = Shard::new();
        for hash in 0..3 {
            shard.insert(hash, key(&hash.to_string()), Arc::from("v"), 3);
        }
        shard.insert(0, key("0"), Arc::from("v2"), 3);
        assert_eq!(shard.lru_order(), vec![0, 2, 1]);
        assert_eq!(shard.evictions, 0);
        assert_eq!(shard.get(0, &key("0")).as_deref(), Some("v2"));
    }

    #[test]
    fn shard_selection_is_stable() {
        let cache_a = ShardedCache::new(64, 8);
        let cache_b = ShardedCache::new(64, 8);
        for hash in (0..1000u64).map(|i| key(&i.to_string()).fnv()) {
            let shard = cache_a.shard_of(hash);
            assert_eq!(shard, cache_a.shard_of(hash), "stable across calls");
            assert_eq!(shard, cache_b.shard_of(hash), "stable across instances");
            assert!(shard < 8);
        }
        // Keys spread over all shards (FNV mixes low bits well).
        let mut seen = [false; 8];
        for i in 0..100u64 {
            seen[cache_a.shard_of(key(&i.to_string()).fnv())] = true;
        }
        assert!(seen.iter().all(|&s| s), "some shard never selected");
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let cache = ShardedCache::new(0, 4);
        cache.insert(&key("m"), "one".into());
        assert_eq!(cache.get(&key("m")), None);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.capacity, 0);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn capacity_rounds_up_to_shard_multiple() {
        let cache = ShardedCache::new(10, 4);
        assert_eq!(cache.stats().capacity, 12); // ceil(10/4) = 3 per shard
        let single = ShardedCache::new(10, 1);
        assert_eq!(single.stats().capacity, 10);
    }

    #[test]
    fn route_key_fields_are_separated_and_all_hashed() {
        // The separator keeps adjacent fields from running together.
        let split = |circuit: &str, device: &'static str| {
            RouteKey::new(circuit.to_string(), device, RouterKind::Codar, None, None)
        };
        assert_ne!(split("ab", "c").fnv(), split("a", "bc").fnv());
        assert_ne!(split("ab", "").shard_fnv(), split("a", "b").shard_fnv());
        // Every field moves the full hash; only request fields move the
        // shard projection.
        let base = key("qreg q[2];");
        let variants: [(RouteKey, bool); 7] = [
            (key("qreg q[3];"), true),
            (
                RouteKey {
                    device: "q5",
                    ..base.clone()
                },
                true,
            ),
            (
                RouteKey {
                    router: RouterKind::Sabre,
                    ..base.clone()
                },
                true,
            ),
            (
                RouteKey {
                    sim: Some(Backend::Dense),
                    ..base.clone()
                },
                true,
            ),
            (
                RouteKey {
                    seed: 1,
                    ..base.clone()
                },
                false,
            ),
            (
                RouteKey {
                    cal_version: 1,
                    ..base.clone()
                },
                false,
            ),
            (
                RouteKey {
                    member: Some("codar".into()),
                    ..base.clone()
                },
                false,
            ),
        ];
        for (variant, moves_shard) in variants {
            assert_ne!(variant.fnv(), base.fnv(), "{variant:?}");
            assert_eq!(
                variant.shard_fnv() != base.shard_fnv(),
                moves_shard,
                "{variant:?}"
            );
        }
        let cal = |alpha| RouteKey::new("c".into(), "q20", RouterKind::CodarCal, alpha, None);
        assert_eq!(cal(None), cal(Some(DEFAULT_CAL_ALPHA)));
        assert_ne!(cal(Some(0.25)).shard_fnv(), cal(None).shard_fnv());
    }

    #[test]
    fn evictions_count_per_shard_and_entries_track_capacity() {
        let cache = ShardedCache::new(4, 4); // 1 entry per shard
        for i in 0..100u64 {
            cache.insert(&key(&i.to_string()), Arc::from("x"));
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.evictions, 100 - 4);
    }
}
