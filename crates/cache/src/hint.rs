//! The location-hint store (§3.2.1).
//!
//! A hint is an `(object, location)` pair naming the node that caches the
//! nearest known copy of an object. The paper's key implementation insight
//! is to store hints as **small, fixed-sized records** — an 8-byte hash of
//! the URL plus an 8-byte machine identifier, 16 bytes total — in a simple
//! array managed as a **4-way set-associative cache** indexed by the URL
//! hash. At that size a hint is ~3 orders of magnitude smaller than the
//! average 10 KB object, so a cache that dedicates 10% of its space to
//! hints can index ~two orders of magnitude more data than it stores.
//!
//! [`HintCache`] reproduces exactly that structure (bounded, set
//! associative, with within-set LRU), plus an unbounded variant for the
//! "infinite hint cache" end of Figure 5.
//!
//! The bounded array is sized by what it holds, not by its capacity. It
//! starts at a power-of-two fraction of its configured set count and
//! doubles whenever an insert finds its set full; only at the configured
//! size does an insert displace a record. A key's set is `key % sets`,
//! and every allocated set count divides the configured one, so each
//! allocated set is the union of whole configured-size sets with their
//! records in the same LRU order. The array therefore holds exactly the
//! records the configured-size array would, and every result — lookups,
//! displacements, the counters, [`capacity_records`] and [`footprint`] —
//! is the configured-size array's.
//!
//! [`capacity_records`]: HintCache::capacity_records
//! [`footprint`]: HintCache::footprint

use bh_simcore::ByteSize;
use std::collections::HashMap;

/// Size of one hint record on disk/in memory: 8-byte key + 8-byte location.
pub const HINT_RECORD_BYTES: u64 = 16;

/// Associativity of the bounded store (the paper uses 4).
pub const DEFAULT_WAYS: usize = 4;

/// The fewest sets a bounded store starts with (unless its configured set
/// count is already smaller, or odd).
const MIN_SETS: usize = 16;

/// One hint record. `key == 0` marks an invalid (empty) slot, mirroring the
/// prototype's special hash value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HintRecord {
    /// 64-bit URL-hash key (0 = empty slot).
    pub key: u64,
    /// Opaque 64-bit machine identifier (IP + port in the prototype, node
    /// index in the simulator).
    pub location: u64,
}

/// The bounded store: `sets × ways` slots as parallel `Vec<u64>`s, so a
/// slot's key and location keep the 16-byte record layout of §3.2.1.
/// Each set holds its live records at its front, most recently used
/// first. `sets` starts at `full_sets / 2^k` and doubles toward
/// `full_sets` as sets fill.
#[derive(Debug, Clone)]
struct SetArray {
    keys: Vec<u64>,
    locs: Vec<u64>,
    /// Sets allocated now.
    sets: usize,
    /// Configured set count.
    full_sets: usize,
    ways: usize,
}

impl SetArray {
    /// Allocates the smallest power-of-two fraction of `full_sets` that
    /// keeps at least [`MIN_SETS`] sets.
    fn new(full_sets: usize, ways: usize) -> SetArray {
        let mut sets = full_sets;
        while sets.is_multiple_of(2) && sets / 2 >= MIN_SETS {
            sets /= 2;
        }
        SetArray {
            keys: vec![0u64; sets * ways],
            locs: vec![0u64; sets * ways],
            sets,
            full_sets,
            ways,
        }
    }

    fn range(&self, key: u64) -> std::ops::Range<usize> {
        let set = (key % self.sets as u64) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Doubles the set count. Set `s` splits into `s` and `s + sets`, each
    /// keeping its records in way order, so LRU order survives.
    fn grow(&mut self) {
        let (old, ways) = (self.sets, self.ways);
        self.sets *= 2;
        self.keys.resize(self.sets * ways, 0);
        self.locs.resize(self.sets * ways, 0);
        for set in 0..old {
            // Slot cursors for the two halves; `low` never passes `read`.
            let (mut low, mut high) = (set * ways, (set + old) * ways);
            for read in set * ways..(set + 1) * ways {
                let key = self.keys[read];
                if key == 0 {
                    break;
                }
                let loc = self.locs[read];
                self.keys[read] = 0;
                self.locs[read] = 0;
                let to = if (key % self.sets as u64) as usize == set {
                    &mut low
                } else {
                    &mut high
                };
                self.keys[*to] = key;
                self.locs[*to] = loc;
                *to += 1;
            }
        }
    }
}

/// The bounded array, or the unbounded map behind the "infinite hint
/// cache" point of Figure 5.
#[derive(Debug, Clone)]
enum Store {
    SetAssoc(SetArray),
    Unbounded(HashMap<u64, u64>),
}

/// The hint store. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct HintCache {
    store: Store,
    len: usize,
    /// Lookups that found a record.
    hits: u64,
    /// Lookups that found nothing.
    misses: u64,
    /// Insertions that displaced a valid record (set overflow).
    displacements: u64,
}

impl HintCache {
    /// Creates a bounded, 4-way set-associative store occupying at most
    /// `capacity` bytes at [`HINT_RECORD_BYTES`] per record.
    ///
    /// A capacity of [`ByteSize::MAX`] creates an unbounded store. Small
    /// capacities are rounded up to one full set.
    pub fn with_capacity(capacity: ByteSize) -> Self {
        Self::with_capacity_and_ways(capacity, DEFAULT_WAYS)
    }

    /// Creates a bounded store with explicit associativity (for the
    /// associativity ablation; the paper's choice is 4).
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`.
    pub fn with_capacity_and_ways(capacity: ByteSize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        if capacity.is_unlimited() {
            return Self::unbounded();
        }
        let entries = (capacity.as_bytes() / HINT_RECORD_BYTES).max(ways as u64) as usize;
        let sets = (entries / ways).max(1);
        Self::with_store(Store::SetAssoc(SetArray::new(sets, ways)))
    }

    /// Creates an unbounded store (perfect hint index).
    pub fn unbounded() -> Self {
        Self::with_store(Store::Unbounded(HashMap::new()))
    }

    fn with_store(store: Store) -> Self {
        HintCache {
            store,
            len: 0,
            hits: 0,
            misses: 0,
            displacements: 0,
        }
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of records (`None` if unbounded).
    pub fn capacity_records(&self) -> Option<usize> {
        match &self.store {
            Store::SetAssoc(a) => Some(a.full_sets * a.ways),
            Store::Unbounded(_) => None,
        }
    }

    /// Bytes this store may occupy at 16 bytes/record: the configured
    /// array size for the bounded store (not the bytes allocated so far),
    /// the live-record footprint for the unbounded one.
    pub fn footprint(&self) -> ByteSize {
        let records = match &self.store {
            Store::SetAssoc(a) => (a.full_sets * a.ways) as u64,
            Store::Unbounded(m) => m.len() as u64,
        };
        ByteSize::from_bytes(records * HINT_RECORD_BYTES)
    }

    /// Lookups that found a record so far.
    pub fn hit_count(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing so far.
    pub fn miss_count(&self) -> u64 {
        self.misses
    }

    /// Insertions that displaced a valid record so far.
    pub fn displacement_count(&self) -> u64 {
        self.displacements
    }

    /// Looks up the location hint for `key`, promoting it within its set.
    ///
    /// Keys of 0 are reserved for empty slots and always miss.
    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        if key == 0 {
            self.misses += 1;
            return None;
        }
        let found = match &mut self.store {
            Store::SetAssoc(a) => {
                let range = a.range(key);
                let kset = &mut a.keys[range.clone()];
                match kset.iter().position(|&k| k == key) {
                    Some(pos) => {
                        let lset = &mut a.locs[range];
                        let loc = lset[pos];
                        // Within-set move-to-front: cheap LRU over 4 slots.
                        kset.copy_within(0..pos, 1);
                        kset[0] = key;
                        lset.copy_within(0..pos, 1);
                        lset[0] = loc;
                        Some(loc)
                    }
                    None => None,
                }
            }
            Store::Unbounded(m) => m.get(&key).copied(),
        };
        match found {
            Some(loc) => {
                self.hits += 1;
                Some(loc)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up without promoting or counting.
    pub fn peek(&self, key: u64) -> Option<u64> {
        if key == 0 {
            return None;
        }
        match &self.store {
            Store::SetAssoc(a) => {
                let range = a.range(key);
                a.keys[range.clone()]
                    .iter()
                    .position(|&k| k == key)
                    .map(|pos| a.locs[range][pos])
            }
            Store::Unbounded(m) => m.get(&key).copied(),
        }
    }

    /// Inserts or updates the hint for `key`. In the bounded store the
    /// record lands at the front of its set. A full set doubles a store
    /// still below its configured size; at that size it displaces the
    /// set's LRU record.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0` (reserved for empty slots).
    pub fn insert(&mut self, key: u64, location: u64) {
        assert_ne!(key, 0, "hint key 0 is reserved");
        match &mut self.store {
            Store::SetAssoc(a) => loop {
                let range = a.range(key);
                let kset = &mut a.keys[range.clone()];
                let front = |kset: &mut [u64], lset: &mut [u64], pos: usize| {
                    kset.copy_within(0..pos, 1);
                    lset.copy_within(0..pos, 1);
                    kset[0] = key;
                    lset[0] = location;
                };
                if let Some(pos) = kset.iter().position(|&k| k == key) {
                    front(kset, &mut a.locs[range], pos);
                    return;
                }
                if let Some(pos) = kset.iter().position(|&k| k == 0) {
                    front(kset, &mut a.locs[range], pos);
                    self.len += 1;
                    return;
                }
                if a.sets < a.full_sets {
                    a.grow();
                    continue;
                }
                // Set full: displace the LRU (last) record.
                let w = kset.len();
                front(kset, &mut a.locs[range], w - 1);
                self.displacements += 1;
                return;
            },
            Store::Unbounded(m) => {
                if m.insert(key, location).is_none() {
                    self.len += 1;
                }
            }
        }
    }

    /// Enumerates every live `(key, location)` record, in configured-size
    /// set order for the bounded store (deterministic) and sorted by key
    /// for the unbounded one (so snapshots compare stably across store
    /// kinds).
    pub fn entries(&self) -> Vec<(u64, u64)> {
        match &self.store {
            Store::SetAssoc(a) => {
                let mut out: Vec<(u64, u64)> = a
                    .keys
                    .iter()
                    .zip(a.locs.iter())
                    .filter(|(&k, _)| k != 0)
                    .map(|(&k, &l)| (k, l))
                    .collect();
                if a.sets < a.full_sets {
                    // A stable sort keeps each configured-size set's
                    // records in way order.
                    out.sort_by_key(|&(k, _)| k % a.full_sets as u64);
                }
                out
            }
            Store::Unbounded(m) => {
                let mut out: Vec<(u64, u64)> = m.iter().map(|(&k, &l)| (k, l)).collect();
                out.sort_unstable();
                out
            }
        }
    }

    /// Drops every hint that names `location` — the stale-hint garbage
    /// collection a node runs when a peer is confirmed dead, so a departed
    /// machine's hints stop costing probes. Returns the number purged.
    ///
    /// One pass over the store: O(allocated sets) for the bounded array,
    /// O(records) for the unbounded map — independent of request rate,
    /// which is what bounds a dead peer's total cost at O(1) per object.
    pub fn purge_location(&mut self, location: u64) -> usize {
        let mut purged = 0usize;
        match &mut self.store {
            Store::SetAssoc(a) => {
                let ways = a.ways;
                for (kset, lset) in a.keys.chunks_mut(ways).zip(a.locs.chunks_mut(ways)) {
                    // Compact each set in place, preserving LRU order of the
                    // survivors.
                    let mut write = 0usize;
                    for read in 0..ways {
                        if kset[read] == 0 {
                            break;
                        }
                        if lset[read] == location {
                            purged += 1;
                            continue;
                        }
                        kset[write] = kset[read];
                        lset[write] = lset[read];
                        write += 1;
                    }
                    for slot in write..ways {
                        kset[slot] = 0;
                        lset[slot] = 0;
                    }
                }
            }
            Store::Unbounded(m) => {
                let before = m.len();
                m.retain(|_, &mut l| l != location);
                purged = before - m.len();
            }
        }
        self.len -= purged;
        purged
    }

    /// Removes the hint for `key`; returns the stored location if present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        if key == 0 {
            return None;
        }
        match &mut self.store {
            Store::SetAssoc(a) => {
                let range = a.range(key);
                let kset = &mut a.keys[range.clone()];
                let pos = kset.iter().position(|&k| k == key)?;
                let lset = &mut a.locs[range];
                let loc = lset[pos];
                // Compact the set: shift the remainder left, clear the last.
                kset.copy_within(pos + 1.., pos);
                lset.copy_within(pos + 1.., pos);
                let w = kset.len();
                kset[w - 1] = 0;
                lset[w - 1] = 0;
                self.len -= 1;
                Some(loc)
            }
            Store::Unbounded(m) => {
                let removed = m.remove(&key);
                if removed.is_some() {
                    self.len -= 1;
                }
                removed
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_size_is_sixteen_bytes() {
        assert_eq!(HINT_RECORD_BYTES, 16);
        assert_eq!(std::mem::size_of::<HintRecord>() as u64, HINT_RECORD_BYTES);
    }

    #[test]
    fn capacity_math() {
        // 1 MB of hints = 65536 records, as the paper's sizing arithmetic has it.
        let h = HintCache::with_capacity(ByteSize::from_mb(1));
        assert_eq!(h.capacity_records(), Some(65_536));
        assert_eq!(h.footprint(), ByteSize::from_mb(1));
        assert!(HintCache::unbounded().capacity_records().is_none());
    }

    #[test]
    fn insert_lookup_remove() {
        let mut h = HintCache::with_capacity(ByteSize::from_kb(1));
        assert_eq!(h.lookup(5), None);
        h.insert(5, 100);
        assert_eq!(h.lookup(5), Some(100));
        assert_eq!(h.len(), 1);
        h.insert(5, 200); // update in place
        assert_eq!(h.lookup(5), Some(200));
        assert_eq!(h.len(), 1);
        assert_eq!(h.remove(5), Some(200));
        assert_eq!(h.remove(5), None);
        assert!(h.is_empty());
    }

    #[test]
    fn set_overflow_displaces_lru() {
        // One set of 4 ways: capacity 64 bytes.
        let mut h = HintCache::with_capacity(ByteSize::from_bytes(64));
        assert_eq!(h.capacity_records(), Some(4));
        // All keys land in the single set.
        for k in 1..=4u64 {
            h.insert(k, k * 10);
        }
        assert_eq!(h.len(), 4);
        // Touch key 1 so it is MRU; key 2 becomes LRU.
        assert_eq!(h.lookup(1), Some(10));
        h.insert(5, 50);
        assert_eq!(h.displacement_count(), 1);
        assert_eq!(h.peek(2), None, "LRU record displaced");
        assert_eq!(h.peek(1), Some(10));
        assert_eq!(h.peek(5), Some(50));
    }

    #[test]
    fn hot_keys_survive_with_associativity() {
        // The paper keeps "a modest amount of associativity to guard against
        // several hot URLs landing in the same hash bucket".
        let mut h = HintCache::with_capacity(ByteSize::from_bytes(64)); // 1 set × 4 ways
        h.insert(1, 11);
        h.insert(2, 22);
        for cold in 100..120u64 {
            h.insert(cold, cold);
            // Keep the two hot keys touched.
            assert_eq!(h.lookup(1), Some(11));
            assert_eq!(h.lookup(2), Some(22));
        }
        assert_eq!(h.peek(1), Some(11));
        assert_eq!(h.peek(2), Some(22));
    }

    #[test]
    fn zero_key_reserved() {
        let mut h = HintCache::with_capacity(ByteSize::from_kb(1));
        assert_eq!(h.lookup(0), None);
        assert_eq!(h.remove(0), None);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_key_insert_panics() {
        HintCache::with_capacity(ByteSize::from_kb(1)).insert(0, 1);
    }

    #[test]
    fn unbounded_stores_everything() {
        let mut h = HintCache::unbounded();
        for k in 1..=100_000u64 {
            h.insert(k, k);
        }
        assert_eq!(h.len(), 100_000);
        for k in 1..=100_000u64 {
            assert_eq!(h.peek(k), Some(k));
        }
        assert_eq!(h.displacement_count(), 0);
    }

    #[test]
    fn stats_counters() {
        let mut h = HintCache::with_capacity(ByteSize::from_kb(1));
        h.insert(3, 30);
        h.lookup(3);
        h.lookup(4);
        assert_eq!(h.hit_count(), 1);
        assert_eq!(h.miss_count(), 1);
    }

    #[test]
    fn remove_compacts_set() {
        let mut h = HintCache::with_capacity(ByteSize::from_bytes(64));
        for k in 1..=4u64 {
            h.insert(k, k);
        }
        h.remove(4); // was at front (MRU)
        h.insert(9, 9);
        assert_eq!(h.len(), 4);
        for k in [1u64, 2, 3, 9] {
            assert_eq!(h.peek(k), Some(k), "key {k} must survive");
        }
    }

    #[test]
    fn store_starts_small_and_doubles_to_its_configured_size() {
        let sets = |h: &HintCache| match &h.store {
            Store::SetAssoc(a) => (a.sets, a.keys.len()),
            Store::Unbounded(_) => unreachable!(),
        };
        // A node shard's default: 512 KiB = 8,192 sets × 4 ways.
        let mut h = HintCache::with_capacity(ByteSize::from_kb(512));
        assert_eq!(sets(&h), (MIN_SETS, MIN_SETS * DEFAULT_WAYS));
        assert_eq!(h.capacity_records(), Some(32_768));
        assert_eq!(h.footprint(), ByteSize::from_kb(512));
        // Five keys sharing a 16-set index force one doubling.
        for k in 0..5u64 {
            h.insert(3 + 16 * k, k);
        }
        assert_eq!(sets(&h).0, 2 * MIN_SETS);
        assert_eq!(h.displacement_count(), 0);
        // Keys sharing one configured-size set grow the store to full size
        // and only then displace.
        for k in 0..5u64 {
            h.insert(7 + 8_192 * k, k);
        }
        assert_eq!(sets(&h), (8_192, 32_768));
        assert_eq!(h.displacement_count(), 1);
        assert_eq!(h.peek(7), None, "the LRU record of the full set goes");
        // Odd and tiny set counts start at full size; an even one halves
        // while at least MIN_SETS remain.
        let start = |set_count: u64| {
            let bytes = set_count * DEFAULT_WAYS as u64 * HINT_RECORD_BYTES;
            sets(&HintCache::with_capacity(ByteSize::from_bytes(bytes))).0
        };
        assert_eq!(start(37), 37);
        assert_eq!(start(1), 1);
        assert_eq!(start(48), 24);
    }

    /// The fixed-size array this store replaced, kept as the model the
    /// growing store must match operation for operation.
    struct FixedArray {
        keys: Vec<u64>,
        locs: Vec<u64>,
        sets: usize,
        ways: usize,
        len: usize,
        hits: u64,
        misses: u64,
        displacements: u64,
    }

    impl FixedArray {
        fn new(sets: usize, ways: usize) -> FixedArray {
            FixedArray {
                keys: vec![0; sets * ways],
                locs: vec![0; sets * ways],
                sets,
                ways,
                len: 0,
                hits: 0,
                misses: 0,
                displacements: 0,
            }
        }

        fn range(&self, key: u64) -> std::ops::Range<usize> {
            let set = (key % self.sets as u64) as usize;
            set * self.ways..(set + 1) * self.ways
        }

        fn find(&self, key: u64) -> Option<usize> {
            let range = self.range(key);
            let start = range.start;
            self.keys[range]
                .iter()
                .position(|&k| k == key)
                .map(|p| start + p)
        }

        /// Shifts the records before slot `at` back one way and writes
        /// `(key, loc)` at the front of the set.
        fn move_to_front(&mut self, at: usize, key: u64, loc: u64) {
            let start = self.range(key).start;
            self.keys.copy_within(start..at, start + 1);
            self.locs.copy_within(start..at, start + 1);
            self.keys[start] = key;
            self.locs[start] = loc;
        }

        fn lookup(&mut self, key: u64) -> Option<u64> {
            let found = if key == 0 { None } else { self.find(key) };
            match found {
                Some(at) => {
                    self.hits += 1;
                    let loc = self.locs[at];
                    self.move_to_front(at, key, loc);
                    Some(loc)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn peek(&self, key: u64) -> Option<u64> {
            if key == 0 {
                return None;
            }
            self.find(key).map(|at| self.locs[at])
        }

        fn insert(&mut self, key: u64, loc: u64) {
            if let Some(at) = self.find(key) {
                return self.move_to_front(at, key, loc);
            }
            let range = self.range(key);
            let at = match self.keys[range.clone()].iter().position(|&k| k == 0) {
                Some(p) => {
                    self.len += 1;
                    range.start + p
                }
                None => {
                    self.displacements += 1;
                    range.end - 1
                }
            };
            self.move_to_front(at, key, loc);
        }

        fn remove(&mut self, key: u64) -> Option<u64> {
            if key == 0 {
                return None;
            }
            let at = self.find(key)?;
            let end = self.range(key).end;
            let loc = self.locs[at];
            self.keys.copy_within(at + 1..end, at);
            self.locs.copy_within(at + 1..end, at);
            self.keys[end - 1] = 0;
            self.locs[end - 1] = 0;
            self.len -= 1;
            Some(loc)
        }

        fn purge_location(&mut self, location: u64) -> usize {
            let before = self.len;
            for start in (0..self.keys.len()).step_by(self.ways) {
                let mut at = start;
                while at < start + self.ways && self.keys[at] != 0 {
                    if self.locs[at] == location {
                        self.remove(self.keys[at]);
                    } else {
                        at += 1;
                    }
                }
            }
            before - self.len
        }

        fn entries(&self) -> Vec<(u64, u64)> {
            self.keys
                .iter()
                .zip(&self.locs)
                .filter(|(&k, _)| k != 0)
                .map(|(&k, &l)| (k, l))
                .collect()
        }
    }

    const INSERT: u8 = 0;
    const LOOKUP: u8 = 1;
    const PEEK: u8 = 2;
    const REMOVE: u8 = 3;
    const PURGE: u8 = 4;

    /// Picks an operation from a uniform draw: per 1,000 draws, `purges`
    /// purges, the rest split 5:2:1:2 among insert, lookup, peek and remove.
    fn op_kind(draw: u64, purges: u64) -> u8 {
        let d = draw % 1000;
        if d < purges {
            return PURGE;
        }
        [
            INSERT, INSERT, INSERT, INSERT, INSERT, LOOKUP, LOOKUP, PEEK, REMOVE, REMOVE,
        ][(d % 10) as usize]
    }

    /// Runs `ops` — `(kind, key index, location)` triples — through a
    /// growing store and the fixed array of the same shape, comparing every
    /// result, `len` and the counters after each operation, and `entries()`
    /// every 64 operations and at the end.
    fn check_against_fixed(
        sets: usize,
        ways: usize,
        universe: u64,
        ops: &[(u8, u64, u64)],
    ) -> Result<(), String> {
        let capacity = ByteSize::from_bytes((sets * ways) as u64 * HINT_RECORD_BYTES);
        let mut grown = HintCache::with_capacity_and_ways(capacity, ways);
        let mut fixed = FixedArray::new(sets, ways);
        // Spread key indices over all 64 bits; an odd multiplier never maps
        // a nonzero index to 0.
        let key = |i: u64| (i % universe + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let fail = |step: usize, what: &str| {
            Err(format!(
                "{sets} sets x {ways} ways, universe {universe}: {what} diverged at op {step}"
            ))
        };
        for (step, &(kind, i, loc)) in ops.iter().enumerate() {
            let k = key(i);
            let same = match kind {
                INSERT => {
                    grown.insert(k, loc);
                    fixed.insert(k, loc);
                    true
                }
                LOOKUP => grown.lookup(k) == fixed.lookup(k),
                PEEK => grown.peek(k) == fixed.peek(k),
                REMOVE => grown.remove(k) == fixed.remove(k),
                _ => grown.purge_location(loc) == fixed.purge_location(loc),
            };
            if !same {
                return fail(step, "a return value");
            }
            let state = (
                grown.len(),
                grown.hit_count(),
                grown.miss_count(),
                grown.displacement_count(),
            );
            if state != (fixed.len, fixed.hits, fixed.misses, fixed.displacements) {
                return fail(step, "len or a counter");
            }
            if (step % 64 == 63 || step + 1 == ops.len()) && grown.entries() != fixed.entries() {
                return fail(step, "entries()");
            }
        }
        if grown.footprint() != capacity || grown.capacity_records() != Some(sets * ways) {
            return fail(ops.len(), "footprint or capacity");
        }
        Ok(())
    }

    /// A long run at a node shard's shape (8,192 sets × 4 ways) over more
    /// keys than slots, so the store grows to full size and then displaces.
    #[test]
    fn growing_store_matches_fixed_array_at_node_shard_shape() {
        let mut rng = 0x5eed_u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 11
        };
        let ops: Vec<(u8, u64, u64)> = (0..200_000)
            .map(|_| (op_kind(next(), 1), next(), next() % 8 + 1))
            .collect();
        check_against_fixed(8_192, 4, 48_000, &ops).unwrap();
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The bounded store is a lossy map: every lookup that returns a
            /// value returns the *most recently inserted* value for that key.
            #[test]
            fn never_returns_stale_locations(
                ops in proptest::collection::vec((1u64..100, 0u64..1000), 1..400)
            ) {
                let mut h = HintCache::with_capacity(ByteSize::from_bytes(256));
                let mut truth: HashMap<u64, u64> = HashMap::new();
                for (key, loc) in ops {
                    h.insert(key, loc);
                    truth.insert(key, loc);
                    if let Some(found) = h.peek(key) {
                        prop_assert_eq!(found, truth[&key]);
                    } else {
                        prop_assert!(false, "just-inserted key must be present");
                    }
                }
                // Anything still present must agree with the truth map.
                for k in 1u64..100 {
                    if let Some(found) = h.peek(k) {
                        prop_assert_eq!(Some(found), truth.get(&k).copied());
                    }
                }
            }

            /// len() never exceeds capacity and matches live slots.
            #[test]
            fn len_bounded(ops in proptest::collection::vec((1u64..50, 0u64..10), 1..200),
                           ways in 1usize..8) {
                let mut h = HintCache::with_capacity_and_ways(ByteSize::from_bytes(320), ways);
                let cap = h.capacity_records().unwrap();
                for (key, loc) in ops {
                    h.insert(key, loc);
                    prop_assert!(h.len() <= cap);
                }
            }

            /// The growing store matches the fixed-size array it replaced
            /// across power-of-two and odd set counts, 2/4/8 ways, and key
            /// universes from a quarter to four times the capacity.
            #[test]
            fn growing_store_matches_fixed_array(
                shape in 0usize..9,
                ways in 0usize..3,
                scale in 0usize..3,
                ops in proptest::collection::vec((any::<u64>(), any::<u64>(), 1u64..5), 1..1500)
            ) {
                let sets = [1, 16, 31, 32, 37, 48, 64, 96, 256][shape];
                let ways = [2, 4, 8][ways];
                let universe = ((sets * ways) as u64 * [1, 4, 16][scale] / 4).max(1);
                let ops: Vec<(u8, u64, u64)> = ops
                    .into_iter()
                    .map(|(draw, i, loc)| (op_kind(draw, 20), i, loc))
                    .collect();
                if let Err(e) = check_against_fixed(sets, ways, universe, &ops) {
                    prop_assert!(false, "{}", e);
                }
            }
        }
    }
}
