//! Bounded LRU page cache for segment reads.
//!
//! Frames are fetched through fixed-size pages keyed `(shard, page_no)`.
//! The cache holds at most `capacity_bytes` of page data; eviction is
//! least-recently-used with deterministic tie-breaking (lowest key), so
//! hit/miss counts — and therefore manifests — are byte-identical across
//! same-seed runs. Keys find their pages through a `BTreeMap`, not a
//! `HashMap`: iteration order feeds reports, and reports must be
//! deterministic (lint rule L8).

use std::collections::BTreeMap;

use prox_obs::store_metrics::{PAGE_HIT, PAGE_MISS};

/// Default page size: 64 KiB.
pub const DEFAULT_PAGE_BYTES: usize = 64 * 1024;
/// Default cache ceiling: 2 MiB.
pub const DEFAULT_CACHE_BYTES: usize = 2 * 1024 * 1024;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct PageKey {
    /// Segment shard the page belongs to.
    pub shard: u8,
    /// Page number within the shard (`offset / page_bytes`).
    pub page: u64,
}

struct Page {
    key: PageKey,
    bytes: Vec<u8>,
    last_used: u64,
}

/// Per-store cache statistics (the global `store/*` counters aggregate
/// across every store in the process; these are local to one).
#[derive(Clone, Copy, Default, Debug)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Largest number of cached bytes ever live at once — the value the
    /// bench manifest proves stays under the configured ceiling.
    pub peak_bytes: u64,
    pub live_bytes: u64,
    pub capacity_bytes: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The bounded page cache.
///
/// Pages sit in slots, and a map from key to slot finds them. Each
/// shard's last page is hinted beside the map: a scan reads each shard's
/// file forward, so most lookups hit their shard's last page and skip
/// the map. A miss reads its page into the buffer of the page it evicts
/// ([`PageCache::make_room`]), so no page buffer lives outside the
/// cache's ceiling.
pub struct PageCache {
    pages: Vec<Page>,
    slots: BTreeMap<PageKey, usize>,
    /// Per shard, the slot its last page was found or put in. Slots move
    /// when a page is evicted, so a hint counts only when the page in
    /// its slot has the key looked up.
    hints: Vec<usize>,
    /// The slot of the page looked up or inserted last.
    last: usize,
    page_bytes: usize,
    capacity_bytes: usize,
    live_bytes: usize,
    tick: u64,
    stats: CacheStats,
}

impl PageCache {
    pub fn new(page_bytes: usize, capacity_bytes: usize) -> PageCache {
        let page_bytes = page_bytes.max(512);
        // The ceiling must admit at least one page or nothing is cacheable.
        let capacity_bytes = capacity_bytes.max(page_bytes);
        PageCache {
            pages: Vec::new(),
            slots: BTreeMap::new(),
            hints: Vec::new(),
            last: usize::MAX,
            page_bytes,
            capacity_bytes,
            live_bytes: 0,
            tick: 0,
            stats: CacheStats {
                capacity_bytes: capacity_bytes as u64,
                ..CacheStats::default()
            },
        }
    }

    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Look a page up, refreshing its LRU stamp. A miss is counted here
    /// (callers immediately fault the page in via [`PageCache::insert`]).
    /// A hit becomes the cache's last page.
    pub fn get(&mut self, key: PageKey) -> Option<&[u8]> {
        self.tick += 1;
        let hint = self.hints.get(key.shard as usize).copied();
        let slot = match hint.and_then(|slot| self.pages.get(slot)) {
            Some(page) if page.key == key => hint,
            _ => self.slots.get(&key).copied(),
        };
        let Some(slot) = slot else {
            self.stats.misses += 1;
            PAGE_MISS.incr();
            return None;
        };
        self.note_last(key, slot);
        let page = &mut self.pages[slot];
        page.last_used = self.tick;
        self.stats.hits += 1;
        PAGE_HIT.incr();
        Some(&page.bytes)
    }

    fn note_last(&mut self, key: PageKey, slot: usize) {
        let shard = key.shard as usize;
        if self.hints.len() <= shard {
            self.hints.resize(shard + 1, usize::MAX);
        }
        self.hints[shard] = slot;
        self.last = slot;
    }

    /// The bytes of the page looked up or inserted last; empty before
    /// the first.
    pub fn last_page(&self) -> &[u8] {
        self.pages.get(self.last).map_or(&[], |page| &page.bytes)
    }

    /// Evict least-recently-used pages until `incoming` more bytes fit
    /// under the ceiling, and return a buffer for the incoming page: the
    /// first evicted page's, stale bytes and all, or a new one with room
    /// for a page when nothing was evicted. Later victims' buffers are
    /// freed.
    pub fn make_room(&mut self, incoming: usize) -> Vec<u8> {
        let mut spare = None;
        while self.live_bytes + incoming > self.capacity_bytes {
            let Some(bytes) = self.evict_lru() else {
                break;
            };
            spare.get_or_insert(bytes);
        }
        spare.unwrap_or_else(|| Vec::with_capacity(self.page_bytes))
    }

    /// Insert a freshly loaded page, evicting least-recently-used pages
    /// until the ceiling holds (none after [`PageCache::make_room`] for
    /// its size). The page becomes the cache's last. Returns a reference
    /// to the cached bytes.
    pub fn insert(&mut self, key: PageKey, bytes: Vec<u8>) -> &[u8] {
        self.tick += 1;
        let incoming = bytes.len();
        while self.live_bytes + incoming > self.capacity_bytes && self.evict_lru().is_some() {}
        self.live_bytes += incoming;
        let slot = match self.slots.get(&key) {
            Some(&slot) => {
                let old = std::mem::replace(&mut self.pages[slot].bytes, bytes);
                self.live_bytes -= old.len();
                slot
            }
            None => {
                self.pages.push(Page {
                    key,
                    bytes,
                    last_used: 0,
                });
                self.slots.insert(key, self.pages.len() - 1);
                self.pages.len() - 1
            }
        };
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.live_bytes as u64);
        self.stats.live_bytes = self.live_bytes as u64;
        self.note_last(key, slot);
        let page = &mut self.pages[slot];
        page.last_used = self.tick;
        &page.bytes
    }

    /// Remove the least-recently-used page (ties to the lowest key) and
    /// return its buffer. The scan is O(pages), and the ceiling bounds
    /// pages to a small constant (capacity / page size).
    fn evict_lru(&mut self) -> Option<Vec<u8>> {
        let victim = (0..self.pages.len())
            .min_by_key(|&slot| (self.pages[slot].last_used, self.pages[slot].key))?;
        let page = self.pages.swap_remove(victim);
        self.slots.remove(&page.key);
        if let Some(moved) = self.pages.get(victim) {
            self.slots.insert(moved.key, victim);
        }
        self.last = usize::MAX;
        self.live_bytes -= page.bytes.len();
        self.stats.evictions += 1;
        Some(page.bytes)
    }

    pub fn stats(&self) -> CacheStats {
        let mut s = self.stats;
        s.live_bytes = self.live_bytes as u64;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(shard: u8, page: u64) -> PageKey {
        PageKey { shard, page }
    }

    #[test]
    fn bounded_by_capacity() {
        let mut c = PageCache::new(1024, 2048);
        c.insert(key(0, 0), vec![0u8; 1024]);
        c.insert(key(0, 1), vec![0u8; 1024]);
        c.insert(key(0, 2), vec![0u8; 1024]);
        let s = c.stats();
        assert!(s.live_bytes <= 2048, "live {} over ceiling", s.live_bytes);
        assert!(s.peak_bytes <= 2048, "peak {} over ceiling", s.peak_bytes);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut c = PageCache::new(1024, 2048);
        c.insert(key(0, 0), vec![0u8; 1024]);
        c.insert(key(0, 1), vec![0u8; 1024]);
        assert!(c.get(key(0, 0)).is_some()); // refresh page 0
        c.insert(key(0, 2), vec![0u8; 1024]); // must evict page 1
        assert!(c.get(key(0, 0)).is_some());
        assert!(c.get(key(0, 1)).is_none());
        assert!(c.get(key(0, 2)).is_some());
    }

    #[test]
    fn a_miss_reads_into_the_page_it_evicts() {
        let mut c = PageCache::new(1024, 2048);
        for page in 0..2 {
            let mut buf = c.make_room(1024);
            assert_eq!(buf.capacity(), 1024, "a fresh buffer holds one page");
            buf.resize(1024, page as u8);
            c.insert(key(0, page), buf);
        }
        let lru = c.get(key(0, 0)).map(<[u8]>::as_ptr);
        assert!(c.get(key(0, 1)).is_some());
        let buf = c.make_room(1024);
        assert_eq!(Some(buf.as_ptr()), lru, "page 0 was least recently used");
        assert_eq!(c.stats().evictions, 1);
        c.insert(key(0, 2), buf);
        assert!(c.get(key(0, 0)).is_none());
        assert!(c.stats().peak_bytes <= 2048);
    }

    /// The cache before slots and buffer reuse: every page in a
    /// `BTreeMap`, every lookup through it, each miss's page inserted
    /// and then made room for.
    #[derive(Default)]
    struct Reference {
        pages: BTreeMap<PageKey, (Vec<u8>, u64)>,
        live: usize,
        tick: u64,
        stats: CacheStats,
    }

    impl Reference {
        fn get(&mut self, key: PageKey) -> Option<&[u8]> {
            self.tick += 1;
            match self.pages.get_mut(&key) {
                Some((bytes, used)) => {
                    *used = self.tick;
                    self.stats.hits += 1;
                    Some(bytes)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: PageKey, bytes: Vec<u8>, capacity: usize) {
            self.tick += 1;
            while self.live + bytes.len() > capacity && !self.pages.is_empty() {
                let victim = self
                    .pages
                    .iter()
                    .min_by_key(|(k, (_, used))| (*used, **k))
                    .map(|(k, _)| *k);
                if let Some((old, _)) = victim.and_then(|k| self.pages.remove(&k)) {
                    self.live -= old.len();
                    self.stats.evictions += 1;
                }
            }
            self.live += bytes.len();
            self.stats.peak_bytes = self.stats.peak_bytes.max(self.live as u64);
            self.pages.insert(key, (bytes, self.tick));
        }
    }

    #[test]
    fn slots_count_and_evict_as_the_map_did() {
        let (page_bytes, capacity) = (512, 4096);
        let mut rng = prox_robust::DetRng::new(0x9a6e);
        let mut cache = PageCache::new(page_bytes, capacity);
        let mut reference = Reference::default();
        for step in 0..20_000 {
            // Runs of lookups within one page, as a scan makes them, over
            // pages of which the last of each shard is short.
            let k = key(rng.below(4) as u8, rng.below(16) as u64);
            let len = if k.page == 15 {
                100 + 40 * k.shard as usize
            } else {
                page_bytes
            };
            let page: Vec<u8> = (0..len).map(|i| (i as u64 ^ k.page) as u8).collect();
            for _ in 0..1 + rng.below(3) {
                let got = cache.get(k).map(<[u8]>::to_vec);
                assert_eq!(got.as_deref(), reference.get(k), "step {step}");
                if got.is_none() {
                    let mut buf = cache.make_room(len);
                    buf.clear();
                    buf.extend_from_slice(&page);
                    assert_eq!(cache.insert(k, buf), &page[..], "step {step}");
                    reference.insert(k, page.clone(), capacity);
                }
                assert_eq!(cache.last_page(), &page[..], "step {step}");
            }
            let (a, b) = (cache.stats(), reference.stats);
            assert_eq!(
                (a.hits, a.misses, a.evictions, a.peak_bytes, a.live_bytes),
                (
                    b.hits,
                    b.misses,
                    b.evictions,
                    b.peak_bytes,
                    reference.live as u64
                ),
                "step {step}"
            );
        }
    }

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        let mut c = PageCache::new(1024, 4096);
        assert!(c.get(key(0, 0)).is_none());
        c.insert(key(0, 0), vec![1, 2, 3]);
        assert!(c.get(key(0, 0)).is_some());
        assert!(c.get(key(0, 0)).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
