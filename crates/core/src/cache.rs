//! The one cache-tier implementation behind the job [`Store`](crate::job::Store).

use crate::job::TierStats;

/// A bounded LRU from a key `K` to an artifact `V`. A hit needs the
/// whole key to be equal, so keys that share only a leading digest are
/// two entries, never one. Capacity 0 never hits; it keeps only the
/// latest lookup's entry.
///
/// Lookups are accounted in windows ([`CacheTier::begin`] ..
/// [`CacheTier::finish`]); each entry records the window that inserted
/// it and the last window that looked it up.
pub(crate) struct CacheTier<K, V> {
    /// Least recently used first.
    entries: Vec<Entry<K, V>>,
    capacity: usize,
    /// Hits and misses over the tier's lifetime, and their value when
    /// the current window opened.
    stats: TierStats,
    opened: TierStats,
    window: u64,
}

struct Entry<K, V> {
    key: K,
    value: V,
    inserted: u64,
    used: u64,
}

impl<K: PartialEq, V> CacheTier<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        CacheTier {
            entries: Vec::new(),
            capacity,
            stats: TierStats::default(),
            opened: TierStats::default(),
            window: 0,
        }
    }

    /// Opens a window.
    pub(crate) fn begin(&mut self) {
        self.window += 1;
        self.opened = self.stats;
    }

    /// Hits and misses since [`CacheTier::begin`].
    pub(crate) fn trace(&self) -> TierStats {
        TierStats {
            hits: self.stats.hits - self.opened.hits,
            misses: self.stats.misses - self.opened.misses,
        }
    }

    pub(crate) fn totals(&self) -> TierStats {
        self.stats
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The value of `key`, now the most recently used, and whether it was
    /// a hit. A miss inserts what `make` builds, evicting the least
    /// recently used entry of a full tier; a failed `make` inserts
    /// nothing.
    pub(crate) fn get_or_try_insert<E>(
        &mut self,
        key: K,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<(&mut V, bool), E> {
        if self.capacity == 0 {
            self.entries.clear();
        }
        let found = self.entries.iter().position(|e| e.key == key);
        let entry = match found {
            Some(pos) => {
                self.stats.hits += 1;
                let mut entry = self.entries.remove(pos);
                entry.used = self.window;
                entry
            }
            None => {
                self.stats.misses += 1;
                let value = make()?;
                if self.entries.len() >= self.capacity.max(1) {
                    self.entries.remove(0);
                }
                Entry {
                    key,
                    value,
                    inserted: self.window,
                    used: self.window,
                }
            }
        };
        self.entries.push(entry);
        let entry = self.entries.last_mut().expect("an entry was just pushed");
        Ok((&mut entry.value, found.is_some()))
    }

    /// Closes the window. A `failed` one rolls back the entries it
    /// inserted; `quarantine` also drops every entry it looked up.
    pub(crate) fn finish(&mut self, failed: bool, quarantine: bool) {
        let w = self.window;
        self.entries
            .retain(|e| !(failed && e.inserted == w || quarantine && e.used == w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys lead with a digest of the rest, as the store's do: here the
    /// text's length.
    type Tier = CacheTier<(usize, &'static str), u32>;

    /// Looks `key` up, inserting `value` on a miss; returns the value
    /// served and whether it was a hit.
    fn get(tier: &mut Tier, key: &'static str, value: u32) -> (u32, bool) {
        let (v, hit) = tier
            .get_or_try_insert((key.len(), key), || Ok::<_, ()>(value))
            .unwrap();
        (*v, hit)
    }

    fn keys(tier: &Tier) -> Vec<&'static str> {
        tier.entries.iter().map(|e| e.key.1).collect()
    }

    #[test]
    fn a_hit_refreshes_and_a_full_tier_evicts_the_least_recent() {
        let mut tier = Tier::new(2);
        assert_eq!(get(&mut tier, "a", 1), (1, false));
        assert_eq!(get(&mut tier, "b", 2), (2, false));
        assert_eq!(get(&mut tier, "a", 9), (1, true));
        assert_eq!(keys(&tier), ["b", "a"]);
        assert_eq!(get(&mut tier, "c", 3), (3, false));
        assert_eq!(keys(&tier), ["a", "c"]);
        assert_eq!(get(&mut tier, "b", 4), (4, false));
        assert_eq!(keys(&tier), ["c", "b"]);
        assert_eq!(tier.trace(), TierStats { hits: 1, misses: 4 });
    }

    #[test]
    fn capacity_zero_never_hits() {
        let mut tier = Tier::new(0);
        for value in 0..3 {
            assert_eq!(get(&mut tier, "a", value), (value, false));
            assert_eq!(tier.len(), 1);
        }
        assert_eq!(tier.trace(), TierStats { hits: 0, misses: 3 });
    }

    #[test]
    fn a_failed_build_inserts_nothing() {
        let mut tier = Tier::new(2);
        assert!(tier.get_or_try_insert((1, "a"), || Err(())).is_err());
        assert_eq!(tier.len(), 0);
        assert_eq!(tier.trace(), TierStats { hits: 0, misses: 1 });
    }

    #[test]
    fn a_failed_window_rolls_back_only_its_own_inserts() {
        let mut tier = Tier::new(4);
        tier.begin();
        get(&mut tier, "a", 1);
        tier.finish(false, false);
        tier.begin();
        assert_eq!(get(&mut tier, "a", 9), (1, true));
        get(&mut tier, "bb", 2);
        assert_eq!(tier.trace(), TierStats { hits: 1, misses: 1 });
        tier.finish(true, false);
        assert_eq!(keys(&tier), ["a"]);
        // The next window starts its counts afresh; the totals go on.
        tier.begin();
        assert_eq!(tier.trace(), TierStats::default());
        assert_eq!(tier.totals(), TierStats { hits: 1, misses: 2 });
    }

    #[test]
    fn quarantine_drops_every_key_the_window_touched() {
        let mut tier = Tier::new(4);
        tier.begin();
        get(&mut tier, "a", 1);
        get(&mut tier, "bb", 2);
        tier.finish(false, false);
        tier.begin();
        get(&mut tier, "a", 1);
        get(&mut tier, "ccc", 3);
        tier.finish(false, true);
        assert_eq!(keys(&tier), ["bb"]);
    }

    #[test]
    fn colliding_digests_miss_instead_of_aliasing() {
        let mut tier = Tier::new(4);
        // "ab" and "cd" share the digest 2 but not the key.
        assert_eq!(get(&mut tier, "ab", 1), (1, false));
        assert_eq!(get(&mut tier, "cd", 2), (2, false));
        assert_eq!(get(&mut tier, "ab", 9), (1, true));
        assert_eq!(get(&mut tier, "cd", 9), (2, true));
        assert_eq!(tier.len(), 2);
    }
}
