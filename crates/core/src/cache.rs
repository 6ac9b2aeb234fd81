//! A pipeline-owned memo for the expensive pairwise distances (Formulas
//! 4–7 all reduce to record-pair distances, and the same pairs recur
//! across MRE verification, refinement, granularity repair, grouping and
//! family validation).
//!
//! Keys are *interned id sequences* (hash-consing): a DOM subtree is the
//! sequence of its label and its children's ids, a line is its (type,
//! position, attribute-set id), and a record is its forest-root ids plus
//! its line ids — the exact inputs of `Drec` — so two records with
//! identical rendered content share one entry even across pages (see
//! `features::PageIds`). Every sequence starts with a kind tag, so ids of
//! different kinds never share a memo slot. The memo itself is symmetric
//! (`(a, b)` and `(b, a)` hit the same slot) and safe to share across the
//! worker threads of one batch extraction (`RwLock` tables, atomic
//! hit/miss counters); a wrapper build uses it from one thread.
//!
//! A cache instance is only valid for one [`MseConfig`](crate::MseConfig):
//! the memoized values bake in the distance weights, which the keys do not
//! encode. The pipeline creates one cache per build and drops it with the
//! build, which enforces this by construction.

use mse_render::LineAttrs;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// What is known about a pair's distance.
#[derive(Clone, Copy, Debug)]
enum Memo {
    /// The exact distance.
    Exact(f64),
    /// Only that the distance exceeds this bound (stored when a bounded
    /// computation cut out early).
    GreaterThan(f64),
}

/// Symmetric pair-distance memo with interned keys.
#[derive(Debug)]
pub struct DistanceCache {
    enabled: bool,
    keys: RwLock<HashMap<String, u32>>,
    ids: RwLock<HashMap<Vec<u32>, u32>>,
    attrs: RwLock<HashMap<LineAttrs, u32>>,
    pairs: RwLock<HashMap<(u32, u32), Memo>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DistanceCache {
    pub fn new(enabled: bool) -> DistanceCache {
        DistanceCache {
            enabled,
            keys: RwLock::new(HashMap::new()),
            ids: RwLock::new(HashMap::new()),
            attrs: RwLock::new(HashMap::new()),
            pairs: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache that memoizes nothing (every lookup recomputes).
    pub fn disabled() -> DistanceCache {
        DistanceCache::new(false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Intern a content key, returning its stable (within this cache) id.
    ///
    /// Lock poisoning is recovered from rather than propagated: the memo
    /// only caches pure distance computations, so a writer that panicked
    /// mid-insert leaves at worst a missing entry, never a wrong one.
    pub fn intern(&self, key: &str) -> u32 {
        intern_in(&self.keys, key)
    }

    /// Intern a sequence of ids: equal sequences get equal ids, so ids
    /// built from ids (a subtree from its children's) compare structure
    /// exactly, with no hash collisions. Ids are stable within this cache
    /// and separate from [`intern`](Self::intern)'s.
    pub fn intern_ids(&self, seq: &[u32]) -> u32 {
        intern_in(&self.ids, seq)
    }

    /// Intern a line's text-attribute set (the `Dbta` input).
    pub fn intern_attrs(&self, attrs: &LineAttrs) -> u32 {
        intern_in(&self.attrs, attrs)
    }

    /// Memoized exact distance for an unordered pair.
    pub fn pair<F: FnOnce() -> f64>(&self, a: u32, b: u32, compute: F) -> f64 {
        self.pair_bounded(a, b, f64::INFINITY, |_| compute())
    }

    /// Memoized *bounded* distance for an unordered pair. `compute(bound)`
    /// must return the exact distance when it is `<= bound` and
    /// `f64::INFINITY` otherwise; this method has the same contract. A
    /// previous early-cutout at a lower bound never shadows a later query
    /// with a higher one (the pair is recomputed and upgraded to exact).
    pub fn pair_bounded<F: FnOnce(f64) -> f64>(
        &self,
        a: u32,
        b: u32,
        bound: f64,
        compute: F,
    ) -> f64 {
        if !self.enabled {
            return compute(bound);
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        match self
            .pairs
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(&key)
        {
            Some(Memo::Exact(v)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return if *v <= bound { *v } else { f64::INFINITY };
            }
            Some(Memo::GreaterThan(g)) if *g >= bound => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return f64::INFINITY;
            }
            _ => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute(bound);
        let mut pairs = self.pairs.write().unwrap_or_else(|p| p.into_inner());
        if v.is_finite() {
            pairs.insert(key, Memo::Exact(v));
        } else {
            match pairs.get(&key) {
                // Never downgrade: keep an exact value or a higher bound.
                Some(Memo::Exact(_)) => {}
                Some(Memo::GreaterThan(g)) if *g >= bound => {}
                _ => {
                    pairs.insert(key, Memo::GreaterThan(bound));
                }
            }
        }
        v
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups answered from the memo (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// Look `key` up in one intern table, inserting it with the next id
/// (the table's length) when absent. Poisoning is recovered from, as in
/// [`DistanceCache::intern`].
fn intern_in<K, Q>(table: &RwLock<HashMap<K, u32>>, key: &Q) -> u32
where
    K: std::borrow::Borrow<Q> + Eq + Hash,
    Q: ToOwned<Owned = K> + Eq + Hash + ?Sized,
{
    if let Some(&id) = table.read().unwrap_or_else(|p| p.into_inner()).get(key) {
        return id;
    }
    let mut table = table.write().unwrap_or_else(|p| p.into_inner());
    let next = table.len() as u32;
    *table.entry(key.to_owned()).or_insert(next)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let c = DistanceCache::new(true);
        let a = c.intern("alpha");
        let b = c.intern("beta");
        assert_ne!(a, b);
        assert_eq!(c.intern("alpha"), a);
        assert_eq!(c.intern("beta"), b);
    }

    #[test]
    fn id_sequences_intern_exactly() {
        let c = DistanceCache::new(true);
        let a = c.intern_ids(&[0, 7, 1]);
        assert_eq!(c.intern_ids(&[0, 7, 1]), a);
        assert_ne!(c.intern_ids(&[0, 7]), a);
        assert_ne!(c.intern_ids(&[0, 1, 7]), a);
        let attrs = LineAttrs::new();
        let e = c.intern_attrs(&attrs);
        assert_eq!(c.intern_attrs(&LineAttrs::new()), e);
    }

    #[test]
    fn pair_memo_is_symmetric_and_counts() {
        let c = DistanceCache::new(true);
        let mut calls = 0;
        let v1 = c.pair(1, 2, || {
            calls += 1;
            0.25
        });
        let v2 = c.pair(2, 1, || {
            calls += 1;
            99.0 // must not be called
        });
        assert_eq!(v1, 0.25);
        assert_eq!(v2, 0.25);
        assert_eq!(calls, 1);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bounded_memo_upgrades() {
        let c = DistanceCache::new(true);
        // True distance 0.5, first asked with bound 0.2 → cut out.
        let v = c.pair_bounded(7, 8, 0.2, |b| if 0.5 <= b { 0.5 } else { f64::INFINITY });
        assert!(v.is_infinite());
        // Lower bound answered from memo.
        let v = c.pair_bounded(8, 7, 0.1, |_| unreachable!());
        assert!(v.is_infinite());
        // Higher bound recomputes and upgrades to exact.
        let v = c.pair_bounded(7, 8, 0.9, |b| if 0.5 <= b { 0.5 } else { f64::INFINITY });
        assert_eq!(v, 0.5);
        // Now even a low-bound query is answered (as INFINITY) from memo.
        let v = c.pair_bounded(7, 8, 0.2, |_| unreachable!());
        assert!(v.is_infinite());
        let v = c.pair(7, 8, || unreachable!());
        assert_eq!(v, 0.5);
    }

    #[test]
    fn disabled_cache_always_computes() {
        let c = DistanceCache::disabled();
        let mut calls = 0;
        for _ in 0..3 {
            c.pair(1, 2, || {
                calls += 1;
                1.0
            });
        }
        assert_eq!(calls, 3);
        assert_eq!(c.hits() + c.misses(), 0);
    }
}
