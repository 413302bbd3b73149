//! Lineage tracking and the base-tuple archive (§3, §5.2).
//!
//! Intermediate tuples that may be *correlated* (e.g. join outputs that
//! share a probe tuple) carry their lineage — "a set of independent
//! tuples produced from an upstream operator … that were used to produce
//! this tuple". A downstream operator (Fig. 2's J1) can then combine
//! lineage with the archived distributions of those base tuples to
//! compute exact result distributions instead of wrongly assuming
//! independence.

use crate::updf::Updf;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Globally-unique base-tuple id source.
static NEXT_TUPLE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh base-tuple id.
pub fn next_tuple_id() -> u64 {
    NEXT_TUPLE_ID.fetch_add(1, Ordering::Relaxed)
}

/// The set of base tuples a derived tuple depends on (sorted, deduped).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Lineage {
    ids: Vec<u64>,
}

impl Lineage {
    /// Empty lineage (a tuple with no uncertain ancestry).
    pub fn empty() -> Self {
        Lineage::default()
    }

    /// Lineage of a freshly-minted base tuple.
    pub fn base(id: u64) -> Self {
        Lineage { ids: vec![id] }
    }

    /// Reconstruct a lineage from an id list that must already satisfy
    /// the sorted-and-deduped invariant (strictly increasing). `None`
    /// otherwise — the wire-codec decode path, where accepting an
    /// unsorted list would silently break `overlaps`/`contains` and
    /// re-sorting would break byte-exact roundtrips.
    pub fn from_sorted_ids(ids: Vec<u64>) -> Option<Self> {
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(Lineage { ids })
    }

    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    pub fn contains(&self, id: u64) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Union of two lineages (sorted merge, deduped).
    pub fn union(&self, other: &Lineage) -> Lineage {
        let mut ids = Vec::with_capacity(self.ids.len() + other.ids.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    ids.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    ids.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    ids.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        ids.extend_from_slice(&self.ids[i..]);
        ids.extend_from_slice(&other.ids[j..]);
        Lineage { ids }
    }

    /// Union of many lineages at once: one collect + sort + dedup,
    /// O(total·log total) — the window-emit path unions every member's
    /// lineage, and folding pairwise unions there would be O(total²).
    pub fn union_all<'a>(lineages: impl IntoIterator<Item = &'a Lineage>) -> Lineage {
        let mut ids: Vec<u64> = lineages
            .into_iter()
            .flat_map(|l| l.ids.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        Lineage { ids }
    }

    /// Whether two derived tuples share any base tuple — the correlation
    /// test an aggregation over join outputs must run (§5.2: "if a join is
    /// followed by an aggregation, the join may produce correlated
    /// results").
    pub fn overlaps(&self, other: &Lineage) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

/// Bounded-size lineage summary (§5.2: "compact representations of
/// lineage to reduce the volume of intermediate streams"; cf. approximate
/// lineage \[50\]).
///
/// Keeps up to `cap` exact ids plus an id-range envelope. Overlap queries
/// stay **sound** (never report "independent" for tuples that actually
/// share ancestry): once the cap is exceeded, `may_overlap` falls back to
/// the conservative range test, trading false positives (treating
/// independent tuples as correlated, which only costs precision of the
/// cheaper plan) for bounded memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproxLineage {
    /// Exact ids while small (sorted).
    ids: Vec<u64>,
    /// Envelope of everything ever added (valid also after truncation).
    min_id: u64,
    max_id: u64,
    /// True once ids were dropped to respect the cap.
    truncated: bool,
    cap: usize,
}

impl ApproxLineage {
    /// Summarize an exact lineage with capacity `cap`.
    pub fn from_lineage(l: &Lineage, cap: usize) -> Self {
        assert!(cap >= 1);
        let ids = l.ids();
        let (min_id, max_id) = match (ids.first(), ids.last()) {
            (Some(&a), Some(&b)) => (a, b),
            _ => (u64::MAX, 0),
        };
        if ids.len() <= cap {
            ApproxLineage {
                ids: ids.to_vec(),
                min_id,
                max_id,
                truncated: false,
                cap,
            }
        } else {
            ApproxLineage {
                ids: ids[..cap].to_vec(),
                min_id,
                max_id,
                truncated: true,
                cap,
            }
        }
    }

    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Number of ids retained exactly.
    pub fn retained(&self) -> usize {
        self.ids.len()
    }

    /// Approximate in-memory size in bytes (the stream-volume argument).
    pub fn payload_bytes(&self) -> usize {
        self.ids.len() * 8 + 24
    }

    /// Union of two summaries (envelope union; exact ids merged up to cap).
    pub fn union(&self, other: &ApproxLineage) -> ApproxLineage {
        let cap = self.cap.min(other.cap);
        let mut ids: Vec<u64> = self.ids.iter().chain(other.ids.iter()).copied().collect();
        ids.sort_unstable();
        ids.dedup();
        let truncated = self.truncated || other.truncated || ids.len() > cap;
        ids.truncate(cap);
        ApproxLineage {
            ids,
            min_id: self.min_id.min(other.min_id),
            max_id: self.max_id.max(other.max_id),
            truncated,
            cap,
        }
    }

    /// Sound overlap test: `false` guarantees independence; `true` means
    /// "possibly correlated".
    pub fn may_overlap(&self, other: &ApproxLineage) -> bool {
        // Exact path while both summaries are complete.
        if !self.truncated && !other.truncated {
            let (a, b) = (&self.ids, &other.ids);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => return true,
                }
            }
            return false;
        }
        // Conservative: envelopes intersect ⇒ possibly correlated.
        self.min_id <= other.max_id && other.min_id <= self.max_id
    }
}

/// Shared archive of base-tuple distributions (Fig. 2: operator A4
/// "archives these input tuples for later computation of the query result
/// distributions").
///
/// Thread-safe (`parking_lot::RwLock`) so a sharded query can archive
/// from one worker thread and read from another.
#[derive(Debug, Clone, Default)]
pub struct Archive {
    inner: Arc<RwLock<HashMap<u64, Updf>>>,
}

impl Archive {
    pub fn new() -> Self {
        Archive::default()
    }

    /// Archive a base tuple's distribution under its id.
    pub fn insert(&self, id: u64, updf: Updf) {
        self.inner.write().insert(id, updf);
    }

    /// Fetch an archived distribution (cloned — payloads are compact
    /// parametric forms by the time they are archived).
    pub fn get(&self, id: u64) -> Option<Updf> {
        self.inner.read().get(&id).cloned()
    }

    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Drop archived tuples older than the watermark id — windows that
    /// have closed can never be referenced again, bounding archive growth.
    pub fn evict_below(&self, min_id: u64) {
        self.inner.write().retain(|&id, _| id >= min_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustream_prob::dist::Dist;

    #[test]
    fn ids_are_unique_and_increasing() {
        let a = next_tuple_id();
        let b = next_tuple_id();
        assert!(b > a);
    }

    #[test]
    fn union_is_sorted_and_deduped() {
        let a = Lineage { ids: vec![1, 3, 5] };
        let b = Lineage { ids: vec![2, 3, 6] };
        let u = a.union(&b);
        assert_eq!(u.ids(), &[1, 2, 3, 5, 6]);
    }

    #[test]
    fn union_all_matches_pairwise_fold() {
        let ls = [
            Lineage { ids: vec![1, 3, 5] },
            Lineage { ids: vec![2, 3, 6] },
            Lineage { ids: vec![] },
            Lineage { ids: vec![5, 9] },
        ];
        let folded = ls.iter().fold(Lineage::empty(), |acc, l| acc.union(l));
        assert_eq!(Lineage::union_all(ls.iter()), folded);
        assert!(Lineage::union_all(std::iter::empty()).is_empty());
    }

    #[test]
    fn union_commutative_and_idempotent() {
        let a = Lineage { ids: vec![1, 4] };
        let b = Lineage { ids: vec![2, 4] };
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&a), a);
        assert_eq!(a.union(&Lineage::empty()), a);
    }

    #[test]
    fn overlap_detection() {
        let a = Lineage { ids: vec![1, 2, 3] };
        let b = Lineage { ids: vec![3, 4] };
        let c = Lineage { ids: vec![4, 5] };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert!(!a.overlaps(&Lineage::empty()));
    }

    #[test]
    fn contains_uses_binary_search() {
        let a = Lineage {
            ids: vec![10, 20, 30],
        };
        assert!(a.contains(20));
        assert!(!a.contains(25));
    }

    #[test]
    fn archive_roundtrip_and_eviction() {
        let arch = Archive::new();
        assert!(arch.is_empty());
        arch.insert(5, Updf::Parametric(Dist::gaussian(1.0, 1.0)));
        arch.insert(9, Updf::Parametric(Dist::gaussian(2.0, 1.0)));
        assert_eq!(arch.len(), 2);
        let got = arch.get(5).unwrap();
        assert!((got.mean() - 1.0).abs() < 1e-12);
        assert!(arch.get(6).is_none());
        arch.evict_below(6);
        assert!(arch.get(5).is_none());
        assert!(arch.get(9).is_some());
    }

    #[test]
    fn approx_lineage_exact_while_small() {
        let a = ApproxLineage::from_lineage(&Lineage { ids: vec![1, 5, 9] }, 8);
        let b = ApproxLineage::from_lineage(&Lineage { ids: vec![2, 9] }, 8);
        let c = ApproxLineage::from_lineage(&Lineage { ids: vec![2, 4] }, 8);
        assert!(!a.is_truncated());
        assert!(a.may_overlap(&b), "shares id 9");
        assert!(!a.may_overlap(&c), "disjoint and small ⇒ exact no");
    }

    #[test]
    fn approx_lineage_truncation_is_sound() {
        // 100 ids capped at 4: overlap answers may be falsely positive but
        // never falsely negative.
        let big = Lineage {
            ids: (0..100).collect(),
        };
        let a = ApproxLineage::from_lineage(&big, 4);
        assert!(a.is_truncated());
        assert_eq!(a.retained(), 4);
        let sharing = ApproxLineage::from_lineage(&Lineage { ids: vec![99] }, 4);
        assert!(a.may_overlap(&sharing), "true overlap must be reported");
        // Conservative false positive is allowed:
        let inside_envelope = ApproxLineage::from_lineage(&Lineage { ids: vec![55] }, 4);
        assert!(a.may_overlap(&inside_envelope));
        // Sound negative outside the envelope:
        let outside = ApproxLineage::from_lineage(&Lineage { ids: vec![500] }, 4);
        assert!(!a.may_overlap(&outside));
    }

    #[test]
    fn approx_lineage_union_and_size() {
        let a = ApproxLineage::from_lineage(
            &Lineage {
                ids: (0..50).collect(),
            },
            8,
        );
        let b = ApproxLineage::from_lineage(
            &Lineage {
                ids: (40..90).collect(),
            },
            8,
        );
        let u = a.union(&b);
        assert!(u.is_truncated());
        assert!(u.retained() <= 8);
        assert!(
            u.payload_bytes()
                < Lineage {
                    ids: (0..90).collect()
                }
                .ids()
                .len()
                    * 8
        );
        // Envelope covers both inputs.
        let probe = ApproxLineage::from_lineage(&Lineage { ids: vec![89] }, 8);
        assert!(u.may_overlap(&probe));
    }

    #[test]
    fn archive_is_shared_across_clones() {
        let a = Archive::new();
        let b = a.clone();
        a.insert(1, Updf::Parametric(Dist::gaussian(0.0, 1.0)));
        assert!(b.get(1).is_some(), "clones share the same store");
    }
}
