//! An interval index for the authorization database.
//!
//! An administrator asks which authorizations admit entry at a time `t`,
//! or at any time in a window; §6 repeatedly intersects request windows
//! with authorization windows. Both are classic *stabbing* and *overlap*
//! queries. [`IntervalTree`] supports them in `O(log n + k)` using a
//! treap (randomized BST) keyed by interval start and augmented with the
//! maximum end bound of each subtree. A tree is grown one
//! [`IntervalTree::insert`] at a time or collected whole from an
//! iterator of `(interval, value)` in `O(n log n)`.
//!
//! The tree is deterministic: priorities come from a SplitMix64 sequence
//! seeded at construction, so identical insertion orders produce identical
//! shapes — keeping benches and the repro harness reproducible without a
//! `rand` dependency.

use crate::interval::{Bound, Interval};
use crate::point::Time;
use serde::{Deserialize, Serialize};

/// Stable handle to an entry in an [`IntervalTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntryId(pub u64);

#[derive(Debug, Clone)]
struct Node<V> {
    interval: Interval,
    id: EntryId,
    value: V,
    priority: u64,
    /// Maximum end bound in this node's subtree (the augmentation).
    max_end: Bound,
    left: Option<usize>,
    right: Option<usize>,
}

/// Deterministic SplitMix64 PRNG for treap priorities.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

/// Where every tree's priority sequence starts.
const PRIORITY_SEED: u64 = 0x5EED_1DEA_CAFE_F00D;

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A treap-based interval tree mapping intervals to values.
///
/// Duplicate intervals are allowed (two authorizations may share a window);
/// each insertion gets a fresh [`EntryId`] used for removal.
///
/// This is the index behind the authorization database's time-sliced
/// queries: "who could enter anything at `t`?" stabs the tree instead of
/// scanning every window.
///
/// ```
/// use ltam_time::{Interval, IntervalTree, Time};
///
/// let mut tree = IntervalTree::new();
/// tree.insert(Interval::lit(5, 40), "entry window of a1");
/// tree.insert(Interval::lit(20, 100), "exit window of a1");
/// let id = tree.insert(Interval::from_start(Time(50)), "an open-ended window");
///
/// // Stabbing: which windows contain chronon 25?
/// let mut hit: Vec<&&str> = tree.stab(Time(25)).into_iter().map(|(_, v)| v).collect();
/// hit.sort();
/// assert_eq!(hit, [&"entry window of a1", &"exit window of a1"]);
///
/// // Overlap: which windows intersect [90, 200]?
/// assert_eq!(tree.overlapping(Interval::lit(90, 200)).len(), 2);
///
/// // Entries are removable by (interval, id).
/// tree.remove(Interval::from_start(Time(50)), id);
/// assert_eq!(tree.len(), 2);
/// assert!(tree.stab(Time(1_000)).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct IntervalTree<V> {
    nodes: Vec<Node<V>>,
    free: Vec<usize>,
    root: Option<usize>,
    len: usize,
    next_id: u64,
    rng: SplitMix64,
}

impl<V> Default for IntervalTree<V> {
    fn default() -> Self {
        IntervalTree::new()
    }
}

impl<V> IntervalTree<V> {
    /// An empty tree.
    pub fn new() -> IntervalTree<V> {
        IntervalTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: None,
            len: 0,
            next_id: 0,
            rng: SplitMix64(PRIORITY_SEED),
        }
    }

    /// Number of stored intervals.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no intervals are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn max_end_of(&self, idx: Option<usize>) -> Option<Bound> {
        idx.map(|i| self.nodes[i].max_end)
    }

    fn update(&mut self, idx: usize) {
        let mut m = self.nodes[idx].interval.end();
        if let Some(b) = self.max_end_of(self.nodes[idx].left) {
            m = m.max(b);
        }
        if let Some(b) = self.max_end_of(self.nodes[idx].right) {
            m = m.max(b);
        }
        self.nodes[idx].max_end = m;
    }

    fn key(&self, idx: usize) -> (Time, Bound, EntryId) {
        let n = &self.nodes[idx];
        (n.interval.start(), n.interval.end(), n.id)
    }

    /// Split subtree `idx` into (< key, >= key) by the node ordering key.
    fn split(
        &mut self,
        idx: Option<usize>,
        key: &(Time, Bound, EntryId),
    ) -> (Option<usize>, Option<usize>) {
        let Some(i) = idx else {
            return (None, None);
        };
        if self.key(i) < *key {
            let (l, r) = self.split(self.nodes[i].right, key);
            self.nodes[i].right = l;
            self.update(i);
            (Some(i), r)
        } else {
            let (l, r) = self.split(self.nodes[i].left, key);
            self.nodes[i].left = r;
            self.update(i);
            (l, Some(i))
        }
    }

    fn merge(&mut self, a: Option<usize>, b: Option<usize>) -> Option<usize> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(l), Some(r)) => {
                if self.nodes[l].priority >= self.nodes[r].priority {
                    let merged = self.merge(self.nodes[l].right, Some(r));
                    self.nodes[l].right = merged;
                    self.update(l);
                    Some(l)
                } else {
                    let merged = self.merge(Some(l), self.nodes[r].left);
                    self.nodes[r].left = merged;
                    self.update(r);
                    Some(r)
                }
            }
        }
    }

    /// Insert an interval with its payload; returns a handle for removal.
    pub fn insert(&mut self, interval: Interval, value: V) -> EntryId {
        let id = EntryId(self.next_id);
        self.next_id += 1;
        let priority = self.rng.next();
        let node = Node {
            interval,
            id,
            value,
            priority,
            max_end: interval.end(),
            left: None,
            right: None,
        };
        let idx = if let Some(slot) = self.free.pop() {
            self.nodes[slot] = node;
            slot
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        let key = self.key(idx);
        let (l, r) = self.split(self.root, &key);
        let left = self.merge(l, Some(idx));
        self.root = self.merge(left, r);
        self.len += 1;
        id
    }

    /// Link `self.nodes` — all of them, none linked yet — into the treap
    /// their keys and priorities determine, in `O(n log n)` for the sort
    /// plus one `O(n)` pass: walking the nodes in key order, `spine` holds
    /// the path from the root down the right edge, the only place the
    /// next (larger) key can attach.
    fn link_all(&mut self) {
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_unstable_by_key(|&i| self.key(i));
        let mut spine: Vec<usize> = Vec::new();
        for i in order {
            // Everything on the spine with a lower priority sinks below
            // the new node as its left subtree; a node leaving the spine
            // has its final children, so its augmentation can be settled.
            let mut below = None;
            while let Some(&top) = spine.last() {
                if self.nodes[top].priority >= self.nodes[i].priority {
                    break;
                }
                spine.pop();
                self.update(top);
                below = Some(top);
            }
            self.nodes[i].left = below;
            if let Some(&top) = spine.last() {
                self.nodes[top].right = Some(i);
            }
            spine.push(i);
        }
        self.root = spine.first().copied();
        while let Some(top) = spine.pop() {
            self.update(top);
        }
    }

    /// Remove the entry with handle `id` if its interval is known.
    ///
    /// Returns the payload, or `None` if no such entry exists.
    pub fn remove(&mut self, interval: Interval, id: EntryId) -> Option<V>
    where
        V: Clone,
    {
        let key = (interval.start(), interval.end(), id);
        let (l, rest) = self.split(self.root, &key);
        let next_key = (interval.start(), interval.end(), EntryId(id.0 + 1));
        let (target, r) = self.split(rest, &next_key);
        let result = target.map(|idx| {
            self.free.push(idx);
            self.len -= 1;
            self.nodes[idx].value.clone()
        });
        let keep = if result.is_some() { None } else { target };
        let merged = self.merge(l, keep);
        self.root = self.merge(merged, r);
        result
    }

    /// All entries whose interval contains `t` (a stabbing query).
    pub fn stab(&self, t: Time) -> Vec<(Interval, &V)> {
        let mut out = Vec::new();
        self.stab_rec(self.root, t, &mut out);
        out
    }

    fn stab_rec<'a>(&'a self, idx: Option<usize>, t: Time, out: &mut Vec<(Interval, &'a V)>) {
        let Some(i) = idx else { return };
        let n = &self.nodes[i];
        // Prune: nothing in this subtree reaches t.
        if !n.max_end.admits(t) {
            return;
        }
        self.stab_rec(n.left, t, out);
        if n.interval.contains(t) {
            out.push((n.interval, &n.value));
        }
        // Subtree keys to the right all start after n; if they start past t,
        // none can contain it.
        if n.interval.start() <= t {
            self.stab_rec(n.right, t, out);
        }
    }

    /// All entries whose interval overlaps `query`.
    pub fn overlapping(&self, query: Interval) -> Vec<(Interval, &V)> {
        let mut out = Vec::new();
        self.overlap_rec(self.root, query, &mut out);
        out
    }

    fn overlap_rec<'a>(
        &'a self,
        idx: Option<usize>,
        query: Interval,
        out: &mut Vec<(Interval, &'a V)>,
    ) {
        let Some(i) = idx else { return };
        let n = &self.nodes[i];
        if !n.max_end.admits(query.start()) {
            return;
        }
        self.overlap_rec(n.left, query, out);
        if n.interval.overlaps(query) {
            out.push((n.interval, &n.value));
        }
        if query.end().admits(n.interval.start()) {
            self.overlap_rec(n.right, query, out);
        }
    }

    /// Iterate all entries in key order.
    pub fn iter(&self) -> Vec<(Interval, EntryId, &V)> {
        let mut out = Vec::with_capacity(self.len);
        self.collect_rec(self.root, &mut out);
        out
    }

    fn collect_rec<'a>(&'a self, idx: Option<usize>, out: &mut Vec<(Interval, EntryId, &'a V)>) {
        let Some(i) = idx else { return };
        let n = &self.nodes[i];
        self.collect_rec(n.left, out);
        out.push((n.interval, n.id, &n.value));
        self.collect_rec(n.right, out);
    }
}

/// The bulk constructor: `O(n log n)` for the whole tree, where `n`
/// [`IntervalTree::insert`]s pay a split and a merge each. Handles are
/// assigned in iteration order — the `k`-th entry gets `EntryId(k)` — and
/// the result is the tree those inserts would have built, node for node
/// (same keys, same priority sequence), so it can be edited afterwards
/// like any other.
///
/// ```
/// use ltam_time::{EntryId, Interval, IntervalTree, Time};
///
/// let windows = [Interval::lit(5, 40), Interval::lit(20, 100)];
/// let mut tree: IntervalTree<usize> = windows.into_iter().zip(0..).collect();
/// assert_eq!(tree.stab(Time(30)).len(), 2);
/// assert_eq!(tree.remove(windows[1], EntryId(1)), Some(1));
/// ```
impl<V> FromIterator<(Interval, V)> for IntervalTree<V> {
    fn from_iter<I: IntoIterator<Item = (Interval, V)>>(entries: I) -> IntervalTree<V> {
        let mut rng = SplitMix64(PRIORITY_SEED);
        let nodes: Vec<Node<V>> = entries
            .into_iter()
            .zip(0..)
            .map(|((interval, value), id)| Node {
                interval,
                id: EntryId(id),
                value,
                priority: rng.next(),
                max_end: interval.end(),
                left: None,
                right: None,
            })
            .collect();
        let mut tree = IntervalTree {
            len: nodes.len(),
            next_id: nodes.len() as u64,
            nodes,
            free: Vec::new(),
            root: None,
            rng,
        };
        tree.link_all();
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_of(pairs: &[(u64, u64)]) -> IntervalTree<usize> {
        let mut t = IntervalTree::new();
        for (k, &(a, b)) in pairs.iter().enumerate() {
            t.insert(Interval::lit(a, b), k);
        }
        t
    }

    #[test]
    fn stab_finds_all_containing_intervals() {
        let t = tree_of(&[(1, 10), (5, 7), (6, 20), (15, 30), (25, 40)]);
        let mut hit: Vec<usize> = t.stab(Time(6)).into_iter().map(|(_, v)| *v).collect();
        hit.sort_unstable();
        assert_eq!(hit, vec![0, 1, 2]);
        assert!(t.stab(Time(50)).is_empty());
        assert!(t.stab(Time(0)).is_empty());
    }

    #[test]
    fn overlap_query_matches_definition() {
        let t = tree_of(&[(1, 4), (5, 9), (10, 14), (20, 24)]);
        let mut hit: Vec<usize> = t
            .overlapping(Interval::lit(4, 10))
            .into_iter()
            .map(|(_, v)| *v)
            .collect();
        hit.sort_unstable();
        assert_eq!(hit, vec![0, 1, 2]);
    }

    #[test]
    fn unbounded_intervals_always_reachable() {
        let mut t = IntervalTree::new();
        t.insert(Interval::from_start(100u64), "late");
        t.insert(Interval::lit(1, 5), "early");
        let hit: Vec<&&str> = t
            .stab(Time(1_000_000))
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert_eq!(hit, vec![&"late"]);
    }

    #[test]
    fn remove_deletes_exactly_one_entry() {
        let mut t = IntervalTree::new();
        let i = Interval::lit(5, 10);
        let a = t.insert(i, "a");
        let b = t.insert(i, "b");
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(i, a), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(i, a), None);
        let hit: Vec<&&str> = t.stab(Time(7)).into_iter().map(|(_, v)| v).collect();
        assert_eq!(hit, vec![&"b"]);
        assert_eq!(t.remove(i, b), Some("b"));
        assert!(t.is_empty());
    }

    #[test]
    fn collecting_builds_the_tree_the_inserts_build() {
        let pairs: Vec<(u64, u64)> = (0..300u64)
            .map(|k| ((k * 37) % 101, (k * 37) % 101 + k % 13))
            .collect();
        let inserted = tree_of(&pairs);
        let mut collected: IntervalTree<usize> = pairs
            .iter()
            .map(|&(a, b)| Interval::lit(a, b))
            .zip(0..)
            .collect();
        assert_eq!(collected.len(), inserted.len());
        assert_eq!(collected.root, inserted.root);
        for (c, i) in collected.nodes.iter().zip(&inserted.nodes) {
            assert_eq!(
                (c.id, c.interval, c.value, c.priority, c.max_end, c.left, c.right),
                (i.id, i.interval, i.value, i.priority, i.max_end, i.left, i.right)
            );
        }
        // ...and goes on like it: the next handle and priority follow on.
        let mut inserted = inserted;
        let iv = Interval::lit(50, 60);
        assert_eq!(collected.insert(iv, 300), inserted.insert(iv, 300));
        assert_eq!(collected.root, inserted.root);
        assert!(IntervalTree::<u8>::from_iter([]).stab(Time(0)).is_empty());
    }

    #[test]
    fn iter_returns_key_order() {
        let t = tree_of(&[(9, 12), (1, 3), (5, 6)]);
        let starts: Vec<u64> = t.iter().iter().map(|(i, _, _)| i.start().get()).collect();
        assert_eq!(starts, vec![1, 5, 9]);
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut t = IntervalTree::new();
        let i = Interval::lit(0, 1);
        for _ in 0..100 {
            let id = t.insert(i, 0u32);
            assert_eq!(t.remove(i, id), Some(0));
        }
        assert!(t.nodes.len() <= 2, "free list should recycle slots");
    }

    #[test]
    fn large_tree_stab_matches_naive_scan() {
        // Deterministic pseudo-random intervals; compare against linear scan.
        let mut x = 0x1234_5678_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut tree = IntervalTree::new();
        let mut naive = Vec::new();
        for k in 0..500usize {
            let a = next() % 1000;
            let b = a + next() % 50;
            let iv = Interval::lit(a, b);
            tree.insert(iv, k);
            naive.push((iv, k));
        }
        for q in (0..1050).step_by(7) {
            let mut fast: Vec<usize> = tree.stab(Time(q)).into_iter().map(|(_, v)| *v).collect();
            fast.sort_unstable();
            let mut slow: Vec<usize> = naive
                .iter()
                .filter(|(iv, _)| iv.contains(Time(q)))
                .map(|&(_, k)| k)
                .collect();
            slow.sort_unstable();
            assert_eq!(fast, slow, "stab({q}) diverged from naive scan");
        }
    }
}
