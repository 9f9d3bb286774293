//! Property-based tests for the interval algebra and the interval index.

use ltam_time::{Bound, EntryId, Interval, IntervalSet, IntervalTree, TemporalOp, Time};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

/// Bounded or occasionally unbounded intervals over a small domain so that
/// overlaps and adjacency are common.
fn arb_interval() -> impl Strategy<Value = Interval> {
    (0u64..200, 0u64..40, prop::bool::weighted(0.1)).prop_map(|(a, len, unbounded)| {
        if unbounded {
            Interval::from_start(a)
        } else {
            Interval::lit(a, a + len)
        }
    })
}

fn arb_set() -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec(arb_interval(), 0..12).prop_map(|v| v.into_iter().collect())
}

/// The same entries (payload = position) through both constructors: one
/// `insert` each, and one `collect` for the lot.
fn inserted_and_collected(intervals: &[Interval]) -> [IntervalTree<usize>; 2] {
    let mut inserted = IntervalTree::new();
    for (k, iv) in intervals.iter().enumerate() {
        inserted.insert(*iv, k);
    }
    [inserted, intervals.iter().copied().zip(0..).collect()]
}

/// Reference semantics: the set of chronons in [0, 400] (plus a marker for
/// "everything from some point onward", encoded by checking a far point).
fn chronons(s: &IntervalSet) -> Vec<bool> {
    (0..=400u64).map(|t| s.contains(Time(t))).collect()
}

proptest! {
    #[test]
    fn insert_preserves_normalization(intervals in prop::collection::vec(arb_interval(), 0..20)) {
        let s: IntervalSet = intervals.into_iter().collect();
        prop_assert!(s.is_normalized());
    }

    #[test]
    fn union_is_commutative(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
    }

    #[test]
    fn union_is_associative(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
    }

    #[test]
    fn union_is_idempotent(a in arb_set()) {
        prop_assert_eq!(a.union(&a), a);
    }

    #[test]
    fn union_matches_pointwise_or(a in arb_set(), b in arb_set()) {
        let u = a.union(&b);
        let (ca, cb, cu) = (chronons(&a), chronons(&b), chronons(&u));
        for t in 0..=400usize {
            prop_assert_eq!(cu[t], ca[t] || cb[t], "mismatch at {}", t);
        }
    }

    #[test]
    fn intersect_matches_pointwise_and(a in arb_set(), b in arb_set()) {
        let i = a.intersect(&b);
        prop_assert!(i.is_normalized());
        let (ca, cb, ci) = (chronons(&a), chronons(&b), chronons(&i));
        for t in 0..=400usize {
            prop_assert_eq!(ci[t], ca[t] && cb[t], "mismatch at {}", t);
        }
    }

    #[test]
    fn complement_matches_pointwise_not(a in arb_set(), lo in 0u64..100, len in 0u64..300) {
        let domain = Interval::lit(lo, lo + len);
        let c = a.complement_within(domain);
        prop_assert!(c.is_normalized());
        let (ca, cc) = (chronons(&a), chronons(&c));
        for t in 0..=400u64 {
            let in_domain = domain.contains(Time(t));
            prop_assert_eq!(
                cc[t as usize],
                in_domain && !ca[t as usize],
                "mismatch at {}", t
            );
        }
    }

    #[test]
    fn complement_involution_within_domain(a in arb_set(), lo in 0u64..50, len in 50u64..300) {
        let domain = Interval::lit(lo, lo + len);
        let restricted = a.intersect(&IntervalSet::of(domain));
        let twice = a.complement_within(domain).complement_within(domain);
        prop_assert_eq!(twice, restricted);
    }

    #[test]
    fn subtract_then_union_restores_superset(a in arb_set(), b in arb_set()) {
        // (a - b) ∪ (a ∩ b) == a
        let diff = a.subtract(&b);
        let meet = a.intersect(&b);
        prop_assert_eq!(diff.union(&meet), a);
    }

    #[test]
    fn de_morgan_within_domain(a in arb_set(), b in arb_set()) {
        let domain = Interval::lit(0, 400);
        let lhs = a.union(&b).complement_within(domain);
        let rhs = a
            .complement_within(domain)
            .intersect(&b.complement_within(domain));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn covers_iff_intersection_is_identity(s in arb_set(), i in arb_interval()) {
        let covered = s.covers(i);
        let meet = s.intersect(&IntervalSet::of(i));
        prop_assert_eq!(covered, meet == IntervalSet::of(i));
    }

    #[test]
    fn merge_agrees_with_set_insertion(a in arb_interval(), b in arb_interval()) {
        let merged = a.merge(b);
        let mut s = IntervalSet::of(a);
        s.insert(b);
        match merged {
            Some(m) => prop_assert_eq!(s, IntervalSet::of(m)),
            None => prop_assert_eq!(s.len(), 2),
        }
    }

    #[test]
    fn temporal_ops_produce_normalized_sets(
        base in arb_interval(),
        operand in arb_interval(),
        tr in 0u64..100,
    ) {
        for op in [
            TemporalOp::Whenever,
            TemporalOp::WheneverNot,
            TemporalOp::Union(operand),
            TemporalOp::Intersection(operand),
        ] {
            let out = op.apply(base, Time(tr));
            prop_assert!(out.is_normalized(), "{} not normalized", op);
        }
    }

    #[test]
    fn whenevernot_never_intersects_base(base in arb_interval(), tr in 0u64..250) {
        let out = TemporalOp::WheneverNot.apply(base, Time(tr));
        prop_assert!(out.intersect(&IntervalSet::of(base)).is_empty());
    }

    #[test]
    fn tree_stab_matches_naive(
        intervals in prop::collection::vec(arb_interval(), 0..40),
        probes in prop::collection::vec(0u64..250, 1..20),
    ) {
        for tree in inserted_and_collected(&intervals) {
            for &t in &probes {
                let mut fast: Vec<usize> =
                    tree.stab(Time(t)).into_iter().map(|(_, v)| *v).collect();
                fast.sort_unstable();
                let slow: Vec<usize> = intervals
                    .iter()
                    .enumerate()
                    .filter(|(_, iv)| iv.contains(Time(t)))
                    .map(|(k, _)| k)
                    .collect();
                prop_assert_eq!(fast, slow);
            }
        }
    }

    #[test]
    fn tree_overlap_matches_naive(
        intervals in prop::collection::vec(arb_interval(), 0..40),
        query in arb_interval(),
    ) {
        for tree in inserted_and_collected(&intervals) {
            let mut fast: Vec<usize> =
                tree.overlapping(query).into_iter().map(|(_, v)| *v).collect();
            fast.sort_unstable();
            let slow: Vec<usize> = intervals
                .iter()
                .enumerate()
                .filter(|(_, iv)| iv.overlaps(query))
                .map(|(k, _)| k)
                .collect();
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn tree_remove_then_queries_consistent(
        intervals in prop::collection::vec(arb_interval(), 1..30),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
    ) {
        for mut tree in inserted_and_collected(&intervals) {
            let mut removed = std::collections::HashSet::new();
            for r in &removals {
                let k = r.index(intervals.len());
                // Either way of building hands the k-th entry handle k.
                let gone = tree.remove(intervals[k], EntryId(k as u64));
                prop_assert_eq!(gone, removed.insert(k).then_some(k));
            }
            prop_assert_eq!(tree.len(), intervals.len() - removed.len());
            for t in [0u64, 50, 100, 150, 200, 249] {
                let mut fast: Vec<usize> =
                    tree.stab(Time(t)).into_iter().map(|(_, v)| *v).collect();
                fast.sort_unstable();
                let slow: Vec<usize> = intervals
                    .iter()
                    .enumerate()
                    .filter(|(k, iv)| !removed.contains(k) && iv.contains(Time(t)))
                    .map(|(k, _)| k)
                    .collect();
                prop_assert_eq!(fast, slow);
            }
        }
    }

    #[test]
    fn serde_round_trip_interval_set(s in arb_set()) {
        let back = IntervalSet::from_value(&s.to_value()).unwrap();
        prop_assert_eq!(s, back);
    }

    #[test]
    fn interval_size_matches_enumeration(a in 0u64..300, len in 0u64..50) {
        let iv = Interval::lit(a, a + len);
        let counted = (0..=400u64).filter(|&t| iv.contains(Time(t))).count() as u64;
        prop_assert_eq!(iv.size(), Some(counted));
        prop_assert_eq!(iv.end(), Bound::At(Time(a + len)));
    }
}
