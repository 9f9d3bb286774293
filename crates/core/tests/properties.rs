//! Property-based tests for the LTAM core: Algorithm 1 against oracles,
//! route-authorization invariants, conflict-resolution laws.

use ltam_core::conflict::{detect_conflicts, resolve_conflicts, ResolutionStrategy};
use ltam_core::db::{AuthId, AuthorizationDb, Provenance, RuleId};
use ltam_core::duration::authorize_route;
use ltam_core::inaccessible::{find_inaccessible, find_inaccessible_naive, AuthsByLocation};
use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::subject::SubjectId;
use ltam_graph::{route, EffectiveGraph, LocationId, LocationModel};
use ltam_time::{Interval, IntervalSet, Time};
use proptest::prelude::*;
use serde::{Deserialize, Value};
use std::collections::BTreeMap;

const ALICE: SubjectId = SubjectId(0);

/// A connected random location graph: spanning tree plus extra chords.
fn arb_graph() -> impl Strategy<Value = (LocationModel, EffectiveGraph)> {
    (
        2usize..10,
        prop::collection::vec(any::<u32>(), 0..12),
        any::<u64>(),
    )
        .prop_map(|(n, chords, seed)| {
            let mut m = LocationModel::new("G");
            let ids: Vec<LocationId> = (0..n)
                .map(|i| m.add_primitive(m.root(), format!("n{i}")).unwrap())
                .collect();
            // Spanning tree: attach each node to a pseudo-random predecessor.
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for i in 1..n {
                let p = (next() as usize) % i;
                m.add_edge(ids[i], ids[p]).unwrap();
            }
            for c in chords {
                let a = (c as usize) % n;
                let b = (c as usize / n) % n;
                if a != b {
                    m.add_edge(ids[a], ids[b]).unwrap();
                }
            }
            m.set_entry(ids[0]).unwrap();
            m.validate().unwrap();
            let g = EffectiveGraph::build(&m);
            (m, g)
        })
}

/// Random Definition-4-valid authorization for a location.
fn arb_auth(l: LocationId) -> impl Strategy<Value = Authorization> {
    (0u64..60, 0u64..40, 0u64..30, 0u64..40, 1u32..4).prop_map(
        move |(tis, elen, dstart, dlen, n)| {
            let tie = tis + elen;
            let tos = tis + dstart.min(elen); // tos >= tis
            let toe = tie + dlen; // toe >= tie
            Authorization::new(
                Interval::lit(tis, tie),
                Interval::lit(tos.min(toe), toe),
                ALICE,
                l,
                EntryLimit::Finite(n),
            )
            .unwrap()
        },
    )
}

/// A row for one of a few subjects and locations (so pairs repeat), with
/// either provenance; derived rows name bases that may not exist.
fn arb_row() -> impl Strategy<Value = (Authorization, Provenance)> {
    (
        (0u32..3, 0u32..3, 0u64..60, 0u64..40),
        (prop::bool::weighted(0.3), 0u32..3, 0u64..12),
    )
        .prop_map(|((s, l, tis, len), (derived, rule, base))| {
            let window = Interval::lit(tis, tis + len);
            let auth = Authorization::new(
                window,
                window,
                SubjectId(s),
                LocationId(l),
                EntryLimit::Unbounded,
            )
            .unwrap();
            let provenance = if derived {
                Provenance::Derived {
                    rule: RuleId(rule),
                    base: AuthId(base),
                }
            } else {
                Provenance::Explicit
            };
            (auth, provenance)
        })
}

/// Everything an [`AuthorizationDb`] answers over the small domain
/// [`arb_row`] draws from — the candidate queries as ordered sequences,
/// the time-sliced ones (which build the entry-window index) as sets,
/// and only when asked for.
fn answers(db: &AuthorizationDb, time_sliced: bool) -> Vec<String> {
    let ids = |rows: Vec<(AuthId, &Authorization)>| {
        let mut ids: Vec<AuthId> = rows.into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        ids
    };
    let mut out = vec![
        format!("{:?} next {}", db.export_rows(), db.next_id()),
        format!("{:?}", db.iter().collect::<Vec<_>>()),
        format!("{:?} len {}", db.export(), db.len()),
    ];
    for id in (0..db.next_id() + 2).map(AuthId) {
        out.push(format!(
            "{id}: {:?} {:?} {:?}",
            db.get(id),
            db.provenance(id),
            db.derived_from(id)
        ));
    }
    for k in 0..4 {
        out.push(format!("{:?}", db.derived_by_rule(RuleId(k))));
        let s = SubjectId(k);
        out.push(format!("{:?}", db.for_subject(s).collect::<Vec<_>>()));
        out.push(format!("{:?}", db.per_location_for_subject(s)));
        for l in (0..4).map(LocationId) {
            out.push(format!(
                "{:?}",
                db.for_subject_location(s, l).collect::<Vec<_>>()
            ));
        }
    }
    if time_sliced {
        for t in (0..110).step_by(7) {
            out.push(format!("{:?}", ids(db.enterable_at(Time(t)))));
            out.push(format!(
                "{:?}",
                ids(db.enterable_during(Interval::lit(t, t + 5)))
            ));
        }
    }
    out
}

/// One step of `the_record_table_is_an_ordered_map`'s script.
#[derive(Debug, Clone)]
enum TableOp {
    Insert(Authorization, Provenance),
    Revoke(prop::sample::Index),
    /// Replace the database with an image: ascending ids after the given
    /// gaps, then a second row under the id of the row picked by the
    /// first index, filed at the position the second picks.
    Import(
        Vec<(u64, (Authorization, Provenance))>,
        prop::sample::Index,
        prop::sample::Index,
    ),
    Reserve(u64),
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    let gap = prop_oneof![9 => 0u64..3, 1 => Just(1_000u64)];
    prop_oneof![
        4 => arb_row().prop_map(|(auth, provenance)| TableOp::Insert(auth, provenance)),
        3 => any::<prop::sample::Index>().prop_map(TableOp::Revoke),
        1 => (
            prop::collection::vec((gap, arb_row()), 1..10),
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
        )
            .prop_map(|(rows, dup, at)| TableOp::Import(rows, dup, at)),
        1 => (0u64..1_040).prop_map(TableOp::Reserve),
    ]
}

/// Everything [`AuthorizationDb`] answers about its records and
/// candidates, as ordered sequences, from the database itself.
fn table_answers(db: &AuthorizationDb) -> Vec<String> {
    let mut out = vec![
        format!("len {} next {}", db.len(), db.next_id()),
        format!("{:?}", db.iter().collect::<Vec<_>>()),
        format!("{:?}", db.export_rows()),
    ];
    for id in (0..db.next_id() + 2).map(AuthId) {
        out.push(format!("{id}: {:?} {:?}", db.get(id), db.provenance(id)));
    }
    for s in (0..4).map(SubjectId) {
        out.push(format!("{:?}", db.for_subject(s).collect::<Vec<_>>()));
        for l in (0..4).map(LocationId) {
            out.push(format!(
                "{:?}",
                db.for_subject_location(s, l).collect::<Vec<_>>()
            ));
        }
    }
    out
}

/// [`table_answers`] from an ordered map of the rows and the id counter.
fn model_answers(rows: &BTreeMap<AuthId, (Authorization, Provenance)>, next: u64) -> Vec<String> {
    let mut out = vec![
        format!("len {} next {next}", rows.len()),
        format!(
            "{:?}",
            rows.iter()
                .map(|(&id, (a, p))| (id, a, *p))
                .collect::<Vec<_>>()
        ),
        format!(
            "{:?}",
            rows.iter()
                .map(|(&id, &(a, p))| (id, a, p))
                .collect::<Vec<_>>()
        ),
    ];
    for id in (0..next + 2).map(AuthId) {
        let row = rows.get(&id);
        out.push(format!(
            "{id}: {:?} {:?}",
            row.map(|(a, _)| a),
            row.map(|&(_, p)| p)
        ));
    }
    for s in (0..4).map(SubjectId) {
        let of = |l: Option<LocationId>| {
            rows.iter()
                .filter(|(_, (a, _))| a.subject() == s && l.is_none_or(|l| a.location() == l))
                .map(|(&id, (a, _))| (id, a))
                .collect::<Vec<_>>()
        };
        out.push(format!("{:?}", of(None)));
        for l in (0..4).map(LocationId) {
            out.push(format!("{:?}", of(Some(l))));
        }
    }
    out
}

fn arb_instance() -> impl Strategy<Value = (LocationModel, EffectiveGraph, AuthsByLocation)> {
    arb_graph().prop_flat_map(|(m, g)| {
        let locs: Vec<LocationId> = g.locations().collect();
        let per_loc: Vec<BoxedStrategy<Vec<Authorization>>> = locs
            .iter()
            .map(|&l| prop::collection::vec(arb_auth(l), 0..3).boxed())
            .collect();
        per_loc.prop_map(move |auth_vecs| {
            let mut auths = AuthsByLocation::new();
            for (l, v) in locs.iter().zip(auth_vecs) {
                if !v.is_empty() {
                    auths.insert(*l, v);
                }
            }
            (m.clone(), g.clone(), auths)
        })
    })
}

/// Graph reachability from the entries (ignoring time windows).
fn unreachable(g: &EffectiveGraph) -> Vec<LocationId> {
    let mut seen: Vec<LocationId> = g.global_entries().to_vec();
    let mut stack = seen.clone();
    while let Some(l) = stack.pop() {
        for &nb in g.neighbors(l) {
            if !seen.contains(&nb) {
                seen.push(nb);
                stack.push(nb);
            }
        }
    }
    g.locations().filter(|l| !seen.contains(l)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unconstrained_windows_reduce_to_graph_reachability((_, g) in arb_graph()) {
        let mut auths = AuthsByLocation::new();
        for l in g.locations() {
            auths.insert(
                l,
                vec![Authorization::new(
                    Interval::ALL,
                    Interval::ALL,
                    ALICE,
                    l,
                    EntryLimit::Unbounded,
                )
                .unwrap()],
            );
        }
        let report = find_inaccessible(&g, &auths);
        prop_assert_eq!(report.inaccessible, unreachable(&g));
    }

    #[test]
    fn fixpoint_accessibility_dominates_simple_routes(
        (_, g, auths) in arb_instance()
    ) {
        // Anything reachable by an authorized simple route must be reachable
        // per Algorithm 1 (the fixpoint also admits walks, so it can only
        // find more).
        let fix = find_inaccessible(&g, &auths);
        let naive = find_inaccessible_naive(&g, &auths, g.len(), 20_000);
        for l in &fix.inaccessible {
            prop_assert!(
                naive.contains(l),
                "{} accessible via simple route but fixpoint says inaccessible", l
            );
        }
    }

    #[test]
    fn adding_authorizations_is_monotone((_, g, auths) in arb_instance(), extra in any::<u64>()) {
        let before = find_inaccessible(&g, &auths);
        let mut more = auths.clone();
        let locs: Vec<LocationId> = g.locations().collect();
        let target = locs[(extra as usize) % locs.len()];
        more.entry(target).or_default().push(
            Authorization::new(
                Interval::ALL,
                Interval::ALL,
                ALICE,
                target,
                EntryLimit::Unbounded,
            )
            .unwrap(),
        );
        let after = find_inaccessible(&g, &more);
        // Granting more can only shrink the inaccessible set.
        for l in &after.inaccessible {
            prop_assert!(before.inaccessible.contains(l));
        }
    }

    #[test]
    fn grant_times_subset_of_entry_windows((_, g, auths) in arb_instance()) {
        // T^g of a location can never exceed the union of its own entry
        // windows (Algorithm 1 line 21 intersects with [tis, tie]).
        let report = find_inaccessible(&g, &auths);
        for (l, tg) in &report.grant_times {
            let own: IntervalSet = auths
                .get(l)
                .map(|v| v.iter().map(|a| a.entry_window()).collect())
                .unwrap_or_default();
            prop_assert_eq!(tg.intersect(&own), tg.clone(), "T^g exceeds entry windows at {}", l);
        }
    }

    #[test]
    fn authorized_route_has_nonempty_departure((_, g, auths) in arb_instance(), pick in any::<u64>()) {
        // For every shortest route between entry and some location, if the
        // route authorizes, its departure set is non-empty (Definition 4
        // guarantees leavability).
        let locs: Vec<LocationId> = g.locations().collect();
        let target = locs[(pick as usize) % locs.len()];
        let entry = g.global_entries()[0];
        if let Some(r) = route::shortest_route(&g, entry, target) {
            let res = authorize_route(r.locations(), Interval::ALL, |l| {
                auths.get(&l).map(Vec::as_slice).unwrap_or(&[])
            });
            if let Ok(ra) = res {
                prop_assert!(!ra.grant.is_empty());
                prop_assert!(!ra.departure.is_empty());
                prop_assert_eq!(ra.hop_grants.len(), r.len());
            }
        }
    }

    #[test]
    fn resolution_reaches_quiescence(
        entries in prop::collection::vec((0u64..30, 0u64..10, 0u64..10, 1u32..3), 1..8),
        strategy in prop::sample::select(vec![
            ResolutionStrategy::Merge,
            ResolutionStrategy::PreferFirst,
            ResolutionStrategy::PreferExplicit,
        ]),
    ) {
        let mut db = AuthorizationDb::new();
        for (start, elen, dlen, n) in entries {
            let entry = Interval::lit(start, start + elen);
            let exit = Interval::lit(start, start + elen + dlen);
            db.insert(
                Authorization::new(entry, exit, ALICE, LocationId(0), EntryLimit::Finite(n))
                    .unwrap(),
            );
        }
        let _ = resolve_conflicts(&mut db, strategy);
        prop_assert!(detect_conflicts(&db).is_empty());
    }

    #[test]
    fn merge_preserves_entry_coverage(
        entries in prop::collection::vec((0u64..30, 0u64..10, 0u64..10, 1u32..3), 1..8),
    ) {
        let mut db = AuthorizationDb::new();
        let mut coverage = IntervalSet::empty();
        for (start, elen, dlen, n) in entries {
            let entry = Interval::lit(start, start + elen);
            coverage.insert(entry);
            let exit = Interval::lit(start, start + elen + dlen);
            db.insert(
                Authorization::new(entry, exit, ALICE, LocationId(0), EntryLimit::Finite(n))
                    .unwrap(),
            );
        }
        resolve_conflicts(&mut db, ResolutionStrategy::Merge);
        let after: IntervalSet = db.iter().map(|(_, a, _)| a.entry_window()).collect();
        prop_assert_eq!(after, coverage);
    }

    #[test]
    fn decision_grant_implies_window_and_budget(
        (_, _, auths) in arb_instance(),
        t in 0u64..120,
    ) {
        use ltam_core::decision::{check_access, AccessRequest, Decision};
        use ltam_core::ledger::UsageLedger;
        let mut db = AuthorizationDb::new();
        for v in auths.values() {
            for a in v {
                db.insert(*a);
            }
        }
        let ledger = UsageLedger::new();
        for (l, v) in &auths {
            let req = AccessRequest { time: Time(t), subject: ALICE, location: *l };
            let d = check_access(&db, &ledger, &req);
            let any_window = v.iter().any(|a| a.admits_entry_at(Time(t)));
            match d {
                Decision::Granted { auth } => {
                    let a = db.get(auth).unwrap();
                    prop_assert!(a.admits_entry_at(Time(t)));
                    prop_assert_eq!(a.location(), *l);
                }
                Decision::Denied { .. } => prop_assert!(!any_window || v.is_empty()),
                // `check_access` judges the base model alone; overrides
                // exist only under a declared situation (ltam-situate).
                Decision::GrantedOverride { .. } => {
                    prop_assert!(false, "base check_access issued an override grant")
                }
            }
        }
    }

    #[test]
    fn bulk_build_is_the_row_by_row_build(
        rows in prop::collection::vec((0u64..3, arb_row()), 0..24),
        edits in prop::collection::vec(
            prop_oneof![
                arb_row().prop_map(Ok),
                any::<prop::sample::Index>().prop_map(Err),
            ],
            0..12,
        ),
    ) {
        // Ids ascend with gaps, as in an image taken after revocations.
        let mut id = 0;
        let rows: Vec<(AuthId, Authorization, Provenance)> = rows
            .into_iter()
            .map(|(gap, (auth, provenance))| {
                id += gap + 1;
                (AuthId(id - 1), auth, provenance)
            })
            .collect();
        let mut oracle = AuthorizationDb::new();
        for &(id, auth, provenance) in &rows {
            oracle.reserve_ids_through(id.0);
            prop_assert_eq!(oracle.insert_with_provenance(auth, provenance), id);
        }
        // `cold` is never asked a time-sliced question until the edits are
        // over; `warm` is asked after every one, so its index is built,
        // kept current by inserts and rebuilt after revocations.
        let mut cold = AuthorizationDb::import_rows(rows);
        prop_assert_eq!(answers(&cold, false), answers(&oracle, false));
        let mut warm = cold.clone();
        prop_assert_eq!(answers(&warm, true), answers(&oracle, true));
        for edit in edits {
            match edit {
                Ok((auth, provenance)) => {
                    let id = oracle.insert_with_provenance(auth, provenance);
                    prop_assert_eq!(cold.insert_with_provenance(auth, provenance), id);
                    prop_assert_eq!(warm.insert_with_provenance(auth, provenance), id);
                }
                Err(pick) => {
                    let id = AuthId(pick.index(oracle.next_id() as usize + 1) as u64);
                    let gone = oracle.revoke(id);
                    prop_assert_eq!(cold.revoke(id), gone);
                    prop_assert_eq!(warm.revoke(id), gone);
                }
            }
            prop_assert_eq!(answers(&warm, true), answers(&oracle, true));
        }
        prop_assert_eq!(answers(&cold, false), answers(&oracle, false));
        prop_assert_eq!(answers(&cold, true), answers(&oracle, true));
        // An image of the edited database loads back to the same answers.
        let mut reloaded = AuthorizationDb::import_rows(oracle.export_rows());
        reloaded.reserve_ids_through(oracle.next_id());
        prop_assert_eq!(answers(&reloaded, true), answers(&oracle, true));
    }

    #[test]
    fn the_record_table_is_an_ordered_map(ops in prop::collection::vec(arb_table_op(), 1..40)) {
        let mut db = AuthorizationDb::new();
        let mut rows: BTreeMap<AuthId, (Authorization, Provenance)> = BTreeMap::new();
        let mut next = 0u64;
        for op in ops {
            match op {
                TableOp::Insert(auth, provenance) => {
                    prop_assert_eq!(db.insert_with_provenance(auth, provenance), AuthId(next));
                    rows.insert(AuthId(next), (auth, provenance));
                    next += 1;
                }
                TableOp::Revoke(pick) => {
                    let id = AuthId(pick.index(next as usize + 1) as u64);
                    prop_assert_eq!(db.revoke(id), rows.remove(&id).map(|(a, _)| a));
                }
                TableOp::Import(gapped, dup, at) => {
                    let mut id = 0;
                    let mut image: Vec<(AuthId, Authorization, Provenance)> = gapped
                        .into_iter()
                        .map(|(gap, (auth, provenance))| {
                            id += gap + 1;
                            (AuthId(id - 1), auth, provenance)
                        })
                        .collect();
                    let copied = dup.index(image.len());
                    let (_, auth, provenance) = image[(copied + 1) % image.len()];
                    let at = copied + 1 + at.index(image.len() - copied);
                    image.insert(at, (image[copied].0, auth, provenance));
                    rows = image.iter().map(|&(id, a, p)| (id, (a, p))).collect();
                    next = rows.keys().next_back().map_or(0, |id| id.0 + 1);
                    db = AuthorizationDb::import_rows(image);
                }
                TableOp::Reserve(through) => {
                    db.reserve_ids_through(through);
                    next = next.max(through);
                }
            }
            prop_assert_eq!(table_answers(&db), model_answers(&rows, next));
        }
    }

    #[test]
    fn invalid_serde_rejected(tis in 5u64..50, gap in 1u64..5) {
        // Deserializing an authorization violating Definition 4 must fail;
        // the same record with a valid exit window loads.
        let window = |start: u64, end: u64| {
            let end = Value::Object(vec![("At".into(), Value::U64(end))]);
            Value::Object(vec![("start".into(), Value::U64(start)), ("end".into(), end)])
        };
        let auth = |exit_start: u64| {
            Value::Object(vec![
                ("entry_window".into(), window(tis, tis + 10)),
                ("exit_window".into(), window(exit_start, tis + 10)),
                ("subject".into(), Value::U64(0)),
                ("location".into(), Value::U64(1)),
                ("limit".into(), Value::Str("Unbounded".into())),
            ])
        };
        prop_assert!(Authorization::from_value(&auth(tis)).is_ok());
        prop_assert!(Authorization::from_value(&auth(tis - gap)).is_err());
    }
}
