//! Property-based tests for the location model and effective graph.

use ltam_graph::{dot, route, EffectiveGraph, LocationId, LocationKind, LocationModel, Route};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

/// Generate a random two-level campus: `b` buildings with `r` rooms each,
/// rooms chained inside each building, buildings chained at the top level;
/// pseudo-random extra edges inside buildings; first room of each building
/// is its entry; building 0 is the campus entry.
fn arb_campus() -> impl Strategy<Value = LocationModel> {
    (1usize..5, 1usize..5, any::<u64>()).prop_map(|(b, r, seed)| {
        let mut m = LocationModel::new("Campus");
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut comps = Vec::new();
        for bi in 0..b {
            let comp = m.add_composite(m.root(), format!("B{bi}")).unwrap();
            let mut rooms = Vec::new();
            for ri in 0..r {
                rooms.push(m.add_primitive(comp, format!("B{bi}R{ri}")).unwrap());
            }
            for w in rooms.windows(2) {
                m.add_edge(w[0], w[1]).unwrap();
            }
            // Extra chords.
            for _ in 0..(next() % 3) {
                let a = rooms[(next() as usize) % rooms.len()];
                let c = rooms[(next() as usize) % rooms.len()];
                if a != c {
                    m.add_edge(a, c).unwrap();
                }
            }
            m.set_entry(rooms[0]).unwrap();
            // Sometimes a second entry.
            if rooms.len() > 1 && next() % 2 == 0 {
                m.set_entry(rooms[rooms.len() - 1]).unwrap();
            }
            comps.push(comp);
        }
        for w in comps.windows(2) {
            m.add_edge(w[0], w[1]).unwrap();
        }
        m.set_entry(comps[0]).unwrap();
        m.validate().unwrap();
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn effective_graph_is_symmetric_and_loop_free(model in arb_campus()) {
        let g = EffectiveGraph::build(&model);
        for a in g.locations() {
            prop_assert!(!g.adjacent(a, a), "self loop at {a}");
            for &b in g.neighbors(a) {
                prop_assert!(g.adjacent(b, a), "asymmetric edge {a}–{b}");
            }
        }
    }

    #[test]
    fn effective_vertices_are_exactly_the_primitives(model in arb_campus()) {
        let g = EffectiveGraph::build(&model);
        let prims: Vec<LocationId> = model.primitives().collect();
        let verts: Vec<LocationId> = g.locations().collect();
        prop_assert_eq!(prims, verts);
        for e in g.global_entries() {
            prop_assert_eq!(model.kind(*e), LocationKind::Primitive);
        }
    }

    #[test]
    fn entry_primitives_are_contained_and_consistent(model in arb_campus()) {
        for id in model.ids() {
            let under = model.primitives_under(id);
            for e in model.entry_primitives(id) {
                prop_assert!(under.contains(&e), "entry {e} outside its composite");
            }
        }
    }

    #[test]
    fn restriction_is_a_subgraph(model in arb_campus()) {
        let g = EffectiveGraph::build(&model);
        for c in model.ids() {
            if model.kind(c) != LocationKind::Composite || c == model.root() {
                continue;
            }
            let r = g.restrict_to(&model, c);
            for a in r.locations() {
                prop_assert!(g.contains(a));
                for &b in r.neighbors(a) {
                    prop_assert!(g.adjacent(a, b), "restricted edge {a}–{b} not in full graph");
                }
            }
        }
    }

    #[test]
    fn bfs_routes_validate_as_complex_routes(model in arb_campus()) {
        let g = EffectiveGraph::build(&model);
        let entries = g.global_entries().to_vec();
        prop_assume!(!entries.is_empty());
        for target in g.locations() {
            if let Some(r) = route::shortest_route(&g, entries[0], target) {
                prop_assert!(Route::complex(&g, r.locations()).is_ok());
                prop_assert_eq!(r.source(), entries[0]);
                prop_assert_eq!(r.destination(), target);
            }
        }
    }

    #[test]
    fn all_routes_are_simple_paths_and_include_shortest(model in arb_campus()) {
        let g = EffectiveGraph::build(&model);
        let entry = g.global_entries()[0];
        let targets: Vec<LocationId> = g.locations().take(3).collect();
        for target in targets {
            let routes = route::all_routes(&g, entry, target, g.len(), 500);
            let shortest = route::shortest_route(&g, entry, target);
            match shortest {
                Some(s) => {
                    prop_assert!(!routes.is_empty());
                    let min_len = routes.iter().map(Route::len).min().unwrap();
                    prop_assert_eq!(min_len, s.len(), "shortest not among enumerated");
                }
                None => prop_assert!(routes.is_empty()),
            }
            for r in &routes {
                prop_assert!(Route::complex(&g, r.locations()).is_ok());
                // Simple path: no repeated locations.
                let mut sorted = r.locations().to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), r.len(), "repeated location in route");
            }
        }
    }

    #[test]
    fn dot_mentions_every_primitive(model in arb_campus()) {
        let text = dot::to_dot(&model);
        for p in model.primitives() {
            prop_assert!(
                text.contains(&format!("\"{}\"", model.name(p))),
                "{} missing from DOT", model.name(p)
            );
        }
    }

    #[test]
    fn serde_round_trip_preserves_structure(model in arb_campus()) {
        let back = LocationModel::from_value(&model.to_value()).unwrap();
        prop_assert_eq!(back.len(), model.len());
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(EffectiveGraph::build(&back), EffectiveGraph::build(&model));
    }

    #[test]
    fn is_part_of_is_transitive_over_parents(model in arb_campus()) {
        for id in model.ids() {
            let mut cur = id;
            while let Some(p) = model.parent(cur) {
                prop_assert!(model.is_part_of(id, p));
                cur = p;
            }
            prop_assert!(model.is_part_of(id, model.root()));
        }
    }
}
