//! The paper's figures and tables, one function each, in paper order
//! (`EXPERIMENTS.md` maps each to its artifact), plus the planner
//! cross-check of Algorithm 1.

use crate::banner;
use ltam_bench::{fig4_instance, ALICE};
use ltam_core::decision::Decision;
use ltam_core::inaccessible::{
    find_inaccessible, find_inaccessible_naive, find_inaccessible_traced, TraceRow,
};
use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::rules::{CountExpr, LocationOp, OpTuple, Rule, StaticProfiles, SubjectOp};
use ltam_core::subject::SubjectId;
use ltam_core::{AuthorizationDb, RuleEngine};
use ltam_engine::engine::AccessControlEngine;
use ltam_graph::examples::ntu_campus;
use ltam_graph::{dot, EffectiveGraph, LocationId, LocationKind, LocationModel, Route};
use ltam_sim::{
    overstay_detection, sars_contact_tracing, scaling_instance, tailgating_differential,
};
use ltam_time::{Interval, TemporalOp, Time};
use std::time::{Duration, Instant};

/// Figure 1: the NTU location layout (hierarchy listing).
pub fn fig1() {
    banner("Figure 1: NTU location layout");
    let ntu = ntu_campus();
    print_tree(&ntu.model, ntu.model.root(), 0);
}

fn print_tree(model: &LocationModel, at: LocationId, depth: usize) {
    let indent = "  ".repeat(depth);
    let kind = match model.kind(at) {
        LocationKind::Primitive => "room",
        LocationKind::Composite => "graph",
    };
    let entry = if model.is_entry(at) { "  [entry]" } else { "" };
    println!("{indent}{} ({kind}){entry}", model.name(at));
    for &c in model.children(at) {
        print_tree(model, c, depth + 1);
    }
}

/// Figure 2: the multilevel location graph (DOT + route validations).
pub fn fig2() {
    banner("Figure 2: multilevel location graph");
    let ntu = ntu_campus();
    println!("{}", dot::to_dot(&ntu.model));
    let g = EffectiveGraph::build(&ntu.model);
    println!(
        "primitives: {}, effective edges: {}, campus entries: {:?}",
        g.len(),
        g.edge_count(),
        g.global_entries()
            .iter()
            .map(|&l| ntu.model.name(l))
            .collect::<Vec<_>>()
    );
    let simple = [ntu.sce_dean, ntu.sce_a, ntu.sce_b, ntu.cais];
    let r = Route::simple(&ntu.model, &simple).expect("paper's simple route holds");
    println!("simple route (paper, §3.1):  {}", r.display(&ntu.model));
    let complex = [
        ntu.eee_dean,
        ntu.eee_a,
        ntu.eee_go,
        ntu.sce_go,
        ntu.sce_a,
        ntu.sce_dean,
    ];
    let r = Route::complex(&g, &complex).expect("paper's complex route holds");
    println!("complex route (paper, §3.1): {}", r.display(&ntu.model));
}

/// Figure 3: the enforcement architecture, demonstrated live.
pub fn fig3() {
    banner("Figure 3: enforcement architecture (live demo)");
    let ntu = ntu_campus();
    let cais = ntu.cais;
    let mut engine = AccessControlEngine::new(ntu.model);
    let alice = engine.profiles_mut().add_user("Alice", "researcher");
    let bob = engine.profiles_mut().add_user("Bob", "professor");
    engine.profiles_mut().set_supervisor(alice, bob);
    let a1 = engine.add_authorization(
        Authorization::new(
            Interval::lit(5, 40),
            Interval::lit(20, 100),
            alice,
            cais,
            EntryLimit::Finite(1),
        )
        .expect("valid authorization"),
    );
    // Alice can also traverse the corridor from the SCE general office, so
    // CAIS is reachable from a campus entry (cf. §6: defining the CAIS
    // authorization alone would leave it inaccessible).
    for l in [ntu.sce_go, ntu.sce_a, ntu.sce_b] {
        engine.add_authorization(
            Authorization::new(
                Interval::ALL,
                Interval::ALL,
                alice,
                l,
                EntryLimit::Unbounded,
            )
            .expect("valid authorization"),
        );
    }
    println!(
        "components: Authorization DB ({} auths), Location&Movements DB ({} events),",
        engine.db().len(),
        engine.movements().len()
    );
    println!(
        "            User Profile DB ({} users), Access Control Engine, Query Engine",
        engine.profiles().len()
    );
    println!("administrator adds {a1}: ([5, 40], [20, 100], (Alice, CAIS), 1)");
    let d = engine.request_enter(Time(10), alice, cais);
    println!("t=10 access request (10, Alice, CAIS): {d}");
    engine.observe_enter(Time(10), alice, cais);
    println!("t=10 tracking reports Alice entering CAIS (ledger: 1 entry used)");
    for q in [
        "CAN Alice ENTER CAIS AT 12",
        "WHO IN CAIS AT 10",
        "ACCESSIBLE FOR Alice",
    ] {
        println!("query> {q}");
        print!("{}", engine.query(q).expect("query evaluates"));
    }
    engine.observe_exit(Time(15), alice, cais);
    println!("t=15 Alice leaves CAIS (before exit window [20,100] opens)");
    println!("query> VIOLATIONS");
    print!("{}", engine.query("VIOLATIONS").expect("query evaluates"));
}

/// §3.2: the authorization semantics example.
pub fn authz() {
    banner("§3.2 example: ([5, 40], [20, 100], (Alice, CAIS), 1)");
    let ntu = ntu_campus();
    let a = Authorization::new(
        Interval::lit(5, 40),
        Interval::lit(20, 100),
        ALICE,
        ntu.cais,
        EntryLimit::Finite(1),
    )
    .expect("valid authorization");
    println!("authorization: {a}");
    for (t, what) in [(4, "enter"), (5, "enter"), (40, "enter"), (41, "enter")] {
        println!(
            "  may {what} at t={t}? {}",
            if a.admits_entry_at(Time(t)) {
                "yes"
            } else {
                "no"
            }
        );
    }
    for t in [19, 20, 100, 101] {
        println!(
            "  may exit at t={t}? {}",
            if a.admits_exit_at(Time(t)) {
                "yes"
            } else {
                "no"
            }
        );
    }
    println!("  staying past t=100 raises an overstay warning to the guards");
}

/// §4 Examples 1–3: rule derivations r1, r2, r3.
pub fn rules() {
    banner("§4 Examples 1-3: authorization rules");
    let ntu = ntu_campus();
    let graph = EffectiveGraph::build(&ntu.model);
    let mut db = AuthorizationDb::new();
    let alice = SubjectId(0);
    let bob = SubjectId(1);
    let a1 = db.insert(
        Authorization::new(
            Interval::lit(5, 20),
            Interval::lit(15, 50),
            alice,
            ntu.cais,
            EntryLimit::Finite(2),
        )
        .expect("valid authorization"),
    );
    let mut profiles = StaticProfiles::default();
    profiles.supervisors.insert(alice, bob);
    let engine = RuleEngine::new();
    println!("a1 = ([5, 20], [15, 50], (Alice, CAIS), 2)   [{a1}]");

    let show = |name: &str, rule: &Rule, engine: &RuleEngine| {
        let derived = engine
            .derive(rule, &db, &profiles, &graph)
            .expect("rule derives");
        println!("{name}:");
        for a in &derived {
            let subj = if a.subject() == alice { "Alice" } else { "Bob" };
            println!(
                "  derived ({}, {}, ({subj}, {}), {})",
                a.entry_window(),
                a.exit_window(),
                ntu.model.name(a.location()),
                a.limit()
            );
        }
    };

    // r1: ⟨7: a1, (WHENEVER, WHENEVER, Supervisor_Of, CAIS, 2)⟩
    let r1 = Rule {
        valid_from: Time(7),
        base: a1,
        ops: OpTuple {
            subject_op: SubjectOp::SupervisorOf,
            count: CountExpr::Const(2),
            ..OpTuple::default()
        },
    };
    show(
        "r1 = <7: a1, (WHENEVER, WHENEVER, Supervisor_Of, CAIS, 2)>",
        &r1,
        &engine,
    );

    // r2: entry INTERSECTION([10, 30]).
    let r2 = Rule {
        valid_from: Time(7),
        base: a1,
        ops: OpTuple {
            entry_op: TemporalOp::Intersection(Interval::lit(10, 30)),
            subject_op: SubjectOp::SupervisorOf,
            count: CountExpr::Const(2),
            ..OpTuple::default()
        },
    };
    show(
        "r2 = <7: a1, (INTERSECTION([10, 30]), WHENEVER, Supervisor_Of, CAIS, 2)>",
        &r2,
        &engine,
    );

    // r3: all_route_from(SCE.GO).
    let r3 = Rule {
        valid_from: Time(7),
        base: a1,
        ops: OpTuple {
            location_op: LocationOp::AllRouteFrom { source: ntu.sce_go },
            count: CountExpr::Const(2),
            ..OpTuple::default()
        },
    };
    show(
        "r3 = <7: a1, (WHENEVER, WHENEVER, -, all_route_from(SCE.GO), 2)>",
        &r3,
        &engine,
    );
}

/// §5: the enforcement walkthrough at t = 10, 15, 16, 20, 30.
pub fn section5() {
    banner("§5 scenario: A1/A2 decision sequence");
    let ntu = ntu_campus();
    let mut engine = AccessControlEngine::new(ntu.model);
    let alice = engine.profiles_mut().add_user("Alice", "researcher");
    let bob = engine.profiles_mut().add_user("Bob", "professor");
    let a1 = engine.add_authorization(
        Authorization::new(
            Interval::lit(10, 20),
            Interval::lit(10, 50),
            alice,
            ntu.cais,
            EntryLimit::Finite(2),
        )
        .expect("valid"),
    );
    let a2 = engine.add_authorization(
        Authorization::new(
            Interval::lit(5, 35),
            Interval::lit(20, 100),
            bob,
            ntu.chipes,
            EntryLimit::Finite(1),
        )
        .expect("valid"),
    );
    println!("A1 [{a1}] = ([10, 20], [10, 50], (Alice, CAIS), 2)");
    println!("A2 [{a2}] = ([5, 35], [20, 100], (Bob, CHIPES), 1)");
    let step = |engine: &mut AccessControlEngine, t: u64, who: SubjectId, name: &str, l, lname| {
        let d = engine.request_enter(Time(t), who, l);
        println!("t={t}: access request ({t}, {name}, {lname}) -> {d}");
        if let Decision::Granted { .. } = d {
            engine.observe_enter(Time(t), who, l);
        }
    };
    step(&mut engine, 10, alice, "Alice", ntu.cais, "CAIS");
    step(&mut engine, 15, bob, "Bob", ntu.cais, "CAIS");
    step(&mut engine, 16, bob, "Bob", ntu.chipes, "CHIPES");
    engine.observe_exit(Time(20), bob, ntu.chipes);
    println!("t=20: Bob leaves CHIPES (inside exit window [20, 100])");
    step(&mut engine, 30, bob, "Bob", ntu.chipes, "CHIPES");
}

/// Figure 4 + Tables 1–2: the FindInaccessible trace.
pub fn table2() {
    banner("Figure 4 + Table 1 + Table 2: FindInaccessible(G, Alice)");
    let (f, auths) = fig4_instance();
    println!("Table 1 (authorizations):");
    for (l, v) in &auths {
        for a in v {
            println!(
                "  {}: ({}, {}, (Alice, {}), {})",
                f.model.name(*l),
                a.entry_window(),
                a.exit_window(),
                f.model.name(*l),
                a.limit()
            );
        }
    }
    let g = EffectiveGraph::build(&f.model);
    let (report, trace) = find_inaccessible_traced(&g, &auths);
    println!("\nTable 2 (algorithm trace):");
    print_trace_header(&f.model, &trace.rows[0]);
    for row in &trace.rows {
        print_trace_row(&f.model, row);
    }
    println!(
        "\ninaccessible locations: {:?}",
        report
            .inaccessible
            .iter()
            .map(|&l| f.model.name(l))
            .collect::<Vec<_>>()
    );
    println!("rounds: {}, updates: {}", report.rounds, report.updates);
}

fn print_trace_header(model: &LocationModel, row: &TraceRow) {
    print!("{:<12}", "step");
    for s in &row.states {
        print!(
            "| {:^30} ",
            format!("{} (flag, T^g, T^d)", model.name(s.location))
        );
    }
    println!();
}

fn print_trace_row(model: &LocationModel, row: &TraceRow) {
    let label = row
        .label
        .strip_prefix("Update ")
        .map(|rest| {
            let id: LocationId = row
                .states
                .iter()
                .map(|s| s.location)
                .find(|l| l.to_string() == rest)
                .unwrap_or(row.states[0].location);
            format!("Update {}", model.name(id))
        })
        .unwrap_or_else(|| row.label.clone());
    print!("{label:<12}");
    for s in &row.states {
        let flag = if s.flag { "T" } else { "F" };
        print!(
            "| {flag} {:>12} {:>12} ",
            s.grant.to_string(),
            s.departure.to_string()
        );
    }
    println!();
}

/// §6: the complexity claim O(N_L² · N_d · N_a), measured, and what the
/// fixpoint buys over the naive baseline the section argues against.
pub fn scaling() {
    banner("§6 complexity: Algorithm 1 scaling (wall-clock, single runs)");
    println!(
        "{:<10} {:<6} {:<6} {:>12} {:>10}",
        "N_L", "N_d", "N_a", "updates", "time"
    );
    for &(n, d, a) in &[
        (16usize, 4usize, 2usize),
        (32, 4, 2),
        (64, 4, 2),
        (128, 4, 2),
        (256, 4, 2),
        (512, 4, 2),
        (64, 2, 2),
        (64, 8, 2),
        (64, 16, 2),
        (64, 4, 1),
        (64, 4, 4),
        (64, 4, 8),
    ] {
        let (world, auths) = scaling_instance(n, d, a, 42);
        let start = Instant::now();
        let report = find_inaccessible(&world.graph, &auths);
        let elapsed = start.elapsed();
        println!(
            "{:<10} {:<6} {:<6} {:>12} {:>10.2?}",
            n,
            world.graph.max_degree(),
            a,
            report.updates,
            elapsed
        );
    }
    println!("\nAlgorithm 1's fixpoint vs naive route enumeration (generator degree 3, N_a 2):");
    println!(
        "{:<10} {:>14} {:>12} {:>14} {:>8}",
        "N_L", "inaccessible", "fixpoint", "naive routes", "agree"
    );
    for row in fixpoint_vs_naive() {
        println!(
            "{:<10} {:>14} {:>12.2?} {:>14.2?} {:>8}",
            row.locations,
            row.inaccessible,
            row.fixpoint,
            row.naive,
            crate::yes_no(row.agree)
        );
    }
}

/// One size of the §6 ablation: Algorithm 1 against enumerating every
/// simple route from every entry and authorizing each as a chain.
struct AblationRow {
    locations: usize,
    inaccessible: usize,
    fixpoint: Duration,
    naive: Duration,
    /// Both found the same inaccessible set.
    agree: bool,
}

/// The ablation at graph sizes 4…12: the fixpoint stays near-linear in
/// graph size while the enumeration grows combinatorially.
fn fixpoint_vs_naive() -> Vec<AblationRow> {
    [4usize, 6, 8, 10, 12]
        .into_iter()
        .map(|n| {
            let (world, auths) = scaling_instance(n, 3, 2, 7);
            let start = Instant::now();
            let mut fixpoint = find_inaccessible(&world.graph, &auths).inaccessible;
            let fixpoint_time = start.elapsed();
            let start = Instant::now();
            let mut naive = find_inaccessible_naive(&world.graph, &auths, n, 100_000);
            let naive_time = start.elapsed();
            fixpoint.sort();
            naive.sort();
            AblationRow {
                locations: n,
                inaccessible: fixpoint.len(),
                fixpoint: fixpoint_time,
                naive: naive_time,
                agree: fixpoint == naive,
            }
        })
        .collect()
}

/// §1 claims: LTAM vs the card-reader baseline.
pub fn baseline() {
    banner("§1 baseline comparison: LTAM vs card-reader systems");
    println!("tailgating (group follows one authorized leader):");
    println!(
        "{:>12} {:>16} {:>20}",
        "tailgaters", "LTAM detected", "card-reader detected"
    );
    for &k in &[1usize, 2, 4, 8] {
        let out = tailgating_differential(k, 80, 42);
        println!(
            "{:>12} {:>16} {:>20}",
            out.tailgaters, out.ltam_detected, out.baseline_detected
        );
    }
    println!("\noverstay detection (subjects ignoring exit windows):");
    for &(o, c) in &[(1usize, 5usize), (3, 5), (5, 5)] {
        let out = overstay_detection(o, c, 42);
        println!(
            "  {} overstayers, {} compliant -> flagged {}, false positives {}",
            out.overstayers, c, out.flagged, out.false_positives
        );
    }
    println!("\nSARS contact tracing over the movements DB:");
    for &staff in &[4usize, 8, 16] {
        let out = sars_contact_tracing(staff, 150, 42);
        println!(
            "  staff {} -> quarantine list {} subjects ({} co-location records)",
            out.staff,
            out.quarantine.len(),
            out.contact_records
        );
    }
}

/// Extension: temporal route planning on the Figure 4 instance
/// (cross-validates Algorithm 1 with an independent algorithm).
pub fn planner() {
    banner("Extension: earliest authorized visits (Figure 4 instance)");
    let (f, auths) = fig4_instance();
    let g = EffectiveGraph::build(&f.model);
    let report = find_inaccessible(&g, &auths);
    println!(
        "{:<10} {:>18} {:>14}",
        "location", "earliest entry", "Algorithm 1"
    );
    for l in g.locations() {
        let plan = ltam_core::planner::earliest_visit(&g, &auths, l, Time(0));
        let earliest = plan
            .as_ref()
            .map(|it| format!("t={}", it.arrival))
            .unwrap_or_else(|| "unreachable".to_string());
        let alg1 = if report.is_inaccessible(l) {
            "inaccessible"
        } else {
            "accessible"
        };
        println!("{:<10} {:>18} {:>14}", f.model.name(l), earliest, alg1);
        if let Some(it) = plan {
            let hops: Vec<String> = it
                .steps
                .iter()
                .map(|s| format!("{}@{}", f.model.name(s.location), s.enter_at))
                .collect();
            println!("{:<10} via {}", "", hops.join(" -> "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fixpoint_and_the_naive_enumeration_agree_at_every_timed_size() {
        let rows = fixpoint_vs_naive();
        assert_eq!(
            rows.iter().map(|r| r.locations).collect::<Vec<_>>(),
            [4, 6, 8, 10, 12]
        );
        for row in rows {
            assert!(row.agree, "the two disagree at N_L = {}", row.locations);
        }
    }
}
