//! Paper-reproduction harness: regenerates every figure and table of
//! *LTAM: A Location-Temporal Authorization Model* (Yu & Lim, SDM 2004).
//!
//! ```text
//! repro [fig1|fig2|fig3|authz|rules|section5|table2|scaling|baseline|planner|throughput|durability|retention|serve|replicate|auth|situations|metrics|all]
//! ```
//!
//! With no argument (or `all`) every experiment runs in paper order.
//! `EXPERIMENTS.md` records this output against the paper's claims.
//! `throughput`, `durability`, `retention`, `serve` and `replicate`
//! (extensions, not paper artifacts) measure sharded batch ingestion
//! vs the global-lock engine, crash-recovery of the WAL-backed engine,
//! bounded live state under history retention, the network serving
//! tier under concurrent clients, and read-replica staleness with a
//! mid-stream follower kill + re-bootstrap respectively; see each
//! subcommand's `--help`. `metrics` is not an experiment at all: it
//! scrapes a running server's metric registry over the wire
//! (`docs/OPERATIONS.md` §7).

use ltam_bench::{fig4_instance, ALICE};
use ltam_core::decision::Decision;
use ltam_core::inaccessible::{find_inaccessible, find_inaccessible_traced, TraceRow};
use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::rules::{CountExpr, LocationOp, OpTuple, Rule, StaticProfiles, SubjectOp};
use ltam_core::subject::SubjectId;
use ltam_core::{AuthorizationDb, RuleEngine};
use ltam_engine::engine::AccessControlEngine;
use ltam_graph::examples::ntu_campus;
use ltam_graph::{dot, EffectiveGraph, LocationKind, LocationModel, Route};
use ltam_sim::{
    overstay_detection, sars_contact_tracing, scaling_instance, tailgating_differential,
};
use ltam_time::{Interval, TemporalOp, Time};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = args.first().map(String::as_str).unwrap_or("all");
    match arg {
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "authz" => authz(),
        "rules" => rules(),
        "section5" => section5(),
        "table2" => table2(),
        "scaling" => scaling(),
        "baseline" => baseline(),
        "planner" => planner(),
        "throughput" => throughput(&args[1..]),
        "durability" => durability(&args[1..]),
        "retention" => retention(&args[1..]),
        "serve" => serve(&args[1..]),
        "replicate" => replicate(&args[1..]),
        "auth" => auth(&args[1..]),
        "situations" => situations(&args[1..]),
        "metrics" => metrics(&args[1..]),
        "all" => {
            for f in [
                fig1, fig2, fig3, authz, rules, section5, table2, scaling, baseline, planner,
            ] {
                f();
                println!();
            }
            throughput(&[]);
            println!();
            durability(&[]);
            println!();
            retention(&[]);
            println!();
            serve(&[]);
            println!();
            replicate(&[]);
            println!();
            auth(&[]);
            println!();
            situations(&[]);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            eprintln!(
                "usage: repro [fig1|fig2|fig3|authz|rules|section5|table2|scaling|baseline|planner|throughput|durability|retention|serve|replicate|auth|situations|metrics|all]"
            );
            eprintln!("       repro throughput --help   # enforcement-throughput options");
            eprintln!("       repro durability --help   # crash-recovery drill options");
            eprintln!("       repro retention --help    # bounded-live-state drill options");
            eprintln!("       repro serve --help        # network serving drill options");
            eprintln!("       repro auth --help         # wire-auth & quarantine drill options");
            eprintln!("       repro replicate --help    # read-replica drill options");
            eprintln!("       repro situations --help   # situation-enforcement drill options");
            eprintln!("       repro metrics --help      # one-shot wire metrics scrape");
            std::process::exit(2);
        }
    }
}

fn banner(title: &str) {
    println!("==== {title} ====");
}

/// Figure 1: the NTU location layout (hierarchy listing).
fn fig1() {
    banner("Figure 1: NTU location layout");
    let ntu = ntu_campus();
    print_tree(&ntu.model, ntu.model.root(), 0);
}

fn print_tree(model: &LocationModel, at: ltam_graph::LocationId, depth: usize) {
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
fn fig2() {
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
fn fig3() {
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
fn authz() {
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
fn rules() {
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
fn section5() {
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
fn table2() {
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
            let id: ltam_graph::LocationId = row
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

/// §6: the complexity claim O(N_L² · N_d · N_a), measured.
fn scaling() {
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
        let start = std::time::Instant::now();
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
}

/// §1 claims: LTAM vs the card-reader baseline.
fn baseline() {
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

const THROUGHPUT_HELP: &str = "\
usage: repro throughput [--json] [--events N] [--subjects N] [--shards LIST] [--grant-ttl T]

Measures enforcement throughput (events/sec) of sharded batch ingestion
(ShardedEngine::ingest) against the global-lock path (SharedEngine driven
by one sensor thread per shard) on the same generated multi-shard trace.

options:
  --json          emit machine-readable JSON (the BENCH_throughput.json schema)
  --events N      trace length in events                     [default 20000]
  --subjects N    simulated population size                  [default 256]
  --shards LIST   comma-separated shard counts to sweep      [default 1,2,4,8]
  --grant-ttl T   grant time-to-live in CHRONONS (the paper's smallest,
                  indivisible time unit): an entry at chronon t is honored
                  iff granted_at <= t <= granted_at + T      [default 5]
  --help          this text
";

/// One row of the `repro throughput --json` report (the
/// `BENCH_throughput.json` schema).
#[derive(serde::Serialize)]
struct ThroughputRow {
    shards: usize,
    global_lock_events_per_sec: u64,
    sharded_events_per_sec: u64,
}

/// The `repro throughput --json` envelope.
#[derive(serde::Serialize)]
struct ThroughputReport {
    experiment: &'static str,
    events: usize,
    subjects: usize,
    grant_ttl_chronons: u64,
    results: Vec<ThroughputRow>,
}

/// Exit with a usage error for the throughput subcommand.
fn throughput_usage_error(message: &str) -> ! {
    eprintln!("{message}\n{THROUGHPUT_HELP}");
    std::process::exit(2);
}

/// Extension: sharded batch ingestion vs the global-lock engine.
fn throughput(args: &[String]) {
    use ltam_bench::{drive_shared, partition_events};
    use ltam_engine::EngineConfig;
    use ltam_sim::multi_shard_trace;

    let mut json = false;
    let mut events = 20_000usize;
    let mut subjects = 256usize;
    let mut shard_counts = vec![1usize, 2, 4, 8];
    let mut grant_ttl = ltam_engine::DEFAULT_GRANT_TTL;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| throughput_usage_error(&format!("{name} needs a value")))
                .clone()
        };
        let parsed = |name: &str, raw: String| -> u64 {
            raw.parse()
                .unwrap_or_else(|_| throughput_usage_error(&format!("{name}: bad value {raw:?}")))
        };
        match a.as_str() {
            "--json" => json = true,
            "--events" => events = parsed("--events", value("--events")) as usize,
            "--subjects" => subjects = parsed("--subjects", value("--subjects")) as usize,
            "--shards" => {
                shard_counts = value("--shards")
                    .split(',')
                    .map(|s| parsed("--shards", s.trim().to_string()) as usize)
                    .collect();
            }
            "--grant-ttl" => grant_ttl = parsed("--grant-ttl", value("--grant-ttl")),
            "--help" | "-h" => {
                print!("{THROUGHPUT_HELP}");
                return;
            }
            other => throughput_usage_error(&format!("unknown throughput option {other:?}")),
        }
    }
    if events == 0 {
        throughput_usage_error("--events must be at least 1");
    }
    if subjects == 0 {
        throughput_usage_error("--subjects must be at least 1");
    }
    if shard_counts.is_empty() || shard_counts.contains(&0) {
        throughput_usage_error("--shards needs a comma-separated list of counts >= 1");
    }

    let config = EngineConfig { grant_ttl };
    let trace = multi_shard_trace(&ltam_bench::throughput_workload(subjects, events));
    let n_events = trace.events.len();

    // Best of 3 runs, fresh engines each run.
    let best_of =
        |f: &mut dyn FnMut() -> std::time::Duration| (0..3).map(|_| f()).min().expect("three runs");

    if !json {
        banner("Extension: sharded enforcement throughput (events/sec, best of 3)");
        println!("{n_events} events, {subjects} subjects, grant TTL {grant_ttl} chronons");
        println!(
            "{:<8} {:>18} {:>18} {:>9}",
            "shards", "global-lock ev/s", "sharded ev/s", "speedup"
        );
    }
    let mut rows = Vec::new();
    for &shards in &shard_counts {
        let lock_time = best_of(&mut || {
            let (shared, _rx) = trace.build_shared();
            shared.write(|e| e.set_config(config));
            let groups = partition_events(&trace.events, shards);
            let start = std::time::Instant::now();
            std::thread::scope(|scope| {
                for g in &groups {
                    let shared = shared.clone();
                    scope.spawn(move || drive_shared(&shared, g));
                }
            });
            start.elapsed()
        });
        let sharded_time = best_of(&mut || {
            let (engine, _rx) = trace.build_sharded(shards);
            engine.update_policy(|p| p.set_config(config));
            let start = std::time::Instant::now();
            engine.ingest(&trace.events);
            start.elapsed()
        });
        let lock_eps = n_events as f64 / lock_time.as_secs_f64();
        let sharded_eps = n_events as f64 / sharded_time.as_secs_f64();
        if !json {
            println!(
                "{:<8} {:>18.0} {:>18.0} {:>8.2}x",
                shards,
                lock_eps,
                sharded_eps,
                sharded_eps / lock_eps
            );
        }
        rows.push(ThroughputRow {
            shards,
            global_lock_events_per_sec: lock_eps.round() as u64,
            sharded_events_per_sec: sharded_eps.round() as u64,
        });
    }
    if json {
        let report = ThroughputReport {
            experiment: "throughput",
            events: n_events,
            subjects,
            grant_ttl_chronons: grant_ttl,
            results: rows,
        };
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
    }
}

const DURABILITY_HELP: &str = "\
usage: repro durability [--json] [--events N] [--subjects N] [--shards N]
                        [--crash-after N] [--segment-kib N]

Crash-recovery drill for the WAL-backed DurableEngine. Generates the
canonical multi-shard trace, ingests it durably (WAL-append + fsync
before enforcement, one snapshot mid-stream), simulates a crash after
--crash-after events by dropping the engine and TEARING the last WAL
record (a partial write), recovers (snapshot + WAL-tail replay,
truncating the torn record), ingests the rest of the trace, and compares
the final violation multiset against an uninterrupted in-memory run.
Exits non-zero if the multisets diverge.

options:
  --json            emit one machine-readable JSON object
  --events N        trace length in events                 [default 20000]
  --subjects N      simulated population size              [default 256]
  --shards N        engine shard count                     [default 4]
  --crash-after N   events ingested before the crash       [default events/2]
  --segment-kib N   WAL segment rotation threshold (KiB)   [default 256]
  --help            this text
";

/// The `repro durability --json` report.
#[derive(serde::Serialize)]
struct DurabilityReport {
    experiment: &'static str,
    events: usize,
    subjects: usize,
    shards: usize,
    crash_after: u64,
    snapshot_seq: u64,
    replayed: usize,
    torn_record_lost: u64,
    truncated_bytes: u64,
    append_events_per_sec: u64,
    recovery_micros: u64,
    violations: usize,
    violations_match: bool,
}

/// Exit with a usage error for the durability subcommand.
fn durability_usage_error(message: &str) -> ! {
    eprintln!("{message}\n{DURABILITY_HELP}");
    std::process::exit(2);
}

/// Extension: crash recovery of the durable (WAL + snapshot) engine.
fn durability(args: &[String]) {
    use ltam_bench::violation_multiset;
    use ltam_sim::multi_shard_trace;
    use ltam_store::{DurableEngine, ScratchDir, StoreConfig};

    let mut json = false;
    let mut events = 20_000usize;
    let mut subjects = 256usize;
    let mut shards = 4usize;
    let mut crash_after: Option<u64> = None;
    let mut segment_kib = 256u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| durability_usage_error(&format!("{name} needs a value")))
                .clone()
        };
        let parsed = |name: &str, raw: String| -> u64 {
            raw.parse()
                .unwrap_or_else(|_| durability_usage_error(&format!("{name}: bad value {raw:?}")))
        };
        match a.as_str() {
            "--json" => json = true,
            "--events" => events = parsed("--events", value("--events")) as usize,
            "--subjects" => subjects = parsed("--subjects", value("--subjects")) as usize,
            "--shards" => shards = parsed("--shards", value("--shards")) as usize,
            "--crash-after" => crash_after = Some(parsed("--crash-after", value("--crash-after"))),
            "--segment-kib" => segment_kib = parsed("--segment-kib", value("--segment-kib")),
            "--help" | "-h" => {
                print!("{DURABILITY_HELP}");
                return;
            }
            other => durability_usage_error(&format!("unknown durability option {other:?}")),
        }
    }
    if events < 2 {
        durability_usage_error("--events must be at least 2");
    }
    if subjects == 0 || shards == 0 || segment_kib == 0 {
        durability_usage_error("--subjects, --shards and --segment-kib must be at least 1");
    }

    let trace = multi_shard_trace(&ltam_bench::throughput_workload(subjects, events));
    let n_events = trace.events.len();
    let crash_after = crash_after
        .unwrap_or(n_events as u64 / 2)
        .min(n_events as u64);

    // The uninterrupted reference: the whole trace through one engine.
    let mut reference = trace.build_engine();
    for e in &trace.events {
        ltam_engine::batch::apply_to_engine(&mut reference, e);
    }
    let expected = violation_multiset(reference.violations().to_vec());

    let dir = ScratchDir::new("repro-durability");
    let config = StoreConfig {
        segment_bytes: segment_kib * 1024,
        snapshot_every: 0, // the drill controls its own snapshot point
        fsync: true,
        retention: None,
    };

    // Phase 1: durable ingest up to the crash point, snapshotting midway
    // so recovery exercises snapshot + WAL-tail replay, not just replay.
    let (mut durable, _alerts) =
        DurableEngine::create(dir.path(), trace.build_policy_core(), shards, config)
            .expect("create store");
    let append_start = std::time::Instant::now();
    let mut snapshotted = false;
    for chunk in trace.events[..crash_after as usize].chunks(512) {
        durable.ingest(chunk).expect("durable ingest");
        if !snapshotted && durable.applied() >= crash_after / 2 {
            durable.snapshot().expect("mid-stream snapshot");
            snapshotted = true;
        }
    }
    let append_secs = append_start.elapsed().as_secs_f64();
    let append_eps = if append_secs > 0.0 {
        (crash_after as f64 / append_secs).round() as u64
    } else {
        0
    };
    drop(durable); // the crash

    // Tear the last WAL record: chop 3 bytes off the newest segment, as a
    // power cut mid-write would.
    let wal_segments = ltam_store::Wal::segment_files(dir.path()).expect("list store dir");
    let last = wal_segments.last().expect("at least one segment");
    let len = std::fs::metadata(last).expect("segment metadata").len();
    let torn = crash_after > 0 && len > 3;
    if torn {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(last)
            .expect("open segment");
        f.set_len(len - 3).expect("tear segment");
    }

    // Phase 2: recover, then finish the trace. The torn record's event is
    // no longer in the log, so it is re-ingested with the remainder.
    let recovery_start = std::time::Instant::now();
    let (mut durable, _alerts, report) =
        DurableEngine::open(dir.path(), config).expect("recover store");
    let recovery_micros = recovery_start.elapsed().as_micros() as u64;
    let resumed_at = durable.applied() as usize;
    assert!(
        resumed_at as u64 >= report.snapshot_seq,
        "recovery resumed before its own snapshot"
    );
    durable
        .ingest(&trace.events[resumed_at..])
        .expect("post-recovery ingest");
    let got = violation_multiset(durable.engine().violations());
    let violations_match = got == expected;

    if json {
        let report = DurabilityReport {
            experiment: "durability",
            events: n_events,
            subjects,
            shards,
            crash_after,
            snapshot_seq: report.snapshot_seq,
            replayed: report.replayed,
            torn_record_lost: crash_after - resumed_at as u64,
            truncated_bytes: report.truncated_bytes,
            append_events_per_sec: append_eps,
            recovery_micros,
            violations: got.len(),
            violations_match,
        };
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
    } else {
        banner("Extension: durable enforcement — crash recovery drill");
        println!("{n_events} events, {subjects} subjects, {shards} shards, crash after {crash_after} events");
        println!(
            "append (WAL fsync-per-batch + enforcement): {append_eps} events/sec over {crash_after} events"
        );
        println!(
            "crash: last WAL record torn ({} event(s) lost from the log, re-ingested after recovery)",
            crash_after - resumed_at as u64
        );
        println!(
            "recovery: snapshot @ {} + {} replayed events, {} bytes truncated, {:.2} ms",
            report.snapshot_seq,
            report.replayed,
            report.truncated_bytes,
            recovery_micros as f64 / 1000.0
        );
        println!(
            "violation multiset vs uninterrupted run: {} ({} violations)",
            if violations_match {
                "MATCH"
            } else {
                "MISMATCH"
            },
            got.len()
        );
    }
    if !violations_match {
        eprintln!("durability drill FAILED: recovered violations diverge from the reference run");
        std::process::exit(1);
    }
}

/// Extension: temporal route planning on the Figure 4 instance
/// (cross-validates Algorithm 1 with an independent algorithm).
fn planner() {
    use ltam_core::planner::earliest_visit;
    banner("Extension: earliest authorized visits (Figure 4 instance)");
    let (f, auths) = fig4_instance();
    let g = EffectiveGraph::build(&f.model);
    let report = find_inaccessible(&g, &auths);
    println!(
        "{:<10} {:>18} {:>14}",
        "location", "earliest entry", "Algorithm 1"
    );
    for l in g.locations() {
        let plan = earliest_visit(&g, &auths, l, Time(0));
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

const RETENTION_HELP: &str = "\
usage: repro retention [--json] [--events N] [--subjects N] [--shards N]
                       [--horizon H] [--checkpoints K]

Bounded-live-state drill for the retention/tiering subsystem. Ingests
the canonical multi-shard trace through a DurableEngine whose retention
policy keeps the last H chronons live (older history is archived, then
pruned), sampling live history size and snapshot size at K checkpoints.
Afterwards, historical queries spanning the WHOLE trace — whereabouts,
contact tracing (the paper's SARS scenario, across the horizon
boundary), and the violation report — run through the tier-aware API
and every answer is compared against an unpruned volatile reference
run. Exits non-zero if live state is not bounded at steady state or any
answer diverges.

options:
  --json          emit one machine-readable JSON object
  --events N      trace length in events                 [default 20000]
  --subjects N    simulated population size              [default 256]
  --shards N      engine shard count                     [default 4]
  --horizon H     retention horizon in chronons          [default 100]
  --checkpoints K live-size samples across the trace     [default 8]
  --help          this text
";

/// One live-size sample of the `repro retention` drill.
#[derive(serde::Serialize)]
struct RetentionSample {
    ingested: usize,
    live_records: usize,
    snapshot_bytes: u64,
}

/// The `repro retention --json` report.
#[derive(serde::Serialize)]
struct RetentionReport {
    experiment: &'static str,
    events: usize,
    subjects: usize,
    shards: usize,
    horizon_chronons: u64,
    trace_span_chronons: u64,
    watermark: u64,
    total_records: usize,
    live_final_records: usize,
    live_peak_records: usize,
    snapshot_bytes_final: u64,
    state_bytes_final: u64,
    state_bytes_unpruned: u64,
    archive_bytes: u64,
    live_bounded: bool,
    queries_match: bool,
    samples: Vec<RetentionSample>,
}

/// Exit with a usage error for the retention subcommand.
fn retention_usage_error(message: &str) -> ! {
    eprintln!("{message}\n{RETENTION_HELP}");
    std::process::exit(2);
}

/// Size of the newest snapshot file in a store directory.
fn newest_snapshot_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .ok()
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .max_by_key(|e| e.file_name())
        .and_then(|e| e.metadata().ok())
        .map(|m| m.len())
        .unwrap_or(0)
}

/// Extension: bounded live state under history retention + tiering.
fn retention(args: &[String]) {
    use ltam_bench::{contact_multiset, live_history_records, violation_multiset};
    use ltam_core::retention::RetentionPolicy;
    use ltam_sim::multi_shard_trace;
    use ltam_store::{DurableEngine, ScratchDir, StoreConfig};

    let mut json = false;
    let mut events = 20_000usize;
    let mut subjects = 256usize;
    let mut shards = 4usize;
    let mut horizon = 100u64;
    let mut checkpoints = 8usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| retention_usage_error(&format!("{name} needs a value")))
                .clone()
        };
        let parsed = |name: &str, raw: String| -> u64 {
            raw.parse()
                .unwrap_or_else(|_| retention_usage_error(&format!("{name}: bad value {raw:?}")))
        };
        match a.as_str() {
            "--json" => json = true,
            "--events" => events = parsed("--events", value("--events")) as usize,
            "--subjects" => subjects = parsed("--subjects", value("--subjects")) as usize,
            "--shards" => shards = parsed("--shards", value("--shards")) as usize,
            "--horizon" => horizon = parsed("--horizon", value("--horizon")),
            "--checkpoints" => {
                checkpoints = parsed("--checkpoints", value("--checkpoints")) as usize
            }
            "--help" | "-h" => {
                print!("{RETENTION_HELP}");
                return;
            }
            other => retention_usage_error(&format!("unknown retention option {other:?}")),
        }
    }
    if events == 0 || subjects == 0 || shards == 0 || checkpoints == 0 {
        retention_usage_error(
            "--events, --subjects, --shards and --checkpoints must be at least 1",
        );
    }
    if horizon == 0 {
        retention_usage_error("--horizon must be at least 1 chronon");
    }

    let trace = multi_shard_trace(&ltam_bench::throughput_workload(subjects, events));
    let n_events = trace.events.len();
    let span = trace.max_time().get();

    // The unpruned reference: the whole trace through a single volatile
    // engine (the proven-equivalent semantics).
    let mut reference = trace.build_engine();
    for e in &trace.events {
        ltam_engine::batch::apply_to_engine(&mut reference, e);
    }
    let total_records =
        reference.movements().len() + reference.audit().len() + reference.violations().len();

    // What the UNPRUNED per-shard state weighs in a snapshot (a
    // volatile sharded run serialized through the same image schema).
    // The policy image is deliberately excluded from the bound: it is
    // invariant under retention and, on authorization-heavy workloads,
    // dominates whole-file snapshot size.
    let state_bytes_unpruned = {
        let (unpruned, _rx) = trace.build_sharded(shards);
        unpruned.ingest(&trace.events);
        serde_json::to_string(&unpruned.export_images())
            .expect("images serialize")
            .len() as u64
    };

    let dir = ScratchDir::new("repro-retention");
    let policy = RetentionPolicy::keep_last(horizon);
    let config = StoreConfig {
        segment_bytes: 256 * 1024,
        snapshot_every: 0, // the drill snapshots at its own checkpoints
        fsync: true,
        retention: Some(policy),
    };
    let (mut durable, _alerts) =
        DurableEngine::create(dir.path(), trace.build_policy_core(), shards, config)
            .expect("create store");

    let chunk = n_events.div_ceil(checkpoints).max(1);
    let mut samples = Vec::new();
    let mut live_peak = 0usize;
    let mut ingested = 0usize;
    for batch in trace.events.chunks(chunk) {
        durable.ingest(batch).expect("durable ingest");
        ingested += batch.len();
        durable.snapshot().expect("checkpoint snapshot");
        let live = live_history_records(durable.engine());
        live_peak = live_peak.max(live);
        samples.push(RetentionSample {
            ingested,
            live_records: live,
            snapshot_bytes: newest_snapshot_bytes(dir.path()),
        });
    }
    if let Some(e) = durable.take_retention_error() {
        eprintln!("retention drill FAILED: maintenance run error: {e}");
        std::process::exit(1);
    }
    let watermark = durable.retention_watermark().get();
    let live_final = samples.last().map(|s| s.live_records).unwrap_or(0);
    let snapshot_bytes_final = samples.last().map(|s| s.snapshot_bytes).unwrap_or(0);
    let state_bytes_final = serde_json::to_string(&durable.engine().export_images())
        .expect("images serialize")
        .len() as u64;
    let archive_bytes: u64 = std::fs::read_dir(dir.path())
        .ok()
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".arch"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();

    // Bounded: at steady state the live tier holds a horizon's worth of
    // history, not the whole trace. (The horizon is a fraction of the
    // trace span, so half the total is a generous ceiling.)
    let live_bounded = watermark > 0
        && live_final * 2 <= total_records
        && state_bytes_final * 2 <= state_bytes_unpruned;

    // Query equivalence across the horizon boundary, vs the unpruned run.
    let all = ltam_time::Interval::ALL;
    let mut queries_match = true;
    let mut mismatch = String::new();
    let expected_violations = violation_multiset(reference.violations().to_vec());
    let got_violations = violation_multiset(
        durable
            .read_view()
            .violations_in(all)
            .expect("tier-aware violations"),
    );
    if got_violations != expected_violations {
        queries_match = false;
        mismatch = format!(
            "violation multiset diverged ({} vs {})",
            got_violations.len(),
            expected_violations.len()
        );
    }
    let sample_subjects: Vec<ltam_core::subject::SubjectId> = (0..subjects.min(16))
        .map(|i| ltam_core::subject::SubjectId(i as u32))
        .collect();
    let sample_times: Vec<ltam_time::Time> =
        (0..=8).map(|i| ltam_time::Time(span * i / 8)).collect();
    for &s in &sample_subjects {
        for &t in &sample_times {
            let got = durable
                .read_view()
                .whereabouts(s, t)
                .expect("tier-aware whereabouts");
            let want = reference.movements().whereabouts(s, t);
            if got != want {
                queries_match = false;
                mismatch = format!("whereabouts({s}, {t}): {got:?} != {want:?}");
            }
        }
        let got = contact_multiset(
            durable
                .read_view()
                .contacts(s, all)
                .expect("tier-aware contacts"),
        );
        let want = contact_multiset(reference.movements().contacts(s, all));
        if got != want {
            queries_match = false;
            mismatch = format!("contacts({s}): {} rows != {} rows", got.len(), want.len());
        }
    }

    if json {
        let report = RetentionReport {
            experiment: "retention",
            events: n_events,
            subjects,
            shards,
            horizon_chronons: horizon,
            trace_span_chronons: span,
            watermark,
            total_records,
            live_final_records: live_final,
            live_peak_records: live_peak,
            snapshot_bytes_final,
            state_bytes_final,
            state_bytes_unpruned,
            archive_bytes,
            live_bounded,
            queries_match,
            samples,
        };
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
    } else {
        banner("Extension: history retention — bounded live state + archive tier");
        println!(
            "{n_events} events over {span} chronons, {subjects} subjects, {shards} shards, horizon {horizon} chronons"
        );
        println!(
            "{:>10} {:>14} {:>16}",
            "ingested", "live records", "snapshot bytes"
        );
        for s in &samples {
            println!(
                "{:>10} {:>14} {:>16}",
                s.ingested, s.live_records, s.snapshot_bytes
            );
        }
        println!(
            "watermark: t={watermark}; live {live_final}/{total_records} records at end (peak {live_peak}); archive {archive_bytes} bytes"
        );
        println!(
            "shard-state image: {state_bytes_final} bytes pruned vs {state_bytes_unpruned} bytes \
             unpruned (full snapshot file: {snapshot_bytes_final} bytes incl. the invariant policy)"
        );
        println!(
            "live state bounded: {}; whole-trace queries vs unpruned run: {}",
            if live_bounded { "YES" } else { "NO" },
            if queries_match { "MATCH" } else { "MISMATCH" }
        );
    }
    let mut failed = false;
    if !live_bounded {
        eprintln!("retention drill FAILED: live state/snapshot not bounded (watermark {watermark}, live {live_final}/{total_records}, state bytes {state_bytes_final}/{state_bytes_unpruned})");
        failed = true;
    }
    if !queries_match {
        eprintln!(
            "retention drill FAILED: tier-merged answers diverge from the unpruned run: {mismatch}"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

const SERVE_HELP: &str = "\
usage: repro serve [--json] [--events N] [--subjects N] [--shards N]
                   [--clients N] [--batch N] [--pipeline N]
                   [--poll-threads N] [--no-metrics]

Closed-loop drill for the ltam-serve network tier. Generates the
canonical multi-shard trace WITHOUT interleaved clock ticks (a network
deployment has no global event order, so tick-driven overstay scans
would fire at interleaving-dependent times; one final tick after every
stream drains restores overstay coverage deterministically), starts a
TCP server over a fresh durable store on a loopback ephemeral port,
partitions the trace into per-subject client streams, and replays them
from N concurrent client threads, up to --pipeline requests in flight
per connection (the server's group commit coalesces concurrent and
pipelined batches into shared fsyncs). Reports request/event
throughput, p50/p90/p99 round-trip latency and the fsync rate, then
verifies OVER THE WIRE that the served violation multiset and sampled
whereabouts equal an in-process run of the same trace. The drill also
scrapes the server's metric registry through the KIND_METRICS frame
and checks the exposition: grammar-valid, duplicate-free, core series
present, and the scraped WAL-fsync counter exactly equal to the
engine's own count. Exits non-zero on any client-side error, any
server-counted protocol error, any divergence, or a bad scrape.

options:
  --json           emit one machine-readable JSON object
  --events N       trace length in events                 [default 20000]
  --subjects N     simulated population size              [default 256]
  --shards N       engine shard count                     [default 4]
  --clients N      concurrent client connections          [default 4]
  --batch N        events per ingest request              [default 64]
  --pipeline N     ingest requests in flight per client   [default 4]
  --poll-threads N server event-loop threads              [default 1]
  --no-metrics     disable timing spans (the overhead A/B knob;
                   counters still record, histogram checks are skipped)
  --help           this text
";

/// The `repro serve --json` report (the `BENCH_serve.json` schema).
#[derive(serde::Serialize)]
struct ServeReport {
    experiment: &'static str,
    events: usize,
    subjects: usize,
    shards: usize,
    clients: usize,
    batch: usize,
    pipeline: usize,
    poll_threads: usize,
    requests: u64,
    requests_per_sec: u64,
    events_per_sec: u64,
    latency_p50_us: u64,
    latency_p90_us: u64,
    latency_p99_us: u64,
    wal_fsyncs: u64,
    fsyncs_per_sec: u64,
    client_errors: u64,
    server_protocol_errors: u64,
    violations: usize,
    violations_match: bool,
    whereabouts_match: bool,
    metrics: ServeMetricsBlock,
}

/// The registry-sourced `metrics` block of [`ServeReport`]. Times are
/// raw histogram units (microseconds); `-1` marks a value whose series
/// never recorded (e.g. under `--no-metrics`).
#[derive(serde::Serialize)]
struct ServeMetricsBlock {
    scrape_valid: bool,
    fsync_count_exact: bool,
    series: usize,
    fsync_p50_us: i64,
    fsync_p99_us: i64,
    mean_group_events: f64,
    backpressure_activations: u64,
}

/// Exit with a usage error for the serve subcommand.
fn serve_usage_error(message: &str) -> ! {
    eprintln!("{message}\n{SERVE_HELP}");
    std::process::exit(2);
}

/// Extension: the network serving tier under concurrent clients.
fn serve(args: &[String]) {
    use ltam_bench::violation_multiset;
    use ltam_engine::batch::Event;
    use ltam_serve::{LoadConfig, LtamClient, Server, ServerConfig};
    use ltam_sim::multi_shard_trace;
    use ltam_store::{ScratchDir, StoreConfig};
    use ltam_time::Time;

    let mut json = false;
    let mut events = 20_000usize;
    let mut subjects = 256usize;
    let mut shards = 4usize;
    let mut clients = 4usize;
    // Default window = pipeline * batch = 256 events per client: deep
    // enough that group commit amortizes fsyncs ~10x, small enough
    // that a whole window round-trips in low single-digit
    // milliseconds. Doubling batch or pipeline roughly doubles
    // throughput again at the cost of tail latency — the knobs to turn
    // when raw events/s is the goal.
    let mut batch = 64usize;
    let mut pipeline = 4usize;
    let mut poll_threads = 1usize;
    let mut no_metrics = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| serve_usage_error(&format!("{name} needs a value")))
                .clone()
        };
        let parsed = |name: &str, raw: String| -> u64 {
            raw.parse()
                .unwrap_or_else(|_| serve_usage_error(&format!("{name}: bad value {raw:?}")))
        };
        match a.as_str() {
            "--json" => json = true,
            "--no-metrics" => no_metrics = true,
            "--events" => events = parsed("--events", value("--events")) as usize,
            "--subjects" => subjects = parsed("--subjects", value("--subjects")) as usize,
            "--shards" => shards = parsed("--shards", value("--shards")) as usize,
            "--clients" => clients = parsed("--clients", value("--clients")) as usize,
            "--batch" => batch = parsed("--batch", value("--batch")) as usize,
            "--pipeline" => pipeline = parsed("--pipeline", value("--pipeline")) as usize,
            "--poll-threads" => {
                poll_threads = parsed("--poll-threads", value("--poll-threads")) as usize
            }
            "--help" | "-h" => {
                print!("{SERVE_HELP}");
                return;
            }
            other => serve_usage_error(&format!("unknown serve option {other:?}")),
        }
    }
    if events == 0
        || subjects == 0
        || shards == 0
        || clients == 0
        || batch == 0
        || pipeline == 0
        || poll_threads == 0
    {
        serve_usage_error(
            "--events, --subjects, --shards, --clients, --batch, --pipeline and --poll-threads must be >= 1",
        );
    }

    let trace = multi_shard_trace(&ltam_bench::serve_workload(subjects, events));
    let n_events = trace.events.len();
    let span = trace.max_time();
    // One deterministic overstay scan once every stream has drained
    // (see SERVE_HELP); both runs ingest it as their final event.
    let final_tick = Event::Tick {
        now: Time(span.get() + 1),
    };

    // The in-process reference: the same trace + final tick through the
    // proven-equivalent single-threaded engine.
    let mut reference = trace.build_engine();
    for e in trace.events.iter().chain(std::iter::once(&final_tick)) {
        ltam_engine::batch::apply_to_engine(&mut reference, e);
    }
    let expected = violation_multiset(reference.violations().to_vec());

    let dir = ScratchDir::new("repro-serve");
    let store_config = StoreConfig {
        // Large segments on purpose: at several hundred thousand
        // events/s the WAL grows ~1 MiB per drill, and 256 KiB segments
        // would roll over mid-drill — each rollover is a file create +
        // directory fsync that serializes with the group-commit fsyncs
        // on the filesystem journal and shows up directly in tail
        // latency. Snapshot rotation still bounds segment count.
        segment_bytes: 8 * 1024 * 1024,
        snapshot_every: (n_events as u64 / 4).max(1), // exercised mid-drill
        fsync: true,
        retention: None,
    };
    // The overhead A/B knob: `--no-metrics` turns off timing spans
    // process-wide before the drill. Counters still record (they are a
    // handful of relaxed atomic adds), so the fsync-exactness check
    // below stays meaningful either way.
    ltam_obs::set_disabled(no_metrics);
    // The registry is process-global and `repro all` runs WAL-touching
    // drills earlier in this same process, so exactness is a DELTA
    // against the counter's value before this store exists.
    let fsyncs_base =
        ltam_obs::counter_value(ltam_obs::registry(), "store_wal_fsyncs_total", &[]).unwrap_or(0);
    let (engine, _alerts) = ltam_store::DurableEngine::create(
        dir.path(),
        trace.build_policy_core(),
        shards,
        store_config,
    )
    .expect("create store");
    let server_config = ServerConfig {
        max_connections: clients + 8,
        poll_threads,
        ..ServerConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", server_config).expect("bind loopback");
    let addr = server.local_addr().to_string();

    // Drive the partitioned streams from N concurrent closed-loop clients.
    let streams = trace.client_streams(clients);
    let load = ltam_serve::drive(
        &addr,
        &streams,
        LoadConfig {
            batch,
            status_every: 16,
            pipeline,
        },
    );

    // Control connection: final tick, then verification over the wire.
    let mut control = LtamClient::connect(&addr).expect("control client");
    control.ingest(&[final_tick]).expect("final tick");
    let got = violation_multiset(
        control
            .violations_in(ltam_time::Interval::ALL)
            .expect("served violation report"),
    );
    let violations_match = got == expected;
    let mut whereabouts_match = true;
    for i in 0..subjects.min(16) {
        let s = ltam_core::subject::SubjectId(i as u32);
        for t in [Time(span.get() / 3), Time(span.get() / 2), span] {
            let served = control.whereabouts(s, t).expect("served whereabouts");
            if served != reference.movements().whereabouts(s, t) {
                whereabouts_match = false;
            }
        }
    }
    let status = control.status().expect("served status");
    let drained = status.events_ingested == n_events as u64 + 1;

    // Scrape the registry over the wire (KIND_METRICS) while every
    // ingested batch is already durable: the fsync counter's delta
    // since before this store existed must equal the status report's
    // figure EXACTLY — the check that the instrumentation sits on the
    // real fsync path rather than alongside it.
    let scrape = control.metrics().expect("metrics scrape");
    let expo = match ltam_obs::validate(&scrape) {
        Ok(expo) => Some(expo),
        Err(e) => {
            eprintln!("metrics scrape rejected by validator: {e}");
            None
        }
    };
    let scrape_valid = expo.is_some();
    let scraped_fsyncs = expo
        .as_ref()
        .and_then(|e| e.value("store_wal_fsyncs_total", &[]))
        .unwrap_or(-1.0);
    let fsync_count_exact = scraped_fsyncs >= 0.0
        && (scraped_fsyncs as u64).saturating_sub(fsyncs_base) == status.wal_fsyncs;
    // Core-series liveness: a drill that ingested tens of thousands of
    // events must have left tracks in each tier's headline series.
    let mut missing_series: Vec<&str> = Vec::new();
    if let Some(expo) = &expo {
        for name in [
            "store_wal_records_total",
            "store_group_commits_total",
            "engine_decisions_total",
            "serve_connections_total",
        ] {
            if expo.family_sum(name) <= 0.0 {
                missing_series.push(name);
            }
        }
        if !no_metrics {
            for name in ["store_fsync_seconds", "serve_request_seconds"] {
                if expo.family_sum(&format!("{name}_count")) <= 0.0 {
                    missing_series.push(name);
                }
            }
        }
    }
    let registry = ltam_obs::registry();
    let fsync_hist = ltam_obs::histogram_snapshot(registry, "store_fsync_seconds", &[]);
    let group_hist = ltam_obs::histogram_snapshot(registry, "store_group_events", &[]);
    let metrics_block = ServeMetricsBlock {
        scrape_valid,
        fsync_count_exact,
        series: expo.as_ref().map_or(0, |e| e.samples.len()),
        fsync_p50_us: fsync_hist
            .as_ref()
            .filter(|h| h.count > 0)
            .map_or(-1, |h| h.percentile(50.0) as i64),
        fsync_p99_us: fsync_hist
            .as_ref()
            .filter(|h| h.count > 0)
            .map_or(-1, |h| h.percentile(99.0) as i64),
        mean_group_events: group_hist
            .as_ref()
            .filter(|h| h.count > 0)
            .map_or(-1.0, |h| h.mean()),
        backpressure_activations: ltam_obs::counter_family_sum(
            registry,
            "serve_backpressure_total",
        ),
    };

    // Stop without the parting snapshot: the store is scratch (deleted
    // on exit), so imaging + durably writing megabytes at teardown only
    // adds disk churn between back-to-back drills. The WAL alone makes
    // the store re-servable — tests/serve_recovery.rs proves exactly
    // that crash-shaped recovery, and graceful-shutdown snapshots are
    // covered by the server's own tests.
    let engine = server.abort().expect("server stop");
    let applied = engine.applied();
    drop(engine);

    let p50 = load.latency_percentile_us(50.0);
    let p90 = load.latency_percentile_us(90.0);
    let p99 = load.latency_percentile_us(99.0);
    let fsyncs_per_sec = if load.elapsed.as_secs_f64() > 0.0 {
        (status.wal_fsyncs as f64 / load.elapsed.as_secs_f64()).round() as u64
    } else {
        0
    };
    if json {
        let report = ServeReport {
            experiment: "serve",
            events: n_events,
            subjects,
            shards,
            clients,
            batch,
            pipeline,
            poll_threads,
            requests: load.requests,
            requests_per_sec: load.requests_per_sec().round() as u64,
            events_per_sec: load.events_per_sec().round() as u64,
            latency_p50_us: p50,
            latency_p90_us: p90,
            latency_p99_us: p99,
            wal_fsyncs: status.wal_fsyncs,
            fsyncs_per_sec,
            client_errors: load.errors,
            server_protocol_errors: status.protocol_errors,
            violations: got.len(),
            violations_match,
            whereabouts_match,
            metrics: metrics_block,
        };
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
    } else {
        banner("Extension: network serving tier — closed-loop drill");
        println!(
            "{n_events} events, {subjects} subjects, {shards} shards, {clients} clients, batch {batch}, pipeline {pipeline}, {poll_threads} poll thread(s)"
        );
        println!(
            "load: {} requests at {:.0} req/s ({:.0} events/s); latency p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms",
            load.requests,
            load.requests_per_sec(),
            load.events_per_sec(),
            p50 as f64 / 1000.0,
            p90 as f64 / 1000.0,
            p99 as f64 / 1000.0
        );
        println!(
            "group commit: {} WAL fsyncs ({} fsync/s) for {} ingest batches",
            status.wal_fsyncs, fsyncs_per_sec, load.requests
        );
        println!(
            "errors: {} client, {} server-counted protocol; WAL position {} (snapshot @ {})",
            load.errors, status.protocol_errors, applied, status.snapshot_seq
        );
        println!(
            "served violation multiset vs in-process run: {} ({} violations); whereabouts sample: {}",
            if violations_match { "MATCH" } else { "MISMATCH" },
            got.len(),
            if whereabouts_match { "MATCH" } else { "MISMATCH" }
        );
        println!(
            "metrics: scrape {} ({} series); fsync count {}; fsync p50 {} us, p99 {} us; mean group {:.1} events; backpressure {}",
            if metrics_block.scrape_valid { "VALID" } else { "INVALID" },
            metrics_block.series,
            if metrics_block.fsync_count_exact { "EXACT" } else { "MISMATCH" },
            metrics_block.fsync_p50_us,
            metrics_block.fsync_p99_us,
            metrics_block.mean_group_events,
            metrics_block.backpressure_activations
        );
    }
    let mut failed = false;
    if load.errors > 0 || status.protocol_errors > 0 {
        eprintln!(
            "serve drill FAILED: {} client errors, {} protocol errors",
            load.errors, status.protocol_errors
        );
        failed = true;
    }
    if !drained {
        eprintln!(
            "serve drill FAILED: server ingested {} of {} events",
            status.events_ingested,
            n_events + 1
        );
        failed = true;
    }
    if !violations_match || !whereabouts_match {
        eprintln!("serve drill FAILED: served answers diverge from the in-process run");
        failed = true;
    }
    if !scrape_valid {
        eprintln!("serve drill FAILED: wire-scraped exposition is malformed");
        failed = true;
    }
    if !fsync_count_exact {
        eprintln!(
            "serve drill FAILED: scraped store_wal_fsyncs_total delta {} != status wal_fsyncs {}",
            if scraped_fsyncs >= 0.0 {
                (scraped_fsyncs as u64)
                    .saturating_sub(fsyncs_base)
                    .to_string()
            } else {
                "absent".to_string()
            },
            status.wal_fsyncs
        );
        failed = true;
    }
    if !missing_series.is_empty() {
        eprintln!("serve drill FAILED: core series silent or absent: {missing_series:?}");
        failed = true;
    }
    // Leave the process-global knob as we found it for `repro all`.
    ltam_obs::set_disabled(false);
    if failed {
        std::process::exit(1);
    }
}

const METRICS_HELP: &str = "\
usage: repro metrics --addr HOST:PORT

Scrape a running ltam-serve server's metric registry over the wire
(the KIND_METRICS frame), validate the exposition against the text
grammar (including duplicate-series rejection), and print it to
stdout. Point any text-format-speaking collector at the same frame, or
use this as a one-shot `curl` stand-in during incidents
(docs/OPERATIONS.md section 7 builds its checklist on these series).

options:
  --addr HOST:PORT  server address to scrape                 [required]
  --help            this text
";

/// Exit with a usage error for the metrics subcommand.
fn metrics_usage_error(message: &str) -> ! {
    eprintln!("{message}\n{METRICS_HELP}");
    std::process::exit(2);
}

/// One-shot wire scrape of a running server's registry.
fn metrics(args: &[String]) {
    use ltam_serve::LtamClient;

    let mut addr: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = Some(
                    it.next()
                        .unwrap_or_else(|| metrics_usage_error("--addr needs a value"))
                        .clone(),
                );
            }
            "--help" | "-h" => {
                print!("{METRICS_HELP}");
                return;
            }
            other => metrics_usage_error(&format!("unknown metrics option {other:?}")),
        }
    }
    let addr = addr.unwrap_or_else(|| metrics_usage_error("--addr is required"));
    let mut client = match LtamClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("metrics: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let text = match client.metrics() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("metrics: scrape failed: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = ltam_obs::validate(&text) {
        eprintln!("metrics: exposition failed validation: {e}");
        std::process::exit(1);
    }
    print!("{text}");
}

const REPLICATE_HELP: &str = "\
usage: repro replicate [--json] [--events N] [--subjects N] [--shards N]
                       [--batch N]

Read-replica drill. Starts a primary over a fresh durable store,
ingests a quarter of the canonical trace, then bootstraps a follower
over the wire (snapshot + archive chain) and starts it tailing the
primary's WAL while a loader thread streams the rest of the trace.
Staleness lag (primary sequence minus follower watermark) is sampled
throughout. Mid-load the follower is KILLED (abort, no shutdown) and a
fresh one is re-bootstrapped with the dead follower's watermark as its
floor — the monotone-read guarantee across the generation change.
After a final deterministic overstay tick, the drill waits for the
follower to converge and then verifies OVER THE WIRE that the follower
and primary agree at the same watermark: identical violation
multisets, identical sampled whereabouts, identical engine state
digests — and that the follower refuses a write with a typed
NotPrimary redirect. Exits non-zero on any divergence, any watermark
regression, or convergence timeout.

options:
  --json           emit one machine-readable JSON object
  --events N       trace length in events                 [default 20000]
  --subjects N     simulated population size              [default 256]
  --shards N       engine shard count                     [default 4]
  --batch N        events per ingest request              [default 64]
  --help           this text
";

/// The `repro replicate --json` report (the `BENCH_replicate.json`
/// schema).
#[derive(serde::Serialize)]
struct ReplicateReport {
    experiment: &'static str,
    events: usize,
    subjects: usize,
    shards: usize,
    batch: usize,
    staleness_samples: usize,
    staleness_p50_events: u64,
    staleness_p90_events: u64,
    staleness_max_events: u64,
    watermark_floor_at_kill: u64,
    rebootstraps: u32,
    convergence_ms: u64,
    final_watermark: u64,
    watermark_monotone: bool,
    violations: usize,
    violations_match: bool,
    whereabouts_match: bool,
    state_digest_match: bool,
    write_refused_with_redirect: bool,
    metrics: ReplicateMetricsBlock,
}

/// The registry-sourced `metrics` block of [`ReplicateReport`].
/// `lag_events_after_converge` is the follower's wire-scraped
/// `repl_lag_events` gauge AFTER `wait_for_watermark` returned — the
/// drill requires exactly 0; `-1` marks an absent series. Fetch time
/// is raw histogram units (microseconds).
#[derive(serde::Serialize)]
struct ReplicateMetricsBlock {
    scrape_valid: bool,
    lag_events_after_converge: i64,
    fetch_p50_us: i64,
    state_transitions: u64,
}

/// Exit with a usage error for the replicate subcommand.
fn replicate_usage_error(message: &str) -> ! {
    eprintln!("{message}\n{REPLICATE_HELP}");
    std::process::exit(2);
}

/// Extension: read replicas — snapshot + WAL shipping with a
/// mid-stream follower kill and re-bootstrap.
fn replicate(args: &[String]) {
    use ltam_bench::violation_multiset;
    use ltam_engine::batch::Event;
    use ltam_serve::{
        bootstrap_follower, ClientError, ErrorCode, LtamClient, ReplicaConfig, Server,
        ServerConfig, ServerRole,
    };
    use ltam_sim::multi_shard_trace;
    use ltam_store::{DurableEngine, ScratchDir, StoreConfig};
    use ltam_time::Time;
    use std::time::{Duration, Instant};

    let mut json = false;
    let mut events = 20_000usize;
    let mut subjects = 256usize;
    let mut shards = 4usize;
    let mut batch = 64usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| replicate_usage_error(&format!("{name} needs a value")))
                .clone()
        };
        let parsed = |name: &str, raw: String| -> u64 {
            raw.parse()
                .unwrap_or_else(|_| replicate_usage_error(&format!("{name}: bad value {raw:?}")))
        };
        match a.as_str() {
            "--json" => json = true,
            "--events" => events = parsed("--events", value("--events")) as usize,
            "--subjects" => subjects = parsed("--subjects", value("--subjects")) as usize,
            "--shards" => shards = parsed("--shards", value("--shards")) as usize,
            "--batch" => batch = parsed("--batch", value("--batch")) as usize,
            "--help" | "-h" => {
                print!("{REPLICATE_HELP}");
                return;
            }
            other => replicate_usage_error(&format!("unknown replicate option {other:?}")),
        }
    }
    if events == 0 || subjects == 0 || shards == 0 || batch == 0 {
        replicate_usage_error("--events, --subjects, --shards and --batch must be >= 1");
    }

    let trace = multi_shard_trace(&ltam_bench::serve_workload(subjects, events));
    let n_events = trace.events.len();
    let span = trace.max_time();
    let final_tick = Event::Tick {
        now: Time(span.get() + 1),
    };

    // The in-process reference (same trace + tick, proven-equivalent
    // engine) — what BOTH primary and follower must agree with.
    let mut reference = trace.build_engine();
    for e in trace.events.iter().chain(std::iter::once(&final_tick)) {
        ltam_engine::batch::apply_to_engine(&mut reference, e);
    }
    let expected = violation_multiset(reference.violations().to_vec());

    // Primary: small segments on purpose — the follower must cross
    // segment hops, and snapshot rotation must prune under it at least
    // potentially. (The serve drill optimizes the opposite way.)
    let primary_dir = ScratchDir::new("repro-replicate-primary");
    let primary_store = StoreConfig {
        segment_bytes: 256 * 1024,
        snapshot_every: (n_events as u64 / 4).max(1),
        fsync: true,
        retention: None,
    };
    let (engine, _alerts) = DurableEngine::create(
        primary_dir.path(),
        trace.build_policy_core(),
        shards,
        primary_store,
    )
    .expect("create primary store");
    let primary = Server::start(engine, "127.0.0.1:0", ServerConfig::default())
        .expect("bind primary on loopback");
    let primary_addr = primary.local_addr().to_string();

    // Followers replay through their own group commit; their local
    // fsync cadence is their own durability choice, not the primary's.
    let follower_store = StoreConfig {
        segment_bytes: 256 * 1024,
        snapshot_every: 0, // manual; the drill store is scratch
        fsync: false,
        retention: None,
    };
    let replica_config = |floor: u64| ReplicaConfig {
        poll_interval: Duration::from_millis(3),
        watermark_floor: floor,
        ..ReplicaConfig::new(&primary_addr)
    };
    // A bootstrap can race the primary's snapshot rotation (the fetched
    // snapshot pruned mid-transfer): retry into a fresh directory.
    let bootstrap = |tag: &str| -> (ScratchDir, DurableEngine) {
        let mut last_err = None;
        for attempt in 0..3 {
            let dir = ScratchDir::new(&format!("repro-replicate-{tag}-{attempt}"));
            match bootstrap_follower(dir.path(), &primary_addr, follower_store) {
                Ok(engine) => return (dir, engine),
                Err(e) => last_err = Some(e),
            }
        }
        panic!("follower bootstrap failed 3 times: {last_err:?}");
    };

    // Phase 1: a quarter of the trace lands before any follower exists
    // — the bootstrap must carry real state, not an empty store.
    let mut loader = LtamClient::connect(&primary_addr).expect("loader client");
    let preload = n_events / 4;
    for chunk in trace.events[..preload].chunks(batch) {
        loader.ingest(chunk).expect("preload batch");
    }

    let (f1_dir, f1_engine) = bootstrap("f1");
    let follower1 = Server::start_follower(
        f1_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        replica_config(0),
    )
    .expect("bind follower 1");
    let f1_addr = follower1.local_addr().to_string();

    // Phase 2: loader thread streams the rest, lightly throttled so
    // staleness sampling sees a live stream rather than one burst.
    let stream_trace = trace.events[preload..].to_vec();
    let loader_thread = std::thread::spawn(move || {
        for chunk in stream_trace.chunks(batch) {
            loader.ingest(chunk).expect("streamed batch");
            std::thread::sleep(Duration::from_micros(500));
        }
    });

    let mut primary_probe = LtamClient::connect(&primary_addr).expect("primary probe");
    let mut f_probe = LtamClient::connect(&f1_addr).expect("follower probe");
    let mut lags: Vec<u64> = Vec::new();
    let mut last_watermark = 0u64;
    let mut watermark_monotone = true;
    let kill_at = (n_events as u64 * 3) / 5;
    loop {
        let p = primary_probe
            .status()
            .expect("primary status")
            .events_ingested;
        let w = f_probe.watermark().expect("follower watermark");
        if w < last_watermark {
            watermark_monotone = false;
        }
        last_watermark = w;
        lags.push(p.saturating_sub(w));
        if p >= kill_at {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // The kill: no shutdown, no parting snapshot — the follower simply
    // stops existing mid-stream. Its published watermark is the floor
    // its replacement must honor before serving a single read.
    let floor = f_probe.watermark().expect("watermark at kill");
    drop(f_probe);
    drop(follower1.abort().expect("kill follower 1"));
    drop(f1_dir);

    let (f2_dir, f2_engine) = bootstrap("f2");
    let follower2 = Server::start_follower(
        f2_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        replica_config(floor),
    )
    .expect("bind follower 2");
    let f2_addr = follower2.local_addr().to_string();
    let mut f_probe = LtamClient::connect(&f2_addr).expect("follower 2 probe");

    // The replacement publishes a watermark that never dips below the
    // dead follower's — monotone reads across the generation change.
    last_watermark = floor;
    loop {
        let p = primary_probe
            .status()
            .expect("primary status")
            .events_ingested;
        let w = f_probe.watermark().expect("follower 2 watermark");
        if w < last_watermark {
            watermark_monotone = false;
        }
        last_watermark = w;
        lags.push(p.saturating_sub(w));
        if p >= n_events as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    loader_thread.join().expect("loader thread");

    // Final deterministic overstay tick, then convergence.
    primary_probe.ingest(&[final_tick]).expect("final tick");
    let target = n_events as u64 + 1;
    let converge_start = Instant::now();
    let final_watermark = f_probe
        .wait_for_watermark(target, Duration::from_secs(30))
        .expect("follower converges to the final tick");
    let convergence_ms = converge_start.elapsed().as_millis() as u64;
    if final_watermark < last_watermark {
        watermark_monotone = false;
    }

    // The honesty battery: follower answers vs the in-process
    // reference AND vs the primary, at the same watermark.
    let got = violation_multiset(
        f_probe
            .violations_in(ltam_time::Interval::ALL)
            .expect("follower violation report"),
    );
    let violations_match = got == expected;
    let mut whereabouts_match = true;
    for i in 0..subjects.min(16) {
        let s = ltam_core::subject::SubjectId(i as u32);
        for t in [Time(span.get() / 3), Time(span.get() / 2), span] {
            let served = f_probe.whereabouts(s, t).expect("follower whereabouts");
            if served != reference.movements().whereabouts(s, t) {
                whereabouts_match = false;
            }
        }
    }
    let p_status = primary_probe.status().expect("primary final status");
    let f_status = f_probe.status().expect("follower final status");
    let state_digest_match = p_status.state_digest == f_status.state_digest
        && p_status.events_ingested == f_status.events_ingested;

    // Writes at the follower: refused loudly, with the typed redirect.
    let write_refused_with_redirect = matches!(
        f_probe.ingest(&[final_tick]),
        Err(ClientError::Server {
            code: ErrorCode::NotPrimary,
            role: Some(ServerRole::Follower),
            ref message,
        }) if message.contains(&primary_addr)
    );

    let roles_ok = p_status.role == ServerRole::Primary && f_status.role == ServerRole::Follower;

    // Scrape the follower over the wire: its `repl_lag_events` gauge is
    // refreshed from monotone atomics at every watermark publish, so
    // once `wait_for_watermark` has returned it must read EXACTLY 0 —
    // convergence as the metrics layer tells it, not just as the drill
    // measured it. (Both servers share this process's registry; the
    // scrape goes through the follower's own KIND_METRICS path anyway
    // to exercise the frame.)
    let f_scrape = f_probe.metrics().expect("follower metrics scrape");
    let (lag_scrape_valid, lag_after_converge) = match ltam_obs::validate(&f_scrape) {
        Ok(expo) => (
            true,
            expo.value("repl_lag_events", &[]).map_or(-1, |v| v as i64),
        ),
        Err(e) => {
            eprintln!("follower metrics scrape rejected by validator: {e}");
            (false, -1)
        }
    };
    let registry = ltam_obs::registry();
    let repl_metrics = ReplicateMetricsBlock {
        scrape_valid: lag_scrape_valid,
        lag_events_after_converge: lag_after_converge,
        fetch_p50_us: ltam_obs::histogram_snapshot(registry, "repl_fetch_seconds", &[])
            .filter(|h| h.count > 0)
            .map_or(-1, |h| h.percentile(50.0) as i64),
        state_transitions: ltam_obs::counter_family_sum(registry, "repl_state_transitions_total"),
    };

    drop(follower2.abort().expect("stop follower 2"));
    drop(f2_dir);
    drop(primary.abort().expect("stop primary"));

    lags.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lags.is_empty() {
            return 0;
        }
        let idx = ((lags.len() - 1) as f64 * p / 100.0).round() as usize;
        lags[idx]
    };
    let (p50, p90, max) = (pct(50.0), pct(90.0), *lags.last().unwrap_or(&0));

    if json {
        let report = ReplicateReport {
            experiment: "replicate",
            events: n_events,
            subjects,
            shards,
            batch,
            staleness_samples: lags.len(),
            staleness_p50_events: p50,
            staleness_p90_events: p90,
            staleness_max_events: max,
            watermark_floor_at_kill: floor,
            rebootstraps: 1,
            convergence_ms,
            final_watermark,
            watermark_monotone,
            violations: got.len(),
            violations_match,
            whereabouts_match,
            state_digest_match,
            write_refused_with_redirect,
            metrics: repl_metrics,
        };
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
    } else {
        banner("Extension: read replicas — kill & re-bootstrap drill");
        println!(
            "{n_events} events, {subjects} subjects, {shards} shards, batch {batch}; follower killed at primary seq ~{kill_at}, floor {floor}"
        );
        println!(
            "staleness lag over {} samples: p50 {p50} events, p90 {p90} events, max {max} events",
            lags.len()
        );
        println!(
            "convergence after final tick: {convergence_ms} ms to watermark {final_watermark}; monotone: {}",
            if watermark_monotone { "YES" } else { "VIOLATED" }
        );
        println!(
            "follower vs reference: violations {} ({} of them), whereabouts {}; follower vs primary state digest: {}",
            if violations_match { "MATCH" } else { "MISMATCH" },
            got.len(),
            if whereabouts_match { "MATCH" } else { "MISMATCH" },
            if state_digest_match { "MATCH" } else { "MISMATCH" }
        );
        println!(
            "write at follower: {}",
            if write_refused_with_redirect {
                "refused with NotPrimary redirect (correct)"
            } else {
                "NOT refused correctly"
            }
        );
        println!(
            "metrics: scrape {}; repl_lag_events after convergence {}; fetch p50 {} us; {} state transitions",
            if repl_metrics.scrape_valid { "VALID" } else { "INVALID" },
            repl_metrics.lag_events_after_converge,
            repl_metrics.fetch_p50_us,
            repl_metrics.state_transitions
        );
    }
    let mut failed = false;
    if !violations_match || !whereabouts_match || !state_digest_match {
        eprintln!("replicate drill FAILED: follower diverges from the primary/reference");
        failed = true;
    }
    if !lag_scrape_valid {
        eprintln!("replicate drill FAILED: follower exposition is malformed");
        failed = true;
    }
    if lag_after_converge != 0 {
        eprintln!(
            "replicate drill FAILED: scraped repl_lag_events is {lag_after_converge}, expected 0 after convergence"
        );
        failed = true;
    }
    if !watermark_monotone {
        eprintln!("replicate drill FAILED: follower watermark moved backward");
        failed = true;
    }
    if !write_refused_with_redirect {
        eprintln!("replicate drill FAILED: follower accepted (or mis-refused) a write");
        failed = true;
    }
    if !roles_ok {
        eprintln!("replicate drill FAILED: served roles are wrong");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

const AUTH_HELP: &str = "\
usage: repro auth [--json] [--events N] [--subjects N] [--shards N] [--batch N]

Extension drill: the policy-governed wire. Locks the server (auth
required), throws every frame kind at it unauthenticated, feeds the
trace through a minted ingest-scoped token, quarantines a low-trust
sensor, revokes the ingest token over the wire (the very next frame on
the live connection must die PermissionDenied), crashes and recovers
the store (the revocation must survive), and wire-verifies the served
history against an in-process reference engine. Exits non-zero if any
unauthenticated frame is serviced or a quarantined event reaches the
trusted history.

  --json          emit machine-readable JSON (the BENCH_auth.json schema)
  --events N      trace length (default 4000)
  --subjects N    moving subjects (default 64)
  --shards N      engine shards (default 2)
  --batch N       ingest batch size (default 64)
  --help          this text
";

/// The `repro auth --json` report (the `BENCH_auth.json` schema).
#[derive(serde::Serialize)]
struct AuthReport {
    experiment: &'static str,
    events: usize,
    subjects: usize,
    shards: usize,
    /// Unauthenticated frames refused (out of the full frame-kind matrix).
    unauthenticated_refused: usize,
    /// Unauthenticated frames the locked server actually serviced (MUST be 0).
    unauthenticated_serviced: usize,
    /// Every pre-handshake refusal was role-redacted.
    redaction_ok: bool,
    /// Events the ingest-scoped token fed into the trusted history.
    token_ingested: u64,
    /// Probe events the low-trust sensor submitted.
    quarantine_submitted: usize,
    /// Probe events held on the quarantine ledger.
    quarantine_held: usize,
    /// The ledger query returned exactly the held probes, tagged with
    /// their source and trust level.
    quarantine_query_match: bool,
    /// Contact tracing flags the quarantined sighting instead of
    /// mixing it into trusted contacts.
    quarantine_flagged_in_contacts: bool,
    /// A quarantined event leaked into trusted query answers (MUST be false).
    quarantine_leaked: bool,
    /// The revoked token's very next frame on its live connection died
    /// PermissionDenied.
    revocation_immediate: bool,
    /// The revoked secret stayed dead across crash + recovery.
    revocation_durable: bool,
    /// The auth-required switch survived crash + recovery.
    auth_required_survives: bool,
    /// Served violations match the in-process reference multiset.
    violations_match: bool,
    /// Sampled whereabouts match the in-process reference.
    whereabouts_match: bool,
}

/// Exit with a usage error for the auth subcommand.
fn auth_usage_error(message: &str) -> ! {
    eprintln!("{message}\n{AUTH_HELP}");
    std::process::exit(2);
}

/// Extension: the policy-governed wire — capability tokens, remote
/// admin RPCs, trust-based quarantine, and durable revocation.
fn auth(args: &[String]) {
    use ltam_bench::violation_multiset;
    use ltam_core::capability::{AdminOp, AdminOutcome, Scope};
    use ltam_core::subject::SubjectId;
    use ltam_engine::batch::Event;
    use ltam_serve::{ClientError, ErrorCode, IngestReply, LtamClient, Server, ServerConfig};
    use ltam_sim::multi_shard_trace;
    use ltam_store::{DurableEngine, ScratchDir, StoreConfig};
    use ltam_time::{Interval, Time};

    let mut json = false;
    let mut events = 4_000usize;
    let mut subjects = 64usize;
    let mut shards = 2usize;
    let mut batch = 64usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| auth_usage_error(&format!("{name} needs a value")))
                .clone()
        };
        let parsed = |name: &str, raw: String| -> u64 {
            raw.parse()
                .unwrap_or_else(|_| auth_usage_error(&format!("{name}: bad value {raw:?}")))
        };
        match a.as_str() {
            "--json" => json = true,
            "--events" => events = parsed("--events", value("--events")) as usize,
            "--subjects" => subjects = parsed("--subjects", value("--subjects")) as usize,
            "--shards" => shards = parsed("--shards", value("--shards")) as usize,
            "--batch" => batch = parsed("--batch", value("--batch")) as usize,
            "--help" | "-h" => {
                print!("{AUTH_HELP}");
                return;
            }
            other => auth_usage_error(&format!("unknown auth option {other:?}")),
        }
    }
    if events == 0 || subjects == 0 || shards == 0 || batch == 0 {
        auth_usage_error("--events, --subjects, --shards and --batch must be >= 1");
    }

    const ROOT_SECRET: &str = "repro-root-secret";
    const SENSOR_SECRET: &str = "repro-sensor-secret";
    const LOW_TRUST_SECRET: &str = "repro-low-trust-secret";

    let trace = multi_shard_trace(&ltam_bench::serve_workload(subjects, events));
    let n_events = trace.events.len();
    let span = trace.max_time();
    let final_tick = Event::Tick {
        now: Time(span.get() + 1),
    };

    // The in-process reference: the trusted trace and nothing else —
    // in particular, none of the quarantined probes.
    let mut reference = trace.build_engine();
    for e in trace.events.iter().chain(std::iter::once(&final_tick)) {
        ltam_engine::batch::apply_to_engine(&mut reference, e);
    }
    let expected = violation_multiset(reference.violations().to_vec());

    let dir = ScratchDir::new("repro-auth");
    let store = StoreConfig {
        segment_bytes: 256 * 1024,
        snapshot_every: 0,
        fsync: true,
        retention: None,
    };
    let (engine, _alerts) =
        DurableEngine::create(dir.path(), trace.build_policy_core(), shards, store)
            .expect("create store");
    let config = ServerConfig {
        root_token: Some(ROOT_SECRET.to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", config.clone()).expect("bind on loopback");
    let addr = server.local_addr().to_string();

    // Lock the wire over the wire.
    let mut root = LtamClient::connect(&addr).expect("root client");
    root.hello(ROOT_SECRET).expect("root handshake");
    root.admin(AdminOp::SetAuthRequired { required: true })
        .expect("lock the wire");

    // Phase 1: the unauthenticated matrix. Every frame kind, no
    // handshake — each must be refused, and each refusal must be
    // role-redacted.
    let probe_subject = SubjectId(subjects as u32 + 7);
    let probe_location = trace
        .events
        .iter()
        .find_map(|e| match e {
            Event::Enter { location, .. } => Some(*location),
            _ => None,
        })
        .expect("trace contains an Enter event");
    let mut anon = LtamClient::connect(&addr).expect("anonymous client");
    let mut unauthenticated_refused = 0usize;
    let mut unauthenticated_serviced = 0usize;
    let mut redaction_ok = true;
    let mut tally = |name: &str, refused: Option<bool>| match refused {
        Some(redacted) => {
            unauthenticated_refused += 1;
            if !redacted {
                eprintln!("auth drill: unauthenticated {name} refusal leaked the server role");
                redaction_ok = false;
            }
        }
        None => {
            eprintln!("auth drill: unauthenticated {name} frame was SERVICED");
            unauthenticated_serviced += 1;
        }
    };
    // A refusal is only counted when it is the auth refusal; anything
    // else (including success) counts as serviced.
    fn auth_refusal<T>(r: Result<T, ClientError>) -> Option<bool> {
        match r {
            Err(ClientError::Server {
                code: ErrorCode::Unauthenticated,
                role,
                ..
            }) => Some(role.is_none()),
            _ => None,
        }
    }
    tally(
        "ingest",
        auth_refusal(anon.ingest(&[Event::Enter {
            time: Time(1),
            subject: probe_subject,
            location: probe_location,
        }])),
    );
    tally(
        "check",
        auth_refusal(anon.check_access(Time(1), probe_subject, probe_location)),
    );
    tally(
        "query",
        auth_refusal(anon.whereabouts(probe_subject, Time(1))),
    );
    tally("metrics", auth_refusal(anon.metrics()));
    tally("repl", auth_refusal(anon.repl_manifest()));
    tally(
        "admin",
        auth_refusal(anon.admin(AdminOp::SetTrustThreshold { threshold: 0 })),
    );
    drop(anon);

    // Phase 2: a minted ingest-scoped token feeds the whole trace.
    let sensor_subject = SubjectId(subjects as u32 + 1);
    let sensor_id = match root
        .admin(AdminOp::MintToken {
            subject: sensor_subject,
            scopes: vec![Scope::Ingest { locations: None }],
            validity: Interval::ALL,
            secret: SENSOR_SECRET.to_string(),
        })
        .expect("mint sensor token")
    {
        AdminOutcome::TokenMinted { id } => id,
        other => panic!("unexpected mint outcome {other:?}"),
    };
    let mut sensor = LtamClient::connect(&addr).expect("sensor client");
    sensor.hello(SENSOR_SECRET).expect("sensor handshake");
    let mut token_ingested = 0u64;
    for chunk in trace.events.chunks(batch) {
        token_ingested += sensor
            .ingest(chunk)
            .expect("token-authenticated batch")
            .processed as u64;
    }
    token_ingested += sensor.ingest(&[final_tick]).expect("final tick").processed as u64;

    // Phase 3: trust-based quarantine. Raise the threshold, mint a
    // token for a sensor that sits below it, and watch its events land
    // on the ledger — and ONLY the ledger.
    root.admin(AdminOp::SetTrustThreshold { threshold: 1 })
        .expect("raise the trust threshold");
    root.admin(AdminOp::MintToken {
        subject: probe_subject,
        scopes: vec![Scope::Ingest { locations: None }],
        validity: Interval::ALL,
        secret: LOW_TRUST_SECRET.to_string(),
    })
    .expect("mint low-trust token");
    let mut low = LtamClient::connect(&addr).expect("low-trust client");
    low.hello(LOW_TRUST_SECRET).expect("low-trust handshake");
    let probe_times = [span.get() + 10, span.get() + 11, span.get() + 12];
    let probes: Vec<Event> = probe_times
        .iter()
        .map(|&t| Event::Enter {
            time: Time(t),
            subject: probe_subject,
            location: probe_location,
        })
        .collect();
    let mut quarantine_held = 0usize;
    for probe in &probes {
        match low
            .ingest_flagged(std::slice::from_ref(probe))
            .expect("low-trust ingest answers")
        {
            IngestReply::Quarantined { held } => quarantine_held += held,
            IngestReply::Ingested(_) => {
                eprintln!("auth drill: low-trust event reached the trusted ingest path");
            }
        }
    }
    let held = root
        .quarantined(Some(probe_subject), Interval::ALL)
        .expect("quarantine triage query");
    let quarantine_query_match = held.len() == probes.len()
        && held
            .iter()
            .zip(&probes)
            .all(|(q, e)| q.event == *e && q.source == probe_subject && q.level < 1);
    // The leak check, wire-verified: the probe subject must be nowhere
    // in the trusted history, at any probed chronon.
    let mut quarantine_leaked = false;
    for &t in &probe_times {
        if root
            .whereabouts(probe_subject, Time(t))
            .expect("trusted whereabouts")
            .is_some()
        {
            quarantine_leaked = true;
        }
    }
    // ...while contact tracing *flags* the held sighting.
    let (_, flagged) = root
        .contacts_flagged(probe_subject, Interval::ALL)
        .expect("flagged contact tracing");
    let quarantine_flagged_in_contacts = flagged.iter().any(|q| q.source == probe_subject);

    // Phase 4: revocation over the wire. The sensor's connection is
    // live and half-way through its day; the very next frame dies.
    root.admin(AdminOp::RevokeToken { id: sensor_id })
        .expect("revoke sensor token");
    let revocation_immediate = matches!(
        sensor.ingest(&[final_tick]),
        Err(ClientError::Server {
            code: ErrorCode::PermissionDenied,
            ..
        })
    );
    if !revocation_immediate {
        eprintln!("auth drill: revoked token's next frame was not refused PermissionDenied");
    }

    // Wire-verify the served history against the reference before the
    // crash: the trusted answers must owe nothing to the quarantine.
    let got = violation_multiset(root.violations_in(Interval::ALL).expect("violation report"));
    let violations_match = got == expected;
    let mut whereabouts_match = true;
    for i in 0..subjects.min(16) {
        let s = SubjectId(i as u32);
        for t in [Time(span.get() / 3), Time(span.get() / 2), span] {
            if root.whereabouts(s, t).expect("served whereabouts")
                != reference.movements().whereabouts(s, t)
            {
                whereabouts_match = false;
            }
        }
    }

    // Phase 5: crash + recovery. No orderly shutdown beyond the WAL's
    // own durability; the revocation and the lock must both survive.
    let engine = server.abort().expect("abort server");
    drop(engine);
    let (engine, _alerts, _report) =
        DurableEngine::open_with_shards(dir.path(), store, shards).expect("recover store");
    let server = Server::start(engine, "127.0.0.1:0", config).expect("rebind after recovery");
    let addr = server.local_addr().to_string();
    let mut revived = LtamClient::connect(&addr).expect("post-recovery client");
    let revocation_durable = matches!(
        revived.hello(SENSOR_SECRET),
        Err(ClientError::Server {
            code: ErrorCode::Unauthenticated,
            ..
        })
    );
    if !revocation_durable {
        eprintln!("auth drill: revoked secret authenticated after crash + recovery");
    }
    let mut root = LtamClient::connect(&addr).expect("root client after recovery");
    root.hello(ROOT_SECRET).expect("root recovery handshake");
    let status = root.status().expect("post-recovery status");
    let auth_required_survives = status.auth_required;
    let quarantine_survived = status.quarantined_events == quarantine_held;

    drop(server.abort().expect("stop server"));

    if json {
        let report = AuthReport {
            experiment: "auth",
            events: n_events,
            subjects,
            shards,
            unauthenticated_refused,
            unauthenticated_serviced,
            redaction_ok,
            token_ingested,
            quarantine_submitted: probes.len(),
            quarantine_held,
            quarantine_query_match,
            quarantine_flagged_in_contacts,
            quarantine_leaked,
            revocation_immediate,
            revocation_durable,
            auth_required_survives,
            violations_match,
            whereabouts_match,
        };
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
    } else {
        banner("Extension: policy-governed wire — token, trust & revocation drill");
        println!(
            "{n_events} events, {subjects} subjects, {shards} shards; wire locked via root admin RPC"
        );
        println!(
            "unauthenticated frame matrix: {unauthenticated_refused}/6 refused, {unauthenticated_serviced} serviced; redaction {}",
            if redaction_ok { "OK" } else { "LEAKED" }
        );
        println!("ingest-scoped token fed {token_ingested} events into the trusted history");
        println!(
            "low-trust sensor: {}/{} probes quarantined; ledger query {}; flagged in contacts: {}; leaked into trusted history: {}",
            quarantine_held,
            probes.len(),
            if quarantine_query_match { "MATCH" } else { "MISMATCH" },
            if quarantine_flagged_in_contacts { "YES" } else { "NO" },
            if quarantine_leaked { "YES (BUG)" } else { "no" }
        );
        println!(
            "revocation: next frame on live connection {}; survives crash+recovery: {}; auth lock survives: {}",
            if revocation_immediate { "refused PermissionDenied" } else { "NOT refused" },
            if revocation_durable { "YES" } else { "NO" },
            if auth_required_survives { "YES" } else { "NO" }
        );
        println!(
            "served vs reference: violations {} ({} of them), whereabouts {}",
            if violations_match {
                "MATCH"
            } else {
                "MISMATCH"
            },
            got.len(),
            if whereabouts_match {
                "MATCH"
            } else {
                "MISMATCH"
            }
        );
    }

    let mut failed = false;
    if unauthenticated_serviced != 0 {
        eprintln!("auth drill FAILED: a locked server serviced an unauthenticated frame");
        failed = true;
    }
    if !redaction_ok {
        eprintln!("auth drill FAILED: a pre-handshake refusal leaked the server role");
        failed = true;
    }
    if quarantine_leaked || quarantine_held != probes.len() {
        eprintln!("auth drill FAILED: quarantined events reached (or skipped) the trusted history");
        failed = true;
    }
    if !quarantine_query_match || !quarantine_flagged_in_contacts {
        eprintln!("auth drill FAILED: the quarantine ledger is not honestly queryable");
        failed = true;
    }
    if !quarantine_survived {
        eprintln!("auth drill FAILED: the quarantine ledger did not survive recovery");
        failed = true;
    }
    if !revocation_immediate || !revocation_durable || !auth_required_survives {
        eprintln!("auth drill FAILED: revocation or the auth lock did not hold");
        failed = true;
    }
    if !violations_match || !whereabouts_match {
        eprintln!("auth drill FAILED: served answers diverge from the in-process reference");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

const SITUATIONS_HELP: &str = "\
usage: repro situations [--json] [--staff N] [--responders N] [--shards N]

Extension drill: situation-aware enforcement over the wire. On the
paper's NTU campus, an admin declares an emergency mid-shift
(KIND_SITUATION frames, Admin-gated): registered responders' denials
become audit-flagged override grants carrying the incident id, the
declaration auto-expires on the event-time clock, a later lockdown
default-denies everything except a pinned guard authorization, and a
separation-of-duty constraint refuses a tainted entry in every mode.
All situation ops — and the grant and token revocation issued
mid-drill — are durable WAL records: a follower tails them in-stream
(policy_epoch bumps on both — it must never park NeedsBootstrap),
converges to the primary's state digest and policy epoch and refuses
the revoked token; a crash + recovery must restore the declared mode,
pins and constraints.
Exits non-zero if any override lacks its incident id, any rewrite
leaks past its mode, the follower re-bootstraps, or recovery loses the
declaration.

  --json          emit machine-readable JSON (the BENCH_situations.json schema)
  --staff N       authorized staff subjects (default 8, min 2)
  --responders N  emergency responders without authorizations (default 4)
  --shards N      engine shards (default 2)
  --help          this text
";

/// The `repro situations --json` report (the `BENCH_situations.json`
/// schema).
#[derive(serde::Serialize)]
struct SituationsReport {
    experiment: &'static str,
    staff: usize,
    responders: usize,
    shards: usize,
    /// An ingest-scoped token's KIND_SITUATION frame was refused
    /// PermissionDenied (the Admin gate).
    scoped_token_refused: bool,
    /// Every situation op bumped policy_epoch by exactly one.
    policy_epoch_bumps: u64,
    /// Responder denials rewritten into override grants while the
    /// emergency was live.
    overrides_granted: usize,
    /// Every audited override decision carries the declared incident id
    /// (checked against the engine's audit trail after shutdown).
    override_audit_complete: bool,
    /// A non-responder stayed denied during the emergency.
    bystander_still_denied: bool,
    /// The same responder was denied again once the event-time clock
    /// passed the declaration's `until` (auto-expiry, no operator op).
    override_expired_denied: bool,
    /// Lockdown refused an ordinarily granted staff request.
    lockdown_refused: bool,
    /// The pinned guard authorization kept granting under lockdown.
    pinned_grant_survives_lockdown: bool,
    /// Separation-of-duty refused the tainted subject...
    sod_refused: bool,
    /// ...and admitted the untainted one.
    sod_clean_subject_granted: bool,
    /// The follower converged to the primary's watermark with the
    /// situation records in-stream.
    follower_converged: bool,
    /// Follower and primary agree: violation multisets and state
    /// digests at the matched watermark, and both epochs.
    follower_state_match: bool,
    /// The follower never entered NeedsBootstrap while tailing the
    /// situation ops (delta of the state-transition counter).
    follower_rebootstraps: u64,
    /// Crash + recovery restored the declared mode, the pin and the
    /// installed constraint, at the pre-crash policy epoch.
    recovery_restores_declaration: bool,
    /// Post-recovery wire decisions still honor the recovered lockdown.
    recovered_decisions_hold: bool,
    metrics: SituationsMetricsBlock,
}

/// The registry-sourced `metrics` block of [`SituationsReport`].
/// Counter values are deltas over the drill (primary + follower: the
/// follower replays the same judged stream in this process, so each
/// rewrite counts exactly twice). `-1` marks an absent series.
#[derive(serde::Serialize, Clone, Copy)]
struct SituationsMetricsBlock {
    scrape_valid: bool,
    /// `situate_mode` gauge at scrape time (2 = lockdown).
    mode_gauge: i64,
    overrides_total: i64,
    override_expired_total: i64,
    lockdown_refusals_total: i64,
    constraint_refusals_total: i64,
    /// `store_policy_epoch` gauge vs the wire-reported status value.
    policy_epoch_gauge_matches_status: bool,
}

/// Exit with a usage error for the situations subcommand.
fn situations_usage_error(message: &str) -> ! {
    eprintln!("{message}\n{SITUATIONS_HELP}");
    std::process::exit(2);
}

/// Extension: situation-aware enforcement — emergency overrides,
/// lockdown, workflow constraints, replicated and recovered.
fn situations(args: &[String]) {
    use ltam_bench::violation_multiset;
    use ltam_core::capability::{AdminOp, AdminOutcome, Scope};
    use ltam_core::model::{Authorization, EntryLimit};
    use ltam_core::subject::SubjectId;
    use ltam_engine::batch::{Event, PolicyCore};
    use ltam_serve::{
        bootstrap_follower, ClientError, ErrorCode, LtamClient, ReplicaConfig, Server, ServerConfig,
    };
    use ltam_situate::{
        IncidentId, SituationMode, SituationOp, SituationOutcome, WorkflowConstraint,
    };
    use ltam_store::{DurableEngine, ScratchDir, StoreConfig};
    use ltam_time::Time;
    use std::time::Duration;

    let mut json = false;
    let mut staff = 8usize;
    let mut responders = 4usize;
    let mut shards = 2usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| situations_usage_error(&format!("{name} needs a value")))
                .clone()
        };
        let parsed = |name: &str, raw: String| -> u64 {
            raw.parse()
                .unwrap_or_else(|_| situations_usage_error(&format!("{name}: bad value {raw:?}")))
        };
        match a.as_str() {
            "--json" => json = true,
            "--staff" => staff = parsed("--staff", value("--staff")) as usize,
            "--responders" => responders = parsed("--responders", value("--responders")) as usize,
            "--shards" => shards = parsed("--shards", value("--shards")) as usize,
            "--help" | "-h" => {
                print!("{SITUATIONS_HELP}");
                return;
            }
            other => situations_usage_error(&format!("unknown situations option {other:?}")),
        }
    }
    if staff < 2 || responders == 0 || shards == 0 {
        situations_usage_error("--staff must be >= 2, --responders and --shards >= 1");
    }

    const ROOT_SECRET: &str = "repro-situations-root";
    const SENSOR_SECRET: &str = "repro-situations-sensor";
    const INCIDENT: u64 = 7;

    // Counter baselines: the registry is process-global ("repro all"
    // runs other drills first) and the follower below replays the same
    // judged stream, so every rewrite is counted once per engine.
    let registry = ltam_obs::registry();
    let base = |name: &str| ltam_obs::counter_value(registry, name, &[]).unwrap_or(0);
    let base_overrides = base("situate_overrides_total");
    let base_expired = base("situate_override_expired_total");
    let base_lockdown = base("situate_lockdown_refusals_total");
    let base_constraint = base("situate_constraint_refusals_total");
    let base_parked = ltam_obs::counter_value(
        registry,
        "repl_state_transitions_total",
        &[("state", "needs_bootstrap")],
    )
    .unwrap_or(0);

    // The world: the paper's NTU campus. Staff hold unbounded
    // authorizations for the general office, the corridors and the
    // CAIS lab; the guard holds the (soon pinned) general-office
    // authorization; responders and the bystander hold nothing at all.
    let ntu = ntu_campus();
    let (office, lab) = (ntu.sce_go, ntu.cais);
    let corridors = [ntu.sce_a, ntu.sce_b];
    let staff_id = |i: usize| SubjectId(i as u32);
    let medic_id = |i: usize| SubjectId((staff + i) as u32);
    let bystander = SubjectId((staff + responders) as u32);
    let guard = SubjectId((staff + responders + 1) as u32);
    let mut core = PolicyCore::new(ntu.model);
    for i in 0..staff {
        for l in [office, lab, corridors[0], corridors[1]] {
            core.add_authorization(
                Authorization::new(
                    ltam_time::Interval::ALL,
                    ltam_time::Interval::ALL,
                    staff_id(i),
                    l,
                    EntryLimit::Unbounded,
                )
                .expect("valid staff authorization"),
            );
        }
    }
    let guard_auth = core.add_authorization(
        Authorization::new(
            ltam_time::Interval::ALL,
            ltam_time::Interval::ALL,
            guard,
            office,
            EntryLimit::Unbounded,
        )
        .expect("valid guard authorization"),
    );

    let dir = ScratchDir::new("repro-situations");
    let store = StoreConfig {
        segment_bytes: 256 * 1024,
        snapshot_every: 0,
        fsync: true,
        retention: None,
    };
    let (engine, _alerts) =
        DurableEngine::create(dir.path(), core, shards, store).expect("create store");
    let config = ServerConfig {
        root_token: Some(ROOT_SECRET.to_string()),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", config.clone()).expect("bind on loopback");
    let addr = server.local_addr().to_string();
    let mut root = LtamClient::connect(&addr).expect("root client");
    root.hello(ROOT_SECRET).expect("root handshake");

    // Baseline shift: every staff member requests, enters and leaves
    // the general office — all granted, no violations, real movement
    // history for the workflow constraint to consult later (and nobody
    // left inside, so later entries stay consistent).
    let baseline: Vec<Event> = (0..staff)
        .flat_map(|i| {
            let t = Time(1 + i as u64);
            [
                Event::Request {
                    time: t,
                    subject: staff_id(i),
                    location: office,
                },
                Event::Enter {
                    time: t,
                    subject: staff_id(i),
                    location: office,
                },
                Event::Exit {
                    time: t,
                    subject: staff_id(i),
                    location: office,
                },
            ]
        })
        .collect();
    root.ingest(&baseline).expect("baseline shift");

    // The Admin gate: an ingest-scoped token may feed events but its
    // KIND_SITUATION frame dies PermissionDenied.
    let sensor_token = match root
        .admin(AdminOp::MintToken {
            subject: guard,
            scopes: vec![Scope::Ingest { locations: None }],
            validity: ltam_time::Interval::ALL,
            secret: SENSOR_SECRET.to_string(),
        })
        .expect("mint ingest token")
    {
        AdminOutcome::TokenMinted { id } => id,
        other => panic!("unexpected mint outcome {other:?}"),
    };
    let mut sensor = LtamClient::connect(&addr).expect("sensor client");
    sensor.hello(SENSOR_SECRET).expect("sensor handshake");
    let scoped_token_refused = matches!(
        sensor.situation(SituationOp::Declare(SituationMode::Normal)),
        Err(ClientError::Server {
            code: ErrorCode::PermissionDenied,
            ..
        })
    );
    drop(sensor);

    // A follower starts tailing BEFORE any situation is declared: every
    // situation record must reach it in-stream, through the replicated
    // WAL, without tripping a re-bootstrap.
    let follower_store = StoreConfig {
        segment_bytes: 256 * 1024,
        snapshot_every: 0,
        fsync: false,
        retention: None,
    };
    let f_dir = ScratchDir::new("repro-situations-follower");
    let f_engine =
        bootstrap_follower(f_dir.path(), &addr, follower_store).expect("bootstrap follower");
    let follower = Server::start_follower(
        f_engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        ReplicaConfig {
            poll_interval: Duration::from_millis(3),
            ..ReplicaConfig::new(&addr)
        },
    )
    .expect("bind follower");
    let mut f_probe =
        LtamClient::connect(&follower.local_addr().to_string()).expect("follower probe");

    let epoch_before = root.status().expect("status before situations");
    let mut situation_ops = 0u64;
    let mut op = |root: &mut LtamClient, op: SituationOp| -> SituationOutcome {
        situation_ops += 1;
        root.situation(op).expect("situation op over the wire")
    };

    // Phase 1 — emergency. Responders registered, incident declared
    // with an expiry on the event-time clock; their denials become
    // override grants, the bystander's does not.
    for i in 0..responders {
        op(&mut root, SituationOp::AddResponder(medic_id(i)));
    }
    op(
        &mut root,
        SituationOp::Declare(SituationMode::Emergency {
            incident: IncidentId(INCIDENT),
            until: Time(100),
        }),
    );
    let mut overrides_granted = 0usize;
    for i in 0..responders {
        if root
            .check_access(Time(50), medic_id(i), lab)
            .expect("responder check")
        {
            overrides_granted += 1;
        }
    }
    let bystander_still_denied = !root
        .check_access(Time(50), bystander, lab)
        .expect("bystander check");

    // Phase 2 — auto-expiry: the same responder, one chronon past
    // `until`. Nobody cleared anything; the event-time clock did.
    let override_expired_denied = !root
        .check_access(Time(101), medic_id(0), lab)
        .expect("post-expiry check");

    // Phase 3 — lockdown with a pinned exception.
    op(&mut root, SituationOp::Declare(SituationMode::Lockdown));
    op(&mut root, SituationOp::Pin(guard_auth));
    let lockdown_refused = !root
        .check_access(Time(120), staff_id(0), office)
        .expect("staff check under lockdown");
    let pinned_grant_survives_lockdown = root
        .check_access(Time(120), guard, office)
        .expect("guard check under lockdown");
    // An unrequested entry during the lockdown: a violation both the
    // primary and the follower must record identically.
    root.ingest(&[Event::Enter {
        time: Time(125),
        subject: staff_id(1),
        location: lab,
    }])
    .expect("unauthorized entry");

    // Phase 4 — separation of duty, binding in every mode: whoever
    // opened the general office this window cannot also enter the lab.
    op(&mut root, SituationOp::Declare(SituationMode::Normal));
    // Two admin edits mid-drill ride the same policy log: the bystander
    // is granted the lab and walks in (a follower that missed the grant
    // would flag the entry and digest differently), and the sensor's
    // token is revoked (the follower must stop resolving its secret).
    root.admin(AdminOp::AddAuthorization(
        Authorization::new(
            ltam_time::Interval::ALL,
            ltam_time::Interval::ALL,
            bystander,
            lab,
            EntryLimit::Unbounded,
        )
        .expect("valid bystander authorization"),
    ))
    .expect("grant over the wire");
    root.admin(AdminOp::RevokeToken { id: sensor_token })
        .expect("revoke over the wire");
    let admin_ops = 2u64;
    root.ingest(&[
        Event::Request {
            time: Time(126),
            subject: bystander,
            location: lab,
        },
        Event::Enter {
            time: Time(126),
            subject: bystander,
            location: lab,
        },
        Event::Exit {
            time: Time(127),
            subject: bystander,
            location: lab,
        },
    ])
    .expect("granted bystander visit");
    match op(
        &mut root,
        SituationOp::AddConstraint(WorkflowConstraint::SeparationOfDuty {
            first: office,
            second: lab,
            window: 100,
        }),
    ) {
        SituationOutcome::ConstraintAdded { .. } => {}
        other => panic!("unexpected constraint outcome {other:?}"),
    }
    root.ingest(&[
        Event::Request {
            time: Time(130),
            subject: staff_id(0),
            location: office,
        },
        Event::Enter {
            time: Time(130),
            subject: staff_id(0),
            location: office,
        },
        Event::Exit {
            time: Time(131),
            subject: staff_id(0),
            location: office,
        },
    ])
    .expect("tainting entry");
    let sod_refused = !root
        .check_access(Time(150), staff_id(0), lab)
        .expect("tainted check");
    let sod_clean_subject_granted = root
        .check_access(Time(150), staff_id(1), lab)
        .expect("untainted check");

    // Phase 5 — the declaration the crash must not lose.
    op(&mut root, SituationOp::Declare(SituationMode::Lockdown));

    let status = root.status().expect("status after situations");
    let policy_epoch_bumps = status.policy_epoch - epoch_before.policy_epoch;

    // Phase 6 — the follower: situation records consumed WAL sequence
    // numbers, so converging to the primary's applied count means it
    // replayed them in-stream, at the same positions.
    let follower_converged = f_probe
        .wait_for_watermark(status.events_ingested, Duration::from_secs(30))
        .is_ok();
    let p_violations = violation_multiset(
        root.violations_in(ltam_time::Interval::ALL)
            .expect("primary violations"),
    );
    let f_violations = violation_multiset(
        f_probe
            .violations_in(ltam_time::Interval::ALL)
            .expect("follower violations"),
    );
    let f_status = f_probe.status().expect("follower status");
    let revoked_at_follower = matches!(
        f_probe.hello(SENSOR_SECRET),
        Err(ClientError::Server {
            code: ErrorCode::Unauthenticated,
            ..
        })
    );
    let follower_state_match = follower_converged
        && p_violations == f_violations
        && status.state_digest == f_status.state_digest
        && status.policy_epoch == f_status.policy_epoch
        && revoked_at_follower;
    let follower_rebootstraps = ltam_obs::counter_value(
        registry,
        "repl_state_transitions_total",
        &[("state", "needs_bootstrap")],
    )
    .unwrap_or(0)
        - base_parked;

    // Metrics, scraped over the wire AFTER convergence: the follower
    // replayed the same judged stream in this process, so each rewrite
    // counted exactly twice.
    let scrape = root.metrics().expect("metrics scrape");
    let scrape_valid = match ltam_obs::validate(&scrape) {
        Ok(_) => true,
        Err(e) => {
            eprintln!("situations drill: metrics exposition rejected: {e}");
            false
        }
    };
    let delta = |name: &str, base: u64| -> i64 {
        ltam_obs::counter_value(registry, name, &[]).map_or(-1, |v| (v - base) as i64)
    };
    let metrics = SituationsMetricsBlock {
        scrape_valid,
        mode_gauge: ltam_obs::gauge_value(registry, "situate_mode", &[]).unwrap_or(-1),
        overrides_total: delta("situate_overrides_total", base_overrides),
        override_expired_total: delta("situate_override_expired_total", base_expired),
        lockdown_refusals_total: delta("situate_lockdown_refusals_total", base_lockdown),
        constraint_refusals_total: delta("situate_constraint_refusals_total", base_constraint),
        policy_epoch_gauge_matches_status: ltam_obs::gauge_value(
            registry,
            "store_policy_epoch",
            &[],
        ) == Some(status.policy_epoch as i64),
    };

    drop(f_probe);
    drop(follower.abort().expect("stop follower"));
    drop(f_dir);

    // Phase 7 — audit completeness, read from the engine itself: every
    // audited override decision must carry the declared incident, and
    // there must be exactly as many as the wire granted.
    let engine = server.abort().expect("abort server");
    let mut audited_overrides: Vec<(SubjectId, u64)> = Vec::new();
    {
        let sharded = engine.engine();
        for s in 0..sharded.shard_count() {
            sharded.read_shard(s, |st| {
                for r in st.audit() {
                    if let Decision::GrantedOverride { incident } = r.decision {
                        audited_overrides.push((r.request.subject, incident));
                    }
                }
            });
        }
    }
    let override_audit_complete = audited_overrides.len() == overrides_granted
        && audited_overrides
            .iter()
            .all(|&(s, i)| i == INCIDENT && (0..responders).any(|m| medic_id(m) == s));
    let pre_crash_epoch = engine.policy_epoch();
    drop(engine);

    // Phase 8 — crash + recovery: the declared lockdown, the pin and
    // the constraint all come back, at the pre-crash policy epoch.
    let (engine, _alerts, _report) =
        DurableEngine::open_with_shards(dir.path(), store, shards).expect("recover store");
    let recovered = engine.engine().policy();
    let recovery_restores_declaration = recovered.situation().mode() == SituationMode::Lockdown
        && recovered.situation().is_pinned(guard_auth)
        && recovered.situation().constraints().count() == 1
        && engine.policy_epoch() == pre_crash_epoch;
    drop(recovered);
    let server = Server::start(engine, "127.0.0.1:0", config).expect("rebind after recovery");
    let addr = server.local_addr().to_string();
    let mut root = LtamClient::connect(&addr).expect("post-recovery client");
    root.hello(ROOT_SECRET).expect("post-recovery handshake");
    let recovered_decisions_hold = !root
        .check_access(Time(200), staff_id(0), office)
        .expect("staff check after recovery")
        && root
            .check_access(Time(200), guard, office)
            .expect("guard check after recovery");
    drop(server.abort().expect("stop server"));

    if json {
        let report = SituationsReport {
            experiment: "situations",
            staff,
            responders,
            shards,
            scoped_token_refused,
            policy_epoch_bumps,
            overrides_granted,
            override_audit_complete,
            bystander_still_denied,
            override_expired_denied,
            lockdown_refused,
            pinned_grant_survives_lockdown,
            sod_refused,
            sod_clean_subject_granted,
            follower_converged,
            follower_state_match,
            follower_rebootstraps,
            recovery_restores_declaration,
            recovered_decisions_hold,
            metrics,
        };
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
    } else {
        banner("Extension: situation-aware enforcement drill");
        println!(
            "{staff} staff, {responders} responders, {shards} shards; {situation_ops} situation ops and {admin_ops} admin ops issued over the wire"
        );
        println!(
            "admin gate: ingest-scoped KIND_SITUATION frame {}",
            if scoped_token_refused {
                "refused PermissionDenied"
            } else {
                "NOT refused (BUG)"
            }
        );
        println!(
            "epochs: policy +{policy_epoch_bumps} (expected {situation_ops} situation ops + {admin_ops} admin ops)"
        );
        println!(
            "emergency I{INCIDENT}: {overrides_granted}/{responders} responder denials overridden; audit complete: {}; bystander denied: {}",
            if override_audit_complete { "YES" } else { "NO" },
            if bystander_still_denied { "YES" } else { "NO" }
        );
        println!(
            "auto-expiry at t>until: responder denied again: {}",
            if override_expired_denied { "YES" } else { "NO" }
        );
        println!(
            "lockdown: staff refused: {}; pinned guard grant survives: {}",
            if lockdown_refused { "YES" } else { "NO" },
            if pinned_grant_survives_lockdown {
                "YES"
            } else {
                "NO"
            }
        );
        println!(
            "separation of duty: tainted refused: {}; untainted granted: {}",
            if sod_refused { "YES" } else { "NO" },
            if sod_clean_subject_granted {
                "YES"
            } else {
                "NO"
            }
        );
        println!(
            "follower: converged: {}; state match (violations, digest, epochs, revoked token refused): {}; re-bootstraps: {follower_rebootstraps}",
            if follower_converged { "YES" } else { "NO" },
            if follower_state_match { "YES" } else { "NO" }
        );
        println!(
            "crash + recovery: declaration restored: {}; recovered wire decisions hold: {}",
            if recovery_restores_declaration {
                "YES"
            } else {
                "NO"
            },
            if recovered_decisions_hold {
                "YES"
            } else {
                "NO"
            }
        );
        println!(
            "metrics: scrape {}; mode gauge {}; overrides {} / expired {} / lockdown {} / constraint {} (x2: primary + follower); epoch gauge matches status: {}",
            if metrics.scrape_valid { "VALID" } else { "INVALID" },
            metrics.mode_gauge,
            metrics.overrides_total,
            metrics.override_expired_total,
            metrics.lockdown_refusals_total,
            metrics.constraint_refusals_total,
            if metrics.policy_epoch_gauge_matches_status { "YES" } else { "NO" }
        );
    }

    let mut failed = false;
    if !scoped_token_refused {
        eprintln!("situations drill FAILED: a non-admin token declared a situation");
        failed = true;
    }
    if policy_epoch_bumps != situation_ops + admin_ops {
        eprintln!(
            "situations drill FAILED: epochs moved wrong (policy +{policy_epoch_bumps} for {situation_ops} + {admin_ops} ops)"
        );
        failed = true;
    }
    if overrides_granted != responders || !override_audit_complete || !bystander_still_denied {
        eprintln!(
            "situations drill FAILED: overrides leaked, went missing, or lost their incident id"
        );
        failed = true;
    }
    if !override_expired_denied {
        eprintln!("situations drill FAILED: the emergency did not auto-expire on the event clock");
        failed = true;
    }
    if !lockdown_refused || !pinned_grant_survives_lockdown {
        eprintln!("situations drill FAILED: lockdown default-deny or the pinned exception broke");
        failed = true;
    }
    if !sod_refused || !sod_clean_subject_granted {
        eprintln!("situations drill FAILED: separation of duty misfired");
        failed = true;
    }
    if !follower_converged || !follower_state_match || follower_rebootstraps != 0 {
        eprintln!(
            "situations drill FAILED: the follower diverged or re-bootstrapped on a policy record"
        );
        failed = true;
    }
    if !recovery_restores_declaration || !recovered_decisions_hold {
        eprintln!("situations drill FAILED: crash + recovery lost the declaration");
        failed = true;
    }
    if !metrics.scrape_valid
        || metrics.mode_gauge != 2
        || metrics.overrides_total != 2 * responders as i64
        || metrics.override_expired_total != 2
        || metrics.lockdown_refusals_total != 2
        || metrics.constraint_refusals_total != 2
        || !metrics.policy_epoch_gauge_matches_status
    {
        eprintln!("situations drill FAILED: the situation metrics do not tell the same story");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
