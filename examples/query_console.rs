//! An interactive console for the query language over a populated campus.
//!
//! ```sh
//! cargo run --example query_console            # scripted demo
//! cargo run --example query_console -- -i      # interactive REPL
//! ```

use ltam::core::model::{Authorization, EntryLimit};
use ltam::engine::engine::AccessControlEngine;
use ltam::graph::examples::ntu_campus;
use ltam::sim::{rng, run_population, Behavior, Walker};
use ltam::time::Interval;
use std::io::{BufRead, Write};

fn build_engine() -> AccessControlEngine {
    let ntu = ntu_campus();
    let world_graph = ltam::graph::EffectiveGraph::build(&ntu.model);
    let mut engine = AccessControlEngine::new(ntu.model);
    let names = ["Alice", "Bob", "Carol", "Dave"];
    let mut subjects = Vec::new();
    for n in names {
        subjects.push(engine.profiles_mut().add_user(n, "staff"));
    }
    // Mallory has no authorizations and wanders anyway.
    let mallory = engine.profiles_mut().add_user("Mallory", "visitor");
    for &s in &subjects {
        for l in world_graph.locations() {
            engine.add_authorization(
                Authorization::new(Interval::ALL, Interval::ALL, s, l, EntryLimit::Unbounded)
                    .unwrap(),
            );
        }
    }
    let mut walkers: Vec<Walker> = subjects
        .iter()
        .map(|&s| Walker::new(s, Behavior::Compliant { max_stay: 4 }))
        .collect();
    walkers.push(Walker::new(mallory, Behavior::Tailgater));
    let mut r = rng(99);
    run_population(&mut walkers, &world_graph, &mut engine, 150, &mut r);
    engine
}

fn main() {
    let engine = build_engine();
    let interactive = std::env::args().any(|a| a == "-i");
    println!(
        "{} movement events recorded, {} violations detected",
        engine.movements().len(),
        engine.violations().len(),
    );
    println!("query forms: ACCESSIBLE FOR s | INACCESSIBLE FOR s | CAN s ENTER l AT t");
    println!("             WHERE s AT t | WHO IN l AT t | WHO IN l DURING [a,b]");
    println!("             CONTACTS OF s DURING [a,b] | VIOLATIONS [FOR s] [DURING [a,b]]");
    println!("             EARLIEST s TO l [FROM t]");

    if interactive {
        let stdin = std::io::stdin();
        loop {
            print!("ltam> ");
            std::io::stdout().flush().ok();
            let mut line = String::new();
            if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
                return;
            }
            let line = line.trim();
            if line.is_empty() || line.eq_ignore_ascii_case("quit") {
                return;
            }
            match engine.query(line) {
                Ok(result) => print!("{result}"),
                Err(e) => println!("error: {e}"),
            }
        }
    }

    // Scripted demo.
    for q in [
        "WHERE Alice AT 100",
        "WHO IN SCE.GO DURING [0, 150]",
        "CAN Bob ENTER CAIS AT 60",
        "CONTACTS OF Alice DURING [0, 150]",
        "VIOLATIONS FOR Mallory DURING [0, 20]",
        "INACCESSIBLE FOR Mallory",
        "EARLIEST Alice TO CAIS FROM 0",
    ] {
        let result = engine.query(q).unwrap();
        println!("\nltam> {q}");
        print!("{result}");
    }
}
