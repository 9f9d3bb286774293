//! The paper's SARS motivation (§1): track hospital movements via a
//! simulated RFID pipeline, trace everyone who was co-located with a
//! diagnosed patient, produce the quarantine list — and, once the
//! diagnosis lands, declare an emergency so the outside specialist can
//! reach the ward without a standing authorization.
//!
//! This walkthrough is a drill: every step asserts the outcome it
//! narrates, so it doubles as an end-to-end check of the pipeline,
//! the history queries, and the situation overlay.
//!
//! ```sh
//! cargo run --example hospital_contact_tracing
//! ```

use ltam::core::decision::Decision;
use ltam::core::model::{Authorization, EntryLimit};
use ltam::engine::engine::AccessControlEngine;
use ltam::sim::rfid::{grid_floor_plan, noisy_walk, TrackingPipeline};
use ltam::sim::{grid_building, rng, sars_contact_tracing};
use ltam::situate::{IncidentId, SituationMode, SituationOp};
use ltam::time::{Interval, Time};

fn main() {
    // --- part 1: the positioning pipeline, end to end -----------------------
    // A 4×4 ward; each room is a 10×10 m square; tags emit noisy readings.
    let world = grid_building(4, 4);
    let plan = grid_floor_plan(&world, 4, 4, 10.0);
    let mut engine = AccessControlEngine::new(world.model.clone());
    let patient = engine.profiles_mut().add_user("Patient", "patient");
    let nurse = engine.profiles_mut().add_user("Nurse", "staff");
    for l in world.graph.locations() {
        for s in [patient, nurse] {
            engine.add_authorization(
                Authorization::new(Interval::ALL, Interval::ALL, s, l, EntryLimit::Unbounded)
                    .unwrap(),
            );
        }
    }

    let mut pipeline = TrackingPipeline::new(&plan, 8);
    let mut r = rng(2026);
    // The patient crosses the ward; the nurse's round crosses the patient's
    // path in room (2,1) and both end their shift in the bay at (2,2).
    let patient_path = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)];
    let nurse_path = [(3, 0), (2, 0), (2, 1), (2, 2)];
    let mut readings = noisy_walk(patient, &patient_path, 10.0, 6, 1.5, Time(0), &mut r);
    readings.extend(noisy_walk(
        nurse,
        &nurse_path,
        10.0,
        6,
        1.5,
        Time(2),
        &mut r,
    ));
    readings.sort_by_key(|rd| rd.time);
    let total = readings.len();
    for reading in readings {
        pipeline.feed(reading, &mut engine);
    }
    println!(
        "pipeline: {total} tag readings, {} resolved to rooms, {} dropped",
        pipeline.resolved, pipeline.dropped
    );
    assert_eq!(
        pipeline.resolved + pipeline.dropped,
        total as u64,
        "every reading is either resolved or dropped"
    );
    assert!(
        pipeline.resolved > 0,
        "the seeded walk must resolve readings"
    );
    println!("movement events recorded: {}", engine.movements().len());
    assert!(
        engine.movements().len() >= 2,
        "both walks must leave movement history"
    );

    // The patient is diagnosed at t=40; trace contacts over the whole shift.
    println!("\nquery> CONTACTS OF Patient DURING [0, 60]");
    let contacts = engine
        .query("CONTACTS OF Patient DURING [0, 60]")
        .unwrap()
        .to_string();
    print!("{contacts}");
    assert!(
        contacts.contains("Nurse"),
        "the nurse crossed the patient's path and must appear: {contacts:?}"
    );

    println!("query> WHERE Nurse AT 20");
    let whereabouts = engine.query("WHERE Nurse AT 20").unwrap().to_string();
    print!("{whereabouts}");
    assert!(
        !whereabouts.trim().is_empty(),
        "the nurse was somewhere at t=20"
    );

    // --- part 2: the emergency declaration -----------------------------------
    // An outside infectious-disease specialist has no authorization in
    // this ward. The diagnosis opens incident 40; while it is live,
    // their denial is overridden — flagged with the incident — and the
    // declaration lapses on its own at t=80.
    let specialist = engine.profiles_mut().add_user("Specialist", "external");
    let ward = world.graph.locations().next().expect("the ward has rooms");
    assert!(
        !engine
            .request_enter(Time(41), specialist, ward)
            .is_granted(),
        "no standing authorization before the declaration"
    );
    engine.apply_situation(&SituationOp::AddResponder(specialist));
    engine.apply_situation(&SituationOp::Declare(SituationMode::Emergency {
        incident: IncidentId(40),
        until: Time(80),
    }));
    let d = engine.request_enter(Time(42), specialist, ward);
    assert_eq!(
        d,
        Decision::GrantedOverride { incident: 40 },
        "a responder's denial is overridden under the live emergency"
    );
    println!("\nemergency (incident 40, until t=80): specialist at t=42 -> {d}");
    let d = engine.request_enter(Time(81), specialist, ward);
    assert!(
        !d.is_granted(),
        "the declaration auto-expires on the event clock"
    );
    println!("after auto-expiry: specialist at t=81 -> {d}");

    // --- part 3: the scenario at scale ---------------------------------------
    println!("\nward-scale simulation (deterministic):");
    for staff in [4usize, 8, 16] {
        let out = sars_contact_tracing(staff, 150, 7);
        println!(
            "  {} staff on shift -> {} in quarantine ({} co-location records)",
            out.staff,
            out.quarantine.len(),
            out.contact_records
        );
        assert!(
            !out.quarantine.is_empty() && out.contact_records > 0,
            "a ward shift always produces co-locations"
        );
        assert!(
            out.quarantine.len() <= out.staff,
            "quarantine is drawn from the shift roster"
        );
    }
    println!("\nhospital drill: all assertions hold");
}
