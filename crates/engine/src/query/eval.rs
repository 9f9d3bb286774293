//! Query evaluation over the engine's databases.

use super::ast::{Query, QueryResult};
use crate::profile::UserProfileDb;
use crate::shard::{PolicyView, ShardState};
use crate::violation::Violation;
use ltam_core::inaccessible::find_inaccessible;
use ltam_core::planner::earliest_visit;
use ltam_core::prohibition::restrict_authorizations;
use ltam_core::subject::SubjectId;
use ltam_graph::{EffectiveGraph, LocationId, LocationModel};
use std::fmt;

/// Read-only view over every database the query engine consults.
pub struct QueryContext<'a> {
    /// Location layout.
    pub model: &'a LocationModel,
    /// Flattened graph.
    pub graph: &'a EffectiveGraph,
    /// The policy the door decides under: authorizations,
    /// prohibitions (denial takes precedence), tunables and the
    /// situation overlay.
    pub policy: PolicyView<'a>,
    /// The per-subject state the door decides against: usage counters,
    /// movements, detected violations.
    pub state: &'a ShardState,
    /// User profiles (name resolution).
    pub profiles: &'a UserProfileDb,
}

/// Name-resolution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// No such subject.
    UnknownSubject(String),
    /// No such location.
    UnknownLocation(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownSubject(s) => write!(f, "unknown subject {s:?}"),
            EvalError::UnknownLocation(l) => write!(f, "unknown location {l:?}"),
        }
    }
}

impl std::error::Error for EvalError {}

fn subject_id(ctx: &QueryContext<'_>, name: &str) -> Result<SubjectId, EvalError> {
    ctx.profiles
        .id_of(name)
        .ok_or_else(|| EvalError::UnknownSubject(name.to_string()))
}

fn location_id(ctx: &QueryContext<'_>, name: &str) -> Result<LocationId, EvalError> {
    ctx.model
        .id(name)
        .map_err(|_| EvalError::UnknownLocation(name.to_string()))
}

fn subject_name(ctx: &QueryContext<'_>, id: SubjectId) -> String {
    ctx.profiles
        .name_of(id)
        .map(str::to_string)
        .unwrap_or_else(|| id.to_string())
}

/// Evaluate a parsed query.
pub fn eval(query: &Query, ctx: &QueryContext<'_>) -> Result<QueryResult, EvalError> {
    match query {
        Query::Accessible { subject } | Query::Inaccessible { subject } => {
            let s = subject_id(ctx, subject)?;
            let auths = restrict_authorizations(
                &ctx.policy.db.per_location_for_subject(s),
                s,
                ctx.policy.prohibitions,
            );
            let report = find_inaccessible(ctx.graph, &auths);
            let want_inaccessible = matches!(query, Query::Inaccessible { .. });
            let names = ctx
                .graph
                .locations()
                .filter(|&l| report.is_inaccessible(l) == want_inaccessible)
                .map(|l| ctx.model.name(l).to_string())
                .collect();
            Ok(QueryResult::Locations(names))
        }
        Query::CanEnter {
            subject,
            location,
            at,
        } => {
            let s = subject_id(ctx, subject)?;
            let l = location_id(ctx, location)?;
            // The door's own decision, situation overlay included, with
            // none of its side effects.
            let (decision, _) = ctx.state.decide(&ctx.policy, *at, s, l);
            Ok(QueryResult::Decision {
                granted: decision.is_granted(),
                detail: decision.to_string(),
            })
        }
        Query::Earliest {
            subject,
            location,
            from,
        } => {
            let s = subject_id(ctx, subject)?;
            let l = location_id(ctx, location)?;
            let auths = restrict_authorizations(
                &ctx.policy.db.per_location_for_subject(s),
                s,
                ctx.policy.prohibitions,
            );
            let itinerary = earliest_visit(ctx.graph, &auths, l, *from).map(|it| {
                it.steps
                    .iter()
                    .map(|step| (ctx.model.name(step.location).to_string(), step.enter_at))
                    .collect()
            });
            Ok(QueryResult::Itinerary(itinerary))
        }
        Query::WhereIs { subject, at } => {
            let s = subject_id(ctx, subject)?;
            Ok(QueryResult::Whereabouts(
                ctx.state
                    .movements()
                    .whereabouts(s, *at)
                    .map(|l| ctx.model.name(l).to_string()),
            ))
        }
        Query::WhoIn { location, window } => {
            let l = location_id(ctx, location)?;
            let rows = ctx
                .state
                .movements()
                .present_during(l, *window)
                .into_iter()
                .map(|(s, w)| (subject_name(ctx, s), w))
                .collect();
            Ok(QueryResult::Presence(rows))
        }
        Query::Contacts { subject, window } => {
            let s = subject_id(ctx, subject)?;
            let rows = ctx
                .state
                .movements()
                .contacts(s, *window)
                .into_iter()
                .map(|c| {
                    (
                        subject_name(ctx, c.other),
                        ctx.model.name(c.location).to_string(),
                        c.overlap,
                    )
                })
                .collect();
            Ok(QueryResult::Contacts(rows))
        }
        Query::Violations { subject, window } => {
            let filter_subject = subject
                .as_deref()
                .map(|name| subject_id(ctx, name))
                .transpose()?;
            let rows = ctx
                .state
                .violations()
                .iter()
                .filter(|v| filter_subject.is_none_or(|s| v.subject() == s))
                .filter(|v| window.is_none_or(|w| w.contains(v.time())))
                .map(|v| render_violation(ctx, v))
                .collect();
            Ok(QueryResult::Violations(rows))
        }
    }
}

fn render_violation(ctx: &QueryContext<'_>, v: &Violation) -> String {
    let subject = subject_name(ctx, v.subject());
    let location = ctx.model.name(v.location());
    match v {
        Violation::UnauthorizedEntry { time, .. } => {
            format!("t={time}: {subject} entered {location} without authorization")
        }
        Violation::ExitOutsideWindow { time, auth, .. } => {
            format!("t={time}: {subject} left {location} outside the exit window of {auth}")
        }
        Violation::Overstay {
            detected_at, auth, ..
        } => format!(
            "t={detected_at}: {subject} overstayed in {location} (exit window of {auth} closed)"
        ),
        Violation::InconsistentMovement { time, .. } => {
            format!("t={time}: inconsistent movement report for {subject} at {location}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::run;
    use super::*;
    use crate::engine::AccessControlEngine;
    use ltam_core::model::{Authorization, EntryLimit};
    use ltam_graph::examples::ntu_campus;
    use ltam_situate::{IncidentId, SituationMode, SituationOp, WorkflowConstraint};
    use ltam_time::{Interval, Time};

    fn scenario() -> AccessControlEngine {
        let ntu = ntu_campus();
        let (cais, go, c) = (ntu.cais, ntu.sce_go, ntu.sce_c);
        let mut e = AccessControlEngine::new(ntu.model);
        let alice = e.profiles_mut().add_user("Alice", "researcher");
        let bob = e.profiles_mut().add_user("Bob", "professor");
        for l in [go, ntu.sce_a, ntu.sce_b, cais, c] {
            e.add_authorization(
                Authorization::new(
                    Interval::ALL,
                    Interval::ALL,
                    alice,
                    l,
                    EntryLimit::Unbounded,
                )
                .unwrap(),
            );
        }
        e.add_authorization(
            Authorization::new(
                Interval::lit(0, 50),
                Interval::lit(0, 100),
                bob,
                cais,
                EntryLimit::Finite(1),
            )
            .unwrap(),
        );
        // Alice walks GO → CAIS is not adjacent; just enter GO and CAIS
        // directly with grants for the movement history.
        e.request_enter(Time(5), alice, go);
        e.observe_enter(Time(5), alice, go);
        e.observe_exit(Time(10), alice, go);
        e.request_enter(Time(12), bob, cais);
        e.observe_enter(Time(12), bob, cais);
        // Alice joins Bob in CAIS.
        e.request_enter(Time(15), alice, cais);
        e.observe_enter(Time(15), alice, cais);
        e
    }

    fn ctx(e: &AccessControlEngine) -> QueryContext<'_> {
        e.query_context()
    }

    #[test]
    fn accessible_and_inaccessible_partition() {
        let e = scenario();
        let acc = run("ACCESSIBLE FOR Alice", &ctx(&e)).unwrap();
        let inacc = run("INACCESSIBLE FOR Alice", &ctx(&e)).unwrap();
        let (QueryResult::Locations(a), QueryResult::Locations(i)) = (acc, inacc) else {
            panic!("wrong result kinds");
        };
        assert_eq!(a.len() + i.len(), e.graph().len());
        assert!(a.contains(&"CAIS".to_string()));
        assert!(a.contains(&"SCE.GO".to_string()));
        assert!(i.contains(&"Lab1".to_string())); // EEE is unauthorized
    }

    #[test]
    fn can_enter_reports_decision() {
        let e = scenario();
        let r = run("CAN Bob ENTER CAIS AT 20", &ctx(&e)).unwrap();
        // Bob's single entry is already used.
        assert_eq!(
            r,
            QueryResult::Decision {
                granted: false,
                detail: "denied: entry count exhausted".into()
            }
        );
        let r = run("CAN Alice ENTER CAIS AT 20", &ctx(&e)).unwrap();
        assert!(matches!(r, QueryResult::Decision { granted: true, .. }));
    }

    /// `CAN subject ENTER location AT t`, checked against what the door
    /// then decides for the same request.
    fn can_enter_as_the_door_decides(
        e: &mut AccessControlEngine,
        subject: &str,
        location: &str,
        t: u64,
    ) -> QueryResult {
        let r = run(&format!("CAN {subject} ENTER {location} AT {t}"), &ctx(e)).unwrap();
        let s = e.profiles().id_of(subject).unwrap();
        let l = e.model().id(location).unwrap();
        let door = e.request_enter(Time(t), s, l);
        let want = QueryResult::Decision {
            granted: door.is_granted(),
            detail: door.to_string(),
        };
        assert_eq!(r, want, "CAN and the door disagree");
        r
    }

    #[test]
    fn can_enter_is_refused_under_lockdown() {
        let mut e = scenario();
        e.apply_situation(&SituationOp::Declare(SituationMode::Lockdown));
        let r = can_enter_as_the_door_decides(&mut e, "Alice", "CAIS", 20);
        assert_eq!(r.to_string(), "NO: denied: lockdown in force\n");
    }

    #[test]
    fn can_enter_grants_a_responder_the_emergency_override() {
        let mut e = scenario();
        let bob = e.profiles().id_of("Bob").unwrap();
        e.apply_situation(&SituationOp::AddResponder(bob));
        e.apply_situation(&SituationOp::Declare(SituationMode::Emergency {
            incident: IncidentId(7),
            until: Time(100),
        }));
        // Bob's single entry is spent; the live emergency overrides that.
        let r = can_enter_as_the_door_decides(&mut e, "Bob", "CAIS", 20);
        assert_eq!(
            r.to_string(),
            "YES: granted by emergency override (incident I7)\n"
        );
    }

    #[test]
    fn can_enter_is_refused_by_a_workflow_constraint() {
        let mut e = scenario();
        let (go, cais) = (
            e.model().id("SCE.GO").unwrap(),
            e.model().id("CAIS").unwrap(),
        );
        e.apply_situation(&SituationOp::AddConstraint(
            WorkflowConstraint::SeparationOfDuty {
                first: go,
                second: cais,
                window: 100,
            },
        ));
        // Alice entered SCE.GO at 5: CAIS is closed to her until 106.
        let r = can_enter_as_the_door_decides(&mut e, "Alice", "CAIS", 20);
        assert_eq!(r.to_string(), "NO: denied: workflow constraint\n");
    }

    #[test]
    fn where_is_historical() {
        let e = scenario();
        let r = run("WHERE Alice AT 7", &ctx(&e)).unwrap();
        assert_eq!(r, QueryResult::Whereabouts(Some("SCE.GO".into())));
        let r = run("WHERE Alice AT 11", &ctx(&e)).unwrap();
        assert_eq!(r, QueryResult::Whereabouts(None));
    }

    #[test]
    fn who_in_lists_presence() {
        let e = scenario();
        let r = run("WHO IN CAIS DURING [0, 100]", &ctx(&e)).unwrap();
        let QueryResult::Presence(rows) = r else {
            panic!("wrong kind");
        };
        let names: Vec<&str> = rows.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(names, vec!["Alice", "Bob"]);
    }

    #[test]
    fn contacts_trace_colocation() {
        let e = scenario();
        let r = run("CONTACTS OF Bob DURING [0, inf]", &ctx(&e)).unwrap();
        let QueryResult::Contacts(rows) = r else {
            panic!("wrong kind");
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "Alice");
        assert_eq!(rows[0].1, "CAIS");
        assert_eq!(rows[0].2, Interval::from_start(15u64));
    }

    #[test]
    fn violations_filterable() {
        let mut e = scenario();
        let mallory = e.profiles_mut().add_user("Mallory", "?");
        e.observe_enter(Time(30), mallory, e.model().id("CHIPES").unwrap());
        let all = run("VIOLATIONS", &ctx(&e)).unwrap();
        let QueryResult::Violations(rows) = all else {
            panic!("wrong kind");
        };
        assert_eq!(rows.len(), 1);
        assert!(rows[0].contains("Mallory"));
        assert!(rows[0].contains("CHIPES"));
        let none = run("VIOLATIONS FOR Alice", &ctx(&e)).unwrap();
        assert_eq!(none, QueryResult::Violations(vec![]));
        let windowed = run("VIOLATIONS DURING [0, 10]", &ctx(&e)).unwrap();
        assert_eq!(windowed, QueryResult::Violations(vec![]));
    }

    #[test]
    fn unknown_names_error() {
        let e = scenario();
        assert!(matches!(
            run("ACCESSIBLE FOR Nobody", &ctx(&e)),
            Err(super::super::QueryError::Eval(EvalError::UnknownSubject(_)))
        ));
        assert!(matches!(
            run("CAN Alice ENTER Nowhere AT 3", &ctx(&e)),
            Err(super::super::QueryError::Eval(EvalError::UnknownLocation(
                _
            )))
        ));
    }
}
