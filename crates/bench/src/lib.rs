//! Shared fixtures for the paper-reproduction harness (`repro` binary)
//! and the workspace's integration tests.
//!
//! Every table and figure of the paper maps to a subcommand of `repro`
//! (see `EXPERIMENTS.md` at the workspace root), beside six
//! correctness drills over the subsystems built around the model.
//! Nothing here is a source of performance numbers: those come from the
//! perf ledger (`bench/` at the workspace root).

#![warn(missing_docs)]

pub mod args;
pub mod loadgen;
pub mod relay;
pub mod spec;

use ltam_core::db::AuthId;
use ltam_core::inaccessible::AuthsByLocation;
use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::subject::SubjectId;
use ltam_engine::violation::Violation;
use ltam_graph::examples::{fig4_cycle, Fig4};
use ltam_time::Interval;

/// Alice, the paper's running subject.
pub const ALICE: SubjectId = SubjectId(0);

/// Table 1's authorization set on the Figure 4 graph.
pub fn table1_auths(f: &Fig4) -> AuthsByLocation {
    let auth = |l, entry: (u64, u64), exit: (u64, u64)| {
        Authorization::new(
            Interval::lit(entry.0, entry.1),
            Interval::lit(exit.0, exit.1),
            ALICE,
            l,
            EntryLimit::Finite(1),
        )
        .expect("Table 1 rows satisfy Definition 4")
    };
    let mut m = AuthsByLocation::new();
    m.insert(f.a, vec![auth(f.a, (2, 35), (20, 50))]);
    m.insert(f.b, vec![auth(f.b, (40, 60), (55, 80))]);
    m.insert(f.c, vec![auth(f.c, (38, 45), (70, 90))]);
    m.insert(f.d, vec![auth(f.d, (5, 25), (10, 30))]);
    m
}

/// The Figure 4 instance, ready to run.
pub fn fig4_instance() -> (Fig4, AuthsByLocation) {
    let f = fig4_cycle();
    let auths = table1_auths(&f);
    (f, auths)
}

/// The canonical ticked trace, parameterized only by scale: the
/// durability and retention drills replay traces built through this one
/// constructor (and the serving drills through [`serve_workload`], its
/// tickless form), so every drill sees the same workload shape (grid,
/// tick cadence, behaviour mix, seed).
pub fn throughput_workload(subjects: usize, events: usize) -> ltam_sim::TraceConfig {
    ltam_sim::TraceConfig {
        subjects,
        events,
        grid: 8,
        tick_every: 256,
        tailgater_fraction: 0.1,
        overstayer_fraction: 0.1,
        seed: 42,
    }
}

/// The canonical *serving* workload: the throughput workload with the
/// interleaved clock ticks removed. A network deployment has no global
/// event order — N clients deliver their subjects' streams
/// concurrently — so a tick's position in the generated trace is
/// meaningless on the wire, and tick-driven overstay detection would
/// fire at interleaving-dependent scan times. The serve drill instead
/// sends one final tick after every stream has drained, which is
/// deterministic (see `repro serve`).
pub fn serve_workload(subjects: usize, events: usize) -> ltam_sim::TraceConfig {
    ltam_sim::TraceConfig {
        tick_every: 0,
        ..throughput_workload(subjects, events)
    }
}

/// A total order on violations, so two violation multisets compare as
/// sorted vectors (shared by the durability drill and the equivalence
/// tests; detection *order* is legitimately engine-shape-dependent, the
/// multiset is not).
pub fn violation_sort_key(v: &Violation) -> (u8, u64, u32, u32, u64) {
    let kind = match v {
        Violation::UnauthorizedEntry { .. } => 0,
        Violation::ExitOutsideWindow { .. } => 1,
        Violation::Overstay { .. } => 2,
        Violation::InconsistentMovement { .. } => 3,
    };
    let auth = match *v {
        Violation::ExitOutsideWindow {
            auth: AuthId(a), ..
        }
        | Violation::Overstay {
            auth: AuthId(a), ..
        } => a,
        _ => u64::MAX,
    };
    (kind, v.time().get(), v.subject().0, v.location().0, auth)
}

/// Sort a violation list into canonical multiset order (see
/// [`violation_sort_key`]).
pub fn violation_multiset(mut vs: Vec<Violation>) -> Vec<Violation> {
    vs.sort_by_key(violation_sort_key);
    vs
}

/// Total live history records — movement events + audit records +
/// violations, summed across shards. This is exactly the quantity a
/// retention policy bounds: enforcement state (ledger, pending grants,
/// active stays) is population-bounded and excluded. Shared by
/// `repro retention` and the `retention_equivalence` test.
pub fn live_history_records(engine: &ltam_engine::batch::ShardedEngine) -> usize {
    (0..engine.shard_count())
        .map(|s| {
            engine.read_shard(s, |st| {
                st.movements().len() + st.audit().len() + st.violations().len()
            })
        })
        .sum()
}

/// A total order on contact rows, so tier-merged and unpruned contact
/// lists compare as sorted vectors (companion of [`violation_sort_key`];
/// only `(other, start)` is ordered by the query contract, the rest of
/// the key just makes ties deterministic).
pub fn contact_sort_key(c: &ltam_engine::movement::Contact) -> (u32, u32, u64, u64) {
    (
        c.other.0,
        c.location.0,
        c.overlap.start().get(),
        c.overlap
            .end()
            .finite()
            .map(|t| t.get())
            .unwrap_or(u64::MAX),
    )
}

/// Sort a contact list into canonical multiset order (see
/// [`contact_sort_key`]).
pub fn contact_multiset(
    mut cs: Vec<ltam_engine::movement::Contact>,
) -> Vec<ltam_engine::movement::Contact> {
    cs.sort_by_key(contact_sort_key);
    cs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltam_core::inaccessible::find_inaccessible;
    use ltam_graph::EffectiveGraph;

    #[test]
    fn fixture_reproduces_table2_result() {
        let (f, auths) = fig4_instance();
        let g = EffectiveGraph::build(&f.model);
        let report = find_inaccessible(&g, &auths);
        assert_eq!(report.inaccessible, vec![f.c]);
    }
}
