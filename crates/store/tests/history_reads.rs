//! The historical reads binary-search time-ordered rows instead of
//! scanning; these properties hold them to the scans they replaced.
//!
//! * The archive's reads — [`Tiers`] beside an empty live tier — equal a
//!   filter over every archived row, with late-arriving rows, a stranded
//!   (unapplied) segment, and segments merged into the lazy cache newest
//!   first.
//! * A [`MovementsDb`] decoded from its `binval` image mid-trace — as a
//!   snapshot and restart would — answers like the store it was taken
//!   from (which has built its stay rows; the decoded one has not) and
//!   like a filter over every timeline, and re-encodes to the same bytes.
//!
//! * Both tiers together, read through [`Tiers`] over a sharded engine
//!   and its archive — before, between and after retention runs, the
//!   last of them stranded — answer every history question as the
//!   paper's specification ([`ltam_bench::spec`]) does over history that
//!   was never pruned.
//!
//! The `MovementsDb` reads against their own scan oracle, prunes and
//! clones included, are a property in `ltam-engine` (`movement.rs`).

use ltam_bench::spec::{self, History};
use ltam_bench::violation_multiset;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyCore, ShardedEngine};
use ltam_engine::index::stays_overlapping;
use ltam_engine::movement::{MovementsDb, Stay};
use ltam_engine::retention::PrunedHistory;
use ltam_engine::Violation;
use ltam_graph::{LocationId, LocationModel};
use ltam_store::history::Tiers;
use ltam_store::{binval, ArchiveData, ArchiveStore, LazyArchive, ScratchDir};
use ltam_time::{Interval, Time};
use proptest::prelude::*;

const SUBJECTS: u32 = 4;
const LOCATIONS: u32 = 3;

/// Per subject: whether its records reach the archive one run late, and
/// its stays as `(gap before, length, location)`.
type Walks = Vec<(bool, Vec<(u64, u64, u32)>)>;

fn arb_walks() -> impl Strategy<Value = Walks> {
    let stay = (0u64..6, 0u64..9, 0..LOCATIONS);
    prop::collection::vec(
        (any::<bool>(), prop::collection::vec(stay, 0..10)),
        SUBJECTS as usize,
    )
}

/// A window `[start, start + len]`, unbounded when `len` ≥ 30.
fn window(start: u64, len: u64) -> Interval {
    if len >= 30 {
        Interval::from_start(start)
    } else {
        Interval::lit(start, start + len)
    }
}

/// Write the walks as a chain of segments ending at `ends`: a stay goes
/// to the first run whose horizon is past its exit — one run later for a
/// late subject, so that segment holds rows older than its predecessor's
/// — and stays no run reaches are still live. One violation per entry.
fn write_chain(store: &ArchiveStore, walks: &Walks, ends: &[u64]) {
    let mut runs: Vec<PrunedHistory> = ends.iter().map(|_| PrunedHistory::default()).collect();
    for (s, (late, stays)) in walks.iter().enumerate() {
        let subject = SubjectId(s as u32);
        let mut t = 0;
        for &(gap, len, l) in stays {
            let (enter, exit) = (t + gap, t + gap + len);
            t = exit;
            let Some(run) = ends.iter().position(|&to| exit < to) else {
                break;
            };
            let Some(run) = runs.get_mut(run + usize::from(*late)) else {
                break;
            };
            let location = LocationId(l);
            run.stays.push((
                subject,
                Stay {
                    location,
                    enter: Time(enter),
                    exit: Some(Time(exit)),
                },
            ));
            run.violations.push(Violation::UnauthorizedEntry {
                time: Time(enter),
                subject,
                location,
            });
        }
    }
    let mut from = 0;
    for (run, &to) in runs.iter().zip(ends) {
        store
            .append_run(from, to, run)
            .expect("write")
            .expect("segment");
        from = to;
    }
}

/// Every query of `data`, read through the tier merge beside the empty
/// live tier of `empty`, against a filter over all rows of `data`.
fn check_against_all_rows(
    empty: &ShardedEngine,
    data: &ArchiveData,
    w: Interval,
    applied_below: Time,
) -> Result<(), TestCaseError> {
    let tiers = Tiers {
        engine: empty,
        archive: Some(data),
        live_from: applied_below,
    };
    let applied = |seg_from: u64| seg_from < applied_below.get();
    for l in (0..LOCATIONS).map(LocationId) {
        let mut want: Vec<(SubjectId, Interval)> = data
            .stays
            .iter()
            .flat_map(|(&s, rows)| rows.rows().iter().map(move |&(f, stay)| (f, s, stay)))
            .filter(|&(f, _, stay)| applied(f) && stay.location == l)
            .filter_map(|(_, s, stay)| stay.interval().intersect(w).map(|i| (s, i)))
            .collect();
        want.sort_by_key(|&(s, i)| (s, i.start()));
        let mut examined = 0;
        let got = tiers.present_during(l, w, &mut examined);
        prop_assert_eq!(&got, &want, "present_during({}, {:?})", l, w);
        prop_assert!(examined >= got.len() as u64);
    }
    // Stored order, then stably by time: ties keep stored order.
    let mut want: Vec<Violation> = data
        .violations
        .iter()
        .filter(|&&(f, v)| applied(f) && w.contains(v.time()))
        .map(|&(_, v)| v)
        .collect();
    want.sort_by_key(Violation::time);
    prop_assert_eq!(tiers.violations_in(w, &mut 0), want);
    for s in (0..SUBJECTS).map(SubjectId) {
        let all = data.stays_of(s);
        let want: Vec<_> = all
            .iter()
            .filter(|(_, stay)| stay.interval().overlaps(w))
            .collect();
        let got = stays_overlapping(all, |&(_, stay)| stay, w);
        prop_assert_eq!(got.iter().collect::<Vec<_>>(), want);
        let want = all
            .iter()
            .rev()
            .find(|&&(f, stay)| applied(f) && stay.interval().contains(w.start()))
            .map(|(_, stay)| stay.location);
        prop_assert_eq!(tiers.whereabouts(s, w.start()), want);
    }
    Ok(())
}

/// Per subject, its moves as `(gap, length, location, kind)`: kinds 0–6
/// are a stay `gap` after the subject's clock, 7 an entry with no exit,
/// 8 an exit from wherever, 9 an entry `gap` chronons back in time. The
/// last three are there for the specification to reject.
type Tracks = Vec<Vec<(u64, u64, u32, u8)>>;

fn arb_tracks() -> impl Strategy<Value = Tracks> {
    let step = (0u64..6, 0u64..9, 0..LOCATIONS, 0u8..10);
    prop::collection::vec(prop::collection::vec(step, 0..12), SUBJECTS as usize)
}

/// The tracks as events, one subject's next event after another's, so
/// arrivals are out of time order across subjects.
fn events(tracks: &Tracks, rooms: &[LocationId]) -> Vec<Event> {
    let mut per_subject: Vec<Vec<Event>> = Vec::new();
    for (s, moves) in tracks.iter().enumerate() {
        let subject = SubjectId(s as u32);
        let (mut out, mut t) = (Vec::new(), s as u64 * 3);
        for &(gap, len, l, kind) in moves {
            let location = rooms[l as usize];
            let enter = |t| Event::Enter {
                time: Time(t),
                subject,
                location,
            };
            let exit = |t| Event::Exit {
                time: Time(t),
                subject,
                location,
            };
            match kind {
                0..=6 => {
                    out.extend([enter(t + gap), exit(t + gap + len)]);
                    t += gap + len;
                }
                7 => {
                    t += gap;
                    out.push(enter(t));
                }
                8 => {
                    t += gap;
                    out.push(exit(t));
                }
                _ => out.push(enter(t.saturating_sub(gap + 1))),
            }
        }
        per_subject.push(out);
    }
    let longest = per_subject.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| per_subject.iter().filter_map(move |e| e.get(i)).copied())
        .collect()
}

/// Every question, put to both tiers at once, against the specification
/// over the never-pruned history: windows from `windows` and below,
/// across and above the live watermark, and whereabouts at every chronon
/// up to `span`.
fn check_tiers(
    engine: &ShardedEngine,
    archive: &ArchiveData,
    spec: &History,
    detected: &[Violation],
    windows: &[(u64, u64)],
    span: u64,
    rooms: &[LocationId],
) -> Result<(), TestCaseError> {
    let live_from = engine.retention_watermark();
    let tiers = Tiers {
        engine,
        archive: Some(archive),
        live_from,
    };
    let wm = live_from.get();
    let mut asked: Vec<Interval> = windows.iter().map(|&(a, n)| window(a, n)).collect();
    asked.extend([
        Interval::lit(0, wm.saturating_sub(1)),
        Interval::lit(wm.saturating_sub(4), wm + 4),
        Interval::from_start(wm),
    ]);
    for w in asked {
        for &l in rooms {
            let mut got = tiers.present_during(l, w, &mut 0);
            got.sort_by_key(|&(s, i)| (s, i.start(), i.end()));
            prop_assert_eq!(
                got,
                spec.present_during(l, w),
                "present_during({}, {:?})",
                l,
                w
            );
        }
        for s in (0..SUBJECTS).map(SubjectId) {
            let mut got = tiers.contacts(s, w, &mut 0);
            got.sort_by_key(spec::contact_key);
            prop_assert_eq!(got, spec.contacts(s, w), "contacts({}, {:?})", s, w);
        }
        prop_assert_eq!(
            violation_multiset(tiers.violations_in(w, &mut 0)),
            violation_multiset(spec::violations_in(detected, w)),
            "violations_in({:?})",
            w
        );
    }
    for s in (0..SUBJECTS).map(SubjectId) {
        for t in (0..=span).map(Time) {
            prop_assert_eq!(
                tiers.whereabouts(s, t),
                spec.whereabouts(s, t),
                "whereabouts({}, {})",
                s,
                t
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random walks into a sharded engine at 1 and 3 shards, archived
    /// and pruned at several horizons with the last run stranded (its
    /// segment written, its prune never applied): asked before the
    /// first run and after each, the two tiers answer as the
    /// specification does over the whole history, and the movements the
    /// specification rejects are the inconsistent movements the engine
    /// reported.
    #[test]
    fn both_tiers_answer_as_the_specification(
        tracks in arb_tracks(),
        widths in prop::collection::vec(1u64..30, 1..4),
        windows in prop::collection::vec((0u64..150, 0u64..40), 1..4),
    ) {
        let mut model = LocationModel::new("W");
        let rooms: Vec<LocationId> = (0..LOCATIONS)
            .map(|i| model.add_primitive(model.root(), format!("r{i}")).unwrap())
            .collect();
        let events = events(&tracks, &rooms);
        let spec = History::fold(&events);
        let span = events.iter().map(|e| e.time().get()).max().unwrap_or(0) + 2;
        let horizons: Vec<u64> = widths
            .iter()
            .scan(0, |to, w| {
                *to += w;
                Some(*to)
            })
            .collect();
        for shards in [1, 3] {
            let (engine, _alerts) = ShardedEngine::new(PolicyCore::new(model.clone()), shards);
            engine.ingest(&events);
            let detected = engine.violations();
            let inconsistent = detected
                .iter()
                .filter(|v| matches!(v, Violation::InconsistentMovement { .. }))
                .count();
            prop_assert_eq!(inconsistent, spec.rejected());
            let dir = ScratchDir::new("prop-tiers-spec");
            let store = ArchiveStore::with_fsync(dir.path(), false);
            let check = |engine: &ShardedEngine| {
                let archive = store.load().expect("load");
                check_tiers(engine, &archive, &spec, &detected, &windows, span, &rooms)
            };
            check(&engine)?;
            for (i, &horizon) in horizons.iter().enumerate() {
                let from = engine.retention_watermark().get();
                let pruned = engine.collect_prunable(Time(horizon));
                store.append_run(from, horizon, &pruned).expect("write").expect("segment");
                if i + 1 < horizons.len() {
                    engine.apply_retention(Time(horizon));
                }
                check(&engine)?;
            }
        }
    }

    #[test]
    fn archive_reads_equal_a_filter_over_all_rows(
        walks in arb_walks(),
        widths in prop::collection::vec(1u64..40, 1..5),
        windows in prop::collection::vec((0u64..120, 0u64..40), 1..6),
    ) {
        let ends: Vec<u64> = widths
            .iter()
            .scan(0, |to, w| {
                *to += w;
                Some(*to)
            })
            .collect();
        let dir = ScratchDir::new("prop-archive-reads");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        write_chain(&store, &walks, &ends);
        let eager = store.load().expect("load");
        // The lazy cache, made to merge the newest segment first and
        // the older ones under it.
        let mut lazy = LazyArchive::new();
        let newest_from = ends.iter().rev().nth(1).copied().unwrap_or(0);
        lazy.view_for(&store, Time(newest_from), Time::MAX).expect("newest");
        let lazy = lazy.view_for(&store, Time::ZERO, Time::MAX).expect("all");
        let (empty, _alerts) = ShardedEngine::new(PolicyCore::new(LocationModel::new("W")), 1);
        for &(start, len) in &windows {
            let w = window(start, len);
            // Standalone, and with the last segment stranded: its prune
            // never applied, so its rows belong to the live tier.
            for applied_below in [Time::MAX, Time(newest_from)] {
                check_against_all_rows(&empty, &eager, w, applied_below)?;
                check_against_all_rows(&empty, lazy, w, applied_below)?;
            }
        }
    }

    #[test]
    fn a_decoded_image_answers_like_the_store_it_was_taken_from(
        moves in prop::collection::vec((0..SUBJECTS, 0..LOCATIONS, 0u64..6), 1..80),
        cut in 0usize..80,
        windows in prop::collection::vec((0u64..100, 0u64..40), 1..6),
    ) {
        let apply = |db: &mut MovementsDb, &(s, l, dt): &(u32, u32, u64)| {
            let subject = SubjectId(s);
            // Per-subject clocks, each from its own offset.
            let last = db.timeline(subject).last().map(|x| x.exit.unwrap_or(x.enter));
            let t = Time(last.map_or(u64::from(s) * 7, |t| t.get() + dt));
            match db.current_location(subject) {
                Some(at) => db.record_exit(t, subject, at).unwrap(),
                None => db.record_enter(t, subject, LocationId(l)).unwrap(),
            }
        };
        let cut = cut.min(moves.len());
        let mut db = MovementsDb::new();
        moves[..cut].iter().for_each(|m| apply(&mut db, m));
        // A reader has been here: `db` holds stay rows, its image none.
        db.present_during(LocationId(0), Interval::ALL);
        let image = binval::encode(&db);
        let mut back: MovementsDb = binval::decode(&image).expect("decode");
        prop_assert_eq!(&back, &db);
        prop_assert_eq!(binval::encode(&back), image);
        for m in &moves[cut..] {
            apply(&mut db, m);
            apply(&mut back, m);
        }
        for &(start, len) in &windows {
            let w = window(start, len);
            for l in (0..LOCATIONS).map(LocationId) {
                let mut want: Vec<(SubjectId, Interval)> = (0..SUBJECTS)
                    .map(SubjectId)
                    .flat_map(|s| db.timeline(s).iter().map(move |stay| (s, *stay)))
                    .filter(|(_, stay)| stay.location == l)
                    .filter_map(|(s, stay)| stay.interval().intersect(w).map(|i| (s, i)))
                    .collect();
                want.sort_by_key(|&(s, i)| (s, i.start()));
                prop_assert_eq!(&db.present_during(l, w), &want);
                prop_assert_eq!(&back.present_during(l, w), &want);
            }
            for s in (0..SUBJECTS).map(SubjectId) {
                prop_assert_eq!(back.contacts(s, w), db.contacts(s, w));
            }
        }
    }
}
