//! The stage replay: the workload's own generated inputs fed through
//! each layer's public functions, one layer at a time, in this
//! process, with a span around every repetition. It answers "what does
//! this stage cost per event on this box today" from outside the
//! program; nothing here runs during the timed pass.
//!
//! A stage runs its block of calls repeatedly for a fixed time and
//! reports the median per-unit cost over the repetitions. Calls that
//! take tens of nanoseconds are spanned per block, not per call — a
//! span costs more than they do.

use crate::child::{workflow_constraints, SHARDS};
use crate::gen::{self, Lap, LapCursor};
use crate::spec::Metric;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use ltam::core::capability::{AdminOp, Capability, Scope, WireAuth};
use ltam::core::decision::AccessRequest;
use ltam::core::model::{Authorization, EntryLimit};
use ltam::core::retention::RetentionPolicy;
use ltam::core::subject::SubjectId;
use ltam::core::{Decision, UsageLedger};
use ltam::engine::batch::{Event, ShardedEngine};
use ltam::engine::shard::ShardState;
use ltam::graph::LocationId;
use ltam::serve::wire::{
    self, FrameAssembler, HistoryQuery, Request, Response, DEFAULT_MAX_FRAME_BYTES,
};
use ltam::situate::{judge, SituationOp, SituationPolicy};
use ltam::store::codec::{decode_event, encode_event};
use ltam::store::{crc32, DurableEngine, StoreConfig, Wal, WalConfig};
use ltam::time::{Interval, IntervalTree, Time};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long each stage is repeated for.
const STAGE_TIME: Duration = Duration::from_millis(60);
/// Events per streamed frame and frames per commit group in the replay
/// (the `stream_ingest` shape).
const FRAME_EVENTS: usize = 64;
const GROUP_FRAMES: usize = 4;

/// Collects stage results.
pub struct Replay<'a> {
    tracer: &'a mut Tracer,
    root: SpanId,
    out: Vec<Metric>,
}

impl Replay<'_> {
    /// Repeat `block` for [`STAGE_TIME`] (at least three times), one
    /// span per repetition under a span for the stage; `block` returns
    /// the units of work it did. Reports `name` as the median cost per
    /// unit, in `unit` (`ns`, `us` or `ms`).
    fn stage(&mut self, name: &'static str, unit: &'static str, mut block: impl FnMut() -> u64) {
        let scale = match unit {
            "ns" => 1.0,
            "us" => 1e-3,
            "ms" => 1e-6,
            other => unreachable!("stage unit {other}"),
        };
        let root = self.root;
        let mut costs = Vec::new();
        self.tracer.scope(name, Some(root), |tracer, stage| {
            let until = Instant::now() + STAGE_TIME;
            while costs.len() < 3 || Instant::now() < until {
                let mut units = 0;
                let rep = tracer.scope(name, Some(stage), |_, rep| {
                    units = block();
                    rep
                });
                costs.push(tracer.duration(rep).as_nanos() as f64 / units.max(1) as f64);
            }
        });
        self.out
            .push(Metric::new(name, median(&costs) * scale, unit));
    }

    /// Run `f` once inside a span and report its duration as `name`, ms.
    fn once<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let root = self.root;
        let (r, id) = self.tracer.scope(name, Some(root), |_, id| (f(), id));
        let ms = self.tracer.duration(id).as_secs_f64() * 1e3;
        self.out.push(Metric::new(name, ms, "ms"));
        r
    }
}

fn store_config(fsync: bool, retention: Option<RetentionPolicy>) -> StoreConfig {
    StoreConfig {
        segment_bytes: 8 * 1024 * 1024,
        snapshot_every: 0,
        fsync,
        retention,
    }
}

/// Feed the lap through every layer. `scratch` is an empty directory
/// for the stores the store stages create. Returns the stage metrics.
pub fn run(lap: &Lap, scratch: &Path, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let io = |e: std::io::Error| format!("replay: {e}");
    let root = tracer.scope("replay", None, |_, id| id);
    let mut r = Replay {
        tracer,
        root,
        out: Vec::new(),
    };
    let events = &lap.events;
    // Built once; every stage that needs the policy clones it.
    let core = gen::policy_core(&lap.authorizations);
    let frames: Vec<&[Event]> = events.chunks_exact(FRAME_EVENTS).take(256).collect();
    let frame_events = (frames.len() * FRAME_EVENTS) as u64;
    let requests: Vec<Event> = events
        .iter()
        .filter(|e| matches!(e, Event::Request { .. }))
        .take(4096)
        .copied()
        .collect();
    if frames.is_empty() || requests.is_empty() {
        return Err("replay: the lap is too small".into());
    }

    // --- serve: framing and codecs ---------------------------------------
    let mut wire_bytes = Vec::new();
    r.stage("serve.request_encode_ns_per_event", "ns", || {
        wire_bytes.clear();
        for f in &frames {
            let payload = wire::encode_request(&Request::Ingest(f.to_vec()));
            wire::write_frame(&mut wire_bytes, &payload).expect("Vec write");
        }
        frame_events
    });
    let decode_all = |bytes: &[u8]| -> u64 {
        // Bytes arrive in socket-sized reads, as on the poll thread.
        let mut assembler = FrameAssembler::new(DEFAULT_MAX_FRAME_BYTES);
        let mut decoded = 0u64;
        for chunk in bytes.chunks(16 * 1024) {
            assembler.push(chunk);
            while let Some(payload) = assembler.next_frame().expect("own frames are valid") {
                black_box(wire::decode_request(&payload).expect("own requests decode"));
                decoded += 1;
            }
        }
        decoded
    };
    r.stage("serve.ingest_frame_decode_ns_per_event", "ns", || {
        decode_all(&wire_bytes) * FRAME_EVENTS as u64
    });
    let mut swipe_bytes = Vec::new();
    for e in &requests {
        wire::write_frame(&mut swipe_bytes, &wire::encode_request(&Request::Check(*e)))
            .expect("Vec write");
    }
    r.stage("serve.swipe_frame_decode_ns", "ns", || {
        decode_all(&swipe_bytes)
    });
    let replies = [
        Response::Access { granted: true },
        Response::Ingested {
            processed: 1,
            granted: 0,
            denied: 0,
            violations: Vec::new(),
        },
    ];
    r.stage("serve.response_codec_ns", "ns", || {
        for _ in 0..512 {
            for reply in &replies {
                let bytes = wire::encode_response(black_box(reply));
                black_box(wire::decode_response(&bytes).expect("own replies decode"));
            }
        }
        1024
    });
    let question = Request::Query(HistoryQuery::PresentDuring {
        location: LocationId(1),
        window: Interval::lit(100, 150),
    });
    let answer = Response::Present {
        rows: (0..64)
            .map(|i| (SubjectId(i), Interval::lit(100 + i as u64, 200)))
            .collect(),
    };
    r.stage("serve.query_codec_us", "us", || {
        for _ in 0..64 {
            let q = wire::encode_request(black_box(&question));
            black_box(wire::decode_request(&q).expect("own query decodes"));
            let a = wire::encode_response(black_box(&answer));
            black_box(wire::decode_response(&a).expect("own answer decodes"));
        }
        64
    });

    // --- core / time / situate: one decision ------------------------------
    let mut wire_auth = WireAuth::default();
    let token = wire_auth.mint(
        SubjectId(u32::MAX - 1),
        vec![Scope::Ingest { locations: None }, Scope::Query],
        Interval::ALL,
        "replay".into(),
    );
    r.stage("core.authorize_ns", "ns", || {
        // What the per-frame capability gate does for a one-event frame.
        for e in &requests {
            let t = wire_auth.token(black_box(token)).expect("minted above");
            black_box(t.permits(Capability::Ingest, e.time()).is_ok());
            let location = match e {
                Event::Request { location, .. } => *location,
                _ => unreachable!("filtered above"),
            };
            black_box(t.permits_locations(std::iter::once(&location)).is_ok());
            black_box(wire_auth.trust.level_of(t.subject));
        }
        requests.len() as u64
    });
    let ledger = UsageLedger::new();
    let access: Vec<AccessRequest> = requests
        .iter()
        .map(|e| match *e {
            Event::Request {
                time,
                subject,
                location,
            } => AccessRequest {
                time,
                subject,
                location,
            },
            _ => unreachable!("filtered above"),
        })
        .collect();
    let mut decisions: Vec<Decision> = Vec::with_capacity(access.len());
    r.stage("core.decide_ns", "ns", || {
        let ctx = core.view().decision_context();
        decisions.clear();
        for a in &access {
            decisions.push(ctx.decide(&ledger, black_box(a)));
        }
        access.len() as u64
    });
    let mut tree = IntervalTree::new();
    for i in 0..64u64 {
        tree.insert(Interval::lit(i * 10, i * 10 + 200), i);
    }
    r.stage("time.stab_ns", "ns", || {
        for t in 0..1024u64 {
            black_box(tree.stab(Time(black_box(t))).len());
        }
        1024
    });
    let mut situation = SituationPolicy::new();
    for c in workflow_constraints() {
        situation.apply(&SituationOp::AddConstraint(c));
    }
    let never_entered = |_: LocationId, _: Time| false;
    r.stage("situate.judge_ns", "ns", || {
        for (a, base) in access.iter().zip(&decisions) {
            black_box(judge(
                &situation,
                a.subject,
                a.location,
                a.time,
                *base,
                &never_entered,
            ));
        }
        access.len() as u64
    });

    // --- engine: the sharded engine, three batch sizes --------------------
    let mut loaded = None;
    for (name, batch, budget) in [
        (
            "engine.ingest_ns_per_event_b1024",
            1024usize,
            64 * 1024usize,
        ),
        ("engine.ingest_ns_per_event_b64", 64, 32 * 1024),
        ("engine.ingest_ns_per_event_b1", 1, 2 * 1024),
    ] {
        let (engine, _alerts) = ShardedEngine::new(core.clone(), SHARDS);
        let mut cursor = LapCursor::new(lap.span);
        let mut buf = Vec::with_capacity(batch);
        r.stage(name, "ns", || {
            for _ in 0..budget / batch {
                buf.clear();
                cursor.fill(events, batch, &mut buf);
                black_box(engine.ingest(&buf).processed);
            }
            budget as u64
        });
        if batch == 1024 {
            loaded = Some((engine, cursor));
        }
    }
    let (engine, cursor) = loaded.expect("the b1024 engine is kept");
    let images = r.once("engine.export_images_ms", || engine.export_images());
    let restored = r.once("engine.with_states_ms", || {
        let states = images.into_iter().map(ShardState::from_image).collect();
        ShardedEngine::with_states(core.clone(), states)
    });
    drop(restored);
    let now = Time(cursor.consumed(events.len()) / events.len() as u64 * lap.span + lap.span);
    r.once("engine.retention_run_ms", || {
        engine.run_retention(&RetentionPolicy::keep_last(lap.span / 2), now)
    });
    drop(engine);

    // --- store: codec, WAL, commit path ------------------------------------
    let mut encoded = Vec::new();
    r.stage("store.codec_encode_ns_per_event", "ns", || {
        encoded.clear();
        for f in &frames {
            for e in *f {
                encode_event(e, &mut encoded);
            }
        }
        frame_events
    });
    r.stage("store.codec_decode_ns_per_event", "ns", || {
        let mut at = 0;
        let mut n = 0u64;
        while at < encoded.len() {
            let (e, used) = decode_event(&encoded[at..]).expect("own encoding decodes");
            black_box(e);
            at += used;
            n += 1;
        }
        n
    });
    r.stage("store.crc32_ns_per_kib", "ns", || {
        black_box(crc32(black_box(&encoded)));
        (encoded.len() as u64).div_ceil(1024)
    });
    let group: Vec<&[Event]> = frames.iter().take(GROUP_FRAMES).copied().collect();
    for (name, fsync) in [
        ("store.wal_append_us_per_group_fsync", true),
        ("store.wal_append_us_per_group_nofsync", false),
    ] {
        let dir = scratch.join(if fsync { "wal-fsync" } else { "wal-nofsync" });
        let config = WalConfig {
            segment_bytes: 8 * 1024 * 1024,
            fsync,
        };
        let (mut wal, _) = Wal::open(&dir, config).map_err(io)?;
        let mut failed = None;
        r.stage(name, "us", || {
            for _ in 0..16 {
                if let Err(e) = wal.append_batches(&group) {
                    failed = Some(e);
                }
            }
            16
        });
        if let Some(e) = failed {
            return Err(io(e));
        }
    }
    // The commit path without the wire, flushes off as in the timed
    // pass. Then the same blocks alternating `ltam-obs` timing spans on
    // and off over the one growing store, so both sides see the same
    // state: the instrumentation's share of the commit path.
    {
        let dir = scratch.join("commit");
        let (mut durable, _alerts) =
            DurableEngine::create(&dir, core.clone(), SHARDS, store_config(false, None))
                .map_err(io)?;
        let mut cursor = LapCursor::new(lap.span);
        let mut bufs: Vec<Vec<Event>> = vec![Vec::new(); GROUP_FRAMES];
        let mut failed = None;
        let mut block = || {
            for _ in 0..16 {
                for b in &mut bufs {
                    b.clear();
                    cursor.fill(events, FRAME_EVENTS, b);
                }
                let group: Vec<&[Event]> = bufs.iter().map(Vec::as_slice).collect();
                if let Err(e) = durable.commit_group(&group) {
                    failed = Some(e);
                }
            }
            (16 * GROUP_FRAMES * FRAME_EVENTS) as u64
        };
        r.stage("store.commit_group_ns_per_event", "ns", &mut block);
        let mut cost = [Vec::new(), Vec::new()];
        let root = r.root;
        r.tracer.scope("obs.overhead", Some(root), |tracer, stage| {
            for rep in 0..32 {
                let off = rep % 2 == 1;
                ltam::obs::set_disabled(off);
                let id = tracer.scope("obs.overhead", Some(stage), |_, id| {
                    block();
                    id
                });
                cost[off as usize].push(tracer.duration(id).as_nanos() as f64);
            }
        });
        ltam::obs::set_disabled(false);
        if let Some(e) = failed {
            return Err(io(e));
        }
        let share = 1.0 - median(&cost[1]) / median(&cost[0]);
        r.out
            .push(Metric::new("obs.overhead_share", share, "share"));
    }

    // --- store: the read path over two tiers, recovery, policy edits -------
    // Two laps of history, the older one pushed into the archive tier.
    let dir = scratch.join("tiers");
    let retention = RetentionPolicy {
        min_advance: u64::MAX / 2, // runs only when asked
        ..RetentionPolicy::keep_last(lap.span)
    };
    let (mut durable, _alerts) = DurableEngine::create(
        &dir,
        core.clone(),
        SHARDS,
        store_config(false, Some(retention)),
    )
    .map_err(io)?;
    let mut cursor = LapCursor::new(lap.span);
    let mut buf = Vec::with_capacity(1024);
    for _ in 0..(2 * events.len()).div_ceil(1024) {
        buf.clear();
        cursor.fill(events, 1024, &mut buf);
        durable.ingest(&buf).map_err(io)?;
    }
    let clock = durable.clock();
    durable.run_retention(clock).map_err(io)?;
    let view = durable.read_view();
    let watermark = durable.retention_watermark().get();
    r.once("store.archive_load_ms", || {
        // The retention run dropped the archive cache; the first
        // question below the watermark reloads every segment.
        black_box(view.whereabouts(SubjectId(0), Time(watermark / 2)).is_ok())
    });
    let subjects = lap
        .authorizations
        .iter()
        .map(|a| a.subject().0)
        .max()
        .unwrap_or(0)
        + 1;
    for (tier, base) in [
        ("live", watermark + lap.span / 4),
        ("archive", watermark / 4),
    ] {
        let at = |i: u64| base + (i * 37) % (lap.span / 4).max(1);
        let who = |i: u64| SubjectId((i * 7919 % subjects as u64) as u32);
        let room = |i: u64| LocationId((i % (gen::GRID * gen::GRID) as u64) as u32);
        let mut failed = false;
        let mut ask = |r: &mut Replay<'_>, name: &'static str, f: &dyn Fn(u64) -> bool| {
            r.stage(name, "us", || {
                for i in 0..16 {
                    failed |= !f(i);
                }
                16
            });
        };
        let names: [&'static str; 4] = match tier {
            "live" => [
                "store.view_query_us.whereabouts_live",
                "store.view_query_us.present_live",
                "store.view_query_us.contacts_live",
                "store.view_query_us.violations_live",
            ],
            _ => [
                "store.view_query_us.whereabouts_archive",
                "store.view_query_us.present_archive",
                "store.view_query_us.contacts_archive",
                "store.view_query_us.violations_archive",
            ],
        };
        ask(&mut r, names[0], &|i| {
            view.whereabouts(who(i), Time(at(i))).is_ok()
        });
        ask(&mut r, names[1], &|i| {
            view.present_during(room(i), Interval::lit(at(i), at(i) + 50))
                .is_ok()
        });
        ask(&mut r, names[2], &|i| {
            view.contacts(who(i), Interval::lit(at(i), at(i) + 200))
                .is_ok()
        });
        ask(&mut r, names[3], &|i| {
            view.violations_in(Interval::lit(at(i), at(i) + 20)).is_ok()
        });
        if failed {
            return Err(format!("replay: a {tier}-tier query was refused"));
        }
    }
    // Control-plane edits at loaded state.
    let spare = Authorization::new(
        Interval::lit(0, 10),
        Interval::lit(0, 20),
        SubjectId(subjects),
        LocationId(0),
        EntryLimit::Unbounded,
    )
    .expect("a valid authorization");
    r.once("store.admin_edit_ms", || {
        durable.apply_admin(AdminOp::AddAuthorization(spare))
    })
    .map_err(io)?;
    r.once("store.policy_edit_ms", || {
        durable.update_policy(|p| p.add_authorization(spare))
    })
    .map_err(io)?;
    r.once("store.situation_edit_ms", || {
        durable.apply_situation(&SituationOp::AddResponder(SubjectId(0)))
    })
    .map_err(io)?;
    // Recovery: a quarter lap of WAL tail behind the last snapshot.
    durable.snapshot().map_err(io)?;
    for _ in 0..(events.len() / 4).div_ceil(1024) {
        buf.clear();
        cursor.fill(events, 1024, &mut buf);
        durable.ingest(&buf).map_err(io)?;
    }
    drop(view);
    drop(durable);
    let replay_before = recovery_replay_seconds();
    let (reopened, _alerts, report) = r
        .once("store.recover_open_ms", || {
            DurableEngine::open(&dir, store_config(false, Some(retention)))
        })
        .map_err(io)?;
    drop(reopened);
    let replay_ns = (recovery_replay_seconds() - replay_before) * 1e9;
    r.out.push(Metric::new(
        "store.recover_replay_ns_per_event",
        replay_ns / report.replayed.max(1) as f64,
        "ns",
    ));
    Ok(r.out)
}

/// Total seconds this process's `store_recovery_replay_seconds` series
/// has recorded.
fn recovery_replay_seconds() -> f64 {
    ltam::obs::histogram_snapshot(ltam::obs::registry(), "store_recovery_replay_seconds", &[])
        .map_or(0.0, |h| h.sum as f64 / 1e6)
}
