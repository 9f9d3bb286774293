//! The per-layer metrics of a `--trace 1` run, from two outside
//! sources only: the stage replay (`replay.rs`) and before/after deltas
//! of the program's own `ltam-obs` series scraped over the wire. Plus
//! the harness's own diagnostics and the reconciliation of replayed
//! stage costs with the measured wall cost per operation.
//!
//! Every metric is reported on every workload; one that a workload
//! cannot exercise (a wire series on `decide_inproc`, `check` latency
//! on `stream_ingest`) reads 0.

use crate::spec::{Kind, Metric, Workload};
use crate::stats::{median, quartile_spread, third_best};
use crate::wire_run::Measured;
use crate::Slices;
use ltam::obs::Exposition;
use std::collections::BTreeMap;

/// One per-layer metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Name in the output and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Is a larger value better? Nothing is computed from it: it is
    /// what `BENCHMARK.json` must say, and the manifest test reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Every per-layer metric, in ledger order.
pub const PER_LAYER: [Layer; 72] = [
    // serve: replayed codecs, scraped request path, timed control plane
    lower("serve.ingest_frame_decode_ns_per_event", "ns"),
    lower("serve.request_encode_ns_per_event", "ns"),
    lower("serve.swipe_frame_decode_ns", "ns"),
    lower("serve.response_codec_ns", "ns"),
    lower("serve.query_codec_us", "us"),
    lower("serve.request_mean_us.ingest", "us"),
    lower("serve.request_mean_us.check", "us"),
    lower("serve.request_mean_us.query", "us"),
    lower("serve.poll_wakeups_per_op", "count"),
    lower("serve.poll_iteration_mean_us", "us"),
    lower("serve.backpressure_events", "count"),
    lower("serve.status_ms", "ms"),
    lower("serve.metrics_scrape_ms", "ms"),
    // core / time / situate: one decision, replayed
    lower("core.authorize_ns", "ns"),
    lower("core.decide_ns", "ns"),
    lower("time.stab_ns", "ns"),
    lower("situate.judge_ns", "ns"),
    // engine
    lower("engine.ingest_ns_per_event_b1024", "ns"),
    lower("engine.ingest_ns_per_event_b64", "ns"),
    lower("engine.ingest_ns_per_event_b1", "ns"),
    lower("engine.shard_batch_mean_us", "us"),
    lower("engine.shard_skew", "ratio"),
    lower("engine.retention_run_ms", "ms"),
    lower("engine.export_images_ms", "ms"),
    lower("engine.with_states_ms", "ms"),
    // store: codec, WAL, commit, snapshots, tiers, recovery, edits
    lower("store.codec_encode_ns_per_event", "ns"),
    lower("store.codec_decode_ns_per_event", "ns"),
    lower("store.crc32_ns_per_kib", "ns"),
    lower("store.wal_append_us_per_group_fsync", "us"),
    lower("store.wal_append_us_per_group_nofsync", "us"),
    lower("store.fsync_mean_us", "us"),
    lower("store.commit_groups_per_kop", "count"),
    higher("store.group_events_mean", "count"),
    lower("store.queue_wait_mean_us", "us"),
    lower("store.wal_bytes_per_event", "bytes"),
    lower("store.commit_group_ns_per_event", "ns"),
    lower("store.snapshot_encode_ms", "ms"),
    lower("store.snapshot_write_ms", "ms"),
    lower("store.snapshot_bytes", "bytes"),
    lower("store.snapshots_taken", "count"),
    lower("store.retention_run_ms", "ms"),
    lower("store.retention_runs", "count"),
    lower("store.archive_run_ms", "ms"),
    lower("store.archive_load_ms", "ms"),
    lower("store.view_query_us.whereabouts_live", "us"),
    lower("store.view_query_us.present_live", "us"),
    lower("store.view_query_us.contacts_live", "us"),
    lower("store.view_query_us.violations_live", "us"),
    lower("store.view_query_us.whereabouts_archive", "us"),
    lower("store.view_query_us.present_archive", "us"),
    lower("store.view_query_us.contacts_archive", "us"),
    lower("store.view_query_us.violations_archive", "us"),
    lower("store.recover_open_ms", "ms"),
    lower("store.recover_replay_ns_per_event", "ns"),
    lower("store.admin_edit_ms", "ms"),
    lower("store.policy_edit_ms", "ms"),
    lower("store.situation_edit_ms", "ms"),
    lower("store.dir_bytes_end", "bytes"),
    // cross-cutting
    lower("obs.overhead_share", "share"),
    lower("client.rtt_p99_ms", "ms"),
    higher("client.raw_throughput_per_s", "1/s"),
    higher("client.eligible_slices", "count"),
    lower("client.slice_spread", "share"),
    lower("client.cpu_share", "share"),
    lower("client.unarchived_retries", "count"),
    lower("host.slowdown", "ratio"),
    lower("harness.gen_s", "s"),
    lower("trace.overhead_share", "share"),
    lower("trace.spans", "count"),
    lower("reconcile.wire_gap_ratio", "ratio"),
    higher("reconcile.attributed_share", "share"),
    lower("reconcile.unattributed_share", "share"),
];

/// Before/after scrapes of the program's metric registry.
struct Delta {
    before: Exposition,
    after: Exposition,
}

impl Delta {
    /// Growth of the sample `name{labels}` over the measured phase.
    fn grown(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.after.value(name, labels).unwrap_or(0.0)
            - self.before.value(name, labels).unwrap_or(0.0)
    }

    /// Growth of a whole family (all label sets).
    fn family(&self, name: &str) -> f64 {
        self.after.family_sum(name) - self.before.family_sum(name)
    }

    /// Mean of a histogram family's new samples (`_sum` / `_count`
    /// deltas, all label sets merged), times `scale`; 0 with none.
    fn mean(&self, family: &str, scale: f64) -> f64 {
        let count = self.family(&format!("{family}_count"));
        if count > 0.0 {
            self.family(&format!("{family}_sum")) / count * scale
        } else {
            0.0
        }
    }

    /// [`Delta::mean`] for one label set.
    fn mean_of(&self, family: &str, labels: &[(&str, &str)], scale: f64) -> f64 {
        let count = self.grown(&format!("{family}_count"), labels);
        if count > 0.0 {
            self.grown(&format!("{family}_sum"), labels) / count * scale
        } else {
            0.0
        }
    }
}

/// Seconds-valued series to microseconds / milliseconds.
const US: f64 = 1e6;
const MS: f64 = 1e3;

/// Assemble every per-layer metric of one traced run. `slices` are
/// the run's eligible slices, `replayed` the stage replay's results.
pub fn per_layer(
    w: &Workload,
    m: &Measured,
    slices: &Slices,
    replayed: Vec<Metric>,
) -> Result<Vec<Metric>, String> {
    let mut values: BTreeMap<String, f64> =
        replayed.into_iter().map(|m| (m.name, m.value)).collect();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    let ops: f64 = m.slices.iter().map(|s| s.ops as f64).sum();

    if let Some((before, after)) = &m.scrapes {
        let parse = |text: &str| ltam::obs::parse_text(text).map_err(|e| format!("scrape: {e}"));
        let d = Delta {
            before: parse(before)?,
            after: parse(after)?,
        };
        for kind in ["ingest", "check", "query"] {
            let labels = [("kind", kind)];
            let mean = d.mean_of("serve_request_seconds", &labels, US);
            put(&format!("serve.request_mean_us.{kind}"), mean);
        }
        // The scrapes bracket warm-up, both phases and the cool-down,
        // so ratios use the scrapes' own operation counts.
        let scraped_ops = match w.kind {
            Kind::HistoryQuery => d.grown("serve_request_seconds_count", &[("kind", "query")]),
            _ => d.family("store_group_events_sum"),
        }
        .max(1.0);
        put(
            "serve.poll_wakeups_per_op",
            d.family("serve_poll_wakeups_total") / scraped_ops,
        );
        put(
            "serve.poll_iteration_mean_us",
            d.mean("serve_poll_iteration_seconds", US),
        );
        put(
            "serve.backpressure_events",
            d.family("serve_backpressure_total"),
        );
        put(
            "engine.shard_batch_mean_us",
            d.mean("engine_shard_batch_seconds", US),
        );
        put(
            "store.commit_groups_per_kop",
            d.family("store_group_commits_total") / scraped_ops * 1e3,
        );
        put("store.group_events_mean", d.mean("store_group_events", 1.0));
        put(
            "store.queue_wait_mean_us",
            d.mean("store_group_queue_wait_seconds", US),
        );
        let events = d.family("store_group_events_sum").max(1.0);
        put(
            "store.wal_bytes_per_event",
            d.family("store_wal_appended_bytes_total") / events,
        );
        put(
            "store.snapshot_encode_ms",
            d.mean("store_snapshot_encode_seconds", MS),
        );
        put(
            "store.snapshot_write_ms",
            d.mean("store_snapshot_write_seconds", MS),
        );
        put("store.snapshot_bytes", d.mean("store_snapshot_bytes", 1.0));
        put("store.snapshots_taken", d.family("store_snapshots_total"));
        put(
            "store.retention_run_ms",
            d.mean("store_retention_run_seconds", MS),
        );
        put(
            "store.retention_runs",
            d.family("store_retention_run_seconds_count"),
        );
        put(
            "store.archive_run_ms",
            d.mean("store_archive_run_seconds", MS),
        );
    }
    if let Some(status) = &m.status {
        let rows = &status.engine.per_shard;
        let mean =
            rows.iter().map(|r| r.movement_events as f64).sum::<f64>() / rows.len().max(1) as f64;
        let max = rows
            .iter()
            .map(|r| r.movement_events as f64)
            .fold(0.0, f64::max);
        put(
            "engine.shard_skew",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
    }
    if let Some((status_ms, scrape_ms)) = m.control_ms {
        put("serve.status_ms", status_ms);
        put("serve.metrics_scrape_ms", scrape_ms);
    }
    put("store.dir_bytes_end", m.dir_bytes as f64);

    // The harness's own view: the tail in quiet-host time like the
    // gated percentiles, the throughput as the clock saw it, and what
    // the host did to the run.
    put("client.rtt_p99_ms", third_best(&slices.p99_ms, false));
    let raw: Vec<f64> = m.slices.iter().map(|s| s.throughput).collect();
    let raw_throughput = third_best(&raw, true);
    put("client.raw_throughput_per_s", raw_throughput);
    put("client.eligible_slices", slices.throughput.len() as f64);
    put(
        "client.slice_spread",
        if slices.throughput.len() >= 2 {
            quartile_spread(&slices.throughput)
        } else {
            0.0
        },
    );
    put("host.slowdown", median(&slices.slowdown));
    let spent = |cpu: &[std::time::Duration]| match (cpu.first(), cpu.last()) {
        (Some(a), Some(b)) => (*b - *a).as_secs_f64(),
        _ => 0.0,
    };
    let (own, child) = (spent(&m.own_cpu), spent(&m.child_cpu));
    put(
        "client.cpu_share",
        if own + child > 0.0 {
            own / (own + child)
        } else {
            0.0
        },
    );
    put("client.unarchived_retries", m.unarchived_retries as f64);
    put("harness.gen_s", m.gen_s);
    // Spans are recorded in the second half of the phase only.
    let half = m.slices.len() / 2;
    let mean = |s: &[crate::stats::SliceStats]| {
        s.iter().map(|s| s.throughput).sum::<f64>() / s.len().max(1) as f64
    };
    let (plain, traced) = (mean(&m.slices[..half]), mean(&m.slices[half..]));
    put(
        "trace.overhead_share",
        if plain > 0.0 {
            1.0 - traced / plain
        } else {
            0.0
        },
    );
    put(
        "trace.spans",
        m.tracer.as_ref().map_or(0, |t| t.spans().len()) as f64,
    );

    // The timed pass runs with flushes off; what one would cost is the
    // replay's flushed group append minus its unflushed twin.
    let flush = values
        .get("store.wal_append_us_per_group_fsync")
        .copied()
        .unwrap_or(0.0)
        - values
            .get("store.wal_append_us_per_group_nofsync")
            .copied()
            .unwrap_or(0.0);
    values.insert("store.fsync_mean_us".to_string(), flush.max(0.0));

    // Reconciliation: how much of the measured wall cost per operation
    // do the replayed stages on its path add up to? Stopwatch against
    // stopwatch: the replay's costs carry no host correction, so the
    // throughput they are held against must not either.
    let get = |values: &BTreeMap<String, f64>, name: &str| values.get(name).copied().unwrap_or(0.0);
    let inproc_ns = get(&values, "engine.ingest_ns_per_event_b1024");
    let wall_ns = if raw_throughput > 0.0 {
        1e9 / raw_throughput
    } else {
        0.0
    };
    let gap = if inproc_ns > 0.0 {
        wall_ns / inproc_ns
    } else {
        0.0
    };
    let path: &[&str] = match w.kind {
        Kind::StreamIngest => &[
            "serve.ingest_frame_decode_ns_per_event",
            "store.commit_group_ns_per_event",
        ],
        Kind::DoorSwipe => &[
            "serve.swipe_frame_decode_ns",
            "core.authorize_ns",
            "engine.ingest_ns_per_event_b1",
            "serve.response_codec_ns",
        ],
        Kind::HistoryQuery => &["serve.query_codec_us"],
        Kind::DecideInproc => &["engine.ingest_ns_per_event_b1024"],
    };
    let attributed_ns: f64 = path
        .iter()
        .map(|name| {
            let scale = if name.ends_with("_us") { 1e3 } else { 1.0 };
            get(&values, name) * scale
        })
        .sum();
    let share = if wall_ns > 0.0 {
        attributed_ns / wall_ns
    } else {
        0.0
    };
    values.insert("reconcile.wire_gap_ratio".to_string(), gap);
    values.insert("reconcile.attributed_share".to_string(), share);
    values.insert("reconcile.unattributed_share".to_string(), 1.0 - share);
    if ops == 0.0 {
        return Err("no operation completed in the measured phase".into());
    }
    if !(share > 0.0 && share < 1.5) {
        return Err(format!(
            "replayed stage costs ({attributed_ns:.0} ns) do not reconcile with the measured \
             {wall_ns:.0} ns per operation"
        ));
    }

    Ok(PER_LAYER
        .iter()
        .map(|l| Metric::new(l.name, get(&values, l.name), l.unit))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for l in PER_LAYER {
            assert!(seen.insert(l.name), "{} listed twice", l.name);
            assert!(l.name.len() <= 64);
            assert!(l
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(l.unit.len() <= 16);
        }
    }

    #[test]
    fn deltas_subtract_and_average() {
        let expo = |sum: f64, count: f64| {
            ltam::obs::parse_text(&format!(
                "# TYPE x_seconds histogram\nx_seconds_sum{{kind=\"a\"}} {sum}\nx_seconds_count{{kind=\"a\"}} {count}\n\
                 # TYPE y_total counter\ny_total 5\n"
            ))
            .unwrap()
        };
        let d = Delta {
            before: expo(1.0, 10.0),
            after: expo(4.0, 40.0),
        };
        assert!((d.mean("x_seconds", US) - 100_000.0).abs() < 1e-6);
        assert!((d.mean_of("x_seconds", &[("kind", "a")], 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(d.mean_of("x_seconds", &[("kind", "b")], 1.0), 0.0);
        assert_eq!(d.family("y_total"), 0.0);
        assert_eq!(d.grown("absent", &[]), 0.0);
    }
}
