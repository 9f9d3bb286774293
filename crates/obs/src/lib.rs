//! `ltam-obs` — the workspace's observability core.
//!
//! Three lock-free metric primitives ([`Counter`], [`Gauge`],
//! [`Histogram`]), a process-wide [`Registry`] the
//! [`counter!`]/[`gauge!`]/[`histogram!`]/[`timed!`] macros record
//! into, and a Prometheus-style text exposition [encoder](encode_text)
//! plus [parser](parse_text)/[validator](validate) so scrapes can be
//! checked, not just emitted.
//!
//! Built on nothing but `std` atomics: the instrumented code paths —
//! the group-commit thread, the WAL fsync, the poll loop — are the
//! hottest in the workspace, and a metrics layer that needed a lock
//! (or a crate the offline container lacks) would not be allowed
//! there. The design choices, series inventory, and alerting
//! thresholds are documented in `docs/BOOK.md` §12 and
//! `docs/OPERATIONS.md` §7.
//!
//! # Recording
//!
//! ```
//! ltam_obs::counter!("doc_requests_total", "Requests served", "kind" => "ingest").inc();
//! ltam_obs::gauge!("doc_lag_events", "Replication lag").set(3);
//! ltam_obs::histogram!("doc_group_events", "Events per commit group", None).observe(128);
//! {
//!     let _span = ltam_obs::timed!("doc_fsync_seconds", "WAL fsync latency");
//!     // ... the timed work; recorded (in µs, exposed in s) on drop ...
//! }
//! ```
//!
//! # Scraping
//!
//! ```
//! let text = ltam_obs::encode_text(ltam_obs::registry());
//! let expo = ltam_obs::validate(&text).expect("well-formed, duplicate-free");
//! assert!(expo.value("doc_requests_total", &[("kind", "ingest")]).is_none()
//!     || expo.family_sum("doc_requests_total") >= 1.0);
//! ```

mod expo;
mod metric;
mod registry;

pub use expo::{
    counter_family_sum, counter_value, encode_text, gauge_value, histogram_snapshot, parse_text,
    validate, ExpoError, Exposition, Sample,
};
pub use metric::{
    bucket_of, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS,
};
pub use registry::{
    disabled, registry, set_disabled, Metric, MetricKind, Registry, Series, Span, Unit,
};

/// The workspace's one way to take a `std` lock: pass what `lock()`,
/// `read()`, `write()` or `get_mut()` returned and the lock's name.
/// Fail-stop on poison: a holder panicked mid-update (a shard half
/// through an event, an epoch mid-swap), so the data is not trusted —
/// panic naming the lock, never hand the data out.
pub fn locked<G>(acquired: std::sync::LockResult<G>, lock: &str) -> G {
    match acquired {
        Ok(guard) => guard,
        Err(_) => poisoned(lock),
    }
}

/// Out of line and cold, so no acquire site inlines the panic's
/// formatting into the hot path around it.
#[cold]
#[inline(never)]
fn poisoned(lock: &str) -> ! {
    panic!("{lock} lock poisoned: a holder panicked mid-update")
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    /// A worker that panics while holding a lock poisons it; the next
    /// acquire panics, naming the lock, instead of reading the
    /// half-updated data.
    #[test]
    #[should_panic(expected = "shard state lock poisoned")]
    fn a_poisoned_lock_fails_stop() {
        let state = Arc::new(Mutex::new(0u64));
        let worker = Arc::clone(&state);
        let crashed = std::thread::spawn(move || {
            let mut held = super::locked(worker.lock(), "shard state");
            *held += 1;
            panic!("worker dies mid-update");
        })
        .join();
        assert!(crashed.is_err());
        let _data = super::locked(state.lock(), "shard state");
    }
}
