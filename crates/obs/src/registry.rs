//! The process-wide metric [`Registry`] and the static registration
//! macros.
//!
//! Series are interned: the first `counter!`/`gauge!`/`histogram!` hit
//! at a call site registers the series under the global registry and
//! caches a `&'static` handle in a function-local `OnceLock`, so every
//! later hit is a single atomic load plus the metric's own atomics —
//! the registry lock is only ever taken once per call site (and by
//! scrapes). Dynamic-label call sites can fall back to
//! [`Registry::counter`] and friends, which take the lock per call.
//!
//! One registry per process is a deliberate trade: instrumentation
//! points deep in the store and engine don't need a handle threaded
//! through every constructor, and a serving process fronts exactly one
//! store. Tests that assert exact counter values therefore either run
//! one store per process or assert on deltas.

use crate::metric::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How a series' raw `u64` values map to exposition values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Expose the raw number unchanged.
    None,
    /// The series records **microseconds**; expose seconds (name should
    /// end `_seconds`). Chosen over recording float seconds because the
    /// metric primitives are integer atomics.
    SecondsFromMicros,
}

impl Unit {
    /// The exposition-side value of a raw sample.
    pub fn scale(self, raw: u64) -> f64 {
        match self {
            Unit::None => raw as f64,
            Unit::SecondsFromMicros => raw as f64 / 1e6,
        }
    }
}

/// What kind of metric a series is (drives the `# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Bucketed histogram.
    Histogram,
}

/// One registered series: a metric plus its identity.
pub struct Series {
    /// The family name (no labels), e.g. `store_fsync_seconds`.
    pub name: &'static str,
    /// Label pairs, sorted by key at registration.
    pub labels: Vec<(&'static str, &'static str)>,
    /// The family's help text (first registration wins).
    pub help: &'static str,
    /// Value scaling for exposition.
    pub unit: Unit,
    /// The live metric.
    pub metric: Metric,
}

/// The metric half of a [`Series`].
pub enum Metric {
    /// A [`Counter`].
    Counter(&'static Counter),
    /// A [`Gauge`].
    Gauge(&'static Gauge),
    /// A [`Histogram`].
    Histogram(&'static Histogram),
}

impl Metric {
    /// The series' kind.
    pub fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// Key identifying one series inside the registry map.
type SeriesKey = (&'static str, Vec<(&'static str, &'static str)>);

/// The process-wide collection of registered series.
///
/// Lives behind [`registry()`]; scraping walks the map in name order so
/// exposition output is deterministic.
#[derive(Default)]
pub struct Registry {
    series: Mutex<BTreeMap<SeriesKey, &'static Series>>,
}

/// A recording handle is `&'static` — metrics are leaked on first
/// registration and live for the process, which is what makes the
/// lock-free fast path possible.
impl Registry {
    fn intern(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
        help: &'static str,
        unit: Unit,
        make: impl FnOnce() -> Metric,
    ) -> &'static Series {
        let mut labels: Vec<_> = labels.to_vec();
        labels.sort_unstable();
        let mut map = crate::locked(self.series.lock(), "metrics registry");
        if let Some(existing) = map.get(&(name, labels.clone())) {
            return existing;
        }
        let series: &'static Series = Box::leak(Box::new(Series {
            name,
            labels: labels.clone(),
            help,
            unit,
            metric: make(),
        }));
        map.insert((name, labels), series);
        series
    }

    /// Register (or fetch) a labeled counter.
    pub fn counter(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
        help: &'static str,
    ) -> &'static Counter {
        let series = self.intern(name, labels, help, Unit::None, || {
            Metric::Counter(Box::leak(Box::new(Counter::new())))
        });
        match series.metric {
            Metric::Counter(c) => c,
            _ => panic!("series {name:?} already registered with a different kind"),
        }
    }

    /// Register (or fetch) a labeled gauge.
    pub fn gauge(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
        help: &'static str,
    ) -> &'static Gauge {
        let series = self.intern(name, labels, help, Unit::None, || {
            Metric::Gauge(Box::leak(Box::new(Gauge::new())))
        });
        match series.metric {
            Metric::Gauge(g) => g,
            _ => panic!("series {name:?} already registered with a different kind"),
        }
    }

    /// Register (or fetch) a labeled histogram with a value unit.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
        help: &'static str,
        unit: Unit,
    ) -> &'static Histogram {
        let series = self.intern(name, labels, help, unit, || {
            Metric::Histogram(Box::leak(Box::new(Histogram::new())))
        });
        match series.metric {
            Metric::Histogram(h) => h,
            _ => panic!("series {name:?} already registered with a different kind"),
        }
    }

    /// Look up an already-registered series by exact name + labels
    /// (label order irrelevant). `None` if nothing recorded there yet —
    /// readers (drill reports, status endpoints) use this so a scrape
    /// never *creates* series.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&'static Series> {
        let mut wanted: Vec<_> = labels.to_vec();
        wanted.sort_unstable();
        let map = crate::locked(self.series.lock(), "metrics registry");
        map.iter()
            .find(|((n, l), _)| {
                *n == name && l.len() == wanted.len() && l.iter().zip(&wanted).all(|(a, b)| a == b)
            })
            .map(|(_, s)| *s)
    }

    /// Run `f` over every registered series, in (name, labels) order.
    pub fn for_each(&self, mut f: impl FnMut(&Series)) {
        let map = crate::locked(self.series.lock(), "metrics registry");
        for series in map.values() {
            f(series);
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        crate::locked(self.series.lock(), "metrics registry").len()
    }

    /// True when nothing is registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide registry every macro records into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Global off switch: when disabled, [`crate::timed!`] spans skip the
/// clock reads and recordings entirely. Counters and gauges keep
/// recording (a relaxed `fetch_add` is too cheap to gate); the switch
/// exists so the serve drill can measure the timing overhead of the
/// instrumentation against a no-op run.
static DISABLED: AtomicBool = AtomicBool::new(false);

/// Turn span timing off (`true`) or back on.
pub fn set_disabled(disabled: bool) {
    DISABLED.store(disabled, Ordering::Relaxed);
}

/// Is span timing currently disabled?
#[inline]
pub fn disabled() -> bool {
    DISABLED.load(Ordering::Relaxed)
}

/// A drop-guard that records its lifetime into a histogram, in
/// microseconds — the span half of the `timed!` macro. Holds nothing
/// when timing is disabled.
pub struct Span {
    target: Option<(&'static Histogram, Instant)>,
}

impl Span {
    /// Start a span over `h` (or an inert one if timing is disabled).
    pub fn start(h: &'static Histogram) -> Span {
        Span {
            target: if disabled() {
                None
            } else {
                Some((h, Instant::now()))
            },
        }
    }

    /// Drop without recording (for abandoned operations).
    pub fn cancel(mut self) {
        self.target = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((h, started)) = self.target.take() {
            h.observe(started.elapsed().as_micros() as u64);
        }
    }
}

/// Register-once-then-cache counter handle.
///
/// `counter!("name", "help")` or
/// `counter!("name", "help", key => "value", ...)` — name, help, and
/// label strings must be literals (they are interned `&'static str`s).
#[macro_export]
macro_rules! counter {
    ($name:literal, $help:literal $(, $k:literal => $v:literal)* $(,)?) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| {
            $crate::registry().counter($name, &[$(($k, $v)),*], $help)
        })
    }};
}

/// Register-once-then-cache gauge handle (same shape as [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:literal, $help:literal $(, $k:literal => $v:literal)* $(,)?) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| {
            $crate::registry().gauge($name, &[$(($k, $v)),*], $help)
        })
    }};
}

/// Register-once-then-cache histogram handle. Takes a [`Unit`] after
/// the help text: `histogram!("x_seconds", "help", SecondsFromMicros)`.
#[macro_export]
macro_rules! histogram {
    ($name:literal, $help:literal, $unit:ident $(, $k:literal => $v:literal)* $(,)?) => {{
        static CELL: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *CELL.get_or_init(|| {
            $crate::registry().histogram(
                $name,
                &[$(($k, $v)),*],
                $help,
                $crate::Unit::$unit,
            )
        })
    }};
}

/// Time a scope into a histogram series (microseconds recorded,
/// seconds exposed): bind the result to keep the span open.
///
/// ```
/// let _span = ltam_obs::timed!("doc_fsync_seconds", "Example span");
/// // ... the timed work ...
/// drop(_span); // or fall out of scope
/// ```
#[macro_export]
macro_rules! timed {
    ($name:literal, $help:literal $(, $k:literal => $v:literal)* $(,)?) => {
        $crate::Span::start($crate::histogram!(
            $name, $help, SecondsFromMicros $(, $k => $v)*
        ))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_returns_the_same_handle() {
        let a = registry().counter("obs_test_intern_total", &[], "test");
        let b = registry().counter("obs_test_intern_total", &[], "test");
        assert!(std::ptr::eq(a, b));
        a.inc();
        assert_eq!(b.get(), a.get());
    }

    #[test]
    fn labels_distinguish_series() {
        let a = registry().counter("obs_test_labels_total", &[("k", "a")], "test");
        let b = registry().counter("obs_test_labels_total", &[("k", "b")], "test");
        assert!(!std::ptr::eq(a, b));
        // Label order does not matter.
        let x = registry().counter(
            "obs_test_labels2_total",
            &[("k1", "v"), ("k2", "w")],
            "test",
        );
        let y = registry().counter(
            "obs_test_labels2_total",
            &[("k2", "w"), ("k1", "v")],
            "test",
        );
        assert!(std::ptr::eq(x, y));
    }

    #[test]
    fn macros_cache_per_call_site() {
        let c = crate::counter!("obs_test_macro_total", "test");
        c.inc_by(3);
        assert_eq!(crate::counter!("obs_test_macro_total", "test").get(), 3);
        let g = crate::gauge!("obs_test_macro_gauge", "test", "shard" => "0");
        g.set(-4);
        assert_eq!(g.get(), -4);
    }

    #[test]
    fn spans_record_and_cancel() {
        let h = registry().histogram(
            "obs_test_span_seconds",
            &[],
            "test",
            Unit::SecondsFromMicros,
        );
        drop(Span::start(h));
        assert_eq!(h.count(), 1);
        Span::start(h).cancel();
        assert_eq!(h.count(), 1);
        set_disabled(true);
        drop(Span::start(h));
        assert_eq!(h.count(), 1);
        set_disabled(false);
        drop(Span::start(h));
        assert_eq!(h.count(), 2);
    }
}
