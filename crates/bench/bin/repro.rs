//! Paper-reproduction harness: regenerates every figure and table of
//! *LTAM: A Location-Temporal Authorization Model* (Yu & Lim, SDM 2004),
//! and drills the subsystems built around the model.
//!
//! ```text
//! repro [fig1|fig2|fig3|authz|rules|section5|table2|scaling|baseline|planner|durability|retention|serve|replicate|auth|situations|metrics|all]
//! ```
//!
//! With no argument (or `all`) every paper experiment ([`figures`]) runs
//! in paper order, then the six correctness drills — `durability`,
//! `retention`, `serve`, `replicate`, `auth`, `situations` (extensions,
//! not paper artifacts): crash recovery of the WAL-backed engine, bounded
//! live state under history retention, the network serving tier under
//! concurrent clients, read-replica staleness with a mid-stream follower
//! kill + re-bootstrap, the policy-governed wire, and situation-aware
//! enforcement. Each exits non-zero on a broken property and takes
//! `--help`; all of them read their command line through the one
//! scaffold in [`ltam_bench::args`]. `EXPERIMENTS.md` records the output
//! against the paper's claims. `metrics` is not an experiment at all: it
//! scrapes a running server's metric registry over the wire
//! (`docs/OPERATIONS.md` §7). Performance numbers come from the perf
//! ledger (`bench/`), not from here.

mod auth;
mod durability;
mod figures;
mod metrics;
mod replicate;
mod retention;
mod serve;
mod situations;

use ltam_bench::violation_multiset;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::Event;
use ltam_engine::engine::AccessControlEngine;
use ltam_engine::violation::Violation;
use ltam_serve::{ClientError, ErrorCode, LtamClient};
use ltam_sim::TraceWorld;
use ltam_time::Time;

/// The paper's figures and tables (plus the planner cross-check), in
/// paper order.
const FIGURES: &[(&str, fn())] = &[
    ("fig1", figures::fig1),
    ("fig2", figures::fig2),
    ("fig3", figures::fig3),
    ("authz", figures::authz),
    ("rules", figures::rules),
    ("section5", figures::section5),
    ("table2", figures::table2),
    ("scaling", figures::scaling),
    ("baseline", figures::baseline),
    ("planner", figures::planner),
];

/// A drill takes the rest of the command line.
type Drill = fn(&[String]);

/// The correctness drills; `all` runs each with its defaults.
const DRILLS: &[(&str, Drill)] = &[
    ("durability", durability::run),
    ("retention", retention::run),
    ("serve", serve::run),
    ("replicate", replicate::run),
    ("auth", auth::run),
    ("situations", situations::run),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("all");
    let rest = args.get(1..).unwrap_or(&[]);
    if let Some((_, figure)) = FIGURES.iter().find(|(n, _)| *n == name) {
        figure();
    } else if let Some((_, drill)) = DRILLS.iter().find(|(n, _)| *n == name) {
        drill(rest);
    } else if name == "metrics" {
        metrics::run(rest);
    } else if name == "all" {
        for (_, figure) in FIGURES {
            figure();
            println!();
        }
        for (i, (_, drill)) in DRILLS.iter().enumerate() {
            if i > 0 {
                println!();
            }
            drill(&[]);
        }
    } else {
        eprintln!("unknown experiment {name:?}");
        let figures = FIGURES.iter().map(|(n, _)| *n);
        let drills = DRILLS.iter().map(|(n, _)| *n).chain(["metrics"]);
        eprintln!(
            "usage: repro [{}|all]",
            figures.chain(drills.clone()).collect::<Vec<_>>().join("|")
        );
        eprintln!(
            "       repro <{}> --help   # that subcommand's options",
            drills.collect::<Vec<_>>().join("|")
        );
        std::process::exit(2);
    }
}

fn banner(title: &str) {
    println!("==== {title} ====");
}

/// Print a drill's `--json` report: one object on one line.
fn print_json(report: &impl serde::Serialize) {
    let mut out = String::new();
    write_json(&report.to_value(), &mut out);
    println!("{out}");
}

/// Compact JSON text of `value`: object keys in field order, strings
/// escaped, non-finite floats as `null` (JSON has no NaN or infinity).
fn write_json(value: &serde::Value, out: &mut String) {
    use serde::Value;
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(n) if n.is_finite() => out.push_str(&n.to_string()),
        Value::F64(_) => out.push_str("null"),
        Value::Str(s) => write_json_str(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_str(key, out);
                out.push(':');
                write_json(item, out);
            }
            out.push('}');
        }
    }
}

fn write_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn yes_no(yes: bool) -> &'static str {
    if yes {
        "YES"
    } else {
        "NO"
    }
}

fn match_mismatch(matches: bool) -> &'static str {
    if matches {
        "MATCH"
    } else {
        "MISMATCH"
    }
}

/// A drill's verdict: every broken property is reported on stderr, and
/// one is enough to exit non-zero once all of them have been checked.
struct Verdict {
    drill: &'static str,
    failed: bool,
}

impl Verdict {
    fn of(drill: &'static str) -> Verdict {
        Verdict {
            drill,
            failed: false,
        }
    }

    /// The drill fails, with `why`, unless `holds`.
    fn require(&mut self, holds: bool, why: impl std::fmt::Display) {
        if !holds {
            eprintln!("{} drill FAILED: {why}", self.drill);
            self.failed = true;
        }
    }

    fn exit_if_failed(self) {
        if self.failed {
            std::process::exit(1);
        }
    }
}

/// Did the server refuse the call with exactly `code`?
fn refused_with<T>(reply: Result<T, ClientError>, code: ErrorCode) -> bool {
    matches!(reply, Err(ClientError::Server { code: c, .. }) if c == code)
}

/// The one deterministic overstay scan of a tickless (served) trace,
/// ingested once every stream has drained: a network deployment has no
/// global event order, so ticks interleaved in the trace would fire at
/// interleaving-dependent times.
fn final_tick(trace: &TraceWorld) -> Event {
    Event::Tick {
        now: Time(trace.max_time().get() + 1),
    }
}

/// The in-process reference every drill compares against: `trace`, then
/// `then`, through the single-threaded engine; returned with its
/// violation multiset.
fn reference_run(trace: &TraceWorld, then: &[Event]) -> (AccessControlEngine, Vec<Violation>) {
    let mut reference = trace.build_engine();
    for e in trace.events.iter().chain(then) {
        ltam_engine::batch::apply_to_engine(&mut reference, e);
    }
    let violations = violation_multiset(reference.violations().to_vec());
    (reference, violations)
}

/// Do the whereabouts `client` serves for the first 16 subjects, at a
/// third, a half and the end of the trace, equal the reference's?
fn served_whereabouts_match(
    client: &mut LtamClient,
    reference: &AccessControlEngine,
    subjects: usize,
    span: Time,
) -> bool {
    let mut all_match = true;
    for i in 0..subjects.min(16) {
        let s = SubjectId(i as u32);
        for t in [Time(span.get() / 3), Time(span.get() / 2), span] {
            let served = client.whereabouts(s, t).expect("served whereabouts");
            all_match &= served == reference.movements().whereabouts(s, t);
        }
    }
    all_match
}

#[cfg(test)]
mod tests {
    use serde::{Serialize, Value};

    #[derive(Serialize)]
    struct Inner {
        note: String,
        none: Vec<u64>,
        fields: Value,
    }

    #[derive(Serialize)]
    struct Report {
        zeta: u64,
        alpha: i64,
        inner: Inner,
        ratio: f64,
        nan: f64,
        inf: f64,
        ok: bool,
    }

    #[test]
    fn json_report_pinned() {
        let report = Report {
            zeta: 7,
            alpha: -3,
            inner: Inner {
                note: "a \"quoted\" \\ path\n\u{1}".into(),
                none: Vec::new(),
                fields: Value::Object(Vec::new()),
            },
            ratio: 0.5,
            nan: f64::NAN,
            inf: f64::INFINITY,
            ok: true,
        };
        let mut out = String::new();
        super::write_json(&report.to_value(), &mut out);
        assert_eq!(
            out,
            r#"{"zeta":7,"alpha":-3,"inner":{"note":"a \"quoted\" \\ path\n\u0001","none":[],"fields":{}},"ratio":0.5,"nan":null,"inf":null,"ok":true}"#
        );
    }
}
