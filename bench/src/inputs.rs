//! The files the harness hands a child process: the generated policy
//! and event streams. The child receives nothing else from the seed.
//!
//! Both are flat varint records (the store's own `put_varint` /
//! event codec), so loading them costs the child almost nothing and
//! set-up time is the program's policy load, not a parser's.

use ltam::core::model::{Authorization, EntryLimit};
use ltam::core::subject::SubjectId;
use ltam::engine::batch::Event;
use ltam::graph::LocationId;
use ltam::store::codec::{decode_event, encode_event, get_varint, put_varint};
use ltam::time::Interval;
use std::io;
use std::path::Path;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Write `authorizations` (finite windows, unbounded entry limit — the
/// only shape the generator produces) to `path`.
pub fn write_policy(path: &Path, authorizations: &[Authorization]) -> io::Result<()> {
    let mut out = Vec::with_capacity(authorizations.len() * 16 + 8);
    put_varint(&mut out, authorizations.len() as u64);
    for a in authorizations {
        assert_eq!(a.limit(), EntryLimit::Unbounded, "generator invariant");
        for window in [a.entry_window(), a.exit_window()] {
            put_varint(&mut out, window.start().get());
            let end = window.end().finite().expect("generator windows are finite");
            put_varint(&mut out, end.get());
        }
        put_varint(&mut out, a.subject().0 as u64);
        put_varint(&mut out, a.location().0 as u64);
    }
    std::fs::write(path, out)
}

/// Read a policy file written by [`write_policy`].
pub fn read_policy(path: &Path) -> io::Result<Vec<Authorization>> {
    let buf = std::fs::read(path)?;
    let mut at = 0usize;
    let mut next = || get_varint(&buf, &mut at).map_err(|_| bad("truncated policy file"));
    let n = next()? as usize;
    // Six varints of at least one byte each per authorization.
    if n > buf.len() / 6 {
        return Err(bad("policy count exceeds the file"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (e0, e1, x0, x1) = (next()?, next()?, next()?, next()?);
        let subject = u32::try_from(next()?).map_err(|_| bad("subject id out of range"))?;
        let location = u32::try_from(next()?).map_err(|_| bad("location id out of range"))?;
        if e0 > e1 || x0 > x1 {
            return Err(bad("inverted window"));
        }
        out.push(
            Authorization::new(
                Interval::lit(e0, e1),
                Interval::lit(x0, x1),
                SubjectId(subject),
                LocationId(location),
                EntryLimit::Unbounded,
            )
            .map_err(|_| bad("windows violate Definition 4"))?,
        );
    }
    Ok(out)
}

/// Write `events` to `path`: a count, the lap span, then the events in
/// the WAL codec.
pub fn write_events(path: &Path, events: &[Event], span: u64) -> io::Result<()> {
    let mut out = Vec::with_capacity(events.len() * 8 + 16);
    put_varint(&mut out, events.len() as u64);
    put_varint(&mut out, span);
    for e in events {
        encode_event(e, &mut out);
    }
    std::fs::write(path, out)
}

/// Read an event file written by [`write_events`]: `(events, span)`.
pub fn read_events(path: &Path) -> io::Result<(Vec<Event>, u64)> {
    let buf = std::fs::read(path)?;
    let mut at = 0usize;
    let n = get_varint(&buf, &mut at).map_err(|_| bad("truncated event file"))? as usize;
    let span = get_varint(&buf, &mut at).map_err(|_| bad("truncated event file"))?;
    // An encoded event is at least four bytes (tag + three varints).
    if n > buf.len() / 4 {
        return Err(bad("event count exceeds the file"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (e, used) = decode_event(&buf[at..]).map_err(|_| bad("corrupt event"))?;
        at += used;
        out.push(e);
    }
    Ok((out, span))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn policy_and_events_round_trip() {
        let lap = gen::base_lap(5, 20, 400);
        let dir = ltam::store::ScratchDir::new("perf-inputs");
        let policy = dir.path().join("policy.bin");
        let events = dir.path().join("lap.bin");
        write_policy(&policy, &lap.authorizations).unwrap();
        write_events(&events, &lap.events, lap.span).unwrap();
        assert_eq!(read_policy(&policy).unwrap(), lap.authorizations);
        assert_eq!(read_events(&events).unwrap(), (lap.events, lap.span));
    }

    #[test]
    fn truncated_files_are_errors_not_panics() {
        let lap = gen::base_lap(5, 20, 400);
        let dir = ltam::store::ScratchDir::new("perf-inputs-torn");
        let path = dir.path().join("lap.bin");
        write_events(&path, &lap.events, lap.span).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(read_events(&path).is_err());
        std::fs::write(&path, [0xff, 0xff, 0xff, 0xff, 0x0f]).unwrap();
        assert!(read_events(&path).is_err());
        assert!(read_policy(&path).is_err());
    }
}
