//! Compact binary codec for [`Event`] — the WAL record payload.
//!
//! Layout: a one-byte variant tag followed by LEB128 varints for the
//! timestamp, subject and location. A typical campus event (small ids,
//! small times) encodes in 4–8 bytes, roughly 10× smaller than its JSON
//! form, which is what makes fsync-per-batch WAL appends cheap.
//!
//! Decoding is **total**: any byte slice either decodes to an event or
//! returns a [`DecodeError`] — never a panic — so torn or bit-flipped WAL
//! tails degrade into clean truncation, not a crashed recovery. (Framing
//! corruption is normally caught by the per-record CRC first; the decoder
//! is the second line of defense.)

use crate::wal::WalBatch;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyOp};
use ltam_graph::LocationId;
use ltam_time::Time;
use std::fmt;

/// Variant tags of the binary event encoding (format version 1).
const TAG_REQUEST: u8 = 0;
const TAG_ENTER: u8 = 1;
const TAG_EXIT: u8 = 2;
const TAG_TICK: u8 = 3;

/// Sentinel first byte of a **quarantine** record payload. Deliberately
/// far outside the event tag range: a pre-quarantine decoder rejects it
/// as `BadTag` (truncating at the record, never misreading it as
/// events), and an event can never alias it.
pub const QUARANTINE_SENTINEL: u8 = 0x51;

/// Sentinel first byte of a **policy** record payload (a durable
/// [`PolicyOp`]: a token, trust or authorization edit, a mode
/// declaration, a responder/pin registration, or a workflow-constraint
/// edit). Same rationale as [`QUARANTINE_SENTINEL`]: outside the event
/// tag range, so a decoder that does not know it truncates at the
/// record instead of misreading it. The body is the op in the
/// [`binval`](crate::binval) encoding, like snapshots.
pub const POLICY_SENTINEL: u8 = 0x52;

/// Why a buffer failed to decode as an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the event did.
    UnexpectedEof,
    /// The leading variant tag is not a known event kind.
    BadTag(u8),
    /// A varint ran past 10 bytes or overflowed 64 bits.
    VarintOverflow,
    /// A subject or location id exceeded its 32-bit domain.
    IdOutOfRange(u64),
    /// The event decoded cleanly but bytes remained (record framing
    /// promises exactly one event per payload).
    TrailingBytes {
        /// Bytes consumed by the event.
        consumed: usize,
        /// Total bytes in the payload.
        len: usize,
    },
    /// A policy record's body did not decode as a [`PolicyOp`].
    BadPolicyOp,
    /// A length-prefixed string (a `binval` string or object key) was
    /// not UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::UnexpectedEof => write!(f, "buffer ended before the event did"),
            DecodeError::BadTag(t) => write!(f, "unknown event tag {t}"),
            DecodeError::VarintOverflow => write!(f, "varint overflowed 64 bits"),
            DecodeError::IdOutOfRange(v) => write!(f, "id {v} exceeds the 32-bit id domain"),
            DecodeError::TrailingBytes { consumed, len } => {
                write!(f, "{} trailing bytes after the event", len - consumed)
            }
            DecodeError::BadPolicyOp => {
                write!(f, "policy record body is not a valid policy op")
            }
            DecodeError::BadUtf8 => write!(f, "string is not valid UTF-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append `v` as an LEB128 varint (the integer encoding every binary
/// format in the workspace shares: WAL payloads, archive event blocks,
/// and the `ltam-serve` wire protocol).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an LEB128 varint from `buf[*at..]`, advancing `*at`. Total like
/// [`decode_event`]: arbitrary bytes yield a value or a [`DecodeError`],
/// never a panic.
pub fn get_varint(buf: &[u8], at: &mut usize) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    for i in 0..10 {
        let &byte = buf.get(*at).ok_or(DecodeError::UnexpectedEof)?;
        *at += 1;
        let payload = (byte & 0x7F) as u64;
        // The 10th byte may only carry the final bit of a u64.
        if i == 9 && payload > 1 {
            return Err(DecodeError::VarintOverflow);
        }
        v |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(DecodeError::VarintOverflow)
}

fn get_id(buf: &[u8], at: &mut usize) -> Result<u32, DecodeError> {
    let v = get_varint(buf, at)?;
    u32::try_from(v).map_err(|_| DecodeError::IdOutOfRange(v))
}

/// Append the binary encoding of `event` to `out`.
pub fn encode_event(event: &Event, out: &mut Vec<u8>) {
    match *event {
        Event::Request {
            time,
            subject,
            location,
        } => {
            out.push(TAG_REQUEST);
            put_varint(out, time.get());
            put_varint(out, subject.0 as u64);
            put_varint(out, location.0 as u64);
        }
        Event::Enter {
            time,
            subject,
            location,
        } => {
            out.push(TAG_ENTER);
            put_varint(out, time.get());
            put_varint(out, subject.0 as u64);
            put_varint(out, location.0 as u64);
        }
        Event::Exit {
            time,
            subject,
            location,
        } => {
            out.push(TAG_EXIT);
            put_varint(out, time.get());
            put_varint(out, subject.0 as u64);
            put_varint(out, location.0 as u64);
        }
        Event::Tick { now } => {
            out.push(TAG_TICK);
            put_varint(out, now.get());
        }
    }
}

/// The binary encoding of `event` as a fresh buffer.
pub fn event_bytes(event: &Event) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_event(event, &mut out);
    out
}

/// Decode one event from the front of `buf`; returns the event and the
/// bytes consumed. Never panics: arbitrary input yields a [`DecodeError`].
pub fn decode_event(buf: &[u8]) -> Result<(Event, usize), DecodeError> {
    let mut at = 0usize;
    let &tag = buf.get(at).ok_or(DecodeError::UnexpectedEof)?;
    at += 1;
    let event = match tag {
        TAG_TICK => Event::Tick {
            now: Time(get_varint(buf, &mut at)?),
        },
        TAG_REQUEST | TAG_ENTER | TAG_EXIT => {
            let time = Time(get_varint(buf, &mut at)?);
            let subject = SubjectId(get_id(buf, &mut at)?);
            let location = LocationId(get_id(buf, &mut at)?);
            match tag {
                TAG_REQUEST => Event::Request {
                    time,
                    subject,
                    location,
                },
                TAG_ENTER => Event::Enter {
                    time,
                    subject,
                    location,
                },
                _ => Event::Exit {
                    time,
                    subject,
                    location,
                },
            }
        }
        other => return Err(DecodeError::BadTag(other)),
    };
    Ok((event, at))
}

/// Decode a payload that must contain exactly one event (the WAL record
/// contract).
pub fn decode_event_exact(buf: &[u8]) -> Result<Event, DecodeError> {
    let (event, consumed) = decode_event(buf)?;
    if consumed != buf.len() {
        return Err(DecodeError::TrailingBytes {
            consumed,
            len: buf.len(),
        });
    }
    Ok(event)
}

/// One WAL record, decoded and owned — the unit of commit, recovery and
/// replication: a commit job holds it, [`Wal::open`](crate::Wal::open)
/// recovers it, the follower's
/// [`TailScanner`](crate::replica::TailScanner) yields it, and
/// [`DurableEngine::commit`](crate::DurableEngine::commit) applies it.
/// Every kind occupies WAL sequence numbers — one per event, one per
/// policy op — so replication cursors and the applied watermark advance
/// uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// One or more concatenated events — a trusted ingest batch.
    Events(Vec<Event>),
    /// A quarantined batch (events from an under-trusted source, logged
    /// for the quarantine ledger but never enforced):
    /// [`QUARANTINE_SENTINEL`], then the source and its trust level as
    /// varints, then the events.
    Quarantine {
        /// The authenticated source whose events were quarantined.
        source: SubjectId,
        /// The source's trust level at ingest time.
        level: u8,
        /// The quarantined events (non-empty).
        events: Vec<Event>,
    },
    /// A durable policy op: [`POLICY_SENTINEL`], then the op in binval.
    /// Carries no events but still consumes one sequence number so
    /// recovery and followers apply it at the same position in the
    /// stream.
    Policy(PolicyOp),
}

impl WalRecord {
    /// Number of WAL sequence numbers the record consumes (see
    /// [`WalBatch::seq_count`]).
    pub fn seq_count(&self) -> u64 {
        WalBatch::from(self).seq_count()
    }

    /// The record minus its first `n` sequence numbers — the part at or
    /// above a floor (a snapshot's cover point, a follower's applied
    /// sequence) that lies `n` past the record's first sequence.
    /// `None` when the floor covers the whole record.
    pub fn skip(mut self, n: u64) -> Option<WalRecord> {
        if n >= self.seq_count() {
            return None;
        }
        // A policy record is one sequence number, so `n` is 0 for it.
        if let WalRecord::Events(events) | WalRecord::Quarantine { events, .. } = &mut self {
            events.drain(..n as usize);
        }
        Some(self)
    }
}

/// Append the quarantine-record encoding of `events` from `source` at
/// trust `level` to `out`.
pub fn encode_quarantine(source: SubjectId, level: u8, events: &[Event], out: &mut Vec<u8>) {
    out.push(QUARANTINE_SENTINEL);
    put_varint(out, source.0 as u64);
    put_varint(out, level as u64);
    for event in events {
        encode_event(event, out);
    }
}

/// Append the policy-record encoding of `op` to `out`: the sentinel
/// followed by the op in binval.
pub fn encode_policy_op(op: &PolicyOp, out: &mut Vec<u8>) {
    out.push(POLICY_SENTINEL);
    crate::binval::encode_into(op, out);
}

/// Decode a whole record payload — quarantine or policy if it opens
/// with the matching sentinel, a concatenated event batch otherwise.
/// Total, like every decoder here: arbitrary bytes yield a payload or a
/// [`DecodeError`], never a panic; an empty batch (of either kind) is an
/// error, matching the WAL's one-or-more-events record contract.
pub fn decode_record_payload(buf: &[u8]) -> Result<WalRecord, DecodeError> {
    let decode_events = |buf: &[u8]| -> Result<Vec<Event>, DecodeError> {
        let mut at = 0usize;
        let mut events = Vec::new();
        while at < buf.len() {
            let (event, used) = decode_event(&buf[at..])?;
            events.push(event);
            at += used;
        }
        if events.is_empty() {
            return Err(DecodeError::UnexpectedEof);
        }
        Ok(events)
    };
    match buf.first() {
        Some(&QUARANTINE_SENTINEL) => {
            let mut at = 1usize;
            let source = get_id(buf, &mut at)?;
            let level = get_varint(buf, &mut at)?;
            let level = u8::try_from(level).map_err(|_| DecodeError::IdOutOfRange(level))?;
            let events = decode_events(&buf[at..])?;
            Ok(WalRecord::Quarantine {
                source: SubjectId(source),
                level,
                events,
            })
        }
        Some(&POLICY_SENTINEL) => crate::binval::decode(&buf[1..])
            .map(WalRecord::Policy)
            .map_err(|_| DecodeError::BadPolicyOp),
        _ => Ok(WalRecord::Events(decode_events(buf)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::Request {
                time: Time(10),
                subject: SubjectId(0),
                location: LocationId(3),
            },
            Event::Enter {
                time: Time(u64::MAX),
                subject: SubjectId(u32::MAX),
                location: LocationId(u32::MAX),
            },
            Event::Exit {
                time: Time(0),
                subject: SubjectId(1),
                location: LocationId(2),
            },
            Event::Tick { now: Time(1 << 40) },
        ]
    }

    #[test]
    fn round_trips_every_variant() {
        for e in samples() {
            let bytes = event_bytes(&e);
            assert_eq!(decode_event_exact(&bytes).unwrap(), e, "{e:?}");
        }
    }

    #[test]
    fn small_events_are_compact() {
        let e = Event::Request {
            time: Time(10),
            subject: SubjectId(0),
            location: LocationId(3),
        };
        assert_eq!(event_bytes(&e).len(), 4);
        assert_eq!(event_bytes(&Event::Tick { now: Time(5) }).len(), 2);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        for e in samples() {
            let bytes = event_bytes(&e);
            for cut in 0..bytes.len() {
                assert!(decode_event(&bytes[..cut]).is_err(), "{e:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn bad_tag_and_overflow_are_rejected() {
        assert_eq!(decode_event(&[9, 0, 0, 0]), Err(DecodeError::BadTag(9)));
        // An 11-byte continuation chain overflows.
        let overflowing = [
            TAG_TICK, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
        ];
        assert_eq!(decode_event(&overflowing), Err(DecodeError::VarintOverflow));
        // A 33-bit subject id is out of range.
        let mut buf = vec![TAG_ENTER];
        put_varint(&mut buf, 1); // time
        put_varint(&mut buf, u64::from(u32::MAX) + 1); // subject
        put_varint(&mut buf, 0); // location
        assert_eq!(
            decode_event(&buf),
            Err(DecodeError::IdOutOfRange(u64::from(u32::MAX) + 1))
        );
    }

    #[test]
    fn quarantine_payloads_round_trip_and_truncation_errors() {
        let events = samples();
        let mut buf = Vec::new();
        encode_quarantine(SubjectId(9), 3, &events, &mut buf);
        assert_eq!(
            decode_record_payload(&buf).unwrap(),
            WalRecord::Quarantine {
                source: SubjectId(9),
                level: 3,
                events: events.clone(),
            }
        );
        // Truncation mid-event (or mid-header) always errors. A cut on
        // an event boundary decodes as a valid *shorter* quarantine
        // batch — the payload encoding is a concatenation; whole-record
        // integrity is the WAL/frame CRC's job, not the decoder's.
        let mut header = Vec::new();
        encode_quarantine(SubjectId(9), 3, &[], &mut header);
        let mut boundaries = std::collections::HashSet::new();
        let mut off = header.len();
        for e in &events[..events.len() - 1] {
            off += event_bytes(e).len();
            boundaries.insert(off);
        }
        for cut in 0..buf.len() {
            let decoded = decode_record_payload(&buf[..cut]);
            if boundaries.contains(&cut) {
                assert!(
                    matches!(decoded, Ok(WalRecord::Quarantine { .. })),
                    "boundary cut {cut}"
                );
            } else {
                assert!(decoded.is_err(), "cut {cut}");
            }
        }
        // A plain event batch decodes as the Events kind — the sentinel
        // can never alias an event tag.
        let mut plain = Vec::new();
        for e in &events {
            encode_event(e, &mut plain);
        }
        assert_eq!(
            decode_record_payload(&plain).unwrap(),
            WalRecord::Events(events)
        );
        // An empty quarantine batch is invalid, like an empty record.
        let mut empty = Vec::new();
        encode_quarantine(SubjectId(0), 0, &[], &mut empty);
        assert!(decode_record_payload(&empty).is_err());
    }

    #[test]
    fn policy_payloads_round_trip_and_bad_bodies_error() {
        use ltam_situate::{IncidentId, SituationMode, SituationOp};
        let op = PolicyOp::Situation(SituationOp::Declare(SituationMode::Emergency {
            incident: IncidentId(7),
            until: Time(500),
        }));
        let mut buf = Vec::new();
        encode_policy_op(&op, &mut buf);
        assert_eq!(buf[0], POLICY_SENTINEL);
        assert_eq!(
            decode_record_payload(&buf).unwrap(),
            WalRecord::Policy(op.clone())
        );
        assert_eq!(WalRecord::Policy(op).seq_count(), 1);
        // Any truncation breaks the body and is an error, never a panic.
        for cut in 0..buf.len() {
            assert!(decode_record_payload(&buf[..cut]).is_err(), "cut {cut}");
        }
        // Garbage after the sentinel is rejected, not misread.
        assert_eq!(
            decode_record_payload(&[POLICY_SENTINEL, b'{', b'x']),
            Err(DecodeError::BadPolicyOp)
        );
        // The two sentinels never alias each other or any event tag.
        assert_ne!(POLICY_SENTINEL, QUARANTINE_SENTINEL);
        const { assert!(POLICY_SENTINEL > TAG_TICK) };
    }

    #[test]
    fn trailing_bytes_are_rejected_by_exact_decode() {
        let mut bytes = event_bytes(&Event::Tick { now: Time(1) });
        bytes.push(0);
        assert!(matches!(
            decode_event_exact(&bytes),
            Err(DecodeError::TrailingBytes { .. })
        ));
    }
}
