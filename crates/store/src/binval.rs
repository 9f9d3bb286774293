//! A compact, self-describing binary encoding of the serde data model —
//! the workspace's **one codec for structured bodies**: snapshot
//! payloads, policy-op WAL records, the archive segment's records block
//! and every structured frame body on the `ltam-serve` wire (events
//! alone travel in the varint event codec, [`crate::codec`]).
//!
//! Snapshots were JSON (format version 1) until profiling showed the
//! text encoding dominating the snapshot stall: a mid-drill snapshot
//! serialized ~4.5 MB of JSON, and number formatting alone put the
//! whole operation at tens of milliseconds on one core. This encoding
//! writes the same [`serde::Value`] data model as tag + varint bytes:
//! roughly a third of the size, encoded at memcpy-like speed through
//! the streaming [`serde::Serializer`] path (no intermediate tree).
//!
//! ## Wire shape
//!
//! Every value is one tag byte followed by its payload:
//!
//! ```text
//! 0x00 null
//! 0x01 false            0x02 true
//! 0x03 u64              varint
//! 0x04 i64              zigzag varint
//! 0x05 f64              8 bytes LE (bit pattern, exact round-trip)
//! 0x06 str              varint byte length + UTF-8 bytes
//! 0x07 array            varint count + that many values
//! 0x08 object           varint count + (varint key length + key + value)*
//! ```
//!
//! Like the event codec, decoding is **total**: arbitrary bytes either
//! decode or return an error — no panics, and no allocation sized by a
//! number the input merely announces: wire request bodies are decoded
//! *before* the capability gate, so this decoder faces unauthenticated
//! peers. A count only ever reserves up to `MAX_PREALLOC` elements;
//! past that, memory grows as elements actually decode — at most one
//! [`Value`] per input byte, so the frame-size cap bounds it.

use crate::codec::{get_varint, put_varint, DecodeError};
use serde::{Deserialize, Error, Serialize, Serializer, Value};

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_U64: u8 = 0x03;
const TAG_I64: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

/// Encode any serializable value to the binary form, streaming (no
/// intermediate [`Value`] tree).
pub fn encode<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(value, &mut out);
    out
}

/// [`encode`], appending to `out` (a wire frame writes its kind byte
/// first and the body straight after it).
pub fn encode_into<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) {
    value.serialize(&mut BinSerializer { out });
}

/// Decode a value previously produced by [`encode`]. Trailing bytes are
/// an error: the payload is exactly one value.
pub fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut at = 0;
    let value = decode_value(bytes, &mut at, 0)
        .map_err(|e| Error(format!("binary payload: {e:?} at offset {at}")))?;
    if at != bytes.len() {
        return Err(Error(format!(
            "binary payload: {} trailing bytes after value",
            bytes.len() - at
        )));
    }
    T::from_value(&value)
}

struct BinSerializer<'a> {
    out: &'a mut Vec<u8>,
}

impl Serializer for BinSerializer<'_> {
    fn emit_null(&mut self) {
        self.out.push(TAG_NULL);
    }
    fn emit_bool(&mut self, b: bool) {
        self.out.push(if b { TAG_TRUE } else { TAG_FALSE });
    }
    fn emit_u64(&mut self, n: u64) {
        self.out.push(TAG_U64);
        put_varint(self.out, n);
    }
    fn emit_i64(&mut self, n: i64) {
        self.out.push(TAG_I64);
        put_varint(self.out, zigzag(n));
    }
    fn emit_f64(&mut self, n: f64) {
        self.out.push(TAG_F64);
        self.out.extend_from_slice(&n.to_le_bytes());
    }
    fn emit_str(&mut self, s: &str) {
        self.out.push(TAG_STR);
        put_varint(self.out, s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }
    fn begin_array(&mut self, len: usize) {
        self.out.push(TAG_ARRAY);
        put_varint(self.out, len as u64);
    }
    fn elem(&mut self, _index: usize) {}
    fn end_array(&mut self) {}
    fn begin_object(&mut self, len: usize) {
        self.out.push(TAG_OBJECT);
        put_varint(self.out, len as u64);
    }
    fn field(&mut self, _index: usize, key: &str) {
        put_varint(self.out, key.len() as u64);
        self.out.extend_from_slice(key.as_bytes());
    }
    fn end_object(&mut self) {}
}

fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

fn unzigzag(n: u64) -> i64 {
    ((n >> 1) as i64) ^ -((n & 1) as i64)
}

/// Nesting depth cap: a hostile payload of `[[[[...` tags must not
/// overflow the decoder's stack.
const MAX_DEPTH: u32 = 512;

fn get_str(bytes: &[u8], at: &mut usize) -> Result<String, DecodeError> {
    let len = get_varint(bytes, at)?;
    let len = usize::try_from(len).map_err(|_| DecodeError::VarintOverflow)?;
    let end = at.checked_add(len).ok_or(DecodeError::UnexpectedEof)?;
    if end > bytes.len() {
        return Err(DecodeError::UnexpectedEof);
    }
    let s = std::str::from_utf8(&bytes[*at..end]).map_err(|_| DecodeError::BadUtf8)?;
    *at = end;
    Ok(s.to_string())
}

/// Most elements an announced array/object count may reserve up front.
/// A count is attacker-chosen and an element costs one input byte but
/// 32 bytes of [`Value`] (56 per object pair), so trusting a count that
/// merely fits the remaining bytes would let one 16 MiB frame reserve
/// hundreds of megabytes before its first element fails to decode.
const MAX_PREALLOC: usize = 1024;

/// Read an array/object element count. Every element costs at least one
/// byte, so a count beyond the remaining bytes is corrupt.
fn get_count(bytes: &[u8], at: &mut usize) -> Result<usize, DecodeError> {
    let count = get_varint(bytes, at)?;
    let count = usize::try_from(count).map_err(|_| DecodeError::VarintOverflow)?;
    if count > bytes.len() - *at {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(count)
}

fn decode_value(bytes: &[u8], at: &mut usize, depth: u32) -> Result<Value, DecodeError> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::BadTag(TAG_ARRAY));
    }
    let &tag = bytes.get(*at).ok_or(DecodeError::UnexpectedEof)?;
    *at += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_U64 => Ok(Value::U64(get_varint(bytes, at)?)),
        TAG_I64 => Ok(Value::I64(unzigzag(get_varint(bytes, at)?))),
        TAG_F64 => {
            let end = at.checked_add(8).ok_or(DecodeError::UnexpectedEof)?;
            if end > bytes.len() {
                return Err(DecodeError::UnexpectedEof);
            }
            let raw: [u8; 8] = bytes[*at..end].try_into().expect("8 bytes");
            *at = end;
            Ok(Value::F64(f64::from_le_bytes(raw)))
        }
        TAG_STR => Ok(Value::Str(get_str(bytes, at)?)),
        TAG_ARRAY => {
            let count = get_count(bytes, at)?;
            let mut items = Vec::with_capacity(count.min(MAX_PREALLOC));
            for _ in 0..count {
                items.push(decode_value(bytes, at, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let count = get_count(bytes, at)?;
            let mut pairs = Vec::with_capacity(count.min(MAX_PREALLOC));
            for _ in 0..count {
                let key = get_str(bytes, at)?;
                let value = decode_value(bytes, at, depth + 1)?;
                pairs.push((key, value));
            }
            Ok(Value::Object(pairs))
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let bytes = encode(v);
        let back: Value = decode(&bytes).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&Value::Null);
        round_trip(&Value::Bool(true));
        round_trip(&Value::Bool(false));
        round_trip(&Value::U64(0));
        round_trip(&Value::U64(u64::MAX));
        round_trip(&Value::I64(-1));
        round_trip(&Value::I64(i64::MIN));
        round_trip(&Value::F64(3.5));
        round_trip(&Value::F64(-0.0));
        round_trip(&Value::Str("héllo → 世界".to_string()));
        round_trip(&Value::Str(String::new()));
    }

    #[test]
    fn compounds_round_trip() {
        round_trip(&Value::Array(vec![]));
        round_trip(&Value::Array(vec![
            Value::U64(1),
            Value::Str("x".into()),
            Value::Array(vec![Value::Null]),
        ]));
        round_trip(&Value::Object(vec![
            ("a".to_string(), Value::U64(7)),
            ("b".to_string(), Value::Object(vec![])),
        ]));
    }

    #[test]
    fn typed_values_round_trip() {
        let v: Vec<(u32, Option<String>)> = vec![(1, None), (2, Some("two".into()))];
        let bytes = encode(&v);
        let back: Vec<(u32, Option<String>)> = decode(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn streaming_matches_tree_emission() {
        // The streaming Serialize path and the Value-tree path must
        // produce identical bytes, or derived types (which stream)
        // would diverge from the fallback.
        let v: Vec<(i32, String)> = vec![(-5, "neg".into()), (9, "pos".into())];
        assert_eq!(encode(&v), encode(&v.to_value()));
    }

    #[test]
    fn corrupt_bytes_error_rather_than_panic() {
        assert!(decode::<Value>(&[]).is_err());
        assert!(decode::<Value>(&[0xFF]).is_err());
        assert!(decode::<Value>(&[TAG_STR, 0x05, b'a']).is_err()); // short str
        assert!(decode::<Value>(&[TAG_ARRAY, 0xFF, 0xFF, 0xFF, 0x7F]).is_err()); // absurd count
        assert!(decode::<Value>(&[TAG_U64]).is_err()); // missing varint
        let err = decode::<Value>(&[TAG_STR, 0x02, 0xC3, 0x28]).unwrap_err();
        assert!(err.0.contains("BadUtf8"), "named as a string error: {err}");
        let trailing = [&encode(&Value::Null)[..], &[0x00]].concat();
        assert!(decode::<Value>(&trailing).is_err());
        // Deep nesting is refused, not a stack overflow.
        let mut deep = vec![];
        for _ in 0..100_000 {
            deep.push(TAG_ARRAY);
            deep.push(1);
        }
        deep.push(TAG_NULL);
        assert!(decode::<Value>(&deep).is_err());
    }

    #[test]
    fn every_byte_flip_is_detected_or_decodes_differently() {
        // Not a CRC substitute (snapshots carry one), but decoding must
        // stay total under mutation.
        let v = Value::Object(vec![
            ("seq".to_string(), Value::U64(12345)),
            (
                "items".to_string(),
                Value::Array(vec![Value::I64(-3), Value::Str("abc".into())]),
            ),
        ]);
        let bytes = encode(&v);
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x01;
            let _ = decode::<Value>(&m); // must not panic
        }
    }
}
