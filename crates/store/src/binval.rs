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
//! Decoding mirrors encoding: [`decode`] reads the target type straight
//! out of the bytes through the streaming [`serde::Deserializer`] path
//! ([`BinDeserializer`]) and allocates only what that type holds — a
//! [`serde::Value`] tree is built only when `Value` *is* the target type.
//!
//! Like the event codec, decoding is **total**: arbitrary bytes either
//! decode or return an error — no panics, and no allocation sized by a
//! number the input merely announces: wire request bodies are decoded
//! *before* the capability gate, so this decoder faces unauthenticated
//! peers. A count never exceeds the bytes that remain and only ever
//! reserves up to [`serde::MAX_PREALLOC`] elements; past that, memory
//! grows as elements actually decode, so the frame-size cap bounds it.

use crate::codec::{get_varint, put_varint, DecodeError};
use serde::{Deserialize, Deserializer, Error, Kind, Serialize, Serializer};

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
/// intermediate [`serde::Value`] tree).
pub fn encode<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(value, &mut out);
    out
}

/// [`encode`], appending to `out` (a wire frame writes its kind byte
/// first and the body straight after it).
pub fn encode_into<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) {
    value.serialize(&mut BinSerializer {
        out,
        spill_at: usize::MAX,
        sink: &mut |_| {},
    });
}

/// [`encode`], handed to `sink` in pieces that concatenate to its bytes:
/// the buffer spills at the first value boundary past `chunk` bytes and
/// once at the end, so it holds `chunk` bytes and a sixteenth of slack
/// however large the value (a snapshot streams into its file this way).
pub fn encode_chunked<T: Serialize + ?Sized>(value: &T, chunk: usize, sink: &mut dyn FnMut(&[u8])) {
    let mut out = Vec::with_capacity(chunk.saturating_add(chunk / 16));
    let mut s = BinSerializer {
        out: &mut out,
        spill_at: chunk,
        sink,
    };
    value.serialize(&mut s);
    if !s.out.is_empty() {
        (s.sink)(s.out);
    }
}

/// Decode a value previously produced by [`encode`]. Trailing bytes are
/// an error: the payload is exactly one value.
pub fn decode<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut d = BinDeserializer::new(bytes);
    let value = T::deserialize(&mut d)?;
    d.finish()?;
    Ok(value)
}

struct BinSerializer<'a> {
    out: &'a mut Vec<u8>,
    /// Length at which `out` spills into `sink` (`usize::MAX`: never).
    spill_at: usize,
    sink: &'a mut dyn FnMut(&[u8]),
}

impl BinSerializer<'_> {
    /// Between two values: spill a full buffer.
    fn boundary(&mut self) {
        if self.out.len() >= self.spill_at {
            (self.sink)(self.out);
            self.out.clear();
        }
    }
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
    fn elem(&mut self, _index: usize) {
        self.boundary();
    }
    fn end_array(&mut self) {}
    fn begin_object(&mut self, len: usize) {
        self.out.push(TAG_OBJECT);
        put_varint(self.out, len as u64);
    }
    fn field(&mut self, _index: usize, key: &str) {
        self.boundary();
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
/// overflow the stack of a recursive reader ([`Deserializer::skip`], the
/// [`serde::Value`] tree builder).
const MAX_DEPTH: u32 = 512;

/// The streaming source over one encoded payload — the read-side mirror
/// of the serializer above, under the module's totality rules.
pub struct BinDeserializer<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Compounds currently open.
    depth: u32,
}

impl<'a> BinDeserializer<'a> {
    /// A source positioned at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> BinDeserializer<'a> {
        BinDeserializer {
            bytes,
            at: 0,
            depth: 0,
        }
    }

    /// Check that the value read was the whole payload.
    pub fn finish(&self) -> Result<(), Error> {
        match self.bytes.len() - self.at {
            0 => Ok(()),
            trailing => Err(Error(format!(
                "binary payload: {trailing} trailing bytes after value"
            ))),
        }
    }

    #[cold]
    fn fail(&self, e: DecodeError) -> Error {
        Error(format!("binary payload: {e:?} at offset {}", self.at))
    }

    fn varint(&mut self) -> Result<u64, Error> {
        get_varint(self.bytes, &mut self.at).map_err(|e| self.fail(e))
    }

    /// Consume the next tag byte, which must be `tag`.
    fn expect(&mut self, tag: u8, expected: &str) -> Result<(), Error> {
        if self.bytes.get(self.at) == Some(&tag) {
            self.at += 1;
            return Ok(());
        }
        Err(serde::kind_err(expected, self.peek()?))
    }

    /// Consume `len` raw bytes.
    fn take(&mut self, len: usize) -> Result<&'a [u8], Error> {
        match self.bytes[self.at..].get(..len) {
            Some(raw) => {
                self.at += len;
                Ok(raw)
            }
            None => Err(self.fail(DecodeError::UnexpectedEof)),
        }
    }

    /// Consume a varint length and that many UTF-8 bytes.
    fn str_body(&mut self) -> Result<&'a str, Error> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| self.fail(DecodeError::VarintOverflow))?;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| self.fail(DecodeError::BadUtf8))
    }

    /// Open a compound: consume its tag and element count. Every element
    /// costs at least one byte, so a count beyond the remaining bytes is
    /// corrupt; elements of a compound already `MAX_DEPTH` deep are
    /// refused.
    fn begin(&mut self, tag: u8, expected: &str) -> Result<usize, Error> {
        self.expect(tag, expected)?;
        let count = self.varint()?;
        let count = usize::try_from(count).map_err(|_| self.fail(DecodeError::VarintOverflow))?;
        if count > self.bytes.len() - self.at {
            return Err(self.fail(DecodeError::UnexpectedEof));
        }
        if count > 0 && self.depth >= MAX_DEPTH {
            return Err(self.fail(DecodeError::BadTag(tag)));
        }
        self.depth += 1;
        Ok(count)
    }
}

impl Deserializer for BinDeserializer<'_> {
    fn peek(&mut self) -> Result<Kind, Error> {
        match self.bytes.get(self.at) {
            Some(&TAG_NULL) => Ok(Kind::Null),
            Some(&(TAG_FALSE | TAG_TRUE)) => Ok(Kind::Bool),
            Some(&TAG_U64) => Ok(Kind::U64),
            Some(&TAG_I64) => Ok(Kind::I64),
            Some(&TAG_F64) => Ok(Kind::F64),
            Some(&TAG_STR) => Ok(Kind::Str),
            Some(&TAG_ARRAY) => Ok(Kind::Array),
            Some(&TAG_OBJECT) => Ok(Kind::Object),
            Some(&other) => Err(self.fail(DecodeError::BadTag(other))),
            None => Err(self.fail(DecodeError::UnexpectedEof)),
        }
    }
    fn read_null(&mut self) -> Result<(), Error> {
        self.expect(TAG_NULL, "null")
    }
    fn read_bool(&mut self) -> Result<bool, Error> {
        let b = self.bytes.get(self.at) == Some(&TAG_TRUE);
        self.expect(if b { TAG_TRUE } else { TAG_FALSE }, "bool")?;
        Ok(b)
    }
    fn read_u64(&mut self) -> Result<u64, Error> {
        self.expect(TAG_U64, "u64")?;
        self.varint()
    }
    fn read_i64(&mut self) -> Result<i64, Error> {
        self.expect(TAG_I64, "i64")?;
        self.varint().map(unzigzag)
    }
    fn read_f64(&mut self) -> Result<f64, Error> {
        self.expect(TAG_F64, "f64")?;
        let raw: [u8; 8] = self.take(8)?.try_into().expect("8 bytes");
        Ok(f64::from_le_bytes(raw))
    }
    fn read_str(&mut self) -> Result<&str, Error> {
        self.expect(TAG_STR, "string")?;
        self.str_body()
    }
    fn begin_array(&mut self) -> Result<usize, Error> {
        self.begin(TAG_ARRAY, "array")
    }
    fn end_array(&mut self) {
        self.depth -= 1;
    }
    fn begin_object(&mut self) -> Result<usize, Error> {
        self.begin(TAG_OBJECT, "object")
    }
    fn read_key(&mut self) -> Result<&str, Error> {
        self.str_body()
    }
    fn end_object(&mut self) {
        self.depth -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

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
    fn chunked_encoding_concatenates_to_the_whole() {
        let v: Vec<(u32, String, Vec<i64>)> = (0..50)
            .map(|i| (i, "x".repeat(i as usize), vec![-(i as i64); 3]))
            .collect();
        let whole = encode(&v);
        for chunk in [1, 2, 7, 64, whole.len(), whole.len() + 1] {
            let mut pieces = Vec::new();
            encode_chunked(&v, chunk, &mut |piece| pieces.push(piece.to_vec()));
            assert_eq!(pieces.concat(), whole, "chunk {chunk}");
            // Every piece but the last spilled a full buffer.
            let (last, full) = pieces.split_last().unwrap();
            assert!(!last.is_empty());
            assert!(full.iter().all(|p| p.len() >= chunk), "chunk {chunk}");
        }
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
    fn a_skipped_field_is_validated_like_a_read_one() {
        #[derive(Debug, PartialEq, Deserialize)]
        struct Known {
            id: u32,
        }
        // `{"junk": <junk>, "id": 7}` with `junk` given as raw bytes.
        let with_junk = |junk: &[u8]| {
            let mut bytes = vec![TAG_OBJECT, 2, 4];
            bytes.extend_from_slice(b"junk");
            bytes.extend_from_slice(junk);
            bytes.extend_from_slice(&[2, b'i', b'd', TAG_U64, 7]);
            bytes
        };
        let nest = |depth: usize| [[TAG_ARRAY, 1].repeat(depth), vec![TAG_NULL]].concat();
        let tree = Value::Object(vec![("k".to_string(), Value::Array(vec![Value::F64(0.5)]))]);
        for junk in [encode(&tree), encode("text"), nest(MAX_DEPTH as usize - 1)] {
            assert_eq!(decode::<Known>(&with_junk(&junk)), Ok(Known { id: 7 }));
        }
        let bad_utf8 = [TAG_ARRAY, 1, TAG_STR, 2, 0xC3, 0x28];
        let bad_key = [TAG_OBJECT, 1, 2, 0xC3, 0x28, TAG_NULL];
        for junk in [&bad_utf8[..], &bad_key, &[0x09], &nest(MAX_DEPTH as usize)] {
            let bytes = with_junk(junk);
            assert!(decode::<Known>(&bytes).is_err(), "{junk:02x?}");
            // The tree builder draws the line in the same place.
            assert!(decode::<Value>(&bytes).is_err(), "{junk:02x?}");
        }
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
