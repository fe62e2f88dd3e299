//! Hand-rolled binary codec helpers shared by every on-disk format.
//!
//! The workspace's hermetic-build policy rules out serde and format
//! crates, so each persistent structure (the `StHoles` image, the durable
//! store's snapshot files, delta log and manifest) encodes itself
//! with the same little-endian conventions. This module is the one place
//! those conventions live:
//!
//! * [`ByteWriter`] / [`ByteReader`] — length-checked primitive encoding
//!   (`u8`/`u32`/`u64`/`f64`, raw byte runs, length-prefixed blobs). The
//!   reader returns [`CodecError::Corrupt`] instead of panicking on any
//!   truncated or malformed input, so decoding untrusted bytes is total.
//! * [`crc32`] — the IEEE CRC-32 (reflected polynomial `0xEDB88320`),
//!   table-driven, built at compile time. Every checksummed section of an
//!   on-disk file frames its payload with this.
//! * [`fnv1a`] — the 64-bit FNV-1a hash used for golden-hash identity
//!   checks (determinism tests, snapshot recovery proofs).
//! * [`write_section`] / [`read_section`] — the shared section frame:
//!   `tag, len, payload, crc32(payload)`. Corrupt payloads are detected
//!   at the frame layer before any structural decoding runs.

use std::fmt;

/// Decoding failure: the input ended early or contained malformed bytes.
///
/// The message names the first violated expectation; it is static so the
/// error stays allocation-free on the decode hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended prematurely or contained malformed values.
    Corrupt(&'static str),
}

impl CodecError {
    /// The static description of the violation.
    pub fn what(&self) -> &'static str {
        match self {
            CodecError::Corrupt(w) => w,
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt encoding: {}", self.what())
    }
}

impl std::error::Error for CodecError {}

/// Little-endian primitive writer over a growable buffer.
///
/// A thin deliberate wrapper (not just `Vec` extension methods) so every
/// format writes through one audited implementation and the write calls
/// mirror the [`ByteReader`] calls one-for-one.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: Vec::with_capacity(cap) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian IEEE-754 `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u32`, panicking if it does not fit — on-disk
    /// counts are bounded well below 4 billion by construction.
    pub fn len_u32(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("count exceeds u32 on-disk range"));
    }

    /// Appends a packed `f64` run (e.g. a columnar section body).
    pub fn f64_slice(&mut self, vs: &[f64]) {
        self.buf.reserve(vs.len() * 8);
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Bounds-checked little-endian reader over a byte slice.
///
/// Every accessor returns [`CodecError::Corrupt`] instead of panicking
/// when the input is too short, so decoders are total over arbitrary
/// byte strings (the `rejects_bitflips_gracefully`-style tests rely on
/// this).
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every input byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails unless the input was consumed exactly — trailing garbage is
    /// a corruption signal, not padding.
    pub fn expect_exhausted(&self) -> Result<(), CodecError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(CodecError::Corrupt("trailing bytes"))
        }
    }

    /// Consumes and returns the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::Corrupt("unexpected end of input"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f64` (any bit pattern).
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` and rejects NaN/infinity with the given message.
    pub fn finite_f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        let v = self.f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(CodecError::Corrupt(what))
        }
    }

    /// Reads a `u32` count and rejects values above `max` — decoders use
    /// this before allocating, so hostile lengths cannot trigger huge
    /// allocations.
    pub fn count_u32(&mut self, max: usize, what: &'static str) -> Result<usize, CodecError> {
        let v = self.u32()? as usize;
        if v > max {
            return Err(CodecError::Corrupt(what));
        }
        Ok(v)
    }
}

/// The IEEE CRC-32 lookup table (reflected polynomial `0xEDB88320`),
/// computed at compile time so the implementation stays table-driven
/// without a build step or a handwritten constant block.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` (the checksum used by gzip/zip/PNG), hermetic
/// and table-driven. Guards every checksummed on-disk section.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// 64-bit FNV-1a hash: the workspace's golden-hash function for identity
/// checks (deterministic, endian-independent, good avalanche for short
/// structured inputs).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Frames `payload` as a checksummed section: `tag (u8), len (u32),
/// payload, crc32(payload) (u32)`.
pub fn write_section(out: &mut ByteWriter, tag: u8, payload: &[u8]) {
    out.u8(tag);
    out.len_u32(payload.len());
    out.bytes(payload);
    out.u32(crc32(payload));
}

/// Reads one section frame, verifying the tag and the payload checksum.
/// Returns the payload slice.
pub fn read_section<'a>(r: &mut ByteReader<'a>, want_tag: u8) -> Result<&'a [u8], CodecError> {
    let tag = r.u8()?;
    if tag != want_tag {
        return Err(CodecError::Corrupt("unexpected section tag"));
    }
    let len = r.u32()? as usize;
    let payload = r.take(len)?;
    let crc = r.u32()?;
    if crc != crc32(payload) {
        return Err(CodecError::Corrupt("section checksum mismatch"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.f64(-1234.5);
        w.f64_slice(&[0.0, -0.0, 1.5e300]);
        w.bytes(b"tail");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f64().unwrap(), -1234.5);
        assert_eq!(r.f64().unwrap().to_bits(), 0.0f64.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), 1.5e300);
        assert_eq!(r.take(4).unwrap(), b"tail");
        assert!(r.expect_exhausted().is_ok());
    }

    #[test]
    fn reader_is_total_over_short_input() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u32().unwrap_err(), CodecError::Corrupt("unexpected end of input"));
        // A failed read consumes nothing.
        assert_eq!(r.pos(), 0);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.u64().is_err());
        assert!(r.f64().is_err());
    }

    #[test]
    fn finite_and_count_guards() {
        let mut w = ByteWriter::new();
        w.f64(f64::NAN);
        w.u32(1_000_000);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.finite_f64("nan rejected").unwrap_err(), CodecError::Corrupt("nan rejected"));
        assert_eq!(
            r.count_u32(10, "count too large").unwrap_err(),
            CodecError::Corrupt("count too large")
        );
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut r = ByteReader::new(&[0, 0]);
        r.u8().unwrap();
        assert_eq!(r.expect_exhausted().unwrap_err(), CodecError::Corrupt("trailing bytes"));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn sections_roundtrip_and_reject_corruption() {
        let mut w = ByteWriter::new();
        write_section(&mut w, 7, b"hello world");
        write_section(&mut w, 8, b"");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_section(&mut r, 7).unwrap(), b"hello world");
        assert_eq!(read_section(&mut r, 8).unwrap(), b"");
        assert!(r.is_exhausted());

        // Wrong tag.
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            read_section(&mut r, 9).unwrap_err(),
            CodecError::Corrupt("unexpected section tag")
        );

        // Any single-byte flip in the payload or checksum is caught.
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x01;
            let mut r = ByteReader::new(&m);
            let first = read_section(&mut r, 7);
            let ok = first.is_ok_and(|p| p == b"hello world")
                && read_section(&mut r, 8).is_ok_and(|p| p == b"");
            assert!(!ok, "flip at byte {i} went undetected");
        }
    }
}
