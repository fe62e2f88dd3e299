//! The snapshot file: one durable generation of the histogram.
//!
//! A snapshot carries the histogram's **verbatim process image**
//! ([`StHoles::to_bytes`], section `I`): exact arena slot layout, free
//! list, and child order. Recovery decodes it because refine's merge
//! tie-breaking depends on slot order: replaying the delta tail on
//! anything but the exact process image would be merely equivalent, not
//! bit-identical, to the run that never crashed. Time-travel reads decode
//! the same image and freeze it.
//!
//! The header (section `H`) binds the file to its place in the lifecycle:
//! it is the [`GenerationEntry`] the manifest files the snapshot under —
//! generation number, the delta sequence it absorbs, and the golden hash
//! of the histogram ([`StHoles::golden_hash`]). Decoding re-hashes the
//! decoded image against the stored golden, so a snapshot that decodes to
//! the *wrong* state (not just an undecodable one) is also caught, and
//! readers compare the whole header with the manifest's entry, so a
//! snapshot of another store is refused too.

use sth_histogram::StHoles;
use sth_platform::codec::{read_section, write_section, ByteReader, ByteWriter, CodecError};

use crate::manifest::GenerationEntry;

const MAGIC: &[u8; 4] = b"SSN1";
const VERSION: u8 = 2;
const SEC_HEADER: u8 = b'H';
const SEC_IMAGE: u8 = b'I';

/// Serializes `hist`, whose golden hash is `head.golden`, under `head`.
pub fn encode(hist: &StHoles, head: &GenerationEntry) -> Vec<u8> {
    let image = hist.to_bytes();
    let mut out = ByteWriter::with_capacity(image.len() + 64);
    out.bytes(MAGIC);
    out.u8(VERSION);
    let mut h = ByteWriter::with_capacity(24);
    h.u64(head.gen);
    h.u64(head.seq);
    h.u64(head.golden);
    write_section(&mut out, SEC_HEADER, h.as_bytes());
    write_section(&mut out, SEC_IMAGE, &image);
    out.into_bytes()
}

/// Decodes a snapshot file, verifying section checksums and the golden
/// hash of the decoded state.
pub fn decode(bytes: &[u8]) -> Result<(GenerationEntry, StHoles), CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(CodecError::Corrupt("bad snapshot magic"));
    }
    if r.u8()? != VERSION {
        return Err(CodecError::Corrupt("unsupported snapshot version"));
    }
    let mut h = ByteReader::new(read_section(&mut r, SEC_HEADER)?);
    let head = GenerationEntry { gen: h.u64()?, seq: h.u64()?, golden: h.u64()? };
    h.expect_exhausted()?;
    let image = read_section(&mut r, SEC_IMAGE)?;
    r.expect_exhausted()?;
    let hist = StHoles::from_bytes(image).map_err(|_| CodecError::Corrupt("snapshot image"))?;
    if hist.golden_hash() != head.golden {
        return Err(CodecError::Corrupt("snapshot golden hash mismatch"));
    }
    Ok((head, hist))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_geometry::Rect;
    use sth_index::ResultSetCounter;
    use sth_query::SelfTuning;

    fn trained() -> StHoles {
        let mut h = StHoles::with_total(Rect::cube(2, 0.0, 100.0), 8, 40.0);
        let rows: Vec<f64> =
            (0..20).flat_map(|i| [5.0 + 4.0 * i as f64, 95.0 - 4.0 * i as f64]).collect();
        let result = ResultSetCounter::from_flat(rows, 2);
        for i in 0..6 {
            let q = Rect::from_bounds(&[4.0 * i as f64, 10.0], &[30.0 + 4.0 * i as f64, 90.0]);
            let truth = sth_index::RangeCounter::count(&result, &q) as f64;
            h.refine_with_truth(&q, &result, truth);
        }
        h
    }

    fn head_of(h: &StHoles, gen: u64, seq: u64) -> GenerationEntry {
        GenerationEntry { gen, seq, golden: h.golden_hash() }
    }

    #[test]
    fn decode_restores_header_and_image() {
        let h = trained();
        let head = head_of(&h, 3, 17);
        let (back_head, back) = decode(&encode(&h, &head)).unwrap();
        assert_eq!(back_head, head);
        assert_eq!(back.to_bytes(), h.to_bytes());
        // A header whose golden does not match the image is refused.
        let lying = GenerationEntry { golden: head.golden ^ 1, ..head };
        assert_eq!(
            decode(&encode(&h, &lying)).unwrap_err(),
            CodecError::Corrupt("snapshot golden hash mismatch")
        );
    }

    #[test]
    fn bitflips_never_decode() {
        let h = trained();
        let bytes = encode(&h, &head_of(&h, 1, 0));
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(decode(&bad).is_err(), "decode accepted flip at {i}");
        }
        for cut in (0..bytes.len()).step_by(13) {
            assert!(decode(&bytes[..cut]).is_err(), "accepted truncation at {cut}");
        }
    }
}
