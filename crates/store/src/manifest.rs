//! The generation manifest: the store's single source of truth.
//!
//! A manifest names every *retained generation* — a snapshot file plus
//! the log segment that continues it — newest last. It is always
//! published with write-to-temp + atomic rename, so a reader sees either
//! the previous manifest or the new one, never a torn mix; everything
//! not reachable from the current manifest is garbage and is collected
//! on the next open or flush.
//!
//! Layout: magic `STM1`, format version, then one checksummed section
//! (tag `M`) whose payload is `next_gen`, the entry count, and the
//! `(gen, seq, golden)` triples in ascending generation order. The CRC
//! turns any torn or bit-flipped manifest into a hard
//! [`CodecError::Corrupt`] instead of a silently wrong store.

use sth_platform::codec::{read_section, write_section, ByteReader, ByteWriter, CodecError};

const MAGIC: &[u8; 4] = b"STM1";
const VERSION: u8 = 1;
const SEC_BODY: u8 = b'M';
/// Corruption guard on the entry count.
const MAX_GENERATIONS: u32 = 1 << 16;

/// One retained generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenerationEntry {
    /// Generation number; also names the snapshot file `snap-<gen>.sths`
    /// and the log segment `seg-<gen>.dlog` that continues it.
    pub gen: u64,
    /// Number of deltas folded into the snapshot: the segment's records
    /// carry sequence numbers `seq + 1, seq + 2, …`.
    pub seq: u64,
    /// Golden hash of the snapshotted histogram
    /// (`StHoles::golden_hash`); recovery and time-travel reads refuse a
    /// snapshot whose header carries another.
    pub golden: u64,
}

/// The decoded manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Next generation number to allocate.
    pub next_gen: u64,
    /// Retained generations, ascending; the last entry is the newest
    /// snapshot and owns the active log segment.
    pub generations: Vec<GenerationEntry>,
}

impl Manifest {
    /// The newest retained generation.
    pub fn newest(&self) -> &GenerationEntry {
        self.generations.last().expect("manifest always retains at least one generation")
    }

    /// Serializes the manifest.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(!self.generations.is_empty(), "manifest must name at least one generation");
        let mut body = ByteWriter::with_capacity(16 + 24 * self.generations.len());
        body.u64(self.next_gen);
        body.u32(self.generations.len() as u32);
        for e in &self.generations {
            body.u64(e.gen);
            body.u64(e.seq);
            body.u64(e.golden);
        }
        let mut out = ByteWriter::with_capacity(body.len() + 16);
        out.bytes(MAGIC);
        out.u8(VERSION);
        write_section(&mut out, SEC_BODY, body.as_bytes());
        out.into_bytes()
    }

    /// Parses and validates a manifest.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(CodecError::Corrupt("bad manifest magic"));
        }
        if r.u8()? != VERSION {
            return Err(CodecError::Corrupt("unsupported manifest version"));
        }
        let body = read_section(&mut r, SEC_BODY)?;
        r.expect_exhausted()?;
        let mut b = ByteReader::new(body);
        let next_gen = b.u64()?;
        let count = b.count_u32(MAX_GENERATIONS as usize, "generation count")?;
        if count == 0 {
            return Err(CodecError::Corrupt("manifest retains no generations"));
        }
        let mut generations = Vec::with_capacity(count);
        for _ in 0..count {
            let gen = b.u64()?;
            let seq = b.u64()?;
            let golden = b.u64()?;
            if let Some(prev) = generations.last() {
                let prev: &GenerationEntry = prev;
                if gen <= prev.gen {
                    return Err(CodecError::Corrupt("generations out of order"));
                }
                if seq < prev.seq {
                    return Err(CodecError::Corrupt("generation sequence numbers regress"));
                }
            }
            generations.push(GenerationEntry { gen, seq, golden });
        }
        b.expect_exhausted()?;
        if next_gen <= generations.last().unwrap().gen {
            return Err(CodecError::Corrupt("next generation not past the newest"));
        }
        Ok(Self { next_gen, generations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            next_gen: 7,
            generations: vec![
                GenerationEntry { gen: 4, seq: 120, golden: 0xAAAA },
                GenerationEntry { gen: 5, seq: 180, golden: 0xBBBB },
                GenerationEntry { gen: 6, seq: 240, golden: 0xCCCC },
            ],
        }
    }

    #[test]
    fn roundtrip_is_exact_and_deterministic() {
        let m = sample();
        let bytes = m.to_bytes();
        let back = Manifest::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.newest().gen, 6);
    }

    #[test]
    fn any_bitflip_is_rejected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(Manifest::from_bytes(&bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Manifest::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn structural_garbage_is_rejected() {
        // Out-of-order generations.
        let mut m = sample();
        m.generations.swap(0, 2);
        assert!(Manifest::from_bytes(&m.to_bytes()).is_err());
        // Regressing sequence numbers.
        let mut m = sample();
        m.generations[2].seq = 10;
        assert!(Manifest::from_bytes(&m.to_bytes()).is_err());
        // next_gen not past the newest.
        let mut m = sample();
        m.next_gen = 6;
        assert!(Manifest::from_bytes(&m.to_bytes()).is_err());
    }
}
