//! Deterministic binary codec for the daemon's durable artifacts.
//!
//! Both the write-ahead log and the snapshot files are built from the same
//! primitives: little-endian fixed-width integers and an IEEE CRC-32 over
//! the payload. Everything here is hand-rolled — no serializer dependency
//! — because the framing must be byte-stable across versions of anything
//! but this file, and because recovery needs precise control over how a
//! torn or bit-rotted suffix decodes (it must fail loudly at the frame
//! layer, never panic in the middle of a field read).

use itconsole::Payload;
use serde::Serialize;

/// Which week of the train/test pair a batch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Week {
    /// Training week (thresholds are fit on this data).
    Train,
    /// Test week (scored against the fitted thresholds).
    Test,
}

/// One host's contiguous run of per-window feature counts — the daemon's
/// unit of ingest, durability, acknowledgement and retry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WindowBatch {
    /// Host that produced the windows.
    pub host: u32,
    /// Per-host monotone sequence number, starting at 1. The daemon
    /// applies a batch at most once: a batch whose `seq` is not greater
    /// than the host's high-water mark is acknowledged as a duplicate.
    pub seq: u64,
    /// Which week the windows belong to.
    pub week: Week,
    /// Index of the first window in `counts` within its week.
    pub start: u32,
    /// Per-window feature counts, consecutive from `start`.
    pub counts: Vec<u64>,
    /// Fault-injection marker: a poison batch panics the shard worker
    /// that applies it (standing in for the malformed input that killed a
    /// real agent). Set only by `faultsim`-driven tests and experiments.
    pub poison: bool,
}

impl Payload for WindowBatch {
    fn units(&self) -> u64 {
        self.counts.len() as u64
    }
}

/// Why a byte buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the declared structure did.
    Truncated,
    /// A declared length is beyond the sanity bound.
    ImplausibleLength,
    /// An enum discriminant has no meaning.
    BadDiscriminant,
    /// Trailing bytes after a complete structure.
    TrailingBytes,
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer ends mid-structure"),
            CodecError::ImplausibleLength => write!(f, "declared length fails sanity bound"),
            CodecError::BadDiscriminant => write!(f, "unknown enum discriminant"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after structure"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Upper bound on the window count a single batch may declare. Real weeks
/// are 672 fifteen-minute windows; anything near `u32::MAX` is a forged
/// length, and rejecting it here keeps a corrupt-but-CRC-colliding record
/// from asking for a multi-GiB allocation.
pub const MAX_BATCH_WINDOWS: u32 = 1 << 20;

/// A little-endian cursor over an immutable byte buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f64` stored as its little-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read `n` raw bytes (opaque nested payloads, e.g. sketch images).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Fail unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its little-endian bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

impl WindowBatch {
    /// Serialise into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.host);
        put_u64(out, self.seq);
        out.push(match self.week {
            Week::Train => 0,
            Week::Test => 1,
        });
        out.push(u8::from(self.poison));
        put_u32(out, self.start);
        put_u32(out, self.counts.len() as u32);
        for &c in &self.counts {
            put_u64(out, c);
        }
    }

    /// Deserialise from exactly `buf` (trailing bytes are an error).
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let host = r.u32()?;
        let seq = r.u64()?;
        let week = match r.u8()? {
            0 => Week::Train,
            1 => Week::Test,
            _ => return Err(CodecError::BadDiscriminant),
        };
        let poison = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::BadDiscriminant),
        };
        let start = r.u32()?;
        let n = r.u32()?;
        if n > MAX_BATCH_WINDOWS {
            return Err(CodecError::ImplausibleLength);
        }
        let mut counts = Vec::with_capacity(n as usize);
        for _ in 0..n {
            counts.push(r.u64()?);
        }
        r.finish()?;
        Ok(Self {
            host,
            seq,
            week,
            start,
            counts,
            poison,
        })
    }
}

/// CRC-32 lookup tables, built at compile time by [`crc32_tables`].
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// IEEE CRC-32 (the pcap/zip polynomial), slicing-by-16: sixteen bytes
/// per step through sixteen lookup tables built at compile time, then the
/// tail one byte at a time. Values are those of the classic bytewise
/// table algorithm (kept as the test oracle), so every framed artifact
/// keeps its bytes.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // Only the first four bytes depend on the running CRC; the other
        // twelve lookups overlap with the previous step's instead of
        // waiting for it.
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let rest = t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
        crc = rest
            ^ (t[15][(lo & 0xFF) as usize] ^ t[14][((lo >> 8) & 0xFF) as usize])
            ^ (t[13][((lo >> 16) & 0xFF) as usize] ^ t[12][(lo >> 24) as usize]);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// `T[0]` is the classic reflected byte table; `T[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes, which lets one step fold sixteen
/// input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WindowBatch {
        WindowBatch {
            host: 42,
            seq: 7,
            week: Week::Test,
            start: 96,
            counts: vec![0, 3, 1_000_000, u64::MAX],
            poison: false,
        }
    }

    #[test]
    fn batch_roundtrips() {
        let b = sample();
        let mut buf = Vec::new();
        b.encode(&mut buf);
        assert_eq!(WindowBatch::decode(&buf).unwrap(), b);
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let b = sample();
        let mut buf = Vec::new();
        b.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                WindowBatch::decode(&buf[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        buf.push(0);
        assert_eq!(WindowBatch::decode(&buf), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn forged_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        WindowBatch {
            counts: vec![],
            ..sample()
        }
        .encode(&mut buf);
        // Forge the count field (last 4 bytes of the empty-counts layout).
        let len_off = buf.len() - 4;
        buf[len_off..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            WindowBatch::decode(&buf),
            Err(CodecError::ImplausibleLength)
        );
    }

    /// The classic one-table, one-byte-per-step CRC-32: the oracle the
    /// slicing-by-16 [`crc32`] must agree with on every input.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let t = &CRC32_TABLES[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ t[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_and_alignment() {
        // Every length 0..=4096 at every start offset 0..8 within one
        // buffer: covers each alignment of the 8-byte steps and every
        // remainder tail length.
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for off in 0..8 {
            for len in 0..=4096 {
                let data = &buf[off..off + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "off {off} len {len}");
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn crc32_matches_bytewise_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..4104),
            off in 0usize..8,
        ) {
            let off = off.min(data.len());
            prop_assert_eq!(crc32(&data[off..]), crc32_bytewise(&data[off..]));
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn units_counts_windows() {
        use itconsole::Payload;
        assert_eq!(sample().units(), 4);
    }
}
