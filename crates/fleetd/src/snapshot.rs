//! Snapshot checkpointing: periodic full-state images that bound WAL
//! replay time.
//!
//! A snapshot is a single CRC-framed file:
//!
//! ```text
//! "FSN1" (4B) | payload_len u32 LE | crc32(payload) u32 LE | payload
//! ```
//!
//! and the payload is the complete sharded host table (sequence numbers,
//! train/test accumulators, fitted thresholds, live alarm counts) plus the
//! snapshot's own monotone sequence number. Writes are atomic at the
//! filesystem level — payload goes to `snap.tmp`, then a rename installs
//! it as `snap-<seq>.bin` — so a crash mid-write leaves either the old
//! snapshots or the new one, never a half-written current snapshot. The
//! two most recent snapshots are kept; recovery walks them newest-first
//! and loads the first one whose CRC and structure verify, counting the
//! rest as discarded. A valid snapshot makes every WAL frame written
//! before it redundant, so the daemon truncates the log right after a
//! successful install.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use hids_core::{SketchAccumulator, WindowAccumulator};
use tailstats::KllSketch;

use crate::codec::{crc32, put_f64, put_u32, put_u64, CodecError, Reader};
use crate::epoch::{decode_epoch, encode_epoch, EpochState};
use crate::state::HostState;

/// Snapshot file magic: "FSN1".
pub const SNAP_MAGIC: [u8; 4] = *b"FSN1";
/// Sanity bound on the snapshot payload (1 GiB).
pub const MAX_SNAP_PAYLOAD: u32 = 1 << 30;

/// A decoded snapshot: the daemon's full durable state at a checkpoint.
#[derive(Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Monotone snapshot sequence number (also embedded in the filename).
    pub seq: u64,
    /// Windows per week the daemon was configured with when it wrote
    /// this image (recovery cross-checks it against the current config).
    pub n_windows: u32,
    /// Full host table, merged across shards.
    pub hosts: BTreeMap<u32, HostState>,
    /// Rollout lifecycle state (current candidate + epoch history) as of
    /// this checkpoint.
    pub epoch: EpochState,
    /// Shards the control plane had drained as of this checkpoint
    /// (sorted, deduplicated). Drains are journaled commands, so the set
    /// must survive restarts the same way epoch state does.
    pub drained: Vec<u32>,
}

/// Why a snapshot file was rejected during recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotDefect {
    /// File shorter than the fixed header.
    ShortHeader,
    /// Magic was not [`SNAP_MAGIC`].
    BadMagic,
    /// Declared payload length exceeds [`MAX_SNAP_PAYLOAD`] or the file.
    BadLength,
    /// CRC over the payload did not match.
    CrcMismatch,
    /// Payload failed structural decode.
    Undecodable(CodecError),
}

fn encode_accumulator(out: &mut Vec<u8>, acc: &WindowAccumulator) {
    put_u32(out, acc.len() as u32);
    for (w, c) in acc.iter() {
        put_u32(out, w);
        put_u64(out, c);
    }
}

fn decode_accumulator(r: &mut Reader<'_>) -> Result<WindowAccumulator, CodecError> {
    let n = r.u32()?;
    if n > MAX_SNAP_PAYLOAD / 12 {
        return Err(CodecError::ImplausibleLength);
    }
    // Taking every pair's bytes first means a forged count fails as
    // `Truncated` before anything is allocated for it.
    let raw = r.bytes(n as usize * 12)?;
    Ok(WindowAccumulator::from_pairs(raw.chunks_exact(12).map(
        |p| {
            let w = u32::from_le_bytes([p[0], p[1], p[2], p[3]]);
            let c = u64::from_le_bytes([p[4], p[5], p[6], p[7], p[8], p[9], p[10], p[11]]);
            (w, c)
        },
    )))
}

/// Flag byte + (bitmap words, opaque sketch image) when present. Exact-mode
/// hosts write a single 0 byte, so snapshots taken without
/// `sketch_eps` differ from the pre-sketch format only by two zero bytes
/// per host.
fn encode_sketch(out: &mut Vec<u8>, acc: &Option<SketchAccumulator>) {
    match acc {
        None => out.push(0),
        Some(a) => {
            out.push(1);
            put_u32(out, a.seen_words().len() as u32);
            for &w in a.seen_words() {
                put_u64(out, w);
            }
            let img = a.sketch().to_bytes();
            put_u32(out, img.len() as u32);
            out.extend_from_slice(&img);
        }
    }
}

fn decode_sketch(r: &mut Reader<'_>) -> Result<Option<SketchAccumulator>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n_words = r.u32()?;
            if n_words > MAX_SNAP_PAYLOAD / 8 {
                return Err(CodecError::ImplausibleLength);
            }
            let mut seen = Vec::with_capacity(n_words as usize);
            for _ in 0..n_words {
                seen.push(r.u64()?);
            }
            let img_len = r.u32()?;
            if img_len > MAX_SNAP_PAYLOAD {
                return Err(CodecError::ImplausibleLength);
            }
            let img = r.bytes(img_len as usize)?;
            let sketch = KllSketch::from_bytes(img).map_err(|_| CodecError::BadDiscriminant)?;
            Ok(Some(SketchAccumulator::from_parts(seen, sketch)))
        }
        _ => Err(CodecError::BadDiscriminant),
    }
}

fn encode_host(out: &mut Vec<u8>, host: u32, st: &HostState) {
    put_u32(out, host);
    put_u64(out, st.last_seq);
    put_u64(out, st.live_alarms);
    match st.threshold {
        Some(t) => {
            out.push(1);
            put_f64(out, t);
        }
        None => out.push(0),
    }
    match st.promoted {
        Some((from, t)) => {
            out.push(1);
            put_u32(out, from);
            put_f64(out, t);
        }
        None => out.push(0),
    }
    match st.pinned {
        Some(t) => {
            out.push(1);
            put_f64(out, t);
        }
        None => out.push(0),
    }
    encode_accumulator(out, &st.train);
    encode_accumulator(out, &st.test);
    encode_sketch(out, &st.train_sketch);
    encode_sketch(out, &st.test_sketch);
}

/// Encode a framed snapshot image into `out`, replacing its contents.
///
/// This is the one `FSN1` encoder. It reads borrowed host state, so the
/// daemon checkpoints straight from its shard tables without cloning
/// them. `hosts` must come in ascending host order, the order
/// [`Snapshot::encode`] writes. Header and payload share one buffer: the
/// header's length and CRC (and the payload's host count) are patched in
/// once the payload is complete, so an `out` with enough capacity is
/// never reallocated.
pub(crate) fn encode_into<'a>(
    out: &mut Vec<u8>,
    seq: u64,
    n_windows: u32,
    hosts: impl IntoIterator<Item = (u32, &'a HostState)>,
    epoch: &EpochState,
    drained: &[u32],
) {
    out.clear();
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&[0; 8]);
    put_u64(out, seq);
    put_u32(out, n_windows);
    let count_at = out.len();
    put_u32(out, 0);
    let mut n_hosts = 0u32;
    for (host, st) in hosts {
        encode_host(out, host, st);
        n_hosts += 1;
    }
    out[count_at..count_at + 4].copy_from_slice(&n_hosts.to_le_bytes());
    encode_epoch(out, epoch);
    put_u32(out, drained.len() as u32);
    for &s in drained {
        put_u32(out, s);
    }
    let len = (out.len() - 12) as u32;
    let crc = crc32(&out[12..]);
    out[4..8].copy_from_slice(&len.to_le_bytes());
    out[8..12].copy_from_slice(&crc.to_le_bytes());
}

impl Snapshot {
    /// Serialise to the framed on-disk byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(
            &mut out,
            self.seq,
            self.n_windows,
            self.hosts.iter().map(|(&h, st)| (h, st)),
            &self.epoch,
            &self.drained,
        );
        out
    }

    /// Parse a framed snapshot, verifying magic, length and CRC first.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotDefect> {
        if bytes.len() < 12 {
            return Err(SnapshotDefect::ShortHeader);
        }
        if bytes[..4] != SNAP_MAGIC {
            return Err(SnapshotDefect::BadMagic);
        }
        let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if len > MAX_SNAP_PAYLOAD || bytes.len() != 12 + len as usize {
            return Err(SnapshotDefect::BadLength);
        }
        let crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let payload = &bytes[12..];
        if crc32(payload) != crc {
            return Err(SnapshotDefect::CrcMismatch);
        }
        Self::decode_payload(payload).map_err(SnapshotDefect::Undecodable)
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let n_windows = r.u32()?;
        let n_hosts = r.u32()?;
        if n_hosts > MAX_SNAP_PAYLOAD / 24 {
            return Err(CodecError::ImplausibleLength);
        }
        let mut hosts = BTreeMap::new();
        for _ in 0..n_hosts {
            let host = r.u32()?;
            let last_seq = r.u64()?;
            let live_alarms = r.u64()?;
            let threshold = match r.u8()? {
                0 => None,
                1 => Some(r.f64()?),
                _ => return Err(CodecError::BadDiscriminant),
            };
            let promoted = match r.u8()? {
                0 => None,
                1 => Some((r.u32()?, r.f64()?)),
                _ => return Err(CodecError::BadDiscriminant),
            };
            let pinned = match r.u8()? {
                0 => None,
                1 => Some(r.f64()?),
                _ => return Err(CodecError::BadDiscriminant),
            };
            let train = decode_accumulator(&mut r)?;
            let test = decode_accumulator(&mut r)?;
            let train_sketch = decode_sketch(&mut r)?;
            let test_sketch = decode_sketch(&mut r)?;
            hosts.insert(
                host,
                HostState {
                    last_seq,
                    train,
                    test,
                    train_sketch,
                    test_sketch,
                    threshold,
                    live_alarms,
                    promoted,
                    pinned,
                },
            );
        }
        let epoch = decode_epoch(&mut r)?;
        let n_drained = r.u32()?;
        if n_drained > MAX_SNAP_PAYLOAD / 4 {
            return Err(CodecError::ImplausibleLength);
        }
        let mut drained = Vec::with_capacity(n_drained as usize);
        for _ in 0..n_drained {
            drained.push(r.u32()?);
        }
        r.finish()?;
        Ok(Self {
            seq,
            n_windows,
            hosts,
            epoch,
            drained,
        })
    }
}

/// Filename for snapshot `seq` inside the daemon directory.
pub fn snapshot_filename(seq: u64) -> String {
    format!("snap-{seq:012}.bin")
}

fn parse_snapshot_filename(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("snap-")?.strip_suffix(".bin")?;
    if rest.len() != 12 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Snapshot files present in `dir`, newest first.
pub fn list_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(parse_snapshot_filename) {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(found)
}

/// Atomically install the encoded image of snapshot `seq` in `dir`
/// (tmp + rename), then prune so only the two newest remain. Returns the
/// installed path.
pub fn write_snapshot(dir: &Path, seq: u64, image: &[u8]) -> std::io::Result<PathBuf> {
    let tmp = dir.join("snap.tmp");
    fs::write(&tmp, image)?;
    let path = dir.join(snapshot_filename(seq));
    fs::rename(&tmp, &path)?;
    for (_, old_path) in list_snapshots(dir)?.into_iter().skip(2) {
        fs::remove_file(old_path)?;
    }
    Ok(path)
}

/// Load the newest snapshot in `dir` that verifies, counting how many
/// newer-but-damaged images were skipped. `Ok(None)` means no snapshot
/// exists at all (cold start).
pub fn load_latest(dir: &Path) -> std::io::Result<(Option<Snapshot>, u32)> {
    let mut discarded = 0u32;
    for (_, path) in list_snapshots(dir)? {
        let bytes = fs::read(&path)?;
        match Snapshot::decode(&bytes) {
            Ok(snap) => return Ok((Some(snap), discarded)),
            Err(_) => discarded += 1,
        }
    }
    Ok((None, discarded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{CandidateState, EpochOutcome, EpochRecord, GateStats};

    fn sample() -> Snapshot {
        let mut hosts = BTreeMap::new();
        let mut train = WindowAccumulator::new();
        train.insert(0, 4);
        train.insert(5, 9);
        let mut test = WindowAccumulator::new();
        test.insert(2, 100);
        hosts.insert(
            3,
            HostState {
                last_seq: 11,
                train,
                test,
                threshold: Some(8.5),
                live_alarms: 1,
                promoted: Some((300, 12.25)),
                pinned: Some(5.75),
                ..Default::default()
            },
        );
        hosts.insert(
            9,
            HostState {
                last_seq: 2,
                threshold: None,
                ..Default::default()
            },
        );
        // A sketch-mode host: its accumulators are bounded sketches.
        let mut train_sk = SketchAccumulator::new(0.01);
        train_sk.insert(0, 7);
        train_sk.insert(41, 3);
        let mut test_sk = SketchAccumulator::new(0.01);
        test_sk.insert(650, 99);
        hosts.insert(
            12,
            HostState {
                last_seq: 5,
                threshold: Some(6.0),
                live_alarms: 1,
                train_sketch: Some(train_sk),
                test_sketch: Some(test_sk),
                ..Default::default()
            },
        );
        let mut thresholds = BTreeMap::new();
        thresholds.insert(3, 12.25);
        let epoch = EpochState {
            last_epoch: 2,
            candidate: Some(CandidateState {
                epoch: 2,
                soak_start: 200,
                soak_end: 300,
                thresholds,
                expected_windows: 100,
                stats: GateStats {
                    windows: 40,
                    incumbent_alarms: 3,
                    candidate_alarms: 2,
                    sheds: 1,
                },
            }),
            history: vec![EpochRecord {
                epoch: 1,
                outcome: EpochOutcome::Promoted,
                stats: GateStats::default(),
                expected_windows: 50,
            }],
        };
        Snapshot {
            seq: 7,
            n_windows: 672,
            hosts,
            epoch,
            drained: vec![0, 2],
        }
    }

    /// A fleet of sketch-mode hosts with enough windows per week that
    /// every sketch compacts at least once.
    fn sketch_sample() -> Snapshot {
        let mut hosts = BTreeMap::new();
        for host in [1u32, 4, 7] {
            let mut train = SketchAccumulator::new(0.05);
            let mut test = SketchAccumulator::new(0.05);
            for w in 0..672u32 {
                let c = u64::from((w * 31 + host * 7) % 97);
                train.insert(w, c);
                if w % 3 != 0 {
                    test.insert(w, c * 2 + u64::from(host));
                }
            }
            hosts.insert(
                host,
                HostState {
                    last_seq: u64::from(host) * 10,
                    threshold: Some(f64::from(host) + 0.5),
                    train_sketch: Some(train),
                    test_sketch: Some(test),
                    ..Default::default()
                },
            );
        }
        Snapshot {
            seq: 3,
            n_windows: 672,
            hosts,
            epoch: EpochState::default(),
            drained: vec![1],
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn encoded_bytes_match_pinned_fingerprints() {
        // Pinned from the original clone-then-encode writer with the
        // bytewise CRC: any change to the FSN1 layout or to a CRC value
        // moves one of these.
        let exact = sample().encode();
        let sketch = sketch_sample().encode();
        assert_eq!((exact.len(), fnv1a(&exact)), (647, 0x453d_01fc_76c6_362b));
        assert_eq!(
            (sketch.len(), fnv1a(&sketch)),
            (9288, 0xfb7d_e5ca_3251_dc76)
        );
    }

    fn tmpdir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "fleetd-snap-{}-{}-{}",
            tag,
            std::process::id(),
            n
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_roundtrips() {
        let s = sample();
        assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Snapshot::decode(&bad).is_err(),
                "flip at byte {i} must not verify"
            );
        }
    }

    #[test]
    fn keeps_only_two_newest_and_loads_latest_valid() {
        let dir = tmpdir("prune");
        for seq in 1..=4 {
            let snap = Snapshot { seq, ..sample() };
            write_snapshot(&dir, seq, &snap.encode()).unwrap();
        }
        let listed = list_snapshots(&dir).unwrap();
        assert_eq!(
            listed.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![4, 3]
        );
        // Damage the newest: recovery must fall back to seq 3 and report
        // one discarded image.
        let newest = &listed[0].1;
        let mut bytes = fs::read(newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(newest, &bytes).unwrap();
        let (loaded, discarded) = load_latest(&dir).unwrap();
        assert_eq!(loaded.unwrap().seq, 3);
        assert_eq!(discarded, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cold_start_is_none_not_error() {
        let dir = tmpdir("cold");
        let (loaded, discarded) = load_latest(&dir).unwrap();
        assert!(loaded.is_none());
        assert_eq!(discarded, 0);
        // Stray files that merely look snapshot-ish are ignored.
        fs::write(dir.join("snap-xyz.bin"), b"junk").unwrap();
        fs::write(dir.join("wal.bin"), b"junk").unwrap();
        let (loaded, discarded) = load_latest(&dir).unwrap();
        assert!(loaded.is_none());
        assert_eq!(discarded, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
