//! Checkpointing: CRC-framed images of the daemon's state that bound WAL
//! replay time.
//!
//! A checkpoint is one of two kinds of file, both framed the same way:
//!
//! ```text
//! magic (4B) | payload_len u32 LE | crc32(payload) u32 LE | payload
//! ```
//!
//! * a **base** (`"FSN1"`, `snap-<seq>.bin`): the complete sharded host
//!   table (sequence numbers, train/test accumulators, fitted
//!   thresholds, live alarm counts, sketches), the rollout epoch state,
//!   the drained shards, and the checkpoint's own sequence number;
//! * a **delta** (`"FSD1"`, `delta-<seq>.bin`): what changed since the
//!   checkpoint before it. It names its base and its predecessor, and
//!   holds the window pairs inserted since the predecessor, every host's
//!   scalar fields, the full image of each sketch an apply touched, and
//!   the epoch state and drained set. A host record has the base's
//!   layout; its accumulators hold only the new pairs, and a sketch flag
//!   of 0 means "unchanged" rather than "none".
//!
//! Checkpoints share one monotone sequence, so a base and the deltas that
//! follow it form a chain `snap-b, delta-b+1, delta-b+2, …`. Every file
//! is installed atomically — the image goes to a temp file, then a rename
//! installs it — so a crash mid-write leaves either the old checkpoints
//! or the new one, never a half-written one. Installing a base prunes
//! everything older than the second-newest base, so two chains remain.
//!
//! Recovery loads the newest base that verifies (counting newer damaged
//! ones as discarded), then walks the deltas between it and the next base
//! file in sequence order. A damaged delta, or one that does not extend
//! the chain, ends it and is counted as discarded with every delta after
//! it. Each host's accumulator is then built once from its base pairs
//! followed by its delta pairs; first-write-wins makes that the live
//! state. A valid checkpoint makes every WAL frame written before it
//! redundant, so the daemon truncates the log right after an install.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use hids_core::{SketchAccumulator, WindowAccumulator};
use tailstats::KllSketch;

use crate::codec::{crc32, put_f64, put_u32, put_u64, CodecError, Reader, Week};
use crate::epoch::{decode_epoch, encode_epoch, EpochState};
use crate::state::{HostState, Journal};

/// Base checkpoint file magic: "FSN1".
pub const SNAP_MAGIC: [u8; 4] = *b"FSN1";
/// Delta checkpoint file magic: "FSD1".
pub const DELTA_MAGIC: [u8; 4] = *b"FSD1";
/// Sanity bound on a checkpoint payload (1 GiB).
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

/// A decoded delta checkpoint: the changes since checkpoint `prev_seq`
/// of the chain based on snapshot `base_seq`.
#[derive(Debug, Default, PartialEq)]
pub struct Delta {
    /// This checkpoint's sequence number (also in the filename).
    pub seq: u64,
    /// Sequence number of the base snapshot the chain starts from.
    pub base_seq: u64,
    /// Sequence number of the checkpoint this one extends (the base for
    /// the first delta of a chain).
    pub prev_seq: u64,
    /// Windows per week, as in [`Snapshot::n_windows`].
    pub n_windows: u32,
    /// Every host's scalar fields as of this checkpoint. `train`/`test`
    /// hold only the windows inserted since `prev_seq`, and a sketch is
    /// `Some` only when an apply touched it since then.
    pub hosts: BTreeMap<u32, HostState>,
    /// Rollout lifecycle state as of this checkpoint.
    pub epoch: EpochState,
    /// Drained shards as of this checkpoint.
    pub drained: Vec<u32>,
}

/// Why a checkpoint file was rejected during recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotDefect {
    /// File shorter than the fixed header.
    ShortHeader,
    /// Magic was not the expected [`SNAP_MAGIC`] or [`DELTA_MAGIC`].
    BadMagic,
    /// Declared payload length exceeds [`MAX_SNAP_PAYLOAD`] or the file.
    BadLength,
    /// CRC over the payload did not match.
    CrcMismatch,
    /// Payload failed structural decode.
    Undecodable(CodecError),
}

/// Count + `(window u32, count u64)` pairs. The count is patched in after
/// the pairs, so any iterator will do.
fn encode_pairs(out: &mut Vec<u8>, pairs: impl IntoIterator<Item = (u32, u64)>) {
    let at = out.len();
    put_u32(out, 0);
    let mut n = 0u32;
    for (w, c) in pairs {
        put_u32(out, w);
        put_u64(out, c);
        n += 1;
    }
    out[at..at + 4].copy_from_slice(&n.to_le_bytes());
}

/// The pairs of an accumulator as they lie in the file: 12 bytes each,
/// left undecoded so recovery can build one accumulator from a whole
/// chain.
fn decode_pairs<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], CodecError> {
    let n = r.u32()?;
    if n > MAX_SNAP_PAYLOAD / 12 {
        return Err(CodecError::ImplausibleLength);
    }
    // Taking every pair's bytes first means a forged count fails as
    // `Truncated` before anything is allocated for it.
    r.bytes(n as usize * 12)
}

fn pairs(raw: &[u8]) -> impl Iterator<Item = (u32, u64)> + '_ {
    raw.chunks_exact(12).map(|p| {
        let w = u32::from_le_bytes([p[0], p[1], p[2], p[3]]);
        let c = u64::from_le_bytes([p[4], p[5], p[6], p[7], p[8], p[9], p[10], p[11]]);
        (w, c)
    })
}

/// Flag byte + (bitmap words, opaque sketch image) when present. Exact-mode
/// hosts write a single 0 byte, so snapshots taken without
/// `sketch_eps` differ from the pre-sketch format only by two zero bytes
/// per host.
fn encode_sketch(out: &mut Vec<u8>, acc: Option<&SketchAccumulator>) {
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

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(t) => {
            out.push(1);
            put_f64(out, t);
        }
        None => out.push(0),
    }
}

/// One host record: scalar fields, training and test pairs, training and
/// test sketches. Bases and deltas share this layout.
fn encode_host(
    out: &mut Vec<u8>,
    host: u32,
    st: &HostState,
    train: impl IntoIterator<Item = (u32, u64)>,
    test: impl IntoIterator<Item = (u32, u64)>,
    train_sketch: Option<&SketchAccumulator>,
    test_sketch: Option<&SketchAccumulator>,
) {
    put_u32(out, host);
    put_u64(out, st.last_seq);
    put_u64(out, st.live_alarms);
    put_opt_f64(out, st.threshold);
    match st.promoted {
        Some((from, t)) => {
            out.push(1);
            put_u32(out, from);
            put_f64(out, t);
        }
        None => out.push(0),
    }
    put_opt_f64(out, st.pinned);
    encode_pairs(out, train);
    encode_pairs(out, test);
    encode_sketch(out, train_sketch);
    encode_sketch(out, test_sketch);
}

/// A host's full record, as a base (or [`Delta::encode`]) writes it.
fn encode_whole_host(out: &mut Vec<u8>, host: u32, st: &HostState) {
    encode_host(
        out,
        host,
        st,
        st.train.iter(),
        st.test.iter(),
        st.train_sketch.as_ref(),
        st.test_sketch.as_ref(),
    );
}

fn get_opt_f64(r: &mut Reader<'_>) -> Result<Option<f64>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.f64()?)),
        _ => Err(CodecError::BadDiscriminant),
    }
}

/// One host record as it lies in a checkpoint: scalars and sketches
/// decoded, window pairs still borrowed from the file. Sketches are boxed
/// so that a record stays small to move; exact-mode hosts have none.
struct HostRecord<'a> {
    host: u32,
    last_seq: u64,
    live_alarms: u64,
    threshold: Option<f64>,
    promoted: Option<(u32, f64)>,
    pinned: Option<f64>,
    train: &'a [u8],
    test: &'a [u8],
    train_sketch: Option<Box<SketchAccumulator>>,
    test_sketch: Option<Box<SketchAccumulator>>,
}

fn decode_host<'a>(r: &mut Reader<'a>) -> Result<HostRecord<'a>, CodecError> {
    let host = r.u32()?;
    let last_seq = r.u64()?;
    let live_alarms = r.u64()?;
    let threshold = get_opt_f64(r)?;
    let promoted = match r.u8()? {
        0 => None,
        1 => Some((r.u32()?, r.f64()?)),
        _ => return Err(CodecError::BadDiscriminant),
    };
    let pinned = get_opt_f64(r)?;
    Ok(HostRecord {
        host,
        last_seq,
        live_alarms,
        threshold,
        promoted,
        pinned,
        train: decode_pairs(r)?,
        test: decode_pairs(r)?,
        train_sketch: decode_sketch(r)?.map(Box::new),
        test_sketch: decode_sketch(r)?.map(Box::new),
    })
}

/// Start a frame in `out` (cleared): magic plus room for length and CRC.
fn begin_frame(out: &mut Vec<u8>, magic: [u8; 4]) {
    out.clear();
    out.extend_from_slice(&magic);
    out.extend_from_slice(&[0; 8]);
}

/// Patch the host count at `count_at`, append the epoch state and the
/// drained set, and seal the frame's length and CRC.
fn end_frame(out: &mut Vec<u8>, count_at: usize, n_hosts: u32, epoch: &EpochState, drained: &[u32]) {
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
    begin_frame(out, SNAP_MAGIC);
    put_u64(out, seq);
    put_u32(out, n_windows);
    let count_at = out.len();
    put_u32(out, 0);
    let mut n_hosts = 0u32;
    for (host, st) in hosts {
        encode_whole_host(out, host, st);
        n_hosts += 1;
    }
    end_frame(out, count_at, n_hosts, epoch, drained);
}

/// Where a delta sits in its chain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Link {
    /// The delta's own sequence number.
    pub(crate) seq: u64,
    /// The base snapshot the chain starts from.
    pub(crate) base_seq: u64,
    /// The checkpoint the delta extends.
    pub(crate) prev_seq: u64,
}

/// Start an `FSD1` frame in `out` (cleared) up to the host count, which
/// [`end_frame`] patches at the returned offset.
fn begin_delta(out: &mut Vec<u8>, link: Link, n_windows: u32) -> usize {
    begin_frame(out, DELTA_MAGIC);
    put_u64(out, link.seq);
    put_u64(out, link.base_seq);
    put_u64(out, link.prev_seq);
    put_u32(out, n_windows);
    let count_at = out.len();
    put_u32(out, 0);
    count_at
}

/// Encode a framed `FSD1` delta into `out`, replacing its contents: every
/// host's scalars, with the pairs and touched sketches its shard's sealed
/// journal names for it.
pub(crate) fn encode_delta_into<'a>(
    out: &mut Vec<u8>,
    link: Link,
    n_windows: u32,
    hosts: impl IntoIterator<Item = (u32, &'a HostState, &'a Journal)>,
    epoch: &EpochState,
    drained: &[u32],
) {
    let count_at = begin_delta(out, link, n_windows);
    let mut n_hosts = 0u32;
    for (host, st, journal) in hosts {
        let touched = |week, sk: &'a Option<SketchAccumulator>| {
            sk.as_ref().filter(|_| journal.touched(host, week))
        };
        encode_host(
            out,
            host,
            st,
            journal.pairs(host, Week::Train),
            journal.pairs(host, Week::Test),
            touched(Week::Train, &st.train_sketch),
            touched(Week::Test, &st.test_sketch),
        );
        n_hosts += 1;
    }
    end_frame(out, count_at, n_hosts, epoch, drained);
}

/// A checkpoint file's payload, parsed but not yet folded into host
/// state. A base has `base_seq == prev_seq == seq`.
struct Image<'a> {
    link: Link,
    n_windows: u32,
    hosts: Vec<HostRecord<'a>>,
    epoch: EpochState,
    drained: Vec<u32>,
}

/// Verify the frame (magic, length, CRC) and parse its payload.
fn parse_image(bytes: &[u8], magic: [u8; 4]) -> Result<Image<'_>, SnapshotDefect> {
    if bytes.len() < 12 {
        return Err(SnapshotDefect::ShortHeader);
    }
    if bytes[..4] != magic {
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
    parse_payload(payload, magic == DELTA_MAGIC).map_err(SnapshotDefect::Undecodable)
}

fn parse_payload(payload: &[u8], delta: bool) -> Result<Image<'_>, CodecError> {
    let mut r = Reader::new(payload);
    let seq = r.u64()?;
    let link = if delta {
        Link {
            seq,
            base_seq: r.u64()?,
            prev_seq: r.u64()?,
        }
    } else {
        Link {
            seq,
            base_seq: seq,
            prev_seq: seq,
        }
    };
    let n_windows = r.u32()?;
    let n_hosts = r.u32()?;
    if n_hosts > MAX_SNAP_PAYLOAD / 24 {
        return Err(CodecError::ImplausibleLength);
    }
    // A host record is at least 33 bytes, which bounds what a forged
    // count can reserve.
    let mut hosts = Vec::with_capacity((n_hosts as usize).min(r.remaining() / 33));
    for _ in 0..n_hosts {
        hosts.push(decode_host(&mut r)?);
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
    Ok(Image {
        link,
        n_windows,
        hosts,
        epoch,
        drained,
    })
}

/// Fold a base and the deltas that extend it, in order, into one
/// snapshot whose `seq` is the last link's. Scalars, sketches, epoch
/// state and drained set come from the newest link that carries them;
/// each accumulator is built once, from the pairs of every link in
/// order, so first-write-wins reproduces the live state.
fn fold(images: Vec<Image<'_>>) -> Snapshot {
    struct Pending<'a> {
        newest: HostRecord<'a>,
        train: Vec<&'a [u8]>,
        test: Vec<&'a [u8]>,
    }
    fn nonempty(raw: &[u8]) -> Option<&[u8]> {
        Some(raw).filter(|r| !r.is_empty())
    }
    let mut pending: BTreeMap<u32, Pending<'_>> = BTreeMap::new();
    let mut last = Snapshot::default();
    for img in images {
        for mut rec in img.hosts {
            match pending.entry(rec.host) {
                Entry::Vacant(v) => {
                    v.insert(Pending {
                        train: nonempty(rec.train).into_iter().collect(),
                        test: nonempty(rec.test).into_iter().collect(),
                        newest: rec,
                    });
                }
                Entry::Occupied(o) => {
                    let p = o.into_mut();
                    p.train.extend(nonempty(rec.train));
                    p.test.extend(nonempty(rec.test));
                    rec.train_sketch = rec.train_sketch.or(p.newest.train_sketch.take());
                    rec.test_sketch = rec.test_sketch.or(p.newest.test_sketch.take());
                    p.newest = rec;
                }
            }
        }
        last = Snapshot {
            seq: img.link.seq,
            n_windows: img.n_windows,
            hosts: BTreeMap::new(),
            epoch: img.epoch,
            drained: img.drained,
        };
    }
    let build = |raw: &[&[u8]]| {
        // Gathered into one exactly-sized buffer first: collecting a
        // chained iterator grows the buffer step by step, which costs
        // more than the accumulator build itself.
        let mut all = Vec::with_capacity(raw.iter().map(|r| r.len() / 12).sum());
        for r in raw {
            all.extend(pairs(r));
        }
        WindowAccumulator::from_pairs(all)
    };
    last.hosts = pending
        .into_iter()
        .map(|(host, p)| {
            let r = p.newest;
            let st = HostState {
                last_seq: r.last_seq,
                train: build(&p.train),
                test: build(&p.test),
                train_sketch: r.train_sketch.map(|b| *b),
                test_sketch: r.test_sketch.map(|b| *b),
                threshold: r.threshold,
                live_alarms: r.live_alarms,
                promoted: r.promoted,
                pinned: r.pinned,
            };
            (host, st)
        })
        .collect();
    last
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
        Ok(fold(vec![parse_image(bytes, SNAP_MAGIC)?]))
    }
}

impl Delta {
    /// Serialise to the framed on-disk byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let link = Link {
            seq: self.seq,
            base_seq: self.base_seq,
            prev_seq: self.prev_seq,
        };
        let count_at = begin_delta(&mut out, link, self.n_windows);
        for (&host, st) in &self.hosts {
            encode_whole_host(&mut out, host, st);
        }
        end_frame(&mut out, count_at, self.hosts.len() as u32, &self.epoch, &self.drained);
        out
    }

    /// Parse a framed delta, verifying magic, length and CRC first.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotDefect> {
        let img = parse_image(bytes, DELTA_MAGIC)?;
        let link = img.link;
        let snap = fold(vec![img]);
        Ok(Self {
            seq: link.seq,
            base_seq: link.base_seq,
            prev_seq: link.prev_seq,
            n_windows: snap.n_windows,
            hosts: snap.hosts,
            epoch: snap.epoch,
            drained: snap.drained,
        })
    }
}

/// Filename for snapshot `seq` inside the daemon directory.
pub fn snapshot_filename(seq: u64) -> String {
    format!("snap-{seq:012}.bin")
}

/// Filename for delta checkpoint `seq` inside the daemon directory.
pub(crate) fn delta_filename(seq: u64) -> String {
    format!("delta-{seq:012}.bin")
}

fn parse_filename(name: &str, prefix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_suffix(".bin")?;
    if rest.len() != 12 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Files in `dir` named `<prefix><12 digits>.bin`, ascending by number.
fn list_files(dir: &Path, prefix: &str) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(|n| parse_filename(n, prefix)) {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|&(seq, _)| seq);
    Ok(found)
}

/// Snapshot (base) files present in `dir`, newest first.
pub fn list_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = list_files(dir, "snap-")?;
    found.reverse();
    Ok(found)
}

/// Delta files present in `dir`, oldest first.
pub fn list_deltas(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    list_files(dir, "delta-")
}

/// Write `image` to `tmp`, then rename it to `name` in `dir`.
fn install(dir: &Path, tmp: &str, name: String, image: &[u8]) -> std::io::Result<PathBuf> {
    let tmp = dir.join(tmp);
    fs::write(&tmp, image)?;
    let path = dir.join(name);
    fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Atomically install the encoded image of snapshot `seq` in `dir`
/// (tmp + rename). Returns the installed path; `prune` then drops what
/// the new base made redundant.
pub fn write_snapshot(dir: &Path, seq: u64, image: &[u8]) -> std::io::Result<PathBuf> {
    install(dir, "snap.tmp", snapshot_filename(seq), image)
}

/// Delete every snapshot and delta older than the second-newest snapshot
/// in `dir`, so two chains remain.
pub(crate) fn prune(dir: &Path) -> std::io::Result<()> {
    let snaps = list_snapshots(dir)?;
    if let Some(&(keep_from, _)) = snaps.get(1) {
        for (_, old) in snaps.iter().skip(2) {
            fs::remove_file(old)?;
        }
        for (s, old) in list_deltas(dir)? {
            if s < keep_from {
                fs::remove_file(old)?;
            }
        }
    }
    Ok(())
}

/// Atomically install the encoded image of delta `seq` in `dir`.
pub(crate) fn write_delta(dir: &Path, seq: u64, image: &[u8]) -> std::io::Result<PathBuf> {
    install(dir, "delta.tmp", delta_filename(seq), image)
}

/// What [`load_latest`] found in a daemon directory.
#[derive(Debug, Default)]
pub struct Loaded {
    /// The newest valid snapshot folded with its chain of deltas; its
    /// `seq` is the last checkpoint applied. `None` is a cold start.
    pub snapshot: Option<Snapshot>,
    /// Sequence number of the snapshot (base) that was loaded.
    pub base_seq: Option<u64>,
    /// Newer-but-damaged snapshots skipped over.
    pub snapshots_discarded: u32,
    /// Deltas folded into the loaded snapshot.
    pub deltas_applied: u32,
    /// Deltas of the loaded snapshot's chain that were not applied: a
    /// damaged one or one that does not extend the chain, and every
    /// delta after it.
    pub deltas_discarded: u32,
    /// One past the highest checkpoint sequence number in the directory,
    /// so a new checkpoint never reuses a name.
    pub next_seq: u64,
}

/// Load the newest snapshot in `dir` that verifies, together with the
/// deltas that extend it, counting what was skipped.
pub fn load_latest(dir: &Path) -> std::io::Result<Loaded> {
    let snaps = list_snapshots(dir)?;
    let deltas = list_deltas(dir)?;
    let top = snaps.iter().chain(&deltas).map(|&(s, _)| s).max();
    let mut out = Loaded {
        next_seq: top.map_or(1, |s| s + 1),
        ..Loaded::default()
    };
    // The deltas of snapshot `s` lie between it and the next snapshot
    // file, damaged or not.
    let mut next_base = u64::MAX;
    for (seq, path) in &snaps {
        let base_bytes = fs::read(path)?;
        let Ok(base) = parse_image(&base_bytes, SNAP_MAGIC) else {
            out.snapshots_discarded += 1;
            next_base = *seq;
            continue;
        };
        let chain: Vec<Vec<u8>> = deltas
            .iter()
            .filter(|&&(s, _)| s > *seq && s < next_base)
            .map(|(_, p)| fs::read(p))
            .collect::<std::io::Result<_>>()?;
        let mut images = Vec::with_capacity(chain.len() + 1);
        let n_windows = base.n_windows;
        let mut prev = *seq;
        images.push(base);
        for bytes in &chain {
            match parse_image(bytes, DELTA_MAGIC) {
                Ok(d)
                    if out.deltas_discarded == 0
                        && d.link.base_seq == *seq
                        && d.link.prev_seq == prev
                        && d.n_windows == n_windows =>
                {
                    prev = d.link.seq;
                    out.deltas_applied += 1;
                    images.push(d);
                }
                _ => out.deltas_discarded += 1,
            }
        }
        out.base_seq = Some(*seq);
        out.snapshot = Some(fold(images));
        return Ok(out);
    }
    Ok(out)
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

    /// A delta onto `sample()`: host 3 gains two test windows (one of
    /// which the base already holds) and loses its pin, host 9 gains its
    /// first training windows, host 12's test sketch was touched, a new
    /// host 20 appears, and shard 2 was undrained.
    fn delta_sample() -> Delta {
        let base = sample();
        let mut hosts: BTreeMap<u32, HostState> = base
            .hosts
            .iter()
            .map(|(&h, st)| {
                let scalars = HostState {
                    train: WindowAccumulator::new(),
                    test: WindowAccumulator::new(),
                    train_sketch: None,
                    test_sketch: None,
                    ..st.clone()
                };
                (h, scalars)
            })
            .collect();
        let h3 = hosts.get_mut(&3).unwrap();
        h3.last_seq = 12;
        h3.live_alarms = 2;
        h3.pinned = None;
        h3.test.insert(2, 555);
        h3.test.insert(3, 7);
        let h9 = hosts.get_mut(&9).unwrap();
        h9.last_seq = 3;
        h9.train.insert(0, 1);
        h9.train.insert(1, 2);
        let mut test_sk = base.hosts[&12].test_sketch.clone().unwrap();
        test_sk.insert(651, 3);
        let h12 = hosts.get_mut(&12).unwrap();
        h12.last_seq = 6;
        h12.test_sketch = Some(test_sk);
        let mut train = WindowAccumulator::new();
        train.insert(4, 40);
        hosts.insert(
            20,
            HostState {
                last_seq: 1,
                train,
                ..Default::default()
            },
        );
        Delta {
            seq: 8,
            base_seq: 7,
            prev_seq: 7,
            n_windows: 672,
            hosts,
            epoch: base.epoch,
            drained: vec![0],
        }
    }

    #[test]
    fn delta_encoded_bytes_match_pinned_fingerprint() {
        // Recorded from the first FSD1 writer: any change to the delta
        // layout or to a CRC value moves it.
        let bytes = delta_sample().encode();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (595, 0xd856_7feb_102f_187d));
    }

    #[test]
    fn delta_roundtrips_and_magics_do_not_mix() {
        let d = delta_sample();
        let bytes = d.encode();
        assert_eq!(Delta::decode(&bytes).unwrap(), d);
        assert_eq!(Snapshot::decode(&bytes), Err(SnapshotDefect::BadMagic));
        assert_eq!(
            Delta::decode(&sample().encode()),
            Err(SnapshotDefect::BadMagic)
        );
    }

    #[test]
    fn any_single_byte_corruption_of_a_delta_is_detected() {
        let bytes = delta_sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(Delta::decode(&bad).is_err(), "flip at byte {i} must not verify");
        }
    }

    #[test]
    fn live_delta_encoder_writes_what_delta_encode_writes() {
        // The daemon encodes a delta from its full host table plus its
        // shards' journals; the result must be the canonical encoding of
        // the `Delta` the journal describes. Host 9's windows are left
        // out of the journal, which must read as "nothing changed".
        let d = delta_sample();
        let mut live = sample().hosts;
        let mut journal = Journal::default();
        for (&h, st) in d.hosts.iter().rev() {
            let base = live.entry(h).or_default();
            if h != 9 {
                for (week, acc) in [(Week::Test, &st.test), (Week::Train, &st.train)] {
                    journal.pairs.extend(acc.iter().map(|(w, c)| (h, week, w, c)));
                }
            }
            if st.test_sketch.is_some() {
                journal.sketches.extend([(h, Week::Test), (h, Week::Test)]);
            }
            *base = HostState {
                train: base.train.clone(),
                test: base.test.clone(),
                train_sketch: base.train_sketch.clone(),
                test_sketch: st.test_sketch.clone().or(base.test_sketch.clone()),
                ..st.clone()
            };
        }
        journal.seal();
        let mut out = Vec::new();
        let link = Link {
            seq: d.seq,
            base_seq: d.base_seq,
            prev_seq: d.prev_seq,
        };
        encode_delta_into(
            &mut out,
            link,
            d.n_windows,
            live.iter().map(|(&h, st)| (h, st, &journal)),
            &d.epoch,
            &d.drained,
        );
        let mut expect = d;
        let h9 = expect.hosts.get_mut(&9).unwrap();
        h9.train = WindowAccumulator::new();
        assert_eq!(Delta::decode(&out).unwrap(), expect);
        assert_eq!(expect.encode(), out);
    }

    /// What folding `delta_sample()` onto `sample()` must give.
    fn folded_sample() -> Snapshot {
        let base = sample();
        let d = delta_sample();
        let mut hosts = base.hosts;
        for (h, st) in d.hosts {
            let old = hosts.remove(&h).unwrap_or_default();
            let mut train = old.train;
            let mut test = old.test;
            train.merge(&st.train);
            test.merge(&st.test);
            hosts.insert(
                h,
                HostState {
                    train,
                    test,
                    train_sketch: st.train_sketch.or(old.train_sketch),
                    test_sketch: st.test_sketch.or(old.test_sketch),
                    ..st
                },
            );
        }
        Snapshot {
            seq: d.seq,
            n_windows: d.n_windows,
            hosts,
            epoch: d.epoch,
            drained: d.drained,
        }
    }

    #[test]
    fn chain_folds_base_pairs_first() {
        let dir = tmpdir("fold");
        write_snapshot(&dir, 7, &sample().encode()).unwrap();
        write_delta(&dir, 8, &delta_sample().encode()).unwrap();
        let loaded = load_latest(&dir).unwrap();
        assert_eq!((loaded.base_seq, loaded.deltas_applied), (Some(7), 1));
        let got = loaded.snapshot.unwrap();
        // Window 2 of host 3 keeps the base's count: first write wins.
        assert_eq!(got.hosts[&3].test.iter().collect::<Vec<_>>(), vec![(2, 100), (3, 7)]);
        assert_eq!(got, folded_sample());
        assert_eq!(loaded.next_seq, 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn delta_image(seq: u64, base_seq: u64, prev_seq: u64) -> Vec<u8> {
        Delta {
            seq,
            base_seq,
            prev_seq,
            ..delta_sample()
        }
        .encode()
    }

    fn seqs(found: Vec<(u64, PathBuf)>) -> Vec<u64> {
        found.into_iter().map(|(s, _)| s).collect()
    }

    #[test]
    fn a_new_base_prunes_all_but_two_chains() {
        let dir = tmpdir("chains");
        write_snapshot(&dir, 1, &Snapshot { seq: 1, ..sample() }.encode()).unwrap();
        write_delta(&dir, 2, &delta_image(2, 1, 1)).unwrap();
        write_delta(&dir, 3, &delta_image(3, 1, 2)).unwrap();
        write_snapshot(&dir, 4, &Snapshot { seq: 4, ..sample() }.encode()).unwrap();
        prune(&dir).unwrap();
        write_delta(&dir, 5, &delta_image(5, 4, 4)).unwrap();
        assert_eq!(seqs(list_snapshots(&dir).unwrap()), vec![4, 1]);
        assert_eq!(seqs(list_deltas(&dir).unwrap()), vec![2, 3, 5]);
        write_snapshot(&dir, 6, &Snapshot { seq: 6, ..sample() }.encode()).unwrap();
        prune(&dir).unwrap();
        write_delta(&dir, 7, &delta_image(7, 6, 6)).unwrap();
        assert_eq!(seqs(list_snapshots(&dir).unwrap()), vec![6, 4]);
        assert_eq!(seqs(list_deltas(&dir).unwrap()), vec![5, 7]);
        let loaded = load_latest(&dir).unwrap();
        assert_eq!((loaded.base_seq, loaded.deltas_applied), (Some(6), 1));
        assert_eq!(loaded.snapshot.unwrap().seq, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_damaged_or_missing_delta_ends_its_chain() {
        let dir = tmpdir("damaged-delta");
        write_snapshot(&dir, 7, &sample().encode()).unwrap();
        write_delta(&dir, 8, &delta_sample().encode()).unwrap();
        write_delta(&dir, 9, &delta_image(9, 7, 8)).unwrap();
        write_delta(&dir, 10, &delta_image(10, 7, 9)).unwrap();
        let intact = load_latest(&dir).unwrap();
        assert_eq!((intact.deltas_applied, intact.deltas_discarded), (3, 0));

        // Damage the middle one: it and the one after it are left out.
        let path = dir.join(delta_filename(9));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let loaded = load_latest(&dir).unwrap();
        assert_eq!((loaded.deltas_applied, loaded.deltas_discarded), (1, 2));
        assert_eq!(loaded.snapshots_discarded, 0);
        assert_eq!(loaded.snapshot.unwrap(), folded_sample());
        assert_eq!(loaded.next_seq, 11);

        // A missing one breaks the chain the same way.
        fs::remove_file(&path).unwrap();
        let loaded = load_latest(&dir).unwrap();
        assert_eq!((loaded.deltas_applied, loaded.deltas_discarded), (1, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deltas_of_a_damaged_base_are_ignored() {
        let dir = tmpdir("damaged-base");
        write_snapshot(&dir, 7, &sample().encode()).unwrap();
        write_delta(&dir, 8, &delta_sample().encode()).unwrap();
        write_snapshot(&dir, 9, &Snapshot { seq: 9, ..sample() }.encode()).unwrap();
        write_delta(&dir, 10, &delta_image(10, 9, 9)).unwrap();
        let path = dir.join(snapshot_filename(9));
        let mut bytes = fs::read(&path).unwrap();
        bytes[20] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let loaded = load_latest(&dir).unwrap();
        assert_eq!(loaded.snapshots_discarded, 1);
        assert_eq!((loaded.deltas_applied, loaded.deltas_discarded), (1, 0));
        assert_eq!(loaded.snapshot.unwrap(), folded_sample());
        fs::remove_dir_all(&dir).unwrap();
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
            prune(&dir).unwrap();
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
        let loaded = load_latest(&dir).unwrap();
        assert_eq!(loaded.snapshot.unwrap().seq, 3);
        assert_eq!(loaded.snapshots_discarded, 1);
        assert_eq!(loaded.next_seq, 5, "a damaged file's name is never reused");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cold_start_is_none_not_error() {
        let dir = tmpdir("cold");
        let loaded = load_latest(&dir).unwrap();
        assert!(loaded.snapshot.is_none());
        assert_eq!(loaded.snapshots_discarded, 0);
        assert_eq!(loaded.next_seq, 1);
        // Stray files that merely look snapshot-ish are ignored.
        fs::write(dir.join("snap-xyz.bin"), b"junk").unwrap();
        fs::write(dir.join("wal.bin"), b"junk").unwrap();
        let loaded = load_latest(&dir).unwrap();
        assert!(loaded.snapshot.is_none());
        assert_eq!(loaded.snapshots_discarded, 0);
        assert_eq!(loaded.next_seq, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
