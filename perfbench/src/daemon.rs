//! `daemon-stream` and `daemon-recover`: the admit → apply → WAL →
//! checkpoint path of `fleetd`, and recovery of what it wrote.
//!
//! Delivery is stop-and-wait per host, like `experiments::daemon`: at
//! most one batch per host is outstanding, a busy shard is not offered to,
//! and every round is `offer`s → one `tick` → `take_completions`. There is
//! no delivery link, fault or kill, so every batch must complete `Applied`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fleetd::snapshot::{list_snapshots, snapshot_filename};
use fleetd::{Admit, Daemon, DaemonConfig, Disposition, HostState, KillSwitch, Week, WindowBatch};
use flowtab::FeatureKind;

use crate::{corpus, fnv, quantile_u64, PassOut, Pieces, Spec, Tracer, Workload, FNV_BASIS};

/// `daemon-stream` description.
pub const STREAM_SPEC: Spec = Spec {
    name: "daemon-stream",
    default_seed: 0xC0FFEE,
    held_out_seed: 9001,
    op: "batch",
    throughput: ("daemon_batches_per_s", "batches/s"),
    latency: "ack",
};

/// `daemon-recover` description.
pub const RECOVER_SPEC: Spec = Spec {
    name: "daemon-recover",
    default_seed: 0xC0FFEE,
    held_out_seed: 9002,
    op: "open",
    throughput: ("recover_opens_per_s", "opens/s"),
    latency: "recover",
};

/// Paper population.
pub const USERS: usize = 350;
/// Windows per batch: 672 / 96 = 7 batches per host-week, 4,900 in all.
pub const BATCH_WINDOWS: usize = 96;
/// Feature streamed to the daemon.
pub const FEATURE: FeatureKind = FeatureKind::TcpConnections;
/// Timed reopens after each `daemon-stream` pass.
const STREAM_REOPENS: usize = 3;
/// Timed reopens per `daemon-recover` pass.
const RECOVER_REOPENS: usize = 40;
/// Safety valve on delivery rounds.
const MAX_ROUNDS: u64 = 1_000_000;

/// Per-host batch lists: training week then test week, `batch_windows`
/// wide, per-host sequence numbers from 1 (the stream
/// `experiments::daemon::build_batches` interleaves round-robin).
pub fn batches_by_host(
    weeks: &[Vec<flowtab::FeatureSeries>],
    batch_windows: usize,
) -> Vec<Vec<WindowBatch>> {
    weeks
        .iter()
        .enumerate()
        .map(|(host, series)| {
            let mut seq = 0;
            let mut out = Vec::new();
            for (week_idx, week) in [Week::Train, Week::Test].into_iter().enumerate() {
                let counts = series[week_idx].feature(FEATURE);
                for start in (0..counts.len()).step_by(batch_windows) {
                    let end = (start + batch_windows).min(counts.len());
                    seq += 1;
                    out.push(WindowBatch {
                        host: host as u32,
                        seq,
                        week,
                        start: start as u32,
                        counts: counts[start..end].to_vec(),
                        poison: false,
                    });
                }
            }
            out
        })
        .collect()
}

/// What one stream measured.
#[derive(Debug, Default)]
pub struct StreamOut {
    /// Final host table, ordered by host id.
    pub hosts: Vec<(u32, HostState)>,
    /// Batches offered to the stream.
    pub batches: u64,
    /// Completions that were `Applied`.
    pub applied: u64,
    /// Batches that did not complete as `Applied`.
    pub failed: u64,
    /// Wall seconds from the first offer to the last completion.
    pub wall_s: f64,
    /// Wall milliseconds of each round, offers through tick; they sum to
    /// `wall_s`.
    pub round_ms: Vec<f64>,
    /// Admitting offer → end of the tick that emitted its completion.
    pub ack_ms: Vec<f64>,
    /// Per-layer counts.
    pub counts: Vec<(&'static str, u64)>,
    /// Failed checks.
    pub problems: Vec<String>,
}

/// Newest snapshot file size in `dir` (0 when there is none).
fn newest_snapshot_bytes(dir: &Path) -> u64 {
    list_snapshots(dir)
        .ok()
        .and_then(|v| v.into_iter().max_by_key(|(seq, _)| *seq))
        .and_then(|(_, p)| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len())
}

/// Stream every batch through a daemon opened on the empty directory
/// `dir`, stop-and-wait per host, and drop the daemon without a checkpoint.
pub fn stream(
    dir: &Path,
    cfg: DaemonConfig,
    by_host: &[Vec<WindowBatch>],
    tr: &mut Tracer,
) -> StreamOut {
    let mut out = StreamOut::default();
    let mut daemon = match Daemon::open(dir, cfg) {
        Ok((d, _)) => d,
        Err(e) => {
            out.problems.push(format!("open {}: {e}", dir.display()));
            return out;
        }
    };
    let mut kill = KillSwitch::none();
    let n = by_host.len();
    let total: u64 = by_host.iter().map(|b| b.len() as u64).sum();
    out.batches = total;
    let mut cursor = vec![0usize; n];
    let mut in_flight = vec![false; n];
    let mut offered_at = vec![Instant::now(); n];
    let mut offered_tick = vec![0u64; n];
    let mut wait_ticks: Vec<u64> = Vec::with_capacity(total as usize);
    out.ack_ms.reserve(total as usize);
    let (mut offers, mut refused, mut ticks, mut snapshots, mut snapshot_bytes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut remaining = total;
    let mut rounds = 0u64;
    let first_offer = Instant::now();
    let mut last_completion = first_offer;
    let mut round_start = first_offer;

    while remaining > 0 {
        rounds += 1;
        if rounds > MAX_ROUNDS {
            out.problems
                .push(format!("stream stalled with {remaining} batches open"));
            break;
        }
        for h in 0..n {
            if in_flight[h] || cursor[h] >= by_host[h].len() || daemon.shard_busy(h as u32) {
                continue;
            }
            let batch = by_host[h][cursor[h]].clone();
            let t = Instant::now();
            let admit = daemon.offer(batch);
            if tr.enabled() {
                tr.record("fleetd.offer", ["", ""], t, Instant::now());
            }
            offers += 1;
            if admit == Admit::Overflow {
                refused += 1;
                continue;
            }
            in_flight[h] = true;
            offered_at[h] = t;
            offered_tick[h] = daemon.now();
        }

        let before = daemon.stats().snapshots_written;
        let t = tr.begin();
        let ticked = daemon.tick(&mut kill);
        let done = Instant::now();
        let snapshot = daemon.stats().snapshots_written > before;
        out.round_ms
            .push(done.duration_since(round_start).as_secs_f64() * 1e3);
        round_start = done;
        if let Some(t) = t {
            tr.record(
                if snapshot {
                    "fleetd.snapshot"
                } else {
                    "fleetd.tick"
                },
                ["", ""],
                t,
                done,
            );
        }
        if snapshot {
            snapshots += 1;
            snapshot_bytes += newest_snapshot_bytes(dir);
        } else {
            ticks += 1;
        }
        if let Err(e) = ticked {
            out.problems.push(format!("tick: {e}"));
            break;
        }
        for c in daemon.take_completions() {
            let h = c.host as usize;
            if h >= n || !in_flight[h] || by_host[h][cursor[h]].seq != c.seq {
                out.problems.push(format!(
                    "unexpected completion host {} seq {}",
                    c.host, c.seq
                ));
                continue;
            }
            if c.disposition == Disposition::Applied {
                out.applied += 1;
            } else {
                out.failed += 1;
            }
            out.ack_ms
                .push(done.duration_since(offered_at[h]).as_secs_f64() * 1e3);
            wait_ticks.push(daemon.now() - offered_tick[h]);
            cursor[h] += 1;
            in_flight[h] = false;
            remaining -= 1;
            last_completion = done;
        }
    }
    out.wall_s = last_completion.duration_since(first_offer).as_secs_f64();
    out.failed += remaining;

    let stats = *daemon.stats();
    if !stats.conservation_holds(daemon.queued_total()) {
        out.problems.push(format!(
            "conservation violated: admitted {} != accounted {}",
            stats.admitted,
            stats.accounted()
        ));
    }
    out.hosts = daemon
        .hosts()
        .into_iter()
        .map(|(h, s)| (h, s.clone()))
        .collect();
    let windows = cfg.n_windows as usize;
    if out.hosts.len() != n {
        out.problems.push(format!(
            "{} of {n} hosts in the final table",
            out.hosts.len()
        ));
    }
    for (h, st) in &out.hosts {
        if st.train.len() != windows || st.test.len() != windows || st.threshold.is_none() {
            out.problems.push(format!(
                "host {h}: {} train / {} test windows, threshold {:?}",
                st.train.len(),
                st.test.len(),
                st.threshold
            ));
            break;
        }
    }
    out.counts = vec![
        ("fleetd.offer.calls", offers),
        ("fleetd.offer.refused", refused),
        ("fleetd.tick.calls", ticks),
        ("fleetd.snapshot.count", snapshots),
        ("fleetd.snapshot.bytes", snapshot_bytes),
        ("fleetd.wal.bytes", kill.wal_bytes()),
        (
            "fleetd.queue.wait_ticks_p50",
            quantile_u64(&wait_ticks, 0.50),
        ),
        (
            "fleetd.queue.wait_ticks_p99",
            quantile_u64(&wait_ticks, 0.99),
        ),
    ];
    out
}

/// What repeated reopening measured.
#[derive(Debug, Default)]
pub struct ReopenOut {
    /// Milliseconds per `Daemon::open`.
    pub open_ms: Vec<f64>,
    /// Opens whose recovered host table differed from `expect`.
    pub mismatched: u64,
    /// Per-layer counts (from the first open; every open reads the same).
    pub counts: Vec<(&'static str, u64)>,
    /// Failed checks.
    pub problems: Vec<String>,
}

/// Open the daemon on `dir` `times` times, checking each recovered host
/// table against `expect`. Only the `open` call is timed.
pub fn reopen(
    dir: &Path,
    cfg: DaemonConfig,
    expect: &[(u32, HostState)],
    times: usize,
    tr: &mut Tracer,
) -> ReopenOut {
    let mut out = ReopenOut::default();
    for _ in 0..times {
        let t = Instant::now();
        let opened = Daemon::open(dir, cfg);
        let done = Instant::now();
        tr.record("fleetd.recover", ["", ""], t, done);
        let (daemon, rec) = match opened {
            Ok(x) => x,
            Err(e) => {
                out.problems.push(format!("reopen: {e}"));
                return out;
            }
        };
        out.open_ms.push(done.duration_since(t).as_secs_f64() * 1e3);
        let got = daemon.hosts();
        let same = got.len() == expect.len()
            && got
                .into_iter()
                .zip(expect)
                .all(|((h, s), (eh, es))| h == *eh && s == es);
        if !same {
            out.mismatched += 1;
        }
        if out.counts.is_empty() {
            let snap_bytes = rec
                .snapshot_seq
                .and_then(|seq| std::fs::metadata(dir.join(snapshot_filename(seq))).ok())
                .map_or(0, |m| m.len());
            out.counts = vec![
                ("fleetd.recover.wal_replayed", rec.wal_replayed),
                ("fleetd.recover.snapshot_bytes", snap_bytes),
            ];
        }
    }
    if out.mismatched > 0 {
        out.problems.push(format!(
            "{} of {times} reopens recovered a different host table",
            out.mismatched
        ));
    }
    out
}

/// A fresh run directory under `.bench_tmp/` in the working directory.
pub fn run_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(".bench_tmp").join(format!("{tag}-{}-{n}", std::process::id()))
}

/// Generate the corpus and its batch stream, timed as set-up.
fn inputs(seed: u64, tr: &mut Tracer) -> (Vec<Vec<WindowBatch>>, f64) {
    let t = Instant::now();
    let weeks = tr.span("synthgen.corpus", || corpus(seed, USERS, 2));
    let by_host = batches_by_host(&weeks, BATCH_WINDOWS);
    (by_host, t.elapsed().as_secs_f64())
}

/// Fingerprint of a host table (floats print shortest-roundtrip, so equal
/// text means bit-equal values).
pub fn hosts_digest(hosts: &[(u32, HostState)]) -> u64 {
    fnv(FNV_BASIS, format!("{hosts:?}").as_bytes())
}

/// The `daemon-stream` workload.
pub struct Stream {
    seed: u64,
}

impl Stream {
    /// Workload for `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Workload for Stream {
    fn pass(&mut self, tr: &mut Tracer) -> PassOut {
        let (by_host, setup_s) = inputs(self.seed, tr);
        let dir = run_dir("daemon-stream");
        let cfg = DaemonConfig::default();
        let s = stream(&dir, cfg, &by_host, tr);
        let r = reopen(&dir, cfg, &s.hosts, STREAM_REOPENS, tr);
        let _ = std::fs::remove_dir_all(&dir);
        let mut counts = s.counts;
        counts.extend(r.counts);
        let mut problems = s.problems;
        problems.extend(r.problems);
        PassOut {
            ops: s.batches,
            failed: s.failed,
            setup_s,
            system_s: s.wall_s,
            work: s.applied as f64,
            latencies_ms: s.ack_ms,
            extra_ms: r.open_ms,
            pieces: Pieces::Own(s.round_ms),
            counts,
            digest: hosts_digest(&s.hosts),
            problems,
            ..PassOut::default()
        }
    }
}

/// The `daemon-recover` workload: the stream is set-up, the reopens are
/// the system under test.
pub struct Recover {
    seed: u64,
}

impl Recover {
    /// Workload for `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Workload for Recover {
    fn pass(&mut self, tr: &mut Tracer) -> PassOut {
        let t = Instant::now();
        let (by_host, _) = inputs(self.seed, tr);
        let dir = run_dir("daemon-recover");
        let cfg = DaemonConfig::default();
        // The stream writes the directory recovery reads; it is input here.
        let traced = tr.enabled();
        tr.set_enabled(false);
        let s = stream(&dir, cfg, &by_host, tr);
        tr.set_enabled(traced);
        // Finish the stream's writeback now, so it cannot overlap the opens.
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            if let Ok(f) = std::fs::File::open(entry.path()) {
                let _ = f.sync_all();
            }
        }
        let setup_s = t.elapsed().as_secs_f64();
        let r = reopen(&dir, cfg, &s.hosts, RECOVER_REOPENS, tr);
        let _ = std::fs::remove_dir_all(&dir);
        let mut problems = s.problems;
        if s.failed > 0 {
            problems.push(format!(
                "{} batches did not apply while preparing the directory",
                s.failed
            ));
        }
        problems.extend(r.problems);
        PassOut {
            ops: RECOVER_REOPENS as u64,
            failed: r.mismatched + (RECOVER_REOPENS - r.open_ms.len()) as u64,
            setup_s,
            system_s: r.open_ms.iter().sum::<f64>() * 1e-3,
            work: r.open_ms.len() as f64,
            pieces: Pieces::Latencies,
            latencies_ms: r.open_ms,
            counts: r.counts,
            digest: hosts_digest(&s.hosts),
            problems,
            ..PassOut::default()
        }
    }
}
