//! `packet-path`: pcap bytes → frames → flows → per-window features →
//! hardened wire round trip → grouping sweep.
//!
//! Per user-week, the capture is rendered in set-up and dropped as soon as
//! it is read. System time is the sum of the timed calls: `netpkt` read,
//! `flowtab` extraction and feature counting, `fleetd::ingest` encode and
//! decode, and the `hids-core` dataset fit and policy evaluations.

use std::time::Instant;

use flowtab::{
    extract_features, FeatureCounts, FeatureKind, FeatureSeries, FlowExtractor, FlowTableConfig,
    Windowing,
};
use hids_core::{
    eval::evaluate_policy, EvalConfig, FeatureDataset, Grouping, PartialMethod, Policy,
    ThresholdHeuristic,
};
use netpkt::LossyPcapReader;
use synthgen::{export_user_windows, user_week_series_trended, Population, PopulationConfig};

use crate::{fnv, PassOut, Pieces, Spec, Tracer, Workload, FNV_BASIS};

/// `packet-path` description.
pub const SPEC: Spec = Spec {
    name: "packet-path",
    default_seed: 7,
    held_out_seed: 11,
    op: "window",
    throughput: ("packet_mb_per_s", "MB/s"),
    latency: "capture",
};

/// The three groupings, with their per-layer metric tags.
pub const GROUPINGS: [(&str, Grouping); 3] = [
    ("homogeneous", Grouping::Homogeneous),
    ("full", Grouping::FullDiversity),
    ("partial8", Grouping::Partial(PartialMethod::EIGHT_PARTIAL)),
];

/// The syslog hostname `experiments::pipeline` sends: ANSI CSI/OSC noise
/// and control bytes the sanitizer must strip before decoding.
const DIRTY_HOSTNAME: &str = "\u{1b}[31mhost-\u{1b}]0;owned\u{7}pipeline\u{7f}";

/// Renderer's source-port space; busier windows are skipped and must
/// measure zero.
const RENDER_FLOW_LIMIT: u64 = 60_000;

/// Shape of one pass.
#[derive(Debug, Clone)]
pub struct PacketConfig {
    /// Population seed: fixes which captures exist.
    pub seed: u64,
    /// Users `0..n_users`.
    pub n_users: usize,
    /// First window of each rendered span.
    pub first_window: usize,
    /// Windows per user-week.
    pub n_windows: usize,
    /// Weekly activity trend.
    pub weekly_trend: f64,
    /// Feature carried through the wire and the sweep.
    pub feature: FeatureKind,
}

impl Default for PacketConfig {
    /// Users 0–63, windows 32–127, both weeks.
    fn default() -> Self {
        Self {
            seed: SPEC.default_seed,
            n_users: 64,
            first_window: 32,
            n_windows: 96,
            weekly_trend: 0.97,
            feature: FeatureKind::TcpConnections,
        }
    }
}

/// Deterministic counters of one pass (the fields `experiments::pipeline`
/// reports under the same names).
#[derive(Debug, Default)]
pub struct PacketCounters {
    /// Frames the renderer wrote.
    pub frames_written: u64,
    /// Flows the renderer wrote.
    pub flows_rendered: u64,
    /// Pcap bytes rendered and read.
    pub bytes_written: u64,
    /// Windows the renderer skipped as oversized.
    pub oversized_windows: u64,
    /// Records the reader recovered.
    pub records_ok: u64,
    /// Records the reader skipped.
    pub records_skipped: u64,
    /// Recovered frames the extractor rejected.
    pub frames_rejected: u64,
    /// Flow records extracted.
    pub flows_extracted: u64,
    /// Windows compared against the generated series.
    pub feature_windows: u64,
    /// Windows whose packet-path counts differ from the series.
    pub feature_mismatches: u64,
    /// Batch datagrams decoded.
    pub wire_datagrams: u64,
    /// Wire bytes decoded.
    pub wire_bytes: u64,
    /// Decoded batches that differ from the measured counts.
    pub wire_mismatches: u64,
    /// Mean utility per grouping, in [`GROUPINGS`] order.
    pub mean_utility: Vec<f64>,
    /// Thresholds configured per grouping.
    pub thresholds: Vec<usize>,
}

/// One pass: counters, timings, and where the features diverged.
#[derive(Debug, Default)]
pub struct PacketPass {
    /// Deterministic counters.
    pub counters: PacketCounters,
    /// `(user, week, window)` of every mismatched window.
    pub mismatched: Vec<(usize, usize, usize)>,
    /// Render + series generation seconds.
    pub setup_s: f64,
    /// Seconds in the timed calls.
    pub system_s: f64,
    /// System milliseconds per user-week capture.
    pub capture_ms: Vec<f64>,
    /// Failed checks.
    pub problems: Vec<String>,
}

/// Run `f`, add its duration to `acc` and record it as a span.
fn timed<R>(
    tr: &mut Tracer,
    acc: &mut f64,
    name: &'static str,
    tags: [&'static str; 2],
    f: impl FnOnce() -> R,
) -> R {
    let t = Instant::now();
    let out = f();
    let done = Instant::now();
    *acc += done.duration_since(t).as_secs_f64();
    tr.record(name, tags, t, done);
    out
}

/// Run one pass.
pub fn measure(cfg: &PacketConfig, tr: &mut Tracer) -> PacketPass {
    let windowing = Windowing::FIFTEEN_MIN;
    let population = Population::sample(PopulationConfig {
        n_users: cfg.n_users,
        seed: cfg.seed,
        weekly_trend: cfg.weekly_trend,
        ..PopulationConfig::default()
    });
    let ingest = fleetd::IngestConfig::default();
    let mut p = PacketPass::default();
    let mut weeks: [Vec<FeatureSeries>; 2] = [
        Vec::with_capacity(cfg.n_users),
        Vec::with_capacity(cfg.n_users),
    ];

    for (u, week) in (0..cfg.n_users).flat_map(|u| [(u, 0), (u, 1)]) {
        let profile = &population.users[u];
        // Set-up: render the capture and the series it must reproduce.
        let mut capture = Vec::new();
        let render = timed(tr, &mut p.setup_s, "synthgen.render", ["", ""], || {
            export_user_windows(
                &mut capture,
                profile,
                cfg.seed,
                week,
                cfg.weekly_trend,
                windowing,
                cfg.first_window,
                cfg.n_windows,
            )
        });
        let stats = match render {
            Ok(s) => s,
            Err(e) => {
                p.problems
                    .push(format!("user {u} week {week}: render: {e}"));
                continue;
            }
        };
        p.counters.frames_written += stats.frames;
        p.counters.flows_rendered += stats.flows;
        p.counters.bytes_written += capture.len() as u64;
        p.counters.oversized_windows += stats.oversized_windows;
        let expected = timed(tr, &mut p.setup_s, "synthgen.series", ["", ""], || {
            user_week_series_trended(profile, cfg.seed, week, windowing, cfg.weekly_trend)
        });

        // System: read, extract, count, and carry over the wire.
        let mut sys = 0.0;
        let read = timed(tr, &mut sys, "netpkt.read", ["", ""], || {
            LossyPcapReader::new(&capture).map(LossyPcapReader::read_all)
        });
        drop(capture);
        let (packets, loss) = match read {
            Ok(x) => x,
            Err(e) => {
                p.problems
                    .push(format!("user {u} week {week}: pcap header: {e}"));
                continue;
            }
        };
        p.counters.records_ok += loss.records_ok;
        p.counters.records_skipped += loss.records_skipped;
        let (records, rejected) = timed(tr, &mut sys, "flowtab.extract", ["", ""], || {
            let mut ex = FlowExtractor::new(FlowTableConfig::default());
            let rejected = packets
                .iter()
                .filter(|pkt| ex.push_pcap(pkt).is_err())
                .count() as u64;
            (ex.finish(), rejected)
        });
        drop(packets);
        let c = &mut p.counters;
        c.frames_rejected += rejected;
        c.flows_extracted += records.len() as u64;
        let measured = timed(tr, &mut sys, "flowtab.features", ["", ""], || {
            extract_features(
                &records,
                profile.addr,
                windowing,
                cfg.first_window + cfg.n_windows,
            )
        });

        let mut span = FeatureSeries::zeros(windowing, cfg.n_windows);
        for k in 0..cfg.n_windows {
            let w = cfg.first_window + k;
            c.feature_windows += 1;
            let oversized = expected
                .windows
                .get(w)
                .is_some_and(|x| (0..6).map(|i| x.0[i]).sum::<u64>() > RENDER_FLOW_LIMIT);
            let zero = FeatureCounts::default();
            let want = if oversized {
                Some(&zero)
            } else {
                expected.windows.get(w)
            };
            if measured.windows.get(w) != want {
                c.feature_mismatches += 1;
                p.mismatched.push((u, week, w));
            }
            if let (Some(dst), Some(src)) = (span.windows.get_mut(k), measured.windows.get(w)) {
                *dst = *src;
            }
        }

        let batch = fleetd::WindowBatch {
            host: profile.id,
            seq: u as u64 + 1,
            week: if week == 0 {
                fleetd::Week::Train
            } else {
                fleetd::Week::Test
            },
            start: cfg.first_window as u32,
            counts: span.feature(cfg.feature),
            poison: false,
        };
        let wire = timed(tr, &mut sys, "fleetd.ingest.encode", ["", ""], || {
            fleetd::ingest::encode_batch_datagram(&batch, DIRTY_HOSTNAME, "hids-agent")
        });
        c.wire_bytes += wire.len() as u64;
        c.wire_datagrams += 1;
        let decoded = timed(tr, &mut sys, "fleetd.ingest.decode", ["", ""], || {
            fleetd::decode_batch_datagram(&wire, &ingest)
        });
        if decoded.as_ref().ok() != Some(&batch) {
            c.wire_mismatches += 1;
        }
        p.system_s += sys;
        p.capture_ms.push(sys * 1e3);
        weeks[week].push(span);
    }
    let [train, test] = weeks;
    if train.len() != cfg.n_users || test.len() != cfg.n_users {
        return p;
    }

    let ds = timed(tr, &mut p.system_s, "hids-core.dataset", ["", ""], || {
        FeatureDataset::try_from_series(&train, &test, cfg.feature)
    });
    let Ok(ds) = ds else {
        return p;
    };
    let eval_cfg = EvalConfig {
        w: 0.5,
        sweep: ds.default_sweep(),
    };
    for (tag, grouping) in GROUPINGS {
        let policy = Policy {
            grouping,
            heuristic: ThresholdHeuristic::P99,
        };
        let eval = timed(
            tr,
            &mut p.system_s,
            "hids-core.evaluate",
            ["percentile", tag],
            || evaluate_policy(&ds, &policy, &eval_cfg),
        );
        p.counters.mean_utility.push(eval.mean_utility());
        p.counters.thresholds.push(eval.outcome.thresholds.len());
    }
    p
}

/// The `packet-path` workload.
pub struct PacketPath {
    cfg: PacketConfig,
}

impl PacketPath {
    /// Workload over `cfg`.
    pub fn new(cfg: PacketConfig) -> Self {
        Self { cfg }
    }
}

impl Workload for PacketPath {
    fn pass(&mut self, tr: &mut Tracer) -> PassOut {
        let p = measure(&self.cfg, tr);
        let c = &p.counters;
        let mut problems = p.problems.clone();
        if c.mean_utility.len() != GROUPINGS.len() {
            problems.push("the packet-measured dataset could not be built".to_string());
        }
        for (&u, &n) in c.mean_utility.iter().zip(&c.thresholds) {
            if !u.is_finite() || n == 0 {
                problems.push(format!("sweep: utility {u} over {n} thresholds"));
            }
        }
        if c.records_ok + c.records_skipped != c.frames_written {
            problems.push(format!(
                "reader accounted {} + {} records of {} frames written",
                c.records_ok, c.records_skipped, c.frames_written
            ));
        }
        let digest = fnv(FNV_BASIS, format!("{c:?}{:?}", p.mismatched).as_bytes());
        let failed =
            c.feature_mismatches + c.records_skipped + c.frames_rejected + c.wire_mismatches;
        PassOut {
            ops: c.feature_windows,
            failed,
            setup_s: p.setup_s,
            system_s: p.system_s,
            work: c.bytes_written as f64 / 1e6,
            latencies_ms: p.capture_ms.clone(),
            extra_ms: Vec::new(),
            pieces: Pieces::Latencies,
            counts: vec![
                ("netpkt.read.frames", c.records_ok),
                ("netpkt.read.bytes", c.bytes_written),
                ("netpkt.read.skipped", c.records_skipped),
                ("flowtab.extract.flows", c.flows_extracted),
                ("flowtab.extract.rejected", c.frames_rejected),
                ("flowtab.features.windows", c.feature_windows),
                ("flowtab.features.mismatched", c.feature_mismatches),
                ("fleetd.ingest.decode.datagrams", c.wire_datagrams),
                ("fleetd.ingest.decode.bytes", c.wire_bytes),
                ("synthgen.render.frames", c.frames_written),
            ],
            digest,
            problems,
            notes: p
                .mismatched
                .iter()
                .map(|(u, w, k)| format!("features mismatch: user {u}, week {w}, window {k}"))
                .collect(),
        }
    }
}
