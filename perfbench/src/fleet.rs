//! `fleet-sketch`: the megafleet detector path, one host at a time.
//!
//! Per host, the two weeks are generated in set-up; the system time is
//! `KllSketch::insert` over both weeks, the threshold fit plus three
//! quantile reads, and `score_source` on the test week. The hosts CSV is
//! rebuilt outside the timed calls in `experiments::megafleet`'s format, so
//! its FNV fingerprint can be compared with `repro megafleet`.

use std::time::Instant;

use flowtab::{FeatureKind, Windowing};
use hids_core::{score_source, AttackSweep, ThresholdHeuristic};
use synthgen::{sample_user, user_week_series, PopulationConfig};
use tailstats::{KllSketch, QuantileSource};

use crate::{fnv, PassOut, Pieces, Spec, Tracer, Workload, FNV_BASIS};

/// `fleet-sketch` description.
pub const SPEC: Spec = Spec {
    name: "fleet-sketch",
    default_seed: 0xC0FFEE,
    held_out_seed: 9004,
    op: "host",
    throughput: ("detector_hosts_per_s", "hosts/s"),
    latency: "host",
};

/// Header of the hosts CSV (`experiments::megafleet::HOSTS_CSV_HEADER`).
pub const HOSTS_CSV_HEADER: &str =
    "host,threshold,q90,q95,q99,fp,fn_rate,utility,false_alarms,state_bytes";

/// Shape of one pass (`MegafleetConfig` defaults except the host count).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Master seed.
    pub seed: u64,
    /// Hosts `0..n_hosts`.
    pub n_hosts: u64,
    /// Sketch rank-error budget.
    pub sketch_eps: f64,
    /// Threshold quantile.
    pub threshold_q: f64,
    /// FN weight of the utility.
    pub w: f64,
    /// Feature under monitoring.
    pub feature: FeatureKind,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            seed: SPEC.default_seed,
            n_hosts: 2_000,
            sketch_eps: 0.01,
            threshold_q: 0.99,
            w: 0.4,
            feature: FeatureKind::TcpConnections,
        }
    }
}

/// One pass.
#[derive(Debug, Default)]
pub struct FleetPass {
    /// FNV-1a of the hosts CSV (header included).
    pub csv_fnv: u64,
    /// Hosts with a non-finite utility or a rank error over budget.
    pub failed: u64,
    /// Items inserted into sketches.
    pub items: u64,
    /// Sketch compactions.
    pub compactions: u64,
    /// Largest train + test sketch footprint of one host.
    pub state_bytes_peak: u64,
    /// Generation seconds.
    pub setup_s: f64,
    /// Detector seconds (insert + fit + score).
    pub system_s: f64,
    /// Detector milliseconds per host.
    pub host_ms: Vec<f64>,
}

/// Rank-error ledger of `s` in ppm of its weight.
fn err_ppm(s: &KllSketch) -> u64 {
    if s.is_empty() {
        0
    } else {
        (u128::from(s.rank_error_bound()) * 1_000_000 / u128::from(s.len())) as u64
    }
}

/// Run one pass.
pub fn measure(cfg: &FleetConfig, tr: &mut Tracer) -> FleetPass {
    let pcfg = PopulationConfig {
        n_users: cfg.n_hosts as usize,
        seed: cfg.seed,
        ..PopulationConfig::default()
    };
    let windowing = Windowing::FIFTEEN_MIN;
    let heuristic = ThresholdHeuristic::Percentile(cfg.threshold_q);
    let budget_ppm = (cfg.sketch_eps * 1e6) as u64;
    let mut p = FleetPass::default();
    let mut h = fnv(FNV_BASIS, HOSTS_CSV_HEADER.as_bytes());
    h = fnv(h, b"\n");
    let mut line = String::new();

    for id in 0..cfg.n_hosts {
        let t = Instant::now();
        let (train_counts, test_counts) = tr.span("synthgen.series", || {
            let profile = sample_user(&pcfg, id as u32);
            (
                user_week_series(&profile, cfg.seed, 0, windowing).feature(cfg.feature),
                user_week_series(&profile, cfg.seed, 1, windowing).feature(cfg.feature),
            )
        });
        let t_insert = Instant::now();
        p.setup_s += t_insert.duration_since(t).as_secs_f64();

        let mut train = KllSketch::new(cfg.sketch_eps);
        let mut test = KllSketch::new(cfg.sketch_eps);
        for &c in &train_counts {
            train.insert(c);
        }
        for &c in &test_counts {
            test.insert(c);
        }
        let t_fit = Instant::now();
        let state_bytes = train.state_bytes() + test.state_bytes();
        let err = err_ppm(&train).max(err_ppm(&test));
        p.items += train.len() + test.len();
        p.compactions += train.compactions() + test.compactions();
        p.state_bytes_peak = p.state_bytes_peak.max(state_bytes);
        let sweep = AttackSweep::new(train.max().max(1.0), 64);
        let train_src = QuantileSource::Sketch(train);
        let threshold = heuristic.threshold_source(&train_src);
        let (q90, q95, q99) = (
            train_src.quantile(0.90),
            train_src.quantile(0.95),
            train_src.quantile(0.99),
        );
        let t_score = Instant::now();
        let test_src = QuantileSource::Sketch(test);
        let perf = score_source(&test_src, threshold, &sweep, cfg.w);
        let done = Instant::now();

        tr.record("tailstats.insert", ["", ""], t_insert, t_fit);
        tr.record("hids-core.fit_source", ["", ""], t_fit, t_score);
        tr.record("hids-core.score_source", ["", ""], t_score, done);
        let secs = done.duration_since(t_insert).as_secs_f64();
        p.system_s += secs;
        p.host_ms.push(secs * 1e3);
        if !perf.utility.is_finite() || err > budget_ppm {
            p.failed += 1;
        }

        line.clear();
        line.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{}\n",
            id,
            threshold,
            q90,
            q95,
            q99,
            perf.fp,
            perf.fn_rate,
            perf.utility,
            perf.false_alarms,
            state_bytes,
        ));
        h = fnv(h, line.as_bytes());
    }
    p.csv_fnv = h;
    p
}

/// The `fleet-sketch` workload.
pub struct FleetSketch {
    cfg: FleetConfig,
}

impl FleetSketch {
    /// Workload over `cfg`.
    pub fn new(cfg: FleetConfig) -> Self {
        Self { cfg }
    }
}

impl Workload for FleetSketch {
    fn pass(&mut self, tr: &mut Tracer) -> PassOut {
        let p = measure(&self.cfg, tr);
        PassOut {
            ops: self.cfg.n_hosts,
            failed: p.failed,
            setup_s: p.setup_s,
            system_s: p.system_s,
            work: self.cfg.n_hosts as f64,
            pieces: Pieces::Latencies,
            latencies_ms: p.host_ms,
            counts: vec![
                ("tailstats.insert.items", p.items),
                ("tailstats.compactions", p.compactions),
                ("tailstats.state_bytes_peak", p.state_bytes_peak),
            ],
            digest: p.csv_fnv,
            notes: vec![format!("hosts csv fnv64 {:016x}", p.csv_fnv)],
            ..PassOut::default()
        }
    }
}
