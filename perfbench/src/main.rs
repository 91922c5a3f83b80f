//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs passes of one workload until `--seconds` have elapsed (at least
//! two), prints every named metric with its unit, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` passes alternate
//! untraced and traced, the tracing overhead is printed, and the metrics
//! are the per-layer ones.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::{median, quantile, workload, PassOut, Pieces, Spec, Tracer, SPECS};

/// Passes every run makes, however short `--seconds` is. `packet-path`
/// passes take 9–12 s, so at 20 s a run would make two or three of them
/// as the machine's speed drifts, and the fastest repeat of two reads
/// slower than that of three.
const MIN_PASSES: usize = 3;

/// End-to-end metrics: every workload reports each of them. The printed
/// p50 latency is left out: on every workload it moves with `throughput`
/// and spreads at least as widely from run to run.
const END_TO_END: [(&str, &str); 4] = [
    ("throughput", "work/s"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: counts are per pass and deterministic, `busy_s` is
/// the summed span time of one traced pass (median over traced passes).
const PER_LAYER: [(&str, &str); 47] = [
    ("fleetd.offer.calls", "count"),
    ("fleetd.offer.refused", "count"),
    ("fleetd.offer.busy_s", "s"),
    ("fleetd.tick.calls", "count"),
    ("fleetd.tick.busy_s", "s"),
    ("fleetd.snapshot.count", "count"),
    ("fleetd.snapshot.busy_s", "s"),
    ("fleetd.snapshot.bytes", "bytes"),
    ("fleetd.wal.bytes", "bytes"),
    ("fleetd.queue.wait_ticks_p50", "ticks"),
    ("fleetd.queue.wait_ticks_p99", "ticks"),
    ("fleetd.recover.busy_s", "s"),
    ("fleetd.recover.wal_replayed", "count"),
    ("fleetd.recover.snapshot_bytes", "bytes"),
    ("fleetd.ingest.encode.busy_s", "s"),
    ("fleetd.ingest.decode.busy_s", "s"),
    ("fleetd.ingest.decode.datagrams", "count"),
    ("fleetd.ingest.decode.bytes", "bytes"),
    ("netpkt.read.busy_s", "s"),
    ("netpkt.read.frames", "count"),
    ("netpkt.read.bytes", "bytes"),
    ("netpkt.read.skipped", "count"),
    ("flowtab.extract.busy_s", "s"),
    ("flowtab.extract.flows", "count"),
    ("flowtab.extract.rejected", "count"),
    ("flowtab.features.busy_s", "s"),
    ("flowtab.features.windows", "count"),
    ("flowtab.features.mismatched", "count"),
    ("tailstats.insert.busy_s", "s"),
    ("tailstats.insert.items", "count"),
    ("tailstats.compactions", "count"),
    ("tailstats.state_bytes_peak", "bytes"),
    ("hids-core.dataset.busy_s", "s"),
    ("hids-core.fit_source.busy_s", "s"),
    ("hids-core.score_source.busy_s", "s"),
    ("hids-core.evaluate.busy_s", "s"),
    ("hids-core.evaluate.percentile.busy_s", "s"),
    ("hids-core.evaluate.meansigma.busy_s", "s"),
    ("hids-core.evaluate.utilitymax.busy_s", "s"),
    ("hids-core.evaluate.fmeasure.busy_s", "s"),
    ("hids-core.evaluate.homogeneous.busy_s", "s"),
    ("hids-core.evaluate.full.busy_s", "s"),
    ("hids-core.evaluate.partial8.busy_s", "s"),
    ("synthgen.corpus.busy_s", "s"),
    ("synthgen.series.busy_s", "s"),
    ("synthgen.render.busy_s", "s"),
    ("synthgen.render.frames", "count"),
];

struct Args {
    workload: String,
    seed: Option<u64>,
    population_seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let mut s = String::from(
        "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n                 [--population-seed <n>]\n\nworkloads (default seed / held-out seed):\n",
    );
    for spec in SPECS {
        s.push_str(&format!(
            "  {:<15} {} / {}\n",
            spec.name, spec.default_seed, spec.held_out_seed
        ));
    }
    s.push_str("\npacket-path's captures are fixed by --population-seed, not --seed.\n");
    s
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        population_seed: None,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--population-seed" => {
                args.population_seed = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--population-seed: {e}"))?,
                )
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.population_seed.is_some() && args.workload != "packet-path" {
        return Err("--population-seed applies to packet-path only".into());
    }
    Ok(args)
}

/// End-to-end figures over a set of passes.
struct Summary {
    throughput: f64,
    p50: f64,
    p99: f64,
    samples: usize,
    setup_s: f64,
    extra_ms: f64,
    extra_samples: usize,
}

/// Each piece's fastest repeat over `passes`, milliseconds. `None` when
/// the passes were cut differently.
fn best_pieces(passes: &[&PassOut]) -> Option<Vec<f64>> {
    let pieces = |p: &PassOut| {
        let ms = p.system_s * 1e3;
        match &p.pieces {
            Pieces::Latencies => {
                let mut v = p.latencies_ms.clone();
                v.push(ms - p.latencies_ms.iter().sum::<f64>());
                v
            }
            Pieces::Own(v) => v.clone(),
        }
    };
    let mut best = pieces(passes.first()?);
    for p in &passes[1..] {
        let ms = pieces(p);
        if ms.len() != best.len() {
            return None;
        }
        for (b, m) in best.iter_mut().zip(ms) {
            *b = b.min(m);
        }
    }
    Some(best)
}

fn summarize(passes: &[&PassOut]) -> Summary {
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let extra: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.extra_ms.iter().copied())
        .collect();
    let setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    Summary {
        // NaN, and so a failed check, when passes were cut differently.
        throughput: match (passes.first(), best_pieces(passes)) {
            (Some(p), Some(best)) => p.work / (best.iter().sum::<f64>() * 1e-3),
            _ => f64::NAN,
        },
        p50: quantile(&lat, 0.50),
        p99: quantile(&lat, 0.99),
        samples: lat.len(),
        setup_s: median(&setup),
        extra_ms: median(&extra),
        extra_samples: extra.len(),
    }
}

/// Peak resident set (`VmHWM`) in MB of 10^6 bytes.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

fn pct(base: f64, other: f64) -> f64 {
    (other - base) / base * 100.0
}

fn json_metrics(values: &[(&str, &str, f64)]) -> (String, bool) {
    let mut finite = true;
    let body = values
        .iter()
        .map(|(name, unit, v)| {
            let shown = if v.is_finite() {
                format!("{v}")
            } else {
                finite = false;
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {shown}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    (format!("{{{body}}}"), finite)
}

fn print_named(spec: &Spec, s: &Summary, rss: f64) {
    let (tp_name, tp_unit) = spec.throughput;
    println!("{tp_name} = {:.4} {tp_unit}", s.throughput);
    println!(
        "{}_p50_ms = {:.4} ms (n={})",
        spec.latency, s.p50, s.samples
    );
    println!(
        "{}_p99_ms = {:.4} ms (n={})",
        spec.latency, s.p99, s.samples
    );
    if spec.latency == "recover" {
        println!(
            "recover_ms = {:.4} ms (median Daemon::open, n={})",
            s.p50, s.samples
        );
    }
    if s.extra_samples > 0 {
        println!(
            "recover_ms = {:.4} ms (median Daemon::open after the stream, n={})",
            s.extra_ms, s.extra_samples
        );
    }
    println!("setup_s = {:.4} s", s.setup_s);
    println!("peak_rss_mb = {rss:.1} MB");
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(spec) = SPECS.iter().find(|s| s.name == args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(spec.default_seed);
    let Some(mut w) = workload(spec.name, seed, args.population_seed) else {
        return ExitCode::from(2);
    };
    // Single process, closed loop, one worker: results do not depend on
    // how many cores the machine has.
    hids_core::set_threads(1);

    let mut tr = Tracer::new();
    let start = Instant::now();
    let mut passes: Vec<(bool, PassOut)> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && passes.len() % 2 == 1;
        tr.start_pass(passes.len() as u32, traced);
        passes.push((traced, w.pass(&mut tr)));
    }
    let wall = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let _ = std::fs::remove_dir(".bench_tmp");

    let mut problems: Vec<String> = Vec::new();
    for (i, (_, p)) in passes.iter().enumerate() {
        problems.extend(p.problems.iter().map(|e| format!("pass {i}: {e}")));
    }
    let first = &passes[0].1;
    if passes
        .iter()
        .any(|(_, p)| p.digest != first.digest || p.counts != first.counts)
    {
        problems.push("passes over the same inputs produced different outputs".into());
    }
    if rss.is_none() {
        problems.push("VmHWM is unavailable".into());
    }
    let rss = rss.unwrap_or(f64::NAN);

    let untraced: Vec<&PassOut> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let traced: Vec<&PassOut> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    let e2e = summarize(&untraced);

    println!(
        "perfbench {} seed={seed} passes={} ({} untraced) wall={wall:.1}s threads={}",
        spec.name,
        passes.len(),
        untraced.len(),
        hids_core::current_threads()
    );
    println!(
        "ops = {} ops_failed = {} per pass (op = {})",
        first.ops, first.failed, spec.op
    );
    print_named(spec, &e2e, rss);
    let per_pass = |f: &dyn Fn(&PassOut) -> f64| {
        untraced
            .iter()
            .map(|p| format!("{:.4}", f(p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "per-pass throughput: {}",
        per_pass(&|p| p.work / p.system_s)
    );
    println!(
        "per-pass latency p50 ms: {}",
        per_pass(&|p| quantile(&p.latencies_ms, 0.5))
    );
    for note in &first.notes {
        println!("note: {note}");
    }

    let attempted: u64 = passes.iter().map(|(_, p)| p.ops).sum();
    let failed: u64 = passes.iter().map(|(_, p)| p.failed).sum();
    let values: Vec<(&str, &str, f64)> = if !args.trace {
        END_TO_END
            .iter()
            .zip([e2e.throughput, e2e.p99, e2e.setup_s, rss])
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    } else {
        let t = summarize(&traced);
        // As many untraced passes as traced ones: the fastest repeat of
        // more passes reads faster.
        let u = summarize(&untraced[..traced.len().min(untraced.len())]);
        println!(
            "tracing overhead (untraced -> traced, {} passes each, {} spans):",
            traced.len(),
            tr.len()
        );
        for (name, off, on) in [
            ("throughput", u.throughput, t.throughput),
            ("latency_p50_ms", u.p50, t.p50),
            ("latency_p99_ms", u.p99, t.p99),
            ("setup_s", u.setup_s, t.setup_s),
        ] {
            println!("  {name} {off:.4} -> {on:.4} ({:+.2}%)", pct(off, on));
        }
        println!("  peak_rss_mb: one process serves both, not separable");

        let busy = tr.busy_by_pass();
        let trace_path =
            std::path::PathBuf::from(".bench_trace").join(format!("{}-{seed}.tsv", spec.name));
        match tr.write_tsv(&trace_path) {
            Ok(()) => println!("spans written to {}", trace_path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", trace_path.display()),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = if name.ends_with(".busy_s") {
                    let samples: Vec<f64> = passes
                        .iter()
                        .enumerate()
                        .filter(|(_, (t, _))| *t)
                        .map(|(i, _)| {
                            busy.get(&(i as u32))
                                .and_then(|m| m.get(name))
                                .copied()
                                .unwrap_or(0.0)
                        })
                        .collect();
                    median(&samples)
                } else {
                    first
                        .counts
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0, |(_, v)| *v) as f64
                };
                println!("layer {name} = {v} {unit}");
                (name, unit, v)
            })
            .collect()
    };

    let (metrics, finite) = json_metrics(&values);
    if !finite {
        problems.push("a metric is not a finite number".into());
    }
    for p in &problems {
        println!("check FAILED: {p}");
    }
    if problems.is_empty() {
        println!("checks: ok");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        problems.is_empty()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(system_s: f64, pieces: Pieces, latencies_ms: Vec<f64>) -> PassOut {
        PassOut {
            system_s,
            work: 6.0,
            pieces,
            latencies_ms,
            ..PassOut::default()
        }
    }

    #[test]
    fn each_piece_takes_its_fastest_repeat() {
        let a = pass(0.006, Pieces::Own(vec![1.0, 5.0]), vec![]);
        let b = pass(0.006, Pieces::Own(vec![4.0, 2.0]), vec![]);
        assert_eq!(best_pieces(&[&a, &b]), Some(vec![1.0, 2.0]));
        assert!((summarize(&[&a, &b]).throughput - 2000.0).abs() < 1e-9);

        // Latency pieces plus the rest of the system time.
        let a = pass(0.010, Pieces::Latencies, vec![2.0, 6.0]);
        let b = pass(0.008, Pieces::Latencies, vec![3.0, 4.0]);
        let best = best_pieces(&[&a, &b]).unwrap();
        let want = [2.0, 4.0, 1.0];
        assert!(best.iter().zip(want).all(|(x, y)| (x - y).abs() < 1e-9));

        let other = pass(0.003, Pieces::Own(vec![3.0]), vec![]);
        assert_eq!(best_pieces(&[&other, &a]), None);
        assert!(summarize(&[&other, &a]).throughput.is_nan());
    }
}
