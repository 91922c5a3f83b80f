//! Property-based tests of the statistics layer.

use proptest::prelude::*;

use tailstats::{
    gini, ks_distance, lorenz_curve, EmpiricalDist, FiveNumber, KllSketch, Moments, P2Quantile,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Five-number summaries are always ordered.
    #[test]
    fn fivenum_ordered(samples in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let s = FiveNumber::from_samples(&samples);
        prop_assert!(s.min <= s.whisker_lo + 1e-9);
        prop_assert!(s.whisker_lo <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.whisker_hi + 1e-9);
        prop_assert!(s.whisker_hi <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
    }

    /// Welford moments equal the two-pass computation.
    #[test]
    fn moments_match_two_pass(samples in proptest::collection::vec(-1e3f64..1e3, 2..200)) {
        let mut m = Moments::new();
        for &x in &samples {
            m.observe(x);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((m.mean() - mean).abs() < 1e-6);
        prop_assert!((m.variance() - var).abs() < 1e-6 * var.max(1.0));
    }

    /// P² stays within the sample range and close to the exact median on
    /// larger streams.
    #[test]
    fn p2_bounded_by_range(samples in proptest::collection::vec(0f64..1e4, 5..2000)) {
        let mut p2 = P2Quantile::new(0.5);
        for &x in &samples {
            p2.observe(x);
        }
        let d = EmpiricalDist::from_samples(samples.clone());
        let est = p2.estimate();
        prop_assert!(est >= d.min() - 1e-9 && est <= d.max() + 1e-9);
        if samples.len() >= 500 {
            let exact = d.quantile(0.5);
            let spread = (d.max() - d.min()).max(1e-9);
            prop_assert!((est - exact).abs() / spread < 0.25, "est {est} exact {exact}");
        }
    }

    /// KS distance is a pseudo-metric: symmetric, zero on identity,
    /// bounded by 1, triangle inequality.
    #[test]
    fn ks_pseudo_metric(
        a in proptest::collection::vec(0u64..1000, 1..100),
        b in proptest::collection::vec(0u64..1000, 1..100),
        c in proptest::collection::vec(0u64..1000, 1..100),
    ) {
        let (da, db, dc) = (
            EmpiricalDist::from_counts(&a),
            EmpiricalDist::from_counts(&b),
            EmpiricalDist::from_counts(&c),
        );
        prop_assert!(ks_distance(&da, &da) < 1e-12);
        let ab = ks_distance(&da, &db);
        prop_assert!((ks_distance(&db, &da) - ab).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
        let (ac, cb) = (ks_distance(&da, &dc), ks_distance(&dc, &db));
        prop_assert!(ab <= ac + cb + 1e-9);
    }

    /// Gini is scale-invariant and bounded; the Lorenz curve ends at (1,1).
    #[test]
    fn gini_lorenz_laws(values in proptest::collection::vec(0f64..1e4, 1..150), scale in 0.1f64..100.0) {
        let g = gini(&values);
        prop_assert!((0.0..=1.0).contains(&g), "gini {g}");
        let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
        prop_assert!((gini(&scaled) - g).abs() < 1e-9, "scale invariance");
        let lorenz = lorenz_curve(&values);
        let last = lorenz.last().unwrap();
        prop_assert!((last.0 - 1.0).abs() < 1e-12);
        if values.iter().sum::<f64>() > 0.0 {
            prop_assert!((last.1 - 1.0).abs() < 1e-9);
        }
        // Lorenz never exceeds the diagonal.
        for (x, y) in &lorenz {
            prop_assert!(*y <= *x + 1e-9);
        }
    }

    /// Quantile and CDF are inverse-consistent: cdf(quantile(q)) >= q for
    /// the discrete quantile.
    #[test]
    fn quantile_cdf_consistency(samples in proptest::collection::vec(0u64..10_000, 1..300), q in 0.01f64..0.999) {
        let d = EmpiricalDist::from_counts(&samples);
        let v = d.quantile_discrete(q);
        prop_assert!(d.cdf(v) >= q - 1e-12, "cdf({v}) = {} < {q}", d.cdf(v));
        // Exceedance complement.
        prop_assert!((d.cdf(v) + d.exceedance(v) - 1.0).abs() < 1e-12);
    }
}

/// Heavy-tailed adversarial count streams: most values tiny, some huge,
/// long duplicate runs — the shapes that stress compaction decisions.
fn heavy_tailed() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..16,
            0u64..16,
            0u64..1_000,
            0u64..1_000_000_000,
        ],
        0..600,
    )
}

/// One of a few representative rank-error budgets (lossy through tight).
fn any_eps() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.2), Just(0.05), Just(0.01)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sketch merge is commutative to the byte: merge(a,b) == merge(b,a)
    /// in serialized form, for any pair of streams and any budget.
    #[test]
    fn sketch_merge_commutative_byte_identical(
        xs in heavy_tailed(),
        ys in heavy_tailed(),
        eps in any_eps(),
    ) {
        let mut a = KllSketch::new(eps);
        a.extend_from_counts(&xs);
        let mut b = KllSketch::new(eps);
        b.extend_from_counts(&ys);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.to_bytes(), ba.to_bytes());
    }

    /// Sketch merge is associative to the byte:
    /// merge(merge(a,b),c) == merge(a,merge(b,c)).
    #[test]
    fn sketch_merge_associative_byte_identical(
        xs in heavy_tailed(),
        ys in heavy_tailed(),
        zs in heavy_tailed(),
        eps in any_eps(),
    ) {
        let mut a = KllSketch::new(eps);
        a.extend_from_counts(&xs);
        let mut b = KllSketch::new(eps);
        b.extend_from_counts(&ys);
        let mut c = KllSketch::new(eps);
        c.extend_from_counts(&zs);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left.to_bytes(), right.to_bytes());
    }

    /// Pooling is invariant to input permutation (rotation + reversal
    /// cover the orders a sharded reduction actually produces).
    #[test]
    fn sketch_pool_permutation_invariant(
        xs in heavy_tailed(),
        parts in 1usize..7,
        rot in 0usize..7,
        eps in any_eps(),
    ) {
        let chunk = (xs.len() / parts).max(1);
        let sketches: Vec<KllSketch> = xs
            .chunks(chunk)
            .map(|c| {
                let mut s = KllSketch::new(eps);
                s.extend_from_counts(c);
                s
            })
            .collect();
        if !sketches.is_empty() {
            let forward: Vec<&KllSketch> = sketches.iter().collect();
            let mut rotated: Vec<&KllSketch> = sketches.iter().collect();
            rotated.rotate_left(rot % sketches.len());
            let reversed: Vec<&KllSketch> = sketches.iter().rev().collect();
            let base = KllSketch::pool(&forward).to_bytes();
            prop_assert_eq!(&KllSketch::pool(&rotated).to_bytes(), &base);
            prop_assert_eq!(&KllSketch::pool(&reversed).to_bytes(), &base);
        }
    }

    /// The observed rank (CDF) deviation against the exact distribution
    /// never exceeds the configured budget, probed at every distinct
    /// sample value (one discretisation step of slack for the strict /
    /// non-strict rank convention at probe points).
    #[test]
    fn sketch_rank_error_within_bound(xs in heavy_tailed(), eps in any_eps()) {
        if !xs.is_empty() {
            let exact = EmpiricalDist::from_counts(&xs);
            let mut sk = KllSketch::new(eps);
            sk.extend_from_counts(&xs);
            let slack = 1.0 / xs.len() as f64 + 1e-12;
            let mut probes: Vec<u64> = xs.clone();
            probes.sort_unstable();
            probes.dedup();
            for &v in &probes {
                let dev = (sk.cdf(v as f64) - exact.cdf(v as f64)).abs();
                prop_assert!(
                    dev <= eps + slack,
                    "cdf deviation {dev} at {v} exceeds eps {eps} (n={})",
                    xs.len()
                );
            }
            // The internal ledger agrees: err <= floor(weight * eps).
            let budget = (sk.len() as f64 * eps).floor() as u64;
            prop_assert!(sk.rank_error_bound() <= budget);
        }
    }

    /// No panics and sane outputs on degenerate shapes: empty sketches,
    /// single values, duplicate floods — including queries, merge with
    /// empty, and a serialization round trip.
    #[test]
    fn sketch_no_panic_on_degenerate_inputs(
        v in 0u64..1_000_000,
        dupes in 0usize..2000,
        q in -0.5f64..1.5,
        eps in any_eps(),
    ) {
        let empty = KllSketch::new(eps);
        prop_assert_eq!(empty.quantile(q), 0.0);
        prop_assert_eq!(empty.mean(), 0.0);
        prop_assert_eq!(empty.cdf(v as f64), 0.0);

        let mut single = KllSketch::new(eps);
        single.insert(v);
        prop_assert_eq!(single.quantile(q), v as f64);

        let mut flood = KllSketch::new(eps);
        for _ in 0..dupes {
            flood.insert(v);
        }
        flood.merge(&empty);
        let mut all = empty.clone();
        all.merge(&single);
        all.merge(&flood);
        prop_assert_eq!(all.len(), 1 + dupes as u64);
        if dupes > 0 {
            prop_assert_eq!(flood.quantile(q), v as f64);
        }
        let back = KllSketch::from_bytes(&all.to_bytes()).expect("roundtrip");
        prop_assert_eq!(&back, &all);
        prop_assert_eq!(back.to_bytes(), all.to_bytes());
    }
}

/// The query path as it was before [`tailstats::KllView`]: every query
/// rebuilt the weighted items by flatten-and-sort and walked them
/// linearly. Kept verbatim as the reference the view must reproduce bit
/// for bit. Its state is decoded from the sketch's `KLL1` bytes, so it
/// reads exactly the levels the sketch holds.
struct LinearWalk {
    weight: u64,
    levels: Vec<Vec<u64>>,
}

impl LinearWalk {
    fn of(sketch: &KllSketch) -> Self {
        let bytes = sketch.to_bytes();
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        // magic, eps_ppm | weight, err, compactions, min, max | sum, sum_sq
        let weight = u64_at(8);
        let mut at = 8 + 5 * 8 + 2 * 16;
        let n_levels = u32_at(at) as usize;
        at += 4;
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            let len = u32_at(at + 1) as usize;
            at += 5;
            levels.push((0..len).map(|i| u64_at(at + 8 * i)).collect());
            at += 8 * len;
        }
        assert_eq!(at, bytes.len(), "KLL1 layout drifted from the oracle's decoder");
        Self { weight, levels }
    }

    fn stored_items(&self) -> u64 {
        self.levels.iter().map(|l| l.len() as u64).sum()
    }

    fn weighted_items(&self) -> Vec<(u64, u64)> {
        let mut flat: Vec<(u64, u64)> = Vec::with_capacity(self.stored_items() as usize);
        for (l, items) in self.levels.iter().enumerate() {
            let w = 1u64 << l.min(63);
            flat.extend(items.iter().map(|&v| (v, w)));
        }
        flat.sort_unstable_by_key(|&(v, _)| v);
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(flat.len());
        for (v, w) in flat {
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 = last.1.saturating_add(w),
                _ => out.push((v, w)),
            }
        }
        out
    }

    fn value_at_rank(&self, r: u64) -> f64 {
        let items = self.weighted_items();
        let mut cum = 0u64;
        for &(v, w) in &items {
            cum = cum.saturating_add(w);
            if r < cum {
                return v as f64;
            }
        }
        match items.last() {
            Some(&(v, _)) => v as f64,
            None => 0.0,
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        if self.weight == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if self.weight == 1 {
            return self.value_at_rank(0);
        }
        let pos = q * (self.weight - 1) as f64;
        let lo = pos.floor();
        let hi = pos.ceil();
        let lo_r = lo as u64;
        let hi_r = hi as u64;
        if lo_r == hi_r {
            self.value_at_rank(lo_r)
        } else {
            let frac = pos - lo;
            self.value_at_rank(lo_r) * (1.0 - frac) + self.value_at_rank(hi_r) * frac
        }
    }

    fn quantile_discrete(&self, q: f64) -> f64 {
        if self.weight == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.weight as f64).ceil() as u64).clamp(1, self.weight);
        self.value_at_rank(rank - 1)
    }

    fn cdf(&self, x: f64) -> f64 {
        if self.weight == 0 {
            return 0.0;
        }
        let mut cum = 0u64;
        for &(v, w) in &self.weighted_items() {
            if v as f64 <= x {
                cum = cum.saturating_add(w);
            } else {
                break;
            }
        }
        cum as f64 / self.weight as f64
    }

    fn exceedance(&self, x: f64) -> f64 {
        if self.weight == 0 {
            return 0.0;
        }
        1.0 - self.cdf(x)
    }

    fn below(&self, x: f64) -> f64 {
        if self.weight == 0 {
            return 0.0;
        }
        let mut cum = 0u64;
        for &(v, w) in &self.weighted_items() {
            if (v as f64) < x {
                cum = cum.saturating_add(w);
            } else {
                break;
            }
        }
        cum as f64 / self.weight as f64
    }
}

/// Duplicate-heavy streams: a handful of distinct values, long runs.
fn duplicate_heavy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(prop_oneof![Just(0u64), Just(1u64), 0u64..4, 0u64..50], 0..3000)
}

/// Any of the stream shapes the differential test covers.
fn any_stream() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        heavy_tailed(),
        duplicate_heavy(),
        proptest::collection::vec(0u64..5_000, 0..2000),
        proptest::collection::vec(0u64..1_000_000, 0..2),
    ]
}

/// Assert that the view and the sketch's own queries both equal the
/// linear-walk oracle, bit for bit, at every probe.
fn assert_view_matches_oracle(sketch: &KllSketch, qs: &[f64], xs: &[f64]) {
    let oracle = LinearWalk::of(sketch);
    let view = sketch.view();
    assert_eq!(sketch.weighted_items(), oracle.weighted_items());
    for &q in qs {
        let want = (oracle.quantile(q), oracle.quantile_discrete(q));
        for got in [
            (view.quantile(q), view.quantile_discrete(q)),
            (sketch.quantile(q), sketch.quantile_discrete(q)),
        ] {
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "quantile({q})");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "quantile_discrete({q})");
        }
    }
    for &x in xs {
        let want = [oracle.cdf(x), oracle.exceedance(x), oracle.below(x)];
        for got in [
            [view.cdf(x), view.exceedance(x), view.below(x)],
            [sketch.cdf(x), sketch.exceedance(x), sketch.below(x)],
        ] {
            for (name, g, w) in [
                ("cdf", got[0], want[0]),
                ("exceedance", got[1], want[1]),
                ("below", got[2], want[2]),
            ] {
                assert_eq!(g.to_bits(), w.to_bits(), "{name}({x})");
            }
        }
    }
}

/// Probe quantiles: NaN, below 0, 0, 1, above 1, and random interior.
fn probe_qs(random: &[f64]) -> Vec<f64> {
    let mut qs = vec![f64::NAN, -0.5, -0.0, 0.0, 1.0, 1.5, f64::INFINITY, f64::NEG_INFINITY];
    qs.extend_from_slice(&[0.5, 0.9, 0.95, 0.99]);
    qs.extend_from_slice(random);
    qs
}

/// Probe points: NaN, ±∞, negative, exactly at every stored value, and
/// between every pair of adjacent stored values (plus random reals).
fn probe_xs(sketch: &KllSketch, random: &[f64]) -> Vec<f64> {
    let mut xs = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -0.5, 0.0];
    let values: Vec<f64> = sketch.weighted_items().iter().map(|&(v, _)| v as f64).collect();
    xs.extend_from_slice(&values);
    for pair in values.windows(2) {
        xs.push(pair[0] + (pair[1] - pair[0]) / 2.0);
    }
    if let Some(&last) = values.last() {
        xs.push(last + 0.5);
        xs.push(last + 1.0);
    }
    xs.extend_from_slice(random);
    xs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sorted view answers every query bit-identically to the linear
    /// walk it replaced: compacted and uncompacted sketches over several
    /// stream shapes, at any budget in [0.01, 0.2].
    #[test]
    fn sketch_view_matches_linear_walk(
        stream in any_stream(),
        eps in 0.01f64..0.2,
        rq in proptest::collection::vec(0f64..1.0, 4..8),
        rx in proptest::collection::vec(-10f64..6_000.0, 4..8),
    ) {
        let mut s = KllSketch::new(eps);
        s.extend_from_counts(&stream);
        assert_view_matches_oracle(&s, &probe_qs(&rq), &probe_xs(&s, &rx));
    }

    /// Merged (uncompressed and compressed) and pooled sketches, whose
    /// levels hold the same value at several weights.
    #[test]
    fn sketch_view_matches_linear_walk_after_merge_and_pool(
        a in any_stream(),
        b in any_stream(),
        c in heavy_tailed(),
        eps in 0.01f64..0.2,
        rq in proptest::collection::vec(0f64..1.0, 2..4),
    ) {
        let parts: Vec<KllSketch> = [&a, &b, &c]
            .iter()
            .map(|xs| {
                let mut s = KllSketch::new(eps);
                s.extend_from_counts(xs);
                s
            })
            .collect();
        let mut merged = parts[0].clone();
        merged.merge(&parts[1]);
        merged.merge(&parts[2]);
        let refs: Vec<&KllSketch> = parts.iter().collect();
        let pooled = KllSketch::pool(&refs);
        let mut compressed = merged.clone();
        compressed.compress();
        for s in [&merged, &compressed, &pooled] {
            assert_view_matches_oracle(s, &probe_qs(&rq), &probe_xs(s, &[]));
        }
    }

    /// Empty and single-item sketches at every probe.
    #[test]
    fn sketch_view_matches_linear_walk_when_empty_or_single(
        v in 0u64..1_000_000,
        eps in 0.01f64..0.2,
        rq in proptest::collection::vec(0f64..1.0, 2..4),
    ) {
        let empty = KllSketch::new(eps);
        assert_view_matches_oracle(&empty, &probe_qs(&rq), &probe_xs(&empty, &[v as f64]));
        let mut single = KllSketch::new(eps);
        single.insert(v);
        assert_view_matches_oracle(&single, &probe_qs(&rq), &probe_xs(&single, &[]));
    }
}
