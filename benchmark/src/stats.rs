//! Order statistics, the FNV-1a virtual digest, and the seeded input
//! generators (uniform, Poisson gaps, Zipf ranks).

use shrimp_sim::SplitMix64;

/// Median of `values` (mean of the two middle ones for an even
/// count). `values` must be non-empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is the
/// rule the pipeline applies to a set of runs. Fewer than two values
/// give the value itself twice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// `(q3 - q1) / median`, in percent.
pub fn spread_pct(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    100.0 * (q3 - q1) / median(values)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The nearest-rank percentile `p` (0 < p ≤ 1) of sorted samples.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles the harness may report, lowest first.
const TAIL_LADDER: [f64; 5] = [0.90, 0.95, 0.99, 0.999, 0.9999];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten of `n` samples beyond it; `None` when even p90 has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// FNV-1a over every virtual sample of a rep. Two reps (and two
/// commits) produced the same virtual behaviour iff their digests match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold one integer in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a label in, so samples of different phases cannot alias.
    pub fn label(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }
}

/// A cheap order-sensitive checksum of a payload, for the "received
/// bytes equal sent bytes" check. Eight bytes per step, so checking a
/// 64 KiB message costs the harness a few microseconds, not the ~60 a
/// bytewise FNV would.
pub fn checksum(data: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ data.len() as u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    for &b in chunks.remainder() {
        h = (h.rotate_left(5) ^ b as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    h
}

/// A seeded stream with the draws the workloads need.
#[derive(Clone, Debug)]
pub struct Rng(SplitMix64);

impl Rng {
    /// Stream `stream` of `seed`: independent draws per purpose.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(SplitMix64::new(
            seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5851_F42D_4C95_7F2D,
        ))
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.0.next_below(bound)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.0.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fill `out` with bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        self.0.fill_bytes(out);
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A word-aligned size within `±spread_pct` percent of `nominal`.
    pub fn size_near(&mut self, nominal: usize, spread_pct: usize) -> usize {
        let words = nominal / 4;
        let span = (words * spread_pct / 100) as u64;
        let lo = words as u64 - span;
        4 * (lo + self.below(2 * span + 1)) as usize
    }
}

/// Cumulative Zipf(`s`) weights over `n` ranks.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf: Vec<f64> = (1..=n)
        .scan(0.0, |acc, i| {
            *acc += (i as f64).powf(-s);
            Some(*acc)
        })
        .collect();
    let total = *cdf.last().expect("non-empty keyspace");
    cdf.iter_mut().for_each(|w| *w /= total);
    cdf
}

/// One open-loop request.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// When the request is due, picoseconds after the step starts.
    pub due_ps: u64,
    /// Key rank (0 is the most popular).
    pub key: u32,
    /// `Some(value)` for a put, `None` for a get.
    pub put: Option<Vec<u8>>,
}

/// An arrival schedule with exponentially distributed gaps at
/// `rate_per_s`, Zipf-distributed keys through `cdf`, and `put_share`
/// of the requests puts of `val_len` seeded bytes.
///
/// Gaps and keys are drawn by stratified sampling: the `i`-th of
/// `count` draws takes its uniform from the `i`-th of `count` equal
/// slices of `[0, 1)`, and the draws are then shuffled. Each gap is
/// still exponential and each key still Zipf, but every seed offers
/// the same load and the same key popularity to within a fraction of a
/// percent; what the seed decides is the order, and so where the
/// bursts and the hot-key collisions fall. Plain independent draws
/// over a schedule this short move the offered load by several percent
/// from seed to seed, and tail latency under queueing with it.
pub fn poisson_schedule(
    rng: &mut Rng,
    count: usize,
    rate_per_s: f64,
    cdf: &[f64],
    put_share: f64,
    val_len: usize,
) -> Vec<Arrival> {
    let mean_gap_ps = 1e12 / rate_per_s;
    let slice = |rng: &mut Rng, i: usize| (i as f64 + rng.unit()) / count as f64;
    let mut gaps: Vec<f64> = (0..count)
        .map(|i| -(1.0 - slice(rng, i)).ln() * mean_gap_ps)
        .collect();
    rng.shuffle(&mut gaps);
    let mut keys: Vec<u32> = (0..count)
        .map(|i| {
            let u = slice(rng, i);
            cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u32
        })
        .collect();
    rng.shuffle(&mut keys);
    let puts = (put_share * count as f64).round() as usize;
    let mut is_put: Vec<bool> = (0..count).map(|i| i < puts).collect();
    rng.shuffle(&mut is_put);
    let mut at = 0.0f64;
    (0..count)
        .map(|i| {
            at += gaps[i];
            let put = is_put[i].then(|| {
                let mut v = vec![0u8; val_len];
                rng.fill(&mut v);
                v
            });
            Arrival {
                due_ps: at as u64,
                key: keys[i],
                put,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(199), Some(0.90));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(1_400), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7], 0.5), 7);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((spread_pct(&v) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn digest_is_stable() {
        // FNV-1a test vectors.
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.0, 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(d.0, 0x8594_4171_f739_67e8);
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.label("x");
        a.u64(1);
        b.label("x");
        b.u64(2);
        assert_ne!(a, b);
    }

    #[test]
    fn checksum_sees_order_and_length() {
        assert_ne!(
            checksum(&[1, 2, 3, 4, 5, 6, 7, 8, 9]),
            checksum(&[9, 2, 3, 4, 5, 6, 7, 8, 1])
        );
        assert_ne!(checksum(&[0; 8]), checksum(&[0; 16]));
        assert_eq!(checksum(b"same bytes"), checksum(b"same bytes"));
    }

    #[test]
    fn schedules_repeat_per_seed_and_differ_across_seeds() {
        let cdf = zipf_cdf(512, 0.99);
        let make = |seed| poisson_schedule(&mut Rng::new(seed, 3), 400, 6_000.0, &cdf, 0.3, 16);
        let a = make(1);
        assert_eq!(a, make(1), "same seed, same schedule");
        assert_ne!(a, make(2), "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0].due_ps <= w[1].due_ps));
        let puts = a.iter().filter(|r| r.put.is_some()).count();
        assert_eq!(puts, 120, "exactly 30% puts");
        let head = a.iter().filter(|r| r.key == 0).count();
        assert!(head > 30, "Zipf head key should lead, saw {head}/400");
        // Mean gap of 400 arrivals at 6 kops is 1/6 ms; stratified
        // draws land within a percent or two of it.
        let mean_gap_us = a.last().unwrap().due_ps as f64 / 1e6 / 400.0;
        assert!((162.0..172.0).contains(&mean_gap_us), "{mean_gap_us}");
        // Gaps are still spread like an exponential: about 1 - 1/e of
        // them are shorter than the mean.
        let short = a
            .windows(2)
            .filter(|w| ((w[1].due_ps - w[0].due_ps) as f64) < 1e12 / 6_000.0)
            .count();
        assert!(
            (230..275).contains(&short),
            "{short}/399 gaps below the mean"
        );
    }

    #[test]
    fn sizes_stay_near_nominal_and_word_aligned() {
        let mut rng = Rng::new(9, 0);
        for _ in 0..200 {
            let s = rng.size_near(1024, 6);
            assert!(s.is_multiple_of(4) && (960..=1088).contains(&s), "{s}");
        }
        assert_eq!(rng.size_near(4, 6), 4);
    }
}
