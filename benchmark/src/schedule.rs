//! Seeded request schedules. Everything random in a run — query order, the
//! shared submission schedule, the Zipf key draws — comes from [`Rng`]
//! streams derived from `--seed`, so the same seed replays the same inputs.

/// SplitMix64: tiny, fast, and good enough for shuffles and uniform draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair; streams keep rounds and
    /// workloads independent of each other.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `blocks` shuffled blocks, each holding every shape `reps` times. Every
/// block — and so every round — has the same mix, which keeps a round's
/// throughput from depending on which shapes the seed happened to draw.
pub fn balanced_blocks(rng: &mut Rng, shapes: usize, reps: usize, blocks: usize) -> Vec<usize> {
    let mut schedule = Vec::with_capacity(shapes * reps * blocks);
    for _ in 0..blocks {
        let mut block: Vec<usize> = (0..shapes * reps).map(|i| i % shapes).collect();
        rng.shuffle(&mut block);
        schedule.extend(block);
    }
    schedule
}

/// Cumulative distribution of Zipf(`s`) over ranks `0..n`.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// `n` keys drawn from `cdf` by systematic sampling — evenly spaced
/// quantiles behind one seeded random start — then shuffled. Popular keys
/// appear in proportion to their weight in every draw and the tail keys
/// change with the start, so rounds differ in *which* keys they touch but
/// hardly in *how many*, which is what a cache's miss count depends on.
pub fn zipf_systematic(rng: &mut Rng, cdf: &[f64], n: usize) -> Vec<usize> {
    let start = rng.unit();
    let mut keys: Vec<usize> = (0..n)
        .map(|k| {
            let u = (k as f64 + start) / n as f64;
            cdf.partition_point(|c| *c <= u).min(cdf.len() - 1)
        })
        .collect();
    rng.shuffle(&mut keys);
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 3);
            let order = balanced_blocks(&mut rng, 7, 1, 4);
            let keys = zipf_systematic(&mut rng, &zipf_cdf(256, 1.0), 400);
            (order, keys)
        };
        assert_eq!(draw(2016), draw(2016));
        assert_ne!(draw(2016).0, draw(2017).0);
        assert_ne!(draw(2016).1, draw(2017).1);
        // Streams of one seed are independent too.
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(1, 1).next_u64());
    }

    #[test]
    fn blocks_are_balanced() {
        let schedule = balanced_blocks(&mut Rng::new(9, 0), 4, 2, 5);
        assert_eq!(schedule.len(), 40);
        for block in schedule.chunks(8) {
            for shape in 0..4 {
                assert_eq!(block.iter().filter(|s| **s == shape).count(), 2);
            }
        }
    }

    #[test]
    fn zipf_draws_follow_the_distribution() {
        let cdf = zipf_cdf(256, 1.0);
        assert!((cdf[255] - 1.0).abs() < 1e-9);
        // H(256) ≈ 6.124, so rank 0 holds ≈ 16.3 % of the mass.
        assert!((cdf[0] - 0.1633).abs() < 1e-3);
        let mut distinct = Vec::new();
        for seed in 0..8 {
            let keys = zipf_systematic(&mut Rng::new(seed, 0), &cdf, 400);
            assert_eq!(keys.len(), 400);
            assert!(keys.iter().all(|k| *k < 256));
            let top = keys.iter().filter(|k| **k == 0).count();
            assert!((65..=66).contains(&top), "rank 0 drawn {top} times");
            let mut seen = keys.clone();
            seen.sort_unstable();
            seen.dedup();
            distinct.push(seen.len());
        }
        // The distinct-key count barely moves between seeds.
        let (lo, hi) = (distinct.iter().min().unwrap(), distinct.iter().max().unwrap());
        assert!(hi - lo <= 4, "distinct keys per draw: {distinct:?}");
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut rng = Rng::new(5, 5);
        for _ in 0..1_000 {
            assert!((0.0..1.0).contains(&rng.unit()));
            assert!(rng.below(7) < 7);
        }
    }
}
