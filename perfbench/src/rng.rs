//! Seeded input generation: a small deterministic generator, a Zipf
//! sampler and the admissible-pair sampler. Everything the program
//! receives is derived from the run's `--seed` through these.

use csj_core::Community;

/// SplitMix64: tiny, deterministic, good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose of one run: `stream` separates the
    /// couples, corpus, upsert and request streams of the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(s) over `n` ranks: rank `k` (0-based) has weight `1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

/// Whether the CSJ size constraint admits the unordered pair:
/// the smaller side `B` must hold at least `ceil(|A|/2)` users.
pub fn admissible(x: &Community, y: &Community) -> bool {
    let (nb, na) = if x.len() <= y.len() {
        (x.len(), y.len())
    } else {
        (y.len(), x.len())
    };
    nb > 0 && nb >= na.div_ceil(2)
}

/// For every community, the other communities it forms an admissible
/// pair with. Drawing partners only from these lists is what keeps the
/// request stream free of typed size-constraint errors.
pub fn admissible_partners(communities: &[&Community]) -> Vec<Vec<usize>> {
    (0..communities.len())
        .map(|i| {
            (0..communities.len())
                .filter(|&j| j != i && admissible(communities[i], communities[j]))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(50, 1.0);
        let mut rng = Rng::new(1, 0);
        let mut counts = [0usize; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[49]);
    }

    #[test]
    fn admissibility_is_the_paper_size_rule() {
        let mk = |n: usize| {
            Community::from_rows("c", 1, (0..n).map(|i| (i as u64, vec![0u32]))).unwrap()
        };
        assert!(admissible(&mk(2), &mk(3)));
        assert!(admissible(&mk(3), &mk(2)));
        assert!(!admissible(&mk(1), &mk(3)));
        assert!(!admissible(&mk(0), &mk(0)));
        let cs = [mk(10), mk(5), mk(4)];
        let refs: Vec<&Community> = cs.iter().collect();
        assert_eq!(
            admissible_partners(&refs),
            vec![vec![1], vec![0, 2], vec![1]]
        );
    }
}
