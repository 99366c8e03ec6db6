//! The seeded request stream every workload draws from: a key distribution
//! (uniform or Zipf over ranks) and the 75/25 Inc/Read counter mix. The same `(seed, client)` pair always
//! yields the same stream, so the timed window and the traced layer
//! replay see identical inputs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
pub use sbu_service::Skew;
use sbu_spec::specs::CounterOp;

/// Share of requests that are `Inc` (the rest are `Read`).
pub const INC_SHARE: f64 = 0.75;

/// One client's seeded stream of `(key, op)` requests.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: SmallRng,
    keys: u64,
    /// Cumulative Zipf mass per rank (empty = uniform).
    cdf: Vec<f64>,
}

impl Stream {
    pub fn new(seed: u64, client: u64, keys: usize, skew: Skew) -> Self {
        let cdf = match skew {
            Skew::Uniform => Vec::new(),
            Skew::Zipf(theta) => {
                let mut total = 0.0;
                let mut cdf: Vec<f64> = (1..=keys)
                    .map(|rank| {
                        total += 1.0 / (rank as f64).powf(theta);
                        total
                    })
                    .collect();
                cdf.iter_mut().for_each(|c| *c /= total);
                cdf
            }
        };
        let rng =
            SmallRng::seed_from_u64(seed ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(client + 1));
        Self {
            rng,
            keys: keys as u64,
            cdf,
        }
    }

    pub fn next_key(&mut self) -> u64 {
        if self.cdf.is_empty() {
            return self.rng.gen_range(0..self.keys);
        }
        let u: f64 = self.rng.gen();
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.keys - 1)
    }

    pub fn next_op(&mut self) -> CounterOp {
        if self.rng.gen_bool(INC_SHARE) {
            CounterOp::Inc
        } else {
            CounterOp::Read
        }
    }

    pub fn next(&mut self) -> (u64, CounterOp) {
        let key = self.next_key();
        (key, self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<_> = (0..100)
            .scan(Stream::new(7, 1, 64, Skew::Zipf(0.99)), |s, _| {
                Some(s.next())
            })
            .collect();
        let b: Vec<_> = (0..100)
            .scan(Stream::new(7, 1, 64, Skew::Zipf(0.99)), |s, _| {
                Some(s.next())
            })
            .collect();
        assert_eq!(a, b);
        let c: Vec<_> = (0..100)
            .scan(Stream::new(8, 1, 64, Skew::Zipf(0.99)), |s, _| {
                Some(s.next())
            })
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn mix_is_three_quarters_inc() {
        let mut s = Stream::new(1, 0, 16, Skew::Uniform);
        let incs = (0..10_000)
            .filter(|_| s.next_op() == CounterOp::Inc)
            .count();
        assert!((7_000..8_000).contains(&incs), "{incs}");
    }
}
