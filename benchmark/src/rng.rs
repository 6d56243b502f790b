//! Seeded inputs: a SplitMix64 generator, and per-client schedules of
//! uniform or zipf-distributed item indices over a fixed ranking.
//!
//! The benchmark owns these instead of reusing the repository's load
//! generator, so a change to that generator cannot change what the
//! benchmark measures.

/// SplitMix64 (Steele, Lea and Flood): a 64-bit state, one add and a
/// finalizer per draw.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Fisher-Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How a schedule picks the next item out of `n` ranked items. The
/// ranking is fixed (item 0 is the hottest), so the seed changes which
/// draws come out but never which item is hot.
#[derive(Debug, Clone)]
pub enum Draw {
    Uniform(usize),
    /// Cumulative masses of item `r` weighted `1 / (r + 1)^skew`.
    Zipf(Vec<f64>),
}

impl Draw {
    pub fn zipf(n: usize, skew: f64) -> Draw {
        let mut cdf: Vec<f64> = (0..n)
            .scan(0.0, |acc, r| {
                *acc += 1.0 / ((r + 1) as f64).powf(skew);
                Some(*acc)
            })
            .collect();
        let total = cdf.last().copied().unwrap_or(1.0);
        for c in &mut cdf {
            *c /= total;
        }
        Draw::Zipf(cdf)
    }

    /// The item at position `u` in `[0, 1)` of the distribution.
    pub fn item(&self, u: f64) -> usize {
        match self {
            Draw::Uniform(n) => ((u * *n as f64) as usize).min(n - 1),
            Draw::Zipf(cdf) => cdf.partition_point(|&c| c <= u).min(cdf.len() - 1),
        }
    }
}

/// The fractional part of the golden ratio.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// One client's stream of item indices. Each client has its own seed, so
/// a stream does not depend on how client threads interleave.
#[derive(Debug, Clone)]
pub struct Schedule {
    draw: Draw,
    order: Order,
}

#[derive(Debug, Clone)]
enum Order {
    /// Independent draws.
    Random(SplitMix64),
    /// A golden-ratio (low-discrepancy) walk from a seeded start: any
    /// stretch of the stream holds each item in almost exactly its share.
    Even(f64),
}

impl Schedule {
    /// Independent draws, for a workload whose caches respond to the
    /// order of requests: a golden-ratio walk repeats its pattern of
    /// reuse distances, which moved the hit ratio on `serve_churn` between
    /// 0.47 and 0.60 from seed to seed.
    pub fn random(draw: &Draw, seed: u64, client: usize) -> Schedule {
        Schedule {
            draw: draw.clone(),
            order: Order::Random(client_rng(seed, client)),
        }
    }

    /// An even walk, for a workload whose cost depends only on the mix:
    /// independent draws left about 7% of a second's work on `serve_warm`
    /// to chance.
    pub fn even(draw: &Draw, seed: u64, client: usize) -> Schedule {
        Schedule {
            draw: draw.clone(),
            order: Order::Even(client_rng(seed, client).unit()),
        }
    }
}

fn client_rng(seed: u64, client: usize) -> SplitMix64 {
    SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0xd134_2543_de82_ef95))
}

impl Iterator for Schedule {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let u = match &mut self.order {
            Order::Random(rng) => rng.unit(),
            Order::Even(u) => {
                *u = (*u + GOLDEN).fract();
                *u
            }
        };
        Some(self.draw.item(u))
    }
}

/// FNV-1a over the first `len` items of every schedule: equal digests
/// mean the same requests in the same order.
pub fn digest(schedules: &[Schedule], len: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for schedule in schedules {
        for idx in schedule.clone().take(len) {
            for b in (idx as u64).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for draw in [Draw::Uniform(27), Draw::zipf(216, 1.0)] {
            for make in [Schedule::random, Schedule::even] {
                let schedules = |seed| [make(&draw, seed, 0), make(&draw, seed, 1)];
                let a = digest(&schedules(42), 4096);
                assert_eq!(a, digest(&schedules(42), 4096));
                assert_ne!(a, digest(&schedules(43), 4096));
            }
        }
    }

    #[test]
    fn clients_get_distinct_streams() {
        let draw = Draw::Uniform(27);
        for make in [Schedule::random, Schedule::even] {
            let a: Vec<usize> = make(&draw, 7, 0).take(64).collect();
            let b: Vec<usize> = make(&draw, 7, 1).take(64).collect();
            assert_ne!(a, b);
        }
    }

    #[test]
    fn random_draws_keep_the_ranking() {
        let draw = Draw::zipf(8, 1.0);
        let mut counts = [0usize; 8];
        for i in Schedule::random(&draw, 1, 0).take(80_000) {
            counts[i] += 1;
        }
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
        assert!(counts[7] > 0);
    }

    #[test]
    fn any_stretch_of_an_even_schedule_holds_each_item_in_its_share() {
        let n = 27;
        let draw = Draw::zipf(n, 1.0);
        let h: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut schedule = Schedule::even(&draw, 9, 1);
        for len in [1_000, 20_000] {
            let mut counts = vec![0usize; n];
            for i in schedule.by_ref().take(len) {
                counts[i] += 1;
            }
            for (r, &c) in counts.iter().enumerate() {
                let want = len as f64 / (r + 1) as f64 / h;
                assert!((c as f64 - want).abs() <= 3.0, "rank {r}: {c} vs {want:.1}");
            }
        }
        let uniform: Vec<usize> = Schedule::even(&Draw::Uniform(4), 1, 0).take(400).collect();
        for item in 0..4 {
            let c = uniform.iter().filter(|&&i| i == item).count();
            assert!((98..=102).contains(&c), "item {item}: {c}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..27).collect();
        SplitMix64::new(3).shuffle(&mut v);
        assert_ne!(v, (0..27).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..27).collect::<Vec<_>>());
    }
}
