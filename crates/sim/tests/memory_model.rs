//! `coalesce` and `bank_conflicts` against naive reference versions over
//! seeded random warps: full and partial masks, broadcasts, duplicate
//! words, strides 1–64, 4- and 8-byte elements, and the bank counts and
//! segment sizes of both `GpuSpec` presets.

use multidim_device::{GpuSpec, WARP_SIZE};
use multidim_sim::{bank_conflicts, coalesce};
use std::collections::{BTreeMap, BTreeSet};

/// xorshift64*: a fixed, dependency-free sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Distinct segments touched, counted with a set.
fn coalesce_ref(gpu: &GpuSpec, addrs: &[u64]) -> (u64, u64) {
    let seg = gpu.transaction_bytes.max(1);
    let n = addrs.iter().map(|a| a / seg).collect::<BTreeSet<_>>().len() as u64;
    (n, n * seg)
}

/// Most distinct words on one bank, minus one.
fn bank_conflicts_ref(banks: u32, words: &[u64]) -> u64 {
    let banks = u64::from(banks.max(1));
    let mut per_bank: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for &w in words {
        per_bank.entry(w % banks).or_default().insert(w);
    }
    per_bank
        .values()
        .map(|s| s.len() as u64)
        .max()
        .unwrap_or(1)
        .saturating_sub(1)
}

/// One warp's element indices: a strided, broadcast, duplicated or
/// scattered pattern from a random base, under a random lane mask.
fn warp(rng: &mut Rng) -> Vec<u64> {
    let base = rng.below(1 << 20);
    let stride = 1 + rng.below(64);
    let mut lanes: Vec<u64> = (0..u64::from(WARP_SIZE))
        .map(|l| match rng.below(5) {
            // Pure stride.
            0 => base + l * stride,
            // Broadcast: every lane on one element.
            1 => base,
            // Duplicates: lanes pair up on each element.
            2 => base + (l / 2) * stride,
            // Scattered.
            _ => base + rng.below(64 * stride),
        })
        .collect();
    // Half the warps use one pattern for every lane.
    if rng.below(2) == 0 {
        let pick = rng.below(3);
        for (l, e) in (0..).zip(lanes.iter_mut()) {
            *e = match pick {
                0 => base + l * stride,
                1 => base,
                _ => base + (l / 2) * stride,
            };
        }
    }
    // Full, partial or single-lane mask.
    match rng.below(3) {
        0 => {}
        1 => {
            let mask = rng.next() as u32;
            let mut l = 0;
            lanes.retain(|_| {
                l += 1;
                mask & (1 << (l - 1)) != 0
            });
        }
        _ => lanes.truncate(1 + rng.below(u64::from(WARP_SIZE)) as usize),
    }
    lanes
}

#[test]
fn coalesce_and_bank_conflicts_match_naive_references() {
    let presets = [GpuSpec::tesla_k20c(), GpuSpec::tesla_c2050()];
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut conflicted = 0;
    for round in 0..20_000 {
        let gpu = &presets[round % presets.len()];
        let elems = warp(&mut rng);
        for elem_bytes in [4u64, 8] {
            let base = rng.below(1 << 30) * 128;
            let addrs: Vec<u64> = elems.iter().map(|e| base + e * elem_bytes).collect();
            assert_eq!(
                coalesce(gpu, &addrs),
                coalesce_ref(gpu, &addrs),
                "coalesce {addrs:?} on {}",
                gpu.name
            );
        }
        let got = bank_conflicts(gpu.smem_banks, &elems);
        assert_eq!(
            got,
            bank_conflicts_ref(gpu.smem_banks, &elems),
            "bank_conflicts {elems:?} on {} banks",
            gpu.smem_banks
        );
        conflicted += u64::from(got > 0);
    }
    // The sweep must exercise the conflicted path, not only fast cases.
    assert!(conflicted > 1_000, "only {conflicted} conflicted warps");
    // And every stride 1–64 on a full warp.
    for gpu in &presets {
        for stride in 1..=64u64 {
            let words: Vec<u64> = (0..u64::from(WARP_SIZE)).map(|l| l * stride).collect();
            assert_eq!(
                bank_conflicts(gpu.smem_banks, &words),
                bank_conflicts_ref(gpu.smem_banks, &words),
                "stride {stride}"
            );
        }
    }
}

#[test]
fn empty_accesses_cost_nothing() {
    let gpu = GpuSpec::tesla_k20c();
    assert_eq!(coalesce(&gpu, &[]), (0, 0));
    assert_eq!(bank_conflicts(gpu.smem_banks, &[]), 0);
}
