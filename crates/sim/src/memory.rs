//! Memory-system models: global-memory coalescing and shared-memory bank
//! conflicts.

use multidim_device::{GpuSpec, WARP_SIZE};

/// Coalesce one warp's global access: given the active lanes' byte
/// addresses, count the distinct `transaction_bytes`-sized segments touched
/// (NVIDIA-style coalescing — Section II of the paper).
///
/// Returns `(transactions, bytes)`. Allocation-free; at most
/// [`WARP_SIZE`] distinct segments (one warp's lanes).
///
/// # Examples
///
/// ```
/// use multidim_sim::coalesce;
/// use multidim_device::GpuSpec;
///
/// let gpu = GpuSpec::tesla_k20c();
/// // 32 adjacent 4-byte accesses: one 128-byte transaction.
/// let seq: Vec<u64> = (0..32).map(|i| i * 4).collect();
/// assert_eq!(coalesce(&gpu, &seq), (1, 128));
/// // 32 accesses strided by 4 KiB: 32 transactions.
/// let strided: Vec<u64> = (0..32).map(|i| i * 4096).collect();
/// assert_eq!(coalesce(&gpu, &strided), (32, 32 * 128));
/// ```
pub fn coalesce(gpu: &GpuSpec, byte_addrs: &[u64]) -> (u64, u64) {
    let seg = gpu.transaction_bytes.max(1);
    let mut segments = [0u64; WARP_SIZE as usize];
    let mut n = 0usize;
    for &a in byte_addrs {
        let s = if seg.is_power_of_two() {
            a >> seg.trailing_zeros()
        } else {
            a / seg
        };
        // Neighbouring lanes mostly share a segment: check the newest
        // first.
        if n > 0 && segments[n - 1] == s || segments[..n].contains(&s) {
            continue;
        }
        segments[n] = s;
        n += 1;
    }
    (n as u64, n as u64 * seg)
}

/// Shared-memory bank conflicts for one warp access: word addresses map to
/// `banks` 4-byte banks; the access replays once per extra hit on the most
/// contended bank (identical addresses broadcast for free).
///
/// Returns the number of *extra* serialized passes (0 = conflict-free).
/// Allocation-free; `word_addrs` is one warp's active lanes, at most
/// [`WARP_SIZE`] of them.
///
/// # Panics
///
/// Panics if `word_addrs` holds more than [`WARP_SIZE`] addresses.
///
/// # Examples
///
/// ```
/// use multidim_sim::bank_conflicts;
///
/// // Conflict-free: consecutive words.
/// let seq: Vec<u64> = (0..32).collect();
/// assert_eq!(bank_conflicts(32, &seq), 0);
/// // 2-way conflict: stride 2.
/// let s2: Vec<u64> = (0..32).map(|i| i * 2).collect();
/// assert_eq!(bank_conflicts(32, &s2), 1);
/// // Broadcast: same word everywhere — free.
/// let b: Vec<u64> = vec![7; 32];
/// assert_eq!(bank_conflicts(32, &b), 0);
/// ```
pub fn bank_conflicts(banks: u32, word_addrs: &[u64]) -> u64 {
    const W: usize = WARP_SIZE as usize;
    assert!(
        word_addrs.len() <= W,
        "bank_conflicts takes one warp access: {} addresses",
        word_addrs.len()
    );
    let banks = u64::from(banks.max(1));
    let bank = |w: u64| {
        if banks.is_power_of_two() {
            w & (banks - 1)
        } else {
            w % banks
        }
    };
    // Fast path: every lane in its own bank (at most 64 banks), or every
    // lane on one word — both conflict-free.
    if banks <= 64 {
        let mut hit = 0u64;
        for &w in word_addrs {
            hit |= 1 << bank(w);
        }
        if hit.count_ones() as usize == word_addrs.len()
            || word_addrs.iter().all(|&w| w == word_addrs[0])
        {
            return 0;
        }
    }
    // Per bank, count *distinct* words (same word broadcasts): sort
    // (bank, word) pairs and take the longest run of distinct words in
    // one bank.
    let mut pairs = [(0u64, 0u64); W];
    for (p, &w) in pairs.iter_mut().zip(word_addrs) {
        *p = (bank(w), w);
    }
    let pairs = &mut pairs[..word_addrs.len()];
    pairs.sort_unstable();
    let mut worst = 0u64;
    let mut run = 0u64;
    for i in 0..pairs.len() {
        if i > 0 && pairs[i] == pairs[i - 1] {
            continue;
        }
        run = if i > 0 && pairs[i].0 == pairs[i - 1].0 {
            run + 1
        } else {
            1
        };
        worst = worst.max(run);
    }
    worst.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> GpuSpec {
        GpuSpec::tesla_k20c()
    }

    #[test]
    fn single_lane_one_transaction() {
        assert_eq!(coalesce(&gpu(), &[4096]), (1, 128));
    }

    #[test]
    fn two_segments_when_straddling() {
        // Two accesses in different 128B segments.
        assert_eq!(coalesce(&gpu(), &[0, 128]).0, 2);
        // Same segment: one.
        assert_eq!(coalesce(&gpu(), &[0, 124]).0, 1);
    }

    #[test]
    fn f64_sequential_is_two_transactions() {
        // 32 lanes x 8 bytes = 256 bytes = 2 segments.
        let addrs: Vec<u64> = (0..32).map(|i| i * 8).collect();
        assert_eq!(coalesce(&gpu(), &addrs).0, 2);
    }

    #[test]
    fn stride_interacts_with_segment_size() {
        // Stride 32 floats (128B): every lane its own segment.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 128).collect();
        assert_eq!(coalesce(&gpu(), &addrs).0, 32);
        // Stride 8 floats (32B): 4 lanes share a segment.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 32).collect();
        assert_eq!(coalesce(&gpu(), &addrs).0, 8);
    }

    #[test]
    fn conflict_heavy_stride() {
        // Stride 32 words on 32 banks: all lanes hit bank 0: 31 replays.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 32).collect();
        assert_eq!(bank_conflicts(32, &addrs), 31);
    }

    #[test]
    fn partial_warp() {
        let addrs: Vec<u64> = (0..7u64).map(|i| i * 4).collect();
        let (t, b) = coalesce(&gpu(), &addrs);
        assert_eq!(t, 1);
        assert_eq!(b, 128);
        assert_eq!(bank_conflicts(32, &addrs), 0);
    }

    #[test]
    fn empty_access() {
        assert_eq!(coalesce(&gpu(), &[]), (0, 0));
        assert_eq!(bank_conflicts(32, &[]), 0);
    }
}
