//! Shared helpers of the golden-record tests: the FNV-1a digest the records
//! use, and the comparison that reports the first differing line.

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Panic unless `actual` equals the committed record `golden`
/// (`tests/golden/<name>.txt`). On a mismatch the full actual record is
/// written to `<name>.actual.txt` next to the build's temporary files, and
/// the message names the first differing line.
pub fn check(name: &str, golden: &str, actual: &str) {
    if actual == golden {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
    std::fs::write(&path, actual).expect("write the actual record");
    let want: Vec<&str> = golden.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let line = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(0);
    let (want, got) = (
        want.get(line).copied().unwrap_or("<end>"),
        got.get(line).copied().unwrap_or("<end>"),
    );
    let line = line + 1;
    panic!(
        "record differs from tests/golden/{name}.txt at line {line}\n  \
         want: {want}\n  got:  {got}\nfull actual record: {}",
        path.display()
    );
}
