//! Machine-speed sentinel: a fixed memory-bound kernel timed before and
//! after each run, so host drift can be told apart from a regression. It is
//! a diagnostic only; no metric is scaled, discarded or rerun because of it.

use std::time::Instant;

const WORDS: usize = 4 << 20; // 32 MiB of u64, well past the last-level cache
const PASSES: usize = 5;

/// Streaming-read bandwidth in GB/s, the median of five passes.
pub fn measure() -> f64 {
    let data: Vec<u64> = (0..WORDS as u64).collect();
    let mut rates = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t = Instant::now();
        let sum = data.iter().fold(0u64, |a, &x| a.wrapping_add(x));
        std::hint::black_box(sum);
        rates.push((WORDS * 8) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    crate::stats::median(&rates)
}
