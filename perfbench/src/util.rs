//! Shared plumbing: seeded randomness, set-up and round timing, medians,
//! memory and host calibration.

use std::time::Instant;

use crate::trace;

/// SplitMix64: the benchmark's own seeded stream for inputs and samples.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `count` random vectors of `width` bits.
    pub fn vectors(&mut self, count: usize, width: usize) -> Vec<Vec<bool>> {
        (0..count)
            .map(|_| {
                let mut bits = Vec::with_capacity(width);
                while bits.len() < width {
                    let w = self.next_u64();
                    bits.extend((0..64.min(width - bits.len())).map(|k| (w >> k) & 1 == 1));
                }
                bits
            })
            .collect()
    }
}

/// Fixed generation seed of a named circuit (FNV-1a of the name), the
/// seed the repository's Table 1 tooling generates its circuits with.
#[must_use]
pub fn circuit_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// Median (mean of the middle two for even counts); 0 for no samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1]; 0 for no samples.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Runs the workload's set-up `reps` times, each inside a `setup` span,
/// and returns the last result with the median set-up time in seconds.
pub fn setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        let _span = trace::span("setup", rep as u64);
        let started = Instant::now();
        last = Some(f());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&times))
}

/// Runs whole rounds, each inside a `round` span, until `seconds` have
/// passed (at least one round), and returns every round's result with
/// its wall time in seconds.
pub fn rounds<T>(seconds: f64, mut f: impl FnMut(u64) -> T) -> (Vec<T>, Vec<f64>) {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut times = Vec::new();
    loop {
        let _span = trace::span("round", out.len() as u64);
        let t = Instant::now();
        out.push(f(out.len() as u64));
        times.push(t.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (out, times)
}

/// [`rounds`] for workloads whose rounds must repeat exactly: keeps only
/// the first round's result (so memory does not grow with the round
/// count) and lists the later rounds that `same` finds different from it.
pub fn repeat_rounds<T>(
    seconds: f64,
    mut f: impl FnMut() -> T,
    same: impl Fn(&T, &T) -> bool,
) -> (T, Vec<f64>, Vec<u64>) {
    let mut first: Option<T> = None;
    let mut differing = Vec::new();
    let (_, times) = rounds(seconds, |round| {
        let result = f();
        match &first {
            None => first = Some(result),
            Some(kept) => {
                if !same(kept, &result) {
                    differing.push(round);
                }
            }
        }
    });
    (first.expect("at least one round ran"), times, differing)
}

/// Runs one operation of a round and appends its wall time in ms to
/// `op_ms`.
pub fn op<T>(op_ms: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let v = f();
    op_ms.push(started.elapsed().as_secs_f64() * 1e3);
    v
}

/// Seconds elapsed while `f` runs, inside a span named `name`.
pub fn timed<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = trace::span(name, id);
    let started = Instant::now();
    let v = f();
    (v, started.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host calibration: a fixed integer loop that touches none of the
/// program's code, timed five times; the median in ms. It shows how fast
/// the host ran during this run, so drift can be told apart from a
/// change in the program.
#[must_use]
pub fn host_calibration_ms() -> f64 {
    let mut times = Vec::with_capacity(5);
    for rep in 0..5u64 {
        let started = Instant::now();
        let mut table = [0u64; 4096];
        let mut x = rep ^ 0x2545_f491_4f6c_dd1d;
        for i in 0..4_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & 4095;
            table[slot] = table[slot].wrapping_add(i ^ x);
        }
        std::hint::black_box(&table);
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// Memory calibration: a dependent walk of 500 000 loads around one
/// random cycle through 32 MiB, timed three times; the median in ms. The
/// walk misses the caches on almost every load, so it shows contention for
/// the shared cache and memory that the integer loop does not. It runs in
/// a child process (`perfbench --calibrate-memory`) so its buffer stays out
/// of the benchmark's own peak memory.
#[must_use]
pub fn memory_calibration_ms() -> f64 {
    const SLOTS: usize = 1 << 23;
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    // Sattolo's shuffle: the slots form a single cycle.
    let mut rng = Rng::new(0x6d65_6d6f_7279);
    for i in (1..SLOTS).rev() {
        next.swap(i, rng.below(i));
    }
    let mut times = Vec::with_capacity(3);
    let mut at = 0u32;
    for _ in 0..3 {
        let started = Instant::now();
        for _ in 0..500_000 {
            at = next[at as usize];
        }
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    std::hint::black_box(at);
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
    }

    #[test]
    fn streams_repeat_for_a_seed() {
        assert_eq!(Rng::new(7).vectors(3, 70), Rng::new(7).vectors(3, 70));
        assert_ne!(Rng::new(7).vectors(3, 70), Rng::new(8).vectors(3, 70));
    }
}
