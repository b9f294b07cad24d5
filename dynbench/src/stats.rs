//! Timing samples, nearest-rank percentiles, and host probes.

use std::hint::black_box;
use std::time::Instant;

/// A fixed-capacity buffer of nanosecond samples. The capacity is
/// allocated and written once up front, so recording a sample between
/// timed calls never allocates and never faults in a fresh page.
#[derive(Debug)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    /// A buffer holding up to `cap` samples, pre-faulted.
    pub fn with_capacity(cap: usize) -> Self {
        let mut ns = vec![u64::MAX; cap];
        ns.clear();
        Samples { ns }
    }

    /// Records one sample. Callers size the buffer for the whole run
    /// (see `Totals::has_room`), so a full buffer is a bug.
    #[inline]
    pub fn push(&mut self, ns: u64) {
        assert!(self.room() > 0, "sample buffer sized too small");
        self.ns.push(ns);
    }

    /// Samples recorded so far.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Room left before the buffer is full.
    pub fn room(&self) -> usize {
        self.ns.capacity() - self.ns.len()
    }

    /// The samples in recording order.
    pub fn as_slice(&self) -> &[u64] {
        &self.ns
    }

    /// Sum of all samples, in nanoseconds.
    pub fn total_ns(&self) -> u128 {
        self.ns.iter().map(|&x| u128::from(x)).sum()
    }

    /// The samples in ascending order.
    pub fn sorted(&self) -> Vec<u64> {
        let mut v = self.ns.clone();
        v.sort_unstable();
        v
    }
}

/// The nearest-rank `num/den` quantile of ascending `sorted`: the
/// smallest sample with at least `num/den` of all samples at or below
/// it (rank `⌈num·N/den⌉`, 1-based). Integer arithmetic, so p99 of 1000
/// samples is exactly the 990th.
pub fn nearest_rank(sorted: &[u64], num: usize, den: usize) -> Option<u64> {
    assert!(num > 0 && num <= den, "quantile {num}/{den} outside (0, 1]");
    let rank = (num * sorted.len()).div_ceil(den);
    (rank > 0).then(|| sorted[rank - 1])
}

/// Fewest samples that must lie above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Like [`nearest_rank`], but refuses a percentile with fewer than
/// [`MIN_BEYOND`] samples above its rank: such a tail rests on too few
/// calls to be repeatable.
pub fn tail_percentile(sorted: &[u64], num: usize, den: usize) -> Result<u64, String> {
    let rank = (num * sorted.len()).div_ceil(den);
    let beyond = sorted.len() - rank.min(sorted.len());
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{num}/{den} over {} samples leaves {beyond} beyond it; at least {MIN_BEYOND} are required",
            sorted.len()
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median (nearest rank) of unsorted samples; `None` when empty.
pub fn median(samples: &Samples) -> Option<u64> {
    nearest_rank(&samples.sorted(), 1, 2)
}

/// `(VmRSS, VmHWM)` of this process in KiB, from `/proc/self/status`.
pub fn rss_kib() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kib| kib.parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Nanoseconds this process's main thread has spent runnable but
/// waiting for a CPU (field 2 of `/proc/self/schedstat`; 0 where the
/// kernel does not expose it).
pub fn runqueue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|x| x.parse().ok()))
        .unwrap_or(0)
}

/// A fixed CPU-bound loop (a xorshift chain), timed five times; returns
/// the median in milliseconds. It does the same work on every host and
/// every commit, so a shift in it shows the host, not the code.
pub fn calibration_ms() -> f64 {
    let mut runs = [0f64; 5];
    for slot in runs.iter_mut() {
        let t = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..10_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        *slot = t.elapsed().as_secs_f64() * 1e3;
    }
    runs.sort_by(f64::total_cmp);
    runs[2]
}

/// The git revision of the checkout in the working directory, read
/// from `.git` without running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_follows_the_definition() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&v, 1, 2), Some(500));
        assert_eq!(nearest_rank(&v, 99, 100), Some(990));
        assert_eq!(nearest_rank(&v, 1, 1), Some(1000));
        assert_eq!(nearest_rank(&[7, 9, 11], 1, 2), Some(9));
        assert_eq!(nearest_rank(&[7, 9], 1, 2), Some(7));
        assert_eq!(nearest_rank(&[], 1, 2), None);
        // rank ⌈0.99·101⌉ = 100, not 99
        let w: Vec<u64> = (1..=101).collect();
        assert_eq!(nearest_rank(&w, 99, 100), Some(100));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let ok: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&ok, 99, 100), Ok(990));
        let short: Vec<u64> = (1..=999).collect();
        let err = tail_percentile(&short, 99, 100).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(tail_percentile(&[], 99, 100).is_err());
        assert_eq!(tail_percentile(&ok[..20], 1, 2), Ok(10));
    }

    #[test]
    fn samples_never_grow() {
        let mut s = Samples::with_capacity(3);
        let cap = s.ns.capacity();
        s.push(5);
        s.push(1);
        s.push(3);
        assert_eq!(s.ns.capacity(), cap);
        assert_eq!(s.sorted(), vec![1, 3, 5]);
        assert_eq!(median(&s), Some(3));
        assert_eq!(s.total_ns(), 9);
        assert_eq!(s.room(), 0);
    }
}
