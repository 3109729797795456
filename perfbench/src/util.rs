//! Shared pieces: metric values, order statistics, the output-check
//! ledger, counter digests, and the seed derivations the layer probes
//! replay.

use dc_cpu::PerfCounts;
use dcbench::BenchmarkId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank quantile `q` in (0, 1].
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let v = sorted(xs);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Counts every checked operation and every failed one: a non-ok
/// reply, a dropped connection or an output mismatch.
#[derive(Default)]
pub struct Checks {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Checks {
    /// Record one operation; `what` names it on standard error when it
    /// failed.
    pub fn op(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
            eprintln!("perfbench: check failed: {}", what());
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// FNV-1a over the declaration-order fields of each counter block.
pub fn digest<'a>(blocks: impl IntoIterator<Item = &'a PerfCounts>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for block in blocks {
        for v in dc_store::counts_to_array(block) {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// The per-entry trace seed `Characterizer` derives from its master
/// seed. The probes replay traces drawn from it and check the replay
/// against the harness's own counters, so a drift here fails loudly.
pub fn entry_seed(seed: u64, id: BenchmarkId) -> u64 {
    seed ^ (id as u64) << 3
}

/// The trace seed of co-runner `k` of an entry.
pub fn corun_seed(seed: u64, id: BenchmarkId, k: usize) -> u64 {
    entry_seed(seed, id) ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// All CPUs' jiffies from the first line of `/proc/stat`: the time
/// they wanted to run (user, nice, system, irq, softirq and steal) and
/// the part of it the hypervisor gave to other guests (steal).
fn busy_and_stolen_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    match f[..] {
        [user, nice, system, _idle, _iowait, irq, softirq, steal] => {
            (user + nice + system + irq + softirq + steal, steal)
        }
        _ => (0, 0),
    }
}

/// Wall time with the hypervisor's steal taken out.
///
/// The reference host is a virtual machine on a shared host that steals
/// 5-33% of its CPU time, varying over minutes; one cold pass measured
/// 15.5-19.5 s of wall time and 14.4-15.3 s once steal was taken out.
/// [`Stopwatch::unstolen`] scales the wall time by the share of the
/// CPUs' busy time that was not stolen while it ran.
pub struct Stopwatch {
    t: Instant,
    jiffies: (u64, u64),
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            t: Instant::now(),
            jiffies: busy_and_stolen_jiffies(),
        }
    }

    /// The share of busy CPU time since start that was not stolen.
    pub fn kept(&self) -> f64 {
        let (busy, stolen) = busy_and_stolen_jiffies();
        let busy = busy.saturating_sub(self.jiffies.0);
        let stolen = stolen.saturating_sub(self.jiffies.1);
        if busy == 0 {
            1.0
        } else {
            1.0 - stolen as f64 / busy as f64
        }
    }

    /// Seconds since start, less the stolen share.
    pub fn unstolen(&self) -> f64 {
        secs(self.t) * self.kept()
    }
}

/// Runs of [`timed_reps`] that share one measurement of steal.
const REPS_PER_CHUNK: usize = 100;

/// Run `op` `n` times and push each run's seconds to `out`, less the
/// share of CPU time stolen over its chunk of [`REPS_PER_CHUNK`] runs:
/// one run is too short for the kernel's 10 ms jiffies to measure its
/// own steal.
pub fn timed_reps(n: usize, out: &mut Vec<f64>, mut op: impl FnMut()) {
    let mut left = n;
    while left > 0 {
        let reps = left.min(REPS_PER_CHUNK);
        left -= reps;
        let sw = Stopwatch::start();
        let raw: Vec<f64> = (0..reps).map(|_| timed(&mut op).1).collect();
        let kept = sw.kept();
        out.extend(raw.iter().map(|s| s * kept));
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
