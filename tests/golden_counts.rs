//! Golden-snapshot pin of the full `PerfCounts` blocks for three
//! benchmark entries at quick windows (seed 2013).
//!
//! These constants were captured from the single-core `Core::run` path
//! **before** the hierarchy-ownership refactor that split `Hierarchy`
//! into `PrivateHierarchy` + `SharedL3` and introduced the chip model.
//! They pin two guarantees at once:
//!
//! 1. no hierarchy/pipeline refactor may silently shift single-core
//!    numbers — any drift fails field-by-field with a readable diff;
//! 2. a 1-core [`dc_cpu::Chip`] is **bit-identical** to `Core::run`
//!    (the refactor's central acceptance check), checked by driving
//!    the chip path against the same constants.
//!
//! If a deliberate model change shifts these numbers, regenerate the
//! constants (`Characterizer::raw_counts` at `SimOptions::quick()`,
//! seed 2013) and say so loudly in the commit message.

use dc_cpu::{core::SimOptions, CpuConfig, PerfCounts};
use dcbench::{cache, BenchmarkId, Characterizer};

fn golden_harness() -> Characterizer {
    Characterizer::new(CpuConfig::westmere_e5645(), SimOptions::quick(), 2013)
}

const SORT: PerfCounts = PerfCounts {
    cycles: 539620,
    instructions: 199999,
    user_instructions: 152040,
    kernel_instructions: 47959,
    fetch_stall_cycles: 338832,
    rat_stall_cycles: 12748,
    rs_full_stall_cycles: 76892,
    rob_full_stall_cycles: 27678,
    load_buf_stall_cycles: 0,
    store_buf_stall_cycles: 248,
    l1i_accesses: 24702,
    l1i_misses: 5726,
    itlb_accesses: 24702,
    itlb_misses: 2959,
    itlb_walks: 61,
    l1d_accesses: 76573,
    l1d_misses: 42883,
    dtlb_accesses: 76573,
    dtlb_misses: 335,
    dtlb_walks: 130,
    l2_accesses: 48609,
    l2_misses: 9694,
    l3_accesses: 9694,
    l3_misses: 2266,
    prefetches: 19206,
    branches: 33333,
    branch_mispredicts: 2137,
    loads: 50083,
    stores: 26490,
};

const MEDIA_STREAMING: PerfCounts = PerfCounts {
    cycles: 574726,
    instructions: 199998,
    user_instructions: 99704,
    kernel_instructions: 100294,
    fetch_stall_cycles: 313676,
    rat_stall_cycles: 139668,
    rs_full_stall_cycles: 0,
    rob_full_stall_cycles: 24005,
    load_buf_stall_cycles: 0,
    store_buf_stall_cycles: 26,
    l1i_accesses: 24718,
    l1i_misses: 7036,
    itlb_accesses: 24718,
    itlb_misses: 2287,
    itlb_walks: 117,
    l1d_accesses: 70133,
    l1d_misses: 47025,
    dtlb_accesses: 70133,
    dtlb_misses: 591,
    dtlb_walks: 235,
    l2_accesses: 54061,
    l2_misses: 13804,
    l3_accesses: 13804,
    l3_misses: 3315,
    prefetches: 19426,
    branches: 33325,
    branch_mispredicts: 3013,
    loads: 48516,
    stores: 21617,
};

const HPCC_STREAM: PerfCounts = PerfCounts {
    cycles: 415437,
    instructions: 200001,
    user_instructions: 200001,
    kernel_instructions: 0,
    fetch_stall_cycles: 867,
    rat_stall_cycles: 0,
    rs_full_stall_cycles: 0,
    rob_full_stall_cycles: 309568,
    load_buf_stall_cycles: 0,
    store_buf_stall_cycles: 31787,
    l1i_accesses: 14116,
    l1i_misses: 3,
    itlb_accesses: 14116,
    itlb_misses: 0,
    itlb_walks: 0,
    l1d_accesses: 92059,
    l1d_misses: 11508,
    dtlb_accesses: 92059,
    dtlb_misses: 180,
    dtlb_walks: 180,
    l2_accesses: 11511,
    l2_misses: 4937,
    l3_accesses: 4937,
    l3_misses: 4937,
    prefetches: 15870,
    branches: 20000,
    branch_mispredicts: 23,
    loads: 59669,
    stores: 32390,
};

const GOLDEN: [(BenchmarkId, PerfCounts); 3] = [
    (BenchmarkId::Sort, SORT),
    (BenchmarkId::MediaStreaming, MEDIA_STREAMING),
    (BenchmarkId::HpccStream, HPCC_STREAM),
];

/// One test drives both paths so the shared memoization cache cannot
/// satisfy the second path from the first one's fill: the Core path
/// simulates, the cache is cleared, then the 1-core chip path simulates
/// the same keys from scratch against the same constants.
#[test]
fn counters_match_pre_refactor_golden_values() {
    let c = golden_harness();
    for (id, want) in GOLDEN {
        assert_eq!(
            c.raw_counts(id),
            want,
            "single-core counters drifted for {id:?}"
        );
    }
    cache::clear();
    for (id, want) in GOLDEN {
        let co = c.corun_counts(id, 1);
        assert_eq!(co.len(), 1);
        assert_eq!(
            co[0], want,
            "1-core chip diverged from Core::run for {id:?}"
        );
    }
}

/// Interval sampling against the same golden constants: for each pinned
/// entry, the sampled aggregate (recorder disabled — the default) must
/// equal the pre-PR block bit-for-bit, and the per-interval counter
/// deltas must sum back to it **exactly, field for field**. Sampling is
/// observation-only; these constants prove it against real workload
/// traces, not toy streams.
#[test]
fn sampled_deltas_sum_to_the_golden_aggregates() {
    let c = golden_harness();
    for every_cycles in [33_000, 100_000] {
        for (id, want) in GOLDEN {
            let run = c.raw_sampled(id, every_cycles);
            assert_eq!(
                run.aggregate, want,
                "sampling perturbed counters for {id:?} at interval {every_cycles}"
            );
            assert_eq!(
                run.summed(),
                want,
                "interval deltas do not telescope for {id:?} at interval {every_cycles}"
            );
            assert!(
                run.samples.len() > 1,
                "window should span several intervals for {id:?}"
            );
        }
    }
}
