//! The replay codec: every op round-trips at full width, a replay read
//! past its recorded prefix continues the live stream, and the core
//! cannot tell a replayed stream from a synthesized one.

use dc_cpu::{core::SimOptions, Core, CpuConfig};
use dc_trace::op::{MicroOp, Mode, OpKind};
use dc_trace::profile::{AccessPattern, DataRegion, WorkloadProfile};
use dc_trace::replay::OpBuffer;
use dc_trace::{Replay, SyntheticTrace};
use proptest::prelude::*;

/// A full-range `u64`, biased towards the values at the edges of the
/// varint widths and towards small neighbours of the last value, so
/// both tiny and ten-byte deltas appear.
fn wide_u64(rng: &mut TestRng, last: u64) -> u64 {
    match rng.below(6) {
        0 => [0, 1, u64::MAX, i64::MAX as u64, i64::MIN as u64, 1 << 63][rng.below(6) as usize],
        1 => last.wrapping_add(rng.below(1 << 16)).wrapping_sub(1 << 15),
        2 => 1u64
            .checked_shl(rng.below(64) as u32)
            .unwrap_or(0)
            .wrapping_sub(rng.below(2)),
        _ => rng.next_u64(),
    }
}

/// Arbitrary `MicroOp` sequences: every class, both modes, any access
/// size, any dep distance, full-range pc, address and target.
struct AnyOps(std::ops::Range<usize>);

impl Strategy for AnyOps {
    type Value = Vec<MicroOp>;

    fn sample(&self, rng: &mut TestRng) -> Vec<MicroOp> {
        let n = self.0.sample(rng);
        let mut last = 0u64;
        (0..n)
            .map(|_| {
                let pc = wide_u64(rng, last);
                let addr = wide_u64(rng, last);
                let size = rng.below(256) as u8;
                let kind = match rng.below(7) {
                    0 => OpKind::IntAlu,
                    1 => OpKind::IntMul,
                    2 => OpKind::Div,
                    3 => OpKind::FpAlu,
                    4 => OpKind::Load { addr, size },
                    5 => OpKind::Store { addr, size },
                    _ => OpKind::Branch {
                        taken: rng.below(2) == 1,
                        target: wide_u64(rng, pc),
                    },
                };
                last = pc;
                MicroOp {
                    pc,
                    kind,
                    mode: if rng.below(2) == 1 {
                        Mode::Kernel
                    } else {
                        Mode::User
                    },
                    dep_dist: if rng.below(2) == 1 {
                        rng.below(1 << 16) as u16
                    } else {
                        [0, 1, 127, 128, u16::MAX][rng.below(5) as usize]
                    },
                    rat_hazard: rng.below(2) == 1,
                }
            })
            .collect()
    }
}

fn profile() -> WorkloadProfile {
    WorkloadProfile::builder("replay-test")
        .code_footprint_kib(256)
        .kernel_fraction(0.2)
        .data(vec![
            DataRegion::new(64 << 20, 0.3, AccessPattern::Random),
            DataRegion::new(1 << 20, 0.7, AccessPattern::Sequential { stride: 64 }),
        ])
        .build()
        .expect("valid profile")
}

proptest! {
    #![cases(256)]

    /// Encoding then decoding returns every op bit for bit.
    #[test]
    fn any_op_sequence_round_trips(ops in AnyOps(0..400)) {
        let mut buf = OpBuffer::new();
        for op in &ops {
            buf.push(op);
        }
        prop_assert_eq!(buf.len(), ops.len() as u64);
        let back: Vec<MicroOp> = buf.iter().collect();
        prop_assert_eq!(back, ops);
    }

    /// Reading `k` ops past a recorded prefix of `n` continues the
    /// synthesizer exactly.
    #[test]
    fn reading_past_the_prefix_continues_the_live_stream(
        seed in 0u64..1_000,
        n in 0u64..3_000,
        k in 0usize..3_000,
    ) {
        let p = profile();
        let replay = Replay::record(&p, seed, n);
        prop_assert_eq!(replay.len(), n);
        let want: Vec<MicroOp> = SyntheticTrace::new(&p, seed).take(n as usize + k).collect();
        let got: Vec<MicroOp> = replay.reader().take(n as usize + k).collect();
        prop_assert_eq!(got, want);
    }
}

#[test]
fn a_tee_records_exactly_what_it_yields() {
    let p = profile();
    let mut tee = Replay::tee(&p, 9);
    let seen: Vec<MicroOp> = tee.by_ref().take(5_000).collect();
    let replay = tee.finish();
    assert_eq!(replay.len(), 5_000);
    let again: Vec<MicroOp> = replay.reader().take(5_000).collect();
    assert_eq!(again, seen);
}

#[test]
fn core_runs_a_replay_exactly_as_the_live_stream() {
    let p = profile();
    let cfg = CpuConfig::westmere_e5645();
    let exact = SimOptions::exact(40_000, 10_000);
    let sampled = exact.with_sampling(5_000, 10_000);
    // The shorter recording ends before either run retires its window,
    // so both read past the prefix; the longer one covers both.
    for (seed, recorded) in [(1u64, 30_000), (2013, 80_000), (0xDEAD_BEEF, 30_000)] {
        let replay = Replay::record(&p, seed, recorded);
        for opts in [&exact, &sampled] {
            let live = Core::new(cfg.clone()).run(SyntheticTrace::new(&p, seed), opts);
            let replayed = Core::new(cfg.clone()).run(replay.reader(), opts);
            assert_eq!(replayed, live, "seed {seed}, sampled {:?}", opts.sample);
        }
    }
}
