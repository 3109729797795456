//! # dc-trace — workload instruction-stream modelling
//!
//! This crate is the interface between *workloads* and the
//! *micro-architecture simulator* (`dc-cpu`) in the dcbench-rs
//! reproduction of "Characterizing Data Analysis Workloads in Data
//! Centers" (IISWC 2013).
//!
//! The paper measures real binaries with hardware performance counters.
//! We cannot run Hadoop/JVM/SPEC binaries under a counter, so each
//! workload is described by a [`WorkloadProfile`]: a structured,
//! cause-level description of its instruction footprint, data-locality
//! mixture, branch behaviour, privilege-mode pattern and instruction-level
//! parallelism. [`synth::SyntheticTrace`] turns a profile into a
//! deterministic stream of [`MicroOp`]s, and `dc-cpu` executes that stream
//! through real cache / TLB / branch-predictor / pipeline models, so every
//! reported metric *emerges from the same mechanism* the paper measured.
//!
//! Profiles encode causes (e.g. "600 KiB instruction footprint",
//! "2 % of memory accesses touch a 6 MiB region at random"), never effects
//! (an IPC or a miss ratio is never written down anywhere).
//!
//! [`replay::Replay`] records a synthesized stream once in a compact
//! encoding, so a study that simulates the same stream on many machines
//! (a sensitivity sweep, exact against sampled runs) pays for synthesis
//! once.
//!
//! ```
//! use dc_trace::{profile::WorkloadProfile, synth::SyntheticTrace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let profile = WorkloadProfile::builder("wordcount-like")
//!     .code_footprint_kib(256)
//!     .build()?;
//! let ops: Vec<_> = SyntheticTrace::new(&profile, 7).take(1000).collect();
//! assert_eq!(ops.len(), 1000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod op;
pub mod profile;
pub mod replay;
pub mod rng;
pub mod synth;

pub use op::{MicroOp, Mode, OpKind};
pub use profile::WorkloadProfile;
pub use replay::Replay;
pub use synth::{SyntheticTrace, MAX_DEP_DIST};

/// A source of micro-operations consumed by the CPU simulator.
///
/// Implemented by every `Iterator<Item = MicroOp>`, among them
/// [`synth::SyntheticTrace`] (profile-driven synthesis) and the readers
/// of a [`replay::Replay`] (a recorded synthesized stream).
pub trait TraceSource {
    /// Produce the next micro-op, or `None` when the trace is exhausted.
    fn next_op(&mut self) -> Option<MicroOp>;
}

impl<I: Iterator<Item = MicroOp>> TraceSource for I {
    fn next_op(&mut self) -> Option<MicroOp> {
        self.next()
    }
}
