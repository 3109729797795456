//! # dc-benches — validation tools for the stack's artifacts
//!
//! Despite the crate name, this is not a bench harness: the
//! repository's one benchmark is `perfbench/` (see `BENCHMARK.json`).
//! What lives here are the checkers CI runs against the stack's
//! output:
//!
//! * [`schema`] — the documented `dc-obs` JSONL event schema and its
//!   validator;
//! * [`metrics_text`] — the validator for the metrics registry's text
//!   exposition;
//! * `obs-schema-check` — the CLI over both validators;
//! * `sampled-validation` — holds SMARTS sampled simulation to its
//!   documented IPC and MPKI error bounds against exact simulation.

pub mod metrics_text;
pub mod schema;
