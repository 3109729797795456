//! The repository benchmark: one command that runs a named workload at
//! a given seed, checks the workload's outputs, and prints end-to-end
//! metrics (untraced) or per-layer metrics (traced) as one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload characterize_full --seed 2013 --seconds 30 --trace 0
//! ```
//!
//! Workloads, metrics and the layer map are described in README.md.

mod daemon;
mod full;
mod grid;
mod probes;
mod span;
mod util;
mod wire;

use probes::SimLayers;
use span::Tracer;
use std::path::PathBuf;
use std::time::Instant;
use util::{median, metric, Checks, Metric};

/// The seed whose counter digests are pinned in the workloads.
pub const DEFAULT_SEED: u64 = 2013;

/// Set-ups before the first timed operation, and again after the last:
/// `setup_s` is the median of both groups, so it spans the run's drift.
pub const SETUP_REPS: usize = 5;

/// Warm operations per untraced run of the simulation workloads. Their
/// speed on the reference host switches between modes every few
/// seconds, so the median needs about fifteen seconds of them on
/// `grid_sampled`.
pub const WARM_OPS: usize = 2000;

/// Warm operations per traced run, which reports only their median.
pub const WARM_OPS_TRACED: usize = 50;

/// Working files (store logs, spans) go here, under the working directory.
const OUT_DIR: &str = ".perfbench_out";

const END_TO_END: [&str; 5] = [
    "setup_s",
    "wall_s",
    "warm_ms",
    "sim_mops_per_s",
    "peak_rss_mb",
];

const PER_LAYER: [&str; 36] = [
    "trace.synth_ns_per_op",
    "cpu.detail_ns_per_op",
    "cpu.sampled_ns_per_op",
    "cpu.ffwd_ns_per_op",
    "chip.corun_ns_per_op",
    "share.synth",
    "share.detail",
    "share.ffwd",
    "share.wire",
    "cache.sim_runs",
    "cache.hits",
    "cache.hit_ratio",
    "cache.lookup_us",
    "pool.efficiency",
    "store.append_p50_us",
    "store.append_p99_us",
    "store.append_nosync_us",
    "store.recover_ms",
    "store.bytes",
    "store.records",
    "report.render_ms",
    "engine.figure2_s",
    "engine.figure5_s",
    "server.queue_wait_p50_us",
    "server.queue_wait_p99_us",
    "server.service_p50_us",
    "server.service_p99_us",
    "server.requests",
    "server.errors",
    "server.wire_ms",
    "server.req_per_s",
    "trace.overhead_s",
    "self.sim_s",
    "self.report_s",
    "self.engine_s",
    "self.wire_s",
];

pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub checks: Checks,
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Whether this run's counters must match the pinned digests.
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED
    }
}

/// Samples behind the end-to-end metrics every workload reports.
#[derive(Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// One per cold operation.
    pub cold_s: Vec<f64>,
    /// One per warm operation.
    pub warm_s: Vec<f64>,
    /// µops simulated (warm-up and fast-forward included) and the host
    /// seconds they took.
    pub sim_uops: f64,
    pub sim_s: f64,
}

impl EndToEnd {
    pub fn metrics(&self, checks: &Checks) -> Vec<Metric> {
        let (cold, warm) = (self.cold_s.len(), self.warm_s.len());
        if !checks.op(cold > 0 && warm > 0, || {
            format!("{cold} cold and {warm} warm samples")
        }) {
            return Vec::new();
        }
        vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric("wall_s", median(&self.cold_s), "s"),
            metric("warm_ms", median(&self.warm_s) * 1e3, "ms"),
            metric("sim_mops_per_s", self.sim_uops / self.sim_s / 1e6, "Mops/s"),
        ]
    }
}

/// A metric already in `ms` by name, or NaN.
pub fn value(ms: &[Metric], name: &str) -> f64 {
    ms.iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// Estimated share of the traced cold operation's busy core-seconds
/// (`busy_s` = pool width × wall) spent in synthesis, in the detailed
/// pipeline and in functional fast-forward: each layer's probed ns/op
/// times the ops the workload pushed through it. `exact_uops` ran in
/// full detail; `sampled_uops` under the default SMARTS plan, split by
/// [`SimLayers::detail_fraction`]. `wire_share` is the part of a warm
/// request's client latency spent outside the executor.
pub fn shares(
    sim: &SimLayers,
    exact_uops: f64,
    sampled_uops: f64,
    busy_s: f64,
    wire_share: f64,
) -> Vec<Metric> {
    let d = sim.detail_fraction();
    let synth = sim.synth_ns * (exact_uops + sampled_uops);
    let detail = sim.detail_ns * (exact_uops + d * sampled_uops);
    let ffwd = sim.ffwd_ns * (1.0 - d) * sampled_uops;
    vec![
        metric("share.synth", synth * 1e-9 / busy_s, "ratio"),
        metric("share.detail", detail * 1e-9 / busy_s, "ratio"),
        metric("share.ffwd", ffwd * 1e-9 / busy_s, "ratio"),
        metric("share.wire", wire_share, "ratio"),
    ]
}

/// Self time of the traced run's spans, grouped into the four layers
/// the benchmark can see from outside.
pub fn self_times(tracer: &Tracer) -> Vec<Metric> {
    let selfs = tracer.self_times();
    let sum = |names: &[&str]| -> f64 { names.iter().filter_map(|n| selfs.get(n)).sum() };
    vec![
        metric(
            "self.sim_s",
            sum(&[
                "sim",
                "pool.matrix",
                "pool.sweep",
                "pool.corun",
                "pool.probe",
            ]),
            "s",
        ),
        metric(
            "self.report_s",
            sum(&["report.render", "report.sweep", "report.corun", "warm"]),
            "s",
        ),
        metric(
            "self.engine_s",
            sum(&["engine.figure2", "engine.figure5"]),
            "s",
        ),
        metric("self.wire_s", sum(&["submit", "stream", "status"]), "s"),
    ]
}

/// The untimed warm-up every set-up ends with: one short simulation, so
/// lazy statics, allocator pools and code pages are in place before the
/// first timed operation.
pub fn warm_up_simulator(seed: u64) {
    let bench = dcbench::Characterizer::new(
        dc_cpu::CpuConfig::westmere_e5645(),
        dc_cpu::core::SimOptions::exact(100_000, 100_000),
        seed,
    );
    std::hint::black_box(bench.run_uncached(dcbench::BenchmarkId::Sort));
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["characterize_full", "grid_sampled", "daemon_mixed"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .iter()
                    .find(|w| **w == v)
                    .ok_or(format!("unknown workload {v:?}; one of {WORKLOADS:?}"))?
            }
            "--seed" => args.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?,
            "--seconds" => {
                args.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
            }
            "--trace" => {
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required; one of {WORKLOADS:?}"));
    }
    // Seeds travel through the daemon's JSON, which carries 2^53 exactly.
    if args.seed >= 1 << 52 {
        return Err("--seed must be below 2^52".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        checks: Checks::default(),
        out_dir,
    };
    let t = Instant::now();
    let mut metrics = match ctx.workload {
        "characterize_full" => full::run(&ctx),
        "grid_sampled" => grid::run(&ctx),
        _ => daemon::run(&ctx),
    };
    if args.trace {
        metrics.extend(self_times(&ctx.tracer));
        let path = ctx
            .out_dir
            .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
        if let Err(e) = ctx.tracer.write_jsonl(&path, ctx.workload) {
            eprintln!("perfbench: cannot write {path:?}: {e}");
        }
    } else {
        metrics.push(metric("peak_rss_mb", util::peak_rss_mb(), "MB"));
    }
    eprintln!("perfbench: {} ran {:.1}s", ctx.workload, util::secs(t));

    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = ctx.checks.failed() == 0;
    if correct {
        let mut got: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        let mut want = expected.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "the workload reported the wrong metric set");
        for m in &metrics {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
        }
    }
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        ctx.checks.attempted().max(1),
        ctx.checks.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `+ 0.0` turns a negative zero into zero.
        let v = if m.value.is_finite() {
            m.value + 0.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
            m.name, m.unit
        ));
    }
    out.push_str("}}");
    println!("{out}");
    std::process::exit(if correct { 0 } else { 1 });
}
