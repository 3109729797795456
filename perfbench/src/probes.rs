//! Layer probes for the traced run. Each times calls into one layer's
//! public functions from outside, on the workload's own entries and
//! window, and checks what it times against the harness's own results.

use crate::util::{corun_seed, entry_seed, median, metric, quantile, secs, timed, Checks, Metric};
use crate::wire::{self, Daemon};
use crate::Ctx;
use dc_cpu::core::SimOptions;
use dc_cpu::{Chip, Core, CpuConfig, PerfCounts, SamplePlan};
use dc_datagen::Scale;
use dc_store::{Store, StoreFaultPlan, SyncPolicy};
use dc_trace::{MicroOp, SyntheticTrace};
use dcbench::{profiles, report, BenchmarkId, Characterizer};
use std::path::Path;
use std::time::Instant;

/// Ops drawn past warm-up + window: the front end fetches beyond the
/// last retired op, so an unpadded replay buffer runs dry early and
/// moves the fetch-stall and branch counters.
const REPLAY_PAD: u64 = 65_536;

/// A sampling plan whose detailed share is negligible: the run is
/// almost all functional fast-forward.
const FFWD_PLAN: SamplePlan = SamplePlan {
    detail_ops: 1_000,
    ffwd_ops: 1_000_000,
};

/// Width of the probed co-run.
const CHIP_WIDTH: usize = 4;

fn ops(opts: &SimOptions) -> u64 {
    opts.warmup_ops + opts.max_ops
}

fn draw(id: BenchmarkId, trace_seed: u64, n: u64, buf: &mut Vec<MicroOp>) -> f64 {
    let prof = profiles::profile(id);
    buf.clear();
    buf.reserve(n as usize);
    let t = Instant::now();
    buf.extend(SyntheticTrace::new(&prof, trace_seed).take(n as usize));
    let s = secs(t);
    std::hint::black_box(&buf);
    s
}

fn with_plan(opts: SimOptions, plan: SamplePlan) -> SimOptions {
    opts.with_sampling(plan.detail_ops, plan.ffwd_ops)
}

/// Host nanoseconds per simulated op in each simulator layer.
pub struct SimLayers {
    pub synth_ns: f64,
    pub detail_ns: f64,
    pub sampled_ns: f64,
    pub ffwd_ns: f64,
    pub chip_ns: f64,
}

impl SimLayers {
    /// Share of sampled-mode ops that ran in full detail, solved from
    /// `sampled = d * detail + (1 - d) * ffwd`.
    pub fn detail_fraction(&self) -> f64 {
        ((self.sampled_ns - self.ffwd_ns) / (self.detail_ns - self.ffwd_ns)).clamp(0.0, 1.0)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("trace.synth_ns_per_op", self.synth_ns, "ns"),
            metric("cpu.detail_ns_per_op", self.detail_ns, "ns"),
            metric("cpu.sampled_ns_per_op", self.sampled_ns, "ns"),
            metric("cpu.ffwd_ns_per_op", self.ffwd_ns, "ns"),
            metric("chip.corun_ns_per_op", self.chip_ns, "ns"),
        ]
    }
}

/// Replay one pre-drawn buffer through `Core::run` after checking that
/// the replay reproduces the harness's live-synthesized counters.
fn core_replay(
    buf: &[MicroOp],
    id: BenchmarkId,
    seed: u64,
    opts: SimOptions,
    checks: &Checks,
) -> f64 {
    let cfg = CpuConfig::westmere_e5645();
    let live = Characterizer::new(cfg.clone(), opts, seed).raw_counts(id);
    let (replay, s) = timed(|| Core::new(cfg).run(buf.iter().copied(), &opts));
    checks.op(replay == live, || {
        format!("{} replay differs from live run under {opts:?}", id.name())
    });
    s * 1e9 / ops(&opts) as f64
}

/// Time synthesis over every entry in `ids`, then the exact, sampled
/// and fast-forward core and a width-4 chip over replay buffers of
/// `probe`. `opts` is the workload's exact window; the chip runs at
/// `chip_opts`.
pub fn sim_layers(
    ids: &[BenchmarkId],
    probe: BenchmarkId,
    seed: u64,
    opts: SimOptions,
    chip_opts: SimOptions,
    checks: &Checks,
) -> SimLayers {
    let n = ops(&opts) + REPLAY_PAD;
    let mut buf = Vec::new();
    let mut synth_s = 0.0;
    for &id in ids {
        synth_s += draw(id, entry_seed(seed, id), n, &mut buf);
    }
    let synth_ns = synth_s * 1e9 / (n * ids.len() as u64) as f64;
    draw(probe, entry_seed(seed, probe), n, &mut buf);
    let detail_ns = core_replay(&buf, probe, seed, opts, checks);
    let sampled_ns = core_replay(
        &buf,
        probe,
        seed,
        with_plan(opts, SamplePlan::DEFAULT),
        checks,
    );
    let ffwd_ns = core_replay(&buf, probe, seed, with_plan(opts, FFWD_PLAN), checks);
    drop(buf);

    let cfg = CpuConfig::westmere_e5645();
    let chip_n = ops(&chip_opts) + REPLAY_PAD;
    let bufs: Vec<Vec<MicroOp>> = (0..CHIP_WIDTH)
        .map(|k| {
            let mut b = Vec::new();
            draw(probe, corun_seed(seed, probe, k), chip_n, &mut b);
            b
        })
        .collect();
    let live: Vec<PerfCounts> =
        Characterizer::new(cfg.clone(), chip_opts, seed).corun_counts(probe, CHIP_WIDTH);
    let (replay, s) = timed(|| {
        let traces = bufs.iter().map(|b| b.iter().copied()).collect();
        Chip::new(cfg, CHIP_WIDTH).run(traces, &chip_opts)
    });
    checks.op(replay == live, || {
        format!(
            "{} width-{CHIP_WIDTH} chip replay differs from live run",
            probe.name()
        )
    });
    let chip_ns = s * 1e9 / (ops(&chip_opts) * CHIP_WIDTH as u64) as f64;
    SimLayers {
        synth_ns,
        detail_ns,
        sampled_ns,
        ffwd_ns,
        chip_ns,
    }
}

/// Appends timed one by one, to reach a p99 with ten samples above it.
const STORE_APPENDS: usize = 1000;

/// Recover the store log at `src`, then append its records again to
/// fresh logs, with an fsync per append and without.
pub fn store_layer(src: &Path, dir: &Path, checks: &Checks) -> Vec<Metric> {
    let bytes = std::fs::metadata(src).map_or(0, |m| m.len());
    let (recovery, recover_s) = timed(|| dc_store::scan(src));
    let records = match recovery {
        Ok(r) if !r.records.is_empty() => r.records,
        other => {
            checks.op(false, || {
                format!("store recovery of {src:?} failed: {other:?}")
            });
            return Vec::new();
        }
    };
    let append_us = |sync: SyncPolicy, name: &str| -> Vec<f64> {
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let mut lat = Vec::with_capacity(STORE_APPENDS);
        match Store::open_with(&path, sync, StoreFaultPlan::default()) {
            Ok((mut store, _)) => {
                for record in records.iter().cycle().take(STORE_APPENDS) {
                    let (r, s) = timed(|| store.append(record));
                    checks.op(r.is_ok(), || format!("store append failed: {r:?}"));
                    lat.push(s * 1e6);
                }
            }
            Err(e) => {
                checks.op(false, || format!("cannot open probe store: {e}"));
            }
        }
        let back = dc_store::scan(&path).map(|r| r.records.len()).unwrap_or(0);
        checks.op(back == records.len(), || {
            format!("probe store recovered {back} of {} records", records.len())
        });
        let _ = std::fs::remove_file(&path);
        lat
    };
    let sync = append_us(SyncPolicy::EveryAppend, "probe-sync.log");
    let nosync = append_us(SyncPolicy::Never, "probe-nosync.log");
    if sync.is_empty() || nosync.is_empty() {
        return Vec::new();
    }
    vec![
        metric("store.append_p50_us", median(&sync), "us"),
        metric("store.append_p99_us", quantile(&sync, 0.99), "us"),
        metric("store.append_nosync_us", median(&nosync), "us"),
        metric("store.recover_ms", recover_s * 1e3, "ms"),
        metric("store.bytes", bytes as f64, "bytes"),
        metric("store.records", records.len() as f64, "count"),
    ]
}

/// Figures 2 and 5 at the paper-figure scale: MapReduce engine runs
/// scaled through the cluster model.
pub const ENGINE_SCALE: Scale = Scale { bytes: 512 << 10 };

/// Check the shape of Figure 2 or 5: one row per data-analysis
/// workload, every value finite and positive. Their values derive from
/// host timings, so they are not byte-compared.
pub fn check_engine_figure(fig: &report::FigureData, checks: &Checks) {
    let ok = fig.rows.len() == BenchmarkId::data_analysis().len()
        && fig
            .rows
            .iter()
            .all(|(_, vals)| !vals.is_empty() && vals.iter().all(|v| v.is_finite() && *v > 0.0));
    checks.op(ok, || format!("{} has the wrong shape", fig.id));
}

/// Time Figures 2 and 5, in seconds.
pub fn engine_layer(ctx: &Ctx) -> (f64, f64) {
    let tr = &ctx.tracer;
    let (f2, s2) = timed(|| tr.span("engine.figure2", 0, |_| report::figure2(ENGINE_SCALE)));
    let (f5, s5) = timed(|| tr.span("engine.figure5", 0, |_| report::figure5(ENGINE_SCALE)));
    check_engine_figure(&f2, &ctx.checks);
    check_engine_figure(&f5, &ctx.checks);
    (s2, s5)
}

/// Server-side latencies between two `stats` snapshots, plus the
/// client's warm latency they should be compared with.
pub fn server_metrics(
    before: &dc_store::json::Json,
    after: &dc_store::json::Json,
    warm_p50_s: f64,
    elapsed_s: f64,
    requests: usize,
) -> Vec<Metric> {
    let delta = |name: &str| {
        wire::histogram_delta(
            &wire::histogram(after, name),
            &wire::histogram(before, name),
        )
    };
    let wait = delta("dc_server_queue_wait_us");
    let service = delta("dc_server_service_time_us");
    let service_p50 = wire::histogram_quantile(&service, 0.5);
    let count = |name: &str| wire::counter(after, name) - wire::counter(before, name);
    vec![
        metric(
            "server.queue_wait_p50_us",
            wire::histogram_quantile(&wait, 0.5),
            "us",
        ),
        metric(
            "server.queue_wait_p99_us",
            wire::histogram_quantile(&wait, 0.99),
            "us",
        ),
        metric("server.service_p50_us", service_p50, "us"),
        metric(
            "server.service_p99_us",
            wire::histogram_quantile(&service, 0.99),
            "us",
        ),
        metric(
            "server.requests",
            count("dc_server_requests_total"),
            "count",
        ),
        metric("server.errors", count("dc_server_errors_total"), "count"),
        metric(
            "server.wire_ms",
            warm_p50_s * 1e3 - service_p50 * 1e-3,
            "ms",
        ),
        metric("server.req_per_s", requests as f64 / elapsed_s, "1/s"),
    ]
}

/// Warm requests per client in the server probe.
const SERVER_PROBE_ROUNDS: usize = 25;

/// Drive an in-process daemon with two clients repeating `job`, which
/// the memo already holds, and read the server-side split from `stats`.
/// Returns the metrics and the client's warm p50 in seconds.
pub fn server_layer(job: &str, ctx: &Ctx) -> (Vec<Metric>, f64) {
    let (checks, tr) = (&ctx.checks, &ctx.tracer);
    let offline = wire::offline_output(job);
    let run = || -> Result<(Vec<Metric>, f64), String> {
        let offline = offline.clone()?;
        let daemon = Daemon::start(2).map_err(|e| e.to_string())?;
        let mut admin = daemon.connect().map_err(|e| e.to_string())?;
        let before = admin.stats()?;
        let t = Instant::now();
        let lat: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let daemon = &daemon;
                    let offline = &offline;
                    s.spawn(move || -> Result<Vec<f64>, String> {
                        let mut c = daemon.connect().map_err(|e| e.to_string())?;
                        let mut lat = Vec::new();
                        for _ in 0..SERVER_PROBE_ROUNDS {
                            let t = Instant::now();
                            let name = tr.span("submit", 0, |_| c.submit(job))?;
                            tr.span("stream", 0, |_| c.stream(&name))?;
                            lat.push(secs(t));
                            let out = tr.span("status", 0, |_| c.output(&name))?;
                            checks.op(out == *offline, || "probe job output differs".into());
                        }
                        Ok(lat)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe client panicked"))
                .collect()
        });
        let elapsed = secs(t);
        let after = admin.stats()?;
        drop(admin);
        daemon.stop();
        let mut all = Vec::new();
        for l in lat {
            all.extend(l?);
        }
        let p50 = median(&all);
        Ok((
            server_metrics(&before, &after, p50, elapsed, all.len()),
            p50,
        ))
    };
    match run() {
        Ok(r) => r,
        Err(e) => {
            checks.op(false, || format!("server probe failed: {e}"));
            (Vec::new(), 0.0)
        }
    }
}
