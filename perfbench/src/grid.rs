//! `grid_sampled`: the Exhibit SW default grid (19 points × 11
//! data-analysis workloads) and Exhibit CO (widths 1/4/8 on the
//! shared-L3 chip), both at the quick window under the default SMARTS
//! plan, writing through to a fresh `dc-store` log. The warm operation
//! clears the memo, re-attaches the store and regenerates both
//! exhibits with zero simulations.

use crate::probes;
use crate::span::Tracer;
use crate::util::{digest, median, metric, secs, timed, timed_reps, Metric, Stopwatch};
use crate::{shares, value, Ctx, EndToEnd, WARM_OPS, WARM_OPS_TRACED};
use dc_cpu::core::SimOptions;
use dc_cpu::{CpuConfig, PerfCounts, SamplePlan};
use dc_obs::Recorder;
use dcbench::sweep::SweepAxis;
use dcbench::{cache, pool, report, BenchmarkId, Characterizer};
use std::path::PathBuf;
use std::time::Instant;

/// Digest of every grid and co-run counter block at the default seed.
const PINNED_DIGEST: u64 = 0x35ff_ac7f_3c44_295e;

/// Distinct simulations the grid needs: 209 cells less 44 that repeat
/// the base machine.
const SW_SIMS: u64 = 165;

fn window() -> SimOptions {
    let plan = SamplePlan::DEFAULT;
    exact_window().with_sampling(plan.detail_ops, plan.ffwd_ops)
}

fn exact_window() -> SimOptions {
    SimOptions::exact(500_000, 300_000)
}

fn harness(seed: u64) -> Characterizer {
    Characterizer::new(CpuConfig::westmere_e5645(), window(), seed)
}

/// Every grid cell in (axis, point, workload) order.
fn cells(bench: &Characterizer) -> Vec<(CpuConfig, BenchmarkId)> {
    let mut out = Vec::new();
    for axis in SweepAxis::default_axes() {
        for cfg in axis
            .configs(bench.config())
            .expect("the default grid is valid")
        {
            for &id in BenchmarkId::data_analysis() {
                out.push((cfg.clone(), id));
            }
        }
    }
    out
}

/// Every co-run cell in (workload, width) order.
fn corun_cells() -> Vec<(BenchmarkId, usize)> {
    BenchmarkId::data_analysis()
        .iter()
        .flat_map(|&id| report::CORUN_WIDTHS.iter().map(move |&n| (id, n)))
        .collect()
}

/// Co-run simulations the exhibit adds: width 1 is the solo run the
/// grid already holds.
fn corun_sims() -> u64 {
    corun_cells().iter().filter(|(_, n)| *n > 1).count() as u64
}

/// Core-traces the grid and co-run simulations draw and simulate.
fn core_traces() -> u64 {
    let corun_cores: usize = corun_cells()
        .iter()
        .filter(|(_, n)| *n > 1)
        .map(|(_, n)| n)
        .sum();
    SW_SIMS + corun_cores as u64
}

fn render(bench: &Characterizer, tr: &Tracer, parent: u64) -> String {
    let figs = tr.span("report.sweep", parent, |_| {
        report::sweep_exhibit(bench, &SweepAxis::default_axes()).expect("the default grid is valid")
    });
    let co = tr.span("report.corun", parent, |_| report::corun_exhibit(bench));
    let mut out = String::new();
    for f in figs.iter().chain(std::iter::once(&co)) {
        out.push_str(&f.render());
    }
    out
}

fn store_path(ctx: &Ctx) -> PathBuf {
    ctx.out_dir
        .join(format!("grid-store-{}.log", std::process::id()))
}

/// Empty the memo and attach a fresh, empty store log.
fn fresh_store(ctx: &Ctx) -> PathBuf {
    cache::detach_store();
    cache::clear();
    let path = store_path(ctx);
    let _ = std::fs::remove_file(&path);
    let r = cache::attach_store(&path, &Recorder::disabled());
    ctx.checks.op(matches!(r, Ok(ref r) if r.loaded == 0), || {
        format!("fresh store did not attach empty: {r:?}")
    });
    path
}

/// One cold pass over a fresh store: returns its text and seconds.
fn cold_pass(ctx: &Ctx, tr: &Tracer, bench: &Characterizer) -> (String, f64) {
    fresh_store(ctx);
    let pass = Stopwatch::start();
    let text = tr.span("cold_pass", 0, |root| {
        if tr.is_on() {
            // The simulations `sweep::run` and `corun_exhibit` trigger,
            // driven through the pool here so each gets its own span.
            tr.span("pool.sweep", root, |p| {
                pool::parallel_map(cells(bench), |_, (cfg, id)| {
                    tr.span("sim", p, |_| bench.clone().with_config(cfg).run(id))
                })
            });
            tr.span("pool.corun", root, |p| {
                pool::parallel_map(corun_cells(), |_, (id, n)| {
                    tr.span("sim", p, |_| bench.corun(id, n))
                })
            });
        }
        render(bench, tr, root)
    });
    let wall = pass.unstolen();
    let sims = cache::sim_invocations();
    let want = SW_SIMS + corun_sims();
    let (misses, errors) = (cache::store_misses(), cache::store_write_errors());
    ctx.checks
        .op(sims == want && misses == want && errors == 0, || {
            format!("cold pass: {sims} simulations, {misses} store appends, {errors} write errors")
        });
    (text, wall)
}

/// Every counter block the pass produced, in grid then co-run order.
fn blocks(bench: &Characterizer) -> Vec<PerfCounts> {
    let mut out: Vec<PerfCounts> = cells(bench)
        .into_iter()
        .map(|(cfg, id)| bench.clone().with_config(cfg).raw_counts(id))
        .collect();
    for (id, n) in corun_cells() {
        out.extend(bench.corun_counts(id, n));
    }
    out
}

/// Clear the memo, recover it from the store and regenerate both
/// exhibits; returns the text and the records loaded.
fn warm_op(ctx: &Ctx, path: &PathBuf, bench: &Characterizer) -> (String, usize) {
    let tr = &ctx.tracer;
    tr.span("warm", 0, |w| {
        cache::clear();
        let r = tr.span("store.recover", w, |_| {
            cache::attach_store(path, &Recorder::disabled())
        });
        let loaded = r.map_or(0, |r| r.loaded);
        (render(bench, tr, w), loaded)
    })
}

pub fn run(ctx: &Ctx) -> Vec<Metric> {
    let mut e2e = EndToEnd::default();
    let setup = |e2e: &mut EndToEnd| {
        timed_reps(crate::SETUP_REPS, &mut e2e.setup_s, || {
            cache::detach_store();
            cache::clear();
            crate::warm_up_simulator(ctx.seed);
            fresh_store(ctx);
        })
    };
    setup(&mut e2e);
    let bench = harness(ctx.seed);
    let uops = (core_traces() * (window().warmup_ops + window().max_ops)) as f64;

    let mut cold_text: Option<String> = None;
    let passes_start = Instant::now();
    let untraced_wall = loop {
        let (text, wall) = cold_pass(ctx, &Tracer::off(), &bench);
        let d = digest(&blocks(&bench));
        if ctx.pinned() {
            ctx.checks.op(d == PINNED_DIGEST, || {
                format!("digest {d:#018x} is not the pinned one")
            });
        }
        match &cold_text {
            Some(first) => {
                ctx.checks
                    .op(*first == text, || "cold passes rendered differently".into());
            }
            None => cold_text = Some(text),
        }
        e2e.cold_s.push(wall);
        e2e.sim_uops += uops;
        e2e.sim_s += wall;
        if ctx.tracer.is_on() || secs(passes_start) + wall > ctx.seconds {
            break wall;
        }
    };
    let cold_text = cold_text.expect("at least one cold pass");
    let path = store_path(ctx);
    let records = (SW_SIMS + corun_sims()) as usize;
    let warm = |n: usize, e2e: &mut EndToEnd| {
        timed_reps(n, &mut e2e.warm_s, || {
            let (text, loaded) = warm_op(ctx, &path, &bench);
            let sims = cache::sim_invocations();
            ctx.checks
                .op(text == cold_text && sims == 0 && loaded == records, || {
                    format!(
                        "warm regeneration: {sims} simulations, {loaded} records, same text: {}",
                        text == cold_text
                    )
                });
        })
    };
    if !ctx.tracer.is_on() {
        warm(WARM_OPS, &mut e2e);
        setup(&mut e2e);
        cache::detach_store();
        let _ = std::fs::remove_file(&path);
        return e2e.metrics(&ctx.checks);
    }

    // Traced: a cold pass under spans, then warm regenerations.
    let (_, traced_wall) = cold_pass(ctx, &ctx.tracer, &bench);
    let (sims, hits) = (cache::sim_invocations(), cache::cache_hits());
    warm(WARM_OPS_TRACED, &mut e2e);
    let ids = BenchmarkId::data_analysis();
    let lookup_s: Vec<f64> = (0..100)
        .map(|_| timed(|| bench.run_many(ids)).1 / ids.len() as f64)
        .collect();
    cache::detach_store();

    let tr = &ctx.tracer;
    let sim_busy: f64 = tr.durations("sim").iter().sum();
    let pool_wall: f64 = ["pool.sweep", "pool.corun"]
        .iter()
        .flat_map(|n| tr.durations(n))
        .sum();
    let mut out = vec![
        metric("cache.sim_runs", sims as f64, "count"),
        metric("cache.hits", hits as f64, "count"),
        metric(
            "cache.hit_ratio",
            hits as f64 / (hits + sims) as f64,
            "ratio",
        ),
        metric("cache.lookup_us", median(&lookup_s) * 1e6, "us"),
        metric(
            "pool.efficiency",
            sim_busy / (pool::jobs() as f64 * pool_wall),
            "ratio",
        ),
        metric(
            "report.render_ms",
            median(&tr.durations("warm")) * 1e3,
            "ms",
        ),
        metric("trace.overhead_s", traced_wall - untraced_wall, "s"),
    ];
    out.extend(probes::store_layer(&path, &ctx.out_dir, &ctx.checks));
    let _ = std::fs::remove_file(&path);
    let (f2, f5) = probes::engine_layer(ctx);
    out.push(metric("engine.figure2_s", f2, "s"));
    out.push(metric("engine.figure5_s", f5, "s"));
    let job = format!(
        "{{\"entries\":\"data_analysis\",\"window\":\"quick\",\"sampled\":true,\"seed\":{}}}",
        ctx.seed
    );
    let (server, warm_p50) = probes::server_layer(&job, ctx);
    out.extend(server);
    let sim = probes::sim_layers(
        ids,
        BenchmarkId::Sort,
        ctx.seed,
        exact_window(),
        window(),
        &ctx.checks,
    );
    let wire_share = value(&out, "server.wire_ms") * 1e-3 / warm_p50;
    let busy = pool::jobs() as f64 * traced_wall;
    out.extend(shares(&sim, 0.0, uops, busy, wire_share));
    out.extend(sim.metrics());
    out
}
