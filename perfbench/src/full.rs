//! `characterize_full`: the cold-memo `characterize_all` render without
//! the co-run exhibit. Table 3 and Figures 3-12 at full windows (26
//! exact simulations), plus Figures 2 and 5 from the MapReduce engine
//! and cluster model.

use crate::probes::{self, check_engine_figure, ENGINE_SCALE};
use crate::span::Tracer;
use crate::util::{digest, metric, secs, timed, timed_reps, Metric, Stopwatch};
use crate::{shares, value, Ctx, EndToEnd, WARM_OPS_TRACED};
use dc_cpu::core::SimOptions;
use dc_cpu::CpuConfig;
use dcbench::{cache, pool, report, BenchmarkId, Characterizer};
use std::time::Instant;

/// Digest of the 26 counter blocks at the default seed.
const PINNED_DIGEST: u64 = 0x2092_bf3a_e41d_4124;

fn window() -> SimOptions {
    SimOptions::exact(1_200_000, 2_000_000)
}

fn harness(seed: u64) -> Characterizer {
    Characterizer::new(CpuConfig::westmere_e5645(), window(), seed)
}

/// Every exhibit the memo serves: Table 3 and Figures 3, 4 and 6-12.
fn render_matrix(bench: &Characterizer) -> String {
    let mut out = report::table3(bench);
    for fig in [
        report::figure3(bench),
        report::figure4(bench),
        report::figure6(bench),
        report::figure7(bench),
        report::figure8(bench),
        report::figure9(bench),
        report::figure10(bench),
        report::figure11(bench),
        report::figure12(bench),
    ] {
        out.push_str(&fig.render());
    }
    out
}

fn job(seed: u64) -> String {
    format!("{{\"entries\":\"all\",\"window\":\"full\",\"seed\":{seed}}}")
}

/// One cold pass, returning the matrix text, the matrix seconds and the
/// pass seconds. Under an enabled tracer the simulations run through
/// the pool first, one span each; the render then reads the memo.
fn cold_pass(ctx: &Ctx, tr: &Tracer, bench: &Characterizer) -> (String, f64, f64) {
    cache::clear();
    let pass = Stopwatch::start();
    let (text, matrix_s, f2, f5) = tr.span("cold_pass", 0, |root| {
        let matrix = Stopwatch::start();
        if tr.is_on() {
            tr.span("pool.matrix", root, |p| {
                pool::parallel_map(BenchmarkId::all().to_vec(), |_, id| {
                    tr.span("sim", p, |_| bench.run(id))
                })
            });
        }
        let text = tr.span("report.render", root, |_| render_matrix(bench));
        let matrix_s = matrix.unstolen();
        let f2 = tr.span("engine.figure2", root, |_| report::figure2(ENGINE_SCALE));
        let f5 = tr.span("engine.figure5", root, |_| report::figure5(ENGINE_SCALE));
        (text, matrix_s, f2, f5)
    });
    let wall = pass.unstolen();
    check_engine_figure(&f2, &ctx.checks);
    check_engine_figure(&f5, &ctx.checks);
    let sims = cache::sim_invocations();
    ctx.checks.op(sims == BenchmarkId::all().len() as u64, || {
        format!("cold pass ran {sims} simulations")
    });
    (text, matrix_s, wall)
}

pub fn run(ctx: &Ctx) -> Vec<Metric> {
    let mut e2e = EndToEnd::default();
    let setup = |e2e: &mut EndToEnd| {
        timed_reps(crate::SETUP_REPS, &mut e2e.setup_s, || {
            cache::clear();
            crate::warm_up_simulator(ctx.seed);
            cache::clear();
        })
    };
    setup(&mut e2e);
    let bench = harness(ctx.seed);
    let uops = (BenchmarkId::all().len() as u64 * (window().warmup_ops + window().max_ops)) as f64;

    let mut cold_text: Option<String> = None;
    let passes_start = Instant::now();
    let untraced_wall = loop {
        let (text, matrix_s, wall) = cold_pass(ctx, &Tracer::off(), &bench);
        let blocks: Vec<_> = BenchmarkId::all()
            .iter()
            .map(|&id| bench.raw_counts(id))
            .collect();
        let d = digest(&blocks);
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
        e2e.sim_s += matrix_s;
        if ctx.tracer.is_on() || secs(passes_start) + wall > ctx.seconds {
            break wall;
        }
    };
    let cold_text = cold_text.expect("at least one cold pass");

    let sims_cold = cache::sim_invocations();
    let warm = |n: usize, e2e: &mut EndToEnd| {
        timed_reps(n, &mut e2e.warm_s, || {
            let text = ctx.tracer.span("warm", 0, |_| render_matrix(&bench));
            ctx.checks.op(
                text == cold_text && cache::sim_invocations() == sims_cold,
                || "warm render differs from the cold one or simulated".into(),
            );
        })
    };
    if !ctx.tracer.is_on() {
        warm(crate::WARM_OPS, &mut e2e);
        setup(&mut e2e);
        return e2e.metrics(&ctx.checks);
    }

    // Traced: a second cold pass under spans, then warm renders.
    let (_, _, traced_wall) = cold_pass(ctx, &ctx.tracer, &bench);
    let (sims, hits) = (cache::sim_invocations(), cache::cache_hits());
    warm(WARM_OPS_TRACED, &mut e2e);
    let lookup_s: Vec<f64> = (0..100)
        .map(|_| timed(|| bench.run_all()).1 / BenchmarkId::all().len() as f64)
        .collect();

    let tr = &ctx.tracer;
    let sim_busy: f64 = tr.durations("sim").iter().sum();
    let pool_wall: f64 = tr.durations("pool.matrix").iter().sum();
    let mut out = vec![
        metric("cache.sim_runs", sims as f64, "count"),
        metric("cache.hits", hits as f64, "count"),
        metric(
            "cache.hit_ratio",
            hits as f64 / (hits + sims) as f64,
            "ratio",
        ),
        metric(
            "cache.lookup_us",
            crate::util::median(&lookup_s) * 1e6,
            "us",
        ),
        metric(
            "pool.efficiency",
            sim_busy / (pool::jobs() as f64 * pool_wall),
            "ratio",
        ),
        metric(
            "report.render_ms",
            crate::util::median(&tr.durations("warm")) * 1e3,
            "ms",
        ),
        metric("engine.figure2_s", tr.durations("engine.figure2")[0], "s"),
        metric("engine.figure5_s", tr.durations("engine.figure5")[0], "s"),
        metric("trace.overhead_s", traced_wall - untraced_wall, "s"),
    ];
    let store_src = ctx.out_dir.join("full-memo.log");
    let _ = std::fs::remove_file(&store_src);
    let persisted = cache::persist_to(&store_src);
    ctx.checks.op(persisted.is_ok(), || {
        format!("persisting the memo failed: {persisted:?}")
    });
    out.extend(probes::store_layer(&store_src, &ctx.out_dir, &ctx.checks));
    let _ = std::fs::remove_file(&store_src);
    let (server, warm_p50) = probes::server_layer(&job(ctx.seed), ctx);
    out.extend(server);
    let sim = probes::sim_layers(
        BenchmarkId::all(),
        BenchmarkId::Sort,
        ctx.seed,
        window(),
        SimOptions::exact(500_000, 300_000),
        &ctx.checks,
    );
    let wire_share = value(&out, "server.wire_ms") * 1e-3 / warm_p50;
    let busy = pool::jobs() as f64 * traced_wall;
    out.extend(shares(&sim, uops, 0.0, busy, wire_share));
    out.extend(sim.metrics());
    out
}
