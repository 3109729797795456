//! `daemon_mixed`: an in-process `dc-server` with two executors on
//! loopback TCP, driven by a closed loop of two client connections.
//! Each request is a `submit` followed by `stream` to completion. Most
//! requests repeat one 2-entry quick job the memo already holds; every
//! [`COLD_EVERY`]th is one quick entry at a fresh seed, which simulates.

use crate::probes;
use crate::span::Tracer;
use crate::util::{digest, median, metric, secs, timed, Checks, Metric, Stopwatch};
use crate::wire::{self, Client, Daemon};
use crate::{shares, value, Ctx, EndToEnd, SETUP_REPS};
use dc_cpu::core::SimOptions;
use dc_cpu::{CpuConfig, PerfCounts};
use dcbench::{cache, pool, BenchmarkId, Characterizer};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const WORKERS: usize = 2;
const CLIENTS: usize = 2;

/// One request in this many is cold.
const COLD_EVERY: u64 = 16;

/// Cold requests whose counters the pinned digest covers.
const PINNED_COLD: u64 = 8;

/// Digest of the warm job's blocks and the first [`PINNED_COLD`] cold
/// blocks at the default seed.
const PINNED_DIGEST: u64 = 0x45f4_853c_57cb_cb97;

/// Warm requests an untraced load waits for, past its `--seconds`.
const WARM_REQUESTS: usize = 1000;

/// A load phase stops here even short of its warm-sample target.
const LOAD_CAP_S: f64 = 120.0;

const WARM_ENTRIES: [BenchmarkId; 2] = [BenchmarkId::Sort, BenchmarkId::WordCount];
const COLD_ENTRY: BenchmarkId = BenchmarkId::Grep;

fn window() -> SimOptions {
    SimOptions::exact(500_000, 300_000)
}

fn warm_job(seed: u64) -> String {
    format!("{{\"entries\":[\"Sort\",\"WordCount\"],\"window\":\"quick\",\"seed\":{seed}}}")
}

/// The master seed of cold request `k`: a splitmix64 step of the
/// workload seed, kept below 2^52 so JSON carries it exactly.
fn cold_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add((k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & ((1 << 52) - 1)
}

fn cold_job(seed: u64, k: u64) -> String {
    format!(
        "{{\"entries\":[\"{}\"],\"window\":\"quick\",\"seed\":{}}}",
        COLD_ENTRY.name(),
        cold_seed(seed, k)
    )
}

struct Load {
    warm_s: Vec<f64>,
    cold_s: Vec<f64>,
    /// Cold request index and the output it returned.
    cold_out: Vec<(u64, String)>,
    elapsed_s: f64,
    /// The share of busy CPU time not stolen during the loop.
    kept: f64,
}

/// One closed loop: every client sends its next request when the last
/// one completes, until `seconds` have passed and `min_warm` warm
/// requests are done.
fn load(
    ctx: &Ctx,
    tr: &Tracer,
    clients: &mut [Client],
    next: &AtomicU64,
    seconds: f64,
    min_warm: usize,
    warm_ref: &str,
) -> Load {
    let start = Instant::now();
    let steal = Stopwatch::start();
    let warm_done = AtomicUsize::new(0);
    let shared = Mutex::new(Load {
        warm_s: Vec::new(),
        cold_s: Vec::new(),
        cold_out: Vec::new(),
        elapsed_s: 0.0,
        kept: 1.0,
    });
    let client_loop = |c: &mut Client| loop {
        let elapsed = secs(start);
        if elapsed >= LOAD_CAP_S
            || (elapsed >= seconds && warm_done.load(Ordering::Relaxed) >= min_warm)
        {
            return;
        }
        let k = next.fetch_add(1, Ordering::Relaxed);
        let cold = k % COLD_EVERY == COLD_EVERY - 1;
        let job = if cold {
            cold_job(ctx.seed, k / COLD_EVERY)
        } else {
            warm_job(ctx.seed)
        };
        let t = Instant::now();
        let sent = tr.span("request", 0, |rq| {
            let name = tr.span("submit", rq, |_| c.submit(&job))?;
            tr.span("stream", rq, |_| c.stream(&name))?;
            Ok::<_, String>(name)
        });
        let latency = secs(t);
        let out = sent.and_then(|name| tr.span("status", 0, |_| c.output(&name)));
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                // The connection's state is unknown after a failed
                // request, so this client stops.
                ctx.checks.op(false, || format!("request failed: {e}"));
                return;
            }
        };
        let mut l = shared.lock().expect("load samples poisoned");
        if cold {
            l.cold_s.push(latency);
            l.cold_out.push((k / COLD_EVERY, out));
        } else {
            ctx.checks.op(out == warm_ref, || {
                "warm output differs from the offline render".into()
            });
            l.warm_s.push(latency);
            warm_done.fetch_add(1, Ordering::Relaxed);
        }
    };
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            s.spawn(|| client_loop(c));
        }
    });
    let mut l = shared.into_inner().expect("load samples poisoned");
    l.elapsed_s = secs(start);
    l.kept = steal.kept();
    ctx.checks.op(l.warm_s.len() >= min_warm, || {
        format!("only {} warm requests within {LOAD_CAP_S}s", l.warm_s.len())
    });
    l
}

/// Each cold output must byte-match the offline render of its job.
fn check_cold(ctx: &Ctx, cold_out: &[(u64, String)]) {
    for (k, out) in cold_out {
        let offline = wire::offline_output(&cold_job(ctx.seed, *k));
        ctx.checks.op(offline.as_deref() == Ok(out.as_str()), || {
            format!("cold request {k}: daemon output differs from the offline render")
        });
    }
}

/// The warm job's blocks and the first [`PINNED_COLD`] cold blocks.
fn pinned_blocks(seed: u64) -> Vec<PerfCounts> {
    let cfg = CpuConfig::westmere_e5645();
    let warm = Characterizer::new(cfg.clone(), window(), seed);
    let mut out: Vec<PerfCounts> = WARM_ENTRIES.iter().map(|&id| warm.raw_counts(id)).collect();
    for k in 0..PINNED_COLD {
        let cold = Characterizer::new(cfg.clone(), window(), cold_seed(seed, k));
        out.push(cold.raw_counts(COLD_ENTRY));
    }
    out
}

struct Session {
    daemon: Daemon,
    clients: Vec<Client>,
    warm_out: String,
}

/// Clear the memo, start the daemon, connect the clients and run the
/// untimed warm-up request.
fn start(ctx: &Ctx) -> Result<Session, String> {
    cache::clear();
    let daemon = Daemon::start(WORKERS).map_err(|e| e.to_string())?;
    let mut clients = (0..CLIENTS)
        .map(|_| daemon.connect().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let c = &mut clients[0];
    let name = c.submit(&warm_job(ctx.seed))?;
    c.stream(&name)?;
    let warm_out = c.output(&name)?;
    Ok(Session {
        daemon,
        clients,
        warm_out,
    })
}

/// Time [`SETUP_REPS`] set-ups into `setup_s`, less the stolen share;
/// each is shut down again except the last when `keep`.
fn setups(ctx: &Ctx, e2e: &mut EndToEnd, keep: bool) -> Result<Option<Session>, String> {
    let sw = Stopwatch::start();
    let mut raw = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let (s, took) = timed(|| start(ctx));
        raw.push(took);
        match s? {
            s if keep && rep + 1 == SETUP_REPS => kept = Some(s),
            s => stop(s),
        }
    }
    let k = sw.kept();
    e2e.setup_s.extend(raw.iter().map(|s| s * k));
    Ok(kept)
}

fn stop(s: Session) {
    drop(s.clients);
    s.daemon.stop();
}

fn fail(checks: &Checks, e: String) -> Vec<Metric> {
    checks.op(false, || format!("daemon session failed: {e}"));
    Vec::new()
}

pub fn run(ctx: &Ctx) -> Vec<Metric> {
    let mut e2e = EndToEnd::default();
    let mut s = match setups(ctx, &mut e2e, true) {
        Ok(Some(s)) => s,
        Ok(None) => unreachable!("a kept set-up returns its session"),
        Err(e) => return fail(&ctx.checks, e),
    };
    let warm_ref = match wire::offline_output(&warm_job(ctx.seed)) {
        Ok(r) => r,
        Err(e) => return fail(&ctx.checks, e),
    };
    ctx.checks.op(s.warm_out == warm_ref, || {
        "warm-up output differs from the offline render".into()
    });
    let next = AtomicU64::new(0);
    let per_sim = (window().warmup_ops + window().max_ops) as f64;

    if !ctx.tracer.is_on() {
        let before = s.clients[0].stats();
        let l = load(
            ctx,
            &Tracer::off(),
            &mut s.clients,
            &next,
            ctx.seconds,
            WARM_REQUESTS,
            &warm_ref,
        );
        let after = s.clients[0].stats();
        stop(s);
        check_cold(ctx, &l.cold_out);
        if let (Ok(b), Ok(a)) = (&before, &after) {
            let errors = wire::counter(a, "dc_server_errors_total")
                - wire::counter(b, "dc_server_errors_total");
            ctx.checks.op(errors == 0.0, || {
                format!("the server reported {errors} errors")
            });
        } else {
            ctx.checks.op(false, || "stats request failed".into());
        }
        if ctx.pinned() {
            ctx.checks.op(l.cold_s.len() as u64 >= PINNED_COLD, || {
                format!(
                    "only {} cold requests; the digest covers {PINNED_COLD}",
                    l.cold_s.len()
                )
            });
            let d = digest(&pinned_blocks(ctx.seed));
            ctx.checks.op(d == PINNED_DIGEST, || {
                format!("digest {d:#018x} is not the pinned one")
            });
        }
        if let Err(e) = setups(ctx, &mut e2e, false) {
            return fail(&ctx.checks, e);
        }
        // Cold requests are bound by simulation, so the stolen share
        // comes out of them. Warm requests and the request rate are
        // bound by the wire's delayed acknowledgements and stay raw.
        e2e.cold_s = l.cold_s.iter().map(|s| s * l.kept).collect();
        e2e.sim_uops = l.cold_s.len() as f64 * per_sim;
        e2e.sim_s = l.elapsed_s;
        e2e.warm_s = l.warm_s;
        return e2e.metrics(&ctx.checks);
    }

    // Traced: half the time untraced, half under spans.
    let half = ctx.seconds / 2.0;
    let plain = load(
        ctx,
        &Tracer::off(),
        &mut s.clients,
        &next,
        half,
        0,
        &warm_ref,
    );
    let before = s.clients[0].stats();
    let (sims0, hits0) = (cache::sim_invocations(), cache::cache_hits());
    let traced = load(ctx, &ctx.tracer, &mut s.clients, &next, half, 0, &warm_ref);
    let (sims, hits) = (
        cache::sim_invocations() - sims0,
        cache::cache_hits() - hits0,
    );
    let after = s.clients[0].stats();
    stop(s);
    check_cold(ctx, &plain.cold_out);
    check_cold(ctx, &traced.cold_out);
    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => return fail(&ctx.checks, e),
    };
    let warm_p50 = median(&traced.warm_s);
    let requests = traced.warm_s.len() + traced.cold_s.len();
    let mut out = probes::server_metrics(&before, &after, warm_p50, traced.elapsed_s, requests);

    let bench = Characterizer::new(CpuConfig::westmere_e5645(), window(), ctx.seed);
    let lookup_s: Vec<f64> = (0..100)
        .map(|_| timed(|| bench.run_many(&WARM_ENTRIES)).1 / WARM_ENTRIES.len() as f64)
        .collect();
    let tr = &ctx.tracer;
    let render_s: Vec<f64> = (0..50)
        .map(|_| {
            let render = || wire::offline_output(&warm_job(ctx.seed));
            timed(|| tr.span("report.render", 0, |_| render())).1
        })
        .collect();
    let pool_wall = tr.span("pool.probe", 0, |p| {
        timed(|| {
            pool::parallel_map(WARM_ENTRIES.to_vec(), |_, id| {
                tr.span("sim", p, |_| bench.run_uncached(id))
            })
        })
        .1
    });
    let sim_busy: f64 = tr.durations("sim").iter().sum();
    out.extend([
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
        metric("report.render_ms", median(&render_s) * 1e3, "ms"),
        metric(
            "trace.overhead_s",
            median(&traced.cold_s) - median(&plain.cold_s),
            "s",
        ),
    ]);
    let store_src = ctx
        .out_dir
        .join(format!("daemon-memo-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&store_src);
    let persisted = cache::persist_to(&store_src);
    ctx.checks.op(persisted.is_ok(), || {
        format!("persisting the memo failed: {persisted:?}")
    });
    out.extend(probes::store_layer(&store_src, &ctx.out_dir, &ctx.checks));
    let _ = std::fs::remove_file(&store_src);
    let (f2, f5) = probes::engine_layer(ctx);
    out.push(metric("engine.figure2_s", f2, "s"));
    out.push(metric("engine.figure5_s", f5, "s"));
    let ids = [WARM_ENTRIES[0], WARM_ENTRIES[1], COLD_ENTRY];
    let sim = probes::sim_layers(&ids, COLD_ENTRY, ctx.seed, window(), window(), &ctx.checks);
    let wire_share = value(&out, "server.wire_ms") * 1e-3 / warm_p50;
    let busy = pool::jobs() as f64 * traced.elapsed_s;
    let exact_uops = traced.cold_s.len() as f64 * per_sim;
    out.extend(shares(&sim, exact_uops, 0.0, busy, wire_share));
    out.extend(sim.metrics());
    out
}
