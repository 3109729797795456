//! `sampled-validation` — hold SMARTS sampled simulation to its
//! documented error bounds.
//!
//! Runs the data-analysis matrix twice — exact and sampled under
//! [`dc_cpu::SamplePlan::DEFAULT`] — over one recorded stream per
//! workload, and compares the derived metrics per workload:
//!
//! ```text
//! cargo run --release -p dc-benches --bin sampled-validation -- \
//!     --out sampled_validation.md
//! ```
//!
//! At the full windows (the default) every workload must land within
//! ≤ 3% relative IPC error and ≤ 5% relative L2/L3 MPKI error — the
//! bounds DESIGN.md §13 documents and CI enforces. `--quick` runs the
//! quick windows instead, where only ~5 detailed bursts fit and the
//! extrapolation variance loosens the documented IPC bound to 8%
//! (MPKI, an event-count ratio, keeps its 5% bound everywhere).
//!
//! The per-workload comparison table is written to `--out` as
//! markdown (the CI artifact) and echoed to stdout; any bound
//! violation is reported on stderr and fails the run (exit 1).

use dcbench::{BenchmarkId, Characterizer};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Per-metric relative-error bounds for one validation profile.
struct Bounds {
    window: &'static str,
    ipc: f64,
    mpki: f64,
}

/// The documented full-window bounds (≥ ~12 bursts of the default
/// plan: variance averages out).
const FULL: Bounds = Bounds {
    window: "full",
    ipc: 0.03,
    mpki: 0.05,
};

/// The documented quick-window bounds (~5 bursts: the extrapolated
/// IPC is variance-limited; MPKI is an event count and stays tight).
const QUICK: Bounds = Bounds {
    window: "quick",
    ipc: 0.08,
    mpki: 0.05,
};

/// One workload's exact-vs-sampled comparison.
struct Row {
    name: &'static str,
    ipc_exact: f64,
    ipc_sampled: f64,
    ipc_err: f64,
    l2_err: f64,
    l3_err: f64,
}

/// Relative error with a small absolute floor so near-zero exact
/// values don't manufacture huge ratios.
fn rel_err(sampled: f64, exact: f64) -> f64 {
    (sampled - exact).abs() / exact.abs().max(0.1)
}

/// Compare both modes per workload, drawing each workload's stream once
/// and simulating exact and sampled from the same recording.
fn compare(exact: &Characterizer, sampled: &Characterizer) -> Vec<Row> {
    BenchmarkId::data_analysis()
        .iter()
        .map(|&id| {
            let stream = exact.record(id);
            let replay = |bench: &Characterizer| {
                bench
                    .run_replayed(id, &stream)
                    .expect("both harnesses share the seed the stream was drawn at")
            };
            let (e, s) = (replay(exact), replay(sampled));
            Row {
                name: id.name(),
                ipc_exact: e.ipc,
                ipc_sampled: s.ipc,
                ipc_err: rel_err(s.ipc, e.ipc),
                l2_err: rel_err(s.l2_mpki, e.l2_mpki),
                l3_err: rel_err(s.l3_mpki, e.l3_mpki),
            }
        })
        .collect()
}

/// Bound violations as human-readable lines (empty ⇒ pass).
fn violations(rows: &[Row], bounds: &Bounds) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        if r.ipc_err > bounds.ipc {
            out.push(format!(
                "{}: IPC error {:.4} exceeds the {:.0}% {} bound",
                r.name,
                r.ipc_err,
                bounds.ipc * 100.0,
                bounds.window
            ));
        }
        for (metric, err) in [("L2 MPKI", r.l2_err), ("L3 MPKI", r.l3_err)] {
            if err > bounds.mpki {
                out.push(format!(
                    "{}: {metric} error {err:.4} exceeds the {:.0}% {} bound",
                    r.name,
                    bounds.mpki * 100.0,
                    bounds.window
                ));
            }
        }
    }
    out
}

/// Render the comparison as a markdown table (the CI artifact).
fn render(rows: &[Row], bounds: &Bounds, plan: dc_cpu::SamplePlan) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Sampled-simulation validation ({} windows, plan {}k/{}k)\n",
        bounds.window,
        plan.detail_ops / 1000,
        plan.ffwd_ops / 1000
    );
    let _ = writeln!(
        out,
        "Bounds: IPC ≤ {:.0}%, L2/L3 MPKI ≤ {:.0}% relative error.\n",
        bounds.ipc * 100.0,
        bounds.mpki * 100.0
    );
    let _ = writeln!(
        out,
        "| workload | exact IPC | sampled IPC | IPC err | L2 MPKI err | L3 MPKI err |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {:.4} | {:.4} | {:.2}% | {:.2}% | {:.2}% |",
            r.name,
            r.ipc_exact,
            r.ipc_sampled,
            r.ipc_err * 100.0,
            r.l2_err * 100.0,
            r.l3_err * 100.0
        );
    }
    let worst = |f: fn(&Row) -> f64| rows.iter().map(f).fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "\nWorst: IPC {:.2}%, L2 MPKI {:.2}%, L3 MPKI {:.2}%.",
        worst(|r| r.ipc_err) * 100.0,
        worst(|r| r.l2_err) * 100.0,
        worst(|r| r.l3_err) * 100.0
    );
    out
}

fn usage() -> ! {
    eprintln!("usage: sampled-validation [--quick] [--out <path.md>]");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    let (exact, sampled, bounds) = if quick {
        (
            Characterizer::quick(),
            Characterizer::quick_sampled(),
            QUICK,
        )
    } else {
        (Characterizer::full(), Characterizer::full_sampled(), FULL)
    };
    let plan = dc_cpu::SamplePlan::DEFAULT;
    eprintln!(
        "sampled-validation: {} windows, {} workloads, plan {}/{}",
        bounds.window,
        BenchmarkId::data_analysis().len(),
        plan.detail_ops,
        plan.ffwd_ops
    );

    let rows = compare(&exact, &sampled);
    let table = render(&rows, &bounds, plan);
    print!("{table}");
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &table) {
            eprintln!("sampled-validation: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let bad = violations(&rows, &bounds);
    if bad.is_empty() {
        eprintln!(
            "sampled-validation: all {} workloads within bounds",
            rows.len()
        );
        ExitCode::SUCCESS
    } else {
        for line in &bad {
            eprintln!("sampled-validation: FAIL {line}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(ipc_err: f64, l2_err: f64, l3_err: f64) -> Row {
        Row {
            name: "Sort",
            ipc_exact: 1.0,
            ipc_sampled: 1.0 + ipc_err,
            ipc_err,
            l2_err,
            l3_err,
        }
    }

    #[test]
    fn bounds_trip_per_metric() {
        assert!(violations(&[row(0.02, 0.01, 0.01)], &FULL).is_empty());
        assert_eq!(violations(&[row(0.04, 0.01, 0.01)], &FULL).len(), 1);
        assert_eq!(violations(&[row(0.01, 0.06, 0.06)], &FULL).len(), 2);
        // The quick profile loosens only the IPC bound.
        assert!(violations(&[row(0.07, 0.01, 0.01)], &QUICK).is_empty());
        assert_eq!(violations(&[row(0.07, 0.06, 0.01)], &QUICK).len(), 1);
    }

    #[test]
    fn rel_err_floors_tiny_denominators() {
        assert!((rel_err(1.03, 1.0) - 0.03).abs() < 1e-12);
        // Near-zero exact values use the 0.1 floor instead of blowing
        // up the ratio.
        assert!((rel_err(0.001, 0.0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn table_renders_one_row_per_workload() {
        let rows = [row(0.01, 0.0, 0.0), row(0.02, 0.0, 0.0)];
        let md = render(&rows, &FULL, dc_cpu::SamplePlan::DEFAULT);
        assert_eq!(md.matches("| Sort |").count(), 2);
        assert!(md.contains("plan 25k/75k"));
        assert!(md.contains("IPC ≤ 3%"));
        assert!(md.contains("Worst: IPC 2.00%"));
    }
}
