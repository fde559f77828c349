//! `repro` — regenerate every figure of the paper's evaluation section.
//!
//! ```text
//! repro [all|fig8|fig9|fig10|compare|trace|transport|overload|scale] [--scale F] [--reps N] [--quick] [--csv DIR]
//! ```
//!
//! `compare` runs the beyond-paper topology comparison: the switchless
//! ring against the switch-emulating full mesh. `trace` runs a small
//! traced workload and prints the event trace, the per-PE metrics report
//! and the protocol-invariant checker's verdict. `transport` benchmarks
//! the batched/coalesced transport hot path against one doorbell per
//! message on the same slot ring and writes `BENCH_transport.json`.
//! `overload` sweeps incast offered load to 3× the calibrated saturation
//! rate and writes `BENCH_overload.json` (goodput, tail latency and shed
//! counts per load point). `scale` sweeps collective latency to 64
//! simulated PEs across ring/torus/clique topologies and both barrier
//! algorithms, writes `BENCH_scale.json` and enforces the scaling
//! regression gates (64-PE torus dissemination barrier ≤ 4× its 8-PE
//! latency; dissemination strictly beats the two-sweep ring barrier at
//! 16 PEs).
//!
//! * `--scale F`  — time-model scale (1.0 = paper-calibrated latencies,
//!   smaller = proportionally faster runs with the same shapes).
//! * `--reps N`   — measurement repetitions per point.
//! * `--quick`    — 4-point size axis instead of the paper's 10.
//! * `--csv DIR`  — also write each panel as CSV into DIR.

use std::fs;
use std::path::PathBuf;

use ntb_sim::TimeModel;
use shmem_bench::compare::{run_compare, CompareConfig};
use shmem_bench::fig10::{run_fig10, Fig10Config};
use shmem_bench::fig8::{run_fig8, run_scaling, Fig8Config};
use shmem_bench::fig9::{run_fig9, Fig9Config};
use shmem_bench::report::{render_csv, Series};
use shmem_bench::sizes::{paper_sizes, quick_sizes};

struct Options {
    what: String,
    scale: f64,
    reps: Option<usize>,
    quick: bool,
    csv: Option<PathBuf>,
}

fn parse_args() -> Options {
    let mut opts = Options { what: "all".into(), scale: 1.0, reps: None, quick: false, csv: None };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "all" | "fig8" | "fig9" | "fig10" | "compare" | "scaling" | "trace" | "transport"
            | "overload" | "scale" => opts.what = a,
            "--scale" => {
                opts.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a float"));
            }
            "--reps" => {
                opts.reps = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--reps needs an integer")),
                );
            }
            "--quick" => opts.quick = true,
            "--csv" => {
                opts.csv = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--csv needs a directory")),
                ));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [all|fig8|fig9|fig10|compare|scaling|trace|transport|overload|scale] [--scale F] [--reps N] [--quick] [--csv DIR]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    opts
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn write_csv(dir: &Option<PathBuf>, name: &str, labels: &[String], series: &[Series]) {
    if let Some(dir) = dir {
        fs::create_dir_all(dir).expect("create csv dir");
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, render_csv(labels, series)).expect("write csv");
        println!("  wrote {}", path.display());
    }
}

/// Run a small fully-traced workload (puts, gets, AMOs, barriers on a
/// 3-PE ring), print the structured event trace and the metrics report,
/// and put the trace through the protocol-invariant checker.
fn run_trace_demo() {
    use shmem_core::{ShmemConfig, ShmemWorld};
    const PES: usize = 3;
    let results = ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(PES), |ctx| {
        let log = ctx.node().obs().log().expect("observed world");
        log.enable();
        let sym = ctx.calloc_array::<u64>(64).expect("alloc");
        let right = (ctx.my_pe() + 1) % ctx.num_pes();
        let data: Vec<u64> = (0..64).map(|i| (ctx.my_pe() * 1000 + i) as u64).collect();
        ctx.put_slice(&sym, 0, &data, right).expect("put");
        ctx.quiet().expect("quiet");
        ctx.barrier_all().expect("barrier");
        ctx.get_slice::<u64>(&sym, 0, 64, right).expect("get");
        ctx.atomic_fetch_add(&sym, 0, 1u64, 0).expect("amo");
        ctx.barrier_all().expect("barrier");
        (std::sync::Arc::clone(log), std::sync::Arc::clone(ctx.metrics()))
    })
    .expect("trace demo world");
    let log = std::sync::Arc::clone(&results[0].0);
    let registries: Vec<_> = results.into_iter().map(|(_, m)| m).collect();
    let events = log.take();
    println!("{}", ntb_sim::render_events(&events));
    println!("({} events, {} dropped)\n", events.len(), log.dropped());
    println!("{}", shmem_bench::render_metrics_report("per-PE metrics", &registries));
    let report = ntb_net::check(&events, PES);
    if report.is_clean() {
        println!(
            "checker: clean ({} puts, {} gets, {} AMOs, {} barriers checked)",
            report.puts_checked, report.gets_checked, report.amos_checked, report.barriers_checked
        );
    } else {
        println!(
            "checker: {} violation(s)\n{}",
            report.violations.len(),
            report.render_violations()
        );
        std::process::exit(1);
    }
}

/// Run the transport hot-path benchmark and write `BENCH_transport.json`
/// into the current directory.
fn run_transport_bench(scale: f64, reps: Option<usize>) {
    use shmem_bench::transport::{run_transport, TransportConfig};
    let model = if scale == 1.0 { TimeModel::paper() } else { TimeModel::scaled(scale) };
    let cfg =
        TransportConfig { model, latency_reps: reps.unwrap_or(64), ..TransportConfig::default() };
    let t0 = std::time::Instant::now();
    let r = run_transport(&cfg);
    println!("{}", r.render());
    println!("(transport ran in {:.1?})", t0.elapsed());
    let path = PathBuf::from("BENCH_transport.json");
    fs::write(&path, r.to_json()).expect("write BENCH_transport.json");
    println!("wrote {}", path.display());
}

/// Run the scale sweep, enforce the scaling gates and write
/// `BENCH_scale.json` into the current directory.
fn run_scale_bench(scale: f64, reps: Option<usize>, quick: bool) {
    use shmem_bench::scale::{run_scale, ScaleConfig};
    let model = if scale == 1.0 { TimeModel::paper() } else { TimeModel::scaled(scale) };
    let mut cfg = ScaleConfig { model, reps: reps.unwrap_or(8), ..ScaleConfig::default() };
    if quick {
        cfg.pe_counts = vec![8, 16, 64];
        cfg.reps = reps.unwrap_or(4);
    }
    let t0 = std::time::Instant::now();
    let r = run_scale(&cfg);
    println!("{}", r.render());
    println!("(scale ran in {:.1?})", t0.elapsed());
    let path = PathBuf::from("BENCH_scale.json");
    fs::write(&path, r.to_json()).expect("write BENCH_scale.json");
    println!("wrote {}", path.display());
    if let Err(err) = r.check_gates() {
        eprintln!("scale gate FAILED: {err}");
        std::process::exit(1);
    }
    println!("scale gates: ok");
}

/// Run the overload sweep and write `BENCH_overload.json` into the
/// current directory.
fn run_overload_bench(scale: f64, quick: bool) {
    use shmem_bench::overload::{run_overload, OverloadBenchConfig};
    let model = if scale == 1.0 { TimeModel::paper() } else { TimeModel::scaled(scale) };
    let mut cfg = OverloadBenchConfig { model, ..OverloadBenchConfig::default() };
    if quick {
        cfg.window = std::time::Duration::from_millis(150);
    }
    let t0 = std::time::Instant::now();
    let r = run_overload(&cfg);
    println!("{}", r.render());
    println!("(overload ran in {:.1?})", t0.elapsed());
    let path = PathBuf::from("BENCH_overload.json");
    fs::write(&path, r.to_json()).expect("write BENCH_overload.json");
    println!("wrote {}", path.display());
}

fn main() {
    let opts = parse_args();
    if opts.what == "trace" {
        run_trace_demo();
        return;
    }
    if opts.what == "transport" {
        run_transport_bench(opts.scale, opts.reps);
        return;
    }
    if opts.what == "overload" {
        run_overload_bench(opts.scale, opts.quick);
        return;
    }
    if opts.what == "scale" {
        run_scale_bench(opts.scale, opts.reps, opts.quick);
        return;
    }
    let sizes = if opts.quick { quick_sizes() } else { paper_sizes() };
    let model = if opts.scale == 1.0 { TimeModel::paper() } else { TimeModel::scaled(opts.scale) };
    println!(
        "# OpenSHMEM over switchless PCIe NTB — evaluation reproduction (scale {}, {} sizes)\n",
        opts.scale,
        sizes.len()
    );

    if opts.what == "all" || opts.what == "fig8" {
        let cfg = Fig8Config {
            sizes: sizes.clone(),
            reps: opts.reps.unwrap_or(8),
            model: model.clone(),
            ..Fig8Config::default()
        };
        let t0 = std::time::Instant::now();
        let r = run_fig8(&cfg);
        println!("{}", r.render());
        println!("(fig8 ran in {:.1?})\n", t0.elapsed());
        let labels = r.labels();
        for (i, (ind, ring)) in r.independent.iter().zip(&r.ring).enumerate() {
            write_csv(
                &opts.csv,
                &format!("fig8_link{i}"),
                &labels,
                &[Series::new("independent", ind.clone()), Series::new("ring", ring.clone())],
            );
        }
        write_csv(
            &opts.csv,
            "fig8_total",
            &labels,
            &[
                Series::new("independent", r.total_independent()),
                Series::new("ring", r.total_ring()),
            ],
        );
    }

    if opts.what == "all" || opts.what == "fig9" {
        let cfg = Fig9Config {
            sizes: sizes.clone(),
            put_reps: opts.reps.unwrap_or(6),
            get_reps: opts.reps.unwrap_or(6).div_ceil(2),
            model: model.clone(),
        };
        let t0 = std::time::Instant::now();
        let r = run_fig9(&cfg);
        println!("{}", r.render());
        println!("(fig9 ran in {:.1?})\n", t0.elapsed());
        let labels = r.labels();
        let names: Vec<String> = r.configs.iter().map(|c| c.label()).collect();
        let mk = |vals: &[Vec<f64>]| -> Vec<Series> {
            names.iter().zip(vals).map(|(n, v)| Series::new(n.clone(), v.clone())).collect()
        };
        write_csv(&opts.csv, "fig9a_put_latency", &labels, &mk(&r.put.latency_us));
        write_csv(&opts.csv, "fig9b_get_latency", &labels, &mk(&r.get.latency_us));
        write_csv(&opts.csv, "fig9c_put_throughput", &labels, &mk(&r.put.throughput));
        write_csv(&opts.csv, "fig9d_get_throughput", &labels, &mk(&r.get.throughput));
    }

    if opts.what == "scaling" {
        let t0 = std::time::Instant::now();
        let r = run_scaling(&[2, 3, 4, 5, 6], 512 << 10, opts.reps.unwrap_or(8), &model);
        println!("{}", r.render());
        println!("(scaling ran in {:.1?})\n", t0.elapsed());
    }

    if opts.what == "compare" {
        let cfg = CompareConfig {
            sizes: sizes.clone(),
            reps: opts.reps.unwrap_or(4),
            model: model.clone(),
        };
        let t0 = std::time::Instant::now();
        let r = run_compare(&cfg);
        println!("{}", r.render());
        println!("(compare ran in {:.1?})\n", t0.elapsed());
        let labels = r.labels();
        write_csv(
            &opts.csv,
            "compare_topologies",
            &labels,
            &[
                Series::new("ring put", r.ring_put_us.clone()),
                Series::new("mesh put", r.mesh_put_us.clone()),
                Series::new("ring get", r.ring_get_us.clone()),
                Series::new("mesh get", r.mesh_get_us.clone()),
            ],
        );
    }

    if opts.what == "all" || opts.what == "fig10" {
        let cfg = Fig10Config {
            sizes: sizes.clone(),
            reps: opts.reps.unwrap_or(5),
            model: model.clone(),
        };
        let t0 = std::time::Instant::now();
        let r = run_fig10(&cfg);
        println!("{}", r.render());
        println!("(fig10 ran in {:.1?})\n", t0.elapsed());
        let labels = r.labels();
        let series: Vec<Series> = r
            .configs
            .iter()
            .zip(&r.latency_us)
            .map(|(c, v)| Series::new(c.label(), v.clone()))
            .collect();
        write_csv(&opts.csv, "fig10_barrier_latency", &labels, &series);
    }
}
