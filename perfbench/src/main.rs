//! The shmem-ntb benchmark.
//!
//! ```text
//! perfbench --workload <halo_ring3|cg_torus4|rma_pair|all> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run (and writes a Chrome trace to `out/`). Every
//! metric is printed by name with its unit and sample count; the last line
//! of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every op succeeded, every output matched its oracle and
//! every mechanism a workload relies on fired.

mod bench;
mod cg;
mod halo;
mod measure;
mod rma;
mod trace;
mod world;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use bench::{Outcome, RunSpec, Workload};
use shmem_core::TimeModel;

const USAGE: &str = "usage: perfbench --workload <halo_ring3|cg_torus4|rma_pair|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// A workload that has not finished this long after its `--seconds` is
/// stuck (a lost signal would otherwise leave PEs waiting out their 60 s
/// barrier timeouts). The run loop finishes the world in flight when the
/// time is up, and one world takes a few seconds, so a healthy run never
/// gets near it; at `--seconds 30` the watchdog fires at 170 s.
const WATCHDOG_MARGIN: Duration = Duration::from_secs(140);

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("seconds {s} out of range 0..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced,
    })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values print in full (Rust's shortest round-trip form).
fn result_json(o: &Outcome) -> String {
    let mut m = String::new();
    for (i, (name, value, unit, _)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(m, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed
    )
}

fn report(w: Workload, o: &Outcome) {
    println!(
        "{} ({} worlds, {} ops attempted, {} failed)",
        w.name(),
        o.worlds,
        o.attempted,
        o.failed
    );
    for (name, value, unit, n) in &o.metrics {
        println!("  {name:<38} {value:>14.3} {unit:<6} (n={n})");
    }
    for p in &o.problems {
        println!("  FAILED: {p}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let limit =
        (Duration::from_secs_f64(args.seconds) + WATCHDOG_MARGIN) * args.workloads.len() as u32;
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}; a PE is stuck");
        std::process::exit(3);
    });
    let trace_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut all_correct = true;
    for &w in &args.workloads {
        let spec = RunSpec {
            workload: w,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            model: TimeModel::paper(),
            trace_dir: args.traced.then_some(trace_dir.as_path()),
        };
        let o = bench::run(&spec);
        report(w, &o);
        if args.traced {
            println!(
                "  chrome trace: {}",
                trace_dir.join(format!("{}.trace.json", w.name())).display()
            );
        }
        all_correct &= o.correct();
        println!("{}", result_json(&o));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `key` in the repository's BENCHMARK.json.
    fn declared(key: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("section");
        let section = &text[start..];
        let end = section.find(']').expect("section end");
        section[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| s.trim().trim_start_matches('"').split('"').next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn declared_metrics_match_emitted() {
        let e2e: Vec<&str> = bench::END_TO_END.iter().map(|m| m.0).collect();
        let layer: Vec<&str> = bench::PER_LAYER.iter().map(|m| m.0).collect();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layer);
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload rma_pair --seed 4 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workloads, vec![Workload::RmaPair]);
        assert!(a.traced && a.seed == 4 && a.seconds == 10.0);
        assert_eq!(
            parse_args(&argv("--workload all --seed 1 --seconds 1")).unwrap().workloads.len(),
            3
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload rma_pair --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload rma_pair --seed 1 --seconds 1 --trace 2")).is_err());
    }

    /// Smoke check under `TimeModel::zero()`: every workload, untraced
    /// and traced, emits every named metric and passes every check.
    #[test]
    fn every_workload_emits_every_metric_under_zero_delay() {
        for w in Workload::ALL {
            for traced in [false, true] {
                let spec = RunSpec {
                    workload: w,
                    seed: 11,
                    seconds: 0.0,
                    traced,
                    model: TimeModel::zero(),
                    trace_dir: None,
                };
                let o = bench::run(&spec);
                assert!(o.correct(), "{} traced={traced}: {:?}", w.name(), o.problems);
                assert!(o.attempted > 0);
                let want = if traced { &bench::PER_LAYER[..] } else { &bench::END_TO_END[..] };
                let got: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.0, m.2)).collect();
                assert_eq!(got, want.to_vec(), "{}", w.name());
                let json = result_json(&o);
                assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
                if !traced {
                    assert!(o.metrics.iter().all(|m| m.1 > 0.0), "{}: {:?}", w.name(), o.metrics);
                }
            }
        }
    }
}
