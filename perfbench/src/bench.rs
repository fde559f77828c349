//! One benchmark run: worlds of fixed work, repeated until the run's
//! time is spent, folded into the end-to-end metrics (untraced run) or
//! the per-layer metrics (traced run).

use std::path::Path;
use std::time::Instant;

use ntb_net::{NetConfig, RingNetwork, RouteDirection};
use ntb_sim::{Region, TimeModel, TransferMode};

use crate::measure::{median, percentile, ratio, us};
use crate::trace::{chrome_json, Span, SpanTotals};
use crate::world::{run_world, Counters, PeReport, Plan, Samples, WorldRun};

/// One world's end-to-end figures in [`END_TO_END`] order, each with the
/// number of samples behind it.
type Figures = [(f64, usize); 12];
const SOLVE_S: usize = 1;
const STEP_P50: usize = 2;
const PUT_REMOTE_P50: usize = 5;

fn world_figures(setup_s: f64, s: &Samples) -> Figures {
    let p = |v: &[f64], q: f64| (percentile(v, q), v.len());
    [
        (setup_s, 1),
        p(&s.solve_s, 0.5),
        p(&s.step_us, 0.5),
        p(&s.step_us, 0.9),
        p(&s.put_local_us, 0.5),
        p(&s.put_remote_us, 0.5),
        p(&s.put_remote_us, 0.9),
        p(&s.get_small_us, 0.5),
        p(&s.get_large_us, 0.5),
        p(&s.put_rate_msgs_s, 0.5),
        p(&s.bulk_put_mb_s, 0.5),
        p(&s.bulk_get_mb_s, 0.5),
    ]
}

/// Median over worlds of figure `i`, and the samples behind it. A run's
/// figure is the median of its worlds' figures, so a disturbance that
/// hits a minority of the worlds cannot move it.
fn across(worlds: &[Figures], i: usize) -> (f64, usize) {
    let v: Vec<f64> = worlds.iter().map(|f| f[i].0).filter(|v| v.is_finite()).collect();
    (median(&v), worlds.iter().map(|f| f[i].1).sum())
}
use crate::{cg, halo, rma};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HaloRing3,
    CgTorus4,
    RmaPair,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HaloRing3, Workload::CgTorus4, Workload::RmaPair];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HaloRing3 => "halo_ring3",
            Workload::CgTorus4 => "cg_torus4",
            Workload::RmaPair => "rma_pair",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// End-to-end metrics, emitted by every workload of an untraced run.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("step_p50_us", "us"),
    ("step_p90_us", "us"),
    ("put_local_p50_us", "us"),
    ("put_remote_p50_us", "us"),
    ("put_remote_p90_us", "us"),
    ("get_small_p50_us", "us"),
    ("get_large_p50_us", "us"),
    ("put_rate_msgs_s", "1/s"),
    ("bulk_put_mb_s", "MB/s"),
    ("bulk_get_mb_s", "MB/s"),
];

/// Per-layer metrics, emitted by every workload of a traced run.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("core.barrier.us", "us"),
    ("core.barrier.us_per_step", "us"),
    ("core.allreduce.us", "us"),
    ("core.allreduce.us_per_step", "us"),
    ("core.put_512B.us", "us"),
    ("core.quiet_512B.us", "us"),
    ("core.get_512B.us", "us"),
    ("core.nbi_put_64B.us", "us"),
    ("core.get_64KiB.us", "us"),
    ("core.put_512KiB.us", "us"),
    ("core.quiet_512KiB.us", "us"),
    ("core.get_512KiB.us", "us"),
    ("app.compute.us_per_step", "us"),
    ("net.put_512B.us", "us"),
    ("net.quiet_512B.us", "us"),
    ("net.get_512B.us", "us"),
    ("net.get_64KiB.us", "us"),
    ("net.get_512KiB.us", "us"),
    ("core.self_put_512B.us", "us"),
    ("core.self_get_512B.us", "us"),
    ("core.self_get_64KiB.us", "us"),
    ("net.frames_rx_per_op", "count"),
    ("net.acks_per_put", "count"),
    ("net.forwards_per_step", "count"),
    ("net.gets_served_per_get", "count"),
    ("net.retransmits", "count"),
    ("net.sheds", "count"),
    ("net.router_drops", "count"),
    ("sim.msgs_per_doorbell", "count"),
    ("sim.dma_ops_per_op", "count"),
    ("sim.pio_ops_per_op", "count"),
    ("sim.bytes_tx_per_op", "B"),
    ("sim.scratchpad_accesses_per_op", "count"),
    ("sim.raw_send_512B.us", "us"),
    ("sim.raw_send_64KiB.us", "us"),
    ("sim.raw_send_512KiB.us", "us"),
    ("world.bringup_ms", "ms"),
    ("world.teardown_ms", "ms"),
    ("trace.overhead_pct.solve_s", "%"),
    ("trace.overhead_pct.put_remote_p50_us", "%"),
];

/// What one run of one workload measured.
#[derive(Debug)]
pub struct Outcome {
    /// `(name, value, unit, samples behind it)`, in the order of
    /// [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed ops, non-vacuity failures and unmeasurable metrics.
    pub problems: Vec<String>,
    pub worlds: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Settings of one run.
pub struct RunSpec<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub model: TimeModel,
    /// Where a traced run writes its Chrome trace.
    pub trace_dir: Option<&'a Path>,
}

fn one_world(w: Workload, plan: &Plan) -> Result<WorldRun<PeReport>, String> {
    let payloads = rma::Payloads::new(plan.seed, plan.world);
    match w {
        Workload::HaloRing3 => {
            let inp = halo::Inputs::new(plan.seed, plan.world);
            run_world(plan.config(halo::PES, halo::topology()), |ctx, nodes| {
                halo::body(ctx, nodes, plan, &inp, &payloads)
            })
        }
        Workload::CgTorus4 => {
            let inp = cg::Inputs::new(plan.seed, plan.world);
            run_world(plan.config(cg::PES, cg::topology()), |ctx, nodes| {
                cg::body(ctx, nodes, plan, &inp, &payloads)
            })
        }
        Workload::RmaPair => run_world(plan.config(rma::PES, rma::topology()), |ctx, nodes| {
            rma::body(ctx, nodes, plan, &payloads)
        }),
    }
}

/// Everything folded from the worlds of one run.
#[derive(Default)]
struct Acc {
    plain: Vec<Figures>,
    traced: Vec<Figures>,
    bringup_ms: Vec<f64>,
    teardown_ms: Vec<f64>,
    /// PE 0's spans (per-call means: the latency PE 0 sees).
    pe0: SpanTotals,
    /// Every PE's spans inside a step (time per step, ops for counters).
    in_steps: SpanTotals,
    /// Step spans of every PE.
    steps: u64,
    phase: Counters,
    totals: Counters,
    export: Vec<(usize, Vec<Span>)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Acc {
    fn add_world(&mut self, world: usize, traced: bool, run: WorldRun<PeReport>) {
        let figures =
            world_figures((run.bringup + run.teardown).as_secs_f64(), &run.results[0].samples);
        if traced { &mut self.traced } else { &mut self.plain }.push(figures);
        self.bringup_ms.push(run.bringup.as_secs_f64() * 1e3);
        self.teardown_ms.push(run.teardown.as_secs_f64() * 1e3);
        if run.totals.retransmits != 0 || run.totals.sheds != 0 {
            self.problems.push(format!(
                "world {world}: {} retransmits, {} sheds on clean links",
                run.totals.retransmits, run.totals.sheds
            ));
        }
        let mut world_spans = Vec::new();
        for rep in run.results {
            self.attempted += rep.tally.attempted;
            self.failed += rep.tally.failed;
            self.problems
                .extend(rep.tally.errors.into_iter().map(|e| format!("world {world}: {e}")));
            self.problems.extend(rep.vacuous.into_iter().map(|e| format!("world {world}: {e}")));
            self.phase = self.phase.plus(&rep.phase);
            if traced {
                if rep.spans.first().is_some_and(|s| s.pe == 0) {
                    self.pe0.add(&rep.spans);
                }
                self.in_steps.add_in(&rep.spans, "step");
                self.steps += rep.spans.iter().filter(|s| s.name == "step").count() as u64;
                world_spans.extend(rep.spans);
            }
        }
        if traced {
            self.totals = self.totals.plus(&run.totals);
            if self.export.is_empty() {
                self.export.push((world, world_spans));
            }
        }
    }
}

/// Run `spec.workload` until `spec.seconds` have passed (at least three
/// worlds, and in a traced run two untraced and two traced ones, which
/// alternate so that the tracing overhead compares like with like).
pub fn run(spec: &RunSpec<'_>) -> Outcome {
    let origin = Instant::now();
    let min_worlds = if spec.traced { 4 } else { 3 };
    let mut acc = Acc::default();
    let mut world = 0;
    while world < min_worlds || origin.elapsed().as_secs_f64() < spec.seconds {
        let traced = spec.traced && world % 2 == 1;
        let plan = Plan { model: spec.model.clone(), traced, seed: spec.seed, world: world as u64 };
        match one_world(spec.workload, &plan) {
            Ok(run) => acc.add_world(world, traced, run),
            Err(e) => {
                acc.attempted += 1;
                acc.failed += 1;
                acc.problems.push(e);
                break;
            }
        }
        world += 1;
    }
    let mut metrics = if spec.traced {
        let raw = raw_send_us(&spec.model).unwrap_or_else(|e| {
            acc.problems.push(e);
            [f64::NAN; 3]
        });
        per_layer(spec.workload, &mut acc, raw)
    } else {
        end_to_end(&acc)
    };
    for (name, v, _, _) in &mut metrics {
        if !v.is_finite() {
            acc.problems.push(format!("metric {name} was not measured"));
            *v = 0.0;
        }
    }
    if let (Some(dir), Some(first)) = (spec.trace_dir, acc.export.first()) {
        let path = dir.join(format!("{}.trace.json", spec.workload.name()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, chrome_json(std::slice::from_ref(first), origin)));
        if let Err(e) = written {
            acc.problems.push(format!("writing {}: {e}", path.display()));
        }
    }
    acc.problems.truncate(32);
    Outcome {
        metrics,
        attempted: acc.attempted,
        failed: acc.failed,
        problems: acc.problems,
        worlds: world,
    }
}

type Metrics = Vec<(&'static str, f64, &'static str, usize)>;

fn end_to_end(acc: &Acc) -> Metrics {
    END_TO_END
        .iter()
        .enumerate()
        .map(|(i, &(name, unit))| {
            let (v, n) = across(&acc.plain, i);
            (name, v, unit, n)
        })
        .collect()
}

fn per_layer(w: Workload, acc: &mut Acc, raw: [f64; 3]) -> Metrics {
    let (sp, st, c) = (&acc.pe0, &acc.in_steps, acc.phase);
    // Steps of every PE (span time per step) and of PE 0 (counters per step).
    let steps_all = acc.steps;
    let steps_pe0 = across(&acc.traced, STEP_P50).1 as u64;
    let calls = |prefix: &str| -> u64 {
        st.names().filter(|n| n.starts_with(prefix)).map(|n| st.count(n)).sum()
    };
    let ops = calls("core.");
    let gets = calls("core.get");
    let overhead = |i: usize| {
        let (traced, n) = across(&acc.traced, i);
        ((traced / across(&acc.plain, i).0 - 1.0) * 100.0, n)
    };

    let (fired, mechanism) = match w {
        Workload::HaloRing3 => (
            c.forwards == 0 && c.gets_served == 0 && gets == 0,
            "halo_ring3 must issue no forwards and no gets",
        ),
        Workload::CgTorus4 => {
            (c.forwards > 0, "cg_torus4 must forward (net.forwards_per_step > 0)")
        }
        Workload::RmaPair => (
            ratio(c.frames_rx, c.doorbells) > 1.0,
            "rma_pair must coalesce (sim.msgs_per_doorbell > 1)",
        ),
    };
    if !fired {
        acc.problems.push(mechanism.to_string());
    }

    let n = |name: &str| sp.count(name) as usize;
    let values: [(f64, usize); 40] = [
        (sp.mean_us("core.barrier"), n("core.barrier")),
        (st.total_us("core.barrier") / steps_all as f64, steps_all as usize),
        (sp.mean_us("core.allreduce"), n("core.allreduce")),
        (st.total_us("core.allreduce") / steps_all as f64, steps_all as usize),
        (sp.mean_us("core.put_512B"), n("core.put_512B")),
        (sp.mean_us("core.quiet_512B"), n("core.quiet_512B")),
        (sp.mean_us("core.get_512B"), n("core.get_512B")),
        (sp.mean_us("core.nbi_put_64B"), n("core.nbi_put_64B")),
        (sp.mean_us("core.get_64KiB"), n("core.get_64KiB")),
        (sp.mean_us("core.put_512KiB"), n("core.put_512KiB")),
        (sp.mean_us("core.quiet_512KiB"), n("core.quiet_512KiB")),
        (sp.mean_us("core.get_512KiB"), n("core.get_512KiB")),
        (st.total_us("app.compute") / steps_all as f64, steps_all as usize),
        (sp.mean_us("net.put_512B"), n("net.put_512B")),
        (sp.mean_us("net.quiet_512B"), n("net.quiet_512B")),
        (sp.mean_us("net.get_512B"), n("net.get_512B")),
        (sp.mean_us("net.get_64KiB"), n("net.get_64KiB")),
        (sp.mean_us("net.get_512KiB"), n("net.get_512KiB")),
        (sp.mean_us("core.put_512B") - sp.mean_us("net.put_512B"), n("net.put_512B")),
        (sp.mean_us("core.get_512B") - sp.mean_us("net.get_512B"), n("net.get_512B")),
        (sp.mean_us("core.get_64KiB") - sp.mean_us("net.get_64KiB"), n("net.get_64KiB")),
        (ratio(c.frames_rx, ops), ops as usize),
        (ratio(c.acks, c.puts_delivered), c.puts_delivered as usize),
        (ratio(c.forwards, steps_pe0), steps_pe0 as usize),
        (ratio(c.gets_served, gets), gets as usize),
        (acc.totals.retransmits as f64, 1),
        (acc.totals.sheds as f64, 1),
        (acc.totals.router_drops as f64, 1),
        (ratio(c.frames_rx, c.doorbells), c.doorbells as usize),
        (ratio(c.dma_ops, ops), ops as usize),
        (ratio(c.pio_ops, ops), ops as usize),
        (ratio(c.bytes_tx, ops), ops as usize),
        (ratio(c.scratchpad, ops), ops as usize),
        (raw[0], RAW_REPS),
        (raw[1], RAW_REPS),
        (raw[2], RAW_REPS),
        (median(&acc.bringup_ms), acc.bringup_ms.len()),
        (median(&acc.teardown_ms), acc.teardown_ms.len()),
        overhead(SOLVE_S),
        overhead(PUT_REMOTE_P50),
    ];
    PER_LAYER.iter().zip(values).map(|(&(name, unit), (v, n))| (name, v, unit, n)).collect()
}

const RAW_REPS: usize = 16;

/// `NtbNode::raw_send` on an idle 3-host ring (the Fig. 8 link floor):
/// median microseconds at 512 B, 64 KiB and 512 KiB.
fn raw_send_us(model: &TimeModel) -> Result<[f64; 3], String> {
    let net = RingNetwork::build(NetConfig::paper(3).with_model(model.clone()))
        .map_err(|e| format!("raw-send ring: {e}"))?;
    let node = net.node(0);
    let sizes = [rma::SMALL as u64, rma::LARGE as u64, rma::BULK as u64];
    let src = Region::anonymous(rma::BULK as u64);
    src.fill(0, rma::BULK as u64, 0x5A).map_err(|e| format!("raw-send buffer: {e}"))?;
    let mut out = [0.0; 3];
    for (slot, &len) in out.iter_mut().zip(&sizes) {
        let send = || node.raw_send(RouteDirection::Right, &src, 0, 0, len, TransferMode::Dma);
        send().map_err(|e| format!("raw send: {e}"))?;
        let mut samples = Vec::with_capacity(RAW_REPS);
        for _ in 0..RAW_REPS {
            let t0 = Instant::now();
            send().map_err(|e| format!("raw send: {e}"))?;
            samples.push(us(t0.elapsed()));
        }
        *slot = median(&samples);
    }
    net.shutdown();
    Ok(out)
}
