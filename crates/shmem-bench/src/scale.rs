//! Scale benchmark: collective latency versus PE count across topologies.
//!
//! The paper's testbed stops at a 5-host ring; this is the beyond-paper
//! measurement that tracks how the topology-generic routing layer and the
//! collectives behave as the simulated machine grows to 64 PEs.
//! It emits `BENCH_scale.json` with:
//!
//! * `shmem_barrier_all` latency at 8/16/32/64 PEs on a ring under both
//!   the paper's two-sweep algorithm and the dissemination algorithm,
//!   and on a balanced 2-D torus (dissemination); a 16-PE clique cell
//!   anchors the switch-like upper bound,
//! * `broadcast` and `allreduce` latency on the same dissemination cells,
//! * three regression gates: the 64-PE torus dissemination barrier must
//!   stay within [`TORUS_64V8_MAX_RATIO`]× of its 8-PE latency; at 16
//!   PEs the dissemination barrier on the densest cabling the adapter
//!   budget allows (the clique) must strictly beat the paper's two-sweep
//!   ring barrier; and, whenever collectives are measured, the 64-PE
//!   torus allreduce must cost at most [`TORUS_64_ALLREDUCE_MAX_BARRIERS`]
//!   barriers.
//!
//! The torus gate is the scaling claim: dissemination rounds cost the
//! hop distance of the round's partner, and on a torus the per-round hop
//! sum grows like the torus diameter (14 network hops at 8×8 vs 4 at
//! 2×4) instead of linearly in the PE count the way a ring's does. The
//! 16-PE gate is the re-cabling claim: on the ring itself the two-sweep
//! is already near-optimal (2(N−1) cheap scratchpad hops, and any
//! message-based scheme must still push flags through the same chain of
//! service threads hop by hop), so growing past the paper's testbed
//! means changing the shape, not just the algorithm.
//!
//! ## Measurement method: amplified model, normalized samples
//!
//! A 64-PE world runs ~9 threads per host; on a small machine the
//! scheduler serializes their wait tails, so raw wall clock measures CPU
//! contention (which grows with the PE count) instead of the modelled
//! network time. Every scale world therefore (a) switches the model to
//! coarse sleeping waits so concurrent delays overlap, and (b) runs with
//! the modelled latencies multiplied by a per-cell amplification, sized
//! from the cell's own critical-path hop count (via [`TopoGraph`]) so
//! the modelled critical path dominates scheduler noise without making
//! cheap cells needlessly slow. Each sample is divided by the cell's
//! amplification before reporting, so the tables and gates read in
//! paper-equivalent microseconds.

use std::time::{Duration, Instant};

use ntb_net::TopoGraph;
use ntb_sim::TimeModel;
use shmem_core::{BarrierAlgorithm, ReduceOp, ShmemConfig, ShmemWorld, Topology};

/// The 64-PE torus dissemination barrier may cost at most this multiple
/// of the 8-PE torus barrier.
pub const TORUS_64V8_MAX_RATIO: f64 = 4.0;

/// The 64-PE torus allreduce may cost at most this multiple of the
/// barrier on the same cell.
pub const TORUS_64_ALLREDUCE_MAX_BARRIERS: f64 = 3.0;

/// Parameters of the scale run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Timing model (the committed run uses the paper-calibrated model).
    pub model: TimeModel,
    /// PE counts to sweep. The gates need 8, 16 and 64 present.
    pub pe_counts: Vec<usize>,
    /// Timed samples per collective per cell (after one warm-up).
    pub reps: usize,
    /// `u64` elements broadcast per broadcast sample.
    pub broadcast_elems: usize,
    /// Fixed modelled-latency multiplier; `None` (the default) sizes it
    /// per cell from the critical-path hop count. See the module docs.
    pub amplification: Option<f64>,
    /// Also measure broadcast/allreduce on dissemination cells (and so
    /// gate the 64-PE torus allreduce). The barrier gates need only
    /// barriers; the in-tree gate test turns this off.
    pub measure_collectives: bool,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            model: TimeModel::paper(),
            pe_counts: vec![8, 16, 32, 64],
            reps: 8,
            broadcast_elems: 64,
            amplification: None,
            measure_collectives: true,
        }
    }
}

/// Modelled critical-path cost estimate of one barrier on a cell, used
/// only to size the cell's amplification. Both barrier families pay one
/// doorbell + interrupt-service wakeup per hop on the critical path
/// (~155 µs paper); dissemination flags ride the slot-ring frame lane,
/// the two-sweep rides the scratchpad registers, but the ISR dominates
/// either way.
fn barrier_cp_estimate(topology: &Topology, pes: usize, algorithm: BarrierAlgorithm) -> Duration {
    let per_hop = Duration::from_micros(155);
    match algorithm {
        BarrierAlgorithm::RingSweep => per_hop * (2 * (pes - 1)) as u32,
        BarrierAlgorithm::Dissemination => {
            let graph = TopoGraph::new(topology.shape(), pes);
            let mut hops = 0usize;
            let mut dist = 1;
            while dist < pes {
                hops += graph.hops(0, dist);
                dist <<= 1;
            }
            per_hop * hops.max(1) as u32
        }
    }
}

/// Wall-clock target for one amplified collective sample. The scheduler
/// floor under a sample is a per-wakeup cost: it grows roughly linearly
/// with the world's thread count (~9 threads per host). Scaling the
/// target with the host count keeps the floor's *share* of every cell's
/// samples flat (a few percent), so the 64-vs-8 gate ratio compares
/// modelled time against modelled time instead of floors.
fn target_wall_secs(hosts: usize) -> f64 {
    0.350 * (hosts as f64 / 8.0).max(1.0)
}

/// Amplification sizing: lift the modelled critical path `cp` to the
/// host-scaled wall target so it dominates the scheduler floor.
fn auto_amplification(cfg: &ScaleConfig, cp: Duration, hosts: usize) -> f64 {
    let cp = cp.as_secs_f64() * cfg.model.scale.max(1e-6);
    // The wall target self-bounds the per-sample time, so the upper
    // clamp only guards against a wildly underestimated path.
    (target_wall_secs(hosts) / cp).clamp(8.0, 4000.0)
}

/// Most-balanced `rows x cols` torus factorization of `pes`
/// (rows ≤ cols, rows as close to √pes as the divisors allow).
pub fn torus_dims(pes: usize) -> (usize, usize) {
    let mut rows = 1;
    let mut r = 1;
    while r * r <= pes {
        if pes.is_multiple_of(r) {
            rows = r;
        }
        r += 1;
    }
    (rows, pes / rows)
}

/// One (PE count, shape, barrier algorithm) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Number of PEs in the world.
    pub pes: usize,
    /// Shape family: `ring`, `torus` or `clique`.
    pub shape: String,
    /// Concrete topology label (e.g. `torus4x8`).
    pub label: String,
    /// Barrier algorithm: `ring-sweep` or `dissemination`.
    pub algorithm: String,
    /// Median `shmem_barrier_all` latency in microseconds.
    pub barrier_p50_us: f64,
    /// Mean `shmem_barrier_all` latency in microseconds.
    pub barrier_mean_us: f64,
    /// Median `broadcast` latency in microseconds (dissemination cells
    /// only).
    pub broadcast_p50_us: Option<f64>,
    /// Median `allreduce` latency in microseconds (dissemination cells
    /// only).
    pub reduce_p50_us: Option<f64>,
}

/// Gate inputs and verdicts derived from the swept points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleGates {
    /// 8-PE torus dissemination barrier p50 (µs).
    pub torus_8_us: Option<f64>,
    /// 64-PE torus dissemination barrier p50 (µs).
    pub torus_64_us: Option<f64>,
    /// 64-PE torus allreduce p50 (µs), if collectives were measured.
    pub torus_64_reduce_us: Option<f64>,
    /// 16-PE ring two-sweep barrier p50 (µs).
    pub ring_sweep_16_us: Option<f64>,
    /// 16-PE clique dissemination barrier p50 (µs).
    pub clique_16_us: Option<f64>,
}

/// Result of a full scale sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleResult {
    /// All swept cells, in sweep order.
    pub points: Vec<ScalePoint>,
    /// Gate inputs extracted from `points`.
    pub gates: ScaleGates,
}

fn p50_us(samples: &[Duration]) -> f64 {
    assert!(!samples.is_empty(), "cannot summarize zero samples");
    let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    us[(us.len() - 1) / 2]
}

fn mean_us(samples: &[Duration]) -> f64 {
    samples.iter().map(|d| d.as_secs_f64() * 1e6).sum::<f64>() / samples.len() as f64
}

fn world_cfg(
    cfg: &ScaleConfig,
    hosts: usize,
    topology: Topology,
    algorithm: BarrierAlgorithm,
    amplification: f64,
) -> ShmemConfig {
    let mut model = cfg.model.clone();
    model.scale *= amplification;
    // Uniform wait strategy across the whole series (the network would
    // only auto-switch worlds beyond 8 hosts).
    model.coarse_waits = true;
    // The amplified model stretches every end-to-end latency by the total
    // scale factor; the default retry policy copes, because each PE's
    // retransmission timers learn the amplified round trips from the acks.
    let mut cfg = ShmemConfig::fast_sim()
        .with_hosts(hosts)
        .with_model(model)
        .with_topology(topology)
        .with_barrier_algorithm(algorithm)
        // Static all-live membership on every cell. The detector's beats
        // share the service threads, whose amplified sleeps would delay
        // them into false evictions mid-measurement — and beyond 32
        // hosts the one-word membership bitmap cannot represent the
        // world at all.
        .with_heartbeat(shmem_core::HeartbeatConfig::disabled());
    cfg.barrier_timeout = Duration::from_secs(600);
    cfg.wait_timeout = Duration::from_secs(600);
    cfg
}

fn algorithm_label(algorithm: BarrierAlgorithm) -> &'static str {
    match algorithm {
        BarrierAlgorithm::RingSweep => "ring-sweep",
        BarrierAlgorithm::Dissemination => "dissemination",
    }
}

/// Time one (PE count, topology, algorithm) cell. Every PE times the
/// same collectives; PE 0's view is summarized. Broadcast and allreduce
/// are only measured on dissemination cells — the two-sweep cells exist
/// for the barrier-algorithm comparison. Barriers and the other
/// collectives run in separate worlds: a broadcast walks several times
/// more hops than a barrier, so each phase gets its own amplification
/// sized to the same wall target (one amp for both would overshoot the
/// collective samples' wall time several-fold, or starve the barrier
/// samples of amplification).
fn run_cell(
    cfg: &ScaleConfig,
    pes: usize,
    topology: Topology,
    shape: &str,
    algorithm: BarrierAlgorithm,
) -> ScalePoint {
    let reps = cfg.reps;
    let elems = cfg.broadcast_elems;
    let collectives = cfg.measure_collectives && algorithm == BarrierAlgorithm::Dissemination;
    let label = topology.label();
    let barrier_cp = barrier_cp_estimate(&topology, pes, algorithm);
    let amp_b = cfg.amplification.unwrap_or_else(|| auto_amplification(cfg, barrier_cp, pes));
    let results = ShmemWorld::run(world_cfg(cfg, pes, topology, algorithm, amp_b), move |ctx| {
        ctx.barrier_all().expect("warm-up barrier");
        let mut barrier = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            ctx.barrier_all().expect("timed barrier");
            barrier.push(t0.elapsed());
        }
        barrier
    })
    .expect("scale world");
    let barrier = &results[0];
    let (mut bcast_p50, mut reduce_p50) = (None, None);
    if collectives {
        // A broadcast is two barriers around the root's fan-out; ~4x the
        // barrier's hop budget is close enough to size the amplification
        // (the estimate only steers the floor share, not the reported
        // numbers).
        let amp_c =
            cfg.amplification.unwrap_or_else(|| auto_amplification(cfg, barrier_cp * 4, pes));
        let coll_results =
            ShmemWorld::run(world_cfg(cfg, pes, topology, algorithm, amp_c), move |ctx| {
                ctx.barrier_all().expect("collective-world warm-up barrier");
                let sym = ctx.calloc_array::<u64>(elems).expect("broadcast buffer");
                ctx.broadcast(&sym, 0, elems, 0).expect("warm-up broadcast");
                let mut bcast = Vec::with_capacity(reps);
                for _ in 0..reps {
                    let t0 = Instant::now();
                    ctx.broadcast(&sym, 0, elems, 0).expect("timed broadcast");
                    bcast.push(t0.elapsed());
                }
                ctx.free_array(sym).expect("free broadcast buffer");
                let src: Vec<u64> = vec![ctx.my_pe() as u64; 8];
                ctx.allreduce(ReduceOp::Sum, &src).expect("warm-up reduce");
                let mut reduce = Vec::with_capacity(reps);
                for _ in 0..reps {
                    let t0 = Instant::now();
                    ctx.allreduce(ReduceOp::Sum, &src).expect("timed reduce");
                    reduce.push(t0.elapsed());
                }
                (bcast, reduce)
            })
            .expect("scale collective world");
        let (bcast, reduce) = &coll_results[0];
        bcast_p50 = Some(p50_us(bcast) / amp_c);
        reduce_p50 = Some(p50_us(reduce) / amp_c);
    }
    ScalePoint {
        pes,
        shape: shape.to_string(),
        label,
        algorithm: algorithm_label(algorithm).to_string(),
        barrier_p50_us: p50_us(barrier) / amp_b,
        barrier_mean_us: mean_us(barrier) / amp_b,
        broadcast_p50_us: bcast_p50,
        reduce_p50_us: reduce_p50,
    }
}

impl ScaleGates {
    fn from_points(points: &[ScalePoint]) -> ScaleGates {
        let find = |shape: &str, algorithm: &str, pes: usize| {
            points.iter().find(|p| p.shape == shape && p.algorithm == algorithm && p.pes == pes)
        };
        let barrier = |shape, algorithm, pes| find(shape, algorithm, pes).map(|p| p.barrier_p50_us);
        ScaleGates {
            torus_8_us: barrier("torus", "dissemination", 8),
            torus_64_us: barrier("torus", "dissemination", 64),
            torus_64_reduce_us: find("torus", "dissemination", 64).and_then(|p| p.reduce_p50_us),
            ring_sweep_16_us: barrier("ring", "ring-sweep", 16),
            clique_16_us: barrier("clique", "dissemination", 16),
        }
    }

    /// 64-vs-8 PE torus dissemination barrier ratio, if both cells ran.
    pub fn torus_64v8_ratio(&self) -> Option<f64> {
        match (self.torus_8_us, self.torus_64_us) {
            (Some(a), Some(b)) if a > 0.0 => Some(b / a),
            _ => None,
        }
    }

    /// 64-PE torus allreduce-to-barrier ratio, if collectives were
    /// measured on that cell.
    pub fn torus_64_allreduce_vs_barrier(&self) -> Option<f64> {
        match (self.torus_64_us, self.torus_64_reduce_us) {
            (Some(b), Some(r)) if b > 0.0 => Some(r / b),
            _ => None,
        }
    }
}

/// Run the full scale sweep.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleResult {
    let mut points = Vec::new();
    for &pes in &cfg.pe_counts {
        points.push(run_cell(cfg, pes, Topology::ring(pes), "ring", BarrierAlgorithm::RingSweep));
        points.push(run_cell(
            cfg,
            pes,
            Topology::ring(pes),
            "ring",
            BarrierAlgorithm::Dissemination,
        ));
        let (rows, cols) = torus_dims(pes);
        points.push(run_cell(
            cfg,
            pes,
            Topology::torus(rows, cols),
            "torus",
            BarrierAlgorithm::Dissemination,
        ));
        if pes <= 16 {
            points.push(run_cell(
                cfg,
                pes,
                Topology::clique(pes),
                "clique",
                BarrierAlgorithm::Dissemination,
            ));
        }
    }
    let gates = ScaleGates::from_points(&points);
    ScaleResult { points, gates }
}

impl ScaleResult {
    /// Check the regression gates; `Err` describes the first failure.
    pub fn check_gates(&self) -> Result<(), String> {
        let ratio = self
            .gates
            .torus_64v8_ratio()
            .ok_or("gate cells missing: torus dissemination barrier at 8 and 64 PEs")?;
        if ratio > TORUS_64V8_MAX_RATIO {
            return Err(format!(
                "torus dissemination barrier scaled {ratio:.2}x from 8 to 64 PEs \
                 (max {TORUS_64V8_MAX_RATIO:.1}x): {:.1} µs -> {:.1} µs",
                self.gates.torus_8_us.unwrap_or(f64::NAN),
                self.gates.torus_64_us.unwrap_or(f64::NAN),
            ));
        }
        let (sweep, diss) = match (self.gates.ring_sweep_16_us, self.gates.clique_16_us) {
            (Some(s), Some(d)) => (s, d),
            _ => {
                return Err(
                    "gate cells missing: 16-PE ring two-sweep and clique dissemination".into()
                )
            }
        };
        if diss >= sweep {
            return Err(format!(
                "dissemination barrier ({diss:.1} µs on the 16-PE clique) did not beat \
                 the two-sweep ring barrier ({sweep:.1} µs) at 16 PEs"
            ));
        }
        if let Some(ratio) = self.gates.torus_64_allreduce_vs_barrier() {
            if ratio > TORUS_64_ALLREDUCE_MAX_BARRIERS {
                return Err(format!(
                    "64-PE torus allreduce cost {ratio:.2}x its barrier \
                     (max {TORUS_64_ALLREDUCE_MAX_BARRIERS:.1}x)"
                ));
            }
        }
        Ok(())
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::from("scale: collective latency vs PE count (p50 µs)\n");
        out.push_str(&format!(
            "  {:>4} {:<10} {:<14} {:>12} {:>12} {:>12}\n",
            "pes", "shape", "algorithm", "barrier", "broadcast", "reduce"
        ));
        let opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.1}"),
            None => "-".to_string(),
        };
        for p in &self.points {
            out.push_str(&format!(
                "  {:>4} {:<10} {:<14} {:>12.1} {:>12} {:>12}\n",
                p.pes,
                p.label,
                p.algorithm,
                p.barrier_p50_us,
                opt(p.broadcast_p50_us),
                opt(p.reduce_p50_us),
            ));
        }
        out.push_str("gates:\n");
        if let Some(ratio) = self.gates.torus_64v8_ratio() {
            out.push_str(&format!(
                "  torus dissemination barrier 64 vs 8 PEs: {ratio:.2}x (max {TORUS_64V8_MAX_RATIO:.1}x)\n"
            ));
        }
        if let (Some(s), Some(d)) = (self.gates.ring_sweep_16_us, self.gates.clique_16_us) {
            out.push_str(&format!(
                "  16-PE barrier: clique dissemination {d:.1} µs vs ring two-sweep {s:.1} µs\n"
            ));
        }
        if let Some(ratio) = self.gates.torus_64_allreduce_vs_barrier() {
            out.push_str(&format!(
                "  64-PE torus allreduce vs barrier: {ratio:.2}x (max {TORUS_64_ALLREDUCE_MAX_BARRIERS:.1}x)\n"
            ));
        }
        out
    }

    /// JSON document written to `BENCH_scale.json`.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.3}"),
            None => "null".to_string(),
        };
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "    {{\"pes\": {}, \"shape\": \"{}\", \"label\": \"{}\", \
                     \"algorithm\": \"{}\", \"barrier_p50_us\": {:.3}, \
                     \"barrier_mean_us\": {:.3}, \"broadcast_p50_us\": {}, \
                     \"reduce_p50_us\": {}}}",
                    p.pes,
                    p.shape,
                    p.label,
                    p.algorithm,
                    p.barrier_p50_us,
                    p.barrier_mean_us,
                    opt(p.broadcast_p50_us),
                    opt(p.reduce_p50_us),
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"scale\",\n  \"points\": [\n{}\n  ],\n  \"gates\": {{\n    \
             \"torus_dissemination_p50_us_8\": {},\n    \
             \"torus_dissemination_p50_us_64\": {},\n    \
             \"torus_64_vs_8_ratio\": {},\n    \
             \"torus_64_vs_8_max_ratio\": {TORUS_64V8_MAX_RATIO:.1},\n    \
             \"ring_sweep_p50_us_16\": {},\n    \
             \"clique_dissemination_p50_us_16\": {},\n    \
             \"torus_64_allreduce_vs_barrier\": {},\n    \
             \"torus_64_allreduce_vs_barrier_max\": {TORUS_64_ALLREDUCE_MAX_BARRIERS:.1},\n    \
             \"gates_pass\": {}\n  }}\n}}\n",
            points.join(",\n"),
            opt(self.gates.torus_8_us),
            opt(self.gates.torus_64_us),
            opt(self.gates.torus_64v8_ratio()),
            opt(self.gates.ring_sweep_16_us),
            opt(self.gates.clique_16_us),
            opt(self.gates.torus_64_allreduce_vs_barrier()),
            self.check_gates().is_ok(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(scale: f64) -> ScaleConfig {
        ScaleConfig {
            model: TimeModel::scaled(scale),
            pe_counts: vec![],
            reps: 4,
            broadcast_elems: 16,
            amplification: Some(1.0),
            measure_collectives: true,
        }
    }

    #[test]
    fn torus_dims_stay_balanced() {
        assert_eq!(torus_dims(8), (2, 4));
        assert_eq!(torus_dims(16), (4, 4));
        assert_eq!(torus_dims(32), (4, 8));
        assert_eq!(torus_dims(64), (8, 8));
        assert_eq!(torus_dims(12), (3, 4));
    }

    #[test]
    fn scale_cell_16() {
        let _guard = crate::timing_test_guard();
        let cfg = quick_cfg(0.002);
        let torus =
            run_cell(&cfg, 16, Topology::torus(4, 4), "torus", BarrierAlgorithm::Dissemination);
        assert_eq!(torus.label, "torus4x4");
        assert!(torus.barrier_p50_us > 0.0);
        assert!(torus.broadcast_p50_us.expect("dissemination cell measures broadcast") > 0.0);
        assert!(torus.reduce_p50_us.expect("dissemination cell measures reduce") > 0.0);
        let clique =
            run_cell(&cfg, 16, Topology::clique(16), "clique", BarrierAlgorithm::Dissemination);
        assert!(clique.barrier_p50_us > 0.0);
    }

    #[test]
    fn scale_cell_32() {
        let _guard = crate::timing_test_guard();
        let cfg = quick_cfg(0.002);
        let sweep = run_cell(&cfg, 32, Topology::ring(32), "ring", BarrierAlgorithm::RingSweep);
        assert!(sweep.broadcast_p50_us.is_none(), "two-sweep cells are barrier-only");
        let torus =
            run_cell(&cfg, 32, Topology::torus(4, 8), "torus", BarrierAlgorithm::Dissemination);
        assert!(torus.barrier_p50_us > 0.0);
        assert!(torus.reduce_p50_us.is_some());
    }

    #[test]
    fn scale_cell_64() {
        let _guard = crate::timing_test_guard();
        let cfg = quick_cfg(0.002);
        let torus =
            run_cell(&cfg, 64, Topology::torus(8, 8), "torus", BarrierAlgorithm::Dissemination);
        assert_eq!(torus.label, "torus8x8");
        assert!(torus.barrier_p50_us > 0.0);
        assert!(torus.broadcast_p50_us.is_some());
        let ring = run_cell(&cfg, 64, Topology::ring(64), "ring", BarrierAlgorithm::Dissemination);
        assert!(ring.barrier_p50_us > 0.0);
    }

    #[test]
    fn scale_gates_hold() {
        let _guard = crate::timing_test_guard();
        crate::assert_shape_with_retries(3, || {
            let cfg = ScaleConfig {
                model: TimeModel::scaled(0.1),
                pe_counts: vec![8, 16, 64],
                reps: 6,
                broadcast_elems: 16,
                amplification: None,
                measure_collectives: false,
            };
            run_scale(&cfg).check_gates()
        });
    }

    #[test]
    #[ignore = "diagnostic: prints the modelled-vs-floor split at several amplifications"]
    fn amp_probe() {
        let _guard = crate::timing_test_guard();
        for amp in [50.0, 150.0, 400.0] {
            let cfg = ScaleConfig {
                model: TimeModel::paper(),
                pe_counts: vec![],
                reps: 4,
                broadcast_elems: 16,
                amplification: Some(amp),
                measure_collectives: false,
            };
            let p8 =
                run_cell(&cfg, 8, Topology::torus(2, 4), "torus", BarrierAlgorithm::Dissemination);
            let p64 =
                run_cell(&cfg, 64, Topology::torus(8, 8), "torus", BarrierAlgorithm::Dissemination);
            println!(
                "amp {amp}: torus8 {:.0} us, torus64 {:.0} us, ratio {:.2}",
                p8.barrier_p50_us,
                p64.barrier_p50_us,
                p64.barrier_p50_us / p8.barrier_p50_us
            );
        }
    }

    #[test]
    fn json_has_gate_keys() {
        let r = ScaleResult {
            points: vec![ScalePoint {
                pes: 8,
                shape: "torus".into(),
                label: "torus2x4".into(),
                algorithm: "dissemination".into(),
                barrier_p50_us: 10.0,
                barrier_mean_us: 11.0,
                broadcast_p50_us: Some(12.0),
                reduce_p50_us: None,
            }],
            gates: ScaleGates {
                torus_8_us: Some(10.0),
                torus_64_us: Some(30.0),
                torus_64_reduce_us: Some(60.0),
                ring_sweep_16_us: Some(100.0),
                clique_16_us: Some(20.0),
            },
        };
        let json = r.to_json();
        assert!(json.contains("\"torus_64_vs_8_ratio\": 3.000"));
        assert!(json.contains("\"torus_64_allreduce_vs_barrier\": 2.000"));
        assert!(json.contains("\"torus_64_allreduce_vs_barrier_max\": 3.0"));
        assert!(json.contains("\"clique_dissemination_p50_us_16\": 20.000"));
        assert!(json.contains("\"torus_64_vs_8_max_ratio\": 4.0"));
        assert!(json.contains("\"gates_pass\": true"));
        assert!(json.contains("\"reduce_p50_us\": null"));
        assert!(r.check_gates().is_ok());
    }

    #[test]
    fn gate_failures_are_described() {
        let mut gates = ScaleGates {
            torus_8_us: Some(10.0),
            torus_64_us: Some(50.0),
            torus_64_reduce_us: None,
            ring_sweep_16_us: Some(100.0),
            clique_16_us: Some(20.0),
        };
        let fail = ScaleResult { points: vec![], gates };
        let err = fail.check_gates().expect_err("5x ratio must fail");
        assert!(err.contains("5.00x"), "unexpected message: {err}");
        gates.torus_64_us = Some(30.0);
        gates.clique_16_us = Some(200.0);
        let fail = ScaleResult { points: vec![], gates };
        let err = fail.check_gates().expect_err("slower dissemination must fail");
        assert!(err.contains("did not beat"), "unexpected message: {err}");
        gates.clique_16_us = Some(20.0);
        gates.torus_64_reduce_us = Some(100.0);
        let fail = ScaleResult { points: vec![], gates };
        let err = fail.check_gates().expect_err("a 3.33x allreduce must fail");
        assert!(err.contains("3.33x its barrier"), "unexpected message: {err}");
    }
}
