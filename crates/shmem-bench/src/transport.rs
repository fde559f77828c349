//! Transport hot-path benchmark: the slot ring with batched, coalesced
//! doorbells vs the same ring ringing one doorbell per message.
//!
//! This is the beyond-paper measurement that tracks the redesigned
//! transport across PRs. It emits `BENCH_transport.json` with:
//!
//! * p50/p99/mean blocking Put and Get latency at a small payload,
//! * small-message (≤ 1 KiB) Put throughput with doorbell coalescing
//!   **on** (deferred doorbells, one per batch, flushed by `quiet`)
//!   versus **off** (a batch cap of one: every put publishes and rings
//!   its own doorbell), with the improvement percentage and the
//!   doorbells the sender rang per message on each side,
//! * a Get curve across sizes spanning the aperture PIO fast path, the
//!   single-sub-request protocol path and the pipelined multi-chunk
//!   window, each point paired with a Put at the same size (the
//!   get-vs-put ratio series) and with a window=1 stop-and-wait run
//!   (the pipelining speedup),
//! * `shmem_barrier_all` latency at 2, 3 and 5 PEs.
//!
//! The coalesced path issues `OpOptions::new().coalesce(true)` puts so
//! doorbells are deferred until the batch cap or `quiet()`; the
//! per-message path runs in a world built with `with_tx_ring(64, 1)` and
//! blocking puts, so every put pays its own publish → doorbell →
//! interrupt.

use std::time::{Duration, Instant};

use ntb_sim::TimeModel;
use shmem_core::{OpOptions, ShmemConfig, ShmemWorld};

use crate::stats::mb_per_sec;

/// Parameters of the transport run.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Timing model (the committed run uses the paper-calibrated model).
    pub model: TimeModel,
    /// Payload for the per-op latency sections.
    pub latency_size: u64,
    /// Timed per-op latency samples (after one warm-up op).
    pub latency_reps: usize,
    /// Small-message sizes for the throughput comparison (all ≤ 1 KiB).
    pub small_sizes: Vec<u64>,
    /// Sizes for the Get curve (should straddle the PIO crossover and
    /// the pipeline chunk so all three get paths are exercised).
    pub get_sizes: Vec<u64>,
    /// Timed samples per Get-curve point (after one warm-up op).
    pub get_reps: usize,
    /// Messages per timed burst (exceeds the tx ring so slots wrap).
    pub burst: usize,
    /// Timed bursts per size.
    pub bursts: usize,
    /// Timed barriers per PE count.
    pub barrier_reps: usize,
    /// PE counts for the barrier section.
    pub barrier_pes: Vec<usize>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            model: TimeModel::paper(),
            latency_size: 512,
            latency_reps: 64,
            small_sizes: vec![64, 256, 1024],
            get_sizes: vec![512, 4 << 10, 64 << 10, 1 << 20],
            get_reps: 16,
            burst: 64,
            bursts: 4,
            barrier_reps: 16,
            barrier_pes: vec![2, 3, 5],
        }
    }
}

/// Percentile summary of one latency section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Payload size in bytes.
    pub size: u64,
    /// Number of timed samples.
    pub n: usize,
    /// Median in microseconds.
    pub p50_us: f64,
    /// 99th percentile in microseconds.
    pub p99_us: f64,
    /// Arithmetic mean in microseconds.
    pub mean_us: f64,
}

impl LatencyStats {
    fn from_samples(size: u64, samples: &[Duration]) -> LatencyStats {
        assert!(!samples.is_empty(), "cannot summarize zero samples");
        let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
        us.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let pct = |p: f64| us[((us.len() as f64 - 1.0) * p).round() as usize];
        LatencyStats {
            size,
            n: us.len(),
            p50_us: pct(0.5),
            p99_us: pct(0.99),
            mean_us: us.iter().sum::<f64>() / us.len() as f64,
        }
    }
}

/// Coalescing-on vs coalescing-off throughput at one message size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Message size in bytes.
    pub size: u64,
    /// Total timed messages per side.
    pub messages: usize,
    /// Messages per second with doorbell coalescing on.
    pub on_msgs_per_sec: f64,
    /// Messages per second with one doorbell per message.
    pub off_msgs_per_sec: f64,
    /// MB/s (decimal) with coalescing on.
    pub on_mb_per_sec: f64,
    /// MB/s (decimal) with coalescing off.
    pub off_mb_per_sec: f64,
    /// Relative improvement of on over off, in percent.
    pub improvement_pct: f64,
    /// Doorbells the sender rang per message with coalescing on.
    pub on_doorbells_per_msg: f64,
    /// Doorbells the sender rang per message with coalescing off.
    pub off_doorbells_per_msg: f64,
}

/// One size on the Get curve: pipelined get vs a put of the same size
/// and vs the window=1 stop-and-wait oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GetCurvePoint {
    /// Payload size in bytes.
    pub size: u64,
    /// Timed samples per series.
    pub n: usize,
    /// Median pipelined (default window) Get latency in microseconds.
    pub get_p50_us: f64,
    /// Mean pipelined Get latency in microseconds.
    pub get_mean_us: f64,
    /// Pipelined Get goodput, MB/s (decimal).
    pub get_mb_per_sec: f64,
    /// Median blocking Put latency at the same size, in microseconds.
    pub put_p50_us: f64,
    /// `get_p50_us / put_p50_us` — the cliff this series tracks.
    pub get_vs_put_ratio: f64,
    /// Median Get latency with the window forced to 1 (stop-and-wait).
    pub stop_wait_p50_us: f64,
    /// Relative win of the pipelined window over stop-and-wait, percent
    /// (≈ 0 below the chunk size where there is only one sub-request).
    pub pipeline_speedup_pct: f64,
}

/// Barrier latency at one PE count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarrierPoint {
    /// Number of PEs in the ring.
    pub pes: usize,
    /// Median barrier latency in microseconds.
    pub p50_us: f64,
    /// Mean barrier latency in microseconds.
    pub mean_us: f64,
}

/// Everything the transport run measured.
#[derive(Debug, Clone)]
pub struct TransportResult {
    /// The time-model scale the run used.
    pub scale: f64,
    /// Blocking Put latency (coalescing on, per-op flush).
    pub put: LatencyStats,
    /// Blocking Get latency (full round trip).
    pub get: LatencyStats,
    /// Small-message throughput, one point per size.
    pub throughput: Vec<ThroughputPoint>,
    /// Get curve: pipelined vs put and vs stop-and-wait, per size.
    pub get_curve: Vec<GetCurvePoint>,
    /// Barrier latency, one point per PE count.
    pub barriers: Vec<BarrierPoint>,
}

fn world_cfg(model: &TimeModel, hosts: usize, coalesce: bool) -> ShmemConfig {
    let mut cfg = ShmemConfig::fast_sim().with_hosts(hosts).with_model(model.clone());
    if !coalesce {
        let slots = cfg.net.tx_slots;
        cfg = cfg.with_tx_ring(slots, 1);
    }
    cfg.barrier_timeout = Duration::from_secs(600);
    cfg
}

/// Per-op blocking Put and Get latency on a 2-PE ring (coalescing on —
/// a blocking put still flushes its batch before returning).
fn run_latency(cfg: &TransportConfig) -> (LatencyStats, LatencyStats) {
    let size = cfg.latency_size;
    let reps = cfg.latency_reps;
    let results = ShmemWorld::run(world_cfg(&cfg.model, 2, true), move |ctx| {
        let sym = ctx.malloc_array::<u8>(size as usize).expect("alloc");
        ctx.barrier_all().expect("barrier");
        if ctx.my_pe() != 0 {
            ctx.barrier_all().expect("barrier");
            return None;
        }
        let data = vec![0x5Au8; size as usize];
        let opts = OpOptions::new();
        ctx.put_slice_opts(&sym, 0, &data, 1, opts).expect("warm-up put");
        ctx.quiet().expect("quiet");
        let mut put_samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            ctx.put_slice_opts(&sym, 0, &data, 1, opts).expect("timed put");
            put_samples.push(t0.elapsed());
        }
        ctx.quiet().expect("quiet");
        let _ = ctx.get_slice_opts::<u8>(&sym, 0, size as usize, 1, opts).expect("warm-up get");
        let mut get_samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            let v = ctx.get_slice_opts::<u8>(&sym, 0, size as usize, 1, opts).expect("timed get");
            get_samples.push(t0.elapsed());
            assert_eq!(v.len(), size as usize);
        }
        ctx.barrier_all().expect("barrier");
        Some((put_samples, get_samples))
    })
    .expect("latency world");
    let (put_samples, get_samples) = results.into_iter().flatten().next().expect("PE 0 measured");
    (LatencyStats::from_samples(size, &put_samples), LatencyStats::from_samples(size, &get_samples))
}

/// Total wall time and doorbells rung by the sender per size for
/// `bursts × burst` puts on a 2-PE ring. With `coalesce` on, puts defer
/// their doorbells (flushed at the batch cap and by `quiet`); off, each
/// put rings its own doorbell.
fn run_bursts(cfg: &TransportConfig, coalesce: bool) -> Vec<(u64, Duration, u64)> {
    let sizes = cfg.small_sizes.clone();
    let (burst, bursts) = (cfg.burst, cfg.bursts);
    let max_size = *sizes.iter().max().expect("at least one size") as usize;
    let results = ShmemWorld::run(world_cfg(&cfg.model, 2, coalesce), move |ctx| {
        let sym = ctx.malloc_array::<u8>(max_size).expect("alloc");
        let opts = if coalesce { OpOptions::new().coalesce(true) } else { OpOptions::new() };
        let mut timings = Vec::with_capacity(sizes.len());
        for &size in &sizes {
            ctx.barrier_all().expect("barrier");
            if ctx.my_pe() != 0 {
                continue;
            }
            let data = vec![0xA5u8; size as usize];
            // Warm-up primes the ring for this size.
            ctx.put_slice_opts(&sym, 0, &data, 1, opts).expect("warm-up put");
            ctx.quiet().expect("quiet");
            let node = ctx.node();
            let rung = || (0..node.num_links()).map(|i| node.port_stats_at(i).doorbells_rung);
            let rung_before: u64 = rung().sum();
            let t0 = Instant::now();
            for _ in 0..bursts {
                for _ in 0..burst {
                    ctx.put_slice_opts(&sym, 0, &data, 1, opts).expect("burst put");
                }
                ctx.quiet().expect("quiet");
            }
            let elapsed = t0.elapsed();
            timings.push((size, elapsed, rung().sum::<u64>() - rung_before));
        }
        ctx.barrier_all().expect("barrier");
        timings
    })
    .expect("burst world");
    results.into_iter().find(|t| !t.is_empty()).expect("PE 0 measured")
}

/// Get curve on a 2-PE ring: per size, time puts, pipelined gets at the
/// configured window, and gets with the window forced to 1 so the
/// stop-and-wait oracle and the ratio series come from the same world.
fn run_get_curve(cfg: &TransportConfig) -> Vec<GetCurvePoint> {
    let sizes = cfg.get_sizes.clone();
    let reps = cfg.get_reps.max(1);
    let max_size = *sizes.iter().max().expect("at least one get size") as usize;
    let results = ShmemWorld::run(world_cfg(&cfg.model, 2, true), move |ctx| {
        let sym = ctx.malloc_array::<u8>(max_size).expect("alloc");
        let mut points = Vec::with_capacity(sizes.len());
        for &size in &sizes {
            ctx.barrier_all().expect("barrier");
            if ctx.my_pe() != 0 {
                continue;
            }
            let n = size as usize;
            let data = vec![0xC3u8; n];
            let opts = OpOptions::new();
            let time_series = |op: &mut dyn FnMut()| {
                let mut samples = Vec::with_capacity(reps);
                op(); // warm-up
                for _ in 0..reps {
                    let t0 = Instant::now();
                    op();
                    samples.push(t0.elapsed());
                }
                samples
            };
            let puts = time_series(&mut || {
                ctx.put_slice_opts(&sym, 0, &data, 1, opts).expect("curve put");
                ctx.quiet().expect("quiet");
            });
            let gets = time_series(&mut || {
                let v = ctx.get_slice_opts::<u8>(&sym, 0, n, 1, opts).expect("curve get");
                assert_eq!(v.len(), n);
            });
            let sw_opts = OpOptions::new().get_window(1);
            let stop_wait = time_series(&mut || {
                let v = ctx.get_slice_opts::<u8>(&sym, 0, n, 1, sw_opts).expect("stop-wait get");
                assert_eq!(v.len(), n);
            });
            let put = LatencyStats::from_samples(size, &puts);
            let get = LatencyStats::from_samples(size, &gets);
            let sw = LatencyStats::from_samples(size, &stop_wait);
            points.push(GetCurvePoint {
                size,
                n: reps,
                get_p50_us: get.p50_us,
                get_mean_us: get.mean_us,
                get_mb_per_sec: mb_per_sec(size, Duration::from_secs_f64(get.p50_us / 1e6)),
                put_p50_us: put.p50_us,
                get_vs_put_ratio: get.p50_us / put.p50_us,
                stop_wait_p50_us: sw.p50_us,
                pipeline_speedup_pct: (sw.p50_us / get.p50_us - 1.0) * 100.0,
            });
        }
        ctx.barrier_all().expect("barrier");
        points
    })
    .expect("get curve world");
    results.into_iter().find(|p| !p.is_empty()).expect("PE 0 measured")
}

/// Barrier latency samples at one PE count.
fn run_barrier(cfg: &TransportConfig, pes: usize) -> BarrierPoint {
    let reps = cfg.barrier_reps;
    let results = ShmemWorld::run(world_cfg(&cfg.model, pes, true), move |ctx| {
        ctx.barrier_all().expect("warm-up barrier");
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            ctx.barrier_all().expect("timed barrier");
            samples.push(t0.elapsed());
        }
        samples
    })
    .expect("barrier world");
    // Every PE timed the same collective; summarize PE 0's view.
    let stats = LatencyStats::from_samples(0, &results[0]);
    BarrierPoint { pes, p50_us: stats.p50_us, mean_us: stats.mean_us }
}

/// Run the full transport benchmark.
pub fn run_transport(cfg: &TransportConfig) -> TransportResult {
    let (put, get) = run_latency(cfg);
    let on = run_bursts(cfg, true);
    let off = run_bursts(cfg, false);
    let messages = cfg.burst * cfg.bursts;
    let throughput = on
        .iter()
        .zip(&off)
        .map(|(&(size, on_t, on_rung), &(off_size, off_t, off_rung))| {
            assert_eq!(size, off_size, "size axes must match");
            let on_rate = messages as f64 / on_t.as_secs_f64();
            let off_rate = messages as f64 / off_t.as_secs_f64();
            ThroughputPoint {
                size,
                messages,
                on_msgs_per_sec: on_rate,
                off_msgs_per_sec: off_rate,
                on_mb_per_sec: mb_per_sec(size * messages as u64, on_t),
                off_mb_per_sec: mb_per_sec(size * messages as u64, off_t),
                improvement_pct: (on_rate / off_rate - 1.0) * 100.0,
                on_doorbells_per_msg: on_rung as f64 / messages as f64,
                off_doorbells_per_msg: off_rung as f64 / messages as f64,
            }
        })
        .collect();
    let get_curve = run_get_curve(cfg);
    let barriers = cfg.barrier_pes.iter().map(|&pes| run_barrier(cfg, pes)).collect();
    TransportResult { scale: cfg.model.scale, put, get, throughput, get_curve, barriers }
}

impl TransportResult {
    /// Get p50 over put p50 at the headline latency size — the number
    /// the regression gate bounds.
    pub fn get_vs_put_p50_ratio(&self) -> f64 {
        self.get.p50_us / self.put.p50_us
    }

    /// Text report for the console.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Transport hot path (time-model scale {})\n\
             put  {} B latency: p50 {:.2} us  p99 {:.2} us  mean {:.2} us  (n={})\n\
             get  {} B latency: p50 {:.2} us  p99 {:.2} us  mean {:.2} us  (n={})\n",
            self.scale,
            self.put.size,
            self.put.p50_us,
            self.put.p99_us,
            self.put.mean_us,
            self.put.n,
            self.get.size,
            self.get.p50_us,
            self.get.p99_us,
            self.get.mean_us,
            self.get.n,
        ));
        out.push_str(&format!(
            "get-vs-put p50 ratio at {} B: {:.2}x\n",
            self.put.size,
            self.get_vs_put_p50_ratio()
        ));
        out.push_str("small-message put throughput (coalescing on vs off):\n");
        for t in &self.throughput {
            out.push_str(&format!(
                "  {:>5} B: on {:>10.0} msg/s ({:>8.2} MB/s)  off {:>10.0} msg/s ({:>8.2} MB/s)  {:+.1}%  doorbells/msg on {:.3} off {:.3}\n",
                t.size,
                t.on_msgs_per_sec,
                t.on_mb_per_sec,
                t.off_msgs_per_sec,
                t.off_mb_per_sec,
                t.improvement_pct,
                t.on_doorbells_per_msg,
                t.off_doorbells_per_msg,
            ));
        }
        out.push_str("get curve (pipelined vs put, vs window=1 stop-and-wait):\n");
        for g in &self.get_curve {
            out.push_str(&format!(
                "  {:>7} B: get p50 {:>9.2} us ({:>8.2} MB/s)  put p50 {:>9.2} us  ratio {:>5.2}x  stop-wait {:>9.2} us  {:+.1}%\n",
                g.size,
                g.get_p50_us,
                g.get_mb_per_sec,
                g.put_p50_us,
                g.get_vs_put_ratio,
                g.stop_wait_p50_us,
                g.pipeline_speedup_pct,
            ));
        }
        out.push_str("barrier latency:\n");
        for b in &self.barriers {
            out.push_str(&format!(
                "  {} PEs: p50 {:.2} us  mean {:.2} us\n",
                b.pes, b.p50_us, b.mean_us
            ));
        }
        out
    }

    /// Hand-rolled JSON document (no serde in the dependency budget).
    pub fn to_json(&self) -> String {
        fn latency_json(l: &LatencyStats) -> String {
            format!(
                "{{\"size_bytes\": {}, \"n\": {}, \"p50\": {:.3}, \"p99\": {:.3}, \"mean\": {:.3}}}",
                l.size, l.n, l.p50_us, l.p99_us, l.mean_us
            )
        }
        let throughput: Vec<String> = self
            .throughput
            .iter()
            .map(|t| {
                format!(
                    "    {{\"size_bytes\": {}, \"messages\": {}, \
                     \"coalesce_on_msgs_per_sec\": {:.1}, \"coalesce_off_msgs_per_sec\": {:.1}, \
                     \"coalesce_on_mb_per_sec\": {:.3}, \"coalesce_off_mb_per_sec\": {:.3}, \
                     \"improvement_pct\": {:.1}, \
                     \"coalesce_on_doorbells_per_msg\": {:.3}, \"coalesce_off_doorbells_per_msg\": {:.3}}}",
                    t.size,
                    t.messages,
                    t.on_msgs_per_sec,
                    t.off_msgs_per_sec,
                    t.on_mb_per_sec,
                    t.off_mb_per_sec,
                    t.improvement_pct,
                    t.on_doorbells_per_msg,
                    t.off_doorbells_per_msg
                )
            })
            .collect();
        let get_curve: Vec<String> = self
            .get_curve
            .iter()
            .map(|g| {
                format!(
                    "    {{\"size_bytes\": {}, \"n\": {}, \
                     \"get_p50\": {:.3}, \"get_mean\": {:.3}, \"get_mb_per_sec\": {:.3}, \
                     \"put_p50\": {:.3}, \"get_vs_put_ratio\": {:.3}, \
                     \"stop_wait_p50\": {:.3}, \"pipeline_speedup_pct\": {:.1}}}",
                    g.size,
                    g.n,
                    g.get_p50_us,
                    g.get_mean_us,
                    g.get_mb_per_sec,
                    g.put_p50_us,
                    g.get_vs_put_ratio,
                    g.stop_wait_p50_us,
                    g.pipeline_speedup_pct
                )
            })
            .collect();
        let barriers: Vec<String> = self
            .barriers
            .iter()
            .map(|b| {
                format!(
                    "    {{\"pes\": {}, \"p50\": {:.3}, \"mean\": {:.3}}}",
                    b.pes, b.p50_us, b.mean_us
                )
            })
            .collect();
        format!
        (
            "{{\n  \"bench\": \"transport\",\n  \"scale\": {},\n  \"put_latency_us\": {},\n  \"get_latency_us\": {},\n  \"get_vs_put_p50_ratio\": {:.3},\n  \"small_put_throughput\": [\n{}\n  ],\n  \"get_curve\": [\n{}\n  ],\n  \"barrier_latency_us\": [\n{}\n  ]\n}}\n",
            self.scale,
            latency_json(&self.put),
            latency_json(&self.get),
            self.get_vs_put_p50_ratio(),
            throughput.join(",\n"),
            get_curve.join(",\n"),
            barriers.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TransportConfig {
        TransportConfig {
            model: TimeModel::zero(),
            latency_size: 64,
            latency_reps: 8,
            small_sizes: vec![64, 256],
            get_sizes: vec![64, 4096],
            get_reps: 4,
            burst: 16,
            bursts: 2,
            barrier_reps: 4,
            barrier_pes: vec![2, 3],
        }
    }

    #[test]
    fn transport_run_and_json_shape() {
        let _guard = crate::timing_test_guard();
        let r = run_transport(&tiny());
        assert_eq!(r.put.n, 8);
        assert_eq!(r.get.n, 8);
        assert_eq!(r.throughput.len(), 2);
        assert_eq!(r.throughput[0].messages, 32);
        assert_eq!(r.get_curve.len(), 2);
        assert_eq!(r.get_curve[1].size, 4096);
        assert_eq!(r.barriers.len(), 2);
        assert_eq!(r.barriers[1].pes, 3);
        for t in &r.throughput {
            assert!(t.on_msgs_per_sec.is_finite() && t.on_msgs_per_sec > 0.0);
            assert!(t.off_msgs_per_sec.is_finite() && t.off_msgs_per_sec > 0.0);
            assert!(t.off_doorbells_per_msg >= 1.0, "one doorbell per put off");
        }
        for g in &r.get_curve {
            assert_eq!(g.n, 4);
            assert!(g.get_p50_us > 0.0 && g.put_p50_us > 0.0);
            assert!(g.get_vs_put_ratio.is_finite() && g.get_vs_put_ratio > 0.0);
            assert!(g.stop_wait_p50_us > 0.0);
        }
        assert!(r.get_vs_put_p50_ratio() > 0.0);
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"transport\""));
        assert!(json.contains("\"put_latency_us\""));
        assert!(json.contains("\"improvement_pct\""));
        assert!(json.contains("\"coalesce_off_doorbells_per_msg\""));
        assert!(json.contains("\"get_vs_put_p50_ratio\""));
        assert!(json.contains("\"get_curve\""));
        assert!(json.contains("\"stop_wait_p50\""));
        assert!(json.contains("\"barrier_latency_us\""));
        // Crude balance check on the hand-rolled document.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// Coalescing must ring at least 25% fewer doorbells per small put
    /// than one doorbell per message — the saving the mechanism controls.
    /// Both sides ride the same ring, so the throughput difference is
    /// that doorbell's cost (7/8 of 3 µs per message at paper timing),
    /// which a scaled model shrinks below host noise; the count does not
    /// depend on timing.
    #[test]
    fn coalescing_cuts_doorbells_per_small_put() {
        let _guard = crate::timing_test_guard();
        let cfg = TransportConfig {
            model: TimeModel::scaled(0.05),
            latency_size: 256,
            latency_reps: 4,
            small_sizes: vec![256],
            get_sizes: vec![256],
            get_reps: 2,
            burst: 32,
            bursts: 2,
            barrier_reps: 2,
            barrier_pes: vec![2],
        };
        let t = run_transport(&cfg).throughput[0];
        assert!(
            t.on_doorbells_per_msg <= 0.75 * t.off_doorbells_per_msg,
            "doorbells per put: coalesced {:.3}, per-message {:.3} (< 25% fewer)",
            t.on_doorbells_per_msg,
            t.off_doorbells_per_msg
        );
    }

    /// The regression gate for the get-path cliff: blocking Get p50 must
    /// stay within 10x of Put p50 at 512 B. The seed sat at ~140x (1 ms
    /// responder poll + 800 us interrupt-driven response service per
    /// get); the aperture fast path and the pipelined protocol keep the
    /// ratio low, and this gate keeps it from regressing. Scaled model
    /// so the simulated latencies dominate scheduler noise.
    #[test]
    fn get_latency_within_ten_x_of_put() {
        let _guard = crate::timing_test_guard();
        crate::assert_shape_with_retries(3, || {
            let cfg = TransportConfig {
                model: TimeModel::scaled(0.05),
                latency_size: 512,
                latency_reps: 16,
                small_sizes: vec![256],
                get_sizes: vec![512],
                get_reps: 4,
                burst: 8,
                bursts: 1,
                barrier_reps: 2,
                barrier_pes: vec![2],
            };
            let r = run_transport(&cfg);
            let ratio = r.get_vs_put_p50_ratio();
            if ratio <= 10.0 {
                Ok(())
            } else {
                Err(format!(
                    "get p50 {:.2} us is {ratio:.1}x put p50 {:.2} us (> 10x gate)",
                    r.get.p50_us, r.put.p50_us
                ))
            }
        });
    }
}
