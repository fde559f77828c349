//! `rma_pair`: PE 0 drives a closed loop of reads beside writes against
//! its direct neighbour PE 1, and nothing else runs. The same round is the
//! post-solve RMA probe of the two application workloads.
//!
//! One round (op id = round number):
//! 1. 64 B `OpOptions::nbi()` stream of 64 puts, then `quiet`;
//! 2. 512 B blocking put, timed to its return (local completion) and on
//!    to `quiet` (remote completion);
//! 3. 512 B get of the same bytes (the aperture-PIO path);
//! 4. 64 KiB get whose first 4 KiB are the stream just written (the
//!    request/response path);
//! 5. 512 KiB put + `quiet`, then a 512 KiB get of the same bytes.
//!
//! The timed 512 B put follows the stream's `quiet`, not a get: placed
//! right after the previous round's 512 KiB get, its local completion read
//! about 20 µs in some sets of runs and about 40 µs in others, while after
//! a completed put it holds steady.
//!
//! Payloads rotate through seeded variants, so every get checks that the
//! puts before it really landed.

use std::time::Instant;

use shmem_core::{OpOptions, ReduceOp, ShmemCtx, Topology, TypedSym};

use crate::measure::{us, SplitMix64};
use crate::trace::SpanLog;
use crate::world::{Nodes, PeReport, Plan, Samples, Tally};

pub const SMALL: usize = 512;
pub const LARGE: usize = 64 << 10;
pub const BULK: usize = 512 << 10;
const NBI_MSG: usize = 64;
const NBI_BATCH: usize = 64;
const STREAM: usize = NBI_MSG * NBI_BATCH;
/// Payload variants per world; consecutive rounds never write equal bytes.
const VARIANTS: usize = 4;

/// Rounds per solve and solves per world of `rma_pair`.
const ROUNDS: usize = 8;
const SOLVES: usize = 13;

/// Seeded payloads of one world.
pub struct Payloads {
    small: Vec<Vec<u8>>,
    stream: Vec<Vec<u8>>,
    bulk: Vec<Vec<u8>>,
    /// Initial contents of PE 1's 64 KiB region.
    large: Vec<u8>,
}

impl Payloads {
    pub fn new(seed: u64, world: u64) -> Payloads {
        let mut g = SplitMix64::new(seed, 0x5244_4d41 ^ (world << 8));
        Payloads {
            small: (0..VARIANTS).map(|_| g.bytes(SMALL)).collect(),
            stream: (0..VARIANTS).map(|_| g.bytes(STREAM)).collect(),
            bulk: (0..VARIANTS).map(|_| g.bytes(BULK)).collect(),
            large: g.bytes(LARGE),
        }
    }
}

/// PE 1's symmetric regions the round reads and writes.
pub struct Regions {
    small: TypedSym<u8>,
    large: TypedSym<u8>,
    bulk: TypedSym<u8>,
}

/// Collective: allocate the regions on every PE and seed PE 1's 64 KiB
/// region. Ends with a barrier, so PE 0 may start at once.
pub fn alloc(ctx: &ShmemCtx, p: &Payloads, t: &mut Tally) -> Option<Regions> {
    let small = t.op("malloc", ctx.calloc_array::<u8>(SMALL))?;
    let large = t.op("malloc", ctx.calloc_array::<u8>(LARGE))?;
    let bulk = t.op("malloc", ctx.calloc_array::<u8>(BULK))?;
    if ctx.my_pe() == 1 {
        t.op("seed region", ctx.write_local_slice(&large, 0, &p.large))?;
    }
    t.op("barrier", ctx.barrier_all())?;
    Some(Regions { small, large, bulk })
}

/// Per-round samples, recorded into [`Samples`] by the caller (the apps
/// take their put latencies from their own halo puts).
struct RoundSample {
    pub put_local_us: f64,
    pub put_remote_us: f64,
    pub get_small_us: f64,
    pub get_large_us: f64,
    pub put_rate_msgs_s: f64,
    pub bulk_put_mb_s: f64,
    pub bulk_get_mb_s: f64,
}

/// Where the round's mechanisms are checked: around the first round of a
/// traced world, PE 0 reads the network counters to prove the 512 B get
/// took the PIO aperture and the 64 KiB get the request/response path.
struct Probe<'a> {
    pub nodes: &'a Nodes,
    pub vacuous: &'a mut Vec<String>,
}

fn mb_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e6
}

/// One round from PE 0 to PE 1 (see the module docs). `span` names the
/// enclosing span; `probe` arms the get-path checks.
#[allow(clippy::too_many_arguments)]
fn round(
    ctx: &ShmemCtx,
    r: &Regions,
    p: &Payloads,
    op: u64,
    span: &'static str,
    log: &mut SpanLog,
    t: &mut Tally,
    mut probe: Option<Probe<'_>>,
) -> Option<RoundSample> {
    const PEER: usize = 1;
    let k = op as usize % VARIANTS;
    let parent = log.open(span, op);

    let t_nbi = Instant::now();
    for (i, msg) in p.stream[k].chunks(NBI_MSG).enumerate() {
        let (res, _) = log.time("core.nbi_put_64B", parent, op, || {
            ctx.put_slice_opts(&r.large, i * NBI_MSG, msg, PEER, OpOptions::nbi())
        });
        t.op("nbi put 64B", res)?;
    }
    let (res, _) = log.time("core.quiet_nbi", parent, op, || ctx.quiet());
    t.op("quiet", res)?;
    let nbi = t_nbi.elapsed();

    let t0 = Instant::now();
    let (res, local) = log.time("core.put_512B", parent, op, || {
        ctx.put_slice_opts(&r.small, 0, &p.small[k], PEER, OpOptions::new())
    });
    t.op("put 512B", res)?;
    let (res, _) = log.time("core.quiet_512B", parent, op, || ctx.quiet());
    t.op("quiet", res)?;
    let remote = t0.elapsed();

    let before = probe.as_ref().map(|pr| pr.nodes.snapshot());
    let (res, get_small) =
        log.time("core.get_512B", parent, op, || ctx.get_slice::<u8>(&r.small, 0, SMALL, PEER));
    let got = t.op("get 512B", res)?;
    if let (Some(pr), Some(c0)) = (probe.as_mut(), before) {
        let d = pr.nodes.snapshot().minus(&c0);
        if d.pio_ops == 0 || d.gets_served != 0 {
            pr.vacuous.push(format!(
                "512 B get not served by PIO (pio_ops +{}, gets_served +{})",
                d.pio_ops, d.gets_served
            ));
        }
    }
    let (ok, _) = log.time("app.compute", parent, op, || got == p.small[k]);
    if !ok {
        t.wrong("get 512B");
    }

    let before = probe.as_ref().map(|pr| pr.nodes.snapshot());
    let (res, get_large) =
        log.time("core.get_64KiB", parent, op, || ctx.get_slice::<u8>(&r.large, 0, LARGE, PEER));
    let got = t.op("get 64KiB", res)?;
    if let (Some(pr), Some(c0)) = (probe.as_mut(), before) {
        let d = pr.nodes.snapshot().minus(&c0);
        if d.gets_served == 0 {
            pr.vacuous.push("64 KiB get not served by request/response".to_string());
        }
    }
    let (ok, _) = log.time("app.compute", parent, op, || {
        got[..STREAM] == p.stream[k][..] && got[STREAM..] == p.large[STREAM..]
    });
    if !ok {
        t.wrong("get 64KiB");
    }

    let t_bulk = Instant::now();
    let (res, _) = log.time("core.put_512KiB", parent, op, || {
        ctx.put_slice_opts(&r.bulk, 0, &p.bulk[k], PEER, OpOptions::new())
    });
    t.op("put 512KiB", res)?;
    let (res, _) = log.time("core.quiet_512KiB", parent, op, || ctx.quiet());
    t.op("quiet", res)?;
    let bulk_put = t_bulk.elapsed();

    let (res, bulk_get) =
        log.time("core.get_512KiB", parent, op, || ctx.get_slice::<u8>(&r.bulk, 0, BULK, PEER));
    let got = t.op("get 512KiB", res)?;
    let (ok, _) = log.time("app.compute", parent, op, || got == p.bulk[k]);
    if !ok {
        t.wrong("get 512KiB");
    }
    log.close(parent);

    Some(RoundSample {
        put_local_us: us(local),
        put_remote_us: us(remote),
        get_small_us: us(get_small),
        get_large_us: us(get_large),
        put_rate_msgs_s: NBI_BATCH as f64 / nbi.as_secs_f64(),
        bulk_put_mb_s: mb_s(BULK, bulk_put.as_secs_f64()),
        bulk_get_mb_s: mb_s(BULK, bulk_get.as_secs_f64()),
    })
}

/// Net rounds per traced world.
const NET_ROUNDS: u64 = 4;

/// The same writes and reads issued straight on PE 0's `NtbNode`
/// (`put_bytes_opts`, `quiet`, `get_bytes_windowed`), bypassing
/// shmem-core: subtracting these spans from the matching `core.*` spans
/// leaves shmem-core's self time. The ops run in the core round's order,
/// so each net span sees the state its core counterpart sees. Traced
/// worlds only; op ids continue after `last`, the last core round.
fn net_rounds(
    ctx: &ShmemCtx,
    r: &Regions,
    p: &Payloads,
    last: u64,
    log: &mut SpanLog,
    t: &mut Tally,
) -> Option<()> {
    const PEER: usize = 1;
    let node = ctx.node();
    let mode = ctx.default_mode();
    let window = ctx.config().net.get_window;
    let small = t.op("offset", r.small.elem_offset(0, SMALL))?;
    let large = t.op("offset", r.large.elem_offset(0, LARGE))?;
    let bulk = t.op("offset", r.bulk.elem_offset(0, BULK))?;
    for op in last + 1..=last + NET_ROUNDS {
        let w = op as usize % VARIANTS;
        let parent = log.open("net.round", op);
        for (i, msg) in p.stream[w].chunks(NBI_MSG).enumerate() {
            let (res, _) = log.time("net.nbi_put_64B", parent, op, || {
                node.put_bytes_opts(PEER, large + (i * NBI_MSG) as u64, msg, mode, true, 0)
            });
            t.op("net nbi put 64B", res)?;
        }
        let (res, _) = log.time("net.quiet_nbi", parent, op, || node.quiet());
        t.op("net quiet", res)?;
        let (res, _) = log.time("net.put_512B", parent, op, || {
            node.put_bytes_opts(PEER, small, &p.small[w], mode, false, 0)
        });
        t.op("net put 512B", res)?;
        let (res, _) = log.time("net.quiet_512B", parent, op, || node.quiet());
        t.op("net quiet", res)?;
        let (res, _) = log.time("net.get_512B", parent, op, || {
            node.get_bytes_windowed(PEER, small, SMALL as u64, mode, 0, window)
        });
        if t.op("net get 512B", res)? != p.small[w] {
            t.wrong("net get 512B");
        }
        let (res, _) = log.time("net.get_64KiB", parent, op, || {
            node.get_bytes_windowed(PEER, large, LARGE as u64, mode, 0, window)
        });
        let got = t.op("net get 64KiB", res)?;
        if got[..STREAM] != p.stream[w][..] || got[STREAM..] != p.large[STREAM..] {
            t.wrong("net get 64KiB");
        }
        let (res, _) = log.time("net.put_512KiB", parent, op, || {
            node.put_bytes_opts(PEER, bulk, &p.bulk[w], mode, false, 0)
        });
        t.op("net put 512KiB", res)?;
        let (res, _) = log.time("net.quiet_512KiB", parent, op, || node.quiet());
        t.op("net quiet", res)?;
        let (res, _) = log.time("net.get_512KiB", parent, op, || {
            node.get_bytes_windowed(PEER, bulk, BULK as u64, mode, 0, window)
        });
        if t.op("net get 512KiB", res)? != p.bulk[w] {
            t.wrong("net get 512KiB");
        }
        log.close(parent);
    }
    Some(())
}

/// The closing check of an `rma_pair` world, and its one collective (the
/// source of `core.allreduce.us` there): every PE adds up the bytes of its
/// own 512 KiB region, and PE 0 checks that the world's total is the byte
/// sum of the last bulk payload it wrote into PE 1's region (variant
/// `last`), so neither a lost nor a stray bulk write goes unseen. Every PE
/// joins the allreduce even when its read failed.
fn closing_check(
    ctx: &ShmemCtx,
    r: &Regions,
    p: &Payloads,
    last: Option<usize>,
    log: &mut SpanLog,
    t: &mut Tally,
) {
    let sum = |b: &[u8]| b.iter().map(|&x| u64::from(x)).sum::<u64>();
    let mine = t.op("read", ctx.read_local_slice::<u8>(&r.bulk, 0, BULK)).map_or(0, |b| sum(&b));
    let (res, _) = log.time("core.allreduce", None, 0, || ctx.allreduce(ReduceOp::Sum, &[mine]));
    if let (Some(total), Some(k)) = (t.op("allreduce", res), last) {
        t.check("closing bulk sum", total[0] == sum(&p.bulk[k]));
    }
}

/// Closing RMA probe of an application world: PE 0 runs `rounds` rounds
/// against PE 1 (a direct neighbour on every app fabric) while the other
/// PEs wait in the closing barrier. Records only the get, stream and bulk
/// samples; the app's own halo puts supply the put latencies.
#[allow(clippy::too_many_arguments)]
pub fn probe(
    ctx: &ShmemCtx,
    regions: &Regions,
    payloads: &Payloads,
    rounds: usize,
    plan: &Plan,
    nodes: &Nodes,
    log: &mut SpanLog,
    rep: &mut PeReport,
) {
    if ctx.my_pe() == 0 {
        let mut last = None;
        for i in 0..rounds {
            let armed =
                (plan.traced && i == 0).then_some(Probe { nodes, vacuous: &mut rep.vacuous });
            let op = i as u64;
            match round(ctx, regions, payloads, op, "probe", log, &mut rep.tally, armed) {
                Some(s) => {
                    record_gets(&mut rep.samples, &s);
                    last = Some(op);
                }
                None => break,
            }
        }
        if let (true, Some(last)) = (plan.traced, last) {
            net_rounds(ctx, regions, payloads, last, log, &mut rep.tally);
        }
    }
    let (res, _) = log.time("core.barrier", None, 0, || ctx.barrier_all());
    rep.tally.op("barrier", res);
}

fn record_gets(s: &mut Samples, r: &RoundSample) {
    s.get_small_us.push(r.get_small_us);
    s.get_large_us.push(r.get_large_us);
    s.put_rate_msgs_s.push(r.put_rate_msgs_s);
    s.bulk_put_mb_s.push(r.bulk_put_mb_s);
    s.bulk_get_mb_s.push(r.bulk_get_mb_s);
}

pub const PES: usize = 2;

pub fn topology() -> Topology {
    Topology::ring(PES)
}

/// The `rma_pair` world body: `SOLVES` timed passes of `ROUNDS` rounds
/// at PE 0, PE 1 serving from its closing barrier, then the closing check.
pub fn body(ctx: &ShmemCtx, nodes: &Nodes, plan: &Plan, p: &Payloads) -> PeReport {
    let me = ctx.my_pe();
    let mut rep = PeReport::default();
    let mut log = SpanLog::new(plan.traced, me);
    let Some(regions) = alloc(ctx, p, &mut rep.tally) else {
        return rep;
    };
    // Op id of the last round whose bulk payload PE 0 wrote.
    let mut wrote = None;
    if me == 0 {
        let mut last = None;
        'solves: for s in 0..SOLVES {
            let c0 = plan.traced.then(|| nodes.snapshot());
            let t_solve = Instant::now();
            for i in 0..ROUNDS {
                let op = (s * ROUNDS + i) as u64;
                let armed =
                    (plan.traced && op == 0).then_some(Probe { nodes, vacuous: &mut rep.vacuous });
                let t_round = Instant::now();
                let Some(r) = round(ctx, &regions, p, op, "step", &mut log, &mut rep.tally, armed)
                else {
                    break 'solves;
                };
                rep.samples.step_us.push(us(t_round.elapsed()));
                rep.samples.put_local_us.push(r.put_local_us);
                rep.samples.put_remote_us.push(r.put_remote_us);
                record_gets(&mut rep.samples, &r);
                last = Some(op);
            }
            rep.samples.solve_s.push(t_solve.elapsed().as_secs_f64());
            if let Some(c0) = c0 {
                rep.phase = rep.phase.plus(&nodes.snapshot().minus(&c0));
            }
        }
        wrote = last;
        if let (true, Some(last)) = (plan.traced, last) {
            wrote = net_rounds(ctx, &regions, p, last, &mut log, &mut rep.tally)
                .map(|()| last + NET_ROUNDS);
        }
    }
    let (res, _) = log.time("core.barrier", None, 0, || ctx.barrier_all());
    rep.tally.op("barrier", res);
    let variant = wrote.map(|op| op as usize % VARIANTS);
    closing_check(ctx, &regions, p, variant, &mut log, &mut rep.tally);
    rep.spans = log.into_spans();
    rep
}
