//! Ordering and allreduce contract tests: a signal never overtakes its
//! data on forwarded routes (without a `quiet`, large data included),
//! payloads staged in the window areas never overwrite each other, the
//! barrier-free allreduce folds in ascending PE order, never mixes
//! rounds and leaves nothing in flight, and the collectives built on it
//! add no barrier of their own.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ntb_sim::{EventKind, FaultPlan};
use shmem_core::{
    CmpOp, OpOptions, ReduceOp, ShmemConfig, ShmemWorld, SignalOp, TimeModel, Topology, TypedSym,
};

fn torus(model: TimeModel) -> ShmemConfig {
    ShmemConfig::fast_sim().with_hosts(4).with_topology(Topology::torus(2, 2)).with_model(model)
}

fn ring(hosts: usize, model: TimeModel) -> ShmemConfig {
    ShmemConfig::fast_sim().with_hosts(hosts).with_topology(Topology::ring(hosts)).with_model(model)
}

/// `put_with_signal` rounds per sender; each round overwrites one word of
/// a `WINDOW`-word data ring and sets the signal to the round number.
const ROUNDS: u64 = 2000;
const WINDOW: usize = 64;

/// On `Topology::torus(2, 2)` the pairs 1 -> 2 and 0 -> 3 are two hops
/// apart, so every frame crosses a forwarder and two transmit rings. Once
/// the receiver sees signal `s`, the data of every round `r <= s` must
/// be in place: its word holds `r` or a later round of the same word,
/// never an earlier one. Stale data means a signal overtook its data.
#[test]
fn signal_never_overtakes_its_data_on_two_hop_torus_routes() {
    // A signal that overtook its data can also be overwritten by an
    // older round's signal and never reach the last round: bound the wait.
    let mut cfg = torus(TimeModel::paper());
    cfg.wait_timeout = Duration::from_secs(10);
    let stale = ShmemWorld::run(cfg, |ctx| {
        let data: TypedSym<u64> = ctx.calloc_array(WINDOW).unwrap();
        let sig: TypedSym<u64> = ctx.calloc_array(1).unwrap();
        let me = ctx.my_pe();
        let mut stale = 0u64;
        match me {
            1 | 0 => {
                let dest = if me == 1 { 2 } else { 3 };
                for r in 1..=ROUNDS {
                    let word = r as usize % WINDOW;
                    ctx.put_with_signal(&data, word, &[r], &sig, 0, r, SignalOp::Set, dest)
                        .unwrap();
                    if r % 32 == 0 {
                        // Stay inside the link credit window (256 frames).
                        ctx.quiet().unwrap();
                    }
                }
                ctx.quiet().unwrap();
            }
            _ => {
                let mut checked = 0u64;
                while checked < ROUNDS {
                    let Ok(seen) = ctx.wait_until(&sig, 0, CmpOp::Ge, checked + 1) else {
                        stale += 1; // the signal went backwards and stalled
                        break;
                    };
                    for r in checked + 1..=seen {
                        let got = ctx.read_local(&data, r as usize % WINDOW).unwrap();
                        if got < r || (got - r) % WINDOW as u64 != 0 {
                            stale += 1;
                        }
                    }
                    checked = seen;
                }
            }
        }
        ctx.barrier_all().unwrap();
        stale
    })
    .unwrap();
    assert_eq!(stale, vec![0; 4], "a signal landed before its data (stale reads per PE)");
}

/// `put_with_signal` of 64 KiB, far more than a slot lane holds: the data
/// is staged in the window's direct or bypass area and its slot record
/// rides the ring ahead of the signal's, so the signal needs no `quiet`
/// to stay behind its data. Senders and receivers as in the test above,
/// two hops apart on `torus(2, 2)` at paper timing. Each round rewrites
/// every word of the data; once the receiver sees signal `s`, every word
/// must hold round `s` or later. The senders count their own
/// `QuietStart` events across the calls.
#[test]
fn large_signalled_puts_need_no_quiet() {
    const ROUNDS: u64 = 200;
    const WORDS: usize = (64 << 10) / 8;
    let mut cfg = torus(TimeModel::paper());
    cfg.wait_timeout = Duration::from_secs(10);
    let out = ShmemWorld::run(cfg, |ctx| {
        let data: TypedSym<u64> = ctx.calloc_array(WORDS).unwrap();
        let sig: TypedSym<u64> = ctx.calloc_array(1).unwrap();
        let me = ctx.my_pe();
        let log = Arc::clone(ctx.node().obs().log().expect("observed world"));
        log.enable();
        let quiets = || {
            log.merged()
                .iter()
                .filter(|e| usize::from(e.pe) == me && e.kind == EventKind::QuietStart)
                .count()
        };
        let (mut stale, mut quiets_in_calls) = (0u64, 0usize);
        match me {
            1 | 0 => {
                let dest = if me == 1 { 2 } else { 3 };
                let start = quiets();
                for r in 1..=ROUNDS {
                    ctx.put_with_signal(&data, 0, &vec![r; WORDS], &sig, 0, r, SignalOp::Set, dest)
                        .unwrap();
                }
                quiets_in_calls = quiets() - start;
                ctx.quiet().unwrap();
            }
            _ => {
                let mut checked = 0u64;
                while checked < ROUNDS {
                    let Ok(seen) = ctx.wait_until(&sig, 0, CmpOp::Ge, checked + 1) else {
                        stale += 1; // the signal went backwards and stalled
                        break;
                    };
                    let words = ctx.read_local_slice(&data, 0, WORDS).unwrap();
                    stale += words.iter().filter(|&&w| w < seen).count() as u64;
                    checked = seen;
                }
            }
        }
        ctx.barrier_all().unwrap();
        assert_eq!(log.dropped(), 0, "a truncated trace cannot count quiets");
        (stale, quiets_in_calls)
    })
    .unwrap();
    for (pe, &(stale, quiets)) in out.iter().enumerate() {
        assert_eq!(stale, 0, "pe {pe}: a signal landed before its 64 KiB of data");
        assert_eq!(quiets, 0, "pe {pe}: quiets inside {ROUNDS} put_with_signal calls");
    }
}

/// Every PE streams nbi puts too large for a slot lane to every other PE
/// on `torus(2, 2)` — its neighbours and the PE two hops away — with no
/// `quiet` between them, interleaved with 64 KiB gets and AMOs, on a
/// 4-slot ring that wraps many times. Each put is one payload staged in
/// the next hop's direct or bypass area; each area holds one payload at
/// a time, so a put or get response must never overwrite a payload its
/// receiver has not copied out yet. Every byte must match.
#[test]
fn staged_area_payloads_never_collide() {
    const ROUNDS: usize = 6;
    const CHUNK: usize = 20_000;
    const GET: usize = 64 << 10;
    let cfg = ShmemConfig::fast_sim()
        .with_hosts(4)
        .with_topology(Topology::torus(2, 2))
        .with_tx_ring(4, 4);
    let pattern = |src: usize, dest: usize, round: usize| -> Vec<u8> {
        let tag = (src * 31 + dest * 7 + round * 131) as u32;
        (0..CHUNK as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8 ^ tag as u8).collect()
    };
    let source = |pe: usize| -> Vec<u8> { (0..GET).map(|i| (i * 13 + pe * 101) as u8).collect() };
    ShmemWorld::run(cfg, move |ctx| {
        let (me, n) = (ctx.my_pe(), ctx.num_pes());
        let inbox: TypedSym<u8> = ctx.calloc_array(n * ROUNDS * CHUNK).unwrap();
        let exposed: TypedSym<u8> = ctx.calloc_array(GET).unwrap();
        let counter: TypedSym<u64> = ctx.calloc_array(1).unwrap();
        ctx.write_local_slice(&exposed, 0, &source(me)).unwrap();
        ctx.barrier_all().unwrap();
        for round in 0..ROUNDS {
            for hop in 1..n {
                let dest = (me + hop) % n;
                let at = (me * ROUNDS + round) * CHUNK;
                let opts = OpOptions::nbi();
                ctx.put_slice_opts(&inbox, at, &pattern(me, dest, round), dest, opts).unwrap();
            }
            let from = (me + 1 + round % (n - 1)) % n;
            assert_eq!(ctx.get_slice(&exposed, 0, GET, from).unwrap(), source(from), "get {from}");
            ctx.atomic_fetch_add(&counter, 0, 1, (me + 1 + (round + 1) % (n - 1)) % n).unwrap();
        }
        ctx.quiet().unwrap();
        ctx.barrier_all().unwrap();
        for src in (0..n).filter(|&src| src != me) {
            for round in 0..ROUNDS {
                let got =
                    ctx.read_local_slice(&inbox, (src * ROUNDS + round) * CHUNK, CHUNK).unwrap();
                assert!(got == pattern(src, me, round), "pe {me}: round {round} from pe {src}");
            }
        }
        // Each PE adds to each other PE twice over the rounds.
        assert_eq!(ctx.read_local(&counter, 0).unwrap(), ROUNDS as u64);
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

/// Two-hop nbi bursts from PE 0 to PE 3 on `torus(2, 2)` at paper timing:
/// `bursts` bursts, each of more than four default ring depths of 8-byte
/// puts and then a `put_with_signal`, with a `quiet` after every
/// `quiet_every` bursts. Burst lengths vary, so signals land in every
/// part of the ring, including just past a wrap. Returns, per PE, the
/// stale words PE 3 read once it saw a burst's signal, whether PE 0's
/// last `quiet` succeeded, and the PE's stats.
fn two_hop_bursts(bursts: u64, quiet_every: u64) -> Vec<(u64, bool, shmem_core::prelude::PeStats)> {
    let depth = ShmemConfig::fast_sim().net.tx_slots as usize;
    let len = |b: u64| 4 * depth + 1 + (b as usize * 7) % depth;
    let words = 5 * depth;
    let mut cfg = torus(TimeModel::paper());
    cfg.wait_timeout = Duration::from_secs(10);
    ShmemWorld::run(cfg, |ctx| {
        let data: TypedSym<u64> = ctx.calloc_array(words + 1).unwrap();
        let sig: TypedSym<u64> = ctx.calloc_array(1).unwrap();
        let (mut stale, mut quiet_ok) = (0u64, true);
        match ctx.my_pe() {
            // 0 -> 3 is two hops on torus(2, 2).
            0 => {
                for b in 1..=bursts {
                    for i in 0..len(b) {
                        ctx.put_slice_opts(&data, i, &[b], 3, OpOptions::nbi()).unwrap();
                    }
                    ctx.put_with_signal(&data, words, &[b], &sig, 0, b, SignalOp::Set, 3).unwrap();
                    if b % quiet_every == 0 {
                        quiet_ok &= ctx.quiet().is_ok();
                    }
                }
                quiet_ok &= ctx.quiet().is_ok();
            }
            3 => {
                let mut checked = 0;
                while checked < bursts {
                    let Ok(seen) = ctx.wait_until(&sig, 0, CmpOp::Ge, checked + 1) else {
                        stale += 1;
                        break;
                    };
                    stale += (0..len(seen))
                        .chain([words])
                        .filter(|&i| ctx.read_local(&data, i).unwrap() < seen)
                        .count() as u64;
                    checked = seen;
                }
            }
            _ => {}
        }
        ctx.barrier_all().unwrap();
        (stale, quiet_ok, ctx.stats_snapshot())
    })
    .unwrap()
}

/// With the default ring deep enough to hold a whole receiver wake, each
/// burst wraps every ring on its route several times with frames in
/// flight before its signal. The burst and its signal share one route,
/// whose rings and forwarder hand frames on in publish order: once the
/// target sees a burst's signal, every word of that burst is in place,
/// and no slot is skipped or missed on the way.
#[test]
fn deep_ring_bursts_never_let_a_signal_overtake_their_data() {
    let out = two_hop_bursts(64, 2);
    assert!(out.iter().map(|(_, _, s)| s.forwards).sum::<u64>() > 0, "no forwarded traffic");
    for (pe, (stale, quiet_ok, s)) in out.iter().enumerate() {
        assert_eq!(*stale, 0, "pe {pe}: a signal landed before its burst's data");
        assert!(quiet_ok, "pe {pe}: a put failed");
        assert_eq!((s.slot_skips, s.slot_release_misses), (0, 0), "pe {pe}");
    }
}

/// Thousands of 2-hop nbi puts with no `quiet` between bursts. Link
/// credits only bound the frames between two neighbours: a sender on a
/// deep ring outran the forwarder and the ack return path, their queues
/// overflowed and shed, the retransmissions drained the retry budget and
/// `quiet` failed with `LinkFailed`. The end-to-end put window keeps
/// every queue on the route bounded: nothing is shed or retransmitted.
#[test]
fn sustained_two_hop_nbi_stream_completes() {
    for (pe, (stale, quiet_ok, s)) in two_hop_bursts(60, u64::MAX).iter().enumerate() {
        assert_eq!(*stale, 0, "pe {pe}: a signal landed before its burst's data");
        assert!(quiet_ok, "pe {pe}: a put was abandoned");
        assert_eq!((s.overload_sheds, s.retransmits), (0, 0), "pe {pe}");
    }
}

/// Per-PE values whose sum depends on the grouping: only the ascending-PE
/// left fold from the identity gives the value the CG oracle expects.
const GROUPING: [f64; 4] = [1e16, 1.0, -1e16, 1.0];

fn assert_bit_exact_fold(cfg: ShmemConfig, hosts: usize) {
    // A second element per PE makes one input span several slot-sized
    // rounds (1024 bytes hold 128 f64).
    const LEN: usize = 300;
    let input = |pe: usize| -> Vec<f64> {
        (0..LEN)
            .map(|i| if i == 0 { GROUPING[pe] } else { GROUPING[(pe + i) % 4] * i as f64 })
            .collect()
    };
    let results =
        ShmemWorld::run(cfg, move |ctx| ctx.allreduce(ReduceOp::Sum, &input(ctx.my_pe())).unwrap())
            .unwrap();
    let want: Vec<f64> =
        (0..LEN).map(|i| (0..hosts).fold(0.0, |acc, pe| acc + input(pe)[i])).collect();
    let part = |parity: usize| (parity..hosts).step_by(2).fold(0.0, |acc, pe| acc + GROUPING[pe]);
    let regrouped = part(0) + part(1);
    assert_ne!(want[0].to_bits(), regrouped.to_bits(), "the inputs must be grouping-sensitive");
    for (pe, got) in results.iter().enumerate() {
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "pe {pe} element {i}: {g} != left fold {w}");
        }
    }
}

#[test]
fn allreduce_is_the_ascending_pe_left_fold_bit_for_bit() {
    assert_bit_exact_fold(ring(3, TimeModel::zero()), 3);
    assert_bit_exact_fold(torus(TimeModel::paper()), 4);
}

/// 500 back-to-back allreduces; on every 7th call one PE (a different one
/// each time) arrives late, so the others run ahead into the wait while
/// its previous round's blocks may still be in flight. Every result must
/// be exactly that call's sum — a block or signal from another round
/// would show.
fn back_to_back(cfg: ShmemConfig, delay: Duration) {
    ShmemWorld::run(cfg, move |ctx| {
        let (me, n) = (ctx.my_pe() as u64, ctx.num_pes() as u64);
        for i in 0..500u64 {
            if i % 7 == 0 && (i / 7) % n == me {
                std::thread::sleep(delay);
            }
            let got = ctx.allreduce(ReduceOp::Sum, &[i * 1000 + me, i]).unwrap();
            assert_eq!(got, vec![i * 1000 * n + n * (n - 1) / 2, i * n], "pe {me} call {i}");
        }
    })
    .unwrap();
}

#[test]
fn back_to_back_allreduces_never_mix_rounds() {
    back_to_back(torus(TimeModel::zero()), Duration::from_millis(2));
    back_to_back(torus(TimeModel::paper()), Duration::from_millis(3));
}

/// Under payload corruption a block's frame can be rejected while the
/// signal frame behind it lands; the block comes back only with the
/// end-to-end retransmission. The fold must wait for it and never take
/// the block the bank still holds from two rounds earlier.
#[test]
fn allreduce_is_exact_when_blocks_are_lost_and_retransmitted() {
    let retry = ntb_net::RetryPolicy {
        ack_timeout: Duration::from_millis(40),
        max_retries: 8,
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(40),
        probe_interval: Duration::from_millis(20),
        slot_wait_timeout: Duration::from_millis(20),
        failure_threshold: 3,
    };
    let cfg = torus(TimeModel::zero())
        .with_retry(retry)
        .with_faults(FaultPlan::none().with_seed(11).with_payload_corrupt(0.01));
    let rejects = ShmemWorld::run(cfg, |ctx| {
        let (me, n) = (ctx.my_pe() as u64, ctx.num_pes() as u64);
        for i in 0..150u64 {
            let got = ctx.allreduce(ReduceOp::Sum, &[i * 1000 + me, i]).unwrap();
            assert_eq!(got, vec![i * 1000 * n + n * (n - 1) / 2, i * n], "pe {me} call {i}");
        }
        let got = ctx.allreduce(ReduceOp::Sum, &[GROUPING[ctx.my_pe()]]).unwrap();
        assert_eq!(got[0].to_bits(), GROUPING.iter().fold(0.0, |a, b| a + b).to_bits());
        ctx.barrier_all().unwrap();
        ctx.stats_snapshot().checksum_rejects
    })
    .unwrap();
    assert!(rejects.iter().sum::<u64>() > 0, "the fault plan rejected no frame: {rejects:?}");
}

/// On fault-free links the in-order ring drain never skips a sequence
/// number and never finds a header changed under it: both counters stay
/// at zero through thousands of forwarded allreduce rounds and signalled
/// puts at paper timing.
#[test]
fn fault_free_rings_never_skip_or_miss_a_slot() {
    let stats = ShmemWorld::run(torus(TimeModel::paper()), |ctx| {
        let data: TypedSym<u64> = ctx.calloc_array(WINDOW).unwrap();
        let sig: TypedSym<u64> = ctx.calloc_array(1).unwrap();
        let (me, n) = (ctx.my_pe(), ctx.num_pes());
        for i in 0..400u64 {
            // Every PE streams signalled puts at the PE two hops away
            // between allreduces, so forwarded traffic and collective
            // traffic share every ring.
            let far = n - 1 - me;
            for r in 0..4 {
                let word = (i as usize * 4 + r) % WINDOW;
                ctx.put_with_signal(&data, word, &[i], &sig, 0, i, SignalOp::Set, far).unwrap();
            }
            ctx.allreduce(ReduceOp::Sum, &[i]).unwrap();
        }
        ctx.barrier_all().unwrap();
        ctx.stats_snapshot()
    })
    .unwrap();
    assert!(stats.iter().map(|s| s.forwards).sum::<u64>() > 0, "no forwarded traffic");
    for (pe, s) in stats.iter().enumerate() {
        assert_eq!((s.slot_skips, s.slot_release_misses), (0, 0), "pe {pe}");
        assert_eq!(s.retransmits, 0, "pe {pe}");
    }
}

/// A world whose last call is an allreduce tears down with no put left to
/// retransmit: the call's closing `quiet` saw every block acknowledged.
#[test]
fn world_ending_in_an_allreduce_tears_down_without_retransmits() {
    let nodes = ShmemWorld::run(torus(TimeModel::paper()), |ctx| {
        for i in 0..20u64 {
            ctx.allreduce(ReduceOp::Max, &[i + ctx.my_pe() as u64]).unwrap();
        }
        Arc::clone(ctx.node())
    })
    .unwrap();
    for node in nodes {
        assert_eq!(node.stats().retransmits.load(Ordering::SeqCst), 0, "host {}", node.host_id());
        assert_eq!(node.outstanding_puts(), 0, "host {}", node.host_id());
    }
}

/// Team allreduce runs the same schedule over the team's own scratch:
/// members fold in rank order, non-members return at once.
#[test]
fn team_allreduce_folds_members_in_rank_order() {
    let results = ShmemWorld::run(ring(4, TimeModel::zero()), |ctx| {
        let team = ctx.team_split(shmem_core::ActiveSet::new(0, 1, 2)).unwrap(); // PEs 0, 2
        let mut last = None;
        for i in 0..50u64 {
            last = ctx
                .team_allreduce(&team, ReduceOp::Sum, &[GROUPING[ctx.my_pe()], i as f64])
                .unwrap();
        }
        ctx.team_destroy(team).unwrap();
        last
    })
    .unwrap();
    let want = 0.0 + GROUPING[0] + GROUPING[2];
    for pe in [0, 2] {
        let got = results[pe].as_ref().expect("member result");
        assert_eq!(got[0].to_bits(), want.to_bits());
        assert_eq!(got[1], 98.0);
    }
    assert!(results[1].is_none() && results[3].is_none(), "non-members get None");
}

/// `broadcast_value` is one allreduce, so it synchronises without any
/// barrier; `collect` adds only its exit barrier. Counted as this PE's
/// `BarrierStart` events over 50 calls of each.
#[test]
fn broadcast_value_and_collect_take_no_per_call_barriers() {
    const CALLS: usize = 50;
    let counts = ShmemWorld::run(ring(3, TimeModel::zero()), |ctx| {
        let me = ctx.my_pe();
        let log = Arc::clone(ctx.node().obs().log().expect("observed world"));
        log.enable();
        let barriers = || {
            log.merged()
                .iter()
                .filter(|e| usize::from(e.pe) == me && e.kind == EventKind::BarrierStart)
                .count()
        };
        let dest = ctx.calloc_array::<u32>(8).unwrap();
        let start = barriers();
        for i in 0..CALLS {
            let root = i % 3;
            let mine = if me == root { (i * 1000 + root) as u64 } else { u64::MAX };
            assert_eq!(ctx.broadcast_value(mine, root).unwrap(), (i * 1000 + root) as u64);
        }
        let after_broadcasts = barriers();
        for i in 0..CALLS {
            // PE p contributes p + 1 copies of i + p.
            let src = vec![(i + me) as u32; me + 1];
            assert_eq!(ctx.collect(&dest, &src).unwrap(), 6);
            let want: Vec<u32> = (0..3).flat_map(|p| vec![(i + p) as u32; p + 1]).collect();
            assert_eq!(ctx.read_local_slice(&dest, 0, 6).unwrap(), want, "call {i}");
        }
        let after_collects = barriers();
        assert_eq!(log.dropped(), 0, "a truncated trace cannot count barriers");
        (after_broadcasts - start, after_collects - after_broadcasts)
    })
    .unwrap();
    for (pe, &(broadcast, collect)) in counts.iter().enumerate() {
        assert_eq!(broadcast, 0, "pe {pe}: barriers in {CALLS} broadcast_value calls");
        assert_eq!(collect, CALLS, "pe {pe}: barriers in {CALLS} collect calls");
    }
}
