#![allow(clippy::needless_range_loop)]

//! End-to-end tests of the ring protocol: puts, gets, atomics, acks and
//! forwarding across 2–6 hosts, using a plain byte-array delivery target
//! in place of the OpenSHMEM heap.

use std::sync::Arc;
use std::time::Duration;

use ntb_net::{
    AmoOp, DeliveryTarget, NetConfig, RetryPolicy, RingNetwork, RouteDirection, WindowLayout,
};
use ntb_sim::{FaultAction, FaultPlan, Region, Result, TransferMode};
use parking_lot::Mutex;

/// A flat 1 MiB symmetric space backed by a region, with a lock that
/// serializes atomics (what the SHMEM heap provides in the real stack).
struct TestHeap {
    region: Region,
    amo_lock: Mutex<()>,
}

impl TestHeap {
    fn new() -> Arc<Self> {
        Arc::new(TestHeap { region: Region::anonymous(1 << 20), amo_lock: Mutex::new(()) })
    }
}

impl DeliveryTarget for TestHeap {
    fn deliver_put(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.region.write(offset, data)
    }

    fn read_for_get(&self, offset: u64, out: &mut [u8]) -> Result<()> {
        self.region.read(offset, out)
    }

    fn deliver_atomic(
        &self,
        op: AmoOp,
        offset: u64,
        width: usize,
        operand: u64,
        compare: u64,
    ) -> Result<u64> {
        let _guard = self.amo_lock.lock();
        let mut buf = [0u8; 8];
        self.region.read(offset, &mut buf[..width])?;
        let old = u64::from_le_bytes(buf);
        let new = op.apply(old, operand, compare);
        self.region.write(offset, &new.to_le_bytes()[..width])?;
        Ok(old)
    }
}

fn build(hosts: usize) -> (RingNetwork, Vec<Arc<TestHeap>>) {
    build_with(NetConfig::fast(hosts))
}

fn build_with(cfg: NetConfig) -> (RingNetwork, Vec<Arc<TestHeap>>) {
    let hosts = cfg.hosts;
    let net = RingNetwork::build(cfg).unwrap();
    let heaps: Vec<Arc<TestHeap>> = (0..hosts).map(|_| TestHeap::new()).collect();
    for (i, heap) in heaps.iter().enumerate() {
        net.node(i).set_delivery(Arc::clone(heap) as Arc<dyn DeliveryTarget>);
    }
    (net, heaps)
}

fn assert_no_errors(net: &RingNetwork) {
    for node in net.nodes() {
        let errs = node.take_errors();
        assert!(errs.is_empty(), "host {} errors: {errs:?}", node.host_id());
    }
}

#[test]
fn put_to_neighbor_delivers_and_acks() {
    let (net, heaps) = build(3);
    let payload = vec![0xAB_u8; 4096];
    net.node(0).put_bytes(1, 128, &payload, TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("quiet");
    assert_eq!(heaps[1].region.read_vec(128, 4096).unwrap(), payload);
    assert_eq!(net.node(0).outstanding_puts(), 0);
    assert_eq!(net.node(1).stats().puts_delivered.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert_no_errors(&net);
}

#[test]
fn put_two_hops_forwards_through_bypass() {
    let (net, heaps) = build(4);
    let payload: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    // 0 -> 2 is two hops on a 4-ring.
    net.node(0).put_bytes(2, 0, &payload, TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("quiet");
    assert_eq!(heaps[2].region.read_vec(0, 8192).unwrap(), payload);
    // Exactly one intermediate host forwarded (host 1, the rightward path).
    let fwd1 = net.node(1).stats().forwards.load(std::sync::atomic::Ordering::Relaxed);
    assert!(fwd1 >= 1, "host 1 should have forwarded");
    assert_no_errors(&net);
}

#[test]
fn put_chunking_spans_buffer_size() {
    let cfg = NetConfig::fast(3).with_buffers(4096, 4096).with_get_chunk(1024);
    let net = RingNetwork::build(cfg).unwrap();
    let heaps: Vec<Arc<TestHeap>> = (0..3).map(|_| TestHeap::new()).collect();
    for (i, h) in heaps.iter().enumerate() {
        net.node(i).set_delivery(Arc::clone(h) as Arc<dyn DeliveryTarget>);
    }
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
    net.node(0).put_bytes(1, 64, &payload, TransferMode::Memcpy).unwrap();
    net.node(0).quiet().expect("quiet");
    assert_eq!(heaps[1].region.read_vec(64, 20_000).unwrap(), payload);
    // ceil(20000/4096) = 5 chunks delivered.
    assert_eq!(net.node(1).stats().puts_delivered.load(std::sync::atomic::Ordering::Relaxed), 5);
    assert_no_errors(&net);
}

#[test]
fn get_from_neighbor() {
    let (net, heaps) = build(3);
    heaps[2].region.write(500, b"get me back").unwrap();
    let data = net.node(0).get_bytes(2, 500, 11, TransferMode::Dma).unwrap();
    assert_eq!(data, b"get me back");
    assert_no_errors(&net);
}

#[test]
fn get_two_hops_round_trip() {
    let (net, heaps) = build(5);
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 239) as u8).collect();
    heaps[2].region.write(0, &payload).unwrap();
    // 0 -> 2 request travels 2 hops; response returns 2 hops, chunked.
    let data = net.node(0).get_bytes(2, 0, payload.len() as u64, TransferMode::Dma).unwrap();
    assert_eq!(data, payload);
    assert_no_errors(&net);
}

#[test]
fn get_memcpy_mode_round_trip() {
    let (net, heaps) = build(3);
    heaps[1].region.write(0, &[7u8; 3000]).unwrap();
    let data = net.node(2).get_bytes(1, 0, 3000, TransferMode::Memcpy).unwrap();
    assert_eq!(data, vec![7u8; 3000]);
    assert_no_errors(&net);
}

#[test]
fn zero_length_put_and_get() {
    let (net, _heaps) = build(3);
    net.node(0).put_bytes(1, 0, &[], TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("quiet");
    let data = net.node(0).get_bytes(1, 0, 0, TransferMode::Dma).unwrap();
    assert!(data.is_empty());
    assert_no_errors(&net);
}

#[test]
fn bidirectional_traffic() {
    let (net, heaps) = build(3);
    let a = vec![1u8; 10_000];
    let b = vec![2u8; 10_000];
    let n0 = Arc::clone(net.node(0));
    let n1 = Arc::clone(net.node(1));
    let a2 = a.clone();
    let b2 = b.clone();
    let h0 = std::thread::spawn(move || {
        n0.put_bytes(1, 0, &a2, TransferMode::Dma).unwrap();
        n0.quiet().expect("quiet");
    });
    let h1 = std::thread::spawn(move || {
        n1.put_bytes(0, 0, &b2, TransferMode::Dma).unwrap();
        n1.quiet().expect("quiet");
    });
    h0.join().unwrap();
    h1.join().unwrap();
    assert_eq!(heaps[1].region.read_vec(0, 10_000).unwrap(), a);
    assert_eq!(heaps[0].region.read_vec(0, 10_000).unwrap(), b);
    assert_no_errors(&net);
}

#[test]
fn all_pairs_put_get_on_six_ring() {
    let (net, heaps) = build(6);
    for src in 0..6usize {
        for dst in 0..6usize {
            if src == dst {
                continue;
            }
            let payload = vec![(src * 16 + dst) as u8; 777];
            let off = (src * 6 + dst) as u64 * 1024;
            net.node(src).put_bytes(dst, off, &payload, TransferMode::Dma).unwrap();
            net.node(src).quiet().expect("quiet");
            assert_eq!(heaps[dst].region.read_vec(off, 777).unwrap(), payload, "{src}->{dst}");
            let back = net.node(src).get_bytes(dst, off, 777, TransferMode::Dma).unwrap();
            assert_eq!(back, payload, "get {src}<-{dst}");
        }
    }
    assert_no_errors(&net);
}

#[test]
fn two_host_ring_uses_both_links() {
    let (net, heaps) = build(2);
    net.node(0).put_bytes(1, 0, &[5u8; 100], TransferMode::Dma).unwrap();
    net.node(1).put_bytes(0, 0, &[6u8; 100], TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("quiet");
    net.node(1).quiet().expect("quiet");
    assert_eq!(heaps[1].region.read_vec(0, 100).unwrap(), vec![5u8; 100]);
    assert_eq!(heaps[0].region.read_vec(0, 100).unwrap(), vec![6u8; 100]);
    assert_no_errors(&net);
}

#[test]
fn two_host_ring_left_and_right_are_the_two_cables() {
    let (net, _heaps) = build(2);
    let link = |host: usize, dir| net.node(host).endpoint(dir).link_idx();
    for host in 0..2 {
        assert_ne!(link(host, RouteDirection::Left), link(host, RouteDirection::Right));
    }
    // Host i's right adapter and host i+1's left adapter share a cable,
    // so the barrier sweep's doorbells reach the adapter that waits.
    assert_eq!(link(0, RouteDirection::Right), link(1, RouteDirection::Left));
    assert_eq!(link(1, RouteDirection::Right), link(0, RouteDirection::Left));
}

#[test]
fn two_host_ring_put_survives_link_zero_down() {
    // Link 0 stays dark far longer than the retry budget while link 1
    // stays up: the put and its ack reroute over the parallel cable.
    let plan = FaultPlan::none().with_link_down(0, 0, Duration::from_secs(5));
    let (net, heaps) = build_with(NetConfig::fast(2).with_faults(plan));
    let payload: Vec<u8> = (0..1024u32).map(|i| (i * 7 % 251) as u8).collect();
    net.node(0).put_bytes(1, 0, &payload, TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("put must reroute over link 1");
    assert_eq!(heaps[1].region.read_vec(0, 1024).unwrap(), payload);
    let reroutes = net.node(0).stats().reroutes.load(std::sync::atomic::Ordering::Relaxed);
    assert!(reroutes >= 1, "origin must reroute onto link 1");
    let link1 = net.node(0).endpoint(RouteDirection::Left);
    assert_eq!(link1.link_idx(), 1);
    assert!(link1.port().stats().bytes_tx() >= 1024, "link 1 carried the payload");
}

#[test]
fn amo_fetch_add_accumulates_from_all_hosts() {
    let (net, heaps) = build(4);
    // Hosts 1..4 all fetch-add into host 0's counter at offset 0.
    let mut handles = vec![];
    for i in 1..4usize {
        let node = Arc::clone(net.node(i));
        handles.push(std::thread::spawn(move || {
            let mut olds = vec![];
            for _ in 0..50 {
                olds.push(node.amo(0, AmoOp::FetchAdd, 0, 8, 1, 0).unwrap());
            }
            olds
        }));
    }
    let mut all_olds: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    all_olds.sort_unstable();
    // 150 increments: the old values must be exactly 0..150 (each seen once).
    assert_eq!(all_olds, (0..150u64).collect::<Vec<_>>());
    assert_eq!(heaps[0].region.read_u64(0).unwrap(), 150);
    assert_no_errors(&net);
}

#[test]
fn amo_compare_swap_mutual_exclusion() {
    let (net, heaps) = build(3);
    // Only one CAS 0->x can win.
    let n1 = Arc::clone(net.node(1));
    let n2 = Arc::clone(net.node(2));
    let h1 = std::thread::spawn(move || n1.amo(0, AmoOp::CompareSwap, 8, 8, 111, 0).unwrap());
    let h2 = std::thread::spawn(move || n2.amo(0, AmoOp::CompareSwap, 8, 8, 222, 0).unwrap());
    let r1 = h1.join().unwrap();
    let r2 = h2.join().unwrap();
    let winners = [r1, r2].iter().filter(|&&old| old == 0).count();
    assert_eq!(winners, 1, "exactly one CAS wins (olds: {r1}, {r2})");
    let stored = heaps[0].region.read_u64(8).unwrap();
    assert!(stored == 111 || stored == 222);
    assert_no_errors(&net);
}

#[test]
fn amo_narrow_width() {
    let (net, heaps) = build(2);
    heaps[1].region.write(0, &[0xFF, 0xEE, 0xDD, 0xCC]).unwrap();
    // 2-byte swap at offset 0: old must be 0xEEFF, bytes 2..4 untouched.
    let old = net.node(0).amo(1, AmoOp::Swap, 0, 2, 0x1234, 0).unwrap();
    assert_eq!(old, 0xEEFF);
    assert_eq!(heaps[1].region.read_vec(0, 4).unwrap(), vec![0x34, 0x12, 0xDD, 0xCC]);
    assert_no_errors(&net);
}

#[test]
fn barrier_doorbells_travel_right() {
    let (net, _heaps) = build(3);
    // Host 0 rings start on host 1; host 1 sees it from its left.
    net.node(0).send_barrier(RouteDirection::Right, true).unwrap();
    let fired = net
        .node(1)
        .wait_barrier(RouteDirection::Left, true, std::time::Duration::from_secs(1))
        .unwrap();
    assert!(fired);
    // Nothing pending at host 2.
    let fired2 = net
        .node(2)
        .wait_barrier(RouteDirection::Left, true, std::time::Duration::from_millis(20))
        .unwrap();
    assert!(!fired2);
    assert_no_errors(&net);
}

#[test]
fn raw_send_lands_in_neighbor_window() {
    let (net, _heaps) = build(3);
    let src = Region::anonymous(4096);
    src.fill(0, 4096, 0x77).unwrap();
    net.node(0).raw_send(RouteDirection::Right, &src, 0, 0, 4096, TransferMode::Dma).unwrap();
    let win = net.node(1).endpoint(RouteDirection::Left).port().incoming().region();
    assert_eq!(win.read_vec(0, 4096).unwrap(), vec![0x77; 4096]);
}

#[test]
fn stress_random_traffic() {
    use rand::prelude::*;
    let (net, heaps) = build(4);
    let mut rng = rand::rng();
    for round in 0..40 {
        let src = rng.random_range(0..4);
        let mut dst = rng.random_range(0..4);
        if dst == src {
            dst = (dst + 1) % 4;
        }
        let len = rng.random_range(1..5000usize);
        let off = rng.random_range(0..1000u64) * 8;
        let mode = if rng.random_bool(0.5) { TransferMode::Dma } else { TransferMode::Memcpy };
        let payload: Vec<u8> = (0..len).map(|_| rng.random()).collect();
        if rng.random_bool(0.5) {
            net.node(src).put_bytes(dst, off, &payload, mode).unwrap();
            net.node(src).quiet().expect("quiet");
            assert_eq!(
                heaps[dst].region.read_vec(off, len as u64).unwrap(),
                payload,
                "round {round}"
            );
        } else {
            heaps[dst].region.write(off, &payload).unwrap();
            let got = net.node(src).get_bytes(dst, off, len as u64, mode).unwrap();
            assert_eq!(got, payload, "round {round}");
        }
    }
    assert_no_errors(&net);
}

#[test]
fn shutdown_is_clean_and_idempotent() {
    let (net, _heaps) = build(3);
    net.node(0).put_bytes(1, 0, &[1u8; 64], TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("quiet");
    net.shutdown();
    net.shutdown();
}

#[test]
fn trace_records_protocol_events() {
    use ntb_sim::EventKind;
    let (net, heaps) = build(4);
    net.obs_enable();
    net.node(0).put_bytes(2, 0, &[7u8; 4096], TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("quiet");
    heaps[1].region.write(0, &[3u8; 64]).unwrap();
    let _ = net.node(0).get_bytes(1, 0, 64, TransferMode::Dma).unwrap();
    net.obs_disable();
    let events = net.take_events();
    let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
    for kind in [
        EventKind::SlotPublish,
        EventKind::FrameRx,
        EventKind::FrameFwd,
        EventKind::PutDeliver,
        EventKind::PutAcked,
        EventKind::GetServe,
    ] {
        assert!(kinds.contains(&kind), "trace lacks {}: {kinds:?}", kind.name());
    }
    // Globally ordered, PEs in range.
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    assert!(events.iter().all(|e| e.pe < 4));
    // The put was forwarded by host 1 and delivered at host 2.
    assert!(events.iter().any(|e| e.kind == EventKind::FrameFwd && e.pe == 1));
    assert!(events
        .iter()
        .any(|e| e.kind == EventKind::PutDeliver && e.pe == 2 && e.payload[0] == 0));
    // The Chrome export gives each emitting PE its own track and is
    // balanced JSON.
    let json = ntb_sim::events_to_chrome_json(&events);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"name\":\"put_deliver\""), "{json}");
    for pe in 0..3 {
        assert!(json.contains(&format!("\"pid\":{pe},")), "no track for pe {pe}");
    }
    assert!(!json.contains("\"pid\":4,"));
    let depth = json.chars().try_fold(0i64, |d, c| {
        let d = match c {
            '[' | '{' => d + 1,
            ']' | '}' => d - 1,
            _ => d,
        };
        (d >= 0).then_some(d)
    });
    assert_eq!(depth, Some(0), "unbalanced Chrome JSON");
}

#[test]
fn trace_disabled_by_default() {
    let (net, _heaps) = build(2);
    net.node(0).put_bytes(1, 0, &[1u8; 16], TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("quiet");
    assert!(net.take_events().is_empty());
    // The counters are always on.
    let delivered = net.node(1).stats().puts_delivered.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(delivered, 1);
}

/// Regression for the fault-timeline walker: two closely-spaced faults —
/// a freeze with a long hold and a queue shrink scheduled *during* the
/// hold — must each land at their own absolute deadline. The old walker
/// served the freeze's hold inline, pushing the shrink out past the thaw.
#[test]
fn fault_timeline_holds_do_not_delay_later_faults() {
    let faults = ntb_sim::FaultPlan::none()
        .with_node_freeze(
            1,
            std::time::Duration::from_millis(40),
            std::time::Duration::from_millis(500),
        )
        .with_queue_shrink(0, std::time::Duration::from_millis(80), 8);
    let cfg = NetConfig::fast(3).with_faults(faults);
    let net = RingNetwork::build(cfg).unwrap();
    net.obs_enable();
    // Sleep long enough for the shrink's 80 ms deadline (plus scheduling
    // slack) but well short of the freeze's 540 ms completion.
    std::thread::sleep(std::time::Duration::from_millis(250));
    let events = net.take_events();
    let shrink = events
        .iter()
        .find(|e| e.kind == ntb_sim::EventKind::CapacityShrink)
        .expect("queue shrink must land during the freeze hold, not after it");
    assert!(
        shrink.t_us < 450_000,
        "shrink fired at t={}µs: the freeze hold delayed it (inline-hold walker bug)",
        shrink.t_us
    );
    assert_eq!(shrink.op_id, 8, "shrunk capacity travels in op_id");
    // Shutdown mid-hold must thaw the frozen host so its threads join.
    net.shutdown();
}

/// An idle network must stay cold: service threads park in the doorbell
/// wait (bounded busy-waits escalate to sleeping, never spin forever),
/// so no link moves a single frame while nothing is happening.
#[test]
fn idle_service_threads_stay_cold() {
    use std::sync::atomic::Ordering;
    let (net, _heaps) = build(3);
    // Prime the network so every thread is past bring-up, then drain.
    net.node(0).put_bytes(1, 0, &[7u8; 64], TransferMode::Dma).unwrap();
    net.node(0).quiet().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let snapshot = |net: &RingNetwork| -> Vec<u64> {
        net.nodes()
            .iter()
            .flat_map(|n| {
                (0..n.metrics().link_count()).map(|i| {
                    let l = n.metrics().link(i).unwrap();
                    l.frames_tx.load(Ordering::Relaxed)
                        + l.frames_rx.load(Ordering::Relaxed)
                        + l.retransmits.load(Ordering::Relaxed)
                })
            })
            .collect()
    };
    let before = snapshot(&net);
    std::thread::sleep(std::time::Duration::from_millis(300));
    let after = snapshot(&net);
    assert_eq!(before, after, "idle network moved frames: {before:?} -> {after:?}");
    assert_no_errors(&net);
}

#[test]
fn amo_bad_offset_fails_typed_without_leaking_pending_entry() {
    let (net, _heaps) = build(2);
    // An offset past the 32-bit wire field must fail typed *before* the
    // request is registered: a `?` after `pending.register` used to leak
    // the entry (and its AmoReqTx trace event) on this exact path.
    let err = net
        .node(0)
        .amo(1, AmoOp::FetchAdd, u64::from(u32::MAX) + 8, 8, 1, 0)
        .expect_err("oversized offset must be rejected");
    assert!(
        matches!(err, ntb_sim::NtbError::BadDescriptor { .. }),
        "expected BadDescriptor, got {err:?}"
    );
    assert_eq!(net.node(0).pending_in_flight(), 0, "rejected AMO leaked a pending entry");
    // The path stays healthy after the rejection.
    let old = net.node(0).amo(1, AmoOp::FetchAdd, 0, 8, 1, 0).unwrap();
    assert_eq!(old, 0);
    assert_eq!(net.node(0).pending_in_flight(), 0);
    assert_no_errors(&net);
}

/// One burst of `n` 64 B puts from host 0 to host 1 behind deferred
/// doorbells (the shape of an nbi put stream), then `quiet`. Returns
/// host 0's full-ring waits: the `slot_full_waits` link counters and the
/// `SlotFullWait` events, which must agree.
fn full_ring_waits(cfg: NetConfig, n: usize) -> (u64, usize) {
    use std::sync::atomic::Ordering;
    let (net, heaps) = build_with(cfg);
    net.obs_enable();
    let node = net.node(0);
    for i in 0..n {
        node.put_bytes_coalesced(1, (i * 64) as u64, &[i as u8; 64], TransferMode::Dma, true)
            .unwrap();
    }
    node.quiet().unwrap();
    assert_eq!(heaps[1].region.read_vec((n as u64 - 1) * 64, 64).unwrap(), vec![(n - 1) as u8; 64]);
    let m = node.metrics();
    let counted = (0..m.link_count())
        .map(|i| m.link(i).unwrap().slot_full_waits.load(Ordering::SeqCst))
        .sum();
    let logged = net
        .take_events()
        .iter()
        .filter(|e| e.pe == 0 && e.kind == ntb_sim::EventKind::SlotFullWait)
        .count();
    assert_no_errors(&net);
    net.shutdown();
    (counted, logged)
}

/// The default ring holds a whole burst published during one receiver
/// wake (150 µs at paper timing): a burst no longer than the ring never
/// waits for a slot. The same burst on the old 8-slot ring fills it with
/// its first batch and waits for the receiver to drain it.
#[test]
fn default_ring_depth_absorbs_a_burst_that_fills_eight_slots() {
    let depth = NetConfig::paper(2).tx_slots as usize;
    let (counted, logged) = full_ring_waits(NetConfig::paper(2), depth);
    assert_eq!((counted, logged), (0, 0), "a {depth}-put burst waited on the default ring");
    let (counted, logged) = full_ring_waits(NetConfig::paper(2).with_tx_ring(8, 8), depth);
    assert!(counted > 0, "an 8-slot ring must fill under a {depth}-put burst");
    assert_eq!(counted, logged as u64, "every full-ring wait is both counted and logged");
}

/// A put whose ring record fails its CRC is consumed without dispatch,
/// but its sender already spent a credit on it: the receiver must grant
/// that credit back. Rejecting more puts than the link's credit window
/// holds leaves puts flowing; without the re-grant every rejected put
/// (plus its retransmission) nets one credit lost, and the window runs
/// dry.
#[test]
fn rejected_puts_return_their_credits() {
    // A scripted fault that never fires arms the per-slot CRC on every
    // link; the test corrupts the records itself.
    let faults = FaultPlan::none().with_scripted(0, FaultAction::CorruptPayload, u64::MAX);
    let retry = RetryPolicy { ack_timeout: Duration::from_millis(5), ..RetryPolicy::default() };
    let cfg = NetConfig::fast(3).with_faults(faults).with_retry(retry);
    let layout =
        WindowLayout::new(cfg.direct_buf, cfg.bypass_buf, cfg.tx_slots, cfg.coalesce_payload_max);
    let rounds = cfg.overload.credit_window + 8;
    let (net, heaps) = build_with(cfg);
    let node = net.node(0);
    let rx = net.node(1).endpoint(RouteDirection::Left).port().incoming().region();
    // Record words after the header: len, offset, aux, slot sequence,
    // deadline, CRC.
    let word_off = |idx: u32, word: u64| layout.ring_slot_off(idx) + 4 + 4 * word;
    let word = |off: u64| u32::from_le_bytes(rx.read_vec(off, 4).unwrap().try_into().unwrap());
    for round in 0..rounds {
        let data = [round as u8; 64];
        node.put_bytes_coalesced(1, 0, &data, TransferMode::Dma, true).unwrap();
        // The staged record is the ring's newest written one (highest
        // sequence, non-zero length word): its body is written, its
        // header withheld until the flush. Break its CRC.
        let newest = (0..layout.ring_slots)
            .max_by_key(|&i| (word(word_off(i, 3)), word(word_off(i, 0)) != 0))
            .unwrap();
        let crc = word(word_off(newest, 5));
        rx.write(word_off(newest, 5), &(!crc).to_le_bytes()).unwrap();
        // The flush delivers the broken record; the retransmission lands.
        node.quiet().unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(heaps[1].region.read_vec(0, 64).unwrap(), data);
    }
    let rejects = net.node(1).stats().crc_rejects.load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!(rejects, rounds);
    assert_no_errors(&net);
    net.shutdown();
}
