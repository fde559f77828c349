//! Failure injection across the stack: LUT rejections, window-limit
//! violations, symmetric-heap exhaustion and misuse, barrier timeouts
//! against a diverged peer, doorbell masking, and the lossy-link
//! recovery scenarios (dropped doorbells, corrupted payloads, link-down
//! windows, retry exhaustion).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shmem_ntb::net::{
    doorbells, AmoOp, DeliveryTarget, NetConfig, RetryPolicy, RingNetwork, RouteDirection,
};
use shmem_ntb::shmem::{OpOptions, ShmemConfig, ShmemError, ShmemWorld};
use shmem_ntb::sim::{
    connect_ports, DoorbellWaiter, EventKind, FaultAction, FaultPlan, HostMemory, LinkHealth,
    NtbError, PortConfig, Region, TimeModel, TransferMode,
};

#[test]
fn lut_rejection_blocks_and_recovers() {
    let ma = HostMemory::new(0, 64 << 20);
    let mb = HostMemory::new(1, 64 << 20);
    let cfg_a = PortConfig::new(0, 1);
    let a_reqid = cfg_a.requester_id;
    let (a, b) =
        connect_ports(cfg_a, PortConfig::new(1, 0), &ma, &mb, Arc::new(TimeModel::zero())).unwrap();
    a.pio_write(0, b"allowed").unwrap();
    // Pull A's requester id out of B's admission table: traffic must fail
    // observably, not corrupt memory.
    b.lut().disable(a_reqid);
    let before = b.incoming().region().read_vec(0, 7).unwrap();
    let err = a.pio_write(0, b"BLOCKED").unwrap_err();
    assert_eq!(err, NtbError::LutMiss { requester_id: a_reqid });
    assert_eq!(b.incoming().region().read_vec(0, 7).unwrap(), before, "no partial write");
    assert_eq!(b.stats().lut_rejects(), 1);
    // Re-enabling restores the link.
    b.lut().insert(a_reqid);
    a.pio_write(0, b"again ok").unwrap();
}

#[test]
fn window_limit_violation_is_typed_and_harmless() {
    let ma = HostMemory::new(0, 64 << 20);
    let mb = HostMemory::new(1, 64 << 20);
    let (a, _b) = connect_ports(
        PortConfig::new(0, 1).with_window_size(4096),
        PortConfig::new(1, 0).with_window_size(4096),
        &ma,
        &mb,
        Arc::new(TimeModel::zero()),
    )
    .unwrap();
    let err = a.pio_write(4000, &[0u8; 200]).unwrap_err();
    assert!(matches!(err, NtbError::WindowLimitExceeded { .. }));
    assert_eq!(a.stats().window_violations(), 1);
    // The DMA path reports the same failure through its completion.
    let src = Region::anonymous(256);
    let h = a
        .dma_submit(shmem_ntb::sim::DmaRequest { src, src_offset: 0, dst_offset: 4000, len: 200 })
        .unwrap();
    assert!(matches!(h.wait(), Err(NtbError::WindowLimitExceeded { .. })));
}

#[test]
fn masked_doorbell_defers_service_until_unmask() {
    let net = RingNetwork::build(NetConfig::fast(2)).unwrap();
    let n1 = net.node(1);
    let port = n1.endpoint(RouteDirection::Left).port();
    // Mask the barrier-start vector at host 1, ring it from host 0: it
    // must latch but not deliver, then fire on unmask.
    port.doorbell().mask(1 << doorbells::DB_BARRIER_START);
    net.node(0).send_barrier(RouteDirection::Right, true).unwrap();
    let waited = n1.wait_barrier(RouteDirection::Left, true, Duration::from_millis(30)).unwrap();
    assert!(!waited, "masked interrupt must not deliver");
    port.doorbell().unmask(1 << doorbells::DB_BARRIER_START);
    let waited = n1.wait_barrier(RouteDirection::Left, true, Duration::from_secs(1)).unwrap();
    assert!(waited, "latched interrupt replays on unmask");
}

#[test]
fn symmetric_heap_exhaustion_is_reported_per_pe() {
    // Tiny host arenas: the windows fit, the second big malloc does not.
    let mut cfg = ShmemConfig::fast_sim().with_hosts(2).with_heap_chunk(1 << 20);
    cfg.net.host_mem_capacity = 64 << 20;
    cfg.net.window_size = 1 << 20;
    let outcomes = ShmemWorld::run(cfg, |ctx| {
        // Two links/host * 1 MiB windows = 2 MiB; leave room for one 32 MiB
        // heap grab, then exhaust.
        let first = ctx.malloc(32 << 20);
        assert!(first.is_ok());
        let second = ctx.heap().malloc(512 << 20);
        matches!(second, Err(ShmemError::OutOfSymmetricMemory { .. }))
    })
    .unwrap();
    assert_eq!(outcomes, vec![true, true]);
}

#[test]
fn invalid_and_double_free_detected() {
    ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(2), |ctx| {
        let a = ctx.malloc(128).unwrap();
        ctx.free(a).unwrap();
        let err = ctx.free(a).unwrap_err();
        assert!(matches!(err, ShmemError::InvalidFree { .. }));
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn barrier_times_out_against_diverged_peer() {
    let mut cfg = ShmemConfig::fast_sim().with_hosts(3);
    cfg.barrier_timeout = Duration::from_millis(200);
    let outcomes = ShmemWorld::run(cfg, |ctx| {
        if ctx.my_pe() == 2 {
            // PE 2 "diverges": it never reaches the barrier.
            return true;
        }
        // The detector is disabled here, so the stall surfaces as a
        // timeout naming the stalled phase and the neighbour waited on.
        matches!(ctx.barrier_all(), Err(ShmemError::BarrierTimeout { .. }))
    })
    .unwrap();
    assert_eq!(outcomes, vec![true, true, true]);
}

#[test]
fn wait_until_times_out_when_nobody_writes() {
    let mut cfg = ShmemConfig::fast_sim().with_hosts(2);
    cfg.wait_timeout = Duration::from_millis(100);
    ShmemWorld::run(cfg, |ctx| {
        let sym = ctx.calloc_array::<u64>(1).unwrap();
        let err = ctx.wait_until(&sym, 0, shmem_ntb::shmem::CmpOp::Eq, 1u64).unwrap_err();
        assert_eq!(err, ShmemError::WaitTimeout);
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn oversized_transfers_rejected_cleanly() {
    ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(2), |ctx| {
        let sym = ctx.calloc_array::<u8>(64).unwrap();
        // Out-of-bounds put and get: typed errors, no panic, no delivery.
        assert!(matches!(
            ctx.put_slice(&sym, 60, &[0u8; 10], 1),
            Err(ShmemError::SymmetricBounds { .. })
        ));
        assert!(matches!(
            ctx.get_slice::<u8>(&sym, 0, 65, 1),
            Err(ShmemError::SymmetricBounds { .. })
        ));
        ctx.barrier_all().unwrap();
        // The world is still healthy afterwards.
        if ctx.my_pe() == 0 {
            ctx.put_slice(&sym, 0, &[7u8; 64], 1).unwrap();
        }
        ctx.barrier_all().unwrap();
        if ctx.my_pe() == 1 {
            assert_eq!(ctx.read_local_slice::<u8>(&sym, 0, 64).unwrap(), vec![7u8; 64]);
        }
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn transfer_mode_failures_do_not_wedge_the_ring() {
    // Interleave failing and succeeding operations in both modes.
    ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(3), |ctx| {
        let sym = ctx.calloc_array::<u8>(256).unwrap();
        for round in 0..10 {
            let mode = if round % 2 == 0 { TransferMode::Dma } else { TransferMode::Memcpy };
            let bad = ctx.put_slice_opts(&sym, 200, &[0u8; 100], 1, OpOptions::new().mode(mode));
            assert!(bad.is_err());
            if ctx.my_pe() == 0 {
                ctx.put_slice_opts(&sym, 0, &[round as u8; 16], 1, OpOptions::new().mode(mode))
                    .unwrap();
            }
            ctx.barrier_all().unwrap();
            if ctx.my_pe() == 1 {
                assert_eq!(ctx.read_local::<u8>(&sym, 0).unwrap(), round as u8);
            }
            ctx.barrier_all().unwrap();
        }
    })
    .unwrap();
}

#[test]
fn doorbell_waiter_timeout_is_clean() {
    let net = RingNetwork::build(NetConfig::fast(2)).unwrap();
    let port = net.node(0).endpoint(RouteDirection::Right).port();
    let r = port.wait_doorbell(1 << doorbells::DB_BARRIER_END, Some(Duration::from_millis(20)));
    assert_eq!(r, DoorbellWaiter::TimedOut);
}

// ---------------------------------------------------------------------------
// Lossy-link recovery scenarios: scripted fault plans exercising the
// end-to-end retransmission, checksum, reroute and bounded-failure
// machinery of the ntb-net layer.
// ---------------------------------------------------------------------------

/// A flat 1 MiB symmetric space standing in for the OpenSHMEM heap, so
/// the recovery protocol can be observed without the shmem runtime in
/// the way.
struct LossyHeap {
    region: Region,
    amo_lock: std::sync::Mutex<()>,
}

impl LossyHeap {
    fn new() -> Arc<Self> {
        Arc::new(LossyHeap {
            region: Region::anonymous(1 << 20),
            amo_lock: std::sync::Mutex::new(()),
        })
    }
}

impl DeliveryTarget for LossyHeap {
    fn deliver_put(&self, offset: u64, data: &[u8]) -> shmem_ntb::sim::Result<()> {
        self.region.write(offset, data)
    }

    fn read_for_get(&self, offset: u64, out: &mut [u8]) -> shmem_ntb::sim::Result<()> {
        self.region.read(offset, out)
    }

    fn deliver_atomic(
        &self,
        op: AmoOp,
        offset: u64,
        width: usize,
        operand: u64,
        compare: u64,
    ) -> shmem_ntb::sim::Result<u64> {
        let _guard = self.amo_lock.lock().unwrap();
        let mut buf = [0u8; 8];
        self.region.read(offset, &mut buf[..width])?;
        let old = u64::from_le_bytes(buf);
        let new = op.apply(old, operand, compare);
        self.region.write(offset, &new.to_le_bytes()[..width])?;
        Ok(old)
    }
}

/// Tight timeouts so recovery rounds complete in milliseconds.
fn lossy_retry() -> RetryPolicy {
    RetryPolicy {
        min_rto: Duration::from_millis(40),
        max_rto: Duration::from_millis(80),
        max_retries: 4,
        probe_interval: Duration::from_millis(20),
        failure_threshold: 2,
    }
}

fn build_lossy(hosts: usize, faults: FaultPlan) -> (RingNetwork, Vec<Arc<LossyHeap>>) {
    let cfg = NetConfig::fast(hosts).with_retry(lossy_retry()).with_faults(faults);
    let net = RingNetwork::build(cfg).unwrap();
    let heaps: Vec<Arc<LossyHeap>> = (0..hosts).map(|_| LossyHeap::new()).collect();
    for (i, heap) in heaps.iter().enumerate() {
        net.node(i).set_delivery(Arc::clone(heap) as Arc<dyn DeliveryTarget>);
    }
    (net, heaps)
}

#[test]
fn dropped_doorbell_put_is_retransmitted_to_completion() {
    // The handshake uses only scratchpad spin-waits, so the very first
    // doorbell on link 0 (host 0 -> host 1) is this put's DMA doorbell.
    let plan = FaultPlan::none().with_seed(7).with_scripted(0, FaultAction::DropDoorbell, 1);
    let (net, heaps) = build_lossy(3, plan);
    let payload: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 251) as u8).collect();
    net.node(0).put_bytes(1, 256, &payload, TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("put must complete despite the dropped doorbell");
    assert_eq!(heaps[1].region.read_vec(256, 4096).unwrap(), payload, "heap must be byte-exact");
    let dropped: u64 = net.fault_stats().iter().map(|s| s.doorbells_dropped).sum();
    assert_eq!(dropped, 1, "exactly the scripted doorbell was dropped");
    assert_eq!(net.node(0).outstanding_puts(), 0);
    for node in net.nodes() {
        assert!(node.take_errors().is_empty(), "host {} saw errors", node.host_id());
    }
}

#[test]
fn corrupted_payload_is_rejected_and_redelivered() {
    // The first window write on link 0 is the put's payload; it is
    // corrupted in flight, so the receiver's CRC check must reject it
    // and the ack-timeout sweeper must redeliver a clean copy.
    let plan = FaultPlan::none().with_seed(9).with_scripted(0, FaultAction::CorruptPayload, 1);
    let (net, heaps) = build_lossy(3, plan);
    let payload: Vec<u8> = (0..8192u32).map(|i| (i * 13 % 251) as u8).collect();
    net.node(0).put_bytes(1, 0, &payload, TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("put must complete despite the corrupted payload");
    assert_eq!(heaps[1].region.read_vec(0, 8192).unwrap(), payload, "heap must be byte-exact");
    let corrupted: u64 = net.fault_stats().iter().map(|s| s.payloads_corrupted).sum();
    assert_eq!(corrupted, 1, "exactly the scripted payload write was corrupted");
    assert!(
        net.node(1).stats().crc_rejects.load(Ordering::Relaxed) >= 1,
        "receiver must have rejected the corrupted frame"
    );
    assert!(
        net.node(0).stats().retransmits.load(Ordering::Relaxed) >= 1,
        "origin must have retransmitted after the missing ack"
    );
    for node in net.nodes() {
        assert!(node.take_errors().is_empty(), "host {} saw errors", node.host_id());
    }
}

#[test]
fn link_down_window_reroutes_and_recovers() {
    // Link 0 (host 0 <-> host 1) goes dark for 150 ms the moment it is
    // first used. The put from 0 to 1 must arrive the long way around
    // (0 -> 2 -> 1), and once the outage expires a probe must bring the
    // endpoint back to Up.
    let plan = FaultPlan::none().with_link_down(0, 0, Duration::from_millis(150));
    let (net, heaps) = build_lossy(3, plan);
    let payload: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    net.node(0).put_bytes(1, 512, &payload, TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("put must complete via the long way around");
    assert_eq!(heaps[1].region.read_vec(512, 4096).unwrap(), payload, "heap must be byte-exact");
    let stats = net.node(0).stats();
    assert!(stats.link_down_events.load(Ordering::Relaxed) >= 1, "endpoint must go Down");
    assert!(stats.reroutes.load(Ordering::Relaxed) >= 1, "traffic must reroute leftward");
    let windows: u64 = net.fault_stats().iter().map(|s| s.link_down_windows).sum();
    assert_eq!(windows, 1, "exactly one outage window fired");
    // Recovery: the sweeper probes the Down endpoint; once the window
    // expires the probe succeeds and health returns to Up.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if net.node(0).endpoint(RouteDirection::Right).health() == LinkHealth::Up {
            break;
        }
        assert!(Instant::now() < deadline, "link did not recover after the outage window");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(net.node(0).stats().probes_sent.load(Ordering::Relaxed) >= 1, "sweeper must probe");
    // The restored path carries traffic again.
    let second: Vec<u8> = (0..2048u32).map(|i| (i * 3 % 251) as u8).collect();
    net.node(0).put_bytes(1, 65536, &second, TransferMode::Memcpy).unwrap();
    net.node(0).quiet().expect("post-recovery put");
    assert_eq!(heaps[1].region.read_vec(65536, 2048).unwrap(), second);
    for node in net.nodes() {
        assert!(node.take_errors().is_empty(), "host {} saw errors", node.host_id());
    }
}

#[test]
fn exhausted_retries_fail_within_the_policy_deadline() {
    // Both links of a 2-host ring stay dark for far longer than the
    // retry budget: the put must be abandoned and surface as a typed
    // LinkFailed from quiet(), within the policy's worst-case bound.
    let outage = Duration::from_secs(30);
    let plan = FaultPlan::none().with_link_down(0, 0, outage).with_link_down(1, 0, outage);
    let (net, _heaps) = build_lossy(2, plan);
    let policy = lossy_retry();
    let start = Instant::now();
    net.node(0).put_bytes(1, 0, &[0xEE; 1024], TransferMode::Dma).unwrap();
    let err = net.node(0).quiet().expect_err("put cannot complete with every link down");
    let elapsed = start.elapsed();
    assert!(
        matches!(err, NtbError::LinkFailed { attempts } if attempts >= 1),
        "expected LinkFailed, got {err:?}"
    );
    // Generous slack over worst_case() for sweeper tick granularity and
    // scheduler noise; the point is "bounded", not "instant".
    let bound = policy.worst_case() + Duration::from_secs(2);
    assert!(elapsed < bound, "failure took {elapsed:?}, bound {bound:?}");
    assert_eq!(net.node(0).outstanding_puts(), 0, "abandoned put must not linger");
    // A second quiet() must not re-report the consumed failure.
    net.node(0).quiet().expect("failure already reported and cleared");
}

#[test]
fn deadlined_get_fails_typed_and_fast_on_a_dark_link() {
    // Both links dark for far longer than both the op deadline and the
    // retry budget: a windowed get must surface the *typed*
    // DeadlineExceeded at its ~30ms budget — not LinkFailed after the
    // policy's full retry budget, and never a hang. The 30ms budget is
    // deliberately shorter than one `min_rto`, so the deadline clip in
    // the bounded wait is what fires, not a retransmission attempt.
    let outage = Duration::from_secs(30);
    let plan = FaultPlan::none().with_link_down(0, 0, outage).with_link_down(1, 0, outage);
    let cfg = NetConfig::fast(2)
        .with_retry(lossy_retry())
        .with_faults(plan)
        .with_get_pipeline(8 << 10, 4); // 8 sub-requests: the whole window sheds
    let net = RingNetwork::build(cfg).unwrap();
    let heaps: Vec<Arc<LossyHeap>> = (0..2).map(|_| LossyHeap::new()).collect();
    for (i, heap) in heaps.iter().enumerate() {
        net.node(i).set_delivery(Arc::clone(heap) as Arc<dyn DeliveryTarget>);
    }
    let deadline_us = net.node(0).deadline_us_in(Duration::from_millis(30));
    let start = Instant::now();
    let err = net
        .node(0)
        .get_bytes_opts(1, 0, 64 << 10, TransferMode::Dma, deadline_us)
        .expect_err("get cannot complete with every link down");
    let elapsed = start.elapsed();
    assert!(matches!(err, NtbError::DeadlineExceeded), "expected DeadlineExceeded, got {err:?}");
    let budget = lossy_retry().worst_case();
    assert!(
        elapsed < budget,
        "deadlined get took {elapsed:?}; it must resolve at its ~30ms deadline, \
         not wait out the {budget:?} retry budget"
    );
    net.node(0).quiet().expect("a shed get must leave no failure record behind");
}

#[test]
fn shmem_get_deadline_is_typed_at_the_api() {
    // End-to-end through the SHMEM API: a bulk pipelined get with an
    // immediately-expiring OpOptions deadline surfaces the typed
    // ShmemError::DeadlineExceeded, and the context stays fully usable —
    // the same get without a deadline then completes byte-exact.
    const ELEMS: usize = 8 << 10; // 64 KiB: well past the PIO crossover
    let cfg = ShmemConfig::fast_sim().with_hosts(2).with_get_pipeline(8 << 10, 4);
    ShmemWorld::run(cfg, |ctx| {
        let sym = ctx.calloc_array::<u64>(ELEMS).unwrap();
        let pattern: Vec<u64> = (0..ELEMS as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        if ctx.my_pe() == 1 {
            ctx.write_local_slice(&sym, 0, &pattern).unwrap();
        }
        ctx.barrier_all().unwrap();
        if ctx.my_pe() == 0 {
            let opts = OpOptions::new().deadline(Duration::from_micros(1));
            let err = ctx
                .get_slice_opts::<u64>(&sym, 0, ELEMS, 1, opts)
                .expect_err("a 1µs budget cannot cover a 64 KiB windowed get");
            assert!(
                matches!(err, ShmemError::DeadlineExceeded),
                "expected the typed DeadlineExceeded, got {err}"
            );
            let got = ctx.get_slice::<u64>(&sym, 0, ELEMS, 1).unwrap();
            assert_eq!(got, pattern, "the context must stay usable after the shed get");
        }
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn quiet_after_abandonment_is_clean_for_puts_on_the_restored_link() {
    // Regression: a finite outage long enough to exhaust the retry
    // budget abandons the in-flight put (quiet -> LinkFailed), then the
    // link recovers. Subsequent puts must complete with a clean quiet()
    // and an empty unacked table — generations must not bleed: no stale
    // entry from the abandoned put, no stale failure record, and no
    // late ack of the dead put id resurrecting anything.
    // Twice the retry schedule: the first put is abandoned (with room
    // for the sweeper's tick) well before the links come back.
    let outage = lossy_retry().worst_case() * 2;
    let plan = FaultPlan::none().with_link_down(0, 0, outage).with_link_down(1, 0, outage);
    let (net, heaps) = build_lossy(2, plan);
    net.obs_enable();
    net.node(0).put_bytes(1, 0, &[0xAB; 1024], TransferMode::Dma).unwrap();
    let err = net.node(0).quiet().expect_err("put cannot survive the outage");
    assert!(matches!(err, NtbError::LinkFailed { .. }), "expected LinkFailed, got {err:?}");
    assert_eq!(net.node(0).outstanding_puts(), 0, "abandoned put must leave the table");
    // Second generation, issued while the links are still dark: the
    // sweeper owns it. Depending on where the outage ends it either
    // completes after recovery or is abandoned — both are legal, but in
    // both cases its fate must be reported exactly once and nothing may
    // linger.
    net.node(0).put_bytes(1, 2048, &[0xCD; 1024], TransferMode::Dma).unwrap();
    // Wait out the outage until a probe restores either endpoint.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let up = [RouteDirection::Right, RouteDirection::Left]
            .iter()
            .any(|&d| net.node(0).endpoint(d).health() == LinkHealth::Up);
        if up {
            break;
        }
        assert!(Instant::now() < deadline, "no endpoint recovered after the outage window");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Resolve the second generation: delivered or abandoned, exactly
    // once, leaving the table empty either way.
    match net.node(0).quiet() {
        Ok(()) => {
            assert_eq!(
                heaps[1].region.read_vec(2048, 1024).unwrap(),
                vec![0xCD; 1024],
                "second-generation put must be byte-exact when it completes"
            );
        }
        Err(e) => {
            assert!(matches!(e, NtbError::LinkFailed { .. }), "unexpected error {e:?}");
        }
    }
    assert_eq!(net.node(0).outstanding_puts(), 0, "second generation must not linger");
    net.node(0).quiet().expect("failure records must not survive their report");
    // Fresh puts on the restored link: every one must ack, quiet must be
    // clean, and nothing may linger in the unacked table afterwards.
    for round in 0..4u8 {
        let payload = vec![round.wrapping_mul(31).wrapping_add(5); 2048];
        net.node(0)
            .put_bytes(1, 4096 + u64::from(round) * 4096, &payload, TransferMode::Dma)
            .unwrap();
        net.node(0).quiet().unwrap_or_else(|e| {
            panic!("post-recovery quiet round {round} failed: {e:?}");
        });
        assert_eq!(
            net.node(0).outstanding_puts(),
            0,
            "stale unacked entries after post-recovery round {round}"
        );
        assert_eq!(
            heaps[1].region.read_vec(4096 + u64::from(round) * 4096, 2048).unwrap(),
            payload,
            "post-recovery payload round {round}"
        );
    }
    // The merged trace must satisfy every protocol invariant: in
    // particular the abandoned put resolved exactly once (PutAbandon)
    // and its late acks, if any, were suppressed rather than double
    // resolving it.
    let events = net.take_events();
    let report = shmem_ntb::net::check(&events, 2);
    assert!(
        report.is_clean(),
        "invariant violations after recovery:\n{}",
        report.render_violations()
    );
    for node in net.nodes() {
        assert!(node.take_errors().is_empty(), "host {} saw errors", node.host_id());
    }
}

#[test]
fn every_put_resolution_is_logged_before_quiet_returns() {
    // Regression: the ack path used to retire a put from the unacked
    // table before logging its `PutAcked`, so `quiet()` could return —
    // and a trace snapshot miss the resolution — in the gap between the
    // two. Each round's snapshot, taken right after its quiet, must hold
    // the resolution of every put issued in it.
    let (net, _heaps) = build_lossy(2, FaultPlan::none());
    net.obs_enable();
    for round in 0..300u64 {
        net.node(0).put_bytes(1, (round % 16) * 64, &[round as u8; 64], TransferMode::Dma).unwrap();
        net.node(0).quiet().expect("clean-link quiet");
        let events = net.take_events();
        let issued: Vec<u64> =
            events.iter().filter(|e| e.kind == EventKind::PutIssue).map(|e| e.op_id).collect();
        assert!(!issued.is_empty(), "round {round}: the put left no PutIssue");
        for id in issued {
            assert!(
                events.iter().any(|e| e.kind == EventKind::PutAcked && e.op_id == id),
                "round {round}: quiet returned before put {id}'s PutAcked was logged"
            );
        }
    }
}
