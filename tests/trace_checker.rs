//! The protocol-invariant checker as a test harness: clean workloads
//! must certify clean, recovery under injected faults must certify
//! clean, and a *deliberately broken* protocol — acknowledgements
//! suppressed by the fault plan — must be caught, with the offending
//! trace window dumped to `target/trace-dumps/` exactly as a real
//! violation would be.
//!
//! This is the negative control for the chaos matrix in `chaos.rs`: a
//! checker that cannot flag a protocol with its acks cut off would
//! certify anything.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use shmem_ntb::net::{
    check, AmoOp, DeliveryTarget, HeartbeatConfig, NetConfig, RetryPolicy, RingNetwork, Violation,
};
use shmem_ntb::shmem::{ReduceOp, ShmemConfig, ShmemWorld};
use shmem_ntb::sim::{
    render_events, EventKind, FaultAction, FaultPlan, Region, TraceEvent, TransferMode,
};

struct TraceHeap {
    region: Region,
    amo_lock: std::sync::Mutex<()>,
}

impl TraceHeap {
    fn new() -> Arc<Self> {
        Arc::new(TraceHeap {
            region: Region::anonymous(1 << 20),
            amo_lock: std::sync::Mutex::new(()),
        })
    }
}

impl DeliveryTarget for TraceHeap {
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

fn attach_heaps(net: &RingNetwork, hosts: usize) -> Vec<Arc<TraceHeap>> {
    let heaps: Vec<Arc<TraceHeap>> = (0..hosts).map(|_| TraceHeap::new()).collect();
    for (i, heap) in heaps.iter().enumerate() {
        net.node(i).set_delivery(Arc::clone(heap) as Arc<dyn DeliveryTarget>);
    }
    heaps
}

fn lossy_retry() -> RetryPolicy {
    RetryPolicy {
        min_rto: Duration::from_millis(40),
        max_rto: Duration::from_millis(80),
        max_retries: 4,
        probe_interval: Duration::from_millis(20),
        failure_threshold: 2,
    }
}

fn dump_violations(label: &str, violations: &[Violation], events: &[TraceEvent]) -> PathBuf {
    let dir = PathBuf::from("target/trace-dumps");
    std::fs::create_dir_all(&dir).expect("create target/trace-dumps");
    let path = dir.join(format!("{label}.txt"));
    let rendered: String = violations.iter().map(|v| v.render()).collect();
    let body = format!(
        "{} violation(s) in {} events\n\n{}\nfull trace:\n{}",
        violations.len(),
        events.len(),
        rendered,
        render_events(events),
    );
    std::fs::write(&path, body).expect("write trace dump");
    path
}

/// A full SHMEM workload — puts, strided puts/gets, atomics, barriers,
/// broadcast and a reduction — certifies clean, and the trace contains
/// every layer's events (API issue/complete, chunk transport, AMO
/// application, barrier rounds).
#[test]
fn shmem_workload_trace_is_certified_clean() {
    const PES: usize = 3;
    let results = ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(PES), |ctx| {
        let log = ctx.node().obs().log().expect("observed world");
        log.enable();
        let sym = ctx.calloc_array::<u64>(256).expect("alloc");
        let right = (ctx.my_pe() + 1) % ctx.num_pes();
        let data: Vec<u64> = (0..64).map(|i| (ctx.my_pe() * 1000 + i) as u64).collect();
        ctx.put_slice(&sym, 0, &data, right).expect("put");
        ctx.iput(&sym, 64, 2, &data, 1, 32, right).expect("iput");
        ctx.quiet().expect("quiet");
        ctx.barrier_all().expect("barrier");
        let back = ctx.get_slice::<u64>(&sym, 0, 64, right).expect("get");
        assert_eq!(back.len(), 64);
        ctx.iget(&sym, 64, 2, 32, right).expect("iget");
        ctx.atomic_fetch_add(&sym, 255, 1u64, 0).expect("amo");
        ctx.barrier_all().expect("barrier");
        let sum = ctx.allreduce(ReduceOp::Sum, &[ctx.my_pe() as u64]).expect("allreduce");
        assert_eq!(sum, vec![(0..PES as u64).sum::<u64>()]);
        ctx.free_array(sym).expect("free");
        std::sync::Arc::clone(log)
    })
    .expect("world");
    let log = &results[0];
    let events = log.take();
    assert_eq!(log.dropped(), 0, "trace must be complete");
    let report = check(&events, PES);
    if !report.is_clean() {
        let path = dump_violations("shmem-workload", &report.violations, &events);
        panic!("clean workload flagged; dump at {}", path.display());
    }
    assert!(report.puts_checked > 0, "puts traced");
    assert!(report.gets_checked > 0, "gets traced");
    assert!(report.amos_checked > 0, "AMOs traced");
    assert!(report.barriers_checked > 0, "barriers traced");
    for kind in [
        EventKind::ApiPutIssue,
        EventKind::ApiGetComplete,
        EventKind::BarrierStart,
        EventKind::BarrierEnd,
        EventKind::QuietStart,
        EventKind::PutDeliver,
    ] {
        assert!(events.iter().any(|e| e.kind == kind), "trace must contain {}", kind.name());
    }
}

/// One scripted dropped ack forces an end-to-end retransmission; the
/// recovery leaves a clean trace — the retransmit is visible, the put
/// still resolves exactly once (the duplicate ack path must not
/// double-resolve it).
#[test]
fn recovered_ack_drop_certifies_clean() {
    const HOSTS: usize = 2;
    let plan = FaultPlan::none().with_seed(11).with_scripted(0, FaultAction::DropAck, 1);
    let cfg = NetConfig::fast(HOSTS).with_retry(lossy_retry()).with_faults(plan);
    let net = RingNetwork::build(cfg).unwrap();
    net.obs_enable();
    let heaps = attach_heaps(&net, HOSTS);

    let payload = vec![0xA5u8; 4096];
    net.node(0).put_bytes(1, 512, &payload, TransferMode::Memcpy).unwrap();
    net.node(0).quiet().expect("retransmission recovers the dropped ack");
    assert_eq!(net.node(0).outstanding_puts(), 0);
    assert_eq!(heaps[1].region.read_vec(512, 4096).unwrap(), payload);
    assert_eq!(net.fault_stats_total().acks_suppressed, 1, "the scripted drop fired");

    let events = net.take_events();
    let report = check(&events, HOSTS);
    if !report.is_clean() {
        let path = dump_violations("recovered-ack-drop", &report.violations, &events);
        panic!("recovered run flagged; dump at {}", path.display());
    }
    assert!(
        events.iter().any(|e| e.kind == EventKind::Retransmit),
        "the dropped ack must force a visible retransmission"
    );
    for node in net.nodes() {
        assert!(node.take_errors().is_empty());
    }
}

/// Negative control: with *every* ack suppressed and a retry policy too
/// patient to abandon within the observation window, the trace shows a
/// put that never resolves — the checker must flag it and the harness
/// must produce a readable trace-window artifact.
#[test]
fn suppressed_acks_are_caught_by_the_checker() {
    const HOSTS: usize = 2;
    let plan = FaultPlan::none().with_seed(13).with_ack_drop(1.0);
    let patient = RetryPolicy {
        min_rto: Duration::from_secs(30),
        max_rto: Duration::from_secs(30),
        max_retries: 1,
        probe_interval: Duration::from_millis(20),
        failure_threshold: 1000,
    };
    let cfg = NetConfig::fast(HOSTS).with_retry(patient).with_faults(plan);
    let net = RingNetwork::build(cfg).unwrap();
    net.obs_enable();
    let heaps = attach_heaps(&net, HOSTS);

    let payload = vec![0x5Au8; 2048];
    net.node(0).put_bytes(1, 256, &payload, TransferMode::Memcpy).unwrap();
    // The put is delivered (data plane works) but its ack never returns.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while heaps[1].region.read_vec(256, 2048).unwrap() != payload {
        assert!(std::time::Instant::now() < deadline, "put must still be delivered");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(net.node(0).outstanding_puts(), 1, "the put can never be acknowledged");
    assert!(net.fault_stats_total().acks_suppressed >= 1);

    let events = net.take_events();
    let report = check(&events, HOSTS);
    assert!(!report.is_clean(), "an unresolvable put must not certify");
    let broken: Vec<&Violation> =
        report.violations.iter().filter(|v| v.invariant == "put-resolution").collect();
    assert!(
        !broken.is_empty(),
        "expected a put-resolution violation, got: {}",
        report.render_violations()
    );
    assert!(
        broken[0].message.contains("never acked nor abandoned"),
        "violation names the unresolved put: {}",
        broken[0].message
    );
    assert!(!broken[0].window.is_empty(), "violation carries its trace window");

    // The artifact a CI failure would upload: render it and check it is
    // a readable account of the failure.
    let path = dump_violations("negative-ack-suppressed", &report.violations, &events);
    let dump = std::fs::read_to_string(&path).unwrap();
    assert!(dump.contains("put-resolution"), "dump names the invariant");
    assert!(dump.contains("put_issue"), "dump shows the unresolved put's issue event");
}

/// Tampering control: start from a certified-clean trace and erase the
/// target-side AMO applications — the checker must notice that the AMO
/// completions have no matching application.
#[test]
fn tampered_trace_fails_amo_invariant() {
    const HOSTS: usize = 2;
    let cfg = NetConfig::fast(HOSTS).with_retry(lossy_retry());
    let net = RingNetwork::build(cfg).unwrap();
    net.obs_enable();
    let _heaps = attach_heaps(&net, HOSTS);
    net.node(0).amo(1, AmoOp::FetchAdd, 64, 8, 3, 0).unwrap();

    let events = net.take_events();
    assert!(check(&events, HOSTS).is_clean(), "baseline trace must certify");
    let tampered: Vec<TraceEvent> =
        events.into_iter().filter(|e| e.kind != EventKind::AmoApply).collect();
    let report = check(&tampered, HOSTS);
    assert!(
        report.violations.iter().any(|v| v.invariant == "amo-exactly-once"),
        "erased AMO application must be flagged, got: {}",
        report.render_violations()
    );
}

/// Regression: the AMO response used to complete the pending entry
/// without logging anything, and the requester logged `AmoDone` only
/// after it woke, so a snapshot could show a completed AMO with no
/// resolution. The service thread now logs `AmoDone` under the entry
/// lock, before the requester can return: every snapshot taken after an
/// AMO returns holds its `AmoDone`, logged by the origin.
#[test]
fn every_amo_resolution_is_logged_before_the_amo_returns() {
    const HOSTS: usize = 2;
    let net = RingNetwork::build(NetConfig::fast(HOSTS)).unwrap();
    net.obs_enable();
    let _heaps = attach_heaps(&net, HOSTS);
    for round in 0..300u64 {
        let old = net.node(0).amo(1, AmoOp::FetchAdd, 64, 8, 1, 0).unwrap();
        assert_eq!(old, round, "fetch-add returned a stale value");
        let events = net.take_events();
        let issued: Vec<u64> =
            events.iter().filter(|e| e.kind == EventKind::AmoReqTx).map(|e| e.op_id).collect();
        assert_eq!(issued.len(), 1, "round {round}: one AmoReqTx per AMO");
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::AmoDone && e.op_id == issued[0] && e.pe == 0),
            "round {round}: the AMO returned before its AmoDone was logged"
        );
        assert!(check(&events, HOSTS).is_clean(), "round {round}: snapshot must certify");
    }
}

/// Ordering control: a clean trace of routed small puts certifies, and
/// swapping two drains of the same transmit ring — the receiver handing
/// on a later slot before an earlier one — is caught by invariant 6.
#[test]
fn tampered_trace_with_swapped_slot_drains_fails_slot_order() {
    const HOSTS: usize = 3;
    let cfg = NetConfig::fast(HOSTS).with_retry(lossy_retry());
    let net = RingNetwork::build(cfg).unwrap();
    net.obs_enable();
    let _heaps = attach_heaps(&net, HOSTS);
    for i in 0..24u64 {
        net.node(0)
            .put_bytes(1 + (i as usize % 2), i * 64, &[i as u8; 64], TransferMode::Dma)
            .unwrap();
    }
    net.node(0).quiet().unwrap();
    let events = net.take_events();
    let report = check(&events, HOSTS);
    assert!(report.is_clean(), "baseline trace must certify:\n{}", report.render_violations());
    let drains: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].kind == EventKind::SlotDrain && events[i].pe == 1)
        .filter(|&i| events[i].payload[0] == 0)
        .collect();
    assert!(drains.len() >= 2, "the puts must drain through PE 0's ring to PE 1");
    let (a, b) = (drains[0], drains[1]);
    let mut tampered = events.clone();
    tampered[a] = TraceEvent { seq: events[a].seq, t_us: events[a].t_us, ..events[b] };
    tampered[b] = TraceEvent { seq: events[b].seq, t_us: events[b].t_us, ..events[a] };
    let report = check(&tampered, HOSTS);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "slot-coalescing" && v.message.contains("out of publish order")),
        "swapped drains must be flagged, got: {}",
        report.render_violations()
    );
}

/// Get-pipeline tampering controls: a windowed multi-sub-request get
/// certifies clean; duplicating one received fill (a double-filled
/// chunk) or erasing one (a dropped fill on a completed sub-request)
/// must both fail the get-resolution invariant — a checker that cannot
/// see either would certify a corrupted reassembly.
#[test]
fn tampered_get_pipeline_traces_fail_get_resolution() {
    const HOSTS: usize = 2;
    const LEN: usize = 16 << 10;
    let cfg = NetConfig::fast(HOSTS).with_retry(lossy_retry()).with_get_pipeline(1 << 10, 4);
    let net = RingNetwork::build(cfg).unwrap();
    net.obs_enable();
    let heaps = attach_heaps(&net, HOSTS);
    let pattern: Vec<u8> = (0..LEN).map(|i| (i as u8).wrapping_mul(13)).collect();
    heaps[1].region.write(512, &pattern).unwrap();
    let got = net.node(0).get_bytes(1, 512, LEN as u64, TransferMode::Dma).unwrap();
    assert_eq!(got, pattern, "windowed get must be byte-exact");

    let events = net.take_events();
    let report = check(&events, HOSTS);
    assert!(
        report.is_clean(),
        "baseline windowed get must certify, got: {}",
        report.render_violations()
    );
    assert!(
        report.get_reqs_checked >= LEN / (1 << 10),
        "the pipeline must have split the get into sub-requests, saw {}",
        report.get_reqs_checked
    );

    let fill = *events
        .iter()
        .find(|e| e.kind == EventKind::GetChunkRx)
        .expect("a received fill must be traced");
    let last = *events.last().unwrap();

    // Tamper 1: the same fill recorded twice — a double-filled chunk.
    let mut tampered = events.clone();
    tampered.push(TraceEvent { seq: last.seq + 1, t_us: last.t_us + 1, ..fill });
    let report = check(&tampered, HOSTS);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "get-resolution" && v.message.contains("overlaps")),
        "double fill must be flagged as overlapping coverage, got: {}",
        report.render_violations()
    );

    // Tamper 2: the fill erased — the sub-request completes with a gap.
    let tampered: Vec<TraceEvent> = events.iter().copied().filter(|e| e.seq != fill.seq).collect();
    let report = check(&tampered, HOSTS);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "get-resolution" && v.message.contains("dropped fill")),
        "dropped fill on a completed sub-request must be flagged, got: {}",
        report.render_violations()
    );
}

/// Failure-model controls: a real crash-eviction lifecycle certifies
/// clean, and tampering with the same trace — a put chunk transmitted
/// at a PE its sender already declared dead, or a membership view
/// republished at a stale epoch — is caught by the failure invariants
/// (dead-PE transmit discipline, membership-epoch monotonicity).
#[test]
fn crash_lifecycle_certifies_and_failure_tampering_is_caught() {
    const HOSTS: usize = 3;
    let cfg =
        NetConfig::fast(HOSTS).with_retry(lossy_retry()).with_heartbeat(HeartbeatConfig::fast());
    let net = RingNetwork::build(cfg).unwrap();
    net.obs_enable();
    let heaps = attach_heaps(&net, HOSTS);

    // Pre-crash traffic among the survivors, and beat warm-up: the
    // detector deliberately ignores boot-time silence, so the crash must
    // land after the victim's first beats.
    let payload = vec![0xC7u8; 1024];
    net.node(0).put_bytes(1, 128, &payload, TransferMode::Memcpy).unwrap();
    net.node(0).quiet().unwrap();
    assert_eq!(heaps[1].region.read_vec(128, 1024).unwrap(), payload);
    std::thread::sleep(Duration::from_millis(100));

    net.node(2).crash();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while net.node(0).membership().view().is_live(2) || net.node(1).membership().view().is_live(2) {
        assert!(std::time::Instant::now() < deadline, "eviction must reach every survivor");
        std::thread::sleep(Duration::from_millis(5));
    }

    let events = net.take_events();
    assert!(events.iter().any(|e| e.kind == EventKind::NodeCrash), "crash must be traced");
    let death = events
        .iter()
        .find(|e| e.kind == EventKind::PeDead && e.payload[0] == 2)
        .expect("an eviction record must be traced");
    let report = check(&events, HOSTS);
    assert!(
        report.is_clean(),
        "crash-eviction lifecycle must certify clean, got: {}",
        report.render_violations()
    );
    assert!(report.membership_updates_checked > 0, "views must be checked");

    let last = *events.last().unwrap();

    // Tamper 1: the PE that recorded the death transmits a put chunk at
    // the dead PE afterwards.
    let mut tampered = events.clone();
    tampered.push(TraceEvent {
        seq: last.seq + 1,
        t_us: last.t_us + 1,
        pe: death.pe,
        link: 0,
        kind: EventKind::PutChunkTx,
        op_id: 999,
        payload: [2, 64],
    });
    let report = check(&tampered, HOSTS);
    assert!(
        report.violations.iter().any(|v| v.invariant == "dead-pe-discipline"),
        "post-eviction transmit must be flagged, got: {}",
        report.render_violations()
    );

    // Tamper 2: a survivor republishes a membership view at a stale
    // epoch (one it already moved past).
    let stale = events
        .iter()
        .find(|e| e.kind == EventKind::MembershipUpdate)
        .expect("a membership update must be traced");
    let mut tampered = events.clone();
    tampered.push(TraceEvent {
        seq: last.seq + 1,
        t_us: last.t_us + 1,
        pe: stale.pe,
        link: 0,
        kind: EventKind::MembershipUpdate,
        op_id: stale.op_id,
        payload: stale.payload,
    });
    let report = check(&tampered, HOSTS);
    assert!(
        report.violations.iter().any(|v| v.invariant == "membership-epoch-monotone"),
        "stale view republish must be flagged, got: {}",
        report.render_violations()
    );
}
