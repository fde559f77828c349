//! Seeded chaos runs: a multi-host traffic mix (puts, gets, atomics)
//! driven over links that drop doorbells, corrupt payloads, fail DMA
//! jobs and go dark — asserting that the recovery protocol delivers
//! byte-exact results, executes atomics exactly once, and that the
//! deterministic part of the injection (scripted events, outage
//! windows) reproduces across same-seed runs.
//!
//! Every run records a full event trace and puts it through the
//! protocol-invariant checker (`shmem_ntb::net::check`): puts resolved
//! exactly once, AMOs applied exactly once, get chunks tiling their
//! request, no transmit on a down link. A violation writes the
//! rendered trace window to `target/trace-dumps/<label>.txt` before
//! panicking, so the offending interleaving can be read offline. The
//! same trace must also account for every counter: each one, summed
//! over the PEs, equals the count of the events that feed it.
//!
//! The seed matrix at the bottom sweeps ≥8 seeds through each fault
//! family (doorbell-drop, payload-corruption, link-flap); the two
//! legacy "mixed" seeds additionally assert same-seed reproducibility.
//!
//! Retransmission *timing* is scheduler-dependent, so rate-based
//! injected-event totals can differ between same-seed runs (a retried
//! send adds events to the decision streams). The reproducibility
//! assertions therefore cover the deterministic subset — final memory
//! contents and outage-window counts — as DESIGN.md documents.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use shmem_ntb::net::{
    check, AmoOp, DeliveryTarget, HeartbeatConfig, NetConfig, RetryPolicy, RingNetwork, Topology,
};
use shmem_ntb::sim::{
    render_events, EventKind, FaultPlan, LinkMetrics, Region, TraceEvent, TransferMode,
};

const HOSTS: usize = 3;
const ROUNDS: usize = 6;
const CHUNK: usize = 8 << 10;
/// Counter cell, outside every put range.
const COUNTER_OFF: u64 = 0;

struct ChaosHeap {
    region: Region,
    amo_lock: std::sync::Mutex<()>,
}

impl ChaosHeap {
    fn new() -> Arc<Self> {
        Arc::new(ChaosHeap {
            region: Region::anonymous(1 << 20),
            amo_lock: std::sync::Mutex::new(()),
        })
    }
}

impl DeliveryTarget for ChaosHeap {
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

/// Offset of the (src -> dest) put range; ranges never overlap.
fn put_off(src: usize, dest: usize) -> u64 {
    (64 + (src * HOSTS + dest) * CHUNK) as u64
}

/// Deterministic payload for one (src, dest, round) cell.
fn pattern(src: usize, dest: usize, round: usize) -> Vec<u8> {
    let tag = (src * 7 + dest * 3 + round * 11) as u32;
    (0..CHUNK as u32).map(|i| ((i.wrapping_mul(2654435761) >> 8) as u8) ^ tag as u8).collect()
}

/// A fault family: one axis of the chaos matrix. Each family stresses
/// one injection mechanism hard instead of blending them, so a
/// regression in (say) CRC rejection shows up as a corruption-family
/// failure rather than noise in a mixed run.
#[derive(Clone, Copy, Debug)]
enum Family {
    /// Legacy blend: a little of everything plus one outage window.
    Mixed,
    /// Heavy doorbell loss: every retransmission path fires.
    DoorbellDrop,
    /// Heavy payload corruption: CRC rejection and resend.
    Corruption,
    /// Two scripted outage windows, one per link direction.
    LinkFlap,
}

impl Family {
    fn label(self) -> &'static str {
        match self {
            Family::Mixed => "mixed",
            Family::DoorbellDrop => "doorbell-drop",
            Family::Corruption => "corruption",
            Family::LinkFlap => "link-flap",
        }
    }

    fn plan(self, seed: u64) -> FaultPlan {
        let base = FaultPlan::none().with_seed(seed);
        match self {
            Family::Mixed => base
                .with_doorbell_drop(0.02)
                .with_payload_corrupt(0.02)
                .with_dma_fail(0.01)
                .with_link_down(1, 10, Duration::from_millis(60)),
            Family::DoorbellDrop => base.with_doorbell_drop(0.06).with_dma_fail(0.01),
            Family::Corruption => base.with_payload_corrupt(0.06).with_dma_fail(0.01),
            Family::LinkFlap => base
                .with_doorbell_drop(0.01)
                .with_link_down(0, 8, Duration::from_millis(40))
                .with_link_down(1, 24, Duration::from_millis(40)),
        }
    }

    /// Whether the plan corrupts payload writes (the credit word too).
    fn corrupts_payloads(self) -> bool {
        matches!(self, Family::Mixed | Family::Corruption)
    }

    /// Scripted outage windows the plan must fire (deterministic).
    fn expected_windows(self) -> u64 {
        match self {
            Family::Mixed => 1,
            Family::DoorbellDrop | Family::Corruption => 0,
            Family::LinkFlap => 2,
        }
    }
}

fn chaos_retry() -> RetryPolicy {
    RetryPolicy {
        min_rto: Duration::from_millis(40),
        max_rto: Duration::from_millis(80),
        max_retries: 8,
        probe_interval: Duration::from_millis(20),
        failure_threshold: 3,
    }
}

/// What one chaos run leaves behind.
struct ChaosOutcome {
    /// Final bytes of every (src -> dest) put range, in a fixed order.
    ranges: Vec<Vec<u8>>,
    /// Final value of the contended counter at host 0.
    counter: u64,
    /// Outage windows that fired (deterministic per plan).
    down_windows: u64,
    /// Total injected events (diagnostics; timing-sensitive).
    injected: u64,
    /// Recovery actions observed across all hosts (diagnostics).
    recovered: u64,
    /// The full merged event trace of the run.
    events: Vec<TraceEvent>,
    /// Events lost to ring-buffer wrap (must be 0 for certification).
    dropped: u64,
    /// Every counter by name, summed over the PEs once the network
    /// stopped.
    counters: Vec<(&'static str, u64)>,
}

fn run_chaos(family: Family, seed: u64) -> ChaosOutcome {
    run_chaos_mode(family, seed, false)
}

/// `coalesced` runs the same traffic mix through an explicitly tight
/// transmit ring (4 slots, batch 4) with every put's doorbell deferred —
/// quiet() flushes whole batches, so slot reuse, wrap-around and the
/// coalesced-doorbell recovery paths are all under fire.
fn run_chaos_mode(family: Family, seed: u64, coalesced: bool) -> ChaosOutcome {
    let mut cfg = NetConfig::fast(HOSTS).with_retry(chaos_retry()).with_faults(family.plan(seed));
    if coalesced {
        cfg = cfg.with_tx_ring(4, 4);
    }
    let net = RingNetwork::build(cfg).unwrap();
    net.obs_enable();
    let heaps: Vec<Arc<ChaosHeap>> = (0..HOSTS).map(|_| ChaosHeap::new()).collect();
    for (i, heap) in heaps.iter().enumerate() {
        net.node(i).set_delivery(Arc::clone(heap) as Arc<dyn DeliveryTarget>);
    }

    for round in 0..ROUNDS {
        // Every host puts a fresh pattern to both peers; modes alternate
        // so the DMA-fault and memcpy paths are both exercised.
        for src in 0..HOSTS {
            for hop in 1..HOSTS {
                let dest = (src + hop) % HOSTS;
                let mode = if (round + src + hop) % 2 == 0 {
                    TransferMode::Dma
                } else {
                    TransferMode::Memcpy
                };
                let data = pattern(src, dest, round);
                net.node(src)
                    .put_bytes_coalesced(dest, put_off(src, dest), &data, mode, coalesced)
                    .unwrap();
            }
        }
        // Hosts 1 and 2 bump the shared counter at host 0; the AMO cache
        // must keep retransmitted requests exactly-once.
        for src in 1..HOSTS {
            net.node(src).amo(0, AmoOp::FetchAdd, COUNTER_OFF, 8, 1, 0).unwrap();
        }
        // Same-target rounds conflict, so order them with quiet() — the
        // OpenSHMEM contract for overlapping puts.
        for src in 0..HOSTS {
            net.node(src).quiet().unwrap_or_else(|e| panic!("round {round} quiet at {src}: {e}"));
        }
    }

    // Remote reads see the settled state through the same lossy links.
    for src in 0..HOSTS {
        let dest = (src + 1) % HOSTS;
        let got = net
            .node(src)
            .get_bytes(dest, put_off(src, dest), CHUNK as u64, TransferMode::Dma)
            .unwrap();
        assert_eq!(got, pattern(src, dest, ROUNDS - 1), "get {src} <- {dest} must be byte-exact");
    }

    for node in net.nodes() {
        let errs = node.take_errors();
        assert!(errs.is_empty(), "host {} service errors: {errs:?}", node.host_id());
    }

    let mut ranges = Vec::new();
    for src in 0..HOSTS {
        for hop in 1..HOSTS {
            let dest = (src + hop) % HOSTS;
            ranges.push(heaps[dest].region.read_vec(put_off(src, dest), CHUNK as u64).unwrap());
        }
    }
    let mut counter = [0u8; 8];
    heaps[0].region.read(COUNTER_OFF, &mut counter).unwrap();
    // Stop every thread before reading the counters and the trace, so no
    // emission is caught between its count and its log append.
    net.shutdown();
    let mut counters = LinkMetrics::default().values();
    for node in net.nodes() {
        for (sum, (_, v)) in counters.iter_mut().zip(node.stats().values()) {
            sum.1 += v;
        }
    }
    let fault_totals = net.fault_stats_total();
    let recovered = (0..HOSTS).map(|i| net.node(i).stats().recovery_total()).sum();
    let dropped = net.event_log().dropped();
    ChaosOutcome {
        ranges,
        counter: u64::from_le_bytes(counter),
        down_windows: fault_totals.link_down_windows,
        injected: fault_totals.total(),
        recovered,
        events: net.take_events(),
        dropped,
        counters,
    }
}

/// Run the trace through the invariant checker; on violation, dump the
/// rendered report plus the full trace to `target/trace-dumps/` and
/// panic with the artifact path.
fn certify_trace(label: &str, outcome: &ChaosOutcome) {
    assert_eq!(outcome.dropped, 0, "{label}: trace ring buffer wrapped; raise the capacity");
    assert_eq!(
        outcome.counters,
        LinkMetrics::from_events(&outcome.events).values(),
        "{label}: counters disagree with the trace"
    );
    let report = check(&outcome.events, HOSTS);
    if report.is_clean() {
        return;
    }
    let dir = PathBuf::from("target/trace-dumps");
    std::fs::create_dir_all(&dir).expect("create target/trace-dumps");
    let path = dir.join(format!("{label}.txt"));
    let body = format!(
        "{} violation(s) in {} events\n\n{}\nfull trace:\n{}",
        report.violations.len(),
        outcome.events.len(),
        report.render_violations(),
        render_events(&outcome.events),
    );
    std::fs::write(&path, body).expect("write trace dump");
    panic!(
        "{label}: {} protocol-invariant violation(s); trace dump at {}",
        report.violations.len(),
        path.display()
    );
}

/// One matrix cell: byte-exact memory, exactly-once atomics, the
/// family's scripted outage count, and a checker-clean trace.
fn assert_chaos_checked(family: Family, seed: u64) {
    assert_chaos_checked_mode(family, seed, false)
}

fn assert_chaos_checked_mode(family: Family, seed: u64, coalesced: bool) {
    let outcome = run_chaos_mode(family, seed, coalesced);
    let mut idx = 0;
    for src in 0..HOSTS {
        for hop in 1..HOSTS {
            let dest = (src + hop) % HOSTS;
            assert_eq!(
                outcome.ranges[idx],
                pattern(src, dest, ROUNDS - 1),
                "{}/{seed:#x}: range {src} -> {dest} differs from the final pattern",
                family.label(),
            );
            idx += 1;
        }
    }
    assert_eq!(
        outcome.counter,
        (HOSTS as u64 - 1) * ROUNDS as u64,
        "{}/{seed:#x}: fetch-add applied exactly once each",
        family.label(),
    );
    assert_eq!(
        outcome.down_windows,
        family.expected_windows(),
        "{}/{seed:#x}: scripted outage windows",
        family.label(),
    );
    // The credit cap binds only when the sender's and the receiver's
    // ledgers disagree (a leaked credit), or when a corrupted write forges
    // the unchecked credit word, which only the corrupting families do.
    if !family.corrupts_payloads() {
        let clips = outcome.counters.iter().find(|(name, _)| *name == "credit_clips");
        assert_eq!(
            clips.map(|c| c.1),
            Some(0),
            "{}/{seed:#x}: credit grants were clipped",
            family.label()
        );
    }
    let tag = if coalesced { "-coalesced" } else { "" };
    certify_trace(&format!("chaos-{}{tag}-{seed:#x}", family.label()), &outcome);
    eprintln!(
        "chaos {}{tag}/{seed:#x}: {} events, injected {}, recovered {}",
        family.label(),
        outcome.events.len(),
        outcome.injected,
        outcome.recovered
    );
}

/// The legacy deep check: everything in [`assert_chaos_checked`] plus
/// same-seed reproducibility of the deterministic subset.
fn assert_chaos_seed(seed: u64) {
    let first = run_chaos(Family::Mixed, seed);

    // Byte-exactness: every put range holds exactly the final round's
    // pattern — no torn, stale or misplaced chunk anywhere.
    let mut idx = 0;
    for src in 0..HOSTS {
        for hop in 1..HOSTS {
            let dest = (src + hop) % HOSTS;
            assert_eq!(
                first.ranges[idx],
                pattern(src, dest, ROUNDS - 1),
                "range {src} -> {dest} differs from the expected final pattern"
            );
            idx += 1;
        }
    }
    // Exactly-once atomics despite retransmission.
    assert_eq!(
        first.counter,
        (HOSTS as u64 - 1) * ROUNDS as u64,
        "fetch-add applied exactly once each"
    );
    // The plan's single outage window fired.
    assert_eq!(first.down_windows, 1, "exactly one scripted outage window");
    certify_trace(&format!("chaos-mixed-{seed:#x}-run1"), &first);

    // Same-seed reproducibility of the deterministic subset.
    let second = run_chaos(Family::Mixed, seed);
    assert_eq!(first.ranges, second.ranges, "same seed must leave identical memory");
    assert_eq!(first.counter, second.counter);
    assert_eq!(first.down_windows, second.down_windows);
    certify_trace(&format!("chaos-mixed-{seed:#x}-run2"), &second);

    eprintln!(
        "chaos seed {seed:#x}: injected {} events (run1) / {} (run2), {} recovery actions (run1)",
        first.injected, second.injected, first.recovered
    );
}

#[test]
fn chaos_seed_a_is_byte_exact_and_reproducible() {
    assert_chaos_seed(0x00C0_FFEE);
}

#[test]
fn chaos_seed_b_is_byte_exact_and_reproducible() {
    assert_chaos_seed(42);
}

/// One observability spine under faults: the counters, summed over the
/// PEs, equal the counts their events imply in the merged trace (checked
/// in [`certify_trace`]), and the recovery mechanisms that make the
/// comparison worth having all fired in this run.
#[test]
fn counters_agree_with_trace_under_faults() {
    let outcome = run_chaos(Family::Mixed, 0x5EED_00B5);
    certify_trace("counters-vs-trace", &outcome);
    for kind in [
        EventKind::CrcReject,
        EventKind::Retransmit,
        EventKind::DupSuppressed,
        EventKind::FrameRx,
        EventKind::SlotPublish,
    ] {
        let n = outcome.events.iter().filter(|e| e.kind == kind).count();
        assert!(n > 0, "the run must exercise {}", kind.name());
    }
}

/// The seed matrix: 8 seeds through each of the three focused fault
/// families, every run certified by the invariant checker. One `#[test]`
/// per cell so the harness parallelizes them and a failure names its
/// exact (family, seed) coordinates.
macro_rules! chaos_matrix {
    ($($name:ident => $family:expr, $seed:expr;)*) => {
        $(
            #[test]
            fn $name() {
                assert_chaos_checked($family, $seed);
            }
        )*
    };
}

/// Explicitly coalesced cells: the deferred-doorbell path (tight
/// 4-slot ring, batches flushed by quiet) through two fault families,
/// two seeds each. The checker's slot-coalescing invariant certifies
/// every one of these traces.
macro_rules! chaos_matrix_coalesced {
    ($($name:ident => $family:expr, $seed:expr;)*) => {
        $(
            #[test]
            fn $name() {
                assert_chaos_checked_mode($family, $seed, true);
            }
        )*
    };
}

chaos_matrix_coalesced! {
    chaos_coalesced_doorbell_drop_seed_01 => Family::DoorbellDrop, 0xC0A_0B01;
    chaos_coalesced_doorbell_drop_seed_02 => Family::DoorbellDrop, 0xC0A_0B02;
    chaos_coalesced_corruption_seed_01 => Family::Corruption, 0xC0A_4401;
    chaos_coalesced_corruption_seed_02 => Family::Corruption, 0xC0A_4402;
}

chaos_matrix! {
    chaos_doorbell_drop_seed_01 => Family::DoorbellDrop, 0xD0_0B01;
    chaos_doorbell_drop_seed_02 => Family::DoorbellDrop, 0xD0_0B02;
    chaos_doorbell_drop_seed_03 => Family::DoorbellDrop, 0xD0_0B03;
    chaos_doorbell_drop_seed_04 => Family::DoorbellDrop, 0xD0_0B04;
    chaos_doorbell_drop_seed_05 => Family::DoorbellDrop, 0xD0_0B05;
    chaos_doorbell_drop_seed_06 => Family::DoorbellDrop, 0xD0_0B06;
    chaos_doorbell_drop_seed_07 => Family::DoorbellDrop, 0xD0_0B07;
    chaos_doorbell_drop_seed_08 => Family::DoorbellDrop, 0xD0_0B08;
    chaos_corruption_seed_01 => Family::Corruption, 0xC0_4401;
    chaos_corruption_seed_02 => Family::Corruption, 0xC0_4402;
    chaos_corruption_seed_03 => Family::Corruption, 0xC0_4403;
    chaos_corruption_seed_04 => Family::Corruption, 0xC0_4404;
    chaos_corruption_seed_05 => Family::Corruption, 0xC0_4405;
    chaos_corruption_seed_06 => Family::Corruption, 0xC0_4406;
    chaos_corruption_seed_07 => Family::Corruption, 0xC0_4407;
    chaos_corruption_seed_08 => Family::Corruption, 0xC0_4408;
    chaos_link_flap_seed_01 => Family::LinkFlap, 0xF1_A901;
    chaos_link_flap_seed_02 => Family::LinkFlap, 0xF1_A902;
    chaos_link_flap_seed_03 => Family::LinkFlap, 0xF1_A903;
    chaos_link_flap_seed_04 => Family::LinkFlap, 0xF1_A904;
    chaos_link_flap_seed_05 => Family::LinkFlap, 0xF1_A905;
    chaos_link_flap_seed_06 => Family::LinkFlap, 0xF1_A906;
    chaos_link_flap_seed_07 => Family::LinkFlap, 0xF1_A907;
    chaos_link_flap_seed_08 => Family::LinkFlap, 0xF1_A908;
}

// ---------------------------------------------------------------------------
// Get-pipeline chaos: bulk pipelined gets under fire.
// ---------------------------------------------------------------------------

/// Payload each host exports for the get-window cells.
const GET_LEN: usize = 64 << 10;
/// Sub-request size for the get-window cells: 64 KiB / 4 KiB = 16
/// sub-requests per get, 4 in flight, so every fault lands mid-window.
const GET_SUB: u64 = 4 << 10;
const GET_ROUNDS: usize = 4;

/// Deterministic exported bytes of one host's get range.
fn get_pattern(host: usize) -> Vec<u8> {
    (0..GET_LEN as u32)
        .map(|i| ((i.wrapping_mul(0x9E37_79B9) >> 7) as u8) ^ (host as u8).wrapping_mul(0x35))
        .collect()
}

fn get_window_net(family: Family, seed: u64) -> (RingNetwork, Vec<Arc<ChaosHeap>>) {
    let cfg = NetConfig::fast(HOSTS)
        .with_retry(chaos_retry())
        .with_faults(family.plan(seed))
        .with_get_pipeline(GET_SUB, 4);
    let net = RingNetwork::build(cfg).unwrap();
    net.obs_enable();
    let heaps: Vec<Arc<ChaosHeap>> = (0..HOSTS).map(|_| ChaosHeap::new()).collect();
    for (i, heap) in heaps.iter().enumerate() {
        net.node(i).set_delivery(Arc::clone(heap) as Arc<dyn DeliveryTarget>);
        heap.region.write(64, &get_pattern(i)).unwrap();
    }
    (net, heaps)
}

/// One get-window cell: every host pulls every peer's 16-sub-request
/// range for several rounds while the family's faults hit the links
/// mid-window. Results must be byte-exact, no service thread may record
/// an error, and the trace must satisfy the checker's get-resolution
/// invariant (every sub-request resolved exactly once, fills tiling
/// their request) with the full sub-request count accounted for.
fn assert_get_window_chaos(family: Family, seed: u64) {
    let (net, _heaps) = get_window_net(family, seed);
    for round in 0..GET_ROUNDS {
        for src in 0..HOSTS {
            for hop in 1..HOSTS {
                let dest = (src + hop) % HOSTS;
                let mode = if (round + src + hop) % 2 == 0 {
                    TransferMode::Dma
                } else {
                    TransferMode::Memcpy
                };
                let got = net.node(src).get_bytes(dest, 64, GET_LEN as u64, mode).unwrap();
                assert_eq!(
                    got,
                    get_pattern(dest),
                    "{}/{seed:#x}: round {round} get {src} <- {dest} must be byte-exact",
                    family.label(),
                );
            }
        }
    }
    for node in net.nodes() {
        let errs = node.take_errors();
        assert!(errs.is_empty(), "host {} service errors: {errs:?}", node.host_id());
    }
    let events = net.take_events();
    let dropped = net.event_log().dropped();
    let label = format!("chaos-get-window-{}-{seed:#x}", family.label());
    assert_eq!(dropped, 0, "{label}: trace ring buffer wrapped; raise the capacity");
    let report = check(&events, HOSTS);
    if !report.is_clean() {
        let dir = PathBuf::from("target/trace-dumps");
        std::fs::create_dir_all(&dir).expect("create target/trace-dumps");
        let path = dir.join(format!("{label}.txt"));
        std::fs::write(&path, render_events(&events)).expect("write trace dump");
        panic!(
            "{label}: {} violation(s); trace dump at {}\n{}",
            report.violations.len(),
            path.display(),
            report.render_violations()
        );
    }
    // Every (src, peer, round) get tiles into GET_LEN / GET_SUB
    // sub-requests; a lower count means the pipeline never engaged and
    // the cell certified vacuously.
    let expected = HOSTS * (HOSTS - 1) * GET_ROUNDS * (GET_LEN / GET_SUB as usize);
    assert!(
        report.get_reqs_checked >= expected,
        "{label}: only {} of >= {expected} sub-requests certified",
        report.get_reqs_checked
    );
    eprintln!(
        "{label}: {} events, {} sub-requests certified",
        events.len(),
        report.get_reqs_checked
    );
}

/// Responder-crash cell: a requester hammers pipelined gets while the
/// responder dies mid-window. In-flight sub-requests must resolve as
/// typed errors in bounded time (retry budget, not a hang), the
/// abandoned window must still satisfy the get-resolution invariant,
/// and traffic to the surviving peer must stay byte-exact.
fn assert_get_window_responder_crash(seed: u64) {
    const VICTIM: usize = 1;
    let (net, _heaps) = get_window_net(Family::DoorbellDrop, seed);
    std::thread::scope(|s| {
        s.spawn(|| {
            // Land the crash mid-run, while PE 0 has a window in flight.
            std::thread::sleep(Duration::from_millis(30));
            net.node(VICTIM).crash();
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut completed = 0usize;
        loop {
            assert!(
                std::time::Instant::now() < deadline,
                "get at the crashed responder neither completed nor failed in 10s"
            );
            match net.node(0).get_bytes(VICTIM, 64, GET_LEN as u64, TransferMode::Dma) {
                Ok(got) => {
                    assert_eq!(got, get_pattern(VICTIM), "pre-crash get must be byte-exact");
                    completed += 1;
                }
                Err(_) => break, // typed failure after the retry budget — the contract
            }
        }
        eprintln!("get-window-crash/{seed:#x}: {completed} gets completed before the crash bit");
    });
    // The surviving peer is untouched.
    let got = net.node(0).get_bytes(2, 64, GET_LEN as u64, TransferMode::Memcpy).unwrap();
    assert_eq!(got, get_pattern(2), "survivor get must stay byte-exact");
    let events = net.take_events();
    let dropped = net.event_log().dropped();
    let label = format!("chaos-get-window-crash-{seed:#x}");
    assert_eq!(dropped, 0, "{label}: trace ring buffer wrapped; raise the capacity");
    let report = check(&events, HOSTS);
    if !report.is_clean() {
        let dir = PathBuf::from("target/trace-dumps");
        std::fs::create_dir_all(&dir).expect("create target/trace-dumps");
        let path = dir.join(format!("{label}.txt"));
        std::fs::write(&path, render_events(&events)).expect("write trace dump");
        panic!(
            "{label}: {} violation(s); trace dump at {}\n{}",
            report.violations.len(),
            path.display(),
            report.render_violations()
        );
    }
    assert!(report.get_reqs_checked > 0, "{label}: no sub-requests certified");
}

macro_rules! get_window_matrix {
    ($($name:ident => $family:expr, $seed:expr;)*) => {
        $(
            #[test]
            fn $name() {
                assert_get_window_chaos($family, $seed);
            }
        )*
    };
}

get_window_matrix! {
    get_window_doorbell_drop_seed_01 => Family::DoorbellDrop, 0x6E7_0B01;
    get_window_doorbell_drop_seed_02 => Family::DoorbellDrop, 0x6E7_0B02;
    get_window_corruption_seed_01 => Family::Corruption, 0x6E7_4401;
    get_window_corruption_seed_02 => Family::Corruption, 0x6E7_4402;
    get_window_link_flap_seed_01 => Family::LinkFlap, 0x6E7_A901;
    get_window_link_flap_seed_02 => Family::LinkFlap, 0x6E7_A902;
}

#[test]
fn get_window_responder_crash_seed_01() {
    assert_get_window_responder_crash(0x6E7_DEAD);
}

#[test]
fn get_window_responder_crash_seed_02() {
    assert_get_window_responder_crash(0x6E7_DEAE);
}

// ---------------------------------------------------------------------------
// Torus chaos: link loss on a 4x4 torus at 16 PEs. Antipodal puts cross
// four links through the forwarding path, so the scripted outages land
// under *routed* traffic, not just neighbor exchanges — the failure mode
// the ring matrix above cannot reach.
// ---------------------------------------------------------------------------

const TORUS_HOSTS: usize = 16;
const TORUS_CHUNK: usize = 2 << 10;
const TORUS_ROUNDS: usize = 3;

/// Offset of host `src`'s put range at its antipode. The src -> src+8
/// map is a bijection, so keying the range by src alone is collision-free.
fn torus_put_off(src: usize) -> u64 {
    (64 + src * TORUS_CHUNK) as u64
}

/// Deterministic payload for one (src, round) antipodal put.
fn torus_pattern(src: usize, round: usize) -> Vec<u8> {
    let tag = (src * 13 + round * 29) as u32;
    (0..TORUS_CHUNK as u32)
        .map(|i| ((i.wrapping_mul(2_246_822_519) >> 9) as u8) ^ tag as u8)
        .collect()
}

/// Link-loss on a 4x4 torus: every host puts its pattern to the PE four
/// hops away while two scripted outage windows take links at host 0's
/// corner down mid-run (links 0 and 1 in cabling order — the AMO hot
/// spot, so both windows are guaranteed doorbell traffic to trigger on).
/// Certification demands a checker-clean trace *plus* evidence floors
/// proving the run exercised routed puts, AMOs and gets — a vacuously
/// empty trace would also be "clean".
fn assert_torus_link_loss(seed: u64) {
    let plan = FaultPlan::none()
        .with_seed(seed)
        .with_doorbell_drop(0.01)
        .with_link_down(0, 2, Duration::from_millis(40))
        .with_link_down(1, 6, Duration::from_millis(40));
    let cfg = NetConfig::fast(TORUS_HOSTS)
        .with_topology(Topology::torus(4, 4))
        .with_retry(chaos_retry())
        // Static membership: byte-exactness here must come from the
        // retry protocol riding out the outage, not from the detector
        // rerouting around a link it happened to declare dead.
        .with_heartbeat(HeartbeatConfig::disabled())
        .with_faults(plan);
    let net = RingNetwork::build(cfg).unwrap();
    net.obs_enable();
    let heaps: Vec<Arc<ChaosHeap>> = (0..TORUS_HOSTS).map(|_| ChaosHeap::new()).collect();
    for (i, heap) in heaps.iter().enumerate() {
        net.node(i).set_delivery(Arc::clone(heap) as Arc<dyn DeliveryTarget>);
    }

    for round in 0..TORUS_ROUNDS {
        for src in 0..TORUS_HOSTS {
            let dest = (src + TORUS_HOSTS / 2) % TORUS_HOSTS;
            let mode =
                if (round + src) % 2 == 0 { TransferMode::Dma } else { TransferMode::Memcpy };
            net.node(src)
                .put_bytes(dest, torus_put_off(src), &torus_pattern(src, round), mode)
                .unwrap();
        }
        // Every other host bumps the shared counter at host 0 — routed
        // AMOs from up to four hops out, exactly-once under retries.
        for src in 1..TORUS_HOSTS {
            net.node(src).amo(0, AmoOp::FetchAdd, COUNTER_OFF, 8, 1, 0).unwrap();
        }
        for src in 0..TORUS_HOSTS {
            net.node(src)
                .quiet()
                .unwrap_or_else(|e| panic!("torus round {round} quiet at {src}: {e}"));
        }
    }

    // A few hosts read their settled range back from the antipode: gets
    // traverse the same forwarding path in both directions.
    for src in 0..4 {
        let dest = (src + TORUS_HOSTS / 2) % TORUS_HOSTS;
        let got = net
            .node(src)
            .get_bytes(dest, torus_put_off(src), TORUS_CHUNK as u64, TransferMode::Dma)
            .unwrap();
        assert_eq!(
            got,
            torus_pattern(src, TORUS_ROUNDS - 1),
            "torus get {src} <- {dest} must be byte-exact"
        );
    }

    for node in net.nodes() {
        let errs = node.take_errors();
        assert!(errs.is_empty(), "host {} service errors: {errs:?}", node.host_id());
    }
    for src in 0..TORUS_HOSTS {
        let dest = (src + TORUS_HOSTS / 2) % TORUS_HOSTS;
        let range = heaps[dest].region.read_vec(torus_put_off(src), TORUS_CHUNK as u64).unwrap();
        assert_eq!(
            range,
            torus_pattern(src, TORUS_ROUNDS - 1),
            "torus/{seed:#x}: range {src} -> {dest} differs from the final pattern"
        );
    }
    let mut counter = [0u8; 8];
    heaps[0].region.read(COUNTER_OFF, &mut counter).unwrap();
    assert_eq!(
        u64::from_le_bytes(counter),
        (TORUS_HOSTS as u64 - 1) * TORUS_ROUNDS as u64,
        "torus/{seed:#x}: fetch-add applied exactly once each"
    );
    let fault_totals = net.fault_stats_total();
    assert_eq!(fault_totals.link_down_windows, 2, "torus/{seed:#x}: scripted outage windows");

    let events = net.take_events();
    let dropped = net.event_log().dropped();
    let label = format!("chaos-torus-link-loss-{seed:#x}");
    assert_eq!(dropped, 0, "{label}: trace ring buffer wrapped; raise the capacity");
    let report = check(&events, TORUS_HOSTS);
    if !report.is_clean() {
        let dir = PathBuf::from("target/trace-dumps");
        std::fs::create_dir_all(&dir).expect("create target/trace-dumps");
        let path = dir.join(format!("{label}.txt"));
        std::fs::write(&path, render_events(&events)).expect("write trace dump");
        panic!(
            "{label}: {} violation(s); trace dump at {}\n{}",
            report.violations.len(),
            path.display(),
            report.render_violations()
        );
    }
    // Evidence floors: the clean verdict must rest on the traffic the
    // run was built to generate.
    assert!(
        report.puts_checked >= TORUS_HOSTS * TORUS_ROUNDS,
        "{label}: only {} put chunks certified, need >= {}",
        report.puts_checked,
        TORUS_HOSTS * TORUS_ROUNDS
    );
    assert!(
        report.amos_checked >= (TORUS_HOSTS - 1) * TORUS_ROUNDS,
        "{label}: only {} AMOs certified, need >= {}",
        report.amos_checked,
        (TORUS_HOSTS - 1) * TORUS_ROUNDS
    );
    assert!(report.gets_checked >= 4, "{label}: only {} gets certified", report.gets_checked);
    eprintln!(
        "chaos torus/{seed:#x}: {} events, {} puts, {} amos, {} gets certified",
        report.events, report.puts_checked, report.amos_checked, report.gets_checked
    );
}

#[test]
fn torus_link_loss_seed_01() {
    assert_torus_link_loss(0x70_5501);
}

#[test]
fn torus_link_loss_seed_02() {
    assert_torus_link_loss(0x70_5502);
}

/// Under `--features lockdep` the instrumented lock sites feed the
/// runtime acquisition graph; a full mixed-fault run must record no
/// rank violations and leave the graph acyclic. Tests share one
/// process, so violations recorded by any concurrently-running chaos
/// test surface here too — which is the point: service threads swallow
/// panics, so this drain is where lockdep fails loudly.
#[cfg(feature = "lockdep")]
#[test]
fn chaos_run_records_no_lockdep_violations() {
    use shmem_ntb::net::lockdep;
    let outcome = run_chaos(Family::Mixed, 0x10CD_E401);
    certify_trace("chaos-lockdep-mixed", &outcome);
    let violations = lockdep::take_violations();
    assert!(violations.is_empty(), "lockdep violations: {violations:#?}");
    if let Some(cycle) = lockdep::find_cycle() {
        panic!("lock acquisition cycle: {}", cycle.join(" -> "));
    }
    eprintln!("lockdep: {} acquisition edges, no violations", lockdep::edges().len());
}
