//! Building the network: cabling N hosts' adapters as [`TopoGraph`] lays
//! them out.
//!
//! On the ring, host *i*'s **right** adapter (slot 1) is connected to host
//! *(i+1) mod N*'s **left** adapter (slot 0), exactly like the paper's
//! testbed cables its PEX adapters (Fig. 7(d)). A two-host ring has two
//! independent links (both adapter pairs are cabled); a single "host" has
//! none and supports only local operation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ntb_sim::{
    connect_ports_observed, EventKind, EventLog, FaultInjector, FaultStatsSnapshot, HostMemory,
    MetricsRegistry, NodeFault, NodeFaultAction, NtbPort, Obs, PortConfig, ResourceFault,
    ResourceFaultAction, Result, TimeModel, TraceEvent, DEFAULT_TRACE_CAPACITY,
};
use parking_lot::Mutex;

use crate::config::NetConfig;
use crate::handshake::exchange_link_info;
use crate::node::NtbNode;
use crate::topology::TopoGraph;

/// Worlds beyond this many hosts automatically switch the time model to
/// coarse (sleeping) waits. The paper-scale worlds (≤ 5 hosts) and every
/// calibrated bench stay on the precise spin-tail strategy; the 16–64 PE
/// scale worlds trade µs wait precision for delays that overlap instead
/// of serializing on the spin tails of ~9 threads per host.
pub const COARSE_WAITS_AUTO_HOSTS: usize = 8;

/// Run the paper's init-time id/geometry exchange on a freshly cabled
/// link (both sides concurrently) and verify the cable reaches the host
/// the topology expects.
fn bring_up_link(
    a: &Arc<NtbPort>,
    id_a: usize,
    b: &Arc<NtbPort>,
    id_b: usize,
    config: &NetConfig,
) -> Result<()> {
    let ws = config.window_size as u32;
    let dl = config.direct_buf as u32;
    let timeout = std::time::Duration::from_secs(10);
    let (ra, rb) = std::thread::scope(|s| {
        let ha = s.spawn(|| exchange_link_info(a, id_a, ws, dl, timeout));
        let hb = s.spawn(|| exchange_link_info(b, id_b, ws, dl, timeout));
        let panicked =
            || Err(ntb_sim::NtbError::BadDescriptor { reason: "link handshake thread panicked" });
        (ha.join().unwrap_or_else(|_| panicked()), hb.join().unwrap_or_else(|_| panicked()))
    });
    let pa = ra?;
    let pb = rb?;
    if pa.host_id != id_b || pb.host_id != id_a {
        return Err(ntb_sim::NtbError::BadDescriptor {
            reason: "link cabled to an unexpected host (id exchange mismatch)",
        });
    }
    Ok(())
}

/// The assembled switchless ring network.
pub struct RingNetwork {
    nodes: Vec<Arc<NtbNode>>,
    config: NetConfig,
    /// One fault injector per physical link, in cabling order (ring: link
    /// *i* connects host *i* to host *i+1*; mesh: pairs in `(i, j)` order).
    injectors: Vec<Arc<FaultInjector>>,
    /// The unified structured event log every layer emits into
    /// (disabled by default; see [`Self::obs_enable`]).
    event_log: Arc<EventLog>,
    /// Stop flag + handle of the chaos orchestrator thread (spawned only
    /// when the fault plan schedules node or resource faults).
    chaos_stop: Arc<AtomicBool>,
    chaos: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// One scheduled orchestrator step, pre-expanded to an absolute instant.
/// Timed faults (a freeze's `hold`, a slow port's recovery) become *two*
/// actions — begin and end — so nothing is ever served inline.
enum ChaosAction {
    Crash(usize),
    Freeze(usize),
    Thaw(usize),
    Restart(usize),
    SlowPort { link: usize, factor: f64 },
    PortNominal { link: usize },
    ShrinkQueue { pe: usize, capacity: usize },
    ShrinkMem { pe: usize, capacity: u64 },
}

/// Walk the scheduled fault timeline: node faults and resource faults are
/// expanded into `(absolute instant, action)` pairs up front — a freeze
/// contributes a freeze *and* a thaw entry, a slow port a slowdown and a
/// recovery — then walked in deadline order with interruptible sleeps.
/// Every fault therefore lands at its own absolute deadline regardless of
/// how long any other fault holds.
fn chaos_orchestrator(
    nodes: Vec<Arc<NtbNode>>,
    injectors: Vec<Arc<FaultInjector>>,
    node_faults: Vec<NodeFault>,
    resource_faults: Vec<ResourceFault>,
    stop: Arc<AtomicBool>,
) {
    let start = Instant::now();
    let mut timeline: Vec<(Duration, ChaosAction)> = Vec::new();
    for fault in node_faults {
        match fault.action {
            NodeFaultAction::Crash => timeline.push((fault.at, ChaosAction::Crash(fault.pe))),
            NodeFaultAction::Freeze { hold } => {
                timeline.push((fault.at, ChaosAction::Freeze(fault.pe)));
                timeline.push((fault.at + hold, ChaosAction::Thaw(fault.pe)));
            }
            NodeFaultAction::Restart => timeline.push((fault.at, ChaosAction::Restart(fault.pe))),
        }
    }
    for fault in resource_faults {
        match fault.action {
            ResourceFaultAction::SlowPort { factor, hold } => {
                timeline.push((fault.at, ChaosAction::SlowPort { link: fault.target, factor }));
                timeline.push((fault.at + hold, ChaosAction::PortNominal { link: fault.target }));
            }
            ResourceFaultAction::ShrinkForwardQueue { capacity } => {
                timeline.push((fault.at, ChaosAction::ShrinkQueue { pe: fault.target, capacity }));
            }
            ResourceFaultAction::ShrinkHostMem { capacity } => {
                timeline.push((fault.at, ChaosAction::ShrinkMem { pe: fault.target, capacity }));
            }
        }
    }
    // Stable by instant: a zero-hold freeze still thaws after it froze.
    timeline.sort_by_key(|(at, _)| *at);
    let interruptible_sleep_until = |deadline: Duration| {
        while start.elapsed() < deadline {
            if stop.load(Ordering::SeqCst) {
                return false;
            }
            std::thread::sleep((deadline - start.elapsed()).min(Duration::from_millis(5)));
        }
        !stop.load(Ordering::SeqCst)
    };
    // Hosts currently frozen by this thread; a shutdown mid-plan must
    // thaw them (their stalled threads could not be joined otherwise).
    let mut frozen: Vec<usize> = Vec::new();
    let thaw_all = |frozen: &mut Vec<usize>, nodes: &[Arc<NtbNode>]| {
        for pe in frozen.drain(..) {
            nodes[pe].thaw();
        }
    };
    for (at, action) in timeline {
        if !interruptible_sleep_until(at) {
            thaw_all(&mut frozen, &nodes);
            return;
        }
        match action {
            ChaosAction::Crash(pe) if pe < nodes.len() => nodes[pe].crash(),
            ChaosAction::Freeze(pe) if pe < nodes.len() => {
                nodes[pe].freeze();
                frozen.push(pe);
            }
            ChaosAction::Thaw(pe) if pe < nodes.len() => {
                nodes[pe].thaw();
                frozen.retain(|&f| f != pe);
            }
            ChaosAction::Restart(pe) if pe < nodes.len() => {
                // A restart that cannot complete (e.g. every neighbour is
                // down too) surfaces through the test's own assertions;
                // the orchestrator just records the attempt's failure.
                if let Err(e) = nodes[pe].restart(Duration::from_secs(10)) {
                    nodes[pe].record_error(e);
                }
            }
            ChaosAction::SlowPort { link, factor } if link < injectors.len() => {
                injectors[link].set_slow_factor(factor);
                nodes[0].obs().emit(
                    EventKind::PortSlow,
                    link as u64,
                    [(factor * 1000.0) as u64, 0],
                );
            }
            ChaosAction::PortNominal { link } if link < injectors.len() => {
                injectors[link].set_slow_factor(1.0);
                nodes[0].obs().emit(EventKind::PortSlow, link as u64, [1000, 0]);
            }
            ChaosAction::ShrinkQueue { pe, capacity } if pe < nodes.len() => {
                for ep in &nodes[pe].endpoints {
                    ep.fwd.set_capacity(capacity);
                }
                nodes[pe].obs().emit(EventKind::CapacityShrink, capacity as u64, [pe as u64, 0]);
            }
            ChaosAction::ShrinkMem { pe, capacity } if pe < nodes.len() => {
                nodes[pe].memory().set_capacity(capacity);
                nodes[pe].obs().emit(EventKind::CapacityShrink, capacity, [pe as u64, 1]);
            }
            // Out-of-range targets in a hand-written plan are ignored,
            // matching the old walker's bounds behaviour.
            _ => {}
        }
    }
    thaw_all(&mut frozen, &nodes);
}

impl RingNetwork {
    /// Build and start a network of `config.hosts` hosts in the
    /// configured topology: allocate window memory, cable the adapters,
    /// spawn the service/forwarder threads.
    pub fn build(config: NetConfig) -> Result<RingNetwork> {
        config.validate();
        let n = config.hosts;
        let kind = config.topology;
        let mut model = config.model.clone();
        if n > COARSE_WAITS_AUTO_HOSTS {
            // Big worlds run hundreds of service/forwarder threads; the
            // precise spin-tail wait would serialize their modelled
            // delays on small machines (see `TimeModel::coarse_waits`).
            model.coarse_waits = true;
        }
        let model = Arc::new(model);
        let event_log = EventLog::new(n, DEFAULT_TRACE_CAPACITY);
        let mems: Vec<Arc<HostMemory>> =
            (0..n).map(|i| HostMemory::new(i, config.host_mem_capacity)).collect();

        // Each physical link gets its own fault injector derived from the
        // network-wide plan and the link's cabling-order index (an empty
        // plan is inert); the link index also keys the event trace and
        // per-link metrics. The graph fixes the cabling: which hosts each
        // link joins and the adapter slot at each end.
        let graph = Arc::new(TopoGraph::new(kind.shape(), n));
        // One registry per PE, indexed by physical link; every layer's
        // `Obs` handles of that PE count into it.
        let metrics: Vec<Arc<MetricsRegistry>> =
            (0..n).map(|_| MetricsRegistry::new(graph.links().len())).collect();
        // `ports[host]` follows `graph.adapters(host)`: both list a host's
        // cable ends in cabling order.
        let mut ports: Vec<Vec<Arc<NtbPort>>> = (0..n).map(|_| Vec::new()).collect();
        let mut injectors: Vec<Arc<FaultInjector>> = Vec::new();
        for (link, &(i, j)) in graph.links().iter().enumerate() {
            let slot_i = graph.adapters(i)[ports[i].len()].slot;
            let slot_j = graph.adapters(j)[ports[j].len()].slot;
            let injector = FaultInjector::new(config.faults.clone(), link);
            injectors.push(Arc::clone(&injector));
            let cfg_i = PortConfig::new(i, slot_i).with_window_size(config.window_size);
            let cfg_j = PortConfig::new(j, slot_j).with_window_size(config.window_size);
            let (pi, pj) = connect_ports_observed(
                cfg_i,
                cfg_j,
                &mems[i],
                &mems[j],
                Arc::clone(&model),
                injector,
                Obs::new(Arc::clone(&event_log), Arc::clone(&metrics[i]), i, link as u16),
                Obs::new(Arc::clone(&event_log), Arc::clone(&metrics[j]), j, link as u16),
            )?;
            bring_up_link(&pi, i, &pj, j, &config)?;
            ports[i].push(pi);
            ports[j].push(pj);
        }

        // One shared time origin for the whole network: wire deadlines are
        // absolute microseconds since this instant, so every host decodes
        // them against the same clock.
        let epoch = Instant::now();
        let nodes: Vec<Arc<NtbNode>> = ports
            .into_iter()
            .enumerate()
            .map(|(i, host_ports)| {
                NtbNode::new(
                    i,
                    config.clone(),
                    Arc::clone(&graph),
                    Arc::clone(&model),
                    Arc::clone(&mems[i]),
                    Arc::new(AtomicBool::new(false)),
                    Arc::clone(&event_log),
                    Arc::clone(&metrics[i]),
                    host_ports,
                    epoch,
                )
            })
            .collect();
        for node in &nodes {
            node.start();
        }
        let chaos_stop = Arc::new(AtomicBool::new(false));
        let chaos = if config.faults.has_node_faults() || config.faults.has_resource_faults() {
            let node_plan = config.faults.node_faults.clone();
            let resource_plan = config.faults.resource_faults.clone();
            let orch_nodes = nodes.clone();
            let orch_injectors = injectors.clone();
            let orch_stop = Arc::clone(&chaos_stop);
            Some(
                std::thread::Builder::new()
                    .name("ntb-chaos-orch".into())
                    .spawn(move || {
                        chaos_orchestrator(
                            orch_nodes,
                            orch_injectors,
                            node_plan,
                            resource_plan,
                            orch_stop,
                        )
                    })
                    .map_err(|_| ntb_sim::NtbError::BadDescriptor {
                        reason: "failed to spawn chaos orchestrator thread",
                    })?,
            )
        } else {
            None
        };
        Ok(RingNetwork {
            nodes,
            config,
            injectors,
            event_log,
            chaos_stop,
            chaos: Mutex::new(chaos),
        })
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Injected-fault counters per physical link, in cabling order (ring:
    /// link *i* connects host *i* to host *i+1*).
    pub fn fault_stats(&self) -> Vec<FaultStatsSnapshot> {
        self.injectors.iter().map(|inj| inj.stats().snapshot()).collect()
    }

    /// Sum of the injected-fault counters across every link.
    pub fn fault_stats_total(&self) -> FaultStatsSnapshot {
        let mut total = FaultStatsSnapshot::default();
        for s in self.fault_stats() {
            total.doorbells_dropped += s.doorbells_dropped;
            total.payloads_corrupted += s.payloads_corrupted;
            total.dma_failures += s.dma_failures;
            total.dma_stalls += s.dma_stalls;
            total.link_down_windows += s.link_down_windows;
            total.acks_suppressed += s.acks_suppressed;
        }
        total
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty (impossible, but Clippy insists) network.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Host `i`'s node.
    pub fn node(&self, i: usize) -> &Arc<NtbNode> {
        &self.nodes[i]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Arc<NtbNode>] {
        &self.nodes
    }

    /// The shared time model.
    pub fn model(&self) -> Arc<TimeModel> {
        Arc::clone(self.nodes[0].model())
    }

    /// The unified structured event log shared by every layer of this
    /// network (ntb-sim hardware events, ntb-net protocol events and the
    /// OpenSHMEM API events all land here).
    pub fn event_log(&self) -> &Arc<EventLog> {
        &self.event_log
    }

    /// Start recording structured trace events (the invariant checker's
    /// input). Off by default; emission sites cost one relaxed load
    /// while off.
    pub fn obs_enable(&self) {
        self.event_log.enable();
    }

    /// Stop recording structured trace events.
    pub fn obs_disable(&self) {
        self.event_log.disable();
    }

    /// Drain the merged structured event trace, sorted by the global
    /// sequence number (total emission order).
    pub fn take_events(&self) -> Vec<TraceEvent> {
        self.event_log.take()
    }

    /// Every PE's metrics registry rendered as one JSON array (index =
    /// PE id).
    pub fn metrics_json(&self) -> String {
        let per_pe: Vec<String> = self.nodes.iter().map(|n| n.metrics().to_json()).collect();
        format!("[{}]", per_pe.join(","))
    }

    /// Crash host `pe` (see [`NtbNode::crash`]). Survivors detect the
    /// death through the heartbeat failure detector and heal the ring.
    pub fn crash_node(&self, pe: usize) {
        self.nodes[pe].crash();
    }

    /// Freeze host `pe`: its threads stall mid-protocol until
    /// [`Self::thaw_node`].
    pub fn freeze_node(&self, pe: usize) {
        self.nodes[pe].freeze();
    }

    /// Release a freeze on host `pe`.
    pub fn thaw_node(&self, pe: usize) {
        self.nodes[pe].thaw();
    }

    /// Restart a crashed host `pe`: revive its ports and run the rejoin
    /// handshake until a neighbour gossips it back into membership (or
    /// `timeout` expires).
    pub fn restart_node(&self, pe: usize, timeout: Duration) -> Result<()> {
        self.nodes[pe].restart(timeout)
    }

    /// Stop every node's background threads. The network must be
    /// quiescent (callers finished, `quiet` drained). Idempotent.
    pub fn shutdown(&self) {
        self.chaos_stop.store(true, Ordering::SeqCst);
        let handle = {
            crate::lockdep_track!(&crate::lockdep::NET_ADMIN);
            self.chaos.lock().take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        for node in &self.nodes {
            node.stop();
        }
    }
}

impl Drop for RingNetwork {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for RingNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingNetwork").field("hosts", &self.nodes.len()).finish()
    }
}
