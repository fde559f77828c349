//! One host of the switchless ring: ports, slot rings, forwarders, and the
//! host-side operations (put / get / atomics / quiet / barrier signals).
//!
//! Lossy-link recovery lives here too: every put chunk is tracked in
//! [`UnackedPuts`] until its positive acknowledgement returns, a per-node
//! retry sweeper retransmits overdue chunks with exponential backoff and
//! probes `Down` links back to life, per-endpoint
//! [`LinkHealthTracker`]s steer traffic onto a detour while a link is
//! down (another cable to the same host first, else the long way
//! around), and receivers suppress the duplicate deliveries
//! retransmission inevitably creates.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ntb_sim::{
    EventKind, EventLog, HostMemory, LinkHealth, LinkHealthTracker, LinkMetrics, MetricsRegistry,
    NtbError, NtbPort, Obs, PortStatsSnapshot, Region, Result, TimeModel, TransferMode, NO_LINK,
};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::config::NetConfig;
use crate::credit::{CreditGate, CreditLedger, RetryBudget};
use crate::delivery::{AmoOp, DeliveryTarget};
use crate::doorbells::{DB_BARRIER_END, DB_BARRIER_START, DB_GOSSIP, DB_SHUTDOWN};
use crate::forwarder::{ForwardQueue, PushOutcome};
use crate::frame::Frame;
use crate::layout::WindowLayout;
use crate::membership::{self, rejoin_signature, Membership, MembershipView, REJOIN_FLAG};
use crate::pending::{PendingOps, UnackedPuts};
use crate::slots::TxSlotRing;
use crate::topology::{Adapter, RouteDirection, TopoGraph};

/// A snapshot of one node's protocol counters: the sum of every block of
/// its [`MetricsRegistry`] (see [`NtbNode::stats`]). It is a
/// [`LinkMetrics`] value, so its fields are atomics only so that readers
/// written against the former node-wide counters keep compiling; nothing
/// updates a snapshot.
pub type NodeStats = LinkMetrics;

/// How many recently-seen put ids (per node, across all origins) are
/// remembered for duplicate suppression. Retransmission timeouts bound
/// how stale a duplicate can be, so a few thousand ids is plenty.
const PUT_DEDUP_WINDOW: usize = 4096;

/// Sliding window of `(origin, put id)` pairs already delivered.
#[derive(Debug, Default)]
pub(crate) struct SeenPuts {
    set: HashSet<(usize, u32)>,
    order: VecDeque<(usize, u32)>,
}

impl SeenPuts {
    /// Record a delivery; `false` if this id was already delivered (the
    /// caller must suppress the duplicate).
    pub(crate) fn insert(&mut self, origin: usize, put_id: u32) -> bool {
        if !self.set.insert((origin, put_id)) {
            return false;
        }
        self.order.push_back((origin, put_id));
        if self.order.len() > PUT_DEDUP_WINDOW {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }

    /// Forget every id from `origin`: a crash-restarted PE reuses put ids
    /// from zero, and suppressing its fresh traffic as "duplicates" would
    /// silently lose data.
    pub(crate) fn purge_origin(&mut self, origin: usize) {
        self.set.retain(|k| k.0 != origin);
        self.order.retain(|k| k.0 != origin);
    }
}

/// How many served AMO results are cached for duplicate re-serving.
const AMO_CACHE_WINDOW: usize = 1024;

/// Cache of `(origin, request id) → old value` for served atomics: a
/// retransmitted AMO request must *not* re-execute (the first execution
/// already mutated the heap); the cached old value is re-served instead.
#[derive(Debug, Default)]
pub(crate) struct AmoCache {
    map: HashMap<(usize, u32), u64>,
    order: VecDeque<(usize, u32)>,
}

impl AmoCache {
    /// Old value served for this request, if it already executed.
    pub(crate) fn lookup(&self, origin: usize, req_id: u32) -> Option<u64> {
        self.map.get(&(origin, req_id)).copied()
    }

    /// Remember a served request's old value.
    pub(crate) fn insert(&mut self, origin: usize, req_id: u32, old: u64) {
        if self.map.insert((origin, req_id), old).is_none() {
            self.order.push_back((origin, req_id));
            if self.order.len() > AMO_CACHE_WINDOW {
                if let Some(stale) = self.order.pop_front() {
                    self.map.remove(&stale);
                }
            }
        }
    }

    /// Forget every cached result from `origin` (crash-restart purge; the
    /// restarted PE reuses request ids from zero).
    pub(crate) fn purge_origin(&mut self, origin: usize) {
        self.map.retain(|k, _| k.0 != origin);
        self.order.retain(|k| k.0 != origin);
    }
}

/// One cabled link of a host: the port plus its transmit ring and forward
/// queue.
pub struct LinkEndpoint {
    /// The neighbour host on the other side.
    pub(crate) neighbor: usize,
    /// Physical link index in network cabling order (shared by both
    /// sides of the cable; indexes the per-link metrics).
    pub(crate) link_idx: usize,
    /// Event emission handle bound to `(this host, this link)`.
    pub(crate) obs: Obs,
    /// The NTB port.
    pub(crate) port: Arc<NtbPort>,
    /// Store-and-forward queue consumed by this endpoint's forwarder.
    pub(crate) fwd: Arc<ForwardQueue>,
    /// The transmit slot ring every frame toward the neighbour rides (PE
    /// thread, forwarder and sweeper contend through its internal lock).
    pub(crate) txring: TxSlotRing,
    /// Observed link health (drives rerouting and recovery probes).
    pub(crate) health: LinkHealthTracker,
    /// Sender-side credit gate for puts staged toward this neighbour:
    /// one credit per staged chunk, granted back by the peer as it
    /// absorbs them (DESIGN.md §14).
    pub(crate) credit: CreditGate,
    /// Receiver-side ledger of the credits this endpoint has granted its
    /// peer sender — its cumulative total is what goes on the wire.
    pub(crate) ledger: CreditLedger,
    /// Token-bucket budget bounding retransmissions on this link.
    pub(crate) retry_budget: RetryBudget,
}

impl LinkEndpoint {
    /// The port of this endpoint (stats, doorbells).
    pub fn port(&self) -> &Arc<NtbPort> {
        &self.port
    }

    /// Neighbour host id.
    pub fn neighbor(&self) -> usize {
        self.neighbor
    }

    /// Observed health of this endpoint.
    pub fn health(&self) -> LinkHealth {
        self.health.health()
    }

    /// Physical link index in network cabling order.
    pub fn link_idx(&self) -> usize {
        self.link_idx
    }
}

/// A host in the switchless NTB interconnect (ring or mesh).
pub struct NtbNode {
    /// This host's id.
    pub(crate) me: usize,
    /// The cabling and routing tables shared by every host: adapters, BFS
    /// distances and the next-hop adapter table, identical at the origin
    /// and every forwarding hop.
    pub(crate) graph: Arc<TopoGraph>,
    pub(crate) model: Arc<TimeModel>,
    pub(crate) config: NetConfig,
    pub(crate) layout: WindowLayout,
    /// One endpoint per cabled adapter, indexed like
    /// `graph.adapters(me)`. Ring: two. Clique: one per other host.
    pub(crate) endpoints: Vec<LinkEndpoint>,
    pub(crate) delivery: RwLock<Option<Arc<dyn DeliveryTarget>>>,
    pub(crate) pending: PendingOps,
    pub(crate) unacked: UnackedPuts,
    pub(crate) seen_puts: Mutex<SeenPuts>,
    pub(crate) amo_cache: Mutex<AmoCache>,
    /// Epoch-stamped live bitmap maintained by the heartbeat failure
    /// detector and gossiped ring-wide.
    pub(crate) membership: Membership,
    /// True while [`Self::restart`] runs its rejoin handshake; service
    /// loops park on this in addition to the port vitals.
    pub(crate) rejoining: AtomicBool,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) threads: Mutex<Vec<JoinHandle<()>>>,
    /// Guards the retry sweeper's tick wait on `sweeper_wake`, which
    /// [`Self::stop`] notifies so teardown never waits out a tick.
    pub(crate) sweeper_lock: Mutex<()>,
    /// Signalled by [`Self::stop`] to end the sweeper's tick early.
    pub(crate) sweeper_wake: Condvar,
    pub(crate) errors: Mutex<Vec<NtbError>>,
    pub(crate) mem: Arc<HostMemory>,
    /// Node-scoped event handle (`link = NO_LINK`).
    pub(crate) obs: Obs,
    /// Per-PE metrics: op latency histograms plus counters indexed by
    /// physical link and a node block. Always on; only the `obs` handles
    /// write the counters.
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// The network's shared time origin for wire deadlines: every host's
    /// `deadline_us` values are microseconds since this instant, so a
    /// deadline stamped at the origin is comparable at every hop.
    pub(crate) epoch: Instant,
}

fn offset32(offset: u64) -> Result<u32> {
    u32::try_from(offset)
        .map_err(|_| NtbError::BadDescriptor { reason: "symmetric offset exceeds 4 GiB" })
}

fn len31(len: u64) -> Result<u32> {
    if len >= (1 << 31) {
        return Err(NtbError::BadDescriptor { reason: "transfer length exceeds 2 GiB" });
    }
    Ok(len as u32)
}

/// Reclassify a requester-wait failure that landed after the op's
/// deadline passed: the caller asked for a time bound and missed it,
/// which is strictly more information than "the link gave up".
fn deadline_failure(e: NtbError, deadline_us: u32, now_us: u32) -> NtbError {
    if deadline_us != 0 && now_us > deadline_us && matches!(e, NtbError::LinkFailed { .. }) {
        // RESOLVES(none): pure reclassification helper — the caller's wait
        // already resolved (or is resolving) the pending entry.
        NtbError::DeadlineExceeded
    } else {
        e
    }
}

impl NtbNode {
    /// Assemble a node from its cabled ports, one per adapter of
    /// `graph.adapters(me)` and in that order (empty only on a single-host
    /// network).
    #[allow(clippy::too_many_arguments)] // internal constructor, one call site
    pub(crate) fn new(
        me: usize,
        config: NetConfig,
        graph: Arc<TopoGraph>,
        model: Arc<TimeModel>,
        mem: Arc<HostMemory>,
        shutdown: Arc<AtomicBool>,
        event_log: Arc<EventLog>,
        metrics: Arc<MetricsRegistry>,
        ports: Vec<Arc<NtbPort>>,
        epoch: Instant,
    ) -> Arc<NtbNode> {
        let layout = WindowLayout::new(
            config.direct_buf,
            config.bypass_buf,
            config.tx_slots,
            config.coalesce_payload_max,
        );
        let obs = Obs::new(Arc::clone(&event_log), Arc::clone(&metrics), me, NO_LINK);
        let endpoints = graph
            .adapters(me)
            .iter()
            .zip(ports)
            .map(|(&Adapter { neighbor, link: link_idx, .. }, port)| {
                let link_obs =
                    Obs::new(Arc::clone(&event_log), Arc::clone(&metrics), me, link_idx as u16);
                let mut txring = TxSlotRing::new(
                    Arc::clone(&port),
                    neighbor,
                    layout,
                    &config,
                    Arc::clone(&model),
                    link_obs.clone(),
                );
                txring.set_abort(Arc::clone(&shutdown));
                txring.set_retry(config.retry.slot_wait_timeout, config.retry.max_retries);
                LinkEndpoint {
                    neighbor,
                    link_idx,
                    obs: link_obs,
                    port,
                    fwd: Arc::new(ForwardQueue::with_watermarks(
                        config.overload.forward_queue_cap,
                        config.overload.high_watermark,
                        config.overload.low_watermark,
                    )),
                    txring,
                    health: LinkHealthTracker::new(config.retry.failure_threshold),
                    credit: CreditGate::new(config.overload.credit_window),
                    ledger: CreditLedger::new(config.overload.credit_window),
                    retry_budget: RetryBudget::new(
                        config.overload.retry_budget_rate,
                        config.overload.retry_budget_burst,
                    ),
                }
            })
            .collect();
        Arc::new(NtbNode {
            me,
            graph,
            model,
            layout,
            endpoints,
            delivery: RwLock::new(None),
            pending: PendingOps::new(),
            unacked: UnackedPuts::new(),
            seen_puts: Mutex::new(SeenPuts::default()),
            amo_cache: Mutex::new(AmoCache::default()),
            membership: Membership::new(me, config.hosts),
            rejoining: AtomicBool::new(false),
            shutdown,
            threads: Mutex::new(Vec::new()),
            sweeper_lock: Mutex::new(()),
            sweeper_wake: Condvar::new(),
            errors: Mutex::new(Vec::new()),
            mem,
            obs,
            metrics,
            config,
            epoch,
        })
    }

    /// This host's id.
    pub fn host_id(&self) -> usize {
        self.me
    }

    /// Hosts in the network.
    pub fn num_hosts(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The shared timing model.
    pub fn model(&self) -> &Arc<TimeModel> {
        &self.model
    }

    /// The network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// This host's simulated physical memory arena (the symmetric heap
    /// allocates its chunks here).
    pub fn memory(&self) -> &Arc<HostMemory> {
        &self.mem
    }

    /// The ring-neighbour endpoint `dir` selects: the right (slot 1 on
    /// the ring) or the left (slot 0) adapter; on a 2-host ring, the two
    /// parallel cables. The barrier sweeps and the link benchmarks
    /// address adapters this way.
    ///
    /// # Panics
    /// Panics when the shape has no ring-neighbour adapters (a single
    /// host, a torus; see [`TopoGraph::ring_adapter`]).
    pub fn endpoint(&self, dir: RouteDirection) -> &LinkEndpoint {
        let idx = self
            .graph
            .ring_adapter(self.me, dir)
            // lint: unwrap-ok(callers address ring directions only on shapes that cable them)
            .expect("no ring-neighbour adapters on this shape");
        &self.endpoints[idx]
    }

    /// The endpoint a frame for `dest` leaves through: the one routing
    /// decision, keyed by adapter index. Normally the graph's next-hop
    /// adapter; when that is `Down`, or its static path crosses a PE the
    /// detector declared dead (whose links still negotiate), the best
    /// live detour through a healthy adapter, another cable to the same
    /// next host first, recorded as a `Reroute`. Split horizon: a frame
    /// never leaves on the adapter it `arrived` on (it could orbit once
    /// rerouting reverses a route); with no live detour it takes any
    /// other. `view` is a membership view the caller holds (the transmit
    /// path pins one).
    pub(crate) fn egress(
        &self,
        dest: usize,
        arrived: Option<usize>,
        view: &MembershipView,
    ) -> &LinkEndpoint {
        let preferred = self.graph.next_adapter(self.me, dest);
        let ep = &self.endpoints[preferred];
        let blocked = ep.health.is_down()
            || !self.graph.static_path_clear(ep.neighbor, dest, |pe| view.is_live(pe));
        let back = arrived == Some(preferred);
        if !blocked && !back {
            return ep;
        }
        let usable =
            |a: usize| a != preferred && Some(a) != arrived && !self.endpoints[a].health.is_down();
        match self.graph.next_adapter_live(self.me, dest, usable, |pe| view.is_live(pe)) {
            Some(a) => {
                let other = &self.endpoints[a];
                if blocked {
                    ep.obs.emit(EventKind::Reroute, 0, [other.link_idx as u64, dest as u64]);
                }
                other
            }
            // No live detour: a frame headed back takes any other adapter;
            // a blocked route keeps its own (the send fails and recovery
            // retries).
            None if back => self
                .endpoints
                .iter()
                .enumerate()
                .find(|&(i, _)| i != preferred)
                .map_or(ep, |(_, e)| e),
            None => ep,
        }
    }

    /// Install the delivery target (the symmetric heap). Called by
    /// `shmem_init`.
    pub fn set_delivery(&self, target: Arc<dyn DeliveryTarget>) {
        *self.delivery.write() = Some(target);
    }

    /// Remove the delivery target (called by `shmem_finalize`).
    pub fn clear_delivery(&self) {
        *self.delivery.write() = None;
    }

    /// Expose `target` (the symmetric heap) through every link's read
    /// aperture so small gets from a direct neighbour become a single
    /// PIO window read with no responder involvement. Called by
    /// `shmem_init` alongside [`Self::set_delivery`].
    pub fn publish_aperture(&self, target: Arc<dyn ntb_sim::ReadAperture>) {
        for ep in &self.endpoints {
            ep.port.publish_aperture(Arc::clone(&target));
        }
    }

    /// Withdraw the read aperture (called by `shmem_finalize`); peers
    /// fall back to the request/response get protocol.
    pub fn clear_aperture(&self) {
        for ep in &self.endpoints {
            ep.port.clear_aperture();
        }
    }

    pub(crate) fn deliver(&self) -> Result<Arc<dyn DeliveryTarget>> {
        self.delivery.read().clone().ok_or(NtbError::BadDescriptor {
            reason: "no delivery target installed (shmem_init not run?)",
        })
    }

    pub(crate) fn record_error(&self, err: NtbError) {
        self.errors.lock().push(err);
    }

    /// Errors recorded by background threads since the last call
    /// (tests and diagnostics).
    pub fn take_errors(&self) -> Vec<NtbError> {
        std::mem::take(&mut *self.errors.lock())
    }

    /// This node's protocol counters, summed over every block of its
    /// metrics registry. An owned snapshot (see [`NodeStats`]).
    pub fn stats(&self) -> NodeStats {
        self.metrics.total()
    }

    /// This PE's metrics registry: latency histograms per op class plus
    /// counters per physical link and a node block. Always on (one
    /// relaxed atomic add per counted event).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Node-scoped structured-event handle (`link = NO_LINK`); the
    /// OpenSHMEM layer emits its API-level events through this.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Stats snapshot of the port facing `dir` (ring/clique adapters).
    pub fn port_stats(&self, dir: RouteDirection) -> PortStatsSnapshot {
        self.endpoint(dir).port.stats().snapshot()
    }

    /// Number of cabled adapters on this host.
    pub fn num_links(&self) -> usize {
        self.endpoints.len()
    }

    /// Stats snapshot of the adapter at `idx` in cabling order; works on
    /// every shape (torus hosts have no left/right adapters to name).
    pub fn port_stats_at(&self, idx: usize) -> PortStatsSnapshot {
        self.endpoints[idx].port.stats().snapshot()
    }

    /// The shape-generic routing tables (shared by every host).
    pub fn graph(&self) -> &Arc<TopoGraph> {
        &self.graph
    }

    /// True once shutdown began.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Feed a send result into the endpoint's health tracker; an
    /// `Up`/`Degraded` → `Down` transition is counted.
    pub(crate) fn note_send_result(&self, ep: &LinkEndpoint, result: &Result<()>) {
        match result {
            Ok(()) => {
                let was_down = ep.health.is_down();
                ep.health.record_success();
                if was_down {
                    ep.obs.emit(EventKind::LinkUp, 0, [0, 0]);
                }
            }
            Err(e) if e.is_transient() || matches!(e, NtbError::LinkFailed { .. }) => {
                let was_down = ep.health.is_down();
                if ep.health.record_failure() == LinkHealth::Down && !was_down {
                    ep.obs.emit(EventKind::LinkDown, 0, [0, 0]);
                }
            }
            Err(_) => {}
        }
    }

    /// Flush one endpoint's transmit ring (no-op with nothing staged). A
    /// flush failure drops the staged batch, which is safe: every staged
    /// put chunk stays registered in the unacked ledger and the sweeper
    /// retransmits it.
    pub(crate) fn flush_ring(&self, ep: &LinkEndpoint) {
        let result = ep.txring.flush();
        self.note_send_result(ep, &result);
    }

    /// Flush every endpoint's transmit ring (quiet, end of a put batch).
    pub(crate) fn flush_all_rings(&self) {
        for ep in &self.endpoints {
            self.flush_ring(ep);
        }
    }

    // ----- Overload machinery: wire deadlines and link credits -----
    // (DESIGN.md §14. Helpers shared by the PE transmit path, the
    // service/forwarder loops and the retry sweeper.)

    /// Microseconds since the network epoch, saturating at `u32::MAX`
    /// (~71 simulated minutes — far beyond any run this model hosts).
    pub(crate) fn now_us(&self) -> u32 {
        u32::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u32::MAX)
    }

    /// Absolute wire deadline `budget` from now. Clamped to at least 1:
    /// zero means "no deadline" on the wire, and a budget so tight it
    /// truncates to the epoch itself must still expire, not disarm.
    pub fn deadline_us_in(&self, budget: Duration) -> u32 {
        self.now_us().saturating_add(u32::try_from(budget.as_micros()).unwrap_or(u32::MAX)).max(1)
    }

    /// Account a forward-queue push outcome: emit the enqueue depth for
    /// the occupancy invariant, count and emit sheds (typed, never
    /// silent). Returns whether the job was accepted.
    pub(crate) fn note_push(
        &self,
        ep: &LinkEndpoint,
        outcome: PushOutcome,
        op_id: u64,
        deadline_us: u32,
        now_us: u32,
    ) -> bool {
        match outcome {
            PushOutcome::Queued { depth, capacity } => {
                ep.obs.emit(EventKind::QueueEnqueue, op_id, [depth as u64, capacity as u64]);
                true
            }
            PushOutcome::ShedOverload { occupancy, capacity } => {
                ep.obs.emit(EventKind::OverloadShed, op_id, [occupancy as u64, capacity as u64]);
                false
            }
            PushOutcome::ShedExpired => {
                ep.obs.emit(
                    EventKind::DeadlineShed,
                    op_id,
                    [u64::from(deadline_us), u64::from(now_us)],
                );
                false
            }
            PushOutcome::ShedShutdown => false,
        }
    }

    /// Refresh the sender-side credit gate from the credit word the peer
    /// last wrote into our incoming control slot. Zero means "never
    /// written" (bring-up) and is skipped; real totals start at the
    /// configured window and only grow.
    pub(crate) fn refresh_credits(&self, ep: &LinkEndpoint) {
        if let Some(total) =
            crate::credit::read_credit_word(ep.port.incoming().region(), self.layout.credit_off())
        {
            ep.credit.advertise(total);
        }
    }

    /// Grant `n` credits for put frames absorbed from `ep`'s neighbour
    /// and re-advertise the new cumulative total (unless congestion
    /// defers the advertisement).
    pub(crate) fn grant_credits(&self, ep: &LinkEndpoint, n: u64) {
        let total = ep.ledger.grant(n);
        ep.obs.emit(EventKind::CreditGrant, 0, [total, 0]);
        self.advertise_credits(ep);
    }

    /// Write the cumulative grant total into the peer's credit word.
    /// Withheld while this endpoint's forward queue sits above its high
    /// watermark — that *is* the backpressure: the ledger keeps growing
    /// locally and the next heartbeat tick (or post-drain grant)
    /// re-advertises, so deferred credits are delayed, never lost.
    pub(crate) fn advertise_credits(&self, ep: &LinkEndpoint) {
        if ep.fwd.congested() {
            return;
        }
        let _ = crate::credit::write_credit_word(
            ep.port.outgoing(),
            self.layout.credit_off(),
            ep.ledger.total(),
        );
    }

    /// Consume one transmit credit toward `ep`'s neighbour, polling the
    /// peer's advertisement when none are available. Bounded and typed:
    /// [`NtbError::DeadlineExceeded`] when the op's own deadline expires
    /// first, [`NtbError::Overloaded`] after an ack-timeout's worth of
    /// waiting without a grant.
    pub(crate) fn acquire_credit(
        &self,
        ep: &LinkEndpoint,
        put_id: u32,
        deadline_us: u32,
    ) -> Result<()> {
        if !ep.credit.try_consume() {
            let wait_start = Instant::now();
            loop {
                self.refresh_credits(ep);
                if ep.credit.try_consume() {
                    break;
                }
                let now = self.now_us();
                if deadline_us != 0 && now > deadline_us {
                    ep.obs.emit(
                        EventKind::DeadlineShed,
                        u64::from(put_id),
                        [u64::from(deadline_us), u64::from(now)],
                    );
                    // RESOLVES(none): no credit consumed yet on this path —
                    // the shed happens before CreditConsume is emitted.
                    return Err(NtbError::DeadlineExceeded);
                }
                if wait_start.elapsed() > self.config.retry.ack_timeout {
                    ep.obs.emit(EventKind::OverloadShed, u64::from(put_id), [0, 0]);
                    // RESOLVES(none): ditto — nothing to refund before consume.
                    return Err(NtbError::Overloaded { queue: "link credit window" });
                }
                std::thread::yield_now();
            }
        }
        // `consumed` read before `granted`: the grant total only grows,
        // so the pair always satisfies the conservation invariant even
        // if another thread consumes between the two reads.
        ep.obs.emit(
            // RESOLVES(CreditConsume): resolved out-of-function — the peer's
            // next CreditGrant re-extends the window, and `transmit_put`
            // refunds a frame that failed before any of its header was
            // written (checker invariant 9 audits the consumed/granted
            // conservation pair end-to-end).
            EventKind::CreditConsume,
            u64::from(put_id),
            [ep.credit.consumed_total(), ep.credit.granted_total()],
        );
        Ok(())
    }

    /// Transmit (or retransmit) one tracked put chunk. Does not touch the
    /// unacked table — registration and retirement are the caller's job.
    ///
    /// The chunk rides the transmit ring whether its next hop terminates
    /// or forwards: with `defer_flush` it is only staged (the caller
    /// batches several chunks behind one doorbell and flushes later),
    /// otherwise it is flushed immediately.
    #[allow(clippy::too_many_arguments)] // internal hot path, two call sites
    pub(crate) fn transmit_put(
        &self,
        put_id: u32,
        dest: usize,
        heap_offset: u32,
        chunk: &[u8],
        mode: TransferMode,
        defer_flush: bool,
        deadline_us: u32,
    ) -> Result<()> {
        // Pin the membership view across the send: a send that passes
        // this liveness gate is ordered strictly before any concurrent
        // death declaration (which needs the write side of the lock), so
        // no `PutChunkTx` toward `dest` can trail this node's `PeDead`.
        // Covers the sweeper's retransmissions too — they all funnel
        // through here.
        crate::lockdep_track!(&crate::lockdep::NET_MEMBERSHIP);
        let view = self.membership.pin();
        if !view.is_live(dest) {
            return Err(NtbError::PeFailed { pe: dest, epoch: view.epoch });
        }
        let ep = self.egress(dest, None, &view);
        // Admission decision time: sampled *before* the send so a slow
        // transmission cannot turn an admitted frame into a spurious
        // "transmitted while expired" checker violation.
        let now = self.now_us();
        if deadline_us != 0 && now > deadline_us {
            ep.obs.emit(
                EventKind::DeadlineShed,
                u64::from(put_id),
                [u64::from(deadline_us), u64::from(now)],
            );
            return Err(NtbError::DeadlineExceeded);
        }
        self.acquire_credit(ep, put_id, deadline_us)?;
        let frame = Frame::put(self.me, dest, chunk.len() as u32, heap_offset, put_id, mode)
            .with_deadline_us(deadline_us);
        let result = ep.txring.send(frame, Some(chunk), !defer_flush).map_err(|f| {
            if !f.landed {
                // No header was written: the peer never sees (or re-grants)
                // the credit. A landed frame is granted back by the peer.
                ep.credit.refund();
            }
            f.error
        });
        self.note_send_result(ep, &result);
        // `PutChunkTx` is emitted only on success and only *after* the
        // health tracker saw the result: a send that succeeds on a
        // formerly-Down endpoint first snaps it Up (emitting `LinkUp`
        // above), so the checker's down-link invariant needs no special
        // cases.
        if result.is_ok() {
            ep.obs.emit(
                EventKind::PutChunkTx,
                u64::from(put_id),
                [dest as u64, chunk.len() as u64],
            );
            if deadline_us != 0 {
                ep.obs.emit(
                    EventKind::DeadlineTx,
                    u64::from(put_id),
                    [u64::from(deadline_us), u64::from(now)],
                );
            }
        }
        result
    }

    fn send_put_chunk(
        &self,
        dest: usize,
        heap_offset: u64,
        chunk: &[u8],
        mode: TransferMode,
        deadline_us: u32,
    ) -> Result<()> {
        let offset = offset32(heap_offset)?;
        self.wait_put_window(deadline_us)?;
        let deadline = Instant::now() + self.config.retry.ack_timeout;
        let put_id =
            self.unacked.register(dest, offset, chunk.to_vec(), mode, deadline, deadline_us);
        self.obs.emit(EventKind::PutIssue, u64::from(put_id), [dest as u64, chunk.len() as u64]);
        // Always staged-deferred on the ring path: `put_bytes` flushes
        // once per call (or leaves the batch for quiet / the batch cap).
        match self.transmit_put(put_id, dest, offset, chunk, mode, true, deadline_us) {
            Ok(()) => Ok(()),
            // A transiently failed first transmission stays registered:
            // the retry sweeper owns it from here (retransmission,
            // rerouting, and eventually abandonment into `quiet`).
            Err(e) if e.is_transient() || matches!(e, NtbError::LinkFailed { .. }) => Ok(()),
            Err(e) => {
                // Retire the entry without a failure record: the error is
                // reported synchronously to the caller, and a record would
                // make the next quiet() re-report it. If the sweeper (or a
                // racing ack) already retired the id, that path owns the
                // put's one resolution event — don't emit a second.
                self.unacked.ack_with(put_id, |known| {
                    if known {
                        self.obs.emit(EventKind::PutAbandon, u64::from(put_id), [1, dest as u64]);
                    }
                });
                Err(e)
            }
        }
    }

    /// End-to-end put window: at most `overload.low_watermark` put chunks
    /// of this host wait for their acks at once. Link credits bound only
    /// the frames between two neighbours; a deep transmit ring lets an
    /// nbi stream outrun the forwarders and the ack return path, whose
    /// queues would overflow and shed. A chunk and its ack take at most
    /// one place in each forward queue on their route, so with the window
    /// no origin alone can congest a queue. Past the window a put first
    /// flushes the staged chunks (their acks must be able to come back),
    /// then waits for acks to retire entries.
    fn wait_put_window(&self, deadline_us: u32) -> Result<()> {
        let window = self.config.overload.low_watermark.max(1);
        if self.unacked.current() < window {
            return Ok(());
        }
        self.flush_all_rings();
        // BOUNDED-BY: the retry sweeper retires every unacked entry within
        // its retry schedule (ack, abandonment or a dead-peer sweep), and
        // the op deadline and shutdown are checked every poll.
        while self.unacked.current() >= window {
            if deadline_us != 0 && self.now_us() > deadline_us {
                // RESOLVES(none): nothing registered yet for this chunk.
                return Err(NtbError::DeadlineExceeded);
            }
            if self.is_shutdown() {
                return Err(NtbError::DmaShutdown);
            }
            // DEADLINE-CLIPPED: 20 µs poll quantum; the loop checks the op
            // deadline every round.
            std::thread::sleep(Duration::from_micros(20));
        }
        Ok(())
    }

    /// One-sided put: write `data` into host `dest`'s symmetric space at
    /// flat offset `heap_offset`. Locally blocking — returns once the
    /// local buffer is reusable (payload handed to the NTB); delivery
    /// completes asynchronously and is awaited by [`quiet`](Self::quiet).
    pub fn put_bytes(
        &self,
        dest: usize,
        heap_offset: u64,
        data: &[u8],
        mode: TransferMode,
    ) -> Result<()> {
        self.put_bytes_coalesced(dest, heap_offset, data, mode, false)
    }

    /// [`put_bytes`](Self::put_bytes) with explicit doorbell-coalescing
    /// control: with `defer_doorbell` the chunks are only staged in the
    /// transmit ring — the doorbell fires at the ring's batch cap or at
    /// the next [`quiet`](Self::quiet), letting a caller batch many
    /// small puts behind one interrupt.
    pub fn put_bytes_coalesced(
        &self,
        dest: usize,
        heap_offset: u64,
        data: &[u8],
        mode: TransferMode,
        defer_doorbell: bool,
    ) -> Result<()> {
        self.put_bytes_opts(dest, heap_offset, data, mode, defer_doorbell, 0)
    }

    /// [`put_bytes_coalesced`](Self::put_bytes_coalesced) with an
    /// absolute wire deadline (`0` = none, see
    /// [`deadline_us_in`](Self::deadline_us_in)): chunks not staged by
    /// the deadline fail typed with [`NtbError::DeadlineExceeded`], and
    /// every hop downstream sheds the frame once the deadline passes —
    /// the op is bounded in time end to end, not just at the origin.
    pub fn put_bytes_opts(
        &self,
        dest: usize,
        heap_offset: u64,
        data: &[u8],
        mode: TransferMode,
        defer_doorbell: bool,
        deadline_us: u32,
    ) -> Result<()> {
        assert_ne!(dest, self.me, "local puts are handled by the SHMEM layer");
        assert!(dest < self.num_hosts(), "destination host out of range");
        self.check_alive(dest)?;
        let chunk_size = self.config.put_chunk() as usize;
        let mut off = 0usize;
        while off < data.len() {
            let n = chunk_size.min(data.len() - off);
            self.send_put_chunk(
                dest,
                heap_offset + off as u64,
                &data[off..off + n],
                mode,
                deadline_us,
            )?;
            off += n;
        }
        if !defer_doorbell {
            self.flush_all_rings();
        }
        Ok(())
    }

    /// One-sided get: read `len` bytes from host `src`'s symmetric space
    /// at flat offset `heap_offset`. Blocks until the data arrives.
    pub fn get_bytes(
        &self,
        src: usize,
        heap_offset: u64,
        len: u64,
        mode: TransferMode,
    ) -> Result<Vec<u8>> {
        self.get_bytes_opts(src, heap_offset, len, mode, 0)
    }

    /// [`get_bytes`](Self::get_bytes) with an absolute wire deadline
    /// (`0` = none): the request and its response chunks carry the
    /// deadline, every hop sheds them once it passes, and the waiting
    /// requester reports [`NtbError::DeadlineExceeded`] instead of
    /// retrying past its time budget. Uses the configured pipeline
    /// window ([`NetConfig::get_window`]).
    pub fn get_bytes_opts(
        &self,
        src: usize,
        heap_offset: u64,
        len: u64,
        mode: TransferMode,
        deadline_us: u32,
    ) -> Result<Vec<u8>> {
        self.get_bytes_windowed(src, heap_offset, len, mode, deadline_us, self.config.get_window)
    }

    /// [`get_bytes_opts`](Self::get_bytes_opts) with an explicit
    /// pipeline window.
    ///
    /// Large gets are split into [`NetConfig::get_req_chunk`]-sized
    /// sub-requests, each a payload-free `GetReq` with its own pending
    /// entry, with up to `window` of them outstanding at once: the
    /// responder's per-request service think and the response wire time
    /// overlap instead of serializing. `window == 1` degenerates to the
    /// old stop-and-wait behaviour. Terminating requests batch through
    /// the transmit slot ring, so priming the window costs a single
    /// coalesced doorbell.
    ///
    /// Small terminating gets skip the protocol entirely: when the
    /// source has published its heap through the link aperture
    /// ([`Self::publish_aperture`]) and `len` is at or below the PIO
    /// crossover, the bytes are pulled with one window read and no
    /// responder involvement.
    pub fn get_bytes_windowed(
        &self,
        src: usize,
        heap_offset: u64,
        len: u64,
        mode: TransferMode,
        deadline_us: u32,
        window: usize,
    ) -> Result<Vec<u8>> {
        assert_ne!(src, self.me, "local gets are handled by the SHMEM layer");
        assert!(src < self.num_hosts(), "source host out of range");
        self.check_alive(src)?;
        if let Some(buf) = self.try_aperture_get(src, heap_offset, len, deadline_us)? {
            return Ok(buf);
        }
        let window = window.max(1);
        let chunk = self.config.get_req_chunk.max(1);
        // Sub-request tiling of the op buffer: (offset, len) pairs. A
        // zero-length get still makes one round trip — it is a visible
        // synchronization point, not a no-op.
        let mut subs: Vec<(u64, u64)> = Vec::new();
        if len == 0 {
            subs.push((0, 0));
        } else {
            let mut off = 0;
            while off < len {
                let n = chunk.min(len - off);
                subs.push((off, n));
                off += n;
            }
        }
        let mut out = vec![0u8; len as usize];
        let mut ids: Vec<u32> = Vec::with_capacity(subs.len().min(window));
        let mut fatal: Option<NtbError> = None;
        // Prime the pipeline: register and transmit the initial window
        // with the doorbell held back, then flush the batch once.
        let primed = window.min(subs.len());
        for &(sub_off, sub_len) in &subs[..primed] {
            let req_id = self.pending.register(sub_len, src);
            self.obs.emit(EventKind::GetReqTx, u64::from(req_id), [heap_offset + sub_off, sub_len]);
            ids.push(req_id);
            if let Err(e) = self.send_get_req(
                src,
                heap_offset + sub_off,
                sub_len,
                req_id,
                mode,
                deadline_us,
                true,
            ) {
                // A transient failure leaves the entry pending; the
                // bounded wait below re-issues it (possibly rerouted).
                if !(e.is_transient() || matches!(e, NtbError::LinkFailed { .. })) {
                    fatal = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = fatal {
            for &id in &ids {
                self.pending.abandon(id);
                self.obs.emit(EventKind::GetAbandon, u64::from(id), [0, 0]);
            }
            return Err(e);
        }
        self.flush_all_rings();
        let op_deadline =
            (deadline_us != 0).then(|| self.epoch + Duration::from_micros(u64::from(deadline_us)));
        // Completion loop: wait for sub-requests in issue order, and as
        // each lands refill the window with the next tile (flushed
        // immediately — the pipeline is already primed, there is nothing
        // to batch it with).
        let mut next = primed;
        let mut failed_at: Option<(usize, NtbError)> = None;
        let mut done = 0;
        while done < ids.len() {
            let req_id = ids[done];
            let (sub_off, sub_len) = subs[done];
            let waited = self.pending.wait_with_retry_until(
                req_id,
                &self.model,
                &self.config.retry,
                op_deadline,
                |attempt| {
                    self.obs.emit(
                        EventKind::Retransmit,
                        u64::from(req_id),
                        [u64::from(attempt), 0],
                    );
                    self.send_get_req(
                        src,
                        heap_offset + sub_off,
                        sub_len,
                        req_id,
                        mode,
                        deadline_us,
                        false,
                    )
                },
            );
            match waited {
                Ok(buf) => {
                    out[sub_off as usize..(sub_off + sub_len) as usize].copy_from_slice(&buf);
                    self.obs.emit(
                        EventKind::GetDone,
                        u64::from(req_id),
                        [heap_offset + sub_off, sub_len],
                    );
                    done += 1;
                    if next < subs.len() {
                        let (n_off, n_len) = subs[next];
                        let id = self.pending.register(n_len, src);
                        self.obs.emit(
                            EventKind::GetReqTx,
                            u64::from(id),
                            [heap_offset + n_off, n_len],
                        );
                        ids.push(id);
                        next += 1;
                        if let Err(e) = self.send_get_req(
                            src,
                            heap_offset + n_off,
                            n_len,
                            id,
                            mode,
                            deadline_us,
                            false,
                        ) {
                            if !(e.is_transient() || matches!(e, NtbError::LinkFailed { .. })) {
                                // The completed tiles stand; everything
                                // still outstanding (including the one
                                // just registered) is torn down below.
                                failed_at = Some((done, e));
                                break;
                            }
                        }
                    }
                }
                Err(e) => {
                    // `wait_with_retry_until` already abandoned this
                    // entry; the resolution event is ours to emit.
                    self.obs.emit(EventKind::GetAbandon, u64::from(req_id), [0, 0]);
                    failed_at = Some((done + 1, e));
                    break;
                }
            }
        }
        if let Some((outstanding_from, e)) = failed_at {
            for &id in &ids[outstanding_from..] {
                self.pending.abandon(id);
                self.obs.emit(EventKind::GetAbandon, u64::from(id), [0, 0]);
            }
            // A retry budget exhausted *after* the op's deadline passed
            // is the deadline's failure, not the link's.
            return Err(deadline_failure(e, deadline_us, self.now_us()));
        }
        self.model.delay(self.model.requester_wake_delay);
        Ok(out)
    }

    /// Transmit one get sub-request, a payload-free ring frame (the
    /// doorbell held back while `defer_flush`).
    #[allow(clippy::too_many_arguments)] // internal fan-in for the windowed get path
    fn send_get_req(
        &self,
        src: usize,
        abs_offset: u64,
        sub_len: u64,
        req_id: u32,
        mode: TransferMode,
        deadline_us: u32,
        defer_flush: bool,
    ) -> Result<()> {
        let now = self.now_us();
        if deadline_us != 0 && now > deadline_us {
            // RESOLVES(none): pre-flight check — the sub-request is failed
            // before any frame or pending entry exists for it.
            return Err(NtbError::DeadlineExceeded);
        }
        self.check_alive(src)?;
        let ep = self.egress(src, None, &self.membership.view());
        let frame =
            Frame::get_req(self.me, src, len31(sub_len)?, offset32(abs_offset)?, req_id, mode)
                .with_deadline_us(deadline_us);
        let result = ep.txring.send(frame, None, !defer_flush).map_err(|f| f.error);
        self.note_send_result(ep, &result);
        if result.is_ok() && deadline_us != 0 {
            ep.obs.emit(
                EventKind::DeadlineTx,
                u64::from(req_id),
                [u64::from(deadline_us), u64::from(now)],
            );
        }
        result
    }

    /// The zero-copy fast path for small gets: pull the bytes straight
    /// out of the source's published heap aperture with one PIO window
    /// read. Returns `Ok(None)` when the fast path does not apply (get
    /// too large, source not a direct neighbour, aperture unpublished or
    /// revoked, or the read failed transiently) — the caller falls back
    /// to the request/response protocol.
    fn try_aperture_get(
        &self,
        src: usize,
        heap_offset: u64,
        len: u64,
        deadline_us: u32,
    ) -> Result<Option<Vec<u8>>> {
        if len == 0 || len > self.config.pio_crossover {
            return Ok(None);
        }
        // Only a direct neighbour's heap is aperture-mapped; multi-hop
        // gets always take the protocol path.
        if self.graph.hops(self.me, src) != 1 {
            return Ok(None);
        }
        let ep = &self.endpoints[self.graph.next_adapter(self.me, src)];
        if deadline_us != 0 && self.now_us() > deadline_us {
            // RESOLVES(none): pre-flight check — the PIO fast path has not
            // registered anything yet; the caller falls back or fails typed.
            return Err(NtbError::DeadlineExceeded);
        }
        let mut buf = vec![0u8; len as usize];
        match ep.port.aperture_read(heap_offset, &mut buf) {
            Ok(true) => {
                // Synchronous completion, but the trace still records a
                // fully resolved get so the checker's get-resolution
                // invariant sees aperture and protocol gets alike.
                let req_id = self.pending.allocate_id();
                self.obs.emit(EventKind::GetReqTx, u64::from(req_id), [heap_offset, len]);
                // NO-WAITER: the requester completes this get on its own
                // thread; nothing else waits on the id.
                self.obs.emit(EventKind::GetChunkRx, u64::from(req_id), [0, len]);
                self.obs.emit(EventKind::GetDone, u64::from(req_id), [heap_offset, len]);
                Ok(Some(buf))
            }
            // Out of the exposed mapping — an oversized heap offset the
            // protocol path will reject with its own typed error.
            Ok(false) => Ok(None),
            // Link down, node frozen mid-read, peer revoked: the
            // protocol path owns rerouting and bounded retry.
            Err(e) if e.is_transient() => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Remote atomic on `width` bytes (1/2/4/8) at host `target`'s flat
    /// offset `heap_offset`. Returns the old value. Executed inside the
    /// target's service thread, serialized with every other AMO there.
    pub fn amo(
        &self,
        target: usize,
        op: AmoOp,
        heap_offset: u64,
        width: usize,
        operand: u64,
        compare: u64,
    ) -> Result<u64> {
        self.amo_opts(target, op, heap_offset, width, operand, compare, 0)
    }

    /// [`amo`](Self::amo) with an absolute wire deadline (`0` = none);
    /// the bounded-time semantics match
    /// [`get_bytes_opts`](Self::get_bytes_opts).
    #[allow(clippy::too_many_arguments)] // mirrors the OpenSHMEM AMO surface plus the deadline
    pub fn amo_opts(
        &self,
        target: usize,
        op: AmoOp,
        heap_offset: u64,
        width: usize,
        operand: u64,
        compare: u64,
        deadline_us: u32,
    ) -> Result<u64> {
        assert_ne!(target, self.me, "local atomics are handled by the SHMEM layer");
        assert!(matches!(width, 1 | 2 | 4 | 8), "AMO width must be 1/2/4/8");
        self.check_alive(target)?;
        // Validate the wire offset *before* registering the pending entry:
        // a `?` after `register` would leak the entry and leave the
        // AmoReqTx trace event unresolved (caught by the resolution lint).
        let wire_offset = offset32(heap_offset)?;
        let req_id = self.pending.register(8, target);
        self.obs.emit(EventKind::AmoReqTx, u64::from(req_id), [op as u64, heap_offset]);
        let mut payload = [0u8; 24];
        payload[0..8].copy_from_slice(&operand.to_le_bytes());
        payload[8..16].copy_from_slice(&compare.to_le_bytes());
        payload[16] = width as u8;
        let frame =
            Frame::amo_req(self.me, target, op, wire_offset, req_id).with_deadline_us(deadline_us);
        let send_req = || {
            let now = self.now_us();
            if deadline_us != 0 && now > deadline_us {
                return Err(NtbError::DeadlineExceeded);
            }
            self.check_alive(target)?;
            let ep = self.egress(target, None, &self.membership.view());
            let result = ep.txring.send(frame, Some(&payload), true).map_err(|f| f.error);
            self.note_send_result(ep, &result);
            if result.is_ok() && deadline_us != 0 {
                ep.obs.emit(
                    EventKind::DeadlineTx,
                    u64::from(req_id),
                    [u64::from(deadline_us), u64::from(now)],
                );
            }
            result
        };
        if let Err(e) = send_req() {
            if !(e.is_transient() || matches!(e, NtbError::LinkFailed { .. })) {
                self.pending.abandon(req_id);
                self.obs.emit(EventKind::AmoAbandon, u64::from(req_id), [0, 0]);
                return Err(e);
            }
        }
        // Retransmission is idempotent: the target caches the old value
        // per (origin, request id) and re-serves it without re-executing.
        let op_deadline =
            (deadline_us != 0).then(|| self.epoch + Duration::from_micros(u64::from(deadline_us)));
        let waited = self.pending.wait_with_retry_until(
            req_id,
            &self.model,
            &self.config.retry,
            op_deadline,
            |attempt| {
                self.obs.emit(EventKind::Retransmit, u64::from(req_id), [u64::from(attempt), 0]);
                send_req()
            },
        );
        let buf = match waited {
            Ok(buf) => buf,
            Err(e) => {
                self.obs.emit(EventKind::AmoAbandon, u64::from(req_id), [0, 0]);
                return Err(deadline_failure(e, deadline_us, self.now_us()));
            }
        };
        // `AmoDone` was logged by the service thread when it filled the
        // response, before this wait could return it.
        let bytes: [u8; 8] = buf
            .get(0..8)
            .and_then(|s| s.try_into().ok())
            .ok_or(NtbError::BadDescriptor { reason: "short AMO response" })?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Block until every put chunk this host has issued is acknowledged
    /// by its destination or abandoned by the retry sweeper
    /// (`shmem_quiet`). The sweeper bounds how long a chunk can stay
    /// unacknowledged, so this returns in bounded time — with
    /// [`NtbError::LinkFailed`] if any chunk exhausted its retries.
    pub fn quiet(&self) -> Result<()> {
        // Anything still staged in a transmit ring must be published
        // before waiting on acknowledgements, or quiet would stall until
        // the sweeper's timeout retransmits the staged chunks.
        self.flush_all_rings();
        self.unacked.quiet()
    }

    /// Outstanding unacknowledged put chunks (diagnostics).
    pub fn outstanding_puts(&self) -> u64 {
        self.unacked.current() as u64
    }

    /// In-flight get/AMO requests still registered in the pending table
    /// (diagnostics). Zero once every requester wait has resolved — a
    /// non-zero count after all ops returned means a leaked entry.
    pub fn pending_in_flight(&self) -> usize {
        self.pending.in_flight()
    }

    /// Ring the barrier doorbell (`start` or end) on the neighbour in
    /// `dir` (paper Fig. 6 sends the sweep rightward).
    ///
    /// The barrier sweep is structural — it must travel this exact link —
    /// so a down link cannot be routed around; instead the ring is
    /// retried with backoff until the link recovers or the retry budget
    /// is spent (down windows are timed, so recovery is the common case).
    pub fn send_barrier(&self, dir: RouteDirection, start: bool) -> Result<()> {
        let bit = if start { DB_BARRIER_START } else { DB_BARRIER_END };
        let ep = self.endpoint(dir);
        let policy = &self.config.retry;
        let mut attempt: u32 = 0;
        loop {
            match ep.port.ring_peer(bit) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < policy.max_retries => {
                    attempt += 1;
                    ep.obs.emit(EventKind::Retransmit, u64::from(bit), [u64::from(attempt), 0]);
                    // DEADLINE-CLIPPED: barrier doorbells carry no op deadline;
                    // the backoff is bounded by the retry budget above.
                    std::thread::sleep(policy.backoff(attempt - 1).max(Duration::from_millis(1)));
                }
                Err(e) if e.is_transient() => {
                    // RESOLVES(none): doorbell rings are untracked — no
                    // pending-table entry exists for a barrier signal.
                    return Err(NtbError::LinkFailed { attempts: attempt + 1 });
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Wait for a barrier doorbell from the neighbour in `from`
    /// direction; clears it on delivery. Returns `false` on timeout.
    pub fn wait_barrier(
        &self,
        from: RouteDirection,
        start: bool,
        timeout: Duration,
    ) -> Result<bool> {
        let bit = if start { DB_BARRIER_START } else { DB_BARRIER_END };
        // DEADLINE-CLIPPED: `timeout` is the caller's sweep quantum — the
        // barrier layer clips each sweep to its own deadline before calling.
        let fired = self.endpoint(from).port.doorbell().wait_and_clear(bit, Some(timeout))?;
        if fired {
            // The blocked PE is woken like any interrupt consumer.
            self.model.delay(self.model.interrupt_service_delay);
        }
        Ok(fired)
    }

    /// Raw single-hop window transfer (no frames, no service threads):
    /// the primitive the Fig. 8 link benchmark measures. Writes `len`
    /// bytes from `src` into the neighbour's window at `dst_off`.
    /// Only meaningful on an otherwise idle protocol (the bytes land in
    /// the window payload areas).
    pub fn raw_send(
        &self,
        dir: RouteDirection,
        src: &Region,
        src_off: u64,
        dst_off: u64,
        len: u64,
        mode: TransferMode,
    ) -> Result<()> {
        self.endpoint(dir).port.push_region(src, src_off, dst_off, len, mode)
    }

    /// Spawn the service and forwarder threads (one pair per endpoint).
    pub(crate) fn start(self: &Arc<Self>) {
        crate::lockdep_track!(&crate::lockdep::NET_ADMIN);
        let mut threads = self.threads.lock();
        for idx in 0..self.endpoints.len() {
            let peer = self.endpoints[idx].neighbor;
            let node = Arc::clone(self);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ntb-svc-h{}-to{}", self.me, peer))
                    .spawn(move || crate::service::service_loop(&node, idx))
                    // lint: unwrap-ok(spawn fails only on resource exhaustion at bring-up)
                    .expect("spawn service thread"),
            );
            let node = Arc::clone(self);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ntb-fwd-h{}-to{}", self.me, peer))
                    .spawn(move || crate::service::forwarder_loop(&node, idx))
                    // lint: unwrap-ok(spawn fails only on resource exhaustion at bring-up)
                    .expect("spawn forwarder thread"),
            );
        }
        if !self.endpoints.is_empty() {
            let node = Arc::clone(self);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ntb-rty-h{}", self.me))
                    .spawn(move || crate::service::retry_sweeper_loop(&node))
                    // lint: unwrap-ok(spawn fails only on resource exhaustion at bring-up)
                    .expect("spawn retry sweeper thread"),
            );
        }
    }

    /// Stop this node's background threads. The network must be quiescent
    /// (no in-flight application traffic).
    pub(crate) fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        {
            // Under the sweeper's lock: it checks the flag under the same
            // lock before each tick wait, so this wakeup cannot be lost.
            crate::lockdep_track!(&crate::lockdep::NET_ADMIN);
            let _guard = self.sweeper_lock.lock();
            self.sweeper_wake.notify_all();
        }
        for ep in &self.endpoints {
            ep.fwd.shutdown();
            // Wake the service thread blocked on its doorbell.
            let _ = ep.port.doorbell().ring(DB_SHUTDOWN);
        }
        crate::lockdep_track!(&crate::lockdep::NET_ADMIN);
        let mut threads = self.threads.lock();
        for h in threads.drain(..) {
            let _ = h.join();
        }
        for ep in &self.endpoints {
            ep.port.shutdown();
        }
    }

    /// Probe every `Down` endpoint with a one-byte write to the probe
    /// word of the peer's control slot; a successful write proves the
    /// path works again and snaps the endpoint back to `Up`.
    pub(crate) fn probe_down_links(&self) {
        for ep in &self.endpoints {
            if !ep.health.is_down() {
                continue;
            }
            ep.obs.emit(EventKind::ProbeTx, 0, [0, 0]);
            if ep
                .port
                .outgoing()
                .write_bytes(self.layout.probe_off(), &[0xA5], TransferMode::Memcpy)
                .is_ok()
            {
                ep.health.record_success();
                ep.obs.emit(EventKind::LinkUp, 0, [0, 0]);
            }
        }
    }

    /// Ring membership as this node currently believes it (heartbeat
    /// failure detector + gossip).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// True while [`Self::restart`] runs its rejoin handshake.
    pub fn is_rejoining(&self) -> bool {
        self.rejoining.load(Ordering::SeqCst)
    }

    /// Typed fast-fail gate: error immediately when `pe` is already known
    /// dead instead of burning a retry budget against a corpse.
    pub(crate) fn check_alive(&self, pe: usize) -> Result<()> {
        let view = self.membership.view();
        if view.is_live(pe) {
            Ok(())
        } else {
            // RESOLVES(none): fast-fail gate before anything is registered;
            // entries for ops already in flight are swept by `fail_dest`.
            Err(NtbError::PeFailed { pe, epoch: view.epoch })
        }
    }

    /// The failure detector confirmed `pe` dead: record it, fail every
    /// in-flight operation aimed at it (puts abandon, get/AMO waiters
    /// wake with [`NtbError::PeFailed`]), and gossip the new view.
    pub(crate) fn confirm_death(&self, pe: usize) {
        let Some(view) = self.membership.mark_dead(pe) else {
            return; // already dead (e.g. the other neighbour confirmed first)
        };
        self.obs.emit(EventKind::PeDead, view.epoch, [pe as u64, 0]);
        self.emit_membership_update(view);
        self.fail_ops_to(pe, view.epoch);
        self.gossip_view(view);
    }

    /// Abandon unacked puts and fail pending gets/AMOs targeting `pe`.
    fn fail_ops_to(&self, pe: usize, epoch: u64) {
        self.unacked.fail_dest(pe, epoch, |id| {
            self.obs.emit(EventKind::PutAbandon, u64::from(id), [0, pe as u64]);
        });
        self.pending.fail_dest(pe, NtbError::PeFailed { pe, epoch });
    }

    pub(crate) fn emit_membership_update(&self, view: MembershipView) {
        self.obs.emit(
            EventKind::MembershipUpdate,
            view.epoch,
            [u64::from(view.live), u64::from(view.crash_flags)],
        );
    }

    /// Adopt a gossiped view (strictly newer epochs only) and react to
    /// every per-PE transition it carries: newly dead PEs fail their
    /// in-flight ops, rejoined PEs re-enter (purging this node's
    /// duplicate-suppression state for them iff the rejoin was a
    /// crash-restart — a thawed PE's state survived and a purge would
    /// double-apply its retransmitted AMOs). Returns whether the view was
    /// adopted.
    pub(crate) fn adopt_view(&self, remote: MembershipView) -> bool {
        let Some((old, new)) = self.membership.adopt(remote) else {
            return false;
        };
        self.emit_membership_update(new);
        for pe in 0..self.num_hosts().min(32) {
            if pe == self.me {
                continue;
            }
            let was = old.is_live(pe);
            let is = new.is_live(pe);
            let crash_rose = new.crash_flags & (1 << pe) != 0 && old.crash_flags & (1 << pe) == 0;
            if was && !is {
                self.obs.emit(EventKind::PeDead, new.epoch, [pe as u64, 0]);
                self.fail_ops_to(pe, new.epoch);
            } else if !was && is {
                let crashed = new.crash_flags & (1 << pe) != 0;
                self.obs.emit(EventKind::PeRejoin, new.epoch, [pe as u64, u64::from(crashed)]);
                if crashed {
                    self.purge_peer_state(pe);
                }
            } else if is && crash_rose {
                // Fast restart: the PE crashed and rejoined before this
                // node ever saw it dead. The purge still applies.
                self.obs.emit(EventKind::PeRejoin, new.epoch, [pe as u64, 1]);
                self.purge_peer_state(pe);
            }
        }
        true
    }

    /// Forget duplicate-suppression state for `pe` (crash-restart purge).
    pub(crate) fn purge_peer_state(&self, pe: usize) {
        self.seen_puts.lock().purge_origin(pe);
        self.amo_cache.lock().purge_origin(pe);
    }

    /// Publish `view` on every endpoint's heartbeat block and ring the
    /// gossip doorbell. Best effort: a dead or faulted link simply does
    /// not carry this round of gossip; the periodic beat republishes.
    pub(crate) fn gossip_view(&self, view: MembershipView) {
        for ep in &self.endpoints {
            let _ = membership::publish_view(&ep.port, view);
            let _ = ep.port.ring_peer(DB_GOSSIP);
        }
    }

    /// Crash this host: every port dies atomically (in-flight and future
    /// transactions fail with `NodeDead`, queued DMA aborts) and the
    /// service threads park until [`Self::restart`].
    pub fn crash(&self) {
        self.obs.emit(EventKind::NodeCrash, 0, [self.me as u64, 0]);
        for ep in &self.endpoints {
            ep.port.kill();
        }
    }

    /// Freeze this host: port transactions stall (callers hang mid-
    /// protocol, exactly like a hung-but-not-crashed machine) until
    /// [`Self::thaw`].
    pub fn freeze(&self) {
        self.obs.emit(EventKind::NodeFreeze, 0, [self.me as u64, 0]);
        for ep in &self.endpoints {
            ep.port.freeze();
        }
    }

    /// Release a freeze: stalled transactions resume where they hung, and
    /// the resuming beats rejoin this host without any state purge.
    pub fn thaw(&self) {
        for ep in &self.endpoints {
            ep.port.thaw();
        }
        self.obs.emit(EventKind::NodeThaw, 0, [self.me as u64, 0]);
    }

    /// Bring a crashed node back into the ring: revive its ports, void
    /// the protocol state lost with the crash, publish a rejoin request
    /// to the neighbours, and wait (up to `timeout`) until a neighbour's
    /// gossiped view counts this host live again at the ring's current
    /// epoch. The service threads stay parked while this runs (they sleep
    /// while the node is dead or rejoining) and resume once it returns.
    pub fn restart(&self, timeout: Duration) -> Result<()> {
        self.rejoining.store(true, Ordering::SeqCst);
        for ep in &self.endpoints {
            ep.port.revive();
        }
        // Everything below died with the host: half-preserved dedup
        // windows would suppress the fresh ids the restarted protocol
        // reuses from zero, and nobody is left to wait on the old
        // in-flight entries.
        self.pending.reset();
        self.unacked.reset();
        *self.seen_puts.lock() = SeenPuts::default();
        *self.amo_cache.lock() = AmoCache::default();
        self.membership.reset();
        if !self.config.heartbeat.enabled || self.endpoints.is_empty() {
            // No detector, no membership protocol: a revive is all there
            // is to do.
            self.rejoining.store(false, Ordering::SeqCst);
            self.obs.emit(EventKind::NodeRestart, 0, [self.me as u64, 0]);
            return Ok(());
        }
        let sig = REJOIN_FLAG | rejoin_signature(self.me, self.num_hosts());
        let deadline = Instant::now() + timeout;
        let view = 'wait: loop {
            for ep in &self.endpoints {
                let _ = membership::write_beat(&ep.port, sig);
                let _ = ep.port.ring_peer(DB_GOSSIP);
            }
            for ep in &self.endpoints {
                if let Ok(Some((_, view))) = membership::read_peer_block(&ep.port) {
                    if view.epoch > 0 && view.is_live(self.me) {
                        break 'wait view;
                    }
                }
            }
            if Instant::now() >= deadline {
                self.rejoining.store(false, Ordering::SeqCst);
                return Err(NtbError::NotConnected);
            }
            // DEADLINE-CLIPPED: 1 ms poll tick inside a loop whose deadline
            // is checked immediately above every iteration.
            std::thread::sleep(Duration::from_millis(1));
        };
        self.membership.adopt(view);
        // Resume normal beats: withdrawing the rejoin flag tells the
        // neighbours the handshake is over.
        for ep in &self.endpoints {
            let _ = membership::write_beat(&ep.port, 1);
        }
        self.rejoining.store(false, Ordering::SeqCst);
        self.obs.emit(EventKind::NodeRestart, self.membership.epoch(), [self.me as u64, 0]);
        Ok(())
    }
}

impl std::fmt::Debug for NtbNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NtbNode").field("host", &self.me).field("hosts", &self.num_hosts()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AmoOp, DeliveryTarget, RingNetwork};

    /// Accepts every put and serves zeros; the credit path is under test.
    struct Sink;

    impl DeliveryTarget for Sink {
        fn deliver_put(&self, _offset: u64, _data: &[u8]) -> Result<()> {
            Ok(())
        }

        fn read_for_get(&self, _offset: u64, out: &mut [u8]) -> Result<()> {
            out.fill(0);
            Ok(())
        }

        fn deliver_atomic(&self, _: AmoOp, _: u64, _: usize, _: u64, _: u64) -> Result<u64> {
            Ok(0)
        }
    }

    /// A retransmission (`transmit_put` without deferral) whose doorbell
    /// ring fails after its slot header was written still lands: the
    /// receiver consumes it and grants its credit back, so the sender
    /// must not refund it. The gate then equals the receiver's ledger
    /// exactly, with nothing left for the corrupt-grant cap to clip.
    #[test]
    fn doorbell_failure_after_publish_keeps_the_credit_consumed() {
        // PIO writes crawl at 50 B/s, so the header write's modelled wire
        // time (80 ms) leaves a wide gap between the header landing and
        // the doorbell ring; the heartbeat is off so slow beats cannot
        // look like a death.
        let model = TimeModel { pio_write_bandwidth: 50.0, ..TimeModel::paper() };
        let cfg = NetConfig::fast(2)
            .with_model(model)
            .with_heartbeat(crate::membership::HeartbeatConfig::disabled());
        let net = RingNetwork::build(cfg).unwrap();
        let (a, b) = (net.node(0), net.node(1));
        b.set_delivery(Arc::new(Sink));
        let tx = &a.endpoints[a.graph.next_adapter(0, 1)];
        let rx = &b.endpoints[b.graph.next_adapter(1, 0)];
        assert_eq!(tx.link_idx, rx.link_idx);
        let window = tx.credit.granted_total();
        let slot0 = b.layout.ring_slot_off(0);
        let sent = std::thread::scope(|s| {
            let sender =
                s.spawn(|| a.transmit_put(7, 1, 0, &[0x5A], TransferMode::Memcpy, false, 0));
            // Kill the sender's port once the header is in the receiver's
            // ring (or already drained from it), before the doorbell.
            let landed = || {
                rx.port.incoming().region().load_u32(slot0).is_ok_and(|h| h != 0)
                    || b.metrics().total().frames_rx.load(Ordering::Relaxed) > 0
            };
            while !landed() {
                assert!(!sender.is_finished(), "the send finished before its header landed");
                std::hint::spin_loop();
            }
            tx.port.kill();
            sender.join().unwrap()
        });
        assert_eq!(sent, Err(NtbError::NodeDead), "the doorbell ring must fail");
        tx.port.revive();
        let deadline = Instant::now() + Duration::from_secs(10);
        while rx.ledger.total() < window + 1 {
            assert!(Instant::now() < deadline, "the receiver never consumed the frame");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The credit word carries the grant back; a refunded credit would
        // leave the cap (`consumed + window`) below it.
        while tx.credit.granted_total() < rx.ledger.total() && Instant::now() < deadline {
            a.refresh_credits(tx);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(tx.credit.consumed_total(), 1, "a landed frame keeps its credit");
        assert_eq!(tx.credit.granted_total(), rx.ledger.total(), "the cap clipped the grant");
        net.shutdown();
    }
}
