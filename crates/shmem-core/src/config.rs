//! OpenSHMEM runtime configuration.

use std::time::Duration;

use ntb_net::NetConfig;
use ntb_sim::{TimeModel, TransferMode};

/// Which algorithm `shmem_barrier_all` runs.
///
/// The paper implements the two-round ring doorbell sweep (Fig. 6) and
/// notes that "the reduction of the latency overhead should be done in
/// future work"; [`BarrierAlgorithm::Dissemination`] is that future work:
/// the classic ⌈log₂N⌉-round dissemination barrier (Mellor-Crummey &
/// Scott), with the round signals carried as small puts through the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierAlgorithm {
    /// The paper's algorithm: a barrier-start sweep around the ring
    /// followed by a barrier-end sweep (2N doorbell hops).
    RingSweep,
    /// ⌈log₂N⌉ rounds of put-flag signalling to PE `(me + 2^k) mod N`.
    Dissemination,
}

/// What collectives do once the heartbeat failure detector has evicted a
/// PE from the ring membership.
///
/// With the detector disabled (the default [`HeartbeatConfig`]) the
/// membership never degrades and this knob is inert.
///
/// [`HeartbeatConfig`]: ntb_net::HeartbeatConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedPolicy {
    /// Refuse: collectives return
    /// [`ShmemError::PeFailed`](crate::error::ShmemError::PeFailed) while
    /// any PE is dead, keeping the SPMD contract explicit. The default.
    #[default]
    Fail,
    /// Continue over the live membership: barriers synchronize the
    /// survivors (a dissemination barrier over the live set) and data
    /// collectives skip dead destinations.
    Degrade,
}

/// Configuration of a [`ShmemWorld`](crate::runtime::ShmemWorld).
#[derive(Debug, Clone)]
pub struct ShmemConfig {
    /// Interconnect configuration (hosts, windows, timing model).
    pub net: NetConfig,
    /// Symmetric heap chunk size (the fixed on-demand allocation unit of
    /// paper Fig. 3; power of two).
    pub heap_chunk: u64,
    /// Data path used by puts/gets unless a call overrides it
    /// (the paper's DMA-vs-memcpy axis in Fig. 9).
    pub default_mode: TransferMode,
    /// `shmem_barrier_all` gives up after this long (a peer died).
    pub barrier_timeout: Duration,
    /// `shmem_wait_until` gives up after this long.
    pub wait_timeout: Duration,
    /// Barrier algorithm (default: the paper's ring sweep).
    pub barrier_algorithm: BarrierAlgorithm,
    /// Collective behaviour under a degraded membership (a PE confirmed
    /// dead by the heartbeat detector).
    pub degraded_policy: DegradedPolicy,
}

impl ShmemConfig {
    /// Start a [`ShmemConfigBuilder`] from the fast-simulation preset —
    /// the one-stop construction path for examples and applications:
    ///
    /// ```
    /// use shmem_core::prelude::*;
    /// let cfg = ShmemConfig::builder().hosts(3).tx_ring(64, 8).build();
    /// assert_eq!(cfg.hosts(), 3);
    /// ```
    pub fn builder() -> ShmemConfigBuilder {
        ShmemConfigBuilder::new()
    }

    /// Paper-scale timing (latencies comparable to the PEX testbed).
    pub fn paper() -> Self {
        ShmemConfig {
            net: NetConfig::paper(3),
            heap_chunk: 1 << 20,
            default_mode: TransferMode::Dma,
            barrier_timeout: Duration::from_secs(60),
            wait_timeout: Duration::from_secs(60),
            barrier_algorithm: BarrierAlgorithm::RingSweep,
            degraded_policy: DegradedPolicy::Fail,
        }
    }

    /// Fast functional simulation (no injected delays): the configuration
    /// tests and examples use.
    pub fn fast_sim() -> Self {
        ShmemConfig {
            net: NetConfig::fast(3),
            // Generous: `cargo test` oversubscribes small machines with
            // several concurrent worlds, and a timeout here aborts the
            // whole run rather than just slowing it.
            barrier_timeout: Duration::from_secs(60),
            wait_timeout: Duration::from_secs(60),
            ..Self::paper()
        }
    }

    /// Set the number of PEs (one per host in the switchless ring).
    pub fn with_hosts(mut self, hosts: usize) -> Self {
        self.net.hosts = hosts;
        self
    }

    /// Set the default transfer mode.
    pub fn with_mode(mut self, mode: TransferMode) -> Self {
        self.default_mode = mode;
        self
    }

    /// Replace the timing model.
    pub fn with_model(mut self, model: TimeModel) -> Self {
        self.net.model = model;
        self
    }

    /// Scale all injected delays (1.0 = paper scale, 0.0 = none).
    pub fn with_time_scale(mut self, scale: f64) -> Self {
        self.net.model = TimeModel::scaled(scale);
        self
    }

    /// Set the symmetric heap chunk size.
    pub fn with_heap_chunk(mut self, chunk: u64) -> Self {
        self.heap_chunk = chunk;
        self
    }

    /// Select the barrier algorithm.
    pub fn with_barrier_algorithm(mut self, alg: BarrierAlgorithm) -> Self {
        self.barrier_algorithm = alg;
        self
    }

    /// Select the degraded-membership collective policy.
    pub fn with_degraded_policy(mut self, policy: DegradedPolicy) -> Self {
        self.degraded_policy = policy;
        self
    }

    /// Enable/tune the heartbeat failure detector (whole-PE death
    /// detection through neighbour scratchpads).
    pub fn with_heartbeat(mut self, heartbeat: ntb_net::HeartbeatConfig) -> Self {
        self.net.heartbeat = heartbeat;
        self
    }

    /// Select the interconnect topology (the paper's switchless ring, or
    /// the switch-emulating full mesh baseline).
    pub fn with_topology(mut self, topology: ntb_net::Topology) -> Self {
        self.net.topology = topology;
        self
    }

    /// Override the lossy-link retry/recovery policy (acknowledgement
    /// timeouts, retransmission budget, backoff, link probing).
    pub fn with_retry(mut self, retry: ntb_net::RetryPolicy) -> Self {
        self.net.retry = retry;
        self
    }

    /// Install a fault-injection plan on every interconnect link (chaos
    /// and recovery testing; the default plan is inert).
    pub fn with_faults(mut self, faults: ntb_sim::FaultPlan) -> Self {
        self.net.faults = faults;
        self
    }

    /// Override the overload-survival tuning (queue bounds, flow-control
    /// credit window, retry budget). The defaults never shed on a clean
    /// functional run; overload benches and chaos cells shrink them.
    pub fn with_overload(mut self, overload: ntb_net::OverloadConfig) -> Self {
        self.net.overload = overload;
        self
    }

    /// Override the transmit-ring geometry (slots per link, batch cap).
    pub fn with_tx_ring(mut self, slots: u32, batch: u32) -> Self {
        self.net.tx_slots = slots;
        self.net.coalesce_batch = batch;
        self
    }

    /// Override the ring-path DMA/PIO crossover threshold in bytes.
    pub fn with_pio_crossover(mut self, bytes: u64) -> Self {
        self.net.pio_crossover = bytes;
        self
    }

    /// Tune the pipelined get path: the sub-request tile size in bytes
    /// and how many tiles stay in flight per get (`1` = stop-and-wait).
    pub fn with_get_pipeline(mut self, req_chunk: u64, window: usize) -> Self {
        self.net = self.net.with_get_pipeline(req_chunk, window);
        self
    }

    /// Number of PEs.
    pub fn hosts(&self) -> usize {
        self.net.hosts
    }

    /// Validate invariants (delegates to the net config and checks the
    /// heap chunk).
    pub fn validate(&self) {
        self.net.validate();
        assert!(
            self.heap_chunk.is_power_of_two() && self.heap_chunk >= 4096,
            "heap chunk must be a power of two >= 4096"
        );
    }
}

impl Default for ShmemConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Step-by-step construction of a [`ShmemConfig`], replacing positional
/// struct literals. Starts from [`ShmemConfig::fast_sim`] (no injected
/// delays); select [`paper_timing`](Self::paper_timing) for
/// testbed-scale latencies. `build()` validates the result.
#[derive(Debug, Clone)]
pub struct ShmemConfigBuilder {
    cfg: ShmemConfig,
}

impl ShmemConfigBuilder {
    /// A builder seeded with the fast-simulation preset.
    pub fn new() -> Self {
        ShmemConfigBuilder { cfg: ShmemConfig::fast_sim() }
    }

    /// Number of PEs (one per host in the switchless ring).
    pub fn hosts(mut self, hosts: usize) -> Self {
        self.cfg.net.hosts = hosts;
        self
    }

    /// Swap the timing preset to paper scale (PEX-testbed latencies).
    pub fn paper_timing(mut self) -> Self {
        self.cfg.net.model = TimeModel::paper();
        self
    }

    /// Scale all injected delays (1.0 = paper scale, 0.0 = none).
    pub fn time_scale(mut self, scale: f64) -> Self {
        self.cfg.net.model = TimeModel::scaled(scale);
        self
    }

    /// Default data path for puts/gets.
    pub fn default_mode(mut self, mode: TransferMode) -> Self {
        self.cfg.default_mode = mode;
        self
    }

    /// Symmetric heap chunk size (power of two ≥ 4096).
    pub fn heap_chunk(mut self, chunk: u64) -> Self {
        self.cfg.heap_chunk = chunk;
        self
    }

    /// Barrier algorithm (ring sweep or dissemination).
    pub fn barrier_algorithm(mut self, alg: BarrierAlgorithm) -> Self {
        self.cfg.barrier_algorithm = alg;
        self
    }

    /// Degraded-membership collective policy (fail fast or continue over
    /// the live PEs).
    pub fn degraded_policy(mut self, policy: DegradedPolicy) -> Self {
        self.cfg.degraded_policy = policy;
        self
    }

    /// Heartbeat failure-detector tuning (disabled by default).
    pub fn heartbeat(mut self, heartbeat: ntb_net::HeartbeatConfig) -> Self {
        self.cfg.net.heartbeat = heartbeat;
        self
    }

    /// `shmem_barrier_all` timeout.
    pub fn barrier_timeout(mut self, t: Duration) -> Self {
        self.cfg.barrier_timeout = t;
        self
    }

    /// `shmem_wait_until` timeout.
    pub fn wait_timeout(mut self, t: Duration) -> Self {
        self.cfg.wait_timeout = t;
        self
    }

    /// Interconnect topology: `Topology::ring(n)`, `Topology::torus(rows,
    /// cols)` or `Topology::clique(n)`. Non-ring shapes always run the
    /// dissemination barrier (the ring sweep needs ring-direction
    /// adapters).
    ///
    /// ```
    /// use shmem_core::prelude::*;
    /// let cfg = ShmemConfig::builder().hosts(16).topology(Topology::torus(4, 4)).build();
    /// assert_eq!(cfg.hosts(), 16);
    /// ```
    pub fn topology(mut self, topology: ntb_net::Topology) -> Self {
        self.cfg.net.topology = topology;
        self
    }

    /// Lossy-link retry/recovery policy.
    pub fn retry(mut self, retry: ntb_net::RetryPolicy) -> Self {
        self.cfg.net.retry = retry;
        self
    }

    /// Fault-injection plan for every interconnect link.
    pub fn faults(mut self, faults: ntb_sim::FaultPlan) -> Self {
        self.cfg.net.faults = faults;
        self
    }

    /// Transmit-ring geometry: slots per link and the batch cap that
    /// forces a flush.
    pub fn tx_ring(mut self, slots: u32, batch: u32) -> Self {
        self.cfg.net.tx_slots = slots;
        self.cfg.net.coalesce_batch = batch;
        self
    }

    /// Ring-path DMA/PIO crossover threshold in bytes.
    pub fn pio_crossover(mut self, bytes: u64) -> Self {
        self.cfg.net.pio_crossover = bytes;
        self
    }

    /// Pipelined get tuning: sub-request tile size in bytes and the
    /// in-flight window per get (`1` = stop-and-wait).
    pub fn get_pipeline(mut self, req_chunk: u64, window: usize) -> Self {
        self.cfg.net = self.cfg.net.with_get_pipeline(req_chunk, window);
        self
    }

    /// Finish: validate and return the configuration.
    pub fn build(self) -> ShmemConfig {
        self.cfg.validate();
        self.cfg
    }
}

impl Default for ShmemConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ShmemConfig::paper().validate();
        ShmemConfig::fast_sim().validate();
        ShmemConfig::fast_sim().with_hosts(6).with_mode(TransferMode::Memcpy).validate();
    }

    #[test]
    fn fast_sim_disables_delays() {
        assert!(!ShmemConfig::fast_sim().net.model.enabled());
        assert!(ShmemConfig::paper().net.model.enabled());
    }

    #[test]
    #[should_panic(expected = "heap chunk")]
    fn bad_heap_chunk_rejected() {
        ShmemConfig::fast_sim().with_heap_chunk(1000).validate();
    }

    #[test]
    fn builders_chain() {
        let c = ShmemConfig::fast_sim().with_hosts(5).with_heap_chunk(8192);
        assert_eq!(c.hosts(), 5);
        assert_eq!(c.heap_chunk, 8192);
    }

    #[test]
    fn builder_covers_batching_knobs() {
        let c = ShmemConfig::builder()
            .hosts(5)
            .default_mode(TransferMode::Memcpy)
            .heap_chunk(8192)
            .tx_ring(4, 2)
            .pio_crossover(512)
            .build();
        assert_eq!(c.hosts(), 5);
        assert_eq!(c.default_mode, TransferMode::Memcpy);
        assert_eq!(c.net.tx_slots, 4);
        assert_eq!(c.net.batch_cap(), 2);
        assert_eq!(c.net.pio_crossover, 512);
    }

    #[test]
    fn builder_covers_failure_knobs() {
        let c = ShmemConfig::builder()
            .hosts(5)
            .heartbeat(ntb_net::HeartbeatConfig::fast())
            .degraded_policy(DegradedPolicy::Degrade)
            .build();
        assert!(c.net.heartbeat.enabled);
        assert_eq!(c.degraded_policy, DegradedPolicy::Degrade);
        assert_eq!(ShmemConfig::fast_sim().degraded_policy, DegradedPolicy::Fail);
    }

    #[test]
    fn builder_covers_get_pipeline_knobs() {
        let c = ShmemConfig::builder().hosts(2).get_pipeline(64 << 10, 8).build();
        assert_eq!(c.net.get_req_chunk, 64 << 10);
        assert_eq!(c.net.get_window, 8);
        let c = ShmemConfig::fast_sim().with_get_pipeline(32 << 10, 1);
        assert_eq!(c.net.get_req_chunk, 32 << 10);
        assert_eq!(c.net.get_window, 1);
        c.validate();
    }

    #[test]
    fn builder_can_ring_one_doorbell_per_frame() {
        let c = ShmemConfig::builder().hosts(2).tx_ring(64, 1).build();
        assert_eq!(c.net.batch_cap(), 1);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "heap chunk")]
    fn builder_validates_on_build() {
        ShmemConfig::builder().heap_chunk(1000).build();
    }
}
