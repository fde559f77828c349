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
        let c = ShmemConfig::fast_sim()
            .with_hosts(5)
            .with_mode(TransferMode::Memcpy)
            .with_heap_chunk(8192)
            .with_tx_ring(4, 2)
            .with_pio_crossover(512);
        c.validate();
        assert_eq!(c.hosts(), 5);
        assert_eq!(c.heap_chunk, 8192);
        assert_eq!(c.default_mode, TransferMode::Memcpy);
        assert_eq!(c.net.tx_slots, 4);
        assert_eq!(c.net.batch_cap(), 2);
        assert_eq!(c.net.pio_crossover, 512);
        // One doorbell per frame.
        let c = ShmemConfig::fast_sim().with_hosts(2).with_tx_ring(64, 1);
        c.validate();
        assert_eq!(c.net.batch_cap(), 1);
    }

    #[test]
    fn failure_knobs_chain() {
        let c = ShmemConfig::fast_sim()
            .with_hosts(5)
            .with_heartbeat(ntb_net::HeartbeatConfig::fast())
            .with_degraded_policy(DegradedPolicy::Degrade);
        c.validate();
        assert!(c.net.heartbeat.enabled);
        assert_eq!(c.degraded_policy, DegradedPolicy::Degrade);
        assert_eq!(ShmemConfig::fast_sim().degraded_policy, DegradedPolicy::Fail);
    }

    #[test]
    fn get_pipeline_knobs_chain() {
        let c = ShmemConfig::fast_sim().with_hosts(2).with_get_pipeline(64 << 10, 8);
        assert_eq!(c.net.get_req_chunk, 64 << 10);
        assert_eq!(c.net.get_window, 8);
        let c = ShmemConfig::fast_sim().with_get_pipeline(32 << 10, 1);
        assert_eq!(c.net.get_req_chunk, 32 << 10);
        assert_eq!(c.net.get_window, 1);
        c.validate();
    }
}
