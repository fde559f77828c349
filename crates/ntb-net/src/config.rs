//! Interconnect configuration.

use std::time::Duration;

use ntb_sim::{FaultPlan, TimeModel};

/// Retry/recovery knobs for the lossy-link protocol: the floor and the
/// ceiling of the retransmission timeout, how many retransmissions to
/// attempt, and link recovery. The timeout itself is measured, not set:
/// [`crate::rto`] learns it per destination from the acknowledgements
/// (RFC 6298) and doubles it per attempt. The defaults keep a fault-free
/// run free of spurious retransmits, yet bound every blocking call: with
/// the default policy an unreachable peer surfaces `LinkFailed` within
/// [`RetryPolicy::worst_case`] instead of hanging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// The retransmission timeout before any round trip was measured, and
    /// its floor afterwards.
    pub min_rto: Duration,
    /// The retransmission timeout's ceiling, however often it doubles.
    pub max_rto: Duration,
    /// Retransmissions to attempt after the initial send before the
    /// operation is declared failed. Also bounds the link-local waits
    /// (doorbell and slot-wait re-rings, forwarder re-dispatch).
    pub max_retries: u32,
    /// How often a `Down` link endpoint is probed for recovery.
    pub probe_interval: Duration,
    /// Consecutive transient failures before a link endpoint is marked
    /// `Down` and traffic reroutes around it.
    pub failure_threshold: u32,
}

impl RetryPolicy {
    /// How long an operation can stay pending before `LinkFailed`
    /// surfaces when its destination's timeout sits at the floor and
    /// nothing returns: every attempt of the doubling schedule from
    /// `min_rto` (see [`crate::rto::schedule`]).
    pub fn worst_case(&self) -> Duration {
        (0..=self.max_retries)
            .map(|attempt| crate::rto::schedule(self, self.min_rto, attempt))
            .sum()
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            min_rto: Duration::from_millis(200),
            max_rto: Duration::from_millis(600),
            max_retries: 5,
            probe_interval: Duration::from_millis(50),
            failure_threshold: 3,
        }
    }
}

/// Overload-survival knobs: bounded queues, credit-based flow control and
/// the retransmission token bucket (DESIGN.md §14). The defaults are
/// generous — sized so a fault-free functional run never sheds — while
/// still bounding every queue and retry stream; overload benches and
/// chaos cells shrink them deliberately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Bound on each per-link forward queue (jobs). Every transmit-path
    /// queue must be bounded; this is the main staging bound.
    pub forward_queue_cap: usize,
    /// Forward-queue occupancy at/above which the endpoint reports
    /// congestion and stops advertising credits to its peer sender.
    pub high_watermark: usize,
    /// Occupancy at/below which congestion clears (hysteresis). Also the
    /// most put chunks a host keeps waiting for their acks: an end-to-end
    /// window over every hop and the ack return path.
    pub low_watermark: usize,
    /// Frames' worth of credit a receiver advertises to each peer sender
    /// at bring-up, re-granted one per drained frame.
    pub credit_window: u64,
    /// Token-bucket retry budget: sustained retransmissions per second
    /// per link the sweeper may issue.
    pub retry_budget_rate: f64,
    /// Retry token-bucket burst capacity (and initial fill).
    pub retry_budget_burst: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            forward_queue_cap: 1024,
            high_watermark: 768,
            low_watermark: 512,
            credit_window: 256,
            retry_budget_rate: 500.0,
            retry_budget_burst: 250,
        }
    }
}

impl OverloadConfig {
    /// Validate invariants; panics with a descriptive message on misuse.
    pub fn validate(&self) {
        assert!(self.forward_queue_cap >= 1, "forward queue capacity must be at least 1");
        assert!(
            self.low_watermark <= self.high_watermark
                && self.high_watermark <= self.forward_queue_cap,
            "watermarks must satisfy low <= high <= capacity"
        );
        assert!(self.credit_window >= 1, "credit window must be at least 1 frame");
        assert!(
            self.retry_budget_rate > 0.0 && self.retry_budget_burst >= 1,
            "retry budget needs a positive rate and burst"
        );
    }
}

/// Configuration of the switchless ring network.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Number of hosts in the ring (1..=64; the paper's testbed has 3).
    pub hosts: usize,
    /// Interconnect shape: the paper's switchless ring, or the
    /// switch-emulating full mesh used as the comparison baseline.
    pub topology: crate::topology::Topology,
    /// Incoming window size per link (power of two). Must hold the direct
    /// and bypass areas.
    pub window_size: u64,
    /// Direct buffer size: payload area for traffic terminating at this
    /// host. Also the put chunk size.
    pub direct_buf: u64,
    /// Bypass buffer size: payload area for traffic this host forwards
    /// (paper §III-B1 allocates it at init).
    pub bypass_buf: u64,
    /// Chunk size for streaming Get responses.
    pub get_resp_chunk: u64,
    /// Largest byte range one Get *request* frame asks for: a bigger get
    /// is split into independent sub-requests that the pipeline keeps in
    /// flight concurrently (each sub-request's response still streams in
    /// `get_resp_chunk` pieces).
    pub get_req_chunk: u64,
    /// Default number of get sub-requests kept in flight per operation
    /// (the pipeline window). 1 degenerates to the paper prototype's
    /// stop-and-wait behaviour. Per-op override via `OpOptions` upstack.
    pub get_window: usize,
    /// DMA channels per NTB adapter.
    pub dma_channels: usize,
    /// Simulated physical memory per host.
    pub host_mem_capacity: u64,
    /// The timing model all hardware shares.
    pub model: TimeModel,
    /// Retry/recovery policy for the lossy-link protocol.
    pub retry: RetryPolicy,
    /// Overload-survival tuning: queue bounds, credits, retry budget.
    pub overload: OverloadConfig,
    /// Heartbeat failure-detector tuning (whole-PE death, not link loss).
    pub heartbeat: crate::membership::HeartbeatConfig,
    /// Fault-injection plan applied to every link (empty = clean links).
    pub faults: FaultPlan,
    /// Transmit-ring slots per link direction. The default (64) holds
    /// what a sender publishes during one receiver wake: the receiver
    /// drains only after its interrupt-service delay (150 µs at paper
    /// timing), and a small frame takes about 2.5 µs to publish, so some
    /// 60 frames land before the first drain (see DESIGN.md §12).
    pub tx_slots: u32,
    /// Published slots that force a flush (capped by `tx_slots`); 1 rings
    /// one doorbell per frame.
    pub coalesce_batch: u32,
    /// Largest payload a ring slot's lane carries; a bigger payload is
    /// staged in the window's direct or bypass area instead.
    pub coalesce_payload_max: u64,
    /// Payloads at or below this move by zero-copy PIO writes even in
    /// DMA mode — the paper's Fig. 9 DMA/PIO crossover.
    pub pio_crossover: u64,
}

impl NetConfig {
    /// Paper-scale configuration with `hosts` hosts.
    pub fn paper(hosts: usize) -> Self {
        NetConfig { hosts, ..Self::default() }
    }

    /// Fast functional configuration (no injected delays) for tests.
    pub fn fast(hosts: usize) -> Self {
        NetConfig { hosts, model: TimeModel::zero(), ..Self::default() }
    }

    /// Override the timing model.
    pub fn with_model(mut self, model: TimeModel) -> Self {
        self.model = model;
        self
    }

    /// Override direct/bypass buffer sizes (put chunking granularity).
    pub fn with_buffers(mut self, direct: u64, bypass: u64) -> Self {
        self.direct_buf = direct;
        self.bypass_buf = bypass;
        self
    }

    /// Override the get response chunk size.
    pub fn with_get_chunk(mut self, chunk: u64) -> Self {
        self.get_resp_chunk = chunk;
        self
    }

    /// Override the get pipeline geometry: sub-request size and how many
    /// sub-requests stay in flight per operation.
    pub fn with_get_pipeline(mut self, req_chunk: u64, window: usize) -> Self {
        self.get_req_chunk = req_chunk;
        self.get_window = window;
        self
    }

    /// Override the interconnect topology.
    pub fn with_topology(mut self, topology: crate::topology::Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Override the retry/recovery policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Override the overload-survival tuning.
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = overload;
        self
    }

    /// Override the heartbeat failure-detector tuning.
    pub fn with_heartbeat(mut self, heartbeat: crate::membership::HeartbeatConfig) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Install a fault-injection plan on every link.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override the transmit-ring geometry (slot count and batch cap).
    pub fn with_tx_ring(mut self, slots: u32, batch: u32) -> Self {
        self.tx_slots = slots;
        self.coalesce_batch = batch;
        self
    }

    /// Override the DMA/PIO crossover.
    pub fn with_pio_crossover(mut self, bytes: u64) -> Self {
        self.pio_crossover = bytes;
        self
    }

    /// Effective batch cap: the configured cap bounded by the ring size.
    pub fn batch_cap(&self) -> u32 {
        self.coalesce_batch.clamp(1, self.tx_slots.max(1))
    }

    /// The put chunking granularity: a payload larger than this is split.
    /// Bounded by both areas because a chunk may need forwarding.
    pub fn put_chunk(&self) -> u64 {
        self.direct_buf.min(self.bypass_buf)
    }

    /// Validate invariants; panics with a descriptive message on misuse.
    pub fn validate(&self) {
        assert!(self.hosts >= 1 && self.hosts <= crate::frame::MAX_HOSTS + 1, "1..=64 hosts");
        assert!(self.window_size.is_power_of_two(), "window size must be a power of two");
        assert!(
            crate::layout::WindowLayout::required_size(
                self.direct_buf,
                self.bypass_buf,
                self.tx_slots,
                self.coalesce_payload_max,
            ) <= self.window_size,
            "window too small for direct+bypass areas and the transmit ring"
        );
        assert!(self.tx_slots >= 1, "the transmit ring needs at least one slot");
        assert!(self.coalesce_batch >= 1, "coalesce batch must be at least one slot");
        assert!(self.coalesce_payload_max >= 4, "ring payload lane must hold at least one word");
        assert!(
            self.get_resp_chunk > 0 && self.get_resp_chunk <= self.put_chunk(),
            "get response chunk must fit the payload areas"
        );
        assert!(self.get_req_chunk >= 1, "get request chunk must be at least one byte");
        assert!(self.get_window >= 1, "get pipeline window must be at least 1");
        assert!(self.dma_channels >= 1, "need at least one DMA channel");
        assert!(
            !self.retry.min_rto.is_zero() && self.retry.min_rto <= self.retry.max_rto,
            "retransmission timeout needs 0 < min_rto <= max_rto"
        );
        self.overload.validate();
        if self.heartbeat.enabled {
            assert!(
                self.hosts <= 32,
                "the membership bitmap is one 32-bit scratchpad word; disable the heartbeat \
                 detector for rings beyond 32 hosts"
            );
            assert!(
                self.heartbeat.period > Duration::ZERO && self.heartbeat.miss_threshold >= 1,
                "heartbeat period and miss threshold must be positive"
            );
        }
        if let Some(declared) = self.topology.declared_hosts() {
            assert!(
                declared == self.hosts,
                "topology declares {declared} hosts but the config has {}",
                self.hosts
            );
        }
        if self.topology.shape() == crate::topology::Shape::Clique {
            assert!(self.hosts <= 16, "clique adapter slots are limited to 16 hosts");
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            hosts: 3,
            topology: crate::topology::Topology::default(),
            window_size: 4 << 20,
            direct_buf: 256 << 10,
            bypass_buf: 256 << 10,
            get_resp_chunk: 64 << 10,
            get_req_chunk: 256 << 10,
            get_window: 4,
            dma_channels: 1,
            host_mem_capacity: 512 << 20,
            model: TimeModel::paper(),
            retry: RetryPolicy::default(),
            overload: OverloadConfig::default(),
            heartbeat: crate::membership::HeartbeatConfig::default(),
            faults: FaultPlan::none(),
            tx_slots: 64,
            coalesce_batch: 8,
            coalesce_payload_max: 4096,
            pio_crossover: 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        NetConfig::default().validate();
        NetConfig::fast(2).validate();
        NetConfig::paper(3).validate();
    }

    #[test]
    fn fast_has_no_delays() {
        assert!(!NetConfig::fast(3).model.enabled());
    }

    #[test]
    fn put_chunk_is_min_of_areas() {
        let c = NetConfig::default().with_buffers(128 << 10, 64 << 10).with_get_chunk(32 << 10);
        assert_eq!(c.put_chunk(), 64 << 10);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "window too small")]
    fn oversized_buffers_rejected() {
        let mut c = NetConfig::fast(3);
        c.direct_buf = 4 << 20;
        c.bypass_buf = 4 << 20;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_window_rejected() {
        let mut c = NetConfig::fast(3);
        c.window_size = 3 << 20;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "get response chunk")]
    fn oversized_get_chunk_rejected() {
        let c = NetConfig::fast(3).with_get_chunk(1 << 20);
        c.validate();
    }

    #[test]
    fn get_pipeline_knobs_validate() {
        let c = NetConfig::fast(3).with_get_pipeline(4096, 8);
        assert_eq!(c.get_req_chunk, 4096);
        assert_eq!(c.get_window, 8);
        c.validate();
        // Window 1 (stop-and-wait oracle) is legal.
        NetConfig::fast(3).with_get_pipeline(1, 1).validate();
    }

    #[test]
    #[should_panic(expected = "get pipeline window")]
    fn zero_get_window_rejected() {
        NetConfig::fast(3).with_get_pipeline(4096, 0).validate();
    }

    #[test]
    fn worst_case_sums_the_doubling_schedule() {
        let p = RetryPolicy {
            min_rto: Duration::from_millis(10),
            max_rto: Duration::from_millis(35),
            max_retries: 3,
            ..RetryPolicy::default()
        };
        // 10 + 20 + 35 + 35: doubled per attempt, capped at the ceiling.
        assert_eq!(p.worst_case(), Duration::from_millis(100));
        let d = RetryPolicy::default();
        assert!(d.worst_case() >= d.min_rto * (d.max_retries + 1));
        assert!(d.worst_case() < Duration::from_secs(30));
    }

    #[test]
    fn coalescing_knobs_validate() {
        let c = NetConfig::fast(3).with_tx_ring(4, 2).with_pio_crossover(512);
        assert_eq!(c.batch_cap(), 2);
        c.validate();
        // One doorbell per frame.
        NetConfig::fast(3).with_tx_ring(64, 1).validate();
        // Batch cap never exceeds the ring size.
        assert_eq!(NetConfig::fast(3).with_tx_ring(2, 16).batch_cap(), 2);
    }

    #[test]
    #[should_panic(expected = "transmit ring")]
    fn ring_counted_against_window_size() {
        let mut c = NetConfig::fast(3);
        c.window_size = 1 << 20;
        c.direct_buf = 512 << 10;
        c.bypass_buf = 512 << 10; // direct+bypass fill the window exactly
        c.validate();
    }

    #[test]
    fn overload_defaults_validate() {
        let o = OverloadConfig::default();
        o.validate();
        assert!(o.low_watermark <= o.high_watermark);
        assert!(o.high_watermark <= o.forward_queue_cap);
    }

    #[test]
    #[should_panic(expected = "low <= high <= capacity")]
    fn inverted_watermarks_rejected() {
        let o = OverloadConfig { high_watermark: 10, low_watermark: 20, ..Default::default() };
        o.validate();
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn unbounded_forward_queue_rejected() {
        let o = OverloadConfig {
            forward_queue_cap: 0,
            high_watermark: 0,
            low_watermark: 0,
            ..Default::default()
        };
        o.validate();
    }

    #[test]
    fn default_faults_inactive() {
        assert!(!NetConfig::default().faults.is_active());
        let c = NetConfig::fast(3).with_faults(FaultPlan::none().with_doorbell_drop(0.01));
        assert!(c.faults.is_active());
        c.validate();
    }
}
