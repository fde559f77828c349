//! # ntb-net — the switchless PCIe NTB ring interconnect
//!
//! This crate implements the paper's data-sharing protocol (§III-A) on top
//! of the `ntb-sim` hardware model:
//!
//! * Hosts form a **ring**: each host carries two NTB adapters, cabled to
//!   the left and right neighbours ([`network::RingNetwork`]).
//! * A transfer pushes its payload into the neighbour's **memory window**
//!   and publishes a **transfer-info frame** ([`frame`]) as a record in
//!   the link's slot ring ([`slots`]), then rings a **doorbell**. A small
//!   payload travels in the slot's own lane; a large one is staged in the
//!   window's direct area if the neighbour is the final destination and
//!   in its **bypass area** otherwise. The ring delivers in publish order
//!   and one doorbell covers a whole batch. The ScratchPad registers only
//!   carry the bring-up handshake ([`handshake`]) and the heartbeat
//!   ([`membership`]).
//! * Each host runs **service threads** (paper Fig. 5): they deliver
//!   payloads destined for this host into the symmetric heap (through the
//!   [`delivery::DeliveryTarget`] installed by the OpenSHMEM layer) and
//!   forward everything else around the ring through the bypass buffer.
//! * Get requests travel as payload-free frames to the data's host, which
//!   streams response chunks back ([`node::NtbNode::get_bytes`]).
//! * Remote atomic operations ride the same frame protocol
//!   ([`delivery::AmoOp`]).
//!
//! The crate knows nothing about OpenSHMEM semantics; it moves bytes
//! between flat symmetric-address offsets. `shmem-core` layers the PGAS
//! model on top.

pub mod checker;
pub mod config;
pub mod crc;
pub mod credit;
pub mod delivery;
pub mod forwarder;
pub mod frame;
pub mod handshake;
pub mod layout;
pub mod lockdep;
pub mod membership;
pub mod network;
pub mod node;
pub mod pending;
pub mod service;
pub mod slots;
pub mod topology;

pub use checker::{check, check_log, CheckReport, Violation};
pub use config::{NetConfig, OverloadConfig, RetryPolicy};
pub use crc::crc32;
pub use credit::{CreditGate, CreditLedger, RetryBudget};
pub use delivery::{AmoOp, DeliveryTarget};
pub use forwarder::{ForwardJob, ForwardQueue, PushOutcome};
pub use frame::{Frame, FrameKind};
pub use handshake::{exchange_link_info, PeerInfo};
pub use layout::WindowLayout;
pub use membership::{BeatMonitor, BeatVerdict, HeartbeatConfig, Membership, MembershipView};
pub use network::RingNetwork;
pub use node::{NodeStats, NtbNode};
pub use pending::FillOutcome;
pub use topology::{Adapter, RouteDirection, Shape, TopoGraph, Topology, MAX_TOPO_NODES};

/// Doorbell bit assignments (paper §III-B1 defines the four interrupt
/// sources; bit 15 is the model's shutdown signal for service threads).
pub mod doorbells {
    /// Interrupt source for the slot ring: one ring announces a flushed
    /// batch of frames of every kind. The paper's separate DMA Get source
    /// (bit 1) is unused, because get and AMO requests ride the same
    /// in-order ring as the data.
    pub const DB_DMAPUT: u32 = 0;
    /// Barrier start sweep signal.
    pub const DB_BARRIER_START: u32 = 2;
    /// Barrier end sweep signal.
    pub const DB_BARRIER_END: u32 = 3;
    /// Membership gossip: "I updated my heartbeat block — read it now"
    /// (rejoin requests and epoch bumps propagate faster than a beat
    /// period this way; it is also the failure detector's confirmation
    /// probe, because ringing it succeeds against a dead host but fails
    /// with `LinkDown` against a faulted cable).
    pub const DB_GOSSIP: u32 = 4;
    /// Internal: wake service threads for shutdown.
    pub const DB_SHUTDOWN: u32 = 15;

    /// Mask of the bits the service threads listen on.
    pub const SERVICE_INTEREST: u32 = (1 << DB_DMAPUT) | (1 << DB_GOSSIP) | (1 << DB_SHUTDOWN);
    /// Mask of the bits the barrier algorithm listens on.
    pub const BARRIER_INTEREST: u32 = (1 << DB_BARRIER_START) | (1 << DB_BARRIER_END);
}
