//! # ntb-sim — a software model of a PCIe Non-Transparent Bridge port
//!
//! This crate is the hardware substrate for the OpenSHMEM-over-NTB
//! reproduction. The paper's prototype uses PLX PEX 8733/8749 chipset NTB
//! host adapters cabled into a switchless ring; this crate models the parts
//! of that hardware the software stack can observe:
//!
//! * **Memory windows with address translation** ([`bar`], [`window`]) — a
//!   write into an outgoing window lands, after the translation configured in
//!   the BAR registers, in the *peer host's* physical memory (paper Fig. 1).
//! * **ScratchPad registers** ([`scratchpad`]) — eight 32-bit registers per
//!   link, readable and writable from both sides, used for the bring-up
//!   exchange and the heartbeat.
//! * **Doorbell registers** ([`doorbell`]) — sixteen interrupt bits per port
//!   with set / clear / mask semantics; the peer rings them to raise an
//!   interrupt.
//! * **A descriptor-based DMA engine** ([`dma`]) and the slower CPU-`memcpy`
//!   (PIO) path through the mapped window.
//! * **Link timing** ([`timing`]) — PCIe generation / lane-count bandwidth,
//!   per-transfer setup cost, per-link serialization and duplex contention.
//!   All latencies are injected wall-clock delays calibrated against the
//!   paper's measured curves; a zero [`timing::TimeModel`] turns
//!   the model into a pure functional simulator for fast tests.
//!
//! The crate deliberately mirrors the *driver-visible* surface of the real
//! adapter (what Linux's `ntb_hw_plx` / `ntb_transport` would expose), so the
//! layers above (`ntb-net`, `shmem-core`) are written exactly as they would
//! be against real hardware.

pub mod aperture;
pub mod bar;
pub mod config_space;
pub mod dma;
pub mod doorbell;
pub mod error;
pub mod fault;
pub mod link;
pub mod memory;
pub mod obs;
pub mod port;
pub mod scratchpad;
pub mod stats;
pub mod timing;
pub mod window;

pub use aperture::{ApertureCell, ReadAperture};
pub use bar::{BarConfig, BarKind, LutEntry, LutTable};
pub use config_space::{ConfigSpace, DEVICE_PEX8733, DEVICE_PEX8749, VENDOR_PLX};
pub use dma::{DmaEngine, DmaHandle, DmaRequest};
pub use doorbell::{Doorbell, DoorbellWaiter, DOORBELL_BITS};
pub use error::{NtbError, Result};
pub use fault::{
    DmaFaultOutcome, FaultAction, FaultInjector, FaultPlan, LinkDownWindow, NodeFault,
    NodeFaultAction, ResourceFault, ResourceFaultAction, ScriptedFault, DATA_DOORBELL_MASK,
};
pub use link::{LaneCount, LinkHealth, LinkHealthTracker, LinkSpec, PcieGen};
pub use memory::{HostMemory, Region};
pub use obs::{
    events_to_json, render_events, EventKind, EventLog, LatencyHistogram, LinkMetrics,
    MetricsRegistry, Obs, OpClass, TraceEvent, DEFAULT_TRACE_CAPACITY, NO_LINK,
};
pub use port::{
    connect_ports, connect_ports_observed, connect_ports_with_faults, NtbPort, PortConfig, PortId,
};
pub use scratchpad::{ScratchpadBank, SCRATCHPAD_COUNT};
pub use stats::{FaultStats, FaultStatsSnapshot, LinkStats, PortStats, PortStatsSnapshot};
pub use timing::{spin_for, spin_until, LinkDirection, LinkTimer, TimeModel, TransferMode};
pub use window::{IncomingWindow, OutgoingWindow};
