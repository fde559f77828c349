//! # shmem-core — the OpenSHMEM programming model over a switchless PCIe
//! NTB ring
//!
//! This crate is the paper's primary contribution: an OpenSHMEM library
//! whose transport is the switchless NTB interconnect of `ntb-net` rather
//! than InfiniBand or Ethernet verbs.
//!
//! * [`runtime::ShmemWorld::run`] — `shmem_init` / `shmem_finalize`: ring
//!   setup, symmetric-heap creation, service threads, one thread per PE.
//! * [`heap::SymmetricHeap`] — the chunked, virtually contiguous symmetric
//!   heap of paper Fig. 3, with identical offsets on every PE.
//! * [`ctx::ShmemCtx`] — the Table-I API: `my_pe`, `num_pes`,
//!   `shmem_malloc`, typed put/get (DMA or PIO-memcpy data path),
//!   `shmem_barrier_all` (the two-round ring sweep of Fig. 6), plus the
//!   essential extensions of §II-B: remote atomics, broadcast,
//!   reductions, collect/all-to-all, distributed locks and
//!   `wait_until`/`test`.
//!
//! ```
//! use shmem_core::{ShmemConfig, ShmemWorld};
//!
//! // Three PEs pass a token around the ring.
//! let sums = ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(3), |ctx| {
//!     let sym = ctx.malloc_array::<u64>(1).unwrap();
//!     let right = (ctx.my_pe() + 1) % ctx.num_pes();
//!     ctx.put(&sym, 0, ctx.my_pe() as u64 + 1, right).unwrap();
//!     ctx.barrier_all().unwrap();
//!     ctx.read_local(&sym, 0).unwrap()
//! })
//! .unwrap();
//! assert_eq!(sums.iter().sum::<u64>(), 1 + 2 + 3);
//! ```

pub mod atomics;
pub mod barrier;
pub mod capi;
pub mod collectives;
pub mod config;
pub mod ctx;
pub mod error;
pub mod heap;
pub mod lock;
pub mod runtime;
pub mod signal;
pub mod strided;
pub mod symmetric;
pub mod sync;
pub mod teams;
pub mod types;

pub use barrier::BarrierPhase;
pub use capi::CApi;
pub use collectives::{ReduceOp, ShmemReduce};
pub use config::{BarrierAlgorithm, DegradedPolicy, ShmemConfig};
pub use ctx::{OpOptions, ShmemCtx};
pub use error::{Result, ShmemError};
pub use heap::SymmetricHeap;
pub use runtime::ShmemWorld;
pub use signal::SignalOp;
pub use symmetric::{SymAddr, TypedSym};
pub use sync::CmpOp;
pub use teams::{ActiveSet, Team};
pub use types::{ShmemAtomicInt, ShmemScalar};

// Re-export the knobs callers configure through us.
pub use ntb_net::{HeartbeatConfig, OverloadConfig, Shape, Topology};
pub use ntb_sim::{TimeModel, TransferMode};

/// The curated import surface for applications and examples:
/// `use shmem_core::prelude::*;` brings in the world, the context, the
/// config, per-op options and the common value types.
pub mod prelude {
    pub use crate::barrier::BarrierPhase;
    pub use crate::collectives::{ReduceOp, ShmemReduce};
    pub use crate::config::{BarrierAlgorithm, DegradedPolicy, ShmemConfig};
    pub use crate::ctx::{OpOptions, PeStats, ShmemCtx};
    pub use crate::error::{Result, ShmemError};
    pub use crate::runtime::ShmemWorld;
    pub use crate::signal::SignalOp;
    pub use crate::symmetric::{SymAddr, TypedSym};
    pub use crate::sync::CmpOp;
    pub use crate::teams::{ActiveSet, Team};
    pub use crate::types::{ShmemAtomicInt, ShmemScalar};
    pub use ntb_net::{HeartbeatConfig, OverloadConfig, Shape, Topology};
    pub use ntb_sim::{FaultPlan, TimeModel, TransferMode};
}
