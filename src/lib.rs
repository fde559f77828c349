//! # shmem-ntb — OpenSHMEM over a switchless PCIe NTB ring (umbrella crate)
//!
//! Reproduction of *"Developing an OpenSHMEM Model over a Switchless PCIe
//! Non-Transparent Bridge Interface"* (Lim, Park, Cha — IPDPSW 2019).
//!
//! This crate re-exports the three layers of the stack so examples and
//! downstream users need a single dependency:
//!
//! * [`sim`] — the PCIe NTB hardware model (BARs, scratchpads, doorbells,
//!   DMA engine, link timing).
//! * [`net`] — the switchless ring interconnect built from NTB links
//!   (transfer-info frames, per-host service threads, bypass forwarding).
//! * [`shmem`] — the OpenSHMEM programming model (symmetric heap, put/get,
//!   barrier, collectives, atomics, locks).
//!
//! ## Quickstart
//!
//! ```
//! use shmem_ntb::prelude::*;
//!
//! let cfg = ShmemConfig::fast_sim().with_hosts(3);
//! ShmemWorld::run(cfg, |ctx| {
//!     let sym = ctx.malloc_array::<u64>(8).unwrap();
//!     let right = (ctx.my_pe() + 1) % ctx.num_pes();
//!     let data: Vec<u64> = (0..8).map(|i| (ctx.my_pe() as u64) * 100 + i).collect();
//!     ctx.put_slice(&sym, 0, &data, right).unwrap();
//!     ctx.barrier_all().unwrap();
//!     let left = (ctx.my_pe() + ctx.num_pes() - 1) % ctx.num_pes();
//!     let got: Vec<u64> = ctx.read_local_slice(&sym, 0, 8).unwrap();
//!     assert_eq!(got[0], (left as u64) * 100);
//! })
//! .unwrap();
//! ```

pub use ntb_net as net;
pub use ntb_sim as sim;
pub use shmem_core as shmem;

/// One-line import for applications: `use shmem_ntb::prelude::*;`
/// (re-exports [`shmem_core::prelude`]).
pub mod prelude {
    pub use shmem_core::prelude::*;
}
