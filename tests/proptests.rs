#![allow(clippy::needless_range_loop)]

//! Randomized property tests over the core invariants: allocator
//! determinism and non-overlap, frame-codec round-trips, ring routing,
//! and a randomized put/get workload checked against a flat byte-array
//! oracle.
//!
//! Historically these used the `proptest` crate; the offline build
//! environment cannot resolve it, so they are expressed as seeded
//! random-script loops over the vendored `rand` shim instead. Each test
//! runs a fixed number of independently seeded cases, and every failure
//! message carries the case seed so a failing script can be replayed by
//! pinning that seed.

use rand::prelude::*;

use shmem_ntb::net::{Frame, FrameKind, Shape, TopoGraph};
use shmem_ntb::shmem::{OpOptions, ShmemConfig, ShmemWorld, SymmetricHeap, TransferMode};
use shmem_ntb::sim::HostMemory;

/// Base seed for every test in this file; bump to explore new scripts.
const BASE_SEED: u64 = 0xB0BA_CAFE;

fn case_rng(test: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(BASE_SEED ^ (test << 32) ^ case)
}

// ---------------------------------------------------------------------
// Symmetric heap allocator
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum HeapOp {
    Malloc(u64),
    /// Free the i-th (mod live count) oldest live allocation.
    Free(usize),
}

fn heap_ops(rng: &mut StdRng) -> Vec<HeapOp> {
    let count = rng.random_range(1..60);
    (0..count)
        .map(|_| {
            if rng.random_bool(0.5) {
                HeapOp::Malloc(rng.random_range(1u64..200_000))
            } else {
                HeapOp::Free(rng.random_range(0usize..64))
            }
        })
        .collect()
}

/// Live allocations never overlap, and replaying the same script on a
/// second heap yields identical offsets (the symmetric invariant).
#[test]
fn allocator_no_overlap_and_deterministic() {
    for case in 0..64u64 {
        let mut rng = case_rng(1, case);
        let ops = heap_ops(&mut rng);
        let h1 = SymmetricHeap::new(HostMemory::new(0, 1 << 30), 64 << 10);
        let h2 = SymmetricHeap::new(HostMemory::new(1, 1 << 30), 64 << 10);
        let mut live: Vec<shmem_ntb::shmem::SymAddr> = Vec::new();
        for op in &ops {
            match op {
                HeapOp::Malloc(size) => {
                    let a1 = h1.malloc(*size).unwrap();
                    let a2 = h2.malloc(*size).unwrap();
                    assert_eq!(a1, a2, "case {case}: replicas must agree");
                    // Non-overlap with every live allocation.
                    for b in &live {
                        let disjoint = a1.offset() + a1.len() <= b.offset()
                            || b.offset() + b.len() <= a1.offset();
                        assert!(disjoint, "case {case}: {a1:?} overlaps {b:?}");
                    }
                    live.push(a1);
                }
                HeapOp::Free(idx) => {
                    if !live.is_empty() {
                        let a = live.remove(idx % live.len());
                        h1.free(a).unwrap();
                        h2.free(a).unwrap();
                    }
                }
            }
        }
        // Accounting: live bytes equal the sum of live allocation lengths.
        let expect: u64 = live.iter().map(|a| a.len()).sum();
        assert_eq!(h1.live_bytes(), expect, "case {case}");
        assert_eq!(h1.live_allocations(), live.len(), "case {case}");
    }
}

/// Freeing everything lets a maximal allocation reuse offset 0
/// (coalescing works and nothing leaks).
#[test]
fn allocator_full_coalesce() {
    for case in 0..64u64 {
        let mut rng = case_rng(2, case);
        let sizes: Vec<u64> =
            (0..rng.random_range(1..20)).map(|_| rng.random_range(1u64..50_000)).collect();
        let h = SymmetricHeap::new(HostMemory::new(0, 1 << 30), 64 << 10);
        let allocs: Vec<_> = sizes.iter().map(|&s| h.malloc(s).unwrap()).collect();
        let total_cap = h.capacity();
        for a in allocs {
            h.free(a).unwrap();
        }
        assert_eq!(h.live_bytes(), 0, "case {case}");
        let big = h.malloc(total_cap).unwrap();
        assert_eq!(big.offset(), 0, "case {case}: all space coalesced back into one range");
    }
}

/// Data written across arbitrary chunk boundaries reads back intact.
#[test]
fn heap_flat_io_roundtrip() {
    for case in 0..64u64 {
        let mut rng = case_rng(3, case);
        let offset = rng.random_range(0u64..100_000);
        let len = rng.random_range(1usize..5000);
        let data: Vec<u8> = (0..len).map(|_| rng.random()).collect();
        let h = SymmetricHeap::new(HostMemory::new(0, 1 << 30), 4096);
        let _ = h.malloc(offset + data.len() as u64).unwrap();
        h.write_flat(offset, &data).unwrap();
        assert_eq!(h.read_flat_vec(offset, data.len() as u64).unwrap(), data, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

fn arb_frame(rng: &mut StdRng) -> Frame {
    let src = rng.random_range(0usize..=63);
    let dest = rng.random_range(0usize..=63);
    let seq: u16 = rng.random();
    let len = rng.random_range(0u32..(1 << 30));
    let offset: u32 = rng.random();
    let aux: u32 = rng.random();
    let mode = if rng.random_bool(0.5) { TransferMode::Memcpy } else { TransferMode::Dma };
    let mut f = match rng.random_range(0usize..4) {
        0 => Frame::put(src, dest, len, offset, aux, mode),
        1 => Frame::get_req(src, dest, len, offset, aux, mode),
        2 => Frame::get_resp(src, dest, len, offset, aux, mode),
        _ => Frame::put_ack(src, dest, len, aux),
    };
    f.seq = seq;
    f
}

/// Every frame survives the scratchpad encoding.
#[test]
fn frame_roundtrip() {
    for case in 0..256u64 {
        let mut rng = case_rng(4, case);
        let f = arb_frame(&mut rng);
        let decoded = Frame::decode(f.encode()).unwrap();
        assert_eq!(decoded, f, "case {case}");
    }
}

/// The header word is never zero (zero means "empty mailbox slot").
#[test]
fn frame_header_nonzero() {
    for case in 0..256u64 {
        let mut rng = case_rng(5, case);
        let f = arb_frame(&mut rng);
        assert_ne!(f.encode()[0], 0, "case {case}");
    }
}

/// AMO frames round-trip with opcode and mode intact.
#[test]
fn amo_frame_roundtrip() {
    for case in 0..256u64 {
        let mut rng = case_rng(6, case);
        let src = rng.random_range(0usize..=63);
        let dest = rng.random_range(0usize..=63);
        let off: u32 = rng.random();
        let req: u32 = rng.random();
        let op = shmem_ntb::net::AmoOp::ALL[rng.random_range(0usize..8)];
        let f = Frame::amo_req(src, dest, op, off, req);
        let d = Frame::decode(f.encode()).unwrap();
        assert_eq!(d.amo_op, Some(op), "case {case}");
        assert_eq!(d.kind, FrameKind::AmoReq, "case {case}");
        assert_eq!(d.offset, off, "case {case}");
        assert_eq!(d.aux, req, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// On the ring, walking the graph's next hops reaches the destination in
/// exactly `hops` steps, and `hops` never exceeds half the ring.
#[test]
fn routing_reaches_destination() {
    for case in 0..256u64 {
        let mut rng = case_rng(7, case);
        let n = rng.random_range(2usize..=16);
        let src = rng.random_range(0usize..16) % n;
        let dst = rng.random_range(0usize..16) % n;
        if src == dst {
            continue;
        }
        let graph = TopoGraph::new(Shape::Ring, n);
        let hops = graph.hops(src, dst);
        assert!(hops <= n / 2, "case {case}");
        let mut cur = src;
        for _ in 0..hops {
            cur = graph.next_hop(cur, dst);
        }
        assert_eq!(cur, dst, "case {case}");
    }
}

/// On every shape (ring, torus, clique) and random size, walking
/// `next_hop` from a random source reaches any destination in at most
/// `hops(src, dst)` steps — the chain follows shortest paths exactly,
/// so it can never loop or ping-pong.
#[test]
fn next_hop_chains_reach_dest_within_hops_on_all_shapes() {
    for case in 0..192u64 {
        let mut rng = case_rng(13, case);
        let (shape, n) = match case % 3 {
            0 => (Shape::Ring, rng.random_range(2usize..=24)),
            1 => {
                let rows = rng.random_range(2usize..=6);
                let cols = rng.random_range(2usize..=8);
                (Shape::Torus { rows, cols }, rows * cols)
            }
            _ => (Shape::Clique, rng.random_range(2usize..=16)),
        };
        let graph = TopoGraph::new(shape, n);
        let src = rng.random_range(0usize..n);
        let dst = rng.random_range(0usize..n);
        let budget = graph.hops(src, dst);
        let mut cur = src;
        for step in 0..budget {
            assert_ne!(cur, dst, "case {case}: arrived early at step {step}");
            cur = graph.next_hop(cur, dst);
        }
        assert_eq!(cur, dst, "case {case}: {shape:?} n={n} {src}->{dst} not reached in {budget}");
    }
}

/// Hop count is symmetric on the ring.
#[test]
fn hop_count_symmetric() {
    for case in 0..256u64 {
        let mut rng = case_rng(8, case);
        let n = rng.random_range(1usize..=16);
        let a = rng.random_range(0usize..16) % n;
        let b = rng.random_range(0usize..16) % n;
        let graph = TopoGraph::new(Shape::Ring, n);
        assert_eq!(graph.hops(a, b), graph.hops(b, a), "case {case}");
    }
}

// ---------------------------------------------------------------------
// Put/get against a flat oracle
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct XferOp {
    put: bool,
    pe: usize,
    offset: usize,
    len: usize,
    seed: u8,
    memcpy: bool,
}

fn xfer_ops(rng: &mut StdRng) -> Vec<XferOp> {
    let count = rng.random_range(1..25);
    (0..count)
        .map(|_| XferOp {
            put: rng.random_bool(0.5),
            pe: rng.random_range(1usize..4),
            offset: rng.random_range(0usize..3000),
            len: rng.random_range(1usize..2048),
            seed: rng.random(),
            memcpy: rng.random_bool(0.5),
        })
        .collect()
}

/// PE 0 drives a random put/get script against PEs 1..4; symmetric
/// memory must always match a per-PE byte-array oracle.
///
/// Worlds are comparatively expensive; a handful of randomized scripts
/// with ~25 operations each still explores a lot of interleaving.
#[test]
fn putget_matches_oracle() {
    for case in 0..12u64 {
        let mut rng = case_rng(9, case);
        let ops = xfer_ops(&mut rng);
        const REGION: usize = 8192;
        let cfg = ShmemConfig::fast_sim().with_hosts(4);
        ShmemWorld::run(cfg, |ctx| {
            let sym = ctx.calloc_array::<u8>(REGION).unwrap();
            if ctx.my_pe() == 0 {
                let mut oracle = vec![vec![0u8; REGION]; ctx.num_pes()];
                for (i, op) in ops.iter().enumerate() {
                    let offset = op.offset.min(REGION - 1);
                    let len = op.len.min(REGION - offset);
                    let mode = if op.memcpy { TransferMode::Memcpy } else { TransferMode::Dma };
                    if op.put {
                        let data: Vec<u8> =
                            (0..len).map(|j| op.seed.wrapping_add(j as u8)).collect();
                        ctx.put_slice_opts(&sym, offset, &data, op.pe, OpOptions::new().mode(mode))
                            .unwrap();
                        ctx.quiet().unwrap();
                        oracle[op.pe][offset..offset + len].copy_from_slice(&data);
                    } else {
                        let got = ctx
                            .get_slice_opts::<u8>(
                                &sym,
                                offset,
                                len,
                                op.pe,
                                OpOptions::new().mode(mode),
                            )
                            .unwrap();
                        assert_eq!(
                            got,
                            &oracle[op.pe][offset..offset + len],
                            "case {case} op {i}: {op:?}"
                        );
                    }
                }
                // Final sweep: every byte of every PE matches the oracle.
                for pe in 1..ctx.num_pes() {
                    let all = ctx.get_slice::<u8>(&sym, 0, REGION, pe).unwrap();
                    assert_eq!(all, oracle[pe], "case {case} final sweep PE {pe}");
                }
            }
            ctx.barrier_all().unwrap();
        })
        .unwrap();
    }
}

// ---------------------------------------------------------------------
// Pipelined get tiling
// ---------------------------------------------------------------------

/// Random (size, chunk, window) points through the get pipeline: any
/// combination of sub-request size, window depth and per-op window
/// override must return exactly the written bytes, and the pipelined
/// result must be identical to the `window == 1` stop-and-wait oracle
/// over the same world.
#[test]
fn pipelined_get_tiling_matches_oracle() {
    const REGION: usize = 32 << 10;
    for case in 0..10u64 {
        let mut rng = case_rng(14, case);
        let chunk = 1u64 << rng.random_range(8u32..13); // 256 B .. 4 KiB sub-requests
        let window = rng.random_range(1usize..6);
        let offset = rng.random_range(0usize..REGION / 2);
        let len = rng.random_range(1usize..=(REGION - offset));
        let opts_window = rng.random_range(1usize..6);
        let pat_seed: u8 = rng.random();
        let cfg = ShmemConfig::fast_sim().with_hosts(2).with_get_pipeline(chunk, window);
        ShmemWorld::run(cfg, |ctx| {
            let sym = ctx.calloc_array::<u8>(REGION).unwrap();
            let pattern: Vec<u8> =
                (0..REGION).map(|i| (i as u8).wrapping_mul(31).wrapping_add(pat_seed)).collect();
            if ctx.my_pe() == 1 {
                ctx.write_local_slice(&sym, 0, &pattern).unwrap();
            }
            ctx.barrier_all().unwrap();
            if ctx.my_pe() == 0 {
                let expected = &pattern[offset..offset + len];
                let ctx_tag = format!("case {case}: chunk {chunk} window {window} len {len}");
                // The world-configured window.
                let got = ctx.get_slice::<u8>(&sym, offset, len, 1).unwrap();
                assert_eq!(got, expected, "{ctx_tag}: configured window");
                // A per-op window override.
                let got = ctx
                    .get_slice_opts::<u8>(
                        &sym,
                        offset,
                        len,
                        1,
                        OpOptions::new().get_window(opts_window),
                    )
                    .unwrap();
                assert_eq!(got, expected, "{ctx_tag}: op window {opts_window}");
                // window == 1 degenerates to stop-and-wait — the oracle.
                let got = ctx
                    .get_slice_opts::<u8>(&sym, offset, len, 1, OpOptions::new().get_window(1))
                    .unwrap();
                assert_eq!(got, expected, "{ctx_tag}: stop-and-wait oracle");
            }
            ctx.barrier_all().unwrap();
        })
        .unwrap();
    }
}

/// Strided gets ride the same pipeline via their covering-span
/// transfer: random (stride, count, chunk, window) points against a
/// locally computed oracle, with and without a per-op window override.
#[test]
fn strided_get_pipeline_matches_oracle() {
    const ELEMS: usize = 6000;
    for case in 0..10u64 {
        let mut rng = case_rng(15, case);
        let chunk = 1u64 << rng.random_range(8u32..12);
        let window = rng.random_range(1usize..5);
        let sst = rng.random_range(1usize..8);
        let nelems = rng.random_range(1usize..=(ELEMS / sst));
        let index = rng.random_range(0usize..=(ELEMS - 1 - (nelems - 1) * sst));
        let op_window = rng.random_range(1usize..5);
        let cfg = ShmemConfig::fast_sim().with_hosts(2).with_get_pipeline(chunk, window);
        ShmemWorld::run(cfg, |ctx| {
            let sym = ctx.calloc_array::<u64>(ELEMS).unwrap();
            let pattern: Vec<u64> = (0..ELEMS as u64)
                .map(|i| case.wrapping_mul(1_000_003) ^ i.wrapping_mul(2_654_435_761))
                .collect();
            if ctx.my_pe() == 1 {
                ctx.write_local_slice(&sym, 0, &pattern).unwrap();
            }
            ctx.barrier_all().unwrap();
            if ctx.my_pe() == 0 {
                let expected: Vec<u64> = (0..nelems).map(|i| pattern[index + i * sst]).collect();
                let tag = format!("case {case}: sst {sst} nelems {nelems} chunk {chunk}");
                let got = ctx.iget::<u64>(&sym, index, sst, nelems, 1).unwrap();
                assert_eq!(got, expected, "{tag}: iget");
                let got = ctx
                    .iget_opts::<u64>(
                        &sym,
                        index,
                        sst,
                        nelems,
                        1,
                        OpOptions::new().get_window(op_window),
                    )
                    .unwrap();
                assert_eq!(got, expected, "{tag}: iget_opts window {op_window}");
            }
            ctx.barrier_all().unwrap();
        })
        .unwrap();
    }
}

// ---------------------------------------------------------------------
// Aligned allocation
// ---------------------------------------------------------------------

/// Aligned allocations honor the alignment, stay disjoint from
/// neighbours, and stay deterministic across replicas.
#[test]
fn aligned_allocator_deterministic() {
    for case in 0..64u64 {
        let mut rng = case_rng(10, case);
        let script: Vec<(u64, u32)> = (0..rng.random_range(1..20))
            .map(|_| (rng.random_range(1u64..50_000), rng.random_range(0u32..8)))
            .collect();
        let h1 = SymmetricHeap::new(HostMemory::new(0, 1 << 30), 64 << 10);
        let h2 = SymmetricHeap::new(HostMemory::new(1, 1 << 30), 64 << 10);
        let mut live: Vec<shmem_ntb::shmem::SymAddr> = Vec::new();
        for (size, align_log) in script {
            let align = 16u64 << align_log;
            let a1 = h1.malloc_aligned(size, align).unwrap();
            let a2 = h2.malloc_aligned(size, align).unwrap();
            assert_eq!(a1, a2, "case {case}: replicas agree");
            assert_eq!(a1.offset() % align, 0, "case {case}: alignment honored");
            for b in &live {
                let disjoint =
                    a1.offset() + a1.len() <= b.offset() || b.offset() + b.len() <= a1.offset();
                assert!(disjoint, "case {case}: {a1:?} overlaps {b:?}");
            }
            live.push(a1);
        }
    }
}

/// The heap grows in exact `chunk_size` steps, only when an allocation
/// does not fit, and replicas running the same script grow identically
/// (a diverging segment count would break symmetric addressing).
#[test]
fn allocator_chunk_growth_is_minimal_and_deterministic() {
    for case in 0..64u64 {
        let mut rng = case_rng(12, case);
        let chunk = 4096u64 << rng.random_range(0u32..5);
        let h1 = SymmetricHeap::new(HostMemory::new(0, 1 << 30), chunk);
        let h2 = SymmetricHeap::new(HostMemory::new(1, 1 << 30), chunk);
        assert_eq!(h1.segment_count(), 0, "case {case}: heaps start empty");
        for _ in 0..rng.random_range(1..30) {
            let size = rng.random_range(1u64..3 * chunk);
            let before = h1.capacity();
            let a1 = h1.malloc(size).unwrap();
            let a2 = h2.malloc(size).unwrap();
            assert_eq!(a1, a2, "case {case}: replicas agree");
            let after = h1.capacity();
            assert_eq!(after % chunk, 0, "case {case}: capacity is whole chunks");
            assert_eq!(
                after,
                h1.segment_count() as u64 * chunk,
                "case {case}: capacity matches the segment count"
            );
            assert_eq!(h1.segment_count(), h2.segment_count(), "case {case}: replicas grew alike");
            if after > before {
                // Growth is minimal: one fewer chunk would not have held
                // the end of this allocation.
                assert!(
                    a1.offset() + a1.len() > after - chunk,
                    "case {case}: grew to {after} but allocation ends at {}",
                    a1.offset() + a1.len()
                );
            } else {
                assert!(
                    a1.offset() + a1.len() <= before,
                    "case {case}: no growth, so the allocation must fit the old capacity"
                );
            }
        }
    }
}

/// Free-list reuse: replaying an allocation script after freeing
/// everything reproduces the exact offsets without growing the heap,
/// and interleaved reuse never hands out bytes that overlap a live
/// allocation.
#[test]
fn allocator_reuses_freed_space_without_overlap() {
    for case in 0..64u64 {
        let mut rng = case_rng(13, case);
        let sizes: Vec<u64> =
            (0..rng.random_range(2..25)).map(|_| rng.random_range(1u64..100_000)).collect();
        let h = SymmetricHeap::new(HostMemory::new(0, 1 << 30), 64 << 10);

        // Pass 1: allocate the script, remember the layout, free it all.
        let first: Vec<_> = sizes.iter().map(|&s| h.malloc(s).unwrap()).collect();
        let grown = h.capacity();
        for a in &first {
            h.free(*a).unwrap();
        }
        assert_eq!(h.live_bytes(), 0, "case {case}");

        // Pass 2: the same script fits entirely in reused space.
        let second: Vec<_> = sizes.iter().map(|&s| h.malloc(s).unwrap()).collect();
        assert_eq!(first, second, "case {case}: freed space is reused at the same offsets");
        assert_eq!(h.capacity(), grown, "case {case}: reuse must not grow the heap");

        // Pass 3: free a random subset, then allocate into the holes —
        // nothing handed out may overlap what is still live.
        let mut live = second;
        for _ in 0..sizes.len() {
            if rng.random_bool(0.5) && !live.is_empty() {
                let victim = live.remove(rng.random_range(0usize..live.len()));
                h.free(victim).unwrap();
            } else {
                let a = h.malloc(rng.random_range(1u64..50_000)).unwrap();
                for b in &live {
                    let disjoint =
                        a.offset() + a.len() <= b.offset() || b.offset() + b.len() <= a.offset();
                    assert!(disjoint, "case {case}: reused {a:?} overlaps live {b:?}");
                }
                live.push(a);
            }
        }
        let expect: u64 = live.iter().map(|a| a.len()).sum();
        assert_eq!(h.live_bytes(), expect, "case {case}: accounting survives reuse");
    }
}

/// Alignment padding is reusable: freeing everything coalesces back to
/// one hole even with mixed alignments.
#[test]
fn aligned_allocator_coalesces() {
    for case in 0..64u64 {
        let mut rng = case_rng(11, case);
        let script: Vec<(u64, u32)> = (0..rng.random_range(1..15))
            .map(|_| (rng.random_range(1u64..20_000), rng.random_range(0u32..6)))
            .collect();
        let h = SymmetricHeap::new(HostMemory::new(0, 1 << 30), 64 << 10);
        let allocs: Vec<_> =
            script.iter().map(|&(size, al)| h.malloc_aligned(size, 16 << al).unwrap()).collect();
        let cap = h.capacity();
        for a in allocs {
            h.free(a).unwrap();
        }
        assert_eq!(h.live_bytes(), 0, "case {case}");
        let big = h.malloc(cap).unwrap();
        assert_eq!(big.offset(), 0, "case {case}: fully coalesced");
    }
}
