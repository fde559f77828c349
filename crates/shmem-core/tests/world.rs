//! Whole-stack SPMD tests: every OpenSHMEM feature exercised through
//! `ShmemWorld::run` on 1–6 PEs (fast functional simulation).

use shmem_core::{
    CmpOp, OpOptions, ReduceOp, ShmemConfig, ShmemCtx, ShmemError, ShmemWorld, TransferMode,
    TypedSym,
};

fn cfg(hosts: usize) -> ShmemConfig {
    ShmemConfig::fast_sim().with_hosts(hosts)
}

#[test]
fn identity_and_world_size() {
    let ids = ShmemWorld::run(cfg(4), |ctx| (ctx.my_pe(), ctx.num_pes())).unwrap();
    for (i, (pe, n)) in ids.iter().enumerate() {
        assert_eq!(*pe, i);
        assert_eq!(*n, 4);
    }
}

#[test]
fn single_pe_world_works() {
    let r = ShmemWorld::run(cfg(1), |ctx| {
        let sym = ctx.malloc_array::<u64>(4).unwrap();
        ctx.write_local_slice(&sym, 0, &[1, 2, 3, 4]).unwrap();
        ctx.barrier_all().unwrap();
        // Self put/get.
        ctx.put(&sym, 0, 99u64, 0).unwrap();
        assert_eq!(ctx.get::<u64>(&sym, 0, 0).unwrap(), 99);
        ctx.read_local_slice(&sym, 0, 4).unwrap().iter().sum::<u64>()
    })
    .unwrap();
    assert_eq!(r[0], 99 + 2 + 3 + 4);
}

#[test]
fn symmetric_offsets_identical_across_pes() {
    let offsets = ShmemWorld::run(cfg(3), |ctx| {
        let a = ctx.malloc(100).unwrap();
        let b = ctx.malloc(4096).unwrap();
        let c = ctx.malloc_array::<f64>(17).unwrap();
        (a.offset(), b.offset(), c.addr().offset())
    })
    .unwrap();
    assert_eq!(offsets[0], offsets[1]);
    assert_eq!(offsets[1], offsets[2]);
}

#[test]
fn put_ring_neighbor_exchange() {
    ShmemWorld::run(cfg(3), |ctx| {
        let sym = ctx.malloc_array::<u64>(8).unwrap();
        let right = (ctx.my_pe() + 1) % ctx.num_pes();
        let data: Vec<u64> = (0..8).map(|i| (ctx.my_pe() as u64) * 100 + i).collect();
        ctx.put_slice(&sym, 0, &data, right).unwrap();
        ctx.barrier_all().unwrap();
        let left = (ctx.my_pe() + ctx.num_pes() - 1) % ctx.num_pes();
        let got = ctx.read_local_slice::<u64>(&sym, 0, 8).unwrap();
        let expect: Vec<u64> = (0..8).map(|i| (left as u64) * 100 + i).collect();
        assert_eq!(got, expect);
    })
    .unwrap();
}

#[test]
fn put_two_hops_and_memcpy_mode() {
    ShmemWorld::run(cfg(5), |ctx| {
        let sym = ctx.malloc_array::<i32>(16).unwrap();
        if ctx.my_pe() == 0 {
            // Two hops right.
            ctx.put_slice_opts(
                &sym,
                0,
                &[-7i32; 16],
                2,
                OpOptions::new().mode(TransferMode::Memcpy),
            )
            .unwrap();
            // Two hops left.
            ctx.put_slice_opts(&sym, 0, &[9i32; 16], 3, OpOptions::new().mode(TransferMode::Dma))
                .unwrap();
        }
        ctx.barrier_all().unwrap();
        match ctx.my_pe() {
            2 => assert_eq!(ctx.read_local_slice::<i32>(&sym, 0, 16).unwrap(), vec![-7; 16]),
            3 => assert_eq!(ctx.read_local_slice::<i32>(&sym, 0, 16).unwrap(), vec![9; 16]),
            _ => {}
        }
    })
    .unwrap();
}

#[test]
fn get_round_trip_all_pairs() {
    ShmemWorld::run(cfg(4), |ctx| {
        let sym = ctx.malloc_array::<u64>(4).unwrap();
        let mine: Vec<u64> = (0..4).map(|i| (ctx.my_pe() as u64) << 8 | i).collect();
        ctx.write_local_slice(&sym, 0, &mine).unwrap();
        ctx.barrier_all().unwrap();
        for pe in 0..ctx.num_pes() {
            let theirs = ctx.get_slice::<u64>(&sym, 0, 4, pe).unwrap();
            let expect: Vec<u64> = (0..4).map(|i| (pe as u64) << 8 | i).collect();
            assert_eq!(theirs, expect, "get from {pe}");
        }
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn large_put_spans_chunks_and_window_buffers() {
    // Heap chunk 64 KiB and a 1 MiB payload: crosses many chunk
    // boundaries and many put chunks.
    let cfg = cfg(3).with_heap_chunk(64 << 10);
    ShmemWorld::run(cfg, |ctx| {
        let n = 1 << 20;
        let sym = ctx.malloc_array::<u8>(n).unwrap();
        if ctx.my_pe() == 0 {
            let data: Vec<u8> = (0..n).map(|i| (i % 253) as u8).collect();
            ctx.put_slice(&sym, 0, &data, 1).unwrap();
        }
        ctx.barrier_all().unwrap();
        if ctx.my_pe() == 1 {
            let got = ctx.read_local_slice::<u8>(&sym, 0, n).unwrap();
            assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 253) as u8));
        }
    })
    .unwrap();
}

#[test]
fn quiet_makes_puts_visible() {
    ShmemWorld::run(cfg(3), |ctx| {
        let sym = ctx.malloc_array::<u64>(1).unwrap();
        let flag = ctx.malloc_array::<u64>(1).unwrap();
        if ctx.my_pe() == 0 {
            ctx.put(&sym, 0, 0xFEED, 1).unwrap();
            ctx.quiet().expect("quiet"); // data delivered at PE 1
            ctx.put(&flag, 0, 1u64, 1).unwrap();
        }
        if ctx.my_pe() == 1 {
            ctx.wait_until(&flag, 0, CmpOp::Eq, 1u64).unwrap();
            // fence/quiet at the writer ordered data before flag.
            assert_eq!(ctx.read_local::<u64>(&sym, 0).unwrap(), 0xFEED);
        }
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn barrier_separates_epochs() {
    ShmemWorld::run(cfg(4), |ctx| {
        let sym = ctx.malloc_array::<u64>(4).unwrap();
        for epoch in 0..5u64 {
            // Everyone writes its slot on every PE.
            for pe in 0..ctx.num_pes() {
                let v = epoch * 1000 + ctx.my_pe() as u64;
                if pe == ctx.my_pe() {
                    ctx.write_local(&sym, ctx.my_pe(), v).unwrap();
                } else {
                    ctx.put(&sym, ctx.my_pe(), v, pe).unwrap();
                }
            }
            ctx.barrier_all().unwrap();
            // After the barrier every slot must carry this epoch's value.
            let got = ctx.read_local_slice::<u64>(&sym, 0, 4).unwrap();
            for (slot, v) in got.iter().enumerate() {
                assert_eq!(*v, epoch * 1000 + slot as u64, "epoch {epoch} slot {slot}");
            }
            ctx.barrier_all().unwrap();
        }
    })
    .unwrap();
}

#[test]
fn atomics_fetch_add_and_cas() {
    ShmemWorld::run(cfg(4), |ctx| {
        let counter = ctx.malloc_array::<u64>(1).unwrap();
        for _ in 0..25 {
            ctx.atomic_fetch_add(&counter, 0, 1u64, 0).unwrap();
        }
        ctx.barrier_all().unwrap();
        if ctx.my_pe() == 0 {
            assert_eq!(ctx.read_local::<u64>(&counter, 0).unwrap(), 100);
        }
        ctx.barrier_all().unwrap();
        // CAS election: exactly one PE wins.
        let winner = ctx.malloc_array::<u64>(1).unwrap();
        let won =
            ctx.atomic_compare_swap(&winner, 0, 0u64, ctx.my_pe() as u64 + 1, 0).unwrap() == 0;
        ctx.barrier_all().unwrap();
        let winners = ctx.allreduce(ReduceOp::Sum, &[u64::from(won)]).unwrap();
        assert_eq!(winners[0], 1);
    })
    .unwrap();
}

#[test]
fn atomic_bitwise_and_swap_narrow_types() {
    ShmemWorld::run(cfg(2), |ctx| {
        let sym = ctx.malloc_array::<u16>(2).unwrap();
        ctx.write_local_slice(&sym, 0, &[0xF0F0u16, 0]).unwrap();
        ctx.barrier_all().unwrap();
        if ctx.my_pe() == 1 {
            let old = ctx.atomic_fetch_and(&sym, 0, 0x0FF0u16, 0).unwrap();
            assert_eq!(old, 0xF0F0);
            let old = ctx.atomic_fetch_or(&sym, 0, 0x000Fu16, 0).unwrap();
            assert_eq!(old, 0x00F0);
            let old = ctx.atomic_swap(&sym, 0, 0xAAAAu16, 0).unwrap();
            assert_eq!(old, 0x00FF);
            let v = ctx.atomic_fetch(&sym, 0, 0).unwrap();
            assert_eq!(v, 0xAAAA);
        }
        ctx.barrier_all().unwrap();
        if ctx.my_pe() == 0 {
            assert_eq!(ctx.read_local::<u16>(&sym, 0).unwrap(), 0xAAAA);
            assert_eq!(ctx.read_local::<u16>(&sym, 1).unwrap(), 0, "neighbour element untouched");
        }
    })
    .unwrap();
}

#[test]
fn wait_until_and_test() {
    ShmemWorld::run(cfg(2), |ctx| {
        let sym = ctx.malloc_array::<i64>(1).unwrap();
        if ctx.my_pe() == 0 {
            assert!(!ctx.test(&sym, 0, CmpOp::Gt, 5i64).unwrap());
            std::thread::sleep(std::time::Duration::from_millis(20));
            ctx.put(&sym, 0, 10i64, 1).unwrap();
        } else {
            let v = ctx.wait_until(&sym, 0, CmpOp::Gt, 5i64).unwrap();
            assert_eq!(v, 10);
            assert!(ctx.test(&sym, 0, CmpOp::Eq, 10i64).unwrap());
        }
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn broadcast_from_each_root() {
    ShmemWorld::run(cfg(4), |ctx| {
        let sym = ctx.malloc_array::<f64>(8).unwrap();
        for root in 0..ctx.num_pes() {
            if ctx.my_pe() == root {
                let data: Vec<f64> = (0..8).map(|i| root as f64 + i as f64 / 10.0).collect();
                ctx.write_local_slice(&sym, 0, &data).unwrap();
            }
            ctx.broadcast(&sym, 0, 8, root).unwrap();
            let got = ctx.read_local_slice::<f64>(&sym, 0, 8).unwrap();
            for (i, v) in got.iter().enumerate() {
                assert_eq!(*v, root as f64 + i as f64 / 10.0, "root {root}");
            }
        }
    })
    .unwrap();
}

#[test]
fn broadcast_value_convenience() {
    let vals = ShmemWorld::run(cfg(3), |ctx| {
        let v = if ctx.my_pe() == 2 { 1234u32 } else { 0 };
        ctx.broadcast_value(v, 2).unwrap()
    })
    .unwrap();
    assert_eq!(vals, vec![1234, 1234, 1234]);
}

#[test]
fn allreduce_matches_oracle() {
    ShmemWorld::run(cfg(5), |ctx| {
        let n = ctx.num_pes() as i64;
        let me = ctx.my_pe() as i64;
        let src: Vec<i64> = (0..6).map(|i| me * 10 + i).collect();
        let sums = ctx.allreduce(ReduceOp::Sum, &src).unwrap();
        for (i, s) in sums.iter().enumerate() {
            // sum over pe of (pe*10 + i)
            let expect = 10 * (n * (n - 1) / 2) + n * i as i64;
            assert_eq!(*s, expect);
        }
        let maxs = ctx.allreduce(ReduceOp::Max, &src).unwrap();
        assert_eq!(maxs[5], (n - 1) * 10 + 5);
        let mins = ctx.allreduce(ReduceOp::Min, &src).unwrap();
        assert_eq!(mins[0], 0);
        let prods = ctx.allreduce(ReduceOp::Prod, &[me + 1]).unwrap();
        assert_eq!(prods[0], (1..=n).product::<i64>());
    })
    .unwrap();
}

#[test]
fn reduce_to_root_only_root_sees() {
    let outs = ShmemWorld::run(cfg(3), |ctx| {
        ctx.reduce_to_root(ReduceOp::Sum, &[ctx.my_pe() as u32 + 1], 1).unwrap()
    })
    .unwrap();
    assert_eq!(outs[0], None);
    assert_eq!(outs[1], Some(vec![6]));
    assert_eq!(outs[2], None);
}

#[test]
fn fcollect_gathers_in_pe_order() {
    ShmemWorld::run(cfg(4), |ctx| {
        let n = ctx.num_pes();
        let dest = ctx.malloc_array::<u32>(n * 3).unwrap();
        let src: Vec<u32> = (0..3).map(|i| (ctx.my_pe() as u32) * 100 + i).collect();
        ctx.fcollect(&dest, &src).unwrap();
        let all = ctx.read_local_slice::<u32>(&dest, 0, n * 3).unwrap();
        for pe in 0..n {
            for i in 0..3 {
                assert_eq!(all[pe * 3 + i], (pe as u32) * 100 + i as u32);
            }
        }
    })
    .unwrap();
}

#[test]
fn alltoall_transposes_blocks() {
    ShmemWorld::run(cfg(3), |ctx| {
        let n = ctx.num_pes();
        let dest = ctx.malloc_array::<u64>(n * 2).unwrap();
        // PE i sends block j = [i*10+j, i*10+j] to PE j.
        let src: Vec<u64> = (0..n * 2).map(|k| (ctx.my_pe() * 10 + k / 2) as u64).collect();
        ctx.alltoall(&dest, &src, 2).unwrap();
        let got = ctx.read_local_slice::<u64>(&dest, 0, n * 2).unwrap();
        for pe in 0..n {
            // Block from PE `pe` carries pe*10 + my_pe.
            assert_eq!(got[pe * 2], (pe * 10 + ctx.my_pe()) as u64);
            assert_eq!(got[pe * 2 + 1], (pe * 10 + ctx.my_pe()) as u64);
        }
    })
    .unwrap();
}

#[test]
fn distributed_lock_mutual_exclusion() {
    ShmemWorld::run(cfg(4), |ctx| {
        let lock = ctx.lock_alloc().unwrap();
        let shared = ctx.malloc_array::<u64>(1).unwrap();
        ctx.barrier_all().unwrap();
        for _ in 0..10 {
            ctx.set_lock(&lock).unwrap();
            // Unlocked read-modify-write on PE 0's copy: only safe under
            // the lock.
            let v = ctx.get::<u64>(&shared, 0, 0).unwrap();
            ctx.put(&shared, 0, v + 1, 0).unwrap();
            ctx.quiet().expect("quiet");
            ctx.clear_lock(&lock).unwrap();
        }
        ctx.barrier_all().unwrap();
        if ctx.my_pe() == 0 {
            assert_eq!(ctx.read_local::<u64>(&shared, 0).unwrap(), 40);
        }
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn test_lock_nonblocking() {
    ShmemWorld::run(cfg(2), |ctx| {
        let lock = ctx.lock_alloc().unwrap();
        ctx.barrier_all().unwrap();
        if ctx.my_pe() == 0 {
            assert!(ctx.test_lock(&lock).unwrap());
            ctx.barrier_all().unwrap(); // peer observes it held
            ctx.barrier_all().unwrap();
            ctx.clear_lock(&lock).unwrap();
        } else {
            ctx.barrier_all().unwrap();
            assert!(!ctx.test_lock(&lock).unwrap(), "lock held by PE 0");
            ctx.barrier_all().unwrap();
        }
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn malloc_free_cycles_and_reuse() {
    ShmemWorld::run(cfg(2), |ctx| {
        let a = ctx.malloc(1024).unwrap();
        let first_off = a.offset();
        ctx.free(a).unwrap();
        let b = ctx.malloc(512).unwrap();
        assert_eq!(b.offset(), first_off, "freed space reused");
        ctx.free(b).unwrap();
    })
    .unwrap();
}

#[test]
fn errors_bad_pe_and_bounds() {
    ShmemWorld::run(cfg(2), |ctx| {
        let sym = ctx.malloc_array::<u64>(4).unwrap();
        let err = ctx.put(&sym, 0, 1u64, 9).unwrap_err();
        assert!(matches!(err, ShmemError::BadPe { pe: 9, .. }));
        let err = ctx.put_slice(&sym, 3, &[1u64, 2], 0).unwrap_err();
        assert!(matches!(err, ShmemError::SymmetricBounds { .. }));
        let err = ctx.get_slice::<u64>(&sym, 0, 5, 0).unwrap_err();
        assert!(matches!(err, ShmemError::SymmetricBounds { .. }));
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn all_scalar_types_roundtrip_remotely() {
    ShmemWorld::run(cfg(2), |ctx| {
        fn roundtrip<T: shmem_core::ShmemScalar>(ctx: &ShmemCtx, vals: &[T]) {
            let sym: TypedSym<T> = ctx.malloc_array(vals.len()).unwrap();
            if ctx.my_pe() == 0 {
                ctx.put_slice(&sym, 0, vals, 1).unwrap();
            }
            ctx.barrier_all().unwrap();
            if ctx.my_pe() == 1 {
                assert_eq!(ctx.read_local_slice::<T>(&sym, 0, vals.len()).unwrap(), vals);
            }
            ctx.barrier_all().unwrap();
        }
        roundtrip(ctx, &[1u8, 255]);
        roundtrip(ctx, &[-5i8, 127]);
        roundtrip(ctx, &[u16::MAX, 7]);
        roundtrip(ctx, &[-1i16, i16::MIN]);
        roundtrip(ctx, &[u32::MAX, 0]);
        roundtrip(ctx, &[i32::MIN, -1]);
        roundtrip(ctx, &[u64::MAX, 1]);
        roundtrip(ctx, &[i64::MIN, i64::MAX]);
        roundtrip(ctx, &[1.5f32, -0.25]);
        roundtrip(ctx, &[std::f64::consts::E, -1e300]);
    })
    .unwrap();
}

#[test]
fn two_pe_world() {
    ShmemWorld::run(cfg(2), |ctx| {
        let sym = ctx.malloc_array::<u64>(1).unwrap();
        let other = 1 - ctx.my_pe();
        ctx.put(&sym, 0, ctx.my_pe() as u64 + 7, other).unwrap();
        ctx.barrier_all().unwrap();
        assert_eq!(ctx.read_local::<u64>(&sym, 0).unwrap(), other as u64 + 7);
    })
    .unwrap();
}

#[test]
fn six_pe_ring_stress() {
    ShmemWorld::run(cfg(6), |ctx| {
        let sym = ctx.malloc_array::<u64>(6).unwrap();
        for round in 0..8u64 {
            for dist in 1..ctx.num_pes() {
                let dest = (ctx.my_pe() + dist) % ctx.num_pes();
                ctx.put(&sym, ctx.my_pe(), round * 100 + ctx.my_pe() as u64, dest).unwrap();
            }
            ctx.barrier_all().unwrap();
            for pe in 0..ctx.num_pes() {
                if pe != ctx.my_pe() {
                    assert_eq!(
                        ctx.read_local::<u64>(&sym, pe).unwrap(),
                        round * 100 + pe as u64,
                        "round {round} slot {pe}"
                    );
                }
            }
            ctx.barrier_all().unwrap();
        }
    })
    .unwrap();
}

#[test]
fn run_root_returns_pe0() {
    let v = ShmemWorld::run_root(cfg(3), |ctx| ctx.my_pe() * 10 + 5).unwrap();
    assert_eq!(v, 5);
}

#[test]
fn short_wait_timeout_is_honored_without_tick_overshoot() {
    // The change-wait loop used a fixed 50 ms re-check tick; a
    // `wait_timeout` shorter than the tick overshot by up to a full tick
    // before the deadline was noticed. The tick is now clipped to the
    // remaining deadline — a 20 ms timeout must report WaitTimeout well
    // before the old 50 ms tick would have woken the waiter.
    let mut cfg = ShmemConfig::fast_sim().with_hosts(1);
    cfg.wait_timeout = std::time::Duration::from_millis(20);
    ShmemWorld::run(cfg, |ctx| {
        let sym = ctx.malloc_array::<u64>(4).unwrap();

        let t0 = std::time::Instant::now();
        let err = ctx.wait_until(&sym, 0, CmpOp::Eq, 1u64).unwrap_err();
        assert!(matches!(err, ShmemError::WaitTimeout), "got {err:?}");
        let elapsed = t0.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(45),
            "wait_until overshot its 20 ms timeout: {elapsed:?}"
        );

        let t0 = std::time::Instant::now();
        let err = ctx.wait_until_any(&sym, &[0, 1, 2], CmpOp::Eq, 1u64).unwrap_err();
        assert!(matches!(err, ShmemError::WaitTimeout), "got {err:?}");
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(45),
            "wait_until_any overshot its 20 ms timeout: {:?}",
            t0.elapsed()
        );

        let t0 = std::time::Instant::now();
        let err = ctx.wait_until_all(&sym, &[0, 1], CmpOp::Eq, 1u64).unwrap_err();
        assert!(matches!(err, ShmemError::WaitTimeout), "got {err:?}");
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(45),
            "wait_until_all overshot its 20 ms timeout: {:?}",
            t0.elapsed()
        );
    })
    .unwrap();
}
