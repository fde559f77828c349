//! Tests for the API extensions beyond the paper's core: the
//! dissemination barrier (the paper's "future work" on barrier latency),
//! strided RMA, teams/active sets, variable-length collect, and
//! multi-flag waits.

use shmem_core::{
    ActiveSet, BarrierAlgorithm, CmpOp, ReduceOp, ShmemConfig, ShmemWorld, TransferMode,
};

fn cfg(hosts: usize) -> ShmemConfig {
    ShmemConfig::fast_sim().with_hosts(hosts)
}

// ---------------------------------------------------------------------
// Dissemination barrier
// ---------------------------------------------------------------------

#[test]
fn dissemination_barrier_separates_epochs() {
    for hosts in [2usize, 3, 5, 6] {
        let c = cfg(hosts).with_barrier_algorithm(BarrierAlgorithm::Dissemination);
        ShmemWorld::run(c, |ctx| {
            let sym = ctx.calloc_array::<u64>(ctx.num_pes()).unwrap();
            for epoch in 0..6u64 {
                for pe in 0..ctx.num_pes() {
                    let v = epoch * 100 + ctx.my_pe() as u64;
                    if pe == ctx.my_pe() {
                        ctx.write_local(&sym, ctx.my_pe(), v).unwrap();
                    } else {
                        ctx.put(&sym, ctx.my_pe(), v, pe).unwrap();
                    }
                }
                ctx.barrier_all().unwrap();
                let got = ctx.read_local_slice::<u64>(&sym, 0, ctx.num_pes()).unwrap();
                for (slot, v) in got.iter().enumerate() {
                    assert_eq!(*v, epoch * 100 + slot as u64, "hosts {hosts} epoch {epoch}");
                }
                ctx.barrier_all().unwrap();
            }
        })
        .unwrap_or_else(|e| panic!("hosts {hosts}: {e}"));
    }
}

#[test]
fn both_barrier_algorithms_interoperate_with_collectives() {
    for alg in [BarrierAlgorithm::RingSweep, BarrierAlgorithm::Dissemination] {
        let c = cfg(4).with_barrier_algorithm(alg);
        let sums = ShmemWorld::run(c, |ctx| {
            ctx.allreduce(ReduceOp::Sum, &[ctx.my_pe() as u64]).unwrap()[0]
        })
        .unwrap();
        assert_eq!(sums, vec![6, 6, 6, 6], "{alg:?}");
    }
}

// ---------------------------------------------------------------------
// Strided RMA
// ---------------------------------------------------------------------

#[test]
fn iput_strided_target() {
    ShmemWorld::run(cfg(2), |ctx| {
        let sym = ctx.calloc_array::<u32>(16).unwrap();
        if ctx.my_pe() == 0 {
            // Every second source element into every third target slot.
            let src: Vec<u32> = (0..8).map(|i| i * 10).collect();
            ctx.iput(&sym, 1, 3, &src, 2, 4, 1).unwrap();
        }
        ctx.barrier_all().unwrap();
        if ctx.my_pe() == 1 {
            let got = ctx.read_local_slice::<u32>(&sym, 0, 16).unwrap();
            // src[0]=0 -> [1], src[2]=20 -> [4], src[4]=40 -> [7], src[6]=60 -> [10]
            let mut expect = vec![0u32; 16];
            expect[1] = 0;
            expect[4] = 20;
            expect[7] = 40;
            expect[10] = 60;
            assert_eq!(got, expect);
        }
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn iput_contiguous_fast_path_matches_put() {
    ShmemWorld::run(cfg(2), |ctx| {
        let sym = ctx.calloc_array::<i64>(8).unwrap();
        if ctx.my_pe() == 0 {
            let src: Vec<i64> = vec![-1, -2, -3, -4];
            ctx.iput(&sym, 2, 1, &src, 1, 4, 1).unwrap();
        }
        ctx.barrier_all().unwrap();
        if ctx.my_pe() == 1 {
            assert_eq!(
                ctx.read_local_slice::<i64>(&sym, 0, 8).unwrap(),
                vec![0, 0, -1, -2, -3, -4, 0, 0]
            );
        }
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn iget_strided_source() {
    ShmemWorld::run(cfg(3), |ctx| {
        let sym = ctx.calloc_array::<u16>(12).unwrap();
        let mine: Vec<u16> = (0..12).map(|i| (ctx.my_pe() * 100 + i) as u16).collect();
        ctx.write_local_slice(&sym, 0, &mine).unwrap();
        ctx.barrier_all().unwrap();
        // Every third element of PE 2's array, starting at index 1.
        let got = ctx.iget::<u16>(&sym, 1, 3, 4, 2).unwrap();
        assert_eq!(got, vec![201, 204, 207, 210]);
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn strided_errors() {
    ShmemWorld::run(cfg(2), |ctx| {
        let sym = ctx.calloc_array::<u32>(8).unwrap();
        assert!(ctx.iput(&sym, 0, 0, &[1u32, 2], 1, 2, 1).is_err(), "zero target stride");
        assert!(ctx.iput(&sym, 0, 1, &[1u32, 2], 0, 2, 1).is_err(), "zero source stride");
        assert!(ctx.iput(&sym, 0, 1, &[1u32, 2], 3, 2, 1).is_err(), "source overrun");
        assert!(ctx.iget::<u32>(&sym, 0, 0, 2, 1).is_err(), "zero get stride");
        // Strided writes beyond the target are caught by put's bounds.
        assert!(ctx.iput(&sym, 6, 2, &[1u32, 2], 1, 2, 1).is_err(), "target overrun");
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Teams / active sets
// ---------------------------------------------------------------------

#[test]
fn team_barrier_only_synchronizes_members() {
    ShmemWorld::run(cfg(5), |ctx| {
        // Odd PEs {1, 3} form a team; the rest pass straight through.
        let team = ctx.team_split(ActiveSet::new(1, 1, 2)).unwrap();
        assert_eq!(team.is_member(), ctx.my_pe() == 1 || ctx.my_pe() == 3);
        for _ in 0..5 {
            ctx.team_barrier(&team).unwrap();
        }
        ctx.barrier_all().unwrap();
        ctx.team_destroy(team).unwrap();
    })
    .unwrap();
}

#[test]
fn team_barrier_orders_member_traffic() {
    ShmemWorld::run(cfg(6), |ctx| {
        // Even PEs {0, 2, 4} exchange data under their own barrier.
        let set = ActiveSet::new(0, 1, 3);
        let team = ctx.team_split(set).unwrap();
        let sym = ctx.calloc_array::<u64>(3).unwrap();
        if let Some(rank) = team.my_rank() {
            for epoch in 1..4u64 {
                let next = set.member((rank + 1) % 3);
                ctx.put(&sym, rank, epoch * 10 + rank as u64, next).unwrap();
                ctx.team_barrier(&team).unwrap();
                let left_rank = (rank + 2) % 3;
                assert_eq!(
                    ctx.read_local::<u64>(&sym, left_rank).unwrap(),
                    epoch * 10 + left_rank as u64
                );
                ctx.team_barrier(&team).unwrap();
            }
        }
        ctx.barrier_all().unwrap();
        ctx.team_destroy(team).unwrap();
    })
    .unwrap();
}

#[test]
fn team_broadcast_and_allreduce() {
    ShmemWorld::run(cfg(6), |ctx| {
        let set = ActiveSet::new(1, 0, 4); // PEs 1..=4
        let team = ctx.team_split(set).unwrap();
        let sym = ctx.calloc_array::<f64>(4).unwrap();
        if team.my_rank() == Some(2) {
            ctx.write_local_slice(&sym, 0, &[1.5, 2.5, 3.5, 4.5]).unwrap();
        }
        ctx.team_broadcast(&team, &sym, 0, 4, 2).unwrap();
        if team.is_member() {
            assert_eq!(ctx.read_local_slice::<f64>(&sym, 0, 4).unwrap(), vec![1.5, 2.5, 3.5, 4.5]);
        }
        // Reduce over the team only: 1+2+3+4 = 10 (world would be 15).
        let r = ctx.team_allreduce(&team, ReduceOp::Sum, &[ctx.my_pe() as u64]).unwrap();
        match team.my_rank() {
            Some(_) => assert_eq!(r, Some(vec![10])),
            None => assert_eq!(r, None),
        }
        ctx.barrier_all().unwrap();
        ctx.team_destroy(team).unwrap();
    })
    .unwrap();
}

#[test]
fn team_world_equals_barrier_all_domain() {
    ShmemWorld::run(cfg(4), |ctx| {
        let team = ctx.team_world().unwrap();
        assert_eq!(team.size(), 4);
        assert_eq!(team.my_rank(), Some(ctx.my_pe()));
        ctx.team_barrier(&team).unwrap();
        ctx.team_destroy(team).unwrap();
    })
    .unwrap();
}

#[test]
fn oversized_active_set_rejected() {
    ShmemWorld::run(cfg(3), |ctx| {
        assert!(ctx.team_split(ActiveSet::new(0, 1, 3)).is_err(), "member 4 beyond world");
        // All PEs failed together: no stray barrier state; world healthy.
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Variable-length collect
// ---------------------------------------------------------------------

#[test]
fn collect_variable_contributions() {
    ShmemWorld::run(cfg(4), |ctx| {
        let me = ctx.my_pe();
        let dest = ctx.calloc_array::<u32>(32).unwrap();
        // PE i contributes i+1 elements of value (i+1)*11.
        let src: Vec<u32> = vec![(me as u32 + 1) * 11; me + 1];
        let total = ctx.collect(&dest, &src).unwrap();
        assert_eq!(total, 1 + 2 + 3 + 4);
        let got = ctx.read_local_slice::<u32>(&dest, 0, total).unwrap();
        assert_eq!(got, vec![11, 22, 22, 33, 33, 33, 44, 44, 44, 44]);
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn collect_rejects_small_dest() {
    ShmemWorld::run(cfg(3), |ctx| {
        let dest = ctx.calloc_array::<u32>(2).unwrap();
        let r = ctx.collect(&dest, &[1u32, 2]);
        assert!(r.is_err());
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Multi-flag waits
// ---------------------------------------------------------------------

#[test]
fn wait_until_any_and_all() {
    ShmemWorld::run(cfg(2), |ctx| {
        let flags = ctx.calloc_array::<u64>(4).unwrap();
        if ctx.my_pe() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            ctx.put(&flags, 2, 1u64, 1).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
            for i in [0usize, 1, 3] {
                ctx.put(&flags, i, 1u64, 1).unwrap();
            }
        } else {
            let pos = ctx.wait_until_any(&flags, &[0, 1, 2, 3], CmpOp::Eq, 1u64).unwrap();
            assert_eq!(pos, 2, "flag 2 fires first");
            let all = ctx.wait_until_all(&flags, &[0, 1, 2, 3], CmpOp::Eq, 1u64).unwrap();
            assert_eq!(all, vec![1, 1, 1, 1]);
        }
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn locality_query() {
    ShmemWorld::run(cfg(3), |ctx| {
        assert!(ctx.is_locally_accessible(ctx.my_pe()));
        for pe in 0..3 {
            if pe != ctx.my_pe() {
                assert!(!ctx.is_locally_accessible(pe));
            }
        }
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Modes × extensions interplay
// ---------------------------------------------------------------------

#[test]
fn full_stack_on_mesh_topology() {
    // The whole OpenSHMEM model must run unchanged on the switch baseline.
    for alg in [BarrierAlgorithm::RingSweep, BarrierAlgorithm::Dissemination] {
        let c = cfg(5).with_topology(shmem_core::Topology::clique(5)).with_barrier_algorithm(alg);
        ShmemWorld::run(c, |ctx| {
            let sym = ctx.calloc_array::<u64>(8).unwrap();
            // Put to the "far" host (adjacent on the mesh).
            let far = (ctx.my_pe() + 2) % ctx.num_pes();
            ctx.put(&sym, ctx.my_pe(), ctx.my_pe() as u64 + 1, far).unwrap();
            ctx.barrier_all().unwrap();
            let from = (ctx.my_pe() + ctx.num_pes() - 2) % ctx.num_pes();
            assert_eq!(ctx.read_local::<u64>(&sym, from).unwrap(), from as u64 + 1);
            // Atomics and reductions too.
            let counter = ctx.calloc_array::<u64>(1).unwrap();
            ctx.atomic_fetch_add(&counter, 0, 1u64, 0).unwrap();
            let total = ctx.allreduce(ReduceOp::Sum, &[1u64]).unwrap()[0];
            assert_eq!(total, 5);
            ctx.barrier_all().unwrap();
        })
        .unwrap_or_else(|e| panic!("{alg:?}: {e}"));
    }
}

#[test]
fn dissemination_barrier_under_memcpy_default() {
    let c = cfg(4)
        .with_barrier_algorithm(BarrierAlgorithm::Dissemination)
        .with_mode(TransferMode::Memcpy);
    ShmemWorld::run(c, |ctx| {
        let sym = ctx.calloc_array::<u8>(1024).unwrap();
        if ctx.my_pe() == 0 {
            ctx.put_slice(&sym, 0, &[0x55u8; 1024], 2).unwrap();
        }
        ctx.barrier_all().unwrap();
        if ctx.my_pe() == 2 {
            assert_eq!(ctx.read_local_slice::<u8>(&sym, 0, 1024).unwrap(), vec![0x55u8; 1024]);
        }
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}

// ---------------------------------------------------------------------
// Put-with-signal and ring broadcast
// ---------------------------------------------------------------------

#[test]
fn put_with_signal_orders_data_before_signal() {
    use shmem_core::SignalOp;
    // Producer/consumer without any barrier or quiet: the signal alone
    // must guarantee data visibility, across 1 and 2 hops.
    for target in [1usize, 2] {
        ShmemWorld::run(cfg(5), |ctx| {
            let data = ctx.calloc_array::<u64>(512).unwrap();
            let sig = ctx.calloc_array::<u64>(1).unwrap();
            if ctx.my_pe() == 0 {
                let payload: Vec<u64> = (0..512).map(|i| i * 3 + 1).collect();
                ctx.put_with_signal(&data, 0, &payload, &sig, 0, 7u64, SignalOp::Set, target)
                    .unwrap();
            }
            if ctx.my_pe() == target {
                let v = ctx.signal_wait_until(&sig, 0, CmpOp::Eq, 7u64).unwrap();
                assert_eq!(v, 7);
                let got = ctx.read_local_slice::<u64>(&data, 0, 512).unwrap();
                for (i, x) in got.iter().enumerate() {
                    assert_eq!(*x, i as u64 * 3 + 1, "data visible before signal");
                }
            }
            ctx.barrier_all().unwrap();
        })
        .unwrap();
    }
}

#[test]
fn put_with_signal_add_accumulates_producers() {
    use shmem_core::SignalOp;
    ShmemWorld::run(cfg(4), |ctx| {
        let data = ctx.calloc_array::<u32>(4).unwrap();
        let sig = ctx.calloc_array::<u64>(1).unwrap();
        if ctx.my_pe() != 3 {
            // Three producers, each signalling +1 after writing its slot.
            ctx.put_with_signal(
                &data,
                ctx.my_pe(),
                &[ctx.my_pe() as u32 + 10],
                &sig,
                0,
                1u64,
                SignalOp::Add,
                3,
            )
            .unwrap();
        } else {
            let v = ctx.signal_wait_until(&sig, 0, CmpOp::Ge, 3u64).unwrap();
            assert_eq!(v, 3);
            let got = ctx.read_local_slice::<u32>(&data, 0, 3).unwrap();
            assert_eq!(got, vec![10, 11, 12]);
            assert_eq!(ctx.signal_fetch(&sig, 0).unwrap(), 3);
        }
        ctx.barrier_all().unwrap();
    })
    .unwrap();
}
