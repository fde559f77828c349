//! The classic-name C API facade: a transliterated C SHMEM kernel must
//! behave exactly like its generic-Rust equivalent.

use shmem_core::{CmpOp, ReduceOp, ShmemConfig, ShmemWorld, TypedSym};

fn cfg(hosts: usize) -> ShmemConfig {
    ShmemConfig::fast_sim().with_hosts(hosts)
}

#[test]
fn classic_put_get_roundtrip_many_types() {
    ShmemWorld::run(cfg(2), |ctx| {
        let shmem = ctx.c_api();
        assert_eq!(shmem.shmem_n_pes(), 2);
        let me = shmem.shmem_my_pe();

        let longs = TypedSym::<i64>::new(shmem.shmem_malloc(8 * 4).unwrap(), 4).unwrap();
        let doubles = TypedSym::<f64>::new(shmem.shmem_malloc(8 * 2).unwrap(), 2).unwrap();
        let ints = TypedSym::<i32>::new(shmem.shmem_calloc(4, 4).unwrap(), 4).unwrap();

        if me == 0 {
            shmem.shmem_long_put(&longs, &[-1, -2, -3, -4], 1).unwrap();
            shmem.shmem_double_put(&doubles, &[1.5, -2.5], 1).unwrap();
            shmem.shmem_int_p(&ints, 77, 1).unwrap();
        }
        shmem.shmem_barrier_all().unwrap();
        if me == 1 {
            assert_eq!(shmem.shmem_long_get(&longs, 4, 1).unwrap(), vec![-1, -2, -3, -4]);
            assert_eq!(shmem.shmem_double_get(&doubles, 2, 1).unwrap(), vec![1.5, -2.5]);
            assert_eq!(shmem.shmem_int_g(&ints, 1).unwrap(), 77);
        }
        shmem.shmem_barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn classic_strided() {
    ShmemWorld::run(cfg(2), |ctx| {
        let shmem = ctx.c_api();
        let arr = TypedSym::<i32>::new(shmem.shmem_calloc(12, 4).unwrap(), 12).unwrap();
        if shmem.shmem_my_pe() == 0 {
            // Every element of src at stride 1, into target stride 3.
            shmem.shmem_int_iput(&arr, &[10, 20, 30, 40], 3, 1, 4, 1).unwrap();
        }
        shmem.shmem_barrier_all().unwrap();
        if shmem.shmem_my_pe() == 1 {
            let strided = shmem.shmem_int_iget(&arr, 3, 4, 1).unwrap();
            assert_eq!(strided, vec![10, 20, 30, 40]);
        }
        shmem.shmem_barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn classic_atomics_and_locks() {
    ShmemWorld::run(cfg(4), |ctx| {
        let shmem = ctx.c_api();
        let counter = TypedSym::<i64>::new(shmem.shmem_calloc(1, 8).unwrap(), 1).unwrap();
        let lock = ctx.lock_alloc().unwrap();

        for _ in 0..10 {
            shmem.shmem_long_atomic_inc(&counter, 0).unwrap();
        }
        let old = shmem.shmem_long_atomic_fetch_add(&counter, 0, 0).unwrap();
        assert!(old >= 10, "at least my own increments landed");
        shmem.shmem_barrier_all().unwrap();
        if shmem.shmem_my_pe() == 0 {
            assert_eq!(ctx.read_local::<i64>(&counter, 0).unwrap(), 40);
        }

        // Everyone contends for the lock (mutual exclusion exercised)...
        shmem.shmem_set_lock(&lock).unwrap();
        shmem.shmem_clear_lock(&lock).unwrap();
        shmem.shmem_barrier_all().unwrap();
        // ...but test_lock's success is only deterministic uncontended.
        if shmem.shmem_my_pe() == 2 {
            assert!(shmem.shmem_test_lock(&lock).unwrap());
            assert!(!shmem.shmem_test_lock(&lock).unwrap(), "second probe sees it held");
            shmem.shmem_clear_lock(&lock).unwrap();
        }
        shmem.shmem_barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn classic_reductions_and_collectives() {
    ShmemWorld::run(cfg(3), |ctx| {
        let shmem = ctx.c_api();
        let me = shmem.shmem_my_pe() as i64;
        assert_eq!(shmem.shmem_long_sum_to_all(&[me + 1]).unwrap(), vec![6]);
        assert_eq!(shmem.shmem_long_max_to_all(&[me]).unwrap(), vec![2]);
        assert_eq!(shmem.shmem_long_min_to_all(&[me]).unwrap(), vec![0]);
        assert_eq!(shmem.shmem_long_prod_to_all(&[me + 1]).unwrap(), vec![6]);
        assert_eq!(shmem.shmem_double_sum_to_all(&[0.5]).unwrap(), vec![1.5]);
        assert_eq!(shmem.shmem_reduce(ReduceOp::Max, &[me as f32]).unwrap(), vec![2.0]);

        let gathered = TypedSym::<i32>::new(shmem.shmem_malloc(3 * 4).unwrap(), 3).unwrap();
        shmem.shmem_fcollect(&gathered, &[me as i32 * 10]).unwrap();
        assert_eq!(ctx.read_local_slice::<i32>(&gathered, 0, 3).unwrap(), vec![0, 10, 20]);

        let bcast = TypedSym::<u64>::new(shmem.shmem_calloc(2, 8).unwrap(), 2).unwrap();
        if me == 1 {
            ctx.write_local_slice(&bcast, 0, &[111u64, 222]).unwrap();
        }
        shmem.shmem_broadcast(&bcast, 2, 1).unwrap();
        assert_eq!(ctx.read_local_slice::<u64>(&bcast, 0, 2).unwrap(), vec![111, 222]);

        // The OpenSHMEM 1.5 names run the same allreduce.
        assert_eq!(shmem.shmem_int_sum_reduce(&[me as i32 + 1, -1]).unwrap(), vec![6, -3]);
        assert_eq!(shmem.shmem_long_max_reduce(&[me, -me]).unwrap(), vec![2, 0]);
        assert_eq!(shmem.shmem_uint64_prod_reduce(&[me as u64 + 2]).unwrap(), vec![24]);
        assert_eq!(shmem.shmem_uint64_min_reduce(&[me as u64 + 7]).unwrap(), vec![7]);
        // Float sums fold in ascending PE order from 0.0, bit for bit:
        // here (0.1 + 1e16) - 1e16 = 0, where another order gives 0.1.
        let parts = |pe: usize| [[0.1, 1.0 / 3.0], [1e16, 0.7], [-1e16, 1e-9]][pe];
        let want = (0..3).fold([0.0f64; 2], |acc, pe| {
            let p = parts(pe);
            [acc[0] + p[0], acc[1] + p[1]]
        });
        let got = shmem.shmem_double_sum_reduce(&parts(me as usize)).unwrap();
        assert_eq!(got[0].to_bits(), want[0].to_bits());
        assert_eq!(got[1].to_bits(), want[1].to_bits());
        assert_eq!(got[0], 0.0);

        let bytes = TypedSym::<u8>::new(shmem.shmem_calloc(5, 1).unwrap(), 5).unwrap();
        if me == 2 {
            ctx.write_local_slice(&bytes, 0, b"bcast").unwrap();
        }
        shmem.shmem_broadcastmem(&bytes, 5, 2).unwrap();
        assert_eq!(ctx.read_local_slice::<u8>(&bytes, 0, 5).unwrap(), b"bcast");
        shmem.shmem_barrier_all().unwrap();
    })
    .unwrap();
}

#[test]
fn classic_wait_until_and_putmem() {
    ShmemWorld::run(cfg(2), |ctx| {
        let shmem = ctx.c_api();
        let bytes = TypedSym::<u8>::new(shmem.shmem_calloc(16, 1).unwrap(), 16).unwrap();
        let flag = TypedSym::<i64>::new(shmem.shmem_calloc(1, 8).unwrap(), 1).unwrap();
        if shmem.shmem_my_pe() == 0 {
            shmem.shmem_putmem(&bytes, b"classic putmem!!", 1).unwrap();
            shmem.shmem_quiet().expect("quiet");
            shmem.shmem_long_p(&flag, 1, 1).unwrap();
        } else {
            let v = shmem.shmem_wait_until(&flag, CmpOp::Eq, 1i64).unwrap();
            assert_eq!(v, 1);
            assert_eq!(ctx.read_local_slice::<u8>(&bytes, 0, 16).unwrap(), b"classic putmem!!");
            // getmem path too.
            assert_eq!(shmem.shmem_getmem(&bytes, 7, 1).unwrap(), b"classic");
        }
        shmem.shmem_barrier_all().unwrap();
    })
    .unwrap();
}
