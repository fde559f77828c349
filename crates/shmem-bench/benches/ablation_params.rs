//! Ablations over the two calibrated design parameters DESIGN.md flags:
//!
//! * **Get-response chunk size** (the bypass/forwarding granularity): the
//!   paper streams Get responses through fixed buffers; smaller chunks
//!   mean more per-chunk service think time, larger chunks need larger
//!   window areas. Swept against 512 KB Get latency.
//! * **Service-thread wake delay** (the "Sleep & Wait" loop of Fig. 5):
//!   the main contributor to small-message Put latency. Swept against
//!   64 KB Put latency.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ntb_net::{DeliveryTarget, NetConfig, RingNetwork};
use ntb_sim::{TimeModel, TransferMode};
use shmem_core::SymmetricHeap;

fn rig(model: TimeModel, get_chunk: u64) -> RingNetwork {
    let cfg = NetConfig::paper(5).with_model(model).with_get_chunk(get_chunk);
    let net = RingNetwork::build(cfg).expect("build ring");
    for node in net.nodes() {
        let heap = SymmetricHeap::new(Arc::clone(node.memory()), 1 << 20);
        heap.malloc(1 << 20).expect("symmetric buffer");
        node.set_delivery(heap as Arc<dyn DeliveryTarget>);
    }
    net
}

fn bench_get_chunk_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_get_chunk");
    group.sample_size(10);
    for &chunk in &[16u64 << 10, 64 << 10, 256 << 10] {
        let net = rig(TimeModel::scaled(0.05), chunk);
        let node = Arc::clone(net.node(0));
        group.bench_with_input(BenchmarkId::from_parameter(chunk >> 10), &chunk, |b, _| {
            b.iter(|| {
                let v = node.get_bytes(1, 0, 512 << 10, TransferMode::Dma).unwrap();
                assert_eq!(v.len(), 512 << 10);
            })
        });
        net.shutdown();
    }
    group.finish();
}

fn bench_service_wake_delay(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_service_wake");
    group.sample_size(10);
    for &wake_us in &[30u64, 150, 600] {
        let mut model = TimeModel::scaled(0.2);
        model.interrupt_service_delay = std::time::Duration::from_micros(wake_us);
        let net = rig(model, 64 << 10);
        let node = Arc::clone(net.node(0));
        let data = vec![0u8; 64 << 10];
        group.bench_with_input(BenchmarkId::from_parameter(wake_us), &wake_us, |b, _| {
            b.iter(|| node.put_bytes(1, 0, &data, TransferMode::Dma).unwrap());
            node.quiet().expect("quiet");
        });
        net.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_get_chunk_size, bench_service_wake_delay);
criterion_main!(benches);
