#![allow(clippy::needless_range_loop)]

//! The switch-emulating full-mesh topology: every pair directly cabled,
//! no forwarding — the comparison baseline to the paper's switchless
//! ring.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ntb_net::{AmoOp, DeliveryTarget, NetConfig, RingNetwork, Topology};
use ntb_sim::{FaultPlan, Region, Result, TransferMode};
use parking_lot::Mutex;

struct TestHeap {
    region: Region,
    amo_lock: Mutex<()>,
}

impl TestHeap {
    fn new() -> Arc<Self> {
        Arc::new(TestHeap { region: Region::anonymous(1 << 20), amo_lock: Mutex::new(()) })
    }
}

impl DeliveryTarget for TestHeap {
    fn deliver_put(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.region.write(offset, data)
    }

    fn read_for_get(&self, offset: u64, out: &mut [u8]) -> Result<()> {
        self.region.read(offset, out)
    }

    fn deliver_atomic(
        &self,
        op: AmoOp,
        offset: u64,
        width: usize,
        operand: u64,
        compare: u64,
    ) -> Result<u64> {
        let _guard = self.amo_lock.lock();
        let mut buf = [0u8; 8];
        self.region.read(offset, &mut buf[..width])?;
        let old = u64::from_le_bytes(buf);
        self.region.write(offset, &op.apply(old, operand, compare).to_le_bytes()[..width])?;
        Ok(old)
    }
}

fn build(hosts: usize) -> (RingNetwork, Vec<Arc<TestHeap>>) {
    build_with(hosts, FaultPlan::none())
}

fn build_with(hosts: usize, faults: FaultPlan) -> (RingNetwork, Vec<Arc<TestHeap>>) {
    let cfg = NetConfig::fast(hosts).with_topology(Topology::clique(hosts)).with_faults(faults);
    let net = RingNetwork::build(cfg).unwrap();
    let heaps: Vec<Arc<TestHeap>> = (0..hosts).map(|_| TestHeap::new()).collect();
    for (i, heap) in heaps.iter().enumerate() {
        net.node(i).set_delivery(Arc::clone(heap) as Arc<dyn DeliveryTarget>);
    }
    (net, heaps)
}

#[test]
fn all_pairs_put_get_without_forwarding() {
    let (net, heaps) = build(5);
    for src in 0..5usize {
        for dst in 0..5usize {
            if src == dst {
                continue;
            }
            let payload = vec![(src * 16 + dst) as u8; 999];
            let off = (src * 5 + dst) as u64 * 1024;
            net.node(src).put_bytes(dst, off, &payload, TransferMode::Dma).unwrap();
            net.node(src).quiet().expect("quiet");
            assert_eq!(heaps[dst].region.read_vec(off, 999).unwrap(), payload);
            let back = net.node(src).get_bytes(dst, off, 999, TransferMode::Dma).unwrap();
            assert_eq!(back, payload);
        }
    }
    // The defining property of the mesh: nobody ever forwarded.
    for node in net.nodes() {
        assert_eq!(
            node.stats().forwards.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "host {} forwarded on a full mesh",
            node.host_id()
        );
        assert!(node.take_errors().is_empty());
    }
}

#[test]
fn mesh_amo_linearizable() {
    let (net, heaps) = build(4);
    let mut handles = vec![];
    for i in 1..4usize {
        let node = Arc::clone(net.node(i));
        handles.push(std::thread::spawn(move || {
            for _ in 0..60 {
                node.amo(0, AmoOp::FetchAdd, 0, 8, 1, 0).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(heaps[0].region.read_u64(0).unwrap(), 180);
}

/// Bytes host `me` has sent on its adapter cabled to `peer`.
fn bytes_sent(net: &RingNetwork, me: usize, peer: usize) -> u64 {
    let node = net.node(me);
    let idx = node.graph().adapters(me).iter().position(|a| a.neighbor == peer).unwrap();
    node.port_stats_at(idx).bytes_tx
}

#[test]
fn mesh_has_dedicated_links_per_pair() {
    let (net, _heaps) = build(4);
    // 4 hosts -> each node has 3 endpoints; traffic between 0 and 3 never
    // touches the 0-1 link.
    net.node(0).put_bytes(3, 0, &[9u8; 4096], TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("quiet");
    let to_1 = bytes_sent(&net, 0, 1);
    let to_3 = bytes_sent(&net, 0, 3);
    assert_eq!(to_1, 0, "0-1 link must stay idle");
    assert!(to_3 >= 4096, "0-3 link carried the payload");
}

#[test]
fn two_host_mesh_is_a_single_link() {
    let (net, heaps) = build(2);
    net.node(0).put_bytes(1, 0, &[1u8; 64], TransferMode::Memcpy).unwrap();
    net.node(1).put_bytes(0, 0, &[2u8; 64], TransferMode::Memcpy).unwrap();
    net.node(0).quiet().expect("quiet");
    net.node(1).quiet().expect("quiet");
    assert_eq!(heaps[1].region.read_vec(0, 64).unwrap(), vec![1u8; 64]);
    assert_eq!(heaps[0].region.read_vec(0, 64).unwrap(), vec![2u8; 64]);
}

#[test]
#[should_panic(expected = "clique adapter slots")]
fn mesh_host_cap_enforced() {
    let _ = RingNetwork::build(NetConfig::fast(17).with_topology(Topology::clique(17)));
}

#[test]
fn down_direct_link_detours_through_another_host() {
    // The 0-3 cable (link 2 in cabling order) stays dark far longer than
    // the retry budget. The clique routes like every other shape: the
    // put takes a two-hop detour through host 1 or 2, and so does its ack.
    let plan = FaultPlan::none().with_link_down(2, 0, Duration::from_secs(5));
    let (net, heaps) = build_with(4, plan);
    let payload: Vec<u8> = (0..1024u32).map(|i| (i * 13 % 251) as u8).collect();
    net.node(0).put_bytes(3, 0, &payload, TransferMode::Dma).unwrap();
    net.node(0).quiet().expect("put must detour around the dark cable");
    assert_eq!(heaps[3].region.read_vec(0, 1024).unwrap(), payload);
    assert!(net.node(0).stats().reroutes.load(Ordering::Relaxed) >= 1, "origin must reroute");
    let forwarded: u64 =
        [1, 2].iter().map(|&h| net.node(h).stats().forwards.load(Ordering::Relaxed)).sum();
    assert!(forwarded >= 1, "the detour forwards through a third host");
}
