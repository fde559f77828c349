//! Running one simulated world: bring-up/teardown timing, the per-PE
//! report every workload returns, and whole-world counter snapshots.

use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ntb_net::NtbNode;
use shmem_core::{ShmemConfig, ShmemCtx, ShmemWorld, TimeModel, Topology};

use crate::trace::Span;

/// What every world of one run shares: the timing model, whether this
/// world records spans, and the seed its inputs come from.
#[derive(Debug, Clone)]
pub struct Plan {
    pub model: TimeModel,
    pub traced: bool,
    pub seed: u64,
    pub world: u64,
}

impl Plan {
    pub fn config(&self, hosts: usize, topology: Topology) -> ShmemConfig {
        ShmemConfig::fast_sim()
            .with_hosts(hosts)
            .with_topology(topology)
            .with_model(self.model.clone())
    }
}

/// Ops attempted and failed by one PE. An op fails when it returns `Err`
/// or a wrong result; the benchmark never panics on either, so a run
/// always reaches its verdict.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one op; `None` if it returned `Err`.
    pub fn op<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count one check of a computed result (an oracle comparison).
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("{what}: wrong result"));
        }
    }

    /// An already-counted op returned a wrong result.
    pub fn wrong(&mut self, what: &str) {
        self.fail(format!("{what}: wrong result"));
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// Latency and rate samples, all taken at PE 0.
#[derive(Debug, Default)]
pub struct Samples {
    pub step_us: Vec<f64>,
    pub solve_s: Vec<f64>,
    pub put_local_us: Vec<f64>,
    pub put_remote_us: Vec<f64>,
    pub get_small_us: Vec<f64>,
    pub get_large_us: Vec<f64>,
    pub put_rate_msgs_s: Vec<f64>,
    pub bulk_put_mb_s: Vec<f64>,
    pub bulk_get_mb_s: Vec<f64>,
}

/// Everything one PE hands back from a world.
#[derive(Debug, Default)]
pub struct PeReport {
    pub tally: Tally,
    pub samples: Samples,
    pub spans: Vec<Span>,
    /// Counter deltas over the workload's own timed loops (PE 0, traced
    /// worlds only).
    pub phase: Counters,
    /// Mechanisms that did not fire although the workload relies on them.
    pub vacuous: Vec<String>,
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Network-wide counters summed over every node and adapter, read
        /// from the public snapshots (`NtbNode::stats`,
        /// `NtbNode::port_stats_at`, the per-link metrics registry).
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            pub fn minus(&self, o: &Counters) -> Counters {
                Counters { $($field: self.$field - o.$field,)* }
            }

            pub fn plus(&self, o: &Counters) -> Counters {
                Counters { $($field: self.$field + o.$field,)* }
            }
        }
    };
}

counters!(
    frames_rx,
    forwards,
    gets_served,
    puts_delivered,
    acks,
    retransmits,
    sheds,
    router_drops,
    doorbells,
    dma_ops,
    pio_ops,
    bytes_tx,
    scratchpad,
);

/// The interconnect node of every PE, registered as each PE enters the
/// world so that PE 0 can snapshot network-wide counters.
#[derive(Default)]
pub struct Nodes(Mutex<Vec<Arc<NtbNode>>>);

impl Nodes {
    fn register(&self, node: &Arc<NtbNode>) {
        self.0.lock().expect("node registry poisoned").push(Arc::clone(node));
    }

    pub fn snapshot(&self) -> Counters {
        // Monotonic statistics counters: a relaxed read is all a report needs.
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut c = Counters::default();
        for node in self.0.lock().expect("node registry poisoned").iter() {
            let s = node.stats();
            c.frames_rx += ld(&s.frames_rx);
            c.forwards += ld(&s.forwards);
            c.gets_served += ld(&s.gets_served);
            c.puts_delivered += ld(&s.puts_delivered);
            c.acks += ld(&s.acks_received);
            c.retransmits += ld(&s.retransmits);
            for i in 0..node.num_links() {
                let p = node.port_stats_at(i);
                c.doorbells += p.doorbells_rung;
                c.dma_ops += p.dma_ops;
                c.pio_ops += p.pio_ops;
                c.bytes_tx += p.bytes_tx;
                c.scratchpad += p.scratchpad_accesses;
            }
            let m = node.metrics();
            for l in (0..m.link_count()).filter_map(|i| m.link(i)) {
                c.router_drops += ld(&l.router_drops);
                c.sheds += ld(&l.deadline_sheds) + ld(&l.overload_sheds) + ld(&l.retry_sheds);
            }
        }
        c
    }
}

/// One finished world.
pub struct WorldRun<T> {
    pub results: Vec<T>,
    /// `ShmemWorld::run` call until the first PE runs user code.
    pub bringup: Duration,
    /// Last PE leaving user code until `ShmemWorld::run` returns.
    pub teardown: Duration,
    /// Counters of the whole world, read after teardown.
    pub totals: Counters,
}

/// Run `body` on every PE of a world built from `cfg`.
pub fn run_world<T, F>(cfg: ShmemConfig, body: F) -> Result<WorldRun<T>, String>
where
    T: Send,
    F: Fn(&ShmemCtx, &Nodes) -> T + Send + Sync,
{
    let nodes = Nodes::default();
    let marks: Mutex<(Option<Instant>, Option<Instant>)> = Mutex::new((None, None));
    let called = Instant::now();
    let results = ShmemWorld::run(cfg, |ctx| {
        let entered = Instant::now();
        {
            let mut m = marks.lock().expect("marks poisoned");
            m.0 = Some(m.0.map_or(entered, |t| t.min(entered)));
        }
        nodes.register(ctx.node());
        let r = body(ctx, &nodes);
        let left = Instant::now();
        let mut m = marks.lock().expect("marks poisoned");
        m.1 = Some(m.1.map_or(left, |t| t.max(left)));
        r
    })
    .map_err(|e| format!("world run failed: {e}"))?;
    let returned = Instant::now();
    let (first_in, last_out) = *marks.lock().expect("marks poisoned");
    let (first_in, last_out) = first_in.zip(last_out).ok_or("world ran no PE")?;
    Ok(WorldRun {
        results,
        bringup: first_in - called,
        teardown: returned - last_out,
        totals: nodes.snapshot(),
    })
}
