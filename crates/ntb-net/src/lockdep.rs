//! Runtime lock-order instrumentation ("lockdep", after the Linux kernel
//! facility of the same name).
//!
//! The static pass in `ntb-lint` proves intra-function acquisition order
//! against the LOCK_ORDER manifest; this module closes the gap it cannot
//! see — orders composed *across* functions and crates at runtime (e.g. a
//! service-thread callback taking a heap lock while the caller already
//! holds a pending-table lock).
//!
//! Instrumented lock sites call [`track`] immediately before the real
//! acquisition, pushing the site's [`LockClass`] onto a thread-local held
//! stack; the returned [`ClassGuard`] pops it on drop. Every observed
//! `held → acquired` pair is recorded as a directed edge in a global
//! graph, and an acquisition whose rank does not strictly increase over
//! the top of the held stack is recorded as a violation. Violations are
//! **recorded, not panicked**: service threads swallow panics via
//! `let _ = h.join()`, so the chaos suite instead drains
//! [`take_violations`] at the end and fails loudly there.
//!
//! The tracking machinery is always compiled (so its tests run under the
//! default feature set); the hot-path call sites in `ntb-net` and
//! `shmem-core` are gated behind the `lockdep` feature via
//! [`lockdep_track!`](crate::lockdep_track), making the default build
//! zero-overhead.
//!
//! The class table below is cross-checked against the `ntb-lint`
//! LOCK_ORDER manifest by the lint's `lockdep-sync` rule: editing a rank
//! here without editing the manifest (or vice versa) fails the lint.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

/// A named rung of the lock hierarchy. Ranks must strictly increase along
/// any acquisition chain.
#[derive(Debug)]
pub struct LockClass {
    /// Manifest name (kebab-case, matches `ntb-lint`'s LOCK_ORDER).
    pub name: &'static str,
    /// Hierarchy rank; strictly increasing along nested acquisitions.
    pub rank: u32,
}

// The runtime-reachable subset of the LOCK_ORDER manifest. Declarations
// must stay literal `LockClass { name: "...", rank: N }` initializers:
// the lint's lockdep-sync rule parses them textually.

/// Serializes remote AMO read-modify-write on the symmetric heap.
pub const SHMEM_AMO: LockClass = LockClass { name: "shmem-amo", rank: 10 };
/// Symmetric-heap allocator state (segments, live map).
pub const SHMEM_HEAP: LockClass = LockClass { name: "shmem-heap", rank: 20 };
/// Heap change-version counter + condvar for wait/wake.
pub const SHMEM_VERSION: LockClass = LockClass { name: "shmem-version", rank: 30 };
/// The node's registered delivery target (RwLock).
pub const NET_DELIVERY: LockClass = LockClass { name: "net-delivery", rank: 40 };
/// Duplicate-suppression state: seen-put window and AMO replay cache.
pub const NET_DEDUP: LockClass = LockClass { name: "net-dedup", rank: 50 };
/// Ring membership view (heartbeat failure detector + gossip).
pub const NET_MEMBERSHIP: LockClass = LockClass { name: "net-membership", rank: 55 };
/// One shard of the in-flight request completion table.
pub const NET_PENDING_SHARD: LockClass = LockClass { name: "net-pending-shard", rank: 60 };
/// One shard of the unacked-put retransmission ledger.
pub const NET_UNACKED_SHARD: LockClass = LockClass { name: "net-unacked-shard", rank: 64 };
/// Bypass-forwarding job queue.
pub const NET_FORWARD: LockClass = LockClass { name: "net-forward", rank: 70 };
/// Per-link retransmission token bucket (leaf; held only across the
/// refill arithmetic).
pub const NET_RETRY_BUDGET: LockClass = LockClass { name: "net-retry-budget", rank: 72 };
/// Transmit-ring publish state (slot seq + coalesced doorbell pairing).
pub const NET_TXRING: LockClass = LockClass { name: "net-txring", rank: 78 };
/// Node admin state: service-thread handles, error sink.
pub const NET_ADMIN: LockClass = LockClass { name: "net-admin", rank: 90 };
/// This module's own graph state; leaf of the hierarchy, never tracked.
pub const LOCKDEP_INTERNAL: LockClass = LockClass { name: "lockdep-internal", rank: 130 };

/// Global acquisition graph + recorded violations.
#[derive(Default)]
struct LockdepState {
    /// Directed `held → acquired` edges, by class name.
    edges: HashSet<(&'static str, &'static str)>,
    /// Human-readable violation records, deduplicated.
    violations: Vec<String>,
}

static STATE: Mutex<Option<LockdepState>> = Mutex::new(None);

thread_local! {
    /// Classes this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<&'static LockClass>> = const { RefCell::new(Vec::new()) };
}

fn with_state<R>(f: impl FnOnce(&mut LockdepState) -> R) -> R {
    // A poisoned graph is still a readable graph: violations found before
    // a panicking thread died are exactly what the caller wants to see.
    let mut st = STATE.lock().unwrap_or_else(|p| p.into_inner());
    f(st.get_or_insert_with(LockdepState::default))
}

/// RAII token marking `class` as held by the current thread; created by
/// [`track`] immediately before the real lock acquisition, dropped with
/// (or just after) the real guard.
#[must_use = "the ClassGuard must live as long as the lock guard it shadows"]
pub struct ClassGuard {
    class: &'static LockClass,
}

impl Drop for ClassGuard {
    fn drop(&mut self) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            // LIFO in the common case; rposition tolerates out-of-order
            // drops from e.g. `mem::drop(first_guard)`.
            if let Some(pos) = held.iter().rposition(|c| c.name == self.class.name) {
                held.remove(pos);
            }
        });
    }
}

/// Record the acquisition of `class` by the current thread. Call directly
/// before the real `.lock()`/`.read()`/`.write()` and keep the returned
/// guard alive alongside the real one.
pub fn track(class: &'static LockClass) -> ClassGuard {
    let top = HELD.with(|h| h.borrow().last().map(|c| (c.name, c.rank)));
    if let Some((held_name, held_rank)) = top {
        with_state(|st| {
            st.edges.insert((held_name, class.name));
            if class.rank <= held_rank {
                let msg = format!(
                    "lock order violation: acquired `{}` (rank {}) while holding `{}` (rank {})",
                    class.name, class.rank, held_name, held_rank
                );
                if !st.violations.contains(&msg) {
                    st.violations.push(msg);
                }
            }
        });
    }
    HELD.with(|h| h.borrow_mut().push(class));
    ClassGuard { class }
}

/// Drain and return every violation recorded since the last drain (or
/// [`reset`]). Chaos tests call this at the end and assert emptiness.
pub fn take_violations() -> Vec<String> {
    with_state(|st| std::mem::take(&mut st.violations))
}

/// Snapshot of the observed acquisition edges (`held → acquired`).
pub fn edges() -> Vec<(&'static str, &'static str)> {
    with_state(|st| st.edges.iter().copied().collect())
}

/// Search the acquisition graph for a directed cycle; returns the class
/// names along one cycle if found. A cycle means two code paths disagree
/// on acquisition order — a latent deadlock even if no single path broke
/// its rank locally.
pub fn find_cycle() -> Option<Vec<&'static str>> {
    let edge_list = edges();
    let mut adj: HashMap<&'static str, Vec<&'static str>> = HashMap::new();
    for (from, to) in &edge_list {
        adj.entry(from).or_default().push(to);
    }
    // Iterative DFS with white/gray/black coloring; gray hit = cycle.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        Gray,
        Black,
    }
    let mut color: HashMap<&'static str, Color> = HashMap::new();
    let mut nodes: Vec<&'static str> = adj.keys().copied().collect();
    nodes.sort_unstable(); // determinism across HashMap iteration orders
    for start in nodes {
        if color.contains_key(start) {
            continue;
        }
        let mut path: Vec<&'static str> = Vec::new();
        let mut stack: Vec<(&'static str, usize)> = vec![(start, 0)];
        color.insert(start, Color::Gray);
        path.push(start);
        while let Some(top) = stack.len().checked_sub(1) {
            let (node, next) = stack[top];
            let succs = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if next < succs.len() {
                let s = succs[next];
                stack[top].1 += 1;
                match color.get(s) {
                    Some(Color::Gray) => {
                        // Found a back edge: slice the gray path into the cycle.
                        let at = path.iter().position(|n| *n == s).unwrap_or(0);
                        let mut cycle = path[at..].to_vec();
                        cycle.push(s);
                        return Some(cycle);
                    }
                    Some(Color::Black) => {}
                    None => {
                        color.insert(s, Color::Gray);
                        path.push(s);
                        stack.push((s, 0));
                    }
                }
            } else {
                color.insert(node, Color::Black);
                path.pop();
                stack.pop();
            }
        }
    }
    None
}

/// Clear the global graph and violation log (the thread-local held stacks
/// unwind on their own via `ClassGuard`). Test setup calls this.
pub fn reset() {
    let mut st = STATE.lock().unwrap_or_else(|p| p.into_inner());
    *st = None;
}

/// Place a lockdep tracking guard for `$class` at the current statement
/// when the calling crate's `lockdep` feature is on; expands to nothing
/// otherwise. Use directly before the real lock acquisition:
///
/// ```ignore
/// ntb_net::lockdep_track!(&ntb_net::lockdep::NET_TXRING);
/// let mut st = self.state.lock();
/// ```
#[macro_export]
macro_rules! lockdep_track {
    ($class:expr) => {
        #[cfg(feature = "lockdep")]
        let _lockdep_guard = $crate::lockdep::track($class);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The graph is process-global; serialize the tests that mutate it.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn increasing_order_records_no_violation() {
        let _s = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        {
            let _a = track(&SHMEM_AMO);
            let _b = track(&SHMEM_HEAP);
            let _c = track(&NET_TXRING);
        }
        assert!(take_violations().is_empty());
        assert!(find_cycle().is_none());
        assert!(edges().contains(&("shmem-amo", "shmem-heap")));
    }

    #[test]
    fn inverted_order_is_a_violation() {
        let _s = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        {
            let _hi = track(&NET_TXRING);
            let _lo = track(&NET_FORWARD);
        }
        let v = take_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("net-forward") && v[0].contains("net-txring"), "{v:?}");
    }

    #[test]
    fn ab_ba_from_two_threads_is_a_cycle() {
        let _s = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        // Thread 1: A then B. Thread 2: B then A. Sequential joins — the
        // classes are tracking tokens, not real locks, so no deadlock.
        let t1 = std::thread::spawn(|| {
            let _a = track(&NET_PENDING_SHARD);
            let _b = track(&NET_UNACKED_SHARD);
        });
        let _ = t1.join();
        let t2 = std::thread::spawn(|| {
            let _b = track(&NET_UNACKED_SHARD);
            let _a = track(&NET_PENDING_SHARD);
        });
        let _ = t2.join();
        // Thread 2 broke rank locally...
        assert!(!take_violations().is_empty());
        // ...and the combined graph holds the A→B→A cycle.
        let cycle = find_cycle().expect("cycle must be found");
        assert!(
            cycle.contains(&"net-pending-shard") && cycle.contains(&"net-unacked-shard"),
            "{cycle:?}"
        );
    }

    #[test]
    fn released_guard_unpins_the_hierarchy() {
        let _s = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        {
            let _hi = track(&NET_ADMIN);
        }
        // NET_ADMIN released; a low-rank acquisition is clean again.
        let _lo = track(&SHMEM_AMO);
        drop(_lo);
        assert!(take_violations().is_empty());
    }

    #[test]
    fn out_of_order_drop_is_tolerated() {
        let _s = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        let a = track(&SHMEM_HEAP);
        let b = track(&NET_DEDUP);
        drop(a); // drop the older guard first
        let _c = track(&NET_FORWARD); // top of stack is NET_DEDUP (50) < 70
        drop(b);
        assert!(take_violations().is_empty(), "{:?}", take_violations());
    }
}
