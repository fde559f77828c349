//! The declared lock hierarchy (`LOCK_ORDER`) and the site-classification
//! table (`LOCK_SITES`).
//!
//! Every `Mutex`/`RwLock` acquisition site in the workspace's non-test code
//! must be classified here (or the locks rule reports it). Classes carry an
//! integer rank; a thread must acquire locks in strictly increasing rank
//! order. The same table is mirrored at runtime by `ntb_net::lockdep` —
//! the static pass declares the order, lockdep proves the code obeys it.
//!
//! Rank rationale (see DESIGN.md §11 for the full diagram):
//!
//! - Ranks grow "outside-in → inside-out": SHMEM-layer locks rank lowest
//!   because a SHMEM call holds them while descending into ntb-net, and
//!   ntb-net locks rank below ntb-sim locks because the network layer holds
//!   its own state while driving the simulated hardware (the transmit
//!   ring's `state` is held across the slot-publish → doorbell-ring
//!   sequence, the paper's Fig. 5 ordered dance).
//! - Observability sinks (`obs`, trace event buffers) rank highest: any
//!   layer may emit an event while holding its own lock, so the sink must
//!   always be acquirable last.
//! - `lockdep-internal` sits above everything — the runtime checker's own
//!   bookkeeping lock is taken inside `track()` while the caller may hold
//!   arbitrary tracked locks.

/// One declared lock class.
#[derive(Debug, Clone, Copy)]
pub struct LockClassDecl {
    /// Stable class name (shared with `ntb_net::lockdep`).
    pub name: &'static str,
    /// Hierarchy rank; acquisitions must be strictly increasing per thread.
    pub rank: u32,
    /// Human rationale, surfaced in `--print-order`.
    pub rationale: &'static str,
}

/// The lock hierarchy, lowest rank (acquired first / outermost) first.
pub const LOCK_ORDER: &[LockClassDecl] = &[
    LockClassDecl {
        name: "bench-serial",
        rank: 1,
        rationale: "benchmark serialization guard; held across a whole bench run, so it must sit below every runtime lock",
    },
    LockClassDecl {
        name: "shmem-amo",
        rank: 10,
        rationale: "symmetric-heap AMO atomicity guard; held across heap read+write+version-bump",
    },
    LockClassDecl {
        name: "shmem-heap",
        rank: 20,
        rationale: "symmetric-heap allocator state; taken under shmem-amo by local_atomic",
    },
    LockClassDecl {
        name: "shmem-version",
        rank: 30,
        rationale: "heap mutation-version counter + condvar; bumped after heap writes, waited on by wait_until",
    },
    LockClassDecl {
        name: "net-delivery",
        rank: 40,
        rationale: "per-node delivery target (RwLock); read on every inbound frame",
    },
    LockClassDecl {
        name: "net-dedup",
        rank: 50,
        rationale: "seen-puts / AMO replay caches; consulted by the service thread which may then forward or emit",
    },
    LockClassDecl {
        name: "net-membership",
        rank: 55,
        rationale: "ring membership view (heartbeat failure detector + gossip); the transmit path pins a read guard across the send to linearize against death declarations, so it ranks below the pending/unacked shards and the txring lock",
    },
    LockClassDecl {
        name: "net-pending-shard",
        rank: 60,
        rationale: "one shard of the pending get/AMO completion map; fill_with emits trace events while holding it; shards are never nested with each other",
    },
    LockClassDecl {
        name: "net-unacked-shard",
        rank: 64,
        rationale: "one shard of the unacked-put retry ledger; distinct from pending shards so ack/sweeper interleavings stay cycle-free",
    },
    LockClassDecl {
        name: "net-forward",
        rank: 70,
        rationale: "forwarder job queue; fed by the service thread while it still holds dedup state",
    },
    LockClassDecl {
        name: "net-retry-budget",
        rank: 72,
        rationale: "per-link retransmission token bucket; a leaf held only across the refill arithmetic, ranked above the forward queue because the sweeper meters retries after probing queue depth",
    },
    LockClassDecl {
        name: "net-txring",
        rank: 78,
        rationale: "transmit-ring publish state; held across slot publish -> DMA chain -> coalesced doorbell (paper Fig. 5), so it must rank below every sim-side lock; the forwarder flushes the ring while holding its queue lock",
    },
    LockClassDecl {
        name: "net-admin",
        rank: 90,
        rationale: "node thread registry + error sink; stop() holds it while shutting down sim ports",
    },
    LockClassDecl {
        name: "sim-doorbell",
        rank: 100,
        rationale: "doorbell pending/mask bits; rung by the transmit ring while net-txring is held",
    },
    LockClassDecl {
        name: "sim-dma-queue",
        rank: 102,
        rationale: "DMA job queue; fed under net-txring, drained by DMA workers",
    },
    LockClassDecl {
        name: "sim-dma-state",
        rank: 104,
        rationale: "per-transfer completion state; workers complete a job after releasing the queue",
    },
    LockClassDecl {
        name: "sim-dma-admin",
        rank: 106,
        rationale: "DMA worker-handle registry; shutdown drains the queue before joining",
    },
    LockClassDecl {
        name: "sim-config",
        rank: 108,
        rationale: "PCI config-space command/BAR registers; never nested with each other",
    },
    LockClassDecl {
        name: "sim-bar",
        rank: 110,
        rationale: "BAR translation-window table (RwLock)",
    },
    LockClassDecl {
        name: "sim-timing",
        rank: 112,
        rationale: "link timing model busy-until state",
    },
    LockClassDecl {
        name: "sim-fault",
        rank: 114,
        rationale: "fault-injection link-down state; consulted deep inside port TX paths",
    },
    LockClassDecl {
        name: "sim-aperture",
        rank: 116,
        rationale: "peer read-aperture publication cell; a leaf held only across publish/clear/clone, consulted by the requester's get fast path before any frame is built",
    },
    LockClassDecl {
        name: "obs",
        rank: 120,
        rationale: "trace / observability event sinks; any layer may emit while holding its own lock, so the sink is always acquired last",
    },
    LockClassDecl {
        name: "lockdep-internal",
        rank: 130,
        rationale: "runtime lockdep bookkeeping; taken inside track() while the caller holds arbitrary tracked locks",
    },
];

/// One classified acquisition site: (path suffix, receiver identifier)
/// maps to a class name from [`LOCK_ORDER`].
#[derive(Debug, Clone, Copy)]
pub struct LockSite {
    /// Path suffix matched against the scanned file (uses `/` separators).
    pub file_suffix: &'static str,
    /// Identifier immediately preceding the `.lock()` / `.read()` /
    /// `.write()` call (a field or binding name).
    pub receiver: &'static str,
    /// Class name.
    pub class: &'static str,
}

/// Classification of every known acquisition site, by file and receiver.
pub const LOCK_SITES: &[LockSite] = &[
    // shmem-bench
    LockSite { file_suffix: "shmem-bench/src/lib.rs", receiver: "LOCK", class: "bench-serial" },
    // shmem-core
    LockSite { file_suffix: "shmem-core/src/heap.rs", receiver: "amo_lock", class: "shmem-amo" },
    LockSite { file_suffix: "shmem-core/src/heap.rs", receiver: "inner", class: "shmem-heap" },
    LockSite { file_suffix: "shmem-core/src/heap.rs", receiver: "version", class: "shmem-version" },
    // ntb-net
    LockSite { file_suffix: "ntb-net/src/node.rs", receiver: "delivery", class: "net-delivery" },
    LockSite { file_suffix: "ntb-net/src/node.rs", receiver: "seen_puts", class: "net-dedup" },
    LockSite { file_suffix: "ntb-net/src/node.rs", receiver: "amo_cache", class: "net-dedup" },
    LockSite { file_suffix: "ntb-net/src/node.rs", receiver: "threads", class: "net-admin" },
    LockSite { file_suffix: "ntb-net/src/node.rs", receiver: "errors", class: "net-admin" },
    LockSite { file_suffix: "ntb-net/src/node.rs", receiver: "sweeper_lock", class: "net-admin" },
    LockSite {
        file_suffix: "ntb-net/src/service.rs",
        receiver: "sweeper_lock",
        class: "net-admin",
    },
    LockSite { file_suffix: "ntb-net/src/service.rs", receiver: "seen_puts", class: "net-dedup" },
    LockSite { file_suffix: "ntb-net/src/service.rs", receiver: "amo_cache", class: "net-dedup" },
    LockSite {
        file_suffix: "ntb-net/src/membership.rs",
        receiver: "state",
        class: "net-membership",
    },
    // `Membership::read()/write()` wrap `state` with lockdep tracking;
    // accessor methods call them as `self.read()` / `self.write()`.
    LockSite {
        file_suffix: "ntb-net/src/membership.rs",
        receiver: "self",
        class: "net-membership",
    },
    LockSite {
        file_suffix: "ntb-net/src/pending.rs",
        receiver: "inner",
        class: "net-pending-shard",
    },
    LockSite {
        file_suffix: "ntb-net/src/pending.rs",
        receiver: "state",
        class: "net-unacked-shard",
    },
    LockSite { file_suffix: "ntb-net/src/forwarder.rs", receiver: "state", class: "net-forward" },
    LockSite { file_suffix: "ntb-net/src/credit.rs", receiver: "state", class: "net-retry-budget" },
    LockSite { file_suffix: "ntb-net/src/network.rs", receiver: "chaos", class: "net-admin" },
    LockSite { file_suffix: "ntb-net/src/slots.rs", receiver: "state", class: "net-txring" },
    LockSite {
        file_suffix: "ntb-net/src/lockdep.rs",
        receiver: "STATE",
        class: "lockdep-internal",
    },
    // ntb-sim
    LockSite { file_suffix: "ntb-sim/src/doorbell.rs", receiver: "state", class: "sim-doorbell" },
    LockSite { file_suffix: "ntb-sim/src/dma.rs", receiver: "queue", class: "sim-dma-queue" },
    LockSite { file_suffix: "ntb-sim/src/dma.rs", receiver: "state", class: "sim-dma-state" },
    LockSite { file_suffix: "ntb-sim/src/dma.rs", receiver: "workers", class: "sim-dma-admin" },
    LockSite {
        file_suffix: "ntb-sim/src/config_space.rs",
        receiver: "command",
        class: "sim-config",
    },
    LockSite { file_suffix: "ntb-sim/src/config_space.rs", receiver: "bars", class: "sim-config" },
    LockSite { file_suffix: "ntb-sim/src/bar.rs", receiver: "entries", class: "sim-bar" },
    LockSite {
        file_suffix: "ntb-sim/src/timing.rs",
        receiver: "tx_busy_until",
        class: "sim-timing",
    },
    LockSite { file_suffix: "ntb-sim/src/timing.rs", receiver: "inner", class: "sim-timing" },
    LockSite { file_suffix: "ntb-sim/src/fault.rs", receiver: "down", class: "sim-fault" },
    LockSite { file_suffix: "ntb-sim/src/aperture.rs", receiver: "target", class: "sim-aperture" },
    LockSite { file_suffix: "ntb-sim/src/obs.rs", receiver: "ring", class: "obs" },
    LockSite { file_suffix: "ntb-sim/src/obs.rs", receiver: "r", class: "obs" },
    // Lint self-test fixtures (single-file mode).
    LockSite { file_suffix: "fixtures/locks_pass.rs", receiver: "low", class: "shmem-amo" },
    LockSite { file_suffix: "fixtures/locks_pass.rs", receiver: "high", class: "obs" },
    LockSite { file_suffix: "fixtures/locks_fail_order.rs", receiver: "low", class: "shmem-amo" },
    LockSite { file_suffix: "fixtures/locks_fail_order.rs", receiver: "high", class: "obs" },
];

/// Look up a class declaration by name.
pub fn class_by_name(name: &str) -> Option<&'static LockClassDecl> {
    LOCK_ORDER.iter().find(|c| c.name == name)
}

/// Classify a lock site, preferring the longest matching file suffix.
pub fn classify(file: &str, receiver: &str) -> Option<&'static LockClassDecl> {
    let norm = file.replace('\\', "/");
    LOCK_SITES
        .iter()
        .filter(|s| norm.ends_with(s.file_suffix) && s.receiver == receiver)
        .map(|s| s.class)
        .next()
        .and_then(class_by_name)
}

// ---------------------------------------------------------------------------
// Protocol-discipline tables (resolution pairing, deadline clipping,
// bounded waits, typed-error discipline). See DESIGN.md §16.
// ---------------------------------------------------------------------------

/// One acquire→resolution lifecycle pairing.
///
/// An *acquire* is either a trace-event emit (`obs.emit(EventKind::<X>, ..)`)
/// or a classified protocol-table call (`pending.register(..)`), matched by
/// [`EventPair::acquire_event`] / [`CallPair`]. Every control-flow exit of a
/// function containing an acquire must pass a *resolution* — one of
/// [`EventPair::resolve_events`] emitted, or one of
/// [`EventPair::resolve_calls`] invoked (directly or via a one-level local
/// call) — or carry a `// RESOLVES(<event>): why` annotation.
#[derive(Debug, Clone, Copy)]
pub struct EventPair {
    /// The acquire-side `EventKind` variant.
    pub acquire_event: &'static str,
    /// `EventKind` variants whose emit resolves the acquire.
    pub resolve_events: &'static [&'static str],
    /// Method/function names whose call resolves the acquire (e.g. the
    /// pending-table fail path that emits the abandon internally).
    pub resolve_calls: &'static [&'static str],
}

/// Lifecycle event pairs, straight from the checker's runtime invariants
/// (put resolved exactly-once, AMO exactly-once, get-resolution, credit
/// conservation) — the lint makes invariants 1/2/9/11 *static*.
pub const EVENT_PAIRS: &[EventPair] = &[
    EventPair {
        acquire_event: "PutIssue",
        resolve_events: &["PutAcked", "PutAbandon"],
        resolve_calls: &["ack_with", "fail", "fail_expired", "fail_dest", "fail_ops_to"],
    },
    EventPair {
        acquire_event: "GetReqTx",
        resolve_events: &["GetDone", "GetAbandon"],
        resolve_calls: &["abandon", "fail_dest", "fail_ops_to", "wait_with_retry_until"],
    },
    EventPair {
        acquire_event: "AmoReqTx",
        resolve_events: &["AmoDone", "AmoAbandon"],
        resolve_calls: &["abandon", "fail_dest", "fail_ops_to", "wait_with_retry_until"],
    },
    EventPair {
        acquire_event: "CreditConsume",
        resolve_events: &["CreditGrant"],
        resolve_calls: &["refund"],
    },
];

/// A resolution event that another thread waits on, and the table calls
/// that publish it (rule `emit-before-publish`): the event must be
/// emitted inside the observer closure one of `publishers` runs under its
/// table lock.
#[derive(Debug, Clone, Copy)]
pub struct PublishedResolution {
    /// The resolution `EventKind` variant.
    pub event: &'static str,
    /// Calls whose argument list (the observer closure) may emit it.
    pub publishers: &'static [&'static str],
}

/// Resolutions a blocked requester can observe: puts (`quiet` on the
/// unacked table), get chunks and AMO responses (the pending table's
/// waits).
pub const PUBLISHED_RESOLUTIONS: &[PublishedResolution] = &[
    PublishedResolution { event: "PutAcked", publishers: &["ack_with"] },
    PublishedResolution {
        event: "PutAbandon",
        publishers: &["ack_with", "fail", "fail_expired", "fail_dest"],
    },
    PublishedResolution { event: "GetChunkRx", publishers: &["fill_with"] },
    PublishedResolution { event: "AmoDone", publishers: &["fill_with"] },
];

/// One classified protocol-table acquire call: `<receiver>.<method>(..)`
/// inserts an entry that must later be resolved by one of `resolutions`.
#[derive(Debug, Clone, Copy)]
pub struct CallPair {
    /// Identifier immediately preceding the `.` (field/binding name).
    pub receiver: &'static str,
    /// The acquiring method.
    pub method: &'static str,
    /// Display name used in findings and `RESOLVES(..)` annotations.
    pub event: &'static str,
    /// Method names that resolve the entry.
    pub resolutions: &'static [&'static str],
}

/// Pending-table insert→resolve pairings (the PR 2 `PutAbandon`-after-ack
/// and PR 6 `fail_expired` shed-without-resolve bugs were both failures of
/// exactly these disciplines).
pub const CALL_PAIRS: &[CallPair] = &[
    CallPair {
        receiver: "pending",
        method: "register",
        event: "pending.register",
        resolutions: &[
            "wait",
            "wait_with_retry",
            "wait_with_retry_until",
            "abandon",
            "fail_dest",
            "fail_ops_to",
            "reset",
        ],
    },
    CallPair {
        receiver: "unacked",
        method: "register",
        event: "unacked.register",
        resolutions: &[
            "ack_with",
            "fail",
            "fail_expired",
            "fail_dest",
            "fail_ops_to",
            "quiet",
            "reset",
        ],
    },
];

/// Blocking-wait primitives whose timeout argument must be derived from a
/// deadline-clipped expression (rule `deadline-clip`). Matched as a
/// method/function call name.
pub const WAIT_PRIMITIVES: &[&str] = &[
    "recv_timeout",
    "wait_timeout",
    "park_timeout",
    "wait_until",
    "wait_and_clear",
    "wait_doorbell",
    "wait_change",
    "wait_for",
    "spin_for",
    "sleep",
];

/// Identifier substrings that mark a timeout expression as deadline-derived.
/// Deliberately does *not* include bare `timeout` — the PR 6/7 defect class
/// was exactly "used a policy timeout constant instead of clipping to the
/// op deadline".
pub const DEADLINE_IDENTS: &[&str] =
    &["deadline", "until", "remaining", "remain", "expiry", "expires", "clip"];

/// Wait/spin call names that make a `loop`/`while` a *waiting* loop for
/// rule `bounded-wait`.
pub const LOOP_WAIT_CALLS: &[&str] = &[
    "sleep",
    "yield_now",
    "spin_loop",
    "park",
    "park_timeout",
    "spin_for",
    "wait",
    "wait_until",
    "wait_change",
    "wait_for",
    "wait_and_clear",
    "wait_doorbell",
    "recv",
    "recv_timeout",
];

/// Identifier substrings that count as a bound inside a waiting loop:
/// a deadline check, a retry-budget decrement, a shutdown/stop flag.
/// Deliberately does *not* include `attempt` — an attempt counter that only
/// drives backoff (never exits) is not a bound (`set_lock` spins forever by
/// OpenSHMEM semantics and must say so with `// BOUNDED-BY:`).
pub const BOUND_MARKERS: &[&str] = &[
    "deadline",
    "until",
    "remaining",
    "expired",
    "expire",
    "timeout",
    "retries",
    "retry",
    "budget",
    "shutdown",
    "stop",
    "abort",
    "elapsed",
    "max_",
    "is_dead",
    "dead",
    "give_up",
];

/// Failure variants of the typed error ladder whose *construction* must
/// co-occur with pending-entry resolution (rule `typed-error`). These are
/// the variants that mean "an in-flight op is being failed" — constructing
/// one while leaving the pending/unacked entry live is the PR 6
/// `fail_expired` bug shape.
pub const FAIL_VARIANTS: &[&str] = &["LinkFailed", "DeadlineExceeded", "Overloaded", "PeFailed"];

/// Error enums whose variants rule `typed-error` inspects.
pub const ERROR_ENUMS: &[&str] = &["NtbError", "ShmemError"];

/// Method names that resolve protocol state for rule `typed-error`
/// (union of the pairing resolutions plus generic drain/cleanup verbs).
pub const RESOLVER_CALLS: &[&str] = &[
    "abandon",
    "abandon_unless_done",
    "fail",
    "fail_expired",
    "fail_dest",
    "fail_ops_to",
    "ack_with",
    "quiet",
    "wait_with_retry_until",
    "wait_with_retry",
    "drain",
    "take",
    "remove",
    "reset",
    "clear",
    "refund",
];

/// Rule ids in *descending* precedence order, used to dedupe findings when
/// several rules fire on the same line (satellite: CI output readability).
/// Protocol-discipline rules outrank hygiene rules: if a line both leaks a
/// pending entry and calls `.unwrap()`, the leak is the story.
pub const RULE_PRECEDENCE: &[&str] = &[
    "resolution",
    "emit-before-publish",
    "deadline-clip",
    "bounded-wait",
    "typed-error",
    "counter-via-emit",
    "locks",
    "lockdep-sync",
    "safety",
    "atomics",
    "unwraps",
];

/// The event counters: every field of `ntb_sim::LinkMetrics`, in
/// declaration order (rule `counter-via-emit`; the fixture suite checks
/// the list against the struct).
pub const COUNTER_FIELDS: &[&str] = &[
    "frames_tx",
    "frames_rx",
    "retransmits",
    "reroutes",
    "crc_rejects",
    "router_drops",
    "deadline_sheds",
    "overload_sheds",
    "retry_sheds",
    "slot_full_waits",
    "forwards",
    "puts_delivered",
    "gets_served",
    "acks_received",
    "amos_served",
    "duplicates_suppressed",
    "probes_sent",
    "link_down_events",
    "slot_skips",
    "slot_release_misses",
];

/// The one file allowed to write an event counter: `Obs::emit` there
/// bumps the counter its event kind maps to.
pub const COUNTER_HOME: &str = "ntb-sim/src/obs.rs";

/// Atomic methods that write (rule `counter-via-emit`).
pub const ATOMIC_WRITES: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Precedence index of a rule id (lower = higher precedence; unknown last).
pub fn rule_precedence(rule: &str) -> usize {
    RULE_PRECEDENCE.iter().position(|r| *r == rule).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_strictly_increase() {
        for w in LOCK_ORDER.windows(2) {
            assert!(w[0].rank < w[1].rank, "{} vs {}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn every_site_class_is_declared() {
        for s in LOCK_SITES {
            assert!(
                class_by_name(s.class).is_some(),
                "undeclared class {} for {}",
                s.class,
                s.receiver
            );
        }
    }

    #[test]
    fn classify_by_suffix() {
        let c = classify("crates/shmem-core/src/heap.rs", "amo_lock").unwrap();
        assert_eq!(c.name, "shmem-amo");
        assert!(classify("crates/shmem-core/src/heap.rs", "nonesuch").is_none());
    }

    #[test]
    fn every_event_pair_has_resolutions() {
        for p in EVENT_PAIRS {
            assert!(
                !p.resolve_events.is_empty() || !p.resolve_calls.is_empty(),
                "{} has no way to resolve",
                p.acquire_event
            );
        }
        for c in CALL_PAIRS {
            assert!(!c.resolutions.is_empty(), "{} has no way to resolve", c.event);
        }
    }

    #[test]
    fn precedence_is_total_and_unique() {
        for r in RULE_PRECEDENCE {
            assert!(rule_precedence(r) < RULE_PRECEDENCE.len(), "{r} missing from precedence");
        }
        let mut seen = std::collections::HashSet::new();
        for r in RULE_PRECEDENCE {
            assert!(seen.insert(*r), "duplicate rule id {r}");
        }
        assert_eq!(rule_precedence("no-such-rule"), usize::MAX);
    }

    #[test]
    fn timeout_is_not_a_deadline_ident() {
        // "timeout" deliberately does not certify a wait as clipped: a
        // fixed `Duration` named `timeout` is exactly the bug shape the
        // deadline-clip rule exists to catch.
        assert!(!DEADLINE_IDENTS.contains(&"timeout"));
    }
}
