//! Interconnect topology: shapes, neighbours, shortest routes, hop counts.
//!
//! The paper's switchless interconnect is a ring: host *i*'s right adapter
//! is cabled to host *i+1*'s left adapter (mod N). A transfer to a
//! non-neighbour is forwarded hop by hop through intermediate hosts'
//! bypass buffers, so route choice determines both latency and which links
//! carry the traffic.
//!
//! Past the paper's 5 hosts the ring's linear diameter becomes the scaling
//! wall, so the same per-link machinery can now be cabled into other
//! [`Shape`]s: a 2D torus (diameter `rows/2 + cols/2`, constant degree 4)
//! and a fully-cabled clique (diameter 1, degree N−1, adapter-limited to
//! small N). The [`TopoGraph`] answers `neighbors` / `next_hop` / `hops`
//! for any shape from a precomputed BFS distance matrix, and can recompute
//! next hops over the live subgraph to route around dead hosts.

/// Maximum hosts any topology supports; matches the frame format's
/// 6-bit PE id space (`frame::MAX_HOSTS + 1`).
pub const MAX_TOPO_NODES: usize = 64;

/// The cabling pattern of the interconnect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Switchless ring: each host's two NTB adapters are cabled to its
    /// neighbours; non-neighbour traffic is forwarded through bypass
    /// buffers. The paper's contribution.
    #[default]
    Ring,
    /// 2D torus: host `r*cols + c` is cabled to its four row/column
    /// neighbours with wraparound. Keeps the switchless forwarding model
    /// but cuts the diameter from `N/2` to `rows/2 + cols/2`.
    Torus {
        /// Number of rows (wraps vertically).
        rows: usize,
        /// Number of columns (wraps horizontally).
        cols: usize,
    },
    /// Fully-cabled clique: a dedicated NTB link per host pair; every
    /// destination is one hop away, no forwarding. Models the
    /// conventional switched alternative the paper positions itself
    /// against, and is adapter-limited to small host counts.
    Clique,
}

impl Shape {
    /// Human-readable label for bench output and traces.
    pub fn label(&self) -> String {
        match self {
            Shape::Ring => "ring".to_string(),
            Shape::Torus { rows, cols } => format!("torus{rows}x{cols}"),
            Shape::Clique => "clique".to_string(),
        }
    }
}

/// How the hosts are interconnected: a [`Shape`] plus the host count the
/// caller declared when building it (validated against `NetConfig::hosts`).
///
/// Build one with [`Topology::ring`], [`Topology::torus`] or
/// [`Topology::clique`] and hand it to `NetConfig::with_topology` or
/// `ShmemConfig::builder().topology(..)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    shape: Shape,
    /// Host count declared at construction; `None` for the default ring,
    /// whose size is implied by `NetConfig::hosts`.
    declared: Option<usize>,
}

impl Default for Topology {
    fn default() -> Topology {
        Topology { shape: Shape::Ring, declared: None }
    }
}

impl Topology {
    /// A switchless ring of `n` hosts.
    pub fn ring(n: usize) -> Topology {
        assert!(
            (1..=MAX_TOPO_NODES).contains(&n),
            "ring size {n} out of range 1..={MAX_TOPO_NODES}"
        );
        Topology { shape: Shape::Ring, declared: Some(n) }
    }

    /// A `rows`×`cols` 2D torus of `rows*cols` hosts.
    pub fn torus(rows: usize, cols: usize) -> Topology {
        assert!(rows >= 1 && cols >= 1, "torus dimensions must be >= 1 ({rows}x{cols})");
        assert!(
            rows * cols <= MAX_TOPO_NODES,
            "torus {rows}x{cols} exceeds {MAX_TOPO_NODES} hosts"
        );
        Topology { shape: Shape::Torus { rows, cols }, declared: Some(rows * cols) }
    }

    /// A fully-cabled clique of `n` hosts (adapter-limited; `NetConfig`
    /// validation caps it at 16).
    pub fn clique(n: usize) -> Topology {
        assert!(
            (1..=MAX_TOPO_NODES).contains(&n),
            "clique size {n} out of range 1..={MAX_TOPO_NODES}"
        );
        Topology { shape: Shape::Clique, declared: Some(n) }
    }

    /// The cabling pattern.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Host count declared at construction, if any. A torus always knows
    /// its size; the default ring never does.
    pub fn declared_hosts(&self) -> Option<usize> {
        match self.shape {
            Shape::Torus { rows, cols } => Some(rows * cols),
            _ => self.declared,
        }
    }

    /// Human-readable label for bench output and traces.
    pub fn label(&self) -> String {
        self.shape.label()
    }
}

/// Which way around the ring a transfer leaves a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteDirection {
    /// Towards host `(me + 1) % n`.
    Right,
    /// Towards host `(me + n - 1) % n`.
    Left,
}

impl RouteDirection {
    /// The opposite way around.
    pub fn opposite(self) -> RouteDirection {
        match self {
            RouteDirection::Right => RouteDirection::Left,
            RouteDirection::Left => RouteDirection::Right,
        }
    }
}

/// Shortest-path direction from `me` to `dest` on a ring of `n` hosts.
/// Ties (exactly opposite host on an even ring) go right, which keeps the
/// choice deterministic.
///
/// # Panics
/// Panics if `me == dest` (no route needed) or either id is out of range.
pub fn route(me: usize, dest: usize, n: usize) -> RouteDirection {
    assert!(n >= 2, "routing needs at least two hosts");
    assert!(me < n && dest < n, "host ids must be < n");
    assert_ne!(me, dest, "no route from a host to itself");
    let rightward = (dest + n - me) % n;
    if rightward <= n - rightward {
        RouteDirection::Right
    } else {
        RouteDirection::Left
    }
}

/// Number of link hops on the shortest path between `me` and `dest` on a
/// ring of `n` hosts.
pub fn hop_count(me: usize, dest: usize, n: usize) -> usize {
    assert!(n >= 1, "empty ring");
    assert!(me < n && dest < n, "host ids must be < n");
    let rightward = (dest + n - me) % n;
    rightward.min(n - rightward)
}

/// A ring of `n` hosts seen from one member. Still used by the ring-sweep
/// barrier doorbells and the left/right adapter bookkeeping; shape-generic
/// routing lives in [`TopoGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingTopology {
    /// This host's id.
    pub me: usize,
    /// Total hosts in the ring.
    pub n: usize,
}

impl RingTopology {
    /// Construct; panics if `me >= n`.
    pub fn new(me: usize, n: usize) -> Self {
        assert!(n >= 1 && me < n, "invalid topology (me={me}, n={n})");
        RingTopology { me, n }
    }

    /// Right neighbour's id.
    pub fn right(&self) -> usize {
        (self.me + 1) % self.n
    }

    /// Left neighbour's id.
    pub fn left(&self) -> usize {
        (self.me + self.n - 1) % self.n
    }

    /// Whether `dest` is directly cabled to this host.
    pub fn is_neighbor(&self, dest: usize) -> bool {
        self.n >= 2 && (dest == self.left() || dest == self.right())
    }

    /// Shortest direction towards `dest`.
    pub fn route_to(&self, dest: usize) -> RouteDirection {
        route(self.me, dest, self.n)
    }

    /// Hop count to `dest`.
    pub fn hops_to(&self, dest: usize) -> usize {
        hop_count(self.me, dest, self.n)
    }

    /// The next host on the shortest path to `dest`.
    pub fn next_hop(&self, dest: usize) -> usize {
        match self.route_to(dest) {
            RouteDirection::Right => self.right(),
            RouteDirection::Left => self.left(),
        }
    }
}

/// Sentinel for "unreachable" in the distance matrices.
const UNREACHED: u8 = u8::MAX;

/// The whole interconnect as a graph: deduplicated adjacency lists, a BFS
/// all-pairs distance matrix and a precomputed next-hop table.
///
/// Every host builds the same graph from `(shape, n)`, so the origin of a
/// transfer and every forwarding hop agree on the route: `next_hop` picks,
/// among the neighbours that strictly shrink the remaining distance, the
/// one with the smallest clockwise offset `(nb + n - me) % n`. On an even
/// ring that reproduces the paper's "ties go right" rule, and the strict
/// distance decrease makes loops and two-hop ping-pongs impossible by
/// construction.
#[derive(Debug, Clone)]
pub struct TopoGraph {
    n: usize,
    shape: Shape,
    adj: Vec<Vec<usize>>,
    /// `dist[me * n + dest]`, hops on the shortest path.
    dist: Vec<u8>,
    /// `next[me * n + dest]`, first hop of the shortest path
    /// (`next[me*n+me] == me`).
    next: Vec<u8>,
}

impl TopoGraph {
    /// Build the graph for `n` hosts cabled as `shape`.
    ///
    /// # Panics
    /// Panics if `n` is out of `1..=MAX_TOPO_NODES` or a torus shape
    /// disagrees with `n`.
    pub fn new(shape: Shape, n: usize) -> TopoGraph {
        assert!(
            (1..=MAX_TOPO_NODES).contains(&n),
            "topology size {n} out of range 1..={MAX_TOPO_NODES}"
        );
        if let Shape::Torus { rows, cols } = shape {
            assert_eq!(rows * cols, n, "torus {rows}x{cols} does not cover {n} hosts");
        }
        let adj = build_adjacency(shape, n);
        let mut dist = vec![UNREACHED; n * n];
        for src in 0..n {
            bfs(&adj, src, |_| true, &mut dist[src * n..(src + 1) * n]);
        }
        let mut next = vec![UNREACHED; n * n];
        for me in 0..n {
            for dest in 0..n {
                if me == dest {
                    next[me * n + dest] = me as u8;
                    continue;
                }
                let d = &dist[dest * n..(dest + 1) * n];
                let hop = best_hop(&adj[me], me, n, |nb| d[nb]);
                // lint: unwrap-ok(every shape built here is connected, so a
                // neighbour on a shortest path always exists)
                next[me * n + dest] = hop.unwrap() as u8;
            }
        }
        TopoGraph { n, shape, adj, dist, next }
    }

    /// Number of hosts.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The cabling pattern.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Hosts directly cabled to `me`, ascending, deduplicated.
    pub fn neighbors(&self, me: usize) -> &[usize] {
        &self.adj[me]
    }

    /// Hops on the shortest path from `me` to `dest` (0 for `me == dest`).
    pub fn hops(&self, me: usize, dest: usize) -> usize {
        self.dist[me * self.n + dest] as usize
    }

    /// Longest shortest path in the graph.
    pub fn diameter(&self) -> usize {
        self.dist.iter().map(|&d| d as usize).max().unwrap_or(0)
    }

    /// First hop of the deterministic shortest path from `me` to `dest`
    /// (`me` itself when `me == dest`). Identical at the origin and at
    /// every forwarding hop.
    pub fn next_hop(&self, me: usize, dest: usize) -> usize {
        self.next[me * self.n + dest] as usize
    }

    /// First hop of the shortest path from `me` to `dest` through live
    /// hosts only, restricted to first hops `first_hop_ok` accepts (split
    /// horizon, down adapters). `dest` itself is always treated as
    /// reachable — whether it is alive is the caller's concern. `None`
    /// when no such path exists.
    pub fn next_hop_live(
        &self,
        me: usize,
        dest: usize,
        mut first_hop_ok: impl FnMut(usize) -> bool,
        mut is_live: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        if me == dest {
            return Some(me);
        }
        // BFS from dest over the live subgraph gives each candidate first
        // hop its remaining live distance; n <= 64 keeps this on the stack.
        // `me` is excluded so no candidate's path doubles back through the
        // origin.
        let mut dist = [UNREACHED; MAX_TOPO_NODES];
        bfs(
            &self.adj,
            dest,
            |node| node != me && (node == dest || is_live(node)),
            &mut dist[..self.n],
        );
        best_hop(&self.adj[me], me, self.n, |nb| {
            if !first_hop_ok(nb) || (nb != dest && !is_live(nb)) {
                UNREACHED
            } else {
                dist[nb]
            }
        })
    }

    /// Whether the deterministic static route from `from` to `dest` passes
    /// only through live intermediate hosts (`from` included, `dest`
    /// excluded — the destination's liveness is the caller's concern).
    pub fn static_path_clear(
        &self,
        from: usize,
        dest: usize,
        mut is_live: impl FnMut(usize) -> bool,
    ) -> bool {
        let mut hop = from;
        while hop != dest {
            if !is_live(hop) {
                return false;
            }
            hop = self.next_hop(hop, dest);
        }
        true
    }

    /// Every cable in deterministic build order, as `(i, j)` host pairs.
    /// The ring keeps the paper's `i → (i+1) % n` order (two parallel
    /// cables for a 2-host ring); other shapes list each unordered
    /// adjacent pair once, ascending.
    pub fn links(&self) -> Vec<(usize, usize)> {
        match self.shape {
            Shape::Ring if self.n >= 2 => (0..self.n).map(|i| (i, (i + 1) % self.n)).collect(),
            Shape::Ring => Vec::new(),
            _ => {
                let mut links = Vec::new();
                for i in 0..self.n {
                    for &j in &self.adj[i] {
                        if i < j {
                            links.push((i, j));
                        }
                    }
                }
                links
            }
        }
    }
}

/// Deduplicated, ascending adjacency lists for `n` hosts cabled as
/// `shape`. Degenerate dimensions collapse cleanly: a 1×k or k×1 torus is
/// a ring, a 2-wide dimension does not cable the same neighbour twice.
fn build_adjacency(shape: Shape, n: usize) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    match shape {
        Shape::Ring => {
            if n >= 2 {
                for (i, list) in adj.iter_mut().enumerate() {
                    list.push((i + 1) % n);
                    list.push((i + n - 1) % n);
                }
            }
        }
        Shape::Torus { rows, cols } => {
            for r in 0..rows {
                for c in 0..cols {
                    let id = r * cols + c;
                    adj[id].extend([
                        r * cols + (c + 1) % cols,
                        r * cols + (c + cols - 1) % cols,
                        ((r + 1) % rows) * cols + c,
                        ((r + rows - 1) % rows) * cols + c,
                    ]);
                }
            }
        }
        Shape::Clique => {
            for (i, list) in adj.iter_mut().enumerate() {
                list.extend((0..n).filter(|&j| j != i));
            }
        }
    }
    for (i, list) in adj.iter_mut().enumerate() {
        list.sort_unstable();
        list.dedup();
        list.retain(|&j| j != i);
    }
    adj
}

/// Fill `out[node]` with BFS hop counts from `src` over the nodes
/// `admit` accepts (`src` is always admitted).
fn bfs(adj: &[Vec<usize>], src: usize, mut admit: impl FnMut(usize) -> bool, out: &mut [u8]) {
    out.fill(UNREACHED);
    out[src] = 0;
    let mut queue = [0usize; MAX_TOPO_NODES];
    let (mut head, mut tail) = (0, 0);
    queue[tail] = src;
    tail += 1;
    while head < tail {
        let node = queue[head];
        head += 1;
        for &nb in &adj[node] {
            if out[nb] == UNREACHED && admit(nb) {
                out[nb] = out[node] + 1;
                queue[tail] = nb;
                tail += 1;
            }
        }
    }
}

/// Among `neighbors` of `me`, the one minimizing `(remaining distance,
/// clockwise offset from me)`; `None` if none is reachable. The clockwise
/// tie-break reproduces the even-ring "ties go right" rule on every shape
/// and at every hop.
fn best_hop(
    neighbors: &[usize],
    me: usize,
    n: usize,
    mut remaining: impl FnMut(usize) -> u8,
) -> Option<usize> {
    neighbors
        .iter()
        .copied()
        .map(|nb| (remaining(nb), (nb + n - me) % n, nb))
        .filter(|&(d, _, _)| d != UNREACHED)
        .min()
        .map(|(_, _, nb)| nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_on_three_ring() {
        let t = RingTopology::new(0, 3);
        assert_eq!(t.right(), 1);
        assert_eq!(t.left(), 2);
        assert!(t.is_neighbor(1));
        assert!(t.is_neighbor(2));
        assert!(!t.is_neighbor(0));
    }

    #[test]
    fn two_ring_everyone_is_neighbor() {
        let t = RingTopology::new(1, 2);
        assert_eq!(t.right(), 0);
        assert_eq!(t.left(), 0);
        assert!(t.is_neighbor(0));
    }

    #[test]
    fn route_prefers_shortest() {
        // Ring of 5: from 0, dest 1,2 go right; 3,4 go left.
        assert_eq!(route(0, 1, 5), RouteDirection::Right);
        assert_eq!(route(0, 2, 5), RouteDirection::Right);
        assert_eq!(route(0, 3, 5), RouteDirection::Left);
        assert_eq!(route(0, 4, 5), RouteDirection::Left);
    }

    #[test]
    fn route_tie_goes_right() {
        // Ring of 4: dest exactly opposite.
        assert_eq!(route(0, 2, 4), RouteDirection::Right);
        assert_eq!(route(1, 3, 4), RouteDirection::Right);
    }

    #[test]
    fn hop_counts() {
        assert_eq!(hop_count(0, 1, 3), 1);
        assert_eq!(hop_count(0, 2, 3), 1);
        assert_eq!(hop_count(0, 2, 4), 2);
        assert_eq!(hop_count(0, 3, 6), 3);
        assert_eq!(hop_count(0, 4, 6), 2);
        assert_eq!(hop_count(2, 2, 5), 0);
    }

    #[test]
    fn next_hop_walks_towards_dest() {
        let t = RingTopology::new(0, 6);
        assert_eq!(t.next_hop(2), 1);
        assert_eq!(t.next_hop(5), 5);
        assert_eq!(t.next_hop(4), 5);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn route_to_self_panics() {
        route(2, 2, 4);
    }

    #[test]
    fn walking_next_hops_reaches_destination_within_hop_count() {
        let n = 7;
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let mut cur = src;
                let mut steps = 0;
                while cur != dst {
                    cur = RingTopology::new(cur, n).next_hop(dst);
                    steps += 1;
                    assert!(steps <= n, "route loop from {src} to {dst}");
                }
                assert_eq!(steps, hop_count(src, dst, n), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn direction_opposite() {
        assert_eq!(RouteDirection::Right.opposite(), RouteDirection::Left);
        assert_eq!(RouteDirection::Left.opposite(), RouteDirection::Right);
    }

    // -----------------------------------------------------------------
    // Topology construction surface
    // -----------------------------------------------------------------

    #[test]
    fn constructors_declare_their_size() {
        assert_eq!(Topology::ring(5).declared_hosts(), Some(5));
        assert_eq!(Topology::torus(4, 8).declared_hosts(), Some(32));
        assert_eq!(Topology::clique(8).declared_hosts(), Some(8));
        assert_eq!(Topology::default().declared_hosts(), None);
        assert_eq!(Topology::torus(2, 3).shape(), Shape::Torus { rows: 2, cols: 3 });
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_torus_rejected() {
        Topology::torus(8, 9);
    }

    #[test]
    fn labels() {
        assert_eq!(Topology::ring(4).label(), "ring");
        assert_eq!(Topology::torus(4, 4).label(), "torus4x4");
        assert_eq!(Topology::clique(4).label(), "clique");
    }

    // -----------------------------------------------------------------
    // TopoGraph
    // -----------------------------------------------------------------

    fn shapes_under_test() -> Vec<(Shape, usize)> {
        vec![
            (Shape::Ring, 1),
            (Shape::Ring, 2),
            (Shape::Ring, 5),
            (Shape::Ring, 8),
            (Shape::Torus { rows: 2, cols: 2 }, 4),
            (Shape::Torus { rows: 2, cols: 4 }, 8),
            (Shape::Torus { rows: 1, cols: 6 }, 6),
            (Shape::Torus { rows: 4, cols: 4 }, 16),
            (Shape::Torus { rows: 8, cols: 8 }, 64),
            (Shape::Clique, 2),
            (Shape::Clique, 7),
            (Shape::Clique, 16),
        ]
    }

    #[test]
    fn ring_graph_matches_legacy_ring_math() {
        for n in 2..=9 {
            let g = TopoGraph::new(Shape::Ring, n);
            for me in 0..n {
                for dest in 0..n {
                    assert_eq!(g.hops(me, dest), hop_count(me, dest, n), "hops {me}->{dest} n={n}");
                    if me != dest {
                        // The graph tie-break must reproduce the legacy
                        // ties-go-right rule at every hop, not just the
                        // origin — forwarders and origins use the same
                        // table.
                        assert_eq!(
                            g.next_hop(me, dest),
                            RingTopology::new(me, n).next_hop(dest),
                            "next hop {me}->{dest} n={n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn torus_adjacency_has_constant_degree_four() {
        let g = TopoGraph::new(Shape::Torus { rows: 4, cols: 4 }, 16);
        for me in 0..16 {
            assert_eq!(g.neighbors(me).len(), 4, "host {me}");
        }
        // Host 5 = (row 1, col 1): neighbours 4, 6 (row) and 1, 9 (col).
        assert_eq!(g.neighbors(5), &[1, 4, 6, 9]);
        // Corner wraparound: host 0 reaches 3 (row wrap) and 12 (col wrap).
        assert_eq!(g.neighbors(0), &[1, 3, 4, 12]);
    }

    #[test]
    fn degenerate_torus_dims_dedupe() {
        // 2-wide dimensions would cable the same neighbour twice; the
        // adjacency must deduplicate.
        let g = TopoGraph::new(Shape::Torus { rows: 2, cols: 2 }, 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        // A 1-row torus degenerates to a ring.
        let line = TopoGraph::new(Shape::Torus { rows: 1, cols: 5 }, 5);
        for me in 0..5 {
            for dest in 0..5 {
                assert_eq!(line.hops(me, dest), hop_count(me, dest, 5));
            }
        }
    }

    #[test]
    fn torus_diameter_is_sum_of_half_dims() {
        assert_eq!(TopoGraph::new(Shape::Torus { rows: 4, cols: 4 }, 16).diameter(), 4);
        assert_eq!(TopoGraph::new(Shape::Torus { rows: 8, cols: 8 }, 64).diameter(), 8);
        assert_eq!(TopoGraph::new(Shape::Ring, 64).diameter(), 32);
        assert_eq!(TopoGraph::new(Shape::Clique, 16).diameter(), 1);
    }

    /// Satellite audit: no shape can produce a routing loop or a
    /// ping-pong between two hops. Because every hop strictly shrinks the
    /// BFS distance, walking `next_hop` must reach the destination in
    /// exactly `hops` steps without revisiting any host.
    #[test]
    fn no_shape_produces_routing_loops_or_ping_pong() {
        for (shape, n) in shapes_under_test() {
            let g = TopoGraph::new(shape, n);
            for src in 0..n {
                for dst in 0..n {
                    let mut cur = src;
                    let mut steps = 0;
                    let mut visited = vec![false; n];
                    let mut prev = None;
                    while cur != dst {
                        assert!(!visited[cur], "loop at {cur} on {src}->{dst} {shape:?}/{n}");
                        visited[cur] = true;
                        let hop = g.next_hop(cur, dst);
                        assert_ne!(Some(hop), prev, "ping-pong {cur}<->{hop} {shape:?}/{n}");
                        assert!(
                            g.hops(hop, dst) < g.hops(cur, dst),
                            "hop {cur}->{hop} does not shrink distance to {dst} on {shape:?}/{n}"
                        );
                        prev = Some(cur);
                        cur = hop;
                        steps += 1;
                    }
                    assert_eq!(steps, g.hops(src, dst), "{src}->{dst} on {shape:?}/{n}");
                }
            }
        }
    }

    #[test]
    fn live_rerouting_avoids_dead_hosts() {
        // 4x4 torus, kill host 1; 0 -> 2 must route around it.
        let g = TopoGraph::new(Shape::Torus { rows: 4, cols: 4 }, 16);
        assert_eq!(g.next_hop(0, 2), 1);
        let hop = g.next_hop_live(0, 2, |_| true, |pe| pe != 1).expect("alternate path");
        assert_ne!(hop, 1);
        // Walk the live route to completion.
        let mut cur = hop;
        let mut steps = 1;
        while cur != 2 {
            cur = g.next_hop_live(cur, 2, |_| true, |pe| pe != 1).expect("live chain");
            steps += 1;
            assert!(steps <= 16, "live route loop");
        }
        assert!(steps <= 4, "detour unreasonably long: {steps} hops");

        // Excluding the only remaining first hop yields None on a ring.
        let ring = TopoGraph::new(Shape::Ring, 5);
        assert_eq!(ring.next_hop_live(0, 2, |h| h != 1, |pe| pe != 4), None);
    }

    #[test]
    fn static_path_clear_walks_intermediates() {
        let g = TopoGraph::new(Shape::Ring, 6);
        // 0 -> 3 ties right through 1, 2.
        assert!(g.static_path_clear(g.next_hop(0, 3), 3, |pe| pe != 0));
        assert!(!g.static_path_clear(g.next_hop(0, 3), 3, |pe| pe != 2));
        // Destination liveness is the caller's concern.
        assert!(g.static_path_clear(g.next_hop(0, 3), 3, |pe| pe != 3));
    }

    #[test]
    fn links_cover_every_adjacency_once() {
        for (shape, n) in shapes_under_test() {
            let g = TopoGraph::new(shape, n);
            let links = g.links();
            if matches!(shape, Shape::Ring) && n == 2 {
                // The paper's 2-host ring keeps both parallel cables.
                assert_eq!(links, vec![(0, 1), (1, 0)]);
                continue;
            }
            let expected: usize = (0..n).map(|i| g.neighbors(i).len()).sum::<usize>() / 2;
            assert_eq!(links.len(), expected, "{shape:?}/{n}");
            let mut seen = std::collections::HashSet::new();
            for &(i, j) in &links {
                assert!(g.neighbors(i).contains(&j), "uncabled pair ({i},{j}) {shape:?}/{n}");
                assert!(seen.insert((i.min(j), i.max(j))), "duplicate cable {shape:?}/{n}");
            }
        }
    }

    #[test]
    fn ring_links_keep_paper_order() {
        let g = TopoGraph::new(Shape::Ring, 5);
        assert_eq!(g.links(), vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    }
}
