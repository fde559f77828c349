//! Interconnect topology: shapes, cables, adapters and routes.
//!
//! The paper's switchless interconnect is a ring: host *i*'s right adapter
//! is cabled to host *i+1*'s left adapter (mod N). A transfer to a
//! non-neighbour is forwarded hop by hop through intermediate hosts'
//! bypass buffers, so the adapter a frame leaves on is the routing
//! decision: it fixes both latency and which links carry the traffic.
//!
//! Past the paper's 5 hosts the ring's linear diameter becomes the scaling
//! wall, so the same per-link machinery can now be cabled into other
//! [`Shape`]s: a 2D torus (diameter `rows/2 + cols/2`, constant degree 4)
//! and a fully-cabled clique (diameter 1, degree N−1, adapter-limited to
//! small N). [`TopoGraph`] is built once at bring-up and is the one
//! routing model for every shape: each host's [`Adapter`]s, a next-hop
//! table of adapter indices, the ring-neighbour adapters where they exist,
//! and a live-subgraph search that routes around down adapters and dead
//! hosts.

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
        self.declared
    }

    /// Human-readable label for bench output and traces.
    pub fn label(&self) -> String {
        match self.shape {
            Shape::Ring => "ring".to_string(),
            Shape::Torus { rows, cols } => format!("torus{rows}x{cols}"),
            Shape::Clique => "clique".to_string(),
        }
    }
}

/// One of a host's two ring-neighbour adapters, where host *i* is cabled
/// to hosts *i±1* (see [`TopoGraph::ring_adapter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteDirection {
    /// The right adapter (slot 1 on the ring), cabled to host `(me + 1) % n`.
    Right,
    /// The left adapter (slot 0 on the ring), cabled to host `(me + n - 1) % n`.
    Left,
}

/// One NTB adapter of a host, as cabled at bring-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adapter {
    /// The host on the other end of the cable.
    pub neighbor: usize,
    /// The adapter slot on this host.
    pub slot: usize,
    /// Physical link index in cabling order (shared by both ends).
    pub link: usize,
}

/// Sentinel for "unreachable" in the distance matrices (and "no adapter"
/// in the next-hop table).
const UNREACHED: u8 = u8::MAX;

/// The whole interconnect, built once at bring-up and identically by every
/// host from `(shape, n)`: cables, adapters, BFS distances, a next-hop
/// table of adapter indices and the ring-neighbour adapters. The only
/// place that knows the cabling and the routes.
///
/// The next hop is the adapter whose neighbour strictly shrinks the
/// distance, ties to the smallest clockwise offset `(nb + n - me) % n`
/// (the paper's "ties go right" on an even ring), then the lowest link.
/// The strict decrease rules out loops and ping-pongs by construction.
#[derive(Debug, Clone)]
pub struct TopoGraph {
    n: usize,
    /// Every cable in build order, as `(i, j)` host pairs.
    links: Vec<(usize, usize)>,
    /// `adapters[me]`, in cabling order.
    adapters: Vec<Vec<Adapter>>,
    /// `dist[me * n + dest]`, hops on the shortest path.
    dist: Vec<u8>,
    /// `next[me * n + dest]`, the adapter index of the first hop.
    next: Vec<u8>,
    /// `ring[me] = [left, right]` adapter indices; empty unless every host
    /// is cabled to both of its ring neighbours.
    ring: Vec<[usize; 2]>,
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
        let links = cables(shape, n);
        let mut adapters: Vec<Vec<Adapter>> = vec![Vec::new(); n];
        for (link, &(i, j)) in links.iter().enumerate() {
            // The ring's right adapter (slot 1) meets the next host's left
            // adapter (slot 0); other shapes number slots in cabling order
            // (for the clique: the slot towards j is j, or j-1 past self).
            let (slot_i, slot_j) = match shape {
                Shape::Ring => (1, 0),
                _ => (adapters[i].len(), adapters[j].len()),
            };
            adapters[i].push(Adapter { neighbor: j, slot: slot_i, link });
            adapters[j].push(Adapter { neighbor: i, slot: slot_j, link });
        }
        let mut dist = vec![UNREACHED; n * n];
        for src in 0..n {
            bfs(&adapters, src, |_| true, &mut dist[src * n..(src + 1) * n]);
        }
        let mut next = vec![UNREACHED; n * n];
        for me in 0..n {
            for dest in (0..n).filter(|&dest| dest != me) {
                let d = &dist[dest * n..(dest + 1) * n];
                let hop = best_adapter(&adapters[me], me, n, |_, nb| d[nb]);
                // lint: unwrap-ok(every shape built here is connected, so an
                // adapter on a shortest path always exists)
                next[me * n + dest] = hop.unwrap() as u8;
            }
        }
        // The right adapter is the cable laid from this host to i+1, the
        // left one the cable laid from i-1 to this host (on a 2-host ring,
        // the two parallel cables); with one cable per pair, that one.
        let ring_adapter = |me: usize, nb: usize, laid_from_me: bool| {
            let to_nb = adapters[me].iter().enumerate().filter(|(_, a)| a.neighbor == nb);
            to_nb.min_by_key(|(_, a)| (links[a.link].0 == me) != laid_from_me).map(|(idx, _)| idx)
        };
        let ring = (0..n)
            .map(|me| {
                Some([
                    ring_adapter(me, (me + n - 1) % n, false)?,
                    ring_adapter(me, (me + 1) % n, true)?,
                ])
            })
            .collect::<Option<_>>()
            .unwrap_or_default();
        TopoGraph { n, links, adapters, dist, next, ring }
    }

    /// Number of hosts.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Host `me`'s adapters in cabling order; an adapter index is a
    /// position in this list.
    pub fn adapters(&self, me: usize) -> &[Adapter] {
        &self.adapters[me]
    }

    /// Every cable as `(i, j)` host pairs; the position is the physical
    /// link index. The ring keeps the paper's `i → (i+1) % n` order (two
    /// parallel cables for a 2-host ring); other shapes list each adjacent
    /// pair once, ascending.
    pub fn links(&self) -> &[(usize, usize)] {
        &self.links
    }

    /// Hops on the shortest path from `me` to `dest` (0 for `me == dest`).
    pub fn hops(&self, me: usize, dest: usize) -> usize {
        self.dist[me * self.n + dest] as usize
    }

    /// Adapter index of the first hop of the shortest path from `me` to
    /// `dest`, identical at the origin and at every forwarding hop.
    ///
    /// # Panics
    /// Panics when `me == dest`: a frame for this host needs no adapter.
    pub fn next_adapter(&self, me: usize, dest: usize) -> usize {
        assert_ne!(me, dest, "no route from a host to itself");
        usize::from(self.next[me * self.n + dest])
    }

    /// The host the shortest path from `me` to `dest` visits first (`me`
    /// itself when `me == dest`).
    pub fn next_hop(&self, me: usize, dest: usize) -> usize {
        if me == dest {
            return me;
        }
        self.adapters[me][self.next_adapter(me, dest)].neighbor
    }

    /// Adapter index of the first hop of the shortest path from `me` to
    /// `dest` through live hosts only, over the adapters `adapter_ok`
    /// accepts. `dest` itself is always treated as reachable (its
    /// liveness is the caller's concern). Ties break as in
    /// [`Self::next_adapter`], so an excluded adapter falls back first to
    /// another cable to the same next host. `None` when no path exists.
    pub fn next_adapter_live(
        &self,
        me: usize,
        dest: usize,
        mut adapter_ok: impl FnMut(usize) -> bool,
        mut is_live: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        if me == dest {
            return None;
        }
        // BFS from dest over the live subgraph, without `me` so no path
        // doubles back through the origin; n <= 64 keeps it on the stack.
        let mut dist = [UNREACHED; MAX_TOPO_NODES];
        let admit = |node: usize| node != me && (node == dest || is_live(node));
        bfs(&self.adapters, dest, admit, &mut dist[..self.n]);
        best_adapter(&self.adapters[me], me, self.n, |idx, nb| {
            if adapter_ok(idx) {
                dist[nb]
            } else {
                UNREACHED
            }
        })
    }

    /// Whether the static route from `from` to `dest` passes only through
    /// live hosts (`from` included, `dest` excluded).
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

    /// Adapter index of host `me`'s ring neighbour in direction `dir`, or
    /// `None` when the shape does not cable every host to both of its ring
    /// neighbours (a torus). Host *i*'s right adapter and host *i+1*'s left
    /// adapter are the two ends of one cable.
    pub fn ring_adapter(&self, me: usize, dir: RouteDirection) -> Option<usize> {
        let [left, right] = *self.ring.get(me)?;
        Some(if dir == RouteDirection::Left { left } else { right })
    }
}

/// The cables of `n` hosts laid out as `shape`, in link-index order (see
/// [`TopoGraph::links`]); a 1- or 2-wide torus dimension cables no pair
/// twice.
fn cables(shape: Shape, n: usize) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = match shape {
        Shape::Ring if n >= 2 => return (0..n).map(|i| (i, (i + 1) % n)).collect(),
        Shape::Ring => return Vec::new(),
        // Each host's right and down neighbours cover every torus cable.
        Shape::Torus { rows, cols } => (0..n)
            .flat_map(|id| {
                let (r, c) = (id / cols, id % cols);
                [r * cols + (c + 1) % cols, (r + 1) % rows * cols + c]
                    .map(|nb| (id.min(nb), id.max(nb)))
            })
            .filter(|&(i, j)| i != j)
            .collect(),
        Shape::Clique => (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect(),
    };
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Fill `out[node]` with BFS hop counts from `src` over the nodes
/// `admit` accepts (`src` is always admitted).
fn bfs(
    adapters: &[Vec<Adapter>],
    src: usize,
    mut admit: impl FnMut(usize) -> bool,
    out: &mut [u8],
) {
    out.fill(UNREACHED);
    out[src] = 0;
    let mut queue = [0usize; MAX_TOPO_NODES];
    let (mut head, mut tail) = (0, 1);
    queue[0] = src;
    while head < tail {
        let node = queue[head];
        head += 1;
        for nb in adapters[node].iter().map(|a| a.neighbor) {
            if out[nb] == UNREACHED && admit(nb) {
                out[nb] = out[node] + 1;
                queue[tail] = nb;
                tail += 1;
            }
        }
    }
}

/// Among `me`'s `adapters`, the index minimizing `(remaining distance of
/// its neighbour, clockwise offset from me, index)`, skipping unreachable
/// ones; `remaining` gets the adapter index and its neighbour.
fn best_adapter(
    adapters: &[Adapter],
    me: usize,
    n: usize,
    mut remaining: impl FnMut(usize, usize) -> u8,
) -> Option<usize> {
    adapters
        .iter()
        .enumerate()
        .map(|(idx, a)| (remaining(idx, a.neighbor), (a.neighbor + n - me) % n, idx))
        .filter(|&(d, _, _)| d != UNREACHED)
        .min()
        .map(|(_, _, idx)| idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hosts cabled to `me`, ascending, deduplicated.
    fn neighbors(g: &TopoGraph, me: usize) -> Vec<usize> {
        let mut hosts: Vec<usize> = g.adapters(me).iter().map(|a| a.neighbor).collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }

    /// Longest shortest path.
    fn diameter(g: &TopoGraph) -> usize {
        let n = g.num_nodes();
        (0..n * n).map(|k| g.hops(k / n, k % n)).max().unwrap_or(0)
    }

    /// The closed-form ring rule, kept only as an oracle: the next host
    /// from `me` towards `dest` (ties go right) and the hop count.
    fn ring_oracle(me: usize, dest: usize, n: usize) -> (usize, usize) {
        let rightward = (dest + n - me) % n;
        let next = if rightward <= n - rightward { (me + 1) % n } else { (me + n - 1) % n };
        (next, rightward.min(n - rightward))
    }

    /// Closed-form hop count of every shape, independent of the BFS.
    fn oracle_hops(shape: Shape, n: usize, a: usize, b: usize) -> usize {
        let wrap = |x: usize, y: usize, m: usize| {
            let d = (y + m - x) % m;
            d.min(m - d)
        };
        match shape {
            Shape::Ring => ring_oracle(a, b, n).1,
            Shape::Torus { cols, rows } => {
                wrap(a / cols, b / cols, rows) + wrap(a % cols, b % cols, cols)
            }
            Shape::Clique => usize::from(a != b),
        }
    }

    /// The physical link a fault-free route from `me` to `dest` left on
    /// before routes were adapter indices: the next host by shortest
    /// distance, ties to the smallest clockwise offset, then the lowest
    /// link index cabled to that host (the ring's cables run
    /// `i → (i+1) % n`; other shapes cable each adjacent pair once,
    /// ascending).
    fn parent_link(shape: Shape, n: usize, me: usize, dest: usize) -> usize {
        let hops = |a, b| oracle_hops(shape, n, a, b);
        let next = (0..n)
            .filter(|&nb| nb != me && hops(me, nb) == 1)
            .min_by_key(|&nb| (hops(nb, dest), (nb + n - me) % n))
            .expect("a neighbour");
        let cables: Vec<(usize, usize)> = match shape {
            Shape::Ring => (0..n).map(|i| (i, (i + 1) % n)).collect(),
            _ => (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .filter(|&(i, j)| hops(i, j) == 1)
                .collect(),
        };
        cables
            .iter()
            .position(|&(i, j)| (i, j) == (me, next) || (i, j) == (next, me))
            .expect("a cable to the next host")
    }

    #[test]
    fn neighbors_on_three_ring() {
        let g = TopoGraph::new(Shape::Ring, 3);
        assert_eq!(neighbors(&g, 0), &[1, 2]);
        let right = g.ring_adapter(0, RouteDirection::Right).expect("ring adapters");
        let left = g.ring_adapter(0, RouteDirection::Left).expect("ring adapters");
        assert_eq!(g.adapters(0)[right], Adapter { neighbor: 1, slot: 1, link: 0 });
        assert_eq!(g.adapters(0)[left], Adapter { neighbor: 2, slot: 0, link: 2 });
    }

    #[test]
    fn two_ring_has_two_parallel_cables() {
        let g = TopoGraph::new(Shape::Ring, 2);
        assert_eq!(neighbors(&g, 1), &[0]);
        assert_eq!(
            g.adapters(1),
            &[Adapter { neighbor: 0, slot: 0, link: 0 }, Adapter { neighbor: 0, slot: 1, link: 1 }]
        );
        for me in 0..2 {
            let right = g.ring_adapter(me, RouteDirection::Right).unwrap();
            let left = g.ring_adapter(me, RouteDirection::Left).unwrap();
            assert_ne!(right, left, "host {me}: left and right are different cables");
            assert_eq!(g.adapters(me)[right].slot, 1);
            assert_eq!(g.adapters(me)[left].slot, 0);
        }
        // Fault-free data keeps to link 0 both ways.
        assert_eq!(g.adapters(0)[g.next_adapter(0, 1)].link, 0);
        assert_eq!(g.adapters(1)[g.next_adapter(1, 0)].link, 0);
    }

    #[test]
    fn route_prefers_shortest() {
        // Ring of 5: from 0, dest 1,2 go right; 3,4 go left.
        let g = TopoGraph::new(Shape::Ring, 5);
        assert_eq!([1, 2, 3, 4].map(|d| g.next_hop(0, d)), [1, 1, 4, 4]);
    }

    #[test]
    fn route_tie_goes_right() {
        // Ring of 4: dest exactly opposite.
        let g = TopoGraph::new(Shape::Ring, 4);
        assert_eq!(g.next_hop(0, 2), 1);
        assert_eq!(g.next_hop(1, 3), 2);
    }

    #[test]
    fn hop_counts() {
        assert_eq!(TopoGraph::new(Shape::Ring, 3).hops(0, 2), 1);
        assert_eq!(TopoGraph::new(Shape::Ring, 4).hops(0, 2), 2);
        let six = TopoGraph::new(Shape::Ring, 6);
        assert_eq!([six.hops(0, 3), six.hops(0, 4), six.hops(2, 2)], [3, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn route_to_self_panics() {
        TopoGraph::new(Shape::Ring, 4).next_adapter(2, 2);
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
    fn ring_graph_matches_closed_form_ring_rule() {
        for n in 2..=9 {
            let g = TopoGraph::new(Shape::Ring, n);
            for me in 0..n {
                for dest in (0..n).filter(|&d| d != me) {
                    // The graph tie-break must reproduce ties-go-right at
                    // every hop, not just the origin — forwarders and
                    // origins use the same table.
                    let (next, hops) = ring_oracle(me, dest, n);
                    assert_eq!(g.hops(me, dest), hops, "hops {me}->{dest} n={n}");
                    assert_eq!(g.next_hop(me, dest), next, "next hop {me}->{dest} n={n}");
                }
            }
        }
    }

    /// Golden routes: on every shape, a fault-free route leaves on the
    /// physical link it left on when routes named a host — the next host
    /// by the ties-go-right rule, then the lowest link index to it.
    #[test]
    fn fault_free_routes_keep_their_physical_links() {
        for (shape, n) in shapes_under_test() {
            let g = TopoGraph::new(shape, n);
            for src in 0..n {
                for dst in (0..n).filter(|&d| d != src) {
                    assert_eq!(
                        g.adapters(src)[g.next_adapter(src, dst)].link,
                        parent_link(shape, n, src, dst),
                        "{src}->{dst} on {shape:?}/{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn hops_match_the_closed_form_on_every_shape() {
        for (shape, n) in shapes_under_test() {
            let g = TopoGraph::new(shape, n);
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(g.hops(a, b), oracle_hops(shape, n, a, b), "{a}->{b} {shape:?}/{n}");
                }
            }
        }
    }

    #[test]
    fn ring_adapters_pair_up_across_one_cable() {
        for (shape, n) in shapes_under_test() {
            let g = TopoGraph::new(shape, n);
            let cabled = n >= 2 && (0..n).all(|i| neighbors(&g, i).contains(&((i + 1) % n)));
            for me in 0..n {
                let right = g.ring_adapter(me, RouteDirection::Right);
                assert_eq!(right.is_some(), cabled, "{shape:?}/{n}");
                let Some(right) = right else { continue };
                let next = (me + 1) % n;
                let left_of_next = g.ring_adapter(next, RouteDirection::Left).unwrap();
                let (mine, theirs) = (g.adapters(me)[right], g.adapters(next)[left_of_next]);
                assert_eq!(mine.neighbor, next, "{shape:?}/{n}");
                assert_eq!(mine.link, theirs.link, "{me}->{next} on {shape:?}/{n}");
            }
        }
        // A torus cannot sweep: host 1 of a 2x2 torus is not cabled to 2.
        let torus = TopoGraph::new(Shape::Torus { rows: 2, cols: 2 }, 4);
        assert_eq!(torus.ring_adapter(0, RouteDirection::Right), None);
    }

    #[test]
    fn adapters_list_every_cable_end_in_cabling_order() {
        for (shape, n) in shapes_under_test() {
            let g = TopoGraph::new(shape, n);
            for me in 0..n {
                let links: Vec<usize> = g.adapters(me).iter().map(|a| a.link).collect();
                assert!(links.windows(2).all(|w| w[0] < w[1]), "{shape:?}/{n} host {me}");
                for a in g.adapters(me) {
                    let (i, j) = g.links()[a.link];
                    assert!((i, j) == (me, a.neighbor) || (j, i) == (me, a.neighbor));
                }
            }
        }
        // The clique's historical numbering: the slot towards j is j, or
        // j-1 past self.
        let clique = TopoGraph::new(Shape::Clique, 5);
        for me in 0..5 {
            for a in clique.adapters(me) {
                let want = if a.neighbor < me { a.neighbor } else { a.neighbor - 1 };
                assert_eq!(a.slot, want, "host {me}");
            }
        }
    }

    #[test]
    fn torus_adjacency_has_constant_degree_four() {
        let g = TopoGraph::new(Shape::Torus { rows: 4, cols: 4 }, 16);
        for me in 0..16 {
            assert_eq!(neighbors(&g, me).len(), 4, "host {me}");
        }
        // Host 5 = (row 1, col 1): neighbours 4, 6 (row) and 1, 9 (col).
        assert_eq!(neighbors(&g, 5), &[1, 4, 6, 9]);
        // Corner wraparound: host 0 reaches 3 (row wrap) and 12 (col wrap).
        assert_eq!(neighbors(&g, 0), &[1, 3, 4, 12]);
    }

    #[test]
    fn degenerate_torus_dims_dedupe() {
        // 2-wide dimensions would cable the same neighbour twice; the
        // adjacency must deduplicate.
        let g = TopoGraph::new(Shape::Torus { rows: 2, cols: 2 }, 4);
        assert_eq!(neighbors(&g, 0), &[1, 2]);
        // A 1-row torus degenerates to a ring.
        let line = TopoGraph::new(Shape::Torus { rows: 1, cols: 5 }, 5);
        for me in 0..5 {
            for dest in 0..5 {
                assert_eq!(line.hops(me, dest), ring_oracle(me, dest, 5).1);
            }
        }
    }

    #[test]
    fn torus_diameter_is_sum_of_half_dims() {
        assert_eq!(diameter(&TopoGraph::new(Shape::Torus { rows: 4, cols: 4 }, 16)), 4);
        assert_eq!(diameter(&TopoGraph::new(Shape::Torus { rows: 8, cols: 8 }, 64)), 8);
        assert_eq!(diameter(&TopoGraph::new(Shape::Ring, 64)), 32);
        assert_eq!(diameter(&TopoGraph::new(Shape::Clique, 16)), 1);
    }

    /// No shape can produce a routing loop or a ping-pong between two
    /// hops. Because every hop strictly shrinks the BFS distance, walking
    /// `next_hop` must reach the destination in exactly `hops` steps
    /// without revisiting any host.
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
        let live_hop = |me: usize| {
            let idx = g.next_adapter_live(me, 2, |_| true, |pe| pe != 1).expect("live chain");
            g.adapters(me)[idx].neighbor
        };
        let mut cur = live_hop(0);
        assert_ne!(cur, 1);
        // Walk the live route to completion.
        let mut steps = 1;
        while cur != 2 {
            cur = live_hop(cur);
            steps += 1;
            assert!(steps <= 16, "live route loop");
        }
        assert!(steps <= 4, "detour unreasonably long: {steps} hops");

        // Excluding the only remaining first hop yields None on a ring.
        let ring = TopoGraph::new(Shape::Ring, 5);
        let to_1 = ring.next_adapter(0, 1);
        assert_eq!(ring.next_adapter_live(0, 2, |a| a != to_1, |pe| pe != 4), None);
    }

    #[test]
    fn excluded_adapter_falls_back_to_a_parallel_cable_first() {
        let g = TopoGraph::new(Shape::Ring, 2);
        let link0 = g.next_adapter(0, 1);
        let other = g.next_adapter_live(0, 1, |a| a != link0, |_| true).expect("second cable");
        assert_eq!(g.adapters(0)[other], Adapter { neighbor: 1, slot: 0, link: 1 });
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
                assert_eq!(links, &[(0, 1), (1, 0)]);
                continue;
            }
            let expected: usize = (0..n).map(|i| neighbors(&g, i).len()).sum::<usize>() / 2;
            assert_eq!(links.len(), expected, "{shape:?}/{n}");
            let mut seen = std::collections::HashSet::new();
            for &(i, j) in links {
                assert!(neighbors(&g, i).contains(&j), "uncabled pair ({i},{j}) {shape:?}/{n}");
                assert!(seen.insert((i.min(j), i.max(j))), "duplicate cable {shape:?}/{n}");
            }
        }
    }

    #[test]
    fn ring_links_keep_paper_order() {
        let g = TopoGraph::new(Shape::Ring, 5);
        assert_eq!(g.links(), &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    }
}
