//! Static connectivity and routing.
//!
//! A [`Topology`] is `n` sensor nodes plus one mains-powered sink,
//! with a bidirectional link between every pair within the radio
//! range. The production build ([`Topology::new`]) runs on a
//! grid-bucket spatial index — cells at least one radio range wide, so
//! every in-range pair lives in adjacent cells — and is `O(n + L)` for
//! `L` links; the quadratic all-pairs construction is preserved as
//! [`Topology::new_all_pairs`], the differential-testing oracle, and
//! both produce the **same link set in the same deterministic order**
//! (each adjacency list ascending by neighbour index, distances
//! computed by the same [`Point::distance_m`] call — pinned bitwise by
//! `crates/net/tests/topology_grid.rs`).
//!
//! Routing produces a [`Routes`] table — one next-hop per node,
//! forming a tree rooted at the sink — under one of two metrics:
//!
//! * **Min-hop** ([`Topology::min_hop_routes`]): breadth-first search
//!   from the sink; every route has the provably minimum hop count
//!   (BFS on unit weights *is* Dijkstra), parents tie-broken
//!   deterministically toward the smallest node index.
//! * **Energy-aware** ([`Topology::energy_aware_routes`]): Dijkstra
//!   from the sink with the per-packet hop energy
//!   ([`RadioEnergyModel::hop_energy_j`]) as the edge weight, and
//!   *excluded relays*: a node marked blocked (e.g. browned out) may
//!   still originate packets but is never used as an intermediate.
//!   The production router is a binary-heap Dijkstra (`O(E log V)`,
//!   the shape route repair re-runs at every epoch boundary); the
//!   `O(V²)` selection loop survives as
//!   [`Topology::energy_aware_routes_reference`], its settle-order
//!   oracle — both settle vertices in ascending `(cost, index)` order
//!   and relax adjacency lists in ascending neighbour order, so the
//!   parent trees and route costs are bit-identical.
//!
//! Both routers are total: a node with no path simply has no next hop,
//! and asking for its path returns the typed
//! [`NetError::UnreachableSink`] — never a hang, never a panic.

use crate::placement::Point;
use crate::radio::{Link, RadioEnergyModel};
use crate::{NetError, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Static fleet connectivity: node positions, one sink, and the link
/// set induced by a radio range.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Point>,
    sink: Point,
    range_m: f64,
    /// Adjacency over `n + 1` vertices (vertex `n` is the sink), each
    /// list sorted by neighbour index — the determinism anchor for
    /// both routers.
    adj: Vec<Vec<Link>>,
}

/// Grid-cell budget multiplier: the bucket grid never allocates more
/// than ~4 cells per vertex, whatever the ratio of area to radio
/// range, so sparse fleets over huge floors stay `O(n)` in memory.
const MAX_CELLS_PER_VERTEX: usize = 4;

fn validate_common(positions: &[Point], range_m: f64) -> Result<()> {
    if positions.is_empty() {
        return Err(NetError::invalid("topology needs at least one node"));
    }
    if !(range_m > 0.0) || !range_m.is_finite() {
        return Err(NetError::invalid(format!(
            "radio range must be positive and finite, got {range_m}"
        )));
    }
    Ok(())
}

fn coincident_error(a: usize, b: usize, d: f64) -> NetError {
    NetError::invalid(format!(
        "vertices {a} and {b} are coincident (d = {d}); a zero-distance \
         link is a self-send"
    ))
}

impl Topology {
    /// Builds the topology over `positions` with the sink at `sink`,
    /// linking every vertex pair within `range_m`.
    ///
    /// This is the grid-bucket production build: vertices are bucketed
    /// into cells at least one radio range wide, and each vertex scans
    /// only the cell window covering its range disc. The result is
    /// bit-identical — same links, same order, same distances — to the
    /// all-pairs oracle [`Topology::new_all_pairs`].
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidParameter`] for an empty fleet, a
    /// non-positive / non-finite range, a non-finite vertex
    /// coordinate, or two coincident vertices (a zero-distance link is
    /// a self-send; see [`Link::new`]). The first coincident pair in
    /// ascending `(a, b)` order is reported — the same pair the
    /// all-pairs oracle reports.
    pub fn new(positions: Vec<Point>, sink: Point, range_m: f64) -> Result<Self> {
        validate_common(&positions, range_m)?;
        let n = positions.len();
        let vertex = |i: usize| if i == n { sink } else { positions[i] };

        // The all-pairs oracle rejects non-finite coordinates through
        // its distance check; the grid path must reject them *before*
        // bucketing (a NaN coordinate has no cell).
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for i in 0..=n {
            let p = vertex(i);
            if !p.x.is_finite() || !p.y.is_finite() {
                return Err(NetError::invalid(format!(
                    "vertex {i} has a non-finite coordinate ({}, {})",
                    p.x, p.y
                )));
            }
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        let span_x = max_x - min_x;
        let span_y = max_y - min_y;

        // Cells per axis: ideally floor(span / range) (cell edge >=
        // range), capped so the grid stays O(n) cells even when the
        // floor dwarfs the radio range. Correctness never depends on
        // the cell edge: each vertex scans the cell window covering
        // [x - range, x + range] x [y - range, y + range] exactly, so
        // a capped (coarser) grid only widens the windows.
        let n_vertices = n + 1;
        let max_cells = MAX_CELLS_PER_VERTEX * n_vertices + 16;
        let cells_axis = |span: f64| -> usize {
            if span > range_m {
                // Truncation saturates for astronomically large ratios,
                // which the cap below immediately pulls back to O(n).
                ((span / range_m) as usize).max(1)
            } else {
                1
            }
        };
        let mut nx = cells_axis(span_x).min(max_cells);
        let mut ny = cells_axis(span_y).min(max_cells);
        while nx * ny > max_cells {
            if nx >= ny {
                nx = nx.div_ceil(2);
            } else {
                ny = ny.div_ceil(2);
            }
        }

        // Monotone cell coordinate; clamped at both ends so
        // out-of-box probes (x - range below the floor plan) land on
        // the border cells. A negative float truncates to 0 via the
        // saturating `as` conversion.
        let cell_x = move |x: f64| -> usize {
            if span_x <= 0.0 {
                return 0;
            }
            (((x - min_x) / span_x) * nx as f64).min((nx - 1) as f64) as usize
        };
        let cell_y = move |y: f64| -> usize {
            if span_y <= 0.0 {
                return 0;
            }
            (((y - min_y) / span_y) * ny as f64).min((ny - 1) as f64) as usize
        };

        // Bucket vertices into a flat CSR layout (counts → offsets →
        // fill) — no per-cell allocations. Filling in vertex-index
        // order keeps every cell's occupant slice ascending.
        let n_cells = nx * ny;
        let mut cell_of = vec![0usize; n_vertices];
        let mut counts = vec![0usize; n_cells + 1];
        for i in 0..=n {
            let p = vertex(i);
            let c = cell_y(p.y) * nx + cell_x(p.x);
            cell_of[i] = c;
            counts[c + 1] += 1;
        }
        for c in 0..n_cells {
            counts[c + 1] += counts[c];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        // Occupants carry their coordinates inline so the hot
        // candidate scan below reads one contiguous stream instead of
        // chasing indices back into `positions`.
        let mut occupants = vec![(0usize, Point { x: 0.0, y: 0.0 }); n_vertices];
        for i in 0..=n {
            let c = cell_of[i];
            occupants[cursor[c]] = (i, vertex(i));
            cursor[c] += 1;
        }

        // Conservative squared-distance gate: any candidate with
        // dx² + dy² strictly above range² · (1 + 1e-12) has a true
        // distance above range by far more than one ulp of sqrt
        // rounding, so it can be dropped without computing the root.
        // Survivors (including the degenerate 0 / inf cases) still go
        // through the exact `distance_m` test, so the link set and
        // every distance bit match the all-pairs oracle.
        let range_sq_hi = range_m * range_m * (1.0 + 1e-12);
        let mut adj: Vec<Vec<Link>> = vec![Vec::new(); n + 1];
        let mut near: Vec<(usize, f64)> = Vec::new();
        for a in 0..=n {
            let pa = vertex(a);
            near.clear();
            // The window covering a's range disc — exact by cell_x/y
            // monotonicity, so no in-range neighbour can sit outside
            // it whatever the cell edge rounding.
            let (cx0, cx1) = (cell_x(pa.x - range_m), cell_x(pa.x + range_m));
            let (cy0, cy1) = (cell_y(pa.y - range_m), cell_y(pa.y + range_m));
            for cy in cy0..=cy1 {
                // Adjacent cells in a row are adjacent in the CSR
                // array, so the whole row window is one slice.
                let row = cy * nx;
                for &(b, pb) in &occupants[offsets[row + cx0]..offsets[row + cx1 + 1]] {
                    if b == a {
                        continue;
                    }
                    let dx = pa.x - pb.x;
                    let dy = pa.y - pb.y;
                    let d_sq = dx * dx + dy * dy;
                    if d_sq > range_sq_hi && d_sq.is_finite() {
                        continue;
                    }
                    let d = pa.distance_m(&pb);
                    if d <= range_m || !(d > 0.0) || !d.is_finite() {
                        near.push((b, d));
                    }
                }
            }
            // Ascending neighbour order: the determinism anchor, and
            // what makes the degenerate-pair error site match the
            // all-pairs scan (the lexicographically smallest coincident
            // pair is found at its smaller endpoint, smallest partner
            // first).
            near.sort_unstable_by_key(|&(b, _)| b);
            let mut links = Vec::with_capacity(near.len());
            for &(b, d) in &near {
                if !(d > 0.0) || !d.is_finite() {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    return Err(coincident_error(lo, hi, d));
                }
                links.push(Link::new(a, b, d)?);
            }
            adj[a] = links;
        }
        debug_assert!(adj.iter().all(|l| l.windows(2).all(|w| w[0].to < w[1].to)));
        Ok(Topology {
            positions,
            sink,
            range_m,
            adj,
        })
    }

    /// The quadratic all-pairs reference build — the oracle the
    /// differential suite holds [`Topology::new`] against. Checks
    /// every vertex pair, so it is `O(n²)` and unusable beyond a few
    /// thousand nodes; it exists to define the link set the grid
    /// build must reproduce bit for bit.
    ///
    /// # Errors
    ///
    /// As [`Topology::new`].
    pub fn new_all_pairs(positions: Vec<Point>, sink: Point, range_m: f64) -> Result<Self> {
        validate_common(&positions, range_m)?;
        let n = positions.len();
        let vertex = |i: usize| if i == n { sink } else { positions[i] };
        let mut adj: Vec<Vec<Link>> = vec![Vec::new(); n + 1];
        for a in 0..=n {
            for b in (a + 1)..=n {
                let d = vertex(a).distance_m(&vertex(b));
                if !(d > 0.0) || !d.is_finite() {
                    return Err(coincident_error(a, b, d));
                }
                if d <= range_m {
                    adj[a].push(Link::new(a, b, d)?);
                    adj[b].push(Link::new(b, a, d)?);
                }
            }
        }
        // Pairs are visited in ascending (a, b), so each list is
        // already sorted by neighbour index; assert the invariant.
        debug_assert!(adj.iter().all(|l| l.windows(2).all(|w| w[0].to < w[1].to)));
        Ok(Topology {
            positions,
            sink,
            range_m,
            adj,
        })
    }

    /// Number of sensor nodes (the sink is not counted).
    pub fn n_nodes(&self) -> usize {
        self.positions.len()
    }

    /// The sink's vertex index (`n_nodes()`).
    pub fn sink_index(&self) -> usize {
        self.positions.len()
    }

    /// Position of node `i`.
    pub fn position(&self, i: usize) -> Point {
        self.positions[i]
    }

    /// The sink position.
    pub fn sink(&self) -> Point {
        self.sink
    }

    /// The radio range (m).
    pub fn range_m(&self) -> f64 {
        self.range_m
    }

    /// Links incident to vertex `i` (sorted by neighbour index).
    pub fn neighbors(&self, i: usize) -> &[Link] {
        &self.adj[i]
    }

    /// Total number of directed links (each undirected pair counts
    /// twice).
    pub fn link_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Minimum-hop routing: BFS from the sink over the (symmetric)
    /// link set, neighbours expanded in ascending index so the parent
    /// choice — and therefore every path — is deterministic.
    pub fn min_hop_routes(&self) -> Routes {
        let n = self.n_nodes();
        let sink = self.sink_index();
        let mut next_hop: Vec<Option<usize>> = vec![None; n + 1];
        let mut hops: Vec<Option<usize>> = vec![None; n + 1];
        hops[sink] = Some(0);
        // The queue carries each vertex's hop count alongside it, so no
        // `expect` is needed to read it back out of `hops`.
        let mut queue = std::collections::VecDeque::from([(sink, 0usize)]);
        while let Some((v, h)) = queue.pop_front() {
            for link in &self.adj[v] {
                let u = link.to;
                if hops[u].is_none() {
                    hops[u] = Some(h + 1);
                    next_hop[u] = Some(v);
                    queue.push_back((u, h + 1));
                }
            }
        }
        Routes {
            sink,
            cost: hops.iter().map(|h| h.map(|c| c as f64)).collect(),
            next_hop,
        }
    }

    /// Energy-aware routing: Dijkstra from the sink with the
    /// per-packet relay hop energy `E_rx + E_tx(d)` as the edge
    /// weight (receiving at the sink is free — it is mains-powered).
    ///
    /// `relay_blocked[i] = true` removes node `i` from every *relay*
    /// position: it may still originate packets (its own cost is
    /// computed) but no other node's route passes through it.
    /// Ties are broken toward the smallest vertex index, so the route
    /// tree is deterministic.
    ///
    /// This is the binary-heap production router (`O(E log V)`), run
    /// once per route epoch at fleet scale; it settles vertices in
    /// ascending `(cost, index)` order — exactly the order the `O(V²)`
    /// selection oracle [`Topology::energy_aware_routes_reference`]
    /// settles them — so parents and costs are bit-identical.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidParameter`] if `relay_blocked.len()` differs
    /// from the node count.
    pub fn energy_aware_routes(
        &self,
        radio: &RadioEnergyModel,
        payload_bits: u64,
        relay_blocked: &[bool],
    ) -> Result<Routes> {
        let n = self.n_nodes();
        if relay_blocked.len() != n {
            return Err(NetError::invalid(format!(
                "got {} relay-blocked flags for {n} nodes",
                relay_blocked.len()
            )));
        }
        let sink = self.sink_index();
        let mut dist: Vec<f64> = vec![f64::INFINITY; n + 1];
        let mut next_hop: Vec<Option<usize>> = vec![None; n + 1];
        let mut settled = vec![false; n + 1];
        dist[sink] = 0.0;
        let mut heap = BinaryHeap::with_capacity(n + 1);
        heap.push(HeapEntry { cost: 0.0, v: sink });
        // Lazy-deletion Dijkstra: a vertex may carry several stale heap
        // entries, but the entry holding its current `dist` is the
        // smallest of them, so the first pop of an unsettled vertex is
        // its final distance.
        while let Some(HeapEntry { v, .. }) = heap.pop() {
            if settled[v] {
                continue;
            }
            settled[v] = true;
            // A blocked vertex is settled (its own route cost is
            // final) but never relaxes its neighbours — nothing routes
            // *through* it.
            if v != sink && relay_blocked[v] {
                continue;
            }
            for link in &self.adj[v] {
                let u = link.to;
                if settled[u] {
                    continue;
                }
                // Cost for u to hand a packet to v: u transmits over
                // the link; v receives unless it is the sink.
                let rx = if v == sink {
                    0.0
                } else {
                    radio.rx_energy_j(payload_bits)
                };
                let cand = dist[v] + radio.tx_energy_j(payload_bits, link.distance_m) + rx;
                if cand < dist[u] {
                    dist[u] = cand;
                    next_hop[u] = Some(v);
                    heap.push(HeapEntry { cost: cand, v: u });
                }
            }
        }
        Ok(Routes {
            sink,
            cost: dist.iter().map(|&d| d.is_finite().then_some(d)).collect(),
            next_hop,
        })
    }

    /// The `O(V²)` selection-loop Dijkstra — the settle-order oracle
    /// for [`Topology::energy_aware_routes`]. Kept because its
    /// tie-break (scan ascending, strict improvement only) is
    /// self-evidently deterministic; the differential suite proves the
    /// heap router reproduces it bit for bit.
    ///
    /// # Errors
    ///
    /// As [`Topology::energy_aware_routes`].
    pub fn energy_aware_routes_reference(
        &self,
        radio: &RadioEnergyModel,
        payload_bits: u64,
        relay_blocked: &[bool],
    ) -> Result<Routes> {
        let n = self.n_nodes();
        if relay_blocked.len() != n {
            return Err(NetError::invalid(format!(
                "got {} relay-blocked flags for {n} nodes",
                relay_blocked.len()
            )));
        }
        let sink = self.sink_index();
        let mut dist: Vec<f64> = vec![f64::INFINITY; n + 1];
        let mut next_hop: Vec<Option<usize>> = vec![None; n + 1];
        let mut settled = vec![false; n + 1];
        dist[sink] = 0.0;
        // O(V²) selection keeps the float comparisons explicit and the
        // tie-break (smallest index) obvious.
        loop {
            let mut v: Option<usize> = None;
            for (i, &d) in dist.iter().enumerate() {
                if !settled[i] && d.is_finite() && v.map_or(true, |b| d < dist[b]) {
                    v = Some(i);
                }
            }
            let Some(v) = v else { break };
            settled[v] = true;
            if v != sink && relay_blocked[v] {
                continue;
            }
            for link in &self.adj[v] {
                let u = link.to;
                if settled[u] {
                    continue;
                }
                let rx = if v == sink {
                    0.0
                } else {
                    radio.rx_energy_j(payload_bits)
                };
                let cand = dist[v] + radio.tx_energy_j(payload_bits, link.distance_m) + rx;
                if cand < dist[u] {
                    dist[u] = cand;
                    next_hop[u] = Some(v);
                }
            }
        }
        Ok(Routes {
            sink,
            cost: dist.iter().map(|&d| d.is_finite().then_some(d)).collect(),
            next_hop,
        })
    }
}

/// Min-ordered heap entry: the `Ord` is reversed (and tie-broken
/// toward the smallest vertex index) so `BinaryHeap`'s max-pop yields
/// ascending `(cost, index)` — the settle order of the `O(V²)`
/// reference. Costs are finite sums of positive hop energies, so
/// `total_cmp` agrees with numeric order.
struct HeapEntry {
    cost: f64,
    v: usize,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.v.cmp(&self.v))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

/// A routing table: the next hop toward the sink for every node, plus
/// the route cost under the metric that built it (hop count for
/// min-hop, joules per packet for energy-aware).
#[derive(Debug, Clone, PartialEq)]
pub struct Routes {
    sink: usize,
    next_hop: Vec<Option<usize>>,
    cost: Vec<Option<f64>>,
}

impl Routes {
    /// The sink's vertex index.
    pub fn sink_index(&self) -> usize {
        self.sink
    }

    /// Next hop of node `i`, or `None` if the sink is unreachable.
    pub fn next_hop(&self, i: usize) -> Option<usize> {
        self.next_hop[i]
    }

    /// Whether node `i` can reach the sink.
    pub fn is_reachable(&self, i: usize) -> bool {
        i == self.sink || self.next_hop[i].is_some()
    }

    /// Route cost of node `i` under the builder's metric, or `None`
    /// if unreachable.
    pub fn cost(&self, i: usize) -> Option<f64> {
        self.cost[i]
    }

    /// The full path `[i, …, sink]` of node `i`.
    ///
    /// # Errors
    ///
    /// [`NetError::UnreachableSink`] if node `i` has no route — a
    /// typed error, never a hang (the next-hop table is a tree by
    /// construction, and the walk is additionally bounded by the
    /// vertex count).
    pub fn path(&self, i: usize) -> Result<Vec<usize>> {
        let mut path = vec![i];
        let mut v = i;
        while v != self.sink {
            match self.next_hop[v] {
                Some(next) => {
                    path.push(next);
                    v = next;
                }
                None => return Err(NetError::UnreachableSink { node: i }),
            }
            if path.len() > self.next_hop.len() {
                // Unreachable with a well-formed table; a defensive
                // bound so a corrupted table can never loop.
                return Err(NetError::UnreachableSink { node: i });
            }
        }
        Ok(path)
    }

    /// Hop count of node `i`'s route, or `None` if unreachable.
    pub fn hop_count(&self, i: usize) -> Option<usize> {
        self.path(i).ok().map(|p| p.len() - 1)
    }

    /// [`Routes::hop_count`] of every vertex (`Some(0)` for the sink),
    /// in one `O(n)` pass over the table: each next-hop chain is walked
    /// only up to the first vertex already resolved. A chain that ends
    /// without reaching the sink, or runs into itself, leaves every
    /// vertex on it unreachable, exactly as [`Routes::path`] fails for
    /// it — so walking a reachable vertex's chain always ends at the
    /// sink within `n` hops.
    pub(crate) fn hop_counts(&self) -> Vec<Option<usize>> {
        let mut hops = vec![None; self.next_hop.len()];
        let mut seen = vec![false; self.next_hop.len()];
        hops[self.sink] = Some(0);
        seen[self.sink] = true;
        let mut chain = Vec::new();
        for i in 0..self.next_hop.len() {
            let mut v = i;
            while !seen[v] {
                seen[v] = true;
                chain.push(v);
                match self.next_hop[v] {
                    Some(next) => v = next,
                    None => break,
                }
            }
            // `v` is resolved, or unresolved on this chain (a dead end
            // or a loop), whose hop count stays `None`.
            let mut h = hops[v];
            while let Some(u) = chain.pop() {
                h = h.map(|h| h + 1);
                hops[u] = h;
            }
        }
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, spacing: f64) -> Topology {
        // Nodes at x = s, 2s, …, ns; sink at the origin.
        let pts = (1..=n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect();
        Topology::new(pts, Point::new(0.0, 0.0), spacing * 1.01).unwrap()
    }

    #[test]
    fn line_topology_routes_through_chain() {
        let t = line(4, 10.0);
        let r = t.min_hop_routes();
        assert_eq!(r.path(3).unwrap(), vec![3, 2, 1, 0, t.sink_index()]);
        assert_eq!(r.hop_count(3), Some(4));
        assert_eq!(r.cost(0), Some(1.0));
    }

    #[test]
    fn coincident_vertices_are_rejected_by_both_builds() {
        let pts = vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        let grid = Topology::new(pts.clone(), Point::new(0.0, 0.0), 5.0);
        let oracle = Topology::new_all_pairs(pts, Point::new(0.0, 0.0), 5.0);
        assert!(grid.is_err());
        assert!(oracle.is_err());
        // Same error site, same message.
        assert_eq!(
            format!("{}", grid.unwrap_err()),
            format!("{}", oracle.unwrap_err())
        );
    }

    #[test]
    fn non_finite_coordinates_are_rejected() {
        let pts = vec![Point::new(f64::NAN, 0.0), Point::new(1.0, 0.0)];
        assert!(Topology::new(pts.clone(), Point::new(0.0, 0.0), 5.0).is_err());
        assert!(Topology::new_all_pairs(pts, Point::new(0.0, 0.0), 5.0).is_err());
    }

    #[test]
    fn unreachable_is_typed_error() {
        // Two nodes far apart, only node 0 in sink range.
        let pts = vec![Point::new(5.0, 0.0), Point::new(100.0, 0.0)];
        let t = Topology::new(pts, Point::new(0.0, 0.0), 10.0).unwrap();
        let r = t.min_hop_routes();
        assert!(r.is_reachable(0));
        assert!(!r.is_reachable(1));
        match r.path(1) {
            Err(NetError::UnreachableSink { node: 1 }) => {}
            other => panic!("expected UnreachableSink, got {other:?}"),
        }
    }

    #[test]
    fn grid_build_matches_all_pairs_on_a_line() {
        let pts: Vec<Point> = (1..=40).map(|i| Point::new(i as f64 * 3.0, 0.0)).collect();
        let sink = Point::new(0.0, 0.0);
        let grid = Topology::new(pts.clone(), sink, 3.5).unwrap();
        let oracle = Topology::new_all_pairs(pts, sink, 3.5).unwrap();
        for v in 0..=grid.n_nodes() {
            assert_eq!(grid.neighbors(v).len(), oracle.neighbors(v).len());
            for (a, b) in grid.neighbors(v).iter().zip(oracle.neighbors(v)) {
                assert_eq!(a.from, b.from);
                assert_eq!(a.to, b.to);
                assert_eq!(a.distance_m.to_bits(), b.distance_m.to_bits());
            }
        }
    }

    #[test]
    fn heap_router_matches_reference_with_blocked_relays() {
        let pts: Vec<Point> = (0..30)
            .map(|i| Point::new((i % 6) as f64 * 8.0, (i / 6) as f64 * 8.0 + 1.0))
            .collect();
        let t = Topology::new(pts, Point::new(20.0, -5.0), 12.0).unwrap();
        let radio = RadioEnergyModel::typical();
        let mut blocked = vec![false; 30];
        blocked[2] = true;
        blocked[7] = true;
        let heap = t.energy_aware_routes(&radio, 1024, &blocked).unwrap();
        let oracle = t
            .energy_aware_routes_reference(&radio, 1024, &blocked)
            .unwrap();
        for v in 0..=t.n_nodes() {
            assert_eq!(heap.next_hop(v), oracle.next_hop(v), "vertex {v} parent");
            assert_eq!(
                heap.cost(v).map(f64::to_bits),
                oracle.cost(v).map(f64::to_bits),
                "vertex {v} cost"
            );
        }
    }

    #[test]
    fn hop_counts_match_path_walks_on_built_and_corrupt_tables() {
        // A grid with a far island (24, 25) and blocked relays that cut
        // off part of the grid.
        let mut pts: Vec<Point> = (0..24)
            .map(|i| Point::new((i % 6) as f64 * 8.0, (i / 6) as f64 * 8.0 + 1.0))
            .collect();
        pts.extend([Point::new(200.0, 200.0), Point::new(205.0, 200.0)]);
        let t = Topology::new(pts, Point::new(20.0, -5.0), 12.0).unwrap();
        let mut blocked = vec![false; 26];
        for v in [6, 7, 8, 9, 10, 11] {
            blocked[v] = true;
        }
        let energy = t
            .energy_aware_routes(&RadioEnergyModel::typical(), 1024, &blocked)
            .unwrap();
        // Tables no router builds: a two-cycle (1 ↔ 2) feeding node 3,
        // and a dead end at node 4 feeding node 5.
        let sink = 6;
        let corrupt = Routes {
            sink,
            next_hop: vec![Some(sink), Some(2), Some(1), Some(2), None, Some(4), None],
            cost: vec![None; 7],
        };
        for r in [t.min_hop_routes(), energy, corrupt] {
            let hops = r.hop_counts();
            assert_eq!(hops.len(), r.next_hop.len());
            for (v, &h) in hops.iter().enumerate() {
                assert_eq!(h, r.hop_count(v), "vertex {v}");
            }
            assert!(hops.iter().any(Option::is_none));
        }
    }
}
