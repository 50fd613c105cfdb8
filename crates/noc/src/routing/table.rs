//! Table-based routing for expedited flows (paper §7).
//!
//! The asymmetric-CMP case study routes packets to/from the four large cores
//! over the big routers: instead of a single X-then-Y path, the route
//! zig-zags (X-Y-X-Y) so it travels along the diagonals where the big
//! routers sit. Because only a few source/destination pairs are table-routed
//! the per-router tables stay small; deadlock is resolved with a reserved
//! X-Y-routed escape VC (see [`crate::routing::RoutingKind`]).

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::topology::TopologyGraph;
use crate::types::{Coord, RouterId};

/// Precomputed source-routed paths between router pairs.
///
/// A path is stored as the full router sequence `src..=dst`; lookup answers
/// "at router R on the path from S to D, which router comes next?".
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct RouteTable {
    paths: HashMap<(RouterId, RouterId), Vec<RouterId>>,
}

/// Lists the paths in key order, so the text, and the configuration hash
/// and cache key taken over it, do not depend on the process's hash seed.
impl fmt::Debug for RouteTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let paths: BTreeMap<_, _> = self.paths.iter().collect();
        f.debug_struct("RouteTable").field("paths", &paths).finish()
    }
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of (src, dst) pairs with a table entry.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when no pair has a table entry.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Installs `path` for `src -> dst`.
    ///
    /// # Panics
    /// Panics if the path does not start at `src`, does not end at `dst`, or
    /// revisits a router (a cyclic path can never drain).
    pub fn insert(&mut self, src: RouterId, dst: RouterId, path: Vec<RouterId>) {
        assert_eq!(path.first(), Some(&src), "path must start at src");
        assert_eq!(path.last(), Some(&dst), "path must end at dst");
        let mut seen = std::collections::HashSet::new();
        for r in &path {
            assert!(seen.insert(*r), "path must not revisit router {r}");
        }
        self.paths.insert((src, dst), path);
    }

    /// Next hop at `cur` along the stored `src -> dst` path, or `None` if no
    /// entry exists or `cur` is not on the path (e.g. the packet diverted to
    /// the escape network — it then finishes on X-Y routing).
    pub fn next_hop(&self, cur: RouterId, src: RouterId, dst: RouterId) -> Option<RouterId> {
        let path = self.paths.get(&(src, dst))?;
        let idx = path.iter().position(|&r| r == cur)?;
        path.get(idx + 1).copied()
    }

    /// Full path for `src -> dst`, if installed.
    pub fn path(&self, src: RouterId, dst: RouterId) -> Option<&[RouterId]> {
        self.paths.get(&(src, dst)).map(Vec::as_slice)
    }

    /// Iterates over every installed `(src, dst)` pair and its full path.
    ///
    /// Order is unspecified. Static analyses (e.g. the channel-dependency
    /// deadlock check in `heteronoc-verify`) use this to enumerate the exact
    /// link/VC dependencies the table induces.
    pub fn pairs(&self) -> impl Iterator<Item = ((RouterId, RouterId), &[RouterId])> {
        self.paths.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// Builds the §7 zig-zag table for all pairs between `hubs` (the routers
    /// of the large cores) and every other router, in both directions.
    ///
    /// Paths are built with [`zigzag_path`], which greedily staircases
    /// between the X and Y dimensions so that the route tracks the mesh
    /// diagonals (where the Diagonal+BL big routers sit) instead of the
    /// L-shaped X-Y route.
    pub fn for_hubs(g: &TopologyGraph, hubs: &[RouterId]) -> Self {
        let mut tbl = Self::new();
        for &hub in hubs {
            for r in 0..g.num_routers() {
                let other = RouterId(r);
                if other == hub {
                    continue;
                }
                tbl.insert(hub, other, zigzag_path(g, hub, other));
                tbl.insert(other, hub, zigzag_path(g, other, hub));
            }
        }
        tbl
    }
}

/// Builds a minimal-length staircase (X-Y-X-Y…) path from `src` to `dst` on
/// a mesh: alternates single X and Y hops while both dimensions have
/// remaining distance, then finishes straight. This makes flows to/from the
/// corners ride the diagonal big routers (Fig. 14a shows exactly this shape).
///
/// # Panics
/// Panics if the graph is not a mesh-adjacency grid (each staircase hop must
/// be a topology link).
pub fn zigzag_path(g: &TopologyGraph, src: RouterId, dst: RouterId) -> Vec<RouterId> {
    let mut path = vec![src];
    let mut cur = g.coord(src);
    let dstc = g.coord(dst);
    let mut move_x = true;
    while cur != dstc {
        let can_x = cur.x != dstc.x;
        let can_y = cur.y != dstc.y;
        let go_x = (move_x && can_x) || !can_y;
        if go_x {
            cur.x = if dstc.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        } else {
            cur.y = if dstc.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        }
        move_x = !go_x;
        let next = g
            .router_at(Coord::new(cur.x, cur.y))
            .expect("staircase stays on the grid");
        debug_assert!(
            g.port_towards(*path.last().unwrap(), next).is_some(),
            "staircase hop must be a topology link"
        );
        path.push(next);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::mesh;

    #[test]
    fn zigzag_is_minimal_and_staircased() {
        let g = mesh::build(8, 8);
        let src = RouterId(0); // (0,0)
        let dst = RouterId(7 * 8 + 7); // (7,7)
        let p = zigzag_path(&g, src, dst);
        assert_eq!(p.len(), 15, "14 hops + start");
        // The staircase from corner to corner passes through the diagonal:
        // it must visit (1,1), (2,2), ... (alternating X/Y single steps).
        let coords: Vec<_> = p.iter().map(|&r| g.coord(r)).collect();
        for k in 0..8 {
            assert!(
                coords.contains(&Coord::new(k, k)),
                "diagonal router ({k},{k}) on path"
            );
        }
    }

    #[test]
    fn zigzag_straight_line_when_one_dimension() {
        let g = mesh::build(8, 8);
        let p = zigzag_path(&g, RouterId(0), RouterId(5));
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn next_hop_walks_path() {
        let g = mesh::build(4, 4);
        let mut tbl = RouteTable::new();
        let path = zigzag_path(&g, RouterId(0), RouterId(15));
        tbl.insert(RouterId(0), RouterId(15), path.clone());
        let mut cur = RouterId(0);
        let mut walked = vec![cur];
        while let Some(next) = tbl.next_hop(cur, RouterId(0), RouterId(15)) {
            cur = next;
            walked.push(cur);
        }
        assert_eq!(walked, path);
        // Off-path router yields None.
        assert_eq!(tbl.next_hop(RouterId(3), RouterId(0), RouterId(15)), None);
    }

    #[test]
    fn for_hubs_covers_both_directions() {
        let g = mesh::build(4, 4);
        let tbl = RouteTable::for_hubs(&g, &[RouterId(0)]);
        assert_eq!(tbl.len(), 2 * 15);
        assert!(tbl.path(RouterId(0), RouterId(9)).is_some());
        assert!(tbl.path(RouterId(9), RouterId(0)).is_some());
        assert!(tbl.path(RouterId(1), RouterId(2)).is_none());
    }

    #[test]
    fn debug_text_lists_paths_in_key_order() {
        let paths = [(0, 1), (2, 0), (1, 2)].map(|(s, d)| (RouterId(s), RouterId(d)));
        let table = |order: &mut dyn Iterator<Item = &(RouterId, RouterId)>| {
            let mut t = RouteTable::new();
            for &(s, d) in order {
                t.insert(s, d, vec![s, d]);
            }
            format!("{t:?}")
        };
        let text = table(&mut paths.iter());
        assert_eq!(text, table(&mut paths.iter().rev()));
        assert_eq!(
            text,
            "RouteTable { paths: {(RouterId(0), RouterId(1)): [RouterId(0), RouterId(1)], \
             (RouterId(1), RouterId(2)): [RouterId(1), RouterId(2)], \
             (RouterId(2), RouterId(0)): [RouterId(2), RouterId(0)]} }"
        );
    }

    #[test]
    #[should_panic(expected = "must start at src")]
    fn insert_validates_endpoints() {
        let mut tbl = RouteTable::new();
        tbl.insert(RouterId(0), RouterId(2), vec![RouterId(1), RouterId(2)]);
    }

    #[test]
    #[should_panic(expected = "revisit")]
    fn insert_rejects_cycles() {
        let mut tbl = RouteTable::new();
        tbl.insert(
            RouterId(0),
            RouterId(2),
            vec![RouterId(0), RouterId(1), RouterId(0), RouterId(2)],
        );
    }
}
