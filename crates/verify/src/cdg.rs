//! Channel-dependency-graph construction and acyclicity proof.
//!
//! A *channel* is one virtual channel of one unidirectional link — the VC
//! buffer at the receiving router's input port. A flit occupying channel `a`
//! that must next acquire channel `b` induces the dependency `a -> b`; the
//! network is deadlock-free when every dependency cycle is broken (Dally &
//! Towles, ch. 14).
//!
//! The graph is built by walking the routing function over every
//! `(src, dst)` endpoint pair, translating each [`VcClass`] into the
//! concrete admissible VC indices of the downstream port. Two refinements
//! make the analysis exact for this codebase:
//!
//! * **Degenerate partitions are collapsed, not rejected.** When a port has
//!   too few VCs to realize a dateline/escape partition, the class collapses
//!   to the whole port — so a torus configured without dateline VCs produces
//!   the genuine ring cycle (named in the error) instead of a panic.
//! * **Escape relief (Duato).** Under [`EscapeModel::ReservedTop`], a
//!   blocked *expedited* table-routed packet may abandon its next table hop
//!   and divert onto the X-Y-routed escape VC (the engine does this after
//!   `escape_timeout` cycles). Dependencies such a packet creates are
//!   *relieved*: a cycle through them cannot hold because one of its
//!   packets always has the escape alternative. Deadlock freedom then
//!   requires only that the *hard* (relief-free) subgraph — ordinary X-Y
//!   traffic, the diversion edges and the escape subnetwork itself — is
//!   acyclic, which [`Cdg::check_acyclic`] proves.

use std::collections::{HashMap, HashSet};
use std::fmt;

use heteronoc_noc::routing::{RoutingKind, VcClass};
use heteronoc_noc::topology::TopologyGraph;
use heteronoc_noc::types::{LinkId, NodeId, RouterId};

use crate::diag::{Code, Diagnostic, Span};

/// One VC-level channel of the dependency graph, named for diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct CdgChannel {
    /// The unidirectional link the channel belongs to.
    link: LinkId,
    /// Driving router of the link.
    src: RouterId,
    /// Receiving router (the VC buffer lives at its input port).
    dst: RouterId,
    /// Virtual-channel index at the receiving input port.
    vc: usize,
}

impl fmt::Display for CdgChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}->{}].vc{}", self.link, self.src, self.dst, self.vc)
    }
}

/// `HN-E004`: the walk `src -> dst` exceeded `bound` hops.
fn route_diverges(src: NodeId, dst: NodeId, bound: usize) -> Diagnostic {
    Diagnostic::new(
        Code::RouteDiverges,
        Span::Route { src, dst },
        format!("routing walk {src} -> {dst} did not terminate within {bound} hops"),
    )
}

/// How reserved escape VCs are modelled during CDG construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EscapeModel {
    /// No escape reservation: every dependency is hard and the full CDG
    /// must be acyclic. Use this for dimension-order networks, or to ask
    /// "would this route table deadlock *without* its escape VCs?".
    None,
    /// The top VC of every port is a reserved X-Y escape VC and blocked
    /// expedited packets divert onto it (table-routing networks, §7).
    /// Table-induced dependencies are relieved; the escape subnetwork and
    /// the diversion edges are checked for acyclicity.
    ReservedTop,
}

/// The channel-dependency graph of one `(topology, routing, VCs)` triple.
#[derive(Clone, Debug)]
pub struct Cdg {
    /// Channel-index base per link (`channel = base[link] + vc`).
    base: Vec<usize>,
    /// `(src, dst)` routers of each link, for error naming.
    link_ends: Vec<(RouterId, RouterId)>,
    /// VC count of each link's receiving input port.
    link_vcs: Vec<usize>,
    /// Adjacency: `edges[a][b] == true` for hard edges, `false` for
    /// relieved (escape-divertable) edges. Hard wins when both occur.
    edges: Vec<HashMap<usize, bool>>,
    /// Channels belonging to a reserved escape VC.
    escape_channel: Vec<bool>,
    num_channels: usize,
}

impl Cdg {
    /// Builds the CDG for `routing` on `graph` with `vcs[r]` virtual
    /// channels per port at router `r`, under the given escape model.
    ///
    /// # Errors
    /// `HN-E004` (`RouteDiverges`) when a routing walk fails to terminate,
    /// `HN-E005` (`MissingEscapeVc`) when [`EscapeModel::ReservedTop`] is
    /// requested but a router cannot reserve an escape VC.
    ///
    /// # Panics
    /// Panics if `vcs.len()` does not match the router count or any entry
    /// is zero.
    pub fn build(
        graph: &TopologyGraph,
        routing: &RoutingKind,
        vcs: &[usize],
        escape: EscapeModel,
    ) -> Result<Self, Diagnostic> {
        assert_eq!(vcs.len(), graph.num_routers(), "one VC count per router");
        assert!(
            vcs.iter().all(|&v| v > 0),
            "every port needs at least one VC"
        );
        if escape == EscapeModel::ReservedTop {
            if let Some(r) = vcs.iter().position(|&v| v < 2) {
                let router = RouterId(r);
                return Err(Diagnostic::new(
                    Code::MissingEscapeVc,
                    Span::Router(router),
                    format!(
                        "router {router} has {} VC(s) per port; escape analysis needs >= 2",
                        vcs[r]
                    ),
                ));
            }
        }

        let mut base = Vec::with_capacity(graph.num_links());
        let mut link_ends = Vec::with_capacity(graph.num_links());
        let mut link_vcs = Vec::with_capacity(graph.num_links());
        let mut num_channels = 0;
        for l in graph.links() {
            base.push(num_channels);
            link_ends.push((l.src, l.dst));
            link_vcs.push(vcs[l.dst.index()]);
            num_channels += vcs[l.dst.index()];
        }

        let mut cdg = Cdg {
            base,
            link_ends,
            link_vcs,
            edges: vec![HashMap::new(); num_channels],
            escape_channel: vec![false; num_channels],
            num_channels,
        };
        if escape == EscapeModel::ReservedTop {
            for l in 0..cdg.link_vcs.len() {
                let v = cdg.link_vcs[l];
                cdg.escape_channel[cdg.base[l] + v - 1] = true;
            }
        }

        let mut builder = Builder {
            cdg: &mut cdg,
            graph,
            routing,
            escape,
            escape_walked: HashSet::new(),
        };
        let table_routed = routing.reserves_escape_vc();
        for s in 0..graph.num_nodes() {
            for d in 0..graph.num_nodes() {
                if s == d {
                    continue;
                }
                let (src, dst) = (NodeId(s), NodeId(d));
                builder.walk(src, dst, false)?;
                if table_routed {
                    // Expedited traffic takes the table path (escape-
                    // relieved under `ReservedTop`, hard under `None`).
                    builder.walk(src, dst, true)?;
                }
            }
        }
        Ok(cdg)
    }

    /// Number of VC-level channels.
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Number of distinct dependencies (hard + relieved).
    pub fn num_dependencies(&self) -> usize {
        self.edges.iter().map(HashMap::len).sum()
    }

    /// Number of dependencies relieved by escape diversion.
    pub fn num_relieved(&self) -> usize {
        self.edges
            .iter()
            .flat_map(HashMap::values)
            .filter(|hard| !**hard)
            .count()
    }

    /// Proves the hard-dependency subgraph acyclic.
    ///
    /// # Errors
    /// `HN-E003` (`CyclicEscape`) when a cycle lies entirely on reserved
    /// escape channels (the escape subnetwork cannot drain), otherwise
    /// `HN-E002` (`CyclicDependency`); both name the channels on the cycle
    /// in dependency order, the last one depending on the first.
    pub fn check_acyclic(&self) -> Result<(), Diagnostic> {
        match self.find_cycle() {
            None => Ok(()),
            Some(cycle) => Err(self.cycle_diagnostic(&cycle)),
        }
    }

    /// The first cycle of hard dependencies a depth-first search meets, as
    /// channel indices in dependency order, or `None` when there is none.
    fn find_cycle(&self) -> Option<Vec<usize>> {
        // Deterministic adjacency order so the named cycle is stable.
        let adj: Vec<Vec<usize>> = self
            .edges
            .iter()
            .map(|m| {
                let mut hard: Vec<usize> =
                    m.iter().filter(|(_, &h)| h).map(|(&to, _)| to).collect();
                hard.sort_unstable();
                hard
            })
            .collect();

        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; self.num_channels];
        for start in 0..self.num_channels {
            if color[start] != WHITE {
                continue;
            }
            // Iterative DFS; the stack of `(channel, next-edge)` frames is
            // also the gray path used for cycle extraction.
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = GRAY;
            while let Some(&(node, next)) = stack.last() {
                if let Some(&to) = adj[node].get(next) {
                    stack.last_mut().expect("non-empty").1 += 1;
                    match color[to] {
                        WHITE => {
                            color[to] = GRAY;
                            stack.push((to, 0));
                        }
                        GRAY => {
                            let from = stack
                                .iter()
                                .position(|&(c, _)| c == to)
                                .expect("gray channel is on the stack");
                            return Some(stack[from..].iter().map(|&(c, _)| c).collect());
                        }
                        _ => {}
                    }
                } else {
                    color[node] = BLACK;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Resolves a channel index back to its named form.
    fn channel(&self, c: usize) -> CdgChannel {
        let link = match self.base.binary_search(&c) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let (src, dst) = self.link_ends[link];
        CdgChannel {
            link: LinkId(link),
            src,
            dst,
            vc: c - self.base[link],
        }
    }

    /// Names a cycle channel by channel, closing it on its first channel;
    /// the diagnostic anchors to that channel.
    fn cycle_diagnostic(&self, cycle: &[usize]) -> Diagnostic {
        let named: Vec<CdgChannel> = cycle.iter().map(|&c| self.channel(c)).collect();
        let (code, what) = if cycle.iter().all(|&c| self.escape_channel[c]) {
            (Code::CyclicEscape, "escape subnetwork is cyclic")
        } else {
            (Code::CyclicDependency, "cyclic channel dependency")
        };
        let first = named[0];
        let chain: Vec<String> = named
            .iter()
            .chain([&first])
            .map(ToString::to_string)
            .collect();
        Diagnostic::new(
            code,
            Span::Channel {
                link: first.link,
                vc: first.vc,
            },
            format!("{what} ({} channels): {}", named.len(), chain.join(" -> ")),
        )
    }
}

/// Transient walk state; borrows the graph under construction.
struct Builder<'a> {
    cdg: &'a mut Cdg,
    graph: &'a TopologyGraph,
    routing: &'a RoutingKind,
    escape: EscapeModel,
    /// `(router, src, dst)` escape continuations already expanded.
    escape_walked: HashSet<(RouterId, NodeId, NodeId)>,
}

impl Builder<'_> {
    /// Admissible VC range of `class` at a port with `vcs` VCs. Unlike
    /// [`VcClass::range`] this never panics: partitions that do not fit
    /// collapse to the whole port, exposing the cycles the partition would
    /// have broken.
    fn class_range(&self, class: VcClass, vcs: usize) -> (usize, usize) {
        match class {
            VcClass::Any => (0, vcs),
            VcClass::Dateline0 if vcs >= 2 => (0, vcs / 2),
            VcClass::Dateline1 if vcs >= 2 => (vcs / 2, vcs),
            VcClass::NonEscape if vcs >= 2 && self.escape == EscapeModel::ReservedTop => {
                (0, vcs - 1)
            }
            VcClass::Escape if vcs >= 2 && self.escape == EscapeModel::ReservedTop => {
                (vcs - 1, vcs)
            }
            _ => (0, vcs),
        }
    }

    fn add_edges(
        &mut self,
        from: (usize, (usize, usize)),
        to: (usize, (usize, usize)),
        hard: bool,
    ) {
        let (fl, (flo, fhi)) = from;
        let (tl, (tlo, thi)) = to;
        for fv in flo..fhi {
            let a = self.cdg.base[fl] + fv;
            for tv in tlo..thi {
                let b = self.cdg.base[tl] + tv;
                let e = self.cdg.edges[a].entry(b).or_insert(hard);
                *e |= hard;
            }
        }
    }

    /// Walks `src -> dst` through the routing function, adding a dependency
    /// from each traversed channel to its successor.
    fn walk(&mut self, src: NodeId, dst: NodeId, expedited: bool) -> Result<(), Diagnostic> {
        let bound = 2 * self.graph.num_routers() + 4;
        // Table dependencies are relieved by escape diversion; everything
        // else (plain X-Y traffic cannot divert) is hard.
        let relieved = expedited && self.escape == EscapeModel::ReservedTop;
        let mut cur = self.graph.attachment(src).router;
        let mut prev: Option<(usize, (usize, usize))> = None;
        let mut hops = 0;
        while let Some(choice) = self
            .routing
            .route(self.graph, cur, src, dst, expedited, false)
        {
            hops += 1;
            if hops > bound {
                return Err(route_diverges(src, dst, bound));
            }
            let link = self
                .graph
                .out_link(cur, choice.port)
                .expect("route() returns link ports");
            let range = self.class_range(choice.class, self.cdg.link_vcs[link.index()]);
            let here = (link.index(), range);
            if let Some(p) = prev {
                self.add_edges(p, here, !relieved);
            }
            cur = self.graph.links()[link.index()].dst;
            if relieved && cur != self.graph.attachment(dst).router {
                // A blocked head occupying `here` at `cur` may divert onto
                // the escape VC of the X-Y continuation; the diversion edge
                // and the escape subnetwork it enters must themselves drain,
                // so both are hard.
                self.walk_escape(here, cur, src, dst)?;
            }
            prev = Some(here);
        }
        Ok(())
    }

    /// Expands the escape (X-Y) continuation from router `at` towards
    /// `dst`, rooting it with a diversion edge out of `from`.
    fn walk_escape(
        &mut self,
        from: (usize, (usize, usize)),
        at: RouterId,
        src: NodeId,
        dst: NodeId,
    ) -> Result<(), Diagnostic> {
        let bound = 2 * self.graph.num_routers() + 4;
        let Some(first) = self.routing.escape_route(self.graph, at, src, dst) else {
            return Ok(());
        };
        let link = self
            .graph
            .out_link(at, first.port)
            .expect("escape route returns link ports");
        let range = self.class_range(first.class, self.cdg.link_vcs[link.index()]);
        self.add_edges(from, (link.index(), range), true);
        if !self.escape_walked.insert((at, src, dst)) {
            return Ok(());
        }
        let mut prev = (link.index(), range);
        let mut cur = self.graph.links()[link.index()].dst;
        let mut hops = 0;
        while let Some(choice) = self.routing.route(self.graph, cur, src, dst, true, true) {
            hops += 1;
            if hops > bound {
                return Err(route_diverges(src, dst, bound));
            }
            let link = self
                .graph
                .out_link(cur, choice.port)
                .expect("escape route returns link ports");
            let range = self.class_range(choice.class, self.cdg.link_vcs[link.index()]);
            let here = (link.index(), range);
            self.add_edges(prev, here, true);
            cur = self.graph.links()[link.index()].dst;
            prev = here;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc_noc::routing::RouteTable;
    use heteronoc_noc::topology::TopologyKind;
    use heteronoc_noc::types::RouterId;

    fn mesh(n: usize) -> TopologyGraph {
        TopologyKind::Mesh {
            width: n,
            height: n,
        }
        .build()
    }

    #[test]
    fn xy_mesh_is_acyclic() {
        let g = mesh(4);
        let cdg = Cdg::build(
            &g,
            &RoutingKind::DimensionOrder,
            &[3; 16],
            EscapeModel::None,
        )
        .unwrap();
        assert!(cdg.num_dependencies() > 0);
        assert_eq!(cdg.num_relieved(), 0);
        cdg.check_acyclic().unwrap();
    }

    #[test]
    fn dateline_torus_is_acyclic() {
        let g = TopologyKind::Torus {
            width: 4,
            height: 4,
        }
        .build();
        let cdg = Cdg::build(
            &g,
            &RoutingKind::DimensionOrder,
            &[2; 16],
            EscapeModel::None,
        )
        .unwrap();
        cdg.check_acyclic().unwrap();
    }

    #[test]
    fn torus_without_dateline_vcs_names_the_ring_cycle() {
        let g = TopologyKind::Torus {
            width: 4,
            height: 4,
        }
        .build();
        // One VC per port: the dateline classes collapse and the ring
        // dependency cycle must surface, channel-named.
        let cdg = Cdg::build(
            &g,
            &RoutingKind::DimensionOrder,
            &[1; 16],
            EscapeModel::None,
        )
        .unwrap();
        let cycle: Vec<CdgChannel> = cdg
            .find_cycle()
            .expect("the ring is cyclic")
            .into_iter()
            .map(|c| cdg.channel(c))
            .collect();
        assert!(cycle.len() >= 3, "ring cycle has at least the ring length");
        // Consecutive channels must chain through shared routers.
        for w in cycle.windows(2) {
            assert_eq!(w[0].dst, w[1].src, "cycle must chain: {cycle:?}");
        }
        assert_eq!(cycle.last().unwrap().dst, cycle[0].src, "cycle closes");

        // The diagnostic anchors to the first channel, names every channel
        // and closes back on the first.
        let d = cdg.check_acyclic().unwrap_err();
        assert_eq!(d.code, Code::CyclicDependency);
        assert_eq!(
            d.span,
            Span::Channel {
                link: cycle[0].link,
                vc: cycle[0].vc
            }
        );
        let prefix = format!("cyclic channel dependency ({} channels): ", cycle.len());
        assert!(d.message.starts_with(&prefix), "{}", d.message);
        for c in &cycle {
            assert!(d.message.contains(&c.to_string()), "{}", d.message);
        }
        assert!(
            d.message.ends_with(&format!(" -> {}", cycle[0])),
            "{}",
            d.message
        );
    }

    #[test]
    fn zigzag_table_with_escape_is_deadlock_free() {
        let g = mesh(4);
        let tbl = RouteTable::for_hubs(&g, &[RouterId(0), RouterId(15)]);
        let routing = RoutingKind::TableXy(tbl);
        let cdg = Cdg::build(&g, &routing, &[3; 16], EscapeModel::ReservedTop).unwrap();
        assert!(cdg.num_relieved() > 0, "table deps must be escape-relieved");
        cdg.check_acyclic().unwrap();
    }

    #[test]
    fn cyclic_route_table_without_escape_is_rejected() {
        let g = mesh(3);
        // Four L-shaped paths chasing each other around the centre:
        // r0->r2 via r1 (E,E then S? no: keep it on the outer ring).
        //   0 1 2
        //   3 4 5
        //   6 7 8
        let mut tbl = RouteTable::new();
        let p = |ids: &[usize]| ids.iter().map(|&i| RouterId(i)).collect::<Vec<_>>();
        tbl.insert(RouterId(0), RouterId(5), p(&[0, 1, 2, 5])); // E,E,S
        tbl.insert(RouterId(2), RouterId(7), p(&[2, 5, 8, 7])); // S,S,W
        tbl.insert(RouterId(8), RouterId(3), p(&[8, 7, 6, 3])); // W,W,N
        tbl.insert(RouterId(6), RouterId(1), p(&[6, 3, 0, 1])); // N,N,E
        let routing = RoutingKind::TableXy(tbl);
        // Without the escape reservation the four turns close a cycle.
        let cdg = Cdg::build(&g, &routing, &[2; 9], EscapeModel::None).unwrap();
        let cycle = cdg.find_cycle().expect("the four turns close a cycle");
        assert!(
            cycle.len() >= 4,
            "turn cycle spans the four sides: {cycle:?}"
        );
        let err = cdg.check_acyclic().unwrap_err();
        assert_eq!(err.code, Code::CyclicDependency, "{err}");
        // With the escape VC reserved, the same table verifies: the cycle
        // is entirely escape-relieved and the escape subnetwork is X-Y.
        let cdg = Cdg::build(&g, &routing, &[2; 9], EscapeModel::ReservedTop).unwrap();
        assert!(cdg.num_relieved() > 0);
        cdg.check_acyclic().unwrap();
    }

    #[test]
    fn table_on_torus_has_cyclic_escape() {
        let g = TopologyKind::Torus {
            width: 4,
            height: 4,
        }
        .build();
        let routing = RoutingKind::TableXy(RouteTable::for_hubs(&g, &[RouterId(0)]));
        // The single escape VC re-creates the ring cycle the datelines
        // otherwise break: escape diversion cannot guarantee progress.
        let cdg = Cdg::build(&g, &routing, &[3; 16], EscapeModel::ReservedTop).unwrap();
        let cycle = cdg.find_cycle().expect("the escape ring is cyclic");
        assert!(cycle.iter().all(|&c| cdg.channel(c).vc == 2), "{cycle:?}");
        let err = cdg.check_acyclic().unwrap_err();
        assert_eq!(err.code, Code::CyclicEscape, "{err}");
        assert!(
            err.message.starts_with("escape subnetwork is cyclic ("),
            "{err}"
        );
    }

    #[test]
    fn reserved_top_requires_two_vcs() {
        let g = mesh(2);
        let err = Cdg::build(
            &g,
            &RoutingKind::DimensionOrder,
            &[2, 2, 1, 2],
            EscapeModel::ReservedTop,
        )
        .unwrap_err();
        assert_eq!(
            err,
            Diagnostic::new(
                Code::MissingEscapeVc,
                Span::Router(RouterId(2)),
                "router r2 has 1 VC(s) per port; escape analysis needs >= 2"
            )
        );
    }
}
