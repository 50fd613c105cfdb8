//! Protocol (message-class) deadlock analysis — `HN-E010` / `HN-W004`.
//!
//! Routing deadlock freedom (the [`crate::cdg`] proof) is necessary but not
//! sufficient once endpoints generate *dependent* traffic: a home bank that
//! must send a forward before it can consume the next request couples
//! message classes through finite VC buffers, and a cycle *among classes*
//! deadlocks even a perfectly acyclic network. The classic fix is one
//! virtual network per class with an acyclic class-dependency (blocks-on)
//! graph (Dally & Towles ch. 14.3).
//!
//! This pass machine-checks the argument for a [`ProtocolModel`]:
//!
//! 1. The class blocks-on graph must be acyclic (else `HN-E010` naming the
//!    class chain — this is unconditional, no VC layout can fix it).
//! 2. If endpoints are **ideal sinks** (`endpoints_sink`, the shipped
//!    engine's contract: the requester reserved its MSHR at issue and the
//!    home's `MemData -> Data*` relay writes into pre-reserved space), a
//!    blocked endpoint never back-pressures the network, so class-DAG
//!    acyclicity plus the network CDG proof already run by the engine is
//!    sufficient and the pass stops here.
//! 3. Otherwise endpoints can block, and each class needs its own VC
//!    partition: routers with fewer VCs than classes get `HN-W004`
//!    (missing class separation), and each per-class VC slice must itself
//!    have an acyclic channel-dependency graph (else `HN-E010` naming the
//!    class whose subnetwork is cyclic — e.g. a torus class stripped of
//!    its dateline pair).

use heteronoc_cmp::msg::ProtocolClass;
use heteronoc_noc::config::NetworkConfig;
use heteronoc_noc::topology::TopologyGraph;
use heteronoc_noc::types::RouterId;

use crate::cdg::{Cdg, EscapeModel};
use crate::diag::{Code, Diagnostic, Span};

/// A coherence protocol abstracted to its message classes and the
/// blocks-on edges between them.
#[derive(Clone, Debug)]
pub struct ProtocolModel {
    /// Class names, in dependency-depth order.
    pub classes: Vec<String>,
    /// `(a, b)`: an endpoint processing a class-`a` message may block
    /// awaiting a class-`b` message.
    pub edges: Vec<(usize, usize)>,
    /// True when endpoints consume unconditionally (reserved MSHRs /
    /// pre-allocated reply space), so a blocked endpoint never
    /// back-pressures the network.
    pub endpoints_sink: bool,
}

impl ProtocolModel {
    /// The shipped directory-MESI protocol, derived from
    /// [`heteronoc_cmp::msg::ProtocolClass`]: Request -> {Forward,
    /// Response}, Forward -> Response, Response terminal; endpoints are
    /// ideal sinks (the engine reserves reply space at issue).
    pub fn mesi_directory() -> ProtocolModel {
        let classes = ProtocolClass::ALL
            .iter()
            .map(|c| c.name().to_owned())
            .collect();
        let mut edges = Vec::new();
        for c in ProtocolClass::ALL {
            for d in c.blocks_on() {
                edges.push((c.index(), d.index()));
            }
        }
        ProtocolModel {
            classes,
            edges,
            endpoints_sink: true,
        }
    }

    /// The same model with blocking endpoints: per-class VC separation
    /// becomes mandatory (used to model engines without reserved reply
    /// space, and by the lint fixtures).
    pub fn with_blocking_endpoints(mut self) -> ProtocolModel {
        self.endpoints_sink = false;
        self
    }

    /// Adds a blocks-on edge (builder for test fixtures / future
    /// protocols).
    pub fn with_edge(mut self, from: usize, to: usize) -> ProtocolModel {
        self.edges.push((from, to));
        self
    }

    /// Finds a cycle in the class blocks-on graph, returned as the chain
    /// of class indices (first == last), or `None` when acyclic.
    fn class_cycle(&self) -> Option<Vec<usize>> {
        let n = self.classes.len();
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            if a < n && b < n {
                adj[a].push(b);
            }
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        // Tiny graphs: recursive-free DFS with an explicit gray path.
        let mut color = vec![0u8; n];
        for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = 1;
            while let Some(&(node, next)) = stack.last() {
                if let Some(&to) = adj[node].get(next) {
                    stack.last_mut().expect("non-empty").1 += 1;
                    match color[to] {
                        0 => {
                            color[to] = 1;
                            stack.push((to, 0));
                        }
                        1 => {
                            let from = stack
                                .iter()
                                .position(|&(c, _)| c == to)
                                .expect("gray class is on the stack");
                            let mut cycle: Vec<usize> =
                                stack[from..].iter().map(|&(c, _)| c).collect();
                            cycle.push(to);
                            return Some(cycle);
                        }
                        _ => {}
                    }
                } else {
                    color[node] = 2;
                    stack.pop();
                }
            }
        }
        None
    }

    fn class_name(&self, i: usize) -> &str {
        self.classes.get(i).map_or("?", String::as_str)
    }
}

/// Splits `vcs` VCs into `classes` contiguous per-class slices (earlier
/// classes get the remainder). Slice sizes, not offsets: the CDG only
/// depends on counts.
fn class_slices(vcs: usize, classes: usize) -> Vec<usize> {
    (0..classes)
        .map(|i| vcs / classes + usize::from(i < vcs % classes))
        .collect()
}

/// Runs the protocol-deadlock analysis for `model` on `cfg`.
pub fn analyze_protocol(
    cfg: &NetworkConfig,
    graph: &TopologyGraph,
    model: &ProtocolModel,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    if let Some(cycle) = model.class_cycle() {
        let chain: Vec<&str> = cycle.iter().map(|&i| model.class_name(i)).collect();
        out.push(Diagnostic::new(
            Code::ProtocolCycle,
            Span::Config,
            format!(
                "message classes block on each other cyclically: {} — no VC \
                 layout can break an endpoint-level cycle",
                chain.join(" -> ")
            ),
        ));
        return out;
    }
    if model.endpoints_sink {
        // Ideal sinks: class-DAG acyclicity plus the network CDG proof
        // (run separately by the engine) is the whole argument.
        return out;
    }

    // Blocking endpoints: every class needs its own VC slice.
    let k = model.classes.len();
    let thin: Vec<RouterId> = cfg
        .routers
        .iter()
        .enumerate()
        .filter(|(_, r)| r.vcs_per_port < k)
        .map(|(i, _)| RouterId(i))
        .collect();
    if let Some(&first) = thin.first() {
        out.push(Diagnostic::new(
            Code::MissingClassSeparation,
            Span::Router(first),
            format!(
                "{} router(s) (first: {first}) have fewer VCs per port than \
                 the {k} message classes the protocol needs when endpoints \
                 can block; classes will share buffers and `HN-E010` cannot \
                 be proven",
                thin.len()
            ),
        ));
        return out;
    }

    // Per-class subnetwork proof: class i gets slice i of every port.
    for class in 0..k {
        let vcs: Vec<usize> = cfg
            .routers
            .iter()
            .map(|r| class_slices(r.vcs_per_port, k)[class])
            .collect();
        let escape = if cfg.routing.reserves_escape_vc() && vcs.iter().all(|&v| v >= 2) {
            EscapeModel::ReservedTop
        } else {
            EscapeModel::None
        };
        let verdict =
            Cdg::build(graph, &cfg.routing, &vcs, escape).and_then(|cdg| cdg.check_acyclic());
        if let Err(d) = verdict {
            out.push(Diagnostic::new(
                Code::ProtocolCycle,
                Span::Config,
                format!(
                    "virtual network of class {} ({} VC(s) per port at its \
                     thinnest) is not deadlock-free on its own: {}",
                    model.class_name(class),
                    vcs.iter().min().copied().unwrap_or(0),
                    d.message,
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteronoc_noc::config::{NetworkConfig, RouterCfg};
    use heteronoc_noc::topology::TopologyKind;
    use heteronoc_noc::types::Bits;

    fn baseline() -> (NetworkConfig, TopologyGraph) {
        let cfg = NetworkConfig::paper_baseline();
        let g = cfg.build_graph();
        (cfg, g)
    }

    #[test]
    fn mesi_class_graph_is_acyclic_and_sinks() {
        let (cfg, g) = baseline();
        let model = ProtocolModel::mesi_directory();
        assert!(model.class_cycle().is_none());
        assert!(analyze_protocol(&cfg, &g, &model).is_empty());
    }

    #[test]
    fn cyclic_class_graph_is_e010() {
        let (cfg, g) = baseline();
        // Response -> Request closes the loop.
        let model = ProtocolModel::mesi_directory().with_edge(2, 0);
        let diags = analyze_protocol(&cfg, &g, &model);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::ProtocolCycle);
        assert!(
            diags[0].message.contains("Response"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn blocking_endpoints_with_thin_routers_is_w004() {
        let (cfg, g) = baseline();
        let mut cfg = cfg;
        cfg.routers = vec![
            RouterCfg {
                vcs_per_port: 2,
                buffer_depth: 5
            };
            64
        ];
        let model = ProtocolModel::mesi_directory().with_blocking_endpoints();
        let diags = analyze_protocol(&cfg, &g, &model);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::MissingClassSeparation);
    }

    #[test]
    fn blocking_endpoints_on_baseline_mesh_prove_per_class() {
        // 3 VCs, 3 classes: one VC per class, X-Y mesh per-class CDGs are
        // acyclic, so blocking endpoints are still provably safe here.
        let (cfg, g) = baseline();
        let model = ProtocolModel::mesi_directory().with_blocking_endpoints();
        assert!(analyze_protocol(&cfg, &g, &model).is_empty());
    }

    #[test]
    fn torus_class_slices_lose_their_datelines() {
        // 3 VCs over 3 classes on a torus leaves 1 VC per class: the
        // dateline pair collapses inside every slice and each class
        // re-creates the ring cycle.
        let cfg = NetworkConfig::homogeneous(
            TopologyKind::Torus {
                width: 4,
                height: 4,
            },
            RouterCfg::BASELINE,
            Bits(192),
            2.2,
        );
        let g = cfg.build_graph();
        let model = ProtocolModel::mesi_directory().with_blocking_endpoints();
        let diags = analyze_protocol(&cfg, &g, &model);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.code == Code::ProtocolCycle));
    }

    #[test]
    fn slices_partition_the_port() {
        assert_eq!(class_slices(3, 3), vec![1, 1, 1]);
        assert_eq!(class_slices(8, 3), vec![3, 3, 2]);
        assert_eq!(class_slices(2, 3), vec![1, 1, 0]);
        for (v, k) in [(3, 3), (8, 3), (6, 2), (1, 1)] {
            assert_eq!(class_slices(v, k).iter().sum::<usize>(), v);
        }
    }
}
