//! Case study II in miniature (§7): an asymmetric CMP — four large
//! out-of-order cores at the corners running a latency-sensitive workload
//! (libquantum) among sixty small in-order cores running SPECjbb — on the
//! homogeneous network, the heterogeneous network, and the heterogeneous
//! network with table-based routing for the large cores' packets.
//!
//! ```sh
//! cargo run --release -p heteronoc-examples --bin asymmetric_cmp
//! ```

use heteronoc::noc::types::{NodeId, RouterId};
use heteronoc::traffic::workloads::{Benchmark, SyntheticWorkload};
use heteronoc::traffic::TraceSource;
use heteronoc::{mesh_config, mesh_config_with_table, Layout};
use heteronoc_cmp::{CmpConfig, CmpSystem, CoreParams};

const LARGE: [usize; 4] = [0, 7, 56, 63];
const REFS: u64 = 800;

fn traces() -> Vec<Box<dyn TraceSource + Send>> {
    (0..64)
        .map(|i| {
            let bench = if LARGE.contains(&i) {
                Benchmark::Libquantum
            } else {
                Benchmark::SpecJbb
            };
            Box::new(SyntheticWorkload::new(bench, i, 7, REFS)) as Box<dyn TraceSource + Send>
        })
        .collect()
}

fn main() {
    println!("asymmetric CMP: 4 large corner cores (libquantum) + 60 small (SPECjbb)\n");
    println!(
        "{:<24}{:>12}{:>12}{:>12}",
        "network", "large IPC", "small IPC", "cycles"
    );
    let configs: Vec<(&str, heteronoc::noc::NetworkConfig, bool)> = vec![
        ("HomoNoC-XY", mesh_config(&Layout::Baseline), false),
        ("HeteroNoC-XY", mesh_config(&Layout::DiagonalBL), false),
        (
            "HeteroNoC-Table+XY",
            mesh_config_with_table(&Layout::DiagonalBL, &LARGE.map(RouterId)),
            true,
        ),
    ];
    for (name, net_cfg, expedited) in configs {
        let mut cfg = CmpConfig::paper_defaults(net_cfg);
        if expedited {
            cfg.expedited_nodes = LARGE.iter().map(|&n| NodeId(n)).collect();
        }
        let params: Vec<CoreParams> = (0..64)
            .map(|i| {
                if LARGE.contains(&i) {
                    CoreParams::OUT_OF_ORDER
                } else {
                    CoreParams::IN_ORDER
                }
            })
            .collect();
        let mut sys = CmpSystem::new(cfg, params, traces());
        sys.prewarm(traces());
        let cycles = sys.run(20_000_000);
        let ipcs = sys.ipcs();
        let large: f64 = LARGE.iter().map(|&i| ipcs[i]).sum::<f64>() / 4.0;
        let small: f64 = (0..64)
            .filter(|i| !LARGE.contains(i))
            .map(|i| ipcs[i])
            .sum::<f64>()
            / 60.0;
        println!("{name:<24}{large:>12.3}{small:>12.3}{cycles:>12}");
    }
    println!("\nTable routing steers large-core packets along the big diagonal routers");
    println!("(paper Fig. 14); full metrics: heteronoc experiment fig14_asymmetric");
}
