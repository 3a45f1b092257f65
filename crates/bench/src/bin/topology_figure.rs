//! Experiment E2 — Fig. 1 of the paper: the three communication topologies, printed as
//! adjacency matrices together with their channel counts.
//!
//! Usage: `topology_figure [k]`

use bsm_bench::{outln, BenchArgs};
use bsm_net::{PartyId, PartySet, Topology};

fn main() {
    let k = BenchArgs::parse("topology_figure").warn_unknown().k_or(3);
    let parties: Vec<PartyId> = PartySet::new(k).iter().collect();
    outln!("# E2 — Fig. 1: communication topologies (k = {k})\n");
    for topology in Topology::ALL {
        outln!("## {topology} ({} channels)\n", topology.channel_count(k));
        let header: String = parties.iter().map(|p| format!("{p:>4}")).collect();
        outln!("     {header}");
        for a in &parties {
            let cells: String = parties
                .iter()
                .map(|b| {
                    if a == b {
                        "  · "
                    } else if topology.connects(*a, *b) {
                        "  ■ "
                    } else {
                        "  . "
                    }
                })
                .collect();
            outln!("{a:>4} {cells}");
        }
        outln!();
    }
    outln!("■ = bidirectional authenticated channel, . = no channel, · = self");
    outln!("The matching is always across the two sides, regardless of the topology.");
}
