//! Experiments E6–E8 and E11 — protocol cost tables: rounds (slots), messages and
//! signatures as a function of the market size for every protocol plan, plus the
//! Dolev–Strong versus committee-broadcast ablation.
//!
//! Every table is a small explicit campaign run on the `bsm-engine` executor, so the
//! rows of all four tables are computed in parallel while printing stays in canonical
//! order.
//!
//! Usage: `cost_tables [--threads N]`

use bsm_bench::{outln, row, separator, BenchArgs};
use bsm_core::harness::AdversarySpec;
use bsm_core::problem::AuthMode;
use bsm_engine::{Campaign, CellRecord, Executor};
use bsm_net::Topology;

fn table(title: &str, rows: Vec<Vec<String>>, header: &[&str]) {
    outln!("## {title}\n");
    outln!("{}", row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    outln!("{}", separator(header.len()));
    for r in rows {
        outln!("{}", row(&r));
    }
    outln!();
}

/// Renders one completed campaign cell as a cost-table row.
fn cost_row(record: &CellRecord, with_topology: bool) -> Vec<String> {
    let spec = &record.spec;
    let stats = record.outcome.stats().expect("cost-table cells are solvable and run");
    let mut cells = vec![
        spec.k.to_string(),
        spec.t_l.to_string(),
        spec.t_r.to_string(),
        stats.plan.to_string(),
        stats.slots.to_string(),
        stats.messages.to_string(),
        stats.signatures.to_string(),
        stats.violations.to_string(),
    ];
    if with_topology {
        cells.insert(3, spec.topology.to_string());
    }
    cells
}

fn run(executor: &Executor, specs: Vec<bsm_engine::ScenarioSpec>) -> Vec<CellRecord> {
    let (report, _) = executor.run(&Campaign::from_specs(specs));
    report.cells().to_vec()
}

fn main() {
    let args = BenchArgs::parse("cost_tables").warn_unknown();
    let executor = args.executor();
    let header = ["k", "tL", "tR", "plan", "slots", "messages", "signatures", "violations"];
    let spec = |k: usize, topology, auth, t_l, t_r, adversary, seed| bsm_engine::ScenarioSpec {
        k,
        topology,
        auth,
        t_l,
        t_r,
        adversary,
        faults: bsm_net::FaultSpec::NONE,
        seed,
    };

    // E6: authenticated fully-connected (Dolev-Strong plan), crash faults at budget.
    let specs = [2usize, 3, 4, 5, 6]
        .into_iter()
        .map(|k| {
            let t = k / 2;
            spec(
                k,
                Topology::FullyConnected,
                AuthMode::Authenticated,
                t,
                t,
                AdversarySpec::Crash,
                60 + k as u64,
            )
        })
        .collect();
    let rows = run(&executor, specs).iter().map(|r| cost_row(r, false)).collect();
    table("E6 — Dolev-Strong bSM, authenticated fully-connected network", rows, &header);

    // E7: unauthenticated plans with and without relays.
    let mut specs = Vec::new();
    for k in [3usize, 4, 5, 6] {
        let t_small = (k - 1) / 3;
        for topology in [Topology::FullyConnected, Topology::OneSided, Topology::Bipartite] {
            specs.push(spec(
                k,
                topology,
                AuthMode::Unauthenticated,
                t_small,
                t_small,
                AdversarySpec::Lying,
                70 + k as u64,
            ));
        }
    }
    let rows = run(&executor, specs).iter().map(|r| cost_row(r, true)).collect();
    table(
        "E7 — committee-broadcast bSM, unauthenticated networks (relay overhead visible across topologies)",
        rows,
        &["k", "tL", "tR", "topology", "plan", "slots", "messages", "signatures", "violations"],
    );

    // E8: ΠbSM with a fully byzantine right side.
    let specs = [4usize, 5, 6, 7]
        .into_iter()
        .map(|k| {
            let t_l = (k - 1) / 3;
            spec(
                k,
                Topology::Bipartite,
                AuthMode::Authenticated,
                t_l,
                k,
                AdversarySpec::Lying,
                80 + k as u64,
            )
        })
        .collect();
    let rows = run(&executor, specs).iter().map(|r| cost_row(r, false)).collect();
    table(
        "E8 — ΠbSM (Lemma 9), bipartite authenticated, fully byzantine right side",
        rows,
        &header,
    );

    // E11: ablation — Dolev-Strong vs committee broadcast at identical budgets in the
    // authenticated full mesh (both are valid plans there).
    let mut specs = Vec::new();
    for k in [4usize, 6, 8] {
        let t = (k - 1) / 3;
        specs.push(spec(
            k,
            Topology::FullyConnected,
            AuthMode::Authenticated,
            t,
            t,
            AdversarySpec::Crash,
            110 + k as u64,
        ));
        specs.push(spec(
            k,
            Topology::FullyConnected,
            AuthMode::Unauthenticated,
            t,
            t,
            AdversarySpec::Crash,
            111 + k as u64,
        ));
    }
    let rows = run(&executor, specs).iter().map(|r| cost_row(r, false)).collect();
    table(
        "E11 — ablation: Dolev-Strong (authenticated) vs committee broadcast (unauthenticated) at equal budgets",
        rows,
        &header,
    );
}
