//! Prints the solvability characterization (the paper's §1 summary) as a matrix over
//! corruption budgets, for every topology and cryptographic assumption — then
//! cross-checks the solvable region empirically with a parallel `bsm-engine` campaign.
//!
//! Run with `cargo run --example solvability_explorer -- [k]` (default k = 6).

use byzantine_stable_matching::core::problem::{AuthMode, Setting};
use byzantine_stable_matching::engine::{CampaignBuilder, CellOutcome, Executor};
use byzantine_stable_matching::{characterize, Solvability, Topology};

fn main() {
    let k: usize = std::env::args_os().nth(1).and_then(|a| a.to_str()?.parse().ok()).unwrap_or(6);
    println!("byzantine stable matching solvability for k = {k} (✓ solvable, · unsolvable)\n");
    for auth in AuthMode::ALL {
        for topology in Topology::ALL {
            println!("{auth}, {topology} network (rows tL = 0..{k}, columns tR = 0..{k}):");
            print!("      ");
            for t_r in 0..=k {
                print!("tR={t_r:<2} ");
            }
            println!();
            for t_l in 0..=k {
                print!("tL={t_l:<2} ");
                for t_r in 0..=k {
                    let setting = Setting::new(k, topology, auth, t_l, t_r)
                        .expect("bounds within the market size");
                    let mark = match characterize(&setting) {
                        Solvability::Solvable(_) => "✓",
                        Solvability::Unsolvable(_) => "·",
                    };
                    print!("{mark:<6}");
                }
                println!();
            }
            println!();
        }
    }
    println!("Conditions (Theorems 2–7):");
    println!("  unauthenticated fully-connected: tL < k/3 or tR < k/3");
    println!("  unauthenticated bipartite:       tL, tR < k/2 and (tL < k/3 or tR < k/3)");
    println!("  unauthenticated one-sided:       tR < k/2 and (tL < k/3 or tR < k/3)");
    println!("  authenticated fully-connected:   always");
    println!("  authenticated bipartite:         (tL, tR < k) or tL < k/3 or tR < k/3");
    println!("  authenticated one-sided:         tR < k or tL < k/3");

    // Empirical cross-check: run every solvable cell (at a small market size, with the
    // full corruption budget and each of the three adversary strategies) through the
    // campaign engine.
    let check_k = k.min(4);
    let campaign = CampaignBuilder::new()
        .sizes([check_k])
        .corruption_grid(check_k)
        .seeds(0..1)
        .skip_unsolvable(true)
        .build();
    let (report, stats) = Executor::new().run(&campaign);
    let clean = report
        .cells()
        .iter()
        .filter(|c| matches!(&c.outcome, CellOutcome::Completed(s) if s.violations == 0))
        .count();
    println!();
    println!(
        "empirical cross-check at k = {check_k}: {clean}/{} runs over the solvable cells \
         (3 adversary strategies each) finished without property violations",
        report.totals().scenarios
    );
    // Wall-clock throughput goes to stderr so stdout stays byte-identical across runs.
    eprintln!("[{stats}]");
}
