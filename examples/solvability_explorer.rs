//! Prints the solvability characterization (the paper's §1 summary) as a matrix over
//! corruption budgets, for every topology and cryptographic assumption — then
//! cross-checks the solvable region empirically with a parallel `bsm-engine` campaign.
//!
//! Run with `cargo run --example solvability_explorer -- [k]` (default k = 6; any
//! argument that is not an integer in `1..=MAX_K` is reported and the default used).

use byzantine_stable_matching::core::problem::{AuthMode, Setting, MAX_K};
use byzantine_stable_matching::engine::{CampaignBuilder, CellOutcome, Executor};
use byzantine_stable_matching::{characterize, Solvability, Topology};

const DEFAULT_K: usize = 6;

fn main() {
    let k = match std::env::args_os().nth(1) {
        None => DEFAULT_K,
        Some(arg) => match arg.to_str().and_then(|a| a.parse::<usize>().ok()) {
            Some(k) if (1..=MAX_K).contains(&k) => k,
            _ => {
                eprintln!(
                    "warning: ignoring argument {arg:?} (k must be an integer in \
                     1..={MAX_K}); using k = {DEFAULT_K}"
                );
                DEFAULT_K
            }
        },
    };
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
