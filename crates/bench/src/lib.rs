//! Shared helpers for the experiment binaries and `campaign_ctl`.
//!
//! Every table and figure of the paper is regenerated by one of the binaries in
//! `src/bin/` (README's "Benchmarks and experiments" section indexes them). Their
//! outputs are deterministic; wall-clock cost is measured by the repository benchmark
//! in `perfbench/`, not here.

pub mod cli;
pub mod exit;

pub use cli::BenchArgs;
pub use exit::{CtlCode, CtlError};

/// Formats a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Formats a markdown-style header separator with `n` columns.
pub fn separator(n: usize) -> String {
    format!("|{}", "---|".repeat(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_helpers() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
        assert_eq!(separator(2), "|---|---|");
    }
}
