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

/// `println!` that ignores write errors: a closed stdout (`solvability_matrix | head`)
/// must not panic a binary into exit 101. A reader that stops reading has seen what it
/// wanted; the artifacts and the exit code are the product.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// `eprintln!` that ignores write errors, for the same reason as [`outln!`].
#[macro_export]
macro_rules! errln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

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
