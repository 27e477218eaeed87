//! # scalpel-bench — experiment harness
//!
//! Regenerates every table and figure of the (reconstructed) evaluation —
//! see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
//! recorded results. The `experiments` binary dispatches one experiment per
//! subcommand (`t1`, `t2`, `t3`, `f4` … `f18`, `a1`, or `all`). Speed is
//! measured by the separate `e2ebench` workspace (`e2ebench/BENCHMARK.md`),
//! and the release-mode speed floors live in `tests/release_gates.rs`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod harness;
pub mod table;

pub use harness::{compare_methods, MethodRow};
pub use table::Table;
