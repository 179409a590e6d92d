//! Experiment drivers: one module per table/figure of the paper's
//! evaluation (Section IV), plus ablations beyond the paper.
//!
//! Every driver returns a [`glocks_sim_base::table::TextTable`] (or several)
//! so the binary can render them to stdout / CSV, and EXPERIMENTS.md can be
//! regenerated by diffing the output.

pub mod ablation;
pub mod chaos;
pub mod exp;
pub mod faults;
pub mod fig1;
pub mod fuzz;
pub mod journal;
pub mod multiprog;
pub mod scale;
pub mod service;
pub mod sweep;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig10;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

pub use exp::{run_bench, try_run_bench, ExpOptions, RunSpec};
