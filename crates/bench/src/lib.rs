//! The paper's reports: one bin per table, figure or in-text result (see
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for recorded
//! results). Performance is judged by the `benchmark/` package; behaviour
//! by the tests.

#![warn(missing_docs)]

pub mod harness;
