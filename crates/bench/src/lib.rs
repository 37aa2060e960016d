//! # capellini-bench
//!
//! The evaluation harness: regenerates every table and figure of the paper
//! plus the simulated supplementary studies (see DESIGN.md §3 for the
//! experiment index). The `repro` binary drives the experiments. Host
//! wall-clock is measured by `perfbench/`, not here.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod runner;
pub mod tables;
