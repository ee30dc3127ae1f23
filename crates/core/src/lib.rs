//! FlexFlow core: the SOAP search space, the execution simulator, and the
//! MCMC execution optimizer (the paper's primary contribution).
//!
//! The pipeline mirrors Fig. 2 of the paper:
//!
//! ```text
//!   OpGraph + Topology
//!         |
//!         v
//!   ExecutionOptimizer (MCMC over SOAP strategies)          §6
//!         |      ^
//!  candidate     | simulated cost
//!         v      |
//!   ExecutionSimulator (task graph; full / delta algorithm)  §5
//!         |
//!         v
//!   best discovered Strategy  ->  distributed runtime (flexflow-runtime)
//! ```
//!
//! # Quickstart
//!
//! ```
//! use flexflow_core::{Budget, SearchRequest, SimConfig, Strategy};
//! use flexflow_costmodel::MeasuredCostModel;
//! use flexflow_device::clusters;
//! use flexflow_opgraph::zoo;
//!
//! let graph = zoo::lenet(64);
//! let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
//! let cost = MeasuredCostModel::paper_default();
//!
//! let dp = Strategy::data_parallel(&graph, &topo);
//! let result = SearchRequest::new(0xF1EF).chains(1).run(
//!     &graph,
//!     &topo,
//!     &cost,
//!     &[dp],
//!     Budget::evaluations(200),
//!     SimConfig::default(),
//! );
//! assert!(result.best_cost_us > 0.0);
//! ```
//!
//! # Transactional proposal evaluation
//!
//! The search evaluates every [`Proposal`] through [`Simulator`]'s
//! speculative `apply` / `commit` / `rollback` API. The contract: every
//! `apply` opens one transaction on the task graph and the timeline, each
//! graph mutation journals the *first-touch* prior state of whatever it
//! overwrites, the timeline is re-swept while the previous one is kept
//! aside, and `rollback` replays the graph journal backwards, moves the
//! previous timeline back and applies the proposal's inverse to the
//! strategy — restoring graph, timeline and strategy
//! **bit-for-bit** (pinned by the `rollback_restores_*` tests). Rejected
//! MCMC proposals therefore cost one op's rebuild plus one sweep instead of
//! a whole-graph rebuild.
//!
//! # Memory as a search constraint
//!
//! [`memory`] estimates each device's peak bytes (weights + optimizer
//! state + live activations) and [`memory::check_budget`] verdicts a
//! strategy against per-device budgets; the search penalizes infeasible
//! proposals and the per-op recompute bit ([`Strategy::recompute`])
//! trades forward FLOPs for activation memory.

#![deny(missing_docs)]
pub mod exhaustive;
pub mod memory;
pub mod metrics;
pub mod optimizer;
pub mod sim;
pub mod soap;
pub mod strategy;
pub mod strategy_io;
pub mod taskgraph;

pub use exhaustive::{ExhaustiveOutcome, ExhaustiveSearch};
pub use metrics::SimMetrics;
pub use optimizer::{
    default_chains, split_budget, AcceptanceRule, Budget, SearchRequest, SearchResult,
    SharedBestCost, SimAlgorithm,
};
pub use sim::{Proposal, SimConfig, SimState, Simulator};
pub use soap::{ConfigSpace, ParallelConfig, ParamSync, SyncPlan};
pub use strategy::Strategy;
pub use taskgraph::{ExecUnit, Task, TaskGraph, TaskId, TaskKind};
