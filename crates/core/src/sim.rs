//! The execution simulator (paper §5): the full simulation algorithm
//! (Algorithm 1) and the transactional timeline update that evaluates
//! search proposals.
//!
//! The simulator fills in the simulation-time task properties of paper
//! Table 2 (`readyTime`, `startTime`, `endTime`, and the per-device FIFO
//! order giving `preTask`/`nextTask`) and returns the predicted
//! per-iteration execution time (the latest `endTime`). The FIFO
//! tie-break is `(readyTime, seq)` where `seq` is a pure function of the
//! task's identity, so the simulated cost of a strategy does not depend on
//! the proposal history that produced its task graph.
//!
//! # Delta simulation
//!
//! The paper's delta simulation (§5.3, Algorithm 2) has two halves:
//! rebuild only the changed op's tasks, then repair only the affected part
//! of the timeline. This crate keeps the first half — the journaled
//! [`TaskGraph::rebuild_op`] / [`TaskGraph::rebuild_layer_sync`] /
//! [`TaskGraph::rebuild_all`] surgery — and deliberately does **not**
//! reproduce the incremental timeline repair: every proposal's timeline is
//! one [`simulate_full`] sweep of the already-rebuilt graph. Measured on
//! the benchmark workloads, the repair fell through to a full sweep on
//! 91–94 % of proposals and lost to a fresh sweep at p50, mean and tail
//! (DESIGN.md, "Delta simulation"), while the task-graph rebuild is where
//! the delta win lives. The delta timeline therefore equals the full
//! simulation's by construction.

use crate::metrics::DeltaTelemetry;
use crate::soap::{ParallelConfig, ParamSync};
use crate::strategy::Strategy;
use crate::taskgraph::{ExecUnit, RebuildReport, TaskGraph, TaskId};
use flexflow_opgraph::OpId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

pub use crate::taskgraph::SimConfig;

/// Order key of the ready queue.
///
/// Times are finite and non-negative, so `f64::to_bits` is order-preserving.
fn key(ready: f64, seq: u128) -> (u64, u128) {
    debug_assert!(ready >= 0.0 && ready.is_finite());
    (ready.to_bits(), seq)
}

/// Simulation-time state: per-task times and per-unit execution order.
///
/// Supports transactions mirroring [`TaskGraph::begin_txn`]: the first
/// timeline update inside a transaction ([`simulate_delta_with`]) moves the
/// `begin_txn` timeline aside whole, [`SimState::commit_txn`] drops it and
/// [`SimState::rollback_txn`] moves it back.
#[derive(Debug, Clone, Default)]
pub struct SimState {
    ready: Vec<f64>,
    start: Vec<f64>,
    end: Vec<f64>,
    /// Unit each simulated slot ran on (`None` for free slots).
    unit_of: Vec<Option<ExecUnit>>,
    /// Execution order per unit, in dispatch order.
    unit_order: HashMap<ExecUnit, Vec<TaskId>>,
    makespan: f64,
    /// Always 0. The timeline update is a plain sweep with no fallback
    /// path; the field stays for callers written against the incremental
    /// repair this crate no longer has.
    pub fallbacks: u64,
    /// `Some(pre)` while a transaction is open, where `pre` is the
    /// `begin_txn` timeline once the transaction's first sweep has moved
    /// it aside (`None` before that).
    txn: Option<Option<Box<SimState>>>,
}

/// Equality over the logical timeline (times, FIFO orders, makespan,
/// fallback count). The open transaction is excluded.
impl PartialEq for SimState {
    fn eq(&self, other: &Self) -> bool {
        self.makespan == other.makespan
            && self.fallbacks == other.fallbacks
            && self.ready == other.ready
            && self.start == other.start
            && self.end == other.end
            && self.unit_of == other.unit_of
            && self.unit_order == other.unit_order
    }
}

impl SimState {
    /// Opens a transaction: the next [`simulate_delta_with`] keeps the
    /// current timeline until [`SimState::commit_txn`] or
    /// [`SimState::rollback_txn`].
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    pub fn begin_txn(&mut self) {
        assert!(self.txn.is_none(), "timeline txn already open");
        self.txn = Some(None);
    }

    /// Closes the open transaction, keeping the new timeline.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit_txn(&mut self) {
        assert!(self.txn.take().is_some(), "no timeline txn open");
    }

    /// Closes the open transaction, restoring the timeline to its exact
    /// `begin_txn` state.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn rollback_txn(&mut self) {
        if let Some(pre) = self.txn.take().expect("no timeline txn open") {
            *self = *pre;
        }
    }

    /// Replaces the timeline with a sweep of `tg` and returns its
    /// makespan. Inside a transaction the first sweep keeps the replaced
    /// timeline for rollback; later ones drop theirs.
    fn resweep(&mut self, tg: &TaskGraph) -> f64 {
        let txn = self.txn.take();
        let old = std::mem::replace(self, simulate_full(tg));
        self.txn = txn.map(|pre| pre.or_else(|| Some(Box::new(old))));
        self.makespan
    }

    /// The simulated per-iteration execution time in microseconds.
    pub fn makespan_us(&self) -> f64 {
        self.makespan
    }

    /// `(readyTime, startTime, endTime)` of a task.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never simulated.
    pub fn times(&self, id: TaskId) -> (f64, f64, f64) {
        assert!(
            self.unit_of[id.index()].is_some(),
            "task {id} is not scheduled"
        );
        (
            self.ready[id.index()],
            self.start[id.index()],
            self.end[id.index()],
        )
    }

    /// The execution order of a unit (empty if the unit never ran a task).
    pub fn order(&self, unit: ExecUnit) -> Vec<TaskId> {
        self.unit_order.get(&unit).cloned().unwrap_or_default()
    }

    /// All units that executed at least one task.
    pub fn units(&self) -> impl Iterator<Item = ExecUnit> + '_ {
        self.unit_order.keys().copied()
    }
}

/// The full simulation algorithm (paper Algorithm 1): a Dijkstra-style
/// sweep that dequeues tasks in `(readyTime, seq)` order and appends each
/// to its device's FIFO.
pub fn simulate_full(tg: &TaskGraph) -> SimState {
    let cap = tg.capacity();
    let mut state = SimState {
        ready: vec![0.0; cap],
        start: vec![0.0; cap],
        end: vec![0.0; cap],
        unit_of: vec![None; cap],
        ..SimState::default()
    };
    let mut remaining: Vec<usize> = vec![0; cap];
    let mut heap: BinaryHeap<Reverse<((u64, u128), TaskId)>> = BinaryHeap::new();
    for (id, t) in tg.iter() {
        remaining[id.index()] = t.preds.len();
        if t.preds.is_empty() {
            heap.push(Reverse((key(0.0, t.seq), id)));
        }
    }
    let mut processed = 0usize;
    while let Some(Reverse((_, id))) = heap.pop() {
        let t = tg.task(id);
        let i = id.index();
        let order = state.unit_order.entry(t.unit).or_default();
        let free_at = order.last().map_or(0.0, |pre| state.end[pre.index()]);
        let start = state.ready[i].max(free_at);
        let end = start + t.exe_us;
        order.push(id);
        state.start[i] = start;
        state.end[i] = end;
        state.unit_of[i] = Some(t.unit);
        state.makespan = state.makespan.max(end);
        processed += 1;
        for &s in &t.succs {
            let si = s.index();
            state.ready[si] = state.ready[si].max(end);
            remaining[si] -= 1;
            if remaining[si] == 0 {
                heap.push(Reverse((key(state.ready[si], tg.task(s).seq), s)));
            }
        }
    }
    assert_eq!(
        processed,
        tg.num_tasks(),
        "task graph has a cycle or dangling dependency"
    );
    state
}

/// Per-call telemetry of [`simulate_delta_with`], kept for callers written
/// against the incremental timeline repair. Both fields are constant after
/// a call.
#[derive(Debug, Default)]
pub struct DeltaScratch {
    /// Always 0: the timeline update takes no incremental repair steps.
    pub last_repair_steps: u64,
    /// Always `true`: every timeline update is a full sweep.
    pub last_was_sweep: bool,
}

/// The timeline half of delta simulation: replaces `state` with a
/// [`simulate_full`] sweep of the already-rebuilt `tg` and returns the new
/// makespan. `report` is unused — the sweep needs no record of what the
/// rebuild changed.
///
/// When `state` has an open transaction (see [`SimState::begin_txn`]), the
/// first call keeps the `begin_txn` timeline so
/// [`SimState::rollback_txn`] can move it back.
pub fn simulate_delta_with(
    tg: &TaskGraph,
    state: &mut SimState,
    _report: &RebuildReport,
    scratch: &mut DeltaScratch,
) -> f64 {
    scratch.last_repair_steps = 0;
    scratch.last_was_sweep = true;
    state.resweep(tg)
}

/// Convenience owner tying together a strategy, its task graph and its
/// timeline; the execution optimizer drives the search through this.
///
/// Proposal evaluation is **transactional**: each [`Simulator::apply`]
/// opens a transaction on both the task graph and the timeline, rebuilds the
/// changed tasks under the graph's undo journal and re-sweeps the
/// timeline. [`Simulator::commit`] keeps the result (dropping the journal
/// and the previous timeline); [`Simulator::rollback`] replays the graph
/// journal backwards and moves the previous timeline back, restoring
/// graph, timeline and strategy bit-for-bit — no second rebuild, no
/// structure clone. Rejected proposals dominate an MCMC walk, so this is
/// the hot path of the whole search.
///
/// # Threading contract
///
/// A `Simulator` is `Send` — the search driver
/// ([`crate::optimizer::SearchRequest`]) constructs one *per chain*
/// inside each worker thread over shared `&OpGraph` / `&Topology` /
/// `&dyn CostModel` borrows (the [`flexflow_costmodel::CostModel`] trait
/// requires `Send + Sync`, so the cost oracle may be queried from many
/// chains at once). The mutable transaction state (task graph, timeline,
/// undo journal) is all owned, and every mutating method takes
/// `&mut self`, so cross-thread *sharing* of one simulator is ruled out by
/// the borrow checker rather than by convention: one simulator, one chain,
/// one thread at a time.
pub struct Simulator<'a> {
    graph: &'a flexflow_opgraph::OpGraph,
    topo: &'a flexflow_device::Topology,
    cost: &'a dyn flexflow_costmodel::CostModel,
    cfg: SimConfig,
    strategy: Strategy,
    tg: TaskGraph,
    state: SimState,
    /// The inverse of the open speculative proposal.
    txn: Option<Proposal>,
    telemetry: DeltaTelemetry,
}

/// One step of the search's proposal distribution (paper §6.2 plus the
/// three optional axes): one op's configuration is replaced, the
/// strategy-wide microbatch count changes, one op's parameter-sync mode
/// changes, or one op's activation-recompute bit is set.
#[derive(Debug, Clone, PartialEq)]
pub enum Proposal {
    /// Replace one op's parallelization configuration.
    Config(OpId, ParallelConfig),
    /// Set the strategy's microbatch count.
    Microbatches(u64),
    /// Set one op's parameter-sync mode (effective on the mode source of
    /// its layer, see [`crate::soap::sync_ops`]).
    ParamSync(OpId, ParamSync),
    /// Set one op's activation-recompute bit.
    Recompute(OpId, bool),
}

impl Proposal {
    /// Applies the proposal to `strategy` and returns its inverse: the
    /// proposal of the same kind that restores the replaced value.
    pub fn apply_to(self, strategy: &mut Strategy) -> Proposal {
        match self {
            Proposal::Config(op, config) => Proposal::Config(op, strategy.replace(op, config)),
            Proposal::Microbatches(m) => Proposal::Microbatches(strategy.set_microbatches(m)),
            Proposal::ParamSync(op, mode) => {
                Proposal::ParamSync(op, strategy.set_param_sync(op, mode))
            }
            Proposal::Recompute(op, on) => Proposal::Recompute(op, strategy.set_recompute(op, on)),
        }
    }
}

impl<'a> Simulator<'a> {
    /// Builds the task graph for `strategy` and runs a full simulation.
    ///
    /// Building is the expensive part (a full task-graph materialization
    /// plus a sweep), so a search chain constructs its simulator once and
    /// drives it transactionally; dropping the result to rebuild per
    /// proposal forfeits the delta path entirely.
    #[must_use = "building a Simulator runs a full simulation; drive it instead of discarding it"]
    pub fn new(
        graph: &'a flexflow_opgraph::OpGraph,
        topo: &'a flexflow_device::Topology,
        cost: &'a dyn flexflow_costmodel::CostModel,
        cfg: SimConfig,
        strategy: Strategy,
    ) -> Self {
        let tg = TaskGraph::build(graph, topo, &strategy, cost, &cfg);
        let state = simulate_full(&tg);
        Self {
            graph,
            topo,
            cost,
            cfg,
            strategy,
            tg,
            state,
            txn: None,
            telemetry: DeltaTelemetry::default(),
        }
    }

    /// The operator graph being parallelized.
    pub fn graph(&self) -> &'a flexflow_opgraph::OpGraph {
        self.graph
    }

    /// The device topology being targeted.
    pub fn topology(&self) -> &'a flexflow_device::Topology {
        self.topo
    }

    /// The current strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The current predicted iteration time in microseconds.
    pub fn cost_us(&self) -> f64 {
        self.state.makespan_us()
    }

    /// The current task graph.
    pub fn task_graph(&self) -> &TaskGraph {
        &self.tg
    }

    /// The current timeline.
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// Cumulative transaction telemetry.
    pub fn telemetry(&self) -> DeltaTelemetry {
        self.telemetry
    }

    /// Speculatively applies `proposal` and returns the new cost: the
    /// strategy change is journaled as its inverse, the affected tasks are
    /// rebuilt under an open transaction on the task graph and the
    /// timeline is re-swept. The rebuild is as narrow as the proposal
    /// allows:
    ///
    /// - [`Proposal::Config`] and [`Proposal::Recompute`] rebuild the op's
    ///   tasks ([`TaskGraph::rebuild_op`]);
    /// - [`Proposal::Microbatches`] touches every op
    ///   ([`TaskGraph::rebuild_all`]);
    /// - [`Proposal::ParamSync`] recreates the op's layer sync chain
    ///   ([`TaskGraph::rebuild_layer_sync`]). It is effective when the op
    ///   is the mode source of its layer (the lowest-id member, see
    ///   [`crate::soap::sync_ops`]); ops without a layer are structural
    ///   no-ops.
    ///
    /// The change stays pending until [`Simulator::commit`] keeps it or
    /// [`Simulator::rollback`] undoes it bit-for-bit; calling `apply`
    /// again first commits the pending change, so sequential
    /// non-speculative use (apply, apply, …) simply walks the strategy.
    pub fn apply(&mut self, proposal: Proposal) -> f64 {
        self.commit();
        let inverse = proposal.apply_to(&mut self.strategy);
        self.tg.begin_txn();
        self.state.begin_txn();
        let (graph, topo, cost, cfg) = (self.graph, self.topo, self.cost, &self.cfg);
        match inverse {
            Proposal::Config(op, _) | Proposal::Recompute(op, _) => {
                self.tg
                    .rebuild_op(graph, topo, &self.strategy, cost, cfg, op);
            }
            Proposal::Microbatches(_) => {
                self.tg.rebuild_all(graph, topo, &self.strategy, cost, cfg);
            }
            Proposal::ParamSync(op, _) => {
                if let Some(layer) = graph.op(op).layer() {
                    self.tg
                        .rebuild_layer_sync(graph, topo, &self.strategy, cost, cfg, layer);
                }
            }
        }
        self.txn = Some(inverse);
        let makespan = self.state.resweep(&self.tg);
        let depth = self.tg.journal_depth();
        self.telemetry.applies += 1;
        self.telemetry.journal_slots += depth as u64;
        self.telemetry.max_journal_depth = self.telemetry.max_journal_depth.max(depth);
        makespan
    }

    /// Keeps the pending proposal, dropping its undo journal and the
    /// previous timeline. No-op when nothing is pending.
    pub fn commit(&mut self) {
        if self.txn.take().is_some() {
            self.tg.commit_txn();
            self.state.commit_txn();
            self.telemetry.commits += 1;
        }
    }

    /// Undoes the pending proposal: strategy, task graph and timeline
    /// return to their exact pre-`apply` state. Returns the (restored)
    /// cost. No-op when nothing is pending.
    pub fn rollback(&mut self) -> f64 {
        if let Some(inverse) = self.txn.take() {
            inverse.apply_to(&mut self.strategy);
            self.tg.rollback_txn();
            self.state.rollback_txn();
            self.telemetry.rollbacks += 1;
        }
        self.state.makespan_us()
    }

    /// Replaces the entire strategy, rebuilding and fully re-simulating.
    /// Commits any pending proposal first.
    pub fn reset(&mut self, strategy: Strategy) -> f64 {
        self.commit();
        self.strategy = strategy;
        self.tg = TaskGraph::build(self.graph, self.topo, &self.strategy, self.cost, &self.cfg);
        self.state = simulate_full(&self.tg);
        self.state.makespan_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexflow_costmodel::{CostModel, MeasuredCostModel};
    use flexflow_device::{clusters, DeviceKind, Topology};
    use flexflow_opgraph::{zoo, OpGraph, OpKind, OpNode};
    use flexflow_tensor::{Rect, TensorShape};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A cost model with fixed per-op-kind times, for hand-checkable
    /// timelines.
    struct FixedCost;

    impl CostModel for FixedCost {
        fn task_time_us(&self, node: &OpNode, _out: &Rect, _device: DeviceKind) -> f64 {
            match node.kind() {
                OpKind::Input { .. } => 0.0,
                OpKind::Embedding { .. } => 2.0,
                OpKind::LstmCell { .. } => 1.0,
                OpKind::Linear { .. } => 3.0,
                _ => 1.0,
            }
        }
    }

    /// The paper's Fig. 5 setting: a 3-layer RNN (embedding, recurrent,
    /// linear), 2 unroll steps, model parallelism with one layer per GPU.
    fn fig5_graph() -> OpGraph {
        let mut g = OpGraph::new("fig5");
        let x1 = g.add_input(
            "x1",
            TensorShape::with_dtype(&[2, 1], flexflow_tensor::DataType::I32),
        );
        let x2 = g.add_input(
            "x2",
            TensorShape::with_dtype(&[2, 1], flexflow_tensor::DataType::I32),
        );
        let h0 = g.add_input("h0", TensorShape::new(&[2, 4]));
        let o1 = g
            .add_op(OpKind::Embedding { vocab: 16, dim: 4 }, &[x1], "o1")
            .unwrap();
        let o2 = g
            .add_op(OpKind::Embedding { vocab: 16, dim: 4 }, &[x2], "o2")
            .unwrap();
        let o3 = g
            .add_op(OpKind::LstmCell { hidden: 4 }, &[o1, h0], "o3")
            .unwrap();
        let o4 = g
            .add_op(OpKind::LstmCell { hidden: 4 }, &[o2, o3], "o4")
            .unwrap();
        let _o5 = g
            .add_op(OpKind::Linear { out_features: 4 }, &[o3], "o5")
            .unwrap();
        let _o6 = g
            .add_op(OpKind::Linear { out_features: 4 }, &[o4], "o6")
            .unwrap();
        g
    }

    /// A 3-GPU chain topology: transfer of any size takes exactly 1us
    /// (huge bandwidth, 1us latency), mirroring Fig. 5's unit-time
    /// transfers.
    fn fig5_topo() -> Topology {
        clusters::uniform_cluster(1, 3, 1e9, 1e9)
    }

    fn fig5_strategy(g: &OpGraph, topo: &Topology) -> Strategy {
        // inputs on the GPU of their consumer layer; o1,o2 -> gpu0;
        // o3,o4 -> gpu1; o5,o6 -> gpu2. No intra-op parallelism.
        let dev = |i: usize| topo.device_id(i);
        let place = |name: &str| -> usize {
            match name {
                "x1" | "x2" | "o1" | "o2" => 0,
                "h0" | "o3" | "o4" => 1,
                _ => 2,
            }
        };
        let configs = g
            .ids()
            .map(|id| ParallelConfig::on_device(g.op(id), dev(place(g.op(id).name()))))
            .collect();
        Strategy::from_configs(g, configs)
    }

    fn fig5_cfg() -> SimConfig {
        SimConfig {
            activation_comm_multiplier: 1.0,
            include_param_sync: false,
            ..SimConfig::default()
        }
    }

    /// Transfers in the Fig. 5 topology take 1us latency plus a negligible
    /// bandwidth term; compare with a loose epsilon.
    fn assert_close(got: f64, want: f64) {
        assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
    }

    #[test]
    fn fig5_model_parallel_timeline() {
        let g = fig5_graph();
        let topo = fig5_topo();
        let s = fig5_strategy(&g, &topo);
        let tg = TaskGraph::build(&g, &topo, &s, &FixedCost, &fig5_cfg());
        let state = simulate_full(&tg);

        let task_of = |name: &str| {
            let id = g.ids().find(|&i| g.op(i).name() == name).unwrap();
            tg.tasks_of_op(id)[0]
        };
        // GPU0 runs o1 then o2 back to back (exe 2 each).
        let (r1, s1, e1) = state.times(task_of("o1"));
        assert_close(r1, 0.0);
        assert_close(s1, 0.0);
        assert_close(e1, 2.0);
        let (_, s2, e2) = state.times(task_of("o2"));
        assert_close(s2, 2.0);
        assert_close(e2, 4.0);
        // o3 waits for o1's transfer (1us): ready 3, exe 1.
        let (r3, _, e3) = state.times(task_of("o3"));
        assert_close(r3, 3.0);
        assert_close(e3, 4.0);
        // o4 needs o2's transfer (ends 5) and o3 (ends 4): ready 5.
        let (r4, _, e4) = state.times(task_of("o4"));
        assert_close(r4, 5.0);
        assert_close(e4, 6.0);
        // o5 needs o3's transfer (ends 5): exe 3 -> ends 8.
        let (r5, _, e5) = state.times(task_of("o5"));
        assert_close(r5, 5.0);
        assert_close(e5, 8.0);
        // o6 needs o4's transfer (ends 7) but GPU2 is busy until 8.
        let (r6, s6, e6) = state.times(task_of("o6"));
        assert_close(r6, 7.0);
        assert_close(s6, 8.0);
        assert_close(e6, 11.0);
        assert_close(state.makespan_us(), 11.0);
    }

    #[test]
    fn communication_overlaps_computation() {
        // In the Fig.5 timeline, the o2 compute (2..4 on GPU0) overlaps the
        // o1->o3 transfer (2..3 on the link): verify the link order.
        let g = fig5_graph();
        let topo = fig5_topo();
        let s = fig5_strategy(&g, &topo);
        let tg = TaskGraph::build(&g, &topo, &s, &FixedCost, &fig5_cfg());
        let state = simulate_full(&tg);
        let link_tasks: Vec<TaskId> = tg
            .iter()
            .filter(|(_, t)| matches!(t.unit, ExecUnit::Link(_)))
            .map(|(id, _)| id)
            .collect();
        assert!(!link_tasks.is_empty());
        let first_comm_start = link_tasks
            .iter()
            .map(|&id| state.times(id).1)
            .fold(f64::INFINITY, f64::min);
        assert!(
            (first_comm_start - 2.0).abs() < 1e-6,
            "transfer starts as soon as o1 ends, got {first_comm_start}"
        );
    }

    #[test]
    fn fifo_contention_serializes_same_unit() {
        // Two ops on one GPU with no dependency: FIFO forces them back to
        // back even though both are ready at 0... here o1/o2 already cover
        // this; check the sum matches serial execution.
        let g = fig5_graph();
        let topo = fig5_topo();
        let s = fig5_strategy(&g, &topo);
        let tg = TaskGraph::build(&g, &topo, &s, &FixedCost, &fig5_cfg());
        let state = simulate_full(&tg);
        let gpu0 = ExecUnit::Gpu(topo.device_id(0));
        let order = state.order(gpu0);
        // input tasks (exe 0) then o1 then o2
        let compute: Vec<TaskId> = order
            .iter()
            .copied()
            .filter(|&t| tg.task(t).exe_us > 0.0)
            .collect();
        assert_eq!(compute.len(), 2);
        let (_, s_a, e_a) = state.times(compute[0]);
        let (_, s_b, _) = state.times(compute[1]);
        assert!(s_b >= e_a, "no overlap on one device");
        assert_eq!(s_a, 0.0);
    }

    #[test]
    fn delta_equals_full_after_single_change() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let mut s = Strategy::data_parallel(&g, &topo);
        let mut tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let mut state = simulate_full(&tg);

        let op = g.ids().nth(3).unwrap(); // conv2
        s.replace(op, ParallelConfig::on_device(g.op(op), topo.device_id(2)));
        let report = tg.rebuild_op(&g, &topo, &s, &cost, &cfg, op);
        let delta_cost =
            simulate_delta_with(&tg, &mut state, &report, &mut DeltaScratch::default());

        let fresh = simulate_full(&TaskGraph::build(&g, &topo, &s, &cost, &cfg));
        assert!(
            (delta_cost - fresh.makespan_us()).abs() < 1e-6,
            "delta {delta_cost} vs full {}",
            fresh.makespan_us()
        );
    }

    #[test]
    fn delta_equals_full_over_random_walk() {
        let g = zoo::lenet(32);
        let topo = clusters::uniform_cluster(2, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let mut rng = StdRng::seed_from_u64(42);
        let searchable = Strategy::searchable_ops(&g);

        let mut s = Strategy::data_parallel(&g, &topo);
        let mut tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let mut state = simulate_full(&tg);
        for step in 0..60 {
            let op = searchable[rng.gen_range(0..searchable.len())];
            let config = crate::soap::random_config(
                g.op(op),
                &topo,
                crate::soap::ConfigSpace::Full,
                &mut rng,
            );
            s.replace(op, config);
            let report = tg.rebuild_op(&g, &topo, &s, &cost, &cfg, op);
            let delta_cost =
                simulate_delta_with(&tg, &mut state, &report, &mut DeltaScratch::default());
            let fresh = simulate_full(&TaskGraph::build(&g, &topo, &s, &cost, &cfg));
            assert!(
                (delta_cost - fresh.makespan_us()).abs() < 1e-6,
                "step {step}: delta {delta_cost} vs full {}",
                fresh.makespan_us()
            );
        }
    }

    #[test]
    fn simulator_apply_and_revert_roundtrip() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let s = Strategy::data_parallel(&g, &topo);
        let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
        let c0 = sim.cost_us();
        let op = Strategy::searchable_ops(&g)[2];
        let old = sim.strategy().config(op).clone();
        let _c1 = sim.apply(Proposal::Config(
            op,
            ParallelConfig::on_device(g.op(op), topo.device_id(0)),
        ));
        let c2 = sim.apply(Proposal::Config(op, old));
        assert!(
            (c0 - c2).abs() < 1e-6,
            "revert must restore cost: {c0} vs {c2}"
        );
    }

    #[test]
    fn rollback_restores_graph_timeline_and_strategy_exactly() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let s = Strategy::data_parallel(&g, &topo);
        let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s.clone());
        let tg0 = sim.task_graph().clone();
        let st0 = sim.state().clone();
        let c0 = sim.cost_us();
        let op = Strategy::searchable_ops(&g)[2];
        let c1 = sim.apply(Proposal::Config(
            op,
            ParallelConfig::on_device(g.op(op), topo.device_id(1)),
        ));
        assert_ne!(c0.to_bits(), c1.to_bits(), "the proposal must change cost");
        let c2 = sim.rollback();
        assert_eq!(c0.to_bits(), c2.to_bits(), "rollback must restore cost");
        assert!(sim.task_graph() == &tg0, "task graph must be bit-identical");
        assert!(sim.state() == &st0, "timeline must be bit-identical");
        assert_eq!(sim.strategy(), &s);
        let t = sim.telemetry();
        assert_eq!((t.applies, t.commits, t.rollbacks), (1, 0, 1));
        assert!(t.max_journal_depth > 0);
    }

    #[test]
    fn commit_keeps_the_applied_proposal() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let s = Strategy::data_parallel(&g, &topo);
        let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
        let op = Strategy::searchable_ops(&g)[1];
        let c1 = sim.apply(Proposal::Config(
            op,
            ParallelConfig::on_device(g.op(op), topo.device_id(3)),
        ));
        sim.commit();
        // rollback after commit is a no-op: the change is permanent
        let c2 = sim.rollback();
        assert_eq!(c1.to_bits(), c2.to_bits());
        let fresh = simulate_full(&TaskGraph::build(
            &g,
            &topo,
            sim.strategy(),
            &cost,
            &SimConfig::default(),
        ));
        assert!((c1 - fresh.makespan_us()).abs() < 1e-6);
    }

    #[test]
    fn rollback_without_pending_txn_is_a_noop() {
        let g = zoo::lenet(32);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let s = Strategy::data_parallel(&g, &topo);
        let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
        let c0 = sim.cost_us();
        assert_eq!(sim.rollback().to_bits(), c0.to_bits());
        sim.commit(); // also a no-op
        assert_eq!(sim.cost_us().to_bits(), c0.to_bits());
        assert_eq!(sim.telemetry().rollbacks, 0);
    }

    #[test]
    fn rollback_after_many_speculative_applies_matches_fresh_build() {
        // Interleave committed moves with rolled-back speculation and keep
        // checking the live cost against a from-scratch evaluation.
        let g = zoo::lenet(32);
        let topo = clusters::uniform_cluster(2, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let searchable = Strategy::searchable_ops(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let mut sim = Simulator::new(&g, &topo, &cost, cfg, Strategy::data_parallel(&g, &topo));
        for step in 0..40 {
            let op = searchable[rng.gen_range(0..searchable.len())];
            let config = crate::soap::random_config(
                g.op(op),
                &topo,
                crate::soap::ConfigSpace::Full,
                &mut rng,
            );
            let before = sim.cost_us();
            let tg_before = sim.task_graph().clone();
            let st_before = sim.state().clone();
            let applied = sim.apply(Proposal::Config(op, config));
            if step % 3 == 0 {
                sim.commit();
                let fresh =
                    simulate_full(&TaskGraph::build(&g, &topo, sim.strategy(), &cost, &cfg));
                assert!(
                    (applied - fresh.makespan_us()).abs() < 1e-6,
                    "step {step}: committed {applied} vs fresh {}",
                    fresh.makespan_us()
                );
            } else {
                let restored = sim.rollback();
                assert_eq!(before.to_bits(), restored.to_bits(), "step {step}");
                assert!(sim.task_graph() == &tg_before, "step {step}: graph drifted");
                assert!(sim.state() == &st_before, "step {step}: timeline drifted");
            }
        }
    }

    #[test]
    fn timeline_txn_restores_begin_state_after_several_sweeps() {
        // Two rebuild+sweep rounds inside one transaction: rollback must
        // return the begin_txn timeline, not the one after the first sweep.
        let g = zoo::lenet(32);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let mut s = Strategy::data_parallel(&g, &topo);
        let mut tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let mut state = simulate_full(&tg);
        let before = state.clone();
        let mut scratch = DeltaScratch::default();
        state.begin_txn();
        for (i, &op) in Strategy::searchable_ops(&g).iter().take(2).enumerate() {
            s.replace(
                op,
                ParallelConfig::on_device(g.op(op), topo.device_id(i + 1)),
            );
            let report = tg.rebuild_op(&g, &topo, &s, &cost, &cfg, op);
            simulate_delta_with(&tg, &mut state, &report, &mut scratch);
            assert!(scratch.last_was_sweep && scratch.last_repair_steps == 0);
        }
        assert!(state != before, "the proposals must change the timeline");
        state.rollback_txn();
        assert!(
            state == before,
            "rollback must restore the begin_txn timeline"
        );
    }

    #[test]
    fn simulator_and_scratch_are_send() {
        // The threading contract the parallel search driver relies on:
        // per-chain simulators may be constructed on (moved to) worker
        // threads. Compile-time check; fails to build if a non-Send field
        // ever sneaks in.
        fn assert_send<T: Send>() {}
        assert_send::<Simulator<'static>>();
        assert_send::<DeltaScratch>();
        assert_send::<SimState>();
    }

    #[test]
    fn makespan_positive_and_monotone_in_device_count() {
        // Single device should be slower than 4 devices under data
        // parallelism for a compute-heavy CNN.
        let g = zoo::lenet(64);
        let cost = MeasuredCostModel::paper_default();
        let topo1 = clusters::uniform_cluster(1, 1, 16.0, 4.0);
        let topo4 = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let c1 = Simulator::new(
            &g,
            &topo1,
            &cost,
            SimConfig::default(),
            Strategy::data_parallel(&g, &topo1),
        )
        .cost_us();
        let c4 = Simulator::new(
            &g,
            &topo4,
            &cost,
            SimConfig::default(),
            Strategy::data_parallel(&g, &topo4),
        )
        .cost_us();
        assert!(c1 > 0.0 && c4 > 0.0);
        assert!(c4 < c1, "4-GPU DP should beat 1 GPU: {c4} vs {c1}");
    }
}
