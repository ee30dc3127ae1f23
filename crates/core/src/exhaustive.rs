//! Exhaustive search with branch-and-bound pruning and local-optimality
//! checking, backing the paper's §8.4 study ("we compare the best
//! discovered strategies with the global optimal strategies for small
//! executions", using depth-first search with A*-style pruning).
//!
//! The enumerated space is [`crate::soap::ConfigSpace::Canonical`] (every legal degree
//! vector paired with every contiguous device block) — the same space the
//! local-optimality neighborhood uses. The lower bound is admissible: any
//! schedule's makespan is at least the longest dependency chain where each
//! operation contributes its smallest possible task time and communication
//! is free, so pruning never discards the optimum.

use crate::sim::{simulate_full, Proposal, SimConfig, Simulator};
use crate::soap::{enumerate_canonical, ParallelConfig};
use crate::strategy::Strategy;
use crate::taskgraph::TaskGraph;
use flexflow_costmodel::CostModel;
use flexflow_device::Topology;
use flexflow_opgraph::{OpGraph, OpId, OpKind};

/// Result of an exhaustive search.
#[derive(Debug, Clone)]
pub enum ExhaustiveOutcome {
    /// The search space was fully covered; the returned strategy is the
    /// global optimum of the canonical space.
    Optimal {
        /// The optimal strategy.
        strategy: Strategy,
        /// Its simulated cost in microseconds.
        cost_us: f64,
        /// DFS nodes visited.
        nodes: u64,
    },
    /// The node budget ran out first; the returned strategy is the best
    /// seen so far (optimality not proven).
    BudgetExhausted {
        /// Best strategy seen before the budget ran out.
        strategy: Strategy,
        /// Its simulated cost in microseconds.
        cost_us: f64,
        /// DFS nodes visited (== the budget).
        nodes: u64,
    },
}

impl ExhaustiveOutcome {
    /// The best strategy and cost regardless of proof status.
    pub fn best(&self) -> (&Strategy, f64) {
        match self {
            ExhaustiveOutcome::Optimal {
                strategy, cost_us, ..
            }
            | ExhaustiveOutcome::BudgetExhausted {
                strategy, cost_us, ..
            } => (strategy, *cost_us),
        }
    }

    /// Whether global optimality (within the canonical space) was proven.
    pub fn is_proven_optimal(&self) -> bool {
        matches!(self, ExhaustiveOutcome::Optimal { .. })
    }
}

/// Depth-first branch-and-bound over the canonical configuration space.
#[derive(Debug, Clone)]
pub struct ExhaustiveSearch {
    /// Maximum DFS nodes to visit before giving up on the proof.
    pub node_budget: u64,
}

impl Default for ExhaustiveSearch {
    fn default() -> Self {
        Self {
            node_budget: 50_000_000,
        }
    }
}

struct Dfs<'a> {
    graph: &'a OpGraph,
    topo: &'a Topology,
    cost: &'a dyn CostModel,
    cfg: SimConfig,
    /// Canonical configs per op (empty for Input ops: fixed).
    choices: Vec<Vec<ParallelConfig>>,
    /// Memoized `config_min_us` per op and config (recomputing per DFS
    /// node would dominate the search).
    choice_min_us: Vec<Vec<f64>>,
    /// Smallest possible task time per op over all canonical configs.
    min_us: Vec<f64>,
    /// For each chosen config: the smallest task time (for the bound).
    chosen_min_us: Vec<f64>,
    /// Longest-chain bound suffix: `tail[i]` = longest chain of `min_us`
    /// over ops >= i reachable from op i (in id order), including i.
    searchable: Vec<OpId>,
    strategy: Strategy,
    best: Strategy,
    best_cost: f64,
    nodes: u64,
    budget: u64,
    exhausted: bool,
}

impl Dfs<'_> {
    /// Admissible lower bound for the current partial assignment: the
    /// longest dependency chain where assigned ops contribute the minimum
    /// task time of their chosen config, unassigned ops contribute their
    /// global minimum, and communication is free. Edges into `Concat` are
    /// skipped (a consumer tile may not touch a given branch).
    fn lower_bound(&self, depth: usize) -> f64 {
        let n = self.graph.len();
        let mut longest = vec![0.0f64; n];
        let mut bound = 0.0f64;
        for id in self.graph.ids() {
            let i = id.index();
            let w = if let Some(pos) = self.searchable.iter().position(|&s| s == id) {
                if pos < depth {
                    self.chosen_min_us[i]
                } else {
                    self.min_us[i]
                }
            } else {
                0.0 // Input ops are free
            };
            let mut best_in = 0.0f64;
            if !matches!(self.graph.op(id).kind(), OpKind::Concat { .. }) {
                for &p in self.graph.op(id).inputs() {
                    best_in = best_in.max(longest[p.index()]);
                }
            }
            longest[i] = best_in + w;
            bound = bound.max(longest[i]);
        }
        bound
    }

    fn recurse(&mut self, depth: usize) {
        if self.exhausted {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.budget {
            self.exhausted = true;
            return;
        }
        if depth == self.searchable.len() {
            let tg = TaskGraph::build(self.graph, self.topo, &self.strategy, self.cost, &self.cfg);
            let cost = simulate_full(&tg).makespan_us();
            if cost < self.best_cost {
                self.best_cost = cost;
                self.best = self.strategy.clone();
            }
            return;
        }
        let op = self.searchable[depth];
        // Order choices by their smallest task time to reach good leaves
        // early (better incumbents -> more pruning).
        let mins = &self.choice_min_us[op.index()];
        let mut order: Vec<usize> = (0..self.choices[op.index()].len()).collect();
        order.sort_by(|&a, &b| mins[a].total_cmp(&mins[b]));
        for idx in order {
            let config = self.choices[op.index()][idx].clone();
            self.chosen_min_us[op.index()] = self.choice_min_us[op.index()][idx];
            let old = self.strategy.replace(op, config);
            if self.lower_bound(depth + 1) < self.best_cost {
                self.recurse(depth + 1);
            }
            self.strategy.replace(op, old);
            if self.exhausted {
                return;
            }
        }
        self.chosen_min_us[op.index()] = self.min_us[op.index()];
    }

    /// Smallest task time of an op under a specific config (a dependency
    /// chain passes through at least one of its tasks).
    fn config_min_us(&self, op: OpId, config: &ParallelConfig) -> f64 {
        let node = self.graph.op(op);
        (0..config.num_tasks())
            .map(|k| {
                let tile = config.tile(node, k);
                self.cost
                    .task_time_us(node, &tile, self.topo.device(config.device(k)).kind)
            })
            .fold(f64::INFINITY, f64::min)
    }
}

impl ExhaustiveSearch {
    /// Searches the canonical space exhaustively, optionally warm-started
    /// by an incumbent strategy (e.g. the MCMC result) whose cost prunes
    /// from the start.
    pub fn search(
        &self,
        graph: &OpGraph,
        topo: &Topology,
        cost: &dyn CostModel,
        cfg: SimConfig,
        incumbent: Option<Strategy>,
    ) -> ExhaustiveOutcome {
        let searchable = Strategy::searchable_ops(graph);
        let base = Strategy::data_parallel(graph, topo);
        let mut choices: Vec<Vec<ParallelConfig>> = vec![Vec::new(); graph.len()];
        for &op in &searchable {
            choices[op.index()] = enumerate_canonical(graph.op(op), topo);
            assert!(!choices[op.index()].is_empty(), "op without any config");
        }
        let mut dfs = Dfs {
            graph,
            topo,
            cost,
            cfg,
            choice_min_us: vec![Vec::new(); graph.len()],
            min_us: vec![0.0; graph.len()],
            chosen_min_us: vec![0.0; graph.len()],
            choices,
            searchable: searchable.clone(),
            strategy: base.clone(),
            best: base.clone(),
            best_cost: f64::INFINITY,
            nodes: 0,
            budget: self.node_budget,
            exhausted: false,
        };
        for &op in &searchable {
            let mins: Vec<f64> = dfs.choices[op.index()]
                .iter()
                .map(|c| dfs.config_min_us(op, c))
                .collect();
            let m = mins.iter().copied().fold(f64::INFINITY, f64::min);
            dfs.choice_min_us[op.index()] = mins;
            dfs.min_us[op.index()] = m;
            dfs.chosen_min_us[op.index()] = m;
        }
        // Seed the incumbent.
        let seed = incumbent.unwrap_or(base);
        let tg = TaskGraph::build(graph, topo, &seed, cost, &cfg);
        dfs.best_cost = simulate_full(&tg).makespan_us();
        dfs.best = seed;

        dfs.recurse(0);
        if dfs.exhausted {
            ExhaustiveOutcome::BudgetExhausted {
                strategy: dfs.best,
                cost_us: dfs.best_cost,
                nodes: dfs.nodes,
            }
        } else {
            ExhaustiveOutcome::Optimal {
                strategy: dfs.best,
                cost_us: dfs.best_cost,
                nodes: dfs.nodes,
            }
        }
    }
}

/// Checks local optimality of `strategy`: simulates every single-op
/// configuration change within the canonical space and reports the first
/// strictly better neighbor, if any (paper §8.4: "we test if the search
/// algorithm returns at least a locally optimal strategy by comparing the
/// best discovered strategy with all of its neighbors").
///
/// Returns `(is_local_optimum, best_neighbor)` where the neighbor tuple is
/// `(op, config, cost_us)`.
pub fn check_local_optimality(
    graph: &OpGraph,
    topo: &Topology,
    cost: &dyn CostModel,
    cfg: SimConfig,
    strategy: &Strategy,
) -> (bool, Option<(OpId, ParallelConfig, f64)>) {
    // Delta simulation makes the neighborhood sweep tractable: each
    // neighbor is a speculative transactional apply, undone by rollback
    // instead of a second rebuild (large models have tens of thousands of
    // neighbors).
    let mut sim = Simulator::new(graph, topo, cost, cfg, strategy.clone());
    let base_cost = sim.cost_us();
    let mut best_neighbor: Option<(OpId, ParallelConfig, f64)> = None;
    for op in Strategy::searchable_ops(graph) {
        let original = strategy.config(op).clone();
        for config in enumerate_canonical(graph.op(op), topo) {
            if config == original {
                continue;
            }
            let c = sim.apply(Proposal::Config(op, config.clone()));
            sim.rollback();
            if c < base_cost - 1e-6 && best_neighbor.as_ref().is_none_or(|(_, _, bc)| c < *bc) {
                best_neighbor = Some((op, config, c));
            }
        }
    }
    (best_neighbor.is_none(), best_neighbor)
}

/// Greedy local-search polish: repeatedly move to the best single-op
/// neighbor (within the canonical space) until no neighbor improves.
/// Returns the polished strategy, its cost, and the number of improvement
/// steps taken. The §8.4 harness applies this after MCMC: with the paper's
/// 30-minute budgets the chain itself settles into a local optimum, which
/// small harness budgets cannot guarantee.
pub fn polish_to_local_optimum(
    graph: &OpGraph,
    topo: &Topology,
    cost: &dyn CostModel,
    cfg: SimConfig,
    strategy: &Strategy,
    max_steps: usize,
) -> (Strategy, f64, usize) {
    let mut current = strategy.clone();
    let mut steps = 0;
    loop {
        let (is_local, neighbor) = check_local_optimality(graph, topo, cost, cfg, &current);
        if is_local || steps >= max_steps {
            let tg = TaskGraph::build(graph, topo, &current, cost, &cfg);
            let c = simulate_full(&tg).makespan_us();
            return (current, c, steps);
        }
        let (op, config, _) = neighbor.expect("not local, so a better neighbor exists");
        current.replace(op, config);
        steps += 1;
    }
}

/// Number of strategies in the canonical space (product of per-op choice
/// counts) — the paper quotes ~1e11 for LeNet on four devices.
pub fn canonical_space_size(graph: &OpGraph, topo: &Topology) -> f64 {
    Strategy::searchable_ops(graph)
        .iter()
        .map(|&op| enumerate_canonical(graph.op(op), topo).len() as f64)
        .product()
}

/// Placeholder-free helper: the minimum per-task time of the cheapest
/// configuration of each op (used by diagnostics and tests).
pub fn op_floor_us(graph: &OpGraph, topo: &Topology, cost: &dyn CostModel, op: OpId) -> f64 {
    let node = graph.op(op);
    enumerate_canonical(node, topo)
        .iter()
        .flat_map(|c| {
            (0..c.num_tasks()).map(move |k| {
                let tile = c.tile(node, k);
                cost.task_time_us(node, &tile, topo.device(c.device(k)).kind)
            })
        })
        .fold(f64::INFINITY, f64::min)
}

#[allow(unused_imports)]
use flexflow_tensor as _tensor_used_in_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use flexflow_costmodel::MeasuredCostModel;
    use flexflow_device::clusters;
    use flexflow_opgraph::OpKind;
    use flexflow_tensor::TensorShape;

    /// A deliberately tiny model so exhaustive search finishes in
    /// milliseconds: input -> linear -> softmax on 2 devices.
    fn tiny() -> OpGraph {
        let mut g = OpGraph::new("tiny");
        let x = g.add_input("x", TensorShape::new(&[8, 32]));
        let a = g
            .add_op(OpKind::Linear { out_features: 16 }, &[x], "fc1")
            .unwrap();
        let b = g
            .add_op(OpKind::Linear { out_features: 4 }, &[a], "fc2")
            .unwrap();
        g.add_op(OpKind::Softmax, &[b], "sm").unwrap();
        g
    }

    #[test]
    fn exhaustive_finds_at_least_data_parallel() {
        let g = tiny();
        let topo = clusters::uniform_cluster(1, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let out = ExhaustiveSearch::default().search(&g, &topo, &cost, SimConfig::default(), None);
        assert!(out.is_proven_optimal());
        let (_, opt_cost) = out.best();
        let dp = Strategy::data_parallel(&g, &topo);
        let dp_cost = simulate_full(&TaskGraph::build(
            &g,
            &topo,
            &dp,
            &cost,
            &SimConfig::default(),
        ))
        .makespan_us();
        assert!(opt_cost <= dp_cost + 1e-9);
    }

    #[test]
    fn optimum_is_locally_optimal() {
        let g = tiny();
        let topo = clusters::uniform_cluster(1, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let out = ExhaustiveSearch::default().search(&g, &topo, &cost, SimConfig::default(), None);
        let (best, _) = out.best();
        let (is_local, witness) =
            check_local_optimality(&g, &topo, &cost, SimConfig::default(), best);
        assert!(
            is_local,
            "global optimum must be local optimum: {witness:?}"
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let g = tiny();
        let topo = clusters::uniform_cluster(1, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        // A zero-node budget cannot even visit the root, so the proof must
        // be reported as incomplete (larger budgets may legitimately prove
        // optimality early through pruning).
        let out = ExhaustiveSearch { node_budget: 0 }.search(
            &g,
            &topo,
            &cost,
            SimConfig::default(),
            None,
        );
        assert!(!out.is_proven_optimal());
        let (_, c) = out.best();
        assert!(c.is_finite(), "budgeted search still returns the incumbent");
    }

    #[test]
    fn incumbent_prunes_to_fewer_nodes() {
        let g = tiny();
        let topo = clusters::uniform_cluster(1, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cold = ExhaustiveSearch::default().search(&g, &topo, &cost, SimConfig::default(), None);
        let (best, _) = cold.best();
        let warm = ExhaustiveSearch::default().search(
            &g,
            &topo,
            &cost,
            SimConfig::default(),
            Some(best.clone()),
        );
        let (
            ExhaustiveOutcome::Optimal { nodes: n_cold, .. },
            ExhaustiveOutcome::Optimal { nodes: n_warm, .. },
        ) = (&cold, &warm)
        else {
            panic!("both searches must complete");
        };
        assert!(
            n_warm <= n_cold,
            "warm start must not explore more: {n_warm} vs {n_cold}"
        );
    }

    #[test]
    fn space_size_is_product_of_choices() {
        let g = tiny();
        let topo = clusters::uniform_cluster(1, 2, 16.0, 4.0);
        let size = canonical_space_size(&g, &topo);
        assert!(size > 1.0);
        // three searchable ops
        let per_op: Vec<usize> = Strategy::searchable_ops(&g)
            .iter()
            .map(|&op| enumerate_canonical(g.op(op), &topo).len())
            .collect();
        let expected: f64 = per_op.iter().map(|&c| c as f64).product();
        assert_eq!(size, expected);
    }

    #[test]
    fn op_floor_is_a_lower_bound_on_any_config() {
        let g = tiny();
        let topo = clusters::uniform_cluster(1, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        for op in Strategy::searchable_ops(&g) {
            let floor = op_floor_us(&g, &topo, &cost, op);
            for c in enumerate_canonical(g.op(op), &topo) {
                for k in 0..c.num_tasks() {
                    let tile = c.tile(g.op(op), k);
                    let t = cost.task_time_us(g.op(op), &tile, topo.device(c.device(k)).kind);
                    assert!(t >= floor - 1e-12);
                }
            }
        }
    }
}
