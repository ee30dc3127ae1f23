//! Property-based tests for the execution simulator's core invariants:
//!
//! 1. **Delta == Full** (paper §5.3): after any sequence of single-op
//!    configuration changes, the delta-simulated timeline matches a full
//!    re-simulation of a freshly built task graph.
//! 2. **Timeline sanity**: per-unit executions never overlap, dependencies
//!    are respected, and makespan equals the latest end time.
//! 3. **Cost purity**: the simulated cost of a strategy does not depend on
//!    the history of delta updates that produced it.
//! 4. **Transactional exactness**: after any random apply→rollback
//!    sequence, the task graph and the timeline are bit-identical to their
//!    pre-apply state, and committed walks still match a fresh build.
//! 5. **Four-kind differential walk**: walks mixing config, microbatch,
//!    parameter-sync and recompute proposals with random commit/rollback
//!    match a fresh build bit for bit after every apply and restore graph,
//!    timeline and strategy exactly after every rollback.

use flexflow_core::sim::{
    simulate_delta_with, simulate_full, DeltaScratch, Proposal, SimConfig, SimState, Simulator,
};
use flexflow_core::soap::{self, random_config, ConfigSpace, ParamSync};
use flexflow_core::strategy::Strategy;
use flexflow_core::taskgraph::{ExecUnit, TaskGraph};
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::{clusters, DeviceKind, Topology};
use flexflow_opgraph::{zoo, OpGraph, OpId, OpKind};
use flexflow_tensor::TensorShape;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small random layered DNN: a mix of op kinds with occasional skip
/// connections, exercising Concat/Add fan-in and all dimension kinds.
fn random_model(seed: u64, depth: usize) -> OpGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = OpGraph::new(format!("rand{seed}"));
    let x = g.add_input("x", TensorShape::new(&[16, 8]));
    let mut frontier = vec![x];
    for d in 0..depth {
        let prev = *frontier.last().unwrap();
        let choice = rng.gen_range(0..4);
        let id = match choice {
            0 => g
                .add_op(
                    OpKind::Linear {
                        out_features: 8 << (d % 2),
                    },
                    &[prev],
                    format!("fc{d}"),
                )
                .unwrap(),
            1 => g.add_op(OpKind::Relu, &[prev], format!("relu{d}")).unwrap(),
            2 if frontier.len() >= 2 => {
                // residual add when shapes allow, else relu
                let a = frontier[rng.gen_range(0..frontier.len())];
                if g.op(a).output_shape() == g.op(prev).output_shape() {
                    g.add_op(OpKind::Add, &[prev, a], format!("add{d}"))
                        .unwrap()
                } else {
                    g.add_op(OpKind::Tanh, &[prev], format!("tanh{d}")).unwrap()
                }
            }
            _ => g
                .add_op(OpKind::Softmax, &[prev], format!("sm{d}"))
                .unwrap(),
        };
        frontier.push(id);
    }
    g
}

fn check_walk(g: &OpGraph, topo: &Topology, seed: u64, steps: usize) {
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let searchable = Strategy::searchable_ops(g);
    let mut s = Strategy::data_parallel(g, topo);
    let mut tg = TaskGraph::build(g, topo, &s, &cost, &cfg);
    let mut state = simulate_full(&tg);
    for step in 0..steps {
        let op = searchable[rng.gen_range(0..searchable.len())];
        let config = random_config(g.op(op), topo, ConfigSpace::Full, &mut rng);
        s.replace(op, config);
        let report = tg.rebuild_op(g, topo, &s, &cost, &cfg, op);
        let delta_cost =
            simulate_delta_with(&tg, &mut state, &report, &mut DeltaScratch::default());
        let fresh = simulate_full(&TaskGraph::build(g, topo, &s, &cost, &cfg));
        assert!(
            (delta_cost - fresh.makespan_us()).abs() < 1e-6,
            "model {} step {step}: delta {delta_cost} vs full {}",
            g.name(),
            fresh.makespan_us()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn delta_matches_full_on_random_models(seed in 0u64..500, depth in 3usize..10) {
        let g = random_model(seed, depth);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        check_walk(&g, &topo, seed ^ 0xABCD, 25);
    }

    #[test]
    fn delta_matches_full_on_hierarchical_random_models(
        seed in 0u64..500,
        islands in 2usize..4,
    ) {
        let g = random_model(seed, 5);
        let topo = clusters::hierarchical_cluster(DeviceKind::P100, islands, 4);
        check_walk(&g, &topo, seed ^ 0x1517, 12);
    }

    #[test]
    fn apply_rollback_restores_state_bit_identically(seed in 0u64..500, depth in 3usize..10) {
        let g = random_model(seed, depth);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7C7C);
        let searchable = Strategy::searchable_ops(&g);
        let mut sim = Simulator::new(&g, &topo, &cost, cfg, Strategy::data_parallel(&g, &topo));
        for step in 0..25 {
            let op = searchable[rng.gen_range(0..searchable.len())];
            let config = random_config(g.op(op), &topo, ConfigSpace::Full, &mut rng);
            if rng.gen_range(0..3) == 0 {
                // Advance the walk: apply + commit.
                sim.apply(Proposal::Config(op, config));
                sim.commit();
            } else {
                // Speculate: apply + rollback must be an exact no-op on
                // both structures (bit-identical, not just cost-equal).
                let tg_before = sim.task_graph().clone();
                let st_before = sim.state().clone();
                let cost_before = sim.cost_us();
                sim.apply(Proposal::Config(op, config));
                let restored = sim.rollback();
                prop_assert_eq!(cost_before.to_bits(), restored.to_bits(),
                    "step {}: cost not restored", step);
                prop_assert!(sim.task_graph() == &tg_before,
                    "step {}: task graph not restored exactly", step);
                prop_assert!(sim.state() == &st_before,
                    "step {}: timeline not restored exactly", step);
            }
        }
        // The surviving (committed) walk is still exact vs a fresh build.
        let fresh = simulate_full(&TaskGraph::build(&g, &topo, sim.strategy(), &cost, &cfg));
        prop_assert!((sim.cost_us() - fresh.makespan_us()).abs() < 1e-6,
            "committed walk drifted: {} vs {}", sim.cost_us(), fresh.makespan_us());
    }

    #[test]
    fn timeline_is_consistent(seed in 0u64..500) {
        let g = random_model(seed, 6);
        let topo = clusters::uniform_cluster(2, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = Strategy::random(&g, &topo, ConfigSpace::Full, &mut rng);
        let tg = TaskGraph::build(&g, &topo, &s, &cost, &SimConfig::default());
        let state = simulate_full(&tg);

        // 1. dependencies: succ.start >= pred.end (ready = max preds end)
        for (id, t) in tg.iter() {
            let (ready, start, end) = state.times(id);
            prop_assert!(start >= ready);
            prop_assert!((end - (start + t.exe_us)).abs() < 1e-9);
            for &p in &t.preds {
                let (_, _, p_end) = state.times(p);
                prop_assert!(start >= p_end - 1e-9, "dependency violated");
            }
            prop_assert!(end <= state.makespan_us() + 1e-9);
        }
        // 2. no overlap per unit
        for unit in state.units() {
            let order = state.order(unit);
            for w in order.windows(2) {
                let (_, _, e0) = state.times(w[0]);
                let (_, s1, _) = state.times(w[1]);
                prop_assert!(s1 >= e0 - 1e-9, "unit {unit} overlaps");
            }
        }
    }
}

/// Identity-keyed timeline fingerprint: tasks are identified by their
/// stable `seq` key (a pure function of task identity), so timelines of
/// graphs with different slot layouts compare bit-for-bit.
fn timeline_fingerprint(tg: &TaskGraph, state: &SimState) -> Vec<(u128, ExecUnit, u64, u64, u64)> {
    let mut v: Vec<_> = tg
        .iter()
        .map(|(id, t)| {
            let (r, s, e) = state.times(id);
            (t.seq, t.unit, r.to_bits(), s.to_bits(), e.to_bits())
        })
        .collect();
    v.sort();
    v
}

#[test]
fn delta_walk_is_bit_identical_to_full_on_flat_topologies() {
    // After a committed delta walk on flat, m = 1 timelines, every task's
    // (ready, start, end) and unit matches a fresh full simulation bit for
    // bit, even though the rebuilt graph's slot layout differs.
    let topo = clusters::p100_cluster(1);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    for g in [zoo::rnnlm(64, 2), zoo::nmt(32, 2), zoo::inception_v3(8)] {
        let mut rng = StdRng::seed_from_u64(11);
        let searchable = Strategy::searchable_ops(&g);
        let mut s = Strategy::data_parallel(&g, &topo);
        let mut tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let mut state = simulate_full(&tg);
        for _ in 0..10 {
            let op = searchable[rng.gen_range(0..searchable.len())];
            let config = random_config(g.op(op), &topo, ConfigSpace::Full, &mut rng);
            s.replace(op, config);
            let report = tg.rebuild_op(&g, &topo, &s, &cost, &cfg, op);
            simulate_delta_with(&tg, &mut state, &report, &mut DeltaScratch::default());
        }
        let fresh_tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let fresh = simulate_full(&fresh_tg);
        assert!(
            timeline_fingerprint(&tg, &state) == timeline_fingerprint(&fresh_tg, &fresh),
            "{}: delta-evolved timeline differs from a fresh full simulation",
            g.name()
        );
    }
}

#[test]
fn delta_matches_full_on_hierarchical_clusters() {
    // NVLink islands joined by an InfiniBand spine: delta simulation must
    // stay exact across the spine.
    let topo = clusters::hierarchical_cluster(DeviceKind::P100, 2, 4);
    for g in [zoo::lenet(64), zoo::rnnlm(64, 2)] {
        check_walk(&g, &topo, 23, 20);
    }
    let big = clusters::hierarchical_cluster(DeviceKind::A100, 4, 4);
    check_walk(&zoo::rnnlm(64, 2), &big, 5, 10);
}

#[test]
fn delta_matches_full_on_zoo_models() {
    // Heavier deterministic sweep over the actual paper benchmarks
    // (small unrolls to keep runtime in check).
    let topo = clusters::p100_cluster(1);
    for g in [zoo::lenet(64), zoo::rnnlm(64, 3), zoo::alexnet(64)] {
        check_walk(&g, &topo, 7, 30);
    }
}

#[test]
fn cost_is_pure_function_of_strategy() {
    // Reaching the same strategy via two different delta histories must
    // give the same cost.
    let g = zoo::lenet(32);
    let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    let searchable = Strategy::searchable_ops(&g);
    let target = {
        let mut rng = StdRng::seed_from_u64(99);
        Strategy::random(&g, &topo, ConfigSpace::Full, &mut rng)
    };

    // History A: start from DP, morph op by op in order.
    let mut sa = Strategy::data_parallel(&g, &topo);
    let mut tga = TaskGraph::build(&g, &topo, &sa, &cost, &cfg);
    let mut sta = simulate_full(&tga);
    let mut cost_a = sta.makespan_us();
    for &op in &searchable {
        sa.replace(op, target.config(op).clone());
        let report = tga.rebuild_op(&g, &topo, &sa, &cost, &cfg, op);
        cost_a = simulate_delta_with(&tga, &mut sta, &report, &mut DeltaScratch::default());
    }

    // History B: start from single-device, morph in reverse order.
    let mut sb = Strategy::single_device(&g, &topo, 0);
    let mut tgb = TaskGraph::build(&g, &topo, &sb, &cost, &cfg);
    let mut stb = simulate_full(&tgb);
    let mut cost_b = stb.makespan_us();
    for &op in searchable.iter().rev() {
        sb.replace(op, target.config(op).clone());
        let report = tgb.rebuild_op(&g, &topo, &sb, &cost, &cfg, op);
        cost_b = simulate_delta_with(&tgb, &mut stb, &report, &mut DeltaScratch::default());
    }

    assert!(
        (cost_a - cost_b).abs() < 1e-6,
        "history-dependent cost: {cost_a} vs {cost_b}"
    );
    // And both match a fresh evaluation of the target strategy.
    let fresh = simulate_full(&TaskGraph::build(&g, &topo, &target, &cost, &cfg));
    assert!((cost_a - fresh.makespan_us()).abs() < 1e-6);
}

/// Applies one random proposal of any of the four kinds the search makes
/// (config, microbatch count, parameter-sync mode, recompute bit) and
/// returns its cost.
fn apply_random_proposal(sim: &mut Simulator, rng: &mut StdRng) -> f64 {
    let g = sim.graph();
    let topo = sim.topology();
    match rng.gen_range(0..4u32) {
        0 => {
            let searchable = Strategy::searchable_ops(g);
            let op = searchable[rng.gen_range(0..searchable.len())];
            sim.apply(Proposal::Config(
                op,
                random_config(g.op(op), topo, ConfigSpace::Full, rng),
            ))
        }
        1 => {
            let counts = soap::legal_microbatch_counts(g, 4);
            sim.apply(Proposal::Microbatches(
                counts[rng.gen_range(0..counts.len())],
            ))
        }
        2 => {
            let sync_ops = soap::sync_ops(g);
            let op = sync_ops[rng.gen_range(0..sync_ops.len())];
            let mode = match rng.gen_range(0..3u32) {
                0 => ParamSync::AllReduce,
                1 => ParamSync::ShardedZero1 {
                    shards: rng.gen_range(2..5),
                },
                _ => ParamSync::ParamServer {
                    server_device: rng.gen_range(0..topo.num_devices()),
                },
            };
            sim.apply(Proposal::ParamSync(op, mode))
        }
        _ => {
            let ops: Vec<OpId> = g
                .ids()
                .filter(|&id| !matches!(g.op(id).kind(), OpKind::Input { .. }))
                .collect();
            let op = ops[rng.gen_range(0..ops.len())];
            let on = !sim.strategy().recompute(op);
            sim.apply(Proposal::Recompute(op, on))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn four_kind_walks_match_full_and_roll_back_exactly(
        seed in 0u64..1000,
        hierarchical in 0u8..2,
    ) {
        let g = zoo::rnnlm(16, 2);
        let topo = if hierarchical == 1 {
            clusters::preset("p100x16-ib").expect("preset exists")
        } else {
            clusters::uniform_cluster(2, 2, 16.0, 4.0)
        };
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = Strategy::random_with_max_degree(&g, &topo, ConfigSpace::Full, 4, &mut rng);
        let mut sim = Simulator::new(&g, &topo, &cost, cfg, s);
        for step in 0..16 {
            let tg_before = sim.task_graph().clone();
            let st_before = sim.state().clone();
            let strat_before = sim.strategy().clone();
            let applied = apply_random_proposal(&mut sim, &mut rng);
            let fresh = simulate_full(&TaskGraph::build(&g, &topo, sim.strategy(), &cost, &cfg));
            prop_assert_eq!(applied.to_bits(), sim.cost_us().to_bits(), "step {}", step);
            prop_assert_eq!(applied.to_bits(), fresh.makespan_us().to_bits(),
                "step {}: delta {} vs full {}", step, applied, fresh.makespan_us());
            if rng.gen_bool(0.5) {
                sim.rollback();
                prop_assert!(sim.task_graph() == &tg_before, "step {}: graph drifted", step);
                prop_assert!(sim.state() == &st_before, "step {}: timeline drifted", step);
                prop_assert_eq!(sim.strategy(), &strat_before, "step {}", step);
            } else {
                sim.commit();
            }
        }
    }
}
