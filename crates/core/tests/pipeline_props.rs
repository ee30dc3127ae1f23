//! Property-based tests for microbatch pipeline parallelism:
//!
//! 1. **m = 1 is the whole-batch execution**: a strategy with one
//!    microbatch builds a task graph and timeline identical to the same
//!    strategy before the pipeline dimension existed (same task multiset,
//!    bit-identical makespan) — the pipeline extension is free when off.
//! 2. **Structural transactionality**: a `Proposal::Microbatches`
//!    applied through `Simulator::apply` and rolled back restores the
//!    task graph, the timeline, and the strategy bit-for-bit; committed,
//!    its cost matches a from-scratch build at the new count.
//! 3. **Pipeline sanity**: pipelined task graphs conserve the op graph's
//!    total sample work, the gradient sync fires once per iteration
//!    (sync-task count does not scale with m), and stage-ordering keeps a
//!    tile's microbatches in order.

use flexflow_core::sim::{simulate_full, Proposal, SimConfig, Simulator};
use flexflow_core::soap::{legal_microbatch_counts, random_config, ConfigSpace};
use flexflow_core::strategy::Strategy;
use flexflow_core::taskgraph::{TaskGraph, TaskKind};
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::clusters;
use flexflow_opgraph::zoo;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random strategy over a small zoo model, the shared generator.
fn random_setup(
    model_pick: u8,
    seed: u64,
) -> (
    flexflow_opgraph::OpGraph,
    flexflow_device::Topology,
    Strategy,
) {
    let g = match model_pick % 3 {
        0 => zoo::lenet(32),
        1 => zoo::rnnlm(16, 2),
        _ => zoo::rnntc(16, 2),
    };
    let topo = clusters::uniform_cluster(2, 2, 16.0, 4.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let s = Strategy::random_with_max_degree(&g, &topo, ConfigSpace::Full, 4, &mut rng);
    (g, topo, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: `microbatches = 1` costs exactly what the plain
    /// strategy costs — the same `TaskGraph` (logical equality) and the
    /// same makespan bits.
    #[test]
    fn one_microbatch_is_the_whole_batch_execution(
        model_pick in 0u8..3,
        seed in 0u64..1000,
    ) {
        let (g, topo, s) = random_setup(model_pick, seed);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let plain = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let pipelined = TaskGraph::build(
            &g, &topo, &s.clone().with_microbatches(1), &cost, &cfg,
        );
        prop_assert!(plain == pipelined, "m=1 must not change the task graph");
        let a = simulate_full(&plain).makespan_us();
        let b = simulate_full(&pipelined).makespan_us();
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }

    /// Invariant 2: a microbatch apply → rollback is bit-exact, and a
    /// committed change matches a fresh build at the new count. Mixed
    /// walks of config proposals and microbatch proposals stay exact.
    #[test]
    fn microbatch_apply_rollback_roundtrips_bit_identically(
        model_pick in 0u8..3,
        seed in 0u64..1000,
        steps in 4usize..10,
    ) {
        let (g, topo, s) = random_setup(model_pick, seed);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let counts = legal_microbatch_counts(&g, 8);
        prop_assume!(counts.len() > 1);
        let searchable = Strategy::searchable_ops(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let mut sim = Simulator::new(&g, &topo, &cost, cfg, s);
        for step in 0..steps {
            let tg_before = sim.task_graph().clone();
            let st_before = sim.state().clone();
            let strat_before = sim.strategy().clone();
            let cost_before = sim.cost_us();
            let applied = if rng.gen_bool(0.5) {
                let m = counts[rng.gen_range(0..counts.len())];
                sim.apply(Proposal::Microbatches(m))
            } else {
                let op = searchable[rng.gen_range(0..searchable.len())];
                let config = random_config(g.op(op), &topo, ConfigSpace::Full, &mut rng);
                sim.apply(Proposal::Config(op, config))
            };
            if rng.gen_bool(0.5) {
                let restored = sim.rollback();
                prop_assert_eq!(cost_before.to_bits(), restored.to_bits(), "step {}", step);
                prop_assert!(sim.task_graph() == &tg_before, "step {}: graph drifted", step);
                prop_assert!(sim.state() == &st_before, "step {}: timeline drifted", step);
                prop_assert_eq!(sim.strategy(), &strat_before, "step {}", step);
            } else {
                sim.commit();
                let fresh = simulate_full(&TaskGraph::build(
                    &g, &topo, sim.strategy(), &cost, &cfg,
                ));
                prop_assert!(
                    (applied - fresh.makespan_us()).abs() < 1e-6,
                    "step {}: committed {} vs fresh {}",
                    step, applied, fresh.makespan_us()
                );
            }
        }
    }

    /// Invariant 3: pipelined construction conserves sample work (compute
    /// entries of an op tile the same output volume regardless of m) and
    /// synchronizes each shard once per iteration, not once per
    /// microbatch.
    #[test]
    fn pipelined_graphs_conserve_work_and_sync_once(
        model_pick in 0u8..3,
        seed in 0u64..1000,
        m_pick in 0usize..4,
    ) {
        let (g, topo, s) = random_setup(model_pick, seed);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let counts = legal_microbatch_counts(&g, 8);
        let m = counts[m_pick % counts.len()];
        let plain = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let piped = TaskGraph::build(
            &g, &topo, &s.clone().with_microbatches(m), &cost, &cfg,
        );
        let compute_count = |tg: &TaskGraph| {
            tg.iter()
                .filter(|(_, t)| matches!(t.kind, TaskKind::Compute { .. }))
                .count()
        };
        // Each tile splits into between 1 and m slab intersections (a tile
        // narrower than a slab stays whole; one spanning every slab splits
        // m ways), so the compute population is bounded both ways.
        let (plain_c, piped_c) = (compute_count(&plain), compute_count(&piped));
        prop_assert!(piped_c >= plain_c, "{} < {}", piped_c, plain_c);
        prop_assert!(piped_c <= plain_c * m as usize, "{} > {} * {}", piped_c, plain_c, m);
        let sync_count = |tg: &TaskGraph| {
            tg.iter()
                .filter(|(_, t)| matches!(t.kind, TaskKind::SyncComm { .. }))
                .count()
        };
        prop_assert_eq!(
            sync_count(&piped), sync_count(&plain),
            "gradient sync must fire once per iteration, not per microbatch"
        );
    }
}

/// The headline property on a deep sequential model: with a
/// model-parallel (stage-per-device) placement, raising the microbatch
/// count strictly beats the whole-batch execution — the pipeline fills.
#[test]
fn pipelining_strictly_improves_a_staged_rnn() {
    let g = zoo::rnnlm(64, 4);
    let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    // Stage placement: ops assigned to devices by graph position.
    let n = g.len();
    let configs = g
        .ids()
        .map(|id| {
            let dev = topo.device_id((id.index() * 4 / n).min(3));
            flexflow_core::ParallelConfig::on_device(g.op(id), dev)
        })
        .collect();
    let staged = Strategy::from_configs(&g, configs);
    let base = simulate_full(&TaskGraph::build(&g, &topo, &staged, &cost, &cfg)).makespan_us();
    let piped = simulate_full(&TaskGraph::build(
        &g,
        &topo,
        &staged.clone().with_microbatches(4),
        &cost,
        &cfg,
    ))
    .makespan_us();
    assert!(
        piped < base,
        "4 microbatches must fill the 4-stage pipeline: {piped} vs {base}"
    );
}

/// Delta simulation after single-op proposals stays exact on a
/// *pipelined* graph (the incremental rebuild must understand
/// stage-ordered entries).
#[test]
fn delta_stays_exact_on_pipelined_graphs() {
    let g = zoo::rnnlm(32, 2);
    let topo = clusters::uniform_cluster(2, 2, 16.0, 4.0);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    let s = Strategy::data_parallel(&g, &topo).with_microbatches(4);
    let searchable = Strategy::searchable_ops(&g);
    let mut rng = StdRng::seed_from_u64(11);
    let mut sim = Simulator::new(&g, &topo, &cost, cfg, s);
    for step in 0..30 {
        let op = searchable[rng.gen_range(0..searchable.len())];
        let config = random_config(g.op(op), &topo, ConfigSpace::Full, &mut rng);
        let applied = sim.apply(Proposal::Config(op, config));
        if step % 2 == 0 {
            sim.commit();
            let fresh = simulate_full(&TaskGraph::build(&g, &topo, sim.strategy(), &cost, &cfg));
            assert!(
                (applied - fresh.makespan_us()).abs() < 1e-6,
                "step {step}: delta {applied} vs fresh {}",
                fresh.makespan_us()
            );
        } else {
            sim.rollback();
        }
    }
}

#[test]
fn pipelined_hierarchical_cost_matches_fresh_build() {
    // Microbatch proposals on an islands-plus-spine cluster rebuild the
    // whole graph before the sweep; each committed count must match a
    // from-scratch build, and the pipeline must still engage.
    use flexflow_device::DeviceKind;
    let g = zoo::rnnlm(16, 2);
    let topo = clusters::hierarchical_cluster(DeviceKind::P100, 2, 4);
    let cost = MeasuredCostModel::paper_default();
    let mut rng = StdRng::seed_from_u64(3);
    let s = Strategy::random_with_max_degree(&g, &topo, ConfigSpace::Full, 4, &mut rng);
    let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
    for m in legal_microbatch_counts(&g, 4) {
        let c = sim.apply(Proposal::Microbatches(m));
        sim.commit();
        let fresh = simulate_full(&TaskGraph::build(
            &g,
            &topo,
            sim.strategy(),
            &cost,
            &SimConfig::default(),
        ));
        assert!(
            (c - fresh.makespan_us()).abs() < 1e-6,
            "m={m}: {c} vs {}",
            fresh.makespan_us()
        );
    }
}

#[test]
fn legal_microbatch_counts_divide_every_sample_extent() {
    let g = zoo::rnnlm(64, 2);
    let counts = legal_microbatch_counts(&g, 64);
    assert!(counts.contains(&1) && counts.contains(&2) && counts.contains(&64));
    for m in counts {
        for id in g.ids() {
            assert_eq!(g.op(id).output_shape().dim(0) % m, 0);
        }
    }
    // A batch of 6 only admits 1, 2, 3, 6.
    let g6 = zoo::lenet(6);
    assert_eq!(legal_microbatch_counts(&g6, 8), vec![1, 2, 3, 6]);
}
