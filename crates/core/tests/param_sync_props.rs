//! Property-based tests for the searchable parameter-sync axis:
//!
//! 1. **All-reduce everywhere is the pre-axis execution**: a strategy
//!    with `ParamSync::AllReduce` pinned on every op builds a task graph
//!    and timeline identical to the same strategy before the axis existed
//!    (same task multiset, bit-identical makespan) — the sync extension
//!    is free when off.
//! 2. **Structural transactionality**: a `Proposal::ParamSync`
//!    applied through `Simulator::apply` and rolled back restores the
//!    task graph, the timeline, and the strategy bit-for-bit, in mixed
//!    walks with ordinary config proposals; committed, its cost matches a
//!    from-scratch build at the new modes.
//! 3. **Volume conservation**: ZeRO-1 moves exactly the bytes the
//!    parameter-server star moves (the balanced sub-shard partition is
//!    exact), and parameter-server placement never moves less (an
//!    external server adds the server round-trip).

use flexflow_core::sim::{simulate_full, Proposal, SimConfig, Simulator};
use flexflow_core::soap::{self, random_config, ConfigSpace, ParamSync};
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

/// One mode drawn from the proposal vocabulary of the search.
fn random_mode(num_devices: usize, rng: &mut StdRng) -> ParamSync {
    match rng.gen_range(0..4u32) {
        0 => ParamSync::AllReduce,
        1 => ParamSync::ShardedZero1 { shards: 2 },
        2 => ParamSync::ShardedZero1 { shards: 4 },
        _ => ParamSync::ParamServer {
            server_device: rng.gen_range(0..num_devices),
        },
    }
}

/// Total bytes of every gradient-sync transfer in a task graph.
fn total_sync_bytes(tg: &TaskGraph) -> u64 {
    tg.iter()
        .filter_map(|(_, t)| match t.kind {
            TaskKind::SyncComm { bytes, .. } => Some(bytes),
            _ => None,
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: pinning `AllReduce` on every op changes nothing — the
    /// same `TaskGraph` (logical equality) and the same makespan bits as
    /// the default-mode build.
    #[test]
    fn allreduce_everywhere_is_the_default_execution(
        model_pick in 0u8..3,
        seed in 0u64..1000,
    ) {
        let (g, topo, s) = random_setup(model_pick, seed);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let plain = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let pinned = TaskGraph::build(
            &g, &topo, &s.clone().with_param_sync_everywhere(ParamSync::AllReduce), &cost, &cfg,
        );
        prop_assert!(plain == pinned, "pinned all-reduce must not change the task graph");
        let a = simulate_full(&plain).makespan_us();
        let b = simulate_full(&pinned).makespan_us();
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }

    /// Invariant 2: a param-sync apply → rollback is bit-exact, and a
    /// committed change matches a fresh build at the new modes. Mixed
    /// walks of config proposals and sync proposals stay exact.
    #[test]
    fn param_sync_apply_rollback_roundtrips_bit_identically(
        model_pick in 0u8..3,
        seed in 0u64..1000,
        steps in 4usize..10,
    ) {
        let (g, topo, s) = random_setup(model_pick, seed);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let sync_ops = soap::sync_ops(&g);
        prop_assume!(!sync_ops.is_empty());
        let searchable = Strategy::searchable_ops(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let mut sim = Simulator::new(&g, &topo, &cost, cfg, s);
        for step in 0..steps {
            let tg_before = sim.task_graph().clone();
            let st_before = sim.state().clone();
            let strat_before = sim.strategy().clone();
            let cost_before = sim.cost_us();
            let applied = if rng.gen_bool(0.5) {
                let op = sync_ops[rng.gen_range(0..sync_ops.len())];
                let mode = random_mode(topo.num_devices(), &mut rng);
                sim.apply(Proposal::ParamSync(op, mode))
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

    /// Invariant 3: ZeRO-1 conserves the star's wire volume exactly (the
    /// sub-shard partition is an exact integer split of each shard), and
    /// parameter-server placement never moves fewer bytes than the star
    /// (a replica-hosted server *is* the star; an external one adds the
    /// server's own round-trip).
    #[test]
    fn sync_volume_is_conserved_across_modes(
        model_pick in 0u8..3,
        seed in 0u64..1000,
        shards in 2u64..9,
        server in 0usize..4,
    ) {
        let (g, topo, s) = random_setup(model_pick, seed);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let bytes_with = |mode: ParamSync| {
            total_sync_bytes(&TaskGraph::build(
                &g, &topo, &s.clone().with_param_sync_everywhere(mode), &cost, &cfg,
            ))
        };
        let ar = bytes_with(ParamSync::AllReduce);
        let zero1 = bytes_with(ParamSync::ShardedZero1 { shards });
        prop_assert_eq!(ar, zero1, "ZeRO-1 must move exactly the star's bytes");
        let ps = bytes_with(ParamSync::ParamServer { server_device: server });
        prop_assert!(ps >= ar, "param-server moved {} < star {}", ps, ar);
    }
}

/// The headline property: on a data-parallel placement of a
/// parameter-heavy model (where gradient sync is on the critical path),
/// sharding the update across all replicas strictly beats the serialized
/// star — the same volume leaves through every owner's link instead of
/// one root's.
#[test]
fn zero1_strictly_beats_the_star_on_data_parallelism() {
    let g = zoo::gpt_small(8);
    let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    let dp = Strategy::data_parallel(&g, &topo);
    let base = simulate_full(&TaskGraph::build(&g, &topo, &dp, &cost, &cfg)).makespan_us();
    let sharded = simulate_full(&TaskGraph::build(
        &g,
        &topo,
        &dp.clone()
            .with_param_sync_everywhere(ParamSync::ShardedZero1 { shards: 4 }),
        &cost,
        &cfg,
    ))
    .makespan_us();
    assert!(
        sharded < base,
        "4-way sharded update must beat the star: {sharded} vs {base}"
    );
}

/// Delta simulation after single-op proposals stays exact on a graph
/// whose layers carry *mixed* sync modes (the incremental rebuild must
/// understand every sync chain shape).
#[test]
fn delta_stays_exact_under_mixed_sync_modes() {
    let g = zoo::rnnlm(32, 2);
    let topo = clusters::uniform_cluster(2, 2, 16.0, 4.0);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    let mut s = Strategy::data_parallel(&g, &topo);
    for (i, op) in soap::sync_ops(&g).into_iter().enumerate() {
        let mode = match i % 3 {
            0 => ParamSync::AllReduce,
            1 => ParamSync::ShardedZero1 { shards: 2 },
            _ => ParamSync::ParamServer {
                server_device: i % topo.num_devices(),
            },
        };
        s.set_param_sync(op, mode);
    }
    let searchable = Strategy::searchable_ops(&g);
    let mut rng = StdRng::seed_from_u64(17);
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

/// Sync proposals compose with microbatch proposals: interleaving the two
/// structural axes in one transactional walk stays exact, and the
/// pipelined graph still fires each shard's sync once per iteration.
#[test]
fn param_sync_composes_with_microbatches() {
    let g = zoo::rnnlm(16, 2);
    let topo = clusters::uniform_cluster(2, 2, 16.0, 4.0);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    let sync_ops = soap::sync_ops(&g);
    let counts = flexflow_core::soap::legal_microbatch_counts(&g, 4);
    let mut rng = StdRng::seed_from_u64(29);
    let s = Strategy::data_parallel(&g, &topo);
    let mut sim = Simulator::new(&g, &topo, &cost, cfg, s);
    for step in 0..20 {
        let applied = if step % 2 == 0 {
            let m = counts[rng.gen_range(0..counts.len())];
            sim.apply(Proposal::Microbatches(m))
        } else {
            let op = sync_ops[rng.gen_range(0..sync_ops.len())];
            sim.apply(Proposal::ParamSync(
                op,
                random_mode(topo.num_devices(), &mut rng),
            ))
        };
        if step % 3 == 0 {
            sim.rollback();
        } else {
            sim.commit();
            let fresh = simulate_full(&TaskGraph::build(&g, &topo, sim.strategy(), &cost, &cfg));
            assert!(
                (applied - fresh.makespan_us()).abs() < 1e-6,
                "step {step}: delta {applied} vs fresh {}",
                fresh.makespan_us()
            );
        }
    }
    // Sync fires once per iteration regardless of the pipeline depth,
    // under every mode.
    for mode in [
        ParamSync::AllReduce,
        ParamSync::ShardedZero1 { shards: 2 },
        ParamSync::ParamServer { server_device: 1 },
    ] {
        let s = Strategy::data_parallel(&g, &topo).with_param_sync_everywhere(mode);
        let sync_count = |tg: &TaskGraph| {
            tg.iter()
                .filter(|(_, t)| matches!(t.kind, TaskKind::SyncComm { .. }))
                .count()
        };
        let whole = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let piped = TaskGraph::build(&g, &topo, &s.clone().with_microbatches(4), &cost, &cfg);
        assert_eq!(
            sync_count(&whole),
            sync_count(&piped),
            "{mode}: sync must fire once per iteration, not per microbatch"
        );
    }
}
