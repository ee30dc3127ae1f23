//! Property-based tests for the activation-recomputation axis:
//!
//! 1. **Structural transactionality**: a `Proposal::Recompute`
//!    applied through `Simulator::apply` and rolled back restores the
//!    task graph, the timeline, and the strategy bit-for-bit, in mixed
//!    walks with ordinary config proposals; committed, its cost matches a
//!    from-scratch build at the new bits.
//! 2. **Pipeline composition**: recompute proposals interleave with
//!    microbatch proposals in one transactional walk and stay exact —
//!    the re-inserted forward tasks must land per microbatch slab.
//! 3. **Peak-memory monotonicity**: setting any subset of recompute bits
//!    never *raises* a device's peak footprint (a recomputing op charges
//!    its largest transient slab instead of its stored sum), and deeper
//!    pipelining never raises the recompute slab.
//! 4. **Format compatibility**: a v4 dump with its `recompute` field
//!    stripped — exactly what a v1–v3 file is — loads to the same
//!    strategy as the unstripped dump when no op recomputes.

use flexflow_core::memory;
use flexflow_core::sim::{simulate_full, Proposal, SimConfig, Simulator};
use flexflow_core::soap::{random_config, ConfigSpace};
use flexflow_core::strategy::Strategy;
use flexflow_core::strategy_io::{self, StrategyDump};
use flexflow_core::taskgraph::TaskGraph;
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::clusters;
use flexflow_opgraph::{zoo, OpId, OpKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

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

/// The ops a recompute proposal may touch (the bit is inert on inputs).
fn recompute_ops(g: &flexflow_opgraph::OpGraph) -> Vec<OpId> {
    g.ids()
        .filter(|&id| !matches!(g.op(id).kind(), OpKind::Input { .. }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: a recompute apply → rollback is bit-exact, and a
    /// committed flip matches a fresh build at the new bits. Mixed walks
    /// of config proposals and recompute proposals stay exact.
    #[test]
    fn recompute_apply_rollback_roundtrips_bit_identically(
        model_pick in 0u8..3,
        seed in 0u64..1000,
        steps in 4usize..10,
    ) {
        let (g, topo, s) = random_setup(model_pick, seed);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let rc_ops = recompute_ops(&g);
        prop_assume!(!rc_ops.is_empty());
        let searchable = Strategy::searchable_ops(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACE5);
        let mut sim = Simulator::new(&g, &topo, &cost, cfg, s);
        for step in 0..steps {
            let tg_before = sim.task_graph().clone();
            let st_before = sim.state().clone();
            let strat_before = sim.strategy().clone();
            let cost_before = sim.cost_us();
            let applied = if rng.gen_bool(0.5) {
                let op = rc_ops[rng.gen_range(0..rc_ops.len())];
                let on = !sim.strategy().recompute(op);
                sim.apply(Proposal::Recompute(op, on))
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

    /// Invariant 2: recompute proposals compose with microbatch proposals
    /// in one transactional walk — the re-run forward tasks are lowered
    /// per microbatch slab and the delta path stays exact through both.
    #[test]
    fn recompute_composes_with_microbatches(
        seed in 0u64..1000,
    ) {
        let g = zoo::rnnlm(16, 2);
        let topo = clusters::uniform_cluster(2, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let rc_ops = recompute_ops(&g);
        let counts = flexflow_core::soap::legal_microbatch_counts(&g, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = Strategy::data_parallel(&g, &topo);
        let mut sim = Simulator::new(&g, &topo, &cost, cfg, s);
        for step in 0..20 {
            let applied = if step % 2 == 0 {
                let m = counts[rng.gen_range(0..counts.len())];
                sim.apply(Proposal::Microbatches(m))
            } else {
                let op = rc_ops[rng.gen_range(0..rc_ops.len())];
                let on = !sim.strategy().recompute(op);
                sim.apply(Proposal::Recompute(op, on))
            };
            if step % 3 == 0 {
                sim.rollback();
            } else {
                sim.commit();
                let fresh = simulate_full(&TaskGraph::build(&g, &topo, sim.strategy(), &cost, &cfg));
                prop_assert!(
                    (applied - fresh.makespan_us()).abs() < 1e-6,
                    "step {}: delta {} vs fresh {}",
                    step, applied, fresh.makespan_us()
                );
            }
        }
    }

    /// Invariant 3: flipping recompute bits on never raises any device's
    /// peak footprint, bit by bit along a random flip order; and for a
    /// recompute-everywhere strategy, deeper (legal) pipelining never
    /// raises the peak either — the transient slab shrinks with `m`.
    #[test]
    fn recompute_never_raises_peak_memory(
        model_pick in 0u8..3,
        seed in 0u64..1000,
    ) {
        let (g, topo, s) = random_setup(model_pick, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5AB);
        let mut ops = recompute_ops(&g);
        prop_assume!(!ops.is_empty());
        // Random flip order.
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.gen_range(0..=i));
        }
        let mut cur = s.clone();
        let mut prev_peak = memory::footprint(&g, &topo, &cur).peak_with_state().1;
        for op in ops {
            cur.set_recompute(op, true);
            let peak = memory::footprint(&g, &topo, &cur).peak_with_state().1;
            prop_assert!(
                peak <= prev_peak,
                "flipping {:?} raised the peak: {} -> {}",
                g.op(op).name(), prev_peak, peak
            );
            prev_peak = peak;
        }
        // Pipelining a recompute-everywhere strategy monotonically
        // shrinks (or holds) the peak: the slab is ceil-divided by m.
        let rc = s.with_recompute_everywhere(true);
        let mut last = u64::MAX;
        for m in flexflow_core::soap::legal_microbatch_counts(&g, 8) {
            let peak = memory::footprint(&g, &topo, &rc.clone().with_microbatches(m))
                .peak_with_state()
                .1;
            prop_assert!(
                peak <= last,
                "m = {} raised the recompute peak: {} -> {}",
                m, last, peak
            );
            last = peak;
        }
    }

    /// Invariant 4: a v4 dump with the `recompute` field stripped — the
    /// exact shape of a v1–v3 strategy file — loads to the same strategy
    /// as the unstripped dump whenever no op recomputes.
    #[test]
    fn stripped_v4_dumps_load_like_v3_files(
        model_pick in 0u8..3,
        seed in 0u64..1000,
    ) {
        let (g, topo, s) = random_setup(model_pick, seed);
        let dump = strategy_io::export(&g, &topo, &s);
        let json = serde_json::to_string(&dump).unwrap();
        let stripped = {
            let mut v: Value = serde_json::from_str(&json).unwrap();
            if let Value::Object(entries) = &mut v {
                entries.retain(|(k, _)| k != "recompute");
            }
            serde_json::to_string(&v).unwrap()
        };
        let legacy: StrategyDump = serde_json::from_str(&stripped).unwrap();
        prop_assert!(legacy.recompute.is_empty());
        let a = strategy_io::import(&g, &topo, &dump).unwrap();
        let b = strategy_io::import(&g, &topo, &legacy).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &s);
    }
}
