//! Search workloads: `SearchRequest::run` on fixed graphs, plus the traced
//! replay that times each layer's public calls.
//!
//! The untraced run repeats whole searches (one "job" per derived seed,
//! `chains(1)`, the data-parallel and expert initials `flexflow search`
//! uses) until the measuring window closes, and checks every winner by
//! re-simulating it from scratch. The traced run alternates a reference
//! `SearchRequest::run` with a replay of the same chain through the
//! layers' public functions (`soap::random_config`, `TaskGraph::rebuild_*`,
//! `sim::simulate_delta_with`, journal commit/rollback,
//! `memory::footprint`), timing each call. The replay must reproduce the
//! reference's eval count and best cost bit-for-bit.

use crate::stats::{mean, median, mix, peak_rss_mb, quantile, sorted, Report, Samples, Summary};
use flexflow_baselines::expert;
use flexflow_core::memory::{self, MemBudget};
use flexflow_core::sim::{simulate_delta_with, simulate_full, DeltaScratch};
use flexflow_core::soap::{self, ParallelConfig};
use flexflow_core::taskgraph::RebuildReport;
use flexflow_core::{
    Budget, ParamSync, SearchRequest, SearchResult, SimConfig, SimState, Simulator, Strategy,
    TaskGraph,
};
use flexflow_costmodel::{CostModel, MeasuredCostModel};
use flexflow_device::{clusters, DeviceKind, Topology};
use flexflow_opgraph::{zoo, OpGraph, OpId, OpKind, OpNode};
use flexflow_tensor::Rect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const MIB: f64 = (1u64 << 20) as f64;

/// One search workload.
pub struct Spec {
    pub model: &'static str,
    /// Flat paper cluster `(kind, gpus)`, or a hierarchical preset name.
    pub cluster: Result<(DeviceKind, usize), &'static str>,
    pub max_microbatches: u64,
    pub param_sync: bool,
    pub recompute: bool,
    /// Enforce `MemBudget::device_defaults`.
    pub mem_budget: bool,
    /// Evaluation budget per initial candidate, per job.
    pub evals: u64,
    /// Cost (ms/iter) that the traced `optimizer.time_to_target_ms` waits for.
    pub target_ms: f64,
}

pub const RNNLM4_AXES: Spec = Spec {
    model: "rnnlm",
    cluster: Ok((DeviceKind::P100, 4)),
    max_microbatches: 4,
    param_sync: true,
    recompute: true,
    mem_budget: true,
    evals: 600,
    target_ms: 103.5,
};

pub const GPT_SMALL16: Spec = Spec {
    model: "gpt_small",
    cluster: Err("p100x16-ib"),
    max_microbatches: 1,
    param_sync: false,
    recompute: false,
    mem_budget: false,
    evals: 50,
    target_ms: 357.8,
};

/// Graph, cluster, cost model and initials: what `flexflow search` builds.
struct Inputs {
    graph: OpGraph,
    topo: Topology,
    cost: MeasuredCostModel,
    initials: Vec<Strategy>,
    budget: Option<MemBudget>,
}

/// Builds the inputs and the first simulator; returns them with the
/// wall seconds it took.
fn setup(spec: &Spec) -> (Inputs, f64) {
    let t0 = Instant::now();
    let graph = zoo::by_name(spec.model, 64);
    let topo = match spec.cluster {
        Ok((kind, gpus)) => clusters::paper_cluster(kind, gpus),
        Err(preset) => clusters::preset(preset).expect("known preset"),
    };
    let cost = MeasuredCostModel::paper_default();
    let initials = vec![
        Strategy::data_parallel(&graph, &topo),
        expert::strategy(&graph, &topo),
    ];
    let budget = spec.mem_budget.then(|| MemBudget::device_defaults(&topo));
    let sim = Simulator::new(
        &graph,
        &topo,
        &cost,
        SimConfig::default(),
        initials[0].clone(),
    );
    assert!(sim.cost_us() > 0.0);
    drop(sim);
    let secs = t0.elapsed().as_secs_f64();
    (
        Inputs {
            graph,
            topo,
            cost,
            initials,
            budget,
        },
        secs,
    )
}

fn request(spec: &Spec, inputs: &Inputs, seed: u64) -> SearchRequest {
    SearchRequest::new(seed)
        .chains(1)
        .max_microbatches(spec.max_microbatches)
        .param_sync(spec.param_sync)
        .recompute(spec.recompute)
        .mem_budget(inputs.budget.clone())
}

fn run_job(spec: &Spec, inputs: &Inputs, seed: u64) -> SearchResult {
    request(spec, inputs, seed).run(
        &inputs.graph,
        &inputs.topo,
        &inputs.cost,
        &inputs.initials,
        Budget::evaluations(spec.evals),
        SimConfig::default(),
    )
}

/// Output checks on one job: the winner re-simulated from scratch must
/// equal the reported cost bit-for-bit, and fit the memory budget if any.
fn check_job(report: &mut Report, inputs: &Inputs, r: &SearchResult, seed: u64) {
    let tg = TaskGraph::build(
        &inputs.graph,
        &inputs.topo,
        &r.best,
        &inputs.cost,
        &SimConfig::default(),
    );
    let full = simulate_full(&tg).makespan_us();
    report.check(full.to_bits() == r.best_cost_us.to_bits(), || {
        format!(
            "seed {seed}: re-simulated {full} us != reported {} us",
            r.best_cost_us
        )
    });
    if let Some(budget) = &inputs.budget {
        let fp = memory::footprint(&inputs.graph, &inputs.topo, &r.best);
        let v = memory::budget_violation(&fp, &inputs.topo, budget);
        report.check(v.is_none(), || {
            format!("seed {seed}: winner overflows its memory budget")
        });
    }
}

fn time_to_target(r: &SearchResult, target_us: f64) -> Option<f64> {
    r.trace
        .iter()
        .find(|&&(_, c)| c <= target_us)
        .map(|&(t, _)| t)
}

fn peak_mem_mb(inputs: &Inputs, s: &Strategy) -> f64 {
    memory::footprint(&inputs.graph, &inputs.topo, s)
        .peak_with_state()
        .1 as f64
        / MIB
}

/// The untraced run: end-to-end metrics.
pub fn run(spec: &Spec, seed: u64, seconds: f64, report: &mut Report) {
    // One set-up for the searches, then one more before each search, so
    // the set-up samples spread over the whole window.
    let (inputs, first) = setup(spec);
    let mut setup_times = vec![first];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut evals, mut busy) = (0u64, 0.0f64);
    let (mut rate, mut first_us) = (Vec::new(), Vec::new());
    let (mut best_ms, mut peak_mb) = (Vec::new(), Vec::new());
    let mut job = 0u64;
    while job < 3 || Instant::now() < deadline {
        setup_times.push(setup(spec).1);
        let job_seed = mix(seed, job);
        let r = run_job(spec, &inputs, job_seed);
        evals += r.evals;
        busy += r.elapsed_seconds;
        rate.push(r.evals as f64 / r.elapsed_seconds);
        first_us.push(r.trace.first().map_or(0.0, |&(t, _)| t * 1e6));
        best_ms.push(r.best_cost_us / 1e3);
        peak_mb.push(peak_mem_mb(&inputs, &r.best));
        check_job(report, &inputs, &r, job_seed);
        job += 1;
    }
    report.note(format!(
        "{job} searches of {} evals per initial: {evals} proposals in {busy:.2} s",
        spec.evals
    ));
    report.note(format!(
        "best ms/iter per search: {}",
        best_ms
            .iter()
            .map(|c| format!("{c:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let rates = Summary::of(&rate);
    report.note(format!(
        "per-search proposals/s: p10 {:.1} p50 {:.1} p90 {:.1}; set-up ms: min {:.3} p50 {:.3} max {:.3}",
        quantile(&sorted(&rate), 0.1),
        rates.p50,
        rates.p90,
        sorted(&setup_times)[0] * 1e3,
        median(&setup_times) * 1e3,
        sorted(&setup_times)[setup_times.len() - 1] * 1e3,
    ));
    report.metric("setup_s", median(&setup_times), "s");
    report.metric("throughput_per_s", median(&rate), "1/s");
    report.metric("fast_path_us", sorted(&first_us)[0], "us");
    report.metric("result_ms_per_iter", mean(&best_ms), "ms");
    report.metric("result_peak_mem_mb", mean(&peak_mb), "MB");
    report.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(f64::NAN), "MB");
}

// ---------------------------------------------------------------------------
// Traced replay.

/// Cost model wrapper timing every task-time lookup.
struct CountingCost<'a> {
    inner: &'a MeasuredCostModel,
    times_us: Mutex<Vec<f64>>,
}

impl CountingCost<'_> {
    fn timed(&self, f: impl FnOnce() -> f64) -> f64 {
        let t0 = Instant::now();
        let v = f();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.times_us
            .lock()
            .expect("lookup samples: no thread panics while holding the lock")
            .push(us);
        v
    }
}

impl CostModel for CountingCost<'_> {
    fn task_time_us(&self, node: &OpNode, out: &Rect, device: DeviceKind) -> f64 {
        self.timed(|| self.inner.task_time_us(node, out, device))
    }

    fn op_signature(&self, node: &OpNode) -> u64 {
        self.inner.op_signature(node)
    }

    fn task_time_us_sig(&self, sig: u64, node: &OpNode, out: &Rect, device: DeviceKind) -> f64 {
        self.timed(|| self.inner.task_time_us_sig(sig, node, out, device))
    }
}

/// Proposal kinds, in the order the chain draws them.
#[derive(Clone, Copy)]
enum Kind {
    Config,
    Microbatches,
    ParamSync,
    Recompute,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::Config,
        Kind::Microbatches,
        Kind::ParamSync,
        Kind::Recompute,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::Config => "config",
            Kind::Microbatches => "microbatches",
            Kind::ParamSync => "param_sync",
            Kind::Recompute => "recompute",
        }
    }
}

enum Proposal {
    Config(OpId, ParallelConfig),
    Microbatches(u64),
    ParamSync(OpId, ParamSync),
    Recompute(OpId, bool),
}

impl Proposal {
    fn kind(&self) -> Kind {
        match self {
            Proposal::Config(..) => Kind::Config,
            Proposal::Microbatches(_) => Kind::Microbatches,
            Proposal::ParamSync(..) => Kind::ParamSync,
            Proposal::Recompute(..) => Kind::Recompute,
        }
    }
}

/// What a pending apply must restore on rollback.
enum Undo {
    Config(OpId, ParallelConfig),
    /// The previous count and the timeline the full sweep replaced.
    Microbatches(u64, Box<SimState>),
    ParamSync(OpId, ParamSync),
    Recompute(OpId, bool),
}

/// Counters the replay accumulates next to its timings.
#[derive(Default)]
struct Counters {
    proposals: u64,
    per_kind: [u64; 4],
    accepted: u64,
    improved: u64,
    oom_penalized: u64,
    timeline_calls: u64,
    sweeps: u64,
    repair_steps: u64,
    fallbacks: u64,
    footprints: u64,
    clones: u64,
    tasks: u64,
    delta_full_mismatch: u64,
}

/// `Simulator`'s transactional apply/commit/rollback, spelled out over the
/// public task-graph and timeline calls so each can be timed.
struct Replay<'a> {
    graph: &'a OpGraph,
    topo: &'a Topology,
    cost: &'a dyn CostModel,
    cfg: SimConfig,
    strategy: Strategy,
    tg: TaskGraph,
    state: SimState,
    scratch: DeltaScratch,
    undo: Option<Undo>,
}

impl<'a> Replay<'a> {
    fn new(
        graph: &'a OpGraph,
        topo: &'a Topology,
        cost: &'a dyn CostModel,
        strategy: Strategy,
        s: &mut Samples,
    ) -> Self {
        let cfg = SimConfig::default();
        let tg = s.time("taskgraph.build_us", || {
            TaskGraph::build(graph, topo, &strategy, cost, &cfg)
        });
        let state = simulate_full(&tg);
        Self {
            graph,
            topo,
            cost,
            cfg,
            strategy,
            tg,
            state,
            scratch: DeltaScratch::default(),
            undo: None,
        }
    }

    fn begin(&mut self, undo: Undo) {
        self.tg.begin_txn();
        self.state.begin_txn();
        self.undo = Some(undo);
    }

    fn timeline(&mut self, report: &RebuildReport, s: &mut Samples, c: &mut Counters) -> f64 {
        let fallbacks = self.state.fallbacks;
        let t0 = Instant::now();
        let cost = simulate_delta_with(&self.tg, &mut self.state, report, &mut self.scratch);
        s.push("sim.timeline_us", t0.elapsed().as_secs_f64() * 1e6);
        c.timeline_calls += 1;
        c.sweeps += u64::from(self.scratch.last_was_sweep);
        c.repair_steps += self.scratch.last_repair_steps;
        c.fallbacks += self.state.fallbacks - fallbacks;
        cost
    }

    fn apply(&mut self, p: Proposal, s: &mut Samples, c: &mut Counters) -> f64 {
        let (graph, topo, cost, cfg) = (self.graph, self.topo, self.cost, self.cfg);
        match p {
            Proposal::Config(op, config) => {
                let old = self.strategy.replace(op, config);
                self.begin(Undo::Config(op, old));
                let strategy = &self.strategy;
                let tg = &mut self.tg;
                let report = s.time("taskgraph.rebuild_op_us", || {
                    tg.rebuild_op(graph, topo, strategy, cost, &cfg, op)
                });
                self.timeline(&report, s, c)
            }
            Proposal::Recompute(op, on) => {
                let old = self.strategy.set_recompute(op, on);
                self.begin(Undo::Recompute(op, old));
                let strategy = &self.strategy;
                let tg = &mut self.tg;
                let report = s.time("taskgraph.rebuild_op_us", || {
                    tg.rebuild_op(graph, topo, strategy, cost, &cfg, op)
                });
                self.timeline(&report, s, c)
            }
            Proposal::ParamSync(op, mode) => {
                let old = self.strategy.set_param_sync(op, mode);
                self.begin(Undo::ParamSync(op, old));
                match graph.op(op).layer() {
                    Some(layer) => {
                        let strategy = &self.strategy;
                        let tg = &mut self.tg;
                        let report = s.time("taskgraph.rebuild_layer_sync_us", || {
                            tg.rebuild_layer_sync(graph, topo, strategy, cost, &cfg, layer)
                        });
                        self.timeline(&report, s, c)
                    }
                    None => self.state.makespan_us(),
                }
            }
            Proposal::Microbatches(m) => {
                // A whole-graph rebuild followed by a from-scratch sweep
                // that replaces the timeline (what `Simulator` does through
                // its journaled in-place sweep).
                let old = self.strategy.set_microbatches(m);
                self.tg.begin_txn();
                let strategy = &self.strategy;
                let tg = &mut self.tg;
                s.time("taskgraph.rebuild_all_us", || {
                    tg.rebuild_all(graph, topo, strategy, cost, &cfg);
                });
                let t0 = Instant::now();
                let mut fresh = simulate_full(&self.tg);
                fresh.fallbacks = self.state.fallbacks;
                let pre = std::mem::replace(&mut self.state, fresh);
                s.push("sim.timeline_us", t0.elapsed().as_secs_f64() * 1e6);
                c.timeline_calls += 1;
                c.sweeps += 1;
                self.undo = Some(Undo::Microbatches(old, Box::new(pre)));
                self.state.makespan_us()
            }
        }
    }

    fn commit(&mut self, s: &mut Samples) {
        let t0 = Instant::now();
        if let Some(undo) = self.undo.take() {
            self.tg.commit_txn();
            if !matches!(undo, Undo::Microbatches(..)) {
                self.state.commit_txn();
            }
            drop(undo);
        }
        s.push("sim.commit_us", t0.elapsed().as_secs_f64() * 1e6);
    }

    fn rollback(&mut self, s: &mut Samples) {
        let t0 = Instant::now();
        if let Some(undo) = self.undo.take() {
            self.tg.rollback_txn();
            match undo {
                Undo::Config(op, old) => {
                    self.strategy.replace(op, old);
                    self.state.rollback_txn();
                }
                Undo::Recompute(op, old) => {
                    self.strategy.set_recompute(op, old);
                    self.state.rollback_txn();
                }
                Undo::ParamSync(op, old) => {
                    self.strategy.set_param_sync(op, old);
                    self.state.rollback_txn();
                }
                Undo::Microbatches(old, pre) => {
                    self.strategy.set_microbatches(old);
                    self.state = *pre;
                }
            }
        }
        s.push("sim.rollback_us", t0.elapsed().as_secs_f64() * 1e6);
    }
}

const MICROBATCH_PROPOSAL_ODDS: u64 = 8;
const PARAM_SYNC_PROPOSAL_ODDS: u64 = 8;
const RECOMPUTE_PROPOSAL_ODDS: u64 = 8;
const OOM_PENALTY_US: f64 = 1e12;
const OOM_PENALTY_PER_MIB_US: f64 = 1e3;

fn clone_timed(st: &Strategy, s: &mut Samples, c: &mut Counters) -> Strategy {
    c.clones += 1;
    s.time("strategy.clone_us", || st.clone())
}

/// Replays one chain of `SearchRequest::run` with `chains(1)` (the chain
/// loop of `flexflow_core::optimizer`), timing each layer call. Returns
/// `(evals, best cost)` and the replay's wall seconds.
fn replay(
    spec: &Spec,
    inputs: &Inputs,
    cost: &dyn CostModel,
    req: &SearchRequest,
    s: &mut Samples,
    c: &mut Counters,
) -> (u64, f64) {
    let (graph, topo) = (&inputs.graph, &inputs.topo);
    let budget = Budget::evaluations(spec.evals);
    let searchable = Strategy::searchable_ops(graph);
    let mb_counts = if req.max_microbatches > 1 {
        soap::legal_microbatch_counts(graph, req.max_microbatches)
    } else {
        Vec::new()
    };
    let mb_enabled = mb_counts.len() > 1;
    let cfg = SimConfig::default();
    let sync_ops = if req.param_sync && cfg.include_param_sync {
        soap::sync_ops(graph)
    } else {
        Vec::new()
    };
    let ps_enabled = !sync_ops.is_empty() && topo.num_devices() >= 2;
    let zero1_shards: Vec<u64> = if ps_enabled {
        std::iter::successors(Some(2u64), |k| k.checked_mul(2))
            .take_while(|&k| k <= topo.num_devices() as u64)
            .collect()
    } else {
        Vec::new()
    };
    let rc_ops: Vec<OpId> = if req.recompute {
        graph
            .ids()
            .filter(|&id| !matches!(graph.op(id).kind(), OpKind::Input { .. }))
            .collect()
    } else {
        Vec::new()
    };
    let rc_enabled = !rc_ops.is_empty();
    let penalty = |st: &Strategy, s: &mut Samples, c: &mut Counters| -> f64 {
        let Some(b) = req.mem_budget.as_ref() else {
            return 0.0;
        };
        c.footprints += 1;
        let fp = s.time("memory.footprint_us", || memory::footprint(graph, topo, st));
        match memory::budget_violation(&fp, topo, b) {
            Some(v) => OOM_PENALTY_US + v.overflow() as f64 / MIB * OOM_PENALTY_PER_MIB_US,
            None => 0.0,
        }
    };

    let mut rng = StdRng::seed_from_u64(req.seed);
    let mut best: Option<(Strategy, f64)> = None;
    let mut evals = 0u64;
    for init in &inputs.initials {
        let mut init = clone_timed(init, s, c);
        if init.microbatches() > 1 && !mb_counts.contains(&init.microbatches()) {
            init.set_microbatches(1);
        }
        if !ps_enabled && init.has_custom_param_sync() {
            init = init.with_param_sync_everywhere(ParamSync::AllReduce);
        }
        if !rc_enabled && init.has_recompute() {
            init = init.with_recompute_everywhere(false);
        }
        let t0 = Instant::now();
        let mut sim = Replay::new(graph, topo, cost, clone_timed(&init, s, c), s);
        s.push("sim.simulator_new_us", t0.elapsed().as_secs_f64() * 1e6);
        let initial_cost = sim.state.makespan_us();
        let mut current = initial_cost + penalty(&sim.strategy, s, c);
        if best.as_ref().is_none_or(|(_, b)| current < *b) {
            best = Some((clone_timed(&init, s, c), current));
        }
        let mut since_improvement = 0u64;
        let patience = ((budget.max_evals as f64) * budget.patience_fraction) as u64;
        let mut restart_evals = 0u64;
        while restart_evals < budget.max_evals {
            let t0 = Instant::now();
            let proposal = if mb_enabled && rng.gen_range(0..MICROBATCH_PROPOSAL_ODDS) == 0 {
                let now = sim.strategy.microbatches();
                let choices: Vec<u64> = mb_counts.iter().copied().filter(|&m| m != now).collect();
                Proposal::Microbatches(choices[rng.gen_range(0..choices.len())])
            } else if ps_enabled && rng.gen_range(0..PARAM_SYNC_PROPOSAL_ODDS) == 0 {
                let op = sync_ops[rng.gen_range(0..sync_ops.len())];
                let mode = match rng.gen_range(0..3u32) {
                    0 => ParamSync::AllReduce,
                    1 => ParamSync::ShardedZero1 {
                        shards: zero1_shards[rng.gen_range(0..zero1_shards.len())],
                    },
                    _ => ParamSync::ParamServer {
                        server_device: rng.gen_range(0..topo.num_devices()),
                    },
                };
                Proposal::ParamSync(op, mode)
            } else if rc_enabled && rng.gen_range(0..RECOMPUTE_PROPOSAL_ODDS) == 0 {
                let op = rc_ops[rng.gen_range(0..rc_ops.len())];
                Proposal::Recompute(op, !sim.strategy.recompute(op))
            } else {
                let op = searchable[rng.gen_range(0..searchable.len())];
                Proposal::Config(
                    op,
                    soap::random_config(graph.op(op), topo, req.space, &mut rng),
                )
            };
            s.push("soap.propose_us", t0.elapsed().as_secs_f64() * 1e6);
            let kind = proposal.kind();
            c.per_kind[kind as usize] += 1;
            let t0 = Instant::now();
            let raw = sim.apply(proposal, s, c);
            s.push(
                &format!("optimizer.apply_us.{}", kind.name()),
                t0.elapsed().as_secs_f64() * 1e6,
            );
            c.tasks += sim.tg.num_tasks() as u64;
            // Reference: a from-scratch simulation of the same graph.
            let full = s.time("sim.full_us", || simulate_full(&sim.tg).makespan_us());
            c.delta_full_mismatch += u64::from(full.to_bits() != raw.to_bits());
            let pen = penalty(&sim.strategy, s, c);
            c.oom_penalized += u64::from(pen > 0.0);
            let new_cost = raw + pen;
            evals += 1;
            restart_evals += 1;
            c.proposals += 1;
            let beta = req.beta_scale / initial_cost;
            let accept =
                new_cost <= current || rng.gen::<f64>() < (beta * (current - new_cost)).exp();
            if accept {
                sim.commit(s);
                c.accepted += 1;
                current = new_cost;
                if best.as_ref().is_none_or(|(_, b)| new_cost < *b) {
                    best = Some((clone_timed(&sim.strategy, s, c), new_cost));
                    c.improved += 1;
                    since_improvement = 0;
                } else {
                    since_improvement += 1;
                }
            } else {
                sim.rollback(s);
                since_improvement += 1;
            }
            if patience > 0 && since_improvement >= patience {
                break;
            }
        }
    }
    let (_, best_cost) = best.expect("at least one initial");
    (evals, best_cost)
}

/// The traced run: per-layer metrics.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64, report: &mut Report) {
    let mut s = Samples::default();
    let mut c = Counters::default();
    let (inputs, _) = setup(spec);
    let counting = CountingCost {
        inner: &inputs.cost,
        times_us: Mutex::new(Vec::new()),
    };
    let (hits0, misses0) = inputs.cost.cache_stats();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut plain_evals, mut plain_secs) = (0u64, 0.0f64);
    let (mut traced_secs, mut matched, mut jobs) = (0.0f64, 0u64, 0u64);
    // Time to target, pooled over searches: wall time spent until each
    // search reached the target (all of it when it never did), per search
    // that reached it.
    let (mut ttt_secs, mut reached) = (0.0f64, 0u64);
    while jobs < 2 || Instant::now() < deadline {
        let job_seed = mix(seed, jobs);
        let reference = run_job(spec, &inputs, job_seed);
        plain_evals += reference.evals;
        plain_secs += reference.elapsed_seconds;
        check_job(report, &inputs, &reference, job_seed);
        match time_to_target(&reference, spec.target_ms * 1e3) {
            Some(t) => {
                ttt_secs += t;
                reached += 1;
            }
            None => ttt_secs += reference.elapsed_seconds,
        }
        let req = request(spec, &inputs, job_seed);
        let full_before: f64 = s.get("sim.full_us").iter().sum();
        let t0 = Instant::now();
        let (evals, best) = replay(spec, &inputs, &counting, &req, &mut s, &mut c);
        let full_spent: f64 = s.get("sim.full_us").iter().sum::<f64>() - full_before;
        traced_secs += t0.elapsed().as_secs_f64() - full_spent / 1e6;
        let same = evals == reference.evals && best.to_bits() == reference.best_cost_us.to_bits();
        matched += u64::from(same);
        if !same {
            report.note(format!(
                "replay diverged on seed {job_seed}: {evals} evals / {best} us vs \
                 {} evals / {} us",
                reference.evals, reference.best_cost_us
            ));
        }
        jobs += 1;
    }
    report.check(c.delta_full_mismatch == 0, || {
        format!(
            "{} delta simulations differ from a full simulation",
            c.delta_full_mismatch
        )
    });
    let (hits1, misses1) = inputs.cost.cache_stats();
    let lookup_times = counting
        .times_us
        .into_inner()
        .expect("lookup samples: no thread panics while holding the lock");
    let lookups = lookup_times.len() as u64;
    let per = |x: u64| x as f64 / c.proposals.max(1) as f64;
    let plain_pps = plain_evals as f64 / plain_secs;
    let traced_pps = c.proposals as f64 / traced_secs;
    report.note(format!(
        "{jobs} searches replayed ({} proposals); replay matched {matched}/{jobs}",
        c.proposals
    ));
    report.note(format!(
        "untraced {plain_pps:.1} proposals/s, traced {traced_pps:.1} proposals/s; \
         target {} ms reached by {reached}/{jobs} searches",
        spec.target_ms
    ));

    for (name, unit) in [
        ("soap.propose_us", "us"),
        ("taskgraph.build_us", "us"),
        ("taskgraph.rebuild_op_us", "us"),
        ("taskgraph.rebuild_all_us", "us"),
        ("taskgraph.rebuild_layer_sync_us", "us"),
        ("sim.simulator_new_us", "us"),
        ("sim.timeline_us", "us"),
        ("sim.full_us", "us"),
        ("sim.commit_us", "us"),
        ("sim.rollback_us", "us"),
        ("memory.footprint_us", "us"),
        ("strategy.clone_us", "us"),
    ] {
        report.layer(name, unit, s.summary(name));
    }
    report.layer("costmodel.lookup_us", "us", Summary::of(&lookup_times));
    for kind in Kind::ALL {
        let name = format!("optimizer.apply_us.{}", kind.name());
        report.layer(&name, "us", s.summary(&name));
        report.metric(
            &format!("optimizer.proposals.{}", kind.name()),
            per(c.per_kind[kind as usize]),
            "ratio",
        );
    }
    report.metric("taskgraph.tasks", per(c.tasks), "count");
    report.metric(
        "sim.sweep_share",
        c.sweeps as f64 / c.timeline_calls.max(1) as f64,
        "ratio",
    );
    report.metric(
        "sim.repair_steps_per_proposal",
        per(c.repair_steps),
        "count",
    );
    report.metric("sim.fallbacks", c.fallbacks as f64, "count");
    report.metric("memory.calls_per_proposal", per(c.footprints), "count");
    report.metric("optimizer.accept_ratio", per(c.accepted), "ratio");
    report.metric("optimizer.improve_ratio", per(c.improved), "ratio");
    report.metric(
        "optimizer.oom_penalized_ratio",
        per(c.oom_penalized),
        "ratio",
    );
    report.metric(
        "optimizer.replay_match",
        if matched == jobs { 1.0 } else { 0.0 },
        "bool",
    );
    report.metric("strategy.clones_per_proposal", per(c.clones), "count");
    report.metric("costmodel.lookups_per_proposal", per(lookups), "count");
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    report.metric(
        "costmodel.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "optimizer.time_to_target_ms",
        ttt_secs * 1e3 / reached.max(1) as f64,
        "ms",
    );
    report.metric(
        "trace_overhead_pct",
        (plain_pps / traced_pps - 1.0) * 100.0,
        "%",
    );
}
