//! The repository benchmark: runs one workload and prints its result.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --flexflow BIN --work-dir DIR
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload, with
//! `--trace 1` the per-layer ledger. Either way it checks the program's
//! outputs, prints a human-readable report, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod search;
mod serve;
mod stats;

use stats::Report;
use std::process::ExitCode;

/// Every per-layer metric name and unit a traced run reports. Layers a
/// workload does not exercise read 0.
const PER_LAYER: &[(&str, &str)] = &[
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
    ("costmodel.lookup_us", "us"),
    ("optimizer.apply_us.config", "us"),
    ("optimizer.apply_us.microbatches", "us"),
    ("optimizer.apply_us.param_sync", "us"),
    ("optimizer.apply_us.recompute", "us"),
    ("protocol.parse_us", "us"),
    ("server.build_workload_us", "us"),
    ("opgraph.signature_us", "us"),
    ("device.signature_us", "us"),
    ("store.lookup_us", "us"),
    ("strategy_io.import_structural_us", "us"),
    ("store.insert_us", "us"),
    ("store.open_us", "us"),
    ("server.search_ms", "ms"),
    ("server.handle_line_us.hit", "us"),
    ("server.handle_line_us.miss", "us"),
    ("client.hit_us", "us"),
    ("client.miss_ms", "ms"),
    ("frontend.overhead_us", "us"),
];

/// Per-layer scalars (counts and ratios).
const PER_LAYER_SCALARS: &[(&str, &str)] = &[
    ("optimizer.proposals.config", "ratio"),
    ("optimizer.proposals.microbatches", "ratio"),
    ("optimizer.proposals.param_sync", "ratio"),
    ("optimizer.proposals.recompute", "ratio"),
    ("taskgraph.tasks", "count"),
    ("sim.sweep_share", "ratio"),
    ("sim.repair_steps_per_proposal", "count"),
    ("sim.fallbacks", "count"),
    ("memory.calls_per_proposal", "count"),
    ("optimizer.accept_ratio", "ratio"),
    ("optimizer.improve_ratio", "ratio"),
    ("optimizer.oom_penalized_ratio", "ratio"),
    ("optimizer.replay_match", "bool"),
    ("strategy.clones_per_proposal", "count"),
    ("costmodel.lookups_per_proposal", "count"),
    ("costmodel.cache_hit_ratio", "ratio"),
    ("optimizer.time_to_target_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("store.hit_ratio", "ratio"),
    ("store.evictions", "count"),
    ("server.busy", "count"),
    ("polish.runs", "count"),
    ("polish.evals", "count"),
    ("client.late_p99_us", "us"),
    ("error_rate", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    flexflow: String,
    work_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        flexflow: "target/release/flexflow".to_string(),
        work_dir: ".bench_work".to_string(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--flexflow" => a.flexflow = value.clone(),
            "--work-dir" => a.work_dir = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let spec = match args.workload.as_str() {
        "search_rnnlm4_axes" => Some(&search::RNNLM4_AXES),
        "search_gpt_small16" => Some(&search::GPT_SMALL16),
        "serve_zipf_tcp" => None,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (spec, args.trace) {
        (Some(spec), false) => {
            search::run(spec, args.seed, args.seconds, &mut report);
            Ok(())
        }
        (Some(spec), true) => {
            search::run_traced(spec, args.seed, args.seconds, &mut report);
            Ok(())
        }
        (None, trace) => serve::run(
            &serve::Options {
                flexflow: args.flexflow.clone(),
                work_dir: args.work_dir.clone(),
                seed: args.seed,
                seconds: args.seconds,
                trace,
            },
            &mut report,
        ),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if args.trace {
        report.metric(
            "error_rate",
            report.failed as f64 / report.attempted.max(1) as f64,
            "ratio",
        );
        // Layers this workload does not exercise report 0.
        for &(name, unit) in PER_LAYER {
            for stat in ["p50", "p99", "mean"] {
                let key = format!("{name}.{stat}");
                if !report.metrics.iter().any(|m| m.name == key) {
                    report.metric(&key, 0.0, unit);
                }
            }
        }
        for &(name, unit) in PER_LAYER_SCALARS {
            if !report.metrics.iter().any(|m| m.name == name) {
                report.metric(name, 0.0, unit);
            }
        }
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} could not be measured", m.name);
        return ExitCode::FAILURE;
    }
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
