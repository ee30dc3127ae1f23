//! The serving workload: the release `flexflow serve --tcp` binary under an
//! open-loop Zipf request stream, plus (traced) an in-process replay of the
//! same stream through the server's layers.
//!
//! One client process drives at most `nproc` connections. Requests are due
//! on a seeded Poisson schedule at each rate of a fixed ladder; each is
//! timed from its due time, so a stall delays every later request too. Keys
//! are small `(model, cluster, gpus)` searches drawn from a Zipf law over a
//! key space larger than the server's store holds, so hits run next to
//! misses, inserts and LRU evictions. The polish daemon runs, as shipped.
//!
//! Set-up is timed over spawns that open an on-disk cache pre-populated
//! with the hottest keys. The server under load keeps its store in memory,
//! warmed with the same keys: with `--cache`, every miss fsyncs a shard
//! file, and fsync stalls of seconds on a shared host would make the load
//! measure the disk. The traced run still times `ShardedStore::insert` on
//! disk.

use crate::stats::{mean, median, mix, peak_rss_mb, quantile, Report, Samples, Summary};
use flexflow_baselines::expert;
use flexflow_core::sim::simulate_full;
use flexflow_core::strategy_io::{self, StrategyDump};
use flexflow_core::{memory, Budget, SimConfig, Strategy, TaskGraph};
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::Topology;
use flexflow_opgraph::{graph_signature, OpGraph};
use flexflow_server::cache::composite_class;
use flexflow_server::protocol::{self, Request, SearchRequest};
use flexflow_server::server::try_build_workload;
use flexflow_server::{
    CacheBounds, CacheEntry, ServerHandle, ShardedStore, StoreLookup, StrategyStore,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Value};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The key space: every model on every cluster, one eval budget; key `k`
/// is the `k`-th most popular.
const MODELS: [&str; 6] = [
    "lenet",
    "alexnet",
    "rnntc",
    "rnnlm",
    "inception_v3",
    "resnet101",
];
const CLUSTERS: [(&str, usize); 6] = [
    ("p100", 2),
    ("p100", 4),
    ("k80", 4),
    ("p100", 8),
    ("k80", 2),
    ("k80", 8),
];
const EVALS: u64 = 32;
/// Zipf exponent of the key draw.
const ZIPF_S: f64 = 1.7;
/// LRU bound of each of the server's 8 store shards. Entries shard by
/// graph, so each model's 6 cluster keys compete for 4 slots.
const CACHE_ENTRIES: usize = 4;
/// Offered rates of the ladder, requests per second.
const LADDER: [f64; 3] = [40.0, 80.0, 160.0];
/// Latency limit on each rung's p99 (failures count as misses of it).
const SLO_MS: f64 = 500.0;
/// Server worker threads: the shipped default.
const WORKERS: usize = 2;
/// Spawns whose time to first answer is `setup_s`.
const SETUPS: usize = 9;
const MIB: f64 = (1u64 << 20) as f64;

pub struct Options {
    pub flexflow: String,
    pub work_dir: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn key_space() -> Vec<String> {
    let mut keys = Vec::new();
    for (cluster, gpus) in CLUSTERS {
        for model in MODELS {
            keys.push(format!(
                "{{\"model\":\"{model}\",\"cluster\":\"{cluster}\",\"gpus\":{gpus},\
                 \"evals\":{EVALS},\"seed\":7,\"chains\":1}}"
            ));
        }
    }
    keys
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Due {
    rung: usize,
    key: usize,
    /// Offset from the rung start.
    at: Duration,
}

/// The seeded open-loop schedule: at each ladder rate, `rate × rung_secs`
/// arrivals at uniform random times (a Poisson process given its count),
/// each with a Zipf-drawn key.
fn schedule(seed: u64, keys: usize, rung_secs: f64) -> Vec<Due> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5e7e));
    let weights: Vec<f64> = (0..keys)
        .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut out = Vec::new();
    for (rung, rate) in LADDER.iter().enumerate() {
        let mut times: Vec<f64> = (0..(rate * rung_secs).round() as usize)
            .map(|_| rng.gen::<f64>() * rung_secs)
            .collect();
        times.sort_by(f64::total_cmp);
        for t in times {
            let mut u = rng.gen::<f64>() * total;
            let mut key = keys - 1;
            for (k, w) in weights.iter().enumerate() {
                if u < *w {
                    key = k;
                    break;
                }
                u -= w;
            }
            out.push(Due {
                rung,
                key,
                at: Duration::from_secs_f64(t),
            });
        }
    }
    out
}

/// One answered (or failed) request.
struct Answer {
    due: Due,
    /// Microseconds from due time to the reply (`None`: no reply).
    latency_us: Option<f64>,
    /// Microseconds the sender ran behind schedule.
    late_us: f64,
    line: String,
}

/// A spawned `flexflow serve --tcp` child.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(bin: &str, cache: Option<&Path>) -> Result<Self, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--tcp", &addr]);
        if let Some(cache) = cache {
            cmd.arg("--cache").arg(cache);
        }
        let child = cmd
            .args(["--cache-entries", &CACHE_ENTRIES.to_string()])
            .args(["--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        Ok(Self { child, addr })
    }

    /// Connects, retrying while the daemon starts up.
    fn connect(&mut self, deadline: Instant) -> Result<TcpStream, String> {
        loop {
            match TcpStream::connect(&self.addr) {
                Ok(s) => {
                    s.set_nodelay(true).map_err(|e| e.to_string())?;
                    return Ok(s);
                }
                Err(e) => {
                    if Instant::now() > deadline {
                        return Err(format!("cannot connect to {}: {e}", self.addr));
                    }
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("server exited early: {status}"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Sends one line on a fresh connection and reads one reply.
    fn ask(&mut self, line: &str) -> Result<String, String> {
        let mut s = self.connect(Instant::now() + Duration::from_secs(10))?;
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        writeln!(s, "{line}").map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(&s)
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        Ok(reply.trim().to_string())
    }

    /// Asks for a clean shutdown and waits; kills the child if it hangs.
    fn stop(mut self) {
        let _ = self.ask(r#"{"v":2,"verb":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Kills a daemon if a run bails out early.
struct Guard(Option<Daemon>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut d) = self.0.take() {
            let _ = d.child.kill();
            let _ = d.child.wait();
        }
    }
}

/// The keys a warm store holds: the hottest `CACHE_ENTRIES` of each model,
/// coldest first so the hottest are the most recently used.
fn warm_keys(keys: &[String]) -> impl Iterator<Item = &String> {
    keys.iter().take(CACHE_ENTRIES * MODELS.len()).rev()
}

/// Writes a cache holding the warm keys, with the library's own server so
/// the shard files are exactly what `serve` writes.
fn populate(cache: &Path, keys: &[String]) -> Result<(), String> {
    let handle = ServerHandle::builder()
        .workers(1)
        .cache_path(cache)
        .cache_bounds(CacheBounds::entries(CACHE_ENTRIES))
        .build();
    for key in warm_keys(keys) {
        let reply = handle.handle_line(key);
        if !reply.contains("\"status\":\"ok\"") {
            return Err(format!("populating the cache failed: {reply}"));
        }
    }
    handle.handle_line(r#"{"v":2,"verb":"shutdown"}"#);
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Drives the ladder over `conns` connections; returns one answer per
/// scheduled request, in schedule order.
fn drive(
    daemon: &mut Daemon,
    keys: &[String],
    plan: &[Due],
    conns: usize,
) -> Result<Vec<Answer>, String> {
    type Fifo = Arc<Mutex<VecDeque<usize>>>;
    // Per request: due time and how far behind it the send was (µs).
    let mut sent = vec![(Instant::now(), 0.0); plan.len()];
    let mut writers = Vec::new();
    let mut fifos: Vec<Fifo> = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..conns {
        let stream = daemon.connect(Instant::now() + Duration::from_secs(10))?;
        let fifo: Fifo = Arc::default();
        let (rs, rf) = (stream.try_clone().map_err(|e| e.to_string())?, fifo.clone());
        readers.push(std::thread::spawn(move || {
            let mut got: Vec<(usize, Instant, String)> = Vec::new();
            let mut r = BufReader::new(rs);
            loop {
                let mut line = String::new();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let now = Instant::now();
                        let idx = rf.lock().expect("fifo").pop_front();
                        match idx {
                            Some(i) => got.push((i, now, line)),
                            None => break,
                        }
                    }
                }
            }
            got
        }));
        writers.push(stream);
        fifos.push(fifo);
    }
    let mut i = 0;
    let (mut timed_out, mut broken) = (false, false);
    while i < plan.len() && !broken {
        let rung = plan[i].rung;
        let start = Instant::now();
        while i < plan.len() && plan[i].rung == rung {
            let due = start + plan[i].at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let c = (0..conns)
                .min_by_key(|&c| fifos[c].lock().expect("fifo").len())
                .expect("at least one connection");
            fifos[c].lock().expect("fifo").push_back(i);
            sent[i] = (due, due.elapsed().as_secs_f64() * 1e6);
            if writeln!(writers[c], "{}", keys[plan[i].key]).is_err() {
                broken = true;
                break;
            }
            i += 1;
        }
        // Let the rung drain before the next rate starts.
        let deadline = Instant::now() + Duration::from_secs(30);
        while fifos.iter().any(|f| !f.lock().expect("fifo").is_empty()) {
            if Instant::now() > deadline {
                timed_out = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if timed_out {
            break;
        }
    }
    for w in &writers {
        let how = if timed_out || broken {
            Shutdown::Both
        } else {
            Shutdown::Write
        };
        let _ = w.shutdown(how);
    }
    let mut answers: Vec<Answer> = plan
        .iter()
        .enumerate()
        .map(|(i, &due)| Answer {
            due,
            latency_us: None,
            late_us: sent[i].1,
            line: String::new(),
        })
        .collect();
    for r in readers {
        for (i, at, line) in r.join().map_err(|_| "reader thread panicked")? {
            answers[i].latency_us = Some(at.duration_since(sent[i].0).as_secs_f64() * 1e6);
            answers[i].line = line;
        }
    }
    if broken {
        return Err("the server closed a connection".to_string());
    }
    Ok(answers)
}

/// A parsed, checked reply.
#[derive(Clone, Copy, PartialEq)]
enum Outcome {
    Hit,
    Search,
}

/// What a cold search of one key returns.
#[derive(Clone, Copy)]
struct Reference {
    ms_per_iter: f64,
    peak_mb: f64,
}

/// Builds and memoizes `(graph, topology)` per key.
struct Workloads {
    built: HashMap<usize, (OpGraph, Topology)>,
    cost: MeasuredCostModel,
    /// Verified `(key, cost bits)` → simulated peak memory (MB).
    verified: HashMap<(usize, u64), f64>,
    /// Per key: a cold search, as the server runs it.
    cold: HashMap<usize, Reference>,
}

impl Workloads {
    fn new() -> Self {
        Self {
            built: HashMap::new(),
            cost: MeasuredCostModel::paper_default(),
            verified: HashMap::new(),
            cold: HashMap::new(),
        }
    }

    /// The cold search of `key`, run in-process as the server runs it.
    fn reference(&mut self, keys: &[String], key: usize) -> Reference {
        if let Some(&r) = self.cold.get(&key) {
            return r;
        }
        let Ok(Request::Search(req)) = protocol::parse_request(&keys[key]) else {
            unreachable!("the key space holds search requests")
        };
        let (graph, topo) = self.get(keys, key).clone();
        let (best, cost_us, _) = search(&req, &graph, &topo, &self.cost, None);
        let r = Reference {
            ms_per_iter: cost_us / 1e3,
            peak_mb: memory::footprint(&graph, &topo, &best).peak_with_state().1 as f64 / MIB,
        };
        self.cold.insert(key, r);
        r
    }

    fn get(&mut self, keys: &[String], key: usize) -> &(OpGraph, Topology) {
        self.built.entry(key).or_insert_with(|| {
            let Ok(Request::Search(req)) = protocol::parse_request(&keys[key]) else {
                unreachable!("the key space holds search requests")
            };
            try_build_workload(&req).expect("the key space builds")
        })
    }

    /// Checks one reply: status ok, a known cache outcome, a strategy that
    /// passes `import_structural` and re-simulates to the reported cost.
    /// Returns the outcome with `(ms/iter, peak MB)` of a valid strategy.
    fn check(&mut self, keys: &[String], a: &Answer) -> Result<(Outcome, f64, f64), String> {
        let v: Value = serde_json::from_str(a.line.trim()).map_err(|e| format!("{e}"))?;
        let field = |k: &str| v.get_field(k).and_then(Value::as_str).unwrap_or("");
        if field("status") != "ok" {
            return Err(format!("status {:?}", a.line.trim()));
        }
        let outcome = match field("cache") {
            "hit" => Outcome::Hit,
            "warm" | "cold" => Outcome::Search,
            other => return Err(format!("unknown cache outcome {other:?}")),
        };
        let cost_us = v
            .get_field("cost_us")
            .and_then(Value::as_f64)
            .ok_or("no cost_us")?;
        if let Some(&peak) = self.verified.get(&(a.due.key, cost_us.to_bits())) {
            return Ok((outcome, cost_us / 1e3, peak));
        }
        let dump = v
            .get_field("strategy")
            .ok_or("no strategy")
            .and_then(|d| StrategyDump::deserialize_value(d).map_err(|_| "bad strategy"))?;
        let (graph, topo) = self.get(keys, a.due.key).clone();
        let s = strategy_io::import_structural(&graph, &topo, &dump)
            .map_err(|e| format!("import_structural: {e}"))?;
        let tg = TaskGraph::build(&graph, &topo, &s, &self.cost, &SimConfig::default());
        let sim = simulate_full(&tg).makespan_us();
        if (sim - cost_us).abs() > 1e-9 * cost_us.abs() {
            return Err(format!("served cost {cost_us} us, re-simulated {sim} us"));
        }
        let peak = memory::footprint(&graph, &topo, &s).peak_with_state().1 as f64 / MIB;
        self.verified.insert((a.due.key, cost_us.to_bits()), peak);
        Ok((outcome, cost_us / 1e3, peak))
    }
}

fn geomean(v: &[f64]) -> f64 {
    mean(&v.iter().map(|x| x.ln()).collect::<Vec<_>>()).exp()
}

/// Server-side counters from the `stats` verb.
fn stats_field(line: &str, key: &str) -> f64 {
    serde_json::from_str::<Value>(line)
        .ok()
        .and_then(|v| v.get_field(key).and_then(Value::as_f64))
        .unwrap_or(0.0)
}

pub fn run(o: &Options, report: &mut Report) -> Result<(), String> {
    let dir = PathBuf::from(&o.work_dir).join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run_in(o, &dir, report);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(o: &Options, dir: &Path, report: &mut Report) -> Result<(), String> {
    let keys = key_space();
    let seeded = dir.join("seeded");
    std::fs::create_dir_all(&seeded).map_err(|e| e.to_string())?;
    populate(&seeded.join("cache"), &keys)?;

    // Set-up: spawn → first answered request, over a copy of the seeded
    // cache each time.
    let mut setup = Vec::new();
    let mut guard = Guard(None);
    for i in 0..SETUPS {
        let run_dir = dir.join(format!("run{i}"));
        copy_dir(&seeded, &run_dir)?;
        let t0 = Instant::now();
        let mut d = Daemon::spawn(&o.flexflow, Some(&run_dir.join("cache")))?;
        let reply = d.ask(&keys[0]);
        setup.push(t0.elapsed().as_secs_f64());
        guard.0 = Some(d);
        let reply = reply?;
        report.check(reply.contains("\"cache\":\"hit\""), || {
            format!("first request after start-up was not a hit: {reply}")
        });
        guard.0.take().expect("daemon").stop();
    }
    report.note(format!(
        "set-up ms: {}",
        setup
            .iter()
            .map(|t| format!("{:.1}", t * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    guard.0 = Some(Daemon::spawn(&o.flexflow, None)?);
    let daemon = guard.0.as_mut().expect("daemon");
    for key in warm_keys(&keys) {
        let reply = daemon.ask(key)?;
        report.check(reply.contains("\"status\":\"ok\""), || {
            format!("warming {key}: {reply}")
        });
    }

    let rung_secs = o.seconds / LADDER.len() as f64;
    let plan = schedule(o.seed, keys.len(), rung_secs);
    let conns = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let answers = drive(daemon, &keys, &plan, conns)?;
    let stats = daemon.ask(r#"{"v":2,"verb":"stats"}"#)?;
    let rss = peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(f64::NAN);
    guard.0.take().expect("daemon").stop();

    // Output checks and latency split.
    let mut w = Workloads::new();
    let (mut hit_us, mut miss_ms, mut late_us) = (Vec::new(), Vec::new(), Vec::new());
    // Quality of what the server hands out, per answer, relative to a
    // cold search of the same request (`ln` of the ratios).
    let (mut cost_ratio, mut peak_ratio) = (Vec::new(), Vec::new());
    let mut per_rung: Vec<Vec<f64>> = vec![Vec::new(); LADDER.len()];
    let mut ok_per_rung = vec![0u64; LADDER.len()];
    // Seconds from each rung's start to its last reply.
    let mut span = vec![0.0f64; LADDER.len()];
    let mut failed_at_lowest = 0u64;
    for a in &answers {
        late_us.push(a.late_us);
        let checked = match a.latency_us {
            None => Err("no reply".to_string()),
            Some(_) => w.check(&keys, a),
        };
        let what = || {
            format!(
                "request {}: {}",
                keys[a.due.key],
                checked.as_ref().err().cloned().unwrap_or_default()
            )
        };
        // Above the lowest rate, a busy or missing reply is load shed, not
        // a wrong answer; at the lowest rate every failure counts as wrong.
        let shed = a.latency_us.is_none() || a.line.contains("\"status\":\"busy\"");
        if checked.is_err() && shed && a.due.rung > 0 {
            report.refused(what);
        } else {
            report.check(checked.is_ok(), what);
        }
        let lat = match (&checked, a.latency_us) {
            (Ok((outcome, ms, peak)), Some(us)) => {
                let r = w.reference(&keys, a.due.key);
                cost_ratio.push((ms / r.ms_per_iter).ln());
                peak_ratio.push((peak / r.peak_mb).ln());
                match outcome {
                    Outcome::Hit => hit_us.push(us),
                    Outcome::Search => miss_ms.push(us / 1e3),
                }
                ok_per_rung[a.due.rung] += 1;
                us / 1e3
            }
            _ => {
                failed_at_lowest += u64::from(a.due.rung == 0);
                f64::INFINITY
            }
        };
        per_rung[a.due.rung].push(lat);
        if let Some(us) = a.latency_us {
            let end = a.due.at.as_secs_f64() + us / 1e6;
            span[a.due.rung] = span[a.due.rung].max(end);
        }
    }
    let mut rps_at_slo = 0.0;
    for (r, lat) in per_rung.iter_mut().enumerate() {
        lat.sort_by(f64::total_cmp);
        let p99 = quantile(lat, 0.99);
        let pass = p99 <= SLO_MS;
        if pass {
            rps_at_slo = ok_per_rung[r] as f64 / span[r];
        }
        report.note(format!(
            "rung {} req/s: {} requests, p50 {:.3} ms, p99 {:.3} ms -> {}",
            LADDER[r],
            lat.len(),
            quantile(lat, 0.5),
            p99,
            if pass { "meets" } else { "misses" },
        ));
    }
    let hits = Summary::of(&hit_us);
    let misses = Summary::of(&miss_ms);
    report.note(format!(
        "{} hits: p50 {:.1} us, p99 {:.1} us; {} searched: p50 {:.2} ms, p99 {:.2} ms; \
         {failed_at_lowest} failures at the lowest rate",
        hits.n, hits.p50, hits.p99, misses.n, misses.p50, misses.p99
    ));
    report.note(format!(
        "server stats: {}",
        stats.chars().take(200).collect::<String>()
    ));
    if o.trace {
        traced(
            o, dir, &keys, &plan, report, &hit_us, &miss_ms, &late_us, &stats,
        )?;
        return Ok(());
    }
    report.metric("setup_s", median(&setup), "s");
    report.metric("throughput_per_s", rps_at_slo, "1/s");
    report.metric("fast_path_us", hits.p50, "us");
    // Each: the key space's geometric mean for a cold search, scaled by
    // the geometric mean of the per-answer ratios above.
    let refs: Vec<Reference> = (0..keys.len()).map(|k| w.reference(&keys, k)).collect();
    let scaled = |field: fn(&Reference) -> f64, ratios: &[f64]| {
        geomean(&refs.iter().map(field).collect::<Vec<_>>()) * mean(ratios).exp()
    };
    report.metric(
        "result_ms_per_iter",
        scaled(|r| r.ms_per_iter, &cost_ratio),
        "ms",
    );
    report.metric(
        "result_peak_mem_mb",
        scaled(|r| r.peak_mb, &peak_ratio),
        "MB",
    );
    report.metric("peak_rss_mb", rss, "MB");
    Ok(())
}

/// The traced serve run: client-side distributions from the TCP run above,
/// then the same request stream replayed in-process twice — once through
/// the layers' public calls, once through `Server::handle_line`.
#[allow(clippy::too_many_arguments)]
fn traced(
    o: &Options,
    dir: &Path,
    keys: &[String],
    plan: &[Due],
    report: &mut Report,
    hit_us: &[f64],
    miss_ms: &[f64],
    late_us: &[f64],
    stats: &str,
) -> Result<(), String> {
    let mut s = Samples::default();
    let seeded = dir.join("seeded");

    // Store layer: open the seeded cache a few times, then replay.
    for i in 0..5 {
        let copy = dir.join(format!("open{i}"));
        copy_dir(&seeded, &copy)?;
        let t0 = Instant::now();
        let store =
            ShardedStore::open(&copy.join("cache"), 8, CacheBounds::entries(CACHE_ENTRIES))?;
        s.push("store.open_us", t0.elapsed().as_secs_f64() * 1e6);
        drop(store);
    }
    let layered = dir.join("layered");
    copy_dir(&seeded, &layered)?;
    let store = ShardedStore::open(
        &layered.join("cache"),
        8,
        CacheBounds::entries(CACHE_ENTRIES),
    )?;
    let cost = MeasuredCostModel::paper_default();
    let (mut lookups, mut store_hits) = (0u64, 0u64);
    // Each in-process replay gets half the measuring window.
    let replay_secs = Duration::from_secs_f64(o.seconds / 2.0);
    let t_replay = Instant::now();
    for due in plan {
        if t_replay.elapsed() > replay_secs {
            break;
        }
        let line = &keys[due.key];
        let env = s.time("protocol.parse_us", || protocol::parse_envelope(line))?;
        let Request::Search(req) = env.request else {
            return Err("the key space holds search requests".to_string());
        };
        let (graph, topo) = s.time("server.build_workload_us", || try_build_workload(&req))?;
        let graph_sig = s.time("opgraph.signature_us", || graph_signature(&graph));
        let topo_sig = s.time("device.signature_us", || topo.signature());
        let class = composite_class(
            req.evals,
            req.microbatches.max(1),
            req.param_sync,
            req.recompute,
        );
        let found = s.time("store.lookup_us", || {
            store.lookup(graph_sig, topo_sig, class)
        });
        lookups += 1;
        let warm = match found {
            StoreLookup::Hit { entry, .. } => {
                let imported = s.time("strategy_io.import_structural_us", || {
                    strategy_io::import_structural(&graph, &topo, &entry.record.dump)
                });
                if imported.is_ok() {
                    store_hits += 1;
                    continue;
                }
                None
            }
            StoreLookup::Warm(entry) => {
                strategy_io::remap_onto(&graph, &topo, &entry.record.dump).ok()
            }
            StoreLookup::Miss => None,
        };
        let t0 = Instant::now();
        let result = search(&req, &graph, &topo, &cost, warm);
        s.push("server.search_ms", t0.elapsed().as_secs_f64() * 1e3);
        let record = strategy_io::export_record(&graph, &topo, &result.0, result.1, result.2);
        let entry = CacheEntry {
            budget_class: class,
            model: req.model.clone(),
            gpus: req.gpus,
            cluster: format!("{:?}", req.cluster).to_lowercase(),
            record,
        };
        s.time("store.insert_us", || store.insert(entry));
    }
    let evictions: u64 = store.shard_stats().iter().map(|st| st.evictions).sum();

    // Whole requests through the library's server (no front end, no
    // polish), with a warmed in-memory store like the server under load.
    let handle = ServerHandle::builder()
        .workers(WORKERS)
        .cache_bounds(CacheBounds::entries(CACHE_ENTRIES))
        .build();
    for key in warm_keys(keys) {
        handle.handle_line(key);
    }
    let t_replay = Instant::now();
    for due in plan {
        if t_replay.elapsed() > replay_secs {
            break;
        }
        let t0 = Instant::now();
        let reply = handle.handle_line(&keys[due.key]);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if reply.contains("\"cache\":\"hit\"") {
            s.push("server.handle_line_us.hit", us);
        } else {
            s.push("server.handle_line_us.miss", us);
        }
    }
    drop(handle);

    for name in [
        "protocol.parse_us",
        "server.build_workload_us",
        "opgraph.signature_us",
        "device.signature_us",
        "store.lookup_us",
        "strategy_io.import_structural_us",
        "store.insert_us",
        "store.open_us",
        "server.handle_line_us.hit",
        "server.handle_line_us.miss",
    ] {
        report.layer(name, "us", s.summary(name));
    }
    report.layer("server.search_ms", "ms", s.summary("server.search_ms"));
    let client_hit = Summary::of(hit_us);
    report.layer("client.hit_us", "us", client_hit);
    report.layer("client.miss_ms", "ms", Summary::of(miss_ms));
    let inproc_hit = s.summary("server.handle_line_us.hit");
    report.layer(
        "frontend.overhead_us",
        "us",
        Summary {
            n: client_hit.n.min(inproc_hit.n),
            p50: client_hit.p50 - inproc_hit.p50,
            p90: client_hit.p90 - inproc_hit.p90,
            p99: client_hit.p99 - inproc_hit.p99,
            mean: client_hit.mean - inproc_hit.mean,
        },
    );
    report.metric(
        "store.hit_ratio",
        store_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.metric("store.evictions", evictions as f64, "count");
    report.metric("server.busy", stats_field(stats, "busy"), "count");
    report.metric("polish.runs", stats_field(stats, "polish_runs"), "count");
    report.metric("polish.evals", stats_field(stats, "polish_evals"), "count");
    report.metric("client.late_p99_us", Summary::of(late_us).p99, "us");
    Ok(())
}

/// The search a miss or warm request runs (as the server does).
fn search(
    req: &SearchRequest,
    graph: &OpGraph,
    topo: &Topology,
    cost: &MeasuredCostModel,
    warm: Option<Strategy>,
) -> (Strategy, f64, u64) {
    let search = flexflow_core::SearchRequest::new(req.seed)
        .chains(req.chains)
        .max_microbatches(req.microbatches.max(1))
        .param_sync(req.param_sync)
        .recompute(req.recompute);
    let budget = Budget::evaluations(req.evals);
    let r = match warm {
        Some(seed) => search.run_warm(graph, topo, cost, seed, budget, SimConfig::default()),
        None => {
            let initials = [
                Strategy::data_parallel(graph, topo),
                expert::strategy(graph, topo),
            ];
            search.run(graph, topo, cost, &initials, budget, SimConfig::default())
        }
    };
    (r.best, r.best_cost_us, r.evals)
}
