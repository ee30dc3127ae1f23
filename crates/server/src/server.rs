//! The serving engine: request handling, the bounded worker pool, and the
//! front-ends (batch/oneshot streams, a Unix-domain socket, and a
//! nonblocking TCP listener).
//!
//! # Architecture
//!
//! ```text
//!   stdin line / socket line / TCP line
//!        |  parse (cheap, on the front-end thread)
//!        v
//!   bounded job queue  --->  worker 0..N   (each worker's searches own
//!        |     \                            their Simulators exclusively:
//!        |      `-- full? in-band "busy"    task graph, timeline, undo
//!        v                                  journals are per-thread)
//!   response line, in request order per connection
//!        ^
//!   idle cycles ---> polish daemon: re-search hottest entries, CAS-publish
//! ```
//!
//! Every search answer goes through the [`StrategyStore`] (the sharded,
//! LRU-bounded content-addressed cache):
//!
//! - **hit** — same graph + topology, searched at least as hard: the
//!   stored record is structurally validated
//!   ([`strategy_io::import_structural`]; op names are *not* re-checked,
//!   matching the name-insensitive cache key) and served with **zero**
//!   simulator evaluations;
//! - **warm** — same graph, different topology or smaller budget: the
//!   cached dump is remapped onto the request's topology
//!   ([`strategy_io::remap_onto`]) and seeds a warm search
//!   ([`flexflow_core::optimizer::SearchRequest::run_warm`]), which
//!   typically reaches cold-search quality in a fraction of the
//!   evaluations;
//! - **cold** — full search from the data-parallel and expert seeds.
//!
//! Results always update the store (and its on-disk shard files,
//! atomically), so the daemon converges toward answering its steady-state
//! traffic from memory — and the polish daemon keeps improving the
//! answers it serves most often.

use crate::cache::{composite_class, CacheEntry};
use crate::polish::PolishConfig;
use crate::protocol::{self, Request, SearchRequest};
use crate::store::{CacheBounds, LegacyStore, ShardedStore, StoreLookup, StrategyStore};
use flexflow_baselines::expert;
use flexflow_core::strategy_io::{self, StrategyDump};
use flexflow_core::{Budget, SimConfig, Strategy};
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::{clusters, DeviceKind, Topology};
use flexflow_opgraph::{graph_signature, zoo, OpGraph};
use serde::Value;
use serde_json::json;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads answering search requests (the pool bound).
    pub workers: usize,
    /// Cache persistence root; `None` keeps the store in memory only.
    /// The sharded store persists to `<path>.shard-NN` files and migrates
    /// a legacy single-file cache at `<path>` on first open (leaving the
    /// legacy file untouched).
    pub cache_path: Option<PathBuf>,
    /// Server-side floor on every request's microbatch cap: requests
    /// asking for less (including the default 1) are raised to this value,
    /// requests asking for more win. `1` (the default) leaves requests
    /// untouched.
    pub default_microbatches: u64,
    /// Cache shards (key-prefix sharded; per-shard locks and files).
    pub shards: usize,
    /// Entry/byte bounds enforced by LRU eviction (unbounded by default,
    /// matching the PR 4 grow-only behavior).
    pub cache_bounds: CacheBounds,
    /// Concurrent TCP connections accepted before new clients get an
    /// in-band refusal.
    pub max_connections: usize,
    /// Idle-connection timeout for the TCP front end in milliseconds: a
    /// connection with no traffic and no pending replies for this long is
    /// closed.
    pub io_timeout_ms: u64,
    /// Use the legacy single-map, single-file store instead of the
    /// sharded one (tests pin the two against each other; production
    /// serving always shards).
    pub legacy_store: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            cache_path: None,
            default_microbatches: 1,
            shards: 8,
            cache_bounds: CacheBounds::unbounded(),
            max_connections: 64,
            io_timeout_ms: 30_000,
            legacy_store: false,
        }
    }
}

/// Latency histogram buckets: bucket `i` counts requests that finished in
/// under `2^i` microseconds, the last bucket is the overflow (≥ ~2 s).
pub const LATENCY_BUCKETS: usize = 22;

/// Traffic counters, updated lock-free by the workers.
#[derive(Debug)]
pub struct ServeStats {
    /// Total requests handled (including errors).
    pub requests: AtomicU64,
    /// Search answers served straight from the cache.
    pub hits: AtomicU64,
    /// Search answers produced by warm-started search.
    pub warm: AtomicU64,
    /// Search answers produced by cold search.
    pub cold: AtomicU64,
    /// Requests answered with an error response.
    pub errors: AtomicU64,
    /// Requests refused in-band because the job queue was full.
    pub busy: AtomicU64,
    /// Simulator evaluations paid answering warm/cold requests.
    pub evals_spent: AtomicU64,
    /// Evaluations a hit would have cost its requester (the cached
    /// record's search effort, served for free).
    pub evals_saved: AtomicU64,
    /// Polish daemon passes completed.
    pub polish_runs: AtomicU64,
    /// Polish passes that published a better (or harder-searched) record.
    pub polish_published: AtomicU64,
    /// Evaluations spent by the polish daemon.
    pub polish_evals: AtomicU64,
    /// Request-latency histogram (see [`LATENCY_BUCKETS`]).
    pub latency_us: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for ServeStats {
    fn default() -> Self {
        Self {
            requests: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            warm: AtomicU64::new(0),
            cold: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            evals_spent: AtomicU64::new(0),
            evals_saved: AtomicU64::new(0),
            polish_runs: AtomicU64::new(0),
            polish_published: AtomicU64::new(0),
            polish_evals: AtomicU64::new(0),
            latency_us: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl ServeStats {
    /// Records one request latency in the histogram.
    pub fn observe_latency(&self, us: u64) {
        let bucket = (64 - us.leading_zeros()) as usize;
        self.latency_us[bucket.min(LATENCY_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    fn latency_counts(&self) -> Vec<u64> {
        self.latency_us
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// Approximate quantile from the power-of-two histogram: the upper bound
/// (`2^i` µs) of the bucket where the cumulative count crosses `q`.
fn latency_quantile(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let want = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= want {
            return 1u64 << i.min(63);
        }
    }
    1u64 << (counts.len() - 1).min(63)
}

/// The strategy-serving daemon. One instance is shared by all workers and
/// connections; the store shards its locks internally (lookups and
/// inserts are microseconds — searches, the expensive part, run outside
/// every lock).
pub struct Server {
    cfg: ServerConfig,
    store: Box<dyn StrategyStore>,
    stats: ServeStats,
    shutdown: AtomicBool,
    active_searches: AtomicU64,
}

/// How a search answer was produced (the response's `cache` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache, zero evaluations.
    Hit,
    /// Warm-started from a near-miss entry.
    Warm,
    /// Searched from scratch.
    Cold,
}

impl CacheOutcome {
    fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Warm => "warm",
            CacheOutcome::Cold => "cold",
        }
    }
}

pub(crate) fn cluster_name(kind: DeviceKind) -> &'static str {
    match kind {
        DeviceKind::P100 => "p100",
        DeviceKind::K80 => "k80",
        DeviceKind::A100 => "a100",
        DeviceKind::Test => "test",
    }
}

pub(crate) fn cluster_from_name(name: &str) -> Option<DeviceKind> {
    match name {
        "p100" => Some(DeviceKind::P100),
        "k80" => Some(DeviceKind::K80),
        "a100" => Some(DeviceKind::A100),
        "test" => Some(DeviceKind::Test),
        _ => None,
    }
}

/// The outcome of a search request's fast phase (build + classify +
/// store probe): either a complete response — parse/build errors and
/// cache hits — or a plan for the slow, simulator-bound half.
enum SearchFlow {
    Done(Value),
    Search(Box<SearchPlan>),
}

/// Everything the slow half of a search needs, prepared by
/// [`Server::search_flow`] so the worker never repeats the store probe
/// (which would double-count shard counters and LRU touches).
struct SearchPlan {
    req: SearchRequest,
    graph: OpGraph,
    topo: Topology,
    class: u32,
    max_microbatches: u64,
    warm_dump: Option<StrategyDump>,
}

/// Decrements the in-flight search gauge on every exit path.
struct SearchGuard<'a>(&'a AtomicU64);

impl Drop for SearchGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

impl Server {
    /// Creates a server, opening the configured store. A corrupt cache
    /// file is reported on stderr and replaced by an empty store — a
    /// serving daemon must come up even when its disk state is bad.
    pub fn new(cfg: ServerConfig) -> Self {
        let store: Box<dyn StrategyStore> = match (&cfg.cache_path, cfg.legacy_store) {
            (None, false) => Box::new(ShardedStore::in_memory(cfg.shards, cfg.cache_bounds)),
            (None, true) => Box::new(LegacyStore::in_memory()),
            (Some(path), legacy) => {
                let opened: Result<Box<dyn StrategyStore>, String> = if legacy {
                    LegacyStore::open(path).map(|s| Box::new(s) as Box<dyn StrategyStore>)
                } else {
                    ShardedStore::open(path, cfg.shards, cfg.cache_bounds)
                        .map(|s| Box::new(s) as Box<dyn StrategyStore>)
                };
                opened.unwrap_or_else(|e| {
                    eprintln!("flexflow serve: starting with an empty cache: {e}");
                    if legacy {
                        Box::new(LegacyStore::in_memory())
                    } else {
                        Box::new(ShardedStore::in_memory(cfg.shards, cfg.cache_bounds))
                    }
                })
            }
        };
        Self {
            cfg,
            store,
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
            active_searches: AtomicU64::new(0),
        }
    }

    /// The live traffic counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The strategy store behind this server.
    pub fn store(&self) -> &dyn StrategyStore {
        self.store.as_ref()
    }

    /// The configuration the server was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Number of cached strategies.
    pub fn cache_len(&self) -> usize {
        self.store.len()
    }

    /// Foreground searches currently in flight (the polish daemon only
    /// runs when this is zero — idle cycles, not contended ones).
    pub fn active_searches(&self) -> u64 {
        self.active_searches.load(Ordering::Acquire)
    }

    /// Whether a shutdown request has been accepted.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Handles one raw request line and returns the response line
    /// (without trailing newline). Never panics on untrusted input.
    pub fn handle_line(&self, line: &str) -> String {
        let t0 = Instant::now();
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let resp = match protocol::parse_envelope(line) {
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                protocol::error_response(&e)
            }
            Ok(envelope) => {
                let value = match envelope.request {
                    Request::Stats => self.stats_value(),
                    Request::Shutdown => {
                        self.shutdown.store(true, Ordering::Release);
                        // Flush here as well as in the serve loops: the
                        // verb must guarantee durability even for callers
                        // driving handle_line directly.
                        self.store.flush();
                        json!({"status": "ok", "shutting_down": true})
                    }
                    Request::Search(req) => self.handle_search(&req),
                };
                render(envelope.version, value)
            }
        };
        self.stats
            .observe_latency(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
        resp
    }

    fn stats_value(&self) -> Value {
        let s = &self.stats;
        let counts = s.latency_counts();
        let spent = s.evals_spent.load(Ordering::Relaxed);
        let saved = s.evals_saved.load(Ordering::Relaxed);
        json!({
            "status": "ok",
            "entries": self.cache_len(),
            "requests": s.requests.load(Ordering::Relaxed),
            "hits": s.hits.load(Ordering::Relaxed),
            "warm": s.warm.load(Ordering::Relaxed),
            "cold": s.cold.load(Ordering::Relaxed),
            "errors": s.errors.load(Ordering::Relaxed),
            "busy": s.busy.load(Ordering::Relaxed),
            "bytes": self.store.bytes(),
            "shards": self.store.shard_stats(),
            "evals_spent": spent,
            "evals_saved": saved,
            // Positive debt: searching has cost more evals than hits have
            // amortized so far; negative: the cache has paid for itself.
            "eval_debt": spent as i64 - saved as i64,
            "latency_counts": counts,
            "latency_p50_us": latency_quantile(&counts, 0.50),
            "latency_p99_us": latency_quantile(&counts, 0.99),
            "polish_runs": s.polish_runs.load(Ordering::Relaxed),
            "polish_published": s.polish_published.load(Ordering::Relaxed),
            "polish_evals": s.polish_evals.load(Ordering::Relaxed),
        })
    }

    /// Answers a search request from the store when possible, otherwise by
    /// (warm-started) search; updates the store with whatever it learned.
    fn handle_search(&self, req: &SearchRequest) -> Value {
        match self.search_flow(req) {
            SearchFlow::Done(value) => value,
            SearchFlow::Search(plan) => self.run_search_plan(*plan),
        }
    }

    /// Phase 1 of a search request — build the workload, classify it, and
    /// probe the store. Completes in microseconds-to-milliseconds (no
    /// simulation), so the TCP readiness loop runs it inline and only
    /// dispatches [`SearchFlow::Search`] plans to the worker pool: cache
    /// hits never pay a queue round-trip.
    fn search_flow(&self, req: &SearchRequest) -> SearchFlow {
        let (graph, topo) = match try_build_workload(req) {
            Ok(pair) => pair,
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                return SearchFlow::Done(json!({"status": "error", "error": e}));
            }
        };
        let graph_sig = graph_signature(&graph);
        let topo_sig = topo.signature();
        // The floor is clamped to the same bound the protocol enforces on
        // requests: values past the cache key's microbatch component
        // would conflate distinct caps into one class.
        let max_microbatches = req
            .microbatches
            .max(self.cfg.default_microbatches)
            .min(protocol::MAX_MICROBATCHES);
        let class = composite_class(req.evals, max_microbatches, req.param_sync, req.recompute);

        // Phase 1 (one shard lock, microseconds): classify the request
        // and clone out whatever the store can contribute. Entries are
        // immutable once stored, so validation happens after the lock is
        // released — hits must not serialize on graph-sized work.
        let mut warm_dump: Option<StrategyDump> = None;
        if !req.refresh {
            match self.store.lookup(graph_sig, topo_sig, class) {
                StoreLookup::Hit { address, entry, .. } => {
                    // Validate before serving: a hash collision or corrupt
                    // record must degrade to a cold search, not a panic or
                    // a wrong answer. Validation is *structural* (shape,
                    // device range, config legality) — the cache key is
                    // the name-insensitive graph signature, so op names
                    // must not be re-checked here.
                    let record = entry.record;
                    if (strategy_io::MIN_FORMAT_VERSION..=strategy_io::FORMAT_VERSION)
                        .contains(&record.version)
                        && strategy_io::import_structural(&graph, &topo, &record.dump).is_ok()
                    {
                        self.stats.hits.fetch_add(1, Ordering::Relaxed);
                        self.stats
                            .evals_saved
                            .fetch_add(record.evals, Ordering::Relaxed);
                        return SearchFlow::Done(self.search_response(
                            req,
                            CacheOutcome::Hit,
                            class,
                            record.cost_us,
                            0,
                            record.evals,
                            &record.dump,
                        ));
                    }
                    // Evict the invalid entry: `insert`'s lower-cost-wins
                    // rule would otherwise let a corrupt record with an
                    // optimistic cost pin this address and force a cold
                    // search on every future request.
                    self.store.remove(&address);
                }
                StoreLookup::Warm(entry) => warm_dump = Some(entry.record.dump.clone()),
                StoreLookup::Miss => {}
            }
        }
        SearchFlow::Search(Box::new(SearchPlan {
            req: req.clone(),
            graph,
            topo,
            class,
            max_microbatches,
            warm_dump,
        }))
    }

    /// Phases 2 and 3 of a search request: run the (warm-started) search
    /// and teach the store. This is the seconds-long half; it always runs
    /// on a worker thread.
    fn run_search_plan(&self, plan: SearchPlan) -> Value {
        let SearchPlan {
            req,
            graph,
            topo,
            class,
            max_microbatches,
            warm_dump,
        } = plan;
        let mut outcome = CacheOutcome::Cold;

        // Phase 2 (no lock): the actual search. Simulators live and die
        // inside this call, owned by the calling worker thread.
        self.active_searches.fetch_add(1, Ordering::Release);
        let _guard = SearchGuard(&self.active_searches);
        let cost = MeasuredCostModel::paper_default();
        let search = flexflow_core::SearchRequest::new(req.seed)
            .chains(req.chains)
            .max_microbatches(max_microbatches)
            .param_sync(req.param_sync)
            .recompute(req.recompute);
        let budget = Budget::evaluations(req.evals);
        let warm_seed =
            warm_dump.and_then(|dump| strategy_io::remap_onto(&graph, &topo, &dump).ok());
        let result = match warm_seed {
            Some(seed) => {
                outcome = CacheOutcome::Warm;
                search.run_warm(&graph, &topo, &cost, seed, budget, SimConfig::default())
            }
            None => {
                let initials = [
                    Strategy::data_parallel(&graph, &topo),
                    expert::strategy(&graph, &topo),
                ];
                search.run(
                    &graph,
                    &topo,
                    &cost,
                    &initials,
                    budget,
                    SimConfig::default(),
                )
            }
        };
        match outcome {
            CacheOutcome::Warm => self.stats.warm.fetch_add(1, Ordering::Relaxed),
            _ => self.stats.cold.fetch_add(1, Ordering::Relaxed),
        };
        self.stats
            .evals_spent
            .fetch_add(result.evals, Ordering::Relaxed);

        // Phase 3: teach the store (it snapshots under its shard lock and
        // writes outside it, so concurrent hit lookups never stall on
        // I/O).
        let record = strategy_io::export_record(
            &graph,
            &topo,
            &result.best,
            result.best_cost_us,
            result.evals,
        );
        let dump = record.dump.clone();
        let entry = CacheEntry {
            budget_class: class,
            model: req.model.clone(),
            gpus: req.gpus,
            cluster: cluster_name(req.cluster).to_string(),
            record,
        };
        self.store.insert(entry);

        self.search_response(
            &req,
            outcome,
            class,
            result.best_cost_us,
            result.evals,
            result.evals,
            &dump,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn search_response(
        &self,
        req: &SearchRequest,
        outcome: CacheOutcome,
        class: u32,
        cost_us: f64,
        evals: u64,
        cached_evals: u64,
        dump: &StrategyDump,
    ) -> Value {
        json!({
            "status": "ok",
            "cache": outcome.as_str(),
            "model": req.model,
            "gpus": req.gpus,
            "cluster": cluster_name(req.cluster),
            "budget_class": class,
            "microbatches": dump.microbatches,
            "param_sync": req.param_sync,
            "recompute": req.recompute,
            "cost_us": cost_us,
            "evals": evals,
            "cached_evals": cached_evals,
            "strategy": dump,
        })
    }

    /// Batch ("oneshot") mode: reads every request line from `input`,
    /// fans the parsed jobs across the worker pool, and writes one
    /// response line per request **in input order**. Used by
    /// `flexflow serve --oneshot`, the CLI smoke tests, and the
    /// `serve_throughput` benchmark.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading `input` or writing `output`.
    pub fn run_batch(&self, input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        let lines: Vec<String> = input.lines().collect::<Result<_, _>>()?;
        let responses = self.handle_batch(&lines);
        for r in responses {
            writeln!(output, "{r}")?;
        }
        output.flush()?;
        self.store.flush();
        Ok(())
    }

    /// The worker-pool core of [`Server::run_batch`]: answers each line,
    /// preserving order, with at most `cfg.workers` searches in flight.
    pub fn handle_batch(&self, lines: &[String]) -> Vec<String> {
        let n = lines.len();
        let mut responses: Vec<Option<String>> = vec![None; n];
        if n == 0 {
            return Vec::new();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|s| {
            for _ in 0..self.cfg.workers.max(1).min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let resp = self.handle_line(&lines[i]);
                    results
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((i, resp));
                });
            }
        });
        for (i, r) in results.into_inner().unwrap_or_else(|e| e.into_inner()) {
            responses[i] = Some(r);
        }
        responses
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect()
    }

    /// Socket mode: listens on a Unix-domain socket, one thread per
    /// connection, searches dispatched through a bounded job queue onto
    /// the worker pool. Responses stream back per connection in request
    /// order. Returns when a client sends `{"cmd":"shutdown"}`; idle
    /// connections notice the flag within half a second (reads are
    /// timeout-based) and never block the shutdown. In-flight jobs drain
    /// and every dirty cache shard is flushed before the call returns.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/accept errors, and refuses to replace a
    /// path that exists but is not a socket.
    #[cfg(unix)]
    pub fn run_socket(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::os::unix::net::{UnixListener, UnixStream};

        // A stale socket file from a crashed daemon would fail the bind —
        // but only ever delete actual sockets, not whatever file a typo'd
        // --socket points at.
        if path.exists() {
            use std::os::unix::fs::FileTypeExt;
            if std::fs::symlink_metadata(path)?.file_type().is_socket() {
                std::fs::remove_file(path)?;
            } else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    format!("{} exists and is not a socket", path.display()),
                ));
            }
        }
        let listener = UnixListener::bind(path)?;

        struct Job {
            line: String,
            reply: mpsc::Sender<String>,
        }
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(self.cfg.workers.max(1) * 4);
        let job_rx = Mutex::new(job_rx);

        std::thread::scope(|s| {
            // The bounded pool: workers block on the queue, searches never
            // oversubscribe beyond `cfg.workers`.
            for _ in 0..self.cfg.workers.max(1) {
                s.spawn(|| {
                    loop {
                        let job = {
                            let rx = job_rx.lock().unwrap_or_else(|e| e.into_inner());
                            rx.recv()
                        };
                        let Ok(job) = job else { break };
                        // A hung-up client is not a server error.
                        let _ = job.reply.send(self.handle_line(&job.line));
                    }
                });
            }

            let mut result = Ok(());
            for stream in listener.incoming() {
                if self.shutting_down() {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(e) => {
                        // Raise the flag so live connection threads drain
                        // on their next read timeout — otherwise the
                        // scope join below would wedge on them and the
                        // error would never surface.
                        self.shutdown.store(true, Ordering::Release);
                        result = Err(e);
                        break;
                    }
                };
                let job_tx = job_tx.clone();
                let sock_path = path.to_path_buf();
                s.spawn(move || {
                    // Timeout-based reads: an idle client must not pin this
                    // thread (and through it the whole scope) past a
                    // shutdown — on every timeout the flag is re-checked.
                    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(500)));
                    let mut reader = std::io::BufReader::new(match stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => return,
                    });
                    let mut writer = std::io::BufWriter::new(stream);
                    let mut line = String::new();
                    loop {
                        match reader.read_line(&mut line) {
                            Ok(0) => break, // EOF: client hung up
                            Ok(_) => {
                                if !line.trim().is_empty() {
                                    let (reply_tx, reply_rx) = mpsc::channel();
                                    let job = Job {
                                        line: std::mem::take(&mut line),
                                        reply: reply_tx,
                                    };
                                    if job_tx.send(job).is_err() {
                                        break;
                                    }
                                    let Ok(resp) = reply_rx.recv() else { break };
                                    if writeln!(writer, "{resp}")
                                        .and_then(|()| writer.flush())
                                        .is_err()
                                    {
                                        break;
                                    }
                                }
                                line.clear();
                                if self.shutting_down() {
                                    // Poke the accept loop awake so it
                                    // observes the flag and exits.
                                    let _ = UnixStream::connect(&sock_path);
                                    break;
                                }
                            }
                            // Timed out with no (complete) line: `line`
                            // keeps any partial read and the next
                            // read_line call appends to it.
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                                ) =>
                            {
                                if self.shutting_down() {
                                    break;
                                }
                            }
                            Err(_) => break,
                        }
                    }
                });
            }
            // Closing the sender drains and stops the workers.
            drop(job_tx);
            result
        })?;
        // Every queued job has been answered by now (the scope joins the
        // workers); make the results durable before reporting success.
        self.store.flush();
        std::fs::remove_file(path).ok();
        Ok(())
    }

    /// Socket mode is Unix-only (Unix-domain sockets); this stub keeps
    /// the `flexflow` binary compiling on other targets, where
    /// `--oneshot` and `--tcp` remain available.
    ///
    /// # Errors
    ///
    /// Always returns [`std::io::ErrorKind::Unsupported`].
    #[cfg(not(unix))]
    pub fn run_socket(&self, _path: &std::path::Path) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "socket mode needs Unix domain sockets; use --oneshot or --tcp on this platform",
        ))
    }

    /// TCP mode: binds `addr` (e.g. `127.0.0.1:7170`) and serves it with
    /// [`Server::serve_listener`].
    ///
    /// # Errors
    ///
    /// Propagates bind errors and fatal accept/poll errors.
    pub fn run_tcp(&self, addr: &str) -> std::io::Result<()> {
        let listener = std::net::TcpListener::bind(addr)?;
        self.serve_listener(listener)
    }

    /// The nonblocking TCP front end: a single readiness loop over
    /// nonblocking sockets multiplexes every connection — accept, read,
    /// line-extract, enqueue, reply-collect, write — while the bounded
    /// worker pool runs the searches. No thread-per-connection: the
    /// accept loop enforces [`ServerConfig::max_connections`] (excess
    /// clients get one in-band error line), a full job queue produces
    /// in-band `busy` responses instead of unbounded buffering, idle
    /// connections time out after [`ServerConfig::io_timeout_ms`], and
    /// per-connection responses keep request order. On shutdown the loop
    /// stops reading, drains every in-flight job, writes the pending
    /// replies, and flushes the store before returning.
    ///
    /// # Errors
    ///
    /// Propagates fatal accept/poll errors (per-connection I/O errors
    /// just close that connection).
    pub fn serve_listener(&self, listener: std::net::TcpListener) -> std::io::Result<()> {
        use std::collections::VecDeque;
        use std::io::Read;

        listener.set_nonblocking(true)?;

        enum Pending {
            Reply(mpsc::Receiver<String>),
            Ready(String),
        }
        struct Conn {
            stream: std::net::TcpStream,
            inbuf: Vec<u8>,
            outbuf: Vec<u8>,
            pending: VecDeque<Pending>,
            last_activity: Instant,
            eof: bool,
            dead: bool,
        }

        struct Job {
            plan: Box<SearchPlan>,
            version: u32,
            t0: Instant,
            reply: mpsc::Sender<String>,
        }
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(self.cfg.workers.max(1) * 4);
        let job_rx = Mutex::new(job_rx);
        let io_timeout = Duration::from_millis(self.cfg.io_timeout_ms.max(1));

        std::thread::scope(|s| {
            for _ in 0..self.cfg.workers.max(1) {
                s.spawn(|| loop {
                    let job = {
                        let rx = job_rx.lock().unwrap_or_else(|e| e.into_inner());
                        rx.recv()
                    };
                    let Ok(job) = job else { break };
                    let Job {
                        plan,
                        version,
                        t0,
                        reply,
                    } = job;
                    let resp = render(version, self.run_search_plan(*plan));
                    self.stats.observe_latency(
                        u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
                    );
                    let _ = reply.send(resp);
                });
            }

            let mut conns: Vec<Conn> = Vec::new();
            let mut result = Ok(());
            let mut idle_passes = 0u32;
            'serve: loop {
                let mut progressed = false;

                // Accept — up to the connection limit; beyond it clients
                // get one in-band refusal line instead of a silent drop
                // or an unbounded connection table.
                loop {
                    match listener.accept() {
                        Ok((stream, _addr)) => {
                            progressed = true;
                            if self.shutting_down() {
                                continue; // closing; the stream drops
                            }
                            if conns.len() >= self.cfg.max_connections.max(1) {
                                self.stats.busy.fetch_add(1, Ordering::Relaxed);
                                let mut stream = stream;
                                let _ = stream.set_nodelay(true);
                                let _ = stream.set_nonblocking(false);
                                let _ = writeln!(
                                    stream,
                                    "{}",
                                    protocol::busy_response(
                                        "connection limit reached, retry later"
                                    )
                                );
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            // Line-sized writes must not sit in Nagle's
                            // buffer waiting for an ACK.
                            let _ = stream.set_nodelay(true);
                            conns.push(Conn {
                                stream,
                                inbuf: Vec::new(),
                                outbuf: Vec::new(),
                                pending: VecDeque::new(),
                                last_activity: Instant::now(),
                                eof: false,
                                dead: false,
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => {
                            self.shutdown.store(true, Ordering::Release);
                            result = Err(e);
                            break 'serve;
                        }
                    }
                }

                // Read and enqueue complete lines, per connection.
                let mut buf = [0u8; 4096];
                for conn in &mut conns {
                    if conn.eof || conn.dead {
                        continue;
                    }
                    loop {
                        match conn.stream.read(&mut buf) {
                            Ok(0) => {
                                conn.eof = true;
                                break;
                            }
                            Ok(n) => {
                                progressed = true;
                                conn.last_activity = Instant::now();
                                conn.inbuf.extend_from_slice(&buf[..n]);
                                if conn.inbuf.len() > protocol::MAX_REQUEST_BYTES {
                                    conn.pending.push_back(Pending::Ready(
                                        protocol::error_response("request line too long"),
                                    ));
                                    conn.eof = true;
                                    break;
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                conn.dead = true;
                                break;
                            }
                        }
                    }
                    while let Some(pos) = conn.inbuf.iter().position(|&b| b == b'\n') {
                        let raw: Vec<u8> = conn.inbuf.drain(..=pos).collect();
                        let line = String::from_utf8_lossy(&raw[..raw.len() - 1])
                            .trim()
                            .to_string();
                        if line.is_empty() {
                            continue;
                        }
                        progressed = true;
                        if self.shutting_down() {
                            conn.pending
                                .push_back(Pending::Ready(protocol::error_response(
                                    "server is shutting down",
                                )));
                            continue;
                        }
                        // Fast path, inline on the readiness loop: parse
                        // errors, stats, shutdown and cache hits complete
                        // in microseconds — only plans that actually need
                        // a simulator-bound search ride the job queue.
                        let t0 = Instant::now();
                        self.stats.requests.fetch_add(1, Ordering::Relaxed);
                        let slow = match protocol::parse_envelope(&line) {
                            Err(e) => {
                                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                                Err(protocol::error_response(&e))
                            }
                            Ok(envelope) => {
                                let version = envelope.version;
                                match envelope.request {
                                    Request::Stats => Err(render(version, self.stats_value())),
                                    Request::Shutdown => {
                                        self.shutdown.store(true, Ordering::Release);
                                        self.store.flush();
                                        Err(render(
                                            version,
                                            json!({"status": "ok", "shutting_down": true}),
                                        ))
                                    }
                                    Request::Search(req) => match self.search_flow(&req) {
                                        SearchFlow::Done(value) => Err(render(version, value)),
                                        SearchFlow::Search(plan) => Ok((plan, version)),
                                    },
                                }
                            }
                        };
                        let (plan, version) = match slow {
                            Err(resp) => {
                                self.stats.observe_latency(
                                    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
                                );
                                conn.pending.push_back(Pending::Ready(resp));
                                continue;
                            }
                            Ok(pair) => pair,
                        };
                        let (reply_tx, reply_rx) = mpsc::channel();
                        match job_tx.try_send(Job {
                            plan,
                            version,
                            t0,
                            reply: reply_tx,
                        }) {
                            Ok(()) => conn.pending.push_back(Pending::Reply(reply_rx)),
                            Err(mpsc::TrySendError::Full(_)) => {
                                // Backpressure: answer in-band instead of
                                // growing an unbounded backlog. The reply
                                // still rides the ordered pending queue.
                                self.stats.busy.fetch_add(1, Ordering::Relaxed);
                                conn.pending
                                    .push_back(Pending::Ready(protocol::busy_response(
                                        "job queue full, retry later",
                                    )));
                            }
                            Err(mpsc::TrySendError::Disconnected(_)) => {
                                conn.dead = true;
                                break;
                            }
                        }
                    }
                }

                // Collect finished replies in request order and write.
                for conn in &mut conns {
                    if conn.dead {
                        continue;
                    }
                    loop {
                        let ready = match conn.pending.front_mut() {
                            None => None,
                            Some(Pending::Ready(_)) => match conn.pending.pop_front() {
                                Some(Pending::Ready(r)) => Some(r),
                                _ => unreachable!("front checked above"),
                            },
                            Some(Pending::Reply(rx)) => match rx.try_recv() {
                                Ok(resp) => {
                                    conn.pending.pop_front();
                                    Some(resp)
                                }
                                Err(mpsc::TryRecvError::Empty) => None,
                                Err(mpsc::TryRecvError::Disconnected) => {
                                    conn.pending.pop_front();
                                    Some(protocol::error_response("worker dropped the request"))
                                }
                            },
                        };
                        let Some(resp) = ready else { break };
                        progressed = true;
                        conn.last_activity = Instant::now();
                        conn.outbuf.extend_from_slice(resp.as_bytes());
                        conn.outbuf.push(b'\n');
                    }
                    while !conn.outbuf.is_empty() {
                        match conn.stream.write(&conn.outbuf) {
                            Ok(0) => {
                                conn.dead = true;
                                break;
                            }
                            Ok(n) => {
                                progressed = true;
                                conn.last_activity = Instant::now();
                                conn.outbuf.drain(..n);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                conn.dead = true;
                                break;
                            }
                        }
                    }
                }

                // Cull connections that are finished or have idled out.
                conns.retain(|c| {
                    if c.dead {
                        return false;
                    }
                    let drained = c.pending.is_empty() && c.outbuf.is_empty();
                    if c.eof && drained {
                        return false;
                    }
                    // Read/write timeout: no traffic and nothing owed for
                    // the whole window — close the connection.
                    !(drained && c.last_activity.elapsed() > io_timeout)
                });

                if self.shutting_down()
                    && conns
                        .iter()
                        .all(|c| c.pending.is_empty() && c.outbuf.is_empty())
                {
                    break;
                }
                if progressed {
                    idle_passes = 0;
                } else {
                    idle_passes += 1;
                    // Active conversations turn around in microseconds, so
                    // spin-yield through short gaps; a real lull (~500
                    // empty passes) downgrades to millisecond sleeps.
                    if idle_passes < 500 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            drop(job_tx);
            result
        })?;
        // The scope joined the workers, so every accepted job has
        // finished; flush before reporting a clean exit.
        self.store.flush();
        Ok(())
    }
}

/// Renders a response value to its wire line, stamping the `"v"` marker
/// on v2 envelopes (v1 responses stay byte-identical to the PR 4 dialect,
/// which had no version field).
fn render(version: u32, value: Value) -> String {
    let value = if version >= 2 {
        match value {
            Value::Object(mut fields) => {
                fields.insert(0, ("v".to_string(), json!(2)));
                Value::Object(fields)
            }
            other => other,
        }
    } else {
        value
    };
    serde_json::to_string(&value).expect("serialize response")
}

/// Builds the `(graph, topology)` pair a search request names — shared by
/// the server and the benchmarks so cache keys line up.
///
/// A100 requests build hierarchical NVSwitch-island clusters (paper
/// clusters only cover the paper's hardware); P100/K80 requests keep the
/// flat Fig. 6 builders so existing cache keys are untouched.
///
/// # Errors
///
/// Returns a message for cluster shapes that cannot be built (e.g. an
/// A100 count that is not a whole number of islands) — the server answers
/// these in-band instead of panicking a worker.
pub fn try_build_workload(req: &SearchRequest) -> Result<(OpGraph, Topology), String> {
    let batch = if req.model == "alexnet" { 256 } else { 64 };
    let topo = match req.cluster {
        DeviceKind::A100 => {
            let width = clusters::island_width(req.cluster);
            clusters::preset(&format!("a100x{}-ib", req.gpus))
                .map_err(|e| format!("{e} (gpus must be a multiple of {width})"))?
        }
        _ => clusters::paper_cluster(req.cluster, req.gpus),
    };
    Ok((zoo::by_name(&req.model, batch), topo))
}

/// Infallible [`try_build_workload`] for callers whose requests are
/// pre-validated (benchmarks, tests).
///
/// # Panics
///
/// Panics where [`try_build_workload`] errors.
pub fn build_workload(req: &SearchRequest) -> (OpGraph, Topology) {
    try_build_workload(req).unwrap_or_else(|e| panic!("{e}"))
}

/// Convenience: extracts a named top-level field from a response line
/// (test/bench helper — responses are flat JSON objects).
pub fn response_field(line: &str, key: &str) -> Option<Value> {
    let v: Value = serde_json::from_str(line).ok()?;
    v.get_field(key).cloned()
}

/// Which front end a [`ServerHandle`] runs.
#[derive(Debug, Clone)]
enum Front {
    /// No serve loop configured: `handle_line`/`run_batch` only.
    None,
    /// TCP listener address (`HOST:PORT`).
    Tcp(String),
    /// Unix-domain socket path.
    Socket(PathBuf),
}

/// Builder for the assembled serving product: engine + store + front end
/// + polish daemon. See [`ServerHandle::builder`].
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    cfg: ServerConfig,
    front: Front,
    polish: Option<PolishConfig>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        Self {
            cfg: ServerConfig::default(),
            front: Front::None,
            polish: None,
        }
    }
}

impl ServerBuilder {
    /// Sets the worker-pool size.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    /// Sets the cache persistence root.
    #[must_use]
    pub fn cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.cache_path = Some(path.into());
        self
    }

    /// Sets the LRU bounds the store enforces.
    #[must_use]
    pub fn cache_bounds(mut self, bounds: CacheBounds) -> Self {
        self.cfg.cache_bounds = bounds;
        self
    }

    /// Sets the shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Sets the server-side microbatch floor.
    #[must_use]
    pub fn default_microbatches(mut self, floor: u64) -> Self {
        self.cfg.default_microbatches = floor;
        self
    }

    /// Sets the TCP connection limit.
    #[must_use]
    pub fn max_connections(mut self, conns: usize) -> Self {
        self.cfg.max_connections = conns;
        self
    }

    /// Sets the idle-connection timeout in milliseconds.
    #[must_use]
    pub fn io_timeout_ms(mut self, ms: u64) -> Self {
        self.cfg.io_timeout_ms = ms;
        self
    }

    /// Uses the legacy single-map store instead of the sharded one.
    #[must_use]
    pub fn legacy_store(mut self, legacy: bool) -> Self {
        self.cfg.legacy_store = legacy;
        self
    }

    /// Serves a TCP listener at `addr` when [`ServerHandle::run`] is
    /// called.
    #[must_use]
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.front = Front::Tcp(addr.into());
        self
    }

    /// Serves a Unix-domain socket at `path` when [`ServerHandle::run`]
    /// is called.
    #[must_use]
    pub fn socket(mut self, path: impl Into<PathBuf>) -> Self {
        self.front = Front::Socket(path.into());
        self
    }

    /// Enables the background polish daemon with the given config.
    #[must_use]
    pub fn polish(mut self, cfg: PolishConfig) -> Self {
        self.polish = Some(cfg);
        self
    }

    /// Builds the server and starts the polish daemon (if enabled).
    pub fn build(self) -> ServerHandle {
        let server = Arc::new(Server::new(self.cfg));
        let polish_stop = Arc::new(AtomicBool::new(false));
        let polish_thread = self.polish.map(|cfg| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&polish_stop);
            std::thread::spawn(move || crate::polish::run_daemon(&server, &cfg, &stop))
        });
        ServerHandle {
            server,
            front: self.front,
            polish_stop,
            polish_thread,
        }
    }
}

/// The assembled serving product: a [`Server`] plus its configured front
/// end and (optionally) the background polish daemon. Dropping the handle
/// stops the daemon; the engine itself is reachable via
/// [`ServerHandle::server`] and the delegates below.
pub struct ServerHandle {
    server: Arc<Server>,
    front: Front,
    polish_stop: Arc<AtomicBool>,
    polish_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Starts a builder with the defaults of [`ServerConfig`].
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// The engine behind this handle.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Delegates to [`Server::handle_line`].
    pub fn handle_line(&self, line: &str) -> String {
        self.server.handle_line(line)
    }

    /// Delegates to [`Server::run_batch`].
    ///
    /// # Errors
    ///
    /// See [`Server::run_batch`].
    pub fn run_batch(&self, input: impl BufRead, output: impl Write) -> std::io::Result<()> {
        self.server.run_batch(input, output)
    }

    /// Runs the configured front end (TCP or Unix socket) until a client
    /// sends `shutdown`, then stops the polish daemon.
    ///
    /// # Errors
    ///
    /// Propagates the serve loop's errors; a handle built without
    /// [`ServerBuilder::tcp`] or [`ServerBuilder::socket`] reports
    /// [`std::io::ErrorKind::Unsupported`].
    pub fn run(&mut self) -> std::io::Result<()> {
        let result = match &self.front {
            Front::Tcp(addr) => self.server.run_tcp(addr),
            Front::Socket(path) => self.server.run_socket(path),
            Front::None => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "no front end configured; use run_batch or handle_line",
            )),
        };
        self.stop_polish();
        result
    }

    /// Stops and joins the polish daemon (idempotent; also runs on drop).
    pub fn stop_polish(&mut self) {
        self.polish_stop.store(true, Ordering::Release);
        if let Some(thread) = self.polish_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_polish();
    }
}
