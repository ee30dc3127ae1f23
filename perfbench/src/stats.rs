//! Sample distributions, the metric ledger, and host memory readings.

use std::fmt::Write as _;
use std::time::Instant;

/// Value at quantile `q` of sorted `v` by the nearest-rank rule (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// `v` in ascending order.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of unsorted `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Arithmetic mean (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Summary of one layer's samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub mean: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let s = sorted(samples);
        Self {
            n: s.len(),
            p50: quantile(&s, 0.50),
            p90: quantile(&s, 0.90),
            p99: quantile(&s, 0.99),
            mean: mean(&s),
        }
    }
}

/// Named sample series, in insertion order.
#[derive(Debug, Default)]
pub struct Samples {
    series: Vec<(String, Vec<f64>)>,
}

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        match self.series.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => v.push(value),
            None => self.series.push((name.to_string(), vec![value])),
        }
    }

    /// Runs `f`, records its wall time in microseconds under `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.push(name, t0.elapsed().as_secs_f64() * 1e6);
        out
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    pub fn summary(&self, name: &str) -> Summary {
        Summary::of(self.get(name))
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that are wrong or unverifiable results (the rest were
    /// refused or unanswered under load).
    pub wrong: u64,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation; `ok == false` is a wrong result.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
            if self.failed <= 5 {
                let msg = what();
                self.notes.push(format!("FAILED: {msg}"));
            }
        }
    }

    /// Counts one operation the program refused or left unanswered: a
    /// failure, but not a wrong result.
    pub fn refused(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 5 {
            let msg = what();
            self.notes.push(format!("REFUSED: {msg}"));
        }
    }

    /// Reports a layer distribution as `<name>.p50|.p99|.mean` metrics, and
    /// the full p50/p90/p99/mean/n row as a note.
    pub fn layer(&mut self, name: &str, unit: &'static str, s: Summary) {
        self.metric(&format!("{name}.p50"), s.p50, unit);
        self.metric(&format!("{name}.p99"), s.p99, unit);
        self.metric(&format!("{name}.mean"), s.mean, unit);
        self.note(format!(
            "  {name:<38} n={:<7} p50={:<12.3} p90={:<12.3} p99={:<12.3} mean={:.3} {unit}",
            s.n, s.p50, s.p90, s.p99, s.mean
        ));
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.wrong == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, read from procfs.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64: derives independent per-job seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
