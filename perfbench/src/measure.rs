//! Measurement plumbing: latency samples, benchmark-side spans, process
//! memory, and the metric report printed as the run's last line.

use std::time::Instant;

/// Latency samples in nanoseconds, in the order they were taken, kept
/// whole so quantiles are exact.
#[derive(Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Nearest-rank quantile in microseconds (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile_us(&self.0, q)
    }

    /// Quantile `q` in microseconds, as the median over `rounds`
    /// consecutive equal parts of the samples of each part's quantile, so
    /// a slow spell on the machine that hits one part does not move it.
    /// Falls back to the quantile of all samples when a part would hold
    /// fewer than ten samples beyond `q`.
    pub fn round_median_us(&self, q: f64, rounds: usize) -> f64 {
        let per = self.0.len().div_ceil(rounds).max(1);
        if (per as f64 * (1.0 - q)) < 10.0 {
            return self.quantile_us(q);
        }
        let parts: Vec<f64> = self.0.chunks(per).map(|c| quantile_us(c, q)).collect();
        if parts.is_empty() {
            0.0
        } else {
            median(&parts)
        }
    }
}

fn quantile_us(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e3
}

/// What a benchmark-side span wraps: one public call (or one group of
/// calls) into the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Open,
    Insert,
    Read,
    Update,
    Delete,
    /// `DedupEngine::pump`.
    Pump,
    /// `take_oplog_batch` + `oplog_ack_shipped`.
    Ship,
    /// `flush_all_writebacks`.
    Flush,
    /// `Maintainer::tick`.
    Tick,
    /// `ReplicaSet::sync`.
    Sync,
    Reopen,
    /// Output checks: excluded from the timed phase, kept as a span so the
    /// trace shows where that time went.
    Verify,
}

impl Kind {
    const ALL: [Kind; 12] = [
        Kind::Open,
        Kind::Insert,
        Kind::Read,
        Kind::Update,
        Kind::Delete,
        Kind::Pump,
        Kind::Ship,
        Kind::Flush,
        Kind::Tick,
        Kind::Sync,
        Kind::Reopen,
        Kind::Verify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Open => "open",
            Kind::Insert => "insert",
            Kind::Read => "read",
            Kind::Update => "update",
            Kind::Delete => "delete",
            Kind::Pump => "pump",
            Kind::Ship => "ship",
            Kind::Flush => "flush_all_writebacks",
            Kind::Tick => "maint_tick",
            Kind::Sync => "repl_sync",
            Kind::Reopen => "reopen",
            Kind::Verify => "verify",
        }
    }
}

struct SpanRec {
    kind: Kind,
    start_ns: u64,
    dur_ns: u64,
    in_phase: bool,
}

/// Benchmark-side spans around calls into the program. Totals per kind are
/// always kept (the timed phase needs them); individual span records only
/// in a traced run, in memory, written out by [`Spans::write_jsonl`] after
/// the run.
pub struct Spans {
    keep: bool,
    origin: Instant,
    recs: Vec<SpanRec>,
    total_ns: [u64; Kind::ALL.len()],
    /// Start and end of the timed phase, in ns since `origin`.
    phase: (u64, u64),
    in_phase: bool,
}

impl Spans {
    pub fn new(keep: bool) -> Self {
        Self {
            keep,
            origin: Instant::now(),
            recs: Vec::new(),
            total_ns: [0; Kind::ALL.len()],
            phase: (0, 0),
            in_phase: false,
        }
    }

    /// Runs `f` inside a span of `kind`; returns its result and duration.
    #[inline]
    pub fn time<T>(&mut self, kind: Kind, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed().as_nanos() as u64;
        self.total_ns[kind as usize] += dur;
        if self.keep {
            let start_ns = t0.duration_since(self.origin).as_nanos() as u64;
            self.recs.push(SpanRec { kind, start_ns, dur_ns: dur, in_phase: self.in_phase });
        }
        (out, dur)
    }

    pub fn total_s(&self, kind: Kind) -> f64 {
        self.total_ns[kind as usize] as f64 / 1e9
    }

    pub fn total_ns(&self, kind: Kind) -> u64 {
        self.total_ns[kind as usize]
    }

    /// Marks the start (`true`) or end of the timed phase, the parent of the
    /// spans recorded inside it.
    pub fn set_phase(&mut self, on: bool) {
        let now = self.origin.elapsed().as_nanos() as u64;
        if on {
            self.phase.0 = now;
        } else {
            self.phase.1 = now;
        }
        self.in_phase = on;
    }

    /// Time inside spans that a timed phase is made of: every kind except
    /// open, reopen and output checks.
    pub fn covered_ns(&self) -> u64 {
        Kind::ALL
            .iter()
            .filter(|k| !matches!(k, Kind::Open | Kind::Reopen | Kind::Verify))
            .map(|&k| self.total_ns(k))
            .sum()
    }

    /// Writes the timed phase (span 0) and every kept span as one JSON line
    /// each: id, causing span (`0` inside the timed phase, `null` for
    /// set-up, restart and checks around it), name, and start and end in
    /// nanoseconds since the run began.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let line = |out: &mut std::io::BufWriter<_>, id, parent, name, start, end| {
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"workload\":\"{workload}\",\"name\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end}}}"
            )
        };
        line(&mut out, 0, "null", "timed_phase", self.phase.0, self.phase.1)?;
        for (i, r) in self.recs.iter().enumerate() {
            let parent = if r.in_phase { "0" } else { "null" };
            line(&mut out, i + 1, parent, r.kind.name(), r.start_ns, r.start_ns + r.dur_ns)?;
        }
        out.flush()
    }
}

/// The timed phase's clock: wall time from `start` minus time spent in
/// output checks, which run between calls but belong to no operation.
pub struct Phase {
    t0: Instant,
    excluded_ns: u64,
}

impl Phase {
    pub fn start() -> Self {
        Self { t0: Instant::now(), excluded_ns: 0 }
    }

    pub fn exclude(&mut self, ns: u64) {
        self.excluded_ns += ns;
    }

    pub fn elapsed_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64 - self.excluded_ns
    }
}

/// Resident set size of this process in MiB, from `/proc/self/status`.
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.metrics.iter().all(|(n, _, _)| n != name), "metric {name} reported twice");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v:?},\"unit\":\"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            body.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=1000u64 {
            s.push(v * 1000);
        }
        assert_eq!(s.quantile_us(0.5), 500.0);
        assert_eq!(s.quantile_us(0.99), 990.0);
        assert_eq!(s.quantile_us(0.999), 999.0);
    }

    #[test]
    fn report_renders_full_precision_json() {
        let mut r = Report::default();
        r.set("latency_ms", 1.203_456_789, "ms");
        let json = r.to_json(true, 10, 0);
        assert!(json.contains("\"latency_ms\":{\"value\":1.203456789,\"unit\":\"ms\"}"));
        assert!(json.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
    }
}
