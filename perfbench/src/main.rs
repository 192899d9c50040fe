//! dbdedup benchmark: three seeded closed-loop workloads measured end to
//! end (untraced run) or layer by layer (traced run). See README.md for the
//! workloads, the metrics and which layer metric should move which
//! end-to-end metric.
//!
//! ```text
//! perfbench --workload <wiki-ingest|wiki-history-read|boards-churn>
//!           --seed <n> --seconds <s> --trace <0|1> [--work <dir>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! The exit code is non-zero when any operation failed or returned wrong
//! content.

mod gen;
mod measure;
mod prim;
mod run;

use dbdedup_core::EngineConfig;
use dbdedup_obs::Stage;
use measure::{median, Kind, Report};
use run::{Pass, ROUNDS};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Input sizes per `--seconds`, set so a timed phase lasts about that long
/// on a 2-vCPU x86-64 VM. Sizes derive only from the seed and
/// `--seconds`, never from a clock, so every byte count repeats exactly for
/// the same arguments.
const WIKI_REVISIONS_PER_S: usize = 3_000;
const HISTORY_READS_PER_S: usize = 20_000;
const RESTART_READS_PER_S: usize = 10_000;
const BOARDS_POSTS_PER_S: usize = 4_000;
/// The history workload's corpus is fixed: it is set-up, not timed phase.
const HISTORY_CORPUS_REVISIONS: usize = 12_000;
/// Set-ups per untraced run; `setup_s` is their median. On wiki-ingest each
/// set-up is the mean of a batch of opens, since one open of an empty
/// directory (a fraction of a millisecond) is too short to time steadily.
const SETUP_REPEATS_CHEAP: usize = 21;
const OPEN_BATCH: usize = 20;
const SETUP_REPEATS_INGEST: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    WikiIngest,
    WikiHistoryRead,
    BoardsChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "wiki-ingest" => Some(Self::WikiIngest),
            "wiki-history-read" => Some(Self::WikiHistoryRead),
            "boards-churn" => Some(Self::BoardsChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::WikiIngest => "wiki-ingest",
            Self::WikiHistoryRead => "wiki-history-read",
            Self::BoardsChurn => "boards-churn",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: usize,
    trace: bool,
    work: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <wiki-ingest|wiki-history-read|boards-churn> \
                     --seed <n> --seconds <s> --trace <0|1> [--work <dir>]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work = PathBuf::from("perfbench/work");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<usize>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--work" => work = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work,
    })
}

/// Generated inputs of one workload.
enum Inputs {
    Wiki(gen::WikiCorpus, Vec<Vec<dbdedup_util::ids::RecordId>>),
    History(gen::WikiCorpus, Vec<Vec<dbdedup_util::ids::RecordId>>),
    Boards(gen::Boards),
}

fn generate(args: &Args) -> Inputs {
    match args.workload {
        Workload::WikiIngest => {
            let corpus = gen::wiki_corpus(args.seconds * WIKI_REVISIONS_PER_S, args.seed);
            let reads =
                gen::history_reads(&corpus, args.seconds * RESTART_READS_PER_S, ROUNDS, args.seed);
            Inputs::Wiki(corpus, reads)
        }
        Workload::WikiHistoryRead => {
            let corpus = gen::wiki_corpus(HISTORY_CORPUS_REVISIONS, args.seed);
            let reads =
                gen::history_reads(&corpus, args.seconds * HISTORY_READS_PER_S, ROUNDS, args.seed);
            Inputs::History(corpus, reads)
        }
        Workload::BoardsChurn => {
            Inputs::Boards(gen::boards(args.seconds * BOARDS_POSTS_PER_S, args.seed))
        }
    }
}

fn run_pass(
    inputs: &Inputs,
    cfg: &EngineConfig,
    work: &Path,
    traced: bool,
) -> Result<Pass, String> {
    match inputs {
        Inputs::Wiki(c, reads) => run::wiki_ingest(c, reads, cfg, work, traced),
        Inputs::History(c, reads) => run::wiki_history(c, reads, cfg, work, traced),
        Inputs::Boards(b) => run::boards_churn(b, cfg, work, traced),
    }
}

/// The untraced run: every end-to-end metric. `setup_s` is the median over
/// repeated set-ups; read figures are medians over [`ROUNDS`] read rounds
/// of the same mix; on wiki-history-read the insert figures are medians
/// over its three set-up ingests.
fn end_to_end(
    inputs: &Inputs,
    cfg: &EngineConfig,
    work: &Path,
) -> Result<(Report, u64, u64), String> {
    let p = run_pass(inputs, cfg, work, false)?;
    let mut setups = Vec::new();
    let mut extra_inserts = Vec::new();
    match inputs {
        Inputs::Wiki(..) => {
            for _ in 0..SETUP_REPEATS_CHEAP {
                setups.push(run::open_setup(cfg, work, OPEN_BATCH)?);
            }
        }
        Inputs::History(c, _) => {
            setups.push(p.setup_s);
            for _ in 1..SETUP_REPEATS_INGEST {
                let (s, inserts) = run::history_setup(c, cfg, work)?;
                setups.push(s);
                extra_inserts.push(inserts);
            }
        }
        Inputs::Boards(_) => {
            setups.push(p.setup_s);
            for _ in 1..SETUP_REPEATS_CHEAP {
                setups.push(run::replica_setup(cfg)?);
            }
        }
    }
    eprintln!("perfbench: timed phase {:.3} s, {} ops", p.phase_ns as f64 / 1e9, p.ops);
    let inserts = |q: f64| {
        let all: Vec<f64> =
            std::iter::once(&p.insert).chain(&extra_inserts).map(|s| s.quantile_us(q)).collect();
        median(&all)
    };
    let read = |q: f64| p.read.round_median_us(q, p.read_rounds);
    let mut r = Report::default();
    r.set("setup_s", median(&setups), "s");
    r.set("ops_per_s", p.ops_per_s(), "1/s");
    r.set("insert_p50_us", inserts(0.50), "us");
    r.set("insert_p99_us", inserts(0.99), "us");
    r.set("read_p50_us", read(0.50), "us");
    r.set("read_p99_us", read(0.99), "us");
    r.set("read_p999_us", read(0.999), "us");
    r.set("storage_ratio", p.write.m.storage_ratio(), "x");
    r.set("network_ratio", p.write.m.network_ratio(), "x");
    r.set("reopen_s", p.reopen_s, "s");
    r.set("engine_rss_mib", p.rss_mib, "MiB");
    Ok((r, p.tally.attempted, p.tally.failed))
}

/// The engine stages that run inside each kind of benchmark span. A sync
/// also runs the secondary's apply, whose stages are the secondary's and
/// stay in the sync's self time.
const CHILD_STAGES: [(Kind, &[Stage]); 4] = [
    (
        Kind::Insert,
        &[
            Stage::Chunk,
            Stage::Sketch,
            Stage::IndexLookup,
            Stage::SourceFetch,
            Stage::DeltaEncode,
            Stage::StoreAppend,
        ],
    ),
    (Kind::Read, &[Stage::DecodeChain]),
    (
        Kind::Tick,
        &[
            Stage::MaintGc,
            Stage::MaintCompact,
            Stage::MaintRededup,
            Stage::MaintScrub,
            Stage::MaintIndexMerge,
        ],
    ),
    (Kind::Sync, &[Stage::ReplShip, Stage::CatchUp]),
];

/// Self time of all spans of `kind`, in ns: their total minus the engine
/// stages that ran inside them (taken from the engine that served them).
fn self_ns(p: &Pass, kind: Kind) -> f64 {
    let m = if kind == Kind::Read { &p.read_side.m } else { &p.write.m };
    let children = CHILD_STAGES.iter().find(|(k, _)| *k == kind).map_or(&[][..], |(_, s)| s);
    let stages: f64 = children
        .iter()
        .map(|&s| {
            let h = m.stages.get(s);
            h.mean() * h.count() as f64
        })
        .sum();
    p.spans.total_ns(kind) as f64 - stages
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics of a traced pass. Maintenance, replication and
/// update/delete latency exist only on boards-churn (`churn`); the wiki
/// workloads leave them out rather than report a constant zero.
fn per_layer(r: &mut Report, p: &Pass, base_ops_per_s: f64, churn: bool) {
    let w = &p.write.m;
    let mean_us = |m: &dbdedup_core::MetricsSnapshot, s: Stage| m.stages.get(s).mean() / 1e3;
    let inserts =
        (w.deduped_inserts + w.unique_inserts + w.bypassed_size + w.bypassed_governor) as f64;

    r.set("chunker.chunk_us", mean_us(w, Stage::Chunk), "us");
    r.set("chunker.sketch_us", mean_us(w, Stage::Sketch), "us");

    r.set("index.lookup_us", mean_us(w, Stage::IndexLookup), "us");
    r.set("index.bytes", w.index_bytes as f64, "bytes");

    r.set("core.insert_self_us", ratio(self_ns(p, Kind::Insert), inserts) / 1e3, "us");
    r.set("core.dedup_frac", ratio(w.deduped_inserts as f64, inserts), "ratio");
    r.set("core.size_bypass_frac", ratio(w.bypassed_size as f64, inserts), "ratio");
    r.set("core.pump_busy_s", p.spans.total_s(Kind::Pump) + p.spans.total_s(Kind::Flush), "s");

    let sc = &w.source_cache;
    r.set("cache.source_hit_ratio", ratio(sc.hits as f64, (sc.hits + sc.misses) as f64), "ratio");
    r.set("cache.writeback_dropped", w.writeback_cache.dropped as f64, "count");
    r.set("cache.writeback_lost_savings_bytes", w.writeback_cache.lost_savings as f64, "bytes");

    r.set("delta.source_fetch_us", mean_us(w, Stage::SourceFetch), "us");
    r.set("delta.encode_us", mean_us(w, Stage::DeltaEncode), "us");
    r.set(
        "delta.forward_bytes_per_insert",
        ratio(p.forward_bytes as f64, w.deduped_inserts as f64),
        "bytes",
    );

    let rd = &p.read_side.m;
    r.set("encoding.decode_chain_us", mean_us(rd, Stage::DecodeChain), "us");
    r.set("encoding.retrievals_mean", rd.mean_read_retrievals, "count");
    r.set("encoding.retrievals_max", rd.max_read_retrievals as f64, "count");

    r.set("storage.append_us", mean_us(w, Stage::StoreAppend), "us");
    r.set(
        "storage.write_bytes_per_user_byte",
        ratio(p.write.io.write_bytes as f64, w.original_bytes as f64),
        "ratio",
    );
    r.set(
        "storage.read_bytes_per_user_byte",
        ratio(p.phase_read_bytes as f64, p.phase_user_bytes as f64),
        "ratio",
    );
    let (b0, b1) = (&p.read_block_base, &p.read_side.block_cache);
    let (hits, misses) = ((b1.hits - b0.hits) as f64, (b1.misses - b0.misses) as f64);
    r.set("storage.block_cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    r.set(
        "storage.dead_bytes_frac",
        ratio(p.write.dead_bytes as f64, p.write.segment_bytes as f64),
        "ratio",
    );
    r.set(
        "storage.recovery_mib_per_s",
        ratio(p.write.segment_bytes as f64 / (1 << 20) as f64, p.reopen_s),
        "MiB/s",
    );

    if churn {
        let bg = &p.background;
        r.set("core.mutate_p99_us", p.mutate.quantile_us(0.99), "us");
        r.set("core.restart_divergent_records", bg.restart_divergent as f64, "count");
        r.set("maint.tick_busy_s", p.spans.total_s(Kind::Tick), "s");
        r.set("maint.tick_p99_us", bg.ticks.quantile_us(0.99), "us");
        r.set("maint.scrub_verified_frames", w.scrub_verified as f64, "count");
        r.set("maint.gc_removed", w.maint_removed as f64, "count");
        r.set("maint.compact_reclaimed_bytes", bg.compact_reclaimed_bytes as f64, "bytes");
        r.set("repl.sync_busy_s", p.spans.total_s(Kind::Sync), "s");
        r.set("repl.shipped_bytes", bg.shipped_bytes as f64, "bytes");
    }

    r.set("obs.trace_overhead_frac", 1.0 - ratio(p.ops_per_s(), base_ops_per_s), "ratio");
    r.set(
        "unattributed_frac",
        ratio((p.phase_ns - p.covered_ns.min(p.phase_ns)) as f64, p.phase_ns as f64),
        "ratio",
    );
    r.set("failed_op_frac", ratio(p.tally.failed as f64, p.tally.attempted as f64), "ratio");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((report, attempted, failed)) => {
            println!("{}", report.to_json(failed == 0, attempted, failed));
            if failed > 0 {
                eprintln!("perfbench: {failed} of {attempted} operations failed or returned wrong content");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(Report, u64, u64), String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("mkdir {}: {e}", args.work.display()))?;
    let t0 = Instant::now();
    let inputs = generate(args);
    eprintln!(
        "perfbench: {} seed {}: inputs generated in {:.3} s (not part of any metric)",
        args.workload.name(),
        args.seed,
        t0.elapsed().as_secs_f64()
    );

    // The paper's configuration: Rabin chunking, K = 8, 32 MiB source
    // cache, 8 MiB write-back cache, hop encoding, no store fsync.
    let cfg = EngineConfig::default();
    let (report, attempted, failed) = if !args.trace {
        end_to_end(&inputs, &cfg, &args.work)?
    } else {
        let base = run_pass(&inputs, &cfg, &args.work, false)?;
        let mut traced_cfg = cfg.clone();
        traced_cfg.trace_sample_every = 1;
        let pass = run_pass(&inputs, &traced_cfg, &args.work, true)?;
        let mut report = Report::default();
        per_layer(&mut report, &pass, base.ops_per_s(), args.workload == Workload::BoardsChurn);
        prim::measure(&mut report, &args.work, args.seed)?;
        let spans_path = args.work.join(format!("spans-{}.jsonl", args.workload.name()));
        pass.spans
            .write_jsonl(&spans_path, args.workload.name())
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        eprintln!("perfbench: spans written to {}", spans_path.display());
        for (kind, _) in CHILD_STAGES {
            eprintln!(
                "perfbench: {:>10} spans {:.3} s, self {:.3} s",
                kind.name(),
                pass.spans.total_ns(kind) as f64 / 1e9,
                self_ns(&pass, kind) / 1e9
            );
        }
        (report, base.tally.attempted + pass.tally.attempted, base.tally.failed + pass.tally.failed)
    };
    Ok((report, attempted, failed))
}
