//! The three workloads. Each drives the engine from one client thread in a
//! closed loop (the next call starts when the previous one returns), since
//! `DedupEngine` is a single-writer `&mut self` engine.

use crate::gen::{digest, BoardOp, Boards, Digest, Record, WikiCorpus};
use crate::measure::{rss_mib, Kind, Phase, Samples, Spans};
use dbdedup_core::{DedupEngine, EngineConfig, EngineError, InsertOutcome, MetricsSnapshot};
use dbdedup_maint::{MaintConfig, Maintainer};
use dbdedup_repl::ReplicaSet;
use dbdedup_storage::blockcache::BlockCacheStats;
use dbdedup_storage::store::IoStats;
use dbdedup_storage::{RecordStore, StoreConfig};
use dbdedup_util::ids::RecordId;
use std::path::{Path, PathBuf};
use std::time::Instant;

const DB_WIKI: &str = "wikipedia";
const DB_BOARDS: &str = "msgboards";

/// Write-back cadence: after every `PUMP_EVERY` client ops the client calls
/// `pump(PUMP_INTERVAL_S, PUMP_MAX)`, advancing the engine's modeled I/O
/// device (200 IOPS, idle at 4 or fewer queued ops) by a fixed interval instead
/// of wall time, so which writebacks flush or drop repeats exactly on
/// every run and machine. Each run ends with `flush_all_writebacks`.
const PUMP_EVERY: usize = 64;
const PUMP_INTERVAL_S: f64 = 0.5;
const PUMP_MAX: usize = 64;

/// The history workload's timed phase is this many rounds reading the same
/// mix; its throughput and read latencies are the median over them.
pub const ROUNDS: usize = 10;

/// Operations attempted and failed (errored or wrong content).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Which part of the run is checking, for failure messages.
    pub stage: &'static str,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: FAILED ({}) {}", self.stage, what());
            }
        }
    }
}

/// Engine and store state captured at one point of a run.
#[derive(Clone)]
pub struct Snap {
    pub m: MetricsSnapshot,
    pub io: IoStats,
    pub block_cache: BlockCacheStats,
    pub dead_bytes: u64,
    pub segment_bytes: u64,
}

fn snap(e: &DedupEngine) -> Snap {
    let store = e.store();
    Snap {
        m: e.metrics(),
        io: store.io_stats(),
        block_cache: store.block_cache_stats(),
        dead_bytes: store.dead_bytes(),
        segment_bytes: dir_bytes(store.dir()),
    }
}

/// Maintenance and replication tallies (boards-churn only).
#[derive(Default)]
pub struct Background {
    pub ticks: Samples,
    pub compact_reclaimed_bytes: u64,
    pub shipped_bytes: u64,
    /// Live records whose content or existence after a restart differs
    /// from the last acknowledged operation.
    pub restart_divergent: u64,
}

/// Everything one pass of a workload measured.
pub struct Pass {
    pub setup_s: f64,
    /// Client operations in the timed phase.
    pub ops: u64,
    /// Timed-phase wall time, output checks excluded.
    pub phase_ns: u64,
    /// Part of the timed phase covered by benchmark spans.
    pub covered_ns: u64,
    /// Client ops and duration of each round, when the timed phase is
    /// split into [`ROUNDS`] rounds.
    pub rounds: Vec<(u64, u64)>,
    /// Equal consecutive parts the read samples fall into, each reading the
    /// same mix; read quantiles are the median over them.
    pub read_rounds: usize,
    pub insert: Samples,
    pub read: Samples,
    pub mutate: Samples,
    pub reopen_s: f64,
    pub rss_mib: f64,
    pub tally: Tally,
    pub spans: Spans,
    /// The primary at the end of the timed phase (after the final flush).
    pub write: Snap,
    /// The engine that served the measured reads, after them, and its block
    /// cache counters before them.
    pub read_side: Snap,
    pub read_block_base: BlockCacheStats,
    /// Store bytes read during the timed phase, and user bytes the timed
    /// phase moved (inserted, updated, or returned by reads).
    pub phase_read_bytes: u64,
    pub phase_user_bytes: u64,
    /// Forward-delta bytes summed over deduped inserts.
    pub forward_bytes: u64,
    pub background: Background,
}

impl Pass {
    /// Client ops per second: over the whole timed phase, or the median
    /// over its rounds when it has them.
    pub fn ops_per_s(&self) -> f64 {
        if self.rounds.is_empty() {
            return self.ops as f64 / (self.phase_ns as f64 / 1e9);
        }
        let rates: Vec<f64> =
            self.rounds.iter().map(|&(ops, ns)| ops as f64 / (ns as f64 / 1e9)).collect();
        crate::measure::median(&rates)
    }
}

pub fn open_engine(dir: &Path, cfg: &EngineConfig) -> Result<DedupEngine, String> {
    let store = RecordStore::open(dir, StoreConfig::default())
        .map_err(|e| format!("open store {}: {e}", dir.display()))?;
    DedupEngine::new(store, cfg.clone()).map_err(|e| format!("open engine: {e}"))
}

fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    Ok(dir)
}

/// Total bytes of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// Hard-links every file under `from` into `to`, so a store owned by a
/// temporary engine survives that engine's drop for a restart.
fn link_tree(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for e in std::fs::read_dir(from).map_err(|e| format!("list {}: {e}", from.display()))? {
        let e = e.map_err(|e| e.to_string())?;
        let dst = to.join(e.file_name());
        if e.file_type().map_err(|e| e.to_string())?.is_dir() {
            link_tree(&e.path(), &dst)?;
        } else {
            std::fs::hard_link(e.path(), &dst)
                .map_err(|e| format!("link {}: {e}", dst.display()))?;
        }
    }
    Ok(())
}

/// Checks one read against its expected hash (`None`: must be NotFound),
/// inside a verify span that the timed phase, if any, excludes.
fn verify(
    spans: &mut Spans,
    phase: Option<&mut Phase>,
    tally: &mut Tally,
    id: RecordId,
    got: Result<&[u8], &EngineError>,
    expect: Option<Digest>,
) {
    let (ok, ns) = spans.time(Kind::Verify, || match (got, expect) {
        (Ok(data), Some(h)) => digest(data) == h,
        (Err(EngineError::NotFound(_)), None) => true,
        _ => false,
    });
    if let Some(p) = phase {
        p.exclude(ns);
    }
    tally.check(ok, || match got {
        Ok(d) => format!("read {id}: {} bytes, expected {:?}", d.len(), expect),
        Err(e) => format!("read {id}: {e}, expected {:?}", expect),
    });
}

fn ship(engine: &mut DedupEngine, spans: &mut Spans) {
    spans.time(Kind::Ship, || {
        let batch = engine.take_oplog_batch(usize::MAX);
        if let Some(last) = batch.last() {
            engine.oplog_ack_shipped(last.lsn + 1);
        }
    });
}

/// Inserts `records` with the write-back cadence and oplog shipping of the
/// wiki workloads, then flushes every writeback and ships the tail.
fn ingest(
    engine: &mut DedupEngine,
    records: &[Record],
    spans: &mut Spans,
    insert: &mut Samples,
    tally: &mut Tally,
) -> Result<u64, String> {
    let mut forward = 0;
    for (i, rec) in records.iter().enumerate() {
        let (res, ns) = spans.time(Kind::Insert, || engine.insert(DB_WIKI, rec.id, &rec.data));
        insert.push(ns);
        if let Ok(InsertOutcome::Deduped { forward_bytes, .. }) = &res {
            forward += *forward_bytes as u64;
        }
        tally.check(res.is_ok(), || format!("insert {}: {:?}", rec.id, res.as_ref().err()));
        if (i + 1) % PUMP_EVERY == 0 {
            spans
                .time(Kind::Pump, || engine.pump(PUMP_INTERVAL_S, PUMP_MAX))
                .0
                .map_err(|e| format!("pump: {e}"))?;
            ship(engine, spans);
        }
    }
    spans
        .time(Kind::Flush, || engine.flush_all_writebacks())
        .0
        .map_err(|e| format!("flush: {e}"))?;
    ship(engine, spans);
    Ok(forward)
}

/// Set-up of the history workload alone: open plus corpus ingest. Returns
/// its seconds and insert latencies; used to repeat the set-up for medians.
pub fn history_setup(
    corpus: &WikiCorpus,
    cfg: &EngineConfig,
    work: &Path,
) -> Result<(f64, Samples), String> {
    let dir = fresh_dir(work, "wiki-history-setup")?;
    let mut spans = Spans::new(false);
    let mut insert = Samples::default();
    let t0 = Instant::now();
    let mut engine = open_engine(&dir, cfg)?;
    ingest(&mut engine, &corpus.records, &mut spans, &mut insert, &mut Tally::default())?;
    let s = t0.elapsed().as_secs_f64();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((s, insert))
}

/// Set-up of the ingest workload alone: the mean seconds to open an engine
/// on an empty directory, over `batch` opens, each on a fresh directory.
pub fn open_setup(cfg: &EngineConfig, work: &Path, batch: usize) -> Result<f64, String> {
    let mut ns = 0u128;
    for _ in 0..batch {
        let dir = fresh_dir(work, "open-setup")?;
        let t0 = Instant::now();
        let engine = open_engine(&dir, cfg)?;
        ns += t0.elapsed().as_nanos();
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(ns as f64 / 1e9 / batch as f64)
}

/// Set-up of the boards workload alone: opening the replica set.
pub fn replica_setup(cfg: &EngineConfig) -> Result<f64, String> {
    let t0 = Instant::now();
    let set =
        ReplicaSet::open_temp(cfg.clone(), 1).map_err(|e| format!("open replica set: {e}"))?;
    let s = t0.elapsed().as_secs_f64();
    drop(set);
    Ok(s)
}

/// wiki-ingest: insert the corpus (timed), restart, serve `reads` (the
/// history workload's read mix, in rounds) on the cold engine, then read
/// back and check every acknowledged revision.
pub fn wiki_ingest(
    corpus: &WikiCorpus,
    reads: &[Vec<RecordId>],
    cfg: &EngineConfig,
    work: &Path,
    traced: bool,
) -> Result<Pass, String> {
    let dir = fresh_dir(work, "wiki-ingest")?;
    let mut spans = Spans::new(traced);
    let mut tally = Tally::default();
    let rss0 = rss_mib();
    let (engine, open_ns) = spans.time(Kind::Open, || open_engine(&dir, cfg));
    let mut engine = engine?;

    tally.stage = "timed phase";
    let covered0 = spans.covered_ns();
    let phase = Phase::start();
    spans.set_phase(true);
    let mut insert = Samples::default();
    let forward_bytes = ingest(&mut engine, &corpus.records, &mut spans, &mut insert, &mut tally)?;
    let phase_ns = phase.elapsed_ns();
    spans.set_phase(false);
    let covered_ns = spans.covered_ns() - covered0;
    let rss_mib = rss_mib() - rss0;
    let write = snap(&engine);
    drop(engine);

    tally.stage = "after reopen";
    let (engine, reopen_ns) = spans.time(Kind::Reopen, || open_engine(&dir, cfg));
    let mut engine = engine?;
    let mut read = Samples::default();
    for &id in reads.iter().flatten() {
        let (got, ns) = spans.time(Kind::Read, || engine.read(id));
        read.push(ns);
        verify(&mut spans, None, &mut tally, id, got.as_deref(), Some(corpus.hash_of(id)));
    }
    let read_side = snap(&engine);
    // The read-back: its latencies are not a metric, since a read of every
    // revision once puts the few deepest decode chains of the corpus, not a
    // sampled mix, at the tail.
    for rec in &corpus.records {
        let got = engine.read(rec.id);
        verify(&mut spans, None, &mut tally, rec.id, got.as_deref(), Some(rec.hash));
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Pass {
        setup_s: open_ns as f64 / 1e9,
        ops: corpus.records.len() as u64,
        phase_ns,
        covered_ns,
        rounds: Vec::new(),
        read_rounds: reads.len(),
        insert,
        read,
        mutate: Samples::default(),
        reopen_s: reopen_ns as f64 / 1e9,
        rss_mib,
        tally,
        spans,
        phase_read_bytes: write.io.read_bytes,
        phase_user_bytes: corpus.bytes(),
        write,
        read_side,
        read_block_base: BlockCacheStats::default(),
        forward_bytes,
        background: Background::default(),
    })
}

/// wiki-history-read: set-up ingests the corpus; the timed phase only
/// reads old and new revisions; then reopen and check every record.
pub fn wiki_history(
    corpus: &WikiCorpus,
    reads: &[Vec<RecordId>],
    cfg: &EngineConfig,
    work: &Path,
    traced: bool,
) -> Result<Pass, String> {
    let dir = fresh_dir(work, "wiki-history")?;
    let mut spans = Spans::new(traced);
    let mut tally = Tally::default();
    let rss0 = rss_mib();
    let t0 = Instant::now();
    let (engine, _) = spans.time(Kind::Open, || open_engine(&dir, cfg));
    let mut engine = engine?;
    let mut insert = Samples::default();
    tally.stage = "set-up ingest";
    let forward_bytes = ingest(&mut engine, &corpus.records, &mut spans, &mut insert, &mut tally)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let io0 = engine.store().io_stats();
    let block0 = engine.store().block_cache_stats();
    tally.stage = "timed phase";
    let covered0 = spans.covered_ns();
    let mut phase = Phase::start();
    spans.set_phase(true);
    let mut read = Samples::default();
    let mut user_bytes = 0u64;
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut round_start = 0;
    for round in reads {
        for &id in round {
            let (got, ns) = spans.time(Kind::Read, || engine.read(id));
            read.push(ns);
            if let Ok(d) = &got {
                user_bytes += d.len() as u64;
            }
            let expect = Some(corpus.hash_of(id));
            verify(&mut spans, Some(&mut phase), &mut tally, id, got.as_deref(), expect);
        }
        let now = phase.elapsed_ns();
        rounds.push((round.len() as u64, now - round_start));
        round_start = now;
    }
    let phase_ns = phase.elapsed_ns();
    spans.set_phase(false);
    let covered_ns = spans.covered_ns() - covered0;
    let rss_mib = rss_mib() - rss0;
    let state = snap(&engine);
    drop(engine);

    tally.stage = "after reopen";
    let (engine, reopen_ns) = spans.time(Kind::Reopen, || open_engine(&dir, cfg));
    let mut engine = engine?;
    for rec in &corpus.records {
        let got = engine.read(rec.id);
        verify(&mut spans, None, &mut tally, rec.id, got.as_deref(), Some(rec.hash));
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Pass {
        setup_s,
        ops: reads.iter().map(|r| r.len() as u64).sum(),
        phase_ns,
        covered_ns,
        rounds,
        read_rounds: ROUNDS,
        insert,
        read,
        mutate: Samples::default(),
        reopen_s: reopen_ns as f64 / 1e9,
        rss_mib,
        tally,
        spans,
        phase_read_bytes: state.io.read_bytes - io0.read_bytes,
        phase_user_bytes: user_bytes,
        read_side: state.clone(),
        read_block_base: block0,
        write: state,
        forward_bytes,
        background: Background::default(),
    })
}

/// boards-churn: the primary of a one-secondary replica set takes inserts,
/// whole-thread reads, updates and deletes; every `PUMP_EVERY` ops the
/// client pumps write-backs, ticks maintenance and syncs the replica, all
/// inline on the client thread.
pub fn boards_churn(
    b: &Boards,
    cfg: &EngineConfig,
    work: &Path,
    traced: bool,
) -> Result<Pass, String> {
    let mut spans = Spans::new(traced);
    let mut tally = Tally::default();
    let rss0 = rss_mib();
    let (set, open_ns) = spans.time(Kind::Open, || ReplicaSet::open_temp(cfg.clone(), 1));
    let mut set = set.map_err(|e| format!("open replica set: {e}"))?;
    let mut maint = Maintainer::new(MaintConfig::default());
    let mut bg = Background::default();

    tally.stage = "timed phase";
    let covered0 = spans.covered_ns();
    let mut phase = Phase::start();
    spans.set_phase(true);
    let (mut insert, mut read, mut mutate) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut forward_bytes, mut user_bytes) = (0u64, 0u64);
    for (i, op) in b.ops.iter().enumerate() {
        let p = &mut set.primary;
        match op {
            BoardOp::Insert { id, data } => {
                let (res, ns) = spans.time(Kind::Insert, || p.insert(DB_BOARDS, *id, data));
                insert.push(ns);
                user_bytes += data.len() as u64;
                if let Ok(InsertOutcome::Deduped { forward_bytes: f, .. }) = &res {
                    forward_bytes += *f as u64;
                }
                tally.check(res.is_ok(), || format!("insert {id}: {:?}", res.as_ref().err()));
            }
            BoardOp::Read { id, expect } => {
                let (got, ns) = spans.time(Kind::Read, || p.read(*id));
                read.push(ns);
                if let Ok(d) = &got {
                    user_bytes += d.len() as u64;
                }
                verify(&mut spans, Some(&mut phase), &mut tally, *id, got.as_deref(), *expect);
            }
            BoardOp::Update { id, data } => {
                let (res, ns) = spans.time(Kind::Update, || p.update(*id, data));
                mutate.push(ns);
                user_bytes += data.len() as u64;
                tally.check(res.is_ok(), || format!("update {id}: {:?}", res.as_ref().err()));
            }
            BoardOp::Delete { id } => {
                let (res, ns) = spans.time(Kind::Delete, || p.delete(*id));
                mutate.push(ns);
                tally.check(res.is_ok(), || format!("delete {id}: {:?}", res.as_ref().err()));
            }
        }
        if (i + 1) % PUMP_EVERY == 0 {
            let p = &mut set.primary;
            spans
                .time(Kind::Pump, || p.pump(PUMP_INTERVAL_S, PUMP_MAX))
                .0
                .map_err(|e| format!("pump: {e}"))?;
            let (tick, ns) = spans.time(Kind::Tick, || maint.tick(p));
            bg.ticks.push(ns);
            bg.compact_reclaimed_bytes +=
                tick.map_err(|e| format!("maintenance tick: {e}"))?.compact.bytes_reclaimed;
            spans.time(Kind::Sync, || set.sync()).0.map_err(|e| format!("replica sync: {e}"))?;
        }
    }
    spans.time(Kind::Flush, || set.flush_all()).0.map_err(|e| format!("flush: {e}"))?;
    spans.time(Kind::Sync, || set.sync()).0.map_err(|e| format!("replica sync: {e}"))?;
    let phase_ns = phase.elapsed_ns();
    spans.set_phase(false);
    let covered_ns = spans.covered_ns() - covered0;
    let rss_mib = rss_mib() - rss0;
    let state = snap(&set.primary);
    bg.shipped_bytes = set.total_network_bytes();

    // The replica must hold exactly the primary's live records, each with
    // the content the trace last wrote.
    tally.stage = "replica agreement";
    let want: Vec<RecordId> = b.live.keys().copied().collect();
    let secondary = &set.secondaries[0];
    tally.check(set.primary.live_record_ids() == want, || "primary live-record set differs".into());
    tally.check(secondary.live_record_ids() == want, || "secondary live-record set differs".into());
    for (&id, &h) in &b.live {
        tally.stage = "replica agreement: primary";
        let got = set.primary.read(id);
        verify(&mut spans, None, &mut tally, id, got.as_deref(), Some(h));
        tally.stage = "replica agreement: secondary";
        let got = set.secondaries[0].read(id);
        verify(&mut spans, None, &mut tally, id, got.as_deref(), Some(h));
    }

    // Restart the primary from its files: link them aside, drop the set
    // (which removes its temporary directories), reopen. An update to a
    // record other records decode through is held in memory until that
    // record stops being a base, and a delete of such a record only marks
    // it, so a restart can bring back old content or a deleted post. Those
    // records are counted, not failed: the count is the measured size of
    // that gap, and it is zero once updates and deletes are durable.
    let dir = fresh_dir(work, "boards-reopen")?;
    link_tree(set.primary.store().dir(), &dir)?;
    drop(set);
    let (engine, reopen_ns) = spans.time(Kind::Reopen, || open_engine(&dir, cfg));
    let mut engine = engine?;
    let mut divergent = 0u64;
    for (&id, &h) in &b.live {
        let (same, _) = spans.time(Kind::Verify, || engine.read(id).is_ok_and(|d| digest(&d) == h));
        divergent += u64::from(!same);
    }
    let live_after = engine.live_record_ids();
    divergent += live_after.iter().filter(|id| !b.live.contains_key(id)).count() as u64;
    bg.restart_divergent = divergent;
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Pass {
        setup_s: open_ns as f64 / 1e9,
        ops: b.ops.len() as u64,
        phase_ns,
        covered_ns,
        rounds: Vec::new(),
        read_rounds: 1,
        insert,
        read,
        mutate,
        reopen_s: reopen_ns as f64 / 1e9,
        rss_mib,
        tally,
        spans,
        phase_read_bytes: state.io.read_bytes,
        phase_user_bytes: user_bytes,
        read_side: state.clone(),
        read_block_base: BlockCacheStats::default(),
        write: state,
        forward_bytes,
        background: bg,
    })
}
