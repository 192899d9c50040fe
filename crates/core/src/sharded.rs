//! Horizontal sharding: N independent engines behind one handle.
//!
//! dbDedup's observation that duplication rarely crosses database
//! boundaries (§3.4.1) makes sharding by database essentially free:
//! records of one logical database always land on the same shard, so each
//! shard's feature index sees exactly the candidates it would have seen in
//! a single-engine deployment, while unrelated databases ingest in
//! parallel on separate cores.

use crate::config::EngineConfig;
use crate::engine::{DedupEngine, EngineError, InsertOutcome};
use crate::metrics::MetricsSnapshot;
use bytes::Bytes;
use dbdedup_util::hash::fx::FxHasher;
use dbdedup_util::ids::RecordId;
use dbdedup_util::sync::lock_or_recover;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// A fixed set of engine shards, routed by database name.
///
/// Record ids must be unique across the deployment (they are routed by the
/// owning database, and reads consult the id→shard map maintained at
/// insert time).
#[derive(Clone)]
pub struct ShardedEngine {
    shards: Arc<Vec<Mutex<DedupEngine>>>,
    /// id → shard routing for reads/updates/deletes.
    placement: Arc<Mutex<dbdedup_util::hash::fx::FxHashMap<RecordId, u32>>>,
}

impl ShardedEngine {
    /// Creates `n` shards with identical configuration over temp stores.
    pub fn open_temp(config: EngineConfig, n: usize) -> Result<Self, EngineError> {
        assert!(n >= 1, "need at least one shard");
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            shards.push(Mutex::new(DedupEngine::open_temp(config.clone())?));
        }
        Ok(Self { shards: Arc::new(shards), placement: Arc::new(Mutex::new(Default::default())) })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning database `db` (stable for the lifetime of
    /// the deployment; the parallel ingest pipeline keys its commit lanes
    /// off this).
    pub fn route(&self, db: &str) -> usize {
        let mut h = FxHasher::default();
        db.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Inserts into the shard owning `db`.
    pub fn insert(
        &self,
        db: &str,
        id: RecordId,
        data: &[u8],
    ) -> Result<InsertOutcome, EngineError> {
        self.insert_prepared(db, id, data, None)
    }

    /// Inserts with optionally pre-computed feature extraction (see
    /// [`DedupEngine::insert_prepared`]).
    pub fn insert_prepared(
        &self,
        db: &str,
        id: RecordId,
        data: &[u8],
        prepared: Option<crate::pipeline::PreparedInsert>,
    ) -> Result<InsertOutcome, EngineError> {
        let k = self.route(db);
        let out = lock_or_recover(&self.shards[k]).insert_prepared(db, id, data, prepared)?;
        lock_or_recover(&self.placement).insert(id, k as u32);
        Ok(out)
    }

    /// A preparer performing the shards' exact feature extraction (all
    /// shards share one configuration).
    pub fn preparer(&self) -> crate::pipeline::InsertPreparer {
        lock_or_recover(&self.shards[0]).preparer()
    }

    /// The shared shard configuration.
    pub fn config(&self) -> EngineConfig {
        lock_or_recover(&self.shards[0]).config().clone()
    }

    /// Raises/clears the replication-overload gate on every shard.
    pub fn set_replication_pressure(&self, on: bool) {
        for s in self.shards.iter() {
            lock_or_recover(s).set_replication_pressure(on);
        }
    }

    /// Runs `f` against shard `k` under its lock (tests, diagnostics, and
    /// the differential harness's byte-level comparisons).
    pub fn with_shard<R>(&self, k: usize, f: impl FnOnce(&mut DedupEngine) -> R) -> R {
        f(&mut lock_or_recover(&self.shards[k]))
    }

    fn shard_of_id(&self, id: RecordId) -> Result<usize, EngineError> {
        lock_or_recover(&self.placement)
            .get(&id)
            .map(|&k| k as usize)
            .ok_or(EngineError::NotFound(id))
    }

    /// Reads wherever `id` lives.
    pub fn read(&self, id: RecordId) -> Result<Bytes, EngineError> {
        let k = self.shard_of_id(id)?;
        lock_or_recover(&self.shards[k]).read(id)
    }

    /// Updates wherever `id` lives.
    pub fn update(&self, id: RecordId, data: &[u8]) -> Result<(), EngineError> {
        let k = self.shard_of_id(id)?;
        lock_or_recover(&self.shards[k]).update(id, data)
    }

    /// Deletes wherever `id` lives.
    pub fn delete(&self, id: RecordId) -> Result<(), EngineError> {
        let k = self.shard_of_id(id)?;
        lock_or_recover(&self.shards[k]).delete(id)?;
        lock_or_recover(&self.placement).remove(&id);
        Ok(())
    }

    /// Flushes every shard's write-back cache.
    pub fn flush_all_writebacks(&self) -> Result<usize, EngineError> {
        let mut n = 0;
        for s in self.shards.iter() {
            n += lock_or_recover(s).flush_all_writebacks()?;
        }
        Ok(n)
    }

    /// Aggregated metrics across shards.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snaps: Vec<MetricsSnapshot> =
            self.shards.iter().map(|s| lock_or_recover(s).metrics()).collect();
        let mut total = snaps.pop().expect("at least one shard");
        for s in snaps {
            total.original_bytes += s.original_bytes;
            total.stored_bytes += s.stored_bytes;
            total.stored_uncompressed_bytes += s.stored_uncompressed_bytes;
            total.network_bytes += s.network_bytes;
            total.index_bytes += s.index_bytes;
            total.deduped_inserts += s.deduped_inserts;
            total.unique_inserts += s.unique_inserts;
            total.unique_no_candidate += s.unique_no_candidate;
            total.unique_source_unavailable += s.unique_source_unavailable;
            total.unique_below_benefit += s.unique_below_benefit;
            total.bypassed_size += s.bypassed_size;
            total.bypassed_governor += s.bypassed_governor;
            total.gc_spliced += s.gc_spliced;
            total.max_read_retrievals = total.max_read_retrievals.max(s.max_read_retrievals);
            total.stages.merge(&s.stages);
            total.io_queue_depth += s.io_queue_depth;
            // Deployment-wide idleness is the mean across shard devices.
            total.io_idle_fraction += s.io_idle_fraction;
            total.events_logged += s.events_logged;
            total.events_dropped += s.events_dropped;
            total.events_ring_len += s.events_ring_len;
            total.maint_gc_backlog += s.maint_gc_backlog;
            total.maint_pinned_dead_bytes += s.maint_pinned_dead_bytes;
            total.maint_dead_bytes += s.maint_dead_bytes;
            total.maint_reclaimable_dead_bytes += s.maint_reclaimable_dead_bytes;
            total.maint_reencoded += s.maint_reencoded;
            total.maint_removed += s.maint_removed;
            total.maint_retired += s.maint_retired;
            total.maint_rededup_rewritten += s.maint_rededup_rewritten;
            total.maint_rededup_kept_raw += s.maint_rededup_kept_raw;
            total.maint_rededup_skipped += s.maint_rededup_skipped;
            total.maint_degraded_backlog += s.maint_degraded_backlog;
            total.compact.merge(s.compact);
            total.index_tier.merge(s.index_tier);
        }
        total.io_idle_fraction /= self.shards.len() as f64;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(n: usize) -> ShardedEngine {
        let mut cfg = EngineConfig::default();
        cfg.min_benefit_bytes = 16;
        ShardedEngine::open_temp(cfg, n).expect("shards")
    }

    fn doc(tag: u64, version: u64) -> Vec<u8> {
        let base: String = (0..400).map(|i| format!("db{tag} sentence {i} body. ")).collect();
        base.replacen("sentence 9 ", &format!("edited v{version} "), 1).into_bytes()
    }

    #[test]
    fn routing_is_stable_per_database() {
        let e = sharded(4);
        for i in 0..20u64 {
            e.insert("alpha", RecordId(i), &doc(1, i)).unwrap();
        }
        let m = e.metrics();
        // All same-db records hit one shard, so dedup works across them.
        assert!(m.deduped_inserts >= 15, "deduped {}", m.deduped_inserts);
    }

    #[test]
    fn parallel_ingest_across_databases() {
        let e = sharded(4);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let e = e.clone();
            handles.push(std::thread::spawn(move || {
                for k in 0..25u64 {
                    let id = RecordId(t * 1000 + k);
                    e.insert(&format!("db{t}"), id, &doc(t, k)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        e.flush_all_writebacks().unwrap();
        for t in 0..4u64 {
            for k in 0..25u64 {
                assert_eq!(&e.read(RecordId(t * 1000 + k)).unwrap()[..], &doc(t, k)[..]);
            }
        }
        assert_eq!(e.metrics().deduped_inserts + e.metrics().unique_inserts, 100);
    }

    #[test]
    fn read_of_unknown_id_errors() {
        let e = sharded(2);
        assert!(matches!(e.read(RecordId(404)), Err(EngineError::NotFound(_))));
    }

    #[test]
    fn delete_removes_placement() {
        let e = sharded(2);
        e.insert("db", RecordId(1), &doc(0, 0)).unwrap();
        e.delete(RecordId(1)).unwrap();
        assert!(e.read(RecordId(1)).is_err());
        assert!(e.delete(RecordId(1)).is_err(), "double delete surfaces NotFound");
    }
}
