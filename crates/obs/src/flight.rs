//! The anomaly flight recorder: a bounded black box for post-incident
//! forensics.
//!
//! Metrics tell an operator *that* something went wrong; the flight
//! recorder preserves *what the node was doing in the seconds before*.
//! It keeps a bounded ring of recent observations — structured events,
//! sampled stage spans, and periodic registry snapshots — each stamped by
//! the shared [`Clock`] and pre-rendered as one JSON line. When an
//! anomaly trigger fires ([`FlightTrigger`]: an unhealable scrub
//! quarantine, overload onset, an open-time salvage skip, a replica
//! partition), the entire ring plus a trigger header is dumped
//! **atomically** (write to `<path>.tmp`, then rename) to the configured
//! path, so a crash mid-dump can never leave a torn black box.
//!
//! Wiring is automatic once attached: [`EventLog::set_flight_recorder`]
//! taps every recorded event (and fires the matching triggers), and
//! [`StageTracer::set_flight_recorder`] taps every sampled span. Under
//! the deterministic simulator the shared [`VirtualClock`] makes the dump
//! bytes a pure function of the seed.
//!
//! [`EventLog::set_flight_recorder`]: crate::event::EventLog::set_flight_recorder
//! [`StageTracer::set_flight_recorder`]: crate::span::StageTracer::set_flight_recorder
//! [`VirtualClock`]: dbdedup_util::time::VirtualClock

use crate::event::EventKind;
use dbdedup_util::sync::lock_or_recover;
use dbdedup_util::time::{system_clock, Clock};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The anomaly kinds that cause a ring dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightTrigger {
    /// Scrub found damage nothing could heal: data is at risk.
    UnhealableQuarantine,
    /// The replication-pressure overload gate was raised (onset only;
    /// the gate lowering is recovery, not an anomaly).
    OverloadOnset,
    /// Open-time salvage quarantined a damaged frame.
    SalvageSkipped,
    /// A replica became unreachable.
    ReplicaPartition,
}

impl FlightTrigger {
    /// Stable snake_case name for the dump header.
    pub fn name(self) -> &'static str {
        match self {
            FlightTrigger::UnhealableQuarantine => "unhealable_quarantine",
            FlightTrigger::OverloadOnset => "overload_onset",
            FlightTrigger::SalvageSkipped => "salvage_skipped",
            FlightTrigger::ReplicaPartition => "replica_partition",
        }
    }

    /// The trigger (if any) a structured event maps to — the taxonomy the
    /// event-log tap uses to fire dumps automatically.
    pub fn for_event(kind: &EventKind) -> Option<FlightTrigger> {
        match kind {
            EventKind::ScrubUnhealable { .. } => Some(FlightTrigger::UnhealableQuarantine),
            EventKind::OverloadGate { on: true } => Some(FlightTrigger::OverloadOnset),
            EventKind::SalvageSkipped { .. } => Some(FlightTrigger::SalvageSkipped),
            EventKind::Partition { .. } => Some(FlightTrigger::ReplicaPartition),
            _ => None,
        }
    }
}

/// Tuning for a [`FlightRecorder`].
#[derive(Debug, Clone, Default)]
pub struct FlightConfig {
    /// Ring capacity in entries (events + spans + snapshots combined).
    /// `0` selects the default of 256.
    pub capacity: usize,
    /// Where triggered dumps land. `None` keeps dumps in memory only
    /// (still retrievable via [`FlightRecorder::last_dump`] — the mode
    /// the deterministic simulator uses).
    pub dump_path: Option<PathBuf>,
}

struct Inner {
    ring: VecDeque<String>,
    clock: Arc<dyn Clock>,
    dump_path: Option<PathBuf>,
    /// Entries evicted by the ring bound.
    evicted: u64,
    /// Dumps triggered (whether or not a path was configured).
    dumps: u64,
    /// Triggered dumps that failed to reach disk.
    dump_errors: u64,
    /// The most recent dump, byte-for-byte.
    last_dump: Option<String>,
}

/// The bounded anomaly ring. See module docs.
pub struct FlightRecorder {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_or_recover(&self.inner);
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &inner.ring.len())
            .field("dumps", &inner.dumps)
            .field("dump_errors", &inner.dump_errors)
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder stamped by the system clock.
    pub fn new(cfg: FlightConfig) -> Self {
        Self::with_clock(cfg, system_clock())
    }

    /// Creates a recorder with an explicit clock (a shared
    /// [`VirtualClock`](dbdedup_util::time::VirtualClock) makes dumps
    /// deterministic).
    pub fn with_clock(cfg: FlightConfig, clock: Arc<dyn Clock>) -> Self {
        let capacity = if cfg.capacity == 0 { 256 } else { cfg.capacity };
        Self {
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(capacity.min(1024)),
                clock,
                dump_path: cfg.dump_path,
                evicted: 0,
                dumps: 0,
                dump_errors: 0,
                last_dump: None,
            }),
            capacity,
        }
    }

    /// A shared handle (the usual way to attach one recorder to an
    /// engine's event log and tracer at once).
    pub fn shared(cfg: FlightConfig) -> Arc<Self> {
        Arc::new(Self::new(cfg))
    }

    /// Swaps the timestamp clock.
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        lock_or_recover(&self.inner).clock = clock;
    }

    /// Points (or un-points) triggered dumps at a filesystem path.
    pub fn set_dump_path(&self, path: Option<PathBuf>) {
        lock_or_recover(&self.inner).dump_path = path;
    }

    fn push(&self, line: String) {
        let mut inner = lock_or_recover(&self.inner);
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.evicted += 1;
        }
        inner.ring.push_back(line);
    }

    fn now_ns(inner: &Inner) -> u64 {
        inner.clock.now().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Records one structured event (pre-rendered JSON object — the
    /// event's own `t_ns` timestamp travels inside `event_json`).
    pub fn record_event(&self, event_json: &str) {
        self.push(format!("{{\"t\":\"event\",\"data\":{event_json}}}"));
    }

    /// Records one sampled stage span.
    pub fn record_span(&self, stage: &str, ns: u64) {
        let at_ns = Self::now_ns(&lock_or_recover(&self.inner));
        self.push(format!(
            "{{\"t\":\"span\",\"at_ns\":{at_ns},\"stage\":\"{stage}\",\"ns\":{ns}}}"
        ));
    }

    /// Records one periodic registry snapshot (pre-rendered JSON object).
    pub fn record_snapshot(&self, registry_json: &str) {
        let at_ns = Self::now_ns(&lock_or_recover(&self.inner));
        self.push(format!("{{\"t\":\"snapshot\",\"at_ns\":{at_ns},\"metrics\":{registry_json}}}"));
    }

    /// Fires a trigger: renders the dump (header line, then the ring
    /// oldest-first), writes it atomically when a dump path is
    /// configured, retains it as [`last_dump`](Self::last_dump), and
    /// returns it. Disk failures are counted ([`dump_errors`]
    /// (Self::dump_errors)) rather than propagated — the black box must
    /// never take the node down with it.
    pub fn trigger(&self, t: FlightTrigger) -> String {
        let mut inner = lock_or_recover(&self.inner);
        let at_ns = Self::now_ns(&inner);
        inner.dumps += 1;
        let mut dump = format!(
            "{{\"t\":\"trigger\",\"at_ns\":{at_ns},\"kind\":\"{}\",\"dump\":{},\"evicted\":{}}}\n",
            t.name(),
            inner.dumps,
            inner.evicted
        );
        for line in &inner.ring {
            dump.push_str(line);
            dump.push('\n');
        }
        if let Some(path) = inner.dump_path.clone() {
            if write_atomic(&path, &dump).is_err() {
                inner.dump_errors += 1;
            }
        }
        inner.last_dump = Some(dump.clone());
        dump
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.inner).ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        lock_or_recover(&self.inner).ring.is_empty()
    }

    /// Entries evicted by the ring bound so far.
    pub fn evicted(&self) -> u64 {
        lock_or_recover(&self.inner).evicted
    }

    /// Dumps triggered so far.
    pub fn dumps(&self) -> u64 {
        lock_or_recover(&self.inner).dumps
    }

    /// Triggered dumps that failed to reach disk.
    pub fn dump_errors(&self) -> u64 {
        lock_or_recover(&self.inner).dump_errors
    }

    /// The most recent dump, byte-for-byte.
    pub fn last_dump(&self) -> Option<String> {
        lock_or_recover(&self.inner).last_dump.clone()
    }
}

/// Writes `contents` to `path` atomically: the bytes land in `path.tmp`
/// first and are renamed into place, so readers (and crash recovery) see
/// either the old dump or the complete new one, never a torn mix.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbdedup_util::time::VirtualClock;
    use std::time::Duration;

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let rec = FlightRecorder::new(FlightConfig { capacity: 2, dump_path: None });
        rec.record_span("chunk", 10);
        rec.record_span("chunk", 20);
        rec.record_span("chunk", 30);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.evicted(), 1);
        let dump = rec.trigger(FlightTrigger::OverloadOnset);
        assert!(dump.contains("\"ns\":20") && dump.contains("\"ns\":30"), "{dump}");
        assert!(!dump.contains("\"ns\":10"), "evicted entries must not resurface: {dump}");
    }

    #[test]
    fn dumps_are_deterministic_on_a_virtual_clock() {
        let mk = || {
            let clock = VirtualClock::shared();
            let rec = FlightRecorder::with_clock(FlightConfig::default(), clock.clone());
            clock.advance(Duration::from_millis(3));
            rec.record_span("sketch", 111);
            rec.record_event("{\"seq\":0,\"kind\":\"partition\",\"replica\":1}");
            clock.advance(Duration::from_millis(2));
            rec.record_snapshot("{\"events.len\":1}");
            rec.trigger(FlightTrigger::ReplicaPartition)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b, "same schedule must render byte-identical dumps");
        assert!(a.starts_with("{\"t\":\"trigger\""), "{a}");
        assert!(a.contains("\"kind\":\"replica_partition\""), "{a}");
    }

    #[test]
    fn triggered_dump_lands_atomically_on_disk() {
        let dir = std::env::temp_dir().join(format!("dbdedup-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.jsonl");
        let rec = FlightRecorder::new(FlightConfig { capacity: 8, dump_path: Some(path.clone()) });
        rec.record_event("{\"seq\":7,\"kind\":\"salvage_skipped\"}");
        let dump = rec.trigger(FlightTrigger::SalvageSkipped);
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, dump);
        assert_eq!(rec.dump_errors(), 0);
        assert!(!path.with_extension("tmp").exists(), "tmp file must be renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_failures_are_counted_not_propagated() {
        let rec = FlightRecorder::new(FlightConfig {
            capacity: 8,
            dump_path: Some(PathBuf::from("/nonexistent-dir/definitely/flight.jsonl")),
        });
        rec.record_span("chunk", 1);
        let dump = rec.trigger(FlightTrigger::UnhealableQuarantine);
        assert!(!dump.is_empty());
        assert_eq!(rec.dump_errors(), 1);
        assert_eq!(rec.dumps(), 1);
        assert_eq!(rec.last_dump(), Some(dump), "in-memory copy survives the disk failure");
    }

    #[test]
    fn event_trigger_taxonomy() {
        use crate::event::EventKind as K;
        assert_eq!(
            FlightTrigger::for_event(&K::ScrubUnhealable { id: 1 }),
            Some(FlightTrigger::UnhealableQuarantine)
        );
        assert_eq!(
            FlightTrigger::for_event(&K::OverloadGate { on: true }),
            Some(FlightTrigger::OverloadOnset)
        );
        assert_eq!(FlightTrigger::for_event(&K::OverloadGate { on: false }), None);
        assert_eq!(
            FlightTrigger::for_event(&K::SalvageSkipped { segment: 0, offset: 0, bytes: 1 }),
            Some(FlightTrigger::SalvageSkipped)
        );
        assert_eq!(
            FlightTrigger::for_event(&K::Partition { replica: 2 }),
            Some(FlightTrigger::ReplicaPartition)
        );
        assert_eq!(FlightTrigger::for_event(&K::Heal { replica: 2 }), None);
    }
}
