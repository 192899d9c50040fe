//! Deterministic fault injection for crash/corruption testing.
//!
//! A [`FaultPlan`] scripts what goes wrong and when, keyed by the store's
//! *write-operation index* (every physical segment write — entry frames
//! and segment headers alike — increments the counter). A [`FaultInjector`]
//! executes the plan: it can tear a write short, flip a bit, fail with an
//! `io::Error`, or simulate a crash after which every subsequent write is
//! silently swallowed. Plans are plain data built from a seed, so a failing
//! test reproduces from its seed alone.
//!
//! The injector sits at the single choke-point through which the record
//! store (and the replication transport) push bytes, which keeps the
//! simulated failure surface identical to the real one: whatever the
//! kernel could have done to a `write(2)` mid-crash, the plan can do.

use dbdedup_util::dist::SplitMix64;
use dbdedup_util::hash::fx::FxHashMap;
use dbdedup_util::sync::lock_or_recover;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One scripted failure, attached to a specific write-op index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Only the first `keep` bytes of the write reach the file (torn
    /// write, as a crash mid-`write(2)` produces).
    ShortWrite {
        /// Bytes that survive.
        keep: u32,
    },
    /// Flip bit `bit` of the byte at `pos` (both reduced modulo the
    /// write's length) — silent media corruption.
    BitFlip {
        /// Byte position (mod write length).
        pos: u64,
        /// Bit index 0–7.
        bit: u8,
    },
    /// The write fails with `io::ErrorKind::Other` and nothing reaches
    /// the file — a transient I/O error the caller sees.
    IoError,
    /// Simulated crash: this write and every later one are silently
    /// dropped (the process keeps running but the "disk" is frozen).
    Crash,
}

/// A scripted schedule of faults, keyed by write-op index (0-based).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: FxHashMap<u64, FaultKind>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at write-op `op`, replacing any previous fault
    /// there.
    pub fn fault_at(mut self, op: u64, kind: FaultKind) -> Self {
        self.faults.insert(op, kind);
        self
    }

    /// Schedules a crash at write-op `op`: that write and all later ones
    /// are silently dropped.
    pub fn crash_at_write(self, op: u64) -> Self {
        self.fault_at(op, FaultKind::Crash)
    }

    /// Schedules `count` random bit flips over the first `op_range`
    /// write-ops, drawn deterministically from `seed`.
    pub fn seeded_bit_flips(mut self, seed: u64, op_range: u64, count: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..count {
            let op = rng.next_below(op_range.max(1));
            let pos = rng.next_u64();
            let bit = (rng.next_u64() % 8) as u8;
            self.faults.insert(op, FaultKind::BitFlip { pos, bit });
        }
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// What the injector did to a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The (possibly bit-flipped) buffer should be written in full.
    Proceed,
    /// Write only the first `n` bytes, then treat the file as crashed.
    Truncated(usize),
    /// Write nothing; pretend success (post-crash silence).
    Dropped,
}

/// Executes a [`FaultPlan`] against a stream of writes.
///
/// Thread-safe; shared via `Arc` between a store and a test harness so the
/// test can observe how far the write stream got.
#[derive(Debug)]
pub struct FaultInjector {
    plan: Mutex<FaultPlan>,
    next_op: AtomicU64,
    crashed: AtomicBool,
    injected: AtomicU64,
}

impl FaultInjector {
    /// Creates an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan: Mutex::new(plan),
            next_op: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            injected: AtomicU64::new(0),
        }
    }

    /// Applies the plan to one write. May mutate `buf` (bit flips), and
    /// returns how much of it should reach the file — or an error the
    /// caller must surface.
    pub fn on_write(&self, buf: &mut [u8]) -> std::io::Result<WriteOutcome> {
        let op = self.next_op.fetch_add(1, Ordering::SeqCst);
        if self.crashed.load(Ordering::SeqCst) {
            return Ok(WriteOutcome::Dropped);
        }
        let fault = lock_or_recover(&self.plan).faults.get(&op).copied();
        match fault {
            None => Ok(WriteOutcome::Proceed),
            Some(FaultKind::BitFlip { pos, bit }) => {
                self.injected.fetch_add(1, Ordering::SeqCst);
                if !buf.is_empty() {
                    let at = (pos % buf.len() as u64) as usize;
                    buf[at] ^= 1 << (bit % 8);
                }
                Ok(WriteOutcome::Proceed)
            }
            Some(FaultKind::ShortWrite { keep }) => {
                self.injected.fetch_add(1, Ordering::SeqCst);
                // A torn write is a crash signature: freeze the disk after.
                self.crashed.store(true, Ordering::SeqCst);
                Ok(WriteOutcome::Truncated((keep as usize).min(buf.len())))
            }
            Some(FaultKind::IoError) => {
                self.injected.fetch_add(1, Ordering::SeqCst);
                Err(std::io::Error::other("injected I/O fault"))
            }
            Some(FaultKind::Crash) => {
                self.injected.fetch_add(1, Ordering::SeqCst);
                self.crashed.store(true, Ordering::SeqCst);
                Ok(WriteOutcome::Dropped)
            }
        }
    }

    /// Write-ops seen so far.
    pub fn writes_seen(&self) -> u64 {
        self.next_op.load(Ordering::SeqCst)
    }

    /// Faults actually triggered so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Whether the simulated disk has crashed (all writes now dropped).
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Clears the crashed state: writes flow again. On a transport
    /// injector this models a network partition healing — the frames
    /// swallowed while crashed stay lost (the replica re-converges via
    /// oplog-cursor catch-up), but new traffic gets through.
    pub fn heal(&self) {
        self.crashed.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_passes_everything_through() {
        let inj = FaultInjector::new(FaultPlan::new());
        let mut buf = vec![1u8, 2, 3];
        for _ in 0..10 {
            assert_eq!(inj.on_write(&mut buf).unwrap(), WriteOutcome::Proceed);
        }
        assert_eq!(buf, vec![1, 2, 3]);
        assert_eq!(inj.writes_seen(), 10);
        assert_eq!(inj.faults_injected(), 0);
    }

    #[test]
    fn bit_flip_mutates_exactly_one_bit() {
        let plan = FaultPlan::new().fault_at(1, FaultKind::BitFlip { pos: 2, bit: 3 });
        let inj = FaultInjector::new(plan);
        let mut a = vec![0u8; 4];
        inj.on_write(&mut a).unwrap();
        assert_eq!(a, vec![0; 4], "op 0 untouched");
        inj.on_write(&mut a).unwrap();
        assert_eq!(a, vec![0, 0, 1 << 3, 0]);
    }

    #[test]
    fn crash_swallows_all_later_writes() {
        let inj = FaultInjector::new(FaultPlan::new().crash_at_write(1));
        let mut b = vec![9u8];
        assert_eq!(inj.on_write(&mut b).unwrap(), WriteOutcome::Proceed);
        assert_eq!(inj.on_write(&mut b).unwrap(), WriteOutcome::Dropped);
        assert_eq!(inj.on_write(&mut b).unwrap(), WriteOutcome::Dropped);
        assert!(inj.crashed());
    }

    #[test]
    fn short_write_truncates_then_crashes() {
        let plan = FaultPlan::new().fault_at(0, FaultKind::ShortWrite { keep: 5 });
        let inj = FaultInjector::new(plan);
        let mut b = vec![0u8; 64];
        assert_eq!(inj.on_write(&mut b).unwrap(), WriteOutcome::Truncated(5));
        assert_eq!(inj.on_write(&mut b).unwrap(), WriteOutcome::Dropped);
    }

    #[test]
    fn heal_restores_write_flow_after_crash() {
        let inj = FaultInjector::new(FaultPlan::new().crash_at_write(0));
        let mut b = vec![1u8];
        assert_eq!(inj.on_write(&mut b).unwrap(), WriteOutcome::Dropped);
        assert_eq!(inj.on_write(&mut b).unwrap(), WriteOutcome::Dropped);
        inj.heal();
        assert!(!inj.crashed());
        assert_eq!(inj.on_write(&mut b).unwrap(), WriteOutcome::Proceed);
    }

    #[test]
    fn io_error_is_surfaced() {
        let inj = FaultInjector::new(FaultPlan::new().fault_at(0, FaultKind::IoError));
        assert!(inj.on_write(&mut [0u8; 1]).is_err());
        // Not a crash: the next write proceeds (transient error).
        assert_eq!(inj.on_write(&mut [0u8; 1]).unwrap(), WriteOutcome::Proceed);
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::new().seeded_bit_flips(42, 100, 5);
        let b = FaultPlan::new().seeded_bit_flips(42, 100, 5);
        assert_eq!(a.len(), b.len());
        let inj_a = FaultInjector::new(a);
        let inj_b = FaultInjector::new(b);
        let mut buf_a = vec![0u8; 32];
        let mut buf_b = vec![0u8; 32];
        for _ in 0..100 {
            let _ = inj_a.on_write(&mut buf_a);
            let _ = inj_b.on_write(&mut buf_b);
        }
        assert_eq!(buf_a, buf_b);
        assert_eq!(inj_a.faults_injected(), inj_b.faults_injected());
    }
}
