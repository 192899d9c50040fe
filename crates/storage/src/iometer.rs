//! The I/O activity meter: dbDedup's idleness signal (§3.3.2).
//!
//! The paper uses the device's I/O queue length to decide when the system
//! is "relatively idle" and writebacks can be flushed without contending
//! with client traffic. This meter models that: submitted operations join a
//! queue that drains at a configured rate; the write-back path polls
//! [`IoMeter::is_idle`]. Time advances explicitly ([`IoMeter::tick`]) so
//! tests and simulations are deterministic.

/// A point-in-time view of the modeled device's pressure, exported to the
/// operator surface (the health model classifies I/O pressure from the
/// queue depth relative to the idleness threshold).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoPressure {
    /// Current modeled queue length (operations).
    pub queue_depth: f64,
    /// The configured idleness threshold (operations).
    pub idle_threshold: f64,
    /// Fraction of metered time the device has been idle, in `[0, 1]`.
    pub idle_fraction: f64,
}

impl IoPressure {
    /// Whether the device is currently idle enough for background work.
    pub fn is_idle(&self) -> bool {
        self.queue_depth <= self.idle_threshold
    }

    /// Queue depth as a multiple of the idleness threshold — the
    /// saturation signal the health model thresholds on. A zero
    /// threshold reports the raw queue depth.
    pub fn saturation(&self) -> f64 {
        if self.idle_threshold > 0.0 {
            self.queue_depth / self.idle_threshold
        } else {
            self.queue_depth
        }
    }
}

/// A drain-rate queue model of device I/O.
#[derive(Debug, Clone)]
pub struct IoMeter {
    queue: f64,
    drain_per_sec: f64,
    idle_threshold: f64,
    /// Cumulative metered time and the portion of it spent above the
    /// idleness threshold — the externally visible idle-fraction gauge.
    total_secs: f64,
    busy_secs: f64,
}

impl IoMeter {
    /// Creates a meter draining `drain_per_sec` operations per second and
    /// reporting idle when the queue is below `idle_threshold` operations.
    pub fn new(drain_per_sec: f64, idle_threshold: f64) -> Self {
        assert!(drain_per_sec > 0.0 && idle_threshold >= 0.0);
        Self { queue: 0.0, drain_per_sec, idle_threshold, total_secs: 0.0, busy_secs: 0.0 }
    }

    /// A profile approximating the paper's HDD testbed: ~200 IOPS drain,
    /// idle below 4 queued ops.
    pub fn hdd_profile() -> Self {
        Self::new(200.0, 4.0)
    }

    /// Submits `ops` I/O operations to the queue.
    pub fn submit(&mut self, ops: u64) {
        self.queue += ops as f64;
    }

    /// Advances simulated time by `seconds`, draining the queue.
    pub fn tick(&mut self, seconds: f64) {
        assert!(seconds >= 0.0);
        // The stretch of this interval the queue stays above the idleness
        // threshold counts as busy time for the idle-fraction gauge.
        if self.queue > self.idle_threshold {
            let to_idle = (self.queue - self.idle_threshold) / self.drain_per_sec;
            self.busy_secs += to_idle.min(seconds);
        }
        self.total_secs += seconds;
        self.queue = (self.queue - seconds * self.drain_per_sec).max(0.0);
    }

    /// Current modeled queue length.
    pub fn queue_len(&self) -> f64 {
        self.queue
    }

    /// Whether the device is idle enough for background writebacks.
    pub fn is_idle(&self) -> bool {
        self.queue <= self.idle_threshold
    }

    /// Fraction of metered time the device has been idle (below the
    /// threshold), in `[0, 1]`. A meter that has seen no time yet reports
    /// fully idle.
    pub fn idle_fraction(&self) -> f64 {
        if self.total_secs <= 0.0 {
            1.0
        } else {
            (1.0 - self.busy_secs / self.total_secs).clamp(0.0, 1.0)
        }
    }

    /// The pressure view the operator surface exports.
    pub fn pressure(&self) -> IoPressure {
        IoPressure {
            queue_depth: self.queue,
            idle_threshold: self.idle_threshold,
            idle_fraction: self.idle_fraction(),
        }
    }
}

impl Default for IoMeter {
    fn default() -> Self {
        Self::hdd_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_idle() {
        let m = IoMeter::new(100.0, 2.0);
        assert!(m.is_idle());
        assert_eq!(m.queue_len(), 0.0);
    }

    #[test]
    fn burst_makes_busy_drain_makes_idle() {
        let mut m = IoMeter::new(100.0, 2.0);
        m.submit(50);
        assert!(!m.is_idle());
        m.tick(0.3); // drains 30
        assert!(!m.is_idle());
        m.tick(0.2); // drains to 0
        assert!(m.is_idle());
    }

    #[test]
    fn queue_never_negative() {
        let mut m = IoMeter::new(1000.0, 1.0);
        m.submit(1);
        m.tick(10.0);
        assert_eq!(m.queue_len(), 0.0);
    }

    #[test]
    fn threshold_inclusive() {
        let mut m = IoMeter::new(100.0, 5.0);
        m.submit(5);
        assert!(m.is_idle(), "exactly at threshold counts as idle");
        m.submit(1);
        assert!(!m.is_idle());
    }

    #[test]
    fn idle_fraction_tracks_busy_time() {
        let mut m = IoMeter::new(100.0, 0.0);
        assert_eq!(m.idle_fraction(), 1.0, "no metered time yet means idle");
        // 100 ops at 100 ops/s: busy for exactly 1 s of the 4 s metered.
        m.submit(100);
        m.tick(4.0);
        assert!((m.idle_fraction() - 0.75).abs() < 1e-9, "{}", m.idle_fraction());
        // Another 4 idle seconds: 7/8 idle overall.
        m.tick(4.0);
        assert!((m.idle_fraction() - 0.875).abs() < 1e-9, "{}", m.idle_fraction());
    }

    #[test]
    fn idle_fraction_saturated_queue_is_all_busy() {
        let mut m = IoMeter::new(10.0, 1.0);
        m.submit(1000);
        m.tick(2.0); // drains 20 of 1000: busy the whole interval
        assert!((m.idle_fraction() - 0.0).abs() < 1e-9);
    }
}
