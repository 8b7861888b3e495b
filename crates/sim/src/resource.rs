//! Shared hardware resources with finite bandwidth.
//!
//! Buses (Xpress memory bus, EISA I/O bus) and links are modelled as
//! *reservation timelines*: a transfer asks the resource for `bytes` of
//! service at time `t` and receives a `[start, end)` window that begins no
//! earlier than both `t` and the end of the previously granted window.
//! This captures FIFO arbitration and throughput limits — the two
//! properties the paper's bandwidth curves depend on — without simulating
//! individual bus cycles.

use parking_lot::Mutex;

use crate::time::{SimDur, SimTime};

/// A granted service window on a [`BandwidthResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service begins (>= request time).
    pub start: SimTime,
    /// When service completes; the resource is busy until then.
    pub end: SimTime,
}

/// A FIFO, work-conserving bandwidth resource.
///
/// Each reservation costs a fixed per-transaction overhead (arbitration,
/// setup) plus a per-byte cost derived from the configured bandwidth.
///
/// # Examples
///
/// ```
/// use shrimp_sim::{BandwidthResource, SimTime, SimDur};
/// // 33 MB/s EISA bus with 200 ns arbitration overhead.
/// let bus = BandwidthResource::new("eisa", 33.0e6, SimDur::from_ns(200.0));
/// let g1 = bus.reserve(SimTime::ZERO, 4096);
/// let g2 = bus.reserve(SimTime::ZERO, 4096);
/// assert_eq!(g2.start, g1.end); // FIFO: second transfer queues behind the first
/// ```
#[derive(Debug)]
pub struct BandwidthResource {
    name: &'static str,
    bytes_per_sec: f64,
    per_txn: SimDur,
    inner: Mutex<ResourceInner>,
}

#[derive(Debug, Default)]
struct ResourceInner {
    next_free: SimTime,
    busy_total: SimDur,
    transactions: u64,
    bytes: u64,
}

impl BandwidthResource {
    /// Create a resource with the given bandwidth (bytes/second) and fixed
    /// per-transaction overhead.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not positive.
    pub fn new(name: &'static str, bytes_per_sec: f64, per_txn: SimDur) -> BandwidthResource {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        BandwidthResource {
            name,
            bytes_per_sec,
            per_txn,
            inner: Mutex::new(ResourceInner::default()),
        }
    }

    /// The diagnostic name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Configured bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Reserve the resource for `bytes` starting no earlier than `at`.
    /// Returns the granted window; the caller is expected to advance its
    /// own clock to `grant.end` (or chain further events from it).
    pub fn reserve(&self, at: SimTime, bytes: usize) -> Grant {
        let service = self.per_txn + SimDur::per_bytes(bytes, self.bytes_per_sec);
        let mut inner = self.inner.lock();
        let start = at.max(inner.next_free);
        let end = start + service;
        inner.next_free = end;
        inner.busy_total += service;
        inner.transactions += 1;
        inner.bytes += bytes as u64;
        Grant { start, end }
    }

    /// Time at which the resource next becomes idle.
    pub fn next_free(&self) -> SimTime {
        self.inner.lock().next_free
    }

    /// Cumulative utilization statistics: (busy time, transactions, bytes).
    pub fn stats(&self) -> (SimDur, u64, u64) {
        let inner = self.inner.lock();
        (inner.busy_total, inner.transactions, inner.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_matches_bandwidth() {
        let r = BandwidthResource::new("r", 1e6, SimDur::ZERO); // 1 MB/s
        let g = r.reserve(SimTime::ZERO, 1000);
        assert_eq!(g.start, SimTime::ZERO);
        assert_eq!(g.end.as_us(), 1000.0); // 1000 B at 1 B/us
    }

    #[test]
    fn fifo_reservations_queue() {
        let r = BandwidthResource::new("r", 1e6, SimDur::from_us(1.0));
        let g1 = r.reserve(SimTime::ZERO, 100);
        let g2 = r.reserve(SimTime::ZERO, 100);
        assert_eq!(g1.end.as_us(), 101.0);
        assert_eq!(g2.start, g1.end);
        assert_eq!(g2.end.as_us(), 202.0);
        assert_eq!(r.next_free(), g2.end);
    }

    #[test]
    fn idle_gap_is_respected() {
        let r = BandwidthResource::new("r", 1e6, SimDur::ZERO);
        let g1 = r.reserve(SimTime::ZERO, 100);
        // Request far after the first completes: starts at request time.
        let late = SimTime::ZERO + SimDur::from_us(500.0);
        let g2 = r.reserve(late, 100);
        assert_eq!(g2.start, late);
        assert!(g1.end < g2.start);
    }

    #[test]
    fn stats_accumulate() {
        let r = BandwidthResource::new("r", 2e6, SimDur::ZERO);
        r.reserve(SimTime::ZERO, 200);
        r.reserve(SimTime::ZERO, 300);
        let (busy, txns, bytes) = r.stats();
        assert_eq!(txns, 2);
        assert_eq!(bytes, 500);
        assert_eq!(busy.as_us(), 250.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = BandwidthResource::new("bad", 0.0, SimDur::ZERO);
    }
}
