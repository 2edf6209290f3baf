//! Admission control: the in-flight permit gate, per-client token
//! buckets, and the `Retry-After` latency window.
//!
//! The design rule is *shed, don't queue*: a request that cannot get a
//! permit is answered 429 immediately. Queuing would hide overload
//! behind growing latency and unbounded memory; shedding keeps the
//! server's behavior flat — rejected requests cost microseconds, and
//! accepted requests see the same engine contention regardless of how
//! many clients are knocking.

use std::collections::HashMap;
use std::net::IpAddr;
use std::time::Instant;

use parj_sync::atomic::{AtomicUsize, Ordering};
use parj_sync::{Arc, LockLevel, OrderedMutex};

use parj_obs::ServerMetrics;

/// A bounded semaphore over query execution slots.
///
/// `try_acquire` never blocks — the caller sheds on `None`. The permit
/// is RAII: dropping it (normal return, error, or panic unwinding)
/// frees the slot and decrements the in-flight gauge.
#[derive(Debug)]
pub struct InflightGate {
    permits: usize,
    active: AtomicUsize,
}

impl InflightGate {
    /// A gate with `permits` slots (at least one).
    pub fn new(permits: usize) -> Self {
        InflightGate {
            permits: permits.max(1),
            active: AtomicUsize::new(0),
        }
    }

    /// Total slots.
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// Tries to take a slot; `None` means shed. The returned permit
    /// maintains the `parj_server_inflight` gauge.
    pub fn try_acquire(self: &Arc<Self>, metrics: &Arc<ServerMetrics>) -> Option<Permit> {
        // ordering: Relaxed — the permit count guards no other memory;
        // queries synchronize through the engine's own lock. The CAS
        // only needs atomicity of the counter itself.
        let acquired = self
            .active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.permits).then_some(n + 1)
            })
            .is_ok();
        if !acquired {
            return None;
        }
        metrics.permit_acquired();
        Some(Permit {
            gate: Arc::clone(self),
            metrics: Arc::clone(metrics),
        })
    }

    /// Slots currently held.
    pub fn active(&self) -> usize {
        // ordering: Relaxed — observer read; staleness is acceptable.
        self.active.load(Ordering::Relaxed)
    }
}

/// RAII permit from [`InflightGate::try_acquire`].
#[derive(Debug)]
pub struct Permit {
    gate: Arc<InflightGate>,
    metrics: Arc<ServerMetrics>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        // ordering: Relaxed — see InflightGate::try_acquire.
        self.gate.active.fetch_sub(1, Ordering::Relaxed);
        self.metrics.permit_released();
    }
}

/// Per-client request quota: a classic token bucket.
#[derive(Debug, Clone, Copy)]
pub struct Quota {
    /// Bucket capacity (requests that may burst at once).
    pub burst: u32,
    /// Refill rate, tokens per second.
    pub per_sec: f64,
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refreshed: Instant,
}

/// Token buckets keyed by peer IP.
///
/// The table is bounded: past [`QuotaTable::MAX_CLIENTS`] distinct
/// addresses, stale full buckets are evicted first and, failing that,
/// new clients are admitted unmetered — an attacker rotating source
/// addresses must not be able to grow server memory without bound.
#[derive(Debug)]
pub struct QuotaTable {
    quota: Quota,
    buckets: OrderedMutex<HashMap<IpAddr, Bucket>>,
}

impl QuotaTable {
    /// Bound on tracked client addresses.
    pub const MAX_CLIENTS: usize = 4096;

    /// An empty table enforcing `quota` per client.
    pub fn new(quota: Quota) -> Self {
        QuotaTable {
            quota,
            buckets: OrderedMutex::new(
                LockLevel::AdmissionQuota,
                "admission.quota_buckets",
                HashMap::new(),
            ),
        }
    }

    /// Takes one token from `ip`'s bucket; `false` means the client is
    /// over quota and the request must be rejected.
    pub fn try_take(&self, ip: IpAddr, now: Instant) -> bool {
        let burst = f64::from(self.quota.burst.max(1));
        let mut buckets = self.buckets.lock();
        if buckets.len() >= Self::MAX_CLIENTS && !buckets.contains_key(&ip) {
            // Evict buckets that have fully refilled — their owners are
            // idle and indistinguishable from new clients anyway.
            let per_sec = self.quota.per_sec;
            buckets.retain(|_, b| {
                let refilled =
                    b.tokens + now.saturating_duration_since(b.refreshed).as_secs_f64() * per_sec;
                refilled < burst
            });
            if buckets.len() >= Self::MAX_CLIENTS {
                // Table still full of active clients: admit unmetered
                // rather than hard-fail new clients on table pressure.
                return true;
            }
        }
        let bucket = buckets.entry(ip).or_insert(Bucket {
            tokens: burst,
            refreshed: now,
        });
        let elapsed = now
            .saturating_duration_since(bucket.refreshed)
            .as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.quota.per_sec).min(burst);
        bucket.refreshed = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// A moving window of recent accepted-query latencies, feeding the
/// `Retry-After` hint on shed responses: when the server is slow, tell
/// clients to back off longer.
#[derive(Debug)]
pub struct LatencyWindow {
    samples: OrderedMutex<Window>,
}

#[derive(Debug)]
struct Window {
    ring: Vec<u64>,
    next: usize,
    filled: usize,
}

/// Samples kept in the moving window.
const WINDOW: usize = 64;
/// `Retry-After` clamp bounds, seconds.
const RETRY_AFTER_MIN_SECS: u64 = 1;
/// Upper clamp bound, seconds.
const RETRY_AFTER_MAX_SECS: u64 = 30;

impl Default for LatencyWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyWindow {
    /// An empty window.
    pub fn new() -> Self {
        LatencyWindow {
            samples: OrderedMutex::new(
                LockLevel::AdmissionWindow,
                "admission.latency_window",
                Window {
                    ring: vec![0; WINDOW],
                    next: 0,
                    filled: 0,
                },
            ),
        }
    }

    /// Records one accepted query's wall time, microseconds.
    pub fn record(&self, micros: u64) {
        let mut w = self.samples.lock();
        let slot = w.next;
        w.ring[slot] = micros;
        w.next = (w.next + 1) % WINDOW;
        w.filled = (w.filled + 1).min(WINDOW);
    }

    /// Mean latency over the window, microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        let w = self.samples.lock();
        if w.filled == 0 {
            return 0;
        }
        let sum: u64 = w.ring[..w.filled].iter().sum();
        sum / w.filled as u64
    }

    /// The `Retry-After` hint in whole seconds: the window's mean
    /// latency rounded up, clamped to `1..=30`. An empty window (cold
    /// server) answers the minimum.
    pub fn retry_after_secs(&self) -> u64 {
        let mean = self.mean_micros();
        let secs = mean.div_ceil(1_000_000);
        secs.clamp(RETRY_AFTER_MIN_SECS, RETRY_AFTER_MAX_SECS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn gate_sheds_past_permits_and_releases_on_drop() {
        let metrics = Arc::new(ServerMetrics::new());
        let gate = Arc::new(InflightGate::new(2));
        let p1 = gate.try_acquire(&metrics).unwrap();
        let _p2 = gate.try_acquire(&metrics).unwrap();
        assert!(gate.try_acquire(&metrics).is_none());
        assert_eq!(gate.active(), 2);
        assert_eq!(metrics.inflight(), 2);
        drop(p1);
        assert_eq!(gate.active(), 1);
        assert_eq!(metrics.inflight(), 1);
        assert!(gate.try_acquire(&metrics).is_some());
    }

    #[test]
    fn zero_permits_clamps_to_one() {
        let metrics = Arc::new(ServerMetrics::new());
        let gate = Arc::new(InflightGate::new(0));
        assert_eq!(gate.permits(), 1);
        assert!(gate.try_acquire(&metrics).is_some());
    }

    #[test]
    fn token_bucket_limits_bursts_and_refills() {
        let table = QuotaTable::new(Quota {
            burst: 2,
            per_sec: 1.0,
        });
        let ip: IpAddr = "10.0.0.1".parse().unwrap();
        let t0 = Instant::now();
        assert!(table.try_take(ip, t0));
        assert!(table.try_take(ip, t0));
        assert!(!table.try_take(ip, t0), "burst exhausted");
        // One second later one token has refilled.
        let t1 = t0 + Duration::from_secs(1);
        assert!(table.try_take(ip, t1));
        assert!(!table.try_take(ip, t1));
        // A different client has its own bucket.
        let other: IpAddr = "10.0.0.2".parse().unwrap();
        assert!(table.try_take(other, t1));
    }

    #[test]
    fn retry_after_clamps_to_lower_bound() {
        let w = LatencyWindow::new();
        // Empty window: minimum.
        assert_eq!(w.retry_after_secs(), RETRY_AFTER_MIN_SECS);
        // Sub-second queries still answer at least 1s.
        for _ in 0..10 {
            w.record(5_000); // 5ms
        }
        assert_eq!(w.retry_after_secs(), RETRY_AFTER_MIN_SECS);
    }

    #[test]
    fn retry_after_clamps_to_upper_bound() {
        let w = LatencyWindow::new();
        for _ in 0..WINDOW {
            w.record(120_000_000); // 120s each
        }
        assert_eq!(w.retry_after_secs(), RETRY_AFTER_MAX_SECS);
    }

    #[test]
    fn retry_after_tracks_the_mean_between_bounds() {
        let w = LatencyWindow::new();
        for _ in 0..WINDOW {
            w.record(2_500_000); // 2.5s each
        }
        assert_eq!(w.mean_micros(), 2_500_000);
        // ceil(2.5s) = 3s, inside the clamp.
        assert_eq!(w.retry_after_secs(), 3);
        // The window is moving: flooding it with fast queries pulls the
        // hint back down to the floor.
        for _ in 0..WINDOW {
            w.record(1_000); // 1ms
        }
        assert_eq!(w.retry_after_secs(), RETRY_AFTER_MIN_SECS);
    }
}
