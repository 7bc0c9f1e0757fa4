//! Shared connection gauges: how many connections are open, the
//! high-water mark, and how many were forcibly evicted.
//!
//! One [`ConnectionCounters`] handle is shared between the reactor
//! (which updates it on accept/close/evict) and whoever reports stats
//! (the gateway's `stats` verb).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Inner {
    open: AtomicU64,
    peak: AtomicU64,
    evicted: AtomicU64,
    workers_alive: AtomicU64,
    worker_panics: AtomicU64,
}

/// Cheaply cloneable shared connection gauges; clones observe the same
/// counters.
#[derive(Debug, Clone, Default)]
pub struct ConnectionCounters {
    inner: Arc<Inner>,
}

/// A point-in-time snapshot of the connection gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Connections currently open.
    pub open: u64,
    /// The most connections ever simultaneously open.
    pub peak: u64,
    /// Connections the server force-closed (slow consumer, connection
    /// limit, shutdown) rather than the peer closing.
    pub evicted: u64,
    /// Request-pool worker threads currently alive — the liveness gauge
    /// a chaos harness watches to prove panics did not thin the pool.
    pub workers_alive: u64,
    /// Panics caught inside pool jobs; each one was isolated and the
    /// worker thread kept serving.
    pub worker_panics: u64,
}

impl ConnectionCounters {
    /// Records a connection opening; returns the new open count.
    pub fn on_open(&self) -> u64 {
        let open = self.inner.open.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.peak.fetch_max(open, Ordering::Relaxed);
        open
    }

    /// Records a peer-initiated close; returns the new open count.
    pub fn on_close(&self) -> u64 {
        dec_saturating(&self.inner.open)
    }

    /// Records a forced close. `was_open` distinguishes evicting a live
    /// connection (slow consumer, shutdown — decrements the gauge) from
    /// rejecting one at accept (connection limit — never counted open).
    /// Returns the new open count.
    pub fn on_evict(&self, was_open: bool) -> u64 {
        self.inner.evicted.fetch_add(1, Ordering::Relaxed);
        if was_open {
            dec_saturating(&self.inner.open)
        } else {
            self.inner.open.load(Ordering::Relaxed)
        }
    }

    /// Records a pool worker thread starting.
    pub fn on_worker_up(&self) {
        self.inner.workers_alive.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a pool worker thread exiting (clean shutdown or an
    /// escaped panic — either way it no longer serves).
    pub fn on_worker_down(&self) {
        dec_saturating(&self.inner.workers_alive);
    }

    /// Records a panic caught (and survived) inside a pool job.
    pub fn on_worker_panic(&self) {
        self.inner.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// The current gauge values.
    pub fn snapshot(&self) -> ConnectionStats {
        ConnectionStats {
            open: self.inner.open.load(Ordering::Relaxed),
            peak: self.inner.peak.load(Ordering::Relaxed),
            evicted: self.inner.evicted.load(Ordering::Relaxed),
            workers_alive: self.inner.workers_alive.load(Ordering::Relaxed),
            worker_panics: self.inner.worker_panics.load(Ordering::Relaxed),
        }
    }
}

/// Decrements without wrapping below zero (a close racing a snapshot
/// must never read as 2^64 open connections).
fn dec_saturating(gauge: &AtomicU64) -> u64 {
    let mut current = gauge.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_sub(1);
        match gauge.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return next,
            Err(seen) => current = seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_track_open_peak_and_evictions() {
        let c = ConnectionCounters::default();
        assert_eq!(c.on_open(), 1);
        assert_eq!(c.on_open(), 2);
        assert_eq!(c.on_close(), 1);
        assert_eq!(c.on_evict(true), 0);
        let rejected_at = c.on_evict(false); // limit rejection: gauge untouched
        assert_eq!(rejected_at, 0);
        c.on_worker_up();
        c.on_worker_up();
        c.on_worker_panic();
        c.on_worker_down();
        let snap = c.snapshot();
        assert_eq!(
            snap,
            ConnectionStats {
                open: 0,
                peak: 2,
                evicted: 2,
                workers_alive: 1,
                worker_panics: 1,
            }
        );
        // Saturation: a stray extra close cannot wrap the gauge.
        assert_eq!(c.on_close(), 0);
        assert_eq!(c.snapshot().open, 0);
    }
}
