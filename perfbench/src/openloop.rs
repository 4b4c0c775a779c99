//! An open-loop load generator: request `i` is due at `i / rate` seconds
//! after the start whether or not earlier requests have finished, and
//! its latency is measured from that due time, so a stall shows in every
//! request queued behind it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request of a step. Times are seconds since the step started.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub index: usize,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time; a failed request never meets a limit.
    pub fn latency(&self) -> f64 {
        if self.ok {
            self.done - self.due
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent the request.
    pub fn lag(&self) -> f64 {
        self.sent - self.due
    }
}

/// Send `count` requests at `rate` per second from `senders` threads.
/// `send(i)` performs request `i` and reports success. Samples come back
/// in index order.
pub fn run<F>(rate: f64, count: usize, senders: usize, send: F) -> Vec<Sample>
where
    F: Fn(usize) -> bool + Sync,
{
    assert!(
        rate > 0.0 && senders > 0,
        "need a positive rate and a sender"
    );
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(count));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..senders {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= count {
                        break;
                    }
                    let due = index as f64 / rate;
                    let wait = Duration::from_secs_f64(due).saturating_sub(start.elapsed());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    let sent = start.elapsed().as_secs_f64();
                    let ok = send(index);
                    let done = start.elapsed().as_secs_f64();
                    mine.push(Sample {
                        index,
                        due,
                        sent,
                        done,
                        ok,
                    });
                }
                samples.lock().expect("sample store poisoned").extend(mine);
            });
        }
    });
    let mut samples = samples.into_inner().expect("sample store poisoned");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Requests due but not yet finished, sampled at every due time: the
/// largest value, and the value when the last request fell due.
pub fn backlog(samples: &[Sample]) -> (usize, usize) {
    let mut done: Vec<f64> = samples.iter().map(|s| s.done).collect();
    done.sort_by(f64::total_cmp);
    let mut finished = 0;
    let mut max = 0;
    let mut last = 0;
    for (k, s) in samples.iter().enumerate() {
        while finished < done.len() && done[finished] <= s.due {
            finished += 1;
        }
        last = (k + 1).saturating_sub(finished);
        max = max.max(last);
    }
    (max, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_so_a_stall_delays_later_requests() {
        // One sender, a request every 2 ms, each taking ~0.1 ms except
        // request 10, which stalls for 60 ms.
        let samples = run(500.0, 40, 1, |i| {
            let pause = if i == 10 { 60.0 } else { 0.1 };
            std::thread::sleep(Duration::from_secs_f64(pause / 1e3));
            true
        });
        assert_eq!(samples.len(), 40);
        // Requests 11..=20 were due during the stall: each waited for it.
        for s in &samples[11..=20] {
            assert!(
                s.latency() > 0.035,
                "request {} due at {:.3}s finished {:.1} ms late",
                s.index,
                s.due,
                s.latency() * 1e3
            );
            assert!(
                s.lag() > 0.03,
                "the sender ran late for request {}",
                s.index
            );
            // Measured from the send instead, the same request looks fast.
            assert!(s.done - s.sent < 0.02);
        }
        assert!(
            samples[5].latency() < 0.02,
            "requests before the stall are unaffected"
        );
        let (max, _) = backlog(&samples);
        assert!(
            max >= 20,
            "the stall queued requests behind it, backlog {max}"
        );
    }

    #[test]
    fn a_failed_request_misses_every_limit() {
        let samples = run(1000.0, 4, 2, |i| i != 2);
        assert_eq!(samples[2].latency(), f64::INFINITY);
        assert!(samples[1].latency().is_finite());
    }

    #[test]
    fn backlog_grows_when_the_rate_exceeds_capacity() {
        // Capacity ~1000/s (1 ms each, one sender) against 4000/s offered.
        let samples = run(4000.0, 200, 1, |_| {
            std::thread::sleep(Duration::from_millis(1));
            true
        });
        let (max, last) = backlog(&samples);
        assert!(last > 100 && max >= last, "backlog {max}/{last}");
    }
}
