//! Load generation on absolute schedules.
//!
//! The open loop issues request `i` at `start + i / rate` whether or not
//! earlier requests have returned, and times each one from that due time:
//! when the service stalls, the requests due during the stall are issued
//! late and their wait is charged to them. (`vita_serve::run_fixed` and
//! `run_ramp` time each query from when it was issued, which hides that
//! wait; that is why the benchmark has its own load generator.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One request of an open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct Sample<V> {
    /// How late the generator issued the request.
    pub lag: Duration,
    /// From the due time to the answer.
    pub latency: Duration,
    /// The judge's verdict on the answer.
    pub verdict: V,
}

/// Sleep most of the way to `due`, then spin the rest: sleeping alone
/// overshoots by the scheduler's wake-up latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN + Duration::from_micros(100) {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Issue `rate` requests per second for `duration`. `issue(i)` sends
/// request `i` and returns its answer; `judge(i, answer)` runs after the
/// answer is timed and judges it.
pub fn open_loop<R, V>(
    rate: f64,
    duration: Duration,
    mut issue: impl FnMut(u64) -> R,
    mut judge: impl FnMut(u64, R) -> V,
) -> Vec<Sample<V>> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let total = (duration.as_secs_f64() * rate).floor() as u64;
    let start = Instant::now();
    let mut samples = Vec::with_capacity(total as usize);
    for i in 0..total {
        let due = start + interval.mul_f64(i as f64);
        wait_until(due);
        let sent = Instant::now();
        let answer = issue(i);
        let done = Instant::now();
        let verdict = judge(i, answer);
        samples.push(Sample {
            lag: sent - due,
            latency: done - due,
            verdict,
        });
    }
    samples
}

/// Run `step(k)` once per `period` on an absolute schedule until `stop`
/// is set; a late step starts at once. Returns the steps run and the
/// largest start lag.
pub fn paced(period: Duration, stop: &AtomicBool, mut step: impl FnMut(u64)) -> (u64, Duration) {
    let start = Instant::now();
    let mut max_lag = Duration::ZERO;
    let mut k = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = start + period.mul_f64(k as f64);
        while !stop.load(Ordering::Relaxed) && Instant::now() < due {
            std::thread::sleep((due - Instant::now()).min(Duration::from_millis(2)));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        max_lag = max_lag.max(Instant::now().saturating_duration_since(due));
        step(k);
        k += 1;
    }
    (k, max_lag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_due_during_it() {
        // 1000 requests/s; request 10 stalls the service for 50 ms, so
        // requests 11..~60 fall due while it is stuck.
        const STALL: Duration = Duration::from_millis(50);
        let samples = open_loop(
            1000.0,
            Duration::from_millis(200),
            |i| {
                if i == 10 {
                    std::thread::sleep(STALL);
                }
            },
            |_, ()| (),
        );
        assert_eq!(samples.len(), 200, "late requests are sent, not skipped");
        assert!(samples[10].latency >= STALL);
        // Request 11 was due 1 ms after request 10, so it waited ~49 ms.
        assert!(
            samples[11].latency >= Duration::from_millis(48),
            "{:?}",
            samples[11]
        );
        assert!(samples[11].lag >= Duration::from_millis(48));
        // Request 30 was due 20 ms into the stall: ~30 ms of waiting.
        assert!(
            samples[30].latency >= Duration::from_millis(29),
            "{:?}",
            samples[30]
        );
        // Timed from issue instead, request 30 would look instantaneous.
        assert!(samples[30].latency - samples[30].lag < Duration::from_millis(5));
    }

    #[test]
    fn judge_verdicts_are_kept() {
        let samples = open_loop(
            2000.0,
            Duration::from_millis(10),
            |i| i,
            |_, answer| answer % 2 == 0,
        );
        assert_eq!(samples.len(), 20);
        assert_eq!(samples.iter().filter(|s| s.verdict).count(), 10);
    }

    #[test]
    fn paced_steps_follow_the_schedule() {
        let stop = AtomicBool::new(false);
        let mut seen = Vec::new();
        let (steps, _) = paced(Duration::from_millis(2), &stop, |k| {
            seen.push(k);
            if k == 4 {
                stop.store(true, Ordering::Relaxed);
            }
        });
        assert_eq!(steps, 5);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }
}
