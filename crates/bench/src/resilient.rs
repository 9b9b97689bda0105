//! Resilient cell execution: panic isolation, wall-clock deadlines,
//! bounded retry with jittered backoff, and structured failure records.
//!
//! Each scenario cell is a pure closure over deterministic simulations,
//! so a failure is either a bug (panic), a configuration that simulates
//! far longer than budgeted (timeout via [`memsys::deadline`]), or a
//! genuine hang that never reaches a cooperative checkpoint (watchdog
//! trip). This module runs one cell under `catch_unwind`, optionally on
//! a watchdog-supervised thread, classifies the outcome, and retries a
//! bounded number of times with seeded exponential backoff before
//! quarantining the cell as a [`CellFailure`].

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Once;
use std::time::{Duration, Instant};

use memsys::deadline::{self, DeadlineExceeded};
use pva_core::SplitMix64;

use crate::engine::{CellData, Work};

/// How a cell failed, after all retries were exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The cell's closure panicked.
    Panic,
    /// The cell hit its wall-clock deadline at a cooperative
    /// checkpoint ([`memsys::deadline::checkpoint`]).
    Timeout,
    /// The cell blew through deadline *and* grace without reaching a
    /// checkpoint; its thread was abandoned by the watchdog.
    WatchdogTrip,
}

impl FailureKind {
    /// Stable identifier used in journals and run records.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::WatchdogTrip => "watchdog-trip",
        }
    }

    /// Parses the stable identifier back (journal replay).
    pub fn parse(s: &str) -> Option<FailureKind> {
        match s {
            "panic" => Some(FailureKind::Panic),
            "timeout" => Some(FailureKind::Timeout),
            "watchdog-trip" => Some(FailureKind::WatchdogTrip),
            _ => None,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A quarantined cell: identity, classification, and the (wall-clock
/// free, hence deterministic) message from its final attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Memory-system column of the failed cell.
    pub system: String,
    /// Grid label of the failed cell.
    pub label: String,
    /// Classification of the final attempt.
    pub kind: FailureKind,
    /// Total attempts made (1 + retries actually used).
    pub attempts: u32,
    /// Human-readable cause (panic payload / budget description).
    pub message: String,
}

/// Retry/deadline policy for cell execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPolicy {
    /// Wall-clock budget per attempt; `None` disables deadlines and the
    /// watchdog (cells still run under `catch_unwind`).
    pub cell_timeout: Option<Duration>,
    /// Retries after the first failed attempt.
    pub retries: u32,
    /// Extra wall-clock slack past the deadline before the watchdog
    /// abandons a cell thread that never reached a checkpoint.
    pub watchdog_grace: Duration,
    /// Base delay of the exponential backoff between attempts.
    pub backoff_base: Duration,
    /// Fail fast: abort the run on the first exhausted cell instead of
    /// quarantining it.
    pub strict: bool,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            cell_timeout: None,
            retries: 2,
            watchdog_grace: Duration::from_secs(2),
            backoff_base: Duration::from_millis(25),
            strict: false,
        }
    }
}

/// One attempt's failure, before retry accounting.
#[derive(Debug, Clone)]
pub struct AttemptError {
    /// Classification of this attempt.
    pub kind: FailureKind,
    /// Deterministic description of the cause.
    pub message: String,
}

std::thread_local! {
    // Armed while a cell closure runs so the process panic hook stays
    // quiet about unwinds we catch and classify ourselves.
    static SILENCE_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that suppresses the
/// default stderr backtrace for panics the resilient executor catches,
/// while leaving every other panic's reporting untouched.
pub fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SILENCE_PANICS.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
}

fn classify_payload(
    payload: Box<dyn std::any::Any + Send>,
    limit: Option<Duration>,
) -> AttemptError {
    if let Some(d) = payload.downcast_ref::<DeadlineExceeded>() {
        let budget = limit.unwrap_or(d.limit).as_secs_f64();
        return AttemptError {
            kind: FailureKind::Timeout,
            message: format!("cell exceeded its {budget:.3}s wall-clock budget"),
        };
    }
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    AttemptError {
        kind: FailureKind::Panic,
        message,
    }
}

fn run_silenced(work: Work) -> std::thread::Result<CellData> {
    struct Unsilence;
    impl Drop for Unsilence {
        fn drop(&mut self) {
            SILENCE_PANICS.with(|s| s.set(false));
        }
    }
    SILENCE_PANICS.with(|s| s.set(true));
    let _guard = Unsilence;
    panic::catch_unwind(AssertUnwindSafe(work))
}

/// Runs one attempt of a cell under isolation. With a timeout, the cell
/// runs on its own watchdog-supervised thread and a cooperative
/// deadline is armed ([`memsys::deadline::with_deadline`]); without
/// one, it runs inline under `catch_unwind` only. Returns the cell
/// data plus the attempt's wall time in nanoseconds.
pub fn attempt_once(work: Work, policy: &ExecPolicy) -> Result<(CellData, u64), AttemptError> {
    install_quiet_hook();
    let t0 = Instant::now();
    let Some(limit) = policy.cell_timeout else {
        return run_silenced(work)
            .map(|d| (d, t0.elapsed().as_nanos() as u64))
            .map_err(|p| classify_payload(p, None));
    };
    let (tx, rx) = mpsc::channel::<std::thread::Result<CellData>>();
    // A plain (non-scoped) thread: if it wedges, the watchdog abandons
    // it and the process can still make progress / exit.
    let handle = std::thread::Builder::new()
        .name("pva-bench-cell".into())
        .spawn(move || {
            let result = run_silenced(Box::new(move || deadline::with_deadline(limit, work)));
            // The watchdog may have given up on us; a dead receiver is fine.
            let _ = tx.send(result);
        })
        .expect("spawn cell thread");
    match rx.recv_timeout(limit + policy.watchdog_grace) {
        Ok(result) => {
            let _ = handle.join();
            result
                .map(|d| (d, t0.elapsed().as_nanos() as u64))
                .map_err(|p| classify_payload(p, Some(limit)))
        }
        Err(_) => {
            // Deliberately do NOT join: the cell never reached a
            // checkpoint, so the thread may never terminate.
            drop(handle);
            Err(AttemptError {
                kind: FailureKind::WatchdogTrip,
                message: format!(
                    "cell unresponsive past its {:.3}s budget plus {:.3}s grace; thread abandoned",
                    limit.as_secs_f64(),
                    policy.watchdog_grace.as_secs_f64()
                ),
            })
        }
    }
}

/// Seeded, jittered exponential backoff delay before retry `attempt`
/// (1-based: the delay taken before the first retry is `attempt == 1`).
/// The jitter is ±50%, seeded from the cell identity so reruns sleep
/// identically.
pub fn backoff_delay(policy: &ExecPolicy, scenario: &str, cell: usize, attempt: u32) -> Duration {
    let base = policy.backoff_base.as_nanos() as u64;
    let exp = base.saturating_mul(1u64 << attempt.min(16));
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in scenario.bytes() {
        seed = (seed ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    seed = (seed ^ cell as u64).wrapping_mul(0x100_0000_01b3);
    seed = (seed ^ attempt as u64).wrapping_mul(0x100_0000_01b3);
    let jitter = SplitMix64::new(seed).next_u64() % (exp.max(1));
    // exp/2 .. 3*exp/2
    Duration::from_nanos(exp / 2 + jitter)
}

/// Runs a cell to completion or quarantine: the first attempt consumes
/// `work`; each retry rebuilds the closure via `rebuild` (cell closures
/// are `FnOnce`). Returns the data + wall time of the successful
/// attempt, or the failure of the final attempt with the attempt count.
pub fn run_cell(
    work: Work,
    rebuild: impl Fn() -> Option<Work>,
    policy: &ExecPolicy,
    scenario: &str,
    cell: usize,
) -> Result<(CellData, u64), (AttemptError, u32)> {
    let mut attempt = 0u32;
    let mut current = Some(work);
    loop {
        attempt += 1;
        let w = match current.take() {
            Some(w) => w,
            // The scenario no longer produces this cell index (cannot
            // happen for a deterministic build, but fail structurally
            // rather than panic if it ever does).
            None => {
                return Err((
                    AttemptError {
                        kind: FailureKind::Panic,
                        message: format!(
                            "cell {cell} vanished from scenario '{scenario}' on retry"
                        ),
                    },
                    attempt,
                ))
            }
        };
        match attempt_once(w, policy) {
            Ok(done) => return Ok(done),
            Err(e) => {
                if attempt > policy.retries {
                    return Err((e, attempt));
                }
                std::thread::sleep(backoff_delay(policy, scenario, cell, attempt));
                current = rebuild();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(policy_timeout: Option<Duration>) -> ExecPolicy {
        ExecPolicy {
            cell_timeout: policy_timeout,
            retries: 2,
            watchdog_grace: Duration::from_millis(200),
            backoff_base: Duration::from_millis(1),
            strict: false,
        }
    }

    #[test]
    fn success_passes_data_through() {
        let (d, wall) = attempt_once(
            Box::new(|| CellData::cycles(7, 3)),
            &quick(Some(Duration::from_secs(5))),
        )
        .expect("succeeds");
        assert_eq!((d.cycles, d.bytes), (7, 3));
        assert!(wall > 0);
    }

    #[test]
    fn panic_is_classified_with_payload() {
        let err = attempt_once(Box::new(|| panic!("boom {}", 42)), &quick(None)).unwrap_err();
        assert_eq!(err.kind, FailureKind::Panic);
        assert_eq!(err.message, "boom 42");
    }

    #[test]
    fn cooperative_timeout_is_classified() {
        let err = attempt_once(
            Box::new(|| {
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_secs(10) {
                    deadline::checkpoint();
                    std::thread::sleep(Duration::from_millis(1));
                }
                CellData::default()
            }),
            &quick(Some(Duration::from_millis(20))),
        )
        .unwrap_err();
        assert_eq!(err.kind, FailureKind::Timeout);
        assert!(err.message.contains("wall-clock budget"), "{}", err.message);
    }

    #[test]
    fn hard_hang_trips_the_watchdog() {
        let err = attempt_once(
            // Never checkpoints: sleeps straight through budget + grace.
            Box::new(|| {
                std::thread::sleep(Duration::from_millis(600));
                CellData::default()
            }),
            &quick(Some(Duration::from_millis(20))),
        )
        .unwrap_err();
        assert_eq!(err.kind, FailureKind::WatchdogTrip);
    }

    #[test]
    fn retry_recovers_from_transient_panics() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static TRIES: AtomicU32 = AtomicU32::new(0);
        TRIES.store(0, Ordering::SeqCst);
        let mk = || -> Work {
            Box::new(|| {
                if TRIES.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient");
                }
                CellData::cycles(1, 1)
            })
        };
        let (d, _) = run_cell(mk(), || Some(mk()), &quick(None), "t", 0).expect("third try lands");
        assert_eq!(d.cycles, 1);
        assert_eq!(TRIES.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn exhausted_retries_quarantine_with_attempt_count() {
        let mk = || -> Work { Box::new(|| panic!("always")) };
        let (err, attempts) =
            run_cell(mk(), || Some(mk()), &quick(None), "t", 1).expect_err("always fails");
        assert_eq!(err.kind, FailureKind::Panic);
        assert_eq!(attempts, 3); // 1 + 2 retries
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let p = ExecPolicy::default();
        let d1 = backoff_delay(&p, "scen", 4, 1);
        assert_eq!(d1, backoff_delay(&p, "scen", 4, 1));
        // Jitter is bounded: attempt k sits in [base*2^k / 2, base*2^k * 1.5].
        for k in 1..=4u32 {
            let d = backoff_delay(&p, "scen", 4, k);
            let exp = p.backoff_base.as_nanos() as u64 * (1 << k);
            let d = d.as_nanos() as u64;
            assert!(
                d >= exp / 2 && d <= exp + exp / 2,
                "attempt {k}: {d} vs {exp}"
            );
        }
    }

    #[test]
    fn failure_kind_identifiers_round_trip() {
        for k in [
            FailureKind::Panic,
            FailureKind::Timeout,
            FailureKind::WatchdogTrip,
        ] {
            assert_eq!(FailureKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(FailureKind::parse("nope"), None);
    }
}
