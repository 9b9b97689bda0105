//! Resilient cell execution: panic isolation, a wall-clock timeout,
//! and structured failure records.
//!
//! Each scenario cell is a pure closure over deterministic simulations,
//! so running a failed cell again would replay the same failure: every
//! cell runs exactly once. A failure is a bug (panic), a cell that
//! outlives its wall-clock budget (timeout), or a cell thread the OS
//! refused to start (spawn). This module runs one cell under
//! `catch_unwind`, optionally on a watchdog-supervised thread, and
//! classifies the outcome; the engine quarantines a failed cell as a
//! [`CellFailure`].

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Once;
use std::time::{Duration, Instant};

use crate::engine::{CellData, Work};
use crate::json::Value;

/// How a cell failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The cell's closure panicked.
    Panic,
    /// The cell was still running when its wall-clock budget ran out;
    /// the watchdog abandoned its thread.
    Timeout,
    /// The OS refused the thread the cell was to run on.
    Spawn,
}

impl FailureKind {
    /// Stable identifier used in journals and run records.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::Spawn => "spawn",
        }
    }

    /// Parses the stable identifier back (journal replay).
    pub fn parse(s: &str) -> Option<FailureKind> {
        match s {
            "panic" => Some(FailureKind::Panic),
            "timeout" => Some(FailureKind::Timeout),
            "spawn" => Some(FailureKind::Spawn),
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
/// free, hence deterministic) message of its failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Memory-system column of the failed cell.
    pub system: String,
    /// Grid label of the failed cell.
    pub label: String,
    /// Classification of the failure.
    pub kind: FailureKind,
    /// Human-readable cause (panic payload / budget description).
    pub message: String,
}

impl CellFailure {
    /// The failure's fields as records and journals write them.
    pub(crate) fn json_fields(&self) -> Vec<(String, Value)> {
        vec![
            ("system".into(), Value::Str(self.system.clone())),
            ("label".into(), Value::Str(self.label.clone())),
            ("kind".into(), Value::Str(self.kind.as_str().into())),
            ("message".into(), Value::Str(self.message.clone())),
        ]
    }

    /// Parses the fields [`CellFailure::json_fields`] writes.
    pub(crate) fn from_json(v: &Value) -> Result<CellFailure, String> {
        let kind = v.str_field("kind")?;
        Ok(CellFailure {
            system: v.str_field("system")?,
            label: v.str_field("label")?,
            kind: FailureKind::parse(&kind)
                .ok_or_else(|| format!("unknown failure kind '{kind}'"))?,
            message: v.str_field("message")?,
        })
    }
}

/// Execution policy for cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Wall-clock budget per cell; `None` disables the watchdog (cells
    /// still run under `catch_unwind`).
    pub cell_timeout: Option<Duration>,
    /// Fail fast: abort the run on the first failed cell instead of
    /// quarantining it.
    pub strict: bool,
}

/// A cell's failure, before the engine attaches its identity.
#[derive(Debug, Clone)]
pub struct AttemptError {
    /// Classification of the failure.
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

fn classify_payload(payload: Box<dyn std::any::Any + Send>) -> AttemptError {
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

/// Runs a cell once under isolation. With a timeout, the cell runs on
/// its own thread and a watchdog waits at most the budget for its
/// result; without one, it runs inline under `catch_unwind` only.
/// Returns the cell data plus its wall time in nanoseconds.
pub fn attempt_once(work: Work, policy: &ExecPolicy) -> Result<(CellData, u64), AttemptError> {
    install_quiet_hook();
    let t0 = Instant::now();
    let result = match policy.cell_timeout {
        None => run_silenced(work),
        Some(limit) => {
            let (tx, rx) = mpsc::channel::<std::thread::Result<CellData>>();
            // A plain (non-scoped) thread: if it wedges, the watchdog
            // abandons it and the process can still make progress / exit.
            let spawned = std::thread::Builder::new()
                .name("pva-bench-cell".into())
                .spawn(move || {
                    // The watchdog may have given up on us; a dead
                    // receiver is fine.
                    let _ = tx.send(run_silenced(work));
                });
            let handle = spawned.map_err(|e| AttemptError {
                kind: FailureKind::Spawn,
                message: format!("cannot start the cell thread: {e}"),
            })?;
            match rx.recv_timeout(limit) {
                Ok(result) => {
                    let _ = handle.join();
                    result
                }
                Err(_) => {
                    // Deliberately do NOT join: the thread may never
                    // terminate.
                    drop(handle);
                    return Err(AttemptError {
                        kind: FailureKind::Timeout,
                        message: format!(
                            "cell exceeded its {:.3}s wall-clock budget; thread abandoned",
                            limit.as_secs_f64()
                        ),
                    });
                }
            }
        }
    };
    result
        .map(|d| (d, t0.elapsed().as_nanos() as u64))
        .map_err(classify_payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_timeout(limit: Option<Duration>) -> ExecPolicy {
        ExecPolicy {
            cell_timeout: limit,
            strict: false,
        }
    }

    #[test]
    fn success_passes_data_through() {
        let (d, wall) = attempt_once(
            Box::new(|| CellData::cycles(7, 3)),
            &with_timeout(Some(Duration::from_secs(5))),
        )
        .expect("succeeds");
        assert_eq!((d.cycles, d.bytes), (7, 3));
        assert!(wall > 0);
    }

    #[test]
    fn panic_is_classified_with_payload() {
        let err =
            attempt_once(Box::new(|| panic!("boom {}", 42)), &with_timeout(None)).unwrap_err();
        assert_eq!(err.kind, FailureKind::Panic);
        assert_eq!(err.message, "boom 42");
    }

    #[test]
    fn hard_hang_trips_the_watchdog() {
        let err = attempt_once(
            // Sleeps straight through its budget.
            Box::new(|| {
                std::thread::sleep(Duration::from_millis(600));
                CellData::default()
            }),
            &with_timeout(Some(Duration::from_millis(20))),
        )
        .unwrap_err();
        assert_eq!(err.kind, FailureKind::Timeout);
        assert!(err.message.contains("wall-clock budget"), "{}", err.message);
    }

    #[test]
    fn failure_kind_identifiers_round_trip() {
        for k in [FailureKind::Panic, FailureKind::Timeout, FailureKind::Spawn] {
            assert_eq!(FailureKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(FailureKind::parse("nope"), None);
    }
}
