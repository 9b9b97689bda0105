//! Wake-hint soundness, static half.
//!
//! The event-driven fast path of `pva-sim` sleeps each bank controller
//! until the hint published by `BankController::compute_wake`. The
//! contract is that the hint never lies *late*: every state field that
//! can make a sleeping controller actionable must contribute a wake
//! source, or the scheduler jumps over real work and the fast path
//! silently desynchronizes from the reference stepper.
//!
//! This pass mines `bank_controller.rs` with the same tokenizer the
//! synthesizability lint uses: it extracts the `compute_wake` body,
//! collects the identifiers it consults (the *wake sources*), and
//! checks them against [`WAKE_RULES`] — the declared mapping from each
//! actionable-state trigger in the tick path to the wake source that
//! must cover it. A trigger whose source disappears from
//! `compute_wake` is a finding; so is a rule whose trigger no longer
//! exists anywhere outside `compute_wake` (a stale rule is a lie about
//! the code and must be retired, not carried).
//!
//! The dynamic half is the `debug_assertions` oracle in
//! `pva-sim`'s event loop (`PvaUnit::assert_wake_sound`), which
//! brute-force replays every skipped window and is exercised by the
//! fig-7 equivalence sweep.

use std::collections::HashSet;
use std::path::Path;

use crate::lint::{strip, tokenize, Tok};

/// The bank-controller source this pass mines, relative to the
/// workspace root.
pub const CONTROLLER_SRC: &str = "crates/pva-sim/src/bank_controller.rs";

/// One soundness obligation: when `trigger` participates in the tick
/// path's actionable-state decisions, `source` must appear in
/// `compute_wake`.
#[derive(Debug, Clone, Copy)]
pub struct WakeRule {
    /// Identifier that marks a way the controller can become
    /// actionable (consulted by `tick`/`schedule`/`service_refresh`).
    pub trigger: &'static str,
    /// Identifier `compute_wake` must consult to cover the trigger.
    pub source: &'static str,
    /// Why the source covers the trigger.
    pub why: &'static str,
}

/// The declared trigger → wake-source coverage map.
pub const WAKE_RULES: &[WakeRule] = &[
    WakeRule {
        trigger: "injectable_at",
        source: "injectable_at",
        why: "a FIFO head becomes consumable no earlier than its injectable_at cycle",
    },
    WakeRule {
        trigger: "addr_ready_at",
        source: "addr_ready_at",
        why: "a non-power-of-two FIFO head becomes consumable no earlier than its FHC deadline",
    },
    WakeRule {
        trigger: "turnaround_until",
        source: "turnaround_until",
        why: "no command issues during a bus turnaround; every scheduler wake defers to its end",
    },
    WakeRule {
        trigger: "needs_turnaround",
        source: "needs_turnaround",
        why: "a row hit that reverses the bus can start its turnaround without waiting on a timer",
    },
    WakeRule {
        trigger: "not_before",
        source: "not_before",
        why: "a pending retry re-enters a vector context when its backoff expires",
    },
    WakeRule {
        trigger: "refresh_due",
        source: "next_refresh_wake",
        why: "a due periodic refresh preempts normal work and must not oversleep",
    },
    WakeRule {
        trigger: "open_row",
        source: "activate_ready_at",
        why: "a context blocked on a closed bank becomes actionable when tRP/tRC expire",
    },
    WakeRule {
        trigger: "open_row",
        source: "access_ready_at",
        why: "a context blocked on its opening row becomes actionable when tRCD expires",
    },
    WakeRule {
        trigger: "open_row",
        source: "precharge_ready_at",
        why: "a context blocked behind another row becomes actionable when tRAS/tWR expire",
    },
    WakeRule {
        trigger: "should_defer_activate",
        source: "access_ready_at",
        why: "a deferral needs a timing-legal CAS, which issues the same tick, so a deferring \
              tick is work; the CAS that ends a deferral is woken by its own access arm",
    },
    WakeRule {
        trigger: "last_cas_group",
        source: "access_ready_at",
        why: "the group preference only orders CAS candidates; each candidate's tCCD gate is \
              folded into its access_ready_at",
    },
];

/// Extracts the brace-balanced body of `fn <name>` from stripped
/// source, returning `(body, rest_without_body)`.
fn split_fn_body(stripped: &str, name: &str) -> Option<(String, String)> {
    let needle = format!("fn {name}");
    let at = stripped.find(&needle)?;
    let open = at + stripped[at..].find('{')?;
    let mut depth = 0i64;
    for (i, c) in stripped[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    let end = open + i + 1;
                    let body = stripped[open..end].to_string();
                    let mut rest = String::with_capacity(stripped.len() - body.len());
                    rest.push_str(&stripped[..open]);
                    rest.push_str(&stripped[end..]);
                    return Some((body, rest));
                }
            }
            _ => {}
        }
    }
    None
}

/// Every identifier in `text`, via the lint tokenizer.
fn idents(text: &str) -> HashSet<String> {
    let mut out = HashSet::new();
    for line in text.lines() {
        for tok in tokenize(line) {
            if let Tok::Ident(name) = tok {
                out.insert(name);
            }
        }
    }
    out
}

/// Checks the wake rules against raw bank-controller source.
pub fn check_source(source: &str) -> Vec<String> {
    let (stripped, _comments) = strip(source);
    let Some((wake_body, rest)) = split_fn_body(&stripped, "compute_wake") else {
        return vec![format!(
            "{CONTROLLER_SRC}: `fn compute_wake` not found — the wake-hint contract \
             has no implementation to check"
        )];
    };
    if split_fn_body(&stripped, "tick").is_none() {
        return vec![format!(
            "{CONTROLLER_SRC}: `fn tick` not found — no tick path to mine for triggers"
        )];
    }
    let sources = idents(&wake_body);
    // Triggers are searched outside compute_wake (tick and the helpers
    // it calls), so a rule keyed on an identifier compute_wake itself
    // uses is still validated against the real tick path.
    let triggers = idents(&rest);

    let mut findings = Vec::new();
    for rule in WAKE_RULES {
        let triggered = triggers.contains(rule.trigger);
        let covered = sources.contains(rule.source);
        if triggered && !covered {
            findings.push(format!(
                "{CONTROLLER_SRC}: actionable-state trigger `{}` has no wake source: \
                 compute_wake no longer consults `{}` ({})",
                rule.trigger, rule.source, rule.why
            ));
        }
        if !triggered {
            findings.push(format!(
                "{CONTROLLER_SRC}: stale wake rule: trigger `{}` no longer appears in \
                 the tick path — retire or update the rule",
                rule.trigger
            ));
        }
    }
    findings
}

/// Runs the pass over the real controller source under `root`.
pub fn check(root: &Path) -> Vec<String> {
    match std::fs::read_to_string(root.join(CONTROLLER_SRC)) {
        Ok(source) => check_source(&source),
        Err(e) => vec![format!("{CONTROLLER_SRC}: unreadable: {e}")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pristine() -> String {
        let root = crate::workspace_root();
        std::fs::read_to_string(root.join(CONTROLLER_SRC)).expect("controller source readable")
    }

    #[test]
    fn pristine_controller_passes() {
        assert_eq!(check_source(&pristine()), Vec::<String>::new());
    }

    #[test]
    fn missing_compute_wake_is_a_finding() {
        let findings = check_source("pub fn tick() {}\n");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("compute_wake"));
    }

    #[test]
    fn every_rule_is_load_bearing_on_the_pristine_source() {
        // Each rule's trigger must actually occur in today's tick path;
        // otherwise the rule is stale and the pass would say so.
        let (stripped, _) = strip(&pristine());
        let (_, rest) = split_fn_body(&stripped, "compute_wake").unwrap();
        let triggers = idents(&rest);
        for rule in WAKE_RULES {
            assert!(
                triggers.contains(rule.trigger),
                "stale rule: {}",
                rule.trigger
            );
        }
    }
}
