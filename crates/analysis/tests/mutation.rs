//! Mutation tests for the analysis passes: each test plants one seeded
//! defect of the kind the corresponding checker exists to catch, and
//! asserts the checker reports it. A checker that stays green on its
//! own mutation is dead weight, so every new pass earns its CI slot
//! here.

use pva_analysis::{lint_target, protocol_check, wake_check, Rule, DESIGNATED};
use sdram::{BankEvent, BankState, CmdClass, DeadlineModel, Outcome, SdramConfig, TRANSITIONS};

/// A mutated copy of the shipped transition table with the outcome for
/// `(state, event)` replaced.
fn mutate_table(
    state: BankState,
    event: BankEvent,
    outcome: Outcome,
) -> Vec<(BankState, BankEvent, Outcome)> {
    let mut table: Vec<_> = TRANSITIONS.to_vec();
    let entry = table
        .iter_mut()
        .find(|(s, e, _)| *s == state && *e == event)
        .expect("mutated entry exists in the shipped table");
    entry.2 = outcome;
    table
}

#[test]
fn protocol_checker_is_clean_on_the_pristine_table() {
    let cfg = SdramConfig::default();
    let model = DeadlineModel::of(&cfg);
    let findings = protocol_check::check_preset("pristine", &cfg, TRANSITIONS, &model);
    assert_eq!(findings, Vec::<String>::new());
}

#[test]
fn corrupted_fsm_entry_is_caught() {
    // Seeded defect: legalize READ on a closed bank. The dense LUT
    // (compiled from the pristine table) and the live device both still
    // refuse it, so the checker must flag the disagreement.
    let table = mutate_table(
        BankState::Idle,
        BankEvent::Command(CmdClass::Read),
        Outcome::Next(BankState::Active),
    );
    let cfg = SdramConfig::default();
    let model = DeadlineModel::of(&cfg);
    let findings = protocol_check::check_preset("mutated-fsm", &cfg, &table, &model);
    assert!(
        !findings.is_empty(),
        "a legalized READ-while-closed must be reported"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.contains("dense lookup disagrees") || f.contains("device refuses")),
        "expected a dense-LUT or model-vs-device disagreement, got: {findings:?}"
    );
}

#[test]
fn corrupted_timing_deadline_is_caught() {
    // Seeded defect: the declarative model believes tRCD is one cycle
    // longer than the device enforces. The first ACTIVATE desynchronizes
    // the tRCD residuals and the checker's alignment pass must say so.
    let cfg = SdramConfig::default();
    let mut model = DeadlineModel::of(&cfg);
    model.t_rcd += 1;
    let findings = protocol_check::check_preset("mutated-deadline", &cfg, TRANSITIONS, &model);
    assert!(
        findings.iter().any(|f| f.contains("tRCD")),
        "a skewed tRCD deadline must be reported, got: {findings:?}"
    );
}

#[test]
fn dropped_wake_arm_is_caught() {
    // Seeded defect: compute_wake forgets the FHC deadline of the FIFO
    // head. `addr_ready_at` also decides injection in the tick path, so
    // only its occurrence inside compute_wake is renamed; the trigger
    // survives, so the static pass must report the uncovered trigger.
    let root = pva_analysis::find_workspace_root().expect("workspace root");
    let pristine = std::fs::read_to_string(root.join(wake_check::CONTROLLER_SRC))
        .expect("controller source readable");
    assert_eq!(
        wake_check::check_source(&pristine),
        Vec::<String>::new(),
        "the pristine controller must pass before mutating it"
    );
    let mutated = in_compute_wake(&pristine, "addr_ready_at");
    let findings = wake_check::check_source(&mutated);
    assert!(
        findings
            .iter()
            .any(|f| f.contains("`addr_ready_at` has no wake source")),
        "a dropped FHC-deadline wake arm must be reported, got: {findings:?}"
    );
}

/// `source` with every occurrence of `ident` inside `fn compute_wake`
/// renamed out of existence (panics if there is none to rename).
fn in_compute_wake(source: &str, ident: &str) -> String {
    let at = source.find("fn compute_wake").expect("compute_wake exists");
    let (head, tail) = source.split_at(at);
    let end = tail.find("\n    }\n").expect("compute_wake ends");
    let (body, rest) = tail.split_at(end);
    assert!(body.contains(ident), "the wake source must exist to delete");
    format!(
        "{head}{}{rest}",
        body.replace(ident, &format!("{ident}_gone"))
    )
}

#[test]
fn dropped_access_wake_arm_is_caught() {
    // Seeded defect: compute_wake forgets the access arm, the wake for
    // a context whose row is open but whose CAS waits on tRCD or a tCCD
    // gate. `access_ready_at` also gates candidates in the scheduling
    // path, so only its occurrence inside compute_wake is renamed. The
    // triggers it covers (`open_row`, and the generation-aware policy's
    // `should_defer_activate` and `last_cas_group`) survive, so the
    // static pass must report all three.
    let root = pva_analysis::find_workspace_root().expect("workspace root");
    let pristine = std::fs::read_to_string(root.join(wake_check::CONTROLLER_SRC))
        .expect("controller source readable");
    assert_eq!(
        wake_check::check_source(&pristine),
        Vec::<String>::new(),
        "the pristine controller must pass before mutating it"
    );
    let mutated = in_compute_wake(&pristine, "access_ready_at");
    let findings = wake_check::check_source(&mutated);
    for trigger in ["open_row", "should_defer_activate", "last_cas_group"] {
        assert!(
            findings
                .iter()
                .any(|f| f.contains(&format!("`{trigger}`")) && f.contains("`access_ready_at`")),
            "a dropped access wake arm must be reported for `{trigger}`, got: {findings:?}"
        );
    }
}

#[test]
fn missing_designated_file_is_a_finding() {
    // The lint driver must not silently skip a designated file that has
    // gone missing (renamed without updating DESIGNATED, or a broken
    // checkout): it reports the unreadable target as a finding.
    let findings = lint_target(
        std::path::Path::new("/nonexistent-pva-root"),
        &DESIGNATED[0],
    );
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, Rule::Unreadable);
    assert_eq!(findings[0].file, DESIGNATED[0].path);
}
