//! The experiment engine: declarative scenarios, a work-stealing
//! thread pool, and structured run records.
//!
//! A [`Scenario`] declares a grid of independent [`CellSpec`]s plus a
//! pure `render` function that turns the cell results into the exact
//! text the old per-figure binaries printed. The engine fans the cells
//! of one or many scenarios across worker threads (results are ordered
//! by cell index, so the output is identical at any `--jobs` value) and
//! assembles a [`RunRecord`] per scenario for the `BENCH_<name>.json`
//! side channel.
//!
//! Execution is resilient (see [`crate::resilient`]): each cell runs
//! once under `catch_unwind`, with an optional wall-clock timeout; a
//! failed cell is quarantined into the record's `failures` section
//! instead of aborting its siblings, and — when a journal path is
//! configured — every completion is checkpointed to a write-ahead JSONL
//! journal ([`crate::journal`]) so a killed run resumes where it left
//! off with identical final output.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};

use crate::journal::{self, Journal};
use crate::json::{self, Value};
use crate::resilient::{self, CellFailure, ExecPolicy, FailureKind};

/// Schema identifier stamped into every emitted record.
pub const SCHEMA: &str = "pva-bench-record-v2";

/// The measured output of one cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellData {
    /// Simulated cycles attributed to this cell (0 for analytic cells).
    pub cycles: u64,
    /// Bytes moved across the memory interface by this cell.
    pub bytes: u64,
    /// Scenario-specific numbers the `render` function needs beyond
    /// cycles/bytes (floats are stashed via `f64::to_bits`).
    pub aux: Vec<u64>,
    /// Pre-rendered text fragment, for monolithic scenarios whose
    /// render is the identity.
    pub text: String,
}

impl CellData {
    /// A cell that is just a cycle count plus bytes moved.
    pub fn cycles(cycles: u64, bytes: u64) -> Self {
        CellData {
            cycles,
            bytes,
            ..CellData::default()
        }
    }

    /// A cell with auxiliary values for the renderer.
    pub fn with_aux(cycles: u64, bytes: u64, aux: Vec<u64>) -> Self {
        CellData {
            cycles,
            bytes,
            aux,
            ..CellData::default()
        }
    }

    /// A monolithic cell carrying fully rendered text.
    pub fn text(cycles: u64, bytes: u64, text: String) -> Self {
        CellData {
            cycles,
            bytes,
            text,
            ..CellData::default()
        }
    }
}

/// The work closure of a cell.
pub type Work = Box<dyn FnOnce() -> CellData + Send>;

/// Produces a scenario's cell grid. It must return the same grid every
/// time: `--resume` matches journaled cells to it by index, system and
/// label.
pub type Build = Box<dyn Fn() -> Vec<CellSpec> + Send + Sync>;

/// Renders a scenario's cell results (in build order) into its report
/// text.
pub type Render = Box<dyn Fn(&[CellData]) -> String + Send + Sync>;

/// One independent unit of work in a scenario's grid.
pub struct CellSpec {
    /// Memory system (or configuration) the cell exercises.
    pub system: String,
    /// Grid coordinates, e.g. `"copy/s16"`.
    pub label: String,
    /// The computation.
    pub work: Work,
    /// Whether `system` and `label` identify the computation across
    /// every scenario of a batch: shared cells with the same pair must
    /// compute the same data, and the engine runs each pair once and
    /// gives the result to every scenario that lists it.
    pub shared: bool,
}

impl CellSpec {
    /// Builds a cell private to its scenario (set `shared` to share it).
    pub fn new(
        system: impl Into<String>,
        label: impl Into<String>,
        work: impl FnOnce() -> CellData + Send + 'static,
    ) -> Self {
        CellSpec {
            system: system.into(),
            label: label.into(),
            work: Box::new(work),
            shared: false,
        }
    }
}

/// A declarative experiment: a named grid of cells plus a renderer
/// that reproduces the legacy figure/table text byte-for-byte. `build`
/// and `render` are closures, so a scenario can carry its parameters
/// (e.g. the device preset `--device` selects) as plain values.
pub struct Scenario {
    /// Canonical name; also the golden/text/JSON file stem.
    pub name: &'static str,
    /// Short CLI alias (`pva-bench fig7`), or `""`.
    pub alias: &'static str,
    /// One-line description for `pva-bench list`.
    pub title: &'static str,
    /// Included in the `--smoke` subset?
    pub smoke: bool,
    /// Has a committed golden at `results/<name>.txt`?
    pub golden: bool,
    /// Produces the cell grid.
    pub build: Build,
    /// Renders the cell results (in build order) into the report text.
    pub render: Render,
}

/// One cell's row in a [`RunRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Memory system / configuration name.
    pub system: String,
    /// Grid coordinates.
    pub label: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Wall-clock nanoseconds spent computing the cell.
    pub wall_ns: u64,
}

/// The structured result of running one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Scenario name.
    pub scenario: String,
    /// Scenario title.
    pub title: String,
    /// Per-cell measurements, in grid order (quarantined cells appear
    /// zeroed; see `failures`).
    pub cells: Vec<CellRecord>,
    /// Sum of cell cycles.
    pub total_cycles: u64,
    /// Sum of cell bytes.
    pub total_bytes: u64,
    /// Sum of cell wall times (CPU-seconds of simulation, independent
    /// of the worker count).
    pub wall_ns: u64,
    /// Simulation throughput: `total_cycles / wall seconds`.
    pub sim_cycles_per_sec: f64,
    /// Scenario-specific derived figures (e.g. the throughput
    /// scenario's fast-path speedup), attached after the run; empty for
    /// most scenarios.
    pub metrics: Vec<(String, f64)>,
    /// Number of cells restored from a checkpoint journal rather than
    /// simulated in this process.
    pub resumed: u64,
    /// Cells quarantined after a failed run, in grid order.
    pub failures: Vec<CellFailure>,
}

impl RunRecord {
    /// Serializes the record as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let cells: Vec<Value> = self
            .cells
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("system".into(), Value::Str(c.system.clone())),
                    ("label".into(), Value::Str(c.label.clone())),
                    ("cycles".into(), Value::Num(c.cycles as f64)),
                    ("bytes".into(), Value::Num(c.bytes as f64)),
                    ("wall_ns".into(), Value::Num(c.wall_ns as f64)),
                ])
            })
            .collect();
        let failures: Vec<Value> = self
            .failures
            .iter()
            .map(|f| Value::Obj(f.json_fields()))
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str(self.schema.clone())),
            ("scenario".into(), Value::Str(self.scenario.clone())),
            ("title".into(), Value::Str(self.title.clone())),
            ("cells".into(), Value::Arr(cells)),
            ("total_cycles".into(), Value::Num(self.total_cycles as f64)),
            ("total_bytes".into(), Value::Num(self.total_bytes as f64)),
            ("wall_ns".into(), Value::Num(self.wall_ns as f64)),
            (
                "sim_cycles_per_sec".into(),
                Value::Num(self.sim_cycles_per_sec),
            ),
            (
                "metrics".into(),
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            ("resumed".into(), Value::Num(self.resumed as f64)),
            ("failures".into(), Value::Arr(failures)),
        ])
        .to_json()
    }

    /// Parses and schema-validates a record of the current [`SCHEMA`].
    pub fn from_json(text: &str) -> Result<RunRecord, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field '{k}'"));
        let u64_field = |val: &Value, k: &str| {
            val.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("field '{k}' is not an unsigned integer"))
        };
        let schema = v.str_field("schema")?;
        if schema != SCHEMA {
            return Err(format!("unknown schema '{schema}' (expected '{SCHEMA}')"));
        }
        let cells = field("cells")?
            .as_arr()
            .ok_or("field 'cells' is not an array")?
            .iter()
            .map(|c| {
                Ok(CellRecord {
                    system: c.str_field("system")?,
                    label: c.str_field("label")?,
                    cycles: u64_field(c, "cycles")?,
                    bytes: u64_field(c, "bytes")?,
                    wall_ns: u64_field(c, "wall_ns")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let failures = field("failures")?
            .as_arr()
            .ok_or("field 'failures' is not an array")?
            .iter()
            .map(CellFailure::from_json)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunRecord {
            schema,
            scenario: v.str_field("scenario")?,
            title: v.str_field("title")?,
            cells,
            total_cycles: u64_field(&v, "total_cycles")?,
            total_bytes: u64_field(&v, "total_bytes")?,
            wall_ns: u64_field(&v, "wall_ns")?,
            sim_cycles_per_sec: field("sim_cycles_per_sec")?
                .as_f64()
                .ok_or("field 'sim_cycles_per_sec' is not a number")?,
            metrics: match v.get("metrics") {
                None => Vec::new(),
                Some(Value::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, val)| {
                        val.as_f64()
                            .map(|f| (k.clone(), f))
                            .ok_or_else(|| format!("metric '{k}' is not a number"))
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                Some(_) => return Err("field 'metrics' is not an object".into()),
            },
            resumed: u64_field(&v, "resumed")?,
            failures,
        })
    }

    /// The record with every wall-clock-derived field zeroed: cell and
    /// total `wall_ns`, `sim_cycles_per_sec`, derived `metrics`, and
    /// the `resumed` count. Two runs of the same scenario — including a
    /// killed-and-resumed one — must compare equal under `canonical()`;
    /// everything left is simulation-derived and deterministic.
    pub fn canonical(&self) -> RunRecord {
        let mut r = self.clone();
        r.wall_ns = 0;
        r.sim_cycles_per_sec = 0.0;
        r.resumed = 0;
        r.metrics.clear();
        for c in &mut r.cells {
            c.wall_ns = 0;
        }
        r
    }
}

/// A completed scenario: rendered text, structured record, and the raw
/// cell data (for callers that post-process, e.g. the throughput gate).
#[derive(Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: &'static str,
    /// Whether a committed golden exists for the text.
    pub golden: bool,
    /// The exact text the legacy binary printed (or, when cells were
    /// quarantined, a deterministic failure summary).
    pub text: String,
    /// The structured record.
    pub record: RunRecord,
    /// Raw cell results, in grid order (quarantined cells are
    /// `CellData::default()`).
    pub data: Vec<CellData>,
}

/// How to execute a batch of scenarios.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads.
    pub jobs: usize,
    /// Isolation and timeout policy.
    pub policy: ExecPolicy,
    /// Write-ahead journal path; `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// Replay a prior journal at `journal` before executing (skipping
    /// completed cells); ignored when the file is missing or empty.
    pub resume: bool,
}

impl ExecConfig {
    /// A plain configuration: `jobs` workers, default policy, no
    /// journal.
    pub fn with_jobs(jobs: usize) -> Self {
        ExecConfig {
            jobs,
            policy: ExecPolicy::default(),
            journal: None,
            resume: false,
        }
    }
}

/// Why [`run_scenarios_checked`] gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The environment failed the run: unreadable or mismatched
    /// journal, journal write error, a worker thread the OS refused.
    Environment(String),
    /// A cell failed while `strict` was set.
    StrictFailure(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Environment(m) => f.write_str(m),
            EngineError::StrictFailure(m) => write!(f, "strict: {m}"),
        }
    }
}

/// The outcome of [`run_scenarios_checked`].
#[derive(Debug)]
pub struct EngineRun {
    /// Per-scenario reports, in selection order.
    pub reports: Vec<ScenarioReport>,
    /// Cells restored from the journal instead of simulated.
    pub resumed_cells: usize,
    /// Cell computations run in this process: a shared cell counts once
    /// however many scenarios list it.
    pub simulated_cells: usize,
    /// Cells quarantined after a failed run (sum over scenarios).
    pub failed_cells: usize,
}

enum Slot {
    Done(CellData, u64),
    Failed(CellFailure),
}

/// Deterministic report text for a scenario with quarantined cells (the
/// renderer is never called on partial data — some renderers index into
/// `aux`).
fn failure_text(name: &str, failures: &[CellFailure]) -> String {
    let mut out = format!(
        "{name}: {} cell(s) quarantined; report not rendered\n",
        failures.len()
    );
    for f in failures {
        out.push_str(&format!(
            "  [{}] {} {}: {}\n",
            f.kind, f.system, f.label, f.message
        ));
    }
    out
}

/// A not-yet-executed cell on the pool's deques: `(job index, work)`.
type PendingCell = (usize, Work);

/// Runs a batch of scenarios under a full [`ExecConfig`], fanning every
/// cell of every scenario across `jobs` workers: resilient per-cell
/// execution, optional write-ahead journaling, and resume. Results are
/// deterministic in content and order for any `jobs >= 1`.
///
/// Shared cells ([`CellSpec::shared`]) run once per distinct identity
/// in the batch; the result, its wall time included, fills every slot
/// that lists it and is journaled once per slot.
///
/// Returns `Err` on environmental problems — an unreadable journal, a
/// journal whose selection or cell identities (system and label at each
/// index) differ from this run's, a journal write failure, a worker
/// thread the OS refused — and, in `strict` mode, on the first
/// quarantined cell. Cell failures in non-strict mode are *not* errors:
/// they are quarantined into each record's `failures` list and counted
/// in [`EngineRun::failed_cells`].
pub fn run_scenarios_checked(
    scenarios: &[&Scenario],
    cfg: &ExecConfig,
) -> Result<EngineRun, EngineError> {
    let env = EngineError::Environment;
    let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
    if cfg.journal.is_some() {
        let mut uniq = names.clone();
        uniq.sort_unstable();
        uniq.dedup();
        if uniq.len() != names.len() {
            return Err(env(
                "journaling requires unique scenario names in the selection".into(),
            ));
        }
    }

    let replay = match (&cfg.journal, cfg.resume) {
        (Some(path), true) => journal::load(path).map_err(env)?,
        _ => None,
    };
    if let Some(r) = &replay {
        if r.selection
            .iter()
            .map(String::as_str)
            .ne(names.iter().copied())
        {
            return Err(env(format!(
                "journal selection [{}] does not match this run's selection [{}]; \
                 re-run without --resume to start over",
                r.selection.join(", "),
                names.join(", ")
            )));
        }
    }

    // Partition cells: replayed (from the journal) vs pending work. A
    // pending shared cell joins the job of its identity's first pending
    // listing, so each identity runs once; `targets[job]` lists the
    // slots its result fills.
    let mut meta: Vec<(usize, usize, String, String)> = Vec::new(); // (si, ci, system, label)
    let mut slots: Vec<Option<Slot>> = Vec::new();
    let mut replayed: Vec<bool> = Vec::new();
    let mut pending: Vec<PendingCell> = Vec::new();
    let mut targets: Vec<Vec<usize>> = Vec::new();
    let mut shared_jobs: HashMap<(String, String), usize> = HashMap::new();
    for (si, s) in scenarios.iter().enumerate() {
        for (ci, cell) in (s.build)().into_iter().enumerate() {
            let global = meta.len();
            let key = (s.name.to_string(), ci);
            let hit = replay.as_ref().and_then(|r| {
                r.cells
                    .get(&key)
                    .map(|c| (&c.system, &c.label, Slot::Done(c.data.clone(), c.wall_ns)))
                    .or_else(|| {
                        r.failures
                            .get(&key)
                            .map(|f| (&f.system, &f.label, Slot::Failed(f.clone())))
                    })
            });
            match hit {
                Some((system, label, _)) if *system != cell.system || *label != cell.label => {
                    return Err(env(format!(
                        "journal cell {} #{ci} is {system}/{label} but this run builds \
                         {}/{}; re-run without --resume to start over",
                        s.name, cell.system, cell.label
                    )));
                }
                Some((_, _, slot)) => {
                    slots.push(Some(slot));
                    replayed.push(true);
                }
                None => {
                    slots.push(None);
                    replayed.push(false);
                    let job = if cell.shared {
                        *shared_jobs
                            .entry((cell.system.clone(), cell.label.clone()))
                            .or_insert(targets.len())
                    } else {
                        targets.len()
                    };
                    if job == targets.len() {
                        targets.push(Vec::new());
                        pending.push((job, cell.work));
                    }
                    targets[job].push(global);
                }
            }
            meta.push((si, ci, cell.system, cell.label));
        }
    }

    let mut writer = match (&cfg.journal, &replay) {
        (None, _) => None,
        (Some(path), None) => Some(
            Journal::create(path, &names)
                .map_err(|e| env(format!("creating journal {}: {e}", path.display())))?,
        ),
        (Some(path), Some(r)) => Some(
            Journal::resume(path, r.valid_bytes)
                .map_err(|e| env(format!("resuming journal {}: {e}", path.display())))?,
        ),
    };

    let resumed_cells = replayed.iter().filter(|&&r| r).count();
    let mut simulated_cells = 0usize;
    let mut spawn_error: Option<String> = None;
    let mut strict_failure: Option<String> = None;
    let mut journal_error: Option<String> = None;

    if !pending.is_empty() {
        let workers = cfg.jobs.max(1).min(pending.len());
        let queues: Vec<Mutex<VecDeque<PendingCell>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, job) in pending.into_iter().enumerate() {
            queues[i % workers].lock().unwrap().push_back(job);
        }
        let abort = AtomicBool::new(false);
        type JobResult = Result<(CellData, u64), resilient::AttemptError>;
        let (tx, rx) = mpsc::channel::<(usize, JobResult)>();
        std::thread::scope(|scope| {
            let queues = &queues;
            let abort = &abort;
            let policy = &cfg.policy;
            for wi in 0..workers {
                let tx = tx.clone();
                let worker = move || loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let own = queues[wi].lock().unwrap().pop_front();
                    let job = own.or_else(|| {
                        (1..workers)
                            .find_map(|d| queues[(wi + d) % workers].lock().unwrap().pop_back())
                    });
                    match job {
                        Some((job, work)) => {
                            let result = resilient::attempt_once(work, policy);
                            // The collector drains inside this scope;
                            // send cannot fail.
                            tx.send((job, result)).expect("collector alive");
                        }
                        None => break,
                    }
                };
                if let Err(e) = std::thread::Builder::new().spawn_scoped(scope, worker) {
                    // The workers already running stop after their
                    // current cell.
                    abort.store(true, Ordering::Relaxed);
                    spawn_error = Some(format!("starting worker {wi} of {workers}: {e}"));
                    break;
                }
            }
            drop(tx);
            // Collect (and journal) on the scope's own thread while the
            // workers run: the loop ends when every worker has exited
            // and dropped its sender, so nothing blocks scope exit.
            for (job, result) in rx {
                simulated_cells += 1;
                if let (Err(err), true) = (&result, cfg.policy.strict) {
                    // Fail fast.
                    abort.store(true, Ordering::Relaxed);
                    let (_, _, system, label) = &meta[targets[job][0]];
                    strict_failure
                        .get_or_insert(format!("cell {system}/{label} failed: {}", err.message));
                }
                // A shared cell's result fills, and is journaled for,
                // every slot that lists it.
                for &global in &targets[job] {
                    let (si, ci, system, label) = &meta[global];
                    let name = scenarios[*si].name;
                    let slot = match &result {
                        Ok((data, wall_ns)) => Slot::Done(data.clone(), *wall_ns),
                        Err(err) => Slot::Failed(CellFailure {
                            system: system.clone(),
                            label: label.clone(),
                            kind: err.kind,
                            message: err.message.clone(),
                        }),
                    };
                    if let Some(j) = writer.as_mut() {
                        let written = match &slot {
                            Slot::Done(data, wall_ns) => {
                                j.record_cell(name, *ci, system, label, data, *wall_ns)
                            }
                            // Strict failures and refused threads are not
                            // journaled: a --resume runs the cell again.
                            Slot::Failed(f)
                                if !cfg.policy.strict && f.kind != FailureKind::Spawn =>
                            {
                                j.record_failure(name, *ci, f)
                            }
                            Slot::Failed(_) => Ok(()),
                        };
                        if let Err(e) = written {
                            journal_error.get_or_insert(format!("journal write: {e}"));
                        }
                    }
                    slots[global] = Some(slot);
                }
            }
        });
    }
    if let Some(msg) = spawn_error {
        return Err(env(msg));
    }
    if let Some(msg) = strict_failure {
        return Err(EngineError::StrictFailure(msg));
    }
    if let Some(msg) = journal_error {
        return Err(env(msg));
    }

    // Assemble per-scenario reports in grid order.
    let mut reports = Vec::new();
    let mut failed_cells = 0usize;
    let mut cursor = 0usize;
    for (si, s) in scenarios.iter().enumerate() {
        let mut data = Vec::new();
        let mut cells = Vec::new();
        let mut failures = Vec::new();
        let mut resumed = 0u64;
        while cursor < meta.len() && meta[cursor].0 == si {
            let (_, _, system, label) = &meta[cursor];
            if replayed[cursor] {
                resumed += 1;
            }
            let (d, wall_ns) = match slots[cursor].take().expect("every cell resolved") {
                Slot::Done(d, wall_ns) => (d, wall_ns),
                Slot::Failed(f) => {
                    failures.push(f);
                    (CellData::default(), 0)
                }
            };
            cells.push(CellRecord {
                system: system.clone(),
                label: label.clone(),
                cycles: d.cycles,
                bytes: d.bytes,
                wall_ns,
            });
            data.push(d);
            cursor += 1;
        }
        failed_cells += failures.len();
        let total_cycles: u64 = cells.iter().map(|c| c.cycles).sum();
        let total_bytes: u64 = cells.iter().map(|c| c.bytes).sum();
        let wall_ns: u64 = cells.iter().map(|c| c.wall_ns).sum();
        let text = if failures.is_empty() {
            (s.render)(&data)
        } else {
            failure_text(s.name, &failures)
        };
        reports.push(ScenarioReport {
            name: s.name,
            golden: s.golden,
            text,
            record: RunRecord {
                schema: SCHEMA.to_string(),
                scenario: s.name.to_string(),
                title: s.title.to_string(),
                cells,
                total_cycles,
                total_bytes,
                wall_ns,
                sim_cycles_per_sec: if wall_ns == 0 {
                    0.0
                } else {
                    total_cycles as f64 / (wall_ns as f64 / 1e9)
                },
                metrics: Vec::new(),
                resumed,
                failures,
            },
            data,
        });
    }
    Ok(EngineRun {
        reports,
        resumed_cells,
        simulated_cells,
        failed_cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn tiny_scenario() -> Scenario {
        Scenario {
            name: "tiny",
            alias: "",
            title: "tiny test scenario",
            smoke: false,
            golden: false,
            build: Box::new(|| {
                (0..17u64)
                    .map(|i| {
                        CellSpec::new("sys", format!("cell{i}"), move || {
                            CellData::cycles(i * 100, i)
                        })
                    })
                    .collect()
            }),
            render: Box::new(|cells: &[CellData]| {
                let total: u64 = cells.iter().map(|c| c.cycles).sum();
                format!("total {total}\n")
            }),
        }
    }

    fn panicky_scenario() -> Scenario {
        Scenario {
            name: "panicky",
            alias: "",
            title: "one cell always panics",
            smoke: false,
            golden: false,
            build: Box::new(|| {
                (0..5u64)
                    .map(|i| {
                        CellSpec::new("sys", format!("cell{i}"), move || {
                            if i == 2 {
                                panic!("cell 2 is broken");
                            }
                            CellData::cycles(i, 0)
                        })
                    })
                    .collect()
            }),
            render: Box::new(|cells: &[CellData]| {
                format!("sum {}\n", cells.iter().map(|c| c.cycles).sum::<u64>())
            }),
        }
    }

    /// Runs scenarios on `jobs` workers with the default policy and no
    /// journal; every cell must succeed.
    fn run_ok(scenarios: &[&Scenario], jobs: usize) -> Vec<ScenarioReport> {
        let run =
            run_scenarios_checked(scenarios, &ExecConfig::with_jobs(jobs)).expect("engine run");
        assert_eq!(run.failed_cells, 0, "no cell may fail");
        run.reports
    }

    #[test]
    fn pool_preserves_order_at_any_width() {
        let s = tiny_scenario();
        for jobs in [1, 2, 8, 32] {
            let reports = run_ok(&[&s], jobs);
            assert_eq!(reports.len(), 1);
            let r = &reports[0];
            assert_eq!(r.text, "total 13600\n");
            assert_eq!(r.record.cells.len(), 17);
            for (i, c) in r.record.cells.iter().enumerate() {
                assert_eq!(c.label, format!("cell{i}"));
                assert_eq!(c.cycles, i as u64 * 100);
            }
            assert_eq!(r.record.total_cycles, 13600);
            assert_eq!(r.record.total_bytes, 136);
        }
    }

    #[test]
    fn record_json_round_trips() {
        let reports = run_ok(&[&tiny_scenario()], 4);
        let rec = &reports[0].record;
        assert_eq!(rec.schema, SCHEMA);
        let parsed = RunRecord::from_json(&rec.to_json()).expect("valid record");
        assert_eq!(&parsed, rec);
    }

    #[test]
    fn failures_round_trip_through_json() {
        let mut rec = run_ok(&[&tiny_scenario()], 1)[0].record.clone();
        rec.failures.push(CellFailure {
            system: "sys".into(),
            label: "cell3".into(),
            kind: FailureKind::Timeout,
            message: "no response".into(),
        });
        rec.resumed = 5;
        let parsed = RunRecord::from_json(&rec.to_json()).expect("valid record");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn from_json_rejects_bad_schema_and_shape() {
        assert!(RunRecord::from_json("{}").is_err());
        let wrong = r#"{"schema": "other-v9", "scenario": "x", "title": "y",
            "cells": [], "total_cycles": 0, "total_bytes": 0,
            "wall_ns": 0, "sim_cycles_per_sec": 0}"#;
        let err = RunRecord::from_json(wrong).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
        let bad_cell = r#"{"schema": "pva-bench-record-v2", "scenario": "x",
            "title": "y", "cells": [{"system": "s"}], "total_cycles": 0,
            "total_bytes": 0, "wall_ns": 0, "sim_cycles_per_sec": 0}"#;
        assert!(RunRecord::from_json(bad_cell).is_err());
    }

    #[test]
    fn canonical_zeroes_wall_derived_fields_only() {
        let mut rec = run_ok(&[&tiny_scenario()], 2)[0].record.clone();
        rec.metrics.push(("speedup".into(), 2.0));
        rec.resumed = 3;
        let c = rec.canonical();
        assert_eq!(c.wall_ns, 0);
        assert_eq!(c.sim_cycles_per_sec, 0.0);
        assert_eq!(c.resumed, 0);
        assert!(c.metrics.is_empty());
        assert!(c.cells.iter().all(|cell| cell.wall_ns == 0));
        assert_eq!(c.total_cycles, rec.total_cycles);
        assert_eq!(
            c.cells.iter().map(|x| x.cycles).collect::<Vec<_>>(),
            rec.cells.iter().map(|x| x.cycles).collect::<Vec<_>>()
        );
    }

    #[test]
    fn multi_scenario_batch_keeps_scenario_boundaries() {
        let a = tiny_scenario();
        let b = tiny_scenario();
        let reports = run_ok(&[&a, &b], 3);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].record.cells.len(), 17);
        assert_eq!(reports[1].record.cells.len(), 17);
        assert_eq!(reports[0].text, reports[1].text);
    }

    #[test]
    fn quarantine_preserves_siblings_and_grid_order() {
        let bad = panicky_scenario();
        let good = tiny_scenario();
        let run = run_scenarios_checked(&[&bad, &good], &ExecConfig::with_jobs(4))
            .expect("quarantine, not error");
        assert_eq!(run.failed_cells, 1);
        let r = &run.reports[0];
        assert_eq!(r.record.failures.len(), 1);
        let f = &r.record.failures[0];
        assert_eq!(f.label, "cell2");
        assert_eq!(f.kind, FailureKind::Panic);
        assert_eq!(f.message, "cell 2 is broken");
        // Sibling cells of the same scenario still ran...
        assert_eq!(r.record.cells.len(), 5);
        assert_eq!(r.record.cells[4].cycles, 4);
        // ...the failed one is zeroed in place...
        assert_eq!(r.record.cells[2].cycles, 0);
        // ...and the failure text is deterministic.
        assert!(r.text.contains("1 cell(s) quarantined"), "{}", r.text);
        // The healthy sibling scenario is untouched.
        assert_eq!(run.reports[1].text, "total 13600\n");
    }

    #[test]
    fn failing_cell_is_attempted_once() {
        // A cell is deterministic, so the engine never runs it again:
        // one panic, one quarantine.
        let runs = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&runs);
        let s = Scenario {
            build: Box::new(move || {
                let counter = Arc::clone(&counter);
                vec![CellSpec::new("sys", "cell0", move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    panic!("always")
                })]
            }),
            ..panicky_scenario()
        };
        let run = run_scenarios_checked(&[&s], &ExecConfig::with_jobs(1)).expect("quarantine");
        assert_eq!(run.failed_cells, 1);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert!(
            run.reports[0].text.contains("[panic] sys cell0: always"),
            "{}",
            run.reports[0].text
        );
    }

    /// Shared cells `sys/p<i>`, one per `i` in `points`, each counting
    /// its runs in `runs`.
    fn shared_scenario(
        name: &'static str,
        points: &'static [u64],
        runs: &Arc<AtomicU32>,
    ) -> Scenario {
        let runs = Arc::clone(runs);
        let cell = move |i: u64| {
            let runs = Arc::clone(&runs);
            let work = move || {
                runs.fetch_add(1, Ordering::SeqCst);
                CellData::cycles(i * 10, i)
            };
            CellSpec {
                shared: true,
                ..CellSpec::new("sys", format!("p{i}"), work)
            }
        };
        Scenario {
            name,
            build: Box::new(move || points.iter().map(|&i| cell(i)).collect()),
            ..tiny_scenario()
        }
    }

    #[test]
    fn shared_cell_runs_once_for_every_scenario_that_lists_it() {
        let runs = Arc::new(AtomicU32::new(0));
        let (a, b) = (
            shared_scenario("a", &[0, 1, 2], &runs),
            shared_scenario("b", &[2, 1, 3], &runs),
        );
        let run = run_scenarios_checked(&[&a, &b], &ExecConfig::with_jobs(2)).expect("run");
        assert_eq!((runs.load(Ordering::SeqCst), run.simulated_cells), (4, 4));
        let cycles = |r: &ScenarioReport| r.data.iter().map(|d| d.cycles).collect::<Vec<_>>();
        assert_eq!(cycles(&run.reports[0]), [0, 10, 20]);
        assert_eq!(cycles(&run.reports[1]), [20, 10, 30]);
        // Every listing carries the point's own wall time.
        let wall = |r: usize| run.reports[r].record.cells[1].wall_ns;
        assert_eq!(wall(0), wall(1));
    }

    #[test]
    fn resume_after_some_slots_of_a_shared_cell_is_exact() {
        let path =
            std::env::temp_dir().join(format!("pva-bench-shared-{}.jsonl", std::process::id()));
        let runs = Arc::new(AtomicU32::new(0));
        let scens = [("a", &[0, 1, 2][..]), ("b", &[2, 1, 3]), ("c", &[1])]
            .map(|(name, points)| shared_scenario(name, points, &runs));
        let refs: Vec<&Scenario> = scens.iter().collect();
        let cfg = ExecConfig {
            journal: Some(path.clone()),
            ..ExecConfig::with_jobs(1)
        };
        let full = run_scenarios_checked(&refs, &cfg).expect("journaled run");
        // One worker journals in submission order: header, p0, then p1's
        // slots a#1, b#1, c#0. Keep p1's first slot only, as a kill
        // between those writes would.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[2].contains("\"p1\"") && lines[3].contains("\"p1\""));
        std::fs::write(&path, format!("{}\n", lines[..3].join("\n"))).unwrap();
        let resumed = run_scenarios_checked(
            &refs,
            &ExecConfig {
                resume: true,
                ..cfg
            },
        );
        let _ = std::fs::remove_file(&path);
        let resumed = resumed.expect("resume");
        // p1 runs again for its two unwritten slots; p2 and p3 run.
        assert_eq!((resumed.resumed_cells, resumed.simulated_cells), (2, 3));
        for (a, b) in full.reports.iter().zip(&resumed.reports) {
            assert_eq!(a.text, b.text, "{}", a.name);
            assert_eq!(a.record.canonical(), b.record.canonical(), "{}", a.name);
        }
    }

    #[test]
    fn strict_mode_fails_fast_with_the_cell_identity() {
        let bad = panicky_scenario();
        let cfg = ExecConfig {
            policy: ExecPolicy {
                strict: true,
                ..ExecPolicy::default()
            },
            ..ExecConfig::with_jobs(2)
        };
        let err = run_scenarios_checked(&[&bad], &cfg).expect_err("strict fails");
        let EngineError::StrictFailure(msg) = err else {
            panic!("expected a strict failure, got {err:?}");
        };
        assert!(msg.contains("cell sys/cell2"), "{msg}");
        assert!(msg.contains("cell 2 is broken"), "{msg}");
    }

    #[test]
    fn journal_then_full_resume_replays_every_cell() {
        let dir = std::env::temp_dir().join("pva-bench-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full_resume.jsonl");
        let _ = std::fs::remove_file(&path);
        let s = tiny_scenario();
        let cfg = ExecConfig {
            journal: Some(path.clone()),
            ..ExecConfig::with_jobs(4)
        };
        let first = run_scenarios_checked(&[&s], &cfg).expect("first run");
        assert_eq!(first.resumed_cells, 0);
        let cfg_resume = ExecConfig {
            journal: Some(path.clone()),
            resume: true,
            ..ExecConfig::with_jobs(4)
        };
        let second = run_scenarios_checked(&[&s], &cfg_resume).expect("resume");
        assert_eq!(second.resumed_cells, 17);
        assert_eq!(second.reports[0].record.resumed, 17);
        // Wall times were restored verbatim, so even the non-canonical
        // records match (modulo the resumed counter).
        let mut replayed = second.reports[0].record.clone();
        replayed.resumed = 0;
        assert_eq!(replayed, first.reports[0].record);
        assert_eq!(second.reports[0].text, first.reports[0].text);
    }

    #[test]
    fn resume_with_mismatched_selection_is_refused() {
        let dir = std::env::temp_dir().join("pva-bench-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.jsonl");
        let _ = std::fs::remove_file(&path);
        let s = tiny_scenario();
        let cfg = ExecConfig {
            journal: Some(path.clone()),
            ..ExecConfig::with_jobs(2)
        };
        run_scenarios_checked(&[&s], &cfg).expect("first run");
        let other = panicky_scenario();
        let cfg_resume = ExecConfig {
            journal: Some(path.clone()),
            resume: true,
            ..ExecConfig::with_jobs(2)
        };
        let err = run_scenarios_checked(&[&other], &cfg_resume).expect_err("selection mismatch");
        let EngineError::Environment(msg) = err else {
            panic!("expected an environment error, got {err:?}");
        };
        assert!(msg.contains("does not match"), "{msg}");
    }
}
