//! Write-ahead checkpoint journal for resumable campaigns.
//!
//! While a campaign runs, every completed (or quarantined) cell is
//! appended to a JSONL journal — one compact JSON object per line,
//! flushed line-by-line so a SIGKILL loses at most the line being
//! written. On `--resume`, the journal is replayed: cells already
//! recorded are restored (including their original wall times, so the
//! final records match what the uninterrupted run would have produced)
//! and only the remaining cells are simulated.
//!
//! Durability model: a complete line always ends in `\n`, written with
//! a single `write` syscall. A trailing line without `\n` is a torn
//! write from the killed process and is dropped on load (the cell it
//! described simply reruns); a malformed line *before* the tail means
//! the file is not a journal we wrote and is a hard error with line
//! context. All `u64` fields are serialized as decimal strings because
//! `aux` words carry `f64::to_bits` payloads above 2^53, beyond JSON
//! number precision.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

use crate::engine::CellData;
use crate::json::{self, Value};
use crate::resilient::CellFailure;

/// Schema identifier in the journal header line.
pub const JOURNAL_SCHEMA: &str = "pva-bench-journal-v1";

/// Default journal file name, next to the JSON output directory.
pub const DEFAULT_JOURNAL: &str = ".pva-bench-journal.jsonl";

fn u64_str(v: u64) -> Value {
    Value::Str(v.to_string())
}

fn parse_u64_str(v: &Value, what: &str) -> Result<u64, String> {
    match v {
        Value::Str(s) => s
            .parse::<u64>()
            .map_err(|_| format!("{what}: '{s}' is not a u64")),
        // Tolerate plain numbers for small fields.
        Value::Num(_) => v.as_u64().ok_or_else(|| format!("{what}: not a u64")),
        _ => Err(format!("{what}: not a u64 string")),
    }
}

fn u64_field(v: &Value, k: &str) -> Result<u64, String> {
    parse_u64_str(
        v.get(k).ok_or_else(|| format!("missing field '{k}'"))?,
        &format!("field '{k}'"),
    )
}

/// Append-mode writer over the journal file.
pub struct Journal {
    file: File,
}

impl Journal {
    /// Starts a fresh journal at `path` (truncating any previous one)
    /// and writes the header line binding it to `selection` — the
    /// scenario names of this run, in order.
    pub fn create(path: &Path, selection: &[&str]) -> std::io::Result<Journal> {
        let mut file = File::create(path)?;
        let header = Value::Obj(vec![
            ("journal".into(), Value::Str(JOURNAL_SCHEMA.into())),
            (
                "selection".into(),
                Value::Arr(
                    selection
                        .iter()
                        .map(|s| Value::Str((*s).to_string()))
                        .collect(),
                ),
            ),
        ]);
        Journal::write_line(&mut file, &header)?;
        Ok(Journal { file })
    }

    /// Reopens `path` for appending after a resume: the file is first
    /// truncated to `valid_bytes` (dropping a torn trailing line), then
    /// new completions append after the replayed ones.
    pub fn resume(path: &Path, valid_bytes: u64) -> std::io::Result<Journal> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_bytes)?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.flush()?;
        Ok(Journal { file })
    }

    fn write_line(file: &mut File, v: &Value) -> std::io::Result<()> {
        let mut line = v.to_json_compact();
        line.push('\n');
        // One write call per line: a kill between lines tears at most
        // the line in flight, which load() drops.
        file.write_all(line.as_bytes())?;
        file.flush()
    }

    /// Appends a completed cell.
    pub fn record_cell(
        &mut self,
        scenario: &str,
        cell: usize,
        system: &str,
        label: &str,
        data: &CellData,
        wall_ns: u64,
    ) -> std::io::Result<()> {
        let v = Value::Obj(vec![
            ("type".into(), Value::Str("cell".into())),
            ("scenario".into(), Value::Str(scenario.into())),
            ("cell".into(), Value::Num(cell as f64)),
            ("system".into(), Value::Str(system.into())),
            ("label".into(), Value::Str(label.into())),
            ("cycles".into(), u64_str(data.cycles)),
            ("bytes".into(), u64_str(data.bytes)),
            ("wall_ns".into(), u64_str(wall_ns)),
            (
                "aux".into(),
                Value::Arr(data.aux.iter().map(|&a| u64_str(a)).collect()),
            ),
            ("text".into(), Value::Str(data.text.clone())),
        ]);
        Journal::write_line(&mut self.file, &v)
    }

    /// Appends a quarantined cell failure.
    pub fn record_failure(
        &mut self,
        scenario: &str,
        cell: usize,
        failure: &CellFailure,
    ) -> std::io::Result<()> {
        let mut fields = vec![
            ("type".into(), Value::Str("failure".into())),
            ("scenario".into(), Value::Str(scenario.into())),
            ("cell".into(), Value::Num(cell as f64)),
        ];
        fields.extend(failure.json_fields());
        Journal::write_line(&mut self.file, &Value::Obj(fields))
    }
}

/// One replayed cell completion.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayCell {
    /// Memory-system column.
    pub system: String,
    /// Grid label.
    pub label: String,
    /// The cell's measured data.
    pub data: CellData,
    /// Wall time of the original computation, restored verbatim so the
    /// resumed record matches the uninterrupted one.
    pub wall_ns: u64,
}

/// Everything recoverable from a journal file.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Scenario names the journal was created for, in run order.
    pub selection: Vec<String>,
    /// Completed cells, keyed by `(scenario, cell index)`.
    pub cells: HashMap<(String, usize), ReplayCell>,
    /// Quarantined failures, keyed the same way.
    pub failures: HashMap<(String, usize), CellFailure>,
    /// Byte length of the valid prefix (through the last `\n`).
    pub valid_bytes: u64,
    /// Whether a torn trailing line was dropped.
    pub torn_tail: bool,
}

/// Loads a journal for resume. Returns `Ok(None)` when the file does
/// not exist or holds no complete header line (nothing to resume);
/// `Err` with line context when a complete line is malformed.
pub fn load(path: &Path) -> Result<Option<Replay>, String> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let valid = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    let torn_tail = valid < bytes.len();
    let text = std::str::from_utf8(&bytes[..valid])
        .map_err(|e| format!("{}: journal is not UTF-8: {e}", path.display()))?;
    let mut lines = text.lines().enumerate();
    let Some((_, header_line)) = lines.next() else {
        return Ok(None);
    };
    let header =
        json::parse(header_line).map_err(|e| format!("{}: line 1: {e}", path.display()))?;
    let schema = header
        .get("journal")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{}: line 1: not a pva-bench journal", path.display()))?;
    if schema != JOURNAL_SCHEMA {
        return Err(format!(
            "{}: unknown journal schema '{schema}' (expected '{JOURNAL_SCHEMA}')",
            path.display()
        ));
    }
    let selection = header
        .get("selection")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: line 1: missing 'selection' array", path.display()))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{}: line 1: non-string selection entry", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let mut replay = Replay {
        selection,
        valid_bytes: valid as u64,
        torn_tail,
        ..Replay::default()
    };
    for (idx, line) in lines {
        let lineno = idx + 1;
        let at = |msg: String| format!("{}: line {lineno}: {msg}", path.display());
        let v = json::parse(line).map_err(|e| at(e.to_string()))?;
        let kind = v.str_field("type").map_err(&at)?;
        let scenario = v.str_field("scenario").map_err(&at)?;
        let cell = v
            .get("cell")
            .and_then(Value::as_u64)
            .ok_or_else(|| at("missing cell index".into()))? as usize;
        let key = (scenario, cell);
        match kind.as_str() {
            "cell" => {
                let aux = v
                    .get("aux")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| at("missing 'aux' array".into()))?
                    .iter()
                    .map(|a| parse_u64_str(a, "aux entry"))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(&at)?;
                let data = CellData {
                    cycles: u64_field(&v, "cycles").map_err(&at)?,
                    bytes: u64_field(&v, "bytes").map_err(&at)?,
                    aux,
                    text: v.str_field("text").map_err(&at)?,
                };
                let cell = ReplayCell {
                    system: v.str_field("system").map_err(&at)?,
                    label: v.str_field("label").map_err(&at)?,
                    data,
                    wall_ns: u64_field(&v, "wall_ns").map_err(&at)?,
                };
                replay.cells.insert(key, cell);
            }
            "failure" => {
                let failure = CellFailure::from_json(&v).map_err(&at)?;
                replay.failures.insert(key, failure);
            }
            other => return Err(at(format!("unknown journal line type '{other}'"))),
        }
    }
    Ok(Some(replay))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::FailureKind;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pva-bench-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn journal_round_trips_cells_and_failures() {
        let path = tmp("round_trip.jsonl");
        let mut j = Journal::create(&path, &["alpha", "beta"]).unwrap();
        let data = CellData {
            cycles: 123,
            bytes: 456,
            // A float bit pattern above 2^53 — the reason for string u64s.
            aux: vec![f64::to_bits(2.32), u64::MAX],
            text: "multi\nline\ttext".into(),
        };
        j.record_cell("alpha", 0, "pva-sdram", "copy/s16", &data, 987)
            .unwrap();
        let failure = CellFailure {
            system: "pva-sram".into(),
            label: "scale/s2".into(),
            kind: FailureKind::Timeout,
            message: "cell exceeded its 0.100s wall-clock budget".into(),
        };
        j.record_failure("beta", 4, &failure).unwrap();
        drop(j);

        let replay = load(&path).unwrap().expect("journal present");
        assert_eq!(replay.selection, ["alpha", "beta"]);
        assert!(!replay.torn_tail);
        let cell = &replay.cells[&("alpha".to_string(), 0)];
        assert_eq!(cell.system, "pva-sdram");
        assert_eq!(cell.wall_ns, 987);
        assert_eq!(cell.data, data);
        assert_eq!(cell.data.aux[1], u64::MAX);
        assert_eq!(replay.failures[&("beta".to_string(), 4)], failure);
    }

    #[test]
    fn missing_file_is_a_fresh_start() {
        assert!(load(&tmp("never_written.jsonl")).unwrap().is_none());
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_resume_truncates() {
        let path = tmp("torn.jsonl");
        let mut j = Journal::create(&path, &["alpha"]).unwrap();
        j.record_cell("alpha", 0, "s", "l", &CellData::cycles(1, 2), 3)
            .unwrap();
        drop(j);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a SIGKILL mid-write: half a JSON line, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"type\":\"cell\",\"scenario\":\"alph")
            .unwrap();
        drop(f);

        let replay = load(&path).unwrap().expect("journal present");
        assert!(replay.torn_tail);
        assert_eq!(replay.valid_bytes, clean_len);
        assert_eq!(replay.cells.len(), 1);

        let mut j = Journal::resume(&path, replay.valid_bytes).unwrap();
        j.record_cell("alpha", 1, "s", "l", &CellData::cycles(4, 5), 6)
            .unwrap();
        drop(j);
        let replay = load(&path).unwrap().unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.cells.len(), 2);
    }

    #[test]
    fn malformed_complete_line_errors_with_line_number() {
        let path = tmp("malformed.jsonl");
        let mut j = Journal::create(&path, &["alpha"]).unwrap();
        j.record_cell("alpha", 0, "s", "l", &CellData::default(), 0)
            .unwrap();
        drop(j);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"this is not json\n").unwrap();
        drop(f);
        let err = load(&path).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn empty_and_headerless_files_start_fresh() {
        let path = tmp("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(load(&path).unwrap().is_none());
        // A torn header (no newline) is also nothing-to-resume.
        std::fs::write(&path, "{\"journal\":\"pva-b").unwrap();
        assert!(load(&path).unwrap().is_none());
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let path = tmp("wrong_schema.jsonl");
        std::fs::write(&path, "{\"journal\":\"other-v9\",\"selection\":[]}\n").unwrap();
        assert!(load(&path).unwrap_err().contains("unknown journal schema"));
    }
}
