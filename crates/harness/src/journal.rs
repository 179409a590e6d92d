//! Append-only JSONL run journal for crash-safe resumable sweeps.
//!
//! Every state transition of every run in a sweep is one JSON object on
//! one line: `pending` → `running` → (`done` | `failed` | `wedged`), plus
//! `skipped` rows appended on `--resume` so the journal itself records
//! that a completed row was *not* recomputed. The file is only ever
//! appended to and flushed line-by-line, so a SIGKILL can at worst tear
//! the final line — [`Journal::replay`] tolerates a torn tail and the
//! interrupted run simply shows its last durable state (`running`), which
//! a resumed sweep treats as not-done and re-executes.
//!
//! The journal is the source of truth for `--resume`: a run whose latest
//! row is `done` (or `skipped`, which only ever follows `done`) is never
//! re-executed; every other state re-runs.

use glocks_stats::json::{self, Json};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Lifecycle states of one journaled run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Claimed by the sweep, not yet started (reserved for schedulers that
    /// enqueue ahead of execution).
    Pending,
    /// Execution started (attempt number in the row).
    Running,
    /// Finished and verified; artifacts recorded.
    Done,
    /// Deterministic failure: a panic or a reproducible `SimError`.
    /// Retrying would fail identically, so it is recorded once.
    Failed,
    /// Transient (host-dependent) failure that survived every retry —
    /// typically a wall-clock timeout on an overloaded machine.
    Wedged,
    /// `--resume` found the run already `done` and did not re-execute it.
    Skipped,
}

impl RunStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Pending => "pending",
            RunStatus::Running => "running",
            RunStatus::Done => "done",
            RunStatus::Failed => "failed",
            RunStatus::Wedged => "wedged",
            RunStatus::Skipped => "skipped",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "pending" => RunStatus::Pending,
            "running" => RunStatus::Running,
            "done" => RunStatus::Done,
            "failed" => RunStatus::Failed,
            "wedged" => RunStatus::Wedged,
            "skipped" => RunStatus::Skipped,
            _ => return None,
        })
    }

    /// True if a resumed sweep should not re-execute this run.
    pub fn is_complete(self) -> bool {
        matches!(self, RunStatus::Done | RunStatus::Skipped)
    }
}

/// One structured failure attached to a journal row: a [`glocks_sim::SimError`]
/// (kind + full diagnostic rendering) or a caught panic (`kind: "panic"`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunError {
    /// Machine-friendly tag (`SimError::kind()` or `"panic"`).
    pub kind: String,
    /// Host-dependent failures can succeed on retry; deterministic ones
    /// recur exactly.
    pub transient: bool,
    /// Human-readable detail (the error's `Display`, diagnostics included).
    pub detail: String,
}

impl RunError {
    pub fn from_sim_error(e: &glocks_sim::SimError) -> Self {
        RunError { kind: e.kind().to_string(), transient: e.is_transient(), detail: e.to_string() }
    }

    /// A deterministic failure that is not a `SimError`: a wrong answer, a
    /// refused snapshot, a fuzzer finding.
    pub fn failed(kind: &str, detail: &str) -> Self {
        RunError { kind: kind.to_string(), transient: false, detail: detail.to_string() }
    }

    pub fn panic(detail: &str) -> Self {
        RunError::failed("panic", detail)
    }
}

/// One journal line.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRow {
    pub id: String,
    pub status: RunStatus,
    /// 1-based attempt this row belongs to (retries bump it).
    pub attempt: u32,
    /// `done` was only reached after at least one transient failure.
    pub flaky: bool,
    /// Wall-clock time of the attempt (terminal rows only).
    pub wall_ms: u64,
    /// Output files this run produced (stats dumps, checkpoints, ...).
    pub artifacts: Vec<String>,
    pub errors: Vec<RunError>,
}

impl JournalRow {
    pub fn new(id: &str, status: RunStatus) -> Self {
        JournalRow {
            id: id.to_string(),
            status,
            attempt: 1,
            flaky: false,
            wall_ms: 0,
            artifacts: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Deterministic single-line JSON encoding.
    pub fn to_json_line(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("id".to_string(), Json::Str(self.id.clone()));
        m.insert("status".to_string(), Json::Str(self.status.as_str().to_string()));
        m.insert("attempt".to_string(), Json::UInt(u64::from(self.attempt)));
        m.insert("flaky".to_string(), Json::Bool(self.flaky));
        m.insert("wall_ms".to_string(), Json::UInt(self.wall_ms));
        m.insert(
            "artifacts".to_string(),
            Json::Arr(self.artifacts.iter().map(|a| Json::Str(a.clone())).collect()),
        );
        m.insert(
            "errors".to_string(),
            Json::Arr(
                self.errors
                    .iter()
                    .map(|e| {
                        let mut em = BTreeMap::new();
                        em.insert("kind".to_string(), Json::Str(e.kind.clone()));
                        em.insert("transient".to_string(), Json::Bool(e.transient));
                        em.insert("detail".to_string(), Json::Str(e.detail.clone()));
                        Json::Obj(em)
                    })
                    .collect(),
            ),
        );
        Json::Obj(m).encode()
    }

    pub fn from_json_line(line: &str) -> Option<Self> {
        let v = json::parse(line).ok()?;
        let status = RunStatus::from_name(v.get("status")?.as_str()?)?;
        let errors = v
            .get("errors")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|e| {
                        Some(RunError {
                            kind: e.get("kind")?.as_str()?.to_string(),
                            transient: matches!(e.get("transient"), Some(Json::Bool(true))),
                            detail: e.get("detail")?.as_str()?.to_string(),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        Some(JournalRow {
            id: v.get("id")?.as_str()?.to_string(),
            status,
            attempt: v.get("attempt").and_then(Json::as_u64).unwrap_or(1) as u32,
            flaky: matches!(v.get("flaky"), Some(Json::Bool(true))),
            wall_ms: v.get("wall_ms").and_then(Json::as_u64).unwrap_or(0),
            artifacts: v
                .get("artifacts")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(|x| Some(x.as_str()?.to_string())).collect())
                .unwrap_or_default(),
            errors,
        })
    }
}

/// An open append-only journal.
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Open (creating if absent) for appending. Existing rows are kept —
    /// that is the point.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal { path: path.to_path_buf(), file })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one row and flush it to disk so a crash right after loses
    /// nothing. Whole-line writes mean only the final line can ever tear.
    pub fn append(&mut self, row: &JournalRow) -> std::io::Result<()> {
        let mut line = row.to_json_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }

    /// Latest durable row per run id. Unparseable lines (a torn tail after
    /// SIGKILL) are skipped; every complete line before them counts.
    pub fn replay(path: &Path) -> std::io::Result<BTreeMap<String, JournalRow>> {
        let mut latest = BTreeMap::new();
        if !path.exists() {
            return Ok(latest);
        }
        let reader = BufReader::new(File::open(path)?);
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            if let Some(row) = JournalRow::from_json_line(&line) {
                latest.insert(row.id.clone(), row);
            }
        }
        Ok(latest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("glocks_journal_{}_{name}", std::process::id()))
    }

    #[test]
    fn rows_round_trip_and_latest_wins() {
        let path = tmp("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(&JournalRow::new("a", RunStatus::Running)).unwrap();
            let mut done = JournalRow::new("a", RunStatus::Done);
            done.wall_ms = 12;
            done.artifacts.push("out/a.json".to_string());
            j.append(&done).unwrap();
            let mut failed = JournalRow::new("b", RunStatus::Failed);
            failed.errors.push(RunError::panic("boom"));
            j.append(&failed).unwrap();
        }
        let latest = Journal::replay(&path).unwrap();
        assert_eq!(latest.len(), 2);
        assert_eq!(latest["a"].status, RunStatus::Done);
        assert!(latest["a"].status.is_complete());
        assert_eq!(latest["a"].artifacts, vec!["out/a.json".to_string()]);
        assert_eq!(latest["b"].status, RunStatus::Failed);
        assert_eq!(latest["b"].errors[0].kind, "panic");
        assert!(!latest["b"].errors[0].transient);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = tmp("torn.jsonl");
        let mut body = JournalRow::new("a", RunStatus::Done).to_json_line();
        body.push('\n');
        body.push_str("{\"id\":\"b\",\"status\":\"run"); // SIGKILL mid-write
        std::fs::write(&path, body).unwrap();
        let latest = Journal::replay(&path).unwrap();
        assert_eq!(latest.len(), 1, "torn line ignored, durable line kept");
        assert_eq!(latest["a"].status, RunStatus::Done);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_is_empty() {
        let latest = Journal::replay(Path::new("/nonexistent/journal.jsonl")).unwrap();
        assert!(latest.is_empty());
    }

    #[test]
    fn wedged_and_running_rows_are_not_complete() {
        for status in [RunStatus::Pending, RunStatus::Running, RunStatus::Failed, RunStatus::Wedged]
        {
            assert!(!status.is_complete(), "{status:?} must re-run on resume");
            assert_eq!(RunStatus::from_name(status.as_str()), Some(status));
        }
        assert!(RunStatus::Skipped.is_complete());
        assert_eq!(RunStatus::from_name("nonsense"), None);
    }
}
