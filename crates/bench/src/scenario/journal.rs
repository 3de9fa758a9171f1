//! The incremental checkpoint/resume artifact store behind
//! `diva-report --resume <dir>`.
//!
//! One journal file per scenario, `<dir>/<scenario>.journal.jsonl`: a
//! header line identifying (scenario, overrides, code-version
//! fingerprint), then one flat JSON record per **supervised cell
//! outcome**, appended and flushed the moment the cell finishes. Records
//! hold the raw pre-derivation cell (metrics exactly as evaluated,
//! including hidden baseline arms); derived metrics and reductions are
//! recomputed on every run, and `f64`'s `Display` is round-trip exact, so
//! a resumed run's artifact is byte-identical to a fresh one.
//!
//! Recovery: a process killed mid-append leaves a truncated final line.
//! The loader parses line by line and treats a malformed **final** record
//! as the kill point — everything before it is reused, the torn cell
//! re-runs. A malformed record *followed by* well-formed ones is real
//! corruption and errors instead. The header's fingerprint hashes the
//! scenario's effective shape (axes, derived rules, overrides) plus the
//! crate version; resuming against a journal written by different code or
//! flags is refused rather than silently mixed.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use super::error::{FailKind, ScenarioError};
use super::Cell;
use crate::faults::fnv1a64;
use crate::perf::{parse_flat_json_object, JsonObject, PerfRecord};

/// The journal file's schema tag.
pub const JOURNAL_SCHEMA: &str = "diva-journal/v1";

/// Note keys are prefixed in journal records so a scenario note can never
/// collide with the reserved `key`/`status`/`error`/`attempts` tags.
const NOTE_PREFIX: &str = "n:";

/// What the journal remembers about one supervised cell.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalOutcome {
    /// The cell completed; its raw evaluated state is reusable.
    Ok(Cell),
    /// The cell failed terminally on a previous run; it re-runs on resume.
    Failed {
        /// Terminal classification.
        kind: FailKind,
        /// Last attempt's error message.
        error: String,
        /// Attempts the previous run made.
        attempts: u32,
    },
}

/// Identity of the run a journal belongs to; all three fields must match
/// for a resume to reuse the file.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalSpec {
    /// Scenario registry name.
    pub scenario: String,
    /// Code-version fingerprint (see [`fingerprint_hex`]).
    pub fingerprint: String,
    /// The run's `--set` overrides, joined `k=v,k=v` (empty when none).
    pub overrides: String,
}

/// Hashes the parts identifying a run's effective shape into the header
/// fingerprint. Includes the journal schema and crate version so a code
/// upgrade invalidates old journals.
pub fn fingerprint_hex(parts: &[String]) -> String {
    let mut bytes: Vec<&[u8]> = vec![
        JOURNAL_SCHEMA.as_bytes(),
        env!("CARGO_PKG_VERSION").as_bytes(),
    ];
    bytes.extend(parts.iter().map(|p| p.as_bytes()));
    format!("{:016x}", fnv1a64(&bytes))
}

/// An open, append-mode journal for one scenario run.
///
/// Appends happen from inside pool workers (the supervisor journals each
/// cell the moment it settles), so the writer sits behind a mutex and I/O
/// failures are stashed rather than panicked — the runner collects them
/// after the region via [`Journal::take_error`].
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: Mutex<File>,
    first_error: Mutex<Option<String>>,
}

impl Journal {
    /// The journal path for `scenario` under `dir`.
    pub fn path_for(dir: &Path, scenario: &str) -> PathBuf {
        dir.join(format!("{scenario}.journal.jsonl"))
    }

    /// Opens (or creates) the journal for `spec` under `dir`, returning
    /// the reusable outcomes of previous runs keyed by cell key. A
    /// missing or empty file starts fresh; an existing file must carry a
    /// matching header.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Journal`] on header/fingerprint mismatch or
    /// mid-file corruption; [`ScenarioError::Io`] on filesystem failure.
    pub fn open(
        dir: &Path,
        spec: &JournalSpec,
    ) -> Result<(Self, HashMap<String, JournalOutcome>), ScenarioError> {
        std::fs::create_dir_all(dir).map_err(|e| ScenarioError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let path = Self::path_for(dir, &spec.scenario);
        let io_err = |e: std::io::Error| ScenarioError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        let existing = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(io_err(e)),
        };
        let cached = if existing.trim().is_empty() {
            HashMap::new()
        } else {
            let cached = load_entries(&existing, spec, &path)?;
            // A kill mid-append leaves a torn final line. The loader
            // already skipped it; also rewrite the file to the valid
            // prefix so this run's appends don't concatenate onto the
            // torn bytes (which would read as *interior* corruption —
            // unrecoverable — next time).
            let valid = valid_prefix_len(&existing);
            if valid < existing.len() {
                std::fs::write(&path, &existing[..valid]).map_err(io_err)?;
            }
            cached
        };
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        if existing.trim().is_empty() {
            file.write_all(&header_line(spec)).map_err(io_err)?;
            file.flush().map_err(io_err)?;
        }
        Ok((
            Self {
                path,
                writer: Mutex::new(file),
                first_error: Mutex::new(None),
            },
            cached,
        ))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a completed cell's raw state and flushes.
    pub fn append_ok(&self, key: &str, cell: &Cell) {
        let mut line = JsonObject::named("cell")
            .string("key", key)
            .string("status", "ok");
        for (k, v) in &cell.notes {
            line = line.string(&format!("{NOTE_PREFIX}{k}"), v);
        }
        self.append_line(&line.numbers(&cell.metrics).line());
    }

    /// Appends a terminal cell failure and flushes.
    pub fn append_failure(&self, key: &str, kind: FailKind, error: &str, attempts: u32) {
        let line = JsonObject::named("cell")
            .string("key", key)
            .string("status", kind.slug())
            .string("error", error)
            .string("attempts", &attempts.to_string());
        self.append_line(&line.line());
    }

    fn append_line(&self, line: &[u8]) {
        let mut file = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let result = file
            .write_all(line)
            .and_then(|()| file.flush())
            .map_err(|e| e.to_string());
        if let Err(msg) = result {
            let mut slot = self.first_error.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(msg);
        }
    }

    /// The first append failure, if any — checked by the runner after the
    /// evaluation region so worker-side I/O errors surface as
    /// [`ScenarioError::Io`] instead of being dropped.
    pub fn take_error(&self) -> Option<ScenarioError> {
        let mut slot = self.first_error.lock().unwrap_or_else(|e| e.into_inner());
        slot.take().map(|message| ScenarioError::Io {
            path: self.path.display().to_string(),
            message,
        })
    }
}

fn header_line(spec: &JournalSpec) -> Vec<u8> {
    JsonObject::named("journal")
        .string("schema", JOURNAL_SCHEMA)
        .string("scenario", &spec.scenario)
        .string("fingerprint", &spec.fingerprint)
        .string("overrides", &spec.overrides)
        .line()
}

/// Parses the body of a journal file (header + cell records), enforcing
/// the spec match and tolerating a truncated final line.
fn load_entries(
    text: &str,
    spec: &JournalSpec,
    path: &Path,
) -> Result<HashMap<String, JournalOutcome>, ScenarioError> {
    let journal_err = |msg: String| ScenarioError::Journal(format!("{}: {msg}", path.display()));
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let header = parse_flat_json_object(lines[0])
        .map_err(|e| journal_err(format!("malformed header: {e}")))?;
    if header.name != "journal" || header.tag_value("schema") != Some(JOURNAL_SCHEMA) {
        return Err(journal_err(format!(
            "not a {JOURNAL_SCHEMA} journal header: {:?}",
            lines[0]
        )));
    }
    for (field, want) in [
        ("scenario", spec.scenario.as_str()),
        ("fingerprint", spec.fingerprint.as_str()),
        ("overrides", spec.overrides.as_str()),
    ] {
        let have = header.tag_value(field).unwrap_or("<missing>");
        if have != want {
            return Err(journal_err(format!(
                "{field} mismatch: journal has {have:?}, this run wants {want:?} \
                 (resume must use the same scenario, overrides and code version; \
                 delete the journal to start over)"
            )));
        }
    }
    let mut entries = HashMap::new();
    for (i, line) in lines.iter().enumerate().skip(1) {
        let record = match parse_flat_json_object(line) {
            Ok(r) => r,
            // A torn final line is the kill point — recover by re-running
            // that cell. Torn *interior* lines mean real corruption.
            Err(_) if i + 1 == lines.len() => break,
            Err(e) => {
                return Err(journal_err(format!(
                    "corrupt record on line {}: {e}",
                    i + 1
                )))
            }
        };
        if record.name != "cell" {
            return Err(journal_err(format!(
                "unexpected record {:?} on line {}",
                record.name,
                i + 1
            )));
        }
        let Some(key) = record.tag_value("key") else {
            return Err(journal_err(format!(
                "cell record without key on line {}",
                i + 1
            )));
        };
        let outcome = match record.tag_value("status") {
            Some("ok") => JournalOutcome::Ok(cell_from_record(&record)),
            Some(status) => match FailKind::from_slug(status) {
                Some(kind) => JournalOutcome::Failed {
                    kind,
                    error: record.tag_value("error").unwrap_or_default().to_string(),
                    attempts: record
                        .tag_value("attempts")
                        .and_then(|a| a.parse().ok())
                        .unwrap_or(1),
                },
                None => {
                    return Err(journal_err(format!(
                        "unknown cell status {status:?} on line {}",
                        i + 1
                    )))
                }
            },
            None => {
                return Err(journal_err(format!(
                    "cell record without status on line {}",
                    i + 1
                )))
            }
        };
        // Last record per key wins: a resumed run re-appends the cells it
        // re-ran, superseding earlier (e.g. failed) entries.
        entries.insert(key.to_string(), outcome);
    }
    Ok(entries)
}

/// Byte length of the leading well-formed prefix: newline-terminated,
/// parseable lines. Anything beyond (a torn final line, or bytes with no
/// trailing newline) is the kill point and gets dropped on open.
fn valid_prefix_len(text: &str) -> usize {
    let mut end = 0;
    while let Some(nl) = text[end..].find('\n') {
        let line = text[end..end + nl].trim();
        if !line.is_empty() && parse_flat_json_object(line).is_err() {
            break;
        }
        end += nl + 1;
    }
    end
}

fn cell_from_record(record: &PerfRecord) -> Cell {
    Cell {
        metrics: record.metrics.clone(),
        notes: record
            .tags
            .iter()
            .filter_map(|(k, v)| {
                k.strip_prefix(NOTE_PREFIX)
                    .map(|name| (name.to_string(), v.clone()))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JournalSpec {
        JournalSpec {
            scenario: "toy".to_string(),
            fingerprint: fingerprint_hex(&["toy".to_string(), "axes".to_string()]),
            overrides: String::new(),
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("diva-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_cell() -> Cell {
        Cell {
            metrics: vec![
                ("v".to_string(), 1.0 / 3.0),
                ("latency_ms".to_string(), 12.5),
            ],
            notes: vec![("policy".to_string(), "B=8".to_string())],
        }
    }

    #[test]
    fn round_trips_ok_and_failed_cells_exactly() {
        let dir = tempdir("roundtrip");
        let spec = spec();
        {
            let (journal, cached) = Journal::open(&dir, &spec).expect("fresh open");
            assert!(cached.is_empty());
            journal.append_ok("model=m0|point=p0", &sample_cell());
            journal.append_failure("model=m1|point=p0", FailKind::Panicked, "boom", 2);
            assert!(journal.take_error().is_none());
        }
        let (_journal, cached) = Journal::open(&dir, &spec).expect("re-open");
        assert_eq!(cached.len(), 2);
        assert_eq!(
            cached["model=m0|point=p0"],
            JournalOutcome::Ok(sample_cell()),
            "metrics (incl. 1/3) and notes must round-trip exactly"
        );
        assert_eq!(
            cached["model=m1|point=p0"],
            JournalOutcome::Failed {
                kind: FailKind::Panicked,
                error: "boom".to_string(),
                attempts: 2,
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_line_bytes_are_pinned() {
        let dir = tempdir("bytes");
        let spec = JournalSpec {
            overrides: "sram_mib=8".to_string(),
            ..spec()
        };
        {
            let (journal, _) = Journal::open(&dir, &spec).expect("fresh open");
            journal.append_ok("model=m0|point=p0", &sample_cell());
            journal.append_failure(
                "model=m1|point=p0",
                FailKind::Panicked,
                "bad config: InvalidValue { param: \"x\" }\n\u{1b}",
                2,
            );
        }
        let text = std::fs::read_to_string(Journal::path_for(&dir, &spec.scenario)).expect("read");
        let header = format!(
            "{{\"name\": \"journal\", \"schema\": \"diva-journal/v1\", \"scenario\": \"toy\", \
             \"fingerprint\": \"{}\", \"overrides\": \"sram_mib=8\"}}\n",
            spec.fingerprint
        );
        let cells = concat!(
            "{\"name\": \"cell\", \"key\": \"model=m0|point=p0\", \"status\": \"ok\", ",
            "\"n:policy\": \"B=8\", \"v\": 0.3333333333333333, \"latency_ms\": 12.5}\n",
            "{\"name\": \"cell\", \"key\": \"model=m1|point=p0\", \"status\": \"panicked\", ",
            "\"error\": \"bad config: InvalidValue { param: \\\"x\\\" }\\n\\u001b\", ",
            "\"attempts\": \"2\"}\n",
        );
        assert_eq!(text, header + cells);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn control_characters_in_notes_and_errors_resume_exactly() {
        let dir = tempdir("control");
        let spec = spec();
        let cell = Cell {
            metrics: vec![("v".to_string(), 2.0)],
            notes: vec![("policy".to_string(), "a\u{1}b\u{7}c\u{1b}d } {".to_string())],
        };
        let error = "InvalidValue { param: \"x\" }\u{0}\u{1f}";
        {
            let (journal, _) = Journal::open(&dir, &spec).expect("fresh open");
            journal.append_ok("ok", &cell);
            journal.append_failure("failed", FailKind::Panicked, error, 1);
        }
        let (_journal, cached) = Journal::open(&dir, &spec).expect("re-open");
        assert_eq!(cached["ok"], JournalOutcome::Ok(cell));
        assert_eq!(
            cached["failed"],
            JournalOutcome::Failed {
                kind: FailKind::Panicked,
                error: error.to_string(),
                attempts: 1,
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_records_supersede_earlier_ones() {
        let dir = tempdir("supersede");
        let spec = spec();
        {
            let (journal, _) = Journal::open(&dir, &spec).expect("open");
            journal.append_failure("k", FailKind::Invalid, "NaN", 1);
            journal.append_ok("k", &sample_cell());
        }
        let (_j, cached) = Journal::open(&dir, &spec).expect("re-open");
        assert_eq!(cached["k"], JournalOutcome::Ok(sample_cell()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_final_line_recovers_interior_corruption_errors() {
        let dir = tempdir("truncate");
        let spec = spec();
        {
            let (journal, _) = Journal::open(&dir, &spec).expect("open");
            journal.append_ok("a", &sample_cell());
            journal.append_ok("b", &sample_cell());
        }
        let path = Journal::path_for(&dir, &spec.scenario);
        let full = std::fs::read_to_string(&path).expect("read");
        // Chop the last record mid-way: the kill-point cell re-runs, the
        // rest is reused.
        let cut = full.rfind("\"status\"").expect("has records");
        std::fs::write(&path, &full[..cut]).expect("truncate");
        {
            let (journal, cached) = Journal::open(&dir, &spec).expect("truncated journal recovers");
            assert_eq!(cached.len(), 1);
            assert!(cached.contains_key("a"));
            // Open must have dropped the torn bytes: appending the re-run
            // cell now keeps the file loadable (torn tail + append would
            // otherwise read as interior corruption next time).
            journal.append_ok("b", &sample_cell());
        }
        let (_j, cached) = Journal::open(&dir, &spec).expect("post-recovery append loads");
        assert_eq!(cached.len(), 2);
        // Interior corruption is not recoverable.
        let lines: Vec<&str> = full.lines().collect();
        let corrupted = format!(
            "{}\n{}\n{}\n",
            lines[0], "{\"name\": \"cell\", gar", lines[2]
        );
        std::fs::write(&path, corrupted).expect("corrupt");
        let err = Journal::open(&dir, &spec).expect_err("interior corruption");
        assert!(err.to_string().contains("corrupt record"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_refused_with_guidance() {
        let dir = tempdir("fingerprint");
        let spec = spec();
        {
            let _ = Journal::open(&dir, &spec).expect("open");
        }
        let other = JournalSpec {
            fingerprint: fingerprint_hex(&["different".to_string()]),
            ..spec
        };
        let err = Journal::open(&dir, &other).expect_err("mismatch");
        assert_eq!(err.exit_code(), 4);
        let text = err.to_string();
        assert!(text.contains("fingerprint mismatch"), "{text}");
        assert!(text.contains("delete the journal"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_file_starts_fresh() {
        let dir = tempdir("fresh");
        let spec = spec();
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(Journal::path_for(&dir, &spec.scenario), "").expect("touch");
        let (_j, cached) = Journal::open(&dir, &spec).expect("empty file is fresh");
        assert!(cached.is_empty());
        // The fresh open wrote a header, so a re-open parses it.
        let (_j, cached) = Journal::open(&dir, &spec).expect("header written");
        assert!(cached.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_separate_parts() {
        assert_ne!(
            fingerprint_hex(&["ab".to_string(), "c".to_string()]),
            fingerprint_hex(&["a".to_string(), "bc".to_string()])
        );
    }
}
