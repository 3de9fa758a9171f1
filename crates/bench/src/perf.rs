//! `BENCH_perf.json`'s records, and the workspace's one flat-JSON writer
//! and reader (serde is not in the approved dependency set). A flat
//! object's values are strings, numbers, booleans or `null`; a flat
//! document holds scalar fields, then named arrays of flat objects, one
//! per line:
//!
//! ```json
//! {
//!   "schema": "diva-bench-perf/v1",
//!   "host_threads": 4,
//!   "records": [
//!     {"name": "matmul_256x256x256", "backend": "serial", "ms": 0.39}
//!   ]
//! }
//! ```
//!
//! [`JsonObject`] and [`JsonDocument`] are the only code that frames JSON.
//! The reader decodes every string escape, so a brace or a control
//! character inside a string is data, not structure.

use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};

/// One benchmark record: a name, a set of string tags, and numeric metrics.
#[derive(Clone, Debug, Default)]
pub struct PerfRecord {
    /// Record id, e.g. `"matmul_256x256x256"`.
    pub name: String,
    /// String tags, e.g. `("backend", "parallel(8)")`.
    pub tags: Vec<(String, String)>,
    /// Numeric metrics, e.g. `("gflops", 41.2)`.
    pub metrics: Vec<(String, f64)>,
}

impl PerfRecord {
    /// Creates an empty record.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Self::default()
        }
    }

    /// Adds a string tag.
    pub fn tag(mut self, key: &str, value: &str) -> Self {
        self.tags.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a numeric metric (non-finite values are stored as `null`).
    pub fn metric(mut self, key: &str, value: f64) -> Self {
        self.metrics.push((key.to_string(), value));
        self
    }

    /// The value of string tag `key`, if present.
    pub fn tag_value(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of numeric metric `key`, if present (and finite).
    pub fn metric_value(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Collects [`PerfRecord`]s and serializes them to `BENCH_perf.json`.
#[derive(Clone, Debug, Default)]
pub struct PerfSink {
    records: Vec<PerfRecord>,
}

impl PerfSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: PerfRecord) {
        self.records.push(record);
    }

    /// The default output path: `BENCH_perf.json` at the workspace root
    /// (override with `DIVA_BENCH_OUT`).
    pub fn default_path() -> PathBuf {
        if let Ok(p) = std::env::var("DIVA_BENCH_OUT") {
            return PathBuf::from(p);
        }
        // CARGO_MANIFEST_DIR is crates/bench; the workspace root is two up.
        let manifest = env!("CARGO_MANIFEST_DIR");
        Path::new(manifest).join("../..").join("BENCH_perf.json")
    }

    /// Serializes the sink to a JSON string.
    pub fn to_json(&self) -> String {
        let head = JsonObject::new()
            .string("schema", "diva-bench-perf/v1")
            .integer("host_threads", diva_tensor::parallel::max_threads() as u64);
        let records = self.records.iter().map(|r| {
            JsonObject::named(&r.name)
                .strings(&r.tags)
                .numbers(&r.metrics)
        });
        JsonDocument::new(head).array("records", records).finish()
    }

    /// Writes the sink to `path` (the default path if `None`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the filesystem.
    pub fn write(&self, path: Option<&Path>) -> std::io::Result<PathBuf> {
        let path = path
            .map(Path::to_path_buf)
            .unwrap_or_else(Self::default_path);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Merges this sink's records into the perf document at `path` (the
    /// default path if `None`) and writes the result: existing rows with
    /// the same `(name, backend tag)` identity are replaced in place,
    /// every other existing row is preserved in its original order, and
    /// rows new to the document append. A missing or unparseable
    /// document is treated as empty. This is how bench drivers that
    /// record different subsystems (`compute_backend`, `serve_load`)
    /// share one `BENCH_perf.json` without clobbering each other.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the filesystem.
    pub fn write_merged(&self, path: Option<&Path>) -> std::io::Result<PathBuf> {
        let path = path
            .map(Path::to_path_buf)
            .unwrap_or_else(Self::default_path);
        let existing = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| parse_perf_json(&text).ok())
            .unwrap_or_default();
        let identity =
            |r: &PerfRecord| (r.name.clone(), r.tag_value("backend").map(str::to_string));
        let mut merged = PerfSink::new();
        for old in existing {
            let replacement = self.records.iter().find(|r| identity(r) == identity(&old));
            merged.push(replacement.unwrap_or(&old).clone());
        }
        for new in &self.records {
            if !merged.records.iter().any(|r| identity(r) == identity(new)) {
                merged.push(new.clone());
            }
        }
        std::fs::write(&path, merged.to_json())?;
        Ok(path)
    }
}

/// One flat JSON object under construction. Fields render in the order
/// they are added, as `"key": value` pairs separated by `", "`.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    /// The rendered fields, one per line: escaped strings, numbers,
    /// booleans and `null` never hold a raw newline.
    fields: String,
}

impl JsonObject {
    /// An object with no fields.
    pub fn new() -> Self {
        // Room for a typical record or reply, so building one allocates
        // once instead of growing field by field.
        Self {
            fields: String::with_capacity(512),
        }
    }

    /// An object whose first field is `"name": name`, the field the
    /// reader keeps as [`PerfRecord::name`].
    pub fn named(name: &str) -> Self {
        Self::new().string("name", name)
    }

    /// Adds a string field.
    pub fn string(self, key: &str, value: &str) -> Self {
        let mut object = self.key(key);
        write_json_string(&mut object.fields, value);
        object
    }

    /// Adds a number in `f64`'s shortest round-trip form; a non-finite
    /// value renders as `null`.
    pub fn number(self, key: &str, value: f64) -> Self {
        if value.is_finite() {
            self.value(key, value)
        } else {
            self.value(key, "null")
        }
    }

    /// Adds an integer, written exactly (an `f64` rounds one above 2^53).
    pub fn integer(self, key: &str, value: u64) -> Self {
        self.value(key, value)
    }

    /// Adds `true` or `false`.
    pub fn boolean(self, key: &str, value: bool) -> Self {
        self.value(key, value)
    }

    /// Adds each `(key, value)` pair as a string field.
    pub fn strings<'a>(self, fields: impl IntoIterator<Item = &'a (String, String)>) -> Self {
        fields.into_iter().fold(self, |o, (k, v)| o.string(k, v))
    }

    /// Adds each `(key, value)` pair as a number field.
    pub fn numbers<'a>(self, fields: impl IntoIterator<Item = &'a (String, f64)>) -> Self {
        fields.into_iter().fold(self, |o, (k, v)| o.number(k, *v))
    }

    /// The object on one newline-terminated line, as bytes: a journal
    /// line or a one-object reply body.
    pub fn line(&self) -> Vec<u8> {
        let mut out = String::with_capacity(self.fields.len() + 8);
        self.write_inline(&mut out);
        out.push('\n');
        out.into_bytes()
    }

    fn key(mut self, key: &str) -> Self {
        if !self.fields.is_empty() {
            self.fields.push('\n');
        }
        write_json_string(&mut self.fields, key);
        self.fields.push_str(": ");
        self
    }

    fn value(self, key: &str, value: impl fmt::Display) -> Self {
        let mut object = self.key(key);
        let _ = write!(object.fields, "{value}");
        object
    }

    fn write_inline(&self, out: &mut String) {
        out.push('{');
        for (i, field) in self.fields.split('\n').enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(field);
        }
        out.push('}');
    }
}

/// A flat JSON document under construction: the head object's fields one
/// per line, then each named array with one object per line.
#[derive(Debug)]
pub struct JsonDocument {
    out: String,
}

impl JsonDocument {
    /// A document whose scalar fields are `head`'s, in order.
    pub fn new(head: JsonObject) -> Self {
        let mut doc = Self { out: "{".into() };
        for field in head.fields.lines() {
            doc.entry();
            doc.out.push_str(field);
        }
        doc
    }

    /// Appends the array `key` (`[\n  ]` when `items` is empty).
    pub fn array(mut self, key: &str, items: impl IntoIterator<Item = JsonObject>) -> Self {
        self.entry();
        write_json_string(&mut self.out, key);
        self.out.push_str(": [");
        for (i, item) in items.into_iter().enumerate() {
            self.out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            item.write_inline(&mut self.out);
        }
        self.out.push_str("\n  ]");
        self
    }

    /// The finished, newline-terminated document.
    pub fn finish(mut self) -> String {
        self.out.push_str("\n}\n");
        self.out
    }

    fn entry(&mut self) {
        if self.out.len() > "{".len() {
            self.out.push(',');
        }
        self.out.push_str("\n  ");
    }
}

/// Escapes a string as a JSON string literal: quotes, backslashes and
/// every control character (`\n`, `\t`, `\r` by name, the rest as
/// `\uXXXX`). [`JsonObject`] writes every key and string this way.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A flat document read back: its scalar fields (a `"name"` string fills
/// [`PerfRecord::name`]) and its named arrays, in document order.
#[derive(Debug, Default)]
pub(crate) struct FlatDocument {
    fields: PerfRecord,
    arrays: Vec<(String, Vec<PerfRecord>)>,
}

impl FlatDocument {
    /// The string field `key`.
    pub(crate) fn string(&self, key: &str) -> Result<String, String> {
        let value = self.fields.tag_value(key).map(str::to_string);
        value.ok_or_else(|| format!("missing {key:?} key"))
    }

    /// Moves the array `key` out of the document.
    pub(crate) fn take_array(&mut self, key: &str) -> Result<Vec<PerfRecord>, String> {
        let array = self.arrays.iter_mut().find(|(k, _)| k == key);
        let items = array.map(|(_, items)| std::mem::take(items));
        items.ok_or_else(|| format!("missing {key:?} array"))
    }
}

/// Parses one flat JSON object — `{"key": "string", "key2": 1.5, ...}` —
/// into a [`PerfRecord`]-shaped bag: string values land in `tags` (a
/// `"name"` string fills `name`, which may be absent), numbers in
/// `metrics`, `true`/`false` as the tags `"true"`/`"false"`, and `null`s
/// are dropped. Request bodies (`diva-serve`) and journal lines are read
/// with it.
///
/// # Errors
///
/// Returns a description of the first malformed construct (missing
/// braces, unterminated string, bad escape, non-finite number, stray
/// token).
pub fn parse_flat_json_object(text: &str) -> Result<PerfRecord, String> {
    Reader::read_all(text, Reader::object)
}

/// Parses a flat document: an object whose values are scalars or arrays
/// of flat objects, each read as [`parse_flat_json_object`] reads one.
pub(crate) fn parse_flat_document(text: &str) -> Result<FlatDocument, String> {
    Reader::read_all(text, |reader| {
        let mut doc = FlatDocument::default();
        reader.members(|reader, key| {
            if reader.skip_ws() != Some(b'[') {
                return reader.scalar(key, &mut doc.fields);
            }
            let mut items = Vec::new();
            let read = reader.list(*b"[]", |reader| {
                reader.object().map(|item| items.push(item))
            });
            read.map_err(|e| format!("in {key:?} array: {e}"))?;
            doc.arrays.push((key, items));
            Ok(())
        })?;
        Ok(doc)
    })
}

/// Parses the `records` array of a `BENCH_perf.json` document (or of any
/// flat document with one); every record must have a name. The CI
/// regression gate (`bench_regress`) uses it to diff a fresh run against
/// the committed record.
///
/// # Errors
///
/// Returns a description of the first malformed construct encountered.
pub fn parse_perf_json(text: &str) -> Result<Vec<PerfRecord>, String> {
    let records = parse_flat_document(text)?.take_array("records")?;
    if records.iter().any(|r| r.name.is_empty()) {
        return Err("record without a name".to_string());
    }
    Ok(records)
}

/// A cursor over flat JSON text; `pos` always sits on a char boundary.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Runs `read` on `text`, which must hold only whitespace after it.
    fn read_all<T>(
        text: &'a str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut reader = Reader { text, pos: 0 };
        let value = read(&mut reader)?;
        match reader.skip_ws() {
            None => Ok(value),
            Some(_) => Err(format!("unexpected text at byte {}", reader.pos)),
        }
    }

    /// Skips whitespace and returns the byte after it, unconsumed.
    fn skip_ws(&mut self) -> Option<u8> {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start().len();
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.skip_ws() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    /// Reads `open item, item, ... close`, calling `item` for each item.
    fn list(
        &mut self,
        [open, close]: [u8; 2],
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if !self.eat(open) {
            return Err(format!("expected '{}' at byte {}", open as char, self.pos));
        }
        let mut first = true;
        while !self.eat(close) {
            if !first && !self.eat(b',') {
                return Err(format!(
                    "expected ',' or '{}' at byte {}",
                    close as char, self.pos
                ));
            }
            item(self)?;
            first = false;
        }
        Ok(())
    }

    /// Reads `{"key": value, ...}`, handing each key to `member` with the
    /// cursor before its value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.list(*b"{}", |reader| {
            let key = reader.string()?;
            if !reader.eat(b':') {
                return Err(format!("expected ':' after key {key:?}"));
            }
            member(reader, key)
        })
    }

    fn object(&mut self) -> Result<PerfRecord, String> {
        let mut record = PerfRecord::default();
        self.members(|reader, key| reader.scalar(key, &mut record))?;
        Ok(record)
    }

    /// Reads a string, number, boolean or `null` into `record`.
    fn scalar(&mut self, key: String, record: &mut PerfRecord) -> Result<(), String> {
        if self.skip_ws() == Some(b'"') {
            let value = self.string()?;
            if key == "name" {
                record.name = value;
            } else {
                record.tags.push((key, value));
            }
            return Ok(());
        }
        let rest = &self.text[self.pos..];
        let raw = rest
            .split(|c: char| matches!(c, ',' | '}' | ']') || c.is_whitespace())
            .next()
            .unwrap_or_default();
        self.pos += raw.len();
        match raw {
            "null" => {}
            "true" | "false" => record.tags.push((key, raw.to_string())),
            _ => {
                // Rust's f64 parser accepts "NaN" and "inf"; JSON has no
                // such literals, so a document carrying them is corrupt.
                let v = raw.parse::<f64>().ok().filter(|v| v.is_finite());
                let v = v.ok_or_else(|| {
                    format!("bad number {raw:?} for key {key:?} (non-finite numbers are null)")
                })?;
                record.metrics.push((key, v));
            }
        }
        Ok(())
    }

    /// Reads a string literal, decoding every JSON escape.
    fn string(&mut self) -> Result<String, String> {
        self.skip_ws();
        let Some(mut rest) = self.text[self.pos..].strip_prefix('"') else {
            return Err(format!("expected a string at byte {}", self.pos));
        };
        let mut out = String::new();
        loop {
            let Some(at) = rest.find(['"', '\\']) else {
                return Err("unterminated string".to_string());
            };
            out.push_str(&rest[..at]);
            if rest.as_bytes()[at] == b'"' {
                self.pos = self.text.len() - rest.len() + at + 1;
                return Ok(out);
            }
            let mut chars = rest[at + 1..].chars();
            out.push(match chars.next() {
                Some(c @ ('"' | '\\' | '/')) => c,
                Some('n') => '\n',
                Some('t') => '\t',
                Some('r') => '\r',
                Some('b') => '\u{8}',
                Some('f') => '\u{c}',
                Some('u') => unicode_escape(&mut chars)?,
                Some(other) => return Err(format!("invalid escape \\{other}")),
                None => return Err("dangling escape".to_string()),
            });
            rest = chars.as_str();
        }
    }
}

/// Decodes the `XXXX` of a `\uXXXX` escape (and the low half of a
/// surrogate pair escaped right after a high one), consuming it.
fn unicode_escape(chars: &mut std::str::Chars<'_>) -> Result<char, String> {
    let hex4 = |s: &str| {
        let digits = s
            .get(..4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        digits.and_then(|h| u32::from_str_radix(h, 16).ok())
    };
    let mut code = hex4(chars.as_str()).ok_or("\\u wants four hex digits")?;
    chars.nth(3);
    if (0xD800..0xDC00).contains(&code) {
        let low = chars.as_str().strip_prefix("\\u").and_then(hex4);
        if let Some(low @ 0xDC00..=0xDFFF) = low {
            chars.nth(5);
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
    }
    char::from_u32(code).ok_or_else(|| format!("\\u{code:04x} is not a character"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_is_well_formed() {
        let mut sink = PerfSink::new();
        sink.push(
            PerfRecord::new("matmul_256")
                .tag("backend", "serial")
                .metric("gflops", 16.5)
                .metric("bad", f64::NAN),
        );
        let json = sink.to_json();
        assert!(json.contains("\"name\": \"matmul_256\""));
        assert!(json.contains("\"backend\": \"serial\""));
        assert!(json.contains("\"gflops\": 16.5"));
        assert!(json.contains("\"bad\": null"));
        // Balanced braces/brackets as a cheap well-formedness proxy.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn parse_round_trips_emitted_json() {
        let mut sink = PerfSink::new();
        sink.push(
            PerfRecord::new("conv_dpsgdr_step_b32")
                .tag("backend", "serial")
                .tag("algorithm", "DP-SGD(R)")
                .metric("ms", 12.5)
                .metric("speedup_vs_scalar", 3.25)
                .metric("nan_metric", f64::NAN),
        );
        sink.push(
            PerfRecord::new("host")
                .tag("backend", "info")
                .metric("threads", 4.0),
        );
        let parsed = parse_perf_json(&sink.to_json()).expect("round trip");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "conv_dpsgdr_step_b32");
        assert_eq!(parsed[0].tag_value("backend"), Some("serial"));
        assert_eq!(parsed[0].tag_value("algorithm"), Some("DP-SGD(R)"));
        assert_eq!(parsed[0].metric_value("ms"), Some(12.5));
        assert_eq!(parsed[0].metric_value("speedup_vs_scalar"), Some(3.25));
        // NaN was serialized as null and therefore dropped on parse.
        assert_eq!(parsed[0].metric_value("nan_metric"), None);
        assert_eq!(parsed[1].metric_value("threads"), Some(4.0));
    }

    #[test]
    fn flat_object_parse_accepts_nameless_bodies() {
        let r = parse_flat_json_object(
            "{\"scenario\": \"fig13\", \"models\": \"mobilenet,squeezenet\", \"steps\": 100}",
        )
        .expect("flat object");
        assert_eq!(r.name, "");
        assert_eq!(r.tag_value("scenario"), Some("fig13"));
        assert_eq!(r.metric_value("steps"), Some(100.0));
        assert!(parse_flat_json_object("not json").is_err());
        assert!(parse_flat_json_object("{\"k\": nope}").is_err());
    }

    #[test]
    fn write_merged_replaces_by_identity_and_keeps_foreign_rows() {
        let dir = std::env::temp_dir().join(format!("diva_perf_merge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perf.json");

        let mut first = PerfSink::new();
        first.push(
            PerfRecord::new("conv_b32")
                .tag("backend", "pool")
                .metric("ms", 10.0),
        );
        first.push(
            PerfRecord::new("conv_b32")
                .tag("backend", "scalar")
                .metric("ms", 50.0),
        );
        first.write(Some(&path)).unwrap();

        let mut second = PerfSink::new();
        second.push(
            PerfRecord::new("conv_b32")
                .tag("backend", "pool")
                .metric("ms", 8.0),
        );
        second.push(
            PerfRecord::new("serve_eps")
                .tag("backend", "cached")
                .metric("p50_us", 90.0),
        );
        second.write_merged(Some(&path)).unwrap();

        let merged = parse_perf_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(merged.len(), 3);
        // Replaced in place, original order kept, new row appended.
        assert_eq!(merged[0].metric_value("ms"), Some(8.0));
        assert_eq!(merged[1].tag_value("backend"), Some("scalar"));
        assert_eq!(merged[2].name, "serve_eps");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perf_document_bytes_are_pinned() {
        let mut sink = PerfSink::new();
        sink.push(
            PerfRecord::new("conv \"b8\"")
                .tag("backend", "serial")
                .tag("algorithm", "DP-SGD(R)")
                .metric("ms", 12.5)
                .metric("nan_metric", f64::NAN)
                .metric("speedup_vs_scalar", 1.0),
        );
        sink.push(PerfRecord::new("host").metric("threads", 4.0));
        let expected = format!(
            "{{\n  \"schema\": \"diva-bench-perf/v1\",\n  \"host_threads\": {},\n  \
             \"records\": [\n    {{\"name\": \"conv \\\"b8\\\"\", \"backend\": \"serial\", \
             \"algorithm\": \"DP-SGD(R)\", \"ms\": 12.5, \"nan_metric\": null, \
             \"speedup_vs_scalar\": 1}},\n    {{\"name\": \"host\", \"threads\": 4}}\n  ]\n}}\n",
            diva_tensor::parallel::max_threads()
        );
        assert_eq!(sink.to_json(), expected);
        assert_eq!(
            PerfSink::new().to_json(),
            format!(
                "{{\n  \"schema\": \"diva-bench-perf/v1\",\n  \"host_threads\": {},\n  \
                 \"records\": [\n  ]\n}}\n",
                diva_tensor::parallel::max_threads()
            )
        );
    }

    #[test]
    fn committed_perf_document_re_renders_byte_for_byte() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf.json");
        let committed = std::fs::read_to_string(path).expect("committed BENCH_perf.json");
        let mut sink = PerfSink::new();
        for record in parse_perf_json(&committed).expect("committed document parses") {
            sink.push(record);
        }
        // The document records the thread count of the host that wrote it.
        let host_line = |threads: &str| format!("\n  \"host_threads\": {threads},\n");
        let file_threads = committed
            .split_once("\"host_threads\": ")
            .and_then(|(_, rest)| rest.split_once(','))
            .map(|(threads, _)| threads)
            .expect("host_threads field");
        let rendered = sink.to_json().replacen(
            &host_line(&diva_tensor::parallel::max_threads().to_string()),
            &host_line(file_threads),
            1,
        );
        assert_eq!(rendered, committed);
    }

    #[test]
    fn control_characters_quotes_and_backslashes_round_trip() {
        let mut sink = PerfSink::new();
        let mut all = String::new();
        for c in (0u32..0x20).filter_map(char::from_u32).chain(['"', '\\']) {
            let value = format!("a{c}b");
            all.push(c);
            sink.push(PerfRecord::new(&value).tag("value", &value));
        }
        sink.push(PerfRecord::new(&all).tag(&all, &all));
        let parsed = parse_perf_json(&sink.to_json()).expect("escaped strings parse");
        assert_eq!(parsed.len(), sink.records.len());
        for (read, written) in parsed.iter().zip(&sink.records) {
            assert_eq!(read.name, written.name);
            assert_eq!(read.tags, written.tags);
        }
    }

    #[test]
    fn a_closing_brace_inside_a_string_does_not_end_the_record() {
        let mut sink = PerfSink::new();
        sink.push(
            PerfRecord::new("x } y")
                .tag("note", "a } b { c ] d [")
                .metric("ms", 1.5),
        );
        sink.push(PerfRecord::new("next").metric("ms", 2.0));
        let parsed = parse_perf_json(&sink.to_json()).expect("braces inside strings");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "x } y");
        assert_eq!(parsed[0].tag_value("note"), Some("a } b { c ] d ["));
        assert_eq!(parsed[0].metric_value("ms"), Some(1.5));
        assert_eq!(parsed[1].metric_value("ms"), Some(2.0));
    }

    #[test]
    fn reader_decodes_every_escape_and_rejects_bad_ones() {
        let r = parse_flat_json_object(
            r#" { "e": "\u00e9\/\b\f", "pair": "\ud83d\ude00", "ok": true, "gone": null } "#,
        )
        .expect("escapes");
        assert_eq!(r.tag_value("e"), Some("é/\u{8}\u{c}"));
        assert_eq!(r.tag_value("pair"), Some("😀"));
        assert_eq!(r.tag_value("ok"), Some("true"));
        assert_eq!((r.tags.len(), r.metrics.len()), (3, 0));
        for bad in [
            r#"{"k": "\x"}"#,
            r#"{"k": "\u12"}"#,
            r#"{"k": "\u00é"}"#,
            r#"{"k": "\ud83d"}"#,
            r#"{"k": "a\"#,
            r#"{"k": 1,}"#,
            r#"{"k": 1 "j": 2}"#,
            r#"{"k": [1]}"#,
            r#"{"k": 1} {"#,
            r#"{"k": inf}"#,
        ] {
            assert!(parse_flat_json_object(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_truncation_of_a_document_errors() {
        let mut sink = PerfSink::new();
        sink.push(
            PerfRecord::new("é } {")
                .tag("note", "\u{1}[\"]")
                .metric("ms", 1.5),
        );
        sink.push(PerfRecord::new("b").metric("ms", 2.0));
        let doc = sink.to_json();
        let end = doc.rfind('}').expect("closing brace") + 1;
        for cut in (0..end).filter(|&cut| doc.is_char_boundary(cut)) {
            assert!(parse_perf_json(&doc[..cut]).is_err(), "{:?}", &doc[..cut]);
        }
        assert_eq!(parse_perf_json(&doc[..end]).map(|r| r.len()), Ok(2));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse_perf_json("{}").is_err());
        assert!(parse_perf_json("{\"records\": [{\"ms\": 1.0}]}").is_err());
        assert!(parse_perf_json("{\"records\": [{\"name\": \"x\", \"ms\": bogus}]}").is_err());
    }
}
