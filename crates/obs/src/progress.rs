//! JSONL progress streaming.
//!
//! Long-running jobs emit one [`Snapshot`] per reporting boundary as a
//! single JSON line to a [`ProgressSink`]. The stream is append-only and
//! self-describing: every line carries the schema version, a `kind`
//! discriminator (`"sim"`, `"sweep"`, `"campaign"`), and a monotonically
//! increasing per-job `seq`, so a dashboard (`heteronoc top`) can tail a
//! file shared by several jobs and render the latest state of each.
//!
//! Emission is strictly observational: sinks are plain buffered writers,
//! snapshot building draws no randomness, and a failed write surfaces as an
//! `io::Error` for the *caller* to handle (jobs log-and-continue — a full
//! disk must not kill a multi-hour campaign).

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::json;
use crate::registry::Registry;

/// Version of the progress snapshot line format. Bump on breaking changes
/// to field names or semantics; consumers must check it.
///
/// * v1 — initial: `schema`, `kind`, `seq`, job-specific fields, optional
///   `counters` (registry object) and `deltas` (counter increments since
///   the previous snapshot of the same job).
pub const PROGRESS_SCHEMA: u32 = 1;

/// Builder for one progress line. Fields render in insertion order, after
/// the fixed `schema`/`kind`/`seq` header.
#[derive(Debug, Clone)]
pub struct Snapshot {
    body: String,
}

impl Snapshot {
    /// Start a snapshot of the given kind and sequence number.
    pub fn new(kind: &str, seq: u64) -> Self {
        let mut body = String::with_capacity(256);
        body.push_str("{\"schema\":");
        body.push_str(&PROGRESS_SCHEMA.to_string());
        body.push_str(",\"kind\":");
        let _ = json::write_str(&mut body, kind);
        body.push_str(",\"seq\":");
        body.push_str(&seq.to_string());
        Snapshot { body }
    }

    fn key(&mut self, key: &str) -> &mut String {
        self.body.push(',');
        let _ = json::write_str(&mut self.body, key);
        self.body.push(':');
        &mut self.body
    }

    /// Append an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key).push_str(&v.to_string());
        self
    }

    /// Append a float field (`null` when non-finite).
    pub fn field_f64(&mut self, key: &str, v: f64) -> &mut Self {
        let _ = json::write_f64(self.key(key), v);
        self
    }

    /// Append a string field.
    pub fn field_str(&mut self, key: &str, v: &str) -> &mut Self {
        let _ = json::write_str(self.key(key), v);
        self
    }

    /// Append a boolean field.
    pub fn field_bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// Append the full registry as a nested object under `key`.
    pub fn registry(&mut self, key: &str, reg: &Registry) -> &mut Self {
        let body = self.key(key);
        reg.push_json(body);
        self
    }

    /// Append counter increments of `reg` since `baseline` as a nested
    /// object under `key` (omitted entirely when nothing grew).
    pub fn deltas(&mut self, key: &str, reg: &Registry, baseline: &Registry) -> &mut Self {
        let deltas = reg.counter_deltas(baseline);
        if deltas.is_empty() {
            return self;
        }
        let body = self.key(key);
        body.push('{');
        for (i, (path, d)) in deltas.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = json::write_str(body, path);
            body.push(':');
            body.push_str(&d.to_string());
        }
        body.push('}');
        self
    }

    /// Finish the line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = self.body.clone();
        out.push('}');
        out
    }
}

/// Where progress lines go: a file path, `-` for stdout, or `fd:N` for an
/// inherited file descriptor.
pub struct ProgressSink {
    out: BufWriter<Box<dyn Write + Send>>,
    spec: String,
}

impl fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressSink")
            .field("spec", &self.spec)
            .finish()
    }
}

impl ProgressSink {
    /// Open a sink from a `--progress` spec:
    ///
    /// * `-` — standard output;
    /// * `fd:N` — inherited file descriptor `N` (via `/dev/fd/N`);
    /// * anything else — a file path, created/truncated.
    pub fn open(spec: &str) -> io::Result<ProgressSink> {
        let out: Box<dyn Write + Send> = if spec == "-" {
            Box::new(io::stdout())
        } else if let Some(fd) = spec.strip_prefix("fd:") {
            let fd: u32 = fd.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("invalid file descriptor in progress spec '{spec}'"),
                )
            })?;
            Box::new(File::options().write(true).open(format!("/dev/fd/{fd}"))?)
        } else {
            Box::new(File::create(Path::new(spec))?)
        };
        Ok(ProgressSink {
            out: BufWriter::new(out),
            spec: spec.to_string(),
        })
    }

    /// A sink writing to an arbitrary writer (tests, in-memory buffers).
    pub fn from_writer(w: Box<dyn Write + Send>) -> ProgressSink {
        ProgressSink {
            out: BufWriter::new(w),
            spec: "<writer>".to_string(),
        }
    }

    /// The spec this sink was opened from.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Write one snapshot line and flush, so `heteronoc top` sees complete
    /// lines immediately.
    pub fn emit(&mut self, snap: &Snapshot) -> io::Result<()> {
        self.out.write_all(snap.render().as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn snapshot_renders_header_and_fields_in_order() {
        let mut s = Snapshot::new("sim", 3);
        s.field_u64("cycle", 500)
            .field_f64("eta_secs", 1.5)
            .field_str("phase", "measure")
            .field_bool("done", false);
        assert_eq!(
            s.render(),
            "{\"schema\":1,\"kind\":\"sim\",\"seq\":3,\"cycle\":500,\
             \"eta_secs\":1.5,\"phase\":\"measure\",\"done\":false}"
        );
    }

    #[test]
    fn deltas_field_omitted_when_empty() {
        let reg = Registry::new();
        let mut s = Snapshot::new("sweep", 0);
        s.deltas("deltas", &reg, &reg);
        assert_eq!(s.render(), "{\"schema\":1,\"kind\":\"sweep\",\"seq\":0}");

        let mut now = Registry::new();
        now.counter_add("done", 2);
        let mut s = Snapshot::new("sweep", 1);
        s.deltas("deltas", &now, &reg);
        assert!(s.render().ends_with(",\"deltas\":{\"done\":2}}"));
    }

    #[test]
    fn sink_emits_one_line_per_snapshot() {
        let buf = Shared::default();
        let mut sink = ProgressSink::from_writer(Box::new(buf.clone()));
        sink.emit(Snapshot::new("sim", 0).field_u64("cycle", 1))
            .unwrap();
        sink.emit(Snapshot::new("sim", 1).field_u64("cycle", 2))
            .unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"cycle\":2"));
    }

    #[test]
    fn bad_fd_spec_is_rejected() {
        assert!(ProgressSink::open("fd:notanumber").is_err());
    }
}
