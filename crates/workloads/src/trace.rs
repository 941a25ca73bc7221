//! Portable message-trace I/O.
//!
//! The paper feeds CODES with DUMPI MPI traces; those are binary,
//! proprietary-tooling formats. This module provides the equivalent open
//! input path: a plain CSV trace of timed messages
//! (`time_ns,src,dst,bytes,job`) that can be exported from any tracing
//! tool, plus writers so synthesized workloads can be persisted and
//! re-simulated bit-identically.

use hrviz_network::{MsgInjection, TerminalId};
use hrviz_pdes::SimTime;
use std::io::{BufRead, Write};

/// Trace parse failure, with 1-based line number.
#[derive(Debug)]
pub struct TraceError {
    /// Line the error occurred on (0 for I/O errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

/// The header written/expected (a leading `#` comment line is also
/// tolerated, as are blank lines).
pub const TRACE_HEADER: &str = "time_ns,src,dst,bytes,job";

/// Write messages as CSV.
pub fn write_trace(mut w: impl Write, msgs: &[MsgInjection]) -> std::io::Result<()> {
    writeln!(w, "{TRACE_HEADER}")?;
    for m in msgs {
        writeln!(w, "{},{},{},{},{}", m.time.as_nanos(), m.src.0, m.dst.0, m.bytes, m.job)?;
    }
    Ok(())
}

/// Read messages from CSV (inverse of [`write_trace`]).
pub fn read_trace(r: impl BufRead) -> Result<Vec<MsgInjection>, TraceError> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let lineno = i + 1;
        let line = line.map_err(|e| TraceError { line: lineno, message: e.to_string() })?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line == TRACE_HEADER {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 5 {
            return Err(TraceError {
                line: lineno,
                message: format!("expected 5 fields, got {}", fields.len()),
            });
        }
        out.push(MsgInjection {
            time: SimTime(field(fields[0], "time_ns", lineno)?),
            src: TerminalId(field(fields[1], "src", lineno)?),
            dst: TerminalId(field(fields[2], "dst", lineno)?),
            bytes: field(fields[3], "bytes", lineno)?,
            job: field(fields[4], "job", lineno)?,
        });
    }
    Ok(out)
}

/// Parse one field straight into its own width, so a value that does not
/// fit (a source above `u32::MAX`, a job above `u16::MAX`) is an error
/// rather than a silent wrap.
fn field<T: std::str::FromStr>(s: &str, what: &str, line: usize) -> Result<T, TraceError> {
    s.parse().map_err(|_| TraceError {
        line,
        message: format!("bad {what}: {s:?} (not a {})", std::any::type_name::<T>()),
    })
}

/// Convenience: read a trace file from disk.
pub fn load_trace(path: &std::path::Path) -> Result<Vec<MsgInjection>, TraceError> {
    let f = std::fs::File::open(path)
        .map_err(|e| TraceError { line: 0, message: format!("{}: {e}", path.display()) })?;
    read_trace(std::io::BufReader::new(f))
}

/// Convenience: write a trace file to disk.
pub fn save_trace(path: &std::path::Path, msgs: &[MsgInjection]) -> std::io::Result<()> {
    write_trace(std::io::BufWriter::new(std::fs::File::create(path)?), msgs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msgs() -> Vec<MsgInjection> {
        vec![
            MsgInjection {
                time: SimTime(0),
                src: TerminalId(3),
                dst: TerminalId(7),
                bytes: 4096,
                job: 0,
            },
            MsgInjection {
                time: SimTime(1500),
                src: TerminalId(7),
                dst: TerminalId(3),
                bytes: 123,
                job: 2,
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &msgs()).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, msgs());
    }

    #[test]
    fn tolerates_comments_blanks_and_whitespace() {
        let text = format!("# exported by some tool\n\n{TRACE_HEADER}\n 10 , 1 , 2 , 300 , 0 \n");
        let back = read_trace(text.as_bytes()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].bytes, 300);
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let text = format!("{TRACE_HEADER}\n1,2,3,4,5\n1,2,3\n");
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("5 fields"));

        let text = format!("{TRACE_HEADER}\nnope,2,3,4,5\n");
        let err = read_trace(text.as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("time_ns"));
    }

    #[test]
    fn rejects_values_wider_than_their_field() {
        for (row, what) in [
            ("0,4294967296,1,8,0", "src"),
            ("0,1,4294967297,8,0", "dst"),
            ("0,1,2,8,65536", "job"),
            ("0,1,2,18446744073709551616,0", "bytes"),
            ("0,-1,2,8,0", "src"),
        ] {
            let text = format!("{TRACE_HEADER}\n0,1,2,8,65535\n{row}\n");
            let err = read_trace(text.as_bytes()).expect_err(row);
            assert_eq!(err.line, 3, "{row}");
            assert!(err.message.contains(what), "{row}: {err}");
        }
    }

    #[test]
    fn file_roundtrip_and_simulation() {
        use hrviz_network::{DragonflyConfig, NetworkSpec, Simulation};
        let dir = std::env::temp_dir().join("hrviz_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let trace = msgs();
        save_trace(&path, &trace).unwrap();
        let loaded = load_trace(&path).unwrap();
        assert_eq!(loaded, trace);
        // Loaded traces drive a simulation directly.
        let mut sim = Simulation::new(NetworkSpec::new(DragonflyConfig::canonical(2)));
        sim.inject_all(loaded);
        let run = sim.try_run().expect("simulation completes");
        assert_eq!(run.total_delivered(), 4096 + 123);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_errors_cleanly() {
        let err = load_trace(std::path::Path::new("/nonexistent/trace.csv")).unwrap_err();
        assert_eq!(err.line, 0);
    }
}
