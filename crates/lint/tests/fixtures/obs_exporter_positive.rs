// Fixture: exporter/ring-buffer code reached from failure handlers
// (flight dumps, worker-panic paths) must not itself panic — bare
// indexing here must be flagged.
pub fn export_line(records: &[String], out: &mut Vec<u8>) -> Option<()> {
    let first = &records[0];
    let comma = first.find(',')?;
    out.extend_from_slice(first[..comma].as_bytes());
    Some(())
}
