//! The decoders that read hrviz's files never panic on damaged input.
//!
//! Each test takes a document its format's real writer produced and puts
//! deterministic mutations of it through the real decoder: truncate, flip
//! a bit, duplicate or delete a line, splice in nesting up to 100,000
//! levels. The decoder must return a value or a structured error. A value it accepts
//! must come back unchanged from a re-render with the writer and a second
//! decode. A run store's files go through the public store API instead:
//! an accepted manifest must equal the unmutated one, and a mutated column
//! file must load or fail with a parse error naming it.

use std::fs;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use hrviz_faults::{FaultEvent, FaultSchedule, HrvizError};
use hrviz_network::{MsgInjection, TerminalId};
use hrviz_obs::{fingerprint64, Collector, Json};
use hrviz_pdes::SimTime;
use hrviz_stream::{Progress, Slice, SliceWriter};
use hrviz_sweep::{RunState, RunStore, SweepJournal, SweepSpec, TopologyAxis};
use hrviz_workloads::{read_trace, write_trace};

/// A deterministic mutation of `text`, chosen by `case`.
fn mutate(text: &str, case: u64) -> String {
    let mut state = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let mut next = move |n: usize| {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let mut bytes = text.as_bytes().to_vec();
    let at = next(bytes.len());
    let lines: Vec<&str> = text.lines().collect();
    let line = next(lines.len());
    match case % 5 {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << next(8),
        2 | 3 => {
            let mut kept = lines.clone();
            if case % 5 == 2 {
                kept.insert(line, lines[line]);
            } else {
                kept.remove(line);
            }
            bytes = (kept.join("\n") + "\n").into_bytes();
        }
        _ => {
            let depth = [1, 64, 127, 128, 129, 100_000][next(6)];
            let close = if next(2) == 0 { "]".repeat(depth) } else { String::new() };
            let splice = "[".repeat(depth) + &close;
            bytes.splice(at..at, splice.into_bytes());
        }
    }
    // A flip or a splice may split a UTF-8 sequence; decoders read `&str`.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Put `cases` mutations of `doc` through `decode`, which returns whether
/// it accepted the document (checking the round trip when it did). Both
/// outcomes must occur.
fn fuzz(doc: &str, cases: Range<u64>, decode: impl Fn(&str) -> bool) {
    let (mut accepted, mut rejected) = (0, 0);
    for case in cases {
        let text = mutate(doc, case);
        match catch_unwind(AssertUnwindSafe(|| decode(&text))) {
            Ok(true) => accepted += 1,
            Ok(false) => rejected += 1,
            Err(_) => panic!("case {case} panicked on {text:?}"),
        }
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
}

/// A decoder error must be the parse kind, never another failure.
fn parse_error(e: HrvizError) -> bool {
    assert!(matches!(e, HrvizError::Parse { .. }), "not a parse error: {e}");
    false
}

/// A decoder error in text must say what is wrong.
fn text_error(e: String) -> bool {
    assert!(!e.is_empty(), "empty error");
    false
}

fn schedules(cases: Range<u64>) {
    let mut sched = FaultSchedule::generate(7, 16, 12, 12, 1_000_000);
    sched.push(SimTime(5), FaultEvent::DegradedLink { router: 3, port: 4, factor: 0.375 });
    fuzz(&sched.to_json(), cases, |text| match FaultSchedule::from_json(text) {
        Ok(s) => {
            assert_eq!(FaultSchedule::from_json(&s.to_json()).unwrap(), s);
            true
        }
        Err(e) => parse_error(e),
    });
}

fn traces(cases: Range<u64>) {
    let msgs: Vec<MsgInjection> = (0..40u32)
        .map(|i| MsgInjection {
            time: SimTime(u64::from(i) * 997),
            src: TerminalId(i % 72),
            dst: TerminalId((i * 7 + 3) % 72),
            bytes: 64 << (i % 8),
            job: (i % 3) as u16,
        })
        .collect();
    let mut doc = Vec::new();
    write_trace(&mut doc, &msgs).unwrap();
    fuzz(&String::from_utf8(doc).unwrap(), cases, |text| match read_trace(text.as_bytes()) {
        Ok(m) => {
            let mut again = Vec::new();
            write_trace(&mut again, &m).unwrap();
            assert_eq!(read_trace(again.as_slice()).unwrap(), m);
            true
        }
        Err(e) => text_error(e.to_string()),
    });
}

/// A fresh directory for one test; tests run on parallel threads.
fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hrviz-decoder-fuzz-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A run directory's `progress.json` and first slice segment, as a
/// [`SliceWriter`] leaves them after five seals and a completion. Written
/// once and shared by every test that reads them.
fn streamed_files() -> &'static (String, String) {
    static FILES: OnceLock<(String, String)> = OnceLock::new();
    FILES.get_or_init(write_streamed_files)
}

fn write_streamed_files() -> (String, String) {
    let dir = tmp("stream");
    let mut w =
        SliceWriter::create(&dir, "00c0ffee00c0ffee", 5_000, Collector::disabled()).unwrap();
    for seq in 0..5 {
        let slice = Slice {
            seq,
            t_start_ns: seq * 5_000,
            t_end_ns: (seq + 1) * 5_000,
            delivered_packets: 40 + seq,
            delivered_bytes: 81_920 + seq,
            injected_packets: 44,
            injected_bytes: 90_112,
            dropped_packets: seq % 2,
            latency_sum_ns: 512_431 * seq,
            latency_hist: [0, 2, 30, 9, seq, 0, 0, 1],
            vc_sat_ns: 7_331,
        };
        w.seal(&slice).unwrap();
    }
    w.finish("completed").unwrap();
    let read = |name: &str| fs::read_to_string(dir.join(name)).unwrap();
    let files = (read("progress.json"), read("slices/0000.jsonl"));
    let _ = fs::remove_dir_all(&dir);
    files
}

fn progress(cases: Range<u64>) {
    fuzz(&streamed_files().0, cases, |text| match Progress::from_json(text) {
        Ok(p) => {
            assert_eq!(Progress::from_json(&p.to_json()).unwrap(), p);
            true
        }
        Err(e) => parse_error(e),
    });
}

/// A segment decodes line by line, as `hrviz_stream::read_slices` reads it.
fn slice_segments(cases: Range<u64>) {
    let decode = |text: &str| -> Result<Vec<Slice>, HrvizError> {
        text.lines().map(str::trim).filter(|l| !l.is_empty()).map(Slice::from_json).collect()
    };
    fuzz(&streamed_files().1, cases, |text| match decode(text) {
        Ok(slices) => {
            let rendered: Vec<String> = slices.iter().map(Slice::to_json).collect();
            assert_eq!(decode(&(rendered.join("\n") + "\n")).unwrap(), slices);
            true
        }
        Err(e) => parse_error(e),
    });
}

fn journals(cases: Range<u64>) {
    let mut j = SweepJournal::new("5eed5eed5eed5eed", "grid \"α\"");
    j.pending_generation = 9;
    j.record("00000000000000aa", RunState::Running, true);
    j.record("00000000000000aa", RunState::Completed, false);
    j.record("00000000000000bb", RunState::Failed, true);
    j.record("00000000000000cc", RunState::Aborted, true);
    // Seeded in the older layout, whose per-layout intent list the parser
    // skips: mutations then reach both the skipped key and the kept ones.
    let doc = j.to_json().render().replacen(
        "\"pending_generation\":9,",
        "\"pending_generation\":9,\"pending_shards\":[{\"shard\":0,\"generation\":9}],",
        1,
    ) + "\n";
    assert_eq!(SweepJournal::parse(&doc).unwrap(), j);
    fuzz(&doc, cases, |text| match SweepJournal::parse(text) {
        Ok(j) => {
            assert_eq!(SweepJournal::parse(&j.to_json().render()).unwrap(), j);
            true
        }
        Err(e) => text_error(e),
    });
}

/// A store under `tmp(name)` holding one 72-terminal run: the store, the
/// run's id and its directory.
fn stored_run(name: &str) -> (RunStore, String, PathBuf) {
    let store = RunStore::open(tmp(name)).unwrap();
    let cfg = SweepSpec::new("t", TopologyAxis::Dragonfly { terminals: 72 })
        .msgs_per_rank(2)
        .msg_bytes(1024)
        .period(SimTime::micros(1))
        .expand()
        .unwrap()
        .remove(0);
    let dir = store.save(&cfg, &cfg.execute().unwrap()).unwrap();
    (store, cfg.run_id(), dir)
}

/// Put `cases` mutations of the stored file `path` through `load`, which
/// writes the text and loads the run. The load must return a value, which
/// goes to `check`, or a parse error naming `path`; never panic. Returns
/// how many loads were accepted and how many rejected.
fn fuzz_stored<T>(
    path: &Path,
    cases: Range<u64>,
    load: impl Fn(&str) -> Result<T, HrvizError>,
    check: impl Fn(T),
) -> (u32, u32) {
    let original = fs::read_to_string(path).unwrap();
    let what = path.display().to_string();
    let (mut accepted, mut rejected) = (0, 0);
    for case in cases {
        match catch_unwind(AssertUnwindSafe(|| load(&mutate(&original, case)))) {
            Err(_) => panic!("case {case}: load panicked"),
            Ok(Ok(value)) => {
                check(value);
                accepted += 1;
            }
            Ok(Err(HrvizError::Parse { what: w, .. })) if w == what => rejected += 1,
            Ok(Err(e)) => panic!("case {case}: not a parse error naming the file: {e}"),
        }
    }
    (accepted, rejected)
}

fn manifests(name: &str, cases: Range<u64>) {
    let (store, run, dir) = stored_run(name);
    let path = dir.join("manifest.json");
    let original = store.load_manifest(&run).unwrap();
    let load = |text: &str| {
        fs::write(&path, text).unwrap();
        store.load_manifest(&run)
    };
    // The manifest's own checksum covers every field, so an accepted
    // mutation can only have touched the bytes around the one object.
    let (_, rejected) = fuzz_stored(&path, cases, load, |m| assert_eq!(m, original));
    assert!(rejected > 0);
    let _ = fs::remove_dir_all(store.root());
}

/// `manifest` with its `columns_checksum` set to that of `columns` and its
/// own `checksum` renewed: FNV-1a over the file with that slot empty.
fn rechecksummed(manifest: &str, columns: &str) -> String {
    let Ok(Json::Obj(mut fields)) = Json::parse(manifest) else { panic!("not an object") };
    let hex = |text: &str| Json::Str(format!("{:016x}", fingerprint64(text)));
    let render = |fields: &[(String, Json)]| Json::Obj(fields.to_vec()).render() + "\n";
    set_field(&mut fields, "columns_checksum", hex(columns));
    set_field(&mut fields, "checksum", Json::Str(String::new()));
    let body = render(&fields);
    set_field(&mut fields, "checksum", hex(&body));
    render(&fields)
}

fn set_field(fields: &mut [(String, Json)], key: &str, value: Json) {
    fields.iter_mut().find(|(k, _)| k == key).expect("manifest field").1 = value;
}

/// A mutated column file comes with its manifest's checksums renewed, so
/// the decoder, not the checksum, meets the damage.
fn column_files(name: &str, cases: Range<u64>) {
    let (store, run, dir) = stored_run(name);
    let (path, manifest_path) = (dir.join("columns.jsonl"), dir.join("manifest.json"));
    let manifest = fs::read_to_string(&manifest_path).unwrap();
    // The renewal reproduces the store's own writer.
    assert_eq!(rechecksummed(&manifest, &fs::read_to_string(&path).unwrap()), manifest);
    let load = |text: &str| {
        fs::write(&path, text).unwrap();
        fs::write(&manifest_path, rechecksummed(&manifest, text)).unwrap();
        store.load(&run)
    };
    let (loaded, rejected) = fuzz_stored(&path, cases, load, drop);
    assert!(loaded > 0 && rejected > 0, "{loaded} loaded, {rejected} rejected");
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn fault_schedule_mutations_never_panic() {
    schedules(0..500);
}

#[test]
fn trace_csv_mutations_never_panic() {
    traces(0..500);
}

#[test]
fn progress_mutations_never_panic() {
    progress(0..500);
}

#[test]
fn slice_segment_mutations_never_panic() {
    slice_segments(0..500);
}

#[test]
fn sweep_journal_mutations_never_panic() {
    journals(0..500);
}

#[test]
fn manifest_mutations_never_panic() {
    manifests("manifest", 0..500);
}

#[test]
fn column_file_mutations_never_panic() {
    column_files("columns", 0..500);
}

#[test]
#[ignore = "soak: run with --release -- --ignored"]
fn decoder_mutations_never_panic_soak() {
    let cases = 500..50_500;
    schedules(cases.clone());
    traces(cases.clone());
    progress(cases.clone());
    slice_segments(cases.clone());
    journals(cases.clone());
    manifests("manifestsoak", cases);
}

#[test]
#[ignore = "soak: run with --release -- --ignored"]
fn column_file_mutations_never_panic_soak() {
    column_files("columnsoak", 500..50_500);
}
