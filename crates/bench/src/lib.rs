//! Shared plumbing for the Criterion benches.
//!
//! Each bench target prints its artifacts once, mirrors them to
//! `artifacts/` and its `BENCH_*.json` ledger, then benchmarks the runs
//! that produce them. The paper artifacts come from the catalogue
//! (`spritely_harness::artifacts`); absolute numbers are the
//! simulator's, the *shape* (who wins, by what factor) is what
//! reproduces the paper. See EXPERIMENTS.md for the side-by-side record.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use spritely_harness::artifacts::{slug_of, Artifact, Family};

/// Criterion settings tuned for whole-experiment benchmarks: each sample
/// is a complete simulated benchmark run, so keep the counts low.
pub fn config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(10))
        .warm_up_time(Duration::from_millis(500))
}

/// `artifacts/` at the workspace root (gitignored; `baselines/` holds a
/// committed snapshot for diffing).
pub fn artifact_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts")
}

/// Prints a titled artifact block and mirrors it to
/// `artifacts/<slug>.txt`, for the bench-only artifacts that have no
/// catalogue entry.
pub fn artifact(title: &str, body: &str) {
    write_titled(&slug_of(title), title, body);
}

/// Emits every artifact of a catalogue family (see [`emit_artifact`])
/// and writes its JSON snapshots under `artifacts/`.
pub fn emit<R>(family: &Family<R>) {
    for a in &family.artifacts {
        emit_artifact(a);
    }
    for (file, json) in &family.snapshots {
        artifact_file(file, json);
    }
}

/// Prints an artifact, mirrors it to `artifacts/<name>.txt` and writes
/// its ledger, if it has one.
pub fn emit_artifact(a: &Artifact) {
    write_titled(a.name, &a.title, &a.body);
    if let Some((name, rows)) = &a.ledger {
        bench_ledger(name, rows);
    }
}

fn write_titled(name: &str, title: &str, body: &str) {
    println!("\n================ {title} ================\n{body}");
    artifact_file(&format!("{name}.txt"), &format!("{title}\n{body}\n"));
}

/// Writes an auxiliary artifact (trace JSONL, Chrome trace JSON, stats
/// snapshots) under `artifacts/`. Best-effort: a read-only checkout must
/// not fail the bench.
pub fn artifact_file(name: &str, contents: &str) {
    let dir = artifact_dir();
    if fs::create_dir_all(&dir).is_ok() {
        let _ = fs::write(dir.join(name), contents);
    }
}

/// Writes the perf-trajectory ledger `BENCH_<name>.json` at the
/// workspace root (committed, so `spritely compare` can diff it across
/// revisions) and mirrors it under `artifacts/`.
///
/// `fields` are `(key, raw JSON value)` pairs — values are spliced in
/// verbatim, so callers can pass numbers, strings (pre-quoted), arrays
/// or objects. Every bench target records its headline metrics here;
/// keep wall-clock-derived values under the conventional nondeterministic
/// key names (`wall_ms`, `events_per_sec`, `serial_ms`, `parallel_ms`,
/// `speedup`, `cores`) so the compare ignore-list skips them.
pub fn bench_ledger(name: &str, fields: &[(String, String)]) {
    let mut json = String::from("{\"schema\":1");
    for (k, v) in fields {
        json.push_str(&format!(",\"{k}\":{v}"));
    }
    json.push_str("}\n");
    let file = format!("BENCH_{name}.json");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let _ = fs::write(root.join(&file), &json);
    artifact_file(&file, &json);
}

/// Quotes a string for use as a [`bench_ledger`] JSON value.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn jstr_escapes_quotes_and_backslashes() {
        assert_eq!(super::jstr(r#"a"b\c"#), r#""a\"b\\c""#);
    }
}
