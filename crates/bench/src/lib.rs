//! Shared plumbing for the per-table/per-figure Criterion benches.
//!
//! Each bench target in `benches/` regenerates one artifact of the
//! paper's evaluation — it prints the paper-style table (or figure
//! series) once, then benchmarks the run that produces it. Absolute
//! numbers are the simulator's; the *shape* (who wins, by what factor)
//! is what reproduces the paper. See EXPERIMENTS.md for the side-by-side
//! record.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

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

/// Filename slug: the part of the title before any ':', lowercased,
/// runs of non-alphanumerics collapsed to single '_'. Also the
/// convention for ledger keys built from run labels.
pub fn slug_of(title: &str) -> String {
    let head = title.split(':').next().unwrap_or(title);
    let mut out = String::new();
    for c in head.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

/// Prints a titled artifact block and mirrors it to
/// `artifacts/<slug>.txt` so runs leave a diffable record.
pub fn artifact(title: &str, body: &str) {
    artifact_named(&slug_of(title), title, body);
}

/// [`artifact`] under an explicit file stem, for benches whose titles
/// share a slug (every "Ablation: …" title would land in
/// `ablation.txt`); they use their ledger name instead.
pub fn artifact_named(name: &str, title: &str, body: &str) {
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
    use super::slug_of;

    #[test]
    fn jstr_escapes_quotes_and_backslashes() {
        assert_eq!(super::jstr(r#"a"b\c"#), r#""a\"b\\c""#);
    }

    #[test]
    fn slugs_are_stable() {
        assert_eq!(
            slug_of("Table 5-2: RPC calls for the Andrew benchmark"),
            "table_5_2"
        );
        assert_eq!(
            slug_of("Flush latency: 64-block write-back"),
            "flush_latency"
        );
        assert_eq!(slug_of("Figure 5-1: server utilization"), "figure_5_1");
    }
}
