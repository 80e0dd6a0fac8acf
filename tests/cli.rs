//! The `spritely` command line. `compare`'s exit code is the verdict
//! (0 clean, 1 a leaf past its threshold), so a script can gate on it;
//! `table` prints the gated catalogue artifact byte for byte.

use std::path::Path;
use std::process::Command;

fn baseline_path() -> String {
    format!(
        "{}/baselines/profile_andrew_snfs.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn table_5_4_prints_the_baselined_artifact() {
    let out = Command::new(env!("CARGO_BIN_EXE_spritely"))
        .args(["table", "5-4"])
        .output()
        .expect("run spritely table 5-4");
    assert!(out.status.success());
    let path = format!("{}/baselines/table_5_4.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).expect("read table 5-4 baseline");
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8 stdout"), want);
}

fn compare(a: &str, b: &str) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_spritely"))
        .args(["compare", a, b])
        .output()
        .expect("run spritely compare")
        .status
        .code()
}

#[test]
fn compare_of_a_snapshot_against_itself_exits_zero() {
    let base = baseline_path();
    assert_eq!(compare(&base, &base), Some(0));
}

#[test]
fn compare_exits_one_when_a_phase_total_regresses() {
    let base = baseline_path();
    let json = std::fs::read_to_string(&base).expect("read baseline");
    // Double the run-wide disk service total: far past the default 10%.
    let key = "\"disk_service\": ";
    let i = json.find(key).expect("profile has a disk_service phase") + key.len();
    let end = i + json[i..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("number terminated");
    let v: u64 = json[i..end].parse().expect("numeric phase total");
    let bumped = format!("{}{}{}", &json[..i], v * 2, &json[end..]);
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("profile_disk_service_x2.json");
    std::fs::write(&path, bumped).expect("write regressed copy");
    assert_eq!(compare(&base, path.to_str().expect("utf-8 path")), Some(1));
}
