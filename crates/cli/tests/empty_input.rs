//! Trace-reading commands given an empty input file exit with status 1 and
//! an error that names the file and says it is empty, never a parser
//! message about byte 0 and never a panic.

use std::process::Command;

#[test]
fn empty_input_file_is_a_clean_error() {
    let dir = std::env::temp_dir().join(format!("simprof-empty-input-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("empty.sptrc");
    std::fs::write(&path, b"").expect("write empty file");
    let path = path.to_str().expect("utf-8 temp path");

    for cmd in ["select", "analyze", "trace-info"] {
        let out = Command::new(env!("CARGO_BIN_EXE_simprof"))
            .args([cmd, "-i", path])
            .output()
            .expect("run simprof");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(
            stderr.contains(&format!("{path} is empty: not a .sptrc trace or a JSON bundle")),
            "{cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
