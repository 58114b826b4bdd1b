//! Artifact-path validation shared by every writer in the toolchain.
//!
//! The CLI writes JSON artifacts (`--out`, `--save`, `--trace-out`). A typo'd
//! directory should fail with a clear message *before* minutes of
//! simulation or a whole load-test run, not with a bare OS error after
//! them — so every writer routes through [`resolve_out_path`] /
//! [`write_artifact`] here.

use std::path::{Path, PathBuf};

/// Validates an artifact output path up front: the parent directory must
/// exist and the path must not name a directory.
pub fn resolve_out_path(path: &Path) -> Result<PathBuf, String> {
    let parent = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| Path::new("."));
    if !parent.exists() {
        return Err(format!(
            "output directory {} does not exist (for {})",
            parent.display(),
            path.display()
        ));
    }
    if !parent.is_dir() {
        return Err(format!(
            "output location {} is not a directory (for {})",
            parent.display(),
            path.display()
        ));
    }
    if path.is_dir() {
        return Err(format!(
            "output path {} is a directory, not a file",
            path.display()
        ));
    }
    Ok(path.to_path_buf())
}

/// Writes an artifact through [`resolve_out_path`], wrapping any filesystem
/// failure (permissions, disk full) in a message naming the path.
pub fn write_artifact(path: &Path, contents: &str) -> Result<(), String> {
    let path = resolve_out_path(path)?;
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_cwd_relative_files() {
        assert_eq!(
            resolve_out_path(Path::new("report.json")).unwrap(),
            PathBuf::from("report.json")
        );
    }

    #[test]
    fn rejects_missing_parent_with_clear_error() {
        let err = resolve_out_path(Path::new("/definitely/not/a/real/dir/out.json")).unwrap_err();
        assert!(err.contains("does not exist"), "unhelpful error: {err}");
    }

    #[test]
    fn write_artifact_round_trips() {
        let path = std::env::temp_dir().join("bf_artifact_roundtrip.txt");
        write_artifact(&path, "payload").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "payload");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_artifact_rejects_directory_target() {
        let err = write_artifact(&std::env::temp_dir(), "x").unwrap_err();
        assert!(err.contains("is a directory"), "unhelpful error: {err}");
    }
}
