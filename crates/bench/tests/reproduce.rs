//! Every reproduction entry against its committed `results/<id>.txt`.
//!
//! The committed files are the repo's record of the paper's tables and
//! figures and of the extensions; a change that claims to keep behaviour
//! (a refactor, a deletion, a speed-up) must keep them byte-identical. The
//! full set takes about half a minute in a release build and far longer in
//! a debug one, so the byte check is release-only:
//!
//! ```text
//! cargo test --release -p bf-bench --test reproduce -- --include-ignored
//! ```
//!
//! The table-to-file correspondence runs in every build and simulates
//! nothing.

use std::collections::BTreeSet;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// First differing line between expected and actual, rendered for humans.
fn first_diff(expected: &str, actual: &str) -> String {
    let mut exp = expected.lines();
    let mut act = actual.lines();
    let mut line_no = 1usize;
    loop {
        match (exp.next(), act.next()) {
            (Some(e), Some(a)) if e == a => line_no += 1,
            (Some(e), Some(a)) => {
                return format!("line {line_no}:\n  expected: {e}\n  actual:   {a}")
            }
            (Some(e), None) => return format!("line {line_no}: actual ends, expected: {e}"),
            (None, Some(a)) => return format!("line {line_no}: expected ends, actual: {a}"),
            (None, None) => return "only line endings differ".into(),
        }
    }
}

#[test]
fn every_entry_has_a_results_file_and_every_file_an_entry() {
    let ids: BTreeSet<String> = bf_bench::ENTRIES
        .iter()
        .map(|(id, _)| id.to_string())
        .collect();
    assert_eq!(ids.len(), bf_bench::ENTRIES.len(), "duplicate entry id");
    let files: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ directory")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        ids, files,
        "reproduction ids and results/*.txt stems must match one to one"
    );
    assert!(!ids.contains("all"), "`all` selects every entry");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; run with --release"
)]
fn every_entry_reproduces_its_results_file_byte_for_byte() {
    let mut failures = Vec::new();
    for entry in bf_bench::ENTRIES {
        let id = entry.0;
        let path = results_dir().join(format!("{id}.txt"));
        let expected =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let actual = bf_bench::render(entry);
        if actual != expected {
            failures.push(format!(
                "{id} drifted from results/{id}.txt; first difference at {}",
                first_diff(&expected, &actual)
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} entries differ:\n\n{}",
        failures.len(),
        bf_bench::ENTRIES.len(),
        failures.join("\n\n")
    );
}
