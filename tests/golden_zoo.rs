//! Golden snapshots for the GPU zoo: every preset's machine-characteristic
//! table (the paper's Table 2 rows) and, for one representative of each
//! architecture generation, the full profiled counter vector of a quick
//! reduce1 run — pinned down to the f64 bit pattern against
//! `tests/golden/zoo_presets.txt`.
//!
//! This is the tripwire for two different kinds of drift:
//!
//! * a preset's geometry silently changing (the metric tables), and
//! * the *counter surface* of an architecture changing — a counter
//!   appearing, vanishing, or moving value on any of the three
//!   global-memory paths (the per-generation reduce1 vectors).
//!
//! To accept intentional changes, regenerate with:
//!
//! ```text
//! BF_UPDATE_GOLDEN=1 cargo test --test golden_zoo
//! ```

use blackforest_suite::gpu_sim::{profile_applications, GpuConfig};
use blackforest_suite::kernels::reduce::{reduce_application, ReduceVariant};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Renders one preset's machine-metric table, one `name = value` row per
/// metric in catalog order, with exact bits for the float-valued rows.
fn metrics_section(gpu: &GpuConfig) -> String {
    let mut out = String::new();
    writeln!(out, "== preset: {} ({}) ==", gpu.name, gpu.arch.name()).unwrap();
    for m in gpu.machine_metrics() {
        writeln!(
            out,
            "{} = {:.6e} (bits {:016x})  # {}",
            m.name,
            m.value,
            m.value.to_bits(),
            m.meaning
        )
        .unwrap();
    }
    out
}

/// Renders the full profiled counter vector of a quick reduce1 launch on
/// one GPU — every counter the architecture exposes, in schema order.
fn reduce1_section(gpu: &GpuConfig) -> String {
    let app = reduce_application(ReduceVariant::Reduce1, 1 << 14, 256);
    let first_pass = (app.name.as_str(), &app.launches[..1]);
    let run = profile_applications(gpu, &[first_pass], None)
        .unwrap_or_else(|e| panic!("profile reduce1 on {}: {e}", gpu.name))
        .remove(0);
    let mut out = String::new();
    writeln!(
        out,
        "== reduce1 counters: {} ({}) ==",
        gpu.name,
        gpu.arch.name()
    )
    .unwrap();
    writeln!(
        out,
        "time_ms = {:.9e} (bits {:016x})",
        run.time_ms,
        run.time_ms.to_bits()
    )
    .unwrap();
    for name in run.counters.names() {
        let v = run.counters.get(name).unwrap();
        writeln!(out, "{name} = {v:.9e} (bits {:016x})", v.to_bits()).unwrap();
    }
    out
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
            (None, None) => return "no textual difference (check trailing whitespace)".into(),
        }
    }
}

#[test]
fn zoo_presets_and_per_arch_counter_vectors_match_golden() {
    let mut actual = String::from(
        "# Golden GPU-zoo snapshot: machine metrics for every preset, plus the\n\
         # reduce1 (n=16384, 256 threads) counter vector for one representative\n\
         # of each architecture generation.\n\
         # Regenerate with: BF_UPDATE_GOLDEN=1 cargo test --test golden_zoo\n",
    );
    for gpu in GpuConfig::presets() {
        actual.push_str(&metrics_section(&gpu));
    }
    for gpu in GpuConfig::arch_representatives() {
        actual.push_str(&reduce1_section(&gpu));
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("zoo_presets.txt");
    if std::env::var_os("BF_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("golden file regenerated: {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run with BF_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "zoo snapshot drifted from {}.\nFirst difference at {}\n\n\
         If the change is intentional, regenerate with:\n    \
         BF_UPDATE_GOLDEN=1 cargo test --test golden_zoo\n\n\
         full actual output:\n{actual}",
        path.display(),
        first_diff(&expected, &actual),
    );
}
