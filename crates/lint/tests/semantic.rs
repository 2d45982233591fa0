//! Fixture-based end-to-end tests for the semantic rules (S1–S5).
//!
//! Each fixture under `tests/fixtures/<rule>/` is a miniature workspace
//! with one planted violation; the combined acceptance test at the
//! bottom proves both halves of the contract at once: every planted
//! violation is detected with a call-chain diagnostic, and the real
//! repository wall (`--deny` over every registered rule) reports nothing.

use simpadv_lint::{collect_files, config, run, Diagnostic};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join(name)
}

fn run_fixture(name: &str, toml: &str, spec: &str) -> Vec<Diagnostic> {
    let ws = collect_files(&fixture(name)).expect("walk fixture");
    assert!(!ws.files.is_empty(), "fixture `{name}` has no files");
    let cfg = config::parse(toml).expect("fixture config");
    run(&ws, &cfg, Some(spec))
}

const S2_TOML: &str = r#"
[[taint]]
path = "crates/nn/src/stats.rs"
item = "add_sample"
reason = "fixture sink"
"#;

#[test]
fn s1_fixture_multi_hop_panic_chain() {
    let d = run_fixture("s1", "", "S1");
    assert_eq!(d.len(), 1, "diags: {d:?}");
    assert_eq!(d[0].rule, "S1");
    assert_eq!(d[0].item, "predict");
    assert_eq!(d[0].chain.len(), 3, "chain: {:?}", d[0].chain);
    assert!(d[0].chain[0].contains("predict"));
    assert!(d[0].chain[1].contains("normalize"));
    assert!(d[0].chain[2].contains("fetch"));
    assert!(d[0].message.contains("2 calls deep"));
}

#[test]
fn s2_fixture_two_crate_taint_path() {
    let d = run_fixture("s2", S2_TOML, "S2");
    assert_eq!(d.len(), 1, "diags: {d:?}");
    assert_eq!(d[0].rule, "S2");
    assert!(d[0].message.contains("wall-clock"));
    // The chain crosses the crate boundary: nn sink -> tensor source.
    assert_eq!(d[0].chain.len(), 2, "chain: {:?}", d[0].chain);
    assert!(d[0].chain[0].contains("simpadv_nn") && d[0].chain[0].contains("add_sample"));
    assert!(d[0].chain[1].contains("simpadv_tensor") && d[0].chain[1].contains("now_units"));
}

#[test]
fn s3_fixture_atomic_reduction_in_parallel_closure() {
    let d = run_fixture("s3", "", "S3");
    assert_eq!(d.len(), 1, "diags: {d:?}");
    assert_eq!(d[0].rule, "S3");
    assert!(d[0].message.contains("fetch_add"));
    assert!(!d[0].chain.is_empty());
}

#[test]
fn s4_fixture_undeclared_accumulation_loop() {
    let d = run_fixture("s4", "", "S4");
    assert_eq!(d.len(), 1, "diags: {d:?}");
    assert_eq!(d[0].rule, "S4");
    assert_eq!(d[0].item, "dot");
    assert!(!d[0].chain.is_empty());

    // Declaring the kernel is the sanctioned way out.
    let declared = r#"
[[kernel]]
path = "crates/tensor/src/acc.rs"
item = "dot"
reason = "fixture kernel"
"#;
    assert!(run_fixture("s4", declared, "S4").is_empty());
}

#[test]
fn s5_fixture_missing_and_drifting_twins() {
    let d = run_fixture("s5", "", "S5");
    assert_eq!(d.len(), 2, "diags: {d:?}");
    assert!(d.iter().any(|x| x.item == "try_split" && x.message.contains("no panicking twin")));
    let drift = d.iter().find(|x| x.item == "resize").expect("resize diagnostic");
    assert!(drift.message.contains("delegating"));
    assert_eq!(drift.chain.len(), 2, "chain: {:?}", drift.chain);
}

/// The acceptance gate for this analyzer: the planted fixtures all fire
/// with call-chain diagnostics while the full workspace wall — all rules,
/// real `lint.toml` — reports zero diagnostics.
#[test]
fn fixtures_fire_while_the_real_wall_is_clean() {
    let planted: [(&str, &str, &str); 5] = [
        ("s1", "", "S1"),
        ("s2", S2_TOML, "S2"),
        ("s3", "", "S3"),
        ("s4", "", "S4"),
        ("s5", "", "S5"),
    ];
    for (name, toml, spec) in planted {
        let d = run_fixture(name, toml, spec);
        assert!(!d.is_empty(), "fixture `{name}` produced no diagnostics");
        assert!(
            d.iter().any(|x| !x.chain.is_empty()),
            "fixture `{name}` produced no call-chain diagnostic: {d:?}"
        );
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let ws = collect_files(root).expect("walk repository");
    let cfg_src = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    let cfg = config::parse(&cfg_src).expect("valid lint.toml");
    let diags = run(&ws, &cfg, None);
    assert!(
        diags.is_empty(),
        "the workspace violates its own invariants:\n{}",
        diags.iter().map(|d| d.render()).collect::<String>()
    );
}
