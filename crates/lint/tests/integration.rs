//! End-to-end tests: the analyzer over real directory trees.
//!
//! Two layers: a synthetic fixture workspace exercising the walker +
//! allowlist + rule pipeline, and a self-check that the actual repository
//! is clean — the latter is the "lint wall": any rule violation introduced
//! anywhere in the workspace fails this test.

use simpadv_lint::{collect_files, config, run, Workspace};
use std::path::{Path, PathBuf};

/// Creates a unique scratch directory for a fixture tree.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("simpadv-lint-{tag}-{}", std::process::id()));
        // A leftover tree from a crashed run would pollute the fixture.
        if root.exists() {
            std::fs::remove_dir_all(&root).expect("clear stale scratch dir");
        }
        std::fs::create_dir_all(&root).expect("create scratch dir");
        Scratch { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, content).expect("write fixture file");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn repo_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent).expect("workspace root")
}

#[test]
fn fixture_workspace_pipeline() {
    let s = Scratch::new("fixture");
    s.write(
        "crates/tensor/src/ops.rs",
        r#"
/// Documented and clean.
pub fn fine(x: f32) -> f32 { x + 1.0 }

pub fn bad(x: Option<f32>) -> f32 { x.unwrap() }
"#,
    );
    s.write(
        "crates/attacks/src/fgsm.rs",
        r#"
impl Fgsm {
    pub fn new(epsilon: f32) -> Self { Self { epsilon } }
}
"#,
    );
    s.write(
        "crates/nn/src/pool.rs",
        "fn backward(&self) { self.cache.expect(\"forward first\"); }",
    );
    // target/ must be skipped even when it contains .rs files.
    s.write("target/debug/build/gen.rs", "fn g() { x.unwrap(); }");

    let ws = collect_files(&s.root).expect("walk fixture");
    assert_eq!(ws.files.len(), 3, "target/ must not be walked");

    // Without an allowlist: unwrap (R1), undocumented panic (R2),
    // unvalidated epsilon (R3), nn expect (R1).
    let diags = run(&ws, &config::Config::default(), None);
    let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    assert!(rules.contains(&"R1"), "diags: {diags:?}");
    assert!(rules.contains(&"R2"), "diags: {diags:?}");
    assert!(rules.contains(&"R3"), "diags: {diags:?}");
    assert_eq!(diags.iter().filter(|d| d.rule == "R1").count(), 2);

    // Allowlisting the nn contract removes exactly that diagnostic.
    let cfg = config::parse(
        "[[allow]]\nrule = \"R1\"\npath = \"crates/nn/src/pool.rs\"\nitem = \"expect\"\nreason = \"documented contract\"\n",
    )
    .expect("config");
    let filtered = run(&ws, &cfg, None);
    assert_eq!(filtered.len(), diags.len() - 1);
    assert!(!filtered.iter().any(|d| d.path == "crates/nn/src/pool.rs"));

    // Single-rule selection.
    let only_r3 = run(&ws, &config::Config::default(), Some("R3"));
    assert!(only_r3.iter().all(|d| d.rule == "R3"));
    assert_eq!(only_r3.len(), 1);
}

#[test]
fn repository_is_lint_clean() {
    let root = repo_root();
    let ws = collect_files(root).expect("walk repository");
    assert!(
        ws.files.len() > 50,
        "walker found suspiciously few files ({}): wrong root?",
        ws.files.len()
    );
    let cfg_src = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    let cfg = config::parse(&cfg_src).expect("valid lint.toml");
    let diags = run(&ws, &cfg, None);
    assert!(
        diags.is_empty(),
        "the workspace violates its own invariants:\n{}",
        diags.iter().map(|d| d.render()).collect::<String>()
    );
}

#[test]
fn planting_an_unwrap_in_tensor_ops_fails_the_run() {
    // The acceptance scenario: copy the real tensor sources into a fixture,
    // plant an unwrap() in ops.rs, and confirm the wall catches it.
    let root = repo_root();
    let s = Scratch::new("planted");
    let ops =
        std::fs::read_to_string(root.join("crates/tensor/src/ops.rs")).expect("read real ops.rs");
    let planted = ops.replacen(
        "impl Tensor {",
        "impl Tensor {\n    /// Planted violation.\n    pub fn planted(x: Option<f32>) -> f32 { x.unwrap() }\n",
        1,
    );
    assert_ne!(planted, ops, "marker line not found in ops.rs");
    s.write("crates/tensor/src/ops.rs", &planted);

    let ws = collect_files(&s.root).expect("walk planted fixture");
    let diags = run(&ws, &config::Config::default(), None);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "R1" && d.path == "crates/tensor/src/ops.rs" && d.item == "unwrap"),
        "planted unwrap not caught: {diags:?}"
    );
}

#[test]
fn rendering_is_rustc_style_and_json_is_parseable_shape() {
    let ws = Workspace {
        files: vec![simpadv_lint::FileUnit::from_source(
            "crates/tensor/src/x.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }",
        )],
    };
    let diags = run(&ws, &config::Config::default(), Some("R1"));
    assert_eq!(diags.len(), 1);
    let text = diags[0].render();
    assert!(text.starts_with("error[R1]: "));
    assert!(text.contains("--> crates/tensor/src/x.rs:1"));
    let json = simpadv_lint::render_json(&diags);
    assert!(json.contains("\"rule\":\"R1\""));
    assert!(json.contains("\"line\":1"));
}

#[test]
#[expect(clippy::disallowed_methods, reason = "end-to-end test drives the simpadv-lint binary")]
fn a_config_error_names_the_file_that_was_read() {
    let s = Scratch::new("config-path");
    s.write("crates/data/src/lib.rs", "/// Clean.\npub fn fine() {}\n");
    s.write(
        "configs/other.toml",
        "# an allowlist at a path of its own\n\n[[allow]]\nrule = \"R7\"\npath = \"x.rs\"\nreason = \"r\"\n",
    );
    let config = s.root.join("configs/other.toml");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simpadv-lint"))
        .arg("--root")
        .arg(&s.root)
        .arg("--config")
        .arg(&config)
        .output()
        .expect("spawn simpadv-lint");
    assert_eq!(out.status.code(), Some(2), "a configuration error exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let want = format!("error: {}:4: unknown rule `R7`", config.display());
    assert!(stderr.contains(&want), "wanted `{want}` in:\n{stderr}");
    assert!(!stderr.contains("lint.toml"), "{stderr}");
}
