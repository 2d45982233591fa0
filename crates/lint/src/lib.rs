//! `simpadv-lint`: a repo-specific static analyzer for the
//! adversarial-training workspace.
//!
//! The analyzer parses every `.rs` file in the workspace with a
//! self-contained lexer (no external parser dependency — the build
//! environment is offline) and enforces ten invariants the stack's
//! correctness rests on: seven file-local syntactic rules (R1–R4,
//! R8–R10) and three workspace-wide semantic rules (S2–S4) that reason
//! over a symbol table, call graph and taint lattice. See
//! [`rules::RULES`] for the catalogue and `DESIGN.md` for the rationale
//! behind each. Bans that need no parser (threads, sockets, child
//! processes, `process::exit`, entropy RNG) live in the root
//! `clippy.toml` instead, where clippy resolves paths. Diagnostics
//! are rendered rustc-style (`error[R3]: ... --> path:line`, with call
//! chains as `note:` lines for the S-rules), optionally as JSON, and
//! `--deny` turns any finding into a non-zero exit for CI.
//!
//! Intentional exceptions live in `lint.toml` at the workspace root; every
//! entry must carry a `reason` and name a registered rule. The same file
//! declares the S2 taint sinks (`[[taint]]`) and S4 canonical kernels
//! (`[[kernel]]`).

pub mod callgraph;
pub mod config;
pub mod flow;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod semrules;
pub mod symbols;

use std::io::Read;
use std::path::{Path, PathBuf};

/// Where in a crate a file lives; rules use this to scope themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Under a `src/` directory — library/binary code.
    Src,
    /// Under a `tests/` directory — integration tests.
    Test,
    /// Under a `benches/` directory.
    Bench,
    /// Under an `examples/` directory.
    Example,
    /// Anything else (build scripts, fixtures).
    Other,
}

/// One analyzed source file.
#[derive(Debug)]
pub struct FileUnit {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Directory classification.
    pub kind: FileKind,
    /// Cargo package name the file belongs to (e.g. `simpadv-tensor`).
    pub crate_name: String,
    /// Lexed and structure-parsed content.
    pub parsed: parse::ParsedFile,
}

impl FileUnit {
    /// Builds a unit from in-memory source; used by rule fixtures and the
    /// walker alike.
    pub fn from_source(path: &str, src: &str) -> Self {
        let (crate_name, kind) = classify(path);
        FileUnit { path: path.to_string(), kind, crate_name, parsed: parse::parse(lexer::lex(src)) }
    }
}

/// Maps a workspace-relative path to (package name, file kind).
fn classify(path: &str) -> (String, FileKind) {
    let parts: Vec<&str> = path.split('/').collect();
    let (crate_name, rest): (String, &[&str]) =
        if parts.first() == Some(&"crates") && parts.len() > 2 {
            let pkg = match parts[1] {
                "trace" => "simpadv-trace",
                "obs" => "simpadv-obs",
                "runtime" => "simpadv-runtime",
                "tensor" => "simpadv-tensor",
                "nn" => "simpadv-nn",
                "data" => "simpadv-data",
                "attacks" => "simpadv-attacks",
                "resilience" => "simpadv-resilience",
                "core" => "simpadv",
                "cli" => "simpadv-cli",
                "lint" => "simpadv-lint",
                "bench" => "simpadv-bench",
                "serve" => "simpadv-serve",
                "sweep" => "simpadv-sweep",
                other => other,
            };
            (pkg.to_string(), &parts[2..])
        } else {
            ("simpadv-suite".to_string(), &parts[..])
        };
    let kind = match rest.first() {
        Some(&"src") => FileKind::Src,
        Some(&"tests") => FileKind::Test,
        Some(&"benches") => FileKind::Bench,
        Some(&"examples") => FileKind::Example,
        _ => FileKind::Other,
    };
    (crate_name, kind)
}

/// The set of analyzed files.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All files, in walk order.
    pub files: Vec<FileUnit>,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id (`R1`..`R10`, `S2`..`S4`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The offending item (method name, function name, parameter...);
    /// matched against `item` in `lint.toml`.
    pub item: String,
    /// Human-readable explanation.
    pub message: String,
    /// Call chain for semantic rules (`crate::Type::fn (path:line)` per
    /// hop, caller first); empty for syntactic rules.
    pub chain: Vec<String>,
}

impl Diagnostic {
    /// Renders the diagnostic rustc-style; call-chain hops become
    /// `note:` lines.
    pub fn render(&self) -> String {
        let mut out =
            format!("error[{}]: {}\n  --> {}:{}\n", self.rule, self.message, self.path, self.line);
        for (i, hop) in self.chain.iter().enumerate() {
            out.push_str(&format!("  note: [{i}] {hop}\n"));
        }
        out
    }

    /// Renders the diagnostic as a JSON object.
    pub fn to_json(&self) -> String {
        let chain = if self.chain.is_empty() {
            String::from("[]")
        } else {
            let hops: Vec<String> = self.chain.iter().map(|h| json_str(h)).collect();
            format!("[{}]", hops.join(","))
        };
        format!(
            "{{\"rule\":{},\"path\":{},\"line\":{},\"item\":{},\"message\":{},\"chain\":{}}}",
            json_str(self.rule),
            json_str(&self.path),
            self.line,
            json_str(&self.item),
            json_str(&self.message),
            chain
        )
    }
}

/// JSON-escapes a string (quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a list of diagnostics as a JSON array.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str("  ");
        out.push_str(&d.to_json());
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Directories the walker never descends into. `shims/` holds vendored
/// API-compatibility stubs for external crates (offline environment) and
/// is third-party surface, not project code; `fixtures/` holds the lint
/// suite's own planted-violation corpora, which must never join the real
/// wall.
const SKIP_DIRS: &[&str] = &["target", "shims", ".git", ".github", "node_modules", "fixtures"];

/// Recursively collects and parses every `.rs` file under `root`.
///
/// # Errors
///
/// Returns any I/O error from directory traversal or file reads.
pub fn collect_files(root: &Path) -> std::io::Result<Workspace> {
    let mut paths: Vec<PathBuf> = Vec::new();
    walk(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let mut src = String::new();
        std::fs::File::open(&p)?.read_to_string(&mut src)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(FileUnit::from_source(&rel, &src));
    }
    Ok(Workspace { files })
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs rules over the workspace, applies the allowlist, and returns
/// diagnostics sorted by path, line, and rule id.
///
/// An `[[allow]]` entry whose `path` names no file of `ws` is itself a
/// diagnostic, under the entry's own rule: like an unresolved
/// `[[kernel]]` or `[[taint]]` declaration, it is stale configuration
/// that would silently cover whatever file later takes that path.
///
/// `spec` filters the registry: `None` runs everything, otherwise a
/// comma list of ids and ranges (`R1-R10,S2`) as accepted by
/// [`rules::expand_spec`]. An invalid spec selects nothing here — the
/// CLI validates specs before calling.
///
/// The semantic model (symbol table, call graph, taint sources) is
/// built only when at least one S-rule is selected.
pub fn run(ws: &Workspace, cfg: &config::Config, spec: Option<&str>) -> Vec<Diagnostic> {
    let selected: Option<Vec<&str>> = spec.map(|s| rules::expand_spec(s).unwrap_or_default());
    let wants = |id: &str| selected.as_ref().is_none_or(|ids| ids.contains(&id));
    let mut model: Option<semrules::SemanticModel> = None;
    let mut out = Vec::new();
    for rule in rules::RULES {
        if !wants(rule.id) {
            continue;
        }
        match rule.check {
            rules::Check::Syntactic(f) => out.extend(f(ws)),
            rules::Check::Semantic(f) => {
                let model = model.get_or_insert_with(|| semrules::SemanticModel::build(ws));
                out.extend(f(&semrules::SemanticCtx { ws, cfg, model }));
            }
        }
    }
    out.retain(|d| !cfg.is_allowed(d.rule, &d.path, &d.item));
    for allow in &cfg.allows {
        let Some(rule) = rules::rule_by_id(&allow.rule).filter(|r| wants(r.id)) else {
            continue;
        };
        if ws.files.iter().all(|f| f.path != allow.path) {
            out.push(Diagnostic {
                rule: rule.id,
                path: allow.path.clone(),
                line: 1,
                item: allow.item.clone().unwrap_or_default(),
                message: format!(
                    "[[allow]] entry for `{}` does not resolve to any workspace file; \
                     fix or remove the declaration",
                    allow.path
                ),
                chain: Vec::new(),
            });
        }
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_crate_dirs_to_package_names() {
        assert_eq!(
            classify("crates/tensor/src/ops.rs"),
            ("simpadv-tensor".to_string(), FileKind::Src)
        );
        assert_eq!(
            classify("crates/runtime/src/lib.rs"),
            ("simpadv-runtime".to_string(), FileKind::Src)
        );
        assert_eq!(classify("crates/core/tests/train.rs"), ("simpadv".to_string(), FileKind::Test));
        assert_eq!(
            classify("crates/serve/src/server.rs"),
            ("simpadv-serve".to_string(), FileKind::Src)
        );
        assert_eq!(
            classify("crates/sweep/src/supervise.rs"),
            ("simpadv-sweep".to_string(), FileKind::Src)
        );
        assert_eq!(classify("src/lib.rs"), ("simpadv-suite".to_string(), FileKind::Src));
        assert_eq!(classify("tests/end_to_end.rs"), ("simpadv-suite".to_string(), FileKind::Test));
        assert_eq!(
            classify("crates/attacks/benches/attack_speed.rs"),
            ("simpadv-attacks".to_string(), FileKind::Bench)
        );
        assert_eq!(
            classify("crates/trace/src/sink.rs"),
            ("simpadv-trace".to_string(), FileKind::Src)
        );
        assert_eq!(classify("crates/obs/src/tree.rs"), ("simpadv-obs".to_string(), FileKind::Src));
        assert_eq!(
            classify("crates/resilience/src/atomic.rs"),
            ("simpadv-resilience".to_string(), FileKind::Src)
        );
        assert_eq!(
            classify("crates/bench/src/bin/table1.rs"),
            ("simpadv-bench".to_string(), FileKind::Src)
        );
    }

    #[test]
    fn allowlist_filters_matching_diagnostics() {
        let ws = Workspace {
            files: vec![FileUnit::from_source(
                "crates/nn/src/pool.rs",
                "fn backward(&self) { self.cache.expect(\"forward first\"); }",
            )],
        };
        let cfg = config::parse(
            "[[allow]]\nrule = \"R1\"\npath = \"crates/nn/src/pool.rs\"\nitem = \"expect\"\nreason = \"documented contract\"\n",
        )
        .expect("config");
        assert!(run(&ws, &cfg, None).is_empty());
        // Without the allow entry, it fires.
        assert_eq!(run(&ws, &config::Config::default(), Some("R1")).len(), 1);
    }

    #[test]
    fn allow_entry_for_a_missing_file_is_reported_under_its_rule() {
        let ws = Workspace {
            files: vec![FileUnit::from_source("crates/nn/src/pool.rs", "fn forward() {}")],
        };
        let cfg = config::parse(
            "[[allow]]\nrule = \"R1\"\npath = \"crates/nn/src/gone.rs\"\nitem = \"expect\"\nreason = \"x\"\n\n\
             [[allow]]\nrule = \"R8\"\npath = \"crates/nn/src/pool.rs\"\nreason = \"y\"\n",
        )
        .expect("config");
        let d = run(&ws, &cfg, None);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].rule, d[0].path.as_str()), ("R1", "crates/nn/src/gone.rs"));
        assert_eq!(d[0].item, "expect");
        assert!(d[0].message.contains("does not resolve"), "{}", d[0].message);
        // scoped like the rule it names
        assert!(run(&ws, &cfg, Some("R8")).is_empty());
        assert_eq!(run(&ws, &cfg, Some("R1")).len(), 1);
    }

    #[test]
    fn json_rendering_escapes() {
        let d = Diagnostic {
            rule: "R1",
            path: "a.rs".into(),
            line: 3,
            item: "unwrap".into(),
            message: "say \"no\"".into(),
            chain: Vec::new(),
        };
        assert_eq!(
            d.to_json(),
            "{\"rule\":\"R1\",\"path\":\"a.rs\",\"line\":3,\"item\":\"unwrap\",\"message\":\"say \\\"no\\\"\",\"chain\":[]}"
        );
        let arr = render_json(&[d]);
        assert!(arr.starts_with("[\n") && arr.ends_with("]\n"));
    }

    #[test]
    fn chain_renders_as_note_lines_and_json_array() {
        let d = Diagnostic {
            rule: "S3",
            path: "a.rs".into(),
            line: 3,
            item: "entry".into(),
            message: "unordered reduction".into(),
            chain: vec!["a::entry (a.rs:3)".into(), "a::deep (a.rs:9)".into()],
        };
        let text = d.render();
        assert!(text.contains("note: [0] a::entry (a.rs:3)"));
        assert!(text.contains("note: [1] a::deep (a.rs:9)"));
        assert!(d.to_json().contains("\"chain\":[\"a::entry (a.rs:3)\",\"a::deep (a.rs:9)\"]"));
    }

    #[test]
    fn run_accepts_specs_with_ranges() {
        let ws = Workspace {
            files: vec![FileUnit::from_source(
                "crates/tensor/src/ops.rs",
                "pub fn f(x: Option<f32>) -> f32 { x.unwrap() }",
            )],
        };
        let cfg = config::Config::default();
        // R1 fires under a range spec that includes it, not under S-only.
        assert!(!run(&ws, &cfg, Some("R1-R3")).is_empty());
        assert!(run(&ws, &cfg, Some("S2-S4")).is_empty());
    }
}
