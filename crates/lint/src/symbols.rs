//! Symbol resolution over the parsed workspace: function identities,
//! impl-block association, module paths, and use-imports.
//!
//! The resolver recovers just enough item structure from the token stream
//! to support call-graph construction: which `impl` block a method lives
//! in (so receiver-type heuristics can narrow method calls), which module
//! a function belongs to (from the file layout plus inline `mod` blocks),
//! and what each file's `use` declarations bring into scope. Like the
//! parser it sits on, it is deliberately not a full Rust front end — the
//! soundness limits are documented in DESIGN.md §8.

use crate::lexer::TokenKind;
use crate::parse::ParsedFile;
use crate::{FileKind, Workspace};
use std::collections::BTreeMap;
use std::ops::Range;

/// Index of a function in [`SymbolTable::fns`].
pub type FnId = u32;

/// Everything the semantic rules need to know about one function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's `parsed.functions`.
    pub func: usize,
    /// The function's name.
    pub name: String,
    /// Cargo package name (e.g. `simpadv-tensor`).
    pub crate_name: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Directory classification of the defining file.
    pub kind: FileKind,
    /// `true` for `pub` / `pub(...)` functions.
    pub is_pub: bool,
    /// Test-only: `#[test]`, inside `#[cfg(test)]`, or in a file whose
    /// `mod` declaration is `#[cfg(test)]`-gated.
    pub in_test: bool,
    /// Enclosing `impl` subject type (`impl Tensor` → `Tensor`), when the
    /// function is a method with a body.
    pub impl_type: Option<String>,
    /// Module path within the crate (file layout + inline `mod` blocks).
    pub module: Vec<String>,
    /// Token range of the body (empty for bodiless declarations).
    pub body: Range<usize>,
}

/// Function lookup maps over the whole workspace.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// All functions, indexed by [`FnId`].
    pub fns: Vec<FnInfo>,
    /// Name → functions of that name (free functions and methods alike).
    pub by_name: BTreeMap<String, Vec<FnId>>,
    /// (impl type, method name) → implementations.
    pub by_method: BTreeMap<(String, String), Vec<FnId>>,
    /// Per-file `use` imports: local name → full path segments.
    pub imports: Vec<BTreeMap<String, Vec<String>>>,
}

/// The crate ident a package name appears as in source paths
/// (`simpadv-tensor` → `simpadv_tensor`).
pub fn crate_ident(pkg: &str) -> String {
    pkg.replace('-', "_")
}

impl SymbolTable {
    /// Builds the table for a workspace.
    pub fn build(ws: &Workspace) -> SymbolTable {
        // Files gated behind a `#[cfg(test)] mod name;` declaration are
        // test-only even though the file itself carries no marker.
        let gated = cfg_test_gated_prefixes(ws);

        let mut table = SymbolTable::default();
        for (fi, file) in ws.files.iter().enumerate() {
            let p = &file.parsed;
            let impls = impl_blocks(p);
            let mods = inline_mod_blocks(p);
            let base_module = module_path_of(&file.path);
            let file_gated = gated
                .iter()
                .any(|pre| file.path == pre.trim_end_matches('/') || file.path.starts_with(pre));
            table.imports.push(collect_imports(p));
            for (gi, f) in p.functions.iter().enumerate() {
                if f.name.is_empty() {
                    continue;
                }
                // The parser records bodiless declarations (trait methods,
                // extern fns) as the sentinel range `0..0`; an empty `{}`
                // body is a real position and still gets impl/module
                // association.
                let bodiless = f.body.start == 0 && f.body.end == 0;
                let (impl_type, module) = if bodiless {
                    (None, base_module.clone())
                } else {
                    let ty = impls
                        .iter()
                        .filter(|(r, _)| r.start <= f.body.start && f.body.end <= r.end)
                        .min_by_key(|(r, _)| r.end - r.start)
                        .map(|(_, t)| t.clone());
                    let mut m = base_module.clone();
                    for (r, name) in &mods {
                        if r.start <= f.body.start && f.body.end <= r.end {
                            m.push(name.clone());
                        }
                    }
                    (ty, m)
                };
                let id = table.fns.len() as FnId;
                table.by_name.entry(f.name.clone()).or_default().push(id);
                if let Some(t) = &impl_type {
                    table.by_method.entry((t.clone(), f.name.clone())).or_default().push(id);
                }
                table.fns.push(FnInfo {
                    file: fi,
                    func: gi,
                    name: f.name.clone(),
                    crate_name: file.crate_name.clone(),
                    path: file.path.clone(),
                    line: f.line,
                    kind: file.kind,
                    is_pub: f.is_pub,
                    in_test: f.in_test || file_gated,
                    impl_type,
                    module,
                    body: f.body.clone(),
                });
            }
        }
        table
    }

    /// Human-readable label for a function: `crate::module::name`.
    pub fn label(&self, id: FnId) -> String {
        let f = &self.fns[id as usize];
        let mut out = crate_ident(&f.crate_name);
        for m in &f.module {
            out.push_str("::");
            out.push_str(m);
        }
        out.push_str("::");
        if let Some(t) = &f.impl_type {
            out.push_str(t);
            out.push_str("::");
        }
        out.push_str(&f.name);
        out
    }

    /// Label plus source location, for diagnostics chains.
    pub fn chain_entry(&self, id: FnId) -> String {
        let f = &self.fns[id as usize];
        format!("{} ({}:{})", self.label(id), f.path, f.line)
    }
}

/// Paths (files or `dir/` prefixes) whose contents are test-gated by a
/// `#[cfg(test)] mod name;` declaration elsewhere.
fn cfg_test_gated_prefixes(ws: &Workspace) -> Vec<String> {
    let mut out = Vec::new();
    for file in &ws.files {
        let Some(dir) = file.path.rfind('/').map(|i| &file.path[..i]) else { continue };
        for name in cfg_test_mod_decls(&file.parsed) {
            out.push(format!("{dir}/{name}.rs"));
            out.push(format!("{dir}/{name}/"));
        }
    }
    out
}

/// Names declared as `#[cfg(test)] mod name;` (out-of-line) in this file.
fn cfg_test_mod_decls(p: &ParsedFile) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..p.tokens.len() {
        // `cfg ( test )` inside an attribute bracket group.
        if p.ident(i) != Some("cfg")
            || !p.is_open(i + 1, '(')
            || p.ident(i + 2) != Some("test")
            || p.match_of.get(i + 1) != Some(&(i + 3))
        {
            continue;
        }
        let bracket = p.parent[i];
        if bracket == usize::MAX || !p.is_open(bracket, '[') {
            continue;
        }
        let mut j = p.match_of[bracket] + 1;
        // Skip visibility.
        if p.ident(j) == Some("pub") {
            j += 1;
            if p.is_open(j, '(') && p.match_of[j] != usize::MAX {
                j = p.match_of[j] + 1;
            }
        }
        if p.ident(j) == Some("mod") {
            if let Some(name) = p.ident(j + 1) {
                if p.is_punct(j + 2, ';') {
                    out.push(name.to_string());
                }
            }
        }
    }
    out
}

/// Skips a `<...>` generic group starting at `i` (which must be `<`),
/// returning the index just past the closing `>`.
fn skip_angles(p: &ParsedFile, i: usize) -> usize {
    let n = p.tokens.len();
    let mut depth = 0i32;
    let mut j = i;
    while j < n {
        match p.tokens[j].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                let arrow = j > 0 && matches!(p.tokens[j - 1].kind, TokenKind::Punct('-'));
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            }
            TokenKind::Open(_) => {
                let c = p.match_of[j];
                if c != usize::MAX {
                    j = c;
                }
            }
            _ => {}
        }
        j += 1;
    }
    n
}

/// Whether the `impl` at `i` begins an item (vs. `impl Trait` in a type
/// position, where it is preceded by `:`/`,`/`(`/`&`/`->` and similar).
fn impl_is_item(p: &ParsedFile, i: usize) -> bool {
    if i == 0 {
        return true;
    }
    match &p.tokens[i - 1].kind {
        TokenKind::Punct(';') | TokenKind::Open('{') | TokenKind::Close('}') => true,
        TokenKind::Close(']') => true, // after an attribute
        TokenKind::Ident(id) => id == "unsafe",
        TokenKind::DocComment { .. } => true,
        _ => false,
    }
}

/// Extracts `impl` blocks as (body token range, subject type name).
///
/// For `impl Trait for Type { .. }` the subject is `Type`; path prefixes
/// and generic arguments are dropped (`impl fmt::Display for ServeError`
/// → `ServeError`).
fn impl_blocks(p: &ParsedFile) -> Vec<(Range<usize>, String)> {
    let n = p.tokens.len();
    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        if p.ident(i) != Some("impl") || !impl_is_item(p, i) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if matches!(p.tokens.get(j).map(|t| &t.kind), Some(TokenKind::Punct('<'))) {
            j = skip_angles(p, j);
        }
        let mut subject: Option<String> = None;
        let mut in_where = false;
        while j < n {
            match &p.tokens[j].kind {
                TokenKind::Open('{') => break,
                TokenKind::Punct(';') => break, // `impl Foo;` — malformed, bail
                TokenKind::Ident(id) if id == "for" => {
                    subject = None;
                    j += 1;
                }
                TokenKind::Ident(id) if id == "where" => {
                    in_where = true;
                    j += 1;
                }
                TokenKind::Ident(id) if !in_where => {
                    if id != "dyn" && id != "mut" {
                        subject = Some(id.clone());
                    }
                    j += 1;
                }
                TokenKind::Punct('<') => j = skip_angles(p, j),
                TokenKind::Open(_) => {
                    let c = p.match_of[j];
                    j = if c != usize::MAX { c + 1 } else { j + 1 };
                }
                _ => j += 1,
            }
        }
        if j < n && p.is_open(j, '{') && p.match_of[j] != usize::MAX {
            if let Some(ty) = subject {
                out.push((j + 1..p.match_of[j], ty));
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Extracts inline `mod name { .. }` blocks as (body range, name).
fn inline_mod_blocks(p: &ParsedFile) -> Vec<(Range<usize>, String)> {
    let mut out = Vec::new();
    for i in 0..p.tokens.len() {
        if p.ident(i) != Some("mod") {
            continue;
        }
        let Some(name) = p.ident(i + 1) else { continue };
        if p.is_open(i + 2, '{') && p.match_of[i + 2] != usize::MAX {
            out.push((i + 3..p.match_of[i + 2], name.to_string()));
        }
    }
    out
}

/// Module path implied by the file's location within its crate:
/// `src/lib.rs` → `[]`, `src/foo.rs` → `[foo]`, `src/foo/mod.rs` → `[foo]`,
/// `src/foo/bar.rs` → `[foo, bar]`, `src/bin/x.rs` → `[]` (own root).
fn module_path_of(path: &str) -> Vec<String> {
    let parts: Vec<&str> = path.split('/').collect();
    let Some(si) = parts.iter().position(|&c| c == "src") else {
        return Vec::new();
    };
    let rest = &parts[si + 1..];
    let mut out = Vec::new();
    for (k, comp) in rest.iter().enumerate() {
        if k + 1 == rest.len() {
            let stem = comp.strip_suffix(".rs").unwrap_or(comp);
            let under_bin = k > 0 && rest[k - 1] == "bin";
            if !matches!(stem, "lib" | "main" | "mod") && !under_bin && !stem.is_empty() {
                out.push(stem.to_string());
            }
        } else if *comp != "bin" {
            out.push(comp.to_string());
        }
    }
    out
}

/// Splits `range` on top-level commas (delimiter groups are opaque).
fn split_commas(p: &ParsedFile, range: Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = range.start;
    let mut i = range.start;
    while i < range.end {
        match p.tokens[i].kind {
            TokenKind::Punct(',') => {
                out.push(start..i);
                start = i + 1;
                i += 1;
            }
            TokenKind::Open(_) => {
                let c = p.match_of[i];
                i = if c != usize::MAX && c < range.end { c + 1 } else { i + 1 };
            }
            _ => i += 1,
        }
    }
    if start < range.end {
        out.push(start..range.end);
    }
    out
}

fn parse_use_path(
    p: &ParsedFile,
    range: Range<usize>,
    prefix: &[String],
    out: &mut BTreeMap<String, Vec<String>>,
) {
    let mut segs: Vec<String> = prefix.to_vec();
    let mut i = range.start;
    while i < range.end {
        match &p.tokens[i].kind {
            TokenKind::Ident(id) if id == "as" => {
                if let Some(r) = p.ident(i + 1) {
                    out.insert(r.to_string(), segs);
                }
                return;
            }
            TokenKind::Ident(id) => {
                segs.push(id.clone());
                i += 1;
            }
            TokenKind::Open('{') => {
                let close = p.match_of[i].min(range.end);
                for part in split_commas(p, i + 1..close) {
                    parse_use_path(p, part, &segs, out);
                }
                return;
            }
            TokenKind::Punct('*') => return,
            _ => i += 1,
        }
    }
    if segs.len() > prefix.len() {
        // `use a::b::{self}` imports `b` itself.
        if segs.last().map(String::as_str) == Some("self") {
            segs.pop();
        }
        if let Some(last) = segs.last() {
            out.insert(last.clone(), segs.clone());
        }
    }
}

/// All `use` declarations of a file as local name → full path segments.
fn collect_imports(p: &ParsedFile) -> BTreeMap<String, Vec<String>> {
    let n = p.tokens.len();
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < n {
        if p.ident(i) == Some("use") {
            let mut j = i + 1;
            while j < n && !p.is_punct(j, ';') {
                match p.tokens[j].kind {
                    TokenKind::Open(_) => {
                        let c = p.match_of[j];
                        j = if c != usize::MAX { c + 1 } else { j + 1 };
                    }
                    _ => j += 1,
                }
            }
            parse_use_path(p, i + 1..j, &[], &mut out);
            i = j + 1;
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileUnit;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files.iter().map(|(path, src)| FileUnit::from_source(path, src)).collect(),
        }
    }

    #[test]
    fn methods_are_associated_with_their_impl_type() {
        let t = SymbolTable::build(&ws(&[(
            "crates/tensor/src/ops.rs",
            r#"
impl Tensor {
    pub fn map(&self) -> Tensor { self.clone() }
}
impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write!(f, "x") }
}
pub fn free_fn() {}
"#,
        )]));
        let map = &t.fns[0];
        assert_eq!(map.impl_type.as_deref(), Some("Tensor"));
        let fmt = &t.fns[1];
        assert_eq!(fmt.impl_type.as_deref(), Some("ServeError"));
        let free = &t.fns[2];
        assert_eq!(free.impl_type, None);
        assert!(t.by_method.contains_key(&("Tensor".to_string(), "map".to_string())));
    }

    #[test]
    fn impl_trait_in_type_position_is_not_an_impl_block() {
        let t = SymbolTable::build(&ws(&[(
            "crates/tensor/src/ops.rs",
            "pub fn apply(f: impl Fn(f32) -> f32) -> f32 { helper(f) }\nfn helper(f: impl Fn(f32) -> f32) -> f32 { f(0.0) }",
        )]));
        assert!(t.fns.iter().all(|f| f.impl_type.is_none()));
    }

    #[test]
    fn module_paths_follow_file_layout_and_inline_mods() {
        let t = SymbolTable::build(&ws(&[
            ("crates/trace/src/clock.rs", "pub fn tick() {}"),
            ("crates/core/src/train/state.rs", "pub fn crc() {}"),
            ("crates/nn/src/lib.rs", "mod inner { pub fn hidden() {} }"),
        ]));
        assert_eq!(t.fns[0].module, vec!["clock"]);
        assert_eq!(t.fns[1].module, vec!["train", "state"]);
        assert_eq!(t.fns[2].module, vec!["inner"]);
    }

    #[test]
    fn cfg_test_gated_out_of_line_mod_marks_file_test_only() {
        let t = SymbolTable::build(&ws(&[
            ("crates/nn/src/lib.rs", "#[cfg(test)]\npub(crate) mod testutil;\n"),
            ("crates/nn/src/testutil.rs", "pub fn check_gradients() {}"),
            ("crates/nn/src/layer.rs", "pub fn forward() {}"),
        ]));
        let util = t.fns.iter().find(|f| f.name == "check_gradients").unwrap();
        assert!(util.in_test);
        let fwd = t.fns.iter().find(|f| f.name == "forward").unwrap();
        assert!(!fwd.in_test);
    }

    #[test]
    fn imports_resolve_groups_and_renames() {
        let t = SymbolTable::build(&ws(&[(
            "crates/nn/src/lib.rs",
            "use simpadv_tensor::{Tensor, ops::scale as rescale};\nuse simpadv_trace::clock;\n",
        )]));
        let im = &t.imports[0];
        assert_eq!(im.get("Tensor").unwrap(), &["simpadv_tensor", "Tensor"]);
        assert_eq!(im.get("rescale").unwrap(), &["simpadv_tensor", "ops", "scale"]);
        assert_eq!(im.get("clock").unwrap(), &["simpadv_trace", "clock"]);
    }

    #[test]
    fn labels_carry_crate_module_and_type() {
        let t = SymbolTable::build(&ws(&[(
            "crates/trace/src/clock.rs",
            "impl Clock { pub fn tick(&self) {} }",
        )]));
        assert_eq!(t.label(0), "simpadv_trace::clock::Clock::tick");
    }
}
