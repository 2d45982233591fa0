//! The five semantic rules (S1–S5).
//!
//! Where the R-rules are per-file and token-local, the S-rules reason over
//! the whole workspace at once: a symbol table ([`crate::symbols`]), a
//! call graph ([`crate::callgraph`]), and a taint lattice
//! ([`crate::flow`]) let them follow a property across function and
//! crate boundaries and attach the full call chain to each diagnostic.

use crate::callgraph::{call_sites, CallGraph, Resolver};
use crate::config::Config;
use crate::flow::{self, SourceKind};
use crate::parse::ParsedFile;
use crate::rules::PANIC_FREE_CRATES;
use crate::symbols::{FnId, FnInfo, SymbolTable};
use crate::{Diagnostic, FileKind, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Everything the semantic rules need, built once per run.
pub struct SemanticModel {
    /// Resolved functions, impls and imports.
    pub symbols: SymbolTable,
    /// The workspace call graph.
    pub graph: CallGraph,
    /// Determinism-taint source functions.
    pub sources: BTreeMap<FnId, SourceKind>,
}

impl SemanticModel {
    /// Builds the symbol table, call graph and source set.
    pub fn build(ws: &Workspace) -> SemanticModel {
        let symbols = SymbolTable::build(ws);
        let graph = CallGraph::build(&symbols, ws);
        let sources = flow::find_sources(&symbols, ws);
        SemanticModel { symbols, graph, sources }
    }
}

/// The context handed to each semantic rule.
pub struct SemanticCtx<'a> {
    /// The parsed workspace.
    pub ws: &'a Workspace,
    /// `lint.toml` (allowlist + taint/kernel declarations).
    pub cfg: &'a Config,
    /// The semantic model.
    pub model: &'a SemanticModel,
}

impl SemanticCtx<'_> {
    fn fns(&self) -> &[FnInfo] {
        &self.model.symbols.fns
    }

    fn parsed(&self, f: &FnInfo) -> &ParsedFile {
        &self.ws.files[f.file].parsed
    }

    fn chain(&self, ids: &[FnId]) -> Vec<String> {
        ids.iter().map(|&id| self.model.symbols.chain_entry(id)).collect()
    }

    fn diag(
        &self,
        rule: &'static str,
        f: &FnInfo,
        item: &str,
        message: String,
        chain: Vec<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            path: f.path.clone(),
            line: f.line,
            item: item.to_string(),
            message,
            chain,
        }
    }
}

/// Whether `f` is workspace library code the semantic rules police.
fn is_library_fn(f: &FnInfo) -> bool {
    f.kind == FileKind::Src && !f.in_test && !f.body.is_empty()
}

/// Whether token `i` is the closing bracket `c`. Brackets are their own
/// token kinds (`Open`/`Close`), so `is_punct` never matches them.
fn is_close(p: &ParsedFile, i: usize, c: char) -> bool {
    matches!(p.tokens.get(i).map(|t| &t.kind), Some(crate::lexer::TokenKind::Close(x)) if *x == c)
}

// ---------------------------------------------------------------------
// S1: panic reachability
// ---------------------------------------------------------------------

/// Collects functions in panic-free crates whose bodies contain an
/// unsanctioned panic site (same detection as R1, minus the allowlist).
fn panic_site_fns(ctx: &SemanticCtx) -> BTreeSet<FnId> {
    let mut sites = BTreeSet::new();
    for (id, f) in ctx.fns().iter().enumerate() {
        if !is_library_fn(f) || !PANIC_FREE_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        let p = ctx.parsed(f);
        for i in f.body.clone() {
            let hit = match p.ident(i) {
                Some(m @ ("unwrap" | "expect")) if p.is_method_call(i) => {
                    !ctx.cfg.is_allowed("R1", &f.path, m)
                }
                Some("panic") if p.is_punct(i + 1, '!') => {
                    !p.enclosing_calls(i).contains(&"unwrap_or_else")
                        && !ctx.cfg.is_allowed("R1", &f.path, "panic")
                }
                _ => false,
            };
            if hit {
                sites.insert(id as FnId);
                break;
            }
        }
    }
    sites
}

/// S1: a public API of a panic-free crate must not transitively reach an
/// unsanctioned panic site. Direct sites in the same function are R1's
/// job; S1 fires only on chains of length ≥ 2, and carries the chain.
pub fn s1_panic_reachability(ctx: &SemanticCtx) -> Vec<Diagnostic> {
    let sites = panic_site_fns(ctx);
    let mut out = Vec::new();
    if sites.is_empty() {
        return out;
    }
    for (id, f) in ctx.fns().iter().enumerate() {
        let id = id as FnId;
        if !is_library_fn(f)
            || !f.is_pub
            || !PANIC_FREE_CRATES.contains(&f.crate_name.as_str())
            || sites.contains(&id)
        {
            continue;
        }
        if let Some(path) = ctx.model.graph.path_to(id, &|t| sites.contains(&t)) {
            let Some((&site, _)) = path.split_last() else { continue };
            if path.len() < 2 {
                continue;
            }
            let site_label = ctx.model.symbols.label(site);
            out.push(ctx.diag(
                "S1",
                f,
                &f.name,
                format!(
                    "public `{}` can reach an unsanctioned panic site in `{site_label}` \
                     ({} calls deep); propagate the error or route through the \
                     `try_*().unwrap_or_else(|e| panic!(\"{{e}}\"))` wrapper",
                    f.name,
                    path.len() - 1
                ),
                ctx.chain(&path),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// S2: determinism taint
// ---------------------------------------------------------------------

/// S2: declared determinism sinks (`lint.toml` `[[taint]]`) must not meet
/// nondeterministic inputs — neither by reading one themselves
/// (transitively) nor by being called from a function whose call tree
/// reads one.
pub fn s2_determinism_taint(ctx: &SemanticCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut sink_ids: Vec<FnId> = Vec::new();
    for sink in &ctx.cfg.taints {
        let ids: Vec<FnId> = ctx
            .fns()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.path == sink.path && f.name == sink.item)
            .map(|(id, _)| id as FnId)
            .collect();
        if ids.is_empty() {
            out.push(Diagnostic {
                rule: "S2",
                path: sink.path.clone(),
                line: 1,
                item: sink.item.clone(),
                message: format!(
                    "[[taint]] sink `{}` does not resolve to any function in `{}`; \
                     fix or remove the declaration",
                    sink.item, sink.path
                ),
                chain: Vec::new(),
            });
        }
        sink_ids.extend(ids);
    }
    let sources = &ctx.model.sources;
    if sources.is_empty() {
        return out;
    }
    let tainted = flow::tainted_by(&ctx.model.graph, sources);
    for &sid in &sink_ids {
        let sf = &ctx.fns()[sid as usize];
        // (a) The sink's own call tree reads a nondeterministic input.
        if let Some(&src) = tainted.get(&sid) {
            let path = ctx.model.graph.path_to(sid, &|t| t == src).unwrap_or_else(|| vec![sid]);
            let kind = sources[&src];
            out.push(ctx.diag(
                "S2",
                sf,
                &sf.name,
                format!(
                    "determinism sink `{}` transitively reads {} — the logical \
                     stream must depend only on inputs and seeds",
                    sf.name,
                    kind.label()
                ),
                ctx.chain(&path),
            ));
            continue;
        }
        // (b) A tainted function feeds the sink directly.
        for &caller in &ctx.model.graph.redges[sid as usize] {
            let cf = &ctx.fns()[caller as usize];
            if !is_library_fn(cf) {
                continue;
            }
            if let Some(&src) = tainted.get(&caller) {
                let kind = sources[&src];
                let mut path =
                    ctx.model.graph.path_to(caller, &|t| t == src).unwrap_or_else(|| vec![caller]);
                let mut ids = vec![sid];
                ids.append(&mut path);
                out.push(ctx.diag(
                    "S2",
                    cf,
                    &cf.name,
                    format!(
                        "`{}` updates determinism sink `{}` while its call tree \
                         reads {} — split the nondeterministic read out of this \
                         function",
                        cf.name,
                        sf.name,
                        kind.label()
                    ),
                    ctx.chain(&ids),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// S3: parallel-reduction ordering
// ---------------------------------------------------------------------

/// Parallel-dispatch methods whose closure arguments S3 inspects: every
/// closure in the argument list, so both `par_chunks_with`'s per-worker
/// `init` and its chunk closure.
const PAR_ENTRY_POINTS: &[&str] =
    &["par_map", "par_chunks", "par_chunks_with", "par_join", "try_par_map", "try_par_chunks"];

/// Method calls that combine values in an order the scheduler picks.
const UNORDERED_COMBINATORS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "lock",
    "try_lock",
];

/// Crates whose internals may legitimately use atomics under a parallel
/// region: the runtime (work distribution) and trace (its counters are
/// commutative event tallies with a documented merge order).
const S3_INTERNAL_CRATES: &[&str] = &["simpadv-runtime", "simpadv-trace"];

/// Whether a function body uses an unordered combinator or hash
/// container (outside test code).
fn body_combines_unordered(p: &ParsedFile, body: Range<usize>) -> Option<&str> {
    for i in body {
        match p.ident(i) {
            Some(m) if UNORDERED_COMBINATORS.contains(&m) && p.is_method_call(i) => {
                return Some(m);
            }
            Some(h @ ("HashMap" | "HashSet")) => return Some(h),
            _ => {}
        }
    }
    None
}

/// Finds `let <name> = |...|` closure bindings in `body` and returns
/// `name -> closure token range` so a closure passed by variable can be
/// inspected (one level deep).
fn closure_bindings(p: &ParsedFile, body: Range<usize>) -> BTreeMap<String, Range<usize>> {
    let mut out = BTreeMap::new();
    let mut i = body.start;
    while i < body.end {
        if p.ident(i) == Some("let") {
            // let [mut] name = |...| ...;
            let mut k = i + 1;
            if p.ident(k) == Some("mut") {
                k += 1;
            }
            if let Some(name) = p.ident(k) {
                if p.is_punct(k + 1, '=') && p.is_punct(k + 2, '|') {
                    // Closure extends to the statement's `;` at this
                    // nesting depth (or the end of the body).
                    let mut j = k + 3;
                    let mut depth = 0i32;
                    while j < body.end {
                        if p.is_open(j, '(') || p.is_open(j, '{') || p.is_open(j, '[') {
                            depth += 1;
                        } else if is_close(p, j, ')') || is_close(p, j, '}') || is_close(p, j, ']')
                        {
                            depth -= 1;
                        } else if depth == 0 && p.is_punct(j, ';') {
                            break;
                        }
                        j += 1;
                    }
                    out.insert(name.to_string(), k + 2..j);
                }
            }
        }
        i += 1;
    }
    out
}

/// S3: closures handed to the runtime's parallel entry points must not
/// reduce through unordered combinators (atomics, locks, hash
/// containers) — reduction goes through the runtime's ordered per-chunk
/// result vectors.
pub fn s3_parallel_reduction(ctx: &SemanticCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let resolver = Resolver::new(&ctx.model.symbols);
    for (id, f) in ctx.fns().iter().enumerate() {
        let id = id as FnId;
        if !is_library_fn(f) || f.crate_name == "simpadv-runtime" {
            continue;
        }
        let p = ctx.parsed(f);
        let bindings = closure_bindings(p, f.body.clone());
        for i in f.body.clone() {
            let Some(m) = p.ident(i) else { continue };
            if !PAR_ENTRY_POINTS.contains(&m) || !p.is_method_call(i) || !p.is_open(i + 1, '(') {
                continue;
            }
            let close = p.match_of[i + 1];
            if close == usize::MAX {
                continue;
            }
            // The regions to inspect: the argument list itself, plus the
            // bodies of closures passed by variable (one level).
            let mut regions: Vec<Range<usize>> = Vec::new();
            regions.push(i + 2..close);
            for k in i + 2..close {
                if let Some(name) = p.ident(k) {
                    if !p.is_open(k + 1, '(') {
                        if let Some(r) = bindings.get(name) {
                            regions.push(r.clone());
                        }
                    }
                }
            }
            let mut flagged = false;
            for region in &regions {
                if flagged {
                    break;
                }
                // Direct unordered combination inside the closure.
                if let Some(what) = body_combines_unordered(p, region.clone()) {
                    out.push(ctx.diag(
                        "S3",
                        f,
                        m,
                        format!(
                            "closure passed to `{m}` combines results through \
                             `{what}` — an unordered reduction; return per-chunk \
                             values and fold the ordered result vector instead"
                        ),
                        ctx.chain(&[id]),
                    ));
                    break;
                }
                // Calls out of the closure: follow them.
                for site in call_sites(p, region.clone(), &[]) {
                    if let Some(name) = p.ident(site) {
                        if PAR_ENTRY_POINTS.contains(&name) {
                            continue;
                        }
                    }
                    for callee in resolver.resolve_call(p, f, site) {
                        let reached = ctx.model.graph.path_to(callee, &|t| {
                            let g = &ctx.fns()[t as usize];
                            !S3_INTERNAL_CRATES.contains(&g.crate_name.as_str())
                                && !g.body.is_empty()
                                && body_combines_unordered(
                                    &ctx.ws.files[g.file].parsed,
                                    g.body.clone(),
                                )
                                .is_some()
                        });
                        if let Some(mut chain) = reached {
                            let Some((&bad, _)) = chain.split_last() else { continue };
                            let g = &ctx.fns()[bad as usize];
                            let what = body_combines_unordered(
                                &ctx.ws.files[g.file].parsed,
                                g.body.clone(),
                            )
                            .unwrap_or("an unordered combinator");
                            let mut full = vec![id];
                            full.append(&mut chain);
                            out.push(ctx.diag(
                                "S3",
                                f,
                                m,
                                format!(
                                    "closure passed to `{m}` reaches `{}` which \
                                     combines through `{what}` — an unordered \
                                     reduction under a parallel region",
                                    ctx.model.symbols.label(bad)
                                ),
                                ctx.chain(&full),
                            ));
                            flagged = true;
                            break;
                        }
                    }
                    if flagged {
                        break;
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// S4: float-accumulation discipline
// ---------------------------------------------------------------------

/// Crates whose hot paths S4 polices.
const S4_CRATES: &[&str] = &["simpadv-tensor", "simpadv-nn"];

/// Whether the brace enclosing token `i` (via the parent chain) belongs
/// to a `for`/`while`/`loop`. Walks every enclosing brace up to the
/// function body.
fn in_loop(p: &ParsedFile, i: usize, body: &Range<usize>) -> bool {
    let mut cur = p.parent[i];
    while cur != usize::MAX && cur >= body.start {
        if p.is_open(cur, '{') {
            // Scan backward from the brace to the start of its statement;
            // a `for`/`while`/`loop` keyword marks a loop header.
            let mut k = cur;
            while k > body.start {
                k -= 1;
                if p.is_punct(k, ';') || p.is_open(k, '{') || is_close(p, k, '}') {
                    break;
                }
                if matches!(p.ident(k), Some("for" | "while" | "loop")) {
                    return true;
                }
            }
        }
        cur = p.parent[cur];
    }
    false
}

/// Whether the `+=` at `(i, i+1)` is a counter increment: RHS is a
/// single integer literal statement (`x += 1;`).
fn is_integer_increment(p: &ParsedFile, i: usize) -> bool {
    let rhs = i + 2;
    match p.tokens.get(rhs).map(|t| &t.kind) {
        Some(crate::lexer::TokenKind::Literal(l)) if !l.contains('.') => p.is_punct(rhs + 1, ';'),
        _ => false,
    }
}

/// Classifies the assignment target ending at token `i - 1` (the token
/// before `+`). Returns `true` when it plausibly accumulates floats.
fn target_accumulates_floats(p: &ParsedFile, i: usize, body: &Range<usize>) -> bool {
    if i == 0 {
        return false;
    }
    let prev = i - 1;
    // `buf[idx] += v` / `*slot += v`: indexed or deref stores are the
    // classic accumulation shapes.
    if is_close(p, prev, ']') {
        return true;
    }
    if let Some(name) = p.ident(prev) {
        // `self.field += v`: skip (struct counters; too noisy to classify).
        if prev >= 1 && p.is_punct(prev - 1, '.') {
            return false;
        }
        if prev >= 1 && p.is_punct(prev - 1, '*') {
            return true;
        }
        // Bare local: accumulating only if its `let` initializer shows
        // float evidence (a literal with `.`, or an `f32` annotation).
        let mut k = body.start;
        while k + 2 < i {
            if p.ident(k) == Some("let") {
                let mut t = k + 1;
                if p.ident(t) == Some("mut") {
                    t += 1;
                }
                if p.ident(t) == Some(name) {
                    // Look at the initializer up to `;`.
                    let mut j = t;
                    while j < i && !p.is_punct(j, ';') {
                        if p.ident(j) == Some("f32") {
                            return true;
                        }
                        if let Some(crate::lexer::TokenKind::Literal(l)) =
                            p.tokens.get(j).map(|tok| &tok.kind)
                        {
                            if l.contains('.') {
                                return true;
                            }
                        }
                        j += 1;
                    }
                }
            }
            k += 1;
        }
        return false;
    }
    false
}

/// S4: raw `+=` float-accumulation loops in `tensor`/`nn` must live in a
/// declared canonical kernel (`lint.toml` `[[kernel]]`), so backend
/// parity work has one accumulation order per operation to preserve.
pub fn s4_float_accumulation(ctx: &SemanticCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Unresolved kernel declarations are configuration errors.
    for k in &ctx.cfg.kernels {
        let hit = ctx.fns().iter().any(|f| f.path == k.path && f.name == k.item);
        if !hit {
            out.push(Diagnostic {
                rule: "S4",
                path: k.path.clone(),
                line: 1,
                item: k.item.clone(),
                message: format!(
                    "[[kernel]] entry `{}` does not resolve to any function in `{}`; \
                     fix or remove the declaration",
                    k.item, k.path
                ),
                chain: Vec::new(),
            });
        }
    }
    for (id, f) in ctx.fns().iter().enumerate() {
        if !is_library_fn(f) || !S4_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        let declared = ctx.cfg.kernels.iter().any(|k| k.path == f.path && k.item == f.name);
        if declared {
            continue;
        }
        let p = ctx.parsed(f);
        for i in f.body.clone() {
            if !(p.is_punct(i, '+') && p.is_punct(i + 1, '=')) {
                continue;
            }
            if is_integer_increment(p, i) {
                continue;
            }
            if !in_loop(p, i, &f.body) {
                continue;
            }
            if !target_accumulates_floats(p, i, &f.body) {
                continue;
            }
            // Chain: nearest public entry point that reaches this kernel,
            // so the diagnostic shows who depends on the accumulation
            // order.
            let chain = ctx
                .model
                .graph
                .rpath_to(id as FnId, &|t| ctx.fns()[t as usize].is_pub)
                .map(|mut path| {
                    path.reverse();
                    ctx.chain(&path)
                })
                .unwrap_or_else(|| ctx.chain(&[id as FnId]));
            out.push(ctx.diag(
                "S4",
                f,
                &f.name,
                format!(
                    "`{}` runs a raw `+=` float-accumulation loop but is not a \
                     declared canonical kernel; move the loop into a `[[kernel]]` \
                     function (or reuse one) so every backend shares one \
                     accumulation order",
                    f.name
                ),
                chain,
            ));
            break; // one diagnostic per function
        }
    }
    out
}

// ---------------------------------------------------------------------
// S5: fallible-sibling coverage
// ---------------------------------------------------------------------

/// Whether a body contains panic-capable tokens (macro or method forms).
fn body_can_panic(p: &ParsedFile, body: Range<usize>) -> bool {
    for i in body {
        if let Some(id) = p.ident(i) {
            match id {
                "panic" | "assert" | "assert_eq" | "assert_ne" | "unreachable" | "todo"
                | "unimplemented"
                    if p.is_punct(i + 1, '!') =>
                {
                    return true;
                }
                "unwrap" | "expect" if p.is_method_call(i) => return true,
                _ => {}
            }
        }
    }
    false
}

/// Whether `body` calls `callee(` anywhere.
fn body_calls(p: &ParsedFile, body: Range<usize>, callee: &str) -> bool {
    body.into_iter().any(|i| p.ident(i) == Some(callee) && p.is_open(i + 1, '('))
}

/// S5: every `try_*` function in a panic-free crate must have its
/// panicking twin implemented as a delegating wrapper — structurally:
/// the twin exists, and either cannot panic at all or panics only by
/// delegating through the `try_*` form. A twin that re-implements the
/// checked logic with its own `assert!`/`unwrap` drifts from the
/// fallible form the moment one of them changes.
pub fn s5_fallible_siblings(ctx: &SemanticCtx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fid, f) in ctx.fns().iter().enumerate() {
        let fid = fid as FnId;
        if !is_library_fn(f)
            || !PANIC_FREE_CRATES.contains(&f.crate_name.as_str())
            || !f.name.starts_with("try_")
        {
            continue;
        }
        let twin_name = &f.name["try_".len()..];
        // Candidate twins: same crate, same name; prefer the same impl
        // type when the try_* form is a method.
        let candidates: Vec<FnId> = ctx
            .fns()
            .iter()
            .enumerate()
            .filter(|(_, g)| {
                g.crate_name == f.crate_name
                    && g.name == twin_name
                    && g.kind == FileKind::Src
                    && !g.in_test
                    && (f.impl_type.is_none() || g.impl_type == f.impl_type)
            })
            .map(|(gid, _)| gid as FnId)
            .collect();
        if candidates.is_empty() {
            out.push(ctx.diag(
                "S5",
                f,
                &f.name,
                format!(
                    "`{}` has no panicking twin `{twin_name}` in `{}`; expose the \
                     wrapper so callers get both forms of the contract",
                    f.name, f.crate_name
                ),
                Vec::new(),
            ));
            continue;
        }
        // Violation when every candidate twin is panic-capable on its own
        // yet never delegates to the try_* form. (A bodiless trait
        // declaration or a panic-free twin satisfies the rule; this is a
        // deliberate under-approximation — see DESIGN.md §8.)
        let all_bad = candidates.iter().all(|&gid| {
            let g = &ctx.fns()[gid as usize];
            if g.body.is_empty() {
                return false;
            }
            let gp = &ctx.ws.files[g.file].parsed;
            body_can_panic(gp, g.body.clone()) && !body_calls(gp, g.body.clone(), &f.name)
        });
        if all_bad {
            let gid = candidates[0];
            let g = &ctx.fns()[gid as usize];
            out.push(ctx.diag(
                "S5",
                g,
                &g.name,
                format!(
                    "`{}` can panic but re-implements its checks instead of \
                     delegating to `{}`; rewrite as \
                     `{}(..).unwrap_or_else(|e| panic!(\"{{e}}\"))` so the two \
                     forms cannot drift",
                    g.name, f.name, f.name
                ),
                ctx.chain(&[gid, fid]),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileUnit;

    fn ctx_run(
        rule: fn(&SemanticCtx) -> Vec<Diagnostic>,
        files: &[(&str, &str)],
        toml: &str,
    ) -> Vec<Diagnostic> {
        let ws = Workspace {
            files: files.iter().map(|(path, src)| FileUnit::from_source(path, src)).collect(),
        };
        let cfg = crate::config::parse(toml).expect("config");
        let model = SemanticModel::build(&ws);
        rule(&SemanticCtx { ws: &ws, cfg: &cfg, model: &model })
    }

    #[test]
    fn s1_flags_multi_hop_chain_with_call_chain() {
        let files = [(
            "crates/tensor/src/a.rs",
            r#"
pub fn entry(x: Option<f32>) -> f32 { middle(x) }
fn middle(x: Option<f32>) -> f32 { deep(x) }
fn deep(x: Option<f32>) -> f32 { x.unwrap() }
"#,
        )];
        let d = ctx_run(s1_panic_reachability, &files, "");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "entry");
        assert_eq!(d[0].chain.len(), 3);
        assert!(d[0].chain[2].contains("deep"));
    }

    #[test]
    fn s1_skips_direct_sites_and_sanctioned_wrappers() {
        let files = [(
            "crates/tensor/src/a.rs",
            r#"
pub fn direct(x: Option<f32>) -> f32 { x.unwrap() }
pub fn wrapped(&self) -> f32 { self.try_get().unwrap_or_else(|e| panic!("{e}")) }
"#,
        )];
        // `direct` is R1's job (chain length 1); `wrapped` is sanctioned.
        assert!(ctx_run(s1_panic_reachability, &files, "").is_empty());
    }

    #[test]
    fn s2_flags_sink_reaching_a_source() {
        let files = [
            ("crates/trace/src/clock.rs", "pub fn tick_forward() { stamp(); }"),
            ("crates/trace/src/meta.rs", "pub fn stamp() { let t = std::time::Instant::now(); }"),
        ];
        let toml = "[[taint]]\npath = \"crates/trace/src/clock.rs\"\nitem = \"tick_forward\"\nreason = \"logical counter\"\n";
        let d = ctx_run(s2_determinism_taint, &files, toml);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("wall-clock"));
        assert_eq!(d[0].chain.len(), 2);
    }

    #[test]
    fn s2_flags_tainted_caller_feeding_a_sink() {
        let files = [
            ("crates/trace/src/clock.rs", "pub fn tick_forward() {}"),
            (
                "crates/nn/src/model.rs",
                "pub fn step() { let r = entropy(); simpadv_trace::clock::tick_forward(); }\nfn entropy() -> u64 { thread_rng() }",
            ),
        ];
        let toml = "[[taint]]\npath = \"crates/trace/src/clock.rs\"\nitem = \"tick_forward\"\nreason = \"logical counter\"\n";
        let d = ctx_run(s2_determinism_taint, &files, toml);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "step");
        assert!(d[0].message.contains("entropy-seeded"));
    }

    #[test]
    fn s2_unresolved_sink_is_a_config_error() {
        let files = [("crates/trace/src/clock.rs", "pub fn tick_forward() {}")];
        let toml = "[[taint]]\npath = \"crates/trace/src/clock.rs\"\nitem = \"no_such_fn\"\nreason = \"x\"\n";
        let d = ctx_run(s2_determinism_taint, &files, toml);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("does not resolve"));
    }

    #[test]
    fn s3_flags_atomic_reduction_in_par_closure() {
        let files = [(
            "crates/nn/src/batch.rs",
            "pub fn reduce(rt: &Runtime, total: &AtomicU64) { rt.par_chunks(100, 10, |r| { total.fetch_add(r.len() as u64, Ordering::Relaxed); }); }",
        )];
        let d = ctx_run(s3_parallel_reduction, &files, "");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("fetch_add"));
    }

    #[test]
    fn s3_inspects_both_closures_of_par_chunks_with() {
        for (init, f) in [
            ("|| total.fetch_add(1, Ordering::Relaxed)", "|s, r| r.len()"),
            ("|| 0u64", "|s, r| total.fetch_add(r.len() as u64, Ordering::Relaxed)"),
        ] {
            let src = format!(
                "pub fn reduce(rt: &Runtime, total: &AtomicU64) {{ rt.par_chunks_with(100, 10, {init}, {f}); }}"
            );
            let d = ctx_run(s3_parallel_reduction, &[("crates/nn/src/batch.rs", &src)], "");
            assert_eq!(d.len(), 1, "{src}");
            assert!(d[0].message.contains("par_chunks_with") && d[0].message.contains("fetch_add"));
        }
    }

    #[test]
    fn s3_follows_calls_out_of_the_closure() {
        let files = [(
            "crates/nn/src/batch.rs",
            "pub fn reduce(rt: &Runtime) { rt.par_map(&items, |x| bump(x)); }\nfn bump(x: &u64) -> u64 { COUNT.fetch_add(*x, Ordering::Relaxed) }",
        )];
        let d = ctx_run(s3_parallel_reduction, &files, "");
        assert_eq!(d.len(), 1);
        assert!(d[0].chain.len() >= 2);
    }

    #[test]
    fn s3_allows_ordered_per_chunk_results() {
        let files = [(
            "crates/nn/src/batch.rs",
            "pub fn reduce(rt: &Runtime, xs: &[f32]) -> f32 { let sums = rt.par_chunks(xs.len(), 64, |r| r.map(|i| xs[i]).sum::<f32>()); sums.iter().sum() }",
        )];
        assert!(ctx_run(s3_parallel_reduction, &files, "").is_empty());
    }

    #[test]
    fn s4_flags_undeclared_accumulation_loop() {
        let files = [(
            "crates/tensor/src/blur.rs",
            "pub fn blur(out: &mut [f32], xs: &[f32]) { for (i, v) in xs.iter().enumerate() { out[i % 4] += v * 0.5; } }",
        )];
        let d = ctx_run(s4_float_accumulation, &files, "");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "blur");
    }

    #[test]
    fn s4_accepts_declared_kernels_and_integer_counters() {
        let files = [
            (
                "crates/tensor/src/ops.rs",
                "pub fn add_assign(out: &mut [f32], xs: &[f32]) { for (o, x) in out.iter_mut().zip(xs) { *o += x; } }",
            ),
            (
                "crates/tensor/src/count.rs",
                "pub fn histogram(xs: &[usize], bins: &mut [u32]) { for &x in xs { bins[x] += 1; } }",
            ),
        ];
        let toml = "[[kernel]]\npath = \"crates/tensor/src/ops.rs\"\nitem = \"add_assign\"\nreason = \"canonical elementwise accumulate\"\n";
        assert!(ctx_run(s4_float_accumulation, &files, toml).is_empty());
    }

    #[test]
    fn s4_bare_local_needs_float_evidence() {
        let files = [(
            "crates/nn/src/loss.rs",
            "pub fn norm(xs: &[f32]) -> f32 { let mut acc = 0.0; for x in xs { acc += x * x; } acc }",
        )];
        let d = ctx_run(s4_float_accumulation, &files, "");
        assert_eq!(d.len(), 1);
        // usize accumulator: no float evidence, not flagged.
        let files = [(
            "crates/nn/src/loss.rs",
            "pub fn total(xs: &[Vec<f32>]) -> usize { let mut n = 0; for x in xs { n += x.len(); } n }",
        )];
        assert!(ctx_run(s4_float_accumulation, &files, "").is_empty());
    }

    #[test]
    fn s5_flags_missing_and_non_delegating_twins() {
        let files = [(
            "crates/tensor/src/ops.rs",
            r#"
impl Tensor {
    pub fn try_halve(&self) -> Result<Tensor, TensorError> { Ok(self.clone()) }
    pub fn try_scale(&self, s: f32) -> Result<Tensor, TensorError> { Ok(self.clone()) }
    pub fn scale(&self, s: f32) -> Tensor { assert!(s.is_finite()); self.clone() }
}
"#,
        )];
        let d = ctx_run(s5_fallible_siblings, &files, "");
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|x| x.item == "try_halve" && x.message.contains("no panicking twin")));
        assert!(d.iter().any(|x| x.item == "scale" && x.message.contains("delegating")));
    }

    #[test]
    fn s5_accepts_delegating_and_panic_free_twins() {
        let files = [(
            "crates/tensor/src/ops.rs",
            r#"
impl Tensor {
    pub fn reshape(&self, s: &[usize]) -> Tensor { self.try_reshape(s).unwrap_or_else(|e| panic!("{e}")) }
    pub fn try_reshape(&self, s: &[usize]) -> Result<Tensor, TensorError> { Ok(self.clone()) }
    pub fn sum(&self) -> f32 { 0.0 }
    pub fn try_sum(&self) -> Result<f32, TensorError> { Ok(0.0) }
}
"#,
        )];
        assert!(ctx_run(s5_fallible_siblings, &files, "").is_empty());
    }
}
