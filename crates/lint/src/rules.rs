//! The rule registry: twelve syntactic invariants (R1–R12) and five
//! semantic ones (S1–S5).
//!
//! Each R-rule is a pure function from a [`Workspace`] to diagnostics —
//! token-accurate but file-local: comments and string literals can never
//! trigger them, test code is masked out where a rule targets library
//! code, and the one sanctioned panic idiom —
//! `unwrap_or_else(|e| panic!("{e}"))` — is recognized by walking the
//! enclosing-call chain rather than by text matching. The S-rules
//! ([`crate::semrules`]) additionally see a workspace-wide
//! [`crate::semrules::SemanticCtx`] (symbol table, call graph, taint
//! sources) and attach call chains to their diagnostics.

use crate::parse::ParsedFile;
use crate::semrules::{self, SemanticCtx};
use crate::{Diagnostic, FileKind, FileUnit, Workspace};

/// Library crates whose `src/` must be free of ad-hoc panics (R1, S1)
/// and whose `try_*` APIs need delegating twins (S5).
pub const PANIC_FREE_CRATES: &[&str] = &[
    "simpadv-trace",
    "simpadv-runtime",
    "simpadv-tensor",
    "simpadv-nn",
    "simpadv-data",
    "simpadv-attacks",
    "simpadv-resilience",
    "simpadv",
];

/// A rule's checker: file-local (syntactic) or workspace-wide (semantic).
pub enum Check {
    /// R-rules: a pure function over the parsed files.
    Syntactic(fn(&Workspace) -> Vec<Diagnostic>),
    /// S-rules: sees the symbol table, call graph and taint sources.
    Semantic(fn(&SemanticCtx) -> Vec<Diagnostic>),
}

/// A rule's identity and entry point.
pub struct Rule {
    /// Stable id (`R1`..`R12`, `S1`..`S5`), referenced from `lint.toml`.
    pub id: &'static str,
    /// One-line summary shown by `--list`.
    pub summary: &'static str,
    /// The checker.
    pub check: Check,
}

/// The rule registry, in id order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "R1",
        summary: "no unwrap()/expect()/bare panic! in library crate non-test code; \
                  the sanctioned form is try_*().unwrap_or_else(|e| panic!(\"{e}\"))",
        check: Check::Syntactic(rule_r1_panic_hygiene),
    },
    Rule {
        id: "R2",
        summary: "public functions that can panic must document a `# Panics` section",
        check: Check::Syntactic(rule_r2_panics_docs),
    },
    Rule {
        id: "R3",
        summary: "attack constructors must validate epsilon/step with \
                  is_finite() and >= 0.0",
        check: Check::Syntactic(rule_r3_ctor_validation),
    },
    Rule {
        id: "R4",
        summary: "no hand-rolled epsilon-ball clamping in crates/attacks outside \
                  projection.rs; use project_ball",
        check: Check::Syntactic(rule_r4_projection_routing),
    },
    Rule {
        id: "R5",
        summary: "no thread_rng/from_entropy/rand::random outside \
                  crates/tensor/src/rng.rs; all randomness is seeded",
        check: Check::Syntactic(rule_r5_rng_discipline),
    },
    Rule {
        id: "R6",
        summary: "panicking tensor ops built on the unwrap_or_else wrapper must \
                  expose a try_* sibling returning TensorError",
        check: Check::Syntactic(rule_r6_try_siblings),
    },
    Rule {
        id: "R7",
        summary: "std::thread is permitted only in crates/runtime; everywhere else \
                  parallelism goes through simpadv_runtime::Runtime",
        check: Check::Syntactic(rule_r7_thread_containment),
    },
    Rule {
        id: "R8",
        summary: "println!/eprintln! only in the cli, lint and bench crates and the \
                  trace sinks; library crates report through simpadv-trace events",
        check: Check::Syntactic(rule_r8_print_containment),
    },
    Rule {
        id: "R9",
        summary: "File::create/fs::write only in crates/resilience (and the trace \
                  sinks); durable output goes through the atomic-write protocol",
        check: Check::Syntactic(rule_r9_durable_writes),
    },
    Rule {
        id: "R10",
        summary: "std::time::Instant/SystemTime only in crates/trace/src/clock.rs and \
                  crates/obs; production timing goes through the span clock's WallTimer",
        check: Check::Syntactic(rule_r10_wall_clock_quarantine),
    },
    Rule {
        id: "R11",
        summary: "std::net is permitted only in crates/serve; other crates reach the \
                  server through simpadv_serve::client",
        check: Check::Syntactic(rule_r11_net_containment),
    },
    Rule {
        id: "R12",
        summary: "std::process (Command/Child/Stdio/exit) is permitted only in \
                  crates/sweep and crates/cli; other crates return typed errors \
                  instead of spawning or exiting",
        check: Check::Syntactic(rule_r12_process_containment),
    },
    Rule {
        id: "S1",
        summary: "no public API of a panic-free crate may transitively reach an \
                  unsanctioned unwrap/expect/panic! site; diagnostics carry the call chain",
        check: Check::Semantic(semrules::s1_panic_reachability),
    },
    Rule {
        id: "S2",
        summary: "wall-clock, HashMap/HashSet iteration, available_parallelism and \
                  entropy RNG must not flow into declared determinism sinks \
                  (lint.toml [[taint]]): logical counters, TrainState, BENCH digests",
        check: Check::Semantic(semrules::s2_determinism_taint),
    },
    Rule {
        id: "S3",
        summary: "closures passed to par_map/par_chunks/par_chunks_with/par_join must \
                  not reduce through unordered combinators (atomics, locks, hash \
                  containers); fold the runtime's ordered per-chunk results instead",
        check: Check::Semantic(semrules::s3_parallel_reduction),
    },
    Rule {
        id: "S4",
        summary: "raw += float-accumulation loops in tensor/nn must live in declared \
                  canonical kernels (lint.toml [[kernel]]) so backends share one \
                  accumulation order",
        check: Check::Semantic(semrules::s4_float_accumulation),
    },
    Rule {
        id: "S5",
        summary: "every try_* function in a panic-free crate has a panicking twin \
                  implemented as a delegating wrapper (checked structurally)",
        check: Check::Semantic(semrules::s5_fallible_siblings),
    },
];

/// Looks up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Expands a `--rules` spec — a comma list of ids and ranges
/// (`R1,R3`, `R1-R10,S2`, `S1-S5`) — into rule ids, validating every
/// part against the registry.
///
/// # Errors
///
/// Returns a message naming the offending part when an id is unknown, a
/// range is malformed, or its endpoints use different tiers.
pub fn expand_spec(spec: &str) -> Result<Vec<&'static str>, String> {
    let mut out: Vec<&'static str> = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((lo, hi)) = part.split_once('-') {
            let (lo, hi) = (lo.trim(), hi.trim());
            let tier = lo.chars().next().ok_or_else(|| format!("empty range start in `{part}`"))?;
            if !hi.starts_with(tier) {
                return Err(format!("range `{part}` mixes tiers; write it as `{tier}a-{tier}b`"));
            }
            let parse_num = |s: &str| {
                s[1..]
                    .parse::<u32>()
                    .map_err(|_| format!("malformed rule id `{s}` in range `{part}`"))
            };
            let (a, b) = (parse_num(lo)?, parse_num(hi)?);
            if a > b {
                return Err(format!("range `{part}` runs backwards"));
            }
            for n in a..=b {
                let id = format!("{tier}{n}");
                let rule = rule_by_id(&id)
                    .ok_or_else(|| format!("range `{part}` covers unknown rule `{id}`"))?;
                if !out.contains(&rule.id) {
                    out.push(rule.id);
                }
            }
        } else {
            let rule = rule_by_id(part).ok_or_else(|| format!("unknown rule `{part}`"))?;
            if !out.contains(&rule.id) {
                out.push(rule.id);
            }
        }
    }
    if out.is_empty() {
        return Err(format!("rule spec `{spec}` selects nothing"));
    }
    Ok(out)
}

fn diag(rule: &'static str, file: &FileUnit, line: u32, item: &str, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: file.path.clone(),
        line,
        item: item.to_string(),
        message,
        chain: Vec::new(),
    }
}

/// Whether token `i` begins a macro invocation of `name` (`name` followed
/// by `!`).
fn is_macro(p: &ParsedFile, i: usize, name: &str) -> bool {
    p.ident(i) == Some(name) && p.is_punct(i + 1, '!')
}

/// R1: panic hygiene in library crates.
fn rule_r1_panic_hygiene(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.kind != FileKind::Src || !PANIC_FREE_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let p = &file.parsed;
        for i in 0..p.tokens.len() {
            if p.test_mask[i] {
                continue;
            }
            match p.ident(i) {
                Some(m @ ("unwrap" | "expect")) if p.is_method_call(i) => {
                    out.push(diag(
                        "R1",
                        file,
                        p.line(i),
                        m,
                        format!(
                            ".{m}() in library code; propagate the error or use the \
                             sanctioned `try_*().unwrap_or_else(|e| panic!(\"{{e}}\"))` wrapper"
                        ),
                    ));
                }
                Some("panic") if p.is_punct(i + 1, '!') => {
                    // Sanctioned when the panic! is an argument of
                    // unwrap_or_else (the documented wrapper idiom).
                    if p.enclosing_calls(i).contains(&"unwrap_or_else") {
                        continue;
                    }
                    out.push(diag(
                        "R1",
                        file,
                        p.line(i),
                        "panic",
                        "bare `panic!` in library code; return a TensorError (or use \
                         an assert with an invariant message) instead"
                            .to_string(),
                    ));
                }
                _ => {}
            }
        }
    }
    out
}

/// Idents that make a function body panic-capable for R2.
fn body_can_panic(p: &ParsedFile, body: std::ops::Range<usize>) -> bool {
    for i in body {
        if let Some(id) = p.ident(i) {
            match id {
                "panic" | "assert" | "assert_eq" | "assert_ne" | "unreachable" | "todo"
                | "unimplemented"
                    if p.is_punct(i + 1, '!') =>
                {
                    return true;
                }
                "unwrap" | "expect" if p.is_method_call(i) => {
                    return true;
                }
                _ => {}
            }
        }
    }
    false
}

/// R2: `# Panics` documentation on panic-capable public functions.
fn rule_r2_panics_docs(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.kind != FileKind::Src {
            continue;
        }
        let p = &file.parsed;
        for f in &p.functions {
            if !f.is_pub || f.in_test || f.body.is_empty() {
                continue;
            }
            if body_can_panic(p, f.body.clone()) && !f.doc.contains("# Panics") {
                out.push(diag(
                    "R2",
                    file,
                    f.line,
                    &f.name,
                    format!(
                        "public function `{}` can panic but its docs have no \
                         `# Panics` section",
                        f.name
                    ),
                ));
            }
        }
    }
    out
}

/// Constructor parameters that R3 requires to be validated.
const VALIDATED_PARAMS: &[&str] = &["epsilon", "eps", "step", "step_size"];

/// Whether some `assert!(...)` region in `body` validates `param` with both
/// `is_finite()` and a `>= 0.0` bound.
fn body_validates(p: &ParsedFile, body: std::ops::Range<usize>, param: &str) -> bool {
    let mut i = body.start;
    while i < body.end {
        if is_macro(p, i, "assert") && p.is_open(i + 2, '(') {
            let close = p.match_of[i + 2];
            if close != usize::MAX {
                let region = i + 3..close.min(body.end);
                let mentions = region.clone().any(|k| p.ident(k) == Some(param));
                let finite = region.clone().any(|k| p.ident(k) == Some("is_finite"));
                let lower_bound = region.clone().any(|k| {
                    p.is_punct(k, '>')
                        && p.is_punct(k + 1, '=')
                        && matches!(
                            p.tokens.get(k + 2).map(|t| &t.kind),
                            Some(crate::lexer::TokenKind::Literal(l)) if l.starts_with("0.0")
                        )
                });
                if mentions && finite && lower_bound {
                    return true;
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    false
}

/// R3: attack constructors validate their numeric hyperparameters.
fn rule_r3_ctor_validation(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.kind != FileKind::Src || file.crate_name != "simpadv-attacks" {
            continue;
        }
        let p = &file.parsed;
        for f in &p.functions {
            if f.name != "new" || f.in_test || f.body.is_empty() {
                continue;
            }
            for param in &f.params {
                if !VALIDATED_PARAMS.contains(&param.as_str()) {
                    continue;
                }
                if !body_validates(p, f.body.clone(), param) {
                    out.push(diag(
                        "R3",
                        file,
                        f.line,
                        param,
                        format!(
                            "constructor `new` takes `{param}` but does not validate it; \
                             add `assert!({param} >= 0.0 && {param}.is_finite(), ...)`"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Clamp-family methods R4 watches for.
const CLAMP_METHODS: &[&str] = &["clamp", "maximum", "minimum", "min", "max"];

/// R4: epsilon-ball projection must go through `project_ball`.
fn rule_r4_projection_routing(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.kind != FileKind::Src
            || file.crate_name != "simpadv-attacks"
            || file.path.ends_with("projection.rs")
        {
            continue;
        }
        let p = &file.parsed;
        for i in 0..p.tokens.len() {
            if p.test_mask[i] {
                continue;
            }
            let Some(m) = p.ident(i) else { continue };
            if !CLAMP_METHODS.contains(&m) || !p.is_method_call(i) {
                continue;
            }
            let close = p.match_of[i + 1];
            if close == usize::MAX {
                continue;
            }
            let arg_has_eps = (i + 2..close).any(|k| matches!(p.ident(k), Some("epsilon" | "eps")));
            if arg_has_eps {
                out.push(diag(
                    "R4",
                    file,
                    p.line(i),
                    m,
                    format!(
                        "hand-rolled epsilon clamping via `.{m}(..epsilon..)`; all \
                         ball projection must go through `projection::project_ball`"
                    ),
                ));
            }
        }
    }
    out
}

/// R5: seeded-randomness discipline.
fn rule_r5_rng_discipline(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.path.ends_with("crates/tensor/src/rng.rs")
            || file.path == "crates/tensor/src/rng.rs"
        {
            continue;
        }
        let p = &file.parsed;
        for i in 0..p.tokens.len() {
            match p.ident(i) {
                Some(id @ ("thread_rng" | "from_entropy")) => {
                    out.push(diag(
                        "R5",
                        file,
                        p.line(i),
                        id,
                        format!(
                            "`{id}` introduces unseeded randomness; construct rngs via \
                             `StdRng::seed_from_u64` (see crates/tensor/src/rng.rs)"
                        ),
                    ));
                }
                Some("rand")
                    if p.is_punct(i + 1, ':')
                        && p.is_punct(i + 2, ':')
                        && p.ident(i + 3) == Some("random") =>
                {
                    out.push(diag(
                        "R5",
                        file,
                        p.line(i),
                        "random",
                        "`rand::random` draws from an implicit global rng; thread an \
                         explicit seeded rng instead"
                            .to_string(),
                    ));
                }
                _ => {}
            }
        }
    }
    out
}

/// R6: wrapper-pattern tensor ops expose `try_*` siblings.
fn rule_r6_try_siblings(ws: &Workspace) -> Vec<Diagnostic> {
    // Collect every function name defined in tensor src (cross-file).
    let mut tensor_fns: Vec<&str> = Vec::new();
    for file in &ws.files {
        if file.kind == FileKind::Src && file.crate_name == "simpadv-tensor" {
            tensor_fns.extend(file.parsed.functions.iter().map(|f| f.name.as_str()));
        }
    }
    let mut out = Vec::new();
    for file in &ws.files {
        if file.kind != FileKind::Src || file.crate_name != "simpadv-tensor" {
            continue;
        }
        let p = &file.parsed;
        for f in &p.functions {
            if !f.is_pub || f.in_test || f.body.is_empty() || f.name.starts_with("try_") {
                continue;
            }
            let uses_wrapper =
                f.body.clone().any(|i| p.ident(i) == Some("unwrap_or_else") && p.is_method_call(i));
            if !uses_wrapper {
                continue;
            }
            let sibling = format!("try_{}", f.name);
            if !tensor_fns.iter().any(|n| *n == sibling) {
                out.push(diag(
                    "R6",
                    file,
                    f.line,
                    &f.name,
                    format!(
                        "panicking op `{}` wraps a fallible computation but no \
                         `{sibling}` sibling exists; expose the Result-returning form",
                        f.name
                    ),
                ));
            }
        }
    }
    out
}

/// R7: `std::thread` is confined to the runtime crate.
///
/// Direct threading anywhere else would re-introduce exactly the
/// nondeterminism the runtime's fixed-chunk/ordered-reduction contract
/// exists to rule out, so both `std::thread::...` paths and
/// `thread::...` calls (after a `use std::thread`) are flagged.
fn rule_r7_thread_containment(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.crate_name == "simpadv-runtime" {
            continue;
        }
        let p = &file.parsed;
        for i in 0..p.tokens.len() {
            if p.ident(i) != Some("thread") {
                continue;
            }
            let path_use = p.is_punct(i + 1, ':') && p.is_punct(i + 2, ':');
            let std_qualified = i >= 3
                && p.ident(i - 3) == Some("std")
                && p.is_punct(i - 2, ':')
                && p.is_punct(i - 1, ':');
            if path_use || std_qualified {
                out.push(diag(
                    "R7",
                    file,
                    p.line(i),
                    "thread",
                    "`std::thread` outside crates/runtime; express parallelism \
                     through a `simpadv_runtime::Runtime` so the determinism \
                     contract (fixed chunking, ordered reduction) holds"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// R11: `std::net` is confined to the serving crate.
///
/// Sockets are a side-channel past every invariant this wall defends —
/// untraced I/O, nondeterministic ordering, durable output without the
/// atomic-write protocol. `crates/serve` wraps them behind the batch
/// engine (whose forwards stay on the deterministic runtime) and a
/// typed client; everything else — tests and benches included — talks
/// to a server through `simpadv_serve::client`, never a raw socket.
fn rule_r11_net_containment(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.crate_name == "simpadv-serve" {
            continue;
        }
        let p = &file.parsed;
        for i in 0..p.tokens.len() {
            let socket_type = matches!(
                p.ident(i),
                Some("TcpListener" | "TcpStream" | "UdpSocket" | "SocketAddr")
            );
            let net_path = p.ident(i) == Some("net")
                && i >= 3
                && p.ident(i - 3) == Some("std")
                && p.is_punct(i - 2, ':')
                && p.is_punct(i - 1, ':');
            if socket_type || net_path {
                out.push(diag(
                    "R11",
                    file,
                    p.line(i),
                    p.ident(i).unwrap_or("net"),
                    "`std::net` outside crates/serve; talk to the inference server \
                     through `simpadv_serve::client` so every byte on the wire goes \
                     through the traced, backpressure-aware serving path"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// R12: `std::process` is confined to the sweep orchestrator and the CLI.
///
/// Spawning children and exiting the process are supervision concerns:
/// `crates/sweep` owns child lifecycle (spawn, deadline kill, exit-status
/// triage) and `crates/cli` owns the process boundary (its `main` maps a
/// typed error to an exit code). Anywhere else, `Command`/`Child`/`Stdio`
/// or a `process::exit` bypasses the supervision protocol — a library
/// crate that exits can never be retried, and a child spawned outside
/// the orchestrator escapes the manifest's crash accounting. Identifier
/// matching is unconditional for the spawn types (they have no other
/// meaning in this workspace); `exit` is only flagged when
/// path-qualified with `process::`, so `process::id()` in test helpers
/// and unrelated `exit` identifiers stay clean.
fn rule_r12_process_containment(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.crate_name == "simpadv-sweep" || file.crate_name == "simpadv-cli" {
            continue;
        }
        let p = &file.parsed;
        for i in 0..p.tokens.len() {
            let spawn_type = matches!(p.ident(i), Some("Command" | "Child" | "Stdio"));
            let process_exit = p.ident(i) == Some("exit")
                && i >= 3
                && p.ident(i - 3) == Some("process")
                && p.is_punct(i - 2, ':')
                && p.is_punct(i - 1, ':');
            if spawn_type || process_exit {
                out.push(diag(
                    "R12",
                    file,
                    p.line(i),
                    p.ident(i).unwrap_or("process"),
                    "`std::process` outside crates/sweep and crates/cli; child \
                     lifecycle belongs to the sweep supervisor and exit codes to \
                     the CLI boundary — return a typed error and let the caller \
                     decide the process's fate"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// Crates whose `src/` may print to stdout/stderr directly (R8): the
/// user-facing CLI, the lint tool itself, and the bench/regeneration
/// binaries.
const PRINT_CRATES: &[&str] = &["simpadv-cli", "simpadv-lint", "simpadv-bench"];

/// Print-family macros R8 confines.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// R8: stdout/stderr printing is confined to the user-facing crates.
///
/// Library crates must not talk to the terminal — observability goes
/// through `simpadv-trace` events, whose sinks (`crates/trace/src/sink.rs`)
/// are the one sanctioned place where telemetry becomes bytes.
fn rule_r8_print_containment(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.kind != FileKind::Src
            || PRINT_CRATES.contains(&file.crate_name.as_str())
            || file.path.ends_with("crates/trace/src/sink.rs")
            || file.path == "crates/trace/src/sink.rs"
        {
            continue;
        }
        let p = &file.parsed;
        for i in 0..p.tokens.len() {
            if p.test_mask[i] {
                continue;
            }
            let Some(m) = p.ident(i) else { continue };
            if PRINT_MACROS.contains(&m) && p.is_punct(i + 1, '!') {
                out.push(diag(
                    "R8",
                    file,
                    p.line(i),
                    m,
                    format!(
                        "`{m}!` in library code; emit a simpadv-trace event (span, \
                         counter, gauge) and let a sink decide how to render it"
                    ),
                ));
            }
        }
    }
    out
}

/// Crates R9 exempts: `simpadv-resilience` owns the atomic-write
/// protocol, and the trace sinks write append-only event streams where a
/// replace-on-close protocol would be wrong (a crashed run should keep
/// the events it managed to emit).
const DURABLE_WRITE_CRATES: &[&str] = &["simpadv-resilience", "simpadv-trace"];

/// R9: durable-write containment.
///
/// A bare `File::create` (or `std::fs::write`) truncates in place: a
/// crash mid-write leaves a torn file at the final path, which is exactly
/// the failure mode the checkpoint subsystem exists to rule out. All
/// artifact/model/checkpoint output must go through
/// `simpadv_resilience::atomic_write` and friends.
fn rule_r9_durable_writes(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.kind != FileKind::Src || DURABLE_WRITE_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let p = &file.parsed;
        for i in 0..p.tokens.len() {
            if p.test_mask[i] {
                continue;
            }
            let path_sep = p.is_punct(i + 1, ':') && p.is_punct(i + 2, ':');
            if !path_sep {
                continue;
            }
            match (p.ident(i), p.ident(i + 3)) {
                (Some("File"), Some("create")) => {
                    out.push(diag(
                        "R9",
                        file,
                        p.line(i),
                        "create",
                        "`File::create` truncates in place; write durable output \
                         through `simpadv_resilience::atomic_write` (temp file + \
                         fsync + rename) so a crash never leaves a torn file"
                            .to_string(),
                    ));
                }
                (Some("fs"), Some("write")) => {
                    out.push(diag(
                        "R9",
                        file,
                        p.line(i),
                        "write",
                        "`fs::write` truncates in place; write durable output \
                         through `simpadv_resilience::atomic_write` (temp file + \
                         fsync + rename) so a crash never leaves a torn file"
                            .to_string(),
                    ));
                }
                _ => {}
            }
        }
    }
    out
}

/// R10: wall-clock quarantine. `std::time::Instant`/`SystemTime` are
/// confined to the span clock (`crates/trace/src/clock.rs`, which wraps
/// them in `WallTimer`) and the offline analyzers in `crates/obs`;
/// everywhere else, production code times itself through the span
/// clock so wall readings stay in `meta` and never leak into logical
/// event content. Test code is exempt. The kernel lab's calibration
/// file earns a `lint.toml` allow entry rather than a hole here: the
/// rule still reports it, and the allowlist records the justification
/// (its readings feed artifact `meta` only).
fn rule_r10_wall_clock_quarantine(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.kind != FileKind::Src
            || file.crate_name == "simpadv-obs"
            || file.path == "crates/trace/src/clock.rs"
        {
            continue;
        }
        let p = &file.parsed;
        for i in 0..p.tokens.len() {
            if p.test_mask[i] {
                continue;
            }
            if let Some(name @ ("Instant" | "SystemTime")) = p.ident(i) {
                out.push(diag(
                    "R10",
                    file,
                    p.line(i),
                    name,
                    format!(
                        "`{name}` outside the wall-clock quarantine \
                         (crates/trace/src/clock.rs and crates/obs); time through \
                         `simpadv_trace::clock::WallTimer` so wall readings stay \
                         in event `meta` and the logical stream stays thread-invariant"
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files.iter().map(|(path, src)| FileUnit::from_source(path, src)).collect(),
        }
    }

    fn run(rule: &str, files: &[(&str, &str)]) -> Vec<Diagnostic> {
        match rule_by_id(rule).expect("known rule").check {
            Check::Syntactic(f) => f(&ws(files)),
            Check::Semantic(_) => panic!("semantic rules are tested in semrules.rs"),
        }
    }

    #[test]
    fn expand_spec_handles_ids_ranges_and_errors() {
        assert_eq!(expand_spec("R1").unwrap(), vec!["R1"]);
        assert_eq!(expand_spec("R1,R3").unwrap(), vec!["R1", "R3"]);
        assert_eq!(expand_spec("S1-S5").unwrap(), vec!["S1", "S2", "S3", "S4", "S5"]);
        assert_eq!(expand_spec("R8-R10,S2").unwrap(), vec!["R8", "R9", "R10", "S2"]);
        // Duplicates collapse.
        assert_eq!(expand_spec("R1,R1-R2").unwrap(), vec!["R1", "R2"]);
        assert!(expand_spec("R13").is_err());
        assert!(expand_spec("R1-S2").is_err());
        assert!(expand_spec("S5-S1").is_err());
        assert!(expand_spec("").is_err());
        assert!(expand_spec("R1-R99").is_err());
    }

    // ---- R1 ----

    #[test]
    fn r1_fires_on_unwrap_in_library_src() {
        let d = run(
            "R1",
            &[("crates/tensor/src/ops.rs", "pub fn f(x: Option<f32>) -> f32 { x.unwrap() }")],
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "unwrap");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn r1_fires_on_expect_and_bare_panic() {
        let src = r#"
fn a(x: Option<u8>) -> u8 { x.expect("boom") }
fn b() { panic!("no"); }
"#;
        let d = run("R1", &[("crates/nn/src/layer.rs", src)]);
        let items: Vec<&str> = d.iter().map(|d| d.item.as_str()).collect();
        assert_eq!(items, vec!["expect", "panic"]);
    }

    #[test]
    fn r1_allows_sanctioned_wrapper_and_test_code() {
        let src = r#"
pub fn matmul(&self, o: &T) -> T {
    self.try_matmul(o).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); y.expect("fine"); panic!("fine"); }
}
"#;
        assert!(run("R1", &[("crates/tensor/src/linalg.rs", src)]).is_empty());
    }

    #[test]
    fn r1_ignores_non_library_crates_and_strings() {
        let files = [
            ("crates/cli/src/main.rs", "fn main() { x.unwrap(); }"),
            (
                "crates/tensor/src/doc.rs",
                r#"pub fn f() -> &'static str { "call .unwrap() at your peril" }"#,
            ),
        ];
        assert!(run("R1", &files).is_empty());
    }

    // ---- R2 ----

    #[test]
    fn r2_fires_on_undocumented_panicking_pub_fn() {
        let src = r#"
/// Adds.
pub fn add(a: usize, b: usize) -> usize {
    assert!(a < 100, "too big");
    a + b
}
"#;
        let d = run("R2", &[("crates/tensor/src/ops.rs", src)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "add");
    }

    #[test]
    fn r2_satisfied_by_panics_section_and_skips_private() {
        let src = r#"
/// Adds.
///
/// # Panics
///
/// Panics when `a >= 100`.
pub fn add(a: usize) -> usize { assert!(a < 100); a }

fn private_helper(a: usize) -> usize { assert!(a < 100); a }

pub fn no_panic(a: usize) -> usize { a + 1 }
"#;
        assert!(run("R2", &[("crates/tensor/src/ops.rs", src)]).is_empty());
    }

    // ---- R3 ----

    #[test]
    fn r3_fires_when_epsilon_not_validated() {
        let src = r#"
impl Fgsm {
    pub fn new(epsilon: f32) -> Self {
        Self { epsilon }
    }
}
"#;
        let d = run("R3", &[("crates/attacks/src/fgsm.rs", src)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "epsilon");
    }

    #[test]
    fn r3_accepts_seed_idiom_and_checks_each_param() {
        let src = r#"
impl Pgd {
    pub fn new(epsilon: f32, step: f32, iters: usize) -> Self {
        assert!(epsilon >= 0.0 && epsilon.is_finite(), "invalid epsilon {epsilon}");
        Self { epsilon, step, iters }
    }
}
"#;
        // epsilon validated, step not: exactly one diagnostic, for step.
        let d = run("R3", &[("crates/attacks/src/pgd.rs", src)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "step");
    }

    #[test]
    fn r3_requires_is_finite_not_just_lower_bound() {
        let src = r#"
impl A {
    pub fn new(epsilon: f32) -> Self {
        assert!(epsilon >= 0.0, "negative epsilon");
        Self { epsilon }
    }
}
"#;
        let d = run("R3", &[("crates/attacks/src/a.rs", src)]);
        assert_eq!(d.len(), 1);
    }

    // ---- R4 ----

    #[test]
    fn r4_fires_on_manual_epsilon_clamp() {
        let src = r#"
fn step(&self, x: &T, orig: &T) -> T {
    x.clamp(orig.sub_scalar(self.epsilon), orig.add_scalar(self.epsilon))
}
"#;
        let d = run("R4", &[("crates/attacks/src/pgd.rs", src)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "clamp");
    }

    #[test]
    fn r4_allows_projection_rs_and_plain_clamps() {
        let files = [
            (
                "crates/attacks/src/projection.rs",
                "pub fn project_ball(x: &T, eps: f32) -> T { x.maximum(eps) }",
            ),
            ("crates/attacks/src/l2.rs", "fn f(x: &T) -> T { x.clamp(0.0, 1.0) }"),
        ];
        assert!(run("R4", &files).is_empty());
    }

    #[test]
    fn r4_fires_on_min_max_pair_with_eps() {
        let src = "fn f(&self) -> T { d.max(-eps).min(eps) }";
        let d = run("R4", &[("crates/attacks/src/custom.rs", src)]);
        assert_eq!(d.len(), 2);
    }

    // ---- R5 ----

    #[test]
    fn r5_fires_everywhere_except_tensor_rng() {
        let files = [
            ("crates/data/src/synth.rs", "fn f() { let mut r = thread_rng(); }"),
            ("crates/nn/src/init.rs", "fn g() { let r = StdRng::from_entropy(); }"),
            ("crates/core/src/train.rs", "fn h() -> f32 { rand::random() }"),
            ("crates/tensor/src/rng.rs", "fn ok() { let r = thread_rng(); }"),
        ];
        let d = run("R5", &files);
        let items: Vec<&str> = d.iter().map(|d| d.item.as_str()).collect();
        assert_eq!(items, vec!["thread_rng", "from_entropy", "random"]);
    }

    #[test]
    fn r5_ignores_seeded_construction() {
        let src = "fn f() { let r = StdRng::seed_from_u64(42); }";
        assert!(run("R5", &[("crates/core/src/train.rs", src)]).is_empty());
    }

    // ---- R6 ----

    #[test]
    fn r6_fires_when_wrapper_has_no_try_sibling() {
        let src = r#"
pub fn matmul(&self, o: &T) -> T {
    self.inner_mul(o).unwrap_or_else(|e| panic!("{e}"))
}
"#;
        let d = run("R6", &[("crates/tensor/src/linalg.rs", src)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "matmul");
    }

    #[test]
    fn r6_satisfied_by_cross_file_sibling() {
        let files = [
            (
                "crates/tensor/src/linalg.rs",
                "pub fn matmul(&self, o: &T) -> T { self.try_matmul(o).unwrap_or_else(|e| panic!(\"{e}\")) }",
            ),
            (
                "crates/tensor/src/fallible.rs",
                "pub fn try_matmul(&self, o: &T) -> Result<T, TensorError> { todo_body() }",
            ),
        ];
        assert!(run("R6", &files).is_empty());
    }

    #[test]
    fn r6_skips_non_wrapper_and_try_fns() {
        let src = r#"
pub fn shape(&self) -> &[usize] { &self.shape }
pub fn try_reshape(&self, s: &[usize]) -> Result<T, E> { inner(s) }
"#;
        assert!(run("R6", &[("crates/tensor/src/ops.rs", src)]).is_empty());
    }

    // ---- R7 ----

    #[test]
    fn r7_fires_on_std_thread_outside_runtime() {
        let files = [
            ("crates/nn/src/layer.rs", "fn f() { std::thread::sleep(d); }"),
            ("crates/core/src/eval.rs", "use std::thread;\nfn g() { thread::spawn(|| {}); }"),
        ];
        let d = run("R7", &files);
        assert_eq!(d.len(), 3);
        assert!(d.iter().all(|d| d.item == "thread"));
        assert_eq!(d[1].line, 1); // the `use std::thread` import itself
        assert_eq!(d[2].line, 2); // the `thread::spawn` call
    }

    #[test]
    fn r7_allows_runtime_crate_and_unrelated_idents() {
        let files = [
            ("crates/runtime/src/lib.rs", "fn f() { std::thread::scope(|s| work(s)); }"),
            ("crates/core/src/train.rs", "fn g(threads: usize) -> usize { threads + 1 }"),
            ("crates/data/src/synth.rs", "fn h() { let thread = 3; let x = thread; }"),
        ];
        assert!(run("R7", &files).is_empty());
    }

    // ---- R8 ----

    #[test]
    fn r8_fires_on_printing_from_library_src() {
        let files = [
            ("crates/tensor/src/ops.rs", "fn f() { println!(\"shape {s:?}\"); }"),
            ("crates/trace/src/lib.rs", "fn g() { eprintln!(\"oops\"); }"),
        ];
        let d = run("R8", &files);
        let items: Vec<&str> = d.iter().map(|d| d.item.as_str()).collect();
        assert_eq!(items, vec!["println", "eprintln"]);
    }

    // ---- R9 ----

    #[test]
    fn r9_fires_on_file_create_and_fs_write_in_src() {
        let files = [
            ("crates/bench/src/lib.rs", "fn f(p: &Path) { let file = std::fs::File::create(p); }"),
            ("crates/cli/src/commands.rs", "fn g(p: &Path) { File::create(p); }"),
            ("crates/data/src/pgm.rs", "fn h(p: &Path) { std::fs::write(p, b\"x\"); }"),
        ];
        let d = run("R9", &files);
        let items: Vec<&str> = d.iter().map(|d| d.item.as_str()).collect();
        assert_eq!(items, vec!["create", "create", "write"]);
    }

    #[test]
    fn r9_allows_resilience_trace_tests_and_reads() {
        let files = [
            (
                "crates/resilience/src/atomic.rs",
                "pub fn atomic_write(p: &Path) { std::fs::File::create(p); }",
            ),
            ("crates/trace/src/lib.rs", "fn sink(p: &Path) { std::fs::File::create(p); }"),
            ("crates/cli/src/commands.rs", "fn open(p: &Path) { std::fs::File::open(p); }"),
            (
                "crates/nn/src/serialize.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::fs::write(\"x\", b\"y\").unwrap(); }\n}\n",
            ),
            ("crates/core/tests/resume.rs", "fn t(p: &Path) { std::fs::File::create(p); }"),
        ];
        assert!(run("R9", &files).is_empty());
    }

    // ---- R10 ----

    #[test]
    fn r10_fires_on_instant_and_systemtime_outside_the_quarantine() {
        let files = [
            ("crates/core/src/train/mod.rs", "fn f() { let t = std::time::Instant::now(); }"),
            (
                "crates/bench/src/bin/table1.rs",
                "use std::time::SystemTime;\nfn g() { let t = SystemTime::now(); }",
            ),
            // the kernel lab's allow entry is scoped to calibrate.rs: a
            // sibling file in the same module still trips the rule
            (
                "crates/bench/src/kernels/mod.rs",
                "fn sweep() { let t = std::time::Instant::now(); }",
            ),
        ];
        let d = run("R10", &files);
        let items: Vec<&str> = d.iter().map(|d| d.item.as_str()).collect();
        assert_eq!(items, vec!["Instant", "SystemTime", "SystemTime", "Instant"]);
        assert!(d[0].message.contains("WallTimer"));
    }

    #[test]
    fn r10_allows_clock_module_obs_crate_and_test_code() {
        let files = [
            (
                "crates/trace/src/clock.rs",
                "pub struct WallTimer { start: std::time::Instant }",
            ),
            (
                "crates/obs/src/tree.rs",
                "fn stamp() -> std::time::Instant { std::time::Instant::now() }",
            ),
            (
                "crates/nn/src/layers.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = std::time::Instant::now(); }\n}\n",
            ),
            ("crates/tensor/tests/ops.rs", "fn t() { let _ = std::time::Instant::now(); }"),
            // comments and strings never tokenize into idents
            ("crates/data/src/lib.rs", "// Instant\nfn f() -> &'static str { \"SystemTime\" }"),
        ];
        assert!(run("R10", &files).is_empty());
    }

    // ---- R11 ----

    #[test]
    fn r11_fires_on_sockets_outside_the_serve_crate() {
        let files = [
            (
                "crates/bench/src/bin/custom.rs",
                "fn main() { let l = std::net::TcpListener::bind(\"0:0\"); }",
            ),
            (
                "crates/cli/src/commands.rs",
                "use std::net::TcpStream;\nfn f() { let _ = TcpStream::connect(\"a:1\"); }",
            ),
            // tests are NOT exempt: they must also go through the client
            ("tests/poke.rs", "fn t() { let _ = std::net::UdpSocket::bind(\"0:0\"); }"),
        ];
        let d = run("R11", &files);
        assert!(d.len() >= 3, "each socket use flagged: {d:?}");
        assert!(d[0].message.contains("simpadv_serve::client"));
    }

    #[test]
    fn r11_allows_the_serve_crate_and_inert_text() {
        let files = [
            (
                "crates/serve/src/server.rs",
                "use std::net::{TcpListener, TcpStream};\nfn f(l: &TcpListener) {}",
            ),
            (
                "crates/serve/src/client.rs",
                "fn c() { let _ = std::net::TcpStream::connect(\"a:1\"); }",
            ),
            // comments and strings never tokenize into idents
            ("crates/data/src/lib.rs", "// TcpStream\nfn f() -> &'static str { \"std::net\" }"),
        ];
        assert!(run("R11", &files).is_empty());
    }

    // ---- R12 ----

    #[test]
    fn r12_fires_on_process_use_outside_sweep_and_cli() {
        let files = [
            (
                "crates/bench/src/bin/custom.rs",
                "fn main() { let _ = std::process::Command::new(\"ls\").status(); }",
            ),
            (
                "crates/serve/src/server.rs",
                "use std::process::exit;\nfn f() { std::process::exit(2); }",
            ),
            // tests are NOT exempt: a test that spawns escapes supervision too
            ("crates/obs/tests/poke.rs", "fn t(c: std::process::Child) { drop(c); }"),
        ];
        let d = run("R12", &files);
        assert!(d.len() >= 3, "each process use flagged: {d:?}");
        assert!(d[0].message.contains("sweep supervisor"));
    }

    #[test]
    fn r12_allows_the_orchestrator_the_cli_and_inert_text() {
        let files = [
            (
                "crates/sweep/src/supervise.rs",
                "use std::process::{Child, Command, Stdio};\nfn f(c: &mut Child) {}",
            ),
            ("crates/cli/src/main.rs", "fn main() { std::process::exit(1); }"),
            // `process::id()` in temp-dir helpers is not a spawn or an exit
            ("crates/data/src/lib.rs", "fn tag() -> u32 { std::process::id() }"),
            // comments and strings never tokenize into idents
            ("crates/nn/src/lib.rs", "// Command\nfn f() -> &'static str { \"std::process\" }"),
        ];
        assert!(run("R12", &files).is_empty());
    }

    #[test]
    fn r8_allows_cli_lint_bench_sinks_and_tests() {
        let files = [
            ("crates/cli/src/main.rs", "fn main() { println!(\"ok\"); }"),
            ("crates/lint/src/main.rs", "fn main() { eprintln!(\"{d}\"); }"),
            ("crates/bench/src/bin/table1.rs", "fn main() { println!(\"{row}\"); }"),
            ("crates/trace/src/sink.rs", "fn emit() { println!(\"{line}\"); }"),
            (
                "crates/nn/src/layer.rs",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { println!(\"dbg\"); }\n}\n",
            ),
            ("crates/core/tests/train.rs", "fn t() { println!(\"dbg\"); }"),
            (
                "crates/data/src/doc.rs",
                r#"fn f() -> &'static str { "println! is mentioned here" }"#,
            ),
        ];
        assert!(run("R8", &files).is_empty());
    }
}
