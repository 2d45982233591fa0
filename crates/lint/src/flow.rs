//! Source→sink taint analysis over the call graph.
//!
//! A function is a *determinism-taint source* if its body touches a
//! nondeterministic input: wall-clock time, unordered container
//! iteration, thread-count discovery, or entropy-seeded RNG. Taint
//! propagates from a source to every (transitive) caller; rule S2 then
//! checks that no declared sink (`lint.toml` `[[taint]]` tables) meets
//! a tainted function in either direction.

use crate::callgraph::CallGraph;
use crate::parse::ParsedFile;
use crate::symbols::{FnId, SymbolTable};
use crate::Workspace;
use std::collections::BTreeMap;

/// Why a function is considered a taint source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// `Instant` / `SystemTime` wall-clock reads.
    WallClock,
    /// Iteration over `HashMap` / `HashSet` (unordered).
    UnorderedIter,
    /// `available_parallelism` (machine-dependent thread count).
    ThreadCount,
    /// Entropy-seeded randomness (`thread_rng`, `from_entropy`,
    /// `rand::random`).
    EntropyRng,
}

impl SourceKind {
    /// Short human label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall-clock time",
            SourceKind::UnorderedIter => "unordered HashMap/HashSet iteration",
            SourceKind::ThreadCount => "available_parallelism",
            SourceKind::EntropyRng => "entropy-seeded RNG",
        }
    }
}

/// Iterator-producing / order-observing method names on hash containers.
const ITER_METHODS: &[&str] =
    &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain", "retain"];

/// Files allowed to read the wall clock by design (mirrors the R10
/// quarantine plus its `lint.toml` allow entry): the trace clock stores
/// wall seconds only in event `meta`, and the kernel lab's calibration
/// loops feed only the artifact's `meta` wall stats — its gateable
/// logical rows come from the trace clock in a separate, untimed sweep.
fn wall_clock_exempt(path: &str) -> bool {
    path == "crates/trace/src/clock.rs" || path == "crates/bench/src/kernels/calibrate.rs"
}

/// The seeded-RNG implementation itself may name entropy constructors in
/// docs/guards without being a source.
fn rng_exempt(path: &str) -> bool {
    path == "crates/tensor/src/rng.rs"
}

/// Scans one function body for taint sources. Returns the first (and
/// strongest) kind found, in a fixed priority order for determinism.
/// `hash_in_file` says whether the surrounding file names a hash
/// container anywhere outside test code — the container type usually
/// appears in the signature, not the body, so the co-occurrence check
/// is file-scoped while the iteration call stays body-scoped.
fn body_sources(
    p: &ParsedFile,
    body: &std::ops::Range<usize>,
    path: &str,
    crate_name: &str,
    hash_in_file: bool,
) -> Option<SourceKind> {
    let mut wall = false;
    let mut thread_count = false;
    let mut rng = false;
    let mut hash_named = hash_in_file;
    let mut hash_iter = false;
    for i in body.clone() {
        let Some(id) = p.ident(i) else { continue };
        match id {
            "Instant" | "SystemTime" => wall = true,
            "available_parallelism" => thread_count = true,
            "thread_rng" | "from_entropy" => rng = true,
            // `rand::random(...)`; plain `.random()` on a seeded rng
            // is fine.
            "random" if i >= 3 && p.ident(i - 3) == Some("rand") => rng = true,
            "HashMap" | "HashSet" => hash_named = true,
            m if ITER_METHODS.contains(&m) && p.is_method_call(i) => hash_iter = true,
            _ => {}
        }
    }
    if wall && !wall_clock_exempt(path) {
        return Some(SourceKind::WallClock);
    }
    // Thread-count discovery inside the runtime crate is the sanctioned
    // entry point: its contract (fixed chunking, ordered reduction —
    // enforced by S3 and the runtime's own thread-sweep tests) is that
    // the count steers scheduling only, never results. Anywhere else,
    // `available_parallelism` is a live determinism leak.
    if thread_count && crate_name != "simpadv-runtime" {
        return Some(SourceKind::ThreadCount);
    }
    if rng && !rng_exempt(path) {
        return Some(SourceKind::EntropyRng);
    }
    // Unordered iteration needs both a hash container named in the same
    // body and an iterator-family method call — a heuristic, but hash
    // containers are banned workspace-wide outside explicit exemptions,
    // so co-occurrence in one function is a strong signal.
    if hash_named && hash_iter {
        return Some(SourceKind::UnorderedIter);
    }
    None
}

/// Finds every taint-source function in the workspace (non-test `src`
/// code only). Returns a map from function id to the kind of source
/// observed in its body.
pub fn find_sources(symbols: &SymbolTable, ws: &Workspace) -> BTreeMap<FnId, SourceKind> {
    // Whether each file names HashMap/HashSet anywhere outside tests.
    let hash_in_file: Vec<bool> = ws
        .files
        .iter()
        .map(|u| {
            (0..u.parsed.tokens.len()).any(|i| {
                !u.parsed.test_mask[i]
                    && matches!(u.parsed.ident(i), Some("HashMap") | Some("HashSet"))
            })
        })
        .collect();
    let mut out = BTreeMap::new();
    for (id, f) in symbols.fns.iter().enumerate() {
        if f.in_test || f.body.is_empty() || f.kind != crate::FileKind::Src {
            continue;
        }
        let p = &ws.files[f.file].parsed;
        if let Some(kind) = body_sources(p, &f.body, &f.path, &f.crate_name, hash_in_file[f.file]) {
            out.insert(id as FnId, kind);
        }
    }
    out
}

/// Propagates taint from source functions to all transitive callers.
/// Returns, for every tainted function, the nearest source it reaches
/// (sources map to themselves). Multi-source BFS over reverse edges;
/// ties break toward the lowest source id for determinism.
pub fn tainted_by(graph: &CallGraph, sources: &BTreeMap<FnId, SourceKind>) -> BTreeMap<FnId, FnId> {
    let mut origin: BTreeMap<FnId, FnId> = BTreeMap::new();
    let mut queue: Vec<FnId> = Vec::new();
    for &s in sources.keys() {
        origin.insert(s, s);
        queue.push(s);
    }
    let mut qi = 0;
    while qi < queue.len() {
        let u = queue[qi];
        qi += 1;
        let src = origin[&u];
        for &caller in &graph.redges[u as usize] {
            if let std::collections::btree_map::Entry::Vacant(e) = origin.entry(caller) {
                e.insert(src);
                queue.push(caller);
            }
        }
    }
    origin
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SymbolTable;
    use crate::FileUnit;

    fn sources_of(path: &str, src: &str) -> Vec<SourceKind> {
        let ws = Workspace { files: vec![FileUnit::from_source(path, src)] };
        let symbols = SymbolTable::build(&ws);
        find_sources(&symbols, &ws).into_values().collect()
    }

    #[test]
    fn wall_clock_is_a_source_outside_the_trace_clock() {
        assert_eq!(
            sources_of("crates/nn/src/model.rs", "fn f() { let t = Instant::now(); }"),
            vec![SourceKind::WallClock]
        );
        assert!(sources_of("crates/trace/src/clock.rs", "fn f() { let t = Instant::now(); }")
            .is_empty());
    }

    #[test]
    fn hash_iteration_requires_cooccurrence() {
        assert_eq!(
            sources_of(
                "crates/core/src/x.rs",
                "fn f(m: &HashMap<u32, u32>) { for k in m.keys() { let _ = k; } }"
            ),
            vec![SourceKind::UnorderedIter]
        );
        // keys() on a BTreeMap, no hash container named: not a source.
        assert!(sources_of(
            "crates/core/src/x.rs",
            "fn f(m: &BTreeMap<u32, u32>) { for k in m.keys() { let _ = k; } }"
        )
        .is_empty());
    }

    #[test]
    fn entropy_rng_and_thread_count_are_sources() {
        assert_eq!(
            sources_of("crates/core/src/x.rs", "fn f() { let r = thread_rng(); }"),
            vec![SourceKind::EntropyRng]
        );
        assert_eq!(
            sources_of(
                "crates/core/src/x.rs",
                "fn f() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }"
            ),
            vec![SourceKind::ThreadCount]
        );
        // The runtime crate owns thread-count discovery.
        assert!(sources_of(
            "crates/runtime/src/lib.rs",
            "pub fn available_threads() -> usize { std::thread::available_parallelism().map_or(1, NonZeroUsize::get) }"
        )
        .is_empty());
    }

    #[test]
    fn test_code_is_never_a_source() {
        assert!(sources_of(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { let t = Instant::now(); }\n}"
        )
        .is_empty());
    }

    #[test]
    fn taint_propagates_to_callers_only() {
        let g = CallGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        // Node 2 is a source: 0, 1, 2 are tainted (callers), 3 is not.
        let sources: BTreeMap<FnId, SourceKind> = [(2, SourceKind::WallClock)].into();
        let tainted = tainted_by(&g, &sources);
        assert!(tainted.contains_key(&0));
        assert!(tainted.contains_key(&1));
        assert!(tainted.contains_key(&2));
        assert!(!tainted.contains_key(&3));
        assert_eq!(tainted[&0], 2);
    }
}
