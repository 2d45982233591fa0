//! `lint.toml`: allowlist entries plus the S-rule declaration tables.
//!
//! The file is a sequence of tables:
//!
//! ```toml
//! [[allow]]                 # intentional exception to a rule
//! rule = "R1"
//! path = "crates/nn/src/pool.rs"
//! item = "expect"           # optional: restrict to one offending item
//! reason = "backward() has a documented forward-first contract"
//!
//! [[taint]]                 # S2 determinism sink declaration
//! path = "crates/trace/src/clock.rs"
//! item = "tick_forward"
//! reason = "logical counter; must stay thread- and wall-clock-invariant"
//!
//! [[kernel]]                # S4 canonical accumulation kernel
//! path = "crates/tensor/src/ops.rs"
//! item = "add_assign"
//! reason = "the one sanctioned elementwise += loop"
//! ```
//!
//! `path` is required everywhere; `reason` is required too so every
//! declaration carries its justification into review. An `[[allow]]`
//! `rule` must name a registered rule (`simpadv-lint --list`). The
//! parser covers exactly this subset of TOML (comments, `[[name]]`
//! headers, and `key = "string"` pairs) — anything else is a
//! configuration error.

/// One allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id, e.g. `R1`.
    pub rule: String,
    /// Workspace-relative path (forward slashes) the entry applies to.
    pub path: String,
    /// Optional item filter: function name or offending identifier.
    pub item: Option<String>,
    /// Human justification (required).
    pub reason: String,
}

/// One S2 sink declaration: a function whose inputs must stay free of
/// determinism taint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintSink {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Function name.
    pub item: String,
    /// Why this function is a determinism sink.
    pub reason: String,
}

/// One S4 kernel declaration: a function allowed to contain raw `+=`
/// float accumulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelEntry {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Function name.
    pub item: String,
    /// Why this is a canonical accumulation kernel.
    pub reason: String,
}

/// Parsed configuration.
#[derive(Debug, Default)]
pub struct Config {
    /// All allowlist entries.
    pub allows: Vec<AllowEntry>,
    /// S2 determinism sinks.
    pub taints: Vec<TaintSink>,
    /// S4 canonical kernels.
    pub kernels: Vec<KernelEntry>,
}

impl Config {
    /// Whether a diagnostic for `rule` at `path` (with offending `item`)
    /// is allowlisted.
    pub fn is_allowed(&self, rule: &str, path: &str, item: &str) -> bool {
        self.allows.iter().any(|a| {
            a.rule == rule && a.path == path && a.item.as_deref().is_none_or(|it| it == item)
        })
    }
}

/// Errors from [`parse`]. `Display` gives `LINE: MESSAGE`; the caller,
/// which knows the file it read, prefixes its path.
#[derive(Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError { line, message: message.into() }
}

/// Which table a partial entry is being collected for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Allow,
    Taint,
    Kernel,
}

impl Section {
    fn name(self) -> &'static str {
        match self {
            Section::Allow => "allow",
            Section::Taint => "taint",
            Section::Kernel => "kernel",
        }
    }
}

/// Parses `lint.toml` source text.
pub fn parse(src: &str) -> Result<Config, ConfigError> {
    struct Partial {
        section: Section,
        line: usize,
        rule: Option<String>,
        path: Option<String>,
        item: Option<String>,
        reason: Option<String>,
    }
    fn finish(cfg: &mut Config, p: Partial) -> Result<(), ConfigError> {
        let need = |field: Option<String>, name: &str| {
            field.ok_or_else(|| err(p.line, format!("[[{}]] missing `{name}`", p.section.name())))
        };
        let reason = p.reason.ok_or_else(|| {
            err(
                p.line,
                format!(
                    "[[{}]] missing `reason` — every entry must be justified",
                    p.section.name()
                ),
            )
        })?;
        match p.section {
            Section::Allow => {
                let Some(rule) = p.rule else {
                    return Err(err(p.line, "[[allow]] missing `rule`"));
                };
                cfg.allows.push(AllowEntry {
                    rule,
                    path: need(p.path, "path")?,
                    item: p.item,
                    reason,
                });
            }
            Section::Taint => {
                if p.rule.is_some() {
                    return Err(err(p.line, "`rule` is not a [[taint]] key"));
                }
                cfg.taints.push(TaintSink {
                    path: need(p.path, "path")?,
                    item: need(p.item, "item")?,
                    reason,
                });
            }
            Section::Kernel => {
                if p.rule.is_some() {
                    return Err(err(p.line, "`rule` is not a [[kernel]] key"));
                }
                cfg.kernels.push(KernelEntry {
                    path: need(p.path, "path")?,
                    item: need(p.item, "item")?,
                    reason,
                });
            }
        }
        Ok(())
    }

    let mut cfg = Config::default();
    let mut current: Option<Partial> = None;
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let section = match line {
            "[[allow]]" => Some(Section::Allow),
            "[[taint]]" => Some(Section::Taint),
            "[[kernel]]" => Some(Section::Kernel),
            _ => None,
        };
        if let Some(section) = section {
            if let Some(p) = current.take() {
                finish(&mut cfg, p)?;
            }
            current = Some(Partial {
                section,
                line: lineno,
                rule: None,
                path: None,
                item: None,
                reason: None,
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(err(
                lineno,
                format!(
                    "unsupported section `{line}` (only [[allow]], [[taint]] and \
                     [[kernel]] are recognized)"
                ),
            ));
        }
        let Some(eq) = line.find('=') else {
            return Err(err(lineno, format!("expected `key = \"value\"`, found `{line}`")));
        };
        let key = line[..eq].trim();
        let value = line[eq + 1..].trim();
        let value = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')).ok_or_else(|| {
            err(lineno, format!("value for `{key}` must be a double-quoted string"))
        })?;
        let Some(p) = current.as_mut() else {
            return Err(err(lineno, format!("`{key}` outside of a table header")));
        };
        match key {
            "rule" => {
                // An entry for a rule nothing runs would exempt nothing,
                // silently; a retired id is the common way to get one.
                if crate::rules::rule_by_id(value).is_none() {
                    return Err(err(
                        lineno,
                        format!("unknown rule `{value}`; `--list` shows the registered rules"),
                    ));
                }
                p.rule = Some(value.to_string());
            }
            "path" => p.path = Some(value.to_string()),
            "item" => p.item = Some(value.to_string()),
            "reason" => p.reason = Some(value.to_string()),
            other => {
                return Err(err(
                    lineno,
                    format!("unknown key `{other}` in [[{}]]", p.section.name()),
                ));
            }
        }
    }
    if let Some(p) = current.take() {
        finish(&mut cfg, p)?;
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_matches() {
        let cfg = parse(
            r#"
# exceptions
[[allow]]
rule = "R1"
path = "crates/nn/src/pool.rs"
item = "expect"
reason = "documented forward-first contract"

[[allow]]
rule = "R2"
path = "crates/cli/src/args.rs"
reason = "binary crate help text"
"#,
        )
        .expect("valid config");
        assert_eq!(cfg.allows.len(), 2);
        assert!(cfg.is_allowed("R1", "crates/nn/src/pool.rs", "expect"));
        assert!(!cfg.is_allowed("R1", "crates/nn/src/pool.rs", "unwrap"));
        // No `item` filter: any item matches.
        assert!(cfg.is_allowed("R2", "crates/cli/src/args.rs", "whatever"));
        assert!(!cfg.is_allowed("R2", "crates/cli/src/other.rs", "whatever"));
    }

    #[test]
    fn parses_taint_and_kernel_tables() {
        let cfg = parse(
            r#"
[[taint]]
path = "crates/trace/src/clock.rs"
item = "tick_forward"
reason = "logical counter"

[[kernel]]
path = "crates/tensor/src/ops.rs"
item = "add_assign"
reason = "sanctioned elementwise accumulation"
"#,
        )
        .expect("valid config");
        assert_eq!(cfg.taints.len(), 1);
        assert_eq!(cfg.taints[0].item, "tick_forward");
        assert_eq!(cfg.kernels.len(), 1);
        assert_eq!(cfg.kernels[0].path, "crates/tensor/src/ops.rs");
    }

    #[test]
    fn taint_requires_item_and_rejects_rule() {
        let e = parse("[[taint]]\npath = \"x.rs\"\nreason = \"r\"\n").unwrap_err();
        assert!(e.message.contains("item"));
        let e = parse("[[taint]]\nrule = \"S2\"\npath = \"x\"\nitem = \"f\"\nreason = \"r\"\n")
            .unwrap_err();
        assert!(e.message.contains("rule"));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let e = parse("[[allow]]\nrule = \"R1\"\npath = \"x.rs\"\n").unwrap_err();
        assert!(e.message.contains("reason"));
        let e = parse("[[kernel]]\npath = \"x.rs\"\nitem = \"f\"\n").unwrap_err();
        assert!(e.message.contains("reason"));
    }

    #[test]
    fn unregistered_rule_is_an_error_on_its_line() {
        let e = parse("[[allow]]\nrule = \"R7\"\npath = \"x.rs\"\nreason = \"r\"\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown rule `R7`"), "{}", e.message);
        assert!(parse("[[allow]]\nrule = \"R13\"\npath = \"x.rs\"\nreason = \"r\"\n").is_err());
    }

    #[test]
    fn unknown_key_is_an_error() {
        let e = parse("[[allow]]\nrule = \"R1\"\npath = \"x\"\nreason = \"r\"\nbogus = \"v\"\n")
            .unwrap_err();
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn unquoted_value_is_an_error() {
        let e = parse("[[allow]]\nrule = R1\n").unwrap_err();
        assert!(e.message.contains("double-quoted"));
    }

    #[test]
    fn empty_config_is_fine() {
        let cfg = parse("# nothing here\n").expect("empty ok");
        assert!(cfg.allows.is_empty() && cfg.taints.is_empty() && cfg.kernels.is_empty());
    }
}
