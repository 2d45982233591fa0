//! # simpadv-cli
//!
//! The library behind the `simpadv-cli` command-line tool: argument parsing
//! and the subcommand implementations. Model files are
//! [`simpadv_serve::ServedModel`]s, the type the server deploys.
//! Keeping the logic in a library makes every code path unit-testable;
//! `main.rs` is a thin shell.
//!
//! ```text
//! simpadv-cli generate --dataset mnist --samples 20 --preview 3
//! simpadv-cli train    --dataset mnist --method proposed --epochs 40 --out model.json
//! simpadv-cli evaluate --model model.json --dataset mnist
//! simpadv-cli attack   --model model.json --dataset mnist --attack bim10 --index 3
//! ```

mod args;
mod commands;

pub use args::{Args, ParseError};
pub use commands::{run, CliError};
