//! The `simpadv-cli` command-line tool. All logic lives in the library; this
//! shell parses `argv`, dispatches, and maps errors to exit codes.

use simpadv_cli::{run, Args};

#[expect(
    clippy::disallowed_methods,
    reason = "the CLI boundary maps a typed error to an exit code"
)]
fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run 'simpadv-cli help' for usage");
            std::process::exit(2);
        }
    };
    let mut out = std::io::stdout();
    if let Err(e) = run(&args, &mut out) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
