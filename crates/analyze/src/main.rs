//! CLI for the workspace determinism lint.
//!
//! ```text
//! cargo run -p ehsim-analyze -- check [--root DIR] [--verbose]
//! ```

#![forbid(unsafe_code)]

use ehsim_analyze::engine;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: ehsim-analyze check [--root DIR] [--verbose]";

struct Options {
    root: Option<PathBuf>,
    verbose: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        verbose: false,
    };
    if args.first().map(String::as_str) != Some("check") {
        return Err(format!("expected the `check` subcommand\n{USAGE}"));
    }
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or(format!("--root needs a value\n{USAGE}"))?;
                opts.root = Some(PathBuf::from(v));
            }
            "--verbose" | "-v" => opts.verbose = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Finds the workspace root: the nearest ancestor of the current
/// directory whose `Cargo.toml` declares `[workspace]`, falling back
/// to two levels above this crate's manifest.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            break;
        }
    }
    let fallback = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    fallback.canonicalize().ok()
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;
    let root = match opts.root {
        Some(r) => r,
        None => find_workspace_root().ok_or("cannot locate the workspace root; pass --root")?,
    };
    if !root.is_dir() {
        return Err(format!("root `{}` is not a directory", root.display()));
    }
    let report = engine::check_tree(&root).map_err(|e| e.to_string())?;
    print!("{}", report.render(opts.verbose));
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ehsim-analyze: {msg}");
            ExitCode::from(2)
        }
    }
}
