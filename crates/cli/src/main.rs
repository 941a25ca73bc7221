//! The `hrviz` binary: see [`hrviz_cli`] for the implementation.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Test code is exempt: clippy.toml's allow-*-in-tests covers the other three.
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match hrviz_cli::parse_args(&args).and_then(|cli| hrviz_cli::run(&cli)) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            // Distinct exit codes per error class: usage 2, config 3,
            // io 4, parse 5, sim 6.
            eprintln!("hrviz: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
