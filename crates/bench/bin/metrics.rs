//! `repro metrics`: scrape a running server's registry over the wire.

use ltam_bench::args::{Command, Stop};
use ltam_serve::LtamClient;

const HELP: &str = "\
usage: repro metrics --addr HOST:PORT

Scrape a running ltam-serve server's metric registry over the wire
(the KIND_METRICS frame), validate the exposition against the text
grammar (including duplicate-series rejection), and print it to
stdout. Point any text-format-speaking collector at the same frame, or
use this as a one-shot `curl` stand-in during incidents
(docs/OPERATIONS.md section 7 builds its checklist on these series).

options:
  --addr HOST:PORT  server address to scrape                 [required]
  --help            this text
";

const COMMAND: Command = Command {
    name: "metrics",
    help: HELP,
    flags: &[],
    values: &["--addr"],
};

/// One-shot wire scrape of a running server's registry.
pub fn run(args: &[String]) {
    let addr: String = COMMAND.options(args, |a| {
        a.value("--addr")?
            .ok_or_else(|| Stop::Usage("--addr is required".to_string()))
    });
    let mut client = match LtamClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("metrics: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let text = match client.metrics() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("metrics: scrape failed: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = ltam_obs::validate(&text) {
        eprintln!("metrics: exposition failed validation: {e}");
        std::process::exit(1);
    }
    print!("{text}");
}
