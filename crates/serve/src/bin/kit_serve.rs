//! The `kit-serve` binary: bind, announce the address, serve until
//! killed.
//!
//! ```text
//! kit-serve [--addr HOST:PORT] [--workers N]
//!           [--queue-cap N] [--rate RPS[:BURST]] [--deadline-ms N]
//! ```
//!
//! Prints `listening on HOST:PORT` on stdout once ready (port 0 in
//! `--addr` picks an ephemeral port; scripts parse this line).

use kit_serve::server::{RateLimit, Server, ServerConfig};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: kit-serve [--addr HOST:PORT] [--workers N] [--queue-cap N] \
         [--rate RPS[:BURST]] [--deadline-ms N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => addr = value(),
            "--workers" => {
                config.workers = value().parse().unwrap_or_else(|_| usage());
            }
            "--queue-cap" => {
                config.queue_cap = value().parse().unwrap_or_else(|_| usage());
            }
            "--rate" => {
                let v = value();
                let (rps, burst) = match v.split_once(':') {
                    Some((r, b)) => (r.parse(), b.parse()),
                    None => (v.parse(), v.parse()),
                };
                match (rps, burst) {
                    (Ok(rps), Ok(burst)) => config.rate_limit = Some(RateLimit { rps, burst }),
                    _ => usage(),
                }
            }
            "--deadline-ms" => {
                config.default_deadline_ms = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            _ => usage(),
        }
    }

    let server = match Server::bind(&addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("kit-serve: bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let mut handle = server.spawn();
    println!("listening on {}", handle.addr());
    std::io::stdout().flush().expect("flush stdout");
    handle.join_acceptor();
}
