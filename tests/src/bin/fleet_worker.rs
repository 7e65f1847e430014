//! A minimal `swip serve` worker for the fleet integration tests.
//!
//! The tests need real *processes* (the dead-worker test SIGKILLs one
//! mid-sweep, which an in-process server thread cannot model), spawned
//! via `env!("CARGO_BIN_EXE_fleet_worker")`. Arguments are positional:
//! `fleet_worker [instructions] [stride] [threads]`. The
//! picked ephemeral port is announced on stdout as `listening on ADDR`,
//! the same line `swip serve` prints for scripts to scrape.

use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let instructions: u64 = args
        .get(1)
        .map(|s| s.parse().expect("instructions must be a number"))
        .unwrap_or(20_000);
    let stride: usize = args
        .get(2)
        .map(|s| s.parse().expect("stride must be a number"))
        .unwrap_or(16);
    let threads: usize = args
        .get(3)
        .map(|s| s.parse().expect("threads must be a number"))
        .unwrap_or(2);

    let session = swip_bench::SessionBuilder::new()
        .instructions(instructions)
        .stride(stride)
        .threads(threads)
        .build()
        .expect("worker session");

    let config = swip_serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..swip_serve::ServeConfig::default()
    };
    let server = swip_serve::Server::bind(&config, session).expect("bind worker");
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().expect("flush addr line");
    server.run().expect("worker serve loop");
}
