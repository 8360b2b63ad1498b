//! `codar-proxy` — the stateless sharded front tier.
//!
//! ```text
//! codar-proxy --backend ADDR [--backend ADDR ...] [--listen ADDR]
//!             [--retries N] [--connect-timeout-ms N] [--read-timeout-ms N]
//!             [--backoff-base-ms N] [--backoff-cap-ms N]
//!             [--probe-interval-ms N] [--seed S] [--drain-ms N]
//!             [--trace-log FILE]
//! ```
//!
//! Speaks the same NDJSON protocol as `coded` on the client side and
//! fans requests out across the `--backend` fleet by rendezvous
//! hashing of the canonical route identity (see
//! `codar_service::proxy`). Run every backend with the **same seed and
//! configuration**; replies are then byte-identical regardless of
//! which shard answers, and the tier is transparent: clients cannot
//! tell one shard from eight, even across failovers.
//!
//! `--trace-log FILE` attaches the structured trace sink: the proxy
//! records its shard-pick/attempt span trees to FILE and injects
//! minted `p-N` trace ids into untraced forwarded route lines, so
//! `codar-trace --merge` can stitch proxy and shard logs into
//! per-request waterfalls.

use codar_service::server::DEFAULT_DRAIN;
use codar_service::{Proxy, ProxyConfig};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    config: ProxyConfig,
    listen: String,
    drain: Duration,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        config: ProxyConfig::default(),
        listen: "127.0.0.1:7800".to_string(),
        drain: DEFAULT_DRAIN,
    };
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let parse_ms = |text: String, flag: &str| -> Result<Duration, String> {
        text.parse()
            .map(Duration::from_millis)
            .map_err(|e| format!("bad {flag} value: {e}"))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--backend" => {
                parsed.config.backends.push(value(args, i, "--backend")?);
                i += 2;
            }
            "--listen" => {
                parsed.listen = value(args, i, "--listen")?;
                i += 2;
            }
            "--retries" => {
                parsed.config.retries = value(args, i, "--retries")?
                    .parse()
                    .map_err(|e| format!("bad --retries value: {e}"))?;
                i += 2;
            }
            "--connect-timeout-ms" => {
                parsed.config.connect_timeout = parse_ms(
                    value(args, i, "--connect-timeout-ms")?,
                    "--connect-timeout-ms",
                )?;
                i += 2;
            }
            "--read-timeout-ms" => {
                parsed.config.read_timeout =
                    parse_ms(value(args, i, "--read-timeout-ms")?, "--read-timeout-ms")?;
                i += 2;
            }
            "--backoff-base-ms" => {
                parsed.config.backoff_base =
                    parse_ms(value(args, i, "--backoff-base-ms")?, "--backoff-base-ms")?;
                i += 2;
            }
            "--backoff-cap-ms" => {
                parsed.config.backoff_cap =
                    parse_ms(value(args, i, "--backoff-cap-ms")?, "--backoff-cap-ms")?;
                i += 2;
            }
            "--probe-interval-ms" => {
                parsed.config.probe_interval = parse_ms(
                    value(args, i, "--probe-interval-ms")?,
                    "--probe-interval-ms",
                )?;
                i += 2;
            }
            "--seed" => {
                parsed.config.seed = value(args, i, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
                i += 2;
            }
            "--drain-ms" => {
                parsed.drain = parse_ms(value(args, i, "--drain-ms")?, "--drain-ms")?;
                i += 2;
            }
            "--trace-log" => {
                parsed.config.trace_log = Some(value(args, i, "--trace-log")?);
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

fn run(args: Args) -> Result<(), String> {
    let backends = args.config.backends.len();
    let proxy = Proxy::start(args.config)?;
    let listener = std::net::TcpListener::bind(&args.listen)
        .map_err(|e| format!("cannot listen on {}: {e}", args.listen))?;
    eprintln!(
        "codar-proxy: listening on {} ({backends} backends, retry budget {})",
        listener
            .local_addr()
            .map_or(args.listen.clone(), |a| a.to_string()),
        proxy.config().retries,
    );
    proxy
        .serve_tcp(listener, args.drain)
        .map_err(|e| format!("accept loop failed: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
