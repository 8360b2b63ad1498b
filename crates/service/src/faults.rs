//! Deterministic transport-fault injection.
//!
//! Retry, failover, drain and backoff paths are worthless if they are
//! only reasoned about; this module makes them *executable*. A
//! [`FaultPlan`] is a seeded, serializable schedule of transport
//! faults ("kill the daemon at request 40", "truncate the reply of
//! request 9 after 17 bytes") that two consumers share:
//!
//! * `coded --fault-plan SPEC` — the real binary injects the faults in
//!   its serve loops (a `kill` exits the process), so CI can rehearse
//!   shard death against real sockets, and
//! * [`ShardFleet`] — an in-process harness that runs N TCP shards in
//!   threads, applies per-shard plans, and can restart a killed shard
//!   on its original port, so unit tests exercise the same scenarios
//!   without process management.
//!
//! Faults fire on the daemon's *n-th accepted request line* (1-based,
//! counted across all connections of one daemon instance), which makes
//! a faulted run a pure function of (plan, request stream) — two runs
//! of the same seeded scenario behave identically, the property the
//! proxy determinism gates are built on.
//!
//! # Plan grammar
//!
//! Semicolon-separated events, each `kind[:arg]@request`:
//!
//! ```text
//! kill@40              exit (bin) / stop serving (harness) at request 40
//! hang:1500@30         park request 30 for 1500 ms, then close, no reply
//! refuse@5             after replying to request 5, accept no new connections
//! close:17@9           write only the first 17 bytes of reply 9, then close
//! delay:50@3           sleep 50 ms before replying to request 3
//! ```

use crate::server::{Service, ServiceConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// One kind of injected transport fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The daemon dies: the bin exits the process, the in-process
    /// harness stops serving every stream and closes its listener.
    Kill,
    /// The connection serving the request parks for `millis`, then
    /// closes without replying — a stuck shard, as seen by a client
    /// with a read timeout.
    Hang {
        /// How long the connection stays parked, milliseconds.
        millis: u64,
    },
    /// The daemon stops accepting new connections (existing ones keep
    /// being served) — a full backlog / dead listener.
    RefuseAccept,
    /// The reply is truncated after `bytes` bytes and the connection
    /// closes — a torn frame, the worst-case partial write.
    CloseAfter {
        /// Reply bytes actually written before the close.
        bytes: usize,
    },
    /// The reply is delayed by `millis`, then served normally — slow
    /// shard, exercises timeout tuning without failover.
    Delay {
        /// Added latency, milliseconds.
        millis: u64,
    },
}

impl FaultKind {
    fn render(&self) -> String {
        match self {
            FaultKind::Kill => "kill".to_string(),
            FaultKind::Hang { millis } => format!("hang:{millis}"),
            FaultKind::RefuseAccept => "refuse".to_string(),
            FaultKind::CloseAfter { bytes } => format!("close:{bytes}"),
            FaultKind::Delay { millis } => format!("delay:{millis}"),
        }
    }
}

/// One scheduled fault: `kind` fires when the daemon serves its
/// `at_request`-th request line (1-based, across all connections).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// 1-based global request index the fault fires at.
    pub at_request: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of transport faults (see the module docs
/// for the grammar).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Events, sorted by request index (enforced by the constructors).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with a single event.
    pub fn single(at_request: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            events: vec![FaultEvent { at_request, kind }],
        }
    }

    /// Parses the `kind[:arg]@request;...` grammar.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown kinds, missing or
    /// malformed arguments/indices, and duplicate request indices
    /// (which would make the schedule ambiguous).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut events = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind_spec, at) = part
                .split_once('@')
                .ok_or_else(|| format!("fault `{part}` is missing `@request-index`"))?;
            let at_request: u64 = at
                .trim()
                .parse()
                .map_err(|_| format!("fault `{part}`: `{at}` is not a request index"))?;
            if at_request == 0 {
                return Err(format!("fault `{part}`: request indices are 1-based"));
            }
            let (name, arg) = match kind_spec.split_once(':') {
                Some((name, arg)) => (name.trim(), Some(arg.trim())),
                None => (kind_spec.trim(), None),
            };
            let parse_arg = |what: &str| -> Result<u64, String> {
                arg.ok_or_else(|| format!("fault `{part}` needs `:{what}`"))?
                    .parse()
                    .map_err(|_| format!("fault `{part}`: `{what}` must be an integer"))
            };
            let kind = match name {
                "kill" => FaultKind::Kill,
                "refuse" => FaultKind::RefuseAccept,
                "hang" => FaultKind::Hang {
                    millis: parse_arg("millis")?,
                },
                "delay" => FaultKind::Delay {
                    millis: parse_arg("millis")?,
                },
                "close" => FaultKind::CloseAfter {
                    bytes: usize::try_from(parse_arg("bytes")?)
                        .map_err(|_| format!("fault `{part}`: byte count too large"))?,
                },
                other => {
                    return Err(format!(
                        "unknown fault kind `{other}` (known: kill, hang, refuse, close, delay)"
                    ))
                }
            };
            if matches!(kind, FaultKind::Kill | FaultKind::RefuseAccept) && arg.is_some() {
                return Err(format!("fault `{part}` takes no argument"));
            }
            events.push(FaultEvent { at_request, kind });
        }
        events.sort_by_key(|e| e.at_request);
        if events
            .windows(2)
            .any(|w| w[0].at_request == w[1].at_request)
        {
            return Err("two faults share one request index".to_string());
        }
        Ok(FaultPlan { events })
    }

    /// Renders the plan back into the grammar ([`FaultPlan::parse`] of
    /// the result round-trips).
    pub fn render(&self) -> String {
        self.events
            .iter()
            .map(|e| format!("{}@{}", e.kind.render(), e.at_request))
            .collect::<Vec<_>>()
            .join(";")
    }

    /// A seeded plan: `events` faults at distinct request indices in
    /// `[1, max_request]`, kinds drawn deterministically from the
    /// full matrix. Same seed, same plan.
    pub fn seeded(seed: u64, events: usize, max_request: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17);
        let mut picked = Vec::new();
        let mut out = Vec::new();
        for _ in 0..events {
            let mut at = rng.gen_range(1..=max_request.max(1));
            // Distinct indices keep the schedule unambiguous; linear
            // probing stays deterministic.
            while picked.contains(&at) {
                at = at % max_request.max(1) + 1;
            }
            picked.push(at);
            let kind = match rng.gen_range(0..5u32) {
                0 => FaultKind::Kill,
                1 => FaultKind::Hang {
                    millis: rng.gen_range(100u64..=2000),
                },
                2 => FaultKind::RefuseAccept,
                3 => FaultKind::CloseAfter {
                    bytes: rng.gen_range(0..64usize),
                },
                _ => FaultKind::Delay {
                    millis: rng.gen_range(1u64..=100),
                },
            };
            out.push(FaultEvent {
                at_request: at,
                kind,
            });
        }
        out.sort_by_key(|e| e.at_request);
        FaultPlan { events: out }
    }
}

/// What the serve loop must do with the current request line, as
/// decided by [`FaultInjector::on_request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Serve normally.
    None,
    /// Sleep, then serve normally.
    Delay(Duration),
    /// Sleep, then close the connection without replying.
    Hang(Duration),
    /// Die (exit the process / stop serving).
    Kill,
    /// Write only this many reply bytes, then close the connection.
    CloseAfter(usize),
}

/// Shared per-daemon fault state: one global request counter plus the
/// latched kill/refuse flags the serve loops poll.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    served: AtomicU64,
    killed: AtomicBool,
    refusing: AtomicBool,
    /// `true` in the real binary: a `kill` fault exits the process
    /// (exit code [`KILL_EXIT_CODE`]). `false` in the in-process
    /// harness, which latches [`FaultInjector::killed`] instead.
    pub exit_on_kill: bool,
}

/// Exit code of a `coded` process that died to a `kill` fault, so a
/// supervising script can tell an injected death from a crash.
pub const KILL_EXIT_CODE: i32 = 9;

impl FaultInjector {
    /// A fresh injector for one daemon lifetime.
    pub fn new(plan: FaultPlan, exit_on_kill: bool) -> FaultInjector {
        FaultInjector {
            plan,
            served: AtomicU64::new(0),
            killed: AtomicBool::new(false),
            refusing: AtomicBool::new(false),
            exit_on_kill,
        }
    }

    /// Counts one request line and returns the action the serve loop
    /// must take for it. `RefuseAccept` latches the refusing flag and
    /// maps to [`FaultAction::None`] (the triggering request itself is
    /// still answered); `Kill` latches the killed flag.
    pub fn on_request(&self) -> FaultAction {
        let index = self.served.fetch_add(1, Ordering::SeqCst) + 1;
        let Some(event) = self.plan.events.iter().find(|e| e.at_request == index) else {
            return FaultAction::None;
        };
        match event.kind {
            FaultKind::Kill => {
                self.killed.store(true, Ordering::SeqCst);
                FaultAction::Kill
            }
            FaultKind::RefuseAccept => {
                self.refusing.store(true, Ordering::SeqCst);
                FaultAction::None
            }
            FaultKind::Hang { millis } => FaultAction::Hang(Duration::from_millis(millis)),
            FaultKind::Delay { millis } => FaultAction::Delay(Duration::from_millis(millis)),
            FaultKind::CloseAfter { bytes } => FaultAction::CloseAfter(bytes),
        }
    }

    /// Whether a `kill` fault has fired (in-process harness mode).
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Whether a `refuse` fault has fired: the accept loop must stop
    /// accepting (and close its listener).
    pub fn refusing(&self) -> bool {
        self.refusing.load(Ordering::SeqCst)
    }

    /// Request lines counted so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::SeqCst)
    }
}

struct FleetShard {
    addr: SocketAddr,
    service: Service,
    accept: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

/// An in-process fleet of N TCP shards, each a full [`Service`] with
/// its own listener thread and optional [`FaultPlan`] — the test-side
/// consumer of the fault layer. A killed shard can be
/// [restarted](ShardFleet::restart) on its original port with a fresh
/// (fault-free) service, modeling supervisor-driven recovery.
pub struct ShardFleet {
    base: ServiceConfig,
    drain: Duration,
    shards: Vec<FleetShard>,
}

impl ShardFleet {
    /// Starts `plans.len()` shards on ephemeral loopback ports. Every
    /// shard shares `base` (same seed → byte-identical route replies,
    /// the property the proxy gates rely on); `plans[i]` is shard
    /// `i`'s fault schedule. `drain` bounds each shard's shutdown
    /// drain.
    ///
    /// # Errors
    ///
    /// Propagates listener bind errors.
    pub fn start(
        base: &ServiceConfig,
        plans: &[Option<FaultPlan>],
        drain: Duration,
    ) -> std::io::Result<ShardFleet> {
        let mut shards = Vec::new();
        for plan in plans {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let config = ServiceConfig {
                fault_plan: plan.clone(),
                fault_exit: false,
                ..base.clone()
            };
            let service = Service::start(config);
            let server = service.clone();
            let accept = std::thread::spawn(move || server.serve_tcp(listener, drain));
            shards.push(FleetShard {
                addr,
                service,
                accept: Some(accept),
            });
        }
        Ok(ShardFleet {
            base: base.clone(),
            drain,
            shards,
        })
    }

    /// The shards' `host:port` addresses, in shard order.
    pub fn addrs(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.to_string()).collect()
    }

    /// Shard `i`'s service handle (e.g. to read its stats).
    pub fn service(&self, i: usize) -> &Service {
        &self.shards[i].service
    }

    /// Whether shard `i` has died to a `kill` fault.
    pub fn is_killed(&self, i: usize) -> bool {
        self.shards[i].service.fault_killed()
    }

    /// Restarts shard `i` on its original port with a fresh,
    /// fault-free service (a supervisor never re-runs the crash
    /// schedule). The old accept loop must already be stopping (killed
    /// or shut down); its listener is released when the thread exits,
    /// so the rebind retries briefly.
    ///
    /// # Errors
    ///
    /// Returns the last bind error if the port cannot be reacquired.
    pub fn restart(&mut self, i: usize) -> std::io::Result<()> {
        let shard = &mut self.shards[i];
        if let Some(handle) = shard.accept.take() {
            let _ = handle.join();
        }
        let mut last_err = None;
        for _ in 0..200 {
            match TcpListener::bind(shard.addr) {
                Ok(listener) => {
                    let config = ServiceConfig {
                        fault_plan: None,
                        fault_exit: false,
                        ..self.base.clone()
                    };
                    let service = Service::start(config);
                    let server = service.clone();
                    let drain = self.drain;
                    shard.service = service;
                    shard.accept = Some(std::thread::spawn(move || {
                        server.serve_tcp(listener, drain)
                    }));
                    return Ok(());
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        Err(last_err.expect("bind retried at least once"))
    }

    /// Stops every shard (serving each a `shutdown` line) and joins
    /// the accept loops.
    pub fn shutdown(&mut self) {
        for shard in &mut self.shards {
            if let Some(handle) = shard.accept.take() {
                let _ = shard.service.handle_line("{\"type\":\"shutdown\"}");
                let _ = handle.join();
            }
        }
    }
}

impl Drop for ShardFleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_grammar_round_trips() {
        let spec = "delay:50@3;refuse@5;close:17@9;hang:1500@30;kill@40";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.events.len(), 5);
        assert_eq!(plan.render(), spec);
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
        // Events come back sorted regardless of spec order.
        let shuffled = FaultPlan::parse("kill@40;delay:50@3").unwrap();
        assert_eq!(shuffled.events[0].at_request, 3);
        // Empty segments are tolerated (trailing semicolons).
        assert_eq!(FaultPlan::parse(";;").unwrap().events.len(), 0);
    }

    #[test]
    fn plan_parse_rejects_malformed_specs() {
        for (spec, needle) in [
            ("kill", "missing `@request-index`"),
            ("kill@zero", "not a request index"),
            ("kill@0", "1-based"),
            ("hang@3", "needs `:millis`"),
            ("close:many@3", "`bytes` must be an integer"),
            ("explode@3", "unknown fault kind"),
            ("kill:9@3", "takes no argument"),
            ("kill@3;delay:1@3", "share one request index"),
        ] {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "`{spec}` gave `{err}`");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::seeded(7, 4, 50);
        let b = FaultPlan::seeded(7, 4, 50);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded(8, 4, 50));
        assert_eq!(a.events.len(), 4);
        let mut seen = Vec::new();
        for event in &a.events {
            assert!((1..=50).contains(&event.at_request));
            assert!(
                !seen.contains(&event.at_request),
                "indices must be distinct"
            );
            seen.push(event.at_request);
        }
    }

    #[test]
    fn injector_fires_each_event_at_its_index_once() {
        let plan = FaultPlan::parse("delay:5@2;refuse@3;kill@4").unwrap();
        let injector = FaultInjector::new(plan, false);
        assert_eq!(injector.on_request(), FaultAction::None);
        assert_eq!(
            injector.on_request(),
            FaultAction::Delay(Duration::from_millis(5))
        );
        assert!(!injector.refusing());
        assert_eq!(injector.on_request(), FaultAction::None);
        assert!(injector.refusing(), "refuse latches on its index");
        assert!(!injector.killed());
        assert_eq!(injector.on_request(), FaultAction::Kill);
        assert!(injector.killed(), "kill latches");
        assert_eq!(injector.on_request(), FaultAction::None);
        assert_eq!(injector.served(), 5);
    }
}
