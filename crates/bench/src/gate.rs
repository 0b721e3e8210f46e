//! Differential gates of the wire server against the in-process proxy.
//!
//! A gate drives one sequential conversation over the wire through a live
//! event-driven [`Server`] and straight through a fresh [`SqlProxy`], and
//! compares, entry by entry, what each side logged, the proxy's
//! allowed/blocked counters, and its decision journal (template hash,
//! verdict, cache tier). The server is an *execution* strategy, never a
//! *decision* strategy: any difference is a mismatch.
//!
//! [`gate_run`] owns the set-up and the read-back; the caller's closure
//! only drives a [`GateTarget`], which answers every statement as a
//! [`GateOutcome`] — the form both sides can report.

use std::sync::Arc;
use std::time::Duration;

use appdsl::{DslError, PortOutcome, QueryPort};
use bep_core::{ProxyResponse, SqlProxy};
use bep_server::{Client, ClientError, ExecOutcome, Server, ServerConfig};
use minidb::Rows;
use sqlir::Value;

/// Per-operation client I/O timeout of the wire side.
const IO: Duration = Duration::from_secs(30);

type Bindings = [(String, Value)];

/// One statement's outcome, normalised to what both the wire and the
/// in-process proxy report: rows, an affected count, a blocked reason
/// label, or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOutcome {
    /// Rows of an allowed `SELECT`.
    Rows(Rows),
    /// Row count of an allowed write.
    Affected(u64),
    /// The stable label of the deny reason.
    Blocked(String),
    /// The statement failed with a typed error.
    Error,
}

impl GateOutcome {
    /// The outcome as a handler sees it through a [`QueryPort`].
    pub fn to_port(&self) -> Result<PortOutcome, DslError> {
        match self {
            GateOutcome::Rows(rows) => Ok(PortOutcome::Rows(rows.clone())),
            GateOutcome::Affected(n) => Ok(PortOutcome::Affected(*n as usize)),
            GateOutcome::Blocked(reason) => Ok(PortOutcome::Blocked(reason.clone())),
            GateOutcome::Error => Err(DslError::Port("statement failed".into())),
        }
    }
}

/// Which side of the gate a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateSide {
    /// A live server with [`ServerConfig::default`], one client.
    Wire,
    /// Straight calls on the proxy.
    InProcess,
}

/// Where a gate run sends its sessions and statements.
pub enum GateTarget<'a> {
    /// Over one client connection.
    Wire(&'a mut Client),
    /// Straight to the proxy.
    InProcess(&'a SqlProxy),
}

impl GateTarget<'_> {
    /// Begins a session with `bindings`.
    pub fn begin(&mut self, bindings: Vec<(String, Value)>) -> u64 {
        match self {
            GateTarget::Wire(client) => client.begin(bindings).expect("begin"),
            GateTarget::InProcess(proxy) => proxy.begin_session(bindings),
        }
    }

    /// Ends `session`.
    pub fn end(&mut self, session: u64) {
        match self {
            GateTarget::Wire(client) => {
                client.end(session).expect("end");
            }
            GateTarget::InProcess(proxy) => {
                proxy.end_session(session);
            }
        }
    }

    /// Executes one statement and normalises its outcome. A transport
    /// failure on the wire side aborts the gate.
    pub fn execute(&mut self, session: u64, sql: &str, bindings: &Bindings) -> GateOutcome {
        match self {
            GateTarget::Wire(client) => match client.execute(session, sql, bindings) {
                Ok(ExecOutcome::Rows(rows)) => GateOutcome::Rows(rows),
                Ok(ExecOutcome::Affected(n)) => GateOutcome::Affected(n),
                Ok(ExecOutcome::Blocked { reason, .. }) => GateOutcome::Blocked(reason),
                Err(ClientError::Server { .. }) => GateOutcome::Error,
                Err(e) => panic!("gate transport failed: {e}"),
            },
            GateTarget::InProcess(proxy) => match proxy.execute(session, sql, bindings) {
                Ok(ProxyResponse::Rows(rows)) => GateOutcome::Rows(rows),
                Ok(ProxyResponse::Affected(n)) => GateOutcome::Affected(n as u64),
                Ok(ProxyResponse::Blocked(reason)) => {
                    GateOutcome::Blocked(reason.label().to_string())
                }
                Err(_) => GateOutcome::Error,
            },
        }
    }
}

/// Runs handler statements through a [`GateTarget`] under one session,
/// logging every normalised outcome.
pub struct GatePort<'t, 'a> {
    /// Where statements go.
    pub target: &'t mut GateTarget<'a>,
    /// The session they run under.
    pub session: u64,
    /// One `Debug`-rendered [`GateOutcome`] per statement, in order.
    pub log: &'t mut Vec<String>,
}

impl QueryPort for GatePort<'_, '_> {
    fn run(&mut self, sql: &str, bindings: &Bindings) -> Result<PortOutcome, DslError> {
        let out = self.target.execute(self.session, sql, bindings);
        self.log.push(format!("{out:?}"));
        out.to_port()
    }
}

/// What one gate run produced, in comparable form.
pub struct GateRun {
    /// The driver's log, one entry per step.
    pub log: Vec<String>,
    /// Allowed decisions.
    pub allowed: u64,
    /// Blocked decisions.
    pub blocked: u64,
    /// Journal provenance: (template hash, verdict, cache tier).
    pub journal: Vec<(u64, &'static str, &'static str)>,
}

/// Drives `proxy` from `side` with `drive`, then reads back its counters
/// and journal. On the wire side the server is drained before the
/// read-back, so every decision has been counted and journaled.
pub fn gate_run(
    proxy: Arc<SqlProxy>,
    side: GateSide,
    drive: impl FnOnce(&mut GateTarget<'_>) -> Vec<String>,
) -> GateRun {
    let log = match side {
        GateSide::Wire => {
            let server = Server::start(Arc::clone(&proxy), ServerConfig::default(), "127.0.0.1:0")
                .expect("start server");
            let mut client = Client::connect(server.addr(), IO).expect("connect");
            let log = drive(&mut GateTarget::Wire(&mut client));
            drop(client);
            server.shutdown();
            log
        }
        GateSide::InProcess => drive(&mut GateTarget::InProcess(&proxy)),
    };
    let stats = proxy.stats();
    let journal = proxy
        .journal()
        .events_since(0, usize::MAX)
        .into_iter()
        .map(|ev| (ev.template_hash, ev.verdict.label(), ev.tier.label()))
        .collect();
    GateRun {
        log,
        allowed: stats.allowed,
        blocked: stats.blocked,
        journal,
    }
}

/// Counts the differences between two runs (logs entry by entry, then
/// counters, then journal provenance), reporting each on stderr.
pub fn compare_runs(name: &str, label: &str, a: &GateRun, b: &GateRun) -> usize {
    let mut mismatches = 0;
    if a.log.len() != b.log.len() {
        mismatches += 1;
        eprintln!(
            "{name} [{label}]: log lengths differ: {} vs {}",
            a.log.len(),
            b.log.len()
        );
    }
    for (i, (x, y)) in a.log.iter().zip(&b.log).enumerate() {
        if x != y {
            mismatches += 1;
            eprintln!("{name} [{label}] entry {i}: {x} vs {y}");
        }
    }
    if (a.allowed, a.blocked) != (b.allowed, b.blocked) {
        mismatches += 1;
        eprintln!(
            "{name} [{label}]: counters diverged: {}/{} vs {}/{}",
            a.allowed, a.blocked, b.allowed, b.blocked
        );
    }
    if a.journal != b.journal {
        mismatches += 1;
        eprintln!("{name} [{label}]: journal provenance diverged");
    }
    mismatches
}
