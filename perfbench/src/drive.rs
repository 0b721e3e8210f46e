//! Closed-loop traffic over the wire: one client thread runs the app's
//! handlers against `bep_server::Client`, waiting for each reply before
//! sending the next statement.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use appdsl::{run_handler, App, DslError, Limits, Outcome, PortOutcome, QueryPort};
use appsim::AppSpec;
use bep_core::{ComplianceChecker, SqlProxy};
use bep_scenario::{GeneratedApp, TrafficEngine, TrafficOp};
use bep_server::{Client, ClientError, ExecOutcome, Request, Response, Server};
use sqlir::Value;

use crate::speed::{Speed, PROBE_EVERY};
use crate::stats::is_write;
use crate::workload::Workload;

/// Bound on every client read and write.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A populated app served by an in-process event-driven server.
pub struct Rig {
    /// The proxy behind the server (read for its counters).
    pub proxy: Arc<SqlProxy>,
    server: Server,
    /// Rows the population inserted.
    pub rows: usize,
}

impl Rig {
    /// Populates the app, compiles its policy and starts the server.
    pub fn start(wl: &Workload, app: &GeneratedApp, traced: bool) -> Rig {
        let mut db = app.empty_db();
        let rows = app.populate(&mut db).expect("population inserts");
        let checker = ComplianceChecker::new(app.schema(), app.policy().expect("policy compiles"));
        let (proxy_cfg, server_cfg) = wl.configs(traced);
        let proxy = Arc::new(SqlProxy::new(db, checker, proxy_cfg));
        let server = Server::start(Arc::clone(&proxy), server_cfg, "127.0.0.1:0")
            .expect("server binds loopback");
        Rig {
            proxy,
            server,
            rows,
        }
    }

    /// One client connection replaying the seed's op stream; rows its
    /// writes create get ids from `fresh_base` up.
    pub fn connect<'a>(
        &self,
        wl: &Workload,
        app: &'a GeneratedApp,
        seed: u64,
        fresh_base: i64,
    ) -> Conn<'a> {
        let cfg = wl.traffic();
        let slots = cfg.target_sessions;
        Conn {
            client: Client::connect(self.server.addr(), IO_TIMEOUT).expect("client connects"),
            engine: TrafficEngine::new(app, cfg, seed).with_fresh_base(fresh_base),
            sessions: vec![None; slots],
        }
    }

    /// Closes the connection, then drains and stops the server.
    pub fn stop(self, conn: Conn<'_>) {
        drop(conn);
        self.server.shutdown();
    }
}

/// One client connection and the op stream it replays.
pub struct Conn<'a> {
    client: Client,
    engine: TrafficEngine<'a>,
    sessions: Vec<Option<u64>>,
}

/// When a connection stops driving.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many traffic ops.
    Ops(usize),
    /// At the first op boundary past this instant.
    Deadline(Instant),
}

/// What the client observed while driving.
#[derive(Default)]
pub struct Tally {
    /// `Client::execute` calls made, failed ones included.
    pub attempted: u64,
    /// Round trip of every completed `Client::execute`, ns.
    pub lat_ns: Vec<u64>,
    /// Round trip of every INSERT/UPDATE/DELETE, ns.
    pub write_lat_ns: Vec<u64>,
    /// Statements the client saw blocked.
    pub blocked: u64,
    /// Handler statements blocked, plus raw probes not blocked.
    pub decision_errors: u64,
    /// Connection-level failures.
    pub transport_errors: u64,
    /// Typed server errors and failed handler runs.
    pub typed_errors: u64,
    /// Wall time of the drive loop, ns.
    pub busy_ns: u64,
    /// Time inside `Client` calls (execute, begin, end), ns.
    pub wire_ns: u64,
    /// Traced run only: time spent on instrumentation, ns.
    pub probe_ns: u64,
    /// Traced run only: codec re-timing of each statement's messages, ns.
    pub codec_ns: u64,
    /// Traced run only: response payload bytes.
    pub resp_bytes: u64,
    /// Traced run only: rows in client-visible results.
    pub rows: u64,
    /// Traced run only: trace facts summed over ended sessions.
    pub trace_facts: u64,
    /// Traced run only: sessions ended.
    pub sessions_ended: u64,
    /// Traced run only: distinct statement texts.
    pub texts: HashSet<String>,
    /// Host-speed probes run between ops.
    pub speed: Speed,
}

impl Tally {
    /// Statements completed.
    pub fn statements(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// Transport, typed and decision errors.
    pub fn failures(&self) -> u64 {
        self.transport_errors + self.typed_errors + self.decision_errors
    }

    fn fail(&mut self, e: &ClientError) {
        match e {
            ClientError::Server { .. } => self.typed_errors += 1,
            _ => self.transport_errors += 1,
        }
        eprintln!("perfbench: client error: {e}");
    }

    /// One timed `Client::execute`; the traced run also re-times the
    /// statement's request and response through the codec.
    fn execute(
        &mut self,
        client: &mut Client,
        session: u64,
        sql: &str,
        bindings: &[(String, Value)],
        traced: bool,
    ) -> Result<ExecOutcome, ClientError> {
        self.attempted += 1;
        let t = Instant::now();
        let out = client.execute(session, sql, bindings);
        let ns = t.elapsed().as_nanos() as u64;
        self.wire_ns += ns;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                self.fail(&e);
                return Err(e);
            }
        };
        self.lat_ns.push(ns);
        if is_write(sql) {
            self.write_lat_ns.push(ns);
        }
        if !out.is_allowed() {
            self.blocked += 1;
        }
        if traced {
            let t = Instant::now();
            self.retime_codec(session, sql, bindings, &out);
            self.texts.insert(sql.to_string());
            self.probe_ns += t.elapsed().as_nanos() as u64;
        }
        Ok(out)
    }

    /// Times `to_wire`/`from_wire` on both messages of one statement and
    /// checks that each survives the round trip.
    fn retime_codec(
        &mut self,
        session: u64,
        sql: &str,
        bindings: &[(String, Value)],
        out: &ExecOutcome,
    ) {
        let req = Request::Execute {
            session,
            sql: sql.to_string(),
            bindings: bindings.to_vec(),
        };
        let resp = match out {
            ExecOutcome::Rows(r) => {
                self.rows += r.rows.len() as u64;
                Response::Rows {
                    columns: r.columns.clone(),
                    rows: r.rows.clone(),
                }
            }
            ExecOutcome::Affected(n) => Response::Affected { n: *n },
            ExecOutcome::Blocked { reason, detail } => Response::Blocked {
                reason: reason.clone(),
                detail: detail.clone(),
            },
        };
        let t = Instant::now();
        let req_text = req.to_wire();
        let req_back = Request::from_wire(&req_text);
        let resp_text = resp.to_wire();
        let resp_back = Response::from_wire(&resp_text);
        self.codec_ns += t.elapsed().as_nanos() as u64;
        self.resp_bytes += resp_text.len() as u64;
        if req_back.as_ref() != Ok(&req) || resp_back.as_ref() != Ok(&resp) {
            eprintln!("perfbench: codec round trip changed a message for `{sql}`");
            self.typed_errors += 1;
        }
    }
}

/// Forwards a handler's statements to the wire client.
struct Port<'a> {
    client: &'a mut Client,
    session: u64,
    tally: &'a mut Tally,
    traced: bool,
}

impl QueryPort for Port<'_> {
    fn run(&mut self, sql: &str, bindings: &[(String, Value)]) -> Result<PortOutcome, DslError> {
        let out = self
            .tally
            .execute(self.client, self.session, sql, bindings, self.traced)
            .map_err(|e| DslError::Port(e.to_string()))?;
        Ok(match out {
            ExecOutcome::Rows(r) => PortOutcome::Rows(r),
            ExecOutcome::Affected(n) => PortOutcome::Affected(n as usize),
            ExecOutcome::Blocked { reason, .. } => PortOutcome::Blocked(reason),
        })
    }
}

impl Conn<'_> {
    /// Replays the op stream until `until`, probing the host's speed
    /// between ops every `PROBE_EVERY`. `trace` (the traced run) adds the
    /// instrumentation: codec re-timing, statement texts and each
    /// session's trace size before it ends. Stops early on a transport
    /// error, since the connection can no longer be trusted.
    fn drive(&mut self, app: &App, until: Until, trace: Option<&SqlProxy>) -> Tally {
        let mut tally = Tally::default();
        let traced = trace.is_some();
        let start = Instant::now();
        let mut ops = 0usize;
        let mut next_probe = start;
        while tally.transport_errors == 0 {
            let now = Instant::now();
            let stop = match until {
                Until::Ops(n) => ops >= n,
                Until::Deadline(d) => now >= d,
            };
            if stop {
                break;
            }
            if now >= next_probe {
                tally.speed.probe();
                next_probe = Instant::now() + PROBE_EVERY;
            }
            ops += 1;
            match self.engine.next_op() {
                TrafficOp::Begin { slot, uid, .. } => {
                    let t = Instant::now();
                    let began = self.client.begin(vec![("MyUId".into(), Value::Int(uid))]);
                    tally.wire_ns += t.elapsed().as_nanos() as u64;
                    match began {
                        Ok(id) => self.sessions[slot] = Some(id),
                        Err(e) => tally.fail(&e),
                    }
                }
                TrafficOp::End { slot } => {
                    let Some(id) = self.sessions[slot].take() else {
                        continue;
                    };
                    if let Some(proxy) = trace {
                        let t = Instant::now();
                        if let Ok(trace) = proxy.session_trace(id) {
                            tally.trace_facts += trace.facts().len() as u64;
                            tally.sessions_ended += 1;
                        }
                        tally.probe_ns += t.elapsed().as_nanos() as u64;
                    }
                    let t = Instant::now();
                    let ended = self.client.end(id);
                    tally.wire_ns += t.elapsed().as_nanos() as u64;
                    if let Err(e) = ended {
                        tally.fail(&e);
                    }
                }
                TrafficOp::RawProbe { slot, sql } | TrafficOp::RawWriteProbe { slot, sql } => {
                    let Some(id) = self.sessions[slot] else {
                        continue;
                    };
                    // A raw probe reads or writes another principal's
                    // rows: letting it through is a decision error.
                    if let Ok(out) = tally.execute(&mut self.client, id, &sql, &[], traced) {
                        if out.is_allowed() {
                            eprintln!("perfbench: raw probe not blocked: {sql}");
                            tally.decision_errors += 1;
                        }
                    }
                }
                TrafficOp::Request { slot, request, .. } => {
                    let Some(id) = self.sessions[slot] else {
                        continue;
                    };
                    let handler = app.handler(&request.handler).expect("handler exists");
                    let mut port = Port {
                        client: &mut self.client,
                        session: id,
                        tally: &mut tally,
                        traced,
                    };
                    match run_handler(
                        &mut port,
                        handler,
                        &request.session,
                        &request.params,
                        Limits::default(),
                    ) {
                        // The ground-truth policy admits the app: a
                        // blocked handler statement is a decision error.
                        Ok(run) => {
                            if let Outcome::Blocked { sql } = run.outcome {
                                eprintln!("perfbench: handler statement blocked: {sql}");
                                tally.decision_errors += 1;
                            }
                        }
                        // Already counted where the client call failed.
                        Err(DslError::Port(_)) => {}
                        Err(e) => {
                            eprintln!("perfbench: handler {} failed: {e}", request.handler);
                            tally.typed_errors += 1;
                        }
                    }
                }
            }
        }
        tally.busy_ns = start.elapsed().as_nanos() as u64;
        tally
    }
}

/// Drives the connection on its own thread until `until`, calling `idle`
/// about every 10 ms on this thread while it runs.
pub fn drive(
    conn: &mut Conn<'_>,
    app: &App,
    until: Until,
    trace: Option<&SqlProxy>,
    mut idle: impl FnMut(),
) -> Tally {
    std::thread::scope(|s| {
        let handle = s.spawn(|| conn.drive(app, until, trace));
        while !handle.is_finished() {
            idle();
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.join().expect("client thread panicked")
    })
}
