//! T12 — Event-driven front-end: a decision-differential gate against the
//! in-process proxy, and the 10k-idle-connection scaling claim.
//!
//! The workload is a *recorded replay*: each application's handler
//! workload runs once in-process through a recording port, producing the
//! flat per-session statement script the handlers actually issued. Two
//! experiments:
//!
//! 1. **Differential gate** (always first): a single client replays the
//!    calendar (and, in the full run, forum) script sequentially against
//!    an event-driven server, and the same script runs straight through a
//!    fresh in-process `SqlProxy` with `ProxyConfig::default()`. Every
//!    per-statement outcome (rows, affected count, or blocked reason
//!    label), the aggregate allowed/blocked counters, and the decision
//!    journals (template hash, verdict, cache tier) must match exactly —
//!    zero mismatches or the process exits nonzero. The event loop is an
//!    *execution* strategy, never a *decision* strategy.
//! 2. **Idle-connection smoke**: the event-driven server holds ~10k open
//!    idle connections; the process thread count must not grow by even
//!    one, and a real client must still get decisions through the crowd.
//!
//! This binary writes no BENCH file; the checked-in `BENCH_t12.json` is a
//! historical throughput sweep (see `EXPERIMENTS.md`).
//!
//! Run: `cargo run -p bep-bench --bin t12_reactor --release [-- --smoke]`

use std::sync::Arc;
use std::time::Duration;

use appdsl::{DslError, PortOutcome, QueryPort};
use appsim::{ProxyPort, Scale, SimApp, CALENDAR, FORUM};
use bep_bench::gate::{compare_runs, gate_run, GateSide, GateTarget};
use bep_bench::{app_env, proxy_for, AppEnv};
use bep_core::{ProxyConfig, SqlProxy};
use bep_server::reactor::raise_nofile_limit;
use bep_server::{Client, Server, ServerConfig};
use sqlir::Value;

/// Requests drawn per app.
const N_REQUESTS: usize = 96;
/// Idle connections held in the scaling smoke.
const IDLE_TARGET: usize = 10_000;
/// Per-operation client I/O timeout.
const IO: Duration = Duration::from_secs(30);

type Bindings = Vec<(String, Value)>;
/// One session's recorded statements: (sql, bindings) in issue order.
type Stmts = Vec<(String, Bindings)>;
/// The replay script: one (session bindings, statements) entry per
/// workload request.
type Script = Vec<(Bindings, Stmts)>;

/// Tees every statement a handler issues while delegating to the proxy.
struct RecordingPort<'a> {
    inner: ProxyPort<'a>,
    log: Stmts,
}

impl QueryPort for RecordingPort<'_> {
    fn run(&mut self, sql: &str, bindings: &[(String, Value)]) -> Result<PortOutcome, DslError> {
        self.log.push((sql.to_string(), bindings.to_vec()));
        self.inner.run(sql, bindings)
    }
}

/// Runs the workload once in-process and records the flat statement
/// script its handlers issued.
fn record_script(env: &AppEnv) -> Script {
    let proxy = proxy_for(env, ProxyConfig::default());
    let app = env.sim.app();
    let mut script = Vec::with_capacity(env.requests.len());
    for req in &env.requests {
        let session = proxy.begin_session(req.session.clone());
        let mut port = RecordingPort {
            inner: ProxyPort {
                proxy: &proxy,
                session,
            },
            log: Vec::new(),
        };
        let handler = app.handler(&req.handler).expect("handler");
        let _ = appdsl::run_handler(
            &mut port,
            handler,
            &req.session,
            &req.params,
            appdsl::Limits::default(),
        );
        proxy.end_session(session);
        script.push((req.session.clone(), port.log));
    }
    script
}

// ------------------------------------------------------- differential gate

/// Replays `script` sequentially, one session per request, logging every
/// statement's normalised outcome.
fn replay(script: &Script) -> impl FnOnce(&mut GateTarget<'_>) -> Vec<String> + '_ {
    move |target| {
        let mut log = Vec::new();
        for (session_bindings, stmts) in script {
            let session = target.begin(session_bindings.clone());
            for (sql, bindings) in stmts {
                log.push(format!("{:?}", target.execute(session, sql, bindings)));
            }
            target.end(session);
        }
        log
    }
}

/// Replays `script` over the wire and through a fresh in-process proxy
/// and counts decision mismatches (must be zero).
fn differential_gate(sim: &'static SimApp, env: &AppEnv, script: &Script) -> usize {
    let fresh = || Arc::new(proxy_for(env, ProxyConfig::default()));
    let event = gate_run(fresh(), GateSide::Wire, replay(script));
    let local = gate_run(fresh(), GateSide::InProcess, replay(script));
    let mismatches = compare_runs(sim.name, "event vs in-process", &event, &local);
    println!(
        "gate[{}]: {} statements, {} journal events, {} mismatches",
        sim.name,
        event.log.len(),
        event.journal.len(),
        mismatches
    );
    mismatches
}

// ------------------------------------------------------------- idle smoke

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

struct IdleSmoke {
    connections: usize,
    threads_before: usize,
    threads_while_held: usize,
    roundtrip_ok: bool,
}

/// The hidden `--hold <addr> <n>` child: opens `n` idle connections from
/// its own fd budget, reports how many it holds on stdout, and keeps
/// them open until stdin closes. Running the client ends in a separate
/// process lets the server side genuinely hold the full count — one
/// process's RLIMIT_NOFILE would otherwise be split between both ends.
fn hold_connections(addr: &str, n: usize) -> ! {
    use std::io::Read;
    let nofile = raise_nofile_limit((n + 512) as u64);
    let n = n.min(nofile.saturating_sub(256) as usize);
    let mut held = Vec::with_capacity(n);
    for i in 0..n {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => held.push(s),
            Err(e) => panic!("idle connect {i}/{n} failed: {e}"),
        }
    }
    println!("held {}", held.len());
    let _ = std::io::stdin().read(&mut [0u8; 1]);
    drop(held);
    std::process::exit(0);
}

/// Holds ~10k idle connections against the event-driven server and
/// verifies the thread count stays flat while a real client still gets
/// decisions through the crowd.
fn idle_smoke(env: &AppEnv) -> IdleSmoke {
    use std::io::{BufRead, BufReader};
    let nofile = raise_nofile_limit((IDLE_TARGET + 1024) as u64);
    let n = IDLE_TARGET.min(nofile.saturating_sub(512) as usize);
    if n < IDLE_TARGET {
        println!("idle smoke: RLIMIT_NOFILE={nofile}, scaling to {n} connections");
    }
    let proxy: Arc<SqlProxy> = Arc::new(proxy_for(env, ProxyConfig::default()));
    let server = Server::start(Arc::clone(&proxy), ServerConfig::default(), "127.0.0.1:0")
        .expect("start server");
    let addr = server.addr();

    let threads_before = thread_count();
    let exe = std::env::current_exe().expect("current exe");
    let mut holder = std::process::Command::new(exe)
        .arg("--hold")
        .arg(addr.to_string())
        .arg(n.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn connection holder");
    let mut line = String::new();
    BufReader::new(holder.stdout.as_mut().expect("holder stdout"))
        .read_line(&mut line)
        .expect("holder reports");
    let n: usize = line
        .trim()
        .strip_prefix("held ")
        .and_then(|s| s.parse().ok())
        .expect("holder report parses");
    let threads_while_held = thread_count();

    // A real conversation must still work through the idle crowd.
    let mut client = Client::connect(addr, IO).expect("active client connects");
    let session = client
        .begin(vec![("MyUId".into(), Value::Int(appsim::FIRST_UID))])
        .expect("begin");
    let roundtrip_ok = client
        .execute(
            session,
            "SELECT EId FROM Attendance WHERE UId = ?MyUId",
            &[],
        )
        .is_ok();
    client.end(session).expect("end");
    drop(client);
    // Closing the holder's stdin releases all its connections at once.
    drop(holder.stdin.take());
    let _ = holder.wait();
    server.shutdown();

    IdleSmoke {
        connections: n,
        threads_before,
        threads_while_held,
        roundtrip_ok,
    }
}

// ------------------------------------------------------------------- main

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--hold") {
        hold_connections(&argv[2], argv[3].parse().expect("--hold <addr> <n>"));
    }
    let smoke = argv.iter().any(|a| a == "--smoke");

    // Phase 1: the differential gate — always, before anything else.
    let cal_env = app_env(&CALENDAR, 23, Scale::small(), N_REQUESTS);
    let mut mismatches = differential_gate(&CALENDAR, &cal_env, &record_script(&cal_env));
    if !smoke {
        let env = app_env(&FORUM, 23, Scale::small(), N_REQUESTS);
        mismatches += differential_gate(&FORUM, &env, &record_script(&env));
    }
    assert_eq!(
        mismatches, 0,
        "differential gate: the event server must decide like the in-process proxy"
    );

    // Phase 2: the 10k-idle-connection scaling claim.
    let idle = idle_smoke(&cal_env);
    println!(
        "idle smoke: {} connections held; threads {} -> {}; roundtrip ok: {}",
        idle.connections, idle.threads_before, idle.threads_while_held, idle.roundtrip_ok
    );
    assert!(
        idle.roundtrip_ok,
        "a client must get decisions through the idle crowd"
    );
    assert_eq!(
        idle.threads_before, idle.threads_while_held,
        "holding {} idle connections must not grow the thread count",
        idle.connections
    );
    println!("\ndifferential gate clean, idle scaling holds");
}
