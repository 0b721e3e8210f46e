//! T15 — Bounded memory at scale: trace compaction, SIEVE-bounded caches,
//! and warm-start snapshots, all gated on decision invisibility.
//!
//! Four experiments, in order:
//!
//! 1. **Bounded differential gate** (always first): for every fleet app
//!    at a small population, the same seeded traffic stream runs through
//!    the cache-free reference evaluator (whose trace is never compacted)
//!    and two in-process proxies that differ only in the memory knobs —
//!    default budgets, and budgets tight enough to force eviction
//!    mid-stream. Every statement outcome and the aggregate
//!    allowed/blocked counts must match across all three, and the starved
//!    proxy must actually evict (a gate that never evicts proves nothing).
//! 2. **Budgeted soak**: one fleet app at scale behind a wire server
//!    whose proxy runs tight plan and session budgets. Churning Zipf
//!    traffic in phases; at each phase boundary the driver samples the
//!    proxy's per-component heap bytes, eviction counters, and the
//!    session-state size histogram. Asserts zero decision errors, real
//!    evictions, a plan cache that stays near its budget, and
//!    per-live-session state that stays flat across phases instead of
//!    growing with request count.
//! 3. **Warm-start restart**: N distinct template-allowed calendar
//!    queries are compiled and proved cold; the verdicts are snapshotted;
//!    a fresh proxy loads the snapshot (verification-gated) and replays
//!    the same N templates. Time-to-steady-state must improve ≥5× warm
//!    over cold, with identical decisions.
//! 4. **Corrupt-snapshot fallback**: a flipped byte in the snapshot must
//!    produce a typed checksum error, install nothing, and leave the
//!    proxy deciding exactly like a cold start.
//!
//! `--smoke` runs the gate, a short soak, and the restart + corruption
//! checks (seconds); the full run writes `BENCH_t15.json`.
//!
//! Run: `cargo run -p bep-bench --bin t15_bounded --release [-- --smoke]`

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use appdsl::{run_handler, App, DslError, Limits, Outcome, PortOutcome, QueryPort};
use appsim::{port_outcome, AppSpec};
use bep_bench::{f2, header, median, percentile, row};
use bep_core::{
    schema_of_database, ComplianceChecker, CoreError, Policy, ProxyConfig, ProxyResponse,
    Reference, SnapshotError, SqlProxy,
};
use bep_scenario::{derive, fleet, GeneratedApp, TrafficConfig, TrafficEngine, TrafficOp};
use bep_server::{Client, ExecOutcome, Server, ServerConfig};
use minidb::Database;
use sqlir::Value;

/// Same fleet seed as T13: the gate repeats that fleet's decisions under
/// memory pressure.
const FLEET_SEED: u64 = 1307;
/// Users per app in the differential gate.
const GATE_USERS: u64 = 512;
/// Traffic ops per app per gate run.
const GATE_OPS: usize = 500;
/// Users in the budgeted soak.
const SOAK_USERS_FULL: u64 = 100_000;
const SOAK_USERS_SMOKE: u64 = 10_000;
/// Soak shape (phases × ops per worker per phase, workers).
const PHASES_FULL: usize = 4;
const PHASES_SMOKE: usize = 2;
const PHASE_OPS_FULL: usize = 6000;
const PHASE_OPS_SMOKE: usize = 400;
const SOAK_WORKERS: usize = 2;
/// Soak budgets: small enough that steady traffic evicts, large enough
/// that hit rates stay useful.
const SOAK_PLAN_BUDGET: usize = 64 * 1024;
const SOAK_SESSION_BUDGET: usize = 4 * 1024;
/// Gate starved-proxy budgets: tight enough to evict within GATE_OPS.
const GATE_PLAN_BUDGET: usize = 16 * 1024;
const GATE_SESSION_BUDGET: usize = 512;
/// Distinct template-allowed queries in the restart experiment.
const RESTART_TEMPLATES_FULL: usize = 48;
const RESTART_TEMPLATES_SMOKE: usize = 12;
/// Required cold/warm time-to-steady-state ratio.
const RESTART_SPEEDUP: f64 = 5.0;
/// Per-operation client I/O timeout.
const IO: Duration = Duration::from_secs(30);

// ---------------------------------------------------- direct proxy driving

/// What a gate run drives: a proxy under test, or the reference
/// evaluator with an (allowed, blocked) tally of its answers, since it
/// keeps no statistics.
enum Engine {
    Proxy(Arc<SqlProxy>),
    Reference(Box<Reference>, [u64; 2]),
}

impl Engine {
    fn begin(&mut self, bindings: Vec<(String, Value)>) -> u64 {
        match self {
            Engine::Proxy(proxy) => proxy.begin_session(bindings),
            Engine::Reference(reference, _) => reference.begin_session(bindings),
        }
    }

    fn end(&mut self, session: u64) {
        match self {
            Engine::Proxy(proxy) => proxy.end_session(session),
            Engine::Reference(reference, _) => reference.end_session(session),
        };
    }

    fn execute(&mut self, session: u64, sql: &str, bindings: &Bindings) -> Answer {
        let (reference, tally) = match self {
            Engine::Proxy(proxy) => return proxy.execute(session, sql, bindings),
            Engine::Reference(reference, tally) => (reference, tally),
        };
        let out = reference.execute(session, sql, bindings);
        match &out {
            Ok(ProxyResponse::Rows(_)) => tally[0] += 1,
            Ok(ProxyResponse::Blocked(_)) => tally[1] += 1,
            _ => {}
        }
        out
    }
}

type Bindings = [(String, Value)];
type Answer = Result<ProxyResponse, CoreError>;

/// Forwards handler statements straight into an [`Engine`], logging
/// every outcome for the gate's entry-by-entry comparison.
struct EnginePort<'a> {
    engine: &'a mut Engine,
    session: u64,
    log: &'a mut Vec<String>,
}

impl QueryPort for EnginePort<'_> {
    fn run(&mut self, sql: &str, bindings: &Bindings) -> Result<PortOutcome, DslError> {
        let out = self.engine.execute(self.session, sql, bindings);
        if let Ok(response) = &out {
            self.log.push(format!("{response:?}"));
        }
        port_outcome(out)
    }
}

struct PreparedApp {
    app: GeneratedApp,
    parsed: App,
    db: Database,
}

fn prepare(app: GeneratedApp) -> PreparedApp {
    let mut db = app.empty_db();
    app.populate(&mut db).expect("populate");
    let parsed = app.app();
    PreparedApp { app, parsed, db }
}

fn proxy_with(prep: &PreparedApp, config: ProxyConfig) -> Arc<SqlProxy> {
    let checker = ComplianceChecker::new(prep.app.schema(), prep.app.policy().expect("policy"));
    Arc::new(SqlProxy::new(prep.db.clone(), checker, config))
}

// ------------------------------------------------- bounded differential gate

struct GateRun {
    log: Vec<String>,
    allowed: u64,
    blocked: u64,
    evictions: u64,
}

/// Replays `GATE_OPS` seeded traffic ops directly against `target`,
/// logging every outcome.
fn gate_run(prep: &PreparedApp, mut target: Engine, seed: u64) -> GateRun {
    let cfg = TrafficConfig {
        target_sessions: 8,
        mean_session_len: 10.0,
        ..TrafficConfig::default()
    };
    let slots = cfg.target_sessions;
    let mut engine = TrafficEngine::new(&prep.app, cfg, seed);
    let mut sessions: Vec<Option<u64>> = vec![None; slots];
    let mut log = Vec::with_capacity(GATE_OPS * 2);
    for _ in 0..GATE_OPS {
        match engine.next_op() {
            TrafficOp::Begin {
                slot,
                uid,
                user_index,
            } => {
                let id = target.begin(vec![("MyUId".into(), Value::Int(uid))]);
                sessions[slot] = Some(id);
                log.push(format!("begin u{user_index}"));
            }
            TrafficOp::End { slot } => {
                let id = sessions[slot].take().expect("live session");
                target.end(id);
                log.push("end".to_string());
            }
            TrafficOp::RawProbe { slot, sql } | TrafficOp::RawWriteProbe { slot, sql } => {
                let id = sessions[slot].expect("live session");
                let out = target.execute(id, &sql, &[]).expect("raw probe executes");
                log.push(format!("raw {out:?}"));
            }
            TrafficOp::Request { slot, request, .. } => {
                let id = sessions[slot].expect("live session");
                let handler = prep.parsed.handler(&request.handler).expect("handler");
                let mut stmt_log = Vec::new();
                let mut port = EnginePort {
                    engine: &mut target,
                    session: id,
                    log: &mut stmt_log,
                };
                let result = run_handler(
                    &mut port,
                    handler,
                    &request.session,
                    &request.params,
                    Limits::default(),
                )
                .unwrap_or_else(|e| panic!("{}::{}: {e}", prep.app.name, request.handler));
                log.append(&mut stmt_log);
                log.push(format!("{}:{:?}", request.handler, result.outcome));
            }
        }
    }
    for id in sessions.iter().flatten() {
        target.end(*id);
    }
    let (allowed, blocked, evictions) = match &target {
        Engine::Proxy(proxy) => {
            let stats = proxy.stats();
            let evictions = proxy.cache_eviction_counts().iter().map(|(_, n)| n).sum();
            (stats.allowed, stats.blocked, evictions)
        }
        Engine::Reference(_, [allowed, blocked]) => (*allowed, *blocked, 0),
    };
    GateRun {
        log,
        allowed,
        blocked,
        evictions,
    }
}

fn compare_runs(name: &str, label: &str, a: &GateRun, b: &GateRun) -> usize {
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
    mismatches
}

/// (log entries, mismatches, starved-proxy evictions) per app.
fn bounded_gate(prep: &PreparedApp) -> (usize, usize, u64) {
    let config = ProxyConfig::default();
    let checker = ComplianceChecker::new(prep.app.schema(), prep.app.policy().expect("policy"));
    let reference = Reference::new(prep.db.clone(), checker, &config);
    let reference = gate_run(prep, Engine::Reference(Box::new(reference), [0; 2]), 99);
    let defaults = gate_run(prep, Engine::Proxy(proxy_with(prep, config)), 99);
    let starved_config = ProxyConfig {
        plan_budget_bytes: GATE_PLAN_BUDGET,
        session_cache_budget_bytes: GATE_SESSION_BUDGET,
        ..config
    };
    let starved = gate_run(prep, Engine::Proxy(proxy_with(prep, starved_config)), 99);
    let mut mismatches = compare_runs(
        &prep.app.name,
        "reference vs defaults",
        &reference,
        &defaults,
    );
    mismatches += compare_runs(&prep.app.name, "reference vs starved", &reference, &starved);
    println!(
        "gate[{}]: {} log entries, {}/{} allowed/blocked, {} starved evictions, {} mismatches",
        prep.app.name,
        reference.log.len(),
        reference.allowed,
        reference.blocked,
        starved.evictions,
        mismatches
    );
    (reference.log.len(), mismatches, starved.evictions)
}

// ----------------------------------------------------------- budgeted soak

struct PhaseSample {
    p50_us: f64,
    p99_us: f64,
    live_sessions: usize,
    plan_cache_bytes: usize,
    session_state_bytes: usize,
    state_per_session: usize,
    session_size_p99: u64,
    evictions: u64,
}

struct SoakResult {
    app: String,
    ops: usize,
    wall_s: f64,
    throughput: f64,
    decision_errors: u64,
    sessions: u64,
    allowed: u64,
    blocked: u64,
    evictions_by_tier: [(&'static str, u64); 3],
    phases: Vec<PhaseSample>,
}

struct WorkerReport {
    phase_latencies_us: Vec<Vec<f64>>,
    phase_live: Vec<usize>,
    ops: usize,
    decision_errors: u64,
    sessions_begun: u64,
}

/// One budgeted soak cell over the wire: `m` workers with independent
/// engines; the driver samples the proxy's memory accounting at every
/// phase barrier.
fn soak(prep: &PreparedApp, m: usize, phases: usize, phase_ops: usize) -> SoakResult {
    let proxy = proxy_with(
        prep,
        ProxyConfig {
            plan_budget_bytes: SOAK_PLAN_BUDGET,
            session_cache_budget_bytes: SOAK_SESSION_BUDGET,
            ..Default::default()
        },
    );
    let server = Server::start(Arc::clone(&proxy), ServerConfig::default(), "127.0.0.1:0")
        .expect("start server");
    let addr = server.addr();
    let cell_seed = derive(prep.app.seed, 0xB15);

    let phase_end = Barrier::new(m + 1);
    let phase_resume = Barrier::new(m + 1);
    let mut mem_samples: Vec<(f64, usize, usize, u64, u64)> = Vec::with_capacity(phases);

    let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..m)
            .map(|w| {
                let (phase_end, phase_resume) = (&phase_end, &phase_resume);
                let (app, parsed) = (&prep.app, &prep.parsed);
                scope.spawn(move || {
                    let cfg = TrafficConfig::default();
                    let slots = cfg.target_sessions;
                    let mut engine = TrafficEngine::new(app, cfg, derive(cell_seed, w as u64))
                        .with_fresh_base(
                            bep_scenario::FRESH_ID_BASE + (w as i64 + 1) * 1_000_000_000,
                        );
                    let mut client = Client::connect(addr, IO).expect("connect");
                    let mut sessions: Vec<Option<u64>> = vec![None; slots];
                    let mut report = WorkerReport {
                        phase_latencies_us: Vec::with_capacity(phases),
                        phase_live: Vec::with_capacity(phases),
                        ops: 0,
                        decision_errors: 0,
                        sessions_begun: 0,
                    };
                    for _ in 0..phases {
                        let mut lat = Vec::with_capacity(phase_ops);
                        for _ in 0..phase_ops {
                            let t0 = Instant::now();
                            match engine.next_op() {
                                TrafficOp::Begin { slot, uid, .. } => {
                                    let id = client
                                        .begin(vec![("MyUId".into(), Value::Int(uid))])
                                        .expect("begin");
                                    sessions[slot] = Some(id);
                                }
                                TrafficOp::End { slot } => {
                                    let id = sessions[slot].take().expect("live session");
                                    client.end(id).expect("end");
                                }
                                TrafficOp::RawProbe { slot, sql }
                                | TrafficOp::RawWriteProbe { slot, sql } => {
                                    let id = sessions[slot].expect("live session");
                                    match client.execute(id, &sql, &[]) {
                                        Ok(ExecOutcome::Blocked { .. }) => {}
                                        _ => report.decision_errors += 1,
                                    }
                                }
                                TrafficOp::Request { slot, request, .. } => {
                                    let id = sessions[slot].expect("live session");
                                    let handler =
                                        parsed.handler(&request.handler).expect("handler");
                                    let mut port = WirePort {
                                        client: &mut client,
                                        session: id,
                                    };
                                    match run_handler(
                                        &mut port,
                                        handler,
                                        &request.session,
                                        &request.params,
                                        Limits::default(),
                                    ) {
                                        Ok(r) => {
                                            if matches!(r.outcome, Outcome::Blocked { .. }) {
                                                report.decision_errors += 1;
                                            }
                                        }
                                        Err(_) => report.decision_errors += 1,
                                    }
                                }
                            }
                            report.ops += 1;
                            lat.push(t0.elapsed().as_secs_f64() * 1e6);
                        }
                        report.phase_live.push(engine.live_sessions());
                        report.phase_latencies_us.push(lat);
                        phase_end.wait();
                        phase_resume.wait();
                    }
                    for id in sessions.iter().flatten() {
                        client.end(*id).expect("end");
                    }
                    report.sessions_begun = engine.sessions_begun();
                    report
                })
            })
            .collect();

        let t0 = Instant::now();
        for _ in 0..phases {
            phase_end.wait();
            let components = proxy.component_heap_bytes();
            let plan_bytes = components[0].1;
            let session_bytes = components[1].1;
            let size_hist = proxy.session_state_size_snapshot();
            let evictions: u64 = proxy.cache_eviction_counts().iter().map(|(_, n)| n).sum();
            mem_samples.push((
                t0.elapsed().as_secs_f64(),
                plan_bytes,
                session_bytes,
                size_hist.p99_ns,
                evictions,
            ));
            phase_resume.wait();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    });
    server.shutdown();
    let stats = proxy.stats();

    let mut phase_stats = Vec::with_capacity(phases);
    for (p, sample) in mem_samples.iter().enumerate() {
        let mut lat: Vec<f64> = reports
            .iter()
            .flat_map(|r| r.phase_latencies_us[p].iter().copied())
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let live: usize = reports.iter().map(|r| r.phase_live[p]).sum();
        let (_, plan_bytes, session_bytes, size_p99, evictions) = *sample;
        phase_stats.push(PhaseSample {
            p50_us: percentile(&lat, 50.0),
            p99_us: percentile(&lat, 99.0),
            live_sessions: live,
            plan_cache_bytes: plan_bytes,
            session_state_bytes: session_bytes,
            state_per_session: session_bytes / live.max(1),
            session_size_p99: size_p99,
            evictions,
        });
    }
    let ops: usize = reports.iter().map(|r| r.ops).sum();
    let wall_s = mem_samples.last().expect("phases ran").0;
    SoakResult {
        app: prep.app.name.clone(),
        ops,
        wall_s,
        throughput: ops as f64 / wall_s,
        decision_errors: reports.iter().map(|r| r.decision_errors).sum(),
        sessions: reports.iter().map(|r| r.sessions_begun).sum(),
        allowed: stats.allowed,
        blocked: stats.blocked,
        evictions_by_tier: proxy.cache_eviction_counts(),
        phases: phase_stats,
    }
}

/// The wire-driven port the soak workers use (no logging).
struct WirePort<'a> {
    client: &'a mut Client,
    session: u64,
}

impl QueryPort for WirePort<'_> {
    fn run(&mut self, sql: &str, bindings: &[(String, Value)]) -> Result<PortOutcome, DslError> {
        let out = self
            .client
            .execute(self.session, sql, bindings)
            .map_err(|e| DslError::Port(e.to_string()))?;
        Ok(match out {
            ExecOutcome::Rows(r) => PortOutcome::Rows(r),
            ExecOutcome::Affected(n) => PortOutcome::Affected(n as usize),
            ExecOutcome::Blocked { reason, .. } => PortOutcome::Blocked(reason),
        })
    }
}

// -------------------------------------------------------- warm-start restart

fn calendar_db() -> Database {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
    )
    .unwrap();
    for e in 0..1 {
        db.execute_sql(&format!(
            "INSERT INTO Events (EId, Title, Kind) VALUES ({e}, 'title{e}', 'kind{e}')"
        ))
        .unwrap();
        db.execute_sql(&format!(
            "INSERT INTO Attendance (UId, EId, Notes) VALUES (1, {e}, NULL)"
        ))
        .unwrap();
    }
    db
}

/// Decoy views in the restart policy. The cold rewrite search considers
/// every view per covered atom; none of these ever wins, so they cost
/// cold proofs real work and warm replays nothing (the snapshot's
/// verification pass happens at load time, before requests).
const RESTART_DECOYS: usize = 24;

fn calendar_proxy() -> Arc<SqlProxy> {
    let db = calendar_db();
    let schema = schema_of_database(&db);
    let mut views: Vec<(String, String)> = vec![
        (
            "V1".into(),
            "SELECT EId FROM Attendance WHERE UId = ?MyUId".into(),
        ),
        (
            "V2".into(),
            "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId \
             WHERE a.UId = ?MyUId"
                .into(),
        ),
    ];
    for d in 0..RESTART_DECOYS {
        // Each decoy is a near-miss of V2: same join shape, plus a
        // constant restriction no restart template carries, so the search
        // must try and reject it.
        views.push((
            format!("D{d}"),
            format!(
                "SELECT e.EId, e.Title FROM Events e JOIN Attendance a \
                 ON e.EId = a.EId WHERE a.UId = ?MyUId AND e.Kind = 'k{d}'"
            ),
        ));
    }
    let view_refs: Vec<(&str, &str)> = views
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let policy = Policy::from_sql(&schema, &view_refs).unwrap();
    // Observability (journal, spans, exemplars) off: it adds a fixed
    // per-decision cost to both sides, and this experiment measures the
    // symbolic-proof warmup a snapshot elides, not telemetry overhead.
    Arc::new(SqlProxy::new(
        db,
        ComplianceChecker::new(schema, policy),
        ProxyConfig {
            observe: false,
            spans: false,
            ..Default::default()
        },
    ))
}

/// N distinct template-allowed queries, each with a different constant so
/// each needs its own symbolic proof cold. The four-atom join shape makes
/// that proof (rewrite search + mutual containment) the dominant cost —
/// exactly the work a warm start elides.
fn restart_templates(n: usize) -> Vec<String> {
    (0..n)
        .map(|k| {
            format!(
                "SELECT e.Title FROM Events e \
                 JOIN Attendance a ON e.EId = a.EId \
                 JOIN Events f ON f.EId = a.EId \
                 JOIN Attendance b ON b.EId = f.EId \
                 JOIN Events g ON g.EId = b.EId \
                 JOIN Attendance c ON c.EId = g.EId \
                 JOIN Events h ON h.EId = c.EId \
                 JOIN Attendance d ON d.EId = h.EId \
                 JOIN Events i ON i.EId = d.EId \
                 JOIN Attendance j ON j.EId = i.EId \
                 WHERE a.UId = ?MyUId AND b.UId = ?MyUId AND c.UId = ?MyUId \
                 AND d.UId = ?MyUId AND j.UId = ?MyUId AND e.EId = {k}"
            )
        })
        .collect()
}

/// Time until every template has answered once — the restart's
/// time-to-first-steady-state. Returns (seconds, allowed count).
fn time_to_steady(proxy: &SqlProxy, templates: &[String]) -> (f64, usize) {
    let s = proxy.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    let t0 = Instant::now();
    let allowed = templates
        .iter()
        .filter(|sql| proxy.execute(s, sql, &[]).expect("execute").is_allowed())
        .count();
    let dt = t0.elapsed().as_secs_f64();
    proxy.end_session(s);
    (dt, allowed)
}

struct RestartResult {
    templates: usize,
    cold_ms: f64,
    warm_ms: f64,
    speedup: f64,
    snapshot_entries: usize,
    snapshot_bytes: u64,
    loaded: usize,
    rejected: usize,
}

/// Cold/warm time-to-steady-state is a millisecond-scale wall-clock
/// measurement, so each side is the median of this many fresh replicas.
const RESTART_REPLICAS: usize = 3;

fn restart_experiment(n: usize) -> RestartResult {
    let templates = restart_templates(n);
    let path = std::env::temp_dir().join(format!("bep-t15-snap-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Cold: every template pays parse + translate + symbolic proof. Each
    // replica is a fresh proxy; the snapshot comes from the first.
    let mut save = None;
    let mut cold_runs = Vec::with_capacity(RESTART_REPLICAS);
    for _ in 0..RESTART_REPLICAS {
        let cold = calendar_proxy();
        let (cold_s, cold_allowed) = time_to_steady(&cold, &templates);
        assert_eq!(cold_allowed, n, "all restart templates are allowed");
        if save.is_none() {
            save = Some(cold.save_snapshot(&path).expect("save snapshot"));
        }
        cold_runs.push(cold_s);
    }
    let save = save.expect("snapshot saved");
    let cold_s = median(&mut cold_runs);

    // Warm: a fresh proxy loads (and re-verifies) the verdicts, then
    // replays the same workload without a single symbolic proof.
    let mut report = None;
    let mut warm_runs = Vec::with_capacity(RESTART_REPLICAS);
    for _ in 0..RESTART_REPLICAS {
        let warm = calendar_proxy();
        let r = warm.load_snapshot(&path).expect("load snapshot");
        assert_eq!(r.rejected, 0, "same policy: nothing may be rejected");
        let (warm_s, warm_allowed) = time_to_steady(&warm, &templates);
        assert_eq!(warm_allowed, n, "warm decisions match cold");
        report = Some(r);
        warm_runs.push(warm_s);
    }
    let report = report.expect("snapshot loaded");
    let warm_s = median(&mut warm_runs);

    std::fs::remove_file(&path).ok();
    RestartResult {
        templates: n,
        cold_ms: cold_s * 1e3,
        warm_ms: warm_s * 1e3,
        speedup: cold_s / warm_s.max(1e-9),
        snapshot_entries: save.entries,
        snapshot_bytes: save.bytes,
        loaded: report.loaded,
        rejected: report.rejected,
    }
}

/// A corrupted snapshot must fail typed, install nothing, and leave
/// decisions identical to a cold start.
fn corruption_check(n: usize) -> &'static str {
    let templates = restart_templates(n);
    let path = std::env::temp_dir().join(format!("bep-t15-corrupt-{}.bin", std::process::id()));
    let cold = calendar_proxy();
    let (_, allowed) = time_to_steady(&cold, &templates);
    assert_eq!(allowed, n);
    cold.save_snapshot(&path).expect("save snapshot");

    let mut bytes = std::fs::read(&path).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).expect("rewrite snapshot");

    let fresh = calendar_proxy();
    let err = fresh
        .load_snapshot(&path)
        .expect_err("corrupt snapshot must not load");
    assert!(
        matches!(err, SnapshotError::ChecksumMismatch),
        "expected a checksum error, got: {err}"
    );
    assert!(
        fresh.plan_cache().get(&templates[0]).is_none(),
        "corrupt snapshot installed a plan"
    );
    let (_, cold_again) = time_to_steady(&fresh, &templates);
    assert_eq!(cold_again, n, "cold-start fallback decides identically");
    std::fs::remove_file(&path).ok();
    "checksum-mismatch -> cold start, decisions identical"
}

// ------------------------------------------------------------------- main

fn json_of(
    gate: (usize, usize, u64),
    soak: &SoakResult,
    users: u64,
    restart: &RestartResult,
    corrupt: &str,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"t15_bounded\",\n");
    out.push_str(&format!("  \"fleet_seed\": {FLEET_SEED},\n"));
    out.push_str(&format!(
        "  \"differential_gate\": {{\"gate_users\": {GATE_USERS}, \"ops_per_app\": {GATE_OPS}, \
         \"log_entries\": {}, \"mismatches\": {}, \"starved_evictions\": {}}},\n",
        gate.0, gate.1, gate.2
    ));
    out.push_str(&format!(
        "  \"soak\": {{\"app\": \"{}\", \"users\": {users}, \"plan_budget_bytes\": \
         {SOAK_PLAN_BUDGET}, \"session_budget_bytes\": {SOAK_SESSION_BUDGET}, \"ops\": {}, \
         \"wall_s\": {:.2}, \"throughput_ops_s\": {:.1}, \"decision_errors\": {}, \
         \"sessions\": {}, \"allowed\": {}, \"blocked\": {},\n",
        soak.app,
        soak.ops,
        soak.wall_s,
        soak.throughput,
        soak.decision_errors,
        soak.sessions,
        soak.allowed,
        soak.blocked,
    ));
    out.push_str(&format!(
        "   \"evictions\": {{\"plan\": {}, \"session_allow\": {}, \"session_deny\": {}}},\n",
        soak.evictions_by_tier[0].1, soak.evictions_by_tier[1].1, soak.evictions_by_tier[2].1,
    ));
    out.push_str("   \"phases\": [\n");
    for (i, ph) in soak.phases.iter().enumerate() {
        out.push_str(&format!(
            "     {{\"p50_us\": {:.1}, \"p99_us\": {:.1}, \"live_sessions\": {}, \
             \"plan_cache_kb\": {}, \"session_state_kb\": {}, \"state_per_session_bytes\": {}, \
             \"session_size_p99_bytes\": {}, \"evictions\": {}}}{}\n",
            ph.p50_us,
            ph.p99_us,
            ph.live_sessions,
            ph.plan_cache_bytes / 1024,
            ph.session_state_bytes / 1024,
            ph.state_per_session,
            ph.session_size_p99,
            ph.evictions,
            if i + 1 == soak.phases.len() { "" } else { "," }
        ));
    }
    out.push_str("   ]},\n");
    out.push_str(&format!(
        "  \"restart\": {{\"templates\": {}, \"cold_ms\": {:.2}, \"warm_ms\": {:.2}, \
         \"speedup\": {:.1}, \"snapshot_entries\": {}, \"snapshot_bytes\": {}, \
         \"loaded\": {}, \"rejected\": {}}},\n",
        restart.templates,
        restart.cold_ms,
        restart.warm_ms,
        restart.speedup,
        restart.snapshot_entries,
        restart.snapshot_bytes,
        restart.loaded,
        restart.rejected,
    ));
    out.push_str(&format!("  \"corrupt_snapshot\": \"{corrupt}\"\n"));
    out.push_str("}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // Experiment 1: the bounded differential gate, always first.
    let gate_preps: Vec<PreparedApp> = fleet(FLEET_SEED, GATE_USERS)
        .into_iter()
        .map(prepare)
        .collect();
    let mut gate_entries = 0;
    let mut mismatches = 0;
    let mut starved_evictions = 0;
    for prep in &gate_preps {
        let (entries, miss, evictions) = bounded_gate(prep);
        gate_entries += entries;
        mismatches += miss;
        starved_evictions += evictions;
    }
    assert_eq!(
        mismatches, 0,
        "bounded gate: compaction and eviction must be decision-invisible"
    );
    assert!(
        starved_evictions > 0,
        "bounded gate: the starved configuration never evicted — the gate \
         exercised nothing"
    );

    // Experiment 2: the budgeted soak.
    let users = if smoke {
        SOAK_USERS_SMOKE
    } else {
        SOAK_USERS_FULL
    };
    let (phases, phase_ops) = if smoke {
        (PHASES_SMOKE, PHASE_OPS_SMOKE)
    } else {
        (PHASES_FULL, PHASE_OPS_FULL)
    };
    let soak_app = fleet(FLEET_SEED, users).into_iter().next().expect("fleet");
    let prep = prepare(soak_app);
    println!(
        "\nsoak: {} at {} users, budgets plan={}KiB session={}B",
        prep.app.name,
        users,
        SOAK_PLAN_BUDGET / 1024,
        SOAK_SESSION_BUDGET
    );
    let result = soak(&prep, SOAK_WORKERS, phases, phase_ops);

    let widths = [5usize, 8, 8, 5, 8, 10, 8, 9, 9];
    header(
        &[
            "phase", "p50-us", "p99-us", "live", "plan-kb", "state-kb", "b/sess", "p99-sess",
            "evicted",
        ],
        &widths,
    );
    for (i, ph) in result.phases.iter().enumerate() {
        row(
            &[
                i.to_string(),
                f2(ph.p50_us),
                f2(ph.p99_us),
                ph.live_sessions.to_string(),
                (ph.plan_cache_bytes / 1024).to_string(),
                (ph.session_state_bytes / 1024).to_string(),
                ph.state_per_session.to_string(),
                ph.session_size_p99.to_string(),
                ph.evictions.to_string(),
            ],
            &widths,
        );
    }
    assert_eq!(
        result.decision_errors, 0,
        "budgeted soak: decisions diverged under memory pressure"
    );
    let total_evictions: u64 = result.evictions_by_tier.iter().map(|(_, n)| n).sum();
    assert!(
        total_evictions > 0,
        "budgeted soak: budgets never forced an eviction"
    );
    // The plan cache respects its budget (with structural headroom: the
    // budget bounds resident plan bytes; tables and collision-chain slots
    // ride on top).
    for ph in &result.phases {
        assert!(
            ph.plan_cache_bytes < 4 * SOAK_PLAN_BUDGET + 64 * 1024,
            "plan cache far exceeds its budget: {} bytes",
            ph.plan_cache_bytes
        );
    }
    // Per-live-session state stays flat across phases: bounded caches and
    // trace compaction make session state O(distinct information), not
    // O(requests served).
    let first = &result.phases[0];
    let last = result.phases.last().expect("phases");
    assert!(
        last.state_per_session <= 2 * first.state_per_session + 16 * 1024,
        "session state grew across phases: {} -> {} bytes per live session",
        first.state_per_session,
        last.state_per_session
    );

    // Experiments 3 and 4: warm restart and corrupt-snapshot fallback.
    let n = if smoke {
        RESTART_TEMPLATES_SMOKE
    } else {
        RESTART_TEMPLATES_FULL
    };
    let restart = restart_experiment(n);
    println!(
        "\nrestart: {} templates, cold {:.1}ms, warm {:.1}ms, {:.1}x speedup \
         ({} snapshot entries, {} bytes)",
        restart.templates,
        restart.cold_ms,
        restart.warm_ms,
        restart.speedup,
        restart.snapshot_entries,
        restart.snapshot_bytes,
    );
    assert!(
        restart.speedup >= RESTART_SPEEDUP,
        "warm restart only {:.1}x faster than cold (need {RESTART_SPEEDUP}x)",
        restart.speedup
    );
    let corrupt = corruption_check(if smoke { 4 } else { 8 });
    println!("corrupt-snapshot fallback: {corrupt}");

    if smoke {
        println!(
            "\nsmoke: gate clean ({gate_entries} entries, {starved_evictions} starved \
             evictions), soak bounded, restart {:.1}x, corruption falls back cold",
            restart.speedup
        );
        return;
    }

    let json = json_of(
        (gate_entries, 0, starved_evictions),
        &result,
        users,
        &restart,
        corrupt,
    );
    std::fs::write("BENCH_t15.json", &json).expect("write BENCH_t15.json");
    println!("\nwrote BENCH_t15.json");
}
