//! T16 — Write-path enforcement: the statement-generic decision core
//! under write-bearing traffic.
//!
//! Three experiments, in order:
//!
//! 1. **Differential gate** (always first): every fleet app at a small
//!    population runs mixed read/write traffic with enforcement on.
//!    Handler traffic — including its INSERTs — is never blocked; every
//!    raw write probe is blocked; and each probe's proxy verdict is
//!    checked against the reference evaluator's decision step
//!    (`bep_core::reference::decide`), which freshly compiles the write
//!    template and re-runs the concrete coverage check against a snapshot
//!    of the session's trace, with none of the proxy's caches. Two
//!    same-seed runs must produce identical decision logs.
//! 2. **Write-latency micro**: the cost of a write *decision* on top of
//!    execution, for both proof tiers. The template tier replays a
//!    pinned storefront INSERT (proved once per template, then
//!    cache-hit); the concrete tier replays a calendar INSERT whose
//!    coverage needs a trace fact (template-undecidable, so every
//!    distinct binding re-runs the concrete check). Each is measured
//!    enforced, as unenforced passthrough, and through the
//!    `execute_unchecked` F3 baseline.
//! 3. **Mixed soak**: each fleet app at population, enforcement on,
//!    traffic salted with 10% raw write probes. Decision errors — a
//!    handler request blocked, or any raw probe not blocked — must be
//!    zero everywhere.
//!
//! `--smoke` runs the gate plus shortened micro/soak cells on the first
//! app (seconds); the full run covers all three apps and writes
//! `BENCH_t16.json`.
//!
//! Run: `cargo run -p bep-bench --bin t16_writes --release [-- --smoke]`

use std::time::Instant;

use appdsl::{run_handler, Limits, Outcome};
use appsim::{AppSpec, ProxyPort};
use bep_bench::{f2, header, percentile, row};
use bep_core::{
    reference, schema_of_database, ComplianceChecker, Policy, ProxyConfig, ProxyResponse, SqlProxy,
};
use bep_scenario::{fleet, GeneratedApp, TrafficConfig, TrafficEngine, TrafficOp, FRESH_ID_BASE};
use minidb::Database;
use sqlir::{parse_statement, Value};

/// Fleet seed (shared with T13 so populations are comparable).
const FLEET_SEED: u64 = 1307;
/// Users per app in the differential gate.
const GATE_USERS: u64 = 512;
/// Traffic ops per gate run.
const GATE_OPS: usize = 700;
/// Raw-write-probe share of gate and soak traffic.
const WRITE_FRACTION: f64 = 0.10;
/// Users per app in the soak.
const USERS_FULL: u64 = 20_000;
const USERS_SMOKE: u64 = 2_000;
/// Traffic ops per soak cell.
const SOAK_OPS_FULL: usize = 20_000;
const SOAK_OPS_SMOKE: usize = 2_500;
/// Timed iterations per micro-bench cell.
const MICRO_FULL: usize = 20_000;
const MICRO_SMOKE: usize = 2_000;

fn enforced() -> ProxyConfig {
    ProxyConfig {
        enforce_writes: true,
        ..ProxyConfig::default()
    }
}

fn traffic_cfg() -> TrafficConfig {
    TrafficConfig {
        target_sessions: 8,
        mean_session_len: 10.0,
        write_probe_fraction: WRITE_FRACTION,
        ..TrafficConfig::default()
    }
}

// ------------------------------------------------------- differential gate

struct GateRun {
    log: Vec<String>,
    write_probes: u64,
    /// Proxy verdicts that disagreed with the cache-free reference
    /// evaluator on a raw write probe. Must be zero.
    reference_mismatches: u64,
    decision_errors: u64,
}

/// One in-process enforcement run over mixed read/write traffic.
fn gate_run(app: &GeneratedApp, seed: u64, ops: usize) -> GateRun {
    let mut db = app.empty_db();
    app.populate(&mut db).expect("populate");
    let checker = ComplianceChecker::new(app.schema(), app.policy().expect("policy"));
    let proxy = SqlProxy::new(db, checker.clone(), enforced());
    let parsed = app.app();
    let mut engine = TrafficEngine::new(app, traffic_cfg(), seed);
    let mut sessions: Vec<Option<(u64, i64)>> = vec![None; traffic_cfg().target_sessions];
    let mut run = GateRun {
        log: Vec::with_capacity(ops),
        write_probes: 0,
        reference_mismatches: 0,
        decision_errors: 0,
    };
    for _ in 0..ops {
        match engine.next_op() {
            TrafficOp::Begin {
                slot,
                uid,
                user_index,
            } => {
                let id = proxy.begin_session(vec![("MyUId".into(), Value::Int(uid))]);
                sessions[slot] = Some((id, uid));
                run.log.push(format!("begin u{user_index}"));
            }
            TrafficOp::End { slot } => {
                let (id, _) = sessions[slot].take().expect("live session");
                proxy.end_session(id);
                run.log.push("end".to_string());
            }
            TrafficOp::RawProbe { slot, sql } => {
                let (id, _) = sessions[slot].expect("live session");
                let resp = proxy.execute(id, &sql, &[]).expect("probe executes");
                if !matches!(resp, ProxyResponse::Blocked(_)) {
                    run.decision_errors += 1;
                }
                run.log.push(format!("raw {}", verdict_of(&resp)));
            }
            TrafficOp::RawWriteProbe { slot, sql } => {
                let (id, uid) = sessions[slot].expect("live session");
                let bindings = vec![("MyUId".to_string(), Value::Int(uid))];
                // The reference decision against a snapshot of this
                // session's trace — no plan cache, no verdict caches.
                let trace = proxy.session_trace(id).expect("trace");
                let reference_allows = parse_statement(&sql).is_ok_and(|stmt| {
                    reference::decide(&checker, &stmt, &bindings, &trace).is_allowed()
                });
                let resp = proxy.execute(id, &sql, &[]).expect("probe executes");
                let allowed = !matches!(resp, ProxyResponse::Blocked(_));
                if allowed != reference_allows {
                    eprintln!(
                        "{}: proxy {} but reference {} on `{sql}`",
                        app.name,
                        verdict_of(&resp),
                        if reference_allows { "allows" } else { "denies" }
                    );
                    run.reference_mismatches += 1;
                }
                if allowed {
                    // A forged write not blocked is a decision error.
                    run.decision_errors += 1;
                }
                run.write_probes += 1;
                run.log.push(format!("raww {}", verdict_of(&resp)));
            }
            TrafficOp::Request { slot, request, .. } => {
                let (id, _) = sessions[slot].expect("live session");
                let handler = parsed.handler(&request.handler).expect("handler");
                let mut port = ProxyPort {
                    proxy: &proxy,
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
                        // The ground-truth policy admits the app: no
                        // handler request may be proxy-blocked.
                        if matches!(r.outcome, Outcome::Blocked { .. }) {
                            run.decision_errors += 1;
                        }
                        run.log.push(format!("{}:{:?}", request.handler, r.outcome));
                    }
                    Err(_) => run.decision_errors += 1,
                }
            }
        }
    }
    run
}

fn verdict_of(resp: &ProxyResponse) -> &'static str {
    match resp {
        ProxyResponse::Blocked(_) => "blocked",
        ProxyResponse::Rows(_) => "rows",
        ProxyResponse::Affected(_) => "affected",
    }
}

/// (write probes seen, reference mismatches) per app; asserts the gate.
fn differential_gate(app: &GeneratedApp) -> (u64, u64) {
    let a = gate_run(app, 99, GATE_OPS);
    let b = gate_run(app, 99, GATE_OPS);
    assert_eq!(a.log, b.log, "{}: same seed, same decisions", app.name);
    assert_eq!(
        a.decision_errors, 0,
        "{}: decision errors in the write gate",
        app.name
    );
    assert_eq!(
        a.reference_mismatches, 0,
        "{}: tiered pipeline disagreed with the reference evaluator",
        app.name
    );
    assert!(a.write_probes > 0, "{}: no write probes fired", app.name);
    println!(
        "gate[{}]: {} ops, {} write probes all blocked, 0 reference mismatches",
        app.name,
        a.log.len(),
        a.write_probes
    );
    (a.write_probes, a.reference_mismatches)
}

// ----------------------------------------------------- write-latency micro

#[derive(Clone, Copy)]
enum WriteMode {
    Enforced,
    Passthrough,
    Unchecked,
}

impl WriteMode {
    const ALL: [WriteMode; 3] = [
        WriteMode::Enforced,
        WriteMode::Passthrough,
        WriteMode::Unchecked,
    ];

    fn label(self) -> &'static str {
        match self {
            WriteMode::Enforced => "enforced",
            WriteMode::Passthrough => "passthrough",
            WriteMode::Unchecked => "unchecked",
        }
    }

    fn config(self) -> ProxyConfig {
        match self {
            WriteMode::Enforced => enforced(),
            // Passthrough and unchecked both run with enforcement off;
            // unchecked additionally skips the session machinery.
            _ => ProxyConfig::default(),
        }
    }
}

struct MicroCell {
    tier: &'static str,
    mode: &'static str,
    ops: usize,
    p50_us: f64,
    p99_us: f64,
    ops_s: f64,
}

fn finish(tier: &'static str, mode: WriteMode, mut lat_us: Vec<f64>, wall_s: f64) -> MicroCell {
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    MicroCell {
        tier,
        mode: mode.label(),
        ops: lat_us.len(),
        p50_us: percentile(&lat_us, 50.0),
        p99_us: percentile(&lat_us, 99.0),
        ops_s: lat_us.len() as f64 / wall_s,
    }
}

/// Template tier: a storefront INSERT pinned to the session, covered by
/// `MyOrders` irrespective of history — proved once per template, every
/// replay a template-cache hit.
fn template_micro(store: &GeneratedApp, mode: WriteMode, ops: usize) -> MicroCell {
    let mut db = store.empty_db();
    store.populate(&mut db).expect("populate");
    let proxy = SqlProxy::new(
        db,
        ComplianceChecker::new(store.schema(), store.policy().expect("policy")),
        mode.config(),
    );
    let me = bep_scenario::uid(0);
    let session = proxy.begin_session(vec![("MyUId".into(), Value::Int(me))]);
    let pid = match proxy
        .execute(session, "SELECT PId FROM Products WHERE Active = TRUE", &[])
        .expect("product listing executes")
    {
        ProxyResponse::Rows(r) => match r.rows[0][0] {
            Value::Int(p) => p,
            ref v => panic!("PId: {v:?}"),
        },
        other => panic!("product listing: {other:?}"),
    };
    let sql = "INSERT INTO Orders (OId, UId, PId, Qty) VALUES (?oid, ?MyUId, ?pid, 1)";
    let mut lat = Vec::with_capacity(ops);
    let t0 = Instant::now();
    for k in 0..ops {
        let bindings = vec![
            ("oid".to_string(), Value::Int(FRESH_ID_BASE + k as i64)),
            ("pid".to_string(), Value::Int(pid)),
        ];
        let t = Instant::now();
        let resp = match mode {
            WriteMode::Unchecked => {
                let mut all = bindings.clone();
                all.push(("MyUId".to_string(), Value::Int(me)));
                proxy.execute_unchecked(sql, &all)
            }
            _ => proxy.execute(session, sql, &bindings),
        }
        .expect("order insert executes");
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(
            !matches!(resp, ProxyResponse::Blocked(_)),
            "own-order insert must be allowed ({})",
            mode.label()
        );
    }
    finish("template", mode, lat, t0.elapsed().as_secs_f64())
}

/// Concrete tier: the calendar INSERT whose `V2` coverage needs the
/// Events trace fact. Template-undecidable, and every iteration carries
/// a distinct Notes binding, so enforcement re-runs the concrete
/// coverage check each time — the worst-case decision cost.
fn concrete_micro(mode: WriteMode, ops: usize) -> MicroCell {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
    )
    .unwrap();
    db.execute_sql("INSERT INTO Events (EId, Title, Kind) VALUES (2, 'standup', 'work')")
        .unwrap();
    db.execute_sql("INSERT INTO Attendance (UId, EId, Notes) VALUES (1, 2, NULL)")
        .unwrap();
    let schema = schema_of_database(&db);
    let policy = Policy::from_sql(
        &schema,
        &[
            ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
            (
                "V2",
                "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId WHERE a.UId = ?MyUId",
            ),
        ],
    )
    .unwrap();
    let proxy = SqlProxy::new(db, ComplianceChecker::new(schema, policy), mode.config());
    let session = proxy.begin_session(vec![("MyUId".into(), Value::Int(1))]);
    // Observe the event so the concrete check has its trace fact.
    proxy
        .execute(
            session,
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2",
            &[],
        )
        .expect("access check");
    proxy
        .execute(session, "SELECT * FROM Events WHERE EId = 2", &[])
        .expect("event fetch");

    let clear = "DELETE FROM Attendance WHERE UId = ?MyUId AND EId = 2";
    let insert = "INSERT INTO Attendance (UId, EId, Notes) VALUES (?MyUId, 2, ?note)";
    let mut lat = Vec::with_capacity(ops);
    let t0 = Instant::now();
    for k in 0..ops {
        // Untimed: clear the primary key the INSERT is about to re-take.
        match mode {
            WriteMode::Unchecked => {
                let b = vec![("MyUId".to_string(), Value::Int(1))];
                proxy.execute_unchecked(clear, &b).expect("clear");
            }
            _ => {
                proxy.execute(session, clear, &[]).expect("clear");
            }
        }
        let bindings = vec![("note".to_string(), Value::str(format!("n{k}")))];
        let t = Instant::now();
        let resp = match mode {
            WriteMode::Unchecked => {
                let mut all = bindings.clone();
                all.push(("MyUId".to_string(), Value::Int(1)));
                proxy.execute_unchecked(insert, &all)
            }
            _ => proxy.execute(session, insert, &bindings),
        }
        .expect("attendance insert executes");
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(
            !matches!(resp, ProxyResponse::Blocked(_)),
            "trace-covered insert must be allowed ({})",
            mode.label()
        );
    }
    finish("concrete", mode, lat, t0.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------- the soak

struct SoakCell {
    app: String,
    ops: usize,
    wall_s: f64,
    throughput: f64,
    decision_errors: u64,
    write_allowed: u64,
    write_blocked: u64,
    allowed: u64,
    blocked: u64,
}

fn soak(app: &GeneratedApp, users: u64, ops: usize) -> SoakCell {
    let scaled = GeneratedApp::new(app.family, app.seed, users);
    let mut db = scaled.empty_db();
    scaled.populate(&mut db).expect("populate");
    let proxy = SqlProxy::new(
        db,
        ComplianceChecker::new(scaled.schema(), scaled.policy().expect("policy")),
        enforced(),
    );
    let parsed = scaled.app();
    let mut engine = TrafficEngine::new(&scaled, traffic_cfg(), 4242);
    let mut sessions: Vec<Option<u64>> = vec![None; traffic_cfg().target_sessions];
    let mut decision_errors = 0u64;
    let t0 = Instant::now();
    for _ in 0..ops {
        match engine.next_op() {
            TrafficOp::Begin { slot, uid, .. } => {
                sessions[slot] = Some(proxy.begin_session(vec![("MyUId".into(), Value::Int(uid))]));
            }
            TrafficOp::End { slot } => {
                proxy.end_session(sessions[slot].take().expect("live session"));
            }
            TrafficOp::RawProbe { slot, sql } | TrafficOp::RawWriteProbe { slot, sql } => {
                let id = sessions[slot].expect("live session");
                match proxy.execute(id, &sql, &[]) {
                    Ok(ProxyResponse::Blocked(_)) => {}
                    // A raw probe that is not blocked is a decision
                    // error, full stop.
                    _ => decision_errors += 1,
                }
            }
            TrafficOp::Request { slot, request, .. } => {
                let id = sessions[slot].expect("live session");
                let handler = parsed.handler(&request.handler).expect("handler");
                let mut port = ProxyPort {
                    proxy: &proxy,
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
                            decision_errors += 1;
                        }
                    }
                    Err(_) => decision_errors += 1,
                }
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = proxy.stats();
    SoakCell {
        app: scaled.name.clone(),
        ops,
        wall_s,
        throughput: ops as f64 / wall_s,
        decision_errors,
        write_allowed: stats.write_allowed,
        write_blocked: stats.write_blocked,
        allowed: stats.allowed,
        blocked: stats.blocked,
    }
}

// ------------------------------------------------------------------- main

fn json_of(users: u64, gate: &[(String, u64)], micro: &[MicroCell], soaks: &[SoakCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"t16_writes\",\n");
    out.push_str(&format!("  \"fleet_seed\": {FLEET_SEED},\n"));
    out.push_str(&format!("  \"users_per_app\": {users},\n"));
    out.push_str(&format!(
        "  \"differential_gate\": {{\"gate_users\": {GATE_USERS}, \"ops_per_app\": {GATE_OPS}, \
         \"write_probe_fraction\": {WRITE_FRACTION}, \"reference_mismatches\": 0, \"apps\": [\n"
    ));
    for (i, (app, probes)) in gate.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": \"{app}\", \"write_probes_blocked\": {probes}}}{}\n",
            if i + 1 == gate.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]},\n");
    out.push_str("  \"write_latency\": [\n");
    for (i, m) in micro.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tier\": \"{}\", \"mode\": \"{}\", \"ops\": {}, \"p50_us\": {:.2}, \
             \"p99_us\": {:.2}, \"throughput_ops_s\": {:.1}}}{}\n",
            m.tier,
            m.mode,
            m.ops,
            m.p50_us,
            m.p99_us,
            m.ops_s,
            if i + 1 == micro.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"soak\": [\n");
    for (i, s) in soaks.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"ops\": {}, \"wall_s\": {:.2}, \
             \"throughput_ops_s\": {:.1}, \"decision_errors\": {}, \"write_allowed\": {}, \
             \"write_blocked\": {}, \"allowed\": {}, \"blocked\": {}}}{}\n",
            s.app,
            s.ops,
            s.wall_s,
            s.throughput,
            s.decision_errors,
            s.write_allowed,
            s.write_blocked,
            s.allowed,
            s.blocked,
            if i + 1 == soaks.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let apps = fleet(FLEET_SEED, GATE_USERS);

    // Phase 1: the differential gate — always, before anything is timed.
    let mut gate = Vec::new();
    for app in &apps {
        let (probes, _) = differential_gate(app);
        gate.push((app.name.clone(), probes));
    }

    // Phase 2: write-latency micro, both tiers, all three modes.
    let micro_ops = if smoke { MICRO_SMOKE } else { MICRO_FULL };
    let store = apps
        .iter()
        .find(|a| a.name == "store")
        .expect("fleet has a store app");
    let widths = [9usize, 12, 7, 9, 9, 10];
    header(
        &["tier", "mode", "ops", "p50-us", "p99-us", "ops/s"],
        &widths,
    );
    let mut micro = Vec::new();
    for mode in WriteMode::ALL {
        let cell = template_micro(store, mode, micro_ops);
        row(
            &[
                cell.tier.to_string(),
                cell.mode.to_string(),
                cell.ops.to_string(),
                f2(cell.p50_us),
                f2(cell.p99_us),
                f2(cell.ops_s),
            ],
            &widths,
        );
        micro.push(cell);
    }
    for mode in WriteMode::ALL {
        let cell = concrete_micro(mode, micro_ops);
        row(
            &[
                cell.tier.to_string(),
                cell.mode.to_string(),
                cell.ops.to_string(),
                f2(cell.p50_us),
                f2(cell.p99_us),
                f2(cell.ops_s),
            ],
            &widths,
        );
        micro.push(cell);
    }
    for tier in ["template", "concrete"] {
        let of = |mode: &str| {
            micro
                .iter()
                .find(|m| m.tier == tier && m.mode == mode)
                .expect("cell ran")
        };
        let (e, p) = (of("enforced"), of("passthrough"));
        println!(
            "{tier} tier: enforcement adds {:+.1}% p50, {:+.1}% p99 over passthrough",
            (e.p50_us / p.p50_us - 1.0) * 100.0,
            (e.p99_us / p.p99_us - 1.0) * 100.0
        );
    }

    // Phase 3: the mixed soak.
    let users = if smoke { USERS_SMOKE } else { USERS_FULL };
    let soak_ops = if smoke { SOAK_OPS_SMOKE } else { SOAK_OPS_FULL };
    let soak_apps: Vec<&GeneratedApp> = if smoke {
        apps.iter().take(1).collect()
    } else {
        apps.iter().collect()
    };
    let widths = [8usize, 7, 9, 8, 8, 8, 8, 5];
    header(
        &[
            "app", "ops", "ops/s", "w-allow", "w-block", "ok", "denied", "err",
        ],
        &widths,
    );
    let mut soaks = Vec::new();
    for app in soak_apps {
        let cell = soak(app, users, soak_ops);
        row(
            &[
                cell.app.clone(),
                cell.ops.to_string(),
                f2(cell.throughput),
                cell.write_allowed.to_string(),
                cell.write_blocked.to_string(),
                cell.allowed.to_string(),
                cell.blocked.to_string(),
                cell.decision_errors.to_string(),
            ],
            &widths,
        );
        soaks.push(cell);
    }
    for s in &soaks {
        assert_eq!(
            s.decision_errors, 0,
            "{}: decision errors in the write soak",
            s.app
        );
        assert!(s.write_allowed > 0, "{}: no handler write ran", s.app);
        assert!(s.write_blocked > 0, "{}: no write probe blocked", s.app);
    }

    if smoke {
        println!("smoke: write gate clean, micro + soak cells error-free");
        return;
    }
    let json = json_of(users, &gate, &micro, &soaks);
    std::fs::write("BENCH_t16.json", &json).expect("write BENCH_t16.json");
    println!(
        "\nwrote BENCH_t16.json ({} micro cells, {} soak cells)",
        micro.len(),
        soaks.len()
    );
}
