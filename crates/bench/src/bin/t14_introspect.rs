//! T14 — Deep introspection: what do solver micro-spans cost, and where
//! do the bytes live?
//!
//! Two experiments:
//!
//! 1. **Span overhead** (t9-style): for each application (calendar,
//!    forum) the full request workload is replayed in-process against a
//!    fresh proxy in three modes — spans *off* (the baseline: observe on,
//!    span hooks cost one thread-local read), span *summaries* on every
//!    decision, and summaries plus *sampled* full-tree capture (every
//!    64th decision, 4 exemplars per template). Percentiles are exact
//!    (sorted samples, nearest-rank) and each mode runs `REPS`
//!    repetitions with the median p50 reported. Decisions must be
//!    identical across modes (introspection never changes answers), the
//!    journal must actually carry span summaries in the instrumented
//!    modes (so the bound cannot pass vacuously), and the calendar
//!    summaries-mode p50 must stay within `MAX_OVERHEAD` of the
//!    baseline; sampled capture is off the common path, so it is held to
//!    the same bound.
//! 2. **Memory accounting**: the scenario fleet's social app is
//!    populated at 10^5 users (10^3 under `--smoke`) and soaked with the
//!    Zipf traffic engine in-process, spans and exemplars on. At peak —
//!    live sessions still open — the byte-accurate component gauges
//!    (plan cache, session state, journal, exemplars) are sampled; then
//!    every session is drained and the per-session state-size
//!    distribution (p50/p99/max bytes, recorded at each session's end)
//!    is reported. Decision errors must be zero, and every begun session
//!    must appear in the distribution — the accounting loses nobody.
//!
//! The live-stream equivalence claim (a `subscribe`d connection sees
//! exactly what a polling cursor sees, losses accounted drop-for-drop)
//! is enforced by `bep-server`'s `subscribe_stream` integration tests,
//! not re-measured here.
//!
//! Results go to `BENCH_t14.json`.
//!
//! Run: `cargo run -p bep-bench --bin t14_introspect --release [-- --smoke]`

use std::time::Instant;

use appdsl::{run_handler, Limits, Outcome, PortOutcome, QueryPort};
use appsim::{AppSpec, ProxyPort, Scale, SimApp, CALENDAR, FORUM};
use bep_bench::{app_env, f2, header, median, percentile, proxy_for, row, AppEnv};
use bep_core::{ComplianceChecker, LatencySnapshot, ProxyConfig, SqlProxy};
use bep_scenario::{derive, fleet, TrafficConfig, TrafficEngine, TrafficOp};
use sqlir::Value;

/// Requests drawn per app in the overhead phase.
const N_REQUESTS_FULL: usize = 150;
const N_REQUESTS_SMOKE: usize = 60;
/// Repetitions per (app, mode); the reported p50 is the median across
/// them.
const REPS_FULL: usize = 5;
const REPS_SMOKE: usize = 3;
/// Untimed warmup passes and timed passes per repetition.
const WARMUP_ROUNDS: usize = 1;
const MEASURED_ROUNDS: usize = 2;
/// Acceptance bound on the calendar p50, instrumented vs baseline. The
/// smoke bound is loose: at smoke sample counts the medians are noisy,
/// and the full run is the one that prices the feature.
const MAX_OVERHEAD_FULL: f64 = 0.10;
const MAX_OVERHEAD_SMOKE: f64 = 0.50;
/// Full-tree capture cadence in sampled mode.
const SAMPLE_EVERY: u64 = 64;
/// Fleet seed for the memory soak (same fleet as T13).
const FLEET_SEED: u64 = 1307;
/// Social-app population for the memory soak.
const USERS_FULL: u64 = 100_000;
const USERS_SMOKE: u64 = 1_000;
/// Traffic ops in the memory soak.
const SOAK_OPS_FULL: usize = 20_000;
const SOAK_OPS_SMOKE: usize = 1_500;

/// The three span configurations priced by the overhead phase.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SpanMode {
    /// Spans off entirely (observe stays on — T9 already priced that).
    Off,
    /// Compact summaries on every decision, no tree capture.
    Summaries,
    /// Summaries plus full-tree capture every `SAMPLE_EVERY`th decision
    /// and slow-decision exemplars.
    Sampled,
}

impl SpanMode {
    const ALL: [SpanMode; 3] = [SpanMode::Off, SpanMode::Summaries, SpanMode::Sampled];

    fn label(self) -> &'static str {
        match self {
            SpanMode::Off => "off",
            SpanMode::Summaries => "summaries",
            SpanMode::Sampled => "sampled",
        }
    }

    fn config(self) -> ProxyConfig {
        match self {
            SpanMode::Off => ProxyConfig::default(),
            SpanMode::Summaries => ProxyConfig {
                spans: true,
                ..ProxyConfig::default()
            },
            SpanMode::Sampled => ProxyConfig {
                spans: true,
                span_sample_every: SAMPLE_EVERY,
                exemplars_per_template: 4,
                ..ProxyConfig::default()
            },
        }
    }
}

/// One repetition's measurements.
struct Rep {
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    ops: usize,
    wall_s: f64,
    allowed: u64,
    blocked: u64,
    spanned_events: usize,
    journal_events: usize,
    exemplars: usize,
}

/// One (app, mode) summary: median-of-reps percentiles.
struct ModeResult {
    app: &'static str,
    mode: SpanMode,
    ops: usize,
    throughput: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    allowed: u64,
    blocked: u64,
    spanned_events: usize,
    journal_events: usize,
    exemplars: usize,
}

/// Replays the workload once (warmup + measured rounds) against a fresh
/// proxy in the given span mode, timing each request.
fn run_once(env: &AppEnv, mode: SpanMode) -> Rep {
    let proxy = proxy_for(env, mode.config());
    let app = env.sim.app();
    let drive = |timed: &mut Option<Vec<f64>>| {
        for req in &env.requests {
            let handler = app.handler(&req.handler).expect("handler");
            let session = proxy.begin_session(req.session.clone());
            let t0 = Instant::now();
            let mut port = ProxyPort {
                proxy: &proxy,
                session,
            };
            let _ = run_handler(
                &mut port,
                handler,
                &req.session,
                &req.params,
                Limits::default(),
            );
            if let Some(samples) = timed {
                samples.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            proxy.end_session(session);
        }
    };

    for _ in 0..WARMUP_ROUNDS {
        drive(&mut None);
    }
    let mut samples = Some(Vec::with_capacity(env.requests.len() * MEASURED_ROUNDS));
    let wall = Instant::now();
    for _ in 0..MEASURED_ROUNDS {
        drive(&mut samples);
    }
    let wall_s = wall.elapsed().as_secs_f64();

    let mut samples = samples.unwrap();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let stats = proxy.stats();
    let events = proxy.journal().events_since(0, usize::MAX);
    Rep {
        p50_us: percentile(&samples, 50.0),
        p95_us: percentile(&samples, 95.0),
        p99_us: percentile(&samples, 99.0),
        ops: samples.len(),
        wall_s,
        allowed: stats.allowed,
        blocked: stats.blocked,
        spanned_events: events.iter().filter(|e| e.span.spans >= 1).count(),
        journal_events: events.len(),
        exemplars: proxy.exemplars().count(),
    }
}

/// Runs `reps` repetitions of one (app, mode) point and reduces them to
/// the median of each percentile.
fn run_mode(sim: &'static SimApp, env: &AppEnv, mode: SpanMode, reps: usize) -> ModeResult {
    let reps: Vec<Rep> = (0..reps).map(|_| run_once(env, mode)).collect();
    let first = &reps[0];
    for r in &reps {
        assert_eq!(
            (r.allowed, r.blocked),
            (first.allowed, first.blocked),
            "repetitions of a deterministic workload must decide identically"
        );
    }
    let mut p50s: Vec<f64> = reps.iter().map(|r| r.p50_us).collect();
    let mut p95s: Vec<f64> = reps.iter().map(|r| r.p95_us).collect();
    let mut p99s: Vec<f64> = reps.iter().map(|r| r.p99_us).collect();
    let wall_s: f64 = reps.iter().map(|r| r.wall_s).sum();
    let ops: usize = reps.iter().map(|r| r.ops).sum();
    ModeResult {
        app: sim.name,
        mode,
        ops,
        throughput: ops as f64 / wall_s,
        p50_us: median(&mut p50s),
        p95_us: median(&mut p95s),
        p99_us: median(&mut p99s),
        allowed: first.allowed,
        blocked: first.blocked,
        spanned_events: first.spanned_events,
        journal_events: first.journal_events,
        exemplars: first.exemplars,
    }
}

// ---------------------------------------------------------------- memory

/// What the social-app soak reports.
struct MemReport {
    app: String,
    users: u64,
    rows: usize,
    populate_s: f64,
    ops: usize,
    wall_s: f64,
    sessions: u64,
    live_at_peak: usize,
    exemplars: usize,
    /// Component heap bytes sampled at peak (live sessions still open).
    components: [(&'static str, usize); 4],
    /// Per-session state size distribution; `_ns` fields read as bytes.
    state_size: LatencySnapshot,
}

/// Populates the fleet's social app and soaks it with Zipf traffic
/// in-process, spans and exemplars on; samples the component gauges at
/// peak, then drains every session into the state-size histogram.
fn memory_soak(users: u64, ops: usize) -> MemReport {
    let app = fleet(FLEET_SEED, users)
        .into_iter()
        .next()
        .expect("fleet has apps");
    assert_eq!(app.name, "social", "the soak targets the social graph");
    let mut db = app.empty_db();
    let t0 = Instant::now();
    let rows = app.populate(&mut db).expect("populate");
    let populate_s = t0.elapsed().as_secs_f64();
    let proxy = SqlProxy::new(
        db,
        ComplianceChecker::new(app.schema(), app.policy().expect("policy")),
        ProxyConfig {
            spans: true,
            span_sample_every: SAMPLE_EVERY,
            exemplars_per_template: 4,
            ..ProxyConfig::default()
        },
    );
    let parsed = app.app();
    let cfg = TrafficConfig::default();
    let mut engine = TrafficEngine::new(&app, cfg.clone(), derive(app.seed, 0xD14));
    let mut sessions: Vec<Option<u64>> = vec![None; cfg.target_sessions];
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
                let session = sessions[slot].expect("live session");
                let mut port = ProxyPort {
                    proxy: &proxy,
                    session,
                };
                match port.run(&sql, &[]) {
                    Ok(PortOutcome::Blocked(_)) => {}
                    // A raw probe that is not blocked is a decision
                    // error, full stop.
                    _ => decision_errors += 1,
                }
            }
            TrafficOp::Request { slot, request, .. } => {
                let session = sessions[slot].expect("live session");
                let handler = parsed.handler(&request.handler).expect("handler");
                let mut port = ProxyPort {
                    proxy: &proxy,
                    session,
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
    assert_eq!(decision_errors, 0, "decision errors in the memory soak");

    // Peak: sample the byte-accurate gauges while sessions are live.
    let components = proxy.component_heap_bytes();
    let live_at_peak = proxy.session_count();
    let exemplars = proxy.exemplars().count();

    // Drain: every live session's final state size lands in the
    // histogram, so the distribution covers *all* begun sessions.
    proxy.end_sessions(sessions.iter_mut().filter_map(Option::take));
    let state_size = proxy.session_state_size_snapshot();
    assert_eq!(
        state_size.count,
        engine.sessions_begun(),
        "every begun session must appear in the state-size distribution"
    );

    MemReport {
        app: app.name.clone(),
        users,
        rows,
        populate_s,
        ops,
        wall_s,
        sessions: engine.sessions_begun(),
        live_at_peak,
        exemplars,
        components,
        state_size,
    }
}

// ------------------------------------------------------------------ main

fn json_of(results: &[ModeResult], overheads: &[(String, f64)], mem: &MemReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"t14_introspect\",\n");
    out.push_str(&format!("  \"requests_per_app\": {N_REQUESTS_FULL},\n"));
    out.push_str(&format!("  \"reps\": {REPS_FULL},\n"));
    out.push_str(&format!("  \"measured_rounds\": {MEASURED_ROUNDS},\n"));
    out.push_str(&format!("  \"sample_every\": {SAMPLE_EVERY},\n"));
    out.push_str(&format!("  \"max_overhead\": {MAX_OVERHEAD_FULL},\n"));
    out.push_str("  \"p50_overhead\": {");
    for (i, (key, o)) in overheads.iter().enumerate() {
        out.push_str(&format!(
            "\"{key}\": {:.4}{}",
            o,
            if i + 1 == overheads.len() { "" } else { ", " }
        ));
    }
    out.push_str("},\n");
    out.push_str("  \"latency\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"spans\": \"{}\", \"ops\": {}, \
             \"throughput_ops_s\": {:.1}, \"p50_us\": {:.2}, \"p95_us\": {:.2}, \
             \"p99_us\": {:.2}, \"allowed\": {}, \"blocked\": {}, \
             \"spanned_events\": {}, \"journal_events\": {}, \"exemplars\": {}}}{}\n",
            r.app,
            r.mode.label(),
            r.ops,
            r.throughput,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.allowed,
            r.blocked,
            r.spanned_events,
            r.journal_events,
            r.exemplars,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"memory\": {\n");
    out.push_str(&format!(
        "    \"app\": \"{}\", \"users\": {}, \"rows\": {}, \"populate_s\": {:.2},\n",
        mem.app, mem.users, mem.rows, mem.populate_s
    ));
    out.push_str(&format!(
        "    \"ops\": {}, \"wall_s\": {:.2}, \"sessions\": {}, \"live_at_peak\": {}, \
         \"exemplars\": {},\n",
        mem.ops, mem.wall_s, mem.sessions, mem.live_at_peak, mem.exemplars
    ));
    out.push_str("    \"component_bytes\": {");
    for (i, (c, b)) in mem.components.iter().enumerate() {
        out.push_str(&format!(
            "\"{c}\": {b}{}",
            if i + 1 == mem.components.len() {
                ""
            } else {
                ", "
            }
        ));
    }
    out.push_str("},\n");
    out.push_str(&format!(
        "    \"session_state_bytes\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \
         \"p99\": {}, \"max\": {}}}\n",
        mem.state_size.count,
        mem.state_size.mean_ns(),
        mem.state_size.p50_ns,
        mem.state_size.p99_ns,
        mem.state_size.max_ns
    ));
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_requests, reps, max_overhead) = if smoke {
        (N_REQUESTS_SMOKE, REPS_SMOKE, MAX_OVERHEAD_SMOKE)
    } else {
        (N_REQUESTS_FULL, REPS_FULL, MAX_OVERHEAD_FULL)
    };

    // Phase 1: span overhead.
    let widths = [9usize, 10, 8, 11, 9, 9, 9, 7, 7, 10];
    header(
        &[
            "app",
            "spans",
            "ops",
            "ops/s",
            "p50-us",
            "p95-us",
            "p99-us",
            "ok",
            "denied",
            "exemplars",
        ],
        &widths,
    );
    let mut results: Vec<ModeResult> = Vec::new();
    let mut overheads: Vec<(String, f64)> = Vec::new();
    for sim in [&CALENDAR, &FORUM] {
        let env = app_env(sim, 17, Scale::small(), n_requests);
        let mut by_mode = [0.0f64; 3];
        for (i, mode) in SpanMode::ALL.into_iter().enumerate() {
            let r = run_mode(sim, &env, mode, reps);
            by_mode[i] = r.p50_us;
            row(
                &[
                    r.app.to_string(),
                    r.mode.label().to_string(),
                    r.ops.to_string(),
                    f2(r.throughput),
                    f2(r.p50_us),
                    f2(r.p95_us),
                    f2(r.p99_us),
                    r.allowed.to_string(),
                    r.blocked.to_string(),
                    r.exemplars.to_string(),
                ],
                &widths,
            );
            // The bound must not pass vacuously: instrumented modes carry
            // a span summary on every journal event, baseline on none.
            if mode == SpanMode::Off {
                assert_eq!(r.spanned_events, 0, "{}: spans off must stay off", sim.name);
            } else {
                assert!(
                    r.journal_events > 0 && r.spanned_events == r.journal_events,
                    "{}: {} of {} events carry spans in mode {}",
                    sim.name,
                    r.spanned_events,
                    r.journal_events,
                    r.mode.label()
                );
            }
            results.push(r);
        }
        // Introspection must never change answers.
        let base = &results[results.len() - 3];
        for r in &results[results.len() - 2..] {
            assert_eq!(
                (base.allowed, base.blocked),
                (r.allowed, r.blocked),
                "{}: span mode {} changed decisions",
                sim.name,
                r.mode.label()
            );
        }
        for (i, mode) in [SpanMode::Summaries, SpanMode::Sampled]
            .into_iter()
            .enumerate()
        {
            let overhead = by_mode[i + 1] / by_mode[0] - 1.0;
            println!(
                "  {}: {} p50 overhead {:+.1}% (bound {:.0}%)",
                sim.name,
                mode.label(),
                overhead * 100.0,
                max_overhead * 100.0
            );
            overheads.push((format!("{}/{}", sim.name, mode.label()), overhead));
        }
        println!();
    }
    // The acceptance gate prices the calendar workload.
    for (key, o) in &overheads {
        if key.starts_with("calendar/") {
            assert!(
                *o < max_overhead,
                "{key} p50 overhead {:.1}% exceeds the {:.0}% bound",
                o * 100.0,
                max_overhead * 100.0
            );
        }
    }

    // Phase 2: the memory soak.
    let (users, ops) = if smoke {
        (USERS_SMOKE, SOAK_OPS_SMOKE)
    } else {
        (USERS_FULL, SOAK_OPS_FULL)
    };
    let mem = memory_soak(users, ops);
    println!(
        "memory soak: {} at {} users ({} rows, populated in {:.2}s), {} ops in {:.2}s, \
         {} sessions ({} live at peak), {} exemplars",
        mem.app,
        mem.users,
        mem.rows,
        mem.populate_s,
        mem.ops,
        mem.wall_s,
        mem.sessions,
        mem.live_at_peak,
        mem.exemplars
    );
    let mwidths = [15usize, 12];
    header(&["component", "bytes"], &mwidths);
    for (c, b) in &mem.components {
        row(&[c.to_string(), b.to_string()], &mwidths);
    }
    println!(
        "session state bytes: count={} mean={} p50={} p99={} max={}",
        mem.state_size.count,
        mem.state_size.mean_ns(),
        mem.state_size.p50_ns,
        mem.state_size.p99_ns,
        mem.state_size.max_ns
    );

    if smoke {
        println!("\nsmoke: overhead bounded, memory accounting complete");
        return;
    }

    let json = json_of(&results, &overheads, &mem);
    std::fs::write("BENCH_t14.json", &json).expect("write BENCH_t14.json");
    println!("\nwrote BENCH_t14.json ({} latency points)", results.len());

    println!();
    println!("Shape claims:");
    println!("  - span summaries never change answers: allowed/blocked identical");
    println!("    across off/summaries/sampled (asserted per app);");
    println!(
        "  - the calendar p50 overhead of always-on summaries stays under {:.0}%",
        MAX_OVERHEAD_FULL * 100.0
    );
    println!("    (asserted): per-span counters are two thread-local adds, and the");
    println!("    summary is twelve words copied onto an event already being built;");
    println!("  - sampled full-tree capture (every {SAMPLE_EVERY}th decision) stays off the");
    println!("    common path, so its p50 is held to the same bound;");
    println!("  - memory accounting loses nobody: every begun session appears in the");
    println!("    state-size distribution exactly once (asserted), and component");
    println!("    bytes are measured from owned capacities, not estimates.");
}
