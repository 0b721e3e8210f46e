//! The repository benchmark: one generated fleet app per workload, served
//! by the event-driven `bep-server` in this process and driven over
//! loopback by a closed-loop client that checks every decision.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload social --seed 1307 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the program as
//! shipped, timed values at the reference host speed (see `speed`).
//! `--trace 1` splits the seconds between an untraced window and a traced
//! window of the same op stream (span collection, journal polling, codec
//! re-timing, trace sizes) and reports the per-layer split. The last line
//! of output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Any decision, transport or typed error makes `correct` false
//! and the exit code 1.

mod drive;
mod layers;
mod pin;
mod report;
mod speed;
mod stats;
mod workload;

use std::time::{Duration, Instant};

use appsim::AppSpec;
use bep_core::read_process_memory;
use bep_scenario::{GeneratedApp, FRESH_ID_BASE};

use crate::drive::{drive, Conn, Rig, Tally, Until};
use crate::layers::{Counters, JournalTally, TracedWindow};
use crate::report::{print_table, result_line, END_TO_END, PER_LAYER};
use crate::speed::Speed;
use crate::stats::{median, percentile};
use crate::workload::{Workload, WARM_FRESH_BASE, WARM_SEED, WORKLOADS};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Ops of the warm-up stream replayed to warm the caches before timing.
const WARM_OPS: usize = 3_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1307u64, 30u64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a whole number: {value}")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = number(),
            "--seconds" => seconds = number().max(1),
            "--trace" => trace = number() != 0,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

/// Errors and statements over a whole run, set-ups included.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    /// Proxy counters that disagree with what the clients saw.
    mismatches: u64,
}

impl Ledger {
    fn add(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failures();
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }
}

/// Populates, starts the server, warms it up on its own connection and
/// opens the timed one: everything before a timed window. Returns the
/// ready rig, its connection, the set-up time in seconds as measured, and
/// the host's speed around it.
fn set_up<'a>(
    args: &Args,
    app: &'a GeneratedApp,
    traced: bool,
    ledger: &mut Ledger,
) -> (Rig, Conn<'a>, f64, Speed) {
    let mut speed = Speed::default();
    speed.probe();
    let t0 = Instant::now();
    let rig = Rig::start(&args.workload, app, traced);
    let mut warm_conn = rig.connect(&args.workload, app, WARM_SEED, WARM_FRESH_BASE);
    let c0 = Counters::read(&rig.proxy);
    let warm = drive(
        &mut warm_conn,
        &app.app(),
        Until::Ops(WARM_OPS),
        None,
        || {},
    );
    drop(warm_conn);
    let conn = rig.connect(&args.workload, app, args.seed, FRESH_ID_BASE);
    let setup_s = t0.elapsed().as_secs_f64() - warm.speed.spent_s();
    speed.absorb(&warm.speed);
    // A fixed op count of a fixed stream: every run decides the same
    // way here.
    print_counts("warm-up", &c0, &Counters::read(&rig.proxy), &warm);
    ledger.add(&warm);
    (rig, conn, setup_s, speed)
}

/// Runs one timed window of `seconds` and checks the proxy's counters
/// against what the client saw. Returns the tally, counters around the
/// window and the seconds the program had (host probes taken out).
fn window(
    seconds: u64,
    rig: &Rig,
    conn: &mut Conn<'_>,
    app: &GeneratedApp,
    mut journal: Option<&mut JournalTally>,
    ledger: &mut Ledger,
) -> (Tally, Counters, Counters, f64) {
    let parsed = app.app();
    let before = Counters::read(&rig.proxy);
    let trace = journal.is_some().then_some(&*rig.proxy);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let tally = drive(conn, &parsed, Until::Deadline(deadline), trace, || {
        if let Some(j) = journal.as_deref_mut() {
            j.poll(rig.proxy.journal());
        }
    });
    let elapsed = start.elapsed().as_secs_f64() - tally.speed.spent_s();
    if let Some(j) = journal {
        j.poll(rig.proxy.journal());
    }
    let after = Counters::read(&rig.proxy);
    ledger.add(&tally);
    let decided = after.decided() - before.decided();
    let blocked = after.stats.blocked - before.stats.blocked;
    if decided != tally.statements() || blocked != tally.blocked {
        eprintln!(
            "perfbench: proxy decided {decided} statements ({blocked} blocked), \
             the client saw {} ({} blocked)",
            tally.statements(),
            tally.blocked
        );
        ledger.mismatches += 1;
    }
    (tally, before, after, elapsed)
}

fn print_counts(label: &str, c0: &Counters, c1: &Counters, tally: &Tally) {
    let d = |f: fn(&bep_core::ProxyStats) -> u64| f(&c1.stats) - f(&c0.stats);
    println!(
        "{label}: statements {} (writes {}), allowed {}, blocked {}, write-allowed {}, \
         write-blocked {}, decision errors {}, transport errors {}, typed errors {}",
        tally.statements(),
        tally.write_lat_ns.len(),
        d(|s| s.allowed),
        d(|s| s.blocked),
        d(|s| s.write_allowed),
        d(|s| s.write_blocked),
        tally.decision_errors,
        tally.transport_errors,
        tally.typed_errors,
    );
}

fn end_to_end(args: &Args, app: &GeneratedApp, ledger: &mut Ledger) -> Vec<(&'static str, f64)> {
    let (mut setups, mut setup_factors) = (Vec::new(), Vec::new());
    let (rig, mut conn) = loop {
        let (rig, conn, setup_s, speed) = set_up(args, app, false, ledger);
        setups.push(setup_s);
        setup_factors.push(speed.factor());
        if setups.len() == SETUP_REPS {
            break (rig, conn);
        }
        rig.stop(conn);
    };
    println!("population: {} rows", rig.rows);
    let (tally, c0, c1, elapsed) = window(args.seconds, &rig, &mut conn, app, None, ledger);
    print_counts("window", &c0, &c1, &tally);
    rig.stop(conn);

    let statements = tally.statements();
    let (slowdown, factor) = (tally.speed.slowdown(), tally.speed.factor());
    let probes = tally.speed.samples_ns.len();
    let (mut lat, mut wlat) = (tally.lat_ns, tally.write_lat_ns);
    lat.sort_unstable();
    wlat.sort_unstable();
    let us = |sorted: &[u64], p: f64| percentile(sorted, p) as f64 / 1e3;
    // Tails are printed, not gated: on a shared 2-vCPU host a few stalls
    // of the hypervisor set them, so they spread more between runs than
    // any bound allows.
    println!(
        "samples: {} statements behind stmt_p50_us (p95 {:.1} us, p99 {:.1} us, p99.9 {:.1} \
         us, {} samples above p99.9), {} writes behind write_p50_us (write p95 {:.1} us, \
         p99 {:.1} us); {:.4} failed_frac",
        lat.len(),
        us(&lat, 95.0),
        us(&lat, 99.0),
        us(&lat, 99.9),
        lat.len() / 1000,
        wlat.len(),
        us(&wlat, 95.0),
        us(&wlat, 99.0),
        stats::ratio(ledger.failed as f64, ledger.attempted as f64)
    );
    let per_s = statements as f64 / elapsed;
    let (p50, w50) = (us(&lat, 50.0), us(&wlat, 50.0));
    println!(
        "as measured, at host slowdown {slowdown:.3} ({probes} probes, factor {factor:.3}): \
         stmts_per_s {per_s:.1}, stmt_p50_us {p50:.2}, write_p50_us {w50:.2}; \
         set-ups {} s at factors {}",
        join(&setups, 3),
        join(&setup_factors, 3)
    );
    let mut setups_at_reference: Vec<f64> = setups
        .iter()
        .zip(&setup_factors)
        .map(|(s, f)| s / f)
        .collect();
    vec![
        ("stmts_per_s", per_s * factor),
        ("stmt_p50_us", p50 / factor),
        ("write_p50_us", w50 / factor),
        ("setup_s", median(&mut setups_at_reference)),
        (
            "peak_rss_mb",
            read_process_memory().peak_resident_bytes as f64 / (1u64 << 20) as f64,
        ),
    ]
}

fn join(values: &[f64], decimals: usize) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.decimals$}")).collect();
    parts.join(", ")
}

fn traced(args: &Args, app: &GeneratedApp, ledger: &mut Ledger) -> Vec<(&'static str, f64)> {
    // Untraced half first: the baseline for the tracing overhead.
    let plain_seconds = (args.seconds / 2).max(1);
    let (rig, mut conn, _, _) = set_up(args, app, false, ledger);
    let (plain, _, _, plain_s) = window(plain_seconds, &rig, &mut conn, app, None, ledger);
    rig.stop(conn);

    let (rig, mut conn, _, _) = set_up(args, app, true, ledger);
    let mut journal = JournalTally::starting_now(rig.proxy.journal());
    let traced_seconds = (args.seconds - plain_seconds).max(1);
    let (tally, c0, c1, elapsed) = window(
        traced_seconds,
        &rig,
        &mut conn,
        app,
        Some(&mut journal),
        ledger,
    );
    let heap = rig.proxy.component_heap_bytes();
    let rows = rig.rows;
    rig.stop(conn);
    print_counts("traced window", &c0, &c1, &tally);

    if journal.dropped() > 0 || journal.events != tally.statements() {
        eprintln!(
            "perfbench: journal delivered {} events ({} dropped) for {} statements",
            journal.events,
            journal.dropped(),
            tally.statements()
        );
        ledger.mismatches += 1;
    }
    let w = TracedWindow {
        tally: &tally,
        before: &c0,
        after: &c1,
        journal: &journal,
        heap,
        traced_stmts_per_s: tally.statements() as f64 / elapsed * tally.speed.factor(),
        plain_stmts_per_s: plain.statements() as f64 / plain_s * plain.speed.factor(),
    };
    let split = w.split();
    if !split.adds_up() {
        ledger.mismatches += 1;
    }
    println!(
        "layer split (µs/stmt): rtt {:.2} = outside-core {:.2} + core {:.2}; \
         core {:.2} = phases {:.2} + unattributed {:.2}",
        split.rtt_us,
        split.outside_core_us(),
        split.core_us,
        split.core_us,
        split.phases_us,
        split.unattributed_us()
    );
    let shares: Vec<String> = w
        .phase_shares()
        .iter()
        .map(|(p, s)| format!("{p} {:.1}%", s * 100.0))
        .collect();
    println!("in-proxy phase shares: {}", shares.join(", "));
    let writes = tally.write_lat_ns.len() as f64;
    println!(
        "workload record: {} rows, 1 connection, write share {:.3}, {} distinct statement \
         texts against plan capacity {}, {} journal events, {} dropped, {} proof / {} exec \
         samples behind the p99s",
        rows,
        stats::ratio(writes, tally.statements() as f64),
        tally.texts.len(),
        args.workload.configs(true).0.plan_capacity,
        journal.events,
        journal.dropped(),
        journal.proof_ns.len(),
        journal.exec_ns.len(),
    );
    w.metrics()
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let Some(cpu) = pin::pin_to_one_cpu() else {
        eprintln!("perfbench: cannot pin the process to one CPU");
        std::process::exit(1);
    };
    let wl = args.workload;
    let app = wl.app();
    println!(
        "perfbench: workload {} ({} family, {} users, 1 connection, closed loop, \
         enforce_writes {}), seed {}, {} s, trace {}, {} cores, pinned to CPU {cpu}",
        wl.name,
        wl.family.name(),
        wl.users,
        wl.enforce_writes,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores,
    );
    let mut ledger = Ledger::default();
    let (values, units) = if args.trace {
        (traced(&args, &app, &mut ledger), PER_LAYER)
    } else {
        (end_to_end(&args, &app, &mut ledger), END_TO_END)
    };
    print_table("metrics:", &values, units);
    println!(
        "{}",
        result_line(
            ledger.correct(),
            ledger.attempted,
            ledger.failed,
            &values,
            units
        )
    );
    if !ledger.correct() {
        std::process::exit(1);
    }
}
