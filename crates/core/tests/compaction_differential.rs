//! Differential tests of the bounded-memory machinery.
//!
//! Trace compaction drops stored facts that are homomorphically implied by
//! the rest of the trace, and the SIEVE-bounded caches evict under byte
//! pressure. Both are pure memory optimizations: with the fact set
//! logically equivalent and every cache a *cache* (misses recompute), no
//! decision may change. These properties replay generated workloads over
//! the calendar and forum schemas through the [`Reference`] evaluator
//! (whose trace is never compacted and which has no caches), a proxy with
//! default budgets, and a proxy with budgets tight enough to force
//! eviction mid-workload, and assert the responses are bit-identical
//! (verdict, deny reason, rows), cold and warm.

mod common;

use bep_core::{ComplianceChecker, HeapUsage, Policy, ProxyConfig, Reference, SqlProxy};
use common::{calendar_db, calendar_policy, forum_db, forum_policy};
use minidb::Database;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sqlir::Value;

type Step = String;

// ---------------------------------------------------------------- calendar

/// Steps biased toward *repetition* (small constant ranges): repeats are
/// what populate the trace with subsumable duplicates and what hammer the
/// concrete caches hard enough for tight budgets to evict.
fn calendar_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0i64..3, 0i64..3)
            .prop_map(|(u, e)| format!("SELECT 1 FROM Attendance WHERE UId = {u} AND EId = {e}")),
        (0i64..3).prop_map(|e| format!("SELECT * FROM Events WHERE EId = {e}")),
        (0i64..3)
            .prop_map(|e| format!("SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = {e}")),
        Just("SELECT EId FROM Attendance WHERE UId = ?MyUId".to_string()),
        (0i64..3).prop_map(|e| format!(
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND (EId = {e} OR EId = 0)"
        )),
        Just("SELECT 1 FROM Events WHERE EId = 1 AND EId = 2".to_string()),
    ]
}

// ------------------------------------------------------------------- forum

fn forum_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (10i64..13).prop_map(|p| format!("SELECT GId FROM Posts WHERE PId = {p}")),
        (0i64..3)
            .prop_map(|g| format!("SELECT 1 FROM Membership WHERE UId = ?MyUId AND GId = {g}")),
        (10i64..13)
            .prop_map(|p| format!("SELECT PId, Title, Body, AuthorId FROM Posts WHERE PId = {p}")),
        (10i64..13)
            .prop_map(|p| format!("SELECT CId, AuthorId, Body FROM Comments WHERE PId = {p}")),
        Just("SELECT GId, Name FROM Groups WHERE Public = TRUE".to_string()),
    ]
}

// -------------------------------------------------------------- the driver

/// Replays `steps` twice (cold, then warm) through the reference and the
/// two proxies and asserts bit-identical responses at every step. Returns
/// the final trace heap bytes of the (reference, compacting) sessions so
/// callers can assert compaction never *grows* the trace.
fn assert_bounded_differential(
    schema: qlogic::RelSchema,
    policy: Policy,
    db: &Database,
    uid: i64,
    steps: &[Step],
) -> Result<(usize, usize), TestCaseError> {
    let checker = ComplianceChecker::new(schema, policy);
    let mut baseline = Reference::new(db.clone(), checker.clone(), &ProxyConfig::default());
    let compacting = SqlProxy::new(db.clone(), checker.clone(), ProxyConfig::default());
    // Budgets low enough that real workloads evict: a few hundred bytes of
    // session cache is a handful of entries; 4 KiB of plans is 1-2
    // compiled templates.
    let starved = SqlProxy::new(
        db.clone(),
        checker.clone(),
        ProxyConfig {
            session_cache_budget_bytes: 512,
            plan_budget_bytes: 4 * 1024,
            ..Default::default()
        },
    );
    let bindings = vec![("MyUId".to_string(), Value::Int(uid))];
    let sb = baseline.begin_session(bindings.clone());
    let sc = compacting.begin_session(bindings.clone());
    let ss = starved.begin_session(bindings.clone());

    for replay in ["cold", "warm"] {
        for sql in steps {
            let a = baseline.execute(sb, sql, &[]);
            let b = compacting.execute(sc, sql, &[]);
            let c = starved.execute(ss, sql, &[]);
            prop_assert_eq!(
                &a,
                &b,
                "compaction changed a decision ({}) on {}",
                replay,
                sql
            );
            prop_assert_eq!(
                &a,
                &c,
                "starved caches changed a decision ({}) on {}",
                replay,
                sql
            );
        }
    }
    let base_bytes = baseline.session_trace(sb).unwrap().heap_bytes();
    let compact_bytes = compacting.session_trace(sc).unwrap().heap_bytes();
    Ok((base_bytes, compact_bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn calendar_compaction_and_eviction_are_decision_invisible(
        attendance in proptest::collection::vec((0i64..3, 0i64..3), 0..8),
        uid in 0i64..3,
        steps in proptest::collection::vec(calendar_step(), 1..14),
    ) {
        let db = calendar_db(&attendance);
        let (schema, policy) = calendar_policy(&db);
        let (base, compact) =
            assert_bounded_differential(schema, policy, &db, uid, &steps)?;
        prop_assert!(
            compact <= base,
            "compaction grew the trace: {compact} > {base} bytes"
        );
    }

    #[test]
    fn forum_compaction_and_eviction_are_decision_invisible(
        membership in proptest::collection::vec((0i64..3, 0i64..3), 0..6),
        uid in 0i64..3,
        steps in proptest::collection::vec(forum_step(), 1..14),
    ) {
        let db = forum_db(&membership);
        let (schema, policy) = forum_policy(&db);
        let (base, compact) =
            assert_bounded_differential(schema, policy, &db, uid, &steps)?;
        prop_assert!(
            compact <= base,
            "compaction grew the trace: {compact} > {base} bytes"
        );
    }

    /// The workload every compaction win comes from: the same probe
    /// repeated. The trace must stay flat (one entry's worth of state)
    /// instead of growing linearly, and the decisions must match the
    /// non-compacting reference step for step.
    #[test]
    fn repeated_probes_keep_the_trace_flat(
        repeats in 4usize..24,
        e in 0i64..3,
    ) {
        let db = calendar_db(&[(0, 0), (0, 1), (0, 2)]);
        let (schema, policy) = calendar_policy(&db);
        let steps: Vec<Step> = (0..repeats)
            .map(|_| format!("SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = {e}"))
            .collect();
        let (base, compact) =
            assert_bounded_differential(schema, policy, &db, 0, &steps)?;
        prop_assert!(
            compact < base || repeats < 2,
            "repeats should compact away: {compact} vs {base} bytes after {repeats} repeats"
        );
    }
}
