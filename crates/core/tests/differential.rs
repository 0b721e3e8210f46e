//! Differential tests of the compiled-plan decision path.
//!
//! The plan machinery (parse-once, translate-once, pruned candidate views,
//! compiled template verdicts, certificate replay, `u64` cache keys) and
//! the verdict caches are pure amortization: they must never change a
//! decision. These properties drive generated workloads over the calendar
//! schema of Example 2.1 and the forum schema of the simulated
//! applications, and assert, query by query, that the proxy with every
//! tier on and the proxy with its verdict caches off both return
//! bit-identical responses — verdict, deny reason, and rows — to the
//! cache-free [`Reference`] evaluator, cache-cold (first replay) and
//! cache-warm (second replay of the identical workload in the same
//! sessions).

mod common;

use bep_core::{ComplianceChecker, Policy, ProxyConfig, Reference, SqlProxy};
use common::{calendar_db, calendar_policy, forum_db, forum_policy};
use minidb::Database;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sqlir::Value;

/// One generated request: plain SQL (session parameters like `?MyUId`
/// resolve from the session bindings; everything else is inlined).
type Step = String;

// ---------------------------------------------------------------- calendar

fn calendar_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0i64..4, 0i64..4)
            .prop_map(|(u, e)| format!("SELECT 1 FROM Attendance WHERE UId = {u} AND EId = {e}")),
        (0i64..4).prop_map(|e| format!("SELECT * FROM Events WHERE EId = {e}")),
        (0i64..4)
            .prop_map(|e| format!("SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = {e}")),
        Just("SELECT EId FROM Attendance WHERE UId = ?MyUId".to_string()),
        // Union: both disjuncts must pass.
        (0i64..4).prop_map(|e| format!(
            "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND (EId = {e} OR EId = 0)"
        )),
        // Unsatisfiable (allowed: reveals nothing).
        Just("SELECT 1 FROM Events WHERE EId = 1 AND EId = 2".to_string()),
        // Out of fragment and unparseable.
        Just("SELECT COUNT(*) FROM Events".to_string()),
        Just("SELEC whoops".to_string()),
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
        Just(
            "SELECT g.GId, g.Name FROM Groups g JOIN Membership m ON g.GId = m.GId \
             WHERE m.UId = ?MyUId"
                .to_string()
        ),
        // A write mixed in: passes through every side identically (and
        // identically violates the Comments primary key on warm replays).
        (10i64..13, 900i64..903).prop_map(|(p, c)| format!(
            "INSERT INTO Comments (CId, PId, AuthorId, Body) VALUES ({c}, {p}, 0, 'x')"
        )),
    ]
}

// -------------------------------------------------------------- the driver

/// Replays `steps` twice (cold, then warm) through the full proxy, a
/// caches-off proxy, and the reference, asserting identical responses.
fn assert_differential(
    schema: qlogic::RelSchema,
    policy: Policy,
    db: &Database,
    uid: i64,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let checker = ComplianceChecker::new(schema, policy);
    let full = SqlProxy::new(db.clone(), checker.clone(), ProxyConfig::default());
    // Verdict caches off: every SELECT runs a fresh planned concrete proof.
    let nocache = SqlProxy::new(
        db.clone(),
        checker.clone(),
        ProxyConfig {
            template_cache: false,
            session_cache: false,
            ..Default::default()
        },
    );
    let mut reference = Reference::new(db.clone(), checker, &ProxyConfig::default());
    let bindings = vec![("MyUId".to_string(), Value::Int(uid))];
    let sf = full.begin_session(bindings.clone());
    let sc = nocache.begin_session(bindings.clone());
    let sr = reference.begin_session(bindings);

    for replay in ["cold", "warm"] {
        for sql in steps {
            let want = reference.execute(sr, sql, &[]);
            let a = full.execute(sf, sql, &[]);
            prop_assert_eq!(&a, &want, "full proxy vs reference ({}) on {}", replay, sql);
            let c = nocache.execute(sc, sql, &[]);
            prop_assert_eq!(
                &c,
                &want,
                "caches-off proxy vs reference ({}) on {}",
                replay,
                sql
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn calendar_plans_are_decision_identical(
        attendance in proptest::collection::vec((0i64..4, 0i64..4), 0..8),
        uid in 0i64..4,
        steps in proptest::collection::vec(calendar_step(), 1..12),
    ) {
        let db = calendar_db(&attendance);
        let (schema, policy) = calendar_policy(&db);
        assert_differential(schema, policy, &db, uid, &steps)?;
    }

    #[test]
    fn forum_plans_are_decision_identical(
        membership in proptest::collection::vec((0i64..3, 0i64..3), 0..6),
        uid in 0i64..3,
        steps in proptest::collection::vec(forum_step(), 1..12),
    ) {
        let db = forum_db(&membership);
        let (schema, policy) = forum_policy(&db);
        assert_differential(schema, policy, &db, uid, &steps)?;
    }
}
