//! The reference evaluator: the paper's decision procedure with nothing
//! amortized.
//!
//! [`Reference`] decides every statement from scratch — parse, translate,
//! symbolic proof, concrete proof against the session's trace — with no
//! compiled plans, no verdict caches, no statistics, no journal, and a
//! trace that is never compacted. It is the one oracle the differential
//! tests and the bench gates hold [`SqlProxy`](crate::SqlProxy) to: every
//! cache tier of the proxy claims to change cost and never an answer, and
//! that claim is checked against code that shares none of the caching.
//!
//! It is single-threaded (`&mut self`) and slow on purpose; simplicity is
//! the point. The stateless step, [`decide`], is exposed on its own so a
//! gate can check one probe against a snapshot of a session's trace.

use std::collections::HashMap;

use minidb::{Database, ExecResult, Rows};
use sqlir::{parse_statement, Query, Statement, Value};

use crate::checker::ComplianceChecker;
use crate::classify::StatementClass;
use crate::decision::{Decision, DecisionSource, DenyReason};
use crate::error::CoreError;
use crate::proxy::{bind_to_statement, merge_bindings, ProxyConfig, ProxyResponse};
use crate::trace::{Observation, Trace, MAX_FACT_ROWS};
use crate::write::{
    atom_query, check_write_concrete, compile_write_template, WriteTemplateVerdict,
};

/// One session: its policy bindings and its full, uncompacted trace.
struct Session {
    bindings: Vec<(String, Value)>,
    trace: Trace,
}

/// A cache-free, single-threaded enforcing evaluator with the same
/// observable behaviour as [`SqlProxy`](crate::SqlProxy): the same
/// [`ProxyResponse`] for the same statement stream, down to the deny
/// reason and the rows.
pub struct Reference {
    db: Database,
    checker: ComplianceChecker,
    allow_writes: bool,
    enforce_writes: bool,
    sessions: HashMap<u64, Session>,
    next_session: u64,
}

impl Reference {
    /// Wraps a database. Of `config` only the fields that change answers
    /// are read — `allow_writes` and `enforce_writes`; every cost field is
    /// ignored. Decisions are always trace-aware, as in the paper.
    pub fn new(db: Database, checker: ComplianceChecker, config: &ProxyConfig) -> Reference {
        Reference {
            db,
            checker,
            allow_writes: config.allow_writes,
            enforce_writes: config.enforce_writes,
            sessions: HashMap::new(),
            next_session: 1,
        }
    }

    /// Opens a session with the given policy-parameter bindings. Ids are
    /// assigned from 1 upward, as [`SqlProxy`](crate::SqlProxy) does.
    pub fn begin_session(&mut self, bindings: Vec<(String, Value)>) -> u64 {
        let id = self.next_session;
        self.next_session += 1;
        let trace = Trace::new();
        self.sessions.insert(id, Session { bindings, trace });
        id
    }

    /// Ends a session; `false` if it was not live.
    pub fn end_session(&mut self, id: u64) -> bool {
        self.sessions.remove(&id).is_some()
    }

    /// The session's trace: every recorded observation, never compacted.
    pub fn session_trace(&self, id: u64) -> Result<&Trace, CoreError> {
        self.sessions
            .get(&id)
            .map(|s| &s.trace)
            .ok_or(CoreError::NoSuchSession(id))
    }

    /// Decides and runs one statement, exactly as
    /// [`SqlProxy::execute`](crate::SqlProxy::execute) answers it.
    pub fn execute(
        &mut self,
        session_id: u64,
        sql: &str,
        extra_bindings: &[(String, Value)],
    ) -> Result<ProxyResponse, CoreError> {
        // Parse errors never depend on the session.
        let stmt = match parse_statement(sql) {
            Ok(stmt) => stmt,
            Err(e) => return block(DenyReason::ParseError(e.to_string())),
        };
        let session = self
            .sessions
            .get_mut(&session_id)
            .ok_or(CoreError::NoSuchSession(session_id))?;
        let bindings = merge_bindings(&session.bindings, extra_bindings)
            .unwrap_or_else(|| session.bindings.clone());
        let class = StatementClass::of(&stmt);
        if class != StatementClass::Read && !self.allow_writes {
            return block(DenyReason::WriteBlocked);
        }
        let unenforced = class == StatementClass::Ddl
            || (class == StatementClass::Write && !self.enforce_writes);
        if !unenforced {
            if let Decision::Denied { reason } =
                decide(&self.checker, &stmt, &bindings, &session.trace)
            {
                return block(reason);
            }
        }
        let bound = match bind_to_statement(&stmt, &bindings) {
            Ok(bound) => bound,
            Err(CoreError::Parse(msg)) => return block(DenyReason::ParseError(msg)),
            Err(other) => return Err(other),
        };
        let rows = match self.db.execute(&bound)? {
            ExecResult::Rows(rows) => rows,
            ExecResult::Affected(n) => return Ok(ProxyResponse::Affected(n)),
            ExecResult::Created => return Ok(ProxyResponse::Affected(0)),
        };
        if let Statement::Select(q) = &stmt {
            record(&self.checker, &mut session.trace, q, &bindings, &rows);
        }
        Ok(ProxyResponse::Rows(rows))
    }
}

/// The stateless decision step for one parsed statement against a trace:
///
/// * `SELECT` — allowed iff the symbolic template proof allows, or the
///   concrete proof over `trace` does; a denial carries the concrete
///   proof's reason;
/// * `INSERT`/`UPDATE`/`DELETE` — the write template's verdict:
///   always covered, never covered (`WriteNotCovered` with the uncovered
///   row), or undecidable, in which case the concrete coverage check runs
///   against the trace facts;
/// * DDL writes no rows, so there is no policy question: allowed.
///
/// Configuration gates (`allow_writes`, `enforce_writes`) are not applied
/// here; [`Reference::execute`] applies them before calling this.
pub fn decide(
    checker: &ComplianceChecker,
    stmt: &Statement,
    bindings: &[(String, Value)],
    trace: &Trace,
) -> Decision {
    match stmt {
        Statement::Select(q) => match checker.check_template(q) {
            allowed @ Decision::Allowed { .. } => allowed,
            Decision::Denied { .. } => checker.check_concrete(q, bindings, trace),
        },
        Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
            decide_write(checker, stmt, bindings, trace)
        }
        Statement::CreateTable(_) => allowed(DecisionSource::TemplateProof),
    }
}

fn decide_write(
    checker: &ComplianceChecker,
    stmt: &Statement,
    bindings: &[(String, Value)],
    trace: &Trace,
) -> Decision {
    let views = checker.policy().views();
    let template = match compile_write_template(stmt, views, checker.schema()) {
        Ok(t) => t,
        Err(msg) => return denied(DenyReason::OutOfFragment(msg)),
    };
    match template.verdict {
        WriteTemplateVerdict::Allowed => allowed(DecisionSource::TemplateProof),
        WriteTemplateVerdict::NeverCovered => {
            let query = template
                .uncovered_query()
                .unwrap_or_else(|| atom_query(&template.atoms[0]));
            denied(DenyReason::WriteNotCovered { query })
        }
        WriteTemplateVerdict::Undecidable => {
            match check_write_concrete(&template, views, bindings, trace.facts()) {
                Ok(()) => allowed(DecisionSource::ConcreteProof),
                Err(query) => denied(DenyReason::WriteNotCovered { query }),
            }
        }
    }
}

/// Records an allowed `SELECT`'s answer into the trace. Only
/// single-disjunct queries with every parameter bound contribute: a
/// union's non-empty answer does not say which disjunct held.
fn record(
    checker: &ComplianceChecker,
    trace: &mut Trace,
    q: &Query,
    bindings: &[(String, Value)],
    rows: &Rows,
) {
    let Ok(ucq) = checker.translate(q) else {
        return;
    };
    let [disjunct] = ucq.disjuncts.as_slice() else {
        return;
    };
    let cq = disjunct.instantiate(bindings);
    if cq.params().is_empty() {
        trace.record(cq, Observation::from_rows(&rows.rows, MAX_FACT_ROWS));
    }
}

fn block(reason: DenyReason) -> Result<ProxyResponse, CoreError> {
    Ok(ProxyResponse::Blocked(reason))
}

fn allowed(source: DecisionSource) -> Decision {
    Decision::Allowed {
        source,
        rewritings: Vec::new(),
    }
}

fn denied(reason: DenyReason) -> Decision {
    Decision::Denied { reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::tests::{calendar_checker, calendar_db};

    fn reference(config: ProxyConfig) -> Reference {
        let db = calendar_db();
        let checker = calendar_checker(&db);
        Reference::new(db, checker, &config)
    }

    fn user(uid: i64) -> Vec<(String, Value)> {
        vec![("MyUId".into(), Value::Int(uid))]
    }

    const FETCH: &str = "SELECT * FROM Events WHERE EId = 2";
    const PROBE: &str = "SELECT 1 FROM Attendance WHERE UId = ?MyUId AND EId = 2";

    #[test]
    fn example_2_1_fetch_is_blocked_until_the_probe_is_recorded() {
        let mut r = reference(ProxyConfig::default());
        let s = r.begin_session(user(1));
        let before = r.execute(s, FETCH, &[]).unwrap();
        assert!(
            matches!(
                before,
                ProxyResponse::Blocked(DenyReason::NotDetermined { .. })
            ),
            "{before:?}"
        );
        let probe = r.execute(s, PROBE, &[]).unwrap();
        assert_eq!(probe.rows().map(|rows| rows.len()), Some(1));
        let after = r.execute(s, FETCH, &[]).unwrap();
        assert_eq!(after.rows().unwrap().rows[0][1], Value::str("standup"));
    }

    #[test]
    fn never_covered_write_is_blocked_as_not_covered() {
        let mut r = reference(ProxyConfig {
            enforce_writes: true,
            ..ProxyConfig::default()
        });
        let s = r.begin_session(user(1));
        // The written rows' UId is unknown, so no view pinned to ?MyUId
        // can ever cover them, for any session or history.
        let sql = "UPDATE Attendance SET Notes = 'x' WHERE EId = 3";
        let stmt = parse_statement(sql).unwrap();
        let views = r.checker.policy().views();
        let template = compile_write_template(&stmt, views, r.checker.schema()).unwrap();
        assert_eq!(template.verdict, WriteTemplateVerdict::NeverCovered);
        let resp = r.execute(s, sql, &[]).unwrap();
        assert!(
            matches!(
                resp,
                ProxyResponse::Blocked(DenyReason::WriteNotCovered { .. })
            ),
            "{resp:?}"
        );
    }

    #[test]
    fn unenforced_write_passes_through() {
        let mut r = reference(ProxyConfig::default());
        let s = r.begin_session(user(1));
        let sql = "INSERT INTO Attendance (UId, EId, Notes) VALUES (2, 2, 'x')";
        assert_eq!(r.execute(s, sql, &[]).unwrap(), ProxyResponse::Affected(1));
    }

    #[test]
    fn repeated_probe_grows_the_uncompacted_trace() {
        let mut r = reference(ProxyConfig::default());
        let s = r.begin_session(user(1));
        r.execute(s, PROBE, &[]).unwrap();
        let once = r.session_trace(s).unwrap().len();
        r.execute(s, PROBE, &[]).unwrap();
        assert_eq!(r.session_trace(s).unwrap().len(), once + 1);
    }

    #[test]
    fn parse_errors_precede_the_session_lookup() {
        let mut r = reference(ProxyConfig::default());
        assert!(matches!(
            r.execute(7, "SELEC whoops", &[]).unwrap(),
            ProxyResponse::Blocked(DenyReason::ParseError(_))
        ));
        assert_eq!(r.execute(7, FETCH, &[]), Err(CoreError::NoSuchSession(7)));
    }
}
