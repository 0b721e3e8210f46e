//! Query traces and the ground facts they witness.
//!
//! The checker of §2.2 "considers the history of prior queries and their
//! results" — Example 2.1's `Q2` is only allowed because `Q1` returned a
//! row. This module turns observed results into *facts*: atoms known to hold
//! in the current database. Unknown cell values become labeled nulls
//! (Skolem witnesses), which the containment machinery handles natively.
//!
//! Only *positive* observations produce facts: a non-empty result witnesses
//! one satisfying assignment; returned rows witness one assignment each.
//! Empty results carry negative information that facts cannot express, so
//! they are (soundly) ignored.

use qlogic::{Atom, Cq, Subst, Term};
use sqlir::Value;

/// What was observed about a query's result.
#[derive(Debug, Clone, PartialEq)]
pub enum Observation {
    /// The result was empty.
    Empty,
    /// The result was non-empty (row contents unrecorded).
    NonEmpty,
    /// The exact rows returned.
    Rows(Vec<Vec<Value>>),
}

impl Observation {
    /// Builds an observation from result rows, keeping at most `keep` rows'
    /// contents (beyond that, only non-emptiness is recorded).
    pub fn from_rows(rows: &[Vec<Value>], keep: usize) -> Observation {
        if rows.is_empty() {
            Observation::Empty
        } else if rows.len() <= keep {
            Observation::Rows(rows.to_vec())
        } else {
            Observation::NonEmpty
        }
    }
}

/// One trace entry: an (instantiated) query and what it returned.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// The query, parameters already bound.
    pub query: Cq,
    /// The observation.
    pub observation: Observation,
}

/// A session's query history with derived facts.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    facts: Vec<Atom>,
    skolem_counter: u64,
    /// Bumped whenever the fact set changes (push *or* compaction removal).
    /// Cached decisions that depended on the facts stamp this; a plain
    /// `facts().len()` stamp would be unsound once compaction can shrink the
    /// set (the same count can name a different set).
    version: u64,
}

/// Maximum rows per observation that contribute facts (keeps fact sets and
/// hence checking costs bounded).
pub const MAX_FACT_ROWS: usize = 16;

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Records a query and its observation, deriving facts.
    pub fn record(&mut self, query: Cq, observation: Observation) {
        match &observation {
            Observation::Empty => {}
            Observation::NonEmpty => self.witness(&query, None),
            Observation::Rows(rows) => {
                for row in rows.iter().take(MAX_FACT_ROWS) {
                    self.witness(&query, Some(row));
                }
            }
        }
        self.entries.push(TraceEntry { query, observation });
    }

    /// Adds the facts witnessed by one satisfying assignment: head variables
    /// bound to the returned row (if given), all other variables Skolemized.
    fn witness(&mut self, query: &Cq, row: Option<&[Value]>) {
        let mut subst = Subst::new();
        if let Some(row) = row {
            if row.len() != query.head.len() {
                return; // malformed observation; contribute nothing
            }
            for (h, v) in query.head.iter().zip(row) {
                if let Term::Var(name) = h {
                    if v.is_null() {
                        continue; // a NULL tells us nothing definite
                    }
                    match subst.get(name) {
                        Some(Term::Const(prev)) if prev.to_value() != *v => return,
                        _ => {
                            subst.insert(*name, Term::constant(v));
                        }
                    }
                }
            }
        }
        for v in query.variables() {
            if !subst.contains_key(&v) {
                self.skolem_counter += 1;
                subst.insert(v, Term::var(format!("sk{}", self.skolem_counter)));
            }
        }
        for atom in &query.atoms {
            let fact = qlogic::cq::apply_atom(atom, &subst);
            if !self.facts.contains(&fact) {
                self.facts.push(fact);
                self.version += 1;
            }
        }
    }

    /// The derived facts.
    pub fn facts(&self) -> &[Atom] {
        &self.facts
    }

    /// The recorded entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Injects an externally known fact (used by diagnosis when proposing
    /// access-check patches: "if this check passed, the fact holds").
    pub fn assume_fact(&mut self, fact: Atom) {
        if !self.facts.contains(&fact) {
            self.facts.push(fact);
            self.version += 1;
        }
    }

    /// Monotone fact-set version: changes (strictly increases) whenever the
    /// fact set changes in any way. Decision caches stamp this instead of
    /// `facts().len()`, which compaction can make ambiguous.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Subsumption-based compaction. Drops every entry that is an exact
    /// duplicate of an earlier one, and every fact homomorphically implied
    /// by the remaining facts (identity-pinned on shared labeled nulls, so
    /// the existential conjunction — and hence every compliance decision,
    /// which is monotone in it — is unchanged). Returns how many entries
    /// plus facts were dropped.
    ///
    /// Soundness: the fact set before and after is logically *equivalent*
    /// (each dropped fact is entailed by what stays), so trace-aware proofs
    /// succeed after compaction exactly when they succeeded before.
    pub fn compact(&mut self) -> usize {
        let mut dropped = 0;

        // Entries: exact (query, observation) duplicates carry no new
        // information — the first occurrence already witnessed everything.
        let mut kept: Vec<TraceEntry> = Vec::with_capacity(self.entries.len());
        for e in self.entries.drain(..) {
            if kept.contains(&e) {
                dropped += 1;
            } else {
                kept.push(e);
            }
        }
        self.entries = kept;

        // Facts: greedy single-pass sweep. Dropping is order-dependent but
        // always sound; sweeping oldest-first lets a later, more specific
        // fact absorb an earlier Skolemized one.
        let mut i = 0;
        while i < self.facts.len() {
            let fact = self.facts[i].clone();
            let mut remainder = Vec::with_capacity(self.facts.len() - 1);
            remainder.extend_from_slice(&self.facts[..i]);
            remainder.extend_from_slice(&self.facts[i + 1..]);
            if qlogic::fact_implied(&fact, &remainder) {
                self.facts.remove(i);
                self.version += 1;
                dropped += 1;
            } else {
                i += 1;
            }
        }
        dropped
    }
}

impl crate::mem::HeapUsage for Trace {
    /// Entries (query CQs plus recorded observation rows) and derived
    /// facts, from vector capacities.
    fn heap_bytes(&self) -> usize {
        use crate::mem::{cq_heap_bytes, value_heap_bytes};
        use std::mem::size_of;
        let mut b = self.entries.capacity() * size_of::<TraceEntry>()
            + self.facts.capacity() * size_of::<Atom>()
            + self
                .facts
                .iter()
                .map(|a| a.args.capacity() * size_of::<Term>())
                .sum::<usize>();
        for e in &self.entries {
            b += cq_heap_bytes(&e.query);
            if let Observation::Rows(rows) = &e.observation {
                b += rows.capacity() * size_of::<Vec<Value>>();
                for row in rows {
                    b += row.capacity() * size_of::<Value>();
                    b += row.iter().map(value_heap_bytes).sum::<usize>();
                }
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlogic::CmpOp;

    fn q1() -> Cq {
        // ans(1) :- Attendance(1, 2, n)
        Cq::new(
            vec![Term::int(1)],
            vec![Atom::new(
                "Attendance",
                vec![Term::int(1), Term::int(2), Term::var("n")],
            )],
            vec![],
        )
    }

    #[test]
    fn nonempty_witnesses_skolemized_atom() {
        let mut t = Trace::new();
        t.record(q1(), Observation::NonEmpty);
        assert_eq!(t.facts().len(), 1);
        let f = &t.facts()[0];
        assert_eq!(f.relation, "Attendance");
        assert_eq!(f.args[0], Term::int(1));
        assert_eq!(f.args[1], Term::int(2));
        assert!(matches!(f.args[2], Term::Var(_)), "notes is a labeled null");
    }

    #[test]
    fn empty_observation_adds_no_facts() {
        let mut t = Trace::new();
        t.record(q1(), Observation::Empty);
        assert!(t.facts().is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn rows_bind_head_variables() {
        // ans(e) :- Attendance(7, e, n); returned rows e = 4 and e = 9.
        let q = Cq::new(
            vec![Term::var("e")],
            vec![Atom::new(
                "Attendance",
                vec![Term::int(7), Term::var("e"), Term::var("n")],
            )],
            vec![],
        );
        let mut t = Trace::new();
        t.record(
            q,
            Observation::Rows(vec![vec![Value::Int(4)], vec![Value::Int(9)]]),
        );
        assert_eq!(t.facts().len(), 2);
        assert_eq!(t.facts()[0].args[1], Term::int(4));
        assert_eq!(t.facts()[1].args[1], Term::int(9));
        // Distinct Skolems for the two notes cells.
        assert_ne!(t.facts()[0].args[2], t.facts()[1].args[2]);
    }

    #[test]
    fn join_query_witnesses_both_atoms_with_shared_skolem() {
        // ans(t) :- Events(e, t), Attendance(1, e, n): one non-empty result
        // witnesses both atoms with the SAME Skolem for e.
        let q = Cq::new(
            vec![Term::var("t")],
            vec![
                Atom::new("Events", vec![Term::var("e"), Term::var("t")]),
                Atom::new(
                    "Attendance",
                    vec![Term::int(1), Term::var("e"), Term::var("n")],
                ),
            ],
            vec![],
        );
        let mut t = Trace::new();
        t.record(q, Observation::NonEmpty);
        assert_eq!(t.facts().len(), 2);
        let e_in_events = &t.facts()[0].args[0];
        let e_in_att = &t.facts()[1].args[1];
        assert_eq!(e_in_events, e_in_att);
    }

    #[test]
    fn null_cells_contribute_nothing_definite() {
        let q = Cq::new(
            vec![Term::var("x")],
            vec![Atom::new("R", vec![Term::var("x")])],
            vec![],
        );
        let mut t = Trace::new();
        t.record(q, Observation::Rows(vec![vec![Value::Null]]));
        // The fact exists but with a Skolem, not a bogus NULL constant.
        assert_eq!(t.facts().len(), 1);
        assert!(matches!(t.facts()[0].args[0], Term::Var(_)));
    }

    #[test]
    fn facts_deduplicate() {
        let mut t = Trace::new();
        let q = Cq::new(
            vec![Term::int(1)],
            vec![Atom::new("R", vec![Term::int(5)])],
            vec![],
        );
        t.record(q.clone(), Observation::NonEmpty);
        t.record(q, Observation::NonEmpty);
        assert_eq!(t.facts().len(), 1);
    }

    #[test]
    fn comparisons_do_not_block_witnessing() {
        let q = Cq::new(
            vec![Term::int(1)],
            vec![Atom::new("R", vec![Term::var("x")])],
            vec![qlogic::Comparison::new(
                Term::var("x"),
                CmpOp::Ge,
                Term::int(10),
            )],
        );
        let mut t = Trace::new();
        t.record(q, Observation::NonEmpty);
        assert_eq!(t.facts().len(), 1);
    }

    #[test]
    fn version_changes_on_fact_pushes_and_removals_only() {
        let mut t = Trace::new();
        let v0 = t.version();
        t.record(q1(), Observation::Empty); // no facts
        assert_eq!(t.version(), v0);
        t.record(q1(), Observation::NonEmpty);
        let v1 = t.version();
        assert!(v1 > v0);
        // A second identical NonEmpty adds a fresh-Skolem fact (new version);
        // compaction then removes it (another version change) — the stamp
        // never repeats for a different fact set.
        t.record(q1(), Observation::NonEmpty);
        let v2 = t.version();
        assert!(v2 > v1);
        let dropped = t.compact();
        assert!(dropped > 0);
        assert!(t.version() > v2);
    }

    #[test]
    fn compact_drops_skolem_duplicates_but_keeps_information() {
        let mut t = Trace::new();
        t.record(q1(), Observation::NonEmpty);
        t.record(q1(), Observation::NonEmpty);
        t.record(q1(), Observation::NonEmpty);
        assert_eq!(t.facts().len(), 3, "each repeat mints a fresh Skolem");
        assert_eq!(t.len(), 3);
        let dropped = t.compact();
        assert_eq!(dropped, 4, "two duplicate entries + two implied facts");
        assert_eq!(t.facts().len(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn compact_keeps_facts_with_shared_skolems() {
        // A join witnesses two atoms sharing one Skolem: neither atom may be
        // dropped, because the other still references that labeled null.
        let q = Cq::new(
            vec![Term::var("t")],
            vec![
                Atom::new("Events", vec![Term::var("e"), Term::var("t")]),
                Atom::new(
                    "Attendance",
                    vec![Term::int(1), Term::var("e"), Term::var("n")],
                ),
            ],
            vec![],
        );
        let mut t = Trace::new();
        t.record(q, Observation::NonEmpty);
        assert_eq!(t.facts().len(), 2);
        assert_eq!(t.compact(), 0);
        assert_eq!(t.facts().len(), 2);
    }

    #[test]
    fn compact_absorbs_skolemized_fact_into_specific_row() {
        // NonEmpty first (Skolemized event id), then the concrete row: the
        // generic fact is implied by the specific one and gets dropped.
        let generic = Cq::new(
            vec![Term::int(1)],
            vec![Atom::new(
                "Attendance",
                vec![Term::int(1), Term::var("e"), Term::var("n")],
            )],
            vec![],
        );
        let specific = Cq::new(
            vec![Term::int(1)],
            vec![Atom::new(
                "Attendance",
                vec![Term::int(1), Term::int(2), Term::var("n")],
            )],
            vec![],
        );
        let mut t = Trace::new();
        t.record(generic, Observation::NonEmpty);
        t.record(specific, Observation::NonEmpty);
        assert_eq!(t.facts().len(), 2);
        assert!(t.compact() > 0);
        assert_eq!(t.facts().len(), 1);
        assert_eq!(t.facts()[0].args[1], Term::int(2), "specific fact stays");
    }
}
