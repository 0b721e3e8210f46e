//! The traced run's per-layer split, measured from outside the program:
//! deltas of the proxy's own counters and phase histograms (every phase
//! mean and share), its decision journal polled during the window (only
//! what needs per-event data: proof and exec p99s, span counters), and the
//! client's timings.

use bep_core::{
    EventJournal, JournalCursor, LatencySnapshot, Phase, ProxyStats, SqlProxy, PHASE_COUNT,
};

use crate::drive::Tally;
use crate::stats::{percentile, ratio, LayerSplit};

/// Point-in-time proxy counters.
pub struct Counters {
    /// Decision and cache counters.
    pub stats: ProxyStats,
    /// Per-phase latency histograms.
    pub phases: [LatencySnapshot; PHASE_COUNT],
    /// Lifetime plan-cache evictions.
    pub plan_evictions: u64,
}

impl Counters {
    /// Reads the proxy's counters (exact while it is quiescent).
    pub fn read(proxy: &SqlProxy) -> Counters {
        Counters {
            stats: proxy.stats(),
            phases: proxy.phase_snapshots(),
            plan_evictions: proxy.cache_eviction_counts()[0].1,
        }
    }

    /// Statements the proxy decided: allowed reads, executed writes, and
    /// everything blocked.
    pub fn decided(&self) -> u64 {
        self.stats.allowed + self.stats.blocked + self.stats.writes
    }
}

/// Decision events drained from the journal during the window.
pub struct JournalTally {
    cursor: JournalCursor,
    /// Events delivered.
    pub events: u64,
    /// Proof time of each decision that ran a proof.
    pub proof_ns: Vec<u64>,
    /// Execution time of each decision that ran the statement.
    pub exec_ns: Vec<u64>,
    /// Homomorphism-search candidate visits.
    pub hom_nodes: u64,
    /// MiniCon enumeration steps.
    pub rewrite_iterations: u64,
    /// Containment checks.
    pub containment_checks: u64,
    /// Disjuncts decided by replaying a certificate.
    pub cert_replays: u64,
    /// Disjuncts that fell back to the rewriting search.
    pub cert_fallbacks: u64,
}

impl JournalTally {
    /// Starts collecting at the journal's current head.
    pub fn starting_now(journal: &EventJournal) -> JournalTally {
        JournalTally {
            cursor: JournalCursor::starting_at(journal.published()),
            events: 0,
            proof_ns: Vec::new(),
            exec_ns: Vec::new(),
            hom_nodes: 0,
            rewrite_iterations: 0,
            containment_checks: 0,
            cert_replays: 0,
            cert_fallbacks: 0,
        }
    }

    /// Drains every event published since the last poll.
    pub fn poll(&mut self, journal: &EventJournal) {
        for ev in journal.poll(&mut self.cursor, usize::MAX) {
            self.events += 1;
            for (phase, samples) in [
                (Phase::Proof, &mut self.proof_ns),
                (Phase::DbExec, &mut self.exec_ns),
            ] {
                if ev.phase(phase) > 0 {
                    samples.push(ev.phase(phase));
                }
            }
            self.hom_nodes += u64::from(ev.span.hom_nodes);
            self.rewrite_iterations += u64::from(ev.span.rewrite_iterations);
            self.containment_checks += u64::from(ev.span.containment_checks);
            self.cert_replays += u64::from(ev.span.cert_replays);
            self.cert_fallbacks += u64::from(ev.span.cert_fallbacks);
        }
    }

    /// Events the ring evicted before a poll reached them.
    pub fn dropped(&self) -> u64 {
        self.cursor.dropped()
    }
}

/// Everything the per-layer metrics are computed from.
pub struct TracedWindow<'a> {
    /// What the clients observed.
    pub tally: &'a Tally,
    /// Proxy counters before and after the window.
    pub before: &'a Counters,
    /// See `before`.
    pub after: &'a Counters,
    /// The drained journal.
    pub journal: &'a JournalTally,
    /// `component_heap_bytes()` at the end.
    pub heap: [(&'static str, usize); 4],
    /// Statements per second of the traced window, at the reference host
    /// speed.
    pub traced_stmts_per_s: f64,
    /// Statements per second of the untraced window in the same process,
    /// at the reference host speed.
    pub plain_stmts_per_s: f64,
}

impl TracedWindow<'_> {
    fn phase_sum_ns(&self, phase: Phase) -> u64 {
        let i = phase as usize;
        self.after.phases[i].sum_ns - self.before.phases[i].sum_ns
    }

    /// The layer split, as per-statement means in µs.
    pub fn split(&self) -> LayerSplit {
        let stmts = self.tally.statements() as f64;
        let lat = |c: &Counters| c.stats.latency.sum_ns;
        let phases_ns: u64 = Phase::ALL.iter().map(|p| self.phase_sum_ns(*p)).sum();
        LayerSplit {
            rtt_us: ratio(self.tally.lat_ns.iter().sum::<u64>() as f64 / 1e3, stmts),
            core_us: ratio((lat(self.after) - lat(self.before)) as f64 / 1e3, stmts),
            phases_us: ratio(phases_ns as f64 / 1e3, stmts),
        }
    }

    /// Every per-layer metric, in `PER_LAYER` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let t = self.tally;
        let stmts = t.statements() as f64;
        let kstmts = stmts / 1e3;
        let (s0, s1) = (&self.before.stats, &self.after.stats);
        let delta = |f: fn(&ProxyStats) -> u64| (f(s1) - f(s0)) as f64;
        let decided = (self.after.decided() - self.before.decided()) as f64;
        let per_stmt_us = |phase: Phase| ratio(self.phase_sum_ns(phase) as f64 / 1e3, stmts);
        let split = self.split();
        let core_ns = split.core_us * stmts * 1e3;
        let j = self.journal;
        let mut proof = j.proof_ns.clone();
        proof.sort_unstable();
        let mut exec = j.exec_ns.clone();
        exec.sort_unstable();
        let mut lat = t.lat_ns.clone();
        lat.sort_unstable();
        let mut writes = t.write_lat_ns.clone();
        writes.sort_unstable();
        let heap_kb = |name: &str| {
            let bytes = self
                .heap
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |h| h.1);
            bytes as f64 / 1024.0
        };
        vec![
            ("server.rtt_us", split.rtt_us),
            ("server.stmt_p99_us", percentile(&lat, 99.0) as f64 / 1e3),
            (
                "server.write_p99_us",
                percentile(&writes, 99.0) as f64 / 1e3,
            ),
            ("server.outside_core_us", split.outside_core_us()),
            ("server.codec_us", ratio(t.codec_ns as f64 / 1e3, stmts)),
            ("server.resp_bytes", ratio(t.resp_bytes as f64, stmts)),
            ("core.execute_us", split.core_us),
            ("core.unattributed_us", split.unattributed_us()),
            (
                "core.template_lookup_us",
                per_stmt_us(Phase::TemplateLookup),
            ),
            (
                "core.concrete_lookup_us",
                per_stmt_us(Phase::ConcreteLookup),
            ),
            ("core.trace_record_us", per_stmt_us(Phase::TraceRecord)),
            (
                "core.trace_record_share",
                ratio(self.phase_sum_ns(Phase::TraceRecord) as f64, core_ns),
            ),
            (
                "core.trace_facts",
                ratio(t.trace_facts as f64, t.sessions_ended as f64),
            ),
            (
                "core.template_hit_ratio",
                ratio(delta(|s| s.template_cache_hits), decided),
            ),
            (
                "core.negative_hit_ratio",
                ratio(delta(|s| s.template_negative_hits), decided),
            ),
            (
                "core.session_hit_ratio",
                ratio(delta(|s| s.session_cache_hits), decided),
            ),
            (
                "core.template_proofs_per_kstmt",
                ratio(delta(|s| s.template_proofs), kstmts),
            ),
            (
                "core.concrete_proofs_per_kstmt",
                ratio(delta(|s| s.concrete_proofs), kstmts),
            ),
            (
                "core.plan_evictions_per_kstmt",
                ratio(
                    (self.after.plan_evictions - self.before.plan_evictions) as f64,
                    kstmts,
                ),
            ),
            (
                "core.write_allowed_per_kstmt",
                ratio(delta(|s| s.write_allowed), kstmts),
            ),
            (
                "core.write_blocked_per_kstmt",
                ratio(delta(|s| s.write_blocked), kstmts),
            ),
            ("core.mem.plan_cache_kb", heap_kb("plan-cache")),
            ("core.mem.session_state_kb", heap_kb("session-state")),
            ("core.mem.journal_kb", heap_kb("journal")),
            ("sqlir.parse_us", per_stmt_us(Phase::Parse)),
            ("qlogic.proof_us", per_stmt_us(Phase::Proof)),
            ("qlogic.proof_p99_us", percentile(&proof, 99.0) as f64 / 1e3),
            (
                "qlogic.hom_nodes_per_stmt",
                ratio(j.hom_nodes as f64, stmts),
            ),
            (
                "qlogic.rewrite_iterations_per_stmt",
                ratio(j.rewrite_iterations as f64, stmts),
            ),
            (
                "qlogic.containment_checks_per_stmt",
                ratio(j.containment_checks as f64, stmts),
            ),
            (
                "qlogic.cert_fallback_ratio",
                ratio(
                    j.cert_fallbacks as f64,
                    (j.cert_replays + j.cert_fallbacks) as f64,
                ),
            ),
            ("minidb.exec_us", per_stmt_us(Phase::DbExec)),
            ("minidb.exec_p99_us", percentile(&exec, 99.0) as f64 / 1e3),
            (
                "minidb.exec_share",
                ratio(self.phase_sum_ns(Phase::DbExec) as f64, core_ns),
            ),
            ("minidb.rows_per_stmt", ratio(t.rows as f64, stmts)),
            (
                "client.self_us",
                ratio(
                    (t.busy_ns - t.wire_ns - t.probe_ns) as f64 / 1e3 - t.speed.spent_s() * 1e6,
                    stmts,
                ),
            ),
            (
                "trace.overhead_frac",
                1.0 - ratio(self.traced_stmts_per_s, self.plain_stmts_per_s),
            ),
        ]
    }

    /// Each phase's share of in-proxy time, largest first.
    pub fn phase_shares(&self) -> Vec<(&'static str, f64)> {
        let total: u64 = Phase::ALL.iter().map(|p| self.phase_sum_ns(*p)).sum();
        let mut shares: Vec<_> = Phase::ALL
            .iter()
            .map(|p| (p.label(), ratio(self.phase_sum_ns(*p) as f64, total as f64)))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }
}
