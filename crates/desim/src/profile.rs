//! Virtual-time profiler and critical-path analyzer over span
//! snapshots.
//!
//! Both consumers are pure functions of a [`SpanSnapshot`]: run them on
//! the same snapshot and the rendered tables are byte-identical, which
//! is what the CI determinism lanes diff. All arithmetic is integer
//! nanoseconds — no floats are formatted anywhere.
//!
//! - [`Profile`] answers *where did the virtual seconds go*: completed
//!   span time bucketed per `(track, lane)` into virtual CPU
//!   ([`Category::Sched`]), network wait ([`Category::Net`] /
//!   [`Category::Vsock`]), collective wait ([`Category::Mpi`]), and
//!   other; plus a top-down per-operation attribution table in the
//!   style of an HPC profiler.
//! - [`CriticalPath`] answers *which chain made the run late*: the
//!   longest dependency chain through the span/flow DAG, where a span
//!   depends on its lane predecessor (program order), on flow producers
//!   (message send → receive, collective rendezvous), and on its parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::Category;
use crate::span::{SpanId, SpanSnapshot};

/// Format integer nanoseconds as milliseconds with microsecond
/// precision (`"12.345"`), byte-stable by construction.
pub fn fmt_ms(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000_000, (ns / 1_000) % 1_000)
}

/// Per-`(track, lane)` virtual-time buckets, in nanoseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaneRow {
    /// Virtual host row.
    pub track: String,
    /// Process/daemon row within the track.
    pub lane: String,
    /// Virtual CPU time ([`Category::Sched`] spans).
    pub cpu_ns: u64,
    /// Network wait ([`Category::Net`] and [`Category::Vsock`] spans).
    pub net_ns: u64,
    /// Collective/barrier wait ([`Category::Mpi`] spans).
    pub coll_ns: u64,
    /// Everything else.
    pub other_ns: u64,
}

impl LaneRow {
    /// Sum of all buckets.
    pub fn total_ns(&self) -> u64 {
        self.cpu_ns + self.net_ns + self.coll_ns + self.other_ns
    }
}

/// Per-operation attribution row (grouped by category + span name).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRow {
    /// Span category.
    pub cat: Category,
    /// Span name.
    pub name: &'static str,
    /// Number of completed spans.
    pub count: u64,
    /// Total virtual time across them, nanoseconds.
    pub total_ns: u64,
}

/// Deterministic virtual-time attribution over one span snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Per-lane bucket rows, sorted by `(track, lane)`.
    pub lanes: Vec<LaneRow>,
    /// Per-operation rows, sorted by total time descending (ties by
    /// category then name).
    pub ops: Vec<OpRow>,
    /// Grand total of completed span time, nanoseconds.
    pub total_ns: u64,
}

impl Profile {
    /// Build the attribution tables from a snapshot. Open spans (no
    /// `end`) and marks contribute nothing.
    pub fn from_snapshot(snap: &SpanSnapshot) -> Profile {
        let mut lanes: BTreeMap<(String, String), LaneRow> = BTreeMap::new();
        let mut ops: BTreeMap<(Category, &'static str), OpRow> = BTreeMap::new();
        let mut total = 0u64;
        for s in &snap.spans {
            if s.end.is_none() || s.mark {
                continue;
            }
            let d = s.dur_ns();
            total += d;
            let row = lanes
                .entry((s.track.to_string(), s.lane.to_string()))
                .or_insert_with(|| LaneRow {
                    track: s.track.to_string(),
                    lane: s.lane.to_string(),
                    ..LaneRow::default()
                });
            match s.cat {
                Category::Sched => row.cpu_ns += d,
                Category::Net | Category::Vsock => row.net_ns += d,
                Category::Mpi => row.coll_ns += d,
                Category::Mem | Category::Fault => row.other_ns += d,
            }
            let op = ops.entry((s.cat, s.name)).or_insert_with(|| OpRow {
                cat: s.cat,
                name: s.name,
                count: 0,
                total_ns: 0,
            });
            op.count += 1;
            op.total_ns += d;
        }
        let mut ops: Vec<OpRow> = ops.into_values().collect();
        ops.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then(a.cat.cmp(&b.cat))
                .then(a.name.cmp(b.name))
        });
        Profile {
            lanes: lanes.into_values().collect(),
            ops,
            total_ns: total,
        }
    }

    /// Render both tables as an indented text block (byte-stable).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if self.total_ns == 0 {
            out.push_str("  (no completed spans)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>12} {:>12} {:>12} {:>12}",
            "track/lane", "cpu(ms)", "net(ms)", "coll(ms)", "total(ms)"
        );
        for r in &self.lanes {
            let _ = writeln!(
                out,
                "  {:<28} {:>12} {:>12} {:>12} {:>12}",
                format!("{}/{}", r.track, r.lane),
                fmt_ms(r.cpu_ns),
                fmt_ms(r.net_ns),
                fmt_ms(r.coll_ns),
                fmt_ms(r.total_ns()),
            );
        }
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>7}",
            "operation", "count", "total(ms)", "share"
        );
        for op in &self.ops {
            // Integer permille of the grand total, rendered as "42.7%".
            let p = (op.total_ns as u128 * 1000 / self.total_ns as u128) as u64;
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12} {:>6}.{}%",
                format!("{}.{}", op.cat.name(), op.name),
                op.count,
                fmt_ms(op.total_ns),
                p / 10,
                p % 10,
            );
        }
        out
    }
}

/// One hop on the critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hop {
    /// The span at this hop.
    pub id: SpanId,
    /// Virtual host row.
    pub track: String,
    /// Process/daemon row.
    pub lane: String,
    /// Span name.
    pub name: &'static str,
    /// Span detail.
    pub detail: String,
    /// Span begin, nanoseconds.
    pub begin_ns: u64,
    /// This hop's contribution to the path total, nanoseconds. Hop
    /// contributions always sum to [`CriticalPath::total_ns`]; a send
    /// span entered mid-flight (its ack tail is off the causal path)
    /// can contribute less than its own duration.
    pub contrib_ns: u64,
    /// How this hop depends on the previous one: `"start"` for the
    /// first hop, then `"flow"`, `"lane"`, or `"parent"`.
    pub via: &'static str,
    /// Number of consecutive same-operation spans coalesced into this
    /// hop. A saturated lane (say, back-to-back scheduler quanta on the
    /// busiest host) collapses to one row with the repeat count instead
    /// of hundreds of identical rows; `id`, `begin_ns`, and `detail`
    /// are the first span's, `contrib_ns` is the group total.
    pub count: u64,
}

/// The longest dependency chain through a span/flow DAG.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Hops, chain start first.
    pub hops: Vec<Hop>,
    /// Sum of hop durations, nanoseconds.
    pub total_ns: u64,
}

/// Compute the critical path of a snapshot.
///
/// Only completed spans participate — marks never do — and
/// [`Category::Sched`] spans are
/// left out of the DAG entirely: scheduler quanta are the rate
/// controller's wall slices, granted whether or not the process makes
/// progress, so a quantum lane is saturated end-to-end by construction
/// and would mask the application-level dependency chain (quanta still
/// count in [`Profile`] and render in the Perfetto export). The
/// analyzer builds a DAG over the remaining span *boundary points* —
/// two nodes per span, its begin and its end — with four edge kinds:
///
/// - **work** `begin(s) → end(s)`, weight `dur(s)`: the span's own
///   elapsed virtual time — except for spans that consume a resolved
///   flow (a receive, a root collective), whose weight is 0: their
///   completion is *caused* by the producer's message, so a blocked
///   receiver's wait must ride the flow edge, not masquerade as local
///   progress (otherwise a rank that waits its whole life forms a
///   saturated lane chain that drowns out the real cross-host path);
/// - **lane** `end(p) → begin(s)`, weight 0, where `p` is the latest
///   span on `s`'s `(track, lane)` ending at or before `s` begins
///   (program order; the idle gap between them is slack, not cost);
/// - **parent** `begin(p) → begin(s)`, weight 0, for `s`'s parent link;
/// - **flow** `begin(a) → end(s)`, weight `end(s) − begin(a)`, for a
///   resolved [`crate::span::FlowEdge`] `a → s`: the transfer occupies
///   the wall interval from the producer *starting* to the consumer
///   *unblocking*. Anchoring at the producer's begin keeps the graph
///   acyclic even though a send span's ack tail outlives the receive.
///
/// The longest path to any end node is the critical path. All
/// tie-breaks are deterministic: higher cost first, then edge kind
/// (flow, work, lane, parent), then smaller span id.
pub fn critical_path(snap: &SpanSnapshot) -> CriticalPath {
    // Completed non-scheduler spans (no marks), indexed into `snap.spans`.
    let comp: Vec<usize> = (0..snap.spans.len())
        .filter(|&i| {
            let s = &snap.spans[i];
            s.end.is_some() && !s.mark && s.cat != Category::Sched
        })
        .collect();
    if comp.is_empty() {
        return CriticalPath::default();
    }
    let n = comp.len();
    // Map a span id to its `comp` index.
    let mut comp_of: BTreeMap<SpanId, usize> = BTreeMap::new();
    for (c, &i) in comp.iter().enumerate() {
        comp_of.insert(snap.spans[i].id, c);
    }
    let begin_ns = |c: usize| snap.spans[comp[c]].begin.as_nanos();
    let end_ns = |c: usize| snap.spans[comp[c]].end.unwrap().as_nanos();
    let span_id = |c: usize| snap.spans[comp[c]].id;

    // Lane predecessor per comp index: latest span on the same
    // (track, lane) with end <= begin; an equal-instant predecessor
    // must have the smaller id (same-instant causality follows
    // creation order, which also keeps the node graph acyclic).
    let mut by_lane: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (c, &ci) in comp.iter().enumerate() {
        let s = &snap.spans[ci];
        by_lane
            .entry((s.track.as_ref(), s.lane.as_ref()))
            .or_default()
            .push(c);
    }
    for lane in by_lane.values_mut() {
        lane.sort_by_key(|&c| (end_ns(c), span_id(c)));
    }
    let mut lane_pred: Vec<Option<usize>> = vec![None; n];
    for c in 0..n {
        let s = &snap.spans[comp[c]];
        let lane = &by_lane[&(s.track.as_ref(), s.lane.as_ref())];
        let cut = lane.partition_point(|&p| end_ns(p) <= begin_ns(c));
        for &p in lane[..cut].iter().rev() {
            let ok = p != c && (end_ns(p) < begin_ns(c) || span_id(p) < span_id(c));
            if ok {
                lane_pred[c] = Some(p);
                break;
            }
        }
    }
    // Flow producers per consumer comp index.
    let mut flows_to: Vec<Vec<usize>> = vec![Vec::new(); n];
    for f in &snap.flows {
        if let (Some(&a), Some(&b)) = (comp_of.get(&f.from), comp_of.get(&f.to)) {
            if begin_ns(a) < end_ns(b) || (begin_ns(a) == end_ns(b) && span_id(a) < span_id(b)) {
                flows_to[b].push(a);
            }
        }
    }

    // Node c*2 is span c's begin, c*2+1 its end. Topological order:
    // (time, span id, begin-before-end); every edge above respects it.
    let node_time = |v: usize| {
        if v.is_multiple_of(2) {
            begin_ns(v / 2)
        } else {
            end_ns(v / 2)
        }
    };
    let mut order: Vec<usize> = (0..2 * n).collect();
    order.sort_by_key(|&v| (node_time(v), span_id(v / 2), v % 2));
    let mut pos: Vec<usize> = vec![0; 2 * n];
    for (p, &v) in order.iter().enumerate() {
        pos[v] = p;
    }

    // Longest-path DP. `via` is the kind of the chosen in-edge.
    let mut cost: Vec<u64> = vec![0; 2 * n];
    let mut pred: Vec<Option<usize>> = vec![None; 2 * n];
    let mut via: Vec<&'static str> = vec!["start"; 2 * n];
    const PRIO: [&str; 4] = ["flow", "work", "lane", "parent"];
    let prio = |k: &str| PRIO.iter().position(|p| *p == k).unwrap() as u8;
    for &v in &order {
        let c = v / 2;
        // (candidate pred node, kind, weight)
        let mut cands: Vec<(usize, &'static str, u64)> = Vec::new();
        if v % 2 == 0 {
            if let Some(p) = lane_pred[c] {
                cands.push((p * 2 + 1, "lane", 0));
            }
            if let Some(pid) = snap.spans[comp[c]].parent {
                if let Some(&p) = comp_of.get(&pid) {
                    cands.push((p * 2, "parent", 0));
                }
            }
        } else {
            // A flow consumer's end is caused by the message, not by
            // local elapsed time: zero-weight work edge (see above).
            let work_w = if flows_to[c].is_empty() {
                end_ns(c) - begin_ns(c)
            } else {
                0
            };
            cands.push((v - 1, "work", work_w));
            for &a in &flows_to[c] {
                cands.push((a * 2, "flow", end_ns(c) - begin_ns(a)));
            }
        }
        for (u, kind, w) in cands {
            if pos[u] >= pos[v] {
                continue; // defensive: ignore any order-violating edge
            }
            let cand_cost = cost[u] + w;
            // Max cost, then edge-kind priority, then smaller span id.
            let better = match pred[v] {
                None => true,
                Some(p) => {
                    let cur = (
                        cost[v],
                        std::cmp::Reverse(prio(via[v])),
                        std::cmp::Reverse(span_id(p / 2)),
                    );
                    (
                        cand_cost,
                        std::cmp::Reverse(prio(kind)),
                        std::cmp::Reverse(span_id(u / 2)),
                    ) > cur
                }
            };
            if better {
                cost[v] = cand_cost;
                pred[v] = Some(u);
                via[v] = kind;
            }
        }
    }

    // Terminus: the costliest end node, ties to the smaller span id.
    let mut term = 1usize;
    for c in 0..n {
        let v = c * 2 + 1;
        if cost[v] > cost[term] || (cost[v] == cost[term] && span_id(c) < span_id(term / 2)) {
            term = v;
        }
    }
    let total = cost[term];

    // Walk back, then group consecutive nodes of one span into a hop.
    let mut nodes = Vec::new();
    let mut cur = Some(term);
    while let Some(v) = cur {
        nodes.push(v);
        cur = pred[v];
    }
    nodes.reverse();
    let mut hops: Vec<Hop> = Vec::new();
    let mut entry_cost = 0u64;
    let mut entry_via: &'static str = "start";
    for (k, &v) in nodes.iter().enumerate() {
        let c = v / 2;
        let first_of_span = k == 0 || nodes[k - 1] / 2 != c;
        if first_of_span {
            entry_via = via[v];
            entry_cost = pred[v].map_or(0, |u| cost[u]);
        }
        let last_of_span = k + 1 == nodes.len() || nodes[k + 1] / 2 != c;
        if last_of_span {
            let s = &snap.spans[comp[c]];
            let via = if hops.is_empty() { "start" } else { entry_via };
            let contrib = cost[v] - entry_cost;
            // Coalesce a lane-chained run of the same operation into one
            // hop with a repeat count.
            match hops.last_mut() {
                Some(prev)
                    if via == "lane"
                        && prev.track == *s.track
                        && prev.lane == *s.lane
                        && prev.name == s.name =>
                {
                    prev.contrib_ns += contrib;
                    prev.count += 1;
                }
                _ => hops.push(Hop {
                    id: s.id,
                    track: s.track.to_string(),
                    lane: s.lane.to_string(),
                    name: s.name,
                    detail: s.detail.to_string(),
                    begin_ns: s.begin.as_nanos(),
                    contrib_ns: contrib,
                    via,
                    count: 1,
                }),
            }
        }
    }
    CriticalPath {
        hops,
        total_ns: total,
    }
}

impl CriticalPath {
    /// Render the chain as an indented text block (byte-stable).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if self.hops.is_empty() {
            out.push_str("  (no completed spans)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "  {} hops, {} ms on the path",
            self.hops.len(),
            fmt_ms(self.total_ns)
        );
        let _ = writeln!(
            out,
            "  {:>4} {:>12} {:>12} {:<7} span",
            "#", "begin(ms)", "contrib(ms)", "via"
        );
        for (i, h) in self.hops.iter().enumerate() {
            let mut where_ = format!("{}/{} {}", h.track, h.lane, h.name);
            if h.count > 1 {
                let _ = write!(where_, " x{}", h.count);
            } else if !h.detail.is_empty() {
                let _ = write!(where_, " [{}]", h.detail);
            }
            let _ = writeln!(
                out,
                "  {:>4} {:>12} {:>12} {:<7} {}",
                i + 1,
                fmt_ms(h.begin_ns),
                fmt_ms(h.contrib_ns),
                h.via,
                where_,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanStore;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Two hosts: h0 computes (0..100), sends a message (100..120)
    /// received by h1 (wait 80..120), which then computes (120..300).
    fn two_host_snapshot() -> SpanSnapshot {
        let st = SpanStore::new();
        st.set_enabled(true);
        let c0 = st.begin(
            t(0),
            None,
            Category::Sched,
            "quantum",
            "h0",
            "p0",
            String::new(),
        );
        st.end(t(100), c0);
        let rx = st.begin(
            t(80),
            None,
            Category::Vsock,
            "vsock_recv",
            "h1",
            "p1",
            String::new(),
        );
        let tx = st.begin(
            t(100),
            None,
            Category::Vsock,
            "vsock_send",
            "h0",
            "p0",
            String::new(),
        );
        st.end(t(120), tx);
        st.flow_out("msg", "h0", "h1", tx);
        st.flow_in("msg", "h0", "h1", rx);
        st.end(t(120), rx);
        let c1 = st.begin(
            t(120),
            None,
            Category::Sched,
            "quantum",
            "h1",
            "p1",
            String::new(),
        );
        st.end(t(300), c1);
        st.snapshot()
    }

    #[test]
    fn profile_buckets_by_category_and_sorts_ops() {
        let p = Profile::from_snapshot(&two_host_snapshot());
        assert_eq!(p.lanes.len(), 2);
        assert_eq!(p.lanes[0].track, "h0");
        assert_eq!(p.lanes[0].cpu_ns, 100);
        assert_eq!(p.lanes[0].net_ns, 20);
        assert_eq!(p.lanes[1].cpu_ns, 180);
        assert_eq!(p.lanes[1].net_ns, 40);
        assert_eq!(p.total_ns, 340);
        assert_eq!(p.ops[0].name, "quantum"); // 280 ns dominates
        assert_eq!(p.ops[0].count, 2);
        // Rendering twice is byte-identical.
        assert_eq!(
            p.to_table(),
            Profile::from_snapshot(&two_host_snapshot()).to_table()
        );
    }

    #[test]
    fn critical_path_crosses_the_flow_edge() {
        let cp = critical_path(&two_host_snapshot());
        let hops: Vec<_> = cp
            .hops
            .iter()
            .map(|h| (h.name, h.via, h.contrib_ns))
            .collect();
        // Scheduler quanta stay out of the DAG; the path is the message
        // dependency: the send starts the transfer, the flow edge covers
        // send begin → recv end (the receiver's wait rides the flow, not
        // its own zero-weight work edge).
        assert_eq!(
            hops,
            vec![("vsock_send", "start", 0), ("vsock_recv", "flow", 20)]
        );
        assert_eq!(cp.total_ns, 20);
        assert_eq!(
            cp.hops.iter().map(|h| h.contrib_ns).sum::<u64>(),
            cp.total_ns
        );
        assert_eq!(
            cp.to_table(),
            critical_path(&two_host_snapshot()).to_table()
        );
    }

    #[test]
    fn critical_path_without_flows_is_the_longest_lane_chain() {
        let st = SpanStore::new();
        st.set_enabled(true);
        // Lane A: 10 + 10 with an idle gap; lane B: one 25-ns span.
        // B wins — the gap is slack, not cost.
        for (b, e) in [(0u64, 10u64), (20, 30)] {
            let id = st.begin(
                t(b),
                None,
                Category::Vsock,
                "vsock_send",
                "a",
                "p",
                String::new(),
            );
            st.end(t(e), id);
        }
        let id = st.begin(
            t(5),
            None,
            Category::Vsock,
            "vsock_send",
            "b",
            "p",
            String::new(),
        );
        st.end(t(30), id);
        let cp = critical_path(&st.snapshot());
        assert_eq!(cp.total_ns, 25);
        assert_eq!(cp.hops.len(), 1);
        assert_eq!(cp.hops[0].track, "b");
        assert_eq!(cp.hops[0].count, 1);
    }

    #[test]
    fn consecutive_lane_hops_coalesce_with_a_count() {
        let st = SpanStore::new();
        st.set_enabled(true);
        for (b, e) in [(0u64, 10u64), (10, 20), (20, 35)] {
            let id = st.begin(
                t(b),
                None,
                Category::Vsock,
                "vsock_send",
                "a",
                "p",
                String::new(),
            );
            st.end(t(e), id);
        }
        let cp = critical_path(&st.snapshot());
        assert_eq!(cp.total_ns, 35);
        assert_eq!(cp.hops.len(), 1);
        assert_eq!(cp.hops[0].count, 3);
        assert_eq!(cp.hops[0].contrib_ns, 35);
        assert!(cp.to_table().contains("vsock_send x3"));
    }

    #[test]
    fn marks_change_neither_profile_nor_critical_path() {
        // Two back-to-back allreduce spans on rank0 coalesce into one
        // "x2" hop; a mark between them on the same lane must not split
        // the hop, add a profile row, or shift any total.
        let snap = |with_mark: bool| {
            let st = SpanStore::new();
            st.set_enabled(true);
            for (b, e) in [(0u64, 10u64), (10, 25)] {
                if with_mark && b == 10 {
                    st.mark(t(10), Category::Mpi, "rank_timeout", "h0", "rank0", "");
                }
                let id = st.begin(t(b), None, Category::Mpi, "allreduce", "h0", "rank0", "x4");
                st.end(t(e), id);
            }
            st.snapshot()
        };
        let (plain, marked) = (snap(false), snap(true));
        assert_eq!(marked.spans.len(), 3);
        assert_eq!(
            Profile::from_snapshot(&marked).to_table(),
            Profile::from_snapshot(&plain).to_table()
        );
        let cp = critical_path(&marked).to_table();
        assert_eq!(cp, critical_path(&plain).to_table());
        assert!(cp.contains("allreduce x2"), "{cp}");
    }

    #[test]
    fn empty_snapshot_yields_empty_outputs() {
        let snap = SpanSnapshot::default();
        assert_eq!(Profile::from_snapshot(&snap).total_ns, 0);
        assert!(critical_path(&snap).hops.is_empty());
        assert!(Profile::from_snapshot(&snap)
            .to_table()
            .contains("no completed spans"));
    }
}
