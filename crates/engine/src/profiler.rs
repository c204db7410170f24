//! Execution profiling.
//!
//! The paper's run-time environment includes "a profiler \[that\] gathers
//! performance data on an executed operator basis ... the profiled data
//! consists of operator's execution time, memory claims, and thread
//! affiliation id" (§2). Adaptive parallelization is driven purely by this
//! feedback, and the multi-core-utilization analysis (Figs. 19/20, Table 5)
//! is read straight off it, so the profile captures:
//!
//! * per task that ran an operator ([`TaskRecord`]): its range, its start,
//!   its time and its worker — the thread affiliation, per task since an
//!   operator with cuts runs as several. Each [`OperatorProfile`] number is
//!   folded from its records when its step publishes; memory claims are not
//!   recorded;
//! * per query: wall-clock time, worker-pool size, and the derived metrics
//!   *parallelism usage* (aggregate busy time / (wall time × workers)) and
//!   *multi-core utilization* (distinct workers used / workers available).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

use apq_columnar::partition::RowRange;

use crate::plan::NodeId;

/// Profile of one executed operator.
#[derive(Debug, Clone)]
pub struct OperatorProfile {
    /// Plan node id.
    pub node: NodeId,
    /// Operator family name (`select`, `join`, `fetch`, ...).
    pub name: &'static str,
    /// Start of execution, microseconds since the query started: the
    /// earliest start of its tasks ([`TaskRecord::start_us`]).
    pub start_us: u64,
    /// When its output was published, microseconds since the query
    /// started: after its last task. Its consumers start no earlier.
    pub end_us: u64,
    /// Execution time in microseconds — *CPU time*, not elapsed time: the
    /// sum of its tasks' times ([`TaskRecord::us`]), plus, on a step's
    /// terminal, the time its tasks spent folding their outputs and the
    /// publish. Tasks run concurrently, so for an operator with several the
    /// sum may exceed the query's wall time. Its bound is
    /// `wall × n_workers`.
    pub duration_us: u64,
    /// Time the operator spent queued between becoming runnable (all inputs
    /// materialized) and starting execution, in microseconds. Separates
    /// "operator was slow" from "operator sat in the queue".
    pub queue_wait_us: u64,
    /// Index of the worker thread that published the operator's output:
    /// for a whole-node step the one that executed it, for a cut or fused
    /// stage the one that ran the step's last task and published it. The
    /// workers that ran each task are in [`TaskRecord::worker`].
    pub worker: usize,
    /// Rows in the operator's output: the published list's on a step's
    /// terminal, the rows the next stage streamed on a fused stage.
    pub rows_out: usize,
    /// One entry per task that ran the operator, in stream order. A
    /// whole-node operator has one entry over its whole stream; a stage of a
    /// streaming step has one per range of its step.
    pub tasks: Vec<TaskRecord>,
    /// The streaming step the operator ran in, named by the step's terminal
    /// node: its own id for the terminal, the same id for every stage fused
    /// before it. `None` for a whole-node step.
    pub step: Option<NodeId>,
}

/// One task's run of one operator ([`OperatorProfile::tasks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRecord {
    /// The range of the operator's own stream the task covered, fused or
    /// not.
    pub range: RowRange,
    /// When the task began the operator, in µs since the query started.
    pub start_us: u64,
    /// The task's time in the operator, in µs (the terminal's with the
    /// injected delay).
    pub us: u64,
    /// Index of the worker thread that ran the task.
    pub worker: usize,
}

/// Which lifecycle step produced a [`DopEvent`].
///
/// The reservation phases ([`DopPhase::Reserve`], [`DopPhase::Submit`])
/// only appear for queries admitted through the unified census path
/// ([`crate::Engine::reserve_admitted`] / the service layer in
/// [`crate::service`]): a reservation enters the census at
/// *issue* time, so its grant and the gap until submission are both
/// visible in the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DopPhase {
    /// Admit-time grant of a directly registered query
    /// ([`crate::Engine::register_query`]); always at offset 0.
    Admit,
    /// Admit-time grant of a *reservation*: the query is census-visible
    /// but not yet submitted; always at offset 0.
    Reserve,
    /// A reserved query began executing (`execute_with_handle` on the
    /// reservation's handle). Records the grant in force at submission —
    /// the `at_us` gap from the `Reserve` event is the reservation-held
    /// window.
    Submit,
    /// Mid-flight re-grant or claw-back via
    /// [`crate::QueryHandle::set_admitted_dop`] — made by the client, or by
    /// the engine when the census of [`crate::Engine::reserve_admitted`]
    /// reservations gains or loses a member.
    Regrant,
}

/// One point of a query's admitted-DOP timeline: the degree of parallelism
/// granted at a moment of the query's life. The first event (offset 0) is
/// the admit-time grant ([`DopPhase::Admit`] or [`DopPhase::Reserve`]);
/// later events are submissions of reservations ([`DopPhase::Submit`]) and
/// mid-flight re-grants/claw-backs ([`DopPhase::Regrant`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DopEvent {
    /// Microseconds since the query handle was created.
    pub at_us: u64,
    /// The admitted degree of parallelism from this point on (`0` =
    /// unlimited).
    pub dop: usize,
    /// Which lifecycle step recorded this event.
    pub phase: DopPhase,
}

/// Profile of one executed query.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// End-to-end wall-clock time of the query.
    pub wall_time: Duration,
    /// Size of the worker pool that executed the query.
    pub n_workers: usize,
    /// Per-operator profiles (every executed node appears exactly once).
    pub operators: Vec<OperatorProfile>,
    /// Admitted-DOP history of the query: the admit-time grant plus every
    /// mid-flight re-grant/claw-back, in order (never empty for executed
    /// queries). A strictly increasing `dop` after the first entry is the
    /// signature of re-granting (peers left the census and the query's
    /// share widened).
    pub dop_timeline: Vec<DopEvent>,
}

impl QueryProfile {
    /// Wall-clock time in microseconds.
    pub fn wall_us(&self) -> u64 {
        self.wall_time.as_micros() as u64
    }

    /// Sum of all operator execution times ("total CPU core time"). CPU
    /// time: fused stages contribute worker-summed morsel time (see
    /// [`OperatorProfile::duration_us`]), so on more than one worker the
    /// total may exceed [`QueryProfile::wall_us`]; it is bounded by
    /// `wall_us × n_workers`, not by the wall time.
    pub fn total_cpu_us(&self) -> u64 {
        self.operators.iter().map(|o| o.duration_us).sum()
    }

    /// Sum of all operator queue-wait times: how long ready work sat behind
    /// other work (same query or concurrent queries) before a worker picked
    /// it up. High values with low `total_cpu_us` indicate scheduler
    /// interference rather than expensive operators.
    pub fn total_queue_wait_us(&self) -> u64 {
        self.operators.iter().map(|o| o.queue_wait_us).sum()
    }

    /// Fraction of the query's total in-system operator time (queue wait +
    /// execution) that was queue wait. `0.0` on an idle machine; approaches
    /// `1.0` when the query mostly waited for workers occupied elsewhere.
    pub fn queue_wait_share(&self) -> f64 {
        let wait = self.total_queue_wait_us() as f64;
        let busy = self.total_cpu_us() as f64;
        if wait + busy == 0.0 {
            return 0.0;
        }
        wait / (wait + busy)
    }

    /// Parallelism usage: aggregate operator busy time
    /// ([`QueryProfile::total_cpu_us`], CPU time summed over workers)
    /// divided by `wall time × workers` — the bound of that sum, so the
    /// ratio is a fraction of the pool's capacity in `[0, 1]`. This is the
    /// "parallelism usage" percentage the paper's tomograph prints under
    /// Figs. 19/20.
    pub fn parallelism_usage(&self) -> f64 {
        let denom = self.wall_us().max(1) * self.n_workers.max(1) as u64;
        (self.total_cpu_us() as f64 / denom as f64).min(1.0)
    }

    /// Number of distinct worker threads that ran at least one task
    /// ([`TaskRecord::worker`]).
    pub fn workers_used(&self) -> usize {
        let tasks = self.operators.iter().flat_map(|op| &op.tasks);
        let mut seen: Vec<usize> = tasks.map(|task| task.worker).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Multi-core utilization: fraction of the available cores (workers) that
    /// were used at all during the query (paper §4.2.5).
    pub fn multi_core_utilization(&self) -> f64 {
        if self.n_workers == 0 {
            return 0.0;
        }
        self.workers_used() as f64 / self.n_workers as f64
    }

    /// The terminal stage of each streaming step: the one operator that
    /// names itself as its step ([`OperatorProfile::step`]).
    fn terminals(&self) -> impl Iterator<Item = &OperatorProfile> {
        self.operators.iter().filter(|op| op.step == Some(op.node))
    }

    /// Total ranges dispatched across all streaming steps: their
    /// terminals' tasks (0 for a plan without cuts).
    pub fn total_morsels(&self) -> usize {
        self.terminals().map(|op| op.tasks.len()).sum()
    }

    /// Ranges executed per worker, aggregated over all streaming steps and
    /// indexed by worker id (all zeros for a plan without cuts).
    pub fn morsels_by_worker(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.n_workers];
        for task in self.terminals().flat_map(|op| &op.tasks) {
            if let Some(slot) = out.get_mut(task.worker) {
                *slot += 1;
            }
        }
        out
    }

    /// Always `0`: scan sharing is gone (`docs/architecture.md` §10). Kept
    /// only because `benchmark/src/sut.rs` links this symbol and may not be
    /// edited outside a `[benchmark]` PR; the next one drops it together with
    /// the `sharing.*` rungs, the scheduler-policy shim and `typed_cache_hits`.
    #[doc(hidden)]
    pub fn total_shared_morsels(&self) -> u64 {
        0
    }

    /// Number of streaming steps whose terminal stage was a `GroupAgg`: each
    /// range produced a partial grouped aggregate and publishing merged the
    /// partials in stream order, which keeps float results byte-exact (0
    /// for a plan without cuts).
    pub fn fused_groupagg_pipelines(&self) -> usize {
        self.terminals().filter(|op| op.name == "groupby").count()
    }

    /// True when the admitted DOP was raised after the admit-time grant —
    /// i.e. the query received a mid-flight re-grant
    /// ([`DopPhase::Regrant`]; `Submit` events only restate the standing
    /// grant). A later grant of `0` (unlimited) counts as a raise; a query
    /// *admitted* unlimited has nothing to re-grant and always returns
    /// `false`.
    pub fn dop_was_regranted(&self) -> bool {
        match self.dop_timeline.first() {
            Some(initial) if initial.dop > 0 => self
                .dop_timeline
                .iter()
                .skip(1)
                .any(|e| e.phase == DopPhase::Regrant && (e.dop == 0 || e.dop > initial.dop)),
            _ => false,
        }
    }

    /// Profile of a specific plan node.
    pub fn operator(&self, node: NodeId) -> Option<&OperatorProfile> {
        self.operators.iter().find(|o| o.node == node)
    }

    /// Number of executed operators per family, each counted once per task
    /// that ran it ([`OperatorProfile::tasks`]): as many as its parts, or
    /// as its chain head's when it was fused.
    pub fn count_by_name(&self) -> HashMap<&'static str, usize> {
        let mut out = HashMap::new();
        for op in &self.operators {
            *out.entry(op.name).or_insert(0) += op.tasks.len().max(1);
        }
        out
    }

    /// Tomograph-style ASCII timeline: one lane per worker, time flowing to
    /// the right, each cell showing the operator family that was running
    /// (`S`elect, `J`oin, `F`etch, `C`alc, `A`ggregate, `.` idle).
    /// Every task is drawn on its own worker's lane from its start for its
    /// time, at least one cell wide, so the marked lanes are the
    /// [`QueryProfile::workers_used`]. This is the textual analogue of the
    /// paper's Figs. 19/20.
    pub fn timeline(&self, width: usize) -> String {
        let width = width.max(10);
        let wall = self.wall_us().max(1);
        let mut lanes = vec![vec!['.'; width]; self.n_workers];
        for op in &self.operators {
            for task in &op.tasks {
                let Some(lane) = lanes.get_mut(task.worker) else { continue };
                let from = ((task.start_us * width as u64 / wall) as usize).min(width - 1);
                let to = ((task.start_us + task.us) * width as u64).div_ceil(wall) as usize;
                lane[from..to.clamp(from + 1, width)].fill(family_char(op.name));
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} operators, wall {:.3} ms, cpu {:.3} ms, parallelism usage {:.1}%, {} of {} workers used",
            self.operators.len(),
            self.wall_us() as f64 / 1000.0,
            self.total_cpu_us() as f64 / 1000.0,
            self.parallelism_usage() * 100.0,
            self.workers_used(),
            self.n_workers,
        );
        for (i, lane) in lanes.iter().enumerate() {
            let _ = writeln!(out, "worker {i:>3} |{}|", lane.iter().collect::<String>());
        }
        out
    }
}

fn family_char(name: &str) -> char {
    match name {
        "select" | "predmask" => 'S',
        "join" | "semijoin" | "antijoin" | "hashbuild" => 'J',
        "fetch" | "projectside" => 'F',
        "calc" | "ifthenelse" | "calcscalar" => 'C',
        "aggregate" | "groupby" | "finalizeagg" => 'A',
        "scan" => 's',
        _ => 'o',
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(
        node: NodeId,
        name: &'static str,
        start: u64,
        dur: u64,
        worker: usize,
    ) -> OperatorProfile {
        OperatorProfile {
            node,
            name,
            start_us: start,
            end_us: start + dur,
            duration_us: dur,
            queue_wait_us: 5,
            worker,
            rows_out: 1,
            tasks: vec![TaskRecord {
                range: RowRange::new(0, 1),
                start_us: start,
                us: dur,
                worker,
            }],
            step: None,
        }
    }

    fn sample() -> QueryProfile {
        QueryProfile {
            wall_time: Duration::from_micros(1000),
            n_workers: 4,
            operators: vec![
                op(0, "scan", 0, 50, 0),
                op(1, "select", 50, 400, 0),
                op(2, "select", 50, 300, 1),
                op(3, "hashbuild", 500, 100, 1),
                op(4, "aggregate", 650, 200, 0),
            ],
            dop_timeline: vec![DopEvent { at_us: 0, dop: 2, phase: DopPhase::Admit }],
        }
    }

    #[test]
    fn aggregate_metrics() {
        let p = sample();
        assert_eq!(p.wall_us(), 1000);
        assert_eq!(p.total_cpu_us(), 1050);
        assert_eq!(p.total_queue_wait_us(), 25);
        assert!((p.queue_wait_share() - 25.0 / 1075.0).abs() < 1e-9);
        assert!((p.parallelism_usage() - 1050.0 / 4000.0).abs() < 1e-9);
        assert_eq!(p.workers_used(), 2);
        assert!((p.multi_core_utilization() - 0.5).abs() < 1e-9);
        assert_eq!(p.operator(3).unwrap().name, "hashbuild");
        assert!(p.operator(99).is_none());
    }

    #[test]
    fn per_family_breakdown() {
        let p = sample();
        let counts = p.count_by_name();
        assert_eq!(counts["select"], 2);
        assert_eq!(counts["hashbuild"], 1);
    }

    #[test]
    fn timeline_renders_lanes() {
        let p = sample();
        let t = p.timeline(40);
        assert_eq!(t.lines().count(), 5); // header + 4 workers
        assert!(t.contains("parallelism usage"));
        assert!(t.contains('S'));
        assert!(t.contains('A'));
        // Workers 2 and 3 never ran anything: fully idle lanes exist.
        assert!(t.lines().any(|l| l.contains('|') && !l.contains('S') && l.contains("....")));
        // Tiny width is clamped.
        let tiny = p.timeline(1);
        assert!(tiny.contains("worker"));
    }

    #[test]
    fn step_statistics_fold_over_the_task_records() {
        // A whole-node scan on worker 0, then a two-stage streaming step —
        // a select fused into a group-by terminal — whose three ranges ran
        // on workers 1, 2 and 1. Worker 2 ran the last range, so it is the
        // one both stages' profiles name.
        let ranges = [(0, 100, 1), (100, 200, 2), (200, 250, 1)];
        let stage = |node, name| OperatorProfile {
            tasks: ranges
                .iter()
                .map(|&(start, end, worker)| TaskRecord {
                    range: RowRange::new(start, end),
                    start_us: 50,
                    us: 10,
                    worker,
                })
                .collect(),
            step: Some(2),
            ..op(node, name, 50, 30, 2)
        };
        let mut p = QueryProfile {
            wall_time: Duration::from_micros(1000),
            n_workers: 4,
            operators: vec![op(0, "scan", 0, 50, 0), stage(1, "select"), stage(2, "groupby")],
            dop_timeline: vec![],
        };
        assert_eq!(p.workers_used(), 3);
        assert_eq!(p.multi_core_utilization(), 0.75);
        // Ranges count once per step, on its terminal, and a whole-node
        // step dispatches none.
        assert_eq!(p.total_morsels(), 3);
        assert_eq!(p.morsels_by_worker(), vec![0, 2, 1, 0]);
        assert_eq!(p.fused_groupagg_pipelines(), 1);
        assert_eq!(p.count_by_name()["groupby"], 3);

        // The same group-by run whole terminates no streaming step.
        p.operators.truncate(1);
        p.operators.push(op(2, "groupby", 50, 30, 0));
        assert_eq!((p.workers_used(), p.total_morsels()), (1, 0));
        assert_eq!(p.morsels_by_worker(), vec![0; 4]);
        assert_eq!(p.fused_groupagg_pipelines(), 0);
    }

    #[test]
    fn timeline_draws_every_task_on_its_own_workers_lane() {
        // A whole-node scan on worker 0, then a cut select whose three
        // tasks ran on workers 1, 2 and 3 while worker 0 published it.
        let tasks = [(1, 100), (2, 300), (3, 600)];
        let select = OperatorProfile {
            tasks: tasks
                .iter()
                .map(|&(worker, start_us)| TaskRecord {
                    range: RowRange::new(0, 10),
                    start_us,
                    us: 100,
                    worker,
                })
                .collect(),
            step: Some(1),
            end_us: 900,
            ..op(1, "select", 100, 300, 0)
        };
        let p = QueryProfile {
            wall_time: Duration::from_micros(1000),
            n_workers: 6,
            operators: vec![op(0, "scan", 0, 50, 0), select],
            dop_timeline: vec![],
        };
        let t = p.timeline(10);
        let lanes: Vec<&str> = t.lines().skip(1).collect();
        let marked = lanes.iter().filter(|l| l.split('|').nth(1).unwrap().contains(|c| c != '.'));
        assert_eq!(marked.count(), p.workers_used());
        assert_eq!(p.workers_used(), 4);
        // Each task sits on its worker's lane at its start, for its time.
        assert_eq!(lanes[0], "worker   0 |s.........|");
        assert_eq!(lanes[1], "worker   1 |.S........|");
        assert_eq!(lanes[3], "worker   3 |......S...|");
        assert_eq!(lanes[5], "worker   5 |..........|");
    }

    #[test]
    fn dop_timeline_regrant_detection() {
        let mut p = sample();
        // Initial grant only: no re-grant.
        assert!(!p.dop_was_regranted());
        // Claw-back below the initial grant: still no re-grant.
        p.dop_timeline.push(DopEvent { at_us: 10, dop: 1, phase: DopPhase::Regrant });
        assert!(!p.dop_was_regranted());
        // A raise above the admit-time grant is a re-grant.
        p.dop_timeline.push(DopEvent { at_us: 20, dop: 4, phase: DopPhase::Regrant });
        assert!(p.dop_was_regranted());
        // A later grant of "unlimited" also counts.
        let mut q = sample();
        q.dop_timeline.push(DopEvent { at_us: 5, dop: 0, phase: DopPhase::Regrant });
        assert!(q.dop_was_regranted());
        // Queries admitted unlimited have nothing to re-grant.
        let mut r = sample();
        r.dop_timeline = vec![
            DopEvent { at_us: 0, dop: 0, phase: DopPhase::Admit },
            DopEvent { at_us: 9, dop: 8, phase: DopPhase::Regrant },
        ];
        assert!(!r.dop_was_regranted());
        // A reservation's Submit event restates the standing grant; on its
        // own it is not a re-grant even when the submitted dop is higher
        // (that raise was already visible as a Regrant or never happened).
        let mut s = sample();
        s.dop_timeline = vec![
            DopEvent { at_us: 0, dop: 2, phase: DopPhase::Reserve },
            DopEvent { at_us: 7, dop: 4, phase: DopPhase::Submit },
        ];
        assert!(!s.dop_was_regranted());
    }

    #[test]
    fn degenerate_profiles() {
        let p = QueryProfile {
            wall_time: Duration::ZERO,
            n_workers: 0,
            operators: vec![],
            dop_timeline: vec![],
        };
        assert_eq!(p.total_cpu_us(), 0);
        assert_eq!(p.workers_used(), 0);
        assert_eq!(p.multi_core_utilization(), 0.0);
        assert!(p.parallelism_usage() <= 1.0);
        assert_eq!(p.total_queue_wait_us(), 0);
        assert_eq!(p.queue_wait_share(), 0.0);
    }
}
