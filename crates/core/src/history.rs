//! Plan administration: the history of plans produced by adaptive runs.
//!
//! One of the paper's three infrastructure components is "the plan
//! administration policies to choose a suitable plan from the plan history"
//! (§2). The history stores every plan version together with its measured
//! execution time; the policy implemented here (and used by the paper's
//! evaluation) picks the plan with the minimal execution time.

use apq_engine::Plan;

/// One entry of the plan history.
#[derive(Debug, Clone)]
pub struct PlanVersion {
    /// Run index that executed this plan (0 is the serial plan).
    pub run: usize,
    /// The plan as it was executed in that run.
    pub plan: Plan,
    /// Measured wall-clock execution time, microseconds.
    pub exec_us: u64,
    /// Number of live operators in the plan.
    pub node_count: usize,
}

/// History of all plan versions produced during one adaptive optimization.
#[derive(Debug, Clone, Default)]
pub struct PlanHistory {
    versions: Vec<PlanVersion>,
}

impl PlanHistory {
    /// Empty history.
    pub fn new() -> Self {
        PlanHistory::default()
    }

    /// Records the plan executed at `run` with its measured time.
    pub fn record(&mut self, run: usize, plan: &Plan, exec_us: u64) {
        self.versions.push(PlanVersion {
            run,
            plan: plan.clone(),
            exec_us,
            node_count: plan.node_count(),
        });
    }

    /// Number of recorded versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// The version executed at a specific run index.
    pub fn at_run(&self, run: usize) -> Option<&PlanVersion> {
        self.versions.iter().find(|v| v.run == run)
    }

    /// All versions in recording order.
    pub fn versions(&self) -> &[PlanVersion] {
        &self.versions
    }

    /// The fastest version seen so far (the plan administration policy).
    pub fn best(&self) -> Option<&PlanVersion> {
        self.versions.iter().min_by_key(|v| v.exec_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apq_columnar::partition::RowRange;
    use apq_engine::plan::OperatorSpec;

    fn plan_with_nodes(n: usize) -> Plan {
        let mut p = Plan::new();
        let mut last = None;
        for _ in 0..n {
            let id = p.add(
                OperatorSpec::ScanColumn {
                    table: "t".into(),
                    column: "a".into(),
                    range: RowRange::new(0, 10),
                },
                vec![],
            );
            last = Some(id);
        }
        p.set_root(last.expect("at least one node"));
        p
    }

    #[test]
    fn records_and_selects_best() {
        let mut h = PlanHistory::new();
        assert!(h.is_empty());
        assert!(h.best().is_none());
        h.record(0, &plan_with_nodes(1), 1000);
        h.record(1, &plan_with_nodes(3), 600);
        h.record(2, &plan_with_nodes(5), 800);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        assert_eq!(h.best().unwrap().run, 1);
        assert_eq!(h.best().unwrap().exec_us, 600);
        assert_eq!(h.at_run(0).unwrap().node_count, 1);
        assert_eq!(h.at_run(2).unwrap().node_count, 5);
        assert!(h.at_run(7).is_none());
        assert_eq!(h.versions().len(), 3);
    }

    #[test]
    fn ties_resolve_to_the_earliest_version() {
        let mut h = PlanHistory::new();
        h.record(0, &plan_with_nodes(1), 500);
        h.record(1, &plan_with_nodes(2), 500);
        assert_eq!(h.best().unwrap().run, 0);
    }
}
