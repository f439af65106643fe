//! Table 1 — Equal Distribution of Funds (§5.3).
//!
//! Five users run the same bioinformatics task with identical funding,
//! submitted in sequence with a slight stagger. The paper's observation:
//! users 3–5 "received a much lower quality of service … because the best
//! response algorithm found it too expensive to fund more than a very low
//! number of hosts" — later users land on fewer nodes with worse latency
//! at a similar hourly cost.

use gridmarket::report::{group_rows, render_table, render_users};
use gridmarket::scenario::{Scenario, UserSetup};
use gridmarket::GroupRow;

use crate::Scale;

/// Structured result of the Table 1 experiment.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// Group rows: `[users 1–2, users 3–5]`.
    pub groups: Vec<GroupRow>,
    /// Per-user reports.
    pub users: Vec<gridmarket::UserReport>,
    /// Rendered report.
    pub rendered: String,
}

/// Scenario shared by Tables 1 and 2 (only the funding differs).
pub fn scenario(scale: Scale) -> Scenario {
    match scale {
        Scale::Paper => Scenario::builder()
            .seed(2006)
            .hosts(30)
            .chunk_minutes(212.0)
            .deadline_minutes(330)
            .horizon_hours(48),
        Scale::Quick => Scenario::builder()
            .seed(2006)
            .hosts(8)
            .chunk_minutes(8.0)
            .deadline_minutes(60)
            .horizon_hours(8),
    }
}

/// Sub-jobs per user at each scale.
pub fn subjobs(scale: Scale) -> u32 {
    match scale {
        Scale::Paper => 15,
        Scale::Quick => 4,
    }
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table1 {
    funded(scale, &[100.0; 5], "Table 1. Equal Distribution of Funds")
}

/// The Tables 1/2 run: one user per `fundings` entry on [`scenario`],
/// grouped as users 1–2 and 3–5, rendered under `title`.
pub(crate) fn funded(scale: Scale, fundings: &[f64], title: &str) -> Table1 {
    let mut s = scenario(scale);
    for (i, &funding) in fundings.iter().enumerate() {
        s = s.user(
            UserSetup::new(funding)
                .subjobs(subjobs(scale))
                .label(&format!("user{}", i + 1)),
        );
    }
    let result = s.run().expect("table scenario");
    let groups = group_rows(&result.users, &[(0, 1, "1-2"), (2, 4, "3-5")]);
    let mut rendered = render_table(title, &groups);
    rendered.push('\n');
    rendered.push_str(&render_users(&result.users));
    Table1 {
        groups,
        users: result.users,
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_matches_paper_shape() {
        let t = run(Scale::Quick);
        assert_eq!(t.groups.len(), 2);
        let early = &t.groups[0];
        let late = &t.groups[1];
        // Paper shape: later users get fewer (or equal) nodes…
        assert!(
            late.nodes <= early.nodes + 0.26,
            "late nodes {} vs early {}",
            late.nodes,
            early.nodes
        );
        // …and no better latency.
        assert!(
            late.latency_min_per_job >= early.latency_min_per_job * 0.9,
            "late latency {} vs early {}",
            late.latency_min_per_job,
            early.latency_min_per_job
        );
        // Cost rates are in the same ballpark (equal funding).
        assert!(late.cost_per_hour < early.cost_per_hour * 3.0);
        assert!(early.cost_per_hour < late.cost_per_hour * 3.0);
        // All jobs completed.
        for u in &t.users {
            assert_eq!(u.completed_subjobs, u.subjobs, "{:?}", u);
        }
    }

    #[test]
    fn rendered_table_has_both_groups() {
        let t = run(Scale::Quick);
        assert!(t.rendered.contains("1-2"));
        assert!(t.rendered.contains("3-5"));
        assert!(t.rendered.contains("Equal Distribution"));
    }
}
