//! Table 2 — Two-Point Distribution of Funds (§5.3).
//!
//! Users fund their jobs with 100, 100, 500, 500, 500 credits and a 5.5 h
//! deadline. The paper: "the jobs with a budget of 500 dollars caused the
//! earlier jobs to decrease their shares … this time the performance level
//! (latency) is better. We also see that these users pay a higher price
//! for their resource usage, as expected."

use gridmarket::GroupRow;

use crate::Scale;

/// Structured result of the Table 2 experiment.
#[derive(Clone, Debug)]
pub struct Table2 {
    /// Group rows: `[users 1–2 (100), users 3–5 (500)]`.
    pub groups: Vec<GroupRow>,
    /// Per-user reports.
    pub users: Vec<gridmarket::UserReport>,
    /// Rendered report.
    pub rendered: String,
}

/// Run the experiment.
pub fn run(scale: Scale) -> Table2 {
    let fundings = [100.0, 100.0, 500.0, 500.0, 500.0];
    let t = crate::table1::funded(scale, &fundings, "Table 2. Two-Point Distribution of Funds");
    Table2 {
        groups: t.groups,
        users: t.users,
        rendered: t.rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_funding_buys_better_latency_at_higher_cost() {
        let t = run(Scale::Quick);
        let low = &t.groups[0]; // users 1–2, 100 credits
        let high = &t.groups[1]; // users 3–5, 500 credits
        // The paper's headline: the well-funded late group completes
        // faster…
        assert!(
            high.time_hours <= low.time_hours,
            "500-credit group slower: {} vs {}",
            high.time_hours,
            low.time_hours
        );
        // …with better latency…
        assert!(
            high.latency_min_per_job <= low.latency_min_per_job,
            "500-credit group has worse latency"
        );
        // …and pays a higher hourly rate.
        assert!(
            high.cost_per_hour > low.cost_per_hour,
            "500-credit group should pay more per hour: {} vs {}",
            high.cost_per_hour,
            low.cost_per_hour
        );
        for u in &t.users {
            assert_eq!(u.completed_subjobs, u.subjobs);
        }
    }

    #[test]
    fn funding_contrast_vs_table1() {
        // Against Table 1 (all-equal), the rich group's latency must
        // improve.
        let t1 = crate::table1::run(Scale::Quick);
        let t2 = run(Scale::Quick);
        let late_equal = &t1.groups[1];
        let late_rich = &t2.groups[1];
        assert!(
            late_rich.latency_min_per_job <= late_equal.latency_min_per_job,
            "funding did not improve the late group: {} vs {}",
            late_rich.latency_min_per_job,
            late_equal.latency_min_per_job
        );
    }
}
