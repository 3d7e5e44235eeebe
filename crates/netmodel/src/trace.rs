//! Churn-trace export.
//!
//! `idpa-sim trace-export` writes a world's per-node session schedules in
//! a minimal CSV dialect, so the synthetic churn (Poisson joins, Pareto
//! sessions) can be compared with measured traces such as the Saroiu et
//! al. measurements the paper's session model is calibrated to:
//!
//! ```csv
//! node,start,end
//! 0,12.5,75.0
//! 0,90.0,140.0
//! 1,0.0,60.0
//! ```
//!
//! Rows come in node order and, within a node, in session order.

use std::borrow::Borrow;
use std::fmt::Write as _;

use crate::churn::NodeSchedule;

/// Serialises schedules, node `i` being the `i`-th item, to the CSV
/// dialect (header included). Takes any iterator, so a caller can stream
/// schedules it derives one at a time instead of holding them all.
#[must_use]
pub fn to_csv<S: Borrow<NodeSchedule>>(schedules: impl IntoIterator<Item = S>) -> String {
    let mut out = String::from("node,start,end\n");
    for (node, sched) in schedules.into_iter().enumerate() {
        for &(start, end) in sched.borrow().sessions() {
            let _ = writeln!(out, "{node},{start},{end}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact text `trace-export` promises: the header, rows in node
    /// then session order, no row for a node that never came up, and
    /// times in Rust's shortest round-trip float form.
    #[test]
    fn to_csv_text_is_pinned() {
        let table = [
            NodeSchedule::from_sessions(vec![(0.0, 60.0), (90.25, 140.5)]),
            NodeSchedule::from_sessions(Vec::new()),
            NodeSchedule::from_sessions(vec![(12.5, 75.001)]),
        ];
        assert_eq!(
            to_csv(&table),
            "node,start,end\n0,0,60\n0,90.25,140.5\n2,12.5,75.001\n"
        );
        assert_eq!(to_csv(Vec::<NodeSchedule>::new()), "node,start,end\n");
    }
}
