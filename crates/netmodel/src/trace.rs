//! Churn-trace serialisation.
//!
//! The synthetic churn model (Poisson joins, Pareto sessions) matches the
//! paper's setup, but a reproduction should also run against *measured*
//! traces (e.g. the Saroiu et al. measurements the paper's session model
//! is calibrated to). This module round-trips per-node session schedules
//! through a minimal CSV dialect:
//!
//! ```csv
//! node,start,end
//! 0,12.5,75.0
//! 0,90.0,140.0
//! 1,0.0,60.0
//! ```
//!
//! Rows may appear in any order; sessions are grouped by node id and must
//! be disjoint per node after sorting.

use std::borrow::Borrow;
use std::fmt::Write as _;

use crate::churn::NodeSchedule;

/// Errors while parsing a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A malformed line.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// Sessions of one node overlap or are inverted.
    BadSchedule {
        /// The offending node id.
        node: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadLine { line, reason } => {
                write!(f, "trace line {line}: {reason}")
            }
            TraceError::BadSchedule { node } => {
                write!(f, "node {node}: overlapping or inverted sessions")
            }
        }
    }
}

impl std::error::Error for TraceError {}

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

/// Parses the CSV dialect back into schedules.
///
/// `n_nodes` fixes the output length (nodes with no rows get empty
/// schedules — a node that never came up). Node ids must be `< n_nodes`.
pub fn from_csv(csv: &str, n_nodes: usize) -> Result<Vec<NodeSchedule>, TraceError> {
    let mut sessions: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_nodes];
    for (idx, raw) in csv.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || (idx == 0 && line.eq_ignore_ascii_case("node,start,end")) {
            continue;
        }
        let mut parts = line.split(',');
        let (Some(node), Some(start), Some(end), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(TraceError::BadLine {
                line: line_no,
                reason: "expected exactly 3 comma-separated fields".into(),
            });
        };
        let node: usize = node.trim().parse().map_err(|_| TraceError::BadLine {
            line: line_no,
            reason: format!("bad node id '{node}'"),
        })?;
        if node >= n_nodes {
            return Err(TraceError::BadLine {
                line: line_no,
                reason: format!("node id {node} out of range (n_nodes = {n_nodes})"),
            });
        }
        let parse_time = |s: &str| -> Result<f64, TraceError> {
            let v: f64 = s.trim().parse().map_err(|_| TraceError::BadLine {
                line: line_no,
                reason: format!("bad time '{s}'"),
            })?;
            if !v.is_finite() || v < 0.0 {
                return Err(TraceError::BadLine {
                    line: line_no,
                    reason: format!("time {v} must be finite and non-negative"),
                });
            }
            Ok(v)
        };
        let start = parse_time(start)?;
        let end = parse_time(end)?;
        if end <= start {
            return Err(TraceError::BadLine {
                line: line_no,
                reason: format!("empty or inverted session ({start}, {end})"),
            });
        }
        sessions[node].push((start, end));
    }

    let mut out = Vec::with_capacity(n_nodes);
    for (node, mut s) in sessions.into_iter().enumerate() {
        s.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        if s.windows(2).any(|w| w[0].1 > w[1].0) {
            return Err(TraceError::BadSchedule { node });
        }
        out.push(NodeSchedule::from_sessions(s));
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test-only assertions may panic freely
mod tests {
    use super::*;
    use crate::churn::{ChurnConfig, ChurnModel};
    use idpa_desim::rng::StreamFactory;

    #[test]
    fn round_trip_synthetic_trace() {
        let cfg = ChurnConfig {
            n_nodes: 12,
            ..ChurnConfig::default()
        };
        let scheds = ChurnModel::new(cfg).generate(&StreamFactory::new(1));
        let csv = to_csv(&scheds);
        let back = from_csv(&csv, 12).unwrap();
        assert_eq!(back, scheds);
    }

    #[test]
    fn parses_unordered_rows() {
        let csv = "node,start,end\n1,5.0,6.0\n0,1.0,2.0\n1,0.5,1.5\n";
        let scheds = from_csv(csv, 2).unwrap();
        assert_eq!(scheds[0].sessions(), &[(1.0, 2.0)]);
        assert_eq!(scheds[1].sessions(), &[(0.5, 1.5), (5.0, 6.0)]);
    }

    #[test]
    fn missing_nodes_get_empty_schedules() {
        let csv = "node,start,end\n2,1.0,2.0\n";
        let scheds = from_csv(csv, 4).unwrap();
        assert!(scheds[0].sessions().is_empty());
        assert!(scheds[3].sessions().is_empty());
        assert_eq!(scheds[2].sessions().len(), 1);
    }

    #[test]
    fn header_is_optional_but_tolerated() {
        let with = from_csv("node,start,end\n0,1.0,2.0\n", 1).unwrap();
        let without = from_csv("0,1.0,2.0\n", 1).unwrap();
        assert_eq!(with, without);
    }

    #[test]
    fn rejects_bad_arity() {
        let err = from_csv("0,1.0\n", 1).unwrap_err();
        assert!(matches!(err, TraceError::BadLine { line: 1, .. }));
    }

    #[test]
    fn rejects_out_of_range_node() {
        let err = from_csv("5,1.0,2.0\n", 2).unwrap_err();
        assert!(matches!(err, TraceError::BadLine { .. }));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_inverted_session() {
        let err = from_csv("0,5.0,2.0\n", 1).unwrap_err();
        assert!(err.to_string().contains("inverted"));
    }

    #[test]
    fn rejects_overlapping_sessions() {
        let err = from_csv("0,1.0,5.0\n0,4.0,6.0\n", 1).unwrap_err();
        assert_eq!(err, TraceError::BadSchedule { node: 0 });
    }

    #[test]
    fn rejects_negative_time() {
        let err = from_csv("0,-1.0,2.0\n", 1).unwrap_err();
        assert!(err.to_string().contains("non-negative"));
    }

    #[test]
    fn empty_input_gives_empty_schedules() {
        let scheds = from_csv("", 3).unwrap();
        assert_eq!(scheds.len(), 3);
        assert!(scheds.iter().all(|s| s.sessions().is_empty()));
    }
}
