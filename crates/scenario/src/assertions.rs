//! The assertion DSL: `lhs op rhs [on <network>]`.
//!
//! Each side is either a number literal or a dotted metric reference.
//! A reference is zero or more *filter* segments (protocol compact names
//! like `spdy` / `spdy:20:late`, matrix variant names, or `seed<N>`)
//! followed by a metric name; the filters select which cells' samples
//! are pooled before the metric is computed. `counter.<name>` reaches
//! through to the trace metrics registry and must name one of the
//! counters it publishes ([`spdyier_trace::COUNTERS`]). Examples:
//!
//! ```text
//! spdy.critical_rto_stall_ms > http.critical_rto_stall_ms on 3g
//! plt_p50_ms < 9000
//! http.counter.tcp.rto_fires >= 1
//! ```
//!
//! Parsing is strict and happens at manifest decode time, so a typo'd
//! metric name is an exit-code-3 config error, not a silently-skipped
//! check. The `on <network>` clause gates evaluation: when it names a
//! network other than the manifest's, the verdict is `skipped` — letting
//! one assertion list serve a family of per-network manifests.

use crate::metrics::{required_trace, COUNTER, METRICS};
use spdyier_core::{NetworkKind, TraceLevel};
use spdyier_trace::COUNTERS;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the comparison.
    pub fn holds(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// The operator as written.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A pooled metric reference: filters + metric name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRef {
    /// Cell filters, all of which must match (empty = every cell).
    pub filters: Vec<String>,
    /// Metric name (one of [`METRICS`] or `counter.<name>`).
    pub metric: String,
}

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A literal number.
    Number(f64),
    /// A pooled metric.
    Metric(MetricRef),
}

/// A parsed assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct Assertion {
    /// The expression as written in the manifest.
    pub expr: String,
    /// Left-hand side.
    pub lhs: Operand,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: Operand,
    /// Optional `on <network>` gate.
    pub on: Option<NetworkKind>,
}

impl MetricRef {
    fn parse(token: &str) -> Result<MetricRef, String> {
        let segments: Vec<&str> = token.split('.').collect();
        if segments.iter().any(|s| s.is_empty()) {
            return Err(format!("malformed metric reference {token:?}"));
        }
        // `counter.<name>` may itself contain dots (registry names like
        // `tcp.rto_fires`), so everything from the `counter` segment on
        // is the metric; filters are the segments before it.
        if let Some(pos) = segments.iter().position(|&s| s == COUNTER) {
            if pos + 1 == segments.len() {
                return Err(format!(
                    "metric reference {token:?} is missing a counter name"
                ));
            }
            let name = segments[pos + 1..].join(".");
            if !COUNTERS.contains(&name.as_str()) {
                return Err(format!(
                    "unknown counter {name:?} (expected one of: {})",
                    COUNTERS.join(", ")
                ));
            }
            return Ok(MetricRef {
                filters: segments[..pos].iter().map(|s| s.to_string()).collect(),
                metric: segments[pos..].join("."),
            });
        }
        let (metric, filters) = segments.split_last().expect("split never empty");
        if required_trace(metric).is_none() {
            let known: Vec<&str> = METRICS.iter().map(|&(name, ..)| name).collect();
            return Err(format!(
                "unknown metric {metric:?} (expected one of: {}, or counter.<name>)",
                known.join(", ")
            ));
        }
        Ok(MetricRef {
            filters: filters.iter().map(|s| s.to_string()).collect(),
            metric: metric.to_string(),
        })
    }

    /// The flight-recorder level this reference needs to be computable:
    /// its [`METRICS`] row's, or `Full` for `counter.*` (a hand-built
    /// reference to an unknown metric needs none: it fails evaluation at
    /// any level).
    pub fn required_trace(&self) -> TraceLevel {
        required_trace(&self.metric).unwrap_or(TraceLevel::Off)
    }
}

impl Operand {
    fn parse(token: &str) -> Result<Operand, String> {
        // Number literals win; anything else must be a metric reference.
        // A literal must be finite: `1e400` would pass any `<` and `nan`
        // fail everything, and neither has a JSON spelling in the verdict.
        if token
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+')
        {
            return match token.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Operand::Number(x)),
                Ok(_) => Err(format!("number literal {token:?} is not finite")),
                Err(_) => Err(format!("malformed number literal {token:?}")),
            };
        }
        MetricRef::parse(token).map(Operand::Metric)
    }

    /// The metric reference, if this side is one.
    pub fn metric(&self) -> Option<&MetricRef> {
        match self {
            Operand::Metric(m) => Some(m),
            Operand::Number(_) => None,
        }
    }
}

impl Assertion {
    /// Parse `lhs op rhs [on <network>]`.
    pub fn parse(expr: &str) -> Result<Assertion, String> {
        let tokens: Vec<&str> = expr.split_whitespace().collect();
        let (head, on) = match tokens.len() {
            3 => (&tokens[..3], None),
            5 if tokens[3] == "on" => {
                let net: NetworkKind = tokens[4].parse()?;
                (&tokens[..3], Some(net))
            }
            _ => {
                return Err(format!(
                    "malformed assertion {expr:?} (expected \"<lhs> <op> <rhs> [on <network>]\")"
                ))
            }
        };
        let op = match head[1] {
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            other => {
                return Err(format!(
                    "unknown operator {other:?} (expected <, <=, >, or >=)"
                ))
            }
        };
        let lhs = Operand::parse(head[0])?;
        let rhs = Operand::parse(head[2])?;
        if lhs.metric().is_none() && rhs.metric().is_none() {
            return Err(format!(
                "assertion {expr:?} compares two literals — nothing is measured"
            ));
        }
        Ok(Assertion {
            expr: expr.to_string(),
            lhs,
            op,
            rhs,
            on,
        })
    }

    /// The minimum flight-recorder level either side needs.
    pub fn required_trace(&self) -> TraceLevel {
        [&self.lhs, &self.rhs]
            .into_iter()
            .filter_map(Operand::metric)
            .map(MetricRef::required_trace)
            .max()
            .unwrap_or(TraceLevel::Off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CellMetrics;

    #[test]
    fn parses_the_paper_headline() {
        let a = Assertion::parse("spdy.critical_rto_stall_ms > http.critical_rto_stall_ms on 3g")
            .unwrap();
        assert_eq!(a.op, CmpOp::Gt);
        assert_eq!(a.on, Some(NetworkKind::Umts3G));
        let lhs = a.lhs.metric().unwrap();
        assert_eq!(lhs.filters, ["spdy"]);
        assert_eq!(lhs.metric, "critical_rto_stall_ms");
    }

    #[test]
    fn parses_literals_and_counters() {
        let a = Assertion::parse("plt_p50_ms < 9000").unwrap();
        assert_eq!(a.rhs, Operand::Number(9000.0));

        let a = Assertion::parse("http.counter.tcp.rto_fires >= 1").unwrap();
        assert_eq!(a.required_trace(), TraceLevel::Full);
        let lhs = a.lhs.metric().unwrap();
        assert_eq!(lhs.filters, ["http"]);
        assert_eq!(lhs.metric, "counter.tcp.rto_fires");
    }

    #[test]
    fn filters_can_stack() {
        let a = Assertion::parse("spdy:20:late.seed3.plt_mean_ms <= 12000").unwrap();
        let lhs = a.lhs.metric().unwrap();
        assert_eq!(lhs.filters, ["spdy:20:late", "seed3"]);
        assert_eq!(lhs.metric, "plt_mean_ms");
    }

    #[test]
    fn rejects_malformed_input_with_reasons() {
        for (expr, needle) in [
            ("plt_p50_ms < ", "malformed assertion"),
            ("plt_p50_ms ~ 9", "unknown operator"),
            ("plt_p50 < 9000", "unknown metric"),
            (
                "spdy.rto_stall_per_event_ms > http.rto_stall_per_event_ms on 3g",
                "unknown metric",
            ),
            ("1 < 2", "two literals"),
            ("plt_p50_ms < 9000 on 4g", "unknown network"),
            ("spdy..plt_p50_ms < 9000", "malformed metric reference"),
            ("http.counter < 1", "missing a counter name"),
            (
                "counter.tcp.rto_fired <= 0",
                "unknown counter \"tcp.rto_fired\"",
            ),
            (
                "spdy.counter.tcp.retransmision <= 0",
                "tcp.retransmissions, tcp.rto_fires",
            ),
            ("plt_p50_ms < 1e400", "not finite"),
            ("plt_p50_ms > -nan", "not finite"),
            ("plt_p50_ms < +inf", "not finite"),
        ] {
            let e = Assertion::parse(expr).unwrap_err();
            assert!(e.contains(needle), "{expr:?}: {e}");
        }
    }

    /// Every row of the table parses under its own name, demands its own
    /// level (the higher of the two when a comparison mixes levels), and
    /// evaluates to a value or a reason — never a panic — with and
    /// without samples.
    #[test]
    fn every_metric_row_parses_demands_its_level_and_evaluates() {
        let mut populated = CellMetrics {
            visits: 3,
            completed: 2,
            critical_sums_us: [1, 2, 3, 4, 5, 6, 7, 8, 9],
            critical_visits: 2,
            timeouts: 1,
            non_fin_timeouts: 1,
            ..CellMetrics::default()
        };
        populated.plt.record(120.0);
        for &(name, level, _) in METRICS {
            let a = Assertion::parse(&format!("spdy.{name} >= 0")).unwrap();
            assert_eq!(a.lhs.metric().unwrap().metric, name);
            assert_eq!(a.required_trace(), level, "{name}");
            let mixed = Assertion::parse(&format!("{name} > critical_wait_ms")).unwrap();
            assert_eq!(mixed.required_trace(), TraceLevel::Full, "{name}");
            let empty = CellMetrics::default().metric(name);
            let unsampled = level == TraceLevel::Full && name != "trace_dropped";
            assert_eq!(empty.is_err(), unsampled, "{name}");
            let value = populated
                .metric(name)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(value.is_finite(), "{name}: {value}");
        }
    }

    #[test]
    fn comparisons_hold() {
        assert!(CmpOp::Lt.holds(1.0, 2.0));
        assert!(CmpOp::Le.holds(2.0, 2.0));
        assert!(CmpOp::Gt.holds(3.0, 2.0));
        assert!(CmpOp::Ge.holds(2.0, 2.0));
        assert!(!CmpOp::Gt.holds(2.0, 2.0));
        assert_eq!(CmpOp::Ge.symbol(), ">=");
    }
}
