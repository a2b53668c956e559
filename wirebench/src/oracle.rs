//! Ground truth, kept apart from the engine.
//!
//! Predicates are evaluated here on the generator's [`FrameTruth`]
//! records with this module's own comparison code, never through the
//! engine's predicate evaluator, and operator charges are recomputed from
//! per-row unit costs the benchmark knows independently of the meter.

use std::collections::BTreeSet;

use pp_data::traffic::{FrameTruth, TrafficDataset};
use pp_engine::predicate::{Clause, CompareOp, Predicate};
use pp_engine::telemetry::OperatorSpan;
use pp_engine::value::Value;

/// Whether `truth` satisfies `predicate`. Errors on a column the
/// generator has no truth for, or a literal of the wrong type.
pub fn holds(predicate: &Predicate, truth: &FrameTruth) -> Result<bool, String> {
    Ok(match predicate {
        Predicate::True => true,
        Predicate::False => false,
        Predicate::Clause(clause) => clause_holds(clause, truth)?,
        Predicate::Not(inner) => !holds(inner, truth)?,
        Predicate::And(children) => {
            for child in children {
                if !holds(child, truth)? {
                    return Ok(false);
                }
            }
            true
        }
        Predicate::Or(children) => {
            for child in children {
                if holds(child, truth)? {
                    return Ok(true);
                }
            }
            false
        }
    })
}

fn clause_holds(clause: &Clause, truth: &FrameTruth) -> Result<bool, String> {
    let ordering = match (clause.column.as_str(), &clause.value) {
        ("vehType", Value::Str(v)) => truth.veh_type.cmp(v),
        ("vehColor", Value::Str(v)) => truth.color.cmp(v),
        ("fromI", Value::Str(v)) => truth.from.cmp(v),
        ("toI", Value::Str(v)) => truth.to.cmp(v),
        ("speed", Value::Float(v)) => truth
            .speed
            .partial_cmp(v)
            .ok_or_else(|| format!("speed literal {v} is not comparable"))?,
        ("speed", Value::Int(v)) => truth
            .speed
            .partial_cmp(&(*v as f64))
            .ok_or_else(|| format!("speed literal {v} is not comparable"))?,
        _ => return Err(format!("no ground truth for clause {clause}")),
    };
    use std::cmp::Ordering::*;
    Ok(match clause.op {
        CompareOp::Eq => ordering == Equal,
        CompareOp::Ne => ordering != Equal,
        CompareOp::Lt => ordering == Less,
        CompareOp::Le => ordering != Greater,
        CompareOp::Gt => ordering == Greater,
        CompareOp::Ge => ordering != Less,
    })
}

/// Frame ids in `frames` whose truth satisfies `predicate`.
pub fn true_set(
    predicate: &Predicate,
    dataset: &TrafficDataset,
    frames: std::ops::Range<usize>,
) -> Result<BTreeSet<i64>, String> {
    let mut out = BTreeSet::new();
    for frame in frames {
        if holds(predicate, dataset.truth(frame))? {
            out.insert(frame as i64);
        }
    }
    Ok(out)
}

/// `|returned ∩ truth| / |truth|`; `None` when the true answer is empty.
pub fn recall(returned: &BTreeSet<i64>, truth: &BTreeSet<i64>) -> Option<f64> {
    if truth.is_empty() {
        return None;
    }
    let hit = returned.intersection(truth).count();
    Some(hit as f64 / truth.len() as f64)
}

/// Per-row unit costs of every operator a TRAF plan can contain, known
/// to the benchmark independently of the cost meter.
#[derive(Debug, Clone)]
pub struct UnitCosts {
    /// Per decoded row of a scan.
    pub scan: f64,
    /// Per input row of the residual `Select`.
    pub select: f64,
    /// Per input row of each UDF, by processor name.
    pub udfs: Vec<(String, f64)>,
}

impl UnitCosts {
    /// The charge of the PP-free plan over `rows` rows applying `udfs`:
    /// `N·(scan + Σ udf + select)`.
    pub fn nop_charge(&self, rows: usize, udfs: &[impl AsRef<str>]) -> Result<f64, String> {
        let mut per_row = self.scan + self.select;
        for name in udfs {
            per_row += self.udf(name.as_ref())?;
        }
        Ok(rows as f64 * per_row)
    }

    fn udf(&self, name: &str) -> Result<f64, String> {
        self.udfs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .ok_or_else(|| format!("no unit cost for UDF {name}"))
    }

    /// Recomputes a run's charge as `Σ rows × per-row cost` over its
    /// operator spans. `pp` names the plan's injected PP filter operator
    /// and its per-row cost, when the plan has one. A scan is charged for
    /// the rows it decoded (`rows_in` less pruned rows); every other
    /// operator for its `rows_in`.
    pub fn recompute(&self, spans: &[OpRows<'_>], pp: Option<(&str, f64)>) -> Result<f64, String> {
        let mut total = 0.0;
        for span in spans {
            let op = span.op;
            let (rows, unit) = if op.starts_with("Scan[") {
                (span.rows_in - span.rows_filtered, self.scan)
            } else if op.starts_with("Select[") {
                (span.rows_in, self.select)
            } else if let Some(name) = op
                .strip_prefix("Process[")
                .and_then(|s| s.strip_suffix(']'))
            {
                (span.rows_in, self.udf(name)?)
            } else {
                match pp {
                    Some((filter, cost)) if filter == op => (span.rows_in, cost),
                    _ => return Err(format!("unexpected operator {op}")),
                }
            };
            total += rows as f64 * unit;
        }
        Ok(total)
    }
}

/// The row counts of one operator span that its charge depends on.
#[derive(Debug, Clone, Copy)]
pub struct OpRows<'a> {
    /// Operator display name.
    pub op: &'a str,
    /// Input rows.
    pub rows_in: u64,
    /// Input rows dropped (for a scan: rows in pruned groups).
    pub rows_filtered: u64,
}

impl<'a> From<&'a OperatorSpan> for OpRows<'a> {
    fn from(span: &'a OperatorSpan) -> Self {
        OpRows {
            op: &span.op,
            rows_in: span.rows_in,
            rows_filtered: span.rows_filtered,
        }
    }
}

/// Whether two charges agree up to float summation order.
pub fn same_charge(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(veh_type: &'static str, color: &'static str, speed: f64) -> FrameTruth {
        FrameTruth {
            veh_type,
            color,
            speed,
            from: "pt101",
            to: "pt211",
        }
    }

    fn c(col: &str, op: CompareOp, v: impl Into<Value>) -> Predicate {
        Predicate::from(Clause::new(col, op, v))
    }

    #[test]
    fn oracle_evaluates_a_hand_built_case() {
        let frames = [
            truth("SUV", "red", 70.0),
            truth("SUV", "black", 40.0),
            truth("sedan", "red", 65.0),
            truth("van", "white", 30.0),
        ];
        let pred = Predicate::And(vec![
            Predicate::or(
                c("vehType", CompareOp::Eq, "SUV"),
                c("vehColor", CompareOp::Eq, "red"),
            ),
            c("speed", CompareOp::Gt, 60.0),
        ]);
        let got: Vec<bool> = frames.iter().map(|t| holds(&pred, t).unwrap()).collect();
        assert_eq!(got, [true, false, true, false]);
        let ne = c("vehColor", CompareOp::Ne, "white");
        assert!(holds(&ne, &frames[0]).unwrap());
        assert!(!holds(&ne, &frames[3]).unwrap());
        // Boundaries: `>=` / `<=` include the literal, `<` / `>` do not.
        assert!(holds(&c("speed", CompareOp::Ge, 65.0), &frames[2]).unwrap());
        assert!(!holds(&c("speed", CompareOp::Gt, 65.0), &frames[2]).unwrap());
        assert!(holds(&c("speed", CompareOp::Le, 30i64), &frames[3]).unwrap());
        assert!(holds(&Predicate::not(ne), &frames[3]).unwrap());
        assert!(holds(&c("cameraID", CompareOp::Eq, 1i64), &frames[0]).is_err());
        assert!(holds(&c("speed", CompareOp::Eq, "fast"), &frames[0]).is_err());
    }

    #[test]
    fn recall_on_a_hand_built_case() {
        let truth: BTreeSet<i64> = [1, 2, 3, 4].into();
        let returned: BTreeSet<i64> = [2, 3, 4, 9].into();
        assert_eq!(recall(&returned, &truth), Some(0.75));
        assert_eq!(recall(&truth, &truth), Some(1.0));
        assert_eq!(recall(&BTreeSet::new(), &truth), Some(0.0));
        assert_eq!(recall(&returned, &BTreeSet::new()), None);
    }

    fn span(op: &str, rows_in: u64, rows_filtered: u64) -> OpRows<'_> {
        OpRows {
            op,
            rows_in,
            rows_filtered,
        }
    }

    #[test]
    fn cost_recomputation_on_a_toy_plan() {
        let units = UnitCosts {
            scan: 1e-7,
            select: 1e-6,
            udfs: vec![
                ("VehTypeClassifier".into(), 0.025),
                ("SpeedEstimator".into(), 0.03),
            ],
        };
        // Scan 1000 rows (200 pruned) → PP keeps 100 → two UDFs → Select.
        let spans = [
            span("Scan[traffic]", 1000, 200),
            span("PP[vehType = SUV]", 800, 700),
            span("Process[VehTypeClassifier]", 100, 0),
            span("Process[SpeedEstimator]", 100, 0),
            span("Select[(vehType = SUV) AND (speed > 60)]", 100, 60),
        ];
        let got = units
            .recompute(&spans, Some(("PP[vehType = SUV]", 2.5e-3)))
            .unwrap();
        let want = 800.0 * 1e-7 + 800.0 * 2.5e-3 + 100.0 * 0.025 + 100.0 * 0.03 + 100.0 * 1e-6;
        assert!(same_charge(got, want), "{got} vs {want}");
        // An operator the benchmark has no unit cost for is an error.
        assert!(units.recompute(&spans, None).is_err());
        assert!(units
            .recompute(&[span("Process[Mystery]", 1, 0)], None)
            .is_err());
        // The PP-free closed form.
        let nop = units
            .nop_charge(1000, &["VehTypeClassifier", "SpeedEstimator"])
            .unwrap();
        assert!(same_charge(nop, 1000.0 * (1e-7 + 1e-6 + 0.025 + 0.03)));
        assert!(!same_charge(nop, nop * (1.0 + 1e-6)));
    }
}
