//! The layer cost table: each layer's count times its self unit cost,
//! the predicted wall time they sum to, and the residual against the
//! measured wall time.

/// One layer's work in a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerCost {
    /// Layer name (`desim`, `netsim`, ...).
    pub layer: &'static str,
    /// What is counted (`polls`, `packets`, ...).
    pub unit: &'static str,
    /// Units of work the workload did.
    pub count: f64,
    /// Self host ns per unit.
    pub unit_ns: f64,
}

/// A layer's row: its cost and share of the measured wall time.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The layer's inputs.
    pub cost: LayerCost,
    /// `count * unit_ns`, in seconds.
    pub seconds: f64,
    /// `seconds / measured_s`.
    pub share: f64,
}

/// The table for one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// One row per layer, in input order.
    pub rows: Vec<Row>,
    /// Measured host seconds of the workload's emulations.
    pub measured_s: f64,
    /// Sum of the rows' seconds.
    pub predicted_s: f64,
    /// `measured_s - predicted_s`.
    pub residual_s: f64,
    /// `1 - sum(shares)`: the part of the wall time no layer explains.
    pub unexplained_share: f64,
}

impl Table {
    /// Build the table from per-layer costs and the measured wall time.
    pub fn new(costs: Vec<LayerCost>, measured_s: f64) -> Table {
        let rows: Vec<Row> = costs
            .into_iter()
            .map(|cost| {
                let seconds = cost.count * cost.unit_ns * 1e-9;
                Row {
                    cost,
                    seconds,
                    share: seconds / measured_s,
                }
            })
            .collect();
        let predicted_s: f64 = rows.iter().map(|r| r.seconds).sum();
        let explained: f64 = rows.iter().map(|r| r.share).sum();
        Table {
            rows,
            measured_s,
            predicted_s,
            residual_s: measured_s - predicted_s,
            unexplained_share: 1.0 - explained,
        }
    }

    /// Render as a fixed-width text table.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "layer cost table: {workload}\n{:<11} {:<12} {:>14} {:>12} {:>10} {:>7}\n",
            "layer", "unit", "count", "self ns/unit", "seconds", "share"
        );
        for r in &self.rows {
            out += &format!(
                "{:<11} {:<12} {:>14.0} {:>12.1} {:>10.4} {:>6.1}%\n",
                r.cost.layer,
                r.cost.unit,
                r.cost.count,
                r.cost.unit_ns,
                r.seconds,
                r.share * 100.0
            );
        }
        out += &format!(
            "predicted {:.4} s, measured {:.4} s, residual {:.4} s ({:.1}% unexplained)\n",
            self.predicted_s,
            self.measured_s,
            self.residual_s,
            self.unexplained_share * 100.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_residual_on_a_fixed_input() {
        let costs = vec![
            LayerCost {
                layer: "desim",
                unit: "polls",
                count: 1_000_000.0,
                unit_ns: 500.0,
            },
            LayerCost {
                layer: "netsim",
                unit: "packets",
                count: 250_000.0,
                unit_ns: 2_000.0,
            },
        ];
        let t = Table::new(costs, 2.0);
        assert!((t.rows[0].seconds - 0.5).abs() < 1e-12);
        assert!((t.rows[1].seconds - 0.5).abs() < 1e-12);
        assert!((t.rows[0].share - 0.25).abs() < 1e-12);
        assert!((t.predicted_s - 1.0).abs() < 1e-12);
        assert!((t.residual_s - 1.0).abs() < 1e-12);
        assert!((t.unexplained_share - 0.5).abs() < 1e-12);
        let text = t.render("w");
        assert!(text.contains("desim"));
        assert!(text.contains("50.0% unexplained"));
    }

    #[test]
    fn overexplained_wall_gives_a_negative_residual() {
        let costs = vec![LayerCost {
            layer: "x",
            unit: "u",
            count: 3.0,
            unit_ns: 1e9,
        }];
        let t = Table::new(costs, 2.0);
        assert!((t.residual_s + 1.0).abs() < 1e-12);
        assert!((t.unexplained_share + 0.5).abs() < 1e-12);
    }
}
