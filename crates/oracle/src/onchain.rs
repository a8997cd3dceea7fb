//! The on-chain component: a minimal aggregation contract.
//!
//! The on-chain side of a blockchain oracle receives one report per oracle
//! node and publishes a final value per cell. We abstract steps (2) and
//! (3) of the oracle pipeline (agreement + publication) as the paper does:
//! the contract collects reports and publishes the per-cell median, which
//! keeps the published value in the honest range as long as strictly
//! fewer than half the reports are adversarial.

use crate::median::median;

/// A minimal on-chain aggregation contract.
#[derive(Debug)]
pub struct Contract {
    cells: usize,
    reports: Vec<Vec<u64>>,
}

impl Contract {
    /// Creates a contract expecting reports of `cells` values.
    pub fn new(cells: usize) -> Self {
        Contract {
            cells,
            reports: Vec::new(),
        }
    }

    /// Submits one node's report. Malformed reports (wrong arity) are
    /// rejected, mirroring on-chain validation.
    ///
    /// Returns `true` if the report was accepted.
    pub fn submit(&mut self, report: Vec<u64>) -> bool {
        if report.len() == self.cells {
            self.reports.push(report);
            true
        } else {
            false
        }
    }

    /// Publishes the final per-cell values (median across reports).
    ///
    /// # Panics
    ///
    /// Panics if no reports were accepted.
    pub fn publish(&self) -> Vec<u64> {
        assert!(!self.reports.is_empty(), "no reports to publish");
        (0..self.cells)
            .map(|c| {
                let col: Vec<u64> = self.reports.iter().map(|r| r[c]).collect();
                median(&col)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_malformed_reports() {
        let mut c = Contract::new(3);
        assert!(!c.submit(vec![1, 2]));
        assert!(c.submit(vec![1, 2, 3]));
        assert_eq!(c.publish(), vec![1, 2, 3]);
    }

    #[test]
    fn publishes_per_cell_median() {
        let mut c = Contract::new(2);
        c.submit(vec![10, 100]);
        c.submit(vec![20, 200]);
        c.submit(vec![30, 300]);
        assert_eq!(c.publish(), vec![20, 200]);
    }

    #[test]
    fn minority_garbage_reports_filtered() {
        let mut c = Contract::new(1);
        for _ in 0..3 {
            c.submit(vec![50]);
        }
        c.submit(vec![u64::MAX]);
        c.submit(vec![0]);
        assert_eq!(c.publish(), vec![50]);
    }

    #[test]
    #[should_panic(expected = "no reports")]
    fn empty_publish_panics() {
        Contract::new(1).publish();
    }
}
