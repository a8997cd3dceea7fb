//! Dynamic data: the open problem at the end of §4, demonstrated.
//!
//! The Download protocols assume the source is *static*: "for two honest
//! peers, if both issue the same query, they get the same result". Real
//! oracle feeds drift. [`DriftingSource`] is a bit source whose contents
//! change after a fixed number of total queries — running any Download
//! protocol over it shows exactly why the paper leaves dynamic data open:
//! peers that query the same position at different times learn different
//! values, and their outputs (all internally consistent!) disagree with
//! each other and with any fixed snapshot.

use dr_core::{BitArray, Source};
use std::sync::atomic::{AtomicU64, Ordering};

/// A bit source that serves `before` until `drift_after` total queries
/// have been made (across all peers), then serves `after`.
///
/// This deliberately violates the DR model's static-data assumption; it
/// exists to *demonstrate* the violation's consequences, not to be used
/// under protocols that assume the model.
#[derive(Debug)]
pub struct DriftingSource {
    before: BitArray,
    after: BitArray,
    drift_after: u64,
    served: AtomicU64,
}

impl DriftingSource {
    /// Creates a source that drifts from `before` to `after` once
    /// `drift_after` queries have been served.
    ///
    /// # Panics
    ///
    /// Panics if the arrays differ in length.
    pub fn new(before: BitArray, after: BitArray, drift_after: u64) -> Self {
        assert_eq!(before.len(), after.len(), "length mismatch");
        DriftingSource {
            before,
            after,
            drift_after,
            served: AtomicU64::new(0),
        }
    }

    /// Queries served so far.
    pub fn served(&self) -> u64 {
        // dr-lint: allow(atomic-ordering): diagnostic read; no memory is published through this counter
        self.served.load(Ordering::Relaxed)
    }
}

impl Source for DriftingSource {
    fn len(&self) -> usize {
        self.before.len()
    }

    fn bit(&self, index: usize) -> bool {
        // dr-lint: allow(atomic-ordering): the cutover only needs the counter itself to be exact, not to order other memory
        let count = self.served.fetch_add(1, Ordering::Relaxed);
        if count < self.drift_after {
            self.before.get(index)
        } else {
            self.after.get(index)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_core::{FaultModel, ModelParams};
    use dr_protocols::CrashMultiDownload;
    use dr_sim::SimBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn drifting_source_changes_answers() {
        let before = BitArray::zeros(8);
        let after = BitArray::from_fn(8, |_| true);
        let s = DriftingSource::new(before, after, 3);
        assert!(!s.bit(0));
        assert!(!s.bit(0));
        assert!(!s.bit(0));
        assert!(s.bit(0)); // drifted
        assert_eq!(s.served(), 4);
    }

    #[test]
    fn download_over_drifting_data_breaks_agreement() {
        // The §4 open problem: run Algorithm 2 over a source that drifts
        // mid-execution. Every peer terminates (liveness is untouched),
        // but across seeds some peers disagree with the final snapshot or
        // with each other — the exact guarantee the static assumption
        // buys.
        let (n, k, b) = (512usize, 8usize, 2usize);
        let mut any_disagreement = false;
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let before = BitArray::random(n, &mut rng);
            let mut after = before.clone();
            for j in (0..n).step_by(7) {
                after.flip(j);
            }
            // Drift midway through phase 1, while the initial shares are
            // still being queried (later drifts can be masked by the
            // first terminator's Final broadcast re-synchronizing
            // everyone on its — pre-drift — snapshot).
            let drift_at = (n / 2) as u64;
            let params = ModelParams::builder(n, k)
                .faults(FaultModel::Crash, b)
                .build()
                .unwrap();
            let sim = SimBuilder::new(params)
                .seed(seed)
                .source(
                    DriftingSource::new(before.clone(), after.clone(), drift_at),
                    before.clone(),
                )
                .protocol(move |_| CrashMultiDownload::new(n, k, b))
                .build();
            let report = sim.run().expect("liveness is unaffected by drift");
            // Disagreement: either an output differs from the pre-drift
            // snapshot, or two outputs differ from each other.
            let outputs: Vec<&BitArray> = (0..k)
                .map(|p| report.outputs[p].as_ref().expect("terminated"))
                .collect();
            let snapshot_mismatch = outputs.iter().any(|o| **o != before);
            let peer_mismatch = outputs.windows(2).any(|w| w[0] != w[1]);
            any_disagreement |= snapshot_mismatch || peer_mismatch;
        }
        assert!(
            any_disagreement,
            "drifting data should break Download agreement in at least one seed"
        );
    }
}
