//! Off-chain data sources.
//!
//! The oracle model (§4) has `m` data sources, each storing an array of
//! values (stock prices, weather readings, …). Honest sources report
//! values within a bounded spread of ground truth; up to a `β_s` fraction
//! may be Byzantine — reporting arbitrary values, or even *equivocating*
//! (answering different readers differently). Reads are metered per
//! oracle node, since source reads are the expensive step the paper's
//! Download-based ODC optimizes.

use dr_core::PeerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A read-only off-chain data source of `cells` values.
pub trait DataSource: Send + Sync {
    /// Number of value cells.
    fn cells(&self) -> usize;

    /// Reads one cell. Honest sources ignore `reader`; equivocating
    /// Byzantine sources may not.
    fn read(&self, reader: PeerId, cell: usize) -> u64;

    /// Whether this source is honest (used only for evaluation — the
    /// protocols never see this).
    fn is_honest(&self) -> bool;
}

/// An honest, static source.
#[derive(Debug, Clone)]
pub struct HonestSource {
    values: Vec<u64>,
}

impl HonestSource {
    /// Creates an honest source with the given values.
    pub fn new(values: Vec<u64>) -> Self {
        HonestSource { values }
    }

    /// Borrow of the stored values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

impl DataSource for HonestSource {
    fn cells(&self) -> usize {
        self.values.len()
    }
    fn read(&self, _reader: PeerId, cell: usize) -> u64 {
        self.values[cell]
    }
    fn is_honest(&self) -> bool {
        true
    }
}

/// A Byzantine source that serves static but adversarial values —
/// consistent across readers (the static-data assumption of §4), just
/// wrong.
#[derive(Debug, Clone)]
pub struct CorruptSource {
    values: Vec<u64>,
}

impl CorruptSource {
    /// Creates a corrupt source with the given (wrong) values.
    pub fn new(values: Vec<u64>) -> Self {
        CorruptSource { values }
    }
}

impl DataSource for CorruptSource {
    fn cells(&self) -> usize {
        self.values.len()
    }
    fn read(&self, _reader: PeerId, cell: usize) -> u64 {
        self.values[cell]
    }
    fn is_honest(&self) -> bool {
        false
    }
}

/// A Byzantine source that *equivocates*: each reader sees a different
/// fabricated value. This violates the static-data assumption under which
/// the Download-based pipeline operates (the paper leaves dynamic data as
/// an open problem); it is used to stress the median aggregation of the
/// baseline pipeline.
#[derive(Debug, Clone)]
pub struct EquivocatingSource {
    cells: usize,
    salt: u64,
}

impl EquivocatingSource {
    /// Creates an equivocating source.
    pub fn new(cells: usize, salt: u64) -> Self {
        EquivocatingSource { cells, salt }
    }
}

impl DataSource for EquivocatingSource {
    fn cells(&self) -> usize {
        self.cells
    }
    fn read(&self, reader: PeerId, cell: usize) -> u64 {
        // Keyed pseudo-random garbage that depends on the reader.
        (self.salt ^ reader.index() as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(cell as u64)
    }
    fn is_honest(&self) -> bool {
        false
    }
}

/// A fleet of data sources plus the ground truth used to generate them.
///
/// Sources are held behind [`Arc`] so pipelines can hand a source to a
/// bit-level bridge ([`crate::ValueSourceBits`]) and on to the shared
/// query admission plane without cloning the data.
pub struct SourceFleet {
    sources: Vec<Arc<dyn DataSource>>,
    truth: Vec<u64>,
}

impl SourceFleet {
    /// Appends `count` equivocating sources (each answers every reader
    /// differently — the dynamic/Byzantine regime the §4 static-data
    /// assumption excludes).
    pub fn with_equivocators(mut self, count: usize, salt: u64) -> Self {
        let cells = self.cells();
        for i in 0..count {
            self.sources
                .push(Arc::new(EquivocatingSource::new(cells, salt ^ i as u64)));
        }
        self
    }

    /// Generates a fleet: `honest` sources reporting `truth ± spread`
    /// noise, and `corrupt` sources reporting adversarial extremes.
    ///
    /// # Panics
    ///
    /// Panics if no source would be honest.
    pub fn generate(
        honest: usize,
        corrupt: usize,
        cells: usize,
        truth_base: u64,
        spread: u64,
        seed: u64,
    ) -> Self {
        assert!(honest > 0, "need at least one honest source");
        let mut rng = StdRng::seed_from_u64(seed);
        let truth: Vec<u64> = (0..cells)
            .map(|_| truth_base + rng.gen_range(0..=spread))
            .collect();
        let mut sources: Vec<Arc<dyn DataSource>> = Vec::new();
        for _ in 0..honest {
            let values: Vec<u64> = truth
                .iter()
                .map(|&t| {
                    let noise = rng.gen_range(0..=spread);
                    t.saturating_add(noise).saturating_sub(spread / 2)
                })
                .collect();
            sources.push(Arc::new(HonestSource::new(values)));
        }
        for i in 0..corrupt {
            // Alternate between low-ball and high-ball manipulation.
            let values: Vec<u64> = truth
                .iter()
                .map(|&t| {
                    if i % 2 == 0 {
                        t / 100
                    } else {
                        t.saturating_mul(100)
                    }
                })
                .collect();
            sources.push(Arc::new(CorruptSource::new(values)));
        }
        SourceFleet { sources, truth }
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Number of cells per source.
    pub fn cells(&self) -> usize {
        self.sources.first().map_or(0, |s| s.cells())
    }

    /// Access to one source.
    pub fn source(&self, i: usize) -> &dyn DataSource {
        self.sources[i].as_ref()
    }

    /// Shared handle to one source (for bridging into the admission
    /// plane, see [`crate::ValueSourceBits`]).
    pub fn source_arc(&self, i: usize) -> Arc<dyn DataSource> {
        Arc::clone(&self.sources[i])
    }

    /// The generated ground truth (evaluation only).
    pub fn truth(&self) -> &[u64] {
        &self.truth
    }

    /// Per-cell honest range `[min, max]` over honest sources — the range
    /// the ODD specification requires published values to fall in.
    pub fn honest_range(&self, cell: usize) -> (u64, u64) {
        let honest: Vec<u64> = self
            .sources
            .iter()
            .filter(|s| s.is_honest())
            .map(|s| s.read(PeerId(0), cell))
            .collect();
        (
            *honest.iter().min().expect("honest source exists"),
            *honest.iter().max().expect("honest source exists"),
        )
    }
}

impl std::fmt::Debug for SourceFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SourceFleet[{} sources × {} cells]",
            self.len(),
            self.cells()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_fleet_has_expected_shape() {
        let fleet = SourceFleet::generate(5, 2, 8, 10_000, 10, 1);
        assert_eq!(fleet.len(), 7);
        assert_eq!(fleet.cells(), 8);
        assert_eq!(fleet.truth().len(), 8);
    }

    #[test]
    fn honest_sources_stay_within_spread() {
        let spread = 10;
        let fleet = SourceFleet::generate(4, 0, 16, 10_000, spread, 2);
        for c in 0..16 {
            let (lo, hi) = fleet.honest_range(c);
            assert!(hi - lo <= 2 * spread, "cell {c}: range [{lo},{hi}]");
        }
    }

    #[test]
    fn corrupt_sources_lie_wildly() {
        let fleet = SourceFleet::generate(2, 2, 4, 10_000, 5, 3);
        let (lo, hi) = fleet.honest_range(0);
        let corrupt_vals: Vec<u64> = (2..4).map(|s| fleet.source(s).read(PeerId(0), 0)).collect();
        assert!(corrupt_vals.iter().any(|&v| v < lo || v > hi));
    }

    #[test]
    fn equivocator_answers_readers_differently() {
        let s = EquivocatingSource::new(4, 9);
        assert_ne!(s.read(PeerId(0), 1), s.read(PeerId(1), 1));
        // But the same reader sees stable values (reads are repeatable).
        assert_eq!(s.read(PeerId(0), 1), s.read(PeerId(0), 1));
    }

    #[test]
    fn static_sources_are_reader_independent() {
        let fleet = SourceFleet::generate(2, 1, 4, 100, 2, 4);
        for s in 0..fleet.len() {
            for c in 0..4 {
                assert_eq!(
                    fleet.source(s).read(PeerId(0), c),
                    fleet.source(s).read(PeerId(5), c)
                );
            }
        }
    }
}
