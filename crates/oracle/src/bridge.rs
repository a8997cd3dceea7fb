//! Bridge from value-level [`DataSource`]s to the bit-level
//! [`dr_core::Source`] world, so oracle pipelines can read through the
//! query admission plane.
//!
//! One cell is one [`BITS_PER_VALUE`]-bit little-endian word — exactly the
//! encoding [`crate::values_to_bits`] uses and exactly one admission-plane
//! cache word, so a `CachedSource` over a [`ValueSourceBits`] fetches each
//! cell from the underlying data source **at most once** no matter how
//! many oracle nodes read it.

use crate::encode::BITS_PER_VALUE;
use crate::source::DataSource;
use dr_core::{BitArray, PeerId, Source};
use std::ops::Range;
use std::sync::Arc;

/// A [`DataSource`] viewed as an `n = cells × 64` bit array.
///
/// All reads are issued as `reader` — the bridge is meant for static
/// (non-equivocating) sources, where the reader identity is irrelevant;
/// the Download pipeline's correctness assumptions (§4 static data)
/// already require this.
#[derive(Clone)]
pub struct ValueSourceBits {
    source: Arc<dyn DataSource>,
    reader: PeerId,
}

impl ValueSourceBits {
    /// Wraps `source`, issuing reads as `reader`.
    pub fn new(source: Arc<dyn DataSource>, reader: PeerId) -> Self {
        ValueSourceBits { source, reader }
    }
}

impl std::fmt::Debug for ValueSourceBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ValueSourceBits[{} cells as {} bits]",
            self.source.cells(),
            self.len()
        )
    }
}

impl Source for ValueSourceBits {
    fn len(&self) -> usize {
        self.source.cells() * BITS_PER_VALUE
    }

    fn bit(&self, index: usize) -> bool {
        let value = self.source.read(self.reader, index / BITS_PER_VALUE);
        (value >> (index % BITS_PER_VALUE)) & 1 == 1
    }

    fn bits(&self, range: Range<usize>) -> BitArray {
        // One cell read per touched word instead of one per bit; the
        // cross-word shift mirrors `ChunkedSource::bits`.
        if range.is_empty() {
            return BitArray::zeros(0);
        }
        let w0 = range.start / 64;
        let w1 = range.end.div_ceil(64);
        let cells: Vec<u64> = (w0..w1).map(|w| self.source.read(self.reader, w)).collect();
        let sh = range.start % 64;
        let out_len = range.len();
        let words: Vec<u64> = (0..out_len.div_ceil(64))
            .map(|r| {
                let lo = cells[r] >> sh;
                if sh == 0 {
                    lo
                } else {
                    lo | cells.get(r + 1).copied().unwrap_or(0) << (64 - sh)
                }
            })
            .collect();
        BitArray::from_words(out_len, words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::values_to_bits;
    use crate::source::HonestSource;
    use dr_core::CachedSource;

    fn bridge(values: Vec<u64>) -> (ValueSourceBits, BitArray) {
        let reference = values_to_bits(&values);
        (
            ValueSourceBits::new(Arc::new(HonestSource::new(values)), PeerId(0)),
            reference,
        )
    }

    #[test]
    fn bridge_matches_values_to_bits() {
        let (src, reference) = bridge(vec![u64::MAX, 0, 0xdead_beef, 1 << 63]);
        assert_eq!(src.len(), 256);
        assert_eq!(Source::bits(&src, 0..256), reference);
        for range in [0..1, 63..65, 1..200, 128..256] {
            assert_eq!(
                Source::bits(&src, range.clone()),
                reference.slice(range.clone()),
                "range {range:?}"
            );
        }
        // Per-bit path agrees with the word path.
        for i in (0..256).step_by(7) {
            assert_eq!(src.bit(i), reference.get(i));
        }
    }

    #[test]
    fn cached_bridge_reads_each_cell_once() {
        let (src, reference) = bridge((0..32).map(|i| i * 31 + 7).collect());
        let cache = CachedSource::new(src, 4);
        // Many overlapping reads, as k peers would issue.
        for _ in 0..5 {
            assert_eq!(Source::bits(&cache, 0..2048), reference);
            assert_eq!(Source::bits(&cache, 512..1536), reference.slice(512..1536));
        }
        assert_eq!(cache.stats().upstream_bits, 2048);
    }
}
