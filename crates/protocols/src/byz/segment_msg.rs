//! The message type of the randomized Byzantine protocols (§3.4).

use dr_core::{BitArray, ProtocolMessage, SegmentId};

/// A claimed value for one segment in one cycle: `⟨cycle, segment, bits⟩`.
///
/// Cycle 1 claims come from direct source queries; cycle `c ≥ 2` claims
/// (multi-cycle protocol only) are the concatenation of two determined
/// cycle-`c−1` segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMsg {
    /// Protocol cycle this claim belongs to (1-based).
    pub cycle: u32,
    /// The segment (within that cycle's segmentation) being claimed.
    pub segment: SegmentId,
    /// The claimed bits.
    pub bits: BitArray,
}

// The simulator's slab keeps each payload's sender in the padding after
// its owner count, so a slot costs no more than the payload and the count.
const _: () = assert!(
    dr_sim::slab_slot_bytes::<SegmentMsg>() == std::mem::size_of::<(Option<SegmentMsg>, u32)>()
);

impl ProtocolMessage for SegmentMsg {
    fn bit_len(&self) -> usize {
        32 + 64 + self.bits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_tracks_payload() {
        let m = SegmentMsg {
            cycle: 1,
            segment: SegmentId(0),
            bits: BitArray::zeros(100),
        };
        assert_eq!(m.bit_len(), 196);
    }
}
