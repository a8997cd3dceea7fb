//! Deterministic crash-fault Download protocols (§2 of the paper).

mod multi;
mod owner;
mod single;

pub use multi::{CrashMultiDownload, MultiCrashMsg};
#[doc(hidden)]
pub use owner::live_partitions;
pub use owner::owner;
pub use single::{SingleCrashDownload, SingleCrashMsg};

use dr_core::{BitArray, Context, PartialArray, ProtocolMessage};

/// Queries the bits `mask` selects — bits `acc` does not know yet, as
/// [`PartialArray::unknown_mask`] or [`PartialArray::unknown_among`] give
/// them — and learns the answers: one [`Context::query_masked`] call,
/// charged and logged exactly like a `ctx.query` per selected index in
/// ascending order, and none at all if nothing is selected.
fn query_unknown<M: ProtocolMessage>(
    acc: &mut PartialArray,
    mask: &BitArray,
    ctx: &mut dyn Context<M>,
) {
    if mask.ones().next().is_none() {
        return;
    }
    let answers = ctx.query_masked(mask);
    acc.learn_masked(mask, &answers);
}
