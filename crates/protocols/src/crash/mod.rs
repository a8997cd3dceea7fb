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

/// Queries those of `indices` (ascending) that `acc` does not know yet and
/// learns the answers: one [`Context::query_masked`] call, charged and
/// logged exactly like a `ctx.query` per unknown index in that order.
fn query_unknown<M: ProtocolMessage>(
    acc: &mut PartialArray,
    indices: impl IntoIterator<Item = usize>,
    ctx: &mut dyn Context<M>,
) {
    let mut words = vec![0u64; acc.len().div_ceil(64)];
    let mut wanted = false;
    for j in indices {
        if !acc.is_known(j) {
            words[j / 64] |= 1 << (j % 64);
            wanted = true;
        }
    }
    if !wanted {
        return;
    }
    let mask = BitArray::from_words(acc.len(), words);
    let answers = ctx.query_masked(&mask);
    for w in 0..mask.word_count() {
        if mask.word(w) != 0 {
            acc.learn_word(w, mask.word(w), answers.word(w));
        }
    }
}
