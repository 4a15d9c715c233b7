//! The one hasher this crate's integer-keyed maps share.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply and a fold for `u32` keys. The maps it serves — the
/// compressor's 4-gram index, probed for every input byte, and a
/// session's stream table, probed for every frame in and out — hold keys
/// the simulation itself produced, so SipHash's flood resistance buys
/// nothing here. The fold carries the well-mixed high half into the low
/// bits the table indexes with.
#[derive(Default)]
pub(crate) struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("u32 keys hash through write_u32");
    }

    fn write_u32(&mut self, key: u32) {
        let h = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` from `u32` keys under [`FoldHasher`].
pub(crate) type U32Map<V> = HashMap<u32, V, BuildHasherDefault<FoldHasher>>;
