//! Run-level domain ids.
//!
//! A Table-1 page spreads ~128 objects over ~26 domains and a run sees
//! hundreds of distinct names, yet everything the request path does with
//! a domain — pool caps, header-set lookup, origin-pipe selection — only
//! asks whether two of them are equal. Each name is therefore interned
//! once, where it enters the run (a page's objects at visit start, a
//! proxy-parsed `Host` at fetch dispatch), and compared as an integer
//! from then on. Ids are dense in first-seen order, so they also index
//! per-domain side tables directly. They never reach an output.

use std::collections::HashMap;

/// A domain name, interned in the run's [`DomainTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DomainId(u32);

impl DomainId {
    /// Position in first-seen order: the index into per-domain tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Every domain name one run has seen.
#[derive(Default)]
pub(crate) struct DomainTable {
    ids: HashMap<String, DomainId>,
    names: Vec<String>,
}

impl DomainTable {
    /// The id of `name`, assigning the next one on first sight.
    pub fn intern(&mut self, name: &str) -> DomainId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = DomainId(u32::try_from(self.names.len()).expect("fewer than 2^32 domains"));
        self.ids.insert(name.to_owned(), id);
        self.names.push(name.to_owned());
        id
    }

    /// The name `id` was interned from.
    pub fn name(&self, id: DomainId) -> &str {
        &self.names[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_first_seen_order_and_stable() {
        let mut table = DomainTable::default();
        let a = table.intern("a.example");
        let b = table.intern("b.example");
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(table.intern("a.example"), a);
        assert_eq!(table.intern("c.example").index(), 2);
        assert_eq!(table.name(b), "b.example");
    }
}
