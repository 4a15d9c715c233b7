//! The browser's HTTP connection-pool policy.
//!
//! Chrome 23 — the paper's client — opens up to **6 parallel persistent
//! connections per domain** with a cap of **32 across all domains**; a
//! request waits when its domain is saturated. This module is the pure
//! bookkeeping: which connection serves which domain, which are idle, and
//! when a new one may be opened.

use serde::Serialize;

/// Pool limits (Chrome defaults from the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PoolConfig {
    /// Maximum concurrent connections per domain.
    pub per_domain: usize,
    /// Maximum concurrent connections across all domains.
    pub total: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            per_domain: 6,
            total: 32,
        }
    }
}

/// Pool-assigned connection identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct PoolConnId(pub u64);

/// The outcome of asking for a connection slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Acquire {
    /// Reuse this idle persistent connection (now marked busy).
    Reuse(PoolConnId),
    /// Open a new connection with this id (now counted and busy).
    Open(PoolConnId),
    /// Domain and/or global limits are saturated; try again on release.
    Blocked,
}

#[derive(Debug)]
struct ConnInfo<K> {
    domain: K,
    busy: bool,
    /// Monotone counter value at last use (for LRU eviction).
    last_used: u64,
}

/// Connection pool bookkeeping, keyed by whatever the caller names a
/// domain with.
///
/// The pool compares keys and nothing else, so the testbed interns each
/// domain string once per run and hands the pool the resulting integer
/// id: no call here looks at a name. Any `Copy + Eq` key works.
///
/// Storage is a flat `Vec` rather than a map: the pool holds at most
/// [`PoolConfig::total`] (32) entries and the browser re-runs
/// `acquire` for every still-blocked ready object on every unblocking
/// event, so a cache-friendly linear scan beats hashing. Selection by
/// `last_used` is order-independent because the use counter is strictly
/// monotone (no ties), so scan order cannot change which connection is
/// reused or evicted.
#[derive(Debug)]
pub struct ConnectionPool<K> {
    cfg: PoolConfig,
    conns: Vec<(PoolConnId, ConnInfo<K>)>,
    next_id: u64,
    use_counter: u64,
    /// Bumped by every call that can change what a later
    /// [`ConnectionPool::acquire`] answers (acquire, release, remove,
    /// evict). A caller whose last sweep assigned nothing may skip
    /// re-running it while this is unchanged.
    version: u64,
}

impl<K: Copy + Eq> ConnectionPool<K> {
    /// An empty pool.
    pub fn new(cfg: PoolConfig) -> ConnectionPool<K> {
        ConnectionPool {
            cfg,
            conns: Vec::new(),
            next_id: 0,
            use_counter: 0,
            version: 0,
        }
    }

    /// Changes whenever the pool's answer to `acquire` may have changed.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Would [`ConnectionPool::acquire`] answer `Open` for `domain` right
    /// now — no idle connection to reuse, and both limits have room?
    /// Mutates nothing, so a caller that would only hand the slot straight
    /// back (a throttled connection attempt) can ask first and account for
    /// the id with [`ConnectionPool::skip_ids`] instead.
    pub fn would_open(&self, domain: K) -> bool {
        if self.conns.len() >= self.cfg.total {
            return false;
        }
        let mut open = 0;
        for (_, c) in &self.conns {
            if c.domain == domain {
                if !c.busy {
                    return false;
                }
                open += 1;
            }
        }
        open < self.cfg.per_domain
    }

    /// Advance the id counter past `n` ids without opening anything: the
    /// ids an `acquire` → `Open` → `remove` cycle would have consumed.
    /// Connection labels are derived from ids, so a caller that declines
    /// `n` opens up front must still burn them to keep later ids the same.
    pub fn skip_ids(&mut self, n: u64) {
        self.next_id += n;
    }

    /// Ask for a slot to `domain`. Prefers an idle persistent connection;
    /// opens a new one within limits; otherwise reports `Blocked` (the
    /// caller may [`ConnectionPool::evict_idle`] to make room globally).
    pub fn acquire(&mut self, domain: K) -> Acquire {
        self.use_counter += 1;
        // Reuse the most-recently-used idle connection to this domain
        // (warm cwnd beats cold).
        let mut open = 0;
        let mut best = None;
        let mut best_used = 0;
        for (i, (_, c)) in self.conns.iter().enumerate() {
            if c.domain != domain {
                continue;
            }
            open += 1;
            if !c.busy && (best.is_none() || c.last_used > best_used) {
                best = Some(i);
                best_used = c.last_used;
            }
        }
        if let Some(i) = best {
            let (id, info) = &mut self.conns[i];
            info.busy = true;
            info.last_used = self.use_counter;
            self.version += 1;
            return Acquire::Reuse(*id);
        }
        if open >= self.cfg.per_domain || self.conns.len() >= self.cfg.total {
            return Acquire::Blocked;
        }
        let id = PoolConnId(self.next_id);
        self.next_id += 1;
        self.version += 1;
        self.conns.push((
            id,
            ConnInfo {
                domain,
                busy: true,
                last_used: self.use_counter,
            },
        ));
        Acquire::Open(id)
    }

    /// A request on `id` completed; the connection is idle and reusable.
    pub fn release(&mut self, id: PoolConnId) {
        self.version += 1;
        if let Some((_, c)) = self.conns.iter_mut().find(|(cid, _)| *cid == id) {
            c.busy = false;
        }
    }

    /// The connection was closed (by either side); forget it.
    pub fn remove(&mut self, id: PoolConnId) {
        self.version += 1;
        if let Some(i) = self.conns.iter().position(|(cid, _)| *cid == id) {
            self.conns.remove(i);
        }
    }

    /// Least-recently-used idle connection across all domains, for
    /// eviction when the global cap blocks a new domain.
    pub fn evict_idle(&mut self) -> Option<PoolConnId> {
        let mut best = None;
        let mut best_used = u64::MAX;
        for (i, (_, c)) in self.conns.iter().enumerate() {
            if !c.busy && c.last_used < best_used {
                best = Some(i);
                best_used = c.last_used;
            }
        }
        let i = best?;
        self.version += 1;
        Some(self.conns.remove(i).0)
    }

    /// True when the global cap is reached.
    pub fn at_global_cap(&self) -> bool {
        self.conns.len() >= self.cfg.total
    }

    /// Open (busy or idle) connections to `domain`.
    pub fn count_for_domain(&self, domain: K) -> usize {
        self.conns
            .iter()
            .filter(|(_, c)| c.domain == domain)
            .count()
    }

    /// All connections currently open.
    pub fn total(&self) -> usize {
        self.conns.len()
    }

    /// Busy connections currently serving requests.
    pub fn busy(&self) -> usize {
        self.conns.iter().filter(|(_, c)| c.busy).count()
    }

    /// The domain a connection serves.
    pub fn domain_of(&self, id: PoolConnId) -> Option<K> {
        self.conns
            .iter()
            .find(|(cid, _)| *cid == id)
            .map(|(_, c)| c.domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys are whatever the caller interned its domains to.
    const A: u32 = 100;
    const B: u32 = 101;
    const C: u32 = 102;
    const LATE: u32 = 103;

    fn pool() -> ConnectionPool<u32> {
        ConnectionPool::new(PoolConfig::default())
    }

    #[test]
    fn opens_up_to_six_per_domain() {
        let mut p = pool();
        for i in 0..6 {
            match p.acquire(A) {
                Acquire::Open(id) => assert_eq!(id.0, i),
                other => panic!("expected Open, got {other:?}"),
            }
        }
        assert_eq!(p.acquire(A), Acquire::Blocked);
        assert_eq!(p.count_for_domain(A), 6);
    }

    #[test]
    fn release_enables_reuse() {
        let mut p = pool();
        let id = match p.acquire(A) {
            Acquire::Open(id) => id,
            _ => unreachable!(),
        };
        p.release(id);
        assert_eq!(p.acquire(A), Acquire::Reuse(id));
    }

    #[test]
    fn global_cap_of_32() {
        let mut p = pool();
        // 6 domains × 5 connections = 30, then 2 more on a 7th domain.
        for d in 0..6 {
            for _ in 0..5 {
                assert!(matches!(p.acquire(d), Acquire::Open(_)));
            }
        }
        assert!(matches!(p.acquire(LATE), Acquire::Open(_)));
        assert!(matches!(p.acquire(LATE), Acquire::Open(_)));
        assert_eq!(p.total(), 32);
        assert!(p.at_global_cap());
        assert_eq!(p.acquire(LATE + 1), Acquire::Blocked);
    }

    #[test]
    fn eviction_frees_global_capacity() {
        let mut p = pool();
        let mut first = None;
        for d in 0..32 {
            match p.acquire(d) {
                Acquire::Open(id) => {
                    if first.is_none() {
                        first = Some(id);
                    }
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(p.acquire(LATE), Acquire::Blocked);
        // Nothing idle yet → no eviction possible.
        assert_eq!(p.evict_idle(), None);
        p.release(first.unwrap());
        assert_eq!(p.evict_idle(), Some(first.unwrap()));
        assert!(matches!(p.acquire(LATE), Acquire::Open(_)));
    }

    #[test]
    fn removal_forgets_connection() {
        let mut p = pool();
        let id = match p.acquire(A) {
            Acquire::Open(id) => id,
            _ => unreachable!(),
        };
        p.remove(id);
        assert_eq!(p.total(), 0);
        assert!(matches!(p.acquire(A), Acquire::Open(_)));
    }

    #[test]
    fn reuse_prefers_most_recently_used() {
        let mut p = pool();
        let a = match p.acquire(A) {
            Acquire::Open(id) => id,
            _ => unreachable!(),
        };
        let b = match p.acquire(A) {
            Acquire::Open(id) => id,
            _ => unreachable!(),
        };
        p.release(a);
        p.release(b); // b used more recently
        assert_eq!(p.acquire(A), Acquire::Reuse(b));
    }

    #[test]
    fn domains_do_not_interfere_below_cap() {
        let mut p = pool();
        for _ in 0..6 {
            p.acquire(A);
        }
        assert!(matches!(p.acquire(B), Acquire::Open(_)));
    }

    #[test]
    fn domain_of_reports() {
        let mut p = pool();
        let id = match p.acquire(A) {
            Acquire::Open(id) => id,
            _ => unreachable!(),
        };
        assert_eq!(p.domain_of(id), Some(A));
        assert_eq!(p.domain_of(PoolConnId(id.0 + 1)), None);
        assert_eq!(p.busy(), 1);
    }

    fn open(p: &mut ConnectionPool<u32>, domain: u32) -> PoolConnId {
        match p.acquire(domain) {
            Acquire::Open(id) => id,
            other => panic!("expected Open, got {other:?}"),
        }
    }

    #[test]
    fn would_open_predicts_acquire_without_touching_the_pool() {
        let mut p = pool();
        assert!(p.would_open(A), "unknown domain, empty pool");
        let ids: Vec<_> = (0..6).map(|_| open(&mut p, A)).collect();
        let version = p.version();
        assert!(!p.would_open(A), "per-domain cap");
        assert!(p.would_open(B));
        p.release(ids[2]);
        assert!(!p.would_open(A), "an idle connection is reused");
        assert_eq!(p.acquire(A), Acquire::Reuse(ids[2]));
        for d in 0..26 {
            open(&mut p, d);
        }
        assert!(!p.would_open(LATE), "global cap");
        assert_eq!(p.acquire(LATE), Acquire::Blocked);
        assert!(p.version() > version, "real changes move the version");
        let version = p.version();
        p.would_open(LATE);
        p.skip_ids(3);
        assert_eq!(p.acquire(LATE), Acquire::Blocked);
        assert_eq!(p.version(), version, "queries, skips and Blocked do not");
    }

    /// `skip_ids` after `would_open` stands in for the acquire → `Open` →
    /// `remove` cycle of a throttled connection attempt: the ids handed
    /// out afterwards, and which connection is reused or evicted, must
    /// not depend on which of the two a caller used.
    #[test]
    fn skipping_ids_equals_the_acquire_remove_cycle() {
        fn throttle(
            cycled: &mut ConnectionPool<u32>,
            skipped: &mut ConnectionPool<u32>,
            domain: u32,
        ) {
            let id = open(cycled, domain);
            cycled.remove(id);
            assert!(skipped.would_open(domain));
            skipped.skip_ids(1);
        }
        let mut cycled = pool();
        let mut skipped = pool();
        for domain in [A, B, A] {
            throttle(&mut cycled, &mut skipped, domain);
        }
        let a0 = open(&mut cycled, A);
        assert_eq!(open(&mut skipped, A), a0);
        assert_eq!(a0, PoolConnId(3), "three attempts burned ids 0..3");
        throttle(&mut cycled, &mut skipped, B);
        let a1 = open(&mut cycled, A);
        assert_eq!(open(&mut skipped, A), a1);
        let b0 = open(&mut cycled, B);
        assert_eq!(open(&mut skipped, B), b0);
        // Use order: a0 released last, so it is the warmest for reuse
        // and b0 the least recently used for eviction — whatever number
        // of `use_counter` ticks the throttled attempts in between cost.
        for p in [&mut cycled, &mut skipped] {
            p.release(a1);
            p.release(b0);
        }
        throttle(&mut cycled, &mut skipped, C);
        throttle(&mut cycled, &mut skipped, C);
        for p in [&mut cycled, &mut skipped] {
            assert_eq!(p.acquire(A), Acquire::Reuse(a1));
            p.release(a0);
            p.release(a1);
            assert_eq!(p.acquire(A), Acquire::Reuse(a1));
            assert_eq!(p.evict_idle(), Some(a0));
            assert_eq!(p.evict_idle(), Some(b0));
            assert_eq!(p.evict_idle(), None);
        }
        assert_eq!(open(&mut cycled, C), open(&mut skipped, C));
    }
}
