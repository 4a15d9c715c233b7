//! Property test pitting [`ConnectionPool`], keyed by interned domain
//! ids, against the string-keyed pool it replaced: for any sequence of
//! calls the two must give the same answers, the same connection ids
//! (labels are derived from them, burned ones included), the same
//! `version()` (the assignment memo keys on it) and the same
//! connection → domain map. Which connection is reused or evicted sets
//! which congestion window a request inherits, so every golden artifact
//! depends on these choices.

use proptest::prelude::*;
use spdyier_http::{Acquire, ConnectionPool, PoolConfig, PoolConnId};

/// The pool as it was while it interned names itself: a domain is a
/// `&str`, found by a linear scan over every name seen so far.
struct OraclePool {
    cfg: PoolConfig,
    /// `(id, domain index, busy, last_used)`.
    conns: Vec<(PoolConnId, usize, bool, u64)>,
    domains: Vec<String>,
    domain_counts: Vec<usize>,
    next_id: u64,
    use_counter: u64,
    version: u64,
}

impl OraclePool {
    fn new(cfg: PoolConfig) -> OraclePool {
        OraclePool {
            cfg,
            conns: Vec::new(),
            domains: Vec::new(),
            domain_counts: Vec::new(),
            next_id: 0,
            use_counter: 0,
            version: 0,
        }
    }

    fn would_open(&self, domain: &str) -> bool {
        let ix = self.domains.iter().position(|d| d == domain);
        ix.map_or(0, |ix| self.domain_counts[ix]) < self.cfg.per_domain
            && self.conns.len() < self.cfg.total
            && !self
                .conns
                .iter()
                .any(|&(_, d, busy, _)| Some(d) == ix && !busy)
    }

    fn skip_ids(&mut self, n: u64) {
        self.next_id += n;
    }

    fn intern(&mut self, domain: &str) -> usize {
        match self.domains.iter().position(|d| d == domain) {
            Some(i) => i,
            None => {
                self.domains.push(domain.to_owned());
                self.domain_counts.push(0);
                self.domains.len() - 1
            }
        }
    }

    fn acquire(&mut self, domain: &str) -> Acquire {
        self.use_counter += 1;
        let ix = self.intern(domain);
        let mut best = None;
        let mut best_used = 0;
        for (i, &(_, d, busy, last_used)) in self.conns.iter().enumerate() {
            if d == ix && !busy && (best.is_none() || last_used > best_used) {
                best = Some(i);
                best_used = last_used;
            }
        }
        if let Some(i) = best {
            let conn = &mut self.conns[i];
            conn.2 = true;
            conn.3 = self.use_counter;
            self.version += 1;
            return Acquire::Reuse(conn.0);
        }
        if self.domain_counts[ix] >= self.cfg.per_domain || self.conns.len() >= self.cfg.total {
            return Acquire::Blocked;
        }
        let id = PoolConnId(self.next_id);
        self.next_id += 1;
        self.version += 1;
        self.domain_counts[ix] += 1;
        self.conns.push((id, ix, true, self.use_counter));
        Acquire::Open(id)
    }

    fn release(&mut self, id: PoolConnId) {
        self.version += 1;
        if let Some(conn) = self.conns.iter_mut().find(|c| c.0 == id) {
            conn.2 = false;
        }
    }

    fn remove(&mut self, id: PoolConnId) {
        self.version += 1;
        if let Some(i) = self.conns.iter().position(|c| c.0 == id) {
            let conn = self.conns.remove(i);
            self.domain_counts[conn.1] -= 1;
        }
    }

    fn evict_idle(&mut self) -> Option<PoolConnId> {
        let mut best = None;
        let mut best_used = u64::MAX;
        for (i, &(_, _, busy, last_used)) in self.conns.iter().enumerate() {
            if !busy && last_used < best_used {
                best = Some(i);
                best_used = last_used;
            }
        }
        let i = best?;
        self.version += 1;
        let conn = self.conns.remove(i);
        self.domain_counts[conn.1] -= 1;
        Some(conn.0)
    }

    fn count_for_domain(&self, domain: &str) -> usize {
        match self.domains.iter().position(|d| d == domain) {
            Some(ix) => self.domain_counts[ix],
            None => 0,
        }
    }

    fn busy(&self) -> usize {
        self.conns.iter().filter(|c| c.2).count()
    }

    fn domain_of(&self, id: PoolConnId) -> Option<&str> {
        self.conns
            .iter()
            .find(|c| c.0 == id)
            .map(|c| self.domains[c.1].as_str())
    }
}

/// More domains than the global cap has slots.
const DOMAINS: u64 = 48;

/// The domain an op names: half the draws land on three hot domains so
/// the per-domain cap binds, the rest spread over all of them so the
/// global cap does.
fn domain(x: u64) -> u32 {
    let x = x >> 8;
    if x.is_multiple_of(2) {
        (x / 2 % 3) as u32
    } else {
        (x / 2 % DOMAINS) as u32
    }
}

fn name(domain: u32) -> String {
    format!("cdn{domain}.site.example")
}

/// Apply `ops` to both pools, comparing every answer and, after every
/// call, everything a caller can observe.
fn assert_pools_agree(cfg: PoolConfig, ops: &[(u8, u64)]) -> Result<(), String> {
    let mut pool: ConnectionPool<u32> = ConnectionPool::new(cfg);
    let mut oracle = OraclePool::new(cfg);
    // Every id either pool has handed out, closed ones included.
    let mut ids: Vec<PoolConnId> = Vec::new();
    for (step, &(op, x)) in ops.iter().enumerate() {
        let d = domain(x);
        let pick = |ids: &[PoolConnId]| match ids.len() {
            // Nothing opened yet: an id neither pool knows.
            0 => PoolConnId(x),
            n => ids[(x >> 8) as usize % n],
        };
        let (got, want) = match op % 8 {
            0..=2 => {
                let got = pool.acquire(d);
                if let Acquire::Open(id) = got {
                    ids.push(id);
                }
                (
                    format!("{got:?}"),
                    format!("{:?}", oracle.acquire(&name(d))),
                )
            }
            3 => (
                pool.would_open(d).to_string(),
                oracle.would_open(&name(d)).to_string(),
            ),
            4 => {
                pool.skip_ids(x % 3);
                oracle.skip_ids(x % 3);
                (String::new(), String::new())
            }
            5 => {
                let id = pick(&ids);
                pool.release(id);
                oracle.release(id);
                (String::new(), String::new())
            }
            6 => {
                let id = pick(&ids);
                pool.remove(id);
                oracle.remove(id);
                (String::new(), String::new())
            }
            _ => (
                format!("{:?}", pool.evict_idle()),
                format!("{:?}", oracle.evict_idle()),
            ),
        };
        if got != want {
            return Err(format!(
                "step {step} (op {op}, domain {d}): {got} vs {want}"
            ));
        }
        let seen = (
            pool.version(),
            pool.total(),
            pool.busy(),
            pool.count_for_domain(d),
            pool.would_open(d),
        );
        let expected = (
            oracle.version,
            oracle.conns.len(),
            oracle.busy(),
            oracle.count_for_domain(&name(d)),
            oracle.would_open(&name(d)),
        );
        if seen != expected {
            return Err(format!("step {step} (op {op}): {seen:?} vs {expected:?}"));
        }
        for &id in &ids {
            let got = pool.domain_of(id).map(name);
            if got.as_deref() != oracle.domain_of(id) {
                return Err(format!("step {step}: domain_of({id:?}) = {got:?}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chrome's limits: 6 per domain, 32 in all.
    #[test]
    fn id_keyed_pool_matches_string_keyed_oracle(
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 50..400)
    ) {
        if let Err(e) = assert_pools_agree(PoolConfig::default(), &ops) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Tight limits, so most acquires meet one cap or the other.
    #[test]
    fn id_keyed_pool_matches_oracle_under_tight_caps(
        ops in prop::collection::vec((any::<u8>(), any::<u64>()), 50..400)
    ) {
        let cfg = PoolConfig { per_domain: 2, total: 7 };
        if let Err(e) = assert_pools_agree(cfg, &ops) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// The generated sessions do reach both caps and both idle choices, so
/// agreement above is agreement about them.
#[test]
fn a_fixed_session_meets_both_caps_and_both_lru_choices() {
    let cfg = PoolConfig::default();
    let mut pool: ConnectionPool<u32> = ConnectionPool::new(cfg);
    let mut opened = Vec::new();
    for d in 0..DOMAINS as u32 {
        match pool.acquire(d) {
            Acquire::Open(id) => opened.push(id),
            Acquire::Blocked => assert!(pool.at_global_cap()),
            Acquire::Reuse(_) => unreachable!("nothing was released"),
        }
    }
    assert_eq!(opened.len(), cfg.total);
    pool.release(opened[3]);
    pool.release(opened[1]);
    assert_eq!(pool.evict_idle(), Some(opened[1]), "least recently used");
    for _ in 0..cfg.per_domain - 1 {
        pool.remove(opened.pop().expect("an open connection"));
    }
    let hot: Vec<_> = (1..cfg.per_domain).map(|_| pool.acquire(0)).collect();
    assert!(hot.iter().all(|a| matches!(a, Acquire::Open(_))), "{hot:?}");
    assert_eq!(pool.acquire(0), Acquire::Blocked, "per-domain cap");
    assert!(!pool.at_global_cap());
}
