//! The counter slots under more threads than there are private slots.
//!
//! Alone in its own test binary: the exact global delta below needs
//! every other thread of the process (here only the harness's main
//! thread, blocked on this test) to allocate nothing meanwhile.

use spdyier_prof::{global_counts, thread_counts, CountingAlloc};
use std::sync::Barrier;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Each thread allocates a known amount between two rendezvous, with one
/// more on either side while the total is read, so that nothing else a
/// thread does — spawn, join, teardown — lands inside the bracket. All
/// of them are alive at once and slots are never handed back, so at most
/// 64 can hold a private slot: the rest count through the shared
/// overflow slot, and the global sum must hold both kinds.
#[test]
fn every_thread_is_summed_including_those_past_the_slot_count() {
    const THREADS: usize = 100;
    const ALLOCS: usize = 50;
    const SIZE: usize = 4000;
    let rendezvous = Barrier::new(THREADS + 1);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    // Claim a slot before the bracket opens.
                    let _ = thread_counts();
                    rendezvous.wait(); // everyone is up
                    rendezvous.wait(); // `before` is read
                    let before = thread_counts();
                    for _ in 0..ALLOCS {
                        std::hint::black_box(Vec::<u8>::with_capacity(SIZE));
                    }
                    let mine = thread_counts().since(before);
                    rendezvous.wait(); // everyone is done
                    rendezvous.wait(); // the total is read
                    mine
                })
            })
            .collect();
        rendezvous.wait();
        let before = global_counts();
        rendezvous.wait();
        rendezvous.wait();
        let delta = global_counts().since(before);
        rendezvous.wait();
        assert_eq!(delta.allocs, (THREADS * ALLOCS) as u64);
        assert_eq!(delta.bytes, (THREADS * ALLOCS * SIZE) as u64);
        let exact = workers
            .into_iter()
            .map(|worker| worker.join().expect("worker panicked"))
            .filter(|mine| mine.allocs == ALLOCS as u64 && mine.bytes == (ALLOCS * SIZE) as u64)
            .count();
        // A private slot reads exactly its own thread's traffic.
        assert!(exact >= 60, "only {exact} thread(s) read their own counts");
    });
}
