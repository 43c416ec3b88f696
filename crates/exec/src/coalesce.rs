//! Cross-caller query coalescing: a rendezvous that turns concurrent
//! single-query calls into one batched invocation.
//!
//! The batch engines ([`cache_aware` kernels in `milvus-index`]) amortize
//! each streamed data row across a ×4 tile of resident queries, but only
//! when queries arrive *as a batch*. The [`Coalescer`] makes concurrency
//! itself produce those batches:
//!
//! * **Zero-added-latency passthrough.** A submitter that finds the
//!   coalescer idle (no batch running, nothing queued) claims a token and
//!   runs the serial path itself — no queue round-trip, no added latency
//!   floor for sparse traffic.
//! * **Batch whatever queued behind the running pass.** Submitters that
//!   arrive while the token is held (or while others are queued) enqueue.
//!   As soon as the token frees, the queue head becomes the *leader*,
//!   drains up to `max_batch` entries, and runs the caller's batch closure
//!   on its own thread. No timer holds a query back: the batch is exactly
//!   what arrived while the previous pass or batch ran, so its size tracks
//!   load. Followers block on a condvar and are handed their demultiplexed
//!   result.
//!
//! The closure is supplied per-submit (every caller passes the same logic;
//! whoever leads uses theirs), must return exactly one result per query in
//! input order, and must not panic — batch execution failures belong in the
//! result type `R`, not in unwinding, because followers are parked until
//! the leader scatters.
//!
//! This type is deliberately generic over `(Q, R)` and free of any
//! executor/search dependency: `milvus-core` wraps it per collection and
//! `milvus-distributed` per reader node.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Tuning for one [`Coalescer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceConfig {
    /// The cap on how many queued entries one leader drains.
    pub max_batch: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig { max_batch: 32 }
    }
}

struct Pending<Q> {
    id: u64,
    query: Q,
}

/// A follower's delivered result: the value plus batch metadata for
/// metrics.
struct Delivered<R> {
    result: R,
    batch: usize,
    /// When the leader started executing the batch — the end of this
    /// query's coalesce wait.
    batch_started: Instant,
}

struct State<Q, R> {
    queue: VecDeque<Pending<Q>>,
    results: HashMap<u64, Delivered<R>>,
    next_id: u64,
    /// Execution token: true while a passthrough caller or a batch leader
    /// is running. At most one executes at a time; everyone else queues.
    busy: bool,
}

/// What [`Coalescer::submit`] decided for this caller.
pub enum Submitted<'a, Q, R> {
    /// The coalescer was idle: run the serial path yourself, then drop the
    /// guard to release the execution token.
    Pass(PassGuard<'a, Q, R>),
    /// The query ran inside a coalesced batch.
    Coalesced {
        /// This caller's demultiplexed result.
        result: R,
        /// Number of queries in the batch.
        batch: usize,
        /// True when this caller was the leader that executed the batch
        /// (exactly one per batch — the hook for batch-level metrics).
        led: bool,
        /// Time this query was queued before its batch ran.
        waited: Duration,
    },
}

/// RAII execution token for the passthrough path; dropping it (even during
/// unwind) releases the coalescer and wakes any queued submitters.
pub struct PassGuard<'a, Q, R> {
    co: &'a Coalescer<Q, R>,
}

impl<Q, R> Drop for PassGuard<'_, Q, R> {
    fn drop(&mut self) {
        let mut st = self.co.inner.lock();
        st.busy = false;
        drop(st);
        self.co.cv.notify_all();
    }
}

/// The rendezvous point. One per collection (or per reader node); cheap
/// when idle — a single uncontended lock acquisition per submit.
pub struct Coalescer<Q, R> {
    cfg: CoalesceConfig,
    inner: Mutex<State<Q, R>>,
    cv: Condvar,
}

impl<Q, R> Coalescer<Q, R> {
    /// Build a coalescer with the given batch bound.
    pub fn new(cfg: CoalesceConfig) -> Self {
        Coalescer {
            cfg: CoalesceConfig { max_batch: cfg.max_batch.max(1) },
            inner: Mutex::new(State {
                queue: VecDeque::new(),
                results: HashMap::new(),
                next_id: 0,
                busy: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> CoalesceConfig {
        self.cfg
    }

    /// Queries currently queued (diagnostics/tests).
    pub fn pending(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Submit one query. Returns immediately with
    /// [`Submitted::Pass`] when idle; otherwise blocks until the query's
    /// batch has run and returns [`Submitted::Coalesced`].
    ///
    /// `run` receives the drained batch in queue order and must return one
    /// result per query, same order. It is invoked by exactly one caller
    /// per batch (the leader), on that caller's thread, with the coalescer
    /// lock released. It must not panic.
    pub fn submit<F>(&self, query: Q, run: F) -> Submitted<'_, Q, R>
    where
        F: FnOnce(Vec<Q>) -> Vec<R>,
    {
        let mut st = self.inner.lock();
        if !st.busy && st.queue.is_empty() {
            st.busy = true;
            drop(st);
            return Submitted::Pass(PassGuard { co: self });
        }
        let id = st.next_id;
        st.next_id += 1;
        let enqueued = Instant::now();
        st.queue.push_back(Pending { id, query });
        loop {
            if let Some(d) = st.results.remove(&id) {
                return Submitted::Coalesced {
                    result: d.result,
                    batch: d.batch,
                    led: false,
                    waited: d.batch_started.saturating_duration_since(enqueued),
                };
            }
            if !st.busy && st.queue.front().map(|p| p.id) == Some(id) {
                return self.lead(st, id, enqueued, run);
            }
            // Not our turn (token held, or someone ahead of us leads next).
            // Token release and batch completion both notify.
            self.cv.wait(&mut st);
        }
    }

    /// Become the leader: drain up to `max_batch`, execute, scatter results
    /// to followers, return our own.
    fn lead<F>(
        &self,
        mut st: parking_lot::MutexGuard<'_, State<Q, R>>,
        id: u64,
        enqueued: Instant,
        run: F,
    ) -> Submitted<'_, Q, R>
    where
        F: FnOnce(Vec<Q>) -> Vec<R>,
    {
        st.busy = true;
        let n = st.queue.len().min(self.cfg.max_batch);
        let drained: Vec<Pending<Q>> = st.queue.drain(..n).collect();
        drop(st);
        let mut ids = Vec::with_capacity(n);
        let mut queries = Vec::with_capacity(n);
        for p in drained {
            ids.push(p.id);
            queries.push(p.query);
        }
        let batch_started = Instant::now();
        let results = run(queries);
        debug_assert_eq!(results.len(), ids.len(), "batch closure must map 1:1");
        let mut own = None;
        let mut st = self.inner.lock();
        for (qid, result) in ids.iter().zip(results) {
            if *qid == id {
                own = Some(result);
            } else {
                st.results.insert(
                    *qid,
                    Delivered { result, batch: n, batch_started },
                );
            }
        }
        st.busy = false;
        drop(st);
        // Wake followers to collect results, and the next head (if entries
        // remained past max_batch or arrived during the batch) to lead.
        self.cv.notify_all();
        Submitted::Coalesced {
            result: own.expect("leader's own query missing from batch results"),
            batch: n,
            led: true,
            waited: batch_started.saturating_duration_since(enqueued),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cfg(max_batch: usize) -> CoalesceConfig {
        CoalesceConfig { max_batch }
    }

    /// Serial submits always pass through — no queue.
    #[test]
    fn idle_submits_pass_through() {
        let co: Coalescer<u32, u32> = Coalescer::new(cfg(8));
        for i in 0..5u32 {
            let start = Instant::now();
            match co.submit(i, |_| unreachable!("passthrough must not batch")) {
                Submitted::Pass(_guard) => {
                    // Serial path would run here; the guard releases on drop.
                }
                Submitted::Coalesced { .. } => panic!("expected passthrough"),
            }
            assert!(start.elapsed() < Duration::from_millis(40), "passthrough waited");
            assert_eq!(co.pending(), 0);
        }
    }

    /// Queries arriving while the token is held coalesce into one batch
    /// and each gets its own demultiplexed result.
    #[test]
    fn contending_submits_coalesce_and_demux() {
        let co: Coalescer<u32, u32> = Coalescer::new(cfg(4));
        let batches = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let holder = match co.submit(99, |_| unreachable!()) {
                Submitted::Pass(g) => g,
                _ => panic!("first submit must pass"),
            };
            let workers: Vec<_> = (0..4u32)
                .map(|i| {
                    let co = &co;
                    let batches = &batches;
                    s.spawn(move || match co.submit(i, |qs| {
                        batches.fetch_add(1, Ordering::SeqCst);
                        qs.iter().map(|q| q * 10).collect()
                    }) {
                        Submitted::Coalesced { result, batch, .. } => (i, result, batch),
                        Submitted::Pass(_) => panic!("token held; must coalesce"),
                    })
                })
                .collect();
            // Wait until all four are queued; the head leads as soon as the
            // token frees and drains all of them.
            while co.pending() < 4 {
                std::thread::yield_now();
            }
            drop(holder);
            for w in workers {
                let (i, result, batch) = w.join().unwrap();
                assert_eq!(result, i * 10, "wrong result demuxed to query {i}");
                assert_eq!(batch, 4);
            }
        });
        assert_eq!(batches.load(Ordering::SeqCst), 1, "exactly one leader");
    }

    /// `max_batch` caps each leader's drain; leftovers form the next batch.
    #[test]
    fn max_batch_splits_into_multiple_batches() {
        let co: Coalescer<u32, u32> = Coalescer::new(cfg(2));
        let batches = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let holder = match co.submit(99, |_| unreachable!()) {
                Submitted::Pass(g) => g,
                _ => panic!("first submit must pass"),
            };
            let workers: Vec<_> = (0..4u32)
                .map(|i| {
                    let co = &co;
                    let batches = &batches;
                    s.spawn(move || match co.submit(i, |qs| {
                        batches.fetch_add(1, Ordering::SeqCst);
                        qs.iter().map(|q| q + 100).collect()
                    }) {
                        Submitted::Coalesced { result, batch, .. } => (i, result, batch),
                        Submitted::Pass(_) => panic!("token held; must coalesce"),
                    })
                })
                .collect();
            while co.pending() < 4 {
                std::thread::yield_now();
            }
            drop(holder);
            for w in workers {
                let (i, result, batch) = w.join().unwrap();
                assert_eq!(result, i + 100);
                assert_eq!(batch, 2, "batches must be capped at max_batch");
            }
        });
        assert_eq!(batches.load(Ordering::SeqCst), 2);
    }

    /// A lone queued query leads as soon as the token frees: far below
    /// `max_batch`, nothing holds it back.
    #[test]
    fn lone_queued_query_leads_when_the_token_frees() {
        let co: Coalescer<u32, u32> = Coalescer::new(cfg(64));
        std::thread::scope(|s| {
            let holder = match co.submit(99, |_| unreachable!()) {
                Submitted::Pass(g) => g,
                _ => panic!("first submit must pass"),
            };
            let w = s.spawn(|| match co.submit(7, |qs| qs.iter().map(|q| q * 3).collect()) {
                Submitted::Coalesced { result, batch, led, .. } => (result, batch, led),
                Submitted::Pass(_) => panic!("token held; must coalesce"),
            });
            while co.pending() < 1 {
                std::thread::yield_now();
            }
            drop(holder);
            let (result, batch, led) = w.join().unwrap();
            assert_eq!(result, 21);
            assert_eq!(batch, 1);
            assert!(led, "a singleton batch is led by its only member");
        });
    }

    /// Exactly one caller per batch reports `led` — the metrics hook.
    #[test]
    fn exactly_one_leader_per_batch() {
        let co: Coalescer<u32, u32> = Coalescer::new(cfg(3));
        std::thread::scope(|s| {
            let holder = match co.submit(99, |_| unreachable!()) {
                Submitted::Pass(g) => g,
                _ => panic!("first submit must pass"),
            };
            let workers: Vec<_> = (0..3u32)
                .map(|i| {
                    let co = &co;
                    s.spawn(move || match co.submit(i, |qs| qs.to_vec()) {
                        Submitted::Coalesced { led, .. } => led,
                        Submitted::Pass(_) => panic!("token held; must coalesce"),
                    })
                })
                .collect();
            while co.pending() < 3 {
                std::thread::yield_now();
            }
            drop(holder);
            let leaders = workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .filter(|&led| led)
                .count();
            assert_eq!(leaders, 1);
        });
    }
}
