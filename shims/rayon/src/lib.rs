//! Offline shim for `rayon`: genuinely parallel iterators built on
//! `std::thread::scope`, covering the adapter surface this workspace
//! uses (`par_iter`, `par_iter_mut`, `into_par_iter`, `par_chunks_mut`,
//! `map`, `filter`, `enumerate`, `zip`, `copied`, `for_each`, `sum`,
//! `reduce`, `collect`, plus `join` and `current_num_threads`).
//!
//! Differences from real rayon, by design:
//!
//! - Adapters are **eager**: each `map` materializes its results before
//!   the next adapter runs. For the chunky closures this workspace
//!   parallelizes (whole frequency sweeps, whole tree fits) the extra
//!   allocation is noise.
//! - Item order is always preserved: work is dealt round-robin to a
//!   bounded set of worker threads and scattered back by index, so
//!   `collect` returns exactly what the sequential iterator would.
//! - Nested parallelism is throttled by a global thread budget instead
//!   of a work-stealing pool: inner `par_iter`s fall back to sequential
//!   execution once the budget is exhausted, bounding total threads to
//!   roughly the core count.
//!
//! # Per-item `par_iter` or `par_chunks_mut`
//!
//! Every item costs a copy into a bucket and a copy back, and adjacent
//! items go to different threads. That is fine when each item is a
//! sizeable piece of work. For fine-grained work over a large slice (one
//! stencil cell, one array element) use `par_chunks_mut` with about
//! [`current_num_threads`] chunks instead: the items are then a handful
//! of contiguous subslices, each worker owns one range of memory, and no
//! cache line is written by two threads except at chunk edges. Chunks are
//! the slice's own `chunks_mut`, in order, and run under the same thread
//! budget, so a nested call runs them serially.

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParIter,
        ParallelSliceMut,
    };
}

/// Outstanding worker threads across all live `par_*` calls.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Most worker threads one parallel call can use (at least 1). Fewer run
/// while other calls hold part of the budget.
pub fn current_num_threads() -> usize {
    max_threads()
}

/// Parallel map preserving input order. Falls back to a sequential map
/// when the item count is small or the thread budget is spent.
fn pmap<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let budget = max_threads().saturating_sub(ACTIVE_WORKERS.load(Ordering::Relaxed));
    let workers = budget.min(n);
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Deal items round-robin so unevenly sized work spreads out.
    let mut buckets: Vec<Vec<(usize, T)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % workers].push((i, item));
    }

    ACTIVE_WORKERS.fetch_add(workers, Ordering::Relaxed);
    let f = &f;
    let produced: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rayon shim worker panicked"))
            .collect()
    });
    ACTIVE_WORKERS.fetch_sub(workers, Ordering::Relaxed);

    // Scatter back by index to restore input order.
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for chunk in produced {
        for (i, u) in chunk {
            out[i] = Some(u);
        }
    }
    out.into_iter().map(|slot| slot.unwrap()).collect()
}

/// An order-preserving parallel iterator over materialized items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> U + Send + Sync,
    {
        ParIter {
            items: pmap(self.items, f),
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Send + Sync,
    {
        pmap(self.items, f);
    }

    pub fn filter<F>(self, f: F) -> ParIter<T>
    where
        F: Fn(&T) -> bool + Send + Sync,
    {
        ParIter {
            items: self.items.into_iter().filter(|t| f(t)).collect(),
        }
    }

    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Pairs items with another parallel iterator's, stopping at the
    /// shorter of the two.
    pub fn zip<Z>(self, other: Z) -> ParIter<(T, Z::Item)>
    where
        Z: IntoParallelIterator,
    {
        ParIter {
            items: self
                .items
                .into_iter()
                .zip(other.into_par_iter().items)
                .collect(),
        }
    }

    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T>,
    {
        self.items.into_iter().sum()
    }

    pub fn reduce<Id, Op>(self, identity: Id, op: Op) -> T
    where
        Id: Fn() -> T + Send + Sync,
        Op: Fn(T, T) -> T + Send + Sync,
    {
        self.items.into_iter().fold(identity(), op)
    }

    pub fn collect<C>(self) -> C
    where
        C: FromIterator<T>,
    {
        self.items.into_iter().collect()
    }

    pub fn count(self) -> usize {
        self.items.len()
    }
}

impl<'a, T: Copy + Send + Sync> ParIter<&'a T> {
    pub fn copied(self) -> ParIter<T> {
        ParIter {
            items: self.items.into_iter().copied().collect(),
        }
    }
}

impl<'a, T: Clone + Send + Sync> ParIter<&'a T> {
    pub fn cloned(self) -> ParIter<T> {
        ParIter {
            items: self.items.into_iter().cloned().collect(),
        }
    }
}

/// By-value conversion (`Vec<T>`, ranges).
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for ParIter<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_into_par {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

impl_range_into_par!(u32, u64, usize, i32, i64);

/// By-shared-reference conversion (`.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// By-mutable-reference conversion (`.par_iter_mut()`).
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send + 'a;
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// Contiguous mutable chunks of a slice (`.par_chunks_mut()`).
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into chunks of `chunk_size` elements (the last may
    /// be shorter), in order.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let budget = max_threads().saturating_sub(ACTIVE_WORKERS.load(Ordering::Relaxed));
    if budget <= 1 {
        return (a(), b());
    }
    ACTIVE_WORKERS.fetch_add(1, Ordering::Relaxed);
    let out = std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        (ra, hb.join().expect("rayon shim join worker panicked"))
    });
    ACTIVE_WORKERS.fetch_sub(1, Ordering::Relaxed);
    out
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_over_range() {
        let out: Vec<usize> = (0..100usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(out[0], 1);
        assert_eq!(out[99], 100);
    }

    #[test]
    fn par_iter_mut_mutates_in_place() {
        let mut v = vec![1u64; 64];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn sum_and_reduce_agree() {
        let v: Vec<f64> = (0..257).map(|i| i as f64).collect();
        let a: f64 = v.par_iter().copied().sum();
        let b = v.par_iter().copied().reduce(|| 0.0, |x, y| x + y);
        assert_eq!(a, b);
    }

    #[test]
    fn nested_parallelism_terminates() {
        let out: Vec<usize> = (0..32usize)
            .into_par_iter()
            .map(|i| {
                (0..32usize)
                    .into_par_iter()
                    .map(|j| i * j)
                    .collect::<Vec<_>>()
                    .len()
            })
            .collect();
        assert!(out.iter().all(|&n| n == 32));
    }

    #[test]
    fn par_chunks_mut_chunks_are_contiguous_and_in_order() {
        let mut v = vec![0usize; 1000];
        let base = v.as_ptr() as usize;
        let spans: Vec<(usize, usize)> = v
            .par_chunks_mut(7)
            .map(|c| {
                (
                    (c.as_ptr() as usize - base) / std::mem::size_of::<usize>(),
                    c.len(),
                )
            })
            .collect();
        assert_eq!(spans.len(), 143);
        for (n, &(start, len)) in spans.iter().enumerate() {
            assert_eq!(start, 7 * n);
            assert_eq!(len, if n == 142 { 6 } else { 7 });
        }
        v.par_chunks_mut(7)
            .enumerate()
            .for_each(|(n, c)| c.iter_mut().enumerate().for_each(|(o, x)| *x = 7 * n + o));
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn par_chunks_mut_zips_two_slices_chunk_for_chunk() {
        let mut a = vec![0u32; 100];
        let mut b = vec![0u64; 50];
        a.par_chunks_mut(10)
            .zip(b.par_chunks_mut(5))
            .enumerate()
            .for_each(|(n, (ca, cb))| {
                ca.fill(n as u32);
                cb.fill(n as u64);
            });
        assert!(a.iter().enumerate().all(|(i, &x)| x == (i / 10) as u32));
        assert!(b.iter().enumerate().all(|(i, &x)| x == (i / 5) as u64));
    }

    #[test]
    fn par_chunks_mut_runs_serially_once_the_budget_is_spent() {
        use std::sync::atomic::Ordering;
        // While the budget is held, concurrently running tests in this
        // module run serially; none of them depends on running in parallel.
        let hold = super::max_threads();
        super::ACTIVE_WORKERS.fetch_add(hold, Ordering::Relaxed);
        let caller = std::thread::current().id();
        let mut v = vec![0u8; 64];
        let ids: Vec<_> = v
            .par_chunks_mut(8)
            .map(|c| {
                c.fill(1);
                std::thread::current().id()
            })
            .collect();
        super::ACTIVE_WORKERS.fetch_sub(hold, Ordering::Relaxed);
        assert!(ids.iter().all(|&id| id == caller));
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn nested_par_chunks_mut_terminates() {
        let out: Vec<u32> = (0..16usize)
            .into_par_iter()
            .map(|_| {
                let mut v = vec![0u32; 100];
                v.par_chunks_mut(10).for_each(|c| c.fill(1));
                v.iter().sum()
            })
            .collect();
        assert!(out.iter().all(|&s| s == 100));
    }

    #[test]
    #[should_panic(expected = "chunk_size must not be zero")]
    fn zero_chunk_size_is_rejected() {
        let mut v = vec![0u8; 4];
        let _ = v.par_chunks_mut(0);
    }

    #[test]
    fn current_num_threads_is_at_least_one() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }
}
