//! The recycled buffer pool behind every large [`Tensor`](crate::Tensor).
//!
//! A training step allocates the same large buffers every step:
//! activations, `im2col` patch matrices, GEMM outputs, data-gradient
//! temporaries and `diva-nn`'s per-example gradient rows. Each is past
//! the allocator's mmap or trim threshold, so a fresh `Vec` per step goes
//! back to the kernel when the step frees it and is faulted in again,
//! zeroed, on the next step. [`Buffer`] keeps those pages mapped: a
//! dropped buffer goes to one process-wide idle set, and the next request
//! it fits takes it back. Its contract is on [`Buffer`].
//!
//! One process-global set is safe to share across threads, trainers and
//! server requests because reuse changes which pages hold a result, never
//! its bits: no kernel, routing decision or accumulation order depends on
//! where its storage came from, and a reused buffer is filled, copied over
//! or fully overwritten before anything reads it. The lock guards one
//! search plus one push or removal over at most [`IDLE_BUFFERS`] entries;
//! an evicted buffer is freed after the lock is released.
//!
//! The GEMM's packing and column-block scratch does not come from here:
//! it stays thread-local (`gemm` module) because it is per-thread and
//! per-call, lives only inside one GEMM, and must be re-entrant under
//! nested scheduling, which a thread-local slot serves without a lock.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The smallest request, in elements, the idle set serves: 64 KiB.
const MIN_POOLED_LEN: usize = 64 * 1024 / size_of::<f32>();

/// Idle buffers kept for reuse (see [`Buffer`]'s bound).
const IDLE_BUFFERS: usize = 16;

/// The largest capacity a reused buffer may have, in multiples of the
/// request.
const MAX_FIT: usize = 2;

static IDLE: Mutex<Idle> = Mutex::new(Idle(Vec::new()));
static REUSED: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static EVICTED: AtomicU64 = AtomicU64::new(0);

/// Returned buffers, least recently returned first.
struct Idle(Vec<Vec<f32>>);

impl Idle {
    /// Removes the best fit for `len`: the smallest capacity in
    /// `len..=MAX_FIT·len`, the most recently returned among equals.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let fits = len..=len.saturating_mul(MAX_FIT);
        let (i, _) = self
            .0
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, buf)| fits.contains(&buf.capacity()))
            .min_by_key(|(_, buf)| buf.capacity())?;
        Some(self.0.remove(i))
    }

    /// Adds `buf` as the most recently returned buffer, handing back the
    /// least recently returned one if the set is over its bound.
    fn put(&mut self, buf: Vec<f32>) -> Option<Vec<f32>> {
        self.0.push(buf);
        (self.0.len() > IDLE_BUFFERS).then(|| self.0.remove(0))
    }

    fn bytes(&self) -> usize {
        self.0
            .iter()
            .map(|buf| buf.capacity() * size_of::<f32>())
            .sum()
    }
}

fn idle() -> MutexGuard<'static, Idle> {
    // Every critical section is one search plus one push or removal, so
    // the set is valid even if a holder panicked.
    IDLE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A returned buffer for a request of `len` elements, or `None` (a
/// request under the threshold, or no fit).
fn reuse(len: usize) -> Option<Vec<f32>> {
    if len < MIN_POOLED_LEN {
        return None;
    }
    let found = idle().take(len);
    let counter = if found.is_some() { &REUSED } else { &ALLOCATED };
    counter.fetch_add(1, Ordering::Relaxed);
    found
}

/// Counters of the recycled buffer pool since process start, as reported
/// by [`buffer_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Requests of at least 64 KiB served by a returned buffer.
    pub reused: u64,
    /// Requests of at least 64 KiB that found no fit and allocated.
    pub allocated: u64,
    /// Returned buffers freed because the idle set was full.
    pub evicted: u64,
    /// Bytes held by idle buffers right now.
    pub idle_bytes: u64,
}

/// The recycled buffer pool's counters. A training loop in steady state
/// moves only `reused`: every large buffer a step asks for was returned by
/// the step before.
pub fn buffer_stats() -> BufferStats {
    BufferStats {
        reused: REUSED.load(Ordering::Relaxed),
        allocated: ALLOCATED.load(Ordering::Relaxed),
        evicted: EVICTED.load(Ordering::Relaxed),
        idle_bytes: idle().bytes() as u64,
    }
}

/// An owned `f32` buffer that goes back to a process-wide pool when
/// dropped: the storage of every [`Tensor`](crate::Tensor). It
/// dereferences to `[f32]`.
///
/// * **Threshold.** Requests under 64 KiB neither take nor return a buffer
///   and never touch the pool's lock: the allocator keeps small blocks on
///   its own free lists.
/// * **Fit.** A request takes the smallest idle buffer whose capacity is
///   at least the request and at most twice it, so a small request never
///   pins a multi-MiB buffer. Without a fit it allocates.
/// * **Bound.** At most 16 buffers stay idle; past that, the least recently
///   returned one is freed, so buffers a workload stopped asking for age
///   out. Sixteen holds every large buffer a steady-state DP-SGD,
///   DP-SGD(R) or SGD step of the benchmark CNN and MLP leaves idle, the
///   multi-MiB block of per-example rows among them, so such a loop never
///   evicts.
/// * **Contents.** [`Buffer::full`] fills, and a clone copies, every
///   element. [`Buffer::for_overwrite`] skips the fill for a producer that
///   writes every element before anything reads one, so an earlier user's
///   data is never observable.
///
/// [`buffer_stats`] reports the pool's counters.
///
/// # Example
///
/// ```
/// use diva_tensor::Buffer;
/// let mut b = Buffer::full(4, 0.0);
/// b[1] = 2.0;
/// assert_eq!(&b[..], &[0.0, 2.0, 0.0, 0.0]);
/// ```
pub struct Buffer {
    data: Vec<f32>,
}

impl Buffer {
    /// `len` copies of `value`.
    pub fn full(len: usize, value: f32) -> Self {
        let data = match reuse(len) {
            Some(mut data) => {
                data.clear();
                data.resize(len, value);
                data
            }
            None => vec![value; len],
        };
        Self { data }
    }

    /// `len` elements of **unspecified** value (an earlier user's data), for
    /// a producer that writes every element before anything reads one:
    /// reuse without the fill of [`Buffer::full`].
    pub fn for_overwrite(len: usize) -> Self {
        let data = match reuse(len) {
            // Shrinking keeps the pages; growing fills only the new tail.
            Some(mut data) => {
                data.resize(len, 0.0);
                data
            }
            None => vec![0.0; len],
        };
        Self { data }
    }

    /// Consumes the buffer and returns its storage, which leaves the pool
    /// for good.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }
}

impl From<Vec<f32>> for Buffer {
    /// Adopts `data` as is; it goes to the pool when the buffer drops, like
    /// any other.
    fn from(data: Vec<f32>) -> Self {
        Self { data }
    }
}

impl FromIterator<f32> for Buffer {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

impl Deref for Buffer {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl DerefMut for Buffer {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Self {
        let mut copy = Self::for_overwrite(self.len());
        copy.copy_from_slice(self);
        copy
    }
}

impl PartialEq for Buffer {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl fmt::Debug for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.data.fmt(f)
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        if self.data.capacity() < MIN_POOLED_LEN {
            return;
        }
        let evicted = idle().put(std::mem::take(&mut self.data));
        if evicted.is_some() {
            EVICTED.fetch_add(1, Ordering::Relaxed);
        }
        // `evicted` is freed here, outside the lock.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{par_map, Backend};
    use crate::Tensor;

    /// Returns `n` NaN-filled buffers of `len` elements to the pool.
    fn seed_nan(len: usize, n: usize) {
        for _ in 0..n {
            drop(Buffer::from(vec![f32::NAN; len]));
        }
    }

    fn idle_len() -> usize {
        idle().0.len()
    }

    /// Other tests in this binary share the pool, so each assertion below
    /// holds whichever buffer a request is handed.
    #[test]
    fn reused_buffers_are_exact() {
        let dims = [64, 1031];
        let len = 64 * 1031;
        seed_nan(len, 4);
        seed_nan(len + 700, 4);
        assert!(Tensor::zeros(&dims).data().iter().all(|&v| v == 0.0));
        seed_nan(len, 4);
        assert!(Tensor::full(&dims, -1.5).data().iter().all(|&v| v == -1.5));
        let source: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let t = Tensor::from_vec(source.clone(), &dims);
        seed_nan(len, 4);
        assert_eq!(t.clone().data(), &source[..]);
        seed_nan(len, 4);
        let mut w = Buffer::for_overwrite(len);
        assert_eq!(w.len(), len);
        w.fill(3.0);
        assert!(w.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn small_requests_bypass_the_pool() {
        let small = MIN_POOLED_LEN - 1;
        // A fit for `small` if it were pooled: at most twice the request.
        seed_nan(MIN_POOLED_LEN, 4);
        for b in [Buffer::full(small, 0.0), Buffer::for_overwrite(small)] {
            assert!(
                b.data.capacity() < MIN_POOLED_LEN,
                "small request took a pooled buffer"
            );
        }
        drop(Buffer::from(vec![f32::NAN; small]));
        assert!(
            idle().0.iter().all(|buf| buf.capacity() >= MIN_POOLED_LEN),
            "a small buffer entered the idle set"
        );
    }

    #[test]
    fn oversized_buffers_are_never_handed_out() {
        let len = MIN_POOLED_LEN + 3;
        seed_nan(MAX_FIT * len + 1, 8);
        for _ in 0..8 {
            let b = Buffer::for_overwrite(len);
            assert!(b.data.capacity() <= MAX_FIT * len, "{}", b.data.capacity());
            let z = Buffer::full(len, 0.0);
            assert!(z.data.capacity() <= MAX_FIT * len, "{}", z.data.capacity());
        }
        let mut idle = Idle(Vec::new());
        assert!(idle.put(vec![0.0; 2 * 100 + 1]).is_none());
        assert!(idle.take(100).is_none());
        assert!(idle.put(vec![0.0; 200]).is_none());
        assert!(idle.put(vec![0.0; 150]).is_none());
        assert_eq!(idle.take(100).map(|b| b.capacity()), Some(150), "best fit");
        assert_eq!(idle.take(100).map(|b| b.capacity()), Some(200));
        assert!(idle.take(100).is_none());
    }

    #[test]
    fn the_idle_set_is_bounded_and_evicts_the_least_recently_returned() {
        let mut idle = Idle(Vec::new());
        for i in 0..IDLE_BUFFERS {
            assert!(idle.put(vec![0.0; 1000 + i]).is_none());
        }
        for i in IDLE_BUFFERS..3 * IDLE_BUFFERS {
            let evicted = idle.put(vec![0.0; 1000 + i]).expect("over the bound");
            assert_eq!(evicted.capacity(), 1000 + i - IDLE_BUFFERS);
            assert_eq!(idle.0.len(), IDLE_BUFFERS);
        }
        assert_eq!(
            idle.bytes(),
            (0..IDLE_BUFFERS)
                .map(|i| 4 * (1000 + 2 * IDLE_BUFFERS + i))
                .sum()
        );
        seed_nan(MIN_POOLED_LEN, 2 * IDLE_BUFFERS);
        assert!(idle_len() <= IDLE_BUFFERS);
    }

    /// Pool tasks take and return buffers of overlapping sizes at once;
    /// each sees exactly what it wrote and the set stays bounded.
    #[test]
    fn concurrent_take_and_return_is_safe() {
        let before = buffer_stats();
        let ok = Backend::with_threads(4).install(|| {
            par_map(64, |task| {
                (0..20).all(|round| {
                    let len = MIN_POOLED_LEN + 97 * ((task + round) % 7);
                    let value = (task * 100 + round) as f32;
                    let b = if round % 2 == 0 {
                        Buffer::full(len, value)
                    } else {
                        let mut b = Buffer::for_overwrite(len);
                        b.fill(value);
                        b
                    };
                    let copy = b.clone();
                    b.len() == len && b.iter().chain(copy.iter()).all(|&v| v == value)
                })
            })
        });
        assert!(ok.into_iter().all(|ok| ok), "a task saw another's data");
        assert!(idle_len() <= IDLE_BUFFERS);
        let after = buffer_stats();
        assert!(after.reused + after.allocated >= before.reused + before.allocated + 64 * 20 * 2);
    }
}
