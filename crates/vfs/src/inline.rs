//! A short list that lives inline up to `N` elements and spills to one
//! heap buffer past them.
//!
//! The core's hot paths keep short lists: a path's components, the
//! optimistic walk's chain, a file's first block indices. Paths are
//! shallow and most files are small, so a `Vec` would allocate on every
//! call for a list that almost always fits in a few words.
//! [`InlineVec`] keeps up to `N` elements in place. The first time it
//! grows past `N` it moves them into one `Vec`, and from then on it is
//! that `Vec` until it drops: popping back under `N` keeps the buffer.
//! Elements are `Copy`, so no element ever needs a destructor.
//!
//! The layout is `smallvec`'s: one word holds the length while inline
//! and the heap capacity once spilled, beside a union of the inline array
//! and the heap buffer's pointer and length. A spilled buffer's capacity
//! is always above `N`, so that word alone tells the two states apart,
//! and an `InlineVec<u32, 4>` is three words, the size of a `Vec`.

use std::fmt;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::slice;

/// A vector of `Copy` elements, inline up to `N`, on the heap past `N`.
/// See the module docs.
pub struct InlineVec<T: Copy, const N: usize> {
    /// The length while inline (at most `N`), or the heap capacity once
    /// spilled (more than `N`).
    tag: usize,
    data: Data<T, N>,
}

/// The inline elements, or the heap buffer's pointer and length.
union Data<T: Copy, const N: usize> {
    inline: [MaybeUninit<T>; N],
    heap: (*mut T, usize),
}

// SAFETY: an `InlineVec` owns its elements, inline or in its one heap
// buffer, exactly as a `Vec<T>` does, so it may cross threads as a
// `Vec<T>` may.
unsafe impl<T: Copy + Send, const N: usize> Send for InlineVec<T, N> {}
// SAFETY: as above; `&InlineVec` gives only `&T`.
unsafe impl<T: Copy + Sync, const N: usize> Sync for InlineVec<T, N> {}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// An empty vector; it allocates nothing until it holds more than `N`.
    pub const fn new() -> Self {
        InlineVec {
            tag: 0,
            data: Data {
                inline: [const { MaybeUninit::uninit() }; N],
            },
        }
    }

    /// Whether the elements have moved to the heap.
    #[inline]
    pub fn spilled(&self) -> bool {
        self.tag > N
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        if self.spilled() {
            // SAFETY: a spilled vector's union holds `heap`.
            unsafe { self.data.heap.1 }
        } else {
            self.tag
        }
    }

    /// Whether the vector holds no element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements it can hold before it next allocates.
    #[inline]
    pub fn capacity(&self) -> usize {
        if self.spilled() {
            self.tag
        } else {
            N
        }
    }

    /// Append `value`, spilling to the heap if the inline array is full.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.tag < N {
            // SAFETY: not spilled, so the union holds `inline`, and
            // `tag < N` is in bounds.
            unsafe { self.data.inline[self.tag] = MaybeUninit::new(value) };
            self.tag += 1;
        } else {
            self.on_heap(1, |v| v.push(value));
        }
    }

    /// Remove and return the last element.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        let last = *self.last()?;
        self.truncate(self.len() - 1);
        Some(last)
    }

    /// Keep the first `len` elements; no-op if there are not more. A
    /// spilled vector keeps its heap buffer.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        if self.spilled() {
            // SAFETY: a spilled vector's union holds `heap`, and shrinking
            // its length leaves `Copy` elements behind, which need no drop.
            unsafe { self.data.heap.1 = self.data.heap.1.min(len) };
        } else {
            self.tag = self.tag.min(len);
        }
    }

    /// Make room for `additional` more elements with at most one
    /// allocation.
    pub fn reserve(&mut self, additional: usize) {
        if self.len() + additional > self.capacity() {
            self.on_heap(additional, |v| v.reserve(additional));
        }
    }

    /// Append every element of `items`.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        if !self.spilled() && items.len() <= N - self.tag {
            // SAFETY: not spilled, so the union holds `inline`, and the
            // copy ends within it.
            unsafe {
                let dst = ptr::addr_of_mut!(self.data.inline)
                    .cast::<T>()
                    .add(self.tag);
                ptr::copy_nonoverlapping(items.as_ptr(), dst, items.len());
            }
            self.tag += items.len();
        } else {
            self.on_heap(items.len(), |v| v.extend_from_slice(items));
        }
    }

    /// Run `f` on the heap buffer as a `Vec`, first moving the inline
    /// elements into a new one with room for `additional` more.
    ///
    /// `f` only grows the `Vec` (push, reserve, extend), so its capacity
    /// stays above `N`. If `f` panics, its `Vec` is leaked, never freed
    /// twice: the union is rewritten only after `f` returns.
    #[cold]
    fn on_heap<R>(&mut self, additional: usize, f: impl FnOnce(&mut Vec<T>) -> R) -> R {
        let mut v = ManuallyDrop::new(if self.spilled() {
            // SAFETY: a spilled vector's union holds the parts of a `Vec`
            // whose capacity is `tag`; the `ManuallyDrop` keeps it from
            // being freed here, since `self` still owns it.
            unsafe {
                let (p, len) = self.data.heap;
                Vec::from_raw_parts(p, len, self.tag)
            }
        } else {
            let mut v = Vec::with_capacity((self.tag + additional).max(N + 1));
            v.extend_from_slice(self);
            v
        });
        let out = f(&mut v);
        // The tag's meaning, and so every access to the union, rests on it.
        assert!(v.capacity() > N, "a spilled buffer holds more than N");
        self.tag = v.capacity();
        self.data.heap = (v.as_mut_ptr(), v.len());
        out
    }
}

impl<T: Copy, const N: usize> Drop for InlineVec<T, N> {
    fn drop(&mut self) {
        if self.spilled() {
            // SAFETY: a spilled vector owns the `Vec` whose parts its union
            // holds; it is rebuilt once, here, and freed.
            drop(unsafe {
                let (p, len) = self.data.heap;
                Vec::from_raw_parts(p, len, self.tag)
            });
        }
    }
}

impl<T: Copy, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: the first `len()` elements are initialised, inline or on
        // the heap, and `&self` keeps them alive and unaliased by writers.
        unsafe {
            if self.spilled() {
                let (p, len) = self.data.heap;
                slice::from_raw_parts(p, len)
            } else {
                slice::from_raw_parts(ptr::addr_of!(self.data.inline).cast::<T>(), self.tag)
            }
        }
    }
}

impl<T: Copy, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as `deref`, and `&mut self` makes the slice unique.
        unsafe {
            if self.spilled() {
                let (p, len) = self.data.heap;
                slice::from_raw_parts_mut(p, len)
            } else {
                let p = ptr::addr_of_mut!(self.data.inline).cast::<T>();
                slice::from_raw_parts_mut(p, self.tag)
            }
        }
    }
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        v.extend(iter);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::check_seeds;

    type V = InlineVec<u32, 4>;

    #[test]
    fn a_small_index_is_the_size_of_a_vec() {
        assert_eq!(size_of::<V>(), size_of::<Vec<u32>>());
    }

    #[test]
    fn push_past_n_spills_and_keeps_order() {
        let mut v = V::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.spilled());
        assert_eq!(v.capacity(), 4);
        v.push(4);
        assert!(v.spilled());
        assert!(v.capacity() > 4);
        for i in 5..100 {
            v.push(i);
        }
        assert_eq!(&*v, (0..100).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn pop_and_truncate_cross_back_under_n() {
        let mut v: V = (0..6).collect();
        assert!(v.spilled());
        assert_eq!(v.pop(), Some(5));
        v.truncate(2);
        assert_eq!(&*v, [0, 1]);
        assert!(v.spilled(), "a spilled vector keeps its buffer");
        v.push(9);
        assert_eq!(&*v, [0, 1, 9]);
        v.truncate(10);
        assert_eq!(v.len(), 3);
        while v.pop().is_some() {}
        assert!(v.is_empty());
        assert_eq!(v.pop(), None);

        let mut w: V = (0..3).collect();
        assert_eq!(w.pop(), Some(2));
        w.truncate(0);
        assert!(w.is_empty() && !w.spilled());
    }

    #[test]
    fn reserve_spills_once_and_extend_fills_without_regrowing() {
        let mut v: V = (0..2).collect();
        v.reserve(2);
        assert!(!v.spilled(), "room inline");
        v.reserve(10);
        assert!(v.spilled());
        let cap = v.capacity();
        assert!(cap >= 12);
        v.extend_from_slice(&[7; 10]);
        assert_eq!(v.capacity(), cap);
        assert_eq!(v.len(), 12);
        let mut w = V::new();
        w.extend_from_slice(&[1, 2, 3]);
        w.extend_from_slice(&[4]);
        assert!(!w.spilled());
        w.extend_from_slice(&[5, 6]);
        assert_eq!(&*w, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn mutation_through_the_slice() {
        for n in [3, 9] {
            let mut v: InlineVec<u64, 4> = (0..n).collect();
            v[0] = 42;
            assert_eq!(v[0], 42);
            assert_eq!(format!("{v:?}"), format!("{:?}", &*v));
        }
    }

    /// Random pushes, pops, truncates and reserves against a `Vec`.
    #[test]
    fn matches_a_vec_under_random_edits() {
        check_seeds(64, |rng| {
            let mut v = V::new();
            let mut model = Vec::new();
            for _ in 0..200 {
                match rng.random_range(0u32..10) {
                    0..=4 => {
                        let x = rng.random_range(0u32..1000);
                        v.push(x);
                        model.push(x);
                    }
                    5 | 6 => assert_eq!(v.pop(), model.pop()),
                    7 => {
                        let k = rng.random_range(0usize..8);
                        v.truncate(k);
                        model.truncate(k);
                    }
                    8 => v.reserve(rng.random_range(0usize..8)),
                    _ => {
                        let k = rng.random_range(0usize..6);
                        let items: Vec<u32> = (0..k as u32).collect();
                        v.extend_from_slice(&items);
                        model.extend_from_slice(&items);
                    }
                }
                assert_eq!(&*v, model.as_slice());
            }
        });
    }
}
