//! Epoch-based reclamation for the lockless readers' borrows.
//!
//! The optimistic walk borrows `&InodeRef`s straight out of directory
//! tables without holding any lock, so neither a table a writer replaces
//! nor an inode it unlinks can be freed at once: a reader may still be
//! probing it. This module defers such frees until every reader that
//! could hold a borrow has left, after Fraser's epoch-based reclamation
//! ("Practical lock-freedom", 2004), the scheme behind Linux's rcu-walk
//! that `optwalk` follows.
//!
//! * **One global epoch**, a counter that only grows.
//! * **One record per OS thread**, padded to its own cache lines: the
//!   epoch the thread saw when it pinned, or "not pinned". A thread
//!   registers on its first [`pin`] and hands its record back for reuse
//!   when it exits, so the record list grows with the most threads ever
//!   alive at once, not with every thread ever started.
//! * **Per-epoch garbage bags, per thread**: [`retire`] puts an object
//!   in the calling thread's open bag. Every 64th retire seals
//!   the bag with the current epoch and tries to advance the epoch, which
//!   moves on only when every pinned thread has seen it. A sealed bag is
//!   ripe once the epoch has moved two past its seal: by then every
//!   thread pinned when its objects were unlinked has unpinned. Each
//!   retire then frees up to two ripe objects of the calling thread.
//!   There is no background thread, and an object is freed by the thread
//!   that retired it (an `unlink` frees its own victim, as the paper's
//!   `free(node)` does). An exiting thread seals what it holds and leaves
//!   it to whichever thread advances next.
//!
//! A retired object is either a `Box` (a replaced directory table) or an
//! `Arc` (an unlinked inode's last index reference). Both are kept as the
//! pointer they already are, behind a [`Garbage`] of two words and a
//! tag, so a retire allocates nothing beyond its bag's amortised growth.
//!
//! Sealing in batches keeps the shared lines — the epoch word and the
//! other threads' records — off the per-retire path, and freeing two at a
//! time keeps a whole bag's frees off any one operation: a retire is a
//! push into a thread-local vector, one load of the epoch and at most two
//! frees. What a thread holds back is its open bag, its sealed bags of
//! the last two epochs, and a ripe backlog that each retire shrinks.
//!
//! [`pin`] is re-entrant: a nested [`Guard`] only counts, and the thread
//! stays pinned at its first epoch until the outermost guard drops. A
//! pin writes only the thread's own record, so it shares no cache line
//! with other threads, and it never waits. In Mover Logic terms it is a
//! both-mover: it adds no scheduling point to the lock protocol.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The global epoch.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Head of the list of thread records. Records are never freed: an
/// exited thread's record is reused by the next thread to register.
static RECORDS: AtomicPtr<Record> = AtomicPtr::new(ptr::null_mut());

/// Objects a thread retires before it seals them into a bag.
const BAG_CAP: usize = 64;

/// Bags left by exited threads, oldest first.
static ORPHANS: Mutex<VecDeque<Bag>> = Mutex::new(VecDeque::new());

/// `Record::state` bit set while the thread is pinned; the epoch it
/// pinned at sits in the bits above.
const PINNED: u64 = 1;

/// One thread's participation, on cache lines of its own.
#[repr(align(128))]
struct Record {
    /// `epoch << 1 | PINNED` while pinned, 0 otherwise. Written only by
    /// the owning thread; read by every advancer.
    state: AtomicU64,
    /// Nesting depth of the owner's guards (only the owner touches it).
    pins: AtomicUsize,
    /// Whether a live thread owns this record.
    in_use: AtomicBool,
    /// The next record; fixed before the record is published.
    next: *const Record,
}

// SAFETY: `next` is written once, before the record is published with a
// `Release` CAS, and records are never freed, so sharing the raw pointer
// is sound; every other field is atomic.
unsafe impl Sync for Record {}

impl Record {
    /// Take a free record, or publish a new one.
    fn acquire() -> &'static Record {
        for rec in records() {
            if !rec.in_use.load(Ordering::Relaxed)
                && rec
                    .in_use
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return rec;
            }
        }
        let rec = Box::leak(Box::new(Record {
            state: AtomicU64::new(0),
            pins: AtomicUsize::new(0),
            in_use: AtomicBool::new(true),
            next: ptr::null(),
        }));
        let mut head = RECORDS.load(Ordering::Acquire);
        loop {
            rec.next = head;
            match RECORDS.compare_exchange_weak(head, rec, Ordering::Release, Ordering::Acquire) {
                Ok(_) => return rec,
                Err(h) => head = h,
            }
        }
    }

    /// Give the record back for reuse. A record still pinned (a guard
    /// outlived its thread's locals) is kept: unpinning it later must
    /// not touch another thread's record.
    fn release(&self) {
        if self.pins.load(Ordering::Relaxed) == 0 {
            self.in_use.store(false, Ordering::Release);
        }
    }
}

/// Every published record.
fn records() -> impl Iterator<Item = &'static Record> {
    // SAFETY: every pointer in the list came from `Box::leak` and was
    // published with `Release` before it became reachable.
    let mut cur = RECORDS.load(Ordering::Acquire);
    std::iter::from_fn(move || {
        let rec = unsafe { cur.as_ref()? };
        cur = rec.next.cast_mut();
        Some(rec)
    })
}

/// The calling thread's record and garbage.
struct Local {
    rec: &'static Record,
    /// Objects retired since the last seal.
    open: RefCell<Vec<Garbage>>,
    /// Sealed bags, oldest first.
    sealed: RefCell<VecDeque<Bag>>,
}

impl Drop for Local {
    fn drop(&mut self) {
        let mut bags = std::mem::take(self.sealed.get_mut());
        let open = std::mem::take(self.open.get_mut());
        if !open.is_empty() {
            bags.push_back(Bag::seal(open));
        }
        orphans().extend(bags);
        self.rec.release();
    }
}

thread_local! {
    static LOCAL: Local = Local {
        rec: Record::acquire(),
        open: RefCell::new(Vec::with_capacity(BAG_CAP)),
        sealed: RefCell::new(VecDeque::new()),
    };
}

fn orphans() -> std::sync::MutexGuard<'static, VecDeque<Bag>> {
    ORPHANS.lock().unwrap_or_else(|p| p.into_inner())
}

/// Proof that the calling thread is pinned: objects retired while it
/// lives are not freed before it drops. Not `Send`: the pin belongs to
/// the thread's record.
pub struct Guard {
    rec: &'static Record,
    /// The record was taken for this guard alone, because the thread's
    /// locals were already torn down; it is released with the guard.
    own: bool,
    _not_send: PhantomData<*const ()>,
}

impl Guard {
    fn enter(rec: &'static Record, own: bool) -> Guard {
        let depth = rec.pins.load(Ordering::Relaxed);
        rec.pins.store(depth + 1, Ordering::Relaxed);
        if depth == 0 {
            let e = EPOCH.load(Ordering::Relaxed);
            // `Release`: the reads of this thread's previous pin happen
            // before an advancer that sees this pin frees anything.
            rec.state.store(e << 1 | PINNED, Ordering::Release);
            // Publish the pin before any pointer this thread loads next;
            // pairs with the fence in `advance`.
            fence(Ordering::SeqCst);
        }
        Guard {
            rec,
            own,
            _not_send: PhantomData,
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let depth = self.rec.pins.load(Ordering::Relaxed) - 1;
        self.rec.pins.store(depth, Ordering::Relaxed);
        if depth == 0 {
            // Every read made under the pin happens before an advancer
            // that sees it unpinned frees anything.
            self.rec.state.store(0, Ordering::Release);
            if self.own {
                self.rec.release();
            }
        }
    }
}

/// Pin the calling thread until the returned guard drops.
#[inline]
pub fn pin() -> Guard {
    LOCAL
        .try_with(|l| Guard::enter(l.rec, false))
        .unwrap_or_else(|_| Guard::enter(Record::acquire(), true))
}

/// One retired object, dropped when its bag is freed: the owning
/// pointer it was retired as, with no box around it.
pub enum Garbage {
    /// A uniquely owned object, freed with its box.
    Boxed(Box<dyn Send>),
    /// One reference to a shared object, freed when the last one drops.
    Shared(Arc<dyn Send + Sync>),
}

impl<T: Send + 'static> From<Box<T>> for Garbage {
    fn from(obj: Box<T>) -> Self {
        Garbage::Boxed(obj)
    }
}

impl<T: Send + Sync + 'static> From<Arc<T>> for Garbage {
    fn from(obj: Arc<T>) -> Self {
        Garbage::Shared(obj)
    }
}

/// Objects retired before one seal.
struct Bag {
    /// The epoch read at the seal: every object in the bag was unlinked
    /// before it.
    epoch: u64,
    items: Vec<Garbage>,
}

impl Bag {
    fn seal(items: Vec<Garbage>) -> Bag {
        // Order the unlinks of `items` before reading the epoch; pairs
        // with the fence in `Guard::enter`.
        fence(Ordering::SeqCst);
        Bag {
            epoch: EPOCH.load(Ordering::Relaxed),
            items,
        }
    }
}

/// Take the bags of `bags` the epoch `now` has moved two past.
fn ripe(bags: &mut VecDeque<Bag>, now: u64) -> Vec<Bag> {
    let n = bags.iter().take_while(|b| b.epoch + 2 <= now).count();
    bags.drain(..n).collect()
}

/// Free `obj` once no thread pinned now can still reach it. The caller
/// must already have unlinked it: a thread that pins after this call
/// must not be able to find it.
pub fn retire(obj: impl Into<Garbage>) {
    let mut obj = Some(obj.into());
    // One visit to the thread's locals: push, and take out what is ripe.
    let mut ripe: [Option<Garbage>; FREE_PER_RETIRE] = Default::default();
    let full = LOCAL.try_with(|l| {
        let mut open = l.open.borrow_mut();
        open.push(obj.take().expect("pushed once"));
        let full = open.len() >= BAG_CAP;
        let now = EPOCH.load(Ordering::Acquire);
        let mut sealed = l.sealed.borrow_mut();
        for r in &mut ripe {
            *r = pop_ripe(&mut sealed, now);
        }
        full
    });
    if let Some(obj) = obj {
        // The thread's locals are gone: leave it to the next advance.
        let bag = Bag::seal(vec![obj]);
        orphans().push_back(bag);
    }
    // Free outside the borrow: a destructor may be long.
    drop(ripe);
    if full != Ok(false) {
        advance();
    }
}

/// Take one object out of the oldest of `sealed` if the epoch `now` has
/// moved two past its bag.
fn pop_ripe(sealed: &mut VecDeque<Bag>, now: u64) -> Option<Garbage> {
    let bag = sealed.front_mut().filter(|b| b.epoch + 2 <= now)?;
    let obj = bag.items.pop();
    if bag.items.is_empty() {
        sealed.pop_front();
    }
    obj
}

/// Ripe objects one [`retire`] frees at most. More than one, so a
/// backlog drains; few, so no single retire pays for a whole bag.
const FREE_PER_RETIRE: usize = 2;

/// Seal the calling thread's open bag, advance the global epoch if every
/// pinned thread has seen it, and free exited threads' ripe bags.
fn advance() -> bool {
    let _ = LOCAL.try_with(|l| {
        let open = std::mem::replace(&mut *l.open.borrow_mut(), Vec::with_capacity(BAG_CAP));
        if !open.is_empty() {
            l.sealed.borrow_mut().push_back(Bag::seal(open));
        }
    });
    let e = EPOCH.load(Ordering::Relaxed);
    fence(Ordering::SeqCst);
    let stale = records().any(|rec| {
        let s = rec.state.load(Ordering::Relaxed);
        s & PINNED != 0 && s >> 1 != e
    });
    // Every unpin read above happens before the frees that follow.
    fence(Ordering::Acquire);
    let moved = !stale
        && EPOCH
            .compare_exchange(e, e + 1, Ordering::Release, Ordering::Relaxed)
            .is_ok();
    let now = EPOCH.load(Ordering::Acquire);
    // Drop outside the lock: a freed object's destructor may be long.
    let left = ripe(&mut orphans(), now);
    drop(left);
    moved
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Arc, Weak};

    /// Seal the calling thread's open bag, try to advance the epoch, and
    /// free every object of this thread whose bag the epoch has moved two
    /// past. Returns whether the epoch moved.
    pub(crate) fn try_advance() -> bool {
        let moved = advance();
        let now = EPOCH.load(Ordering::Acquire);
        let own = LOCAL.with(|l| ripe(&mut l.sealed.borrow_mut(), now));
        drop(own);
        moved
    }

    /// Advance the epoch at least three times, so everything retired
    /// before the call is freed. Other test threads pin concurrently, so
    /// an attempt may fail; they unpin after each operation, so a bounded
    /// number of attempts succeeds.
    pub(crate) fn flush() {
        let mut moved = 0;
        for _ in 0..10_000_000 {
            if try_advance() {
                moved += 1;
                if moved == 3 {
                    return;
                }
            }
            std::thread::yield_now();
        }
        panic!("the epoch did not advance: some thread stayed pinned");
    }

    #[test]
    fn pinned_reader_holds_back_a_retired_object() {
        let obj = Arc::new(7u64);
        let weak: Weak<u64> = Arc::downgrade(&obj);
        let guard = pin();
        retire(Box::new(obj));
        for _ in 0..100 {
            try_advance();
        }
        assert_eq!(weak.upgrade().as_deref(), Some(&7), "freed under a pin");
        drop(guard);
        flush();
        assert!(weak.upgrade().is_none(), "not freed after the grace period");
    }

    /// An unlinked inode is retired as the `Arc` it is: alive while a
    /// reader is pinned, freed after the grace period.
    #[test]
    fn retired_inode_outlives_a_pinned_reader() {
        use crate::table::InodeSlot;
        use atomfs_vfs::FileType;
        let slot = Arc::new(InodeSlot::new(5, FileType::File));
        let weak = Arc::downgrade(&slot);
        let guard = pin();
        retire(slot);
        for _ in 0..100 {
            try_advance();
        }
        assert_eq!(
            weak.upgrade().map(|s| s.ino()),
            Some(5),
            "freed under a pin"
        );
        drop(guard);
        flush();
        assert!(weak.upgrade().is_none(), "not freed after the grace period");
    }

    #[test]
    fn nested_pins_count_as_one() {
        let outer = pin();
        let depth = |g: &Guard| g.rec.pins.load(Ordering::Relaxed);
        let state = outer.rec.state.load(Ordering::Relaxed);
        {
            let inner = pin();
            assert!(ptr::eq(inner.rec, outer.rec), "one record per thread");
            assert_eq!(depth(&inner), 2);
            assert_eq!(inner.rec.state.load(Ordering::Relaxed), state);
        }
        assert_eq!(depth(&outer), 1);
        assert_ne!(outer.rec.state.load(Ordering::Relaxed) & PINNED, 0);
        let obj = Arc::new(1u8);
        let weak = Arc::downgrade(&obj);
        retire(Box::new(obj));
        for _ in 0..100 {
            try_advance();
        }
        assert!(weak.upgrade().is_some(), "inner drop unpinned the thread");
        drop(outer);
        flush();
        assert!(weak.upgrade().is_none());
    }
}
