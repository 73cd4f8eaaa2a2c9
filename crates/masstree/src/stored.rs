//! How the tree owns its values.
//!
//! A border node's `lv` slot holds one thin pointer per value. [`Stored`]
//! is the one place that says how an owned value becomes that pointer,
//! how a reader borrows it back, how it is freed once the epoch allows,
//! and which lines a batched read prefetches before the caller looks at
//! it. Every sized type is stored in a `Box` of its own (the blanket
//! impl). A dynamically sized value that keeps its own length in its
//! header implements the trait by hand and lives in one allocation: the
//! storage layer's `ColValue` (version, column offsets and bytes in one
//! block, §4.7 of the paper) is the case this exists for.

/// A value type the tree can own through a thin pointer.
///
/// # Safety
///
/// The tree relies on these guarantees without checking them. For every
/// pointer `p` returned by [`Stored::into_raw`]:
///
/// * `p` is non-null and the object it names stays valid, and is never
///   moved or written through `p`, until `p` is passed to
///   [`Stored::drop_raw`];
/// * [`Stored::deref`]`(p)` returns a reference to the value `into_raw`
///   consumed, from any thread (`Self: Sync`), for as long as `p` has
///   not been dropped;
/// * [`Stored::drop_raw`]`(p)` frees the object with the layout it was
///   allocated with and runs its destructor exactly once; it may run on
///   any thread (`Self: Send`), and the tree calls it at most once per
///   pointer, after every reader that could hold a reference is gone.
pub unsafe trait Stored: Send + Sync + 'static {
    /// What `put` takes: the owned form of one value.
    type Owned;

    /// Moves `v` behind a thin pointer the tree can store in one slot.
    fn into_raw(v: Self::Owned) -> *mut ();

    /// Borrows the value behind `p`.
    ///
    /// # Safety
    ///
    /// `p` came from [`Stored::into_raw`] and has not been dropped, and
    /// will not be for `'a`.
    unsafe fn deref<'a>(p: *const ()) -> &'a Self;

    /// Destroys the value behind `p` and frees its memory.
    ///
    /// # Safety
    ///
    /// `p` came from [`Stored::into_raw`], nothing will read it again,
    /// and it has not been dropped before.
    unsafe fn drop_raw(p: *mut ());

    /// Starts fetching the lines a reader of the value behind `p` needs
    /// first: the batch engine's value stage. A hint with no memory
    /// effects, so any address is allowed.
    fn prefetch(p: *const ());
}

// SAFETY: `Box::into_raw` never returns null (a zero-sized `T` gets a
// dangling, non-null pointer), the box owns the object until
// `Box::from_raw` in `drop_raw` frees it with the layout `Box::new`
// allocated, and `T: Send + Sync` lets both run on any thread.
unsafe impl<T: Send + Sync + 'static> Stored for T {
    type Owned = T;

    #[inline]
    fn into_raw(v: T) -> *mut () {
        Box::into_raw(Box::new(v)).cast::<()>()
    }

    #[inline]
    unsafe fn deref<'a>(p: *const ()) -> &'a T {
        // SAFETY: per the caller contract, `p` is a live `Box<T>`.
        unsafe { &*p.cast::<T>() }
    }

    unsafe fn drop_raw(p: *mut ()) {
        // SAFETY: per the caller contract, `p` is a live `Box<T>` that
        // nothing reads again.
        drop(unsafe { Box::from_raw(p.cast::<T>()) });
    }

    #[inline]
    fn prefetch(p: *const ()) {
        crate::prefetch::prefetch(p.cast::<T>());
    }
}
