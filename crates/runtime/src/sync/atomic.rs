//! Atomic integer shims.
//!
//! Same API subset as `std::sync::atomic`, backed by the real std
//! atomics. Under an active `schedcheck` execution, every operation
//! with an ordering stronger than `Relaxed` is a scheduling point;
//! relaxed operations are not (the runtime uses them only for
//! monotonic metrics and ID allocation — see the [`super`] docs).

pub use std::sync::atomic::Ordering;

macro_rules! atomic_shim {
    ($(#[$doc:meta])* $name:ident, $std:ident, $int:ty) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            inner: std::sync::atomic::$std,
        }

        impl $name {
            /// Creates a new atomic holding `value`.
            pub const fn new(value: $int) -> Self {
                $name {
                    inner: std::sync::atomic::$std::new(value),
                }
            }

            /// Loads the current value.
            pub fn load(&self, order: Ordering) -> $int {
                maybe_yield(order, concat!(stringify!($name), ".load"));
                self.inner.load(order)
            }

            /// Stores `value`.
            pub fn store(&self, value: $int, order: Ordering) {
                maybe_yield(order, concat!(stringify!($name), ".store"));
                self.inner.store(value, order);
            }

            /// Adds `value`, returning the previous value.
            pub fn fetch_add(&self, value: $int, order: Ordering) -> $int {
                maybe_yield(order, concat!(stringify!($name), ".fetch_add"));
                self.inner.fetch_add(value, order)
            }

            /// Raises the value to `max(current, value)`, returning the
            /// previous value.
            pub fn fetch_max(&self, value: $int, order: Ordering) -> $int {
                maybe_yield(order, concat!(stringify!($name), ".fetch_max"));
                self.inner.fetch_max(value, order)
            }
        }
    };
}

atomic_shim!(
    /// Shimmed [`std::sync::atomic::AtomicUsize`].
    AtomicUsize,
    AtomicUsize,
    usize
);

#[cfg(feature = "schedcheck")]
fn maybe_yield(order: Ordering, label: &'static str) {
    if order != Ordering::Relaxed {
        super::sched::yield_if_active(label);
    }
}

#[cfg(not(feature = "schedcheck"))]
fn maybe_yield(_order: Ordering, _label: &'static str) {}
