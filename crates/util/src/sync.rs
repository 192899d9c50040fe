//! Poison-tolerant locking over `std::sync::Mutex`.
//!
//! Every lock in this workspace guards data whose critical sections leave
//! it consistent at each exit point, so a thread that panics while holding
//! one (poisoning the mutex mid-unwind) leaves nothing half-written. The
//! remaining threads — and shutdown paths that still need the lock to drain
//! and join — take the guard and continue instead of cascading the panic.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a previous holder panicked.
pub fn lock_or_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn recovers_a_poisoned_lock() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        *lock_or_recover(&m) += 1;
        assert_eq!(*lock_or_recover(&m), 2);
    }
}
