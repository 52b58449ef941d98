//! Device memory accounting with framework-pool semantics.
//!
//! DNN frameworks allocate through a caching pool: `cudaFree` returns
//! memory to the pool, not to the driver, so the usage `nvidia-smi`
//! reports is the *high-water mark* of pool allocations plus the CUDA
//! context. Table IV of the paper is built from exactly that number;
//! [`MemoryPool::device_reported`] reproduces it.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide pool-id counter: every [`MemoryPool`] gets a distinct
/// tag so a handle can never be freed into the wrong pool, even when
/// two pools happen to issue the same allocation id.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);

/// Returned when an allocation would exceed device capacity — the
/// condition that capped the paper's batch sizes at 64 for Inception-v3
/// and ResNet (§V-D).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested (after rounding; `u64::MAX` when rounding up
    /// would overflow).
    pub requested: u64,
    /// Bytes that were still available.
    pub available: u64,
    /// Label of the failed allocation.
    pub label: String,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory allocating '{}': requested {} bytes, {} available",
            self.label, self.requested, self.available
        )
    }
}

impl std::error::Error for OomError {}

/// Handle to a live allocation in a [`MemoryPool`]. Tagged with its
/// pool's identity, so freeing it into a different pool panics instead
/// of silently corrupting that pool's accounting on an id collision.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Allocation {
    pool: u64,
    id: u32,
    bytes: u64,
}

impl Allocation {
    /// Size of the allocation in bytes (after rounding).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// A device memory pool with high-water-mark accounting.
///
/// # Example
///
/// ```
/// use voltascope_gpu::MemoryPool;
///
/// let mut pool = MemoryPool::new(1 << 30, 100 << 20); // 1 GiB, 100 MiB context
/// let weights = pool.alloc(200 << 20, "weights")?;
/// let act = pool.alloc(300 << 20, "activations")?;
/// pool.free(act);
/// // The pool caches freed memory: nvidia-smi still sees the peak.
/// assert_eq!(pool.device_reported(), (100 << 20) + pool.peak_used());
/// assert_eq!(pool.current_used(), weights.bytes());
/// # Ok::<(), voltascope_gpu::OomError>(())
/// ```
#[derive(Debug)]
pub struct MemoryPool {
    pool_id: u64,
    capacity: u64,
    context: u64,
    current: u64,
    peak: u64,
    next_id: u32,
    live: Vec<u32>,
}

/// cudaMalloc rounds allocations up to 512-byte granularity.
const GRANULARITY: u64 = 512;

impl MemoryPool {
    /// Creates a pool for a device of `capacity` bytes with `context`
    /// bytes permanently consumed by the CUDA context.
    ///
    /// # Panics
    ///
    /// Panics if the context alone exceeds capacity.
    pub fn new(capacity: u64, context: u64) -> Self {
        assert!(context <= capacity, "context larger than device memory");
        MemoryPool {
            pool_id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            capacity,
            context,
            current: 0,
            peak: 0,
            next_id: 0,
            live: Vec::new(),
        }
    }

    /// Allocates `bytes` (rounded up to 512-byte granularity).
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] when the allocation would exceed the
    /// device's capacity net of the CUDA context.
    pub fn alloc(&mut self, bytes: u64, label: &str) -> Result<Allocation, OomError> {
        let available = self.capacity - self.context - self.current;
        // A request too large to round up can never fit: it reports a
        // saturated size instead of wrapping to a tiny allocation.
        let rounded = match bytes.checked_next_multiple_of(GRANULARITY) {
            Some(rounded) if rounded <= available => rounded,
            rounded => {
                return Err(OomError {
                    requested: rounded.unwrap_or(u64::MAX),
                    available,
                    label: label.to_string(),
                })
            }
        };
        self.current += rounded;
        self.peak = self.peak.max(self.current);
        let id = self.next_id;
        self.next_id += 1;
        self.live.push(id);
        Ok(Allocation {
            pool: self.pool_id,
            id,
            bytes: rounded,
        })
    }

    /// Returns an allocation to the pool. Consuming the handle makes
    /// double-free unrepresentable.
    ///
    /// # Panics
    ///
    /// Panics if the allocation belongs to a different pool.
    pub fn free(&mut self, allocation: Allocation) {
        assert_eq!(
            allocation.pool, self.pool_id,
            "allocation does not belong to this pool"
        );
        let pos = self
            .live
            .iter()
            .position(|&id| id == allocation.id)
            .expect("allocation unknown to its own pool");
        self.live.swap_remove(pos);
        self.current -= allocation.bytes;
    }

    /// Bytes currently allocated (excludes context).
    pub fn current_used(&self) -> u64 {
        self.current
    }

    /// High-water mark of allocations (excludes context).
    pub fn peak_used(&self) -> u64 {
        self.peak
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.live.len()
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// What `nvidia-smi` would report for this device: the CUDA context
    /// plus the pool's cached high-water mark.
    pub fn device_reported(&self) -> u64 {
        self.context + self.peak
    }

    /// Bytes still allocatable right now.
    pub fn available(&self) -> u64 {
        self.capacity - self.context - self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_rounds_to_granularity() {
        let mut pool = MemoryPool::new(1 << 20, 0);
        let a = pool.alloc(1, "one byte").unwrap();
        assert_eq!(a.bytes(), 512);
        assert_eq!(pool.current_used(), 512);
        pool.free(a);
    }

    #[test]
    fn oom_reports_request_and_availability() {
        let mut pool = MemoryPool::new(1024, 512);
        let err = pool.alloc(1024, "too big").unwrap_err();
        assert_eq!(err.requested, 1024);
        assert_eq!(err.available, 512);
        assert!(err.to_string().contains("too big"));
    }

    #[test]
    fn requests_that_cannot_round_up_are_oom() {
        let mut pool = MemoryPool::new(1 << 20, 0);
        let err = pool.alloc(u64::MAX - 10, "huge").unwrap_err();
        assert_eq!(err.requested, u64::MAX);
        assert_eq!(err.available, 1 << 20);
        assert_eq!(pool.current_used(), 0);
        assert_eq!(pool.live_allocations(), 0);
    }

    #[test]
    fn context_consumes_capacity() {
        let mut pool = MemoryPool::new(2048, 1024);
        assert_eq!(pool.available(), 1024);
        assert!(pool.alloc(1024, "fits").is_ok());
        assert!(pool.alloc(512, "overflows").is_err());
    }

    #[test]
    fn peak_survives_frees() {
        let mut pool = MemoryPool::new(1 << 20, 4096);
        let a = pool.alloc(512 * 10, "a").unwrap();
        let b = pool.alloc(512 * 20, "b").unwrap();
        pool.free(a);
        pool.free(b);
        assert_eq!(pool.current_used(), 0);
        assert_eq!(pool.peak_used(), 512 * 30);
        assert_eq!(pool.device_reported(), 4096 + 512 * 30);
    }

    #[test]
    fn freed_memory_is_reusable() {
        let mut pool = MemoryPool::new(2048, 0);
        let a = pool.alloc(2048, "all").unwrap();
        pool.free(a);
        assert!(pool.alloc(2048, "again").is_ok());
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn cross_pool_free_panics() {
        let mut p1 = MemoryPool::new(4096, 0);
        let mut p2 = MemoryPool::new(4096, 0);
        let a = p1.alloc(512, "a").unwrap();
        let _b = p2.alloc(512, "b").unwrap();
        // `a` and `_b` share allocation id 0 (ids restart per pool),
        // but the pool tag makes the misuse panic instead of silently
        // corrupting p2's accounting.
        p2.free(a);
    }

    #[test]
    fn colliding_ids_cannot_corrupt_accounting() {
        // Before pool tagging, a foreign handle with a colliding id was
        // accepted and `current` went negative on the next legal free.
        let mut p1 = MemoryPool::new(1 << 20, 0);
        let mut p2 = MemoryPool::new(1 << 20, 0);
        let a1 = p1.alloc(1024, "a1").unwrap();
        let a2 = p2.alloc(2048, "a2").unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p2.free(a1)));
        assert!(caught.is_err(), "cross-pool free must panic");
        // p2's accounting is untouched by the rejected free.
        assert_eq!(p2.current_used(), 2048);
        assert_eq!(p2.live_allocations(), 1);
        p2.free(a2);
        assert_eq!(p2.current_used(), 0);
    }

    proptest! {
        /// Random alloc/free interleavings never violate the accounting
        /// invariants.
        #[test]
        fn accounting_invariants(ops in proptest::collection::vec(0u64..4_000_000, 1..60)) {
            let mut pool = MemoryPool::new(64 << 20, 1 << 20);
            let mut held = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                if i % 3 == 2 && !held.is_empty() {
                    let a: Allocation = held.swap_remove((op % held.len() as u64) as usize);
                    pool.free(a);
                } else if let Ok(a) = pool.alloc(*op, "prop") {
                    held.push(a);
                }
                prop_assert!(pool.current_used() <= pool.peak_used());
                prop_assert!(pool.device_reported() <= pool.capacity());
                prop_assert_eq!(
                    pool.current_used(),
                    held.iter().map(|a| a.bytes()).sum::<u64>()
                );
            }
            let total: u64 = held.iter().map(|a| a.bytes()).sum();
            prop_assert_eq!(pool.current_used(), total);
            for a in held.drain(..) {
                pool.free(a);
            }
            prop_assert_eq!(pool.current_used(), 0);
            prop_assert_eq!(pool.live_allocations(), 0);
        }
    }
}
