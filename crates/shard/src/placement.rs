//! Worker placement: start each spawned worker on a CPU of its own.
//!
//! The scheduler is normally trusted to spread busy threads over the
//! CPUs. Where a cpuset turns load balancing off
//! (`cpuset.sched_load_balance = 0`) it never does: a new thread often
//! starts on the CPU of the thread that spawned it, a worker that starts
//! on its caller's CPU shares it for the whole run, and a two-worker
//! sweep makes one core's worth of progress (DESIGN.md §17, "Worker
//! placement"). So a worker moves itself once, before its first
//! task: it narrows its own affinity mask to one target CPU, which makes
//! the kernel migrate it there, and restores the original mask at once.
//! The worker is placed, not pinned: a kernel that balances load can
//! still move it later.
//!
//! Everything here acts on the calling thread only. Off Linux, or when
//! the thread may run on fewer than two CPUs, it does nothing.

pub(crate) use sys::current_cpu;

/// Move the calling thread to the `k`-th CPU its mask allows after
/// `home` (counting cyclically, in CPU-number order), then restore the
/// mask it had. Does nothing when the mask allows fewer than two CPUs
/// or cannot be read or set.
pub(crate) fn place_after(home: usize, k: usize) {
    let Some(original) = sys::affinity() else {
        return;
    };
    let Some(target) = nth_after(&original.cpus(), home, k) else {
        return;
    };
    if sys::set_affinity(&sys::CpuSet::single(target)) {
        // Should the restore fail, the worker stays pinned to `target`,
        // which is still a CPU it was allowed to run on.
        sys::set_affinity(&original);
    }
}

/// The `k`-th (1-based) entry of `allowed` after `home`, wrapping
/// around; `None` when fewer than two CPUs are allowed or `k` is 0.
fn nth_after(allowed: &[usize], home: usize, k: usize) -> Option<usize> {
    if allowed.len() < 2 || k == 0 {
        return None;
    }
    let first_after = allowed.partition_point(|&cpu| cpu <= home);
    Some(allowed[(first_after + k - 1) % allowed.len()])
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_ulong};

    /// CPUs a glibc/musl `cpu_set_t` holds.
    const SET_BITS: usize = 1024;
    const WORD_BITS: usize = c_ulong::BITS as usize;

    /// Layout of the C library's `cpu_set_t`: a bit array of
    /// `unsigned long` words, CPU `i` at bit `i % WORD_BITS` of word
    /// `i / WORD_BITS` (what `CPU_SET` computes).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    #[repr(C)]
    pub(crate) struct CpuSet([c_ulong; SET_BITS / WORD_BITS]);

    impl CpuSet {
        pub(crate) fn single(cpu: usize) -> Self {
            let mut set = CpuSet([0; SET_BITS / WORD_BITS]);
            set.0[cpu / WORD_BITS] |= 1 << (cpu % WORD_BITS);
            set
        }

        /// The CPUs in the set, ascending.
        pub(crate) fn cpus(&self) -> Vec<usize> {
            (0..SET_BITS)
                .filter(|&cpu| self.0[cpu / WORD_BITS] & (1 << (cpu % WORD_BITS)) != 0)
                .collect()
        }
    }

    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }

    /// The CPU the calling thread is running on, if the platform says.
    pub(crate) fn current_cpu() -> Option<usize> {
        // SAFETY: `sched_getcpu` takes no arguments and only reads the
        // calling thread's scheduler state; it returns -1 on failure.
        let cpu = unsafe { sched_getcpu() };
        usize::try_from(cpu).ok()
    }

    /// The calling thread's affinity mask (`pid` 0 is the calling
    /// thread), or `None` if the kernel's mask does not fit a
    /// `cpu_set_t` or the call fails.
    pub(crate) fn affinity() -> Option<CpuSet> {
        let mut set = CpuSet([0; SET_BITS / WORD_BITS]);
        // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer and
        // `size` is exactly its length in bytes, so the kernel writes
        // within it; the call touches nothing else.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Set the calling thread's affinity mask; `false` if the kernel
    /// refused it (for example, no CPU of `set` is allowed by the
    /// thread's cpuset).
    pub(crate) fn set_affinity(set: &CpuSet) -> bool {
        // SAFETY: `set` points to an initialised `cpu_set_t`-sized value
        // that outlives the call, and `size` is its length in bytes; the
        // kernel only reads it, and `pid` 0 changes the calling thread
        // alone.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
        rc == 0
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    /// No affinity control off Linux: every query reports "unknown".
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(crate) struct CpuSet;

    impl CpuSet {
        pub(crate) fn single(_cpu: usize) -> Self {
            CpuSet
        }

        pub(crate) fn cpus(&self) -> Vec<usize> {
            Vec::new()
        }
    }

    pub(crate) fn current_cpu() -> Option<usize> {
        None
    }

    pub(crate) fn affinity() -> Option<CpuSet> {
        None
    }

    pub(crate) fn set_affinity(_set: &CpuSet) -> bool {
        false
    }
}

#[cfg(test)]
pub(crate) use sys::{affinity, set_affinity, CpuSet};

/// The calling thread's mask, when it allows at least two CPUs and the
/// current CPU can be read; placement tests skip otherwise.
#[cfg(test)]
pub(crate) fn two_cpu_mask() -> Option<CpuSet> {
    affinity().filter(|m| m.cpus().len() >= 2 && current_cpu().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_after_counts_cyclically_from_home() {
        assert_eq!(nth_after(&[0, 1], 0, 1), Some(1));
        assert_eq!(nth_after(&[0, 1], 1, 1), Some(0));
        assert_eq!(nth_after(&[0, 1], 0, 2), Some(0));
        assert_eq!(nth_after(&[0, 2, 5], 2, 1), Some(5));
        assert_eq!(nth_after(&[0, 2, 5], 2, 2), Some(0));
        // A home outside the mask counts from the next allowed CPU.
        assert_eq!(nth_after(&[0, 2, 5], 3, 1), Some(5));
        assert_eq!(nth_after(&[3], 3, 1), None);
        assert_eq!(nth_after(&[0, 1], 0, 0), None);
    }

    #[test]
    fn placed_thread_leaves_its_home_cpu() {
        if two_cpu_mask().is_none() {
            eprintln!("skipped: fewer than two CPUs allowed");
            return;
        }
        let home = current_cpu().expect("checked by two_cpu_mask");
        place_after(home, 1);
        assert_ne!(current_cpu(), Some(home));
    }

    #[test]
    fn placed_thread_keeps_its_mask() {
        let Some(before) = two_cpu_mask() else {
            eprintln!("skipped: fewer than two CPUs allowed");
            return;
        };
        place_after(current_cpu().expect("checked by two_cpu_mask"), 1);
        assert_eq!(affinity(), Some(before), "placed, not pinned");
    }
}
