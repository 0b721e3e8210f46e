//! Pins the process to one CPU.
//!
//! With one closed-loop connection only one of the client thread and the
//! server's reactor thread is runnable at a time, so one CPU serves both.
//! On a virtual machine, waking a thread on another, idle vCPU waits for
//! the hypervisor to run that vCPU, and that wait follows the neighbours'
//! load rather than the program: it moved the statement median by 2× on
//! one seed between runs. On one CPU a reply wakes its reader on the CPU
//! that sent it.

use std::os::raw::{c_int, c_ulong};

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

/// Words in glibc's `cpu_set_t` (1,024 CPUs).
const WORDS: usize = 1024 / c_ulong::BITS as usize;

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the lowest-numbered CPU it may run on. Returns that CPU, or `None`
/// if the affinity calls fail.
pub fn pin_to_one_cpu() -> Option<usize> {
    let bits = c_ulong::BITS as usize;
    let mut mask = [0 as c_ulong; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * bits).find(|&i| (mask[i / bits] >> (i % bits)) & 1 == 1)?;
    let mut one = [0 as c_ulong; WORDS];
    one[cpu / bits] = 1 << (cpu % bits);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_to_the_thread_and_its_children() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("affinity calls succeed");
            let one = || std::thread::available_parallelism().unwrap().get();
            assert_eq!(one(), 1, "pinned to CPU {cpu}");
            assert_eq!(std::thread::spawn(one).join().unwrap(), 1);
        })
        .join()
        .unwrap();
    }
}
