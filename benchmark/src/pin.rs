//! Pin the process to one CPU.
//!
//! A wire round trip is a ping-pong between the client thread and the
//! server's handler thread. Left to the scheduler on this 2-vCPU box it runs
//! in one of two modes — both threads on one core (~12 µs per statement) or
//! one on each, paying an idle-core wake-up per message (~70 µs) — and which
//! one a run gets is decided by scheduling history. One core for the whole
//! process removes the second mode; every workload is pinned the same way so
//! their numbers stay comparable.
//!
//! std has no affinity call and the crate has no libc, hence the raw
//! `sched_setaffinity` system call. Where it is unavailable the run goes on
//! unpinned and says so.

/// Highest-numbered CPU in a `Cpus_allowed_list` such as `0-1` or `0,2-3`.
/// The highest, because CPU 0 is where a small VM takes its interrupts.
pub fn last_allowed_cpu(status: &str) -> Option<usize> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim()
        .rsplit(',')
        .next()?
        .rsplit('-')
        .next()?
        .parse()
        .ok()
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn set_affinity(cpu: usize) -> bool {
    if cpu >= 1024 {
        return false;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    let ret: isize;
    // SAFETY: sched_setaffinity(pid = 0 → the calling thread, len, mask)
    // only reads `len` bytes from `mask`, which is a live, initialised
    // 128-byte array for the whole call; it writes no user memory. The
    // clobbers are the ones the Linux syscall ABI of each architecture
    // specifies (rcx/r11 on x86-64, none beyond x0 on aarch64). Threads
    // spawned afterwards inherit the mask.
    unsafe {
        #[cfg(target_arch = "x86_64")]
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
        #[cfg(target_arch = "aarch64")]
        std::arch::asm!(
            "svc 0",
            in("x8") 122usize,
            inlateout("x0") 0isize => ret,
            in("x1") std::mem::size_of_val(&mask),
            in("x2") mask.as_ptr(),
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn set_affinity(_cpu: usize) -> bool {
    false
}

/// Pin this thread, and every thread it spawns from now on, to the last
/// allowed CPU. Returns the CPU, or `None` when the run stays unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let cpu = last_allowed_cpu(&status)?;
    set_affinity(cpu).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_last_cpu_of_the_allowed_list() {
        let status =
            |list: &str| format!("Name:\tx\nCpus_allowed:\t3\nCpus_allowed_list:\t{list}\n");
        assert_eq!(last_allowed_cpu(&status("0-1")), Some(1));
        assert_eq!(last_allowed_cpu(&status("0")), Some(0));
        assert_eq!(last_allowed_cpu(&status("0,2-3")), Some(3));
        assert_eq!(last_allowed_cpu(&status("0-3,7")), Some(7));
        assert_eq!(last_allowed_cpu("Name:\tx\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_narrows_the_allowed_list_to_one_cpu() {
        // Runs on a thread of its own: the mask is per thread, and the test
        // harness's other threads must keep theirs.
        std::thread::spawn(|| {
            if let Some(cpu) = pin_to_one_cpu() {
                let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
                let list = status
                    .lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .unwrap()
                    .trim()
                    .to_owned();
                assert_eq!(list, cpu.to_string());
            }
        })
        .join()
        .unwrap();
    }
}
