//! What the operating system knows about this process: CPU time consumed,
//! peak resident memory, and which CPU it may run on.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Words of a glibc `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of every thread of this process, live or
/// exited, in nanoseconds. `/proc/self/stat` has the same number in 10 ms
/// ticks, which is too coarse for a 0.5 s slice.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed `timespec` with the
    // 64-bit Linux layout (two i64s); clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Restricts the calling thread — and every thread it spawns afterwards —
/// to the highest-numbered CPU it is currently allowed on (CPU 0 takes most
/// interrupts). Returns that CPU, or `None` if the kernel refused, in which
/// case the process keeps running unpinned.
///
/// Why: on the 2-core reference box the scheduler places the driver and
/// server threads of a closed loop either on one core (cheap hand-offs) or
/// across both (a cross-core wake-up per hop), and whole runs of one binary
/// differ by 25 % depending on which. On one core the same binary repeats
/// within a few percent. The price is that nothing here measures parallel
/// speed-up.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live buffer of exactly `bytes` bytes, the size
    // passed; pid 0 is the calling thread. The kernel writes only into it.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes, only read.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > a);
        assert!(peak_rss_mib() > 0.5);
    }

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        // Affinity is per thread, so this does not leak into other tests.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("a thread may always narrow its own mask");
            let mut now = [0u64; CPU_SET_WORDS];
            // SAFETY: as in `pin_to_one_cpu`.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&now), now.as_mut_ptr()) };
            assert_eq!(rc, 0);
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(now[cpu / 64], 1 << (cpu % 64));
        })
        .join()
        .unwrap();
    }
}
