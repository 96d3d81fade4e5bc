//! The process's own resources, read from `/proc/self`.

/// A `kB`-or-count field of `/proc/self/status` (`VmHWM`, `Threads`).
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Threads of this process.
pub fn threads() -> usize {
    status_field("Threads").unwrap_or(0) as usize
}

/// Socket descriptors open in this process.
pub fn sockets() -> usize {
    let Ok(dir) = std::fs::read_dir("/proc/self/fd") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| std::fs::read_link(e.path()).ok())
        .filter(|target| target.to_string_lossy().starts_with("socket:"))
        .count()
}

/// Connections the process opened since `sockets_at_start` sockets
/// were open (the caller may inherit some, e.g. as stdin): new socket
/// descriptors, halved, because the benchmark holds both ends of each
/// socket pair.
pub fn connections(sockets_at_start: usize) -> usize {
    sockets().saturating_sub(sockets_at_start).div_ceil(2)
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Binds the calling thread, and every thread it starts afterwards, to
/// the first processor it may run on. Returns that processor.
pub fn bind_to_first_cpu() -> std::io::Result<usize> {
    let mut mask = sys::get_affinity()?;
    let word = mask
        .iter()
        .position(|&w| w != 0)
        .ok_or_else(|| std::io::Error::other("empty affinity mask"))?;
    let cpu = word * 64 + mask[word].trailing_zeros() as usize;
    mask = [0; sys::MASK_WORDS];
    mask[word] = 1 << (cpu % 64);
    sys::set_affinity(&mask)?;
    Ok(cpu)
}

/// `sched_getaffinity(2)` and `sched_setaffinity(2)` for the calling
/// thread.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::raw::c_int;

    /// Words of a `cpu_set_t` (1024 processors).
    pub const MASK_WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }

    pub fn get_affinity() -> io::Result<[u64; MASK_WORDS]> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            Ok(mask)
        } else {
            Err(io::Error::last_os_error())
        }
    }

    pub fn set_affinity(mask: &[u64; MASK_WORDS]) -> io::Result<()> {
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_status() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
        assert!(nproc() >= 1);
        let start = sockets();
        let pair = std::os::unix::net::UnixStream::pair().unwrap();
        assert_eq!(connections(start), 1);
        drop(pair);
    }

    #[test]
    fn binds_to_one_allowed_cpu() {
        // On a thread of its own: the binding is per thread.
        std::thread::spawn(|| {
            let allowed = sys::get_affinity().unwrap();
            let cpu = bind_to_first_cpu().unwrap();
            assert!(allowed[cpu / 64] & (1 << (cpu % 64)) != 0);
            let now = sys::get_affinity().unwrap();
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert!(now[cpu / 64] & (1 << (cpu % 64)) != 0);
        })
        .join()
        .unwrap();
    }
}
