//! Process counters from `/proc/self`, and CPU affinity.

/// `cpu_set_t`: a bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

fn get_affinity() -> Result<CpuSet, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(set)
}

fn set_affinity(set: &CpuSet) -> Result<(), String> {
    // SAFETY: `set` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Keeps the calling thread, and the processes it spawns meanwhile, on the
/// CPU it was running on; dropping it restores the previous affinity.
pub struct CpuPin {
    saved: CpuSet,
}

impl CpuPin {
    pub fn here() -> Result<CpuPin, String> {
        let saved = get_affinity()?;
        // SAFETY: a plain query without arguments.
        let cpu = unsafe { sched_getcpu() };
        let cpu = usize::try_from(cpu)
            .ok()
            .filter(|c| *c < 64 * saved.len())
            .ok_or_else(|| format!("sched_getcpu: {}", std::io::Error::last_os_error()))?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one)?;
        Ok(CpuPin { saved })
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        // Nothing to do about a failure here; the next pin starts over.
        let _ = set_affinity(&self.saved);
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pin_holds_one_cpu_until_dropped() {
        let cpus = |set: CpuSet| set.iter().map(|w| w.count_ones()).sum::<u32>();
        let before = get_affinity().unwrap();
        {
            let _pin = CpuPin::here().unwrap();
            assert_eq!(cpus(get_affinity().unwrap()), 1);
        }
        assert_eq!(get_affinity().unwrap(), before);
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
