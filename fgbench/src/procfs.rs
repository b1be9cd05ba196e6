//! Process CPU time and peak memory, read from Linux `/proc`.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this benchmark targets).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process, all threads, in ms.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name is parenthesised and may hold spaces: fields are
    // counted after its closing parenthesis, where utime and stime are the
    // 12th and 13th.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric CPU time field");
    (ticks(11) + ticks(12)) * 1000.0 / USER_HZ
}

/// Time the hypervisor ran other guests while this machine's CPUs wanted
/// to run (the `steal` column of `/proc/stat`, all CPUs), in ms.
pub fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat.lines().next().expect("the aggregate cpu line");
    let steal = cpu.split_whitespace().nth(8).and_then(|v| v.parse::<f64>().ok());
    steal.unwrap_or(0.0) * 1000.0 / USER_HZ
}

/// Restarts the peak-RSS high-water mark at the current resident size
/// (`/proc/self/clear_refs`, Linux 4.0 and later).
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("reset VmHWM via /proc/self/clear_refs");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_and_cpu_advances() {
        let before = cpu_ms();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ms() > before);
        assert!(steal_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
