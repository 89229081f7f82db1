//! Host facts recorded with every run: results that depend on threads,
//! vector width or cache size are meaningless without them.

use std::fs;

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The kernel tier `dagfact-kernels` dispatches to on this host.
pub fn isa() -> &'static str {
    dagfact_kernels::isa().name()
}

/// Size of the last-level cache of cpu0 in bytes, from sysfs.
pub fn llc_bytes() -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(level) = fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let Ok(size) = fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_size(size.trim())) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, s)| s)
}

/// `"266240K"`, `"4M"`, `"512"` → bytes.
fn parse_size(s: &str) -> Option<usize> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1usize << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(mult)
}

/// A `kB` field of a `/proc` status file, in bytes.
fn proc_kb(path: &str, field: &str) -> Option<usize> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb = line[field.len()..].trim().trim_end_matches("kB").trim();
    kb.parse::<usize>().ok()?.checked_mul(1024)
}

/// Peak resident set size (`VmHWM`) of this process so far.
pub fn peak_rss_bytes() -> Option<usize> {
    proc_kb("/proc/self/status", "VmHWM:")
}

/// Memory the kernel estimates is available without swapping.
pub fn mem_available_bytes() -> Option<usize> {
    proc_kb("/proc/meminfo", "MemAvailable:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("266240K"), Some(266_240 << 10));
        assert_eq!(parse_size("4M"), Some(4 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_bytes().is_some_and(|b| b > 0));
        assert!(nproc() >= 1);
    }
}
