//! Measuring a child process from outside, with the standard library only.
//!
//! Wall time runs from spawn until the child's stdout reaches end of file,
//! which happens when the process exits. Peak RSS is the largest `VmHWM`
//! seen in `/proc/<pid>/status` while the child runs. CPU time is
//! `utime + stime` from `/proc/<pid>/stat`, read once the child is a
//! zombie and before it is reaped, so it covers every thread the child
//! ran. Clock ticks are taken as 100 per second, the value of `USER_HZ` on
//! Linux.

use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Milliseconds per `/proc/<pid>/stat` clock tick.
const MS_PER_TICK: f64 = 10.0;

/// How often `VmHWM` is sampled while a child runs.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// What one measured child run produced.
#[derive(Debug)]
pub struct Run {
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub peak_rss_mib: f64,
    /// `None` when the child was killed by a signal.
    pub exit_code: Option<i32>,
    pub stdout: Vec<u8>,
}

/// One reading of `/proc/<pid>/stat`.
pub struct Stat {
    pub state: char,
    pub cpu_ticks: u64,
}

/// Parse `/proc/<pid>/stat`: the state is the field after the
/// parenthesised command name, `utime` and `stime` are fields 14 and 15.
pub fn read_stat(pid: u32) -> Option<Stat> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat(&text)
}

fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (state), so field N is `fields[N - 3]`.
    let state = fields.first()?.chars().next()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Stat {
        state,
        cpu_ticks: utime + stime,
    })
}

pub fn ticks_to_ms(ticks: u64) -> f64 {
    ticks as f64 * MS_PER_TICK
}

/// `VmHWM` of a live process, in MiB (`None` once its memory is gone).
pub fn read_vm_hwm_mib(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_mib(&text)
}

fn parse_vm_hwm_mib(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Run `program args...` in `cwd` with stderr discarded, capture stdout,
/// and measure it.
pub fn run(program: &Path, args: &[String], cwd: &Path) -> std::io::Result<Run> {
    let started = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id();
    let Some(mut stdout) = child.stdout.take() else {
        reap(&mut child);
        return Err(std::io::Error::other("child stdout was not piped"));
    };
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut buf = Vec::new();
            let read = stdout.read_to_end(&mut buf);
            (read.map(|_| buf), Instant::now())
        });
        let mut peak_rss_mib = 0.0f64;
        let mut cpu_ticks = 0;
        loop {
            match read_stat(pid) {
                Some(stat) if stat.state == 'Z' || stat.state == 'X' => {
                    cpu_ticks = stat.cpu_ticks;
                    break;
                }
                Some(_) => {}
                None => break,
            }
            if let Some(hwm) = read_vm_hwm_mib(pid) {
                peak_rss_mib = peak_rss_mib.max(hwm);
            }
            std::thread::sleep(SAMPLE_EVERY);
        }
        let status = child.wait();
        let (stdout, eof_at) = reader
            .join()
            .map_err(|_| std::io::Error::other("stdout reader panicked"))?;
        Ok(Run {
            wall_s: eof_at.duration_since(started).as_secs_f64(),
            cpu_ms: ticks_to_ms(cpu_ticks),
            peak_rss_mib,
            exit_code: status?.code(),
            stdout: stdout?,
        })
    })
}

/// Kill (if still running) and reap a child.
pub fn reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_spaces_and_parens_in_the_name() {
        let line = "4242 (a (b) c) Z 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 1 0";
        let stat = parse_stat(line).expect("parses");
        assert_eq!(stat.state, 'Z');
        assert_eq!(stat.cpu_ticks, 175);
        assert_eq!(ticks_to_ms(stat.cpu_ticks), 1750.0);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tdiffaudit\nVmPeak:\t  900 kB\nVmHWM:\t  524288 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(512.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn a_child_is_measured_and_reaped() {
        let run = run(
            Path::new("sh"),
            &["-c".into(), "printf hello; exit 3".into()],
            Path::new("."),
        )
        .expect("sh runs");
        assert_eq!(run.stdout, b"hello");
        assert_eq!(run.exit_code, Some(3));
        assert!(run.wall_s > 0.0);
    }
}
