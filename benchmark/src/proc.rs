//! Running one child process: wall time from spawn to exit, and its peak
//! resident memory.
//!
//! The harness spawns no threads and has no libc crate (so no `wait4`
//! rusage): it polls `try_wait`, and between polls reads `VmHWM` — the
//! kernel's own high-water mark — from `/proc/<pid>/status`. A high-water
//! mark only needs to be read once near the end, so the poll period bounds
//! the error of the wall time (by one period) rather than of the memory.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const POLL: Duration = Duration::from_micros(250);

/// Variables that change what `hdsj` does; children run without them.
const SCRUBBED_ENV: [&str; 4] = ["HDSJ_SIMD", "HDSJ_THREADS", "HDSJ_QUICK", "HDSJ_SCALE"];

pub struct ChildRun {
    pub wall_s: f64,
    /// 0 where `/proc` has no `VmHWM` (not Linux).
    pub peak_rss_kb: u64,
    pub exit_code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
}

impl ChildRun {
    pub fn success(&self) -> bool {
        self.exit_code == Some(0)
    }
}

fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Runs `program args…` to completion. Output goes to files under `scratch`
/// (not pipes, which a chatty child could fill while nobody reads them).
pub fn run(program: &Path, args: &[String], scratch: &Path) -> Result<ChildRun, String> {
    let out_path = scratch.join("child.stdout");
    let err_path = scratch.join("child.stderr");
    let create = |p: &Path| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    let mut cmd = Command::new(program);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(create(&out_path)?)
        .stderr(create(&err_path)?);
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }

    let started = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    let status_path = format!("/proc/{}/status", child.id());
    let mut peak_rss_kb = 0;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {}
            Err(e) => {
                // Do not leave the child behind on the way out.
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("waiting for {}: {e}", program.display()));
            }
        }
        if let Some(kb) = std::fs::read_to_string(&status_path)
            .ok()
            .as_deref()
            .and_then(vm_hwm_kb)
        {
            peak_rss_kb = peak_rss_kb.max(kb);
        }
        std::thread::sleep(POLL);
    };
    let wall_s = started.elapsed().as_secs_f64();
    let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
    Ok(ChildRun {
        wall_s,
        peak_rss_kb,
        exit_code: status.code(),
        stdout: read(&out_path),
        stderr: read(&err_path),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_high_water_mark_line() {
        let status = "Name:\thdsj\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(12345));
        assert_eq!(vm_hwm_kb("Name:\tzombie\n"), None);
    }

    #[test]
    fn runs_a_child_and_captures_its_output_and_exit_code() {
        let dir =
            std::env::temp_dir().join(format!("hdsj-benchmark-proc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sh = Path::new("/bin/sh");
        let ok = run(sh, &["-c".into(), "echo out; echo err >&2".into()], &dir).unwrap();
        assert!(ok.success());
        assert_eq!((ok.stdout.as_str(), ok.stderr.as_str()), ("out\n", "err\n"));
        assert!(ok.wall_s > 0.0);
        let bad = run(sh, &["-c".into(), "exit 3".into()], &dir).unwrap();
        assert_eq!(bad.exit_code, Some(3));
        assert!(!bad.success());
        assert!(run(Path::new("/nonexistent/program"), &[], &dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
