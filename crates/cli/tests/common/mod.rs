//! What the CLI tests share: one seeded config, a temp dir holding it,
//! the `fedml` binary, a `fedml` process run in the background under a
//! time limit, and `fedml runtime` run that way on the config with its
//! JSON report read back through `serde_json`. Each test file declares
//! this module `pub mod common;`, so what one of them leaves unused is
//! not dead code.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

/// One seeded federation: 8 synthetic nodes, softmax over dim 6 × 3
/// classes (21 model parameters), 6 FedML rounds of `T0` = 2.
const CONFIG: &str = r#"{
  "seed": 13,
  "source_frac": 0.75,
  "dataset": {
    "kind": "synthetic",
    "alpha": 0.5,
    "beta": 0.5,
    "nodes": 8,
    "dim": 6,
    "classes": 3,
    "mean_samples": 18.0
  },
  "model": { "kind": "softmax", "l2": 0.001 },
  "algorithm": {
    "kind": "fedml",
    "alpha": 0.05,
    "beta": 0.05,
    "local_steps": 2,
    "rounds": 6,
    "first_order": false
  },
  "simulate": null,
  "eval": { "k": 4, "adapt_steps": 3, "adapt_lr": 0.05, "fgsm_xi": null }
}"#;

/// A directory of its own under the system temp dir, holding
/// [`CONFIG`] as `cfg.json`; removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("fml-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the temp dir");
        std::fs::write(dir.join("cfg.json"), CONFIG).expect("write the config");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A command running the `fedml` binary under test.
pub fn fedml() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fedml"))
}

/// How long a [`Running`] process may run; a healthy run takes about a
/// second.
const LIMIT: Duration = Duration::from_secs(60);
/// How long a service may take to report its address.
const ADDR_LIMIT: Duration = Duration::from_secs(10);

/// A `fedml` process run in `dir` on the whitespace-separated `args`,
/// its stderr kept in `<name>.err`; killed if the test leaves it
/// running.
pub struct Running {
    child: Child,
    err: PathBuf,
}

impl Running {
    pub fn spawn(dir: &Path, name: &str, args: &str) -> Running {
        let err = dir.join(format!("{name}.err"));
        let child = fedml()
            .args(args.split_whitespace())
            .current_dir(dir)
            .stdout(Stdio::null())
            .stderr(File::create(&err).expect("create the stderr file"))
            .spawn()
            .expect("spawn fedml");
        Running { child, err }
    }

    pub fn stderr(&self) -> String {
        std::fs::read_to_string(&self.err).unwrap_or_default()
    }

    /// Whether the process is still running.
    pub fn running(&mut self) -> bool {
        self.child.try_wait().expect("poll fedml").is_none()
    }

    /// Waits at most [`LIMIT`] for the process to exit; its exit status
    /// and stderr (stdout is not kept).
    pub fn exit(mut self) -> Output {
        let deadline = Instant::now() + LIMIT;
        while self.running() {
            assert!(Instant::now() < deadline, "hung: {}", self.stderr());
            std::thread::sleep(Duration::from_millis(20));
        }
        Output {
            status: self.child.wait().expect("reap fedml"),
            stdout: Vec::new(),
            stderr: self.stderr().into_bytes(),
        }
    }

    /// [`exit`](Self::exit), which must be a success.
    pub fn finish(self) {
        let out = self.exit();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{}: {stderr}", out.status);
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The address `server` reports on stderr — the word after `prefix` on
/// the line that starts with it — waited for at most [`ADDR_LIMIT`].
pub fn listening_addr(server: &mut Running, prefix: &str) -> String {
    let deadline = Instant::now() + ADDR_LIMIT;
    loop {
        let err = server.stderr();
        if let Some(addr) = err
            .lines()
            .find_map(|l| l.strip_prefix(prefix)?.split_whitespace().next())
        {
            return addr.to_owned();
        }
        assert!(
            server.running() && Instant::now() < deadline,
            "{prefix:?} never reported an address: {err}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs `fedml runtime cfg.json <flags> --json <name>.json` in `dir` as a
/// [`Running`] process, and [waits](Running::exit) for it. No flag may
/// contain whitespace.
pub fn fedml_runtime(dir: &Path, name: &str, flags: &[&str]) -> Output {
    let args = format!("runtime cfg.json {} --json {name}.json", flags.join(" "));
    Running::spawn(dir, name, &args).exit()
}

/// [`fedml_runtime`], which must succeed, and the report it wrote.
pub fn runtime(dir: &Path, name: &str, flags: &[&str]) -> Value {
    let out = fedml_runtime(dir, name, flags);
    assert!(
        out.status.success(),
        "fedml runtime {flags:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    read(&dir.join(format!("{name}.json")))
}

/// The JSON report at `path`.
pub fn read(path: &Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read the report {}: {e}", path.display()));
    serde_json::from_str(&text).expect("the report is JSON")
}

/// The value at `path` (a key per level) in `report`.
pub fn at<'v>(report: &'v Value, path: &[&str]) -> &'v Value {
    path.iter().fold(report, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("report has no {path:?}"))
    })
}

pub fn uint(report: &Value, path: &[&str]) -> u64 {
    match at(report, path) {
        Value::UInt(n) => *n,
        other => panic!("{path:?} is {other:?}, not a count"),
    }
}

pub fn float(report: &Value, path: &[&str]) -> f64 {
    match at(report, path) {
        Value::Float(x) => *x,
        Value::UInt(n) => *n as f64,
        other => panic!("{path:?} is {other:?}, not a number"),
    }
}

pub fn text<'v>(report: &'v Value, path: &[&str]) -> &'v str {
    at(report, path)
        .as_str()
        .unwrap_or_else(|| panic!("{path:?} is not a string"))
}
