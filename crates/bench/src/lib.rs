//! Shared plumbing for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index). They share:
//!
//! * [`ExpArgs`] — `--out <dir>` (write JSON series) and `--quick`
//!   (shrunken workloads for smoke testing) and `--seed <u64>`;
//! * [`Experiment`] / [`Series`] — a tiny result model that pretty-prints
//!   aligned tables to stdout and serializes to JSON for EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod workloads;

use serde::Serialize;
use std::path::PathBuf;

/// Command-line arguments shared by all experiment binaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExpArgs {
    /// Output directory for JSON results (`--out <dir>`).
    pub out: Option<PathBuf>,
    /// Run a shrunken configuration (`--quick`).
    pub quick: bool,
    /// RNG seed (`--seed <u64>`, default 7).
    pub seed: u64,
}

impl ExpArgs {
    /// Parses from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = None;
        let mut quick = false;
        let mut seed = 7;
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--out" => {
                    let dir = it.next().expect("--out requires a directory");
                    out = Some(PathBuf::from(dir));
                }
                "--quick" => quick = true,
                "--seed" => {
                    seed = it
                        .next()
                        .expect("--seed requires a value")
                        .parse()
                        .expect("--seed requires an integer");
                }
                other => {
                    panic!("unknown argument {other}; usage: [--out DIR] [--quick] [--seed N]")
                }
            }
        }
        ExpArgs { out, quick, seed }
    }

    /// Picks `full` normally or `quick` under `--quick`.
    pub fn scale<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// One named data series (a line on a figure / a column of a table).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// X values.
    pub x: Vec<f64>,
    /// Y values.
    pub y: Vec<f64>,
}

impl Series {
    /// Creates a series.
    ///
    /// # Panics
    ///
    /// Panics when `x` and `y` lengths differ.
    pub fn new(name: impl Into<String>, x: Vec<f64>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "Series: x/y length mismatch");
        Series {
            name: name.into(),
            x,
            y,
        }
    }

    /// Last y value (the figure's endpoint), if any.
    pub fn last_y(&self) -> Option<f64> {
        self.y.last().copied()
    }
}

/// A reproduced table or figure.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Experiment {
    /// Identifier matching DESIGN.md (e.g. `"fig2a"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
    /// Free-form notes (parameters, observations).
    pub notes: String,
}

impl Experiment {
    /// Creates an empty experiment record.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Experiment {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: String::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, s: Series) -> &mut Self {
        self.series.push(s);
        self
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl AsRef<str>) -> &mut Self {
        self.notes.push_str(line.as_ref());
        self.notes.push('\n');
        self
    }

    /// Renders an aligned text table of all series (x column + one column
    /// per series) to a `String`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        if !self.notes.is_empty() {
            for line in self.notes.lines() {
                out.push_str(&format!("   # {line}\n"));
            }
        }
        if self.series.is_empty() {
            out.push_str("   (no data)\n");
            return out;
        }
        // Union of x values across series (they usually agree).
        let xs = &self.series[0].x;
        out.push_str(&format!("{:>14}", self.x_label));
        for s in &self.series {
            out.push_str(&format!("{:>18}", s.name));
        }
        out.push('\n');
        for (i, &x) in xs.iter().enumerate() {
            out.push_str(&format!("{x:>14.4}"));
            for s in &self.series {
                match s.y.get(i) {
                    Some(y) => out.push_str(&format!("{y:>18.6}")),
                    None => out.push_str(&format!("{:>18}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout and writes
    /// `<out>/<id>.json` when `--out` was given.
    ///
    /// # Panics
    ///
    /// Panics when the output directory cannot be created or written.
    pub fn finish(&self, args: &ExpArgs) {
        print!("{}", self.render());
        if let Some(dir) = &args.out {
            std::fs::create_dir_all(dir).expect("create output directory");
            let path = dir.join(format!("{}.json", self.id));
            let json = serde_json::to_string_pretty(self).expect("serialize experiment");
            std::fs::write(&path, json).expect("write experiment JSON");
            println!("   -> wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let a = ExpArgs::parse_from(strings(&[]));
        assert_eq!(
            a,
            ExpArgs {
                out: None,
                quick: false,
                seed: 7
            }
        );
    }

    #[test]
    fn parse_all_flags() {
        let a = ExpArgs::parse_from(strings(&["--quick", "--out", "/tmp/x", "--seed", "42"]));
        assert!(a.quick);
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(a.seed, 42);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn parse_rejects_unknown() {
        ExpArgs::parse_from(strings(&["--bogus"]));
    }

    #[test]
    fn scale_picks_by_quickness() {
        let full = ExpArgs::parse_from(strings(&[]));
        let quick = ExpArgs::parse_from(strings(&["--quick"]));
        assert_eq!(full.scale(100, 5), 100);
        assert_eq!(quick.scale(100, 5), 5);
    }

    #[test]
    fn series_validates_lengths() {
        let s = Series::new("a", vec![1.0, 2.0], vec![3.0, 4.0]);
        assert_eq!(s.last_y(), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn series_rejects_mismatch() {
        Series::new("a", vec![1.0], vec![]);
    }

    #[test]
    fn render_includes_everything() {
        let mut e = Experiment::new("figX", "Test", "t", "loss");
        e.note("alpha=0.1");
        e.push_series(Series::new("FedML", vec![1.0, 2.0], vec![0.5, 0.25]));
        e.push_series(Series::new("FedAvg", vec![1.0, 2.0], vec![0.6, 0.55]));
        let r = e.render();
        assert!(r.contains("figX"));
        assert!(r.contains("alpha=0.1"));
        assert!(r.contains("FedML"));
        assert!(r.contains("0.250000"));
    }

    #[test]
    fn finish_writes_json() {
        let dir = std::env::temp_dir().join("fml_bench_test_out");
        let _ = std::fs::remove_dir_all(&dir);
        let mut e = Experiment::new("unit", "Unit", "x", "y");
        e.push_series(Series::new("s", vec![0.0], vec![1.0]));
        let args = ExpArgs {
            out: Some(dir.clone()),
            quick: false,
            seed: 0,
        };
        e.finish(&args);
        let written = std::fs::read_to_string(dir.join("unit.json")).unwrap();
        let back: serde::Value = serde_json::from_str(&written).unwrap();
        assert_eq!(back, e.to_value());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_handles_ragged_series() {
        let mut e = Experiment::new("r", "Ragged", "x", "y");
        e.push_series(Series::new("long", vec![1.0, 2.0], vec![1.0, 2.0]));
        e.push_series(Series::new("short", vec![1.0], vec![1.0]));
        assert!(e.render().contains('-'));
    }
}
