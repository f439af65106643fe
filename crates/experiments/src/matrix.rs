//! One (row × column) Monte-Carlo matrix, declared once and run as one
//! fan-out (DESIGN.md §13).
//!
//! The chaos sweep, the attack matrix and the gray matrix all compare
//! allocation policies (rows) across worlds (columns) over a seed
//! stream. Each is a [`Matrix`] declaration: its roster, its columns,
//! a pure cell function `(row, col, seed) → metric row`, and its report
//! layout. [`Matrix::run`] pushes every *(seed × row × column)* triple
//! through the Monte-Carlo runner as one flat tagged batch
//! ([`MonteCarlo::run_tagged`](gridmarket::sched::MonteCarlo::run_tagged))
//! — a slow cell on one seed no longer serializes the others — then
//! regroups the outcomes per cell, byte-identical at any thread count.
//! The returned [`MatrixReport`] carries the lookups and gate helpers the
//! `--check` gates are written in.

use gridmarket::chaos_runner;
use gridmarket::sched::{seed_stream, McBatch, McOutcome, McReport, ScenarioFailure};

use crate::mc::McArgs;

/// One cell's named metric values for one seed.
pub type Rows = Vec<(&'static str, f64)>;

/// A matrix's `--check` gate: `Ok(success line)` or `Err(failure line)`.
pub type Gate = fn(&MatrixReport, &McArgs) -> Result<String, String>;

/// A declared (row × column) Monte-Carlo matrix.
#[derive(Clone, Debug)]
pub struct Matrix<'a> {
    /// First header line, before the seed/thread summary.
    pub title: &'static str,
    /// World description: the header lines after the first, each ending
    /// in a newline.
    pub world: String,
    /// Row roster (allocation policies), report order.
    pub rows: &'a [&'static str],
    /// Column roster (worlds), report order.
    pub cols: &'a [&'static str],
    /// The pure cell function; a panic quarantines that seed of that cell.
    pub cell: fn(row: &'static str, col: &'static str, seed: u64) -> Rows,
    /// How the report renders below the header.
    pub layout: Layout<'a>,
}

/// The rendered body of a [`MatrixReport`].
#[derive(Clone, Copy, Debug)]
pub enum Layout<'a> {
    /// One `== policy: <row> ==` section per cell with its full
    /// Student-t report (for single-column sweeps).
    Sections,
    /// One table line per cell: row, column (`head`, padded to `width`),
    /// then the mean of each metric column.
    Table {
        /// Header of the column-label field.
        head: &'static str,
        /// Width of the column-label field.
        width: usize,
        /// The metric columns.
        metrics: &'a [Column],
    },
}

/// One metric column of a [`Layout::Table`].
#[derive(Clone, Copy, Debug)]
pub struct Column {
    /// Column header.
    pub head: &'static str,
    /// Metric whose mean the column shows (`NaN` when the cell lacks it).
    pub metric: &'static str,
    /// Field width.
    pub width: usize,
    /// Digits after the point.
    pub precision: usize,
    /// Scientific notation instead of fixed point.
    pub exp: bool,
}

impl Column {
    /// A fixed-point column.
    pub const fn fixed(head: &'static str, metric: &'static str, width: usize, precision: usize) -> Column {
        Column { head, metric, width, precision, exp: false }
    }

    /// A scientific-notation column.
    pub const fn exp(head: &'static str, metric: &'static str, width: usize, precision: usize) -> Column {
        Column { head, metric, width, precision, exp: true }
    }
}

/// One cell of a finished matrix: a Student-t report over the seeds.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Row (policy).
    pub row: &'static str,
    /// Column (world).
    pub col: &'static str,
    /// Report over the completed seeds.
    pub report: McReport,
    /// Quarantined failures (seed, panic, replay hint); indices are seed
    /// positions, as in a plain per-cell run.
    pub failures: Vec<ScenarioFailure>,
}

/// A finished matrix.
#[derive(Clone, Debug)]
pub struct MatrixReport {
    /// All cells, row-major in roster order.
    pub cells: Vec<Cell>,
    /// Rendered report.
    pub rendered: String,
}

impl Matrix<'_> {
    /// Run every cell over `args.seeds` seeds as one tagged fan-out and
    /// render the report.
    pub fn run(&self, args: McArgs) -> MatrixReport {
        let tags: Vec<(&'static str, &'static str)> = self
            .rows
            .iter()
            .flat_map(|&r| self.cols.iter().map(move |&c| (r, c)))
            .collect();
        let items: Vec<(u64, (&'static str, &'static str))> = seed_stream(args.base_seed, args.seeds)
            .into_iter()
            .flat_map(|s| tags.iter().map(move |&t| (s, t)))
            .collect();
        let cell = self.cell;
        let batch = chaos_runner(args.threads)
            .run_tagged(&items, move |seed, &(row, col)| cell(row, col, seed));

        // Item `i` is seed `i / n` of cell `i % n`; rewrite indices back
        // to seed positions so replay hints read as in a per-cell run.
        let n = tags.len();
        let mut grouped: Vec<Vec<McOutcome<Rows>>> = (0..n).map(|_| Vec::new()).collect();
        for o in batch.outcomes {
            let index = o.index / n;
            grouped[o.index % n].push(McOutcome {
                seed: o.seed,
                index,
                result: o.result.map_err(|f| ScenarioFailure { index, ..f }),
            });
        }
        let cells = grouped
            .into_iter()
            .zip(tags)
            .map(|(outcomes, (row, col))| {
                let b = McBatch::from_outcomes(outcomes);
                Cell { row, col, report: b.report(Clone::clone), failures: b.failures().cloned().collect() }
            })
            .collect();
        let mut report = MatrixReport { cells, rendered: String::new() };
        report.rendered = self.render(&report, &args);
        report
    }

    fn render(&self, report: &MatrixReport, args: &McArgs) -> String {
        let mut out = format!(
            "{}: {} seeds (base {:#x}), {} threads\n{}\n",
            self.title, args.seeds, args.base_seed, args.threads, self.world
        );
        if let Layout::Table { head, width, metrics } = self.layout {
            out.push_str(&format!("{:<14} {head:<width$}", "policy"));
            for m in metrics {
                out.push_str(&format!(" {:>w$}", m.head, w = m.width));
            }
            out.push('\n');
        }
        for c in &report.cells {
            match self.layout {
                Layout::Sections => out.push_str(&format!("== policy: {} ==\n{}", c.row, c.report.render())),
                Layout::Table { width, metrics, .. } => {
                    out.push_str(&format!("{:<14} {:<width$}", c.row, c.col));
                    for m in metrics {
                        let v = c.report.metric(m.metric).map_or(f64::NAN, |s| s.mean);
                        let (w, p) = (m.width, m.precision);
                        out.push_str(&if m.exp { format!(" {v:>w$.p$e}") } else { format!(" {v:>w$.p$}") });
                    }
                    out.push('\n');
                }
            }
            for f in &c.failures {
                out.push_str(&format!("  QUARANTINED {f}\n"));
            }
            if let Layout::Sections = self.layout {
                out.push('\n');
            }
        }
        out
    }
}

impl MatrixReport {
    /// Look up one cell.
    pub fn cell(&self, row: &str, col: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.row == row && c.col == col)
    }

    /// A cell's mean for `metric`.
    pub fn mean(&self, row: &str, col: &str, metric: &str) -> Option<f64> {
        self.cell(row, col).and_then(|c| c.report.metric(metric)).map(|s| s.mean)
    }

    /// Whether row `a`'s mean of `metric` in column `col` is strictly
    /// below row `b`'s (false when either is missing).
    pub fn beats(&self, a: &str, b: &str, col: &str, metric: &str) -> bool {
        matches!((self.mean(a, col, metric), self.mean(b, col, metric)), (Some(x), Some(y)) if x < y)
    }

    /// Total quarantined runs (panics) across all cells.
    pub fn total_quarantined(&self) -> usize {
        self.cells.iter().map(|c| c.failures.len()).sum()
    }

    /// Row-parity gate: in column `col`, rows `a` and `b` report the same
    /// metrics, and every metric's mean and max agree bit for bit.
    pub fn rows_identical(&self, a: &str, b: &str, col: &str) -> bool {
        let (Some(a), Some(b)) = (self.cell(a, col), self.cell(b, col)) else {
            return false;
        };
        let (a, b) = (&a.report.metrics, &b.report.metrics);
        !a.is_empty()
            && a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.name == y.name
                    && x.summary.mean.to_bits() == y.summary.mean.to_bits()
                    && x.summary.max.to_bits() == y.summary.max.to_bits()
            })
    }

    /// Invariant gate: every cell of `rows` reports `metric` with a
    /// maximum of exactly 0 across all seeds.
    pub fn zero_max(&self, rows: &[&str], metric: &str) -> bool {
        self.cells
            .iter()
            .filter(|c| rows.contains(&c.row))
            .all(|c| c.report.metric(metric).is_some_and(|s| s.max == 0.0))
    }

    /// The rendered report without its first line, which names the
    /// thread count: this part is byte-identical at any thread count.
    pub fn body(&self) -> &str {
        self.rendered.split_once('\n').map_or("", |(_, rest)| rest)
    }

    /// Compare [`MatrixReport::body`] with the committed snapshot
    /// `tests/golden/<name>.txt`. `GOLDEN_REGEN=1` rewrites the snapshot
    /// instead — only when a behaviour change is intended and reviewed.
    #[cfg(test)]
    pub(crate) fn assert_golden(&self, name: &str) {
        let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        if std::env::var_os("GOLDEN_REGEN").is_some() {
            std::fs::write(&path, self.body()).expect("write golden snapshot");
            return;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e}; run GOLDEN_REGEN=1 cargo test -p gm-experiments"));
        assert!(self.body() == golden, "{name} report drifted from {path}:\n{}", self.body());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(row: &'static str, col: &'static str, seed: u64) -> Rows {
        assert!(!(row == "b" && col == "y" && seed.is_multiple_of(2)), "even seed");
        let v = if col == "x" { 1.0 } else { seed as f64 };
        vec![("v", v), ("zero", 0.0)]
    }

    fn run(threads: usize) -> MatrixReport {
        let m = Matrix {
            title: "Toy",
            world: "world: none\n".to_owned(),
            rows: &["a", "b"],
            cols: &["x", "y"],
            cell: toy,
            layout: Layout::Table { head: "col", width: 4, metrics: &[Column::fixed("v", "v", 6, 2)] },
        };
        m.run(McArgs { seeds: 8, base_seed: 0x70, threads })
    }

    #[test]
    fn cells_regroup_row_major_with_seed_indices() {
        let m = run(2);
        let order: Vec<(&str, &str)> = m.cells.iter().map(|c| (c.row, c.col)).collect();
        assert_eq!(order, [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")]);
        let failed = &m.cell("b", "y").expect("cell").failures;
        assert_eq!(m.total_quarantined(), failed.len());
        assert!(!failed.is_empty());
        let seeds = seed_stream(0x70, 8);
        for f in failed {
            assert_eq!(seeds[f.index], f.seed, "failure index is the seed position");
        }
        assert_eq!(m.mean("a", "x", "v"), Some(1.0));
        assert!(m.rows_identical("a", "b", "x"));
        assert!(!m.rows_identical("a", "b", "y"));
        assert!(!m.rows_identical("a", "c", "x"));
        assert!(m.beats("a", "b", "y", "v") != m.beats("b", "a", "y", "v"));
        assert!(!m.beats("a", "b", "x", "v") && !m.beats("a", "c", "x", "v"));
        assert!(m.zero_max(&["a", "b"], "zero"));
        assert!(!m.zero_max(&["a"], "v"));
        assert!(m.rendered.contains("QUARANTINED seed"));
        assert_eq!(m.body(), run(1).body());
    }
}
