//! The paper's claims as checks over the CSVs the sweeps write, and the
//! reproduction report generated from them.
//!
//! A [`Section`] is one figure or table of the evaluation: what the paper
//! reports, the CSVs its sweep writes and its [`Claim`]s. A claim reduces
//! one CSV to numbers ([`Stat`] over [`Rows`]) that must lie in a stated
//! interval, its margin around the paper's number, and says where it
//! must hold ([`Need`]). A known deviation is a claim expected to fail,
//! carried with its numbers so that a fix shows.
//!
//! [`report`] is a pure function of a results directory's CSVs: it
//! renders `REPORT.md` (every section's tables next to the paper's
//! numbers, every claim's result and slack, and a verdict generated from
//! them) and says whether every claim required at that scale holds.

use std::fmt::Write;
use std::iter::zip;
use std::path::Path;

/// One figure or table of the evaluation.
pub struct Section {
    /// Heading: the figure or table, " — ", what it plots.
    pub title: &'static str,
    /// What the paper reports, with its numbers.
    pub paper: &'static str,
    /// The CSV stems its sweep writes, rendered in this order.
    pub csvs: &'static [&'static str],
    /// What the reproduction claims of it.
    pub claims: &'static [Claim],
}

/// The rows of a CSV a claim reads; a row's key is its first cell.
#[derive(Clone, Copy)]
pub enum Rows {
    /// Every row.
    All,
    /// Rows whose key is at least this.
    From(f64),
    /// The row whose key is this.
    At(f64),
    /// The row at this position (0 = first under the header).
    Nth(usize),
}

/// What a claim measures in its rows.
#[derive(Clone, Copy)]
pub enum Stat {
    /// The first key at which column `.0` is at least column `.1`.
    FirstAtLeast(&'static str, &'static str),
    /// Every value of these columns.
    Values(&'static [&'static str]),
    /// Column `.0` over column `.1`, per row.
    Ratio(&'static str, &'static str),
    /// Column `.0`'s rise from the first row to the last, over the
    /// largest rise of the other columns of `.1`.
    Steepest(&'static str, &'static [&'static str]),
    /// Per row, the smallest other column of `.1` over column `.0`.
    Floor(&'static str, &'static [&'static str]),
    /// Column `.0`'s last value over its first.
    LastOverFirst(&'static str),
    /// The key of the row where column `.0` is smallest.
    ArgMin(&'static str),
    /// Each of columns `.0` over the paper's printed number `.1`.
    Printed(&'static [&'static str], &'static [f64]),
}

/// Where a claim must hold.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Need {
    /// At full scale.
    Full,
    /// At quick scale as well as at full scale.
    Quick,
    /// Nowhere: a known deviation, expected to fail at full scale.
    Deviation,
}

/// One claim: `stat` over `rows` of CSV `csv` lies in `within`.
#[derive(Clone, Copy)]
pub struct Claim {
    /// Where it must hold.
    pub need: Need,
    /// The CSV stem it reads.
    pub csv: &'static str,
    /// Rows read.
    pub rows: Rows,
    /// The measurement.
    pub stat: Stat,
    /// Inclusive bounds every measured number must lie in: the margin.
    pub within: (f64, f64),
    /// What is measured.
    pub what: &'static str,
    /// The paper's number it stands for.
    pub paper: &'static str,
}

impl Claim {
    /// The measured numbers in the results in `dir`, or `None` if the
    /// CSV, a column or every row is missing.
    fn measure(&self, dir: &Path) -> Option<Vec<f64>> {
        let t = read_csv(dir, self.csv)?;
        let admits = |(i, r): &(usize, &Vec<String>)| match self.rows {
            Rows::All => true,
            Rows::From(k) => cell(&r[0]) >= k,
            Rows::At(k) => cell(&r[0]) == k,
            Rows::Nth(n) => *i == n,
        };
        let rows: Vec<_> = t[1..]
            .iter()
            .enumerate()
            .filter(admits)
            .map(|r| r.1)
            .collect();
        let (first, last) = (rows.first()?, rows.last()?);
        let col = |name: &str| t[0].iter().position(|h| h == name);
        let cols = |names: &[&str]| names.iter().map(|n| col(n)).collect::<Option<Vec<_>>>();
        let at = |r: &[String], c: usize| cell(r.get(c).map_or("", String::as_str));
        let others = |a: usize, of: &[&str]| Some(cols(of)?.into_iter().filter(move |&c| c != a));
        let min = |xs: &mut dyn Iterator<Item = f64>| xs.fold(f64::INFINITY, f64::min);
        let per_row = |f: &dyn Fn(&[String]) -> Vec<f64>| rows.iter().flat_map(|r| f(r)).collect();
        Some(match self.stat {
            Stat::FirstAtLeast(a, b) => {
                let (a, b) = (col(a)?, col(b)?);
                let hit = rows.iter().find(|r| at(r, a) >= at(r, b));
                vec![hit.map_or(f64::NAN, |r| cell(&r[0]))]
            }
            Stat::Values(names) => {
                let cs = cols(names)?;
                per_row(&|r| cs.iter().map(|&c| at(r, c)).collect())
            }
            Stat::Ratio(a, b) => {
                let (a, b) = (col(a)?, col(b)?);
                per_row(&|r| vec![at(r, a) / at(r, b)])
            }
            Stat::Steepest(a, of) => {
                let (a, rise) = (col(a)?, |c: usize| at(last, c) - at(first, c));
                vec![rise(a) / -min(&mut others(a, of)?.map(|c| -rise(c)))]
            }
            Stat::Floor(a, of) => {
                let (a, cs) = (col(a)?, others(col(a)?, of)?.collect::<Vec<_>>());
                per_row(&|r| vec![min(&mut cs.iter().map(|&c| at(r, c))) / at(r, a)])
            }
            Stat::LastOverFirst(a) => vec![at(last, col(a)?) / at(first, col(a)?)],
            Stat::ArgMin(a) => {
                let a = col(a)?;
                let least = rows.iter().min_by(|x, y| at(x, a).total_cmp(&at(y, a)))?;
                vec![cell(&least[0])]
            }
            Stat::Printed(names, printed) => {
                let cs = cols(names)?;
                per_row(&|r| zip(&cs, printed).map(|(&c, p)| at(r, c) / p).collect())
            }
        })
    }
}

/// A CSV as written, its header first and its cells trimmed: a row is
/// ragged where a cell held a comma.
fn read_csv(dir: &Path, stem: &str) -> Option<Vec<Vec<String>>> {
    let text = std::fs::read_to_string(dir.join(format!("{stem}.csv"))).ok()?;
    let split = |l: &str| l.split(',').map(|c| c.trim().to_string()).collect();
    let t: Vec<Vec<String>> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(split)
        .collect();
    (!t.is_empty()).then_some(t)
}

/// A cell's number (a trailing `%` dropped), NaN if it holds none.
fn cell(s: &str) -> f64 {
    s.trim_end_matches('%').parse().unwrap_or(f64::NAN)
}

/// A number as the report prints it.
fn num(v: f64) -> String {
    match v {
        v if v.is_nan() => "—".into(),
        v if v.is_infinite() => if v > 0.0 { "∞" } else { "−∞" }.into(),
        v if v.abs() >= 100.0 || v.fract() == 0.0 => format!("{v:.0}"),
        v => format!("{v:.3}"),
    }
}

/// The Markdown tables of the CSVs `stems` in `dir`, each padded to its
/// widest row.
fn tables<'a>(dir: &Path, stems: impl IntoIterator<Item = &'a str>, out: &mut String) {
    for stem in stems {
        let _ = writeln!(out, "`{stem}.csv`\n");
        let Some(t) = read_csv(dir, stem) else {
            out.push_str("Not in this results directory.\n\n");
            continue;
        };
        let width = t.iter().map(Vec::len).max().unwrap_or(0);
        for (i, cells) in t.iter().enumerate() {
            let padded = (0..width).map(|i| cells.get(i).map_or("", |c| c).replace('|', "\\|"));
            let _ = writeln!(out, "| {} |", padded.collect::<Vec<_>>().join(" | "));
            if i == 0 {
                let _ = writeln!(out, "|{}", "---|".repeat(width));
            }
        }
        out.push('\n');
    }
}

/// The header of a section's table of claims.
const CLAIMS_HEADER: &str =
    "| Claim | Paper | Must lie in | Measured | Slack | Result |\n|---|---|---|---|---|---|\n";

/// A claim's result by kind: not required at this scale, required, a
/// known deviation; each failing, then holding.
const RESULTS: [&str; 6] = [
    "fails (full scale only)",
    "holds (full scale only)",
    "**FAILS**",
    "holds",
    "deviates (known)",
    "**holds: no longer a deviation**",
];

/// `REPORT.md` for the results in `dir` at quick or full scale, and
/// whether every claim required at that scale holds: at full scale every
/// claim but a known deviation, at quick scale the [`Need::Quick`] ones.
/// A missing CSV fails its claims. CSVs no section names are rendered
/// under "Other results".
///
/// # Errors
///
/// When `dir` cannot be listed.
pub fn report(sections: &[&Section], dir: &Path, quick: bool) -> Result<(String, bool), String> {
    let listing = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = |name: String| Some(name.strip_suffix(".csv")?.to_string());
    let mut others: Vec<String> = listing
        .filter_map(|e| stem(e.ok()?.file_name().into_string().ok()?))
        .collect();
    others.retain(|o| !sections.iter().any(|s| s.csvs.contains(&o.as_str())));
    others.sort();
    // One line per claim, by the kind of its result.
    let (mut body, mut notes) = (String::new(), <[Vec<String>; 6]>::default());
    for s in sections {
        let _ = write!(body, "## {}\n\n**Paper.** {}\n\n", s.title, s.paper);
        tables(dir, s.csvs.iter().copied(), &mut body);
        let mut rows = String::new();
        for c in s.claims {
            let v = c.measure(dir).unwrap_or_default();
            let (lo, hi) = c.within;
            // NaN (no number) is skipped, and is what is left if all are.
            let (min, max) = v
                .iter()
                .fold((f64::NAN, f64::NAN), |(a, b), &x| (x.min(a), x.max(b)));
            let measured = match v[..] {
                [] => "missing".into(),
                [x] => num(x),
                _ if min == max => num(min),
                _ => format!("{} – {}", num(min), num(max)),
            };
            let holds = !v.is_empty() && v.iter().all(|x| (lo..=hi).contains(x));
            let slack = num(v
                .iter()
                .map(|x| (x - lo).min(hi - x))
                .fold(f64::NAN, f64::min));
            let bound = format!("[{}, {}]", num(lo), num(hi));
            let kind = holds as usize
                + match c.need {
                    _ if quick && c.need != Need::Quick => 0,
                    Need::Deviation => 4,
                    _ => 2,
                };
            let figure = s.title.split(" — ").next().unwrap_or(s.title);
            let now = if kind == 5 { ", now holds" } else { "" };
            let what = c.what;
            let note = format!("{figure} {what} ({measured}, must lie in {bound}{now})");
            notes[kind].push(note);
            let (csv, paper, result) = (c.csv, c.paper, RESULTS[kind]);
            let cells = [bound, measured, slack].join(" | ");
            let _ = writeln!(rows, "| `{csv}` {what} | {paper} | {cells} | {result} |");
        }
        if !rows.is_empty() {
            let _ = writeln!(body, "{CLAIMS_HEADER}{rows}");
        }
    }
    if !others.is_empty() {
        body.push_str("## Other results\n\n");
        tables(dir, others.iter().map(String::as_str), &mut body);
    }

    let [later_failing, later_holding, failed, held, deviating, fixed] = notes;
    let (scale, held) = (["full", "quick"][quick as usize], held.len());
    let mut verdict = format!(
        "At {scale} scale {held} of the {} claims required there hold",
        held + failed.len()
    );
    if !failed.is_empty() {
        verdict += &format!("; these fail: {}", failed.join("; "));
    }
    let deviations = [deviating, fixed].concat();
    if !deviations.is_empty() {
        verdict += &format!(
            ". The known deviations, expected to fail: {}",
            deviations.join("; ")
        );
    }
    let later = later_failing.len() + later_holding.len();
    if later > 0 {
        verdict += &format!(". {later} more claims are checked at full scale only");
    }
    verdict += match failed.is_empty() {
        true => ". Every claim required at this scale holds.",
        false => ". The reproduction does not stand at this scale until these hold again.",
    };
    let doc = format!(
        "# Reproduction report\n\n\
         Generated by `experiment report{}` from the CSVs beside this file. The claims are \
         declared next to the sweeps in `crates/bench/src/bin/experiment/`: edit those, not \
         this file. A claim's measured numbers must lie in its interval; slack is the distance \
         to the nearer end, negative outside it.\n\n## Verdict\n\n{verdict}\n\n{body}",
        if quick { " --quick" } else { "" }
    );
    Ok((doc.trim_end().to_string() + "\n", failed.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use Need::*;

    const NAMES: &[&str] = &["BBSS", "CRSS", "WOPTSS"];

    #[rustfmt::skip]
    const FIG: Section = Section { title: "Figure 99 — response vs k",
        paper: "CRSS beats BBSS from k = 10, by 2× at k = 100.",
        csvs: &["fig99_demo", "fig99_absent"], claims: &[
            Claim { need: Quick, csv: "fig99_demo", rows: Rows::All, stat: Stat::FirstAtLeast("BBSS", "CRSS"), within: (5.0, 50.0), what: "first k at which BBSS is at least CRSS", paper: "k = 10" },
            Claim { need: Full, csv: "fig99_demo", rows: Rows::At(100.0), stat: Stat::Ratio("BBSS", "CRSS"), within: (1.5, 3.0), what: "BBSS over CRSS at k = 100", paper: "2×" },
            Claim { need: Full, csv: "fig99_demo", rows: Rows::All, stat: Stat::Floor("WOPTSS", NAMES), within: (1.0, f64::INFINITY), what: "fastest other over WOPTSS", paper: "WOPTSS the floor" },
            Claim { need: Deviation, csv: "fig99_demo", rows: Rows::Nth(0), stat: Stat::Printed(NAMES, &[0.1, 0.2, 0.05]), within: (0.5, 2.0), what: "row 1 over the paper's", paper: "0.10 / 0.20 / 0.05 s" },
            Claim { need: Quick, csv: "fig99_absent", rows: Rows::All, stat: Stat::Values(&["CRSS"]), within: (0.0, 1.0), what: "CRSS", paper: "—" },
     ] };

    fn fixture(name: &str, demo: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sqda_claims_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("fig99_demo.csv"), demo).expect("csv");
        std::fs::write(dir.join("zz_other.csv"), "a,b\n1,2\nx,y,z\n").expect("csv");
        std::fs::write(dir.join("notes.txt"), "not a table").expect("txt");
        dir
    }

    const DEMO: &str =
        "k,BBSS,CRSS,WOPTSS\n1,0.10,0.20,0.05\n10,0.25,0.21,0.06\n100,0.50,0.22,0.07\n";

    /// Golden of the whole document for a fixture directory: one section
    /// with a missing CSV and claims of every kind, a ragged CSV under
    /// "Other results", a file that is not a CSV.
    #[test]
    fn report_is_pinned_for_a_fixture_directory() {
        let dir = fixture("golden", DEMO);
        let (md, ok) = report(&[&FIG], &dir, false).expect("report");
        let golden = "\
# Reproduction report

Generated by `experiment report` from the CSVs beside this file. The claims are declared next \
to the sweeps in `crates/bench/src/bin/experiment/`: edit those, not this file. A claim's \
measured numbers must lie in its interval; slack is the distance to the nearer end, negative \
outside it.

## Verdict

At full scale 3 of the 4 claims required there hold; these fail: Figure 99 CRSS (missing, \
must lie in [0, 1]). The known deviations, expected to fail: Figure 99 row 1 over the paper's \
(1, must lie in [0.500, 2], now holds). The reproduction does not stand at this scale \
until these hold again.

## Figure 99 — response vs k

**Paper.** CRSS beats BBSS from k = 10, by 2× at k = 100.

`fig99_demo.csv`

| k | BBSS | CRSS | WOPTSS |
|---|---|---|---|
| 1 | 0.10 | 0.20 | 0.05 |
| 10 | 0.25 | 0.21 | 0.06 |
| 100 | 0.50 | 0.22 | 0.07 |

`fig99_absent.csv`

Not in this results directory.

| Claim | Paper | Must lie in | Measured | Slack | Result |
|---|---|---|---|---|---|
| `fig99_demo` first k at which BBSS is at least CRSS | k = 10 | [5, 50] | 10 | 5 | holds |
| `fig99_demo` BBSS over CRSS at k = 100 | 2× | [1.500, 3] | 2.273 | 0.727 | holds |
| `fig99_demo` fastest other over WOPTSS | WOPTSS the floor | [1, ∞] | 2 – 3.500 | 1 | holds |
| `fig99_demo` row 1 over the paper's | 0.10 / 0.20 / 0.05 s | [0.500, 2] | 1 | 0.500 | \
**holds: no longer a deviation** |
| `fig99_absent` CRSS | — | [0, 1] | missing | — | **FAILS** |

## Other results

`zz_other.csv`

| a | b |  |
|---|---|---|
| 1 | 2 |  |
| x | y | z |
";
        assert_eq!(md, golden);
        assert!(!ok, "a required claim's CSV is missing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quick_scale_fails_only_on_a_quick_claim() {
        let (md, ok) = report(&[&FIG], &fixture("quick", DEMO), true).expect("report");
        assert!(!ok, "the missing CSV fails a quick claim");
        assert!(
            md.contains("3 more claims are checked at full scale only"),
            "{md}"
        );
        let held = Section {
            claims: &FIG.claims[..4],
            ..FIG
        };
        // A full-scale claim broken (BBSS 5× CRSS at k = 100) does not
        // fail a quick run; a quick one (BBSS ahead from k = 1) does.
        let wide = DEMO.replace("100,0.50", "100,1.10");
        assert!(
            report(&[&held], &fixture("quick", &wide), true)
                .expect("report")
                .1
        );
        assert!(
            !report(&[&held], &fixture("quick", &wide), false)
                .expect("report")
                .1
        );
        // No crossing at all: no number, shown as such.
        let never = DEMO
            .replace("10,0.25", "10,0.20")
            .replace("100,0.50", "100,0.20");
        let (md, ok) = report(&[&held], &fixture("quick", &never), true).expect("report");
        assert!(
            !ok && md.contains("(—, must lie in [5, 50])") && md.contains("| — | — |"),
            "{md}"
        );
        let early = DEMO.replace("1,0.10", "1,0.30");
        let (md, ok) = report(&[&held], &fixture("quick", &early), true).expect("report");
        assert!(
            !ok && md.contains("first k at which BBSS is at least CRSS (1, must lie in [5, 50])"),
            "{md}"
        );
        let _ = std::fs::remove_dir_all(fixture("quick", DEMO));
    }

    #[test]
    fn missing_results_dir_is_an_error() {
        assert!(report(&[&FIG], Path::new("/nonexistent/sqda-results"), false).is_err());
    }

    #[test]
    fn csv_rows_survive_ragged_cells() {
        let dir = fixture("ragged", DEMO);
        let mut out = String::new();
        tables(&dir, ["zz_other"], &mut out);
        assert!(out.contains("| x | y | z |\n"), "{out}");
        assert!(out.contains("| a | b |  |\n|---|---|---|\n"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
