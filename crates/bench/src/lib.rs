//! # sbu-bench — the experiment harness
//!
//! One module per experiment of `EXPERIMENTS.md` (E1–E15), each regenerating
//! the corresponding table from the paper's claims. Run them via the `exp`
//! binary:
//!
//! ```sh
//! cargo run --release -p sbu-bench --bin exp -- all
//! cargo run --release -p sbu-bench --bin exp -- e3
//! ```
//!
//! The paper is a theory paper: its "evaluation" is Theorem 6.6, the §6.4
//! complexity paragraph, the Figure 2/§4 observations and the §1/§7
//! hierarchy claims. Each experiment measures the implemented system and
//! reports the *shape* predicted by the paper (who wins, what grows how
//! fast, where the separations fall).
//!
//! Every experiment measures and reports through one path:
//! [`timed_threads`] times each native-thread column, [`tabulate`]
//! derives a table and its BENCH rows from one [`Field`] list,
//! [`write_bench`] writes `BENCH_<exp>.json`, and [`best_of`] is the one
//! noise guard a gate retries through.

pub mod e10_stress;
pub mod e11_recovery;
pub mod e12_service;
pub mod e13_faults;
pub mod e14_batch;
pub mod e15_socket;
pub mod e1_sticky_byte;
pub mod e2_election;
pub mod e3_space;
pub mod e4_time;
pub mod e5_crash;
pub mod e6_hierarchy;
pub mod e7_randomized;
pub mod e8_throughput;
pub mod e9_explore;

use sbu_mem::Pid;
use sbu_obs::Json;
use std::time::Instant;

/// Run `body(pid)` once on each of `threads` scoped threads (pids
/// `0..threads`) and return the aggregate rate: `threads * ops_per_thread`
/// operations over the wall time from the first spawn to the last join.
/// The one timing loop every native-thread column goes through; setup
/// (allocating the memory, building the object) stays outside the clock.
pub fn timed_threads(threads: usize, ops_per_thread: usize, body: impl Fn(Pid) + Sync) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads {
            let body = &body;
            s.spawn(move || body(Pid(i)));
        }
    });
    (threads * ops_per_thread) as f64 / t0.elapsed().as_secs_f64()
}

/// Samples a gate takes of a noisy measurement before its verdict.
pub const BEST_OF: usize = 3;

/// The noise guard for a gate on a millisecond-scale measurement: take
/// `sample` up to [`BEST_OF`] times, folding each retry into the best so
/// far with `merge`, and stop as soon as `good` holds. A busy neighbour
/// can halve one sample; a genuine regression survives every retry.
/// Returns the best sample and how many samples were taken.
pub fn best_of<T>(
    mut sample: impl FnMut() -> T,
    merge: impl Fn(&mut T, T),
    good: impl Fn(&T) -> bool,
) -> (T, usize) {
    let mut best = sample();
    let mut taken = 1;
    while taken < BEST_OF && !good(&best) {
        merge(&mut best, sample());
        taken += 1;
    }
    (best, taken)
}

fn write_doc(path: &str, doc: &Json) -> String {
    match std::fs::write(path, doc.render()) {
        Ok(()) => format!("wrote {path}\n"),
        Err(e) => format!("could not write {path}: {e}\n"),
    }
}

/// Write the experiment's `BENCH_<exp>.json` (schema in EXPERIMENTS.md)
/// to the working directory, returning a report line.
pub fn write_bench(exp: &str, doc: &Json) -> String {
    write_doc(&format!("BENCH_{exp}.json"), doc)
}

/// Write the `OBS_<exp>.json` observability artifact (schema in
/// EXPERIMENTS.md) next to the experiment's `BENCH_*.json`, returning a
/// report line. An empty snapshot (the `obs` feature is off, or nothing
/// registered) writes nothing and returns the empty string, so callers can
/// append unconditionally.
pub fn write_obs_artifact(exp: &str, snapshot: &sbu_obs::Snapshot) -> String {
    if snapshot.is_empty() {
        return String::new();
    }
    write_doc(&format!("OBS_{exp}.json"), &obs_doc(exp, snapshot))
}

/// The `OBS_<exp>.json` document for `snapshot`.
pub fn obs_doc(exp: &str, snapshot: &sbu_obs::Snapshot) -> Json {
    Json::obj(vec![
        ("experiment", Json::Str(exp.into())),
        ("metrics", snapshot.to_json()),
    ])
}

/// What a figure read from a compiled-out instrument shows instead of a
/// zero that would read like a measurement.
pub const OBS_OFF: &str = "n/a (obs off)";

/// `text` when the `obs` feature records, [`OBS_OFF`] otherwise: for
/// report figures computed from `sbu-obs` counters.
pub fn obs_figure(text: String) -> String {
    if sbu_obs::enabled() {
        text
    } else {
        OBS_OFF.into()
    }
}

/// One cell of a result row: its value in the BENCH document and its text
/// in the rendered table.
pub struct Cell(Json, String);

impl Cell {
    /// A count.
    pub fn int(n: u64) -> Cell {
        Cell(Json::Num(n as f64), n.to_string())
    }

    /// A measurement shown with `decimals` decimals.
    pub fn num(x: f64, decimals: usize) -> Cell {
        Cell(Json::Num(x), format!("{x:.decimals$}"))
    }

    /// A label.
    pub fn text(s: impl Into<String>) -> Cell {
        let s = s.into();
        Cell(Json::Str(s.clone()), s)
    }

    /// A verdict: `true`/`false` in the document, `yes`/`NO` in the table.
    pub fn yes(b: bool) -> Cell {
        Cell(Json::Bool(b), if b { "yes" } else { "NO" }.into())
    }

    /// A document-only value (say, a nested array).
    pub fn json(json: Json) -> Cell {
        Cell(json, String::new())
    }

    /// Append a unit to the table text (`×`, `%`).
    pub fn suffix(mut self, unit: &str) -> Cell {
        self.1.push_str(unit);
        self
    }

    /// Mark a value read from an `sbu-obs` instrument: with the `obs`
    /// feature off the table shows [`OBS_OFF`]; the document keeps the
    /// number, so its schema does not depend on the build.
    pub fn obs(self) -> Cell {
        Cell(self.0, obs_figure(self.1))
    }
}

/// One field of an experiment's rows: its key in the BENCH document's
/// `rows[]` (`""`: table only), its table column header (`""`: document
/// only), and how to read it from a row. One list drives both outputs.
pub type Field<R> = (&'static str, &'static str, fn(&R) -> Cell);

/// Derive an experiment's table and its BENCH document from one field
/// list: the table is titled `title`; the document is `head` plus a
/// `rows` array.
pub fn tabulate<R>(
    title: &str,
    fields: &[Field<R>],
    rows: &[R],
    mut head: Vec<(&str, Json)>,
) -> (String, Json) {
    let header: Vec<&str> = fields
        .iter()
        .map(|f| f.1)
        .filter(|h| !h.is_empty())
        .collect();
    let (mut table, mut docs) = (Vec::new(), Vec::new());
    for row in rows {
        let (mut cells, mut doc) = (Vec::new(), Vec::new());
        for (key, header, read) in fields {
            let Cell(json, text) = read(row);
            if !header.is_empty() {
                cells.push(text);
            }
            if !key.is_empty() {
                doc.push((*key, json));
            }
        }
        table.push(cells);
        docs.push(Json::obj(doc));
    }
    head.push(("rows", Json::Arr(docs)));
    (render_table(title, &header, &table), Json::obj(head))
}

/// Render a table: header row plus data rows, columns padded.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let mut widths = vec![0; header.len()];
    for row in std::iter::once(&header).chain(rows) {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        padded.join("  ") + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
    let body: String = rows.iter().map(|row| line(row)).collect();
    format!("{title}\n{}{rule}\n{body}", line(&header))
}

/// Assert that `doc` has exactly the key paths (object keys at every
/// depth, array elements merged) of the checked-in `benchmarks/<file>`:
/// a renamed or dropped BENCH field fails the build's tests. Returns the
/// rendered document for value checks.
#[cfg(test)]
pub(crate) fn assert_schema(file: &str, doc: &Json) -> String {
    fn paths(doc: &Json, at: &str, out: &mut std::collections::BTreeSet<String>) {
        match doc {
            Json::Obj(map) => map.iter().for_each(|(key, value)| {
                out.insert(format!("{at}.{key}"));
                paths(value, &format!("{at}.{key}"), out);
            }),
            Json::Arr(items) => items
                .iter()
                .for_each(|item| paths(item, &format!("{at}[]"), out)),
            _ => {}
        }
    }
    let path = format!("{}/../../benchmarks/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = Json::parse(&std::fs::read_to_string(&path).expect("checked-in benchmark"));
    let (mut want, mut got) = Default::default();
    paths(&golden.expect("benchmark parses"), "", &mut want);
    let text = doc.render();
    paths(
        &Json::parse(&text).expect("document round-trips"),
        "",
        &mut got,
    );
    assert_eq!(got, want, "{file}");
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_threads_runs_each_pid_once_and_divides_total_ops_by_wall_time() {
        let seen = std::sync::Mutex::new(Vec::new());
        let t0 = Instant::now();
        let rate = timed_threads(3, 100, |pid| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            seen.lock().unwrap().push(pid.0);
        });
        let outer = t0.elapsed().as_secs_f64();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2]);
        // 300 ops over at least the 20 ms every thread slept, and at most
        // the wall time around the call.
        assert!(rate <= 300.0 / 0.020, "{rate}");
        assert!(rate >= 300.0 / outer, "{rate}");
    }

    #[test]
    fn best_of_retries_only_until_the_gate_holds() {
        let mut samples = [5.0, 9.0, 7.0].into_iter();
        let max = |b: &mut f64, x: f64| *b = b.max(x);
        assert_eq!(
            best_of(|| samples.next().unwrap(), max, |&x| x >= 8.0),
            (9.0, 2)
        );
        let mut samples = [1.0, 2.0, 3.0, 4.0].into_iter();
        assert_eq!(
            best_of(|| samples.next().unwrap(), max, |_| false),
            (3.0, BEST_OF)
        );
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "T",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("T\n"));
        assert!(t.contains("333"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
    }
}
