//! # sbu-bench — the experiment harness
//!
//! One module per experiment of `EXPERIMENTS.md` (E1–E11), each regenerating
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

/// Write the `OBS_<exp>.json` observability artifact (schema in
/// EXPERIMENTS.md) next to the experiment's `BENCH_*.json`, returning a
/// report line. An empty snapshot (the `obs` feature is off, or nothing
/// registered) writes nothing and returns the empty string, so callers can
/// append unconditionally.
pub fn write_obs_artifact(exp: &str, snapshot: &sbu_obs::Snapshot) -> String {
    if snapshot.is_empty() {
        return String::new();
    }
    let doc = sbu_obs::Json::obj(vec![
        ("experiment", sbu_obs::Json::Str(exp.into())),
        ("metrics", snapshot.to_json()),
    ]);
    let path = format!("OBS_{exp}.json");
    match std::fs::write(&path, doc.render()) {
        Ok(()) => format!("wrote {path}\n"),
        Err(e) => format!("could not write {path}: {e}\n"),
    }
}

/// Render a table: header row plus data rows, columns padded.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
