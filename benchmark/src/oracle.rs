//! The answer oracle: a brute-force scan of the generated CSV, compared
//! with what the program printed (ids and six-decimal distances).

use crate::proc::Res;
use std::path::Path;

/// The generated dataset, read back from its CSV (ids are line numbers).
pub struct Points(pub Vec<[f64; 2]>);

impl Points {
    pub fn load(csv: &Path) -> Res<Self> {
        let text = std::fs::read_to_string(csv)?;
        let mut points = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let (x, y) = line.split_once(',').ok_or("CSV row is not 2-d")?;
            points.push([x.trim().parse()?, y.trim().parse()?]);
        }
        Ok(Points(points))
    }

    fn dist(&self, id: usize, q: &[f64; 2]) -> f64 {
        let p = &self.0[id];
        // Same association order as the program's kernel: x² + y².
        ((p[0] - q[0]) * (p[0] - q[0]) + (p[1] - q[1]) * (p[1] - q[1])).sqrt()
    }

    /// The `k` smallest distances from `q`, ascending, to six decimals.
    fn knn_distances(&self, q: &[f64; 2], k: usize) -> Vec<String> {
        let mut best: Vec<f64> = Vec::with_capacity(k + 1);
        for id in 0..self.0.len() {
            let d = self.dist(id, q);
            if best.len() < k || d < best[k - 1] {
                let at = best.partition_point(|&b| b <= d);
                best.insert(at, d);
                best.truncate(k);
            }
        }
        best.iter().map(|d| format!("{d:.6}")).collect()
    }

    /// Checks `(id, distance)` answers for query `q`: the distances are
    /// the true k smallest, and each id really lies at its distance (so a
    /// tie may be broken either way, but never wrongly).
    pub fn check(&self, q: &[f64; 2], k: usize, answers: &[(usize, String)]) -> Result<(), String> {
        let want = self.knn_distances(q, k);
        let got: Vec<&str> = answers.iter().map(|(_, d)| d.as_str()).collect();
        if got != want {
            return Err(format!("distances {got:?}, brute force says {want:?}"));
        }
        let mut ids: Vec<usize> = answers.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != answers.len() {
            return Err(format!("duplicate ids in {answers:?}"));
        }
        for (id, d) in answers {
            if *id >= self.0.len() || format!("{:.6}", self.dist(*id, q)) != *d {
                return Err(format!("object {id} is not at distance {d}"));
            }
        }
        Ok(())
    }
}

/// Parses a serve reply `OK <n> <id>:<dist> ...`.
pub fn parse_reply(reply: &str) -> Result<Vec<(usize, String)>, String> {
    let mut words = reply.split_whitespace();
    if words.next() != Some("OK") {
        return Err(format!("not an OK reply: {reply:.80}"));
    }
    let n: usize = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or("missing answer count")?;
    let answers: Vec<(usize, String)> = words
        .map(|w| {
            let (id, d) = w.split_once(':').ok_or(format!("bad answer {w:?}"))?;
            Ok((
                id.parse().map_err(|_| format!("bad id {id:?}"))?,
                d.to_string(),
            ))
        })
        .collect::<Result<_, String>>()?;
    if answers.len() != n {
        return Err(format!(
            "reply announces {n} answers, carries {}",
            answers.len()
        ));
    }
    Ok(answers)
}

/// Parses the neighbour lines of `sqda query` stdout:
/// `  obj<id>  <point>  distance <d>`.
pub fn parse_query_stdout(stdout: &str) -> Result<Vec<(usize, String)>, String> {
    stdout
        .lines()
        .filter(|l| l.contains("  distance "))
        .map(|l| {
            let id = l.split_whitespace().next().ok_or("empty neighbour line")?;
            let id = id.trim_start_matches("obj");
            let d = l.rsplit(' ').next().ok_or("no distance")?;
            Ok((
                id.parse().map_err(|_| format!("bad id in {l:?}"))?,
                d.to_string(),
            ))
        })
        .collect()
}
